"""Finite closure of matrix groups over cyclotomic fields, plus element
diagnostics (orders, scalar powers, unipotence, relations, center).

Elements are encoded as an int64 array of shape (n, n, d) holding the
zeta-coefficients of den * M, with a single positive denominator per matrix
and the gcd of everything equal to 1, so the byte string of the array plus
the denominator is a canonical key.  One BFS layer is multiplied by one
generator in a single pair of integer tensordots against the field's
structure tensor, which is what makes the order-14400 closures cheap.
"""

from math import gcd, lcm

import numpy as np

from .matrices import mat_word
from .upoly import UPoly

_MAX_ENTRY = 1 << 40  # overflow guard for the int64 tensor products


class ClosureResult:
    def __init__(self, order, cap_exceeded, ctx, size, elements=None,
                 dens=None):
        self.order = order
        self.cap_exceeded = cap_exceeded
        self.ctx = ctx
        self.size = size
        self.elements = elements  # (order, n, n, d) int64 array or None
        self.dens = dens

    def __repr__(self):
        tail = " (cap exceeded)" if self.cap_exceeded else ""
        return "<closure order %d%s>" % (self.order, tail)


def _mat_to_array(mat, ctx):
    n = mat.n
    d = ctx.degree
    den = 1
    for row in mat.rows:
        for x in row:
            den = lcm(den, x.den)
    arr = np.zeros((n, n, d), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            x = mat.rows[i][j]
            f = den // x.den
            arr[i, j, :] = [c * f for c in x.vec]
    return arr, den


def _batch_rmul(batch, dens, g_arr, g_den, tensor):
    """(X,n,n,d) batch times one generator, gcd-normalized."""
    if abs(int(batch.max(initial=0))) > _MAX_ENTRY or \
            abs(int(batch.min(initial=0))) > _MAX_ENTRY:
        raise OverflowError("closure entries grew past the int64 guard")
    # out[x,i,j,t] = sum_k,a,b batch[x,i,k,a] g[k,j,b] T[a,b,t]
    b = np.tensordot(batch, g_arr, axes=([2], [0]))      # (x,i,a,j,b)
    out = np.tensordot(b, tensor, axes=([2, 4], [0, 1]))  # (x,i,j,t)
    new_dens = dens * g_den
    flat = np.abs(out.reshape(out.shape[0], -1))
    g = np.gcd.reduce(flat, axis=1)
    g = np.gcd(g, new_dens)
    g[g == 0] = 1
    out //= g[:, None, None, None]
    new_dens //= g
    return np.ascontiguousarray(out), new_dens


def _batch_lmul(g_arr, g_den, batch, dens, tensor):
    b = np.tensordot(g_arr, batch, axes=([1], [1]))       # (i,a,x,j,b)
    out = np.tensordot(b, tensor, axes=([1, 4], [0, 1]))  # (i,x,j,t)
    out = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    new_dens = dens * g_den
    flat = np.abs(out.reshape(out.shape[0], -1))
    g = np.gcd.reduce(flat, axis=1)
    g = np.gcd(g, new_dens)
    g[g == 0] = 1
    out //= g[:, None, None, None]
    return np.ascontiguousarray(out), new_dens // g


def closure(gens, cap=1_000_000, store_elements=True):
    """Breadth-first closure of the group generated by SquareMat generators
    with CycloElem entries.  Stops once more than cap distinct elements have
    been found, reporting cap_exceeded instead of an order."""
    ctx = gens[0].rows[0][0].ctx
    n = gens[0].n
    tensor = ctx.structure_tensor()
    garrs = [_mat_to_array(g, ctx) for g in gens]

    ident = np.zeros((n, n, ctx.degree), dtype=np.int64)
    for i in range(n):
        ident[i, i, 0] = 1

    seen = set()
    kept_arrays = []
    kept_dens = []

    def key_of(arr, den):
        return (int(den), arr.tobytes())

    seen.add(key_of(ident, 1))
    kept_arrays.append(ident[None, :])
    kept_dens.append(np.array([1], dtype=np.int64))

    frontier = ident[None, :]
    frontier_dens = np.array([1], dtype=np.int64)

    total = 1
    capped = False
    while len(frontier) and not capped:
        new_arrays = []
        new_dens = []
        for g_arr, g_den in garrs:
            out, dens = _batch_rmul(frontier, frontier_dens, g_arr, g_den,
                                    tensor)
            for idx in range(out.shape[0]):
                k = key_of(out[idx], dens[idx])
                if k not in seen:
                    seen.add(k)
                    new_arrays.append(out[idx])
                    new_dens.append(int(dens[idx]))
                    total += 1
            if total > cap:
                capped = True
                break
        if new_arrays and not capped:
            frontier = np.stack(new_arrays)
            frontier_dens = np.array(new_dens, dtype=np.int64)
            kept_arrays.append(frontier)
            kept_dens.append(frontier_dens)
        elif capped or not new_arrays:
            frontier = np.empty((0, n, n, ctx.degree), dtype=np.int64)
            frontier_dens = np.empty((0,), dtype=np.int64)

    if capped:
        return ClosureResult(total, True, ctx, n)
    if store_elements:
        return ClosureResult(total, False, ctx, n,
                             elements=np.concatenate(kept_arrays),
                             dens=np.concatenate(kept_dens))
    return ClosureResult(total, False, ctx, n)


def closure_keys(gens, cap=1_000_000):
    """The canonical key set of the closure (for invariance tests)."""
    res = closure(gens, cap=cap, store_elements=True)
    if res.cap_exceeded:
        raise ValueError("cap exceeded")
    return {(int(d), a.tobytes()) for a, d in zip(res.elements, res.dens)}


def element_order(mat, cap=10_000):
    """Multiplicative order, or None when cap is passed first."""
    p = mat
    for k in range(1, cap + 1):
        if p.is_identity():
            return k
        p = p * mat
    return None


def scalar_power_check(mat, k):
    """mat^k when it is a scalar matrix (the scalar as a CycloElem),
    else None."""
    p = mat ** k
    if p.is_scalar():
        return p.rows[0][0]
    return None


def is_unipotent(mat):
    n = mat.n
    target = UPoly([-mat.one, mat.one]) ** n  # (X - 1)^n
    return mat.char_poly() == target


def check_relation(gens, word, exponent=1, rhs_word=None, rhs_exponent=1):
    """Whether (product of gens over word)^exponent equals the identity, or
    equals the analogous right-hand side when rhs_word is given.  Words are
    1-based generator index lists."""
    lhs = mat_word(gens, word) ** exponent
    if rhs_word is None:
        return lhs.is_identity()
    rhs = mat_word(gens, rhs_word) ** rhs_exponent
    return lhs == rhs


def conjugate(gens, i, word):
    """g^w = w^-1 g w for 1-based index i and word of 1-based indices;
    the conjugating letters are involutions here so the inverse word is the
    reversal."""
    return mat_word(gens, list(reversed(word)) + [i] + list(word))


def center_order(result, gens):
    """Size of the centralizer of the generators inside a stored closure."""
    if result.elements is None:
        raise ValueError("closure was run without element storage")
    ctx = result.ctx
    tensor = ctx.structure_tensor()
    mask = np.ones(len(result.elements), dtype=bool)
    for g in gens:
        g_arr, g_den = _mat_to_array(g, ctx)
        right, rd = _batch_rmul(result.elements, result.dens, g_arr, g_den,
                                tensor)
        left, ld = _batch_lmul(g_arr, g_den, result.elements, result.dens,
                               tensor)
        same = np.all(right == left, axis=(1, 2, 3)) & (rd == ld)
        mask &= same
    return int(mask.sum())


def monomial_group_order(p, n):
    """Independent enumeration of the monomial model: permutation matrices
    whose nonzero entries are p-th roots of unity with exponents summing to
    0 mod p."""
    from itertools import permutations, product
    seen = set()
    for perm in permutations(range(n)):
        for exps in product(range(p), repeat=n - 1):
            # the last exponent is forced by the determinant condition
            last = (-sum(exps)) % p
            seen.add((perm, exps + (last,)))
    return len(seen)
