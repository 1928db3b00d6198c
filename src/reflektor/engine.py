"""Finite closure of matrix groups over cyclotomic fields, plus element
diagnostics (orders, scalar powers, unipotence, relations, center).

An element x with denominator den is stored as the integer matrix den * x
in first-column form: an int64 array of shape (n*d, n) whose column j
stacks the zeta-coefficient vectors of the entries of column j.  The
denominator is positive and the gcd of it and every entry is 1, so the
denominator and the entries together are a canonical key.  A generator g
with denominator den becomes R(g), the (n*d) x (n*d) integer matrix whose
block (i, k) multiplies by den * g_ik on the power basis of Z[zeta_N]
(Cohen, A Course in Computational Algebraic Number Theory, 4.2), so the
first-column form of g*x is R(g) @ C(x).  One BFS layer times one
generator is a single batched matmul, exact because a bound on every
partial sum is checked before it is taken.  With peak = max |C(x)| and
rowsum the largest absolute row sum of R(g), every product and partial sum
is an integer of magnitude at most peak * rowsum.  Up to 2^53 the matmul
runs in float64 (BLAS), where such integers are exact whatever the order
of summation; up to 2^63 - 1 it falls back to int64; past that it raises
OverflowError.  Dedup keys are the bytes of the row [den | entries], as
int8 when every value of the row fits in one byte, else as int64; the
width depends on the row alone, so an element always has the same key.
"""

from math import lcm

import numpy as np

from .matrices import mat_word
from .upoly import UPoly

_INT64_MAX = (1 << 63) - 1
_FLOAT_EXACT = 1 << 53  # float64 holds every integer up to here exactly


class ClosureResult:
    def __init__(self, order, cap_exceeded, elements=None, dens=None,
                 stats=None):
        self.order = order
        self.cap_exceeded = cap_exceeded
        # (order, n*d, n) int64 first-column forms and their denominators,
        # or None
        self.elements = elements
        self.dens = dens
        # layers: frontiers multiplied out (for a finite group the last
        # yields nothing new); peak_frontier: the largest of them;
        # max_entry_bits: bit length of the largest coefficient multiplied,
        # against an int64 budget of 63 bits; int64_steps: generator steps
        # past the float64 bound that took the int64 matmul
        self.stats = stats

    def __repr__(self):
        tail = " (cap exceeded)" if self.cap_exceeded else ""
        return "<closure order %d%s>" % (self.order, tail)


def regular_rep(rows, ctx):
    """(R, den, rowsum) for a matrix given by rows of CycloElem entries:
    den is the common denominator, R the int64 regular representation of
    den * rows, and rowsum the largest absolute row sum of R."""
    d = ctx.degree
    den = lcm(*(x.den for row in rows for x in row))
    big = [[0] * (len(rows) * d) for _ in range(len(rows) * d)]
    for i, row in enumerate(rows):
        for k, x in enumerate(row):
            cols = ctx.mul_columns([c * (den // x.den) for c in x.vec])
            for b, col in enumerate(cols):
                for a, c in enumerate(col):
                    big[i * d + a][k * d + b] = c
    rowsum = max(sum(map(abs, r)) for r in big)
    if rowsum > _INT64_MAX:
        raise OverflowError("closure entries grew past the int64 guard")
    return np.array(big, dtype=np.int64), den, rowsum


def _peak(batch):
    return max(int(batch.max(initial=0)), -int(batch.min(initial=0)))


def apply_rep(rep, batch, dens, peak=None, fbatch=None):
    """R(g) @ batch for a (X, n*d, n) batch with denominators dens, the
    product denominators, and max |batch|.  Raises OverflowError unless
    max |batch| * rowsum(R) and max(dens) * den fit in int64, which
    bounds every partial sum of the matmul, so the result is exact; below
    2^53 the product is taken in float64.  A caller multiplying one batch
    by several generators may pass its peak and float64 copy."""
    mat, den, rowsum = rep
    if peak is None:
        peak = _peak(batch)
    if peak * rowsum > _INT64_MAX or int(dens.max(initial=0)) * den \
            > _INT64_MAX:
        raise OverflowError("closure entries grew past the int64 guard")
    if peak * rowsum > _FLOAT_EXACT:
        return np.matmul(mat, batch), dens * den, peak
    if fbatch is None:
        fbatch = batch.astype(np.float64)
    out = np.matmul(mat.astype(np.float64), fbatch).astype(np.int64)
    return out, dens * den, peak


def _void_rows(rows):
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))) \
        .ravel().tolist()


def _keys(batch, dens):
    """One bytes key per element, from its row [den | entries]: int8 bytes
    when every value of the row fits in int8, else int64 bytes.  The two
    widths differ in length, so keys of different widths never collide."""
    rows = np.empty((len(batch), 1 + batch[0].size), dtype=np.int64)
    rows[:, 0] = dens
    rows[:, 1:] = batch.reshape(len(batch), -1)
    if rows.min() >= -128 and rows.max() <= 127:
        return _void_rows(rows.astype(np.int8))
    keys = _void_rows(rows)
    small = np.flatnonzero(np.all((rows >= -128) & (rows <= 127), axis=1))
    for i, k in zip(small.tolist(), _void_rows(rows[small].astype(np.int8))):
        keys[i] = k
    return keys


def closure(gens, cap=1_000_000, store_elements=True):
    """Breadth-first closure of the group generated by SquareMat generators
    with CycloElem entries, multiplying each new layer on the left by each
    generator.  Stops once more than cap distinct elements have been
    found, reporting cap_exceeded instead of an order."""
    ctx = gens[0].rows[0][0].ctx
    n, d = gens[0].n, ctx.degree
    reps = [regular_rep(g.rows, ctx) for g in gens]
    frontier = np.zeros((1, n * d, n), dtype=np.int64)
    frontier[0, np.arange(n) * d, np.arange(n)] = 1
    fdens = np.ones(1, dtype=np.int64)
    seen = set(_keys(frontier, fdens))
    kept = [(frontier, fdens)]
    stats = {"layers": 0, "peak_frontier": 1, "max_entry_bits": 1,
             "int64_steps": 0}
    total = 1
    capped = False
    while len(frontier) and not capped:
        stats["layers"] += 1
        peak = _peak(frontier)
        stats["max_entry_bits"] = max(stats["max_entry_bits"],
                                      peak.bit_length())
        fbatch = frontier.astype(np.float64)
        layer = []
        for rep in reps:
            out, dens, _ = apply_rep(rep, frontier, fdens, peak, fbatch)
            stats["int64_steps"] += peak * rep[2] > _FLOAT_EXACT
            if dens.max() > 1:  # else every gcd with a denominator is 1
                g = np.gcd(np.gcd.reduce(out.reshape(len(out), -1), axis=1),
                           dens)
                out //= g[:, None, None]
                dens //= g
            # k in seen or seen.add(k) is falsy exactly for a key not seen
            # before, and adds it, so repeats within the batch drop too
            fresh = [i for i, k in enumerate(_keys(out, dens))
                     if not (k in seen or seen.add(k))]
            layer.append((out[fresh], dens[fresh]))
            total += len(fresh)
            if total > cap:
                capped = True
                break
        frontier = np.concatenate([a for a, _ in layer])
        fdens = np.concatenate([b for _, b in layer])
        stats["peak_frontier"] = max(stats["peak_frontier"], len(frontier))
        if store_elements:
            kept.append((frontier, fdens))
    if capped or not store_elements:
        return ClosureResult(total, capped, stats=stats)
    return ClosureResult(total, False, np.concatenate([a for a, _ in kept]),
                         np.concatenate([b for _, b in kept]), stats)


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
    """Size of the centralizer of the generators inside a stored closure.
    x commutes with g when C(g x) = R(g) C(x) is the transpose of
    C((x g)^T) = R(g^T) C(x^T); both products have the denominator
    den(x) den(g), so their numerators are compared as they come out."""
    if result.cap_exceeded:
        raise ValueError("closure stopped at its cap; the center needs "
                         "the whole group")
    if result.elements is None:
        raise ValueError("closure was run without element storage")
    ctx, n = gens[0].rows[0][0].ctx, gens[0].n
    shape = (-1, n, ctx.degree, n)  # [x, i, a, j]: coefficient a of x_ij
    x, dens = result.elements, result.dens
    for g in gens:
        xt = x.reshape(shape).transpose(0, 3, 2, 1).reshape(x.shape)
        peak = _peak(x)
        left = apply_rep(regular_rep(g.rows, ctx), x, dens, peak)[0]
        right = apply_rep(regular_rep(list(zip(*g.rows)), ctx), xt, dens,
                          peak)[0]
        same = np.all(left.reshape(shape)
                      == right.reshape(shape).transpose(0, 3, 2, 1),
                      axis=(1, 2, 3))
        x, dens = x[same], dens[same]
    return len(x)


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
