"""Catalog of exact identities satisfied by the u_n family.

Each entry is data: an index arity, an admissibility predicate, and a builder
returning one or more (lhs, rhs) pairs that must be equal.  Tags are stable
names used by the verification suites and the CLI; a tag whose source states
several equivalent expressions checks all of them.

A builder takes the ring it computes in as its first argument, a `Ring`
record: `u(k)` is u_k, `x` is X, `y` is 4 - X, `uy(k)` is u_k(4 - X) and
`zero` is 0.  The same builders run in two rings: `UPoly` itself (u_poly,
X, 4 - X, u_poly(k).compose(4 - X), 0), the slow oracle of the tests, and
`LAURENT`, where `certify` decides them.

The certificate.  Put X = (t + 1/t)^2, which is 4cos^2(s) at t = e^(is).
X -> t^2 + 2 + t^-2 is an injective ring map Z[X] -> Z[t, 1/t], since a
nonzero f of degree d goes to c t^(2d) + (lower terms), so lhs = rhs in
Z[X] exactly when their images agree.  The images have closed forms for
every integer k, with a_k = t^k - t^-k (so u_0 = 0 and u_-k = -u_k):

- u_k = a_k / (t - 1/t) for odd k and a_k / (t^2 - t^-2) for even k,
  the ratios sin(ks)/sin(s) and sin(ks)/sin(2s);
- X = (t + 1/t)^2 and 4 - X = -(t - 1/t)^2;
- u_k(4 - X) is u_k at t -> i t, which sends X to 4 - X:
  (-1)^((k-1)/2) (t^k + t^-k) / (t + 1/t) for odd k and
  -(-1)^(k/2) a_k / (t^2 - t^-2) for even k.

So every value is a Laurent numerator with a few terms over
(t - 1/t)^a (t + 1/t)^b, with t^2 - t^-2 = (t - 1/t)(t + 1/t) and a, b
negative for the factors of X and 4 - X.  A sum brings both numerators to
the larger exponents by multiplying with t - 1/t or t + 1/t; a product
multiplies numerators term by term, with no like terms merged on the way.
Z[t, 1/t] is a domain, so lhs - rhs brought over one common nonzero
denominator is zero exactly when its numerator is: a tuple passes when,
for every pair, the coefficients of each exponent sum to 0.

Batches.  An index batch (`_Idx`) holds one index per tuple and supports
+ - * //, unary minus and (-1) ** k; k % 2 is an int while the parity is
known (not after //), and raises TypeError otherwise, as do comparisons,
abs and truth tests.  Tuples are grouped by the parity of each index, so in a
batch the parity of every index expression, and with it the shape of each
closed form, is one int: `_sign`, `(r.x if n % 2 == 0 else 1)` and
`(-1) ** ((p - 1) // 2)` run unchanged on whole batches of at most _BATCH
tuples.  A builder that raises TypeError on a batch (it branches on abs,
say) runs again one tuple at a time, on Python-int indices, through the
same ring.  Every value carries a bound on the sum of the absolute values
of its coefficients in any tuple: + adds bounds, * multiplies them, and a
factor t +- 1/t doubles one.  That sum bounds every coefficient and every
partial sum of like terms, so the coefficients are int64 while the bound
is below 2^62 and Python ints (object arrays) from there on, and nothing
wraps.  Indices are refused from 2^32 in absolute value on, so index
arithmetic and the exponents of t stay far inside int64.

The recurrence tag AR is the step-2 form u_{n+4} = (X-2) u_{n+2} - u_n,
which is the one the family actually satisfies for every integer n.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product
import operator

import numpy as np

from .report import SuiteResult
from .upoly import (UPoly, ring_pow, u_poly, v_poly, prime_power_class,
                    n_prime, euler_phi, _divisors, _mobius)

FOUR_MINUS_X = UPoly([4, -1])

Ring = namedtuple("Ring", "u x y uy zero")

# indices are below this in absolute value, so index arithmetic and the
# exponents of t stay far inside int64
_IDX_MAX = 1 << 32
# coefficients are int64 while a value's bound is below this
_INT64_BOUND = 1 << 62
# the most index tuples in one batch
_BATCH = 1 << 16


class _Idx:
    """One index per tuple of a batch: an int64 array v, and its parity par
    when that is known to be the same for every tuple (else None, as after
    //).  Arithmetic with ints and other batches is elementwise; k % 2 is
    the int par; anything that would branch per tuple raises TypeError."""
    __slots__ = ("v", "par")

    def __init__(self, v, par=None):
        self.v, self.par = v, par

    def _op(self, other, f, keeps_parity=True):
        if isinstance(other, _Idx):
            w, q = other.v, other.par
        elif isinstance(other, int):
            w, q = other, other % 2
        else:
            return NotImplemented
        par = None
        if keeps_parity and self.par is not None and q is not None:
            par = f(self.par, q) % 2
        return _Idx(f(self.v, w), par)

    def __add__(self, other):
        return self._op(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, operator.sub)

    def __rsub__(self, other):
        return self._op(other, lambda v, w: w - v)

    def __mul__(self, other):
        return self._op(other, operator.mul)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._op(other, operator.floordiv, keeps_parity=False)

    def __neg__(self):
        return _Idx(-self.v, self.par)

    def __mod__(self, m):
        if m != 2 or self.par is None:
            raise TypeError("only k % 2 of known parity is defined on an "
                            "index batch")
        return self.par

    def __rpow__(self, base):
        if base != -1:
            raise TypeError("only (-1) ** k is defined on an index batch")
        return _Idx(1 - 2 * (self.v & 1), 1)

    def __bool__(self):
        raise TypeError("an index batch has no truth value")

    def __eq__(self, other):
        raise TypeError("index batches do not compare")

    __ne__ = __eq__
    __hash__ = None


def _coeffs(c, bound):
    """c as int64 while bound is below _INT64_BOUND, else as Python ints;
    Python ints stay Python ints whatever the bound."""
    c = np.asarray(c)
    if bound < _INT64_BOUND and c.dtype != object:
        return c.astype(np.int64, copy=False)
    return c.astype(object)


class _Laurent:
    """Per tuple of a batch, num / ((t - 1/t)^a (t + 1/t)^b).  num has the
    exponents e and the coefficients c, (rows, terms) arrays with one row
    per tuple or one row for all; a and b are ints; bound is at least the
    sum of |c| over any row."""
    __slots__ = ("e", "c", "a", "b", "bound")
    __array_ufunc__ = None

    def __init__(self, e, c, a, b, bound):
        self.e, self.c, self.a, self.b, self.bound = e, c, a, b, bound

    def _over(self, a, b):
        # the same value over (t - 1/t)^a (t + 1/t)^b: num times
        # t + s/t, with s = -1 a - self.a times and s = 1 b - self.b times
        e, c, bound = self.e, self.c, self.bound
        for s in [-1] * (a - self.a) + [1] * (b - self.b):
            bound *= 2
            c = _coeffs(c, bound)
            e = np.concatenate([e + 1, e - 1], axis=1)
            c = np.concatenate([c, s * c], axis=1)
        return _Laurent(e, c, a, b, bound)

    def __add__(self, other):
        other = _laurent(other)
        a, b = max(self.a, other.a), max(self.b, other.b)
        p, q = self._over(a, b), other._over(a, b)
        bound = p.bound + q.bound
        return _Laurent(_join(p.e, q.e),
                        _join(_coeffs(p.c, bound), _coeffs(q.c, bound)),
                        a, b, bound)

    __radd__ = __add__

    def __neg__(self):
        return _Laurent(self.e, -self.c, self.a, self.b, self.bound)

    def __sub__(self, other):
        return self + -_laurent(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _laurent(other)
        bound = self.bound * other.bound
        c, d = _coeffs(self.c, bound), _coeffs(other.c, bound)
        e = self.e[:, :, None] + other.e[:, None, :]
        c = c[:, :, None] * d[:, None, :]
        return _Laurent(e.reshape(len(e), -1), c.reshape(len(c), -1),
                        self.a + other.a, self.b + other.b, bound)

    __rmul__ = __mul__

    def __pow__(self, n):
        return ring_pow(self, n, _laurent(1))


def _join(p, q):
    # the terms of p, then those of q, broadcast to the same rows
    if len(p) != len(q):
        rows = max(len(p), len(q))
        p, q = (np.broadcast_to(x, (rows, x.shape[1])) for x in (p, q))
    return np.concatenate([p, q], axis=1)


_E0 = np.zeros((1, 1), dtype=np.int64)


def _laurent(v):
    """v as a _Laurent: an int or an index batch is a constant per
    tuple; anything else raises TypeError."""
    if isinstance(v, _Laurent):
        return v
    if isinstance(v, int):
        return _Laurent(_E0, _coeffs([[v]], abs(v)), 0, 0, abs(v))
    if isinstance(v, _Idx):
        return _Laurent(_E0, v.v[:, None], 0, 0, int(np.abs(v.v).max()))
    raise TypeError("no Laurent value for %r" % (v,))


def _vec(k):
    return k.v if isinstance(k, _Idx) else np.array([k], dtype=np.int64)


_PLUS_MINUS = np.array([[1, -1]], dtype=np.int64)
_PLUS_PLUS = np.array([[1, 1]], dtype=np.int64)


def _u(k):
    # a_k / (t - 1/t), times 1 / (t + 1/t) for even k
    v, odd = _vec(k), k % 2
    return _Laurent(v[:, None] * _PLUS_MINUS, _PLUS_MINUS, 1, 1 - odd, 2)


def _uy(k):
    # u_k at t -> i t: (-1)^h (t^k + t^-k) / (t + 1/t) with h = (k-1)/2
    # for odd k, -(-1)^h a_k / (t^2 - t^-2) with h = k/2 for even k
    v, odd = _vec(k), k % 2
    e = v[:, None] * _PLUS_MINUS
    s = (1 - 2 * (((v - odd) // 2) & 1))[:, None]
    if odd:
        return _Laurent(e, s * _PLUS_PLUS, 0, 1, 2)
    return _Laurent(e, -s * _PLUS_MINUS, 1, 1, 2)


LAURENT = Ring(_u,
               _Laurent(_E0, np.ones((1, 1), np.int64), 0, -2, 1),
               _Laurent(_E0, -np.ones((1, 1), np.int64), -2, 0, 1),
               _uy,
               _Laurent(_E0[:, :0], _E0[:, :0], 0, 0, 0))


def _any(idx):
    return True


def _n_even(idx):
    return idx[0] % 2 == 0


def _n_odd(idx):
    return idx[0] % 2 == 1


def _p_odd_pos(idx):
    return idx[0] >= 1 and idx[0] % 2 == 1


def _sign(k):
    # (-1)^k for any integer k, negatives included
    return 1 if k % 2 == 0 else -1


IDENTITIES = {
    "A1": (1, _any, lambda r, n: [
        (r.u(2*n+2) - r.u(2*n+1) + r.u(2*n), r.zero)]),
    "A2": (1, _any, lambda r, n: [
        (r.u(2*n+1) - r.x*r.u(2*n) + r.u(2*n-1), r.zero)]),
    "AR": (1, _any, lambda r, n: [
        (r.u(n+4) - (r.x - 2)*r.u(n+2) + r.u(n), r.zero)]),
    "P4_even": (2, _any, lambda r, n, m: [
        (r.u(n+2*m) + r.u(n-2*m), (r.u(2*m+1) - r.u(2*m-1)) * r.u(n))]),
    "P4_odd": (2, _any, lambda r, n, m: [
        (r.u(n+2*m+1) + r.u(n-2*m-1),
         (r.x if n % 2 == 0 else 1) * (r.u(2*m+2) - r.u(2*m)) * r.u(n))]),
    "C5_9": (1, _any, lambda r, n: [
        (r.u(2*n), r.u(n) * (r.u(n+1) - r.u(n-1)))]),
    "C5_10": (1, _any, lambda r, n: [
        (r.u(2*n), r.u(n+1) * (r.u(n) - r.u(n-2)) - 1)]),
    "C5_11": (1, _any, lambda r, n: [
        (r.u(2*n), r.u(n-1) * (r.u(n+2) - r.u(n)) + 1)]),
    "C5_12": (1, _n_even, lambda r, n: [
        (r.u(2*n+1), r.u(n+1) * (r.u(n+1) - r.u(n-1)) - 1)]),
    "C5_13": (1, _n_even, lambda r, n: [
        (r.u(2*n+1), r.x * r.u(n) * (r.u(n+2) - r.u(n)) + 1)]),
    "C5_14": (1, _n_odd, lambda r, n: [
        (r.u(2*n+1), r.x * r.u(n+1) * (r.u(n+1) - r.u(n-1)) - 1),
        (r.u(2*n+1), r.u(n) * (r.u(n+2) - r.u(n)) + 1)]),
    "P6_15": (1, _any, lambda r, n: [
        (r.u(2*n), _sign(n - 1) * r.uy(2*n))]),
    "C6_16": (1, _p_odd_pos, lambda r, p: [
        (r.u(2*p), (-1) ** ((p - 1) // 2) * r.u(p) * r.uy(p))]),
    "P7_17": (2, _any, lambda r, n, p: [
        (r.u(2*n), r.u(p) * r.u(2*n+1-p) - r.u(p-1) * r.u(2*n-p))]),
    "P7_18": (2, _any, lambda r, n, p: [
        (r.u(2*n+1),
         r.u(2*p+1) * r.u(2*n+1-2*p) - r.x * r.u(2*p) * r.u(2*n-2*p)),
        (r.u(2*n+1),
         r.x * r.u(2*p+2) * r.u(2*n-2*p) - r.u(2*p+1) * r.u(2*n-2*p-1))]),
    "P7_19": (2, _any, lambda r, n, p: [
        (r.u(2*n-1),
         r.u(2*p-1) * r.u(2*n+1-2*p) - r.x * r.u(2*p-2) * r.u(2*n-2*p))]),
    "P7_20": (2, _any, lambda r, n, p: [
        (r.u(2*n-1),
         r.x * r.u(2*p) * r.u(2*n-2*p) - r.u(2*p-1) * r.u(2*n-2*p-1))]),
    "C8_21": (1, _any, lambda r, n: [
        (r.u(4*n+1), r.u(2*n+1) ** 2 - r.x * r.u(2*n) ** 2),
        (r.u(4*n+1), r.x * r.u(2*n+2) * r.u(2*n) - r.u(2*n+1) * r.u(2*n-1))]),
    "C8_22": (1, _any, lambda r, n: [
        (r.u(4*n-1), r.x * r.u(2*n) ** 2 - r.u(2*n-1) ** 2),
        (r.u(4*n-1), r.u(2*n+1) * r.u(2*n-1) - r.x * r.u(2*n) * r.u(2*n-2))]),
    "P9_23": (1, _any, lambda r, n: [
        (r.u(2*n+1) ** 2 - 1, r.x * r.u(2*n) * r.u(2*n+2))]),
    "P9_24": (1, _any, lambda r, n: [
        (r.x * r.u(2*n) ** 2 - 1, r.u(2*n-1) * r.u(2*n+1))]),
    "C10_25": (1, _any, lambda r, n: [
        (r.u(4*n+1) - r.u(4*n-1), 2 - r.x * r.y * r.u(2*n) ** 2)]),
    "C10_26": (1, _any, lambda r, n: [
        (r.u(4*n+3) - r.u(4*n+1), 2 - r.y * r.u(2*n+1) ** 2)]),
    "P11_28": (1, _n_even, lambda r, n: [
        (r.u(n-1)*r.u(2*n) - r.u(n)*r.u(2*n-1), -r.u(n))]),
    "P11_29": (1, _n_even, lambda r, n: [
        (r.x*r.u(n)*r.u(2*n) - r.u(n+1)*r.u(2*n-1), -r.u(n-1))]),
    "P11_30": (1, _n_odd, lambda r, n: [
        (r.x*r.u(n-1)*r.u(2*n) - r.u(n)*r.u(2*n-1), -r.u(n))]),
    "P11_31": (1, _n_odd, lambda r, n: [
        (r.u(n)*r.u(2*n) - r.u(n+1)*r.u(2*n-1), -r.u(n-1))]),
}

ALL_TAGS = tuple(IDENTITIES)


def _result(name, label, cases, failures):
    """A SuiteResult with the single case label, which passes when there
    are no failing index tuples and is skipped when nothing was checked;
    the detail counts the tuples checked and lists the first failing
    ones."""
    res = SuiteResult(name)
    detail = "%d index tuples" % cases
    if not cases:
        res.skip(label, detail)
        return res
    if failures:
        detail += "; failing: %s" % (failures[:10],)
    res.check(not failures, label, detail)
    return res


def _unequal(pairs, rows):
    """(bad, terms, degree) for a batch's pairs: bad marks the rows where
    some lhs - rhs, over a common denominator, has a coefficient that does
    not sum to 0; terms is the most terms of one row's numerator, and
    degree the largest |exponent| of t in them.  Each row's terms are
    sorted by exponent once, and like terms summed by one reduceat."""
    bad = np.zeros(rows, dtype=bool)
    terms = degree = 0
    for lhs, rhs in pairs:
        diff = _laurent(lhs) - rhs
        n = diff.e.shape[1]
        if not n:
            continue
        e = np.broadcast_to(diff.e, (rows, n))
        c = np.broadcast_to(diff.c, (rows, n))
        terms = max(terms, n)
        degree = max(degree, int(np.abs(e).max()))
        order = np.argsort(e, axis=1)
        order += np.arange(0, rows * n, n)[:, None]
        order = order.ravel()
        e = e.ravel()[order]
        first = np.empty(rows * n, dtype=bool)
        first[1:] = e[1:] != e[:-1]
        first[::n] = True
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(c.ravel()[order], starts)
        bad[starts[sums != 0] // n] = True
    return bad, terms, degree


def _batch(build, block):
    """_unequal for the index tuples of one parity class (the rows of
    block), on one batch, or one tuple at a time if the builder raises
    TypeError on a batch."""
    try:
        pairs = build(LAURENT, *_indices(block))
    except TypeError:
        bad, terms, degree = np.zeros(len(block), dtype=bool), 0, 0
        for i, idx in enumerate(block.tolist()):
            b, t, d = _unequal(build(LAURENT, *idx), 1)
            bad[i], terms, degree = b[0], max(terms, t), max(degree, d)
        return bad, terms, degree
    return _unequal(pairs, len(block))


def _indices(block):
    """The columns of a block of one parity class, as index batches."""
    return tuple(_Idx(col, int(col[0]) % 2) for col in block.T)


def _parity_classes(idx):
    """The rows of idx grouped by the parity of each index."""
    cls = (idx & 1) @ (1 << np.arange(idx.shape[1]))
    order = np.argsort(cls, kind="stable")
    return [rows for rows in np.split(order, np.cumsum(np.bincount(cls)))
            if len(rows)]


def certify(build, tuples):
    """(failures, terms, degree) for a builder over index tuples, each
    pair decided exactly as Laurent polynomials in t (module docstring).
    failures lists the tuples with some pair that differs, as tuples of
    ints in the order given; terms and degree are the largest of
    `_unequal`'s over the batches.  The tuples are split by parity class
    into batches of at most _BATCH."""
    idx = np.asarray(tuples, dtype=np.int64)
    if not idx.size:
        return [], 0, 0
    idx = idx.reshape(len(idx), -1)
    if int(np.abs(idx).max()) >= _IDX_MAX:
        raise ValueError("identity indices must be below 2^32 in absolute "
                         "value")
    failing, terms, degree = [], 0, 0
    for rows in _parity_classes(idx):
        for start in range(0, len(rows), _BATCH):
            part = rows[start:start + _BATCH]
            bad, t, d = _batch(build, idx[part])
            failing.append(part[bad])
            terms, degree = max(terms, t), max(degree, d)
    failing = np.sort(np.concatenate(failing))
    return [tuple(r) for r in idx[failing].tolist()], terms, degree


def check_identity(tag, lo, hi, span=None):
    """Check one tag for every admissible index tuple with all indices in
    [lo, hi], by `certify`.  The one case is labelled (tag, span), or just
    tag; its stats record the most terms compared for one tuple as
    laurent_terms and the largest |exponent| of t as laurent_degree."""
    if tag not in IDENTITIES:
        raise KeyError("unknown identity tag %r" % (tag,))
    arity, domain, build = IDENTITIES[tag]
    tuples = np.array([idx for idx in product(range(lo, hi + 1), repeat=arity)
                       if domain(idx)], dtype=np.int64).reshape(-1, arity)
    failures, terms, degree = certify(build, tuples)
    res = _result(tag, (tag, span) if span else tag, len(tuples), failures)
    if len(tuples):
        res.stats.update(laurent_terms=terms, laurent_degree=degree)
    return res


def check_all_identities(lo, hi, span):
    """Every tag of the catalog on [lo, hi], one case per tag."""
    res = SuiteResult("identities")
    for tag in ALL_TAGS:
        res.merge(check_identity(tag, lo, hi, span))
    return res


def factorization_check(n_max):
    """u_n equals the product of v_d over divisors d of n, and each v_n is
    monic with integer coefficients (degree >= 1 once n > 2)."""
    failures = []
    for n in range(1, n_max + 1):
        vn = v_poly(n)
        if not (vn.is_monic() and all(isinstance(c, int) for c in vn.coeffs)):
            failures.append(n)
            continue
        prod = UPoly([1])
        for d in _divisors(n):
            prod = prod * v_poly(d)
        if prod != u_poly(n):
            failures.append(n)
    return _result("factorization", "factorization", n_max, failures)


def theta_v_check(n_max):
    """theta(v_n) is the prime p exactly when n = 2 p^m, and 1 otherwise.

    v_n is not built.  Evaluation at 0 and the degree turn u_n = prod over
    d | n of v_d into a product and a sum, and Moebius inversion gives
    v_n(0) = prod over d | n of u_d(0)^mu(n/d) and
    deg v_n = sum over d | n of mu(n/d) deg u_d (every u_d(0) is +-1 or
    +-(d/2), never 0).  An n fails if that product is not an integer, if
    deg v_n is not phi(n)/2 for n >= 3, or if (-1)^deg v_n(0) is not
    prime_power_class(n).

    So a pass shows the classification of the integers v_n(0); it does not
    show by division that v_n has integer coefficients.  factorization_check
    shows that for the n it covers, and the acceptance tests build v_n by
    division to n = 500 and compare theta(v_n) there.
    """
    failures = []
    for n in range(1, n_max + 1):
        c, deg = Fraction(1), 0
        for d in _divisors(n):
            mu = _mobius(n // d)
            if mu:
                u = u_poly(d)
                c *= Fraction(u.constant()) ** mu
                deg += mu * u.degree
        if (c.denominator != 1 or (n >= 3 and 2 * deg != euler_phi(n))
                or _sign(deg) * c.numerator != prime_power_class(n)):
            failures.append(n)
    return _result("theta_v", "theta_v", n_max, failures)


def reflection_map_check(n_max):
    """Composing v_n with 4 - X lands on v_{n'} up to sign: the roots
    4 - 4cos^2(k pi/n) are exactly the roots of v_{n'}, and both factors
    have the same degree, so the polynomials agree up to the leading sign."""
    failures = []
    for n in range(3, n_max + 1):
        vn = v_poly(n)
        target = v_poly(n_prime(n))
        mapped = vn.compose(FOUR_MINUS_X)
        if mapped != target and mapped != -target:
            failures.append(n)
    return _result("reflection_map", "reflection_map", n_max - 2, failures)
