"""Catalog of exact identities satisfied by the u_n family.

Each entry is data: an index arity, an admissibility predicate, and a builder
returning one or more (lhs, rhs) pairs that must be equal.  Tags are stable
names used by the verification suites and the CLI; a tag whose source states
several equivalent expressions checks all of them.

A builder takes the ring it computes in as its first argument, a `Ring`
record: `u(k)` is u_k, `x` is X, `y` is 4 - X, `uy(k)` is u_k(4 - X),
`zero` is 0 and `s`, where the ring has one, is a square root of X.  The
same builders run in two rings: `UPoly` itself (u_poly, X, 4 - X,
u_poly(k).compose(4 - X), 0, no s), the slow oracle of the tests, and
`LAURENT`, where `certify` decides them, with s = t + 1/t.

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
negative for the factors of X and 4 - X.  A numerator is an `MPoly`, the
sparse ring of Section 2, with exponents of either sign and Python-int
coefficients, so it is exact with no bound and like terms merge as they
meet.  A sum brings both numerators to the larger exponents by
multiplying with t - 1/t or t + 1/t; a product multiplies numerators.
Z[t, 1/t] is a domain, so lhs = rhs exactly when both numerators, lifted
to their common nonzero denominator, are equal.

Classes.  `certify` decides each class of index tuples mod 4 once.  In
the class with residues r_i, write n_i = r_i + 4 q_i and T_i = t^(q_i).
An index that a builder forms from the n_i with + -, unary minus and int
factors is affine, c + b_1 q_1 + ..., and t to that index is the monomial
t^c T_1^b_1 ...; `_Affine` holds the exponent vector (c, b_1, ...).
An `MPoly` exponent has four components, so a builder of arity 4 or more
raises ValueError rather than lose an index.
k % m is an int and k // m affine when m divides every b_i, so the
parity of every index, and with it the shape and sign of each closed
form, is fixed in a class: `_sign`, `(r.x if n % 2 == 0 else 1)` and
`(-1) ** ((p - 1) // 2)` run unchanged.  Anything that would branch on
the q_i raises TypeError: k % 8 of 4 q, comparisons, abs, truth tests,
2 ** k, a product of two indices and an index used as a coefficient.
Specialising T_i = t^(q_i) is a ring map Z[t^+-, T_1^+-, ...] ->
Z[t^+-] that takes the class's numerators to each tuple's, so a class
whose numerators agree holds for every integer q_i.  That covers more
than the admissible tuples in range: C6_16 is proved for negative odd p
too.  A class whose numerators differ, or whose builder raises TypeError
(it branches on abs, say), is decided tuple by tuple, on Python-int
indices, through the same ring; that lists its failing tuples.

Relations.  `certify` takes one hook, `vanishes(num, args)`: whether the
lifted difference num of two unequal numerators built on args is zero
where the identities are meant to hold.  The catalog holds in the free
ring, so there it never is.  The root identities of `cyclo` hold at
t = zeta_2r^m, m odd, for index tuples (r, ...), so where t^r = -1: on the
class r = r0 + 4q that is T_1^4 = -t^-r0.  Z[t^+-, T_2^+-][T_1] /
(T_1^4 + t^-r0) is free on 1, T_1, T_1^2, T_1^3, so writing T_1^e with
e = 4a + b, 0 <= b < 4, as (-t^-r0)^a T_1^b gives a canonical numerator,
0 exactly when num is 0 there; num then vanishes at every such t, and the
denominator does not, since t^4 != 1 for r >= 3 makes t -+ 1/t nonzero.
At odd r a root is s^2 with s = e (t + 1/t), e = +-1, and the identities
meet s only as e s = t + 1/t, so e cancels and `LAURENT.s` serves both.

The recurrence tag AR is the step-2 form u_{n+4} = (X-2) u_{n+2} - u_n,
which is the one the family actually satisfies for every integer n.
"""

from collections import namedtuple
from fractions import Fraction

import numpy as np

from .mpoly import MPoly, NVARS
from .report import SuiteResult
from .upoly import (UPoly, ring_pow, u_poly, v_poly, u_constant_and_degree,
                    prime_power_class, n_prime, euler_phi, _divisors,
                    _mobius)

FOUR_MINUS_X = UPoly([4, -1])

Ring = namedtuple("Ring", "u x y uy zero s", defaults=(None,))

# certify refuses indices from here on in absolute value: they come in as
# an int64 array, and this keeps them far from wrapping
_IDX_MAX = 1 << 32


class _Affine:
    """The index c + b_1 q_1 + ... of a class, as the exponent vector
    v = (c, b_1, ...) of t^c T_1^b_1 ... with T_i = t^(q_i).  + - and int
    factors are exact; k % m and k // m need m to divide every b_i, and
    anything else that would branch on the q_i raises TypeError."""
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        if isinstance(other, _Affine):
            return _Affine(tuple(x + y for x, y in zip(self.v, other.v)))
        if isinstance(other, int):
            return _Affine((self.v[0] + other,) + self.v[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        return _Affine(tuple(m * x for x in self.v))

    __rmul__ = __mul__

    def _divisible(self, m):
        if not isinstance(m, int) or any(b % m for b in self.v[1:]):
            raise TypeError("k %% %r and k // %r branch on a class index"
                            % (m, m))

    def __mod__(self, m):
        self._divisible(m)
        return self.v[0] % m

    def __floordiv__(self, m):
        self._divisible(m)
        return _Affine(tuple(x // m for x in self.v))

    def __rpow__(self, base):
        if base != -1:
            raise TypeError("only (-1) ** k is defined on a class index")
        return 1 - 2 * (self % 2)

    def __bool__(self):
        raise TypeError("a class index has no truth value")

    def __eq__(self, other):
        raise TypeError("class indices do not compare")


def _class_of(r):
    """The indices r_i + 4 q_i of the class with residues r."""
    zeros = (0,) * len(r)
    return tuple(_Affine((ri,) + zeros[:i] + (4,) + zeros[i + 1:])
                 for i, ri in enumerate(r))


def _pm(k, s):
    """t^k + s t^-k as an MPoly numerator: the exponent vector of k padded
    with zeros to the four components of an MPoly exponent.  A k with more
    than three class indices raises ValueError."""
    v = k.v if isinstance(k, _Affine) else (k,)
    if len(v) > NVARS:
        raise ValueError("a Laurent numerator holds at most %d class "
                         "indices" % (NVARS - 1))
    pad = (0,) * (NVARS - len(v))
    terms = {v + pad: 1}
    neg = tuple(-x for x in v) + pad
    terms[neg] = terms.get(neg, 0) + s
    return MPoly(terms)


# t - 1/t and t + 1/t, the factors of a denominator
_T_MINUS, _T_PLUS = _pm(1, -1), _pm(1, 1)


class _Laurent:
    """num / ((t - 1/t)^a (t + 1/t)^b) with num an MPoly whose exponent
    (c, b_1, b_2, 0) stands for t^c T_1^b_1 T_2^b_2 on class indices, and
    (c, 0, 0, 0) for t^c on ints; a and b are ints."""
    __slots__ = ("num", "a", "b")

    def __init__(self, num, a, b):
        self.num, self.a, self.b = num, a, b

    def _over(self, a, b):
        # the numerator of the same value over (t - 1/t)^a (t + 1/t)^b
        num = self.num
        for f in [_T_MINUS] * (a - self.a) + [_T_PLUS] * (b - self.b):
            num = num * f
        return num

    def __add__(self, other):
        other = _laurent(other)
        a, b = max(self.a, other.a), max(self.b, other.b)
        return _Laurent(self._over(a, b) + other._over(a, b), a, b)

    __radd__ = __add__

    def __neg__(self):
        return _Laurent(-self.num, self.a, self.b)

    def __sub__(self, other):
        return self + -_laurent(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _laurent(other)
        return _Laurent(self.num * other.num,
                        self.a + other.a, self.b + other.b)

    __rmul__ = __mul__

    def __pow__(self, n):
        return ring_pow(self, n, _laurent(1))


def _laurent(v):
    """v as a _Laurent: an int is a constant; anything else, a class
    index included, raises TypeError."""
    if isinstance(v, _Laurent):
        return v
    if isinstance(v, int):
        return _Laurent(MPoly.const(v), 0, 0)
    raise TypeError("no Laurent value for %r" % (v,))


def _u(k):
    # a_k / (t - 1/t), times 1 / (t + 1/t) for even k
    return _Laurent(_pm(k, -1), 1, 1 - k % 2)


def _uy(k):
    # u_k at t -> i t: (-1)^h (t^k + t^-k) / (t + 1/t) with h = (k-1)/2
    # for odd k, -(-1)^h a_k / (t^2 - t^-2) with h = k/2 for even k
    odd = k % 2
    s = 1 - 2 * ((k - odd) // 2 % 2)
    if odd:
        return _Laurent(s * _pm(k, 1), 0, 1)
    return _Laurent(-s * _pm(k, -1), 1, 1)


LAURENT = Ring(_u, _Laurent(MPoly.const(1), 0, -2),
               _Laurent(MPoly.const(-1), -2, 0), _uy, _Laurent(MPoly(), 0, 0),
               _Laurent(MPoly.const(1), 0, -1))


# domains: idx is an index grid whose row i holds the i-th index of every
# tuple; the result masks its columns, or is True for all of them
def _any(idx):
    return True


def _n_even(idx):
    return idx[0] % 2 == 0


def _n_odd(idx):
    return idx[0] % 2 == 1


def _p_odd_pos(idx):
    return (idx[0] >= 1) & (idx[0] % 2 == 1)


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


def _is_zero(num, args):
    return num.is_zero()


def _unequal(pairs, vanishes=_is_zero, args=()):
    """(bad, terms, degree) for the pairs of one tuple or class, built on
    args: bad when some lhs and rhs, lifted to their common denominator,
    have different numerators whose difference does not vanish; terms is
    the most terms of one compared numerator, and degree the largest
    |component| of an exponent in them."""
    bad, terms, degree = False, 0, 0
    for lhs, rhs in pairs:
        lhs, rhs = _laurent(lhs), _laurent(rhs)
        a, b = max(lhs.a, rhs.a), max(lhs.b, rhs.b)
        p, q = lhs._over(a, b), rhs._over(a, b)
        for num in (p, q):
            terms = max(terms, len(num.terms))
            degree = max([degree] + [abs(x) for e in num.terms for x in e])
        bad = bad or p != q and not vanishes(p - q, args)
    return bad, terms, degree


def certify(build, tuples, vanishes=_is_zero):
    """(failures, terms, degree) for a builder over index tuples, each
    pair decided exactly as Laurent polynomials (module docstring), where
    vanishes decides a difference of numerators.  failures lists the
    tuples with some pair that differs, as tuples of ints in the order
    given; terms and degree are the largest of `_unequal`'s over the
    decisions made.  Each class mod 4 is decided once on class indices,
    and tuple by tuple where that fails."""
    idx = np.asarray(tuples, dtype=np.int64)
    if not idx.size:
        return [], 0, 0
    idx = idx.reshape(len(idx), -1)
    if int(np.abs(idx).max()) >= _IDX_MAX:
        raise ValueError("identity indices must be below 2^32 in absolute "
                         "value")
    codes = (idx & 3) @ 4 ** np.arange(idx.shape[1])
    bad = np.zeros(len(idx), dtype=bool)
    terms = degree = 0
    for code, first in zip(*np.unique(codes, return_index=True)):
        args = _class_of((idx[first] & 3).tolist())
        try:
            fails, t, d = _unequal(build(LAURENT, *args), vanishes, args)
            terms, degree = max(terms, t), max(degree, d)
        except TypeError:
            fails = True
        if fails:
            for row in np.flatnonzero(codes == code):
                args = idx[row].tolist()
                bad[row], t, d = _unequal(build(LAURENT, *args), vanishes,
                                          args)
                terms, degree = max(terms, t), max(degree, d)
    return [tuple(r) for r in idx[bad].tolist()], terms, degree


def check_identity(tag, lo, hi, span=None):
    """Check one tag for every admissible index tuple with all indices in
    [lo, hi], by `certify`.  The one case is labelled (tag, span), or just
    tag; its stats record the most terms of one compared numerator as
    laurent_terms and the largest |component| of an exponent in them as
    laurent_degree."""
    if tag not in IDENTITIES:
        raise KeyError("unknown identity tag %r" % (tag,))
    arity, domain, build = IDENTITIES[tag]
    # every tuple of [lo, hi]^arity in lexicographic order, one per column
    grid = np.indices((max(hi - lo + 1, 0),) * arity).reshape(arity, -1) + lo
    tuples = grid[:, np.broadcast_to(domain(grid), grid.shape[1:])].T
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

    Neither v_n nor any u_d is built.  Evaluation at 0 and the degree turn u_n = prod over
    d | n of v_d into a product and a sum, and Moebius inversion gives
    v_n(0) = prod over d | n of u_d(0)^mu(n/d) and
    deg v_n = sum over d | n of mu(n/d) deg u_d (every u_d(0) is +-1 or
    +-(d/2), never 0), with u_d(0) and deg u_d read off the closed form by
    u_constant_and_degree.  An n fails if that product is not an integer, if
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
                u0, u_deg = u_constant_and_degree(d)
                c *= Fraction(u0) ** mu
                deg += mu * u_deg
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
