"""Catalog of exact identities satisfied by the u_n family.

Each entry is data: an index arity, an admissibility predicate, and a builder
returning one or more (lhs, rhs) pairs that must be equal.  Tags are stable
names used by the verification suites and the CLI; a tag whose source states
several equivalent expressions checks all of them.

A builder takes the ring it computes in as its first argument, a `Ring`
record: `u(k)` is u_k, `x` is X, `y` is 4 - X, `uy(k)` is u_k(4 - X) and
`zero` is 0.  The same builders run in three rings:

- `MAJORANT`, where each value is a bound on the L1 norm (the sum of the
  absolute coefficients) of the polynomial it stands for.  The norm is
  subadditive and submultiplicative, so + and - both add, a product
  multiplies and an int is its absolute value; u_k is ||u_k||_1, X is 1, 4 - X is 5 and
  u_k(4 - X) is sum |c_i| 5^i over the coefficients c_i of u_k.  Then
  B = L1(lhs) + L1(rhs) bounds every coefficient of lhs - rhs.
- `kronecker_ring(K)`, plain ints at the point X = 2^K.  With
  K = kronecker_bits(B), every coefficient of lhs - rhs is below 2^(K-1)
  in absolute value, and such an integer polynomial is zero iff its value
  at 2^K is: its lowest nonzero coefficient c_j would otherwise be a
  multiple of 2^K.  So `certify` takes the largest B over a tag's tuples
  and compares ints at one point, and each verdict is exact.
- `UPoly` itself (u_poly, X, 4 - X, u_poly(k).compose(4 - X), 0), the
  slow path the tests compare against.

The recurrence tag AR is the step-2 form u_{n+4} = (X-2) u_{n+2} - u_n,
which is the one the family actually satisfies for every integer n.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .report import SuiteResult
from .upoly import (UPoly, u_poly, v_poly, prime_power_class, n_prime,
                    euler_phi, _divisors, _mobius)

FOUR_MINUS_X = UPoly([4, -1])

Ring = namedtuple("Ring", "u x y uy zero")


class _L1:
    """A bound on the L1 norm of an integer polynomial: + and - both add,
    a product multiplies, and an int counts with its absolute value."""
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _L1(self.v + (other.v if isinstance(other, _L1)
                             else abs(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _L1(self.v * (other.v if isinstance(other, _L1)
                             else abs(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __pow__(self, n):
        return _L1(self.v ** n)


@lru_cache(maxsize=None)
def _u_l1(k):
    return _L1(sum(abs(c) for c in u_poly(k).coeffs))


@lru_cache(maxsize=None)
def _uy_l1(k):
    # ||(4 - X)^i||_1 = 5^i
    return _L1(sum(abs(c) * 5 ** i for i, c in enumerate(u_poly(k).coeffs)))


MAJORANT = Ring(_u_l1, _L1(1), _L1(5), _uy_l1, _L1(0))


def kronecker_bits(bound):
    """The K of the point 2^K that certifies integer polynomials whose
    coefficients are at most bound in absolute value: bound < 2^(K-1)."""
    return bound.bit_length() + 1


def kronecker_ring(k):
    """The ring of ints at X = 2^k, with u_n(2^k) and u_n(4 - 2^k) cached
    per index for the life of the ring."""
    t = 1 << k

    @lru_cache(maxsize=None)
    def u(n):
        return u_poly(n).eval(t)

    @lru_cache(maxsize=None)
    def uy(n):
        return u_poly(n).eval(4 - t)

    return Ring(u, t, 4 - t, uy, 0)


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


def certify(build, tuples):
    """(failures, bound) for a builder over index tuples: bound is the
    largest MAJORANT bound B on a coefficient of lhs - rhs, and failures
    lists the tuples with some pair that differs at X = 2^K, for
    K = kronecker_bits(B); a pair that differs there differs as
    polynomials, and one that agrees there agrees as polynomials."""
    bound = max((lhs.v + rhs.v for idx in tuples
                 for lhs, rhs in build(MAJORANT, *idx)), default=0)
    ring = kronecker_ring(kronecker_bits(bound))
    failures = [idx for idx in tuples
                if any(lhs != rhs for lhs, rhs in build(ring, *idx))]
    return failures, bound


def check_identity(tag, lo, hi, span=None):
    """Check one tag for every admissible index tuple with all indices in
    [lo, hi], by `certify`.  The one case is labelled (tag, span), or just
    tag; its stats record the point 2^K as kronecker_bits (K) and the bit
    length of the bound B as majorant_bits."""
    if tag not in IDENTITIES:
        raise KeyError("unknown identity tag %r" % (tag,))
    arity, domain, build = IDENTITIES[tag]
    tuples = [idx for idx in product(range(lo, hi + 1), repeat=arity)
              if domain(idx)]
    failures, bound = certify(build, tuples)
    res = _result(tag, (tag, span) if span else tag, len(tuples), failures)
    if tuples:
        res.stats.update(kronecker_bits=kronecker_bits(bound),
                         majorant_bits=bound.bit_length())
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
