"""Catalog of exact identities satisfied by the u_n family.

Each entry is data: an index arity, an admissibility predicate, and a builder
returning one or more (lhs, rhs) polynomial pairs that must be equal.  Tags
are stable names used by the verification suites and the CLI; a tag whose
source states several equivalent expressions checks all of them.

The recurrence tag AR is the step-2 form u_{n+4} = (X-2) u_{n+2} - u_n,
which is the one the family actually satisfies for every integer n.
"""

from .report import SuiteResult
from .upoly import (UPoly, X, u_poly, v_poly, theta, prime_power_class,
                    n_prime, _divisors)

FOUR_MINUS_X = UPoly([4, -1])


def _u4(n):
    # u_n evaluated at 4 - X
    return u_poly(n).compose(FOUR_MINUS_X)


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


u = u_poly

IDENTITIES = {
    "A1": (1, _any, lambda n: [(u(2*n+2) - u(2*n+1) + u(2*n), UPoly())]),
    "A2": (1, _any, lambda n: [(u(2*n+1) - X*u(2*n) + u(2*n-1), UPoly())]),
    "AR": (1, _any, lambda n: [(u(n+4) - (X - 2)*u(n+2) + u(n), UPoly())]),
    "P4_even": (2, _any, lambda n, m: [
        (u(n+2*m) + u(n-2*m), (u(2*m+1) - u(2*m-1)) * u(n))]),
    "P4_odd": (2, _any, lambda n, m: [
        (u(n+2*m+1) + u(n-2*m-1),
         (X if n % 2 == 0 else 1) * (u(2*m+2) - u(2*m)) * u(n))]),
    "C5_9": (1, _any, lambda n: [(u(2*n), u(n) * (u(n+1) - u(n-1)))]),
    "C5_10": (1, _any, lambda n: [(u(2*n), u(n+1) * (u(n) - u(n-2)) - 1)]),
    "C5_11": (1, _any, lambda n: [(u(2*n), u(n-1) * (u(n+2) - u(n)) + 1)]),
    "C5_12": (1, _n_even, lambda n: [(u(2*n+1), u(n+1) * (u(n+1) - u(n-1)) - 1)]),
    "C5_13": (1, _n_even, lambda n: [(u(2*n+1), X * u(n) * (u(n+2) - u(n)) + 1)]),
    "C5_14": (1, _n_odd, lambda n: [
        (u(2*n+1), X * u(n+1) * (u(n+1) - u(n-1)) - 1),
        (u(2*n+1), u(n) * (u(n+2) - u(n)) + 1)]),
    "P6_15": (1, _any, lambda n: [(u(2*n), _sign(n - 1) * _u4(2*n))]),
    "C6_16": (1, _p_odd_pos, lambda p: [
        (u(2*p), (-1) ** ((p - 1) // 2) * u(p) * _u4(p))]),
    "P7_17": (2, _any, lambda n, p: [
        (u(2*n), u(p) * u(2*n+1-p) - u(p-1) * u(2*n-p))]),
    "P7_18": (2, _any, lambda n, p: [
        (u(2*n+1), u(2*p+1) * u(2*n+1-2*p) - X * u(2*p) * u(2*n-2*p)),
        (u(2*n+1), X * u(2*p+2) * u(2*n-2*p) - u(2*p+1) * u(2*n-2*p-1))]),
    "P7_19": (2, _any, lambda n, p: [
        (u(2*n-1), u(2*p-1) * u(2*n+1-2*p) - X * u(2*p-2) * u(2*n-2*p))]),
    "P7_20": (2, _any, lambda n, p: [
        (u(2*n-1), X * u(2*p) * u(2*n-2*p) - u(2*p-1) * u(2*n-2*p-1))]),
    "C8_21": (1, _any, lambda n: [
        (u(4*n+1), u(2*n+1) ** 2 - X * u(2*n) ** 2),
        (u(4*n+1), X * u(2*n+2) * u(2*n) - u(2*n+1) * u(2*n-1))]),
    "C8_22": (1, _any, lambda n: [
        (u(4*n-1), X * u(2*n) ** 2 - u(2*n-1) ** 2),
        (u(4*n-1), u(2*n+1) * u(2*n-1) - X * u(2*n) * u(2*n-2))]),
    "P9_23": (1, _any, lambda n: [(u(2*n+1) ** 2 - 1, X * u(2*n) * u(2*n+2))]),
    "P9_24": (1, _any, lambda n: [(X * u(2*n) ** 2 - 1, u(2*n-1) * u(2*n+1))]),
    "C10_25": (1, _any, lambda n: [
        (u(4*n+1) - u(4*n-1), 2 - X * FOUR_MINUS_X * u(2*n) ** 2)]),
    "C10_26": (1, _any, lambda n: [
        (u(4*n+3) - u(4*n+1), 2 - FOUR_MINUS_X * u(2*n+1) ** 2)]),
    "P11_28": (1, _n_even, lambda n: [(u(n-1)*u(2*n) - u(n)*u(2*n-1), -u(n))]),
    "P11_29": (1, _n_even, lambda n: [(X*u(n)*u(2*n) - u(n+1)*u(2*n-1), -u(n-1))]),
    "P11_30": (1, _n_odd, lambda n: [(X*u(n-1)*u(2*n) - u(n)*u(2*n-1), -u(n))]),
    "P11_31": (1, _n_odd, lambda n: [(u(n)*u(2*n) - u(n+1)*u(2*n-1), -u(n-1))]),
}

ALL_TAGS = tuple(IDENTITIES)


def _result(name, label, cases, failures):
    """A SuiteResult with the single case label, which passes when there
    are no failing index tuples; the detail counts the tuples checked and
    lists the first failing ones."""
    res = SuiteResult(name)
    detail = "%d index tuples" % cases
    if failures:
        detail += "; failing: %s" % (failures[:10],)
    res.check(not failures, label, detail)
    return res


def check_identity(tag, lo, hi, span=None):
    """Check one tag for every admissible index tuple with all indices in
    [lo, hi].  The one case is labelled (tag, span), or just tag."""
    if tag not in IDENTITIES:
        raise KeyError("unknown identity tag %r" % (tag,))
    arity, domain, build = IDENTITIES[tag]
    values = range(lo, hi + 1)
    tuples = [(n,) for n in values] if arity == 1 else \
        [(n, m) for n in values for m in values]
    cases = 0
    failures = []
    for idx in tuples:
        if not domain(idx):
            continue
        cases += 1
        for lhs, rhs in build(*idx):
            if lhs != rhs:
                failures.append(idx)
                break
    return _result(tag, (tag, span) if span else tag, cases, failures)


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
    """theta(v_n) is the prime p exactly when n = 2 p^m, and 1 otherwise."""
    failures = []
    for n in range(1, n_max + 1):
        if theta(v_poly(n)) != prime_power_class(n):
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
