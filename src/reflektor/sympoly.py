"""Closed forms for words in the rank-3 generators, checked symbolically.

The three reflections carry the four free constants alpha, beta, l, m (with
gamma = l m), so every claim here is an identity of sparse polynomials: the
power and reflection formulas for the three products s_i s_j, the pairing
C(s, t) = trace((s-1)(t-1)) against translated reflections, and the
characteristic polynomials of s_i (s_j s_k)^n.  Formulas that carry a
denominator like 4 - alpha only hold when the corresponding product has
finite even order, so those are checked exactly in small cyclotomic fields
with the remaining constants random rationals.

All u-polynomial evaluations at alpha / beta / gamma are shared through one
sequence per constant (the two interleaved recurrences).
"""

from fractions import Fraction
from math import lcm

from .cyclo import root_of_v, u_value_seq, u_at
from .matrices import SquareMat, pair_C
from .mpoly import MPoly, ALPHA, BETA, GAMMA, L, M, prem
from .reflrep import (DiagramSpec, build_generators, rank3_edges, rank3_rep,
                      delta, theta_pair)
from .report import SuiteResult
from .upoly import UPoly

ONE = MPoly.const(1)
ZERO = MPoly()

# THETA_P - THETA is the degeneracy invariant delta,
# THETA + THETA_P = alpha l - beta m.
THETA, THETA_P = theta_pair(ALPHA, BETA, L, M)

# s1, s2, s3 with symbolic edge constants (columns convention)
GENS = tuple(build_generators(
    DiagramSpec(3, rank3_edges(ALPHA, BETA, L, M, ONE)), ONE, ZERO))


def _mat(rows):
    return SquareMat(rows, ONE, ZERO)


def _u_seqs(kmax):
    hi = 4 * kmax + 6
    return (u_value_seq(ALPHA, hi), u_value_seq(BETA, hi),
            u_value_seq(GAMMA, hi))


# -- closed forms for (s_i s_j)^n --------------------------------------

def pow_s1s2(k_half, parity, uA):
    """(s1 s2)^(2 k_half + parity); u evaluated at alpha."""
    u = lambda n: u_at(uA, n)
    k = k_half
    if parity == 0:
        return _mat([
            [u(4*k+1), -ALPHA*u(4*k),
             ALPHA*BETA*u(2*k)**2 + ALPHA*L*u(2*k+1)*u(2*k)],
            [u(4*k), -u(4*k-1),
             ALPHA*L*u(2*k)**2 + BETA*u(2*k)*u(2*k-1)],
            [ZERO, ZERO, ONE]])
    return _mat([
        [u(4*k+3), -ALPHA*u(4*k+2),
         BETA*u(2*k+1)**2 + ALPHA*L*u(2*k+2)*u(2*k+1)],
        [u(4*k+2), -u(4*k+1),
         L*u(2*k+1)**2 + BETA*u(2*k+1)*u(2*k)],
        [ZERO, ZERO, ONE]])


def pow_s1s3(k_half, parity, uB):
    """(s1 s3)^(2 k_half + parity); u evaluated at beta."""
    u = lambda n: u_at(uB, n)
    k = k_half
    if parity == 0:
        return _mat([
            [u(4*k+1),
             ALPHA*BETA*u(2*k)**2 + BETA*M*u(2*k+1)*u(2*k), -BETA*u(4*k)],
            [ZERO, ONE, ZERO],
            [u(4*k),
             BETA*M*u(2*k)**2 + ALPHA*u(2*k)*u(2*k-1), -u(4*k-1)]])
    return _mat([
        [u(4*k+3),
         ALPHA*u(2*k+1)**2 + BETA*M*u(2*k+2)*u(2*k+1), -BETA*u(4*k+2)],
        [ZERO, ONE, ZERO],
        [u(4*k+2),
         M*u(2*k+1)**2 + ALPHA*u(2*k+1)*u(2*k), -u(4*k+1)]])


def pow_s2s3(k_half, parity, uG):
    """(s2 s3)^(2 k_half + parity); u evaluated at gamma = l m."""
    u = lambda n: u_at(uG, n)
    k = k_half
    if parity == 0:
        return _mat([
            [ONE, ZERO, ZERO],
            [GAMMA*u(2*k)**2 + L*u(2*k+1)*u(2*k), u(4*k+1), -L*u(4*k)],
            [GAMMA*u(2*k)**2 + M*u(2*k)*u(2*k-1), M*u(4*k), -u(4*k-1)]])
    return _mat([
        [ONE, ZERO, ZERO],
        [u(2*k+1)**2 + L*u(2*k+2)*u(2*k+1), u(4*k+3), -L*u(4*k+2)],
        [u(2*k+1)**2 + M*u(2*k+1)*u(2*k), M*u(4*k+2), -u(4*k+1)]])


def verify_power_formulas(kmax=6):
    """The six even/odd closed forms against incrementally computed actual
    powers, over the full signed exponent range |n| <= 2 kmax + 1."""
    res = SuiteResult("power_formulas")
    s1, s2, s3 = GENS
    uA, uB, uG = _u_seqs(kmax + 1)
    families = [
        ("s1s2", s1 * s2, pow_s1s2, uA),
        ("s1s3", s1 * s3, pow_s1s3, uB),
        ("s2s3", s2 * s3, pow_s2s3, uG),
    ]
    ident = SquareMat.identity(3, ONE, ZERO)
    for name, p, closed, seq in families:
        pos = ident
        for n in range(0, 2 * kmax + 2):
            res.check(pos == closed(n // 2, n % 2, seq), (name, n))
            pos = pos * p
        # negative exponents: (s_i s_j)^-1 = s_j s_i
        q = {"s1s2": s2 * s1, "s1s3": s3 * s1, "s2s3": s3 * s2}[name]
        neg = q
        for n in range(-1, -(2 * kmax + 2), -1):
            k, par = (n // 2, n % 2)  # floor division keeps 2k+par = n
            res.check(neg == closed(k, par, seq), (name, n))
            neg = neg * q
    return res


# -- closed forms for s_i (s_i s_j)^n and their -1 eigenvectors --------

def refl_s1s2(k_half, parity, uA):
    u = lambda n: u_at(uA, n)
    k = k_half
    if parity == 0:
        inner = ALPHA*L*u(2*k) + BETA*u(2*k-1)
        mat = _mat([
            [u(4*k-1), -ALPHA*u(4*k-2), u(2*k-1)*inner],
            [u(4*k), -u(4*k-1), u(2*k)*inner],
            [ZERO, ZERO, ONE]])
        return mat, [u(2*k-1), u(2*k), ZERO]
    inner = BETA*u(2*k) + L*u(2*k+1)
    mat = _mat([
        [u(4*k+1), -ALPHA*u(4*k), ALPHA*u(2*k)*inner],
        [u(4*k+2), -u(4*k+1), u(2*k+1)*inner],
        [ZERO, ZERO, ONE]])
    return mat, [ALPHA*u(2*k), u(2*k+1), ZERO]


def refl_s1s3(k_half, parity, uB):
    u = lambda n: u_at(uB, n)
    k = k_half
    if parity == 0:
        inner = ALPHA*u(2*k-1) + BETA*M*u(2*k)
        mat = _mat([
            [u(4*k-1), u(2*k-1)*inner, -BETA*u(4*k-2)],
            [ZERO, ONE, ZERO],
            [u(4*k), u(2*k)*inner, -u(4*k-1)]])
        return mat, [u(2*k-1), ZERO, u(2*k)]
    inner = M*u(2*k+1) + ALPHA*u(2*k)
    mat = _mat([
        [u(4*k+1), BETA*u(2*k)*inner, -BETA*u(4*k)],
        [ZERO, ONE, ZERO],
        [u(4*k+2), u(2*k+1)*inner, -u(4*k+1)]])
    return mat, [BETA*u(2*k), ZERO, u(2*k+1)]


def refl_s2s3(k_half, parity, uG):
    u = lambda n: u_at(uG, n)
    k = k_half
    if parity == 0:
        inner = u(2*k-1) + L*u(2*k)
        mat = _mat([
            [ONE, ZERO, ZERO],
            [u(2*k-1)*inner, u(4*k-1), -L*u(4*k-2)],
            [M*u(2*k)*inner, M*u(4*k), -u(4*k-1)]])
        return mat, [ZERO, u(2*k-1), M*u(2*k)]
    inner = u(2*k+1) + M*u(2*k)
    mat = _mat([
        [ONE, ZERO, ZERO],
        [L*u(2*k)*inner, u(4*k+1), -L*u(4*k)],
        [u(2*k+1)*inner, M*u(4*k+2), -u(4*k+1)]])
    return mat, [ZERO, L*u(2*k), u(2*k+1)]


def verify_reflection_formulas(kmax=6):
    """s_i (s_i s_j)^n closed forms plus the stated -1 eigenvector of each,
    over the signed range |n| <= 2 kmax + 1."""
    res = SuiteResult("reflection_formulas")
    s1, s2, s3 = GENS
    uA, uB, uG = _u_seqs(kmax + 1)
    families = [
        ("s1(s1s2)^n", s1, s1 * s2, s2 * s1, refl_s1s2, uA),
        ("s1(s1s3)^n", s1, s1 * s3, s3 * s1, refl_s1s3, uB),
        ("s2(s2s3)^n", s2, s2 * s3, s3 * s2, refl_s2s3, uG),
    ]
    top = 2 * kmax + 1
    for name, head, p, pinv, closed, seq in families:
        # head p^n and head pinv^n, one multiply per step
        actual = {0: head}
        for n in range(1, top + 1):
            actual[n] = actual[n - 1] * p
            actual[-n] = actual[1 - n] * pinv
        for n in range(-top, top + 1):
            mat, vec = closed(n // 2, n % 2, seq)
            res.check(actual[n] == mat, (name, n))
            img = mat.apply(vec)
            res.check(all((x + y).is_zero() for x, y in zip(img, vec)),
                      (name, n, "eigvec"))
    return res


# -- the C catalog ------------------------------------------------------

def verify_C_generic(kmax=6):
    """C(s, t) for the third reflection against translated copies of the
    other two, in product and expanded form, as polynomial identities."""
    res = SuiteResult("C_generic")
    s1, s2, s3 = GENS
    uA, uB, uG = _u_seqs(kmax + 1)
    cross = ALPHA * L + BETA * M

    for n in range(-(2 * kmax + 1), 2 * kmax + 2):
        k, par = n // 2, n % 2

        # against s1 (s1 s2)^n, u at alpha
        u = lambda j: u_at(uA, j)
        mat, _ = refl_s1s2(k, par, uA)
        c = pair_C(s3, mat)
        if par == 0:
            prod = (u(2*k-1) + M*u(2*k)) * (ALPHA*L*u(2*k) + BETA*u(2*k-1))
            expd = ALPHA*GAMMA*u(2*k)**2 + BETA*u(2*k-1)**2 + \
                cross*u(2*k)*u(2*k-1)
        else:
            prod = (ALPHA*u(2*k) + M*u(2*k+1)) * (BETA*u(2*k) + L*u(2*k+1))
            expd = GAMMA*u(2*k+1)**2 + ALPHA*BETA*u(2*k)**2 + \
                cross*u(2*k+1)*u(2*k)
        res.check((c - prod).is_zero(), ("s3_vs_s1s2", n, "product"))
        res.check((c - expd).is_zero(), ("s3_vs_s1s2", n, "expanded"))

        # against s1 (s1 s3)^n, u at beta
        u = lambda j: u_at(uB, j)
        mat, _ = refl_s1s3(k, par, uB)
        c = pair_C(s2, mat)
        if par == 0:
            prod = (u(2*k-1) + L*u(2*k)) * (ALPHA*u(2*k-1) + BETA*M*u(2*k))
            expd = BETA*GAMMA*u(2*k)**2 + ALPHA*u(2*k-1)**2 + \
                cross*u(2*k)*u(2*k-1)
        else:
            prod = None
            expd = GAMMA*u(2*k+1)**2 + ALPHA*BETA*u(2*k)**2 + \
                cross*u(2*k+1)*u(2*k)
        if prod is not None:
            res.check((c - prod).is_zero(), ("s2_vs_s1s3", n, "product"))
        res.check((c - expd).is_zero(), ("s2_vs_s1s3", n, "expanded"))

        # against s2 (s2 s3)^n, u at gamma
        u = lambda j: u_at(uG, j)
        mat, _ = refl_s2s3(k, par, uG)
        c = pair_C(s1, mat)
        if par == 0:
            prod = None
            expd = BETA*GAMMA*u(2*k)**2 + ALPHA*u(2*k-1)**2 + \
                cross*u(2*k)*u(2*k-1)
        else:
            prod = (ALPHA*L*u(2*k) + BETA*u(2*k+1)) * (u(2*k+1) + M*u(2*k))
            expd = BETA*u(2*k+1)**2 + ALPHA*GAMMA*u(2*k)**2 + \
                cross*u(2*k+1)*u(2*k)
        if prod is not None:
            res.check((c - prod).is_zero(), ("s1_vs_s2s3", n, "product"))
        res.check((c - expd).is_zero(), ("s1_vs_s2s3", n, "expanded"))
    return res


def verify_C_conjugates():
    """C between a generator and a short conjugate of another, the nine
    product formulas (x^g means g^-1 x g)."""
    res = SuiteResult("C_conjugates")
    s1, s2, s3 = GENS
    cross = ALPHA * L + BETA * M
    u3 = lambda t: t - 1  # u_3 evaluated at the constant

    def conj(x, g):
        return g * x * g  # the conjugators here are involutions

    cases = [
        ("s1,s2^s3", s1, conj(s2, s3), (L + 1) * (ALPHA + BETA * M)),
        ("s2,s1^s3", s2, conj(s1, s3), (L + 1) * (ALPHA + BETA * M)),
        ("s1,s3^s2", s1, conj(s3, s2), (M + 1) * (BETA + ALPHA * L)),
        ("s3,s1^s2", s3, conj(s1, s2), (M + 1) * (BETA + ALPHA * L)),
        ("s2,s3^s1", s2, conj(s3, s1), (ALPHA + M) * (BETA + L)),
        ("s3,s2^s1", s3, conj(s2, s1), (ALPHA + M) * (BETA + L)),
        ("s1,s2^s3s2", s1, s2 * s3 * s2 * s3 * s2,
         (L + u3(GAMMA)) * (BETA * M + ALPHA * u3(GAMMA))),
        ("s1,s3^s2s3", s1, s3 * s2 * s3 * s2 * s3,
         (M + u3(GAMMA)) * (ALPHA * L + BETA * u3(GAMMA))),
        ("s2,s1^s3s1", s2, s1 * s3 * s1 * s3 * s1,
         (L + u3(BETA)) * (BETA * M + ALPHA * u3(BETA))),
        ("s2,s3^s1s3", s2, s3 * s1 * s3 * s1 * s3,
         (BETA + L * u3(BETA)) * (ALPHA + M * u3(BETA))),
        ("s3,s1^s2s1", s3, s1 * s2 * s1 * s2 * s1,
         (BETA * u3(ALPHA) + ALPHA * L) * (M + u3(ALPHA))),
        ("s3,s2^s1s2", s3, s2 * s1 * s2 * s1 * s2,
         (ALPHA + M * u3(ALPHA)) * (BETA + L * u3(ALPHA))),
    ]
    sums = {
        "s1,s2^s3": ALPHA + BETA * GAMMA + cross,
        "s1,s3^s2": BETA + ALPHA * GAMMA + cross,
        "s2,s3^s1": GAMMA + ALPHA * BETA + cross,
    }
    for name, s, t, expect in cases:
        c = pair_C(s, t)
        res.check((c - expect).is_zero(), (name,))
        if name in sums:
            res.check((c - sums[name]).is_zero(), (name, "expanded"))
    return res


# -- half-turn specializations (finite even order, with denominators) --

def _field_rep(alpha, beta, l, m, conductor):
    """The three generators and (alpha, beta, l, m), all over
    Q(zeta_conductor)."""
    rep = rank3_rep("rank3", alpha, beta, l, m, conductor)
    return (*rep.gens, rep.edge_constants())


_RATS = (Fraction(7, 3), Fraction(2, 5), Fraction(-3, 4))


def _halfturn_rep(which, order):
    """Concrete constants with one product of even order: which says where
    the v-root goes (alpha, beta or gamma); the other constants are fixed
    generic rationals."""
    root = root_of_v(order)
    b0, l0, m0 = _RATS
    if which == "alpha":
        return _field_rep(root, b0, l0, m0, order)
    if which == "beta":
        return _field_rep(b0, root, l0, m0, order)
    # gamma = root: keep l rational, m = root / l
    return _field_rep(b0, m0, l0, root / l0, order)


def verify_half_turns(orders=(4, 6)):
    """When one product s_i s_j has even order 2h, (s_i s_j)^h is the stated
    half turn and the C values against the remaining generator collapse to
    the delta-over-(4 - constant) forms.  Checked exactly at v-roots."""
    res = SuiteResult("half_turns")
    for order in orders:
        h = order // 2

        # alpha at a v-root: s1 s2 has this order
        s1, s2, s3, (a, b, l, m) = _halfturn_rep("alpha", order)
        one, zero = s1.one, s1.zero
        g = l * m
        d = delta(a, b, l, m)
        half = (s1 * s2) ** h
        w = 4 - a
        expect = SquareMat([
            [-one, zero, 2 * (2*b + a*l) / w],
            [zero, -one, 2 * (b + 2*l) / w],
            [zero, zero, one]], one, zero)
        res.check(half == expect, ("alpha", order, "half"))
        expect2 = SquareMat([
            [-one, zero, 2 * (2*b + a*l) / w],
            [-one, one, (2*b + a*l) / w],
            [zero, zero, one]], one, zero)
        res.check(s2 * half == expect2, ("alpha", order, "s2half"))
        res.check(pair_C(s3, s1 * half) == 4 - b - 2 * d / w,
                  ("alpha", order, "C_s1"))
        res.check(pair_C(s3, s2 * half) == 4 - g - 2 * d / w,
                  ("alpha", order, "C_s2"))

        # beta at a v-root: s1 s3 has this order
        s1, s2, s3, (a, b, l, m) = _halfturn_rep("beta", order)
        g = l * m
        d = delta(a, b, l, m)
        half = (s1 * s3) ** h
        w = 4 - b
        one, zero = s1.one, s1.zero
        expect = SquareMat([
            [-one, 2 * (2*a + b*m) / w, zero],
            [zero, one, zero],
            [zero, 2 * (a + 2*m) / w, -one]], one, zero)
        res.check(half == expect, ("beta", order, "half"))
        res.check(pair_C(s2, s1 * half) == 4 - a - 2 * d / w,
                  ("beta", order, "C_s1"))
        res.check(pair_C(s2, s3 * half) == 4 - g - 2 * d / w,
                  ("beta", order, "C_s3"))

        # gamma at a v-root: s2 s3 has this order
        s1, s2, s3, (a, b, l, m) = _halfturn_rep("gamma", order)
        g = l * m
        d = delta(a, b, l, m)
        half = (s2 * s3) ** h
        w = 4 - g
        one, zero = s1.one, s1.zero
        expect = SquareMat([
            [one, zero, zero],
            [2 * (l + 2) / w, -one, zero],
            [2 * (m + 2) / w, zero, -one]], one, zero)
        res.check(half == expect, ("gamma", order, "half"))
        res.check(pair_C(s1, s2 * half) == 4 - a - 2 * d / w,
                  ("gamma", order, "C_s2"))
        res.check(pair_C(s1, s3 * half) == 4 - b - 2 * d / w,
                  ("gamma", order, "C_s3"))
    return res


def verify_half_turn_pairs(orders=(4, 6)):
    """C between two half-turn translates when two of the three products
    have finite even order; all four combinations for each of the three
    ways of picking the pair."""
    res = SuiteResult("half_turn_pairs")
    b0, l0, m0 = _RATS
    for o1 in orders:
        for o2 in orders:
            cond = lcm(o1, o2)
            r1, r2 = root_of_v(o1), root_of_v(o2)
            h1, h2 = o1 // 2, o2 // 2

            # alpha and beta at v-roots
            s1, s2, s3, (a, b, l, m) = _field_rep(r1, r2, l0, m0, cond)
            g = l * m
            d = delta(a, b, l, m)
            wa, wb = 4 - a, 4 - b
            p = s1 * (s1 * s2) ** h1
            q = s2 * (s1 * s2) ** h1
            x = s1 * (s1 * s3) ** h2
            y = s3 * (s1 * s3) ** h2
            res.check(pair_C(p, x) == 4 - 8 * d / (wa * wb),
                      (o1, o2, "ab", "11"))
            res.check(pair_C(p, y) == b - 2 * b * d / (wa * wb),
                      (o1, o2, "ab", "13"))
            res.check(pair_C(q, x) == a - 2 * a * d / (wa * wb),
                      (o1, o2, "ab", "21"))
            res.check(pair_C(q, y) == g + d * (8 - 2*a - 2*b) / (wa * wb),
                      (o1, o2, "ab", "23"))

            # alpha and gamma at v-roots (m = gamma / l)
            s1, s2, s3, (a, b, l, m) = _field_rep(r1, b0, l0, r2 / l0, cond)
            g = l * m
            d = delta(a, b, l, m)
            wa, wg = 4 - a, 4 - g
            p = s1 * (s1 * s2) ** h1
            q = s2 * (s1 * s2) ** h1
            x = s2 * (s2 * s3) ** h2
            y = s3 * (s2 * s3) ** h2
            res.check(pair_C(p, x) == a - 2 * a * d / (wa * wg),
                      (o1, o2, "ag", "12"))
            res.check(pair_C(p, y) == b + d * (8 - 2*a - 2*g) / (wa * wg),
                      (o1, o2, "ag", "13"))
            res.check(pair_C(q, x) == 4 - 8 * d / (wa * wg),
                      (o1, o2, "ag", "22"))
            res.check(pair_C(q, y) == g - 2 * g * d / (wa * wg),
                      (o1, o2, "ag", "23"))

            # beta and gamma at v-roots
            s1, s2, s3, (a, b, l, m) = _field_rep(b0, r1, l0, r2 / l0, cond)
            g = l * m
            d = delta(a, b, l, m)
            wb, wg = 4 - b, 4 - g
            p = s1 * (s1 * s3) ** h1
            q = s3 * (s1 * s3) ** h1
            x = s2 * (s2 * s3) ** h2
            y = s3 * (s2 * s3) ** h2
            res.check(pair_C(p, x) == a + d * (8 - 2*b - 2*g) / (wb * wg),
                      (o1, o2, "bg", "12"))
            res.check(pair_C(p, y) == b - 2 * b * d / (wb * wg),
                      (o1, o2, "bg", "13"))
            res.check(pair_C(q, x) == g - 2 * g * d / (wb * wg),
                      (o1, o2, "bg", "32"))
            res.check(pair_C(q, y) == 4 - 8 * d / (wb * wg),
                      (o1, o2, "bg", "33"))
    return res


# -- characteristic polynomials of s_i (s_j s_k)^n ---------------------

def charpoly_template(n, seq, weight):
    """X^3 - A X^2 + B X + 1 with
    A = 1 + theta w_n^2 - (theta + theta') w_n w_{n-1},
    B = -1 + theta' w_n^2 - (theta + theta') w_n w_{n-1},
    where w_n = u_n at the relevant constant and even n picks up one extra
    factor of that constant (the weight) on the square."""
    un, un1 = u_at(seq, n), u_at(seq, n - 1)
    sq = un * un if n % 2 else weight * un * un
    mixed = (THETA + THETA_P) * un * un1
    a_coeff = 1 + THETA * sq - mixed
    b_coeff = -1 + THETA_P * sq - mixed
    return UPoly([ONE, b_coeff, -a_coeff, ONE])


def verify_charpoly_catalog(kmax=6):
    """Characteristic polynomials of t_n = s1 (s2 s3)^n, x_n = s2 (s3 s1)^n
    and y_n = s3 (s1 s2)^n against the shared template, the values at +-1,
    and the conditional factorizations (delta = 0 and alpha l = beta m) via
    pseudo-remainders in m."""
    res = SuiteResult("charpoly_catalog")
    s1, s2, s3 = GENS
    uA, uB, uG = _u_seqs(kmax + 1)
    delta = THETA_P - THETA
    skew = THETA + THETA_P  # alpha l - beta m
    families = [
        ("t", s1, s2 * s3, uG, GAMMA),
        ("x", s2, s3 * s1, uB, BETA),
        ("y", s3, s1 * s2, uA, ALPHA),
    ]
    x_minus_1 = UPoly([-ONE, ONE])
    x_plus_1 = UPoly([ONE, ONE])
    for name, head, pair, seq, weight in families:
        cur = head
        for n in range(0, 2 * kmax + 1):
            cp = cur.char_poly()
            tmpl = charpoly_template(n, seq, weight)
            res.check(all((x - y).is_zero()
                          for x, y in zip(cp.coeffs, tmpl.coeffs)),
                      (name, n, "template"))
            # value at 1: delta times the weighted square
            un = u_at(seq, n)
            sq = un * un if n % 2 else weight * un * un
            res.check((cp.eval(ONE) - delta * sq).is_zero(),
                      (name, n, "at_one"))
            # value at -1: the doubled-index u
            res.check((cp.eval(-ONE) + skew * u_at(seq, 2 * n)).is_zero(),
                      (name, n, "at_minus_one"))
            if n >= 1:
                # delta = 0 forces the (X - 1) factorization
                quad = UPoly([-ONE, -THETA * u_at(seq, 2 * n), ONE])
                diff = cp - x_minus_1 * quad
                res.check(all(prem(c, delta, 3).is_zero()
                              for c in diff.coeffs),
                          (name, n, "delta0_factor"))
                # alpha l = beta m forces the (X + 1) factorization
                quad = UPoly([ONE, -(2 + THETA * sq), ONE])
                diff = cp - x_plus_1 * quad
                res.check(all(prem(c, skew, 3).is_zero()
                              for c in diff.coeffs),
                          (name, n, "skew_factor"))
            cur = cur * pair
    return res


def verify_charpoly_even_order(orders=(4, 6)):
    """When s2 s3 has even order 2h, the characteristic polynomial of
    t_h = s1 (s2 s3)^h factors as (X + 1)(X^2 - 2(1 - delta/(4 - gamma))X + 1).
    Checked exactly at v-roots of gamma."""
    res = SuiteResult("charpoly_even_order")
    for order in orders:
        s1, s2, s3, (a, b, l, m) = _halfturn_rep("gamma", order)
        one = s1.one
        g = l * m
        d = delta(a, b, l, m)
        h = order // 2
        t = s1 * (s2 * s3) ** h
        cp = t.char_poly()
        c = 2 * (one - d / (4 - g))
        expect = UPoly([one, -c, one]) * UPoly([one, one])
        res.check(all(x == y for x, y in zip(cp.coeffs, expect.coeffs)),
                  (order, "factor"))
    return res


def run_symbolic_suites(kmax):
    """Every check of this module, as one result named section2."""
    res = SuiteResult("section2")
    for part in (verify_power_formulas(kmax), verify_reflection_formulas(kmax),
                 verify_C_generic(kmax), verify_C_conjugates(),
                 verify_half_turns(), verify_half_turn_pairs(),
                 verify_charpoly_catalog(kmax), verify_charpoly_even_order()):
        res.merge(part)
    return res
