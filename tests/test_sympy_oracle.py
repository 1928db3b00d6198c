"""Differential checks of the polynomial families against sympy, an
independent oracle.  sympy is not a dependency of the package, so the module
is skipped where it is not installed."""

import pytest

sympy = pytest.importorskip("sympy")

from reflektor.upoly import cyclotomic_poly, v_poly  # noqa: E402

x = sympy.Symbol("x")


def _coeffs(expr):
    # ascending integer coefficients, as UPoly stores them
    return tuple(int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs()))


def test_cyclotomic_poly_matches_sympy():
    for n in range(1, 121):
        assert cyclotomic_poly(n).coeffs == \
            _coeffs(sympy.cyclotomic_poly(n, x)), n


@pytest.mark.parametrize("n", range(3, 31))
def test_v_poly_is_minimal_polynomial_of_4cos2(n):
    minpoly = sympy.minimal_polynomial(4 * sympy.cos(sympy.pi / n) ** 2, x)
    lead = sympy.Poly(minpoly, x).LC()
    assert v_poly(n).coeffs == _coeffs(minpoly / lead)


# -- SquareMat.char_poly on MPoly entries --------------------------------

from reflektor.matrices import mat_word  # noqa: E402
from reflektor.mpoly import VAR_NAMES  # noqa: E402
from reflektor.sympoly import GENS  # noqa: E402

SYMS = sympy.symbols(VAR_NAMES)


def _to_sympy(p):
    return sum((sympy.sympify(c) *
                sympy.Mul(*[v ** e for v, e in zip(SYMS, exps)])
                for exps, c in p.terms.items()), sympy.Integer(0))


# s1, s1 s2, and s1 (s2 s3)^n for n = 1, 2, 3
@pytest.mark.parametrize("word", [[1], [1, 2]] + [[1] + [2, 3] * n
                                                  for n in (1, 2, 3)],
                         ids=lambda w: "".join("s%d" % i for i in w))
def test_char_poly_matches_sympy(word):
    mat = mat_word(GENS, word)
    ours = [_to_sympy(c) for c in mat.char_poly().coeffs]
    theirs = sympy.Matrix([[_to_sympy(x) for x in row] for row in mat.rows]) \
        .charpoly(x).all_coeffs()
    assert len(ours) == len(theirs) == 4
    for a, b in zip(ours, reversed(theirs)):
        assert sympy.expand(a - b) == 0


# -- galois_norm as a resultant ------------------------------------------

import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from reflektor.cyclo import CycloElem, field_ctx, galois_norm  # noqa: E402


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 30])
def test_galois_norm_is_the_resultant_with_phi(n):
    """N(a / den) = Res(Phi_N, a) / den^d for the integer polynomial a."""
    ctx = field_ctx(n)
    d = ctx.degree
    rng = random.Random(n)
    phi = sympy.Poly(list(reversed(ctx.phi_poly.coeffs)), x)
    for _ in range(4):
        vec = [rng.randint(-9, 9) for _ in range(d)]
        den = rng.randint(1, 12)
        a = sympy.Poly(list(reversed(vec)), x)
        res = int(sympy.resultant(phi, a))
        got = galois_norm(CycloElem(ctx, vec, den))
        assert got == Fraction(res, den ** d), vec


# -- mpoly.prem against sympy's pseudo-remainder -------------------------

from reflektor.mpoly import ALPHA, BETA, GAMMA, L, M, MPoly, prem  # noqa: E402
from reflektor.reflrep import delta  # noqa: E402

# m first: sympy's prem of multivariate Polys is in the first generator
_M_FIRST = (SYMS[3],) + SYMS[:3]


def _poly_in_m(p):
    return sympy.Poly.from_dict({(e[3], e[0], e[1], e[2]): c
                                 for e, c in p.terms.items()} or {(0,) * 4: 0},
                                _M_FIRST, domain="ZZ")


@pytest.mark.parametrize("degree", range(21))
def test_prem_matches_sympy(degree):
    """The three divisors of the Section-2 checks, each linear in m, on a
    random f of degree `degree` in m, and on f times the divisor, whose
    pseudo-remainder is 0."""
    rng = random.Random(degree)
    f = MPoly({(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2),
                rng.randint(0, degree)): rng.randint(-5, 5)
               for _ in range(4)}) + M ** degree
    for g in (delta(ALPHA, BETA, L, M), ALPHA * L - BETA * M, GAMMA + L + M):
        for h in (f, f * g):
            ours = prem(h, g, 3)
            assert _poly_in_m(ours) == _poly_in_m(h).prem(_poly_in_m(g))
            assert ours.is_zero() == (h is not f)
