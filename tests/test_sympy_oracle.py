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
