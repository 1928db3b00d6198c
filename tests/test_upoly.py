from fractions import Fraction
from math import comb

import pytest

from reflektor.upoly import (UPoly, X, u_poly, v_poly, n_prime, theta,
                             prime_power_class, cyclotomic_poly, euler_phi,
                             format_poly)

# first few members of the family, from the defining sums
SMALL_U = {
    0: UPoly(),
    1: UPoly([1]),
    2: UPoly([1]),
    3: UPoly([-1, 1]),          # X - 1
    4: UPoly([-2, 1]),          # X - 2
    5: UPoly([1, -3, 1]),       # X^2 - 3X + 1
    7: UPoly([-1, 6, -5, 1]),   # X^3 - 5X^2 + 6X - 1
}


@pytest.mark.parametrize("n,expected", sorted(SMALL_U.items()))
def test_u_small_values(n, expected):
    assert u_poly(n) == expected


def test_u_negative_index_is_odd():
    for n in range(0, 12):
        assert u_poly(-n) == -u_poly(n)


def closed_form_u(n):
    # (-1)^k C(n-1-k, k) on X^(m-k), m = (n-1) // 2, for n >= 1
    a = n - 1
    m = a // 2
    return UPoly([(-1) ** (m - i) * comb(a - m + i, m - i)
                  for i in range(m + 1)])


def test_u_matches_the_binomial_closed_form():
    assert u_poly(0) == UPoly()
    for n in range(1, 601):
        expected = closed_form_u(n)
        assert u_poly(n) == expected, n
        assert u_poly(-n) == -expected, -n


def test_u_satisfies_a1_and_a2_to_600():
    # A1: u_{2n+2} = u_{2n+1} - u_{2n};  A2: u_{2n+1} = X u_{2n} - u_{2n-1}
    for n in range(-300, 300):
        assert u_poly(2*n + 2) == u_poly(2*n + 1) - u_poly(2*n), n
    for n in range(-299, 300):
        assert u_poly(2*n + 1) == X * u_poly(2*n) - u_poly(2*n - 1), n


def test_u_degrees():
    # deg u_{2n+1} = deg u_{2n+2} = n
    for n in range(0, 15):
        assert u_poly(2 * n + 1).degree == n
        assert u_poly(2 * n + 2).degree == n


def test_v_small_values():
    assert v_poly(1) == UPoly([1])
    assert v_poly(2) == UPoly([1])
    assert v_poly(4) == UPoly([-2, 1])
    assert v_poly(6) == UPoly([-3, 1])
    assert v_poly(5) == u_poly(5)


def test_v_degree_is_half_totient():
    for n in range(3, 40):
        assert v_poly(n).degree == euler_phi(n) // 2


def test_n_prime_map():
    assert n_prime(3) == 6
    assert n_prime(6) == 3
    assert n_prime(4) == 4
    assert n_prime(8) == 8
    assert n_prime(10) == 5
    assert n_prime(5) == 10
    # an involution on indices >= 3
    for n in range(3, 60):
        assert n_prime(n_prime(n)) == n


def test_theta_is_signed_constant_term():
    p = UPoly([6, -5, 1])  # (X-2)(X-3)
    assert theta(p) == 6
    assert theta(UPoly([-7, 1])) == 7


def test_theta_requires_monic():
    with pytest.raises(ValueError):
        theta(UPoly([1, 2]))


def test_prime_power_class():
    assert prime_power_class(4) == 2      # 2 * 2^1
    assert prime_power_class(6) == 3      # 2 * 3^1
    assert prime_power_class(8) == 2
    assert prime_power_class(18) == 3
    assert prime_power_class(12) == 1
    assert prime_power_class(15) == 1


def test_cyclotomic_poly():
    assert cyclotomic_poly(1) == UPoly([-1, 1])
    assert cyclotomic_poly(5) == UPoly([1, 1, 1, 1, 1])
    assert cyclotomic_poly(12) == UPoly([1, 0, -1, 0, 1])
    # product over divisors gives X^n - 1
    for n in (6, 10, 12):
        prod = UPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == UPoly([-1] + [0] * (n - 1) + [1])


def test_exact_div():
    a = u_poly(30)
    b = v_poly(15)
    q = a.exact_div(b)
    assert q * b == a
    with pytest.raises(ValueError):
        u_poly(5).exact_div(UPoly([1, 1]))


def test_eval_and_compose():
    p = u_poly(5)
    assert p.eval(Fraction(1, 2)) == Fraction(1, 2) ** 2 - Fraction(3, 2) + 1
    assert p.compose(X) == p


def test_format_poly():
    assert format_poly(u_poly(5)) == "X^2 - 3*X + 1"
    assert format_poly(UPoly()) == "0"
    assert format_poly(UPoly([Fraction(1, 2), 1])) == "X + 1/2"
    assert format_poly(UPoly([Fraction(2), Fraction(-3, 2), Fraction(1)])) \
        == "X^2 - 3/2*X + 2"
