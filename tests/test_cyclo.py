import hashlib
import operator
from fractions import Fraction

import pytest

from reflektor.cyclo import (CycloElem, field_ctx, to_field, root_of_v,
                             sqrt_root, named_constant, galois_norm,
                             power_basis_coords, quad_pow, quad_pow_closed,
                             root_identity_suite, norm_invertibility_suite,
                             quad_power_suite, classification_search)
from reflektor.mpoly import ALPHA
from reflektor.upoly import v_poly, u_poly, euler_phi


def test_ctx_degrees():
    assert field_ctx(1).degree == 1
    assert field_ctx(5).degree == 4
    assert field_ctx(12).degree == 4


def test_zeta_has_right_order():
    ctx = field_ctx(7)
    z = ctx.zeta(1)
    p = ctx.one()
    for _ in range(7):
        p = p * z
    assert p == ctx.one()
    assert z ** 3 * z ** 4 == 1


def test_field_ops():
    ctx = field_ctx(5)
    z = ctx.zeta(1)
    a = z + z ** 4 + 2
    assert a * a.inverse() == 1
    assert (a - a).is_zero()
    assert ctx.from_fraction(Fraction(2, 3)) * 3 == 2


def _tau15():
    ctx = field_ctx(15)
    return ctx.zeta(3) + ctx.zeta(-3) + 2


@pytest.mark.parametrize("x, n, expect", [
    (3, 5, lambda: field_ctx(5).from_fraction(3)),
    (Fraction(-2, 3), 7, lambda: field_ctx(7).from_fraction(Fraction(-2, 3))),
    # the same conductor keeps the element
    (field_ctx(5).zeta(2), 5, lambda: field_ctx(5).zeta(2)),
    # 5 | 15 lifts: 4 cos^2(pi/5) = zeta_15^3 + zeta_15^-3 + 2
    (root_of_v(5, 1), 15, _tau15),
    # root_of_v(4, 1) = 2 is rational, so 4 need not divide 5
    (root_of_v(4, 1), 5, lambda: field_ctx(5).from_fraction(2)),
    # an irrational element whose conductor does not divide is refused
    (root_of_v(5, 1), 7, ValueError),
])
def test_to_field(x, n, expect):
    if expect is ValueError:
        with pytest.raises(ValueError):
            to_field(x, field_ctx(n))
        return
    got = to_field(x, field_ctx(n))
    assert got.ctx.N == n
    assert got == expect()


def test_root_of_v_kills_v():
    for r in (3, 4, 5, 7, 12):
        g = root_of_v(r, 1)
        assert v_poly(r).eval(g).is_zero()
    # but not u at a coprime-to-r denominator index
    assert not v_poly(7).eval(root_of_v(5, 1)).is_zero()


def test_root_of_v_validates_args():
    with pytest.raises(ValueError):
        root_of_v(2, 1)
    with pytest.raises(ValueError):
        root_of_v(6, 2)


def test_sqrt_root_squares_back():
    for r, k in ((5, 1), (5, 2), (7, 3), (9, 2)):
        s = sqrt_root(r, k)
        assert s * s == root_of_v(r, k).lift(s.ctx)


def test_tau():
    tau = named_constant("tau", 5)
    # tau = (3+sqrt5)/2 satisfies X^2 - 3X + 1
    assert tau * tau - 3 * tau + 1 == 0
    assert tau == root_of_v(5, 1)


def test_omega_and_zeta7_half():
    om = named_constant("omega", 3)
    assert om * om + om + 1 == 0
    ze = named_constant("zeta7_half", 7)
    assert ze * ze - ze + 2 == 0


def test_galois_norm_is_rational_and_multiplicative():
    g = root_of_v(7, 1)
    h = root_of_v(7, 2)
    assert galois_norm(g) == galois_norm(h) == 1
    assert galois_norm(root_of_v(10, 1)) == 25  # 10 = 2 * 5
    x = g + 3
    y = h - 1
    assert galois_norm(x * y) == galois_norm(x) * galois_norm(y)


def test_power_basis_coords():
    g = root_of_v(7, 1)
    dim = euler_phi(7) // 2
    coords = power_basis_coords(g * g + 2, g, dim)
    assert coords is not None
    acc = g.ctx.zero()
    p = g.ctx.one()
    for c in coords:
        acc = acc + p * g.ctx.from_fraction(c)
        p = p * g
    assert acc == g * g + 2


def test_power_basis_coords_rank_deficient():
    # tau = root of v_5 has degree 2, so 1, tau, tau^2, tau^3 span only
    # Q(tau); the unknowns of the dependent powers come back as 0
    g = root_of_v(5, 1)
    assert power_basis_coords(g * g, g, 4) == [-1, 3, 0, 0]
    assert power_basis_coords(g.ctx.zeta(1), g, 4) is None


def test_quad_pow_matches_closed_form():
    phi = root_of_v(5, 1) - 2  # sqrt(5) shifted: phi = tau - 2
    for sign in (1, -1):
        for n in range(-12, 12):
            assert quad_pow(phi, sign, n) == quad_pow_closed(phi, sign, n)
    # negative powers divide nothing, so a symbolic phi works as well
    for sign in (1, -1):
        for n in range(-6, 7):
            got = quad_pow(ALPHA, sign, n)
            ref = quad_pow_closed(ALPHA, sign, n)
            assert all((x - y).is_zero() for x, y in zip(got, ref)), n


def test_power_basis_coords_multiplies_dim_minus_one_times(monkeypatch):
    calls = []
    mul = CycloElem.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    g = root_of_v(7, 1)
    x = g * g + 2
    monkeypatch.setattr(CycloElem, "__mul__", counted)
    for dim in (1, 2, 3):
        calls.clear()
        power_basis_coords(x, g, dim, g)
        assert len(calls) == dim - 1


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_bad_operands(op):
    x = root_of_v(5, 1)
    # a float is no operand of an exact field
    with pytest.raises(TypeError):
        op(x, 0.5)
    with pytest.raises(TypeError):
        op(0.5, x)
    # an irrational element of another conductor must be lifted first
    for y in (root_of_v(7, 1), field_ctx(12).zeta(1)):
        with pytest.raises(ValueError, match="lift first"):
            op(x, y)
        with pytest.raises(ValueError, match="lift first"):
            op(y, x)
    with pytest.raises(ValueError, match="lift first"):
        x == root_of_v(7, 1)


def test_root_identity_suite_small():
    res = root_identity_suite(12)
    assert res.passed, res.failures[:5]


def test_root_identity_case_order_digest():
    # every root-identity case id and status up to r = 30, in order
    res = root_identity_suite(30)
    cases = [(cid, status) for cid, status, _ in res.records]
    assert len(cases) == 5804
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == (
        "4564d801e7acc6495066e1258b6752dd9dd384ae93a2a46b52c300a4b29472d0")


def test_norm_invertibility_suite_small():
    res = norm_invertibility_suite(12)
    assert res.passed, res.failures[:5]


def test_quad_power_suite():
    res = quad_power_suite()
    assert res.passed, res.failures[:5]


def test_classification_bound_8():
    got = classification_search(8)
    assert got["product"] == [{"alpha": (4, 1), "beta": (4, 1),
                               "gamma": (3, 1)}]
    assert got["sum"] == [((3, 1), (3, 1), (4, 1)),
                          ((3, 1), (5, 1), (5, 2))]
    assert got["skipped"] == []
