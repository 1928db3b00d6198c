"""Property-based checks for the arithmetic layers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reflektor.cyclo import field_ctx, galois_norm, power_basis_coords
from reflektor.scalars import rat_str
from reflektor.upoly import UPoly, u_poly

rationals = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 4))

small_polys = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=6
).map(UPoly)


def cyclo_elems(n):
    ctx = field_ctx(n)

    def build(nums, den):
        vec = [Fraction(c, den) for c in nums]
        acc = ctx.zero()
        p = ctx.one()
        z = ctx.zeta(1)
        for c in vec:
            acc = acc + p * ctx.from_fraction(c)
            p = p * z
        return acc

    return st.builds(
        build,
        st.lists(st.integers(min_value=-20, max_value=20),
                 min_size=ctx.degree, max_size=ctx.degree),
        st.integers(min_value=1, max_value=12))


@given(rationals)
def test_rat_str_roundtrip(q):
    assert Fraction(rat_str(q)) == q


@given(small_polys, small_polys, small_polys)
def test_upoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys, rationals)
def test_upoly_eval_is_ring_hom(a, b, x):
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


@given(st.integers(min_value=-40, max_value=40))
def test_u_odd_symmetry(n):
    assert u_poly(-n) == -u_poly(n)


@settings(max_examples=30)
@given(cyclo_elems(7), cyclo_elems(7))
def test_cyclo_field_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x * (x + y) == x * x + x * y
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=30)
@given(cyclo_elems(5), cyclo_elems(5))
def test_galois_norm_multiplicative(x, y):
    assert galois_norm(x * y) == galois_norm(x) * galois_norm(y)


@settings(max_examples=30)
@given(cyclo_elems(5))
def test_lift_preserves_arithmetic(x):
    big = field_ctx(15)
    assert (x * x).lift(big) == x.lift(big) * x.lift(big)
    assert (x + 1).lift(big) == x.lift(big) + 1


# -- exact division: the int kernel against the Fraction path ------------

def _fraction_divmod(a, b):
    """Long division over Fraction, the reference for UPoly.__divmod__;
    a and b are coefficient sequences, ascending."""
    rem = [Fraction(c) for c in a]
    lead = Fraction(b[-1])
    dn = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1 - dn, -1, -1):
        c = rem[i + dn] / lead
        if c:
            quo[i] = c
            for j, bc in enumerate(b):
                rem[i + j] -= c * bc
    return UPoly(quo), UPoly(rem[:dn] if dn > 0 else [])


def _same(p, q):
    return p.coeffs == q.coeffs and \
        [type(c) for c in p.coeffs] == [type(c) for c in q.coeffs]


int_coeffs = st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
                      max_size=14)
unit_divisors = st.builds(lambda low, lead: UPoly(low + [lead]),
                          st.lists(st.integers(-10 ** 6, 10 ** 6),
                                   max_size=7),
                          st.sampled_from([1, -1]))


@given(int_coeffs.map(UPoly), unit_divisors)
def test_int_divmod_matches_fraction_path(a, b):
    q, r = divmod(a, b)
    fq, fr = _fraction_divmod(a.coeffs, b.coeffs)
    assert _same(q, fq) and _same(r, fr)
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    assert q * b + r == a


@given(int_coeffs.map(UPoly),
       st.lists(st.integers(-50, 50), max_size=5),
       st.integers(2, 9), st.sampled_from([1, -1]))
def test_non_unit_divisor_keeps_fraction_path(a, low, lead, sign):
    b = UPoly(low + [sign * lead])
    q, r = divmod(a, b)
    fq, fr = _fraction_divmod(a.coeffs, b.coeffs)
    assert _same(q, fq) and _same(r, fr)


@given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=4),
       st.sampled_from([1, -1, Fraction(1), Fraction(-3, 2)]))
def test_fraction_operands_keep_fraction_path(a, low, lead):
    a, b = UPoly(a), UPoly(low + [lead])
    q, r = divmod(a, b)
    fq, fr = _fraction_divmod(a.coeffs, b.coeffs)
    assert _same(q, fq) and _same(r, fr)


def test_cyclo_coefficients_are_still_refused():
    ctx = field_ctx(5)
    with pytest.raises(TypeError):
        divmod(UPoly([ctx.zeta(1), ctx.one()]), UPoly([1, 1]))
    with pytest.raises(TypeError):
        divmod(UPoly([1, 2, 3]), UPoly([ctx.zeta(1), ctx.one()]))


# -- fraction-free solver: inverse and power-basis coordinates -----------

def _euclid_inverse(x):
    """x^(-1) by the extended Euclid algorithm over Fraction."""
    r0, t0 = x.ctx.phi_poly, UPoly()
    r1, t1 = UPoly([Fraction(c, x.den) for c in x.vec]), UPoly([1])
    while r1.degree > 0:
        q, r2 = _fraction_divmod(r0.coeffs, r1.coeffs)
        r0, t0, r1, t1 = r1, t1, r2, t0 - q * t1
    acc = x.ctx.zero()
    for i, c in enumerate(t1.coeffs):
        acc = acc + x.ctx.zeta(i) * (Fraction(c) / r1.constant())
    return acc


def _gauss_jordan_coords(x, gen, dim):
    """power_basis_coords by Gauss-Jordan elimination over Fraction."""
    d = x.ctx.degree
    cols = []
    p = x.ctx.one()
    for _ in range(dim):
        cols.append([Fraction(c, p.den) for c in p.vec])
        p = p * gen
    aug = [[cols[j][i] for j in range(dim)] + [Fraction(x.vec[i], x.den)]
           for i in range(d)]
    row = 0
    pivots = []
    for col in range(dim):
        piv = next((r for r in range(row, d) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [c / aug[row][col] for c in aug[row]]
        for r in range(d):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [c - f * pc for c, pc in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    if any(aug[r][dim] != 0 for r in range(row, d)):
        return None
    coords = [Fraction(0)] * dim
    for r, col in enumerate(pivots):
        coords[col] = aug[r][dim]
    return coords


field_elems = st.sampled_from([5, 7, 12]).flatmap(cyclo_elems)
field_pairs = st.sampled_from([5, 7, 12]).flatmap(
    lambda n: st.tuples(cyclo_elems(n), cyclo_elems(n)))


@settings(max_examples=60, deadline=None)
@given(field_elems)
def test_inverse_matches_euclid(x):
    if x.is_zero():
        return
    inv = x.inverse()
    assert x * inv == 1
    assert inv == _euclid_inverse(x)


@settings(max_examples=60, deadline=None)
@given(field_pairs, st.data())
def test_power_basis_coords_matches_gauss_jordan(pair, data):
    x, gen = pair
    dim = data.draw(st.integers(0, x.ctx.degree))
    assert power_basis_coords(x, gen, dim) == _gauss_jordan_coords(x, gen, dim)
    # a point of the span: its coordinates exist and are found
    coords = data.draw(st.lists(rationals, min_size=dim, max_size=dim))
    y, p = x.ctx.zero(), x.ctx.one()
    for c in coords:
        y, p = y + p * c, p * gen
    got = power_basis_coords(y, gen, dim)
    assert got is not None
    assert got == _gauss_jordan_coords(y, gen, dim)
    acc, p = x.ctx.zero(), x.ctx.one()
    for c in got:
        acc, p = acc + p * c, p * gen
    assert acc == y
