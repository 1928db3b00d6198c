import hashlib
import inspect
import operator
import types
from fractions import Fraction

import pytest

from reflektor import cyclo
from reflektor.cyclo import (CycloElem, field_ctx, to_field,
                             root_of_v, sqrt_root, named_constant, galois_norm,
                             power_basis_coords, quad_pow, quad_pow_closed,
                             root_identity_suite, norm_invertibility_suite,
                             quad_power_suite, classification_search,
                             u_value_seq, u_at, _coprime_ks)
from reflektor.mpoly import ALPHA, MPoly
from reflektor.report import SuiteResult
from reflektor.upoly import (UPoly, v_poly, u_poly, euler_phi, n_prime,
                             prime_power_class)


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


def _root_identity_oracle(r_max):
    """The root identities checked in Q(zeta_N) itself, one root at a time
    with CycloElem arithmetic: the same case ids, in the same order."""
    res = SuiteResult("root_identities")

    for p in range(2, r_max // 2 + 1):
        r = 2 * p
        for k in _coprime_ks(r):
            g = root_of_v(r, k)
            seq = u_value_seq(g, 8 * p + 4)
            uu = lambda n: u_at(seq, n)
            lab = ("even", r, k)
            for kk in range(0, p + 1):
                res.check(uu(2 * p - kk) == uu(kk), lab + ("mirror", kk))
            for l in range(0, 4):
                e = 1 if l % 2 == 0 else -1
                for kk in range(0, p):
                    res.check(uu(2 * l * p + kk) == e * uu(kk),
                              lab + ("period", l, kk))
            res.check(uu(2 * p - 1) == 1, lab + ("top+",))
            res.check(uu(2 * p + 1) == -1, lab + ("top-",))
            w = 4 - g
            w0 = w if p % 2 else g * w
            for kk in range(p + p % 2):
                tag = (("ladder", kk) if p % 2 else
                       (("ladder_e", "ladder_o")[kk % 2], kk // 2))
                res.check((w if kk % 2 else w0) * uu(p) * uu(p - kk)
                          == 2 * (uu(kk + 1) - uu(kk - 1)), lab + tag)
            res.check(w0 * uu(p) * uu(p) == 4, lab + ("norm4",))
            res.check(w * uu(p) * uu(p - 1) == 2, lab + ("norm2",))

    for r in range(3, r_max + 1, 2):
        h = (r - 1) // 2
        for k in _coprime_ks(r):
            s = sqrt_root(r, k)
            g = s * s
            seq = u_value_seq(g, 2 * r + 4)
            uu = lambda n: u_at(seq, n)
            lab = ("odd", r, k)
            for kk in range(0, h):
                res.check(uu(r - (2 * kk + 1)) == uu(2 * kk + 1) * uu(r - 1),
                          lab + ("odd_step", kk))
                res.check(uu(r - (2 * kk + 2)) == g * uu(2 * kk + 2) * uu(r - 1),
                          lab + ("even_step", kk))
            e = 1 if (k - 1) % 2 == 0 else -1
            res.check(s * uu(r - 1) == e, lab + ("sqrt_sign",))
            lmax, wt = ((r - 1) // 4, 1) if r % 4 == 1 else ((r - 3) // 8, g)
            for l in range(0, lmax + 1):
                res.check(uu(h - 2 * l)
                          == (uu(2 * l + 1) - e * s * uu(2 * l)) * uu(h),
                          lab + ("half_e", l))
                res.check(wt * uu(h - (2 * l - 1))
                          == (g * uu(2 * l) - e * s * uu(2 * l - 1)) * uu(h),
                          lab + ("half_o", l))
    return res


def _cases(res):
    return [(cid, status) for cid, status, _ in res.records]


@pytest.mark.parametrize("r_max", range(3, 21))
def test_root_identities_match_the_field_oracle(r_max):
    assert _cases(root_identity_suite(r_max)) == _cases(
        _root_identity_oracle(r_max))


def _planted(obj, old, new):
    """obj, the cyclo module or a function of this file, rebuilt from its
    source with one piece of it replaced."""
    src = inspect.getsource(obj)
    assert src.count(old) == 1, old
    code = compile(src.replace(old, new), inspect.getsourcefile(obj), "exec")
    if isinstance(obj, types.ModuleType):
        mod = types.ModuleType("reflektor._planted_cyclo")
        mod.__package__ = "reflektor"
        exec(code, mod.__dict__)
        return mod
    scope = dict(globals())
    exec(code, scope)
    return scope[obj.__name__]


PLANTS = [
    ("top+", ("[(R.u(r - 1), 1)]", "[(R.u(r - 1), 2)]"),
     ("uu(2 * p - 1) == 1", "uu(2 * p - 1) == 2"), 47),
    ("ladder", ("2 * (R.u(kk + 1)", "3 * (R.u(kk + 1)"),
     ("2 * (uu(kk + 1)", "3 * (uu(kk + 1)"), 480),
    ("sqrt_sign", ("R.s * R.u(r - 1), 1)", "R.s * R.u(r - 1), -1)"),
     ("s * uu(r - 1) == e", "s * uu(r - 1) == -e"), 91),
    ("even_step", ("R.x * R.u(2 * kk + 2)", "R.u(2 * kk + 2)"),
     ("g * uu(2 * kk + 2) * uu(r - 1)", "uu(2 * kk + 2) * uu(r - 1)"), 873),
]


@pytest.mark.parametrize("family, plant, oracle_plant, count", PLANTS)
def test_planted_false_identities_fail_at_every_root(family, plant,
                                                       oracle_plant, count):
    res = _planted(cyclo, *plant).root_identity_suite(30)
    want = _planted(_root_identity_oracle, *oracle_plant)(30)
    assert _cases(res) == _cases(want)
    # every failure is in the family (ladder_e and ladder_o are the ladder
    # at even p); the ladder at odd p and kk = p, where both sides are 0,
    # and even_step at r = 3, where g = 1, still hold
    assert len(res.failures) == count
    assert all(cid.split(":")[3].startswith(family) for cid in res.failures)


def _chebyshev(hi):
    """S_0 .. S_hi in c, with S_0 = 1, S_1 = c, S_(k+1) = c S_k - S_(k-1)."""
    c = UPoly([0, 1])
    s = [UPoly([1]), c]
    while len(s) <= hi:
        s.append(c * s[-1] - s[-2])
    return s


def test_u_at_squares_is_chebyshev():
    # u at c^2 is Chebyshev's S in c, with S_k(2 cos t) =
    # sin((k + 1) t) / sin t: c u_2m(c^2) = S_2m-1 and u_2m+1(c^2) = S_2m
    c, s = UPoly([0, 1]), _chebyshev(81)
    square = UPoly([0, 0, 1])
    for m in range(41):
        if m:
            assert c * u_poly(2 * m).compose(square) == s[2 * m - 1]
        assert u_poly(2 * m + 1).compose(square) == s[2 * m]


def _spied(mod, monkeypatch):
    """The t = zeta_2r of every tuple that mod (cyclo or a planted copy)
    decides in the field, recorded as r."""
    seen = []
    at_zeta = mod._at_zeta

    def spy(num, r):
        seen.append(r)
        return at_zeta(num, r)

    monkeypatch.setattr(mod, "_at_zeta", spy)
    return seen


def test_every_root_class_is_proved_to_60(monkeypatch):
    seen = _spied(cyclo, monkeypatch)
    res = root_identity_suite(60)
    assert len(res.records) == 43943 and res.passed
    assert seen == []


def test_a_broken_relation_falls_back_to_the_field(monkeypatch):
    # without the rewrite, or with t^r = +1 for -1, classes fail, and the
    # statuses come from the field, tuple by tuple
    want = _cases(root_identity_suite(30))
    monkeypatch.setattr(cyclo, "_mod_t_r", lambda num, r0: num)
    seen = _spied(cyclo, monkeypatch)
    assert _cases(root_identity_suite(30)) == want
    assert seen
    flipped = _planted(cyclo, "-k if a % 2 else k", "k")
    seen = _spied(flipped, monkeypatch)
    assert _cases(flipped.root_identity_suite(30)) == want
    assert seen


@pytest.mark.parametrize("family, plant, oracle_plant, count",
                         [(None, None, None, 0), PLANTS[1], PLANTS[3]])
def test_the_field_fallback_alone_matches_the_oracle(family, plant,
                                                     oracle_plant, count,
                                                     monkeypatch):
    mod = _planted(cyclo, *plant) if plant else cyclo
    oracle = (_planted(_root_identity_oracle, *oracle_plant) if oracle_plant
              else _root_identity_oracle)
    monkeypatch.setattr(mod, "_mod_t_r", lambda num, r0: num)
    res = mod.root_identity_suite(20)
    assert _cases(res) == _cases(oracle(20))
    assert bool(res.failures) == bool(count)


def _at_t(num, r, q, q2):
    """num with T_1 = t^q and T_2 = t^q2, at t = zeta_2r."""
    t = sum((MPoly({(c + q * e + q2 * e2, 0, 0, 0): k})
             for (c, e, e2, _), k in num.terms.items()), MPoly())
    return cyclo._at_zeta(t, r)


def test_the_rewrite_keeps_t1_powers_0_to_3():
    t1 = lambda e, c=0, e2=0: MPoly({(c, e, e2, 0): 1})
    for r0 in range(4):
        # T_1^4 = -t^-r0, so T_1^-1 = -t^r0 T_1^3 and T_1^-4 = -t^r0
        assert cyclo._mod_t_r(t1(4), r0) == -t1(0, -r0)
        assert cyclo._mod_t_r(t1(-1), r0) == -t1(3, r0)
        assert cyclo._mod_t_r(t1(-4), r0) == -t1(0, r0)
        assert cyclo._mod_t_r(t1(-8, 1, -3), r0) == t1(0, 1 + 2 * r0, -3)
        assert cyclo._mod_t_r(t1(5) + t1(1, -r0), r0) == 0
        num = t1(-7, 2, -1) * 5 - t1(6, -1, 2) + t1(-2, 0, -5) * 3 + 1
        rewritten = cyclo._mod_t_r(num, r0)
        assert {e[1] for e in rewritten.terms} <= {0, 1, 2, 3}
        # the same value at every t = zeta_2r, r = r0 + 4q, for any T_2
        for q in range(1, 5):
            r = r0 + 4 * q
            for q2 in (-3, 0, 2):
                assert _at_t(rewritten, r, q, q2) == _at_t(num, r, q, q2)


def test_norm_invertibility_suite_small():
    res = norm_invertibility_suite(12)
    assert res.passed, res.failures[:5]


def _norm_invertibility_oracle(r_max):
    """The invertibility certificates checked one root_of_v(r, k) at a
    time: the same case ids, in the same order."""
    res = SuiteResult("norm_invertibility")
    for r in range(3, r_max + 1):
        dim = euler_phi(r) // 2
        p = prime_power_class(r)
        p4 = prime_power_class(n_prime(r))
        for k in _coprime_ks(r):
            g = root_of_v(r, k)
            res.check(galois_norm(g) == Fraction(p) ** 2,
                      ("norm", r, k))
            res.check(galois_norm(4 - g) == Fraction(p4) ** 2,
                      ("norm4x", r, k))
            coords = power_basis_coords(g.ctx.from_fraction(p), g, dim, g)
            res.check(coords is not None and
                      all(c.denominator == 1 for c in coords),
                      ("integral", r, k))
            h = 4 - g
            coords = power_basis_coords(g.ctx.from_fraction(p4), h, dim, h)
            res.check(coords is not None and
                      all(c.denominator == 1 for c in coords),
                      ("integral4x", r, k))
    return res


@pytest.fixture(scope="module")
def norm_oracle_40():
    return _cases(_norm_invertibility_oracle(40))


@pytest.mark.parametrize("r_max", range(3, 41))
def test_norm_certificates_match_the_per_root_oracle(r_max, norm_oracle_40):
    # the oracle runs r upward, so its cases to r_max are a prefix of
    # those to 40
    want = [c for c in norm_oracle_40 if int(c[0].split(":")[1]) <= r_max]
    assert _cases(norm_invertibility_suite(r_max)) == want


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
