from functools import lru_cache
from itertools import product

import pytest

from reflektor import identities
from reflektor.identities import (IDENTITIES, ALL_TAGS, FOUR_MINUS_X, Ring,
                                  LAURENT, certify, check_identity,
                                  check_all_identities, factorization_check,
                                  theta_v_check, reflection_map_check)
from reflektor.mpoly import MPoly
from reflektor.upoly import UPoly, X, u_poly, v_poly, theta

# the catalog in UPoly arithmetic: the oracle of the Laurent certificate
UPOLY = Ring(u_poly, X, FOUR_MINUS_X,
             lru_cache(maxsize=None)(lambda k: u_poly(k).compose(FOUR_MINUS_X)),
             UPoly())


def upoly_failures(build, tuples):
    return [idx for idx in tuples
            if any(lhs != rhs for lhs, rhs in build(UPOLY, *idx))]


def admissible(tag, lo, hi):
    arity, domain, _ = IDENTITIES[tag]
    return [idx for idx in product(range(lo, hi + 1), repeat=arity)
            if domain(idx)]


def negated(build):
    # lhs = -rhs holds only where both sides vanish
    return lambda r, *idx: [(lhs, -rhs) for lhs, rhs in build(r, *idx)]


def shifted(build):
    # lhs = rhs + u_n holds only at n = 0
    return lambda r, *idx: [(lhs, rhs + r.u(idx[0]))
                            for lhs, rhs in build(r, *idx)]


def test_catalog_is_nonempty_and_stable():
    assert len(ALL_TAGS) >= 25
    for tag in ("A1", "A2", "AR", "C5_9", "P6_15", "C8_21", "P11_31"):
        assert tag in IDENTITIES


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_each_tag_passes_small_range(tag):
    rep = check_identity(tag, -8, 8)
    assert rep.passed, rep.records
    # the detail counts the admissible index tuples
    assert int(rep.records[0][2].split()[0]) > 0


def test_unknown_tag_raises():
    with pytest.raises(KeyError):
        check_identity("nope", 0, 1)


def test_step2_recurrence_by_hand():
    # u6 - (X-2) u4 + u2 should vanish
    assert u_poly(6) - (X - UPoly([2])) * u_poly(4) + u_poly(2) == UPoly()


def test_report_shape():
    d = check_identity("A1", -3, 3, "-3..3").to_dict()
    assert d["suite_id"] == "A1"
    assert d["cases"] == [{"case_id": "A1:-3..3", "status": "pass",
                           "detail": "7 index tuples"}]
    # like terms merge as they meet, so u_{2n+2} - u_{2n+1} + u_{2n}, the
    # identity itself, sums to a numerator with no terms, like its rhs 0
    assert d["stats"] == {"laurent_terms": 0, "laurent_degree": 0}
    # the merged report keeps the largest value of each stat
    per_tag = [check_identity(t, -3, 3).stats for t in ALL_TAGS]
    assert check_all_identities(-3, 3, "-3..3").stats == {
        key: max(stats[key] for stats in per_tag)
        for key in ("laurent_terms", "laurent_degree")}


def test_tag_with_no_admissible_tuple_is_skipped():
    # C6_16 needs an odd p >= 1, C5_12 and C5_13 an even n
    for tag, lo, hi in (("C6_16", -5, 0), ("C5_12", 3, 3), ("C5_13", 3, 3)):
        d = check_identity(tag, lo, hi, "%d..%d" % (lo, hi)).to_dict()
        assert d["cases"] == [{"case_id": "%s:%d..%d" % (tag, lo, hi),
                               "status": "skipped",
                               "detail": "0 index tuples"}]
        assert "stats" not in d


def test_failing_identity_lists_its_tuples(monkeypatch):
    # u_n = 0 holds only at n = 0
    monkeypatch.setitem(IDENTITIES, "ZERO", (1, lambda idx: True,
                                             lambda r, n: [(r.u(n), r.zero)]))
    rep = check_identity("ZERO", -1, 1)
    assert rep.failures == ["ZERO"]
    assert rep.records[0][2] == "3 index tuples; failing: [(-1,), (1,)]"


def bumped(build, term=lambda r: r.x - 2 ** 16):
    # term added to the rhs on the tuples with every |index| <= 2 only;
    # the test on abs sends the builder down the one-tuple path
    return lambda r, *idx: [
        (lhs, rhs + term(r) if max(map(abs, idx)) <= 2 else rhs)
        for lhs, rhs in build(r, *idx)]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_verdicts_match_the_upoly_ring(tag):
    # the catalog itself, and three variants that fail somewhere
    tuples = admissible(tag, -12, 12)
    build = IDENTITIES[tag][2]
    assert certify(build, tuples)[0] == upoly_failures(build, tuples) == []
    failing = []
    for variant in (negated(build), shifted(build), bumped(build)):
        failures = upoly_failures(variant, tuples)
        assert certify(variant, tuples)[0] == failures
        failing += failures
    assert failing


@pytest.mark.parametrize("tag", ["A1", "P4_odd", "C6_16", "P7_18", "C10_25"])
def test_a_constant_past_int64_takes_python_ints(tag):
    tuples = admissible(tag, -6, 6)
    build = IDENTITIES[tag][2]
    big = 2 ** 70
    # on both sides the constant cancels, and the catalog still holds
    both = lambda r, *idx: [(lhs + big, rhs + big)
                            for lhs, rhs in build(r, *idx)]
    assert certify(both, tuples)[0] == []
    # on one side, at |n| <= 2, it fails exactly there
    one = bumped(build, lambda r: big)
    small = [idx for idx in tuples if max(map(abs, idx)) <= 2]
    assert certify(one, tuples)[0] == upoly_failures(one, tuples) == small


def test_zero_times_a_value_past_int64_is_zero():
    # the product's bound is 0, but Python-int coefficients stay Python ints
    r = LAURENT
    for zero in (r.zero, 0 * r.u(3)):
        zero_times = lambda r, n: [(zero * (r.x + 2 ** 70), r.zero),
                                   ((r.x + 2 ** 70) * zero, 0)]
        assert certify(zero_times, [(0,), (1,)])[0] == []


def t_poly(coeffs, shift):
    """The Laurent polynomial t^shift * (UPoly in t), as a pair."""
    return UPoly(coeffs), shift


def l_mul(p, q):
    return p[0] * q[0], p[1] + q[1]


def l_eq(p, q):
    low = min(p[1], q[1])
    return (UPoly([0] * (p[1] - low) + list(p[0].coeffs))
            == UPoly([0] * (q[1] - low) + list(q[0].coeffs)))


def at_t(f):
    """f(X) at X = (t + 1/t)^2: t^(-2d) times sum c_i Q^i t^(2(d-i)), with
    Q = t^2 X = (1 + t^2)^2, by Horner."""
    q, acc = UPoly([1, 0, 2, 0, 1]), UPoly()
    for j, c in enumerate(reversed(f.coeffs)):
        acc = acc * q + UPoly([0] * (2 * j) + [c])
    return acc, -2 * f.degree


T_MINUS, T_PLUS = t_poly([-1, 0, 1], -1), t_poly([1, 0, 1], -1)


def multiplied_out(value, f_at_t):
    """Both sides of value = f(X) multiplied out, given f at
    X = (t + 1/t)^2: the module's numerator, and f times value's
    denominator (t - 1/t)^a (t + 1/t)^b, each negative power moved to the
    other side."""
    terms = value.num.terms
    assert all(e[1:] == (0, 0, 0) for e in terms)
    low = min((e[0] for e in terms), default=0)
    coeffs = [0] * (max((e[0] for e in terms), default=0) - low + 1)
    for e, c in terms.items():
        coeffs[e[0] - low] += c
    num, lhs = t_poly(coeffs, low), f_at_t
    for factor, power in ((T_MINUS, value.a), (T_PLUS, value.b)):
        for _ in range(abs(power)):
            if power > 0:
                lhs = l_mul(lhs, factor)
            else:
                num = l_mul(num, factor)
    return num, lhs


@lru_cache(maxsize=None)
def at_t_of_u(k, reflected):
    # u_-k = -u_k, so only k >= 0 is substituted
    if k < 0:
        poly, shift = at_t_of_u(-k, reflected)
        return -poly, shift
    f = u_poly(k)
    return at_t(f.compose(FOUR_MINUS_X) if reflected else f)


def test_laurent_forms_of_the_ring():
    # X = (t + 1/t)^2, 4 - X = -(t - 1/t)^2, and the closed forms of u_k
    # and u_k(4 - X) against u_poly(k) and its composition with 4 - X
    for value, f in ((LAURENT.x, X), (LAURENT.y, FOUR_MINUS_X),
                     (LAURENT.zero, UPoly())):
        assert l_eq(*multiplied_out(value, at_t(f)))
    for k in range(-200, 201):
        assert l_eq(*multiplied_out(LAURENT.u(k), at_t_of_u(k, False))), k
        assert l_eq(*multiplied_out(LAURENT.uy(k), at_t_of_u(k, True))), k


def recording(build, seen):
    # build, noting the type of the first index of every call
    def call(r, *idx):
        seen.append(type(idx[0]))
        return build(r, *idx)
    return call


def test_a_builder_that_branches_on_abs_runs_one_tuple_at_a_time():
    tuples = admissible("P7_17", -6, 6)
    build = bumped(IDENTITIES["P7_17"][2])
    seen = []
    failures = certify(recording(build, seen), tuples)[0]
    assert failures == upoly_failures(build, tuples)
    assert failures == [idx for idx in tuples if max(map(abs, idx)) <= 2]
    # one try on each of the 16 classes mod 4, then every tuple on its own
    assert seen.count(identities._Affine) == 16
    assert seen.count(int) == len(tuples)


def test_the_catalog_to_30_is_proved_class_by_class(monkeypatch):
    seen = []
    for tag, (arity, domain, build) in list(IDENTITIES.items()):
        monkeypatch.setitem(IDENTITIES, tag,
                            (arity, domain, recording(build, seen)))
    assert check_all_identities(-30, 30, "|n|<=30").passed
    # 13 tags of arity 1 with 4 classes, 8 with 2 admissible ones, and 6
    # of arity 2 with 16; no tuple is decided on its own
    assert seen.count(identities._Affine) == 13 * 4 + 8 * 2 + 6 * 16 == 164
    assert seen.count(int) == 0


def test_the_vanishing_hook_decides_differences_only():
    tuples = [(n,) for n in range(-3, 4)]
    asked = []

    def on_tuples(num, args):
        asked.append(args)
        return isinstance(args[0], int)

    def off_by_one(r, n):
        return [(r.u(n), r.u(n) + 1)]

    # each of the 4 classes is asked and fails, then each of its tuples
    assert certify(off_by_one, tuples, on_tuples)[0] == []
    kinds = [type(args[0]) for args in asked]
    assert kinds.count(identities._Affine) == 4 and kinds.count(int) == 7
    assert certify(off_by_one, tuples)[0] == tuples
    # equal numerators never reach the hook
    asked.clear()
    assert certify(IDENTITIES["A1"][2], tuples, on_tuples)[0] == []
    assert asked == []


def test_c6_16_is_proved_for_negative_odd_p_by_its_classes():
    # its domain, odd p >= 1, cuts the classes 1 and 3 mod 4 by a sign; the
    # proof of each class covers odd p <= -1 too, with no tuple on its own
    build = IDENTITIES["C6_16"][2]
    tuples = [(-p,) for p in range(1, 32, 2)]
    seen = []
    assert certify(recording(build, seen), tuples)[0] == []
    assert seen == [identities._Affine] * 2
    assert upoly_failures(build, tuples) == []


def test_index_batches_refuse_to_branch():
    # n = 3 + 4 q as a class index: t^n = t^3 T^4
    n = identities._Affine((3, 4))
    assert n % 4 == 3 and (n - 1) // 2 % 2 == 1 and (-1) ** n == -1
    assert (2 * n + 1).v == (7, 8) and (1 - n).v == (-2, -4)
    assert (n // 4).v == (0, 1) and (-n).v == (-3, -4)
    for branch in (lambda: n % 8, lambda: n // 4 % 2, lambda: n >= 1,
                   lambda: n == 3, lambda: bool(n), lambda: abs(n),
                   lambda: 2 ** n, lambda: (-1) ** (n // 4),
                   lambda: n * n, lambda: max(n, n),
                   lambda: LAURENT.u(3) * n):
        with pytest.raises(TypeError):
            branch()


def c6_16_unsigned(r, p):
    return [(r.u(2*p), r.u(p) * r.uy(p))]


# planted errors: (tag whose domain they take, builder, the residues mod 4
# of the classes where each fails)
PLANTS = {
    "C5_10 with +1 for -1": ("C5_10", lambda r, n: [
        (r.u(2*n), r.u(n+1) * (r.u(n) - r.u(n-2)) + 1)],
        {(0,), (1,), (2,), (3,)}),
    "AR with step 1": ("AR", lambda r, n: [
        (r.u(n+2) - (r.x - 2)*r.u(n+1) + r.u(n), r.zero)],
        {(0,), (1,), (2,), (3,)}),
    "C6_16 without its sign": ("C6_16", c6_16_unsigned, {(3,)}),
}


def class_fails(build, residues):
    return identities._unequal(
        build(LAURENT, *identities._class_of(residues)))[0]


@pytest.mark.parametrize("plant", PLANTS)
def test_planted_errors_fail_in_exactly_their_classes(plant):
    tag, build, failing = PLANTS[plant]
    tuples = admissible(tag, -12, 12)
    classes = {tuple(i % 4 for i in idx) for idx in tuples}
    assert {r for r in classes if class_fails(build, r)} == failing
    failures = certify(build, tuples)[0]
    assert failures == upoly_failures(build, tuples)
    assert {tuple(i % 4 for i in idx) for idx in failures} == failing


def test_terms_that_differ_only_in_T_are_unlike():
    # t^0 T - t^0 / T: the two terms share the exponent of t
    diff = identities._Laurent(MPoly({(0, 1, 0, 0): 1, (0, -1, 0, 0): -1}),
                               0, 0)
    assert identities._unequal([(diff, 0)])[0]
    assert not identities._unequal([(diff, diff)])[0]


def sympy_ring():
    """The closed forms of the module docstring as sympy rational
    functions in t, T1 and T2, on class indices."""
    sympy = pytest.importorskip("sympy")
    t, *T = sympy.symbols("t T1 T2")

    def power(k):
        c, *b = k.v
        return t ** c * sympy.Mul(*(Ti ** bi for Ti, bi in zip(T, b)))

    def u(k):
        a = power(k) - 1 / power(k)
        return a / (t - 1 / t) if k % 2 else a / (t ** 2 - t ** -2)

    def uy(k):
        odd = k % 2
        s = 1 - 2 * ((k - odd) // 2 % 2)
        if odd:
            return s * (power(k) + 1 / power(k)) / (t + 1 / t)
        return -s * (power(k) - 1 / power(k)) / (t ** 2 - t ** -2)

    x = (t + 1 / t) ** 2
    return sympy, Ring(u, x, 4 - x, uy, sympy.Integer(0))


@pytest.mark.parametrize("name", ["A1", "C6_16", "P4_odd", "P7_18",
                                  "C10_26"] + list(PLANTS))
def test_class_verdicts_match_sympy(name):
    # every class mod 4, admissible or not, and the failing admissible
    # ones are those named
    sympy, ring = sympy_ring()
    tag, build, failing = (PLANTS[name] if name in PLANTS
                           else (name, IDENTITIES[name][2], set()))
    holds = {}
    for residues in product(range(4), repeat=IDENTITIES[tag][0]):
        pairs = build(ring, *identities._class_of(residues))
        holds[residues] = all(sympy.cancel(lhs - rhs) == 0
                              for lhs, rhs in pairs)
        assert class_fails(build, residues) == (not holds[residues])
    classes = {tuple(i % 4 for i in idx) for idx in admissible(tag, -4, 4)}
    assert {r for r in classes if not holds[r]} == failing


def test_like_terms_are_summed_within_one_tuple_only():
    # n + n used as a value sends each tuple down its own path, where it is
    # two terms at t^0; tuples -1 and 1 sum to -2 and 2, not to 0 together
    assert certify(lambda r, n: [(n + n, r.zero)], [(-1,), (1,)])[0] == [
        (-1,), (1,)]


def test_sums_of_terms_near_2_to_61_do_not_wrap():
    # lhs - rhs is 8 b - 8 = 2^64 at t^0: each term fits int64, and the
    # sum would wrap to 0 there; the bound 8 b + 8 sends it to Python ints
    b = 2 ** 61 + 1

    def build(r, n):
        return [(r.zero + b + b + b + b, r.zero - b - b - b - b + 8)]

    tuples = [(n,) for n in range(-3, 4)]
    assert certify(build, tuples)[0] == upoly_failures(build, tuples) == \
        tuples


def test_indices_past_2_to_32_are_refused():
    with pytest.raises(ValueError):
        certify(IDENTITIES["A1"][2], [(2 ** 32,)])


def test_a_builder_of_arity_4_is_refused():
    # an MPoly exponent has room for t and three class indices: a fourth
    # would be cut off, so u of a sum of four class indices raises
    def build(r, n, m, p, q):
        return [(r.u(n + m + p + q), r.u(n + m + p + q))]

    with pytest.raises(ValueError):
        certify(build, [(1, 2, 3, 4)])
    assert certify(lambda r, n, m, p: [(r.u(n + m + p), r.u(p + m + n))],
                   [(1, 2, 3), (-1, 0, 5)])[0] == []


def test_check_all_returns_one_report_per_tag():
    res = check_all_identities(-2, 2, "-2..2")
    assert res.name == "identities"
    assert [r[0] for r in res.records] == ["%s:-2..2" % t for t in ALL_TAGS]


def test_factorization_small():
    rep = factorization_check(60)
    assert rep.passed, rep.failures


def test_theta_v_small():
    rep = theta_v_check(120)
    assert rep.passed, rep.failures


def test_theta_v_constant_terms_match_the_built_factors(monkeypatch):
    # the Moebius product of constant terms against v_n built by division
    monkeypatch.setattr(identities, "prime_power_class",
                        lambda n: theta(v_poly(n)))
    rep = theta_v_check(200)
    assert rep.passed, rep.records


def test_theta_v_lists_an_n_whose_class_is_wrong(monkeypatch):
    right = identities.prime_power_class
    monkeypatch.setattr(identities, "prime_power_class",
                        lambda n: right(n) + (n == 54))
    rep = theta_v_check(60)
    assert rep.failures == ["theta_v"]
    assert rep.records[0][2] == "60 index tuples; failing: [54]"


def test_reflection_map_small():
    rep = reflection_map_check(40)
    assert rep.passed, rep.failures


def test_reflection_map_concrete():
    # v_3 = X - 1 maps to 4 - X - 1 = 3 - X, i.e. -(X - 3) = -v_6
    assert v_poly(3).compose(FOUR_MINUS_X) == -v_poly(6)
