from functools import lru_cache
from itertools import product

import pytest

from reflektor import identities
from reflektor.identities import (IDENTITIES, ALL_TAGS, FOUR_MINUS_X, Ring,
                                  MAJORANT, certify, check_identity,
                                  check_all_identities, factorization_check,
                                  kronecker_bits, kronecker_ring,
                                  theta_v_check, reflection_map_check)
from reflektor.upoly import UPoly, X, u_poly, v_poly, theta

# the catalog in UPoly arithmetic: the slow path the certificate replaces
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
    # at n = 3, ||u_8||_1 + ||u_7||_1 + ||u_6||_1 = 21 + 13 + 8 = 42: six bits
    assert d["stats"] == {"kronecker_bits": 7, "majorant_bits": 6}
    # the merged report keeps the largest value of each stat
    per_tag = [check_identity(t, -3, 3).stats for t in ALL_TAGS]
    assert check_all_identities(-3, 3, "-3..3").stats == {
        key: max(stats[key] for stats in per_tag)
        for key in ("kronecker_bits", "majorant_bits")}


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


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_verdicts_match_the_upoly_ring(tag):
    # the catalog itself, and two variants that fail somewhere
    tuples = admissible(tag, -12, 12)
    build = IDENTITIES[tag][2]
    assert certify(build, tuples)[0] == upoly_failures(build, tuples) == []
    failing = []
    for variant in (negated(build), shifted(build)):
        failures = upoly_failures(variant, tuples)
        assert certify(variant, tuples)[0] == failures
        failing += failures
    assert failing


def test_kronecker_point_clears_the_majorant():
    # X - 2^k vanishes at 2^k, and its majorant 2^k + 1 has k + 1 bits, so
    # the point 2^K of the certificate needs K > k + 1
    for k in (1, 5, 64, 127):
        poly = X - UPoly([2 ** k])
        assert poly.eval(2 ** k) == 0
        bound = (MAJORANT.x - 2 ** k).v
        assert bound == 2 ** k + 1
        K = kronecker_bits(bound)
        assert K > bound.bit_length()
        assert poly.eval(2 ** K) != 0
        ring = kronecker_ring(K)
        assert ring.x - 2 ** k == poly.eval(2 ** K)


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
