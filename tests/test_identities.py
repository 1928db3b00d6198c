import pytest

from reflektor.identities import (IDENTITIES, ALL_TAGS, check_identity,
                                  check_all_identities, factorization_check,
                                  theta_v_check, reflection_map_check)
from reflektor.upoly import u_poly, v_poly


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
    from reflektor.upoly import UPoly, X
    assert u_poly(6) - (X - UPoly([2])) * u_poly(4) + u_poly(2) == UPoly()


def test_report_shape():
    d = check_identity("A1", -3, 3, "-3..3").to_dict()
    assert d["suite_id"] == "A1"
    assert d["cases"] == [{"case_id": "A1:-3..3", "status": "pass",
                           "detail": "7 index tuples"}]


def test_failing_identity_lists_its_tuples(monkeypatch):
    # u_n = 0 holds only at n = 0
    zero = u_poly(0)
    monkeypatch.setitem(IDENTITIES, "ZERO", (1, lambda idx: True,
                                             lambda n: [(u_poly(n), zero)]))
    rep = check_identity("ZERO", -1, 1)
    assert rep.failures == ["ZERO"]
    assert rep.records[0][2] == "3 index tuples; failing: [(-1,), (1,)]"


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


def test_reflection_map_small():
    rep = reflection_map_check(40)
    assert rep.passed, rep.failures


def test_reflection_map_concrete():
    # v_3 = X - 1 maps to 4 - X - 1 = 3 - X, i.e. -(X - 3) = -v_6
    from reflektor.identities import FOUR_MINUS_X
    assert v_poly(3).compose(FOUR_MINUS_X) == -v_poly(6)
