from math import gcd

import pytest

from reflektor.engine import (closure, closure_keys, element_order,
                              scalar_power_check, is_unipotent,
                              check_relation, conjugate, center_order,
                              monomial_group_order)
from reflektor.reflrep import (preset, rank3_rep, circuit_rep,
                               affine_circuit_rep)


def test_closure_of_symmetric_group_rep():
    rep = circuit_rep(2, 3)  # W(D3) = S4
    res = closure(rep.gens)
    assert res.order == 24
    assert not res.cap_exceeded


def test_closure_cap():
    rep = affine_circuit_rep(3)
    res = closure(rep.gens, cap=500)
    assert res.cap_exceeded


def test_closure_keys_generator_order_invariance():
    rep = circuit_rep(3, 3)
    keys1 = closure_keys(rep.gens)
    keys2 = closure_keys(list(reversed(rep.gens)))
    assert keys1 == keys2


def test_element_order():
    rep = preset("h3_coxeter")
    assert element_order(rep.gens[0]) == 2
    assert element_order(rep.word([1, 2])) == 3
    assert element_order(rep.word([1, 3])) == 5
    assert element_order(rep.word([1, 2, 3])) == 10


def test_element_order_cap():
    rep = affine_circuit_rep(3)
    s0 = rep.word(rep.s0_word())
    assert element_order(s0 * rep.gens[2], cap=50) is None


def test_scalar_power_check():
    rep = preset("h3_coxeter")
    t = rep.word([1, 2, 3])
    assert scalar_power_check(t, 5) == -1
    assert scalar_power_check(t, 2) is None  # t^2 is not scalar


def test_is_unipotent():
    rep = affine_circuit_rep(3)
    s0 = rep.word(rep.s0_word())
    prod = s0 * rep.gens[2]
    assert is_unipotent(prod)
    assert not prod.is_identity()
    assert not is_unipotent(rep.gens[0])


def test_check_relation_two_sided():
    rep = preset("gnn3:4:1")
    assert check_relation(rep.gens, [1, 2, 3], 2,
                          rhs_word=[2, 3, 1], rhs_exponent=2)
    assert check_relation(rep.gens, [1, 2, 3], 8)
    assert not check_relation(rep.gens, [1, 2, 3], 7)


def test_conjugate_convention():
    rep = preset("h3_coxeter")
    got = conjugate(rep.gens, 2, [1])
    assert got == rep.gens[0] * rep.gens[1] * rep.gens[0]


def test_center_order():
    for name, center in [("h3_coxeter", 2), ("g24_334", 2), ("g27_a", 6)]:
        rep = preset(name)
        res = closure(rep.gens)
        assert center_order(res, rep.gens) == center, name


def test_center_needs_stored_elements():
    rep = circuit_rep(2, 3)
    res = closure(rep.gens, store_elements=False)
    with pytest.raises(ValueError, match="without element storage"):
        center_order(res, rep.gens)


def test_center_of_capped_closure_names_the_cap():
    rep = preset("h3_coxeter")
    res = closure(rep.gens, cap=10)
    assert res.cap_exceeded
    with pytest.raises(ValueError, match="stopped at its cap"):
        center_order(res, rep.gens)


def test_monomial_group_order():
    assert monomial_group_order(2, 3) == 24
    assert monomial_group_order(3, 3) == 54
    assert monomial_group_order(4, 3) == 96
    assert monomial_group_order(2, 4) == 192
    assert monomial_group_order(3, 4) == 648


MONOMIAL_CASES = [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("p,n", MONOMIAL_CASES)
def test_gppn_closure_matches_monomial_model(p, n):
    # the closure kernel against the independent monomial enumeration, and
    # the center of G(p,p,n) against its closed form gcd(p, n)
    rep = preset("gppn:%d:%d" % (p, n))
    res = closure(rep.gens)
    assert res.order == monomial_group_order(p, n)
    assert center_order(res, rep.gens) == gcd(p, n)
