import hashlib
from math import gcd

import pytest

from reflektor.cyclo import field_ctx, named_constant, root_of_v
from reflektor.reflrep import (DiagramSpec, ReflectionRep, build_generators,
                               preset, preset_names, rank3_rep,
                               circuit_rep, affine_circuit_rep, gnn3_rep)
from reflektor.engine import element_order
from reflektor.matrices import pair_C
from reflektor.suites import _GROUPS, run_suite


def test_preset_catalog_loads():
    names = preset_names()
    assert "h3_coxeter" in names
    assert "g24_334" in names
    assert "g27_a" in names
    for name in names:
        assert preset(name).rank in (3, 4)


def test_preset_catalog_digest():
    # the generators of every fixed preset, exactly; a changed weight or a
    # changed field in the table changes the digest
    cat = [(name, rep.rank, rep.ctx.N,
            [[(x.den, x.vec) for x in row]
             for g in rep.gens for row in g.rows])
           for name in preset_names() for rep in [preset(name)]]
    assert hashlib.sha256(repr(cat).encode()).hexdigest() == (
        "2b3ecc85e647f600b5df9fe0512bdcfb6f82329e0ece364aa0202cf77782eff8")


def test_family_preset_digest():
    # the generators of the parameterized families, exactly, over a range of
    # each: the circuit builders and gnn3 must keep every entry and field
    names = (["gppn:%d:%d" % (p, n) for p in range(2, 8) for n in range(3, 6)]
             + ["atilde:%d" % n for n in range(3, 7)]
             + ["gnn3:%d:%d" % (n, k) for n in range(2, 9)
                for k in range(1, n) if gcd(k, n) == 1])
    assert len(names) == 43
    cat = [(name, rep.rank, rep.ctx.N,
            [[(x.den, x.vec) for x in row]
             for g in rep.gens for row in g.rows])
           for name in names for rep in [preset(name)]]
    assert hashlib.sha256(repr(cat).encode()).hexdigest() == (
        "89e9b51e81d59c733ce1e289a2b36b08766da02ee770cd93f18485abf653522a")


def test_named_group_case_order_digest():
    # every case id and status of the five suites that read the named-group
    # table, in order, under the quick profile (the full-profile case check
    # runs elsewhere); and every row of the table is read by some case
    cases = []
    for sid in ("s3_cor9", "s3_h3", "s3_h4", "s4_g24", "s4_g27"):
        cases += [(sid, cid, status)
                  for cid, status, _ in run_suite(sid, "quick").records]
    assert len(cases) == 136
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == (
        "8a201c5f3259f91ac7279489e1218bbb257f47318dd4c44f55fb3d2be043a4aa")
    read = {cid.split(":")[0] for _, cid, _ in cases}
    for name in _GROUPS:
        assert name in preset_names() and name in read


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset("no_such_thing")


def test_generators_are_reflections():
    rep = preset("h3_coxeter")
    for s in rep.gens:
        assert (s * s).is_identity()
        # det = (-1)^n times the constant term of the char poly
        assert s.char_poly().constant() == (-1) ** (rep.rank + 1)
        assert s.trace() == rep.rank - 2


def test_rank2_build_example():
    # two generators joined by a plain edge: s1 s2 has order 3
    ctx = field_ctx(1)
    spec = DiagramSpec(2, {(1, 2): (1, 1)})
    s1, s2 = build_generators(spec, ctx.one(), ctx.zero())
    assert element_order(s1 * s2) == 3


def test_edge_constants_layout():
    rep = rank3_rep("t", 2, 3, 5, 7, 1)
    a, b, l, m = rep.edge_constants()
    assert (a, b, l, m) == (2, 3, 5, 7)


def test_delta_and_theta_pair_agree():
    rep = preset("h3_coxeter")
    th, thp = rep.theta_pair()
    assert thp - th == rep.delta()


def test_pair_C_rejects_non_reflection():
    rep = preset("h3_coxeter")
    prod = rep.gens[0] * rep.gens[1]
    with pytest.raises(ValueError):
        pair_C(prod, rep.gens[2])


def test_pair_C_order_reads_off_v_root():
    rep = rank3_rep("t", root_of_v(5, 1), 1, 0, 0, 5)
    c, order = rep.pair_C_order(rep.gens[0], rep.gens[1])
    assert order == 5
    c, order = rep.pair_C_order(rep.gens[1], rep.gens[2])
    assert order == 2


def test_word_is_left_to_right_product():
    rep = preset("h3_coxeter")
    assert rep.word([1, 2]) == rep.gens[0] * rep.gens[1]
    assert rep.word([2, 1, 3]) == rep.gens[1] * rep.gens[0] * rep.gens[2]


def test_s0_is_a_reflection_in_circuit():
    rep = circuit_rep(3, 4)
    s0 = rep.word(rep.s0_word())
    assert (s0 * s0).is_identity()
    assert s0.trace() == rep.rank - 2


def test_parameterized_names():
    assert circuit_rep(3, 3).name == "gppn:3:3"
    assert affine_circuit_rep(3).name == "atilde:3"
    assert gnn3_rep(4, 1).name == "gnn3:4:1"
    assert preset("gppn:3:3").name == "gppn:3:3"


def test_gnn3_needs_coprime_k():
    with pytest.raises(ValueError):
        gnn3_rep(6, 2)


def test_h3_delta_value():
    tau = named_constant("tau", 5)
    assert preset("h3_coxeter").delta() == 2 * (3 - tau)
