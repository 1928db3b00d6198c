import hashlib
from fractions import Fraction
from itertools import permutations

import pytest

from reflektor.matrices import pair_C
from reflektor.mpoly import MPoly, ALPHA, BETA, L, M, GAMMA, prem
from reflektor.reflrep import DiagramSpec, build_generators
from reflektor import sympoly


def test_mpoly_basic_ring_ops():
    one = MPoly.const(1)
    assert ALPHA + BETA == BETA + ALPHA
    assert (ALPHA + one) * (ALPHA - one) == ALPHA * ALPHA - one
    assert GAMMA == L * M
    assert (ALPHA * 0).is_zero()


def test_mpoly_refuses_rationals():
    # MPoly is a ring over Z: it mixes with ints only
    for make in (lambda: ALPHA * Fraction(1, 2),
                 lambda: Fraction(1, 2) * ALPHA,
                 lambda: ALPHA + Fraction(1, 2)):
        with pytest.raises(TypeError):
            make()
    assert ALPHA * 2 - ALPHA == ALPHA


def test_prem_divisibility():
    f = (L + M + GAMMA) * (ALPHA * M + BETA)
    assert prem(f, L + M + GAMMA, 3).is_zero()
    assert not prem(f + MPoly.const(1), L + M + GAMMA, 3).is_zero()


def test_theta_invariants():
    # theta' - theta is the degeneracy invariant, theta + theta' = al - bm
    delta = 8 - 2 * ALPHA - 2 * BETA - 2 * GAMMA - (ALPHA * L + BETA * M)
    assert sympoly.THETA_P - sympoly.THETA == delta
    assert sympoly.THETA + sympoly.THETA_P == ALPHA * L - BETA * M


def test_generators_are_involutions():
    for s in sympoly.GENS:
        assert (s * s).is_identity()


def test_s1s2_top_left_entry():
    s1, s2, s3 = sympoly.GENS
    p = s1 * s2
    assert p.rows[0][0] == ALPHA - MPoly.const(1)


def test_pair_C_values():
    s1, s2, s3 = sympoly.GENS
    assert pair_C(s1, s2) == ALPHA
    assert pair_C(s2, s3) == GAMMA
    assert pair_C(s1, s1) == MPoly.const(4)
    # conjugating s3 by s1 moves the pairing to (alpha+m)(beta+l)
    c = pair_C(s2, s1 * s3 * s1)
    assert c == (ALPHA + M) * (BETA + L)


def test_power_formulas_small():
    res = sympoly.verify_power_formulas(3)
    assert res.passed, res.failures[:5]


def test_reflection_formulas_small():
    res = sympoly.verify_reflection_formulas(3)
    assert res.passed, res.failures[:5]


def test_C_catalog_small():
    assert sympoly.verify_C_generic(3).passed
    assert sympoly.verify_C_conjugates().passed


@pytest.mark.parametrize("weights", [(2, 3, 5, -7, 11, -13),
                                     (-3, 4, 6, 5, -2, 9)])
def test_section2_at_generic_weights(monkeypatch, weights):
    # GENS has k_21 = k_31 = 1; six distinct weights, none +-1, exercise
    # every k_ab of every closed form
    k12, k21, k13, k31, k23, k32 = (MPoly.const(w) for w in weights)
    spec = DiagramSpec(3, {(1, 2): (k12, k21), (1, 3): (k13, k31),
                           (2, 3): (k23, k32)})
    gens = build_generators(spec, sympoly.ONE, sympoly.ZERO)
    monkeypatch.setattr(sympoly, "GENS", gens)
    for res in (sympoly.verify_power_formulas(3),
                sympoly.verify_reflection_formulas(3),
                sympoly.verify_C_generic(3), sympoly.verify_C_conjugates()):
        assert res.passed, (res.name, res.failures[:5])
    # the product of C(s_i, s_j^w) is _reflection's product form on the
    # edge (j, k, i): s_j (s_j s_k)^2 = s_j^(s_k), s_j (s_j s_k)^-2 =
    # s_j^(s_k s_j)
    k = sympoly._k
    for i, j, m in permutations(range(3)):
        edge = (j, m, i)
        seq = sympoly._edge_seq(edge, 0)
        for n, u in ((2, sympoly.ONE), (-2, k(j, m) * k(m, j) - 1)):
            _, v, c = sympoly._reflection(edge, n, seq)
            assert sympoly._conjugate_C(i, j, m, u) == \
                (k(i, j) * v[j] + k(i, m) * v[m]) * c


def test_half_turn_collapses():
    assert sympoly.verify_half_turns().passed
    assert sympoly.verify_half_turn_pairs().passed


def test_charpoly_catalog_small():
    res = sympoly.verify_charpoly_catalog(3)
    assert res.passed, res.failures[:5]
    assert sympoly.verify_charpoly_even_order().passed


def test_section2_case_order_digest():
    # every Section-2 case id and status, in order; the full-profile case
    # count compares multisets, so only this pins the order
    res = sympoly.run_symbolic_suites(3)
    cases = [(cid, status) for cid, status, _ in res.records]
    assert len(cases) == 394
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == (
        "b1d68183a74186dbccbea7544635439de88a3f816e7272175953ae8fc406a0b1")
