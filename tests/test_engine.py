import hashlib
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflektor import engine
from reflektor.cyclo import field_ctx
from reflektor.engine import (closure, element_order,
                              scalar_power_check, is_unipotent,
                              check_relation, center_order,
                              monomial_group_order, regular_rep)
from reflektor.matrices import SquareMat
from reflektor.reflrep import (preset, preset_names, rank3_rep,
                               circuit_rep, affine_circuit_rep)
from reflektor.suites import _GROUPS


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
    def keys(gens):
        res = closure(gens)
        return {(int(d), a.tobytes()) for a, d in zip(res.elements, res.dens)}
    rep = circuit_rep(3, 3)
    assert keys(rep.gens) == keys(list(reversed(rep.gens)))


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


def _closure_record(h, name, res):
    h.update(repr((name, res.order, res.cap_exceeded,
                   sorted(res.stats.items()))).encode())
    if res.elements is not None:
        h.update(res.elements.tobytes())
        h.update(res.dens.tobytes())


def test_closure_digest():
    # order, cap flag, stats and the stored first-column forms of finite
    # closures, capped growth at cap 4000, and atilde:3 at the default
    # cap; any change to the BFS order, the keys or the stats changes it
    h = hashlib.sha256()
    finite = ([name for name in preset_names() if name != "cor9_g2t"]
              + ["gppn:%d:%d" % (p, n) for p in range(2, 6) for n in (3, 4)]
              + ["gppn:2:6"]
              + ["gnn3:%d:%d" % (n, k) for n in range(2, 9)
                 for k in range(1, n) if gcd(n, k) == 1])
    for name in finite:
        res = closure(preset(name).gens)
        assert not res.cap_exceeded, name
        _closure_record(h, name, res)
    for w in (2, 9, 16, 20, 40):
        rep = rank3_rep("grow:%d" % w, w, w, w, w, 1)
        _closure_record(h, rep.name, closure(rep.gens, cap=4000))
    for name in ["atilde:%d" % n for n in range(3, 7)] + ["cor9_g2t"]:
        _closure_record(h, name, closure(preset(name).gens, cap=4000))
    res = closure(preset("atilde:3").gens, store_elements=False)
    assert res.cap_exceeded
    _closure_record(h, "atilde:3", res)
    assert h.hexdigest() == (
        "acb5d9ce3a1c2bf14d7226a634ea84ccfdb33f5cd8ea3b47490d7846cc753bb5")


# -- the base-image BFS: descent marks, key widths, the bytes path ------

def _diag(ctx, z):
    """diag(z, 1) over ctx."""
    return SquareMat([[z, ctx.zero()], [ctx.zero(), ctx.one()]],
                     ctx.one(), ctx.zero())


def _cyclic_10():
    """diag(zeta_5, 1) and diag(-1, 1): not all involutions, abelian."""
    ctx = field_ctx(5)
    return [_diag(ctx, ctx.zeta()), _diag(ctx, -ctx.one())]


def _with_fixed_block(gens, k):
    """Each generator g as g (+) I_k: a reducible representation."""
    one, zero, n = gens[0].one, gens[0].zero, gens[0].n
    ident = [[one if i == j else zero for j in range(n + k)]
             for i in range(n, n + k)]
    return [SquareMat([list(row) + [zero] * k for row in g.rows] + ident,
                      one, zero) for g in gens]


def _outcome(gens, cap):
    try:
        res = closure(gens, cap=cap)
    except OverflowError:
        return "overflow"
    stored = None
    if res.elements is not None:
        stored = (res.elements.tobytes(), res.dens.tobytes())
    return res.order, res.cap_exceeded, res.stats, stored


# (gens, cap): den 2, a non-involution, ids that outgrow one int64 key in
# mid-closure (11 coordinates: 5 bits an id, 32 ids, and 68 points), and
# capped growth on each side of the switch to bytes keys
PATH_CASES = {
    "g24_444": (lambda: preset("g24_444").gens, 10 ** 6),
    "gppn:3:3": (lambda: preset("gppn:3:3").gens, 10 ** 6),
    "cyclic_10": (_cyclic_10, 10 ** 6),
    "h3+I8": (lambda: _with_fixed_block(preset("h3_coxeter").gens, 8),
              10 ** 6),
    "rank3:9": (lambda: rank3_rep("g", 9, 9, 9, 9, 1).gens, 4000),
    "rank3:40": (lambda: rank3_rep("g", 40, 40, 40, 40, 1).gens, 4000),
    "rank3:40 uncapped": (lambda: rank3_rep("g", 40, 40, 40, 40, 1).gens,
                          10 ** 6),
    "atilde:4": (lambda: preset("atilde:4").gens, 4000),
}


@pytest.mark.parametrize("name", sorted(PATH_CASES))
def test_closure_paths_agree(name, monkeypatch):
    # base images throughout, bytes keys from the first layer, and the
    # default selection give the same orders, stats and stored forms
    build, cap = PATH_CASES[name]
    gens = build()
    want = _outcome(gens, cap)
    for after, ratio in [(0, 0), (10 ** 9, 0)]:
        monkeypatch.setattr(engine, "_BYTES_AFTER", after)
        monkeypatch.setattr(engine, "_BYTES_RATIO", ratio)
        assert _outcome(gens, cap) == want, (after, ratio)


def _growth_cases():
    cases = {"grow:%d" % w: (lambda w=w: rank3_rep("grow:%d" % w, w, w, w, w,
                                                   1).gens, 4000)
             for w in (2, 9, 16, 20, 40)}
    for name in ["atilde:%d" % n for n in range(3, 7)] + ["cor9_g2t"]:
        cases[name] = (lambda name=name: preset(name).gens, 4000)
    return cases


# every _GROUPS row, the families, capped growth, and PATH_CASES
DESCENT_CASES = {
    **{name: (lambda name=name: preset(name).gens, 10 ** 6)
       for name in sorted(_GROUPS)
       + ["gppn:%d:%d" % (p, n) for p in range(2, 6) for n in (3, 4)]
       + ["gppn:2:6"]
       + ["gnn3:%d:%d" % (n, k) for n in range(2, 9) for k in range(1, n)
          if gcd(n, k) == 1]},
    **_growth_cases(),
    **PATH_CASES,
}


def _all_layers(m):
    """Take the det -1 certificate away, so every closure runs the search
    against all earlier layers."""
    m.setattr(engine, "_det_minus_one", lambda reps, d: False)


@pytest.mark.parametrize("name", sorted(DESCENT_CASES))
def test_descent_marks_match_the_all_layers_search(name, monkeypatch):
    # products whose generator marked the element are skipped and the rest
    # searched nowhere; the search against every earlier layer must find
    # the same elements in the same order, with the cap cut alike
    build, cap = DESCENT_CASES[name]
    gens = build()
    settings = [(engine._BYTES_AFTER, engine._BYTES_RATIO)]
    if name in PATH_CASES:
        settings += [(0, 0), (10 ** 9, 0)]
    for after, ratio in settings:
        monkeypatch.setattr(engine, "_BYTES_AFTER", after)
        monkeypatch.setattr(engine, "_BYTES_RATIO", ratio)
        want = _outcome(gens, cap)
        with monkeypatch.context() as m:
            _all_layers(m)
            assert _outcome(gens, cap) == want, (after, ratio)


def _path_taken(gens, monkeypatch, cap=1000):
    """(order, whether the closure took the descent marks)."""
    said = []
    real = engine._det_minus_one
    monkeypatch.setattr(engine, "_det_minus_one",
                        lambda reps, d: said.append(real(reps, d)) or said[-1])
    res = closure(gens, cap=cap)
    assert not res.cap_exceeded
    return res.order, said == [True]


def _over_q(*diagonals):
    ctx = field_ctx(1)
    return [SquareMat([[ctx.from_fraction(x) if i == j else ctx.zero()
                        for j in range(len(diag))]
                       for i, x in enumerate(diag)], ctx.one(), ctx.zero())
            for diag in diagonals]


def _h3_with(extra):
    gens = preset("h3_coxeter").gens
    return gens + [extra(gens)]


def _minus_identity(gens):
    g = gens[0]
    return SquareMat([[-x for x in row] for row in
                      SquareMat.identity(g.n, g.one, g.zero).rows],
                     g.one, g.zero)


# (generators, order, descent path): a det +1 involution, the identity
# beside a reflection, the identity alone; -I_3 (det -1 in odd rank) and
# a repeated generator keep the marks
GENERATOR_SETS = {
    "diag(-1,1), diag(-1,-1)": (lambda: _over_q((-1, 1), (-1, -1)), 4,
                                False),
    "diag(-1,1), I": (lambda: _over_q((-1, 1), (1, 1)), 2, False),
    "I": (lambda: _over_q((1, 1)), 1, False),
    "h3 + -I": (lambda: _h3_with(_minus_identity), 120, True),
    "h3 + s1": (lambda: _h3_with(lambda g: g[0]), 120, True),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_generator_sets_that_skip_the_marks(name, monkeypatch):
    build, order, descent = GENERATOR_SETS[name]
    assert _path_taken(build(), monkeypatch) == (order, descent)


def test_wide_keys_are_used_in_mid_closure():
    gens = _with_fixed_block(preset("h3_coxeter").gens, 8)
    seen = []
    real = engine._pack
    try:
        engine._pack = lambda ids, points: seen.append(points) \
            or real(ids, points)
        assert closure(gens).order == 120
    finally:
        engine._pack = real
    assert min(seen) <= 32 < max(seen)


def test_pack_keys_are_equal_exactly_for_equal_rows():
    rng = np.random.default_rng(5)
    for n, points in [(3, 1 << 21), (4, 1 << 15), (4, (1 << 15) + 1),
                      (11, 40)]:
        ids = rng.integers(0, min(points, 6), size=(300, n))
        keys = engine._pack(ids, points)
        assert keys.dtype == (np.int64 if points <= 1 << 63 // n
                              else np.dtype((np.void, 8 * n)))
        rows = [tuple(r) for r in ids.tolist()]
        for i in range(0, 300, 7):
            for j in range(0, 300, 11):
                assert (keys[i] == keys[j]) == (rows[i] == rows[j])


def test_growth_selects_the_bytes_path_by_points_per_element(monkeypatch):
    calls = []
    real = engine._grow_bytes
    monkeypatch.setattr(engine, "_grow_bytes",
                        lambda *a: calls.append(1) or real(*a))
    rep = rank3_rep("g", 9, 9, 9, 9, 1)
    assert closure(rep.gens, cap=4000).cap_exceeded
    assert calls == [1]
    calls.clear()
    assert closure(preset("atilde:3").gens, cap=4000).cap_exceeded
    # g27_d has the most points an element of the finite presets: 2.7
    # at 64 elements, 1.7 at 256
    for name, order in [("h4_1", 14400), ("g27_d", 2160)]:
        assert closure(preset(name).gens).order == order
    assert calls == []


def test_keys_are_the_int64_rows():
    batch = np.array([[[3], [-1]], [[1 << 40], [5]]], dtype=np.int64)
    keys = engine._keys(batch, np.array([1, 2], dtype=np.int64))
    assert keys == [np.array(r, dtype=np.int64).tobytes()
                    for r in ([1, 3, -1], [2, 1 << 40, 5])]


def test_abelian_closure_without_the_window():
    # every element is central; the commutant holds every diagonal
    # matrix, so the certificate shows nothing and the filter runs
    gens = _cyclic_10()
    ctx = gens[0].rows[0][0].ctx
    assert not engine._is_involution(regular_rep(gens[0].rows, ctx))
    res = closure(gens)
    assert res.order == 10
    assert engine._commutant_is_scalar(gens, ctx) is None
    assert center_order(res, gens) == 10


# -- the point table ---------------------------------------------------

@pytest.mark.parametrize("name, points", [("h4_1", 240), ("g27_d", 810),
                                          ("gppn:2:6", 60),
                                          ("gppn:3:3", 54)])
def test_point_count(name, points):
    gens = preset(name).gens
    res = closure(gens)
    assert res.points == points == len(res.table[1])
    # an unstored closure keeps the count, not the table
    bare = closure(gens, store_elements=False)
    assert (bare.points, bare.rows, bare.table) == (points, None, None)


def test_point_count_at_the_switch_to_bytes_keys(monkeypatch):
    # rank-3 growth at weight 9 moves to bytes keys with 1146 points
    calls = []
    real = engine._grow_bytes
    monkeypatch.setattr(engine, "_grow_bytes",
                        lambda *a: calls.append(1) or real(*a))
    res = closure(rank3_rep("g", 9, 9, 9, 9, 1).gens, cap=4000)
    assert res.cap_exceeded and res.points == 1146 and calls == [1]
    # sent there from the first layer, h3 switches with the 3 points of
    # the identity; its stored rows then index all 60 points
    monkeypatch.setattr(engine, "_BYTES_AFTER", 0)
    monkeypatch.setattr(engine, "_BYTES_RATIO", 0)
    res = closure(preset("h3_coxeter").gens)
    assert (res.order, res.points, len(res.table[1])) == (120, 3, 60)


# -- mixed conductors ---------------------------------------------------

@pytest.mark.parametrize("a, b", [(5, 8), (8, 5), (3, 5)])
def test_mixed_conductors_raise(a, b):
    # Q(zeta_5) and Q(zeta_8) have the same degree, Q(zeta_3) a smaller
    # one; read in the first generator's field, the second was silently
    # wrong (order 5 or 8 for a group of order 40) or an IndexError
    gens = [_diag(field_ctx(a), field_ctx(a).zeta()),
            _diag(field_ctx(b), field_ctx(b).zeta())]
    msg = "mixed conductors %d and %d; lift first" % (a, b)
    with pytest.raises(ValueError, match=msg):
        closure(gens)
    res = closure(gens[:1])
    with pytest.raises(ValueError, match=msg):
        center_order(res, gens)
    big = field_ctx(a * b // gcd(a, b))
    lifted = [_diag(big, g.rows[0][0].lift(big)) for g in gens]
    assert closure(lifted).order == a * b // gcd(a, b)


# -- the center: a mod-p certificate, else the filter ---------------------

def _filtered_center(res, gens, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(engine, "_commutant_is_scalar", lambda gens, ctx: None)
        return center_order(res, gens)


CENTER_ROWS = sorted(name for name, row in _GROUPS.items()
                     if row.center is not None)


def _scalar_forms(res):
    """The scalar elements c * I counted on the first-column forms."""
    n = res.elements.shape[2]
    e = res.elements.reshape(len(res.elements), n, -1, n)  # [x, i, a, j]
    eye = np.eye(n, dtype=np.int64)[None, :, None, :]
    return int(np.all(e == e[:, :1, :, :1] * eye, axis=(1, 2, 3)).sum())


@pytest.mark.parametrize("name", CENTER_ROWS + ["gppn:4:4", "gppn:3:5"])
def test_center_certificate_matches_the_filter(name, monkeypatch):
    # the scalars counted on the rows of point ids, the same count on the
    # first-column forms, and the filter over every element agree
    rep = preset(name)
    res = closure(rep.gens)
    assert engine._commutant_is_scalar(rep.gens, rep.ctx)
    center = center_order(res, rep.gens)
    assert "_forms" not in vars(res)  # the rows alone gave it
    assert center == _scalar_forms(res) \
        == _filtered_center(res, rep.gens, monkeypatch)
    if name in _GROUPS:
        assert center == _GROUPS[name].center
    # the forms read after the center are those of an eager build
    eager = closure(rep.gens)
    assert res.elements.tobytes() == eager.elements.tobytes()
    assert res.dens.tobytes() == eager.dens.tobytes()
    with pytest.raises(ValueError, match="without element storage"):
        center_order(closure(rep.gens, store_elements=False), rep.gens)


def test_reducible_rep_takes_the_filter():
    # -I (+) 1 commutes with H3 (+) 1 but is no scalar: the certificate
    # shows nothing, and the filter finds the center {I, -I (+) 1}
    gens = _with_fixed_block(preset("h3_coxeter").gens, 1)
    assert engine._commutant_is_scalar(gens, gens[0].rows[0][0].ctx) is None
    res = closure(gens)
    assert res.order == 120
    assert center_order(res, gens) == 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4, 5]), st.integers(2, 3), st.data())
def test_monomial_groups_agree_on_both_paths(conductor, n, data):
    # random finite monomial groups (permutations times roots of unity,
    # involutions or not): base images throughout and first-column forms
    # from the first layer give the same closure
    ctx = field_ctx(conductor)
    zero, one = ctx.zero(), ctx.one()
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        perm = data.draw(st.permutations(range(n)))
        powers = data.draw(st.lists(st.integers(0, 2 * conductor - 1),
                                    min_size=n, max_size=n))
        gens.append(SquareMat(
            [[(-1) ** (k // conductor) * ctx.zeta(k % conductor)
              if j == perm[i] else zero for j in range(n)]
             for i, k in enumerate(powers)], one, zero))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_BYTES_AFTER", 10 ** 9)
        points = _outcome(gens, 10 ** 6)
        m.setattr(engine, "_BYTES_AFTER", 0)
        m.setattr(engine, "_BYTES_RATIO", 0)
        assert _outcome(gens, 10 ** 6) == points


def test_word_functions_build_each_form_once(monkeypatch):
    # check_relation reads a generator set's forms once, however many
    # relations it checks; element_order and scalar_power_check share t's
    built = []
    real = engine.regular_rep
    monkeypatch.setattr(engine, "regular_rep",
                        lambda rows, *a, **k: built.append(rows)
                        or real(rows, *a, **k))
    rep = preset("h3_coxeter")
    assert check_relation(rep.gens, [1, 3], 5)
    assert check_relation(rep.gens, [1, 2], 3)
    assert not check_relation(rep.gens, [1, 2, 3], 5)
    t = rep.word([1, 2, 3])
    assert element_order(t) == 10
    assert scalar_power_check(t, 5) == -1
    assert built == [g.rows for g in rep.gens] + [t.rows]
