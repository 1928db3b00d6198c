"""The named verification suites behind `reflektor verify`.

Each suite id maps to one function taking a profile dict and returning a
SuiteResult.  The registry is declarative so coverage is auditable in one
place; the quick profile shrinks index ranges and skips every named group
whose order exceeds the profile's group_cap.
"""

from collections import namedtuple
from math import factorial, lcm

from . import identities
from .cyclo import (to_field, root_of_v, sqrt_root, root_identity_suite,
                    norm_invertibility_suite, quad_power_suite,
                    classification_search)
from .engine import (closure, element_order, scalar_power_check, is_unipotent,
                     check_relation, center_order, monomial_group_order)
from .matrices import pair_C
from .mpoly import L, M, GAMMA, prem
from .report import SuiteResult, timed
from .reflrep import (build_generators, rank3_edges, delta,
                      preset, preset_constants, rank3_rep, circuit_rep,
                      affine_circuit_rep, gnn3_rep)
from . import sympoly

PROFILES = {
    "quick": {"id_range": 20, "id_range_rec": 20, "fact_max": 60,
              "theta_max": 100, "reflmap_max": 50, "root_max": 20,
              "norm_max": 20, "class_bound": 8, "sym_kmax": 4,
              "group_cap": 2500},
    "full": {"id_range": 30, "id_range_rec": 50, "fact_max": 200,
             "theta_max": 500, "reflmap_max": 100, "root_max": 30,
             "norm_max": 30, "class_bound": 12, "sym_kmax": 8,
             "group_cap": 1_000_000},
}


# ---------------------------------------------------------------- part 1

def suite_s1_identities(prof):
    res = SuiteResult("s1_identities")
    r = prof["id_range"]
    res.merge(identities.check_all_identities(-r, r, "|n|<=%d" % r))
    rr = prof["id_range_rec"]
    if rr > r:
        for tag in ("A1", "A2", "AR"):
            res.merge(identities.check_identity(tag, -rr, rr,
                                                "|n|<=%d" % rr))
    res.merge(identities.factorization_check(prof["fact_max"]))
    res.merge(identities.theta_v_check(prof["theta_max"]))
    res.merge(identities.reflection_map_check(prof["reflmap_max"]))
    return res


def suite_s1_roots(prof):
    res = SuiteResult("s1_roots")
    res.merge(root_identity_suite(prof["root_max"]))
    res.merge(quad_power_suite())
    return res


def suite_s1_theta(prof):
    res = SuiteResult("s1_theta")
    res.merge(norm_invertibility_suite(prof["norm_max"]))
    return res


_CLASS_EXPECT = {
    8: {"product": [{"alpha": (4, 1), "beta": (4, 1), "gamma": (3, 1)}],
        "sum": [((3, 1), (3, 1), (4, 1)), ((3, 1), (5, 1), (5, 2))],
        "skipped": []},
    12: {"product": [{"alpha": (4, 1), "beta": (4, 1), "gamma": (3, 1)}],
         "sum": [((3, 1), (3, 1), (4, 1)), ((3, 1), (5, 1), (5, 2))],
         "skipped": [(5, 7, 11), (5, 9, 11), (7, 8, 11), (7, 9, 11),
                     (7, 10, 11), (7, 11, 12), (8, 9, 11), (9, 10, 11)]},
}


def classification_cases(name, bound):
    """The classification search against its frozen answer, one case per
    key.  A case that fails reports what was found; so does each case of a
    bound with no frozen answer, which is skipped, since nothing is
    compared."""
    res = SuiteResult(name)
    got = classification_search(bound)
    expect = _CLASS_EXPECT.get(bound)
    for key in ("product", "sum", "skipped"):
        found = "found %s" % (got[key],)
        if expect is None:
            res.skip((key, bound), found)
        else:
            ok = got[key] == expect[key]
            res.check(ok, (key, bound), "" if ok else found)
    return res


def suite_s1_classification(prof):
    return classification_cases("s1_classification", prof["class_bound"])


# ---------------------------------------------------------------- part 2

def suite_s2_matrices(prof):
    res = SuiteResult("s2_matrices")
    k = prof["sym_kmax"]
    res.merge(sympoly.verify_power_formulas(k))
    res.merge(sympoly.verify_reflection_formulas(k))
    res.merge(sympoly.verify_half_turns())
    return res


def suite_s2_C(prof):
    res = SuiteResult("s2_C")
    res.merge(sympoly.verify_C_generic(prof["sym_kmax"]))
    res.merge(sympoly.verify_C_conjugates())
    res.merge(sympoly.verify_half_turn_pairs())
    return res


def suite_s2_charpoly(prof):
    res = SuiteResult("s2_charpoly")
    res.merge(sympoly.verify_charpoly_catalog(prof["sym_kmax"]))
    res.merge(sympoly.verify_charpoly_even_order())
    return res


# ---------------------------------------------------------------- part 3

def _conductor(*constants):
    """The least conductor whose field holds every one of the constants."""
    return lcm(1, *(x.ctx.N for x in constants if not x.is_rational()))


def suite_s3_theorem6(prof):
    """Collapsing the cycle: adding (s1 (s2s3)^{r1} s2)^2 = 1 to the
    symmetric-cycle representation with l = m = -sqrt(gamma) lands on the
    two-edge chain group of the same order, with C(s2, s3') hitting the
    predicted companion root."""
    res = SuiteResult("s3_theorem6")
    cases = [(5, 3, 120), (3, 5, 120), (4, 3, 48)]
    for p, r, order in cases:
        r1 = (r - 1) // 2
        alpha = root_of_v(p, 1)
        lm = -sqrt_root(r, 1)
        rep = rank3_rep("thm6:%d:%d" % (p, r), alpha, alpha, lm, lm,
                        _conductor(alpha, lm))

        result = closure(rep.gens)
        res.check(result.order == order, (p, r, "order"))
        word = [1] + [2, 3] * r1 + [2]
        res.check(check_relation(rep.gens, word, 2), (p, r, "relation"))

        s3p = rep.word([2, 3] * r1 + [2])
        res.check((s3p * s3p).is_identity(), (p, r, "involution"))
        # fixes a1, swaps a2 and a3 (columns are images of basis vectors)
        cols = list(zip(*s3p.rows))
        one, zero = rep.ctx.one(), rep.ctx.zero()
        res.check(cols[0] == (one, zero, zero), (p, r, "fixes_a1"))
        res.check(cols[1] == (zero, zero, one) and
                  cols[2] == (zero, one, zero), (p, r, "swaps_a2_a3"))

        c = pair_C(rep.gens[1], s3p)
        b = root_of_v(r, r1)
        res.check(c == to_field(b, rep.ctx), (p, r, "C_value"))
        res.check(c == 2 + to_field(lm, rep.ctx), (p, r, "C_closed_form"))

        # the chain target group has the same order
        chain = rank3_rep("thm6chain:%d:%d" % (p, r), alpha, b, 0, 0,
                          _conductor(alpha, b))
        res.check(closure(chain.gens).order == order, (p, r, "chain_order"))
    return res


# The named groups of Sections 3-4, one row per preset: order, center (None:
# close without storing elements), a scalar power t_pow of t = s1 s2 s3, the
# order of t and (word, exponent) relations.  values maps the preset's named
# constants (reflrep.preset_constants) to delta and that scalar.
_Group = namedtuple("_Group", "order center t_pow t_order relations values",
                    defaults=(None, None, None, (), None))

_GROUPS = {
    "cor9_a3": _Group(24, 1),
    "cor9_b3": _Group(48, 2),
    "h3_coxeter": _Group(120, 2, 5, 10, (), lambda t: (2 * (3 - t), -1)),
    "h3_552": _Group(120, 2, 3, 6, [([2, 1, 3, 1], 3)], lambda t: (2, -1)),
    "h3_335": _Group(120, 2, 3, 6, [([1, 2, 3, 2, 3, 2], 2)],
                     lambda t: (2, -1)),
    "h3_553a": _Group(120, 2, 5, 10, [([1, 3, 2, 3], 2)],
                      lambda t: (2 * (3 - t), -1)),
    "h3_553b": _Group(120, 2, 3, 6, [([3, 1, 2, 1], 2)], lambda t: (2, -1)),
    "h3_555": _Group(120, 2, 5, 10, [([1, 3, 2, 3], 3),
                                     ([1, 2, 3, 2, 3, 2], 2)],
                     lambda t: (2 * (3 - t), -1)),
    "h4_1": _Group(14400),
    "h4_2": _Group(14400, relations=[([2, 3, 4, 3], 3)]),
    "h4_3": _Group(14400, relations=[([3, 4, 3, 2], 2)]),
    "h4_4": _Group(14400, relations=[([4, 3, 4, 2], 2)]),
    "h4_5": _Group(14400, relations=[([3, 4, 3, 4, 3, 2], 2)]),
    "h4_oracle": _Group(14400),
    "g24_334": _Group(336, 2, 7, 14, [([1, 2, 1, 3], 4)], lambda z: (1, -1)),
    "g24_443": _Group(336, 2, 7, 14, [([2, 3, 1, 3], 3)], lambda z: (1, -1)),
    "g24_444": _Group(336, 2, 7, 14, [([1, 3, 2, 3], 3)], lambda z: (1, -1)),
    "g27_a": _Group(2160, 6, 5, 30, [([1, 3, 2, 3], 4)],
                    lambda t, w: (3 - t, -w)),
    "g27_b": _Group(2160, 6, 4, 12, [([1, 3, 2, 3], 4)], lambda t, w: (1, w)),
    "g27_c": _Group(2160, 6, 5, 30, [([1, 3, 2, 3], 5)],
                    lambda t, w: (3 - t, -w)),
    "g27_d": _Group(2160, 6, 4, 12, [([3, 1, 2, 1], 3), ([1, 3, 2, 3], 4)],
                    lambda t, w: (1, w * w)),
    "g27_e": _Group(2160, 6, 5, 30, [([1, 3, 2, 3], 3), ([1, 2, 3, 2], 3)],
                    lambda t, w: (3 - t, -w)),
    "g27_f": _Group(2160, 6, 4, 12, [([1, 3, 2, 3], 3)],
                    lambda t, w: (1, w * w)),
    "g27_g": _Group(2160, 6, 5, 30, [([1, 3, 2, 3], 5)],
                    lambda t, w: (t, -w * w)),
}


def _named(prefix):
    return [name for name in _GROUPS if name.startswith(prefix)]


def _check_group(res, prof, name, presentation=True, t_label="t_scalar",
                 indexed=True):
    """Check a preset against its row: order, center, and with presentation
    the t cases (t_label names the scalar one) and the relations, numbered
    if indexed.  Returns (rep, t), or (None, None) over the size cap."""
    row = _GROUPS[name]
    if row.order > prof["group_cap"]:
        res.skip((name, "order"), "over profile group-size cap")
        return None, None
    rep = preset(name)
    result = closure(rep.gens, store_elements=row.center is not None)
    res.check(result.order == row.order, (name, "order"))
    if row.center is not None:
        res.check(center_order(result, rep.gens) == row.center,
                  (name, "center"))
    t = None
    if presentation and row.values is not None:
        d, scalar = row.values(*preset_constants(name))
        res.check(rep.delta() == d, (name, "delta"))
        t = rep.word([1, 2, 3])
        res.check(scalar_power_check(t, row.t_pow) == scalar, (name, t_label))
        res.check(element_order(t) == row.t_order, (name, "t_order"))
    for i, (word, e) in enumerate(row.relations if presentation else ()):
        res.check(check_relation(rep.gens, word, e),
                  (name, "relation", i) if indexed else (name, "relation"))
    return rep, t


def _galois_conjugate(res, rep):
    """The group order is stable under conjugating the constants."""
    consts = [x.conj() for x in rep.edge_constants()]
    conj = rank3_rep(rep.name + "conj", *consts, rep.ctx.N)
    res.check(closure(conj.gens, store_elements=False).order
              == _GROUPS[rep.name].order, ("galois_conjugate", "order"))


def suite_s3_cor9(prof):
    res = SuiteResult("s3_cor9")
    for name in ("cor9_a3", "cor9_b3", "h3_335", "h3_553a"):
        _check_group(res, prof, name, presentation=False)
    # the symmetric-triangle case with all three constants 3 is affine
    rep = preset("cor9_g2t")
    res.check(closure(rep.gens, cap=10_000).cap_exceeded,
              ("cor9_g2t", "cap_exceeded"))
    res.check(rep.delta() == 0, ("cor9_g2t", "delta"))
    w = rep.word([1, 2, 3]) ** 2
    res.check(is_unipotent(w) and not w.is_identity(),
              ("cor9_g2t", "unipotent_witness"))
    return res


def suite_s3_h3(prof):
    res = SuiteResult("s3_h3")
    for name in _named("h3_"):
        _check_group(res, prof, name)
    return res


def suite_s3_h4(prof):
    res = SuiteResult("s3_h4")
    for name in _named("h4_"):
        _check_group(res, prof, name, indexed=False)
    return res


# ---------------------------------------------------------------- part 4

def suite_s4_affine(prof):
    res = SuiteResult("s4_affine")
    centers = {(2, 3): 1, (3, 3): 3, (2, 4): 2}
    for p, n in [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]:
        rep = circuit_rep(p, n)
        expected = p ** (n - 1) * factorial(n)
        if expected > prof["group_cap"]:
            res.skip((p, n, "order"), "over profile group-size cap")
            continue
        result = closure(rep.gens)
        res.check(result.order == expected, (p, n, "order"))
        res.check(monomial_group_order(p, n) == expected, (p, n, "oracle"))
        if (p, n) in centers:
            res.check(center_order(result, rep.gens) == centers[(p, n)],
                      (p, n, "center"))
        s0 = rep.s0_word()
        res.check(check_relation(rep.gens, [n - 1] + s0 + [n - 1, n], 3),
                  (p, n, "braid_relation"))
        res.check(check_relation(rep.gens, s0 + [n], p), (p, n, "s0sn_order"))
        # cycle constants: l m = 1 and C(s0, sn) = (l+1)(m+1) = l+m+2
        l, m = rep.weight(1, n), rep.weight(n, 1)
        res.check(l * m == 1, (p, n, "lm"))
        c = pair_C(rep.word(s0), rep.gens[n - 1])
        res.check(c == (l + 1) * (m + 1), (p, n, "C_s0sn"))
        if p > 2:
            res.check(c == to_field(root_of_v(p, 1), rep.ctx),
                      (p, n, "C_root"))
    # both cycle weights 1: affine, infinite
    rep = affine_circuit_rep(3)
    res.check(closure(rep.gens, cap=10_000).cap_exceeded,
              ("atilde3", "cap_exceeded"))
    s0 = rep.word(rep.s0_word())
    prod = s0 * rep.gens[2]
    res.check(pair_C(s0, rep.gens[2]) == 4, ("atilde3", "C4"))
    res.check(is_unipotent(prod) and not prod.is_identity(),
              ("atilde3", "unipotent"))
    return res


def suite_s4_gnn3(prof):
    res = SuiteResult("s4_gnn3")
    # symbolic: with alpha = beta = 1 the cube relation (s1s2s3)^2 =
    # (s2s3s1)^2 holds exactly on the locus l + m = -gamma; every entry of
    # the difference is divisible by gamma + l + m
    one = sympoly.ONE
    s1, s2, s3 = build_generators(3, rank3_edges(one, one, L, M), one,
                                  sympoly.ZERO)
    lhs = (s1 * s2 * s3) ** 2
    rhs = (s2 * s3 * s1) ** 2
    locus = GAMMA + L + M
    nonzero = 0
    for i in range(3):
        for j in range(3):
            d = lhs.rows[i][j] - rhs.rows[i][j]
            res.check(prem(d, locus, 3).is_zero(), ("divisible", i, j))
            if not d.is_zero():
                nonzero += 1
    res.check(nonzero > 0, ("negative_sample",))
    # and on the locus, delta = 4 - gamma identically
    res.check((delta(1, 1, L, M) - (4 - GAMMA) + locus).is_zero(),
              ("delta_locus",))

    for n in range(2, 7):
        rep = gnn3_rep(n, 1)
        result = closure(rep.gens, store_elements=False)
        res.check(result.order == 6 * n * n, (n, "order"))
        res.check(check_relation(rep.gens, [1, 2, 3], 2,
                                 rhs_word=[2, 3, 1], rhs_exponent=2),
                  (n, "square_relation"))
        res.check(check_relation(rep.gens, [1, 2, 3], 2 * n), (n, "t_2n"))
        a, b, l, m = rep.edge_constants()
        g = l * m
        res.check(l + m == -g, (n, "l_plus_m"))
        res.check(rep.delta() == 4 - g, (n, "delta"))
        res.check(check_relation(rep.gens, [2, 3], n), (n, "s2s3_order"))
        if n > 2:
            res.check(g == root_of_v(n, 1), (n, "gamma_root"))
    return res


def suite_s4_g24(prof):
    res = SuiteResult("s4_g24")
    zeta, = preset_constants("g24_334")
    res.check(zeta * zeta - zeta + 2 == 0, ("zeta_quadratic",))
    quadratics = {"g24_443": (3, 4), "g24_444": (5, 8)}  # 2 l: X^2 + s X + c
    for name in _named("g24_"):
        rep, t = _check_group(res, prof, name, t_label="t7", indexed=False)
        if rep is None:
            continue
        a, b, l, m = rep.edge_constants()
        if name not in quadratics:
            # both cycle constants satisfy X^2 + X + 2 = 0
            res.check(l * l + l + 2 == 0 and m * m + m + 2 == 0,
                      (name, "quadratic"))
            th, thp = rep.theta_pair()
            res.check(th == l and thp == -m, (name, "theta_pair"))
            cp = t.char_poly()
            res.check(tuple(cp.coeffs) == (rep.ctx.one(), -zeta,
                                           -(1 - zeta), rep.ctx.one()),
                      (name, "t_charpoly"))
        else:
            s, c = quadratics[name]
            res.check((2 * l) ** 2 + s * (2 * l) + c == 0,
                      (name, "quadratic"))
    # with alpha = beta = 2 the degeneracy invariant collapses to
    # -2(gamma + l + m), the arithmetic core of the order-4 elimination
    res.check((delta(2, 2, L, M) + 2 * (GAMMA + L + M)).is_zero(),
              ("delta_22",))

    # PSL(2,7) witness relations in g24_334
    rep = preset("g24_334")
    c = rep.word([1, 2])
    d = rep.word([1, 3])
    res.check((c ** 3).is_identity() and (d ** 3).is_identity(),
              ("psl27", "orders"))
    res.check(((c * d) ** 4).is_identity(), ("psl27", "cd"))
    # d^-1 = (s1 s3)^-1 = s3 s1
    res.check(((c * rep.word([3, 1])) ** 4).is_identity(), ("psl27", "cdinv"))

    _galois_conjugate(res, rep)
    return res


def suite_s4_g27(prof):
    res = SuiteResult("s4_g27")
    for name in _named("g27_"):
        _check_group(res, prof, name)

    # Burnside-style witness in case (a): c = s1s2, d = s2s3 satisfy the
    # presentation relations, the commutator [c, d^3] is the square of
    # t2 = s1(s2s3)^2 and has order 6, and its square is central
    rep = preset("g27_a")
    _, om = preset_constants("g27_a")
    c = rep.word([1, 2])
    d = rep.word([2, 3])
    res.check((c ** 3).is_identity() and (d ** 5).is_identity(),
              ("burnside", "orders"))
    res.check(((c * d) ** 3).is_identity(), ("burnside", "cd"))
    res.check(((c * c * d) ** 4).is_identity(), ("burnside", "ccd"))
    t2 = rep.word([1, 2, 3, 2, 3])
    # c^-1 = s2 s1 and d^-3 = (s3 s2)^3: reflections invert words by reversal
    comm = c * (d ** 3) * rep.word([2, 1]) * rep.word([3, 2]) ** 3
    res.check(comm == t2 * t2, ("burnside", "commutator"))
    res.check(element_order(comm) == 6, ("burnside", "comm_order"))
    sq = comm * comm
    res.check(all(sq * g == g * sq for g in rep.gens),
              ("burnside", "central"))
    res.check(scalar_power_check(t2, 4) == om * om, ("burnside", "t2_4"))
    res.check(element_order(t2) == 12, ("burnside", "t2_order"))
    res.check(pair_C(rep.gens[0], rep.word([3, 2, 3])) == 2,
              ("burnside", "C_conj"))

    _galois_conjugate(res, rep)
    return res


SUITES = {
    "s1_identities": suite_s1_identities,
    "s1_roots": suite_s1_roots,
    "s1_theta": suite_s1_theta,
    "s1_classification": suite_s1_classification,
    "s2_matrices": suite_s2_matrices,
    "s2_C": suite_s2_C,
    "s2_charpoly": suite_s2_charpoly,
    "s3_theorem6": suite_s3_theorem6,
    "s3_cor9": suite_s3_cor9,
    "s3_h3": suite_s3_h3,
    "s3_h4": suite_s3_h4,
    "s4_affine": suite_s4_affine,
    "s4_gnn3": suite_s4_gnn3,
    "s4_g24": suite_s4_g24,
    "s4_g27": suite_s4_g27,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(suite_id, profile="full"):
    if suite_id not in SUITES:
        raise KeyError("unknown suite %r (have: %s)"
                       % (suite_id, ", ".join(SUITE_ORDER)))
    if profile not in PROFILES:
        raise KeyError("unknown profile %r" % (profile,))
    return timed(SUITES[suite_id], PROFILES[profile])


def run_all(profile="full"):
    return [run_suite(s, profile) for s in SUITE_ORDER]
