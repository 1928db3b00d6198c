"""Closed forms for words in the rank-3 generators, checked symbolically.

The three reflections carry the four free constants alpha, beta, l, m (with
gamma = l m), so every claim here is an identity of sparse polynomials.
Each closed form of Section 2 is written once, for an edge (i, j) of the
diagram with third index k.  Its weights x = k_ij, y = k_ji, p = k_ik and
q = k_jk are read off the generators (k_ij is row i, column j of s_i), and
u is evaluated at the edge product x y: alpha, beta and gamma on the edges
{1, 2}, {1, 3} and {2, 3}.  One form per claim covers the three edges: the
powers (s_i s_j)^n, the reflections s_i (s_i s_j)^n with their -1
eigenvectors, the pairing C(s, t) = trace((s-1)(t-1)) of s_k against them,
and the half turns.  Formulas that carry a denominator like 4 - x y only
hold when s_i s_j has finite even order, so those are checked exactly in
small cyclotomic fields with the remaining constants generic rationals.
The C values against short conjugates, one product per ordered triple of
generators, and the characteristic polynomials of M = s_i (s_j s_k)^n,
read off tr(M) and tr(M^-1), are checked as well.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from .cyclo import root_of_v, u_value_seq, u_at
from .matrices import SquareMat, pair_C
from .mpoly import MPoly, ALPHA, BETA, GAMMA, L, M, prem
from .reflrep import (DiagramSpec, build_generators, rank3_edges, rank3_rep,
                      delta, theta_pair)
from .report import SuiteResult
from .upoly import UPoly

ONE = MPoly.const(1)
ZERO = MPoly()

# The even orders 2h of s_i s_j at which the half-turn forms are checked.
_EVEN_ORDERS = (4, 6)

# THETA_P - THETA is the degeneracy invariant delta,
# THETA + THETA_P = alpha l - beta m.
THETA, THETA_P = theta_pair(ALPHA, BETA, L, M)

# s1, s2, s3 with symbolic edge constants (columns convention)
GENS = tuple(build_generators(
    DiagramSpec(3, rank3_edges(ALPHA, BETA, L, M, ONE)), ONE, ZERO))

# Each s_i is an involution of determinant -1 (det(X - s_i) ends in +1);
# the char polys of the catalog are read off traces on these premises.
_PREMISES = all((s * s).is_identity() and s.char_poly().constant() == 1
                for s in GENS)

# The edges (i, j) with their third index k, 0-based, in case order.  Per
# edge: the name of s_i s_j; the name of its edge product x y; the parities
# of n for which the catalog states C(s_k, s_i (s_i s_j)^n) in product form;
# whether the half-turn checks include s_j times the half turn.
_EDGES = (
    ((0, 1, 2), "s1s2", "alpha", (0, 1), True),
    ((0, 2, 1), "s1s3", "beta", (0,), False),
    ((1, 2, 0), "s2s3", "gamma", (1,), False),
)


def _weights(gens, i, j, k):
    """x = k_ij, y = k_ji, p = k_ik, q = k_jk: rows i of s_i and j of s_j."""
    return (gens[i].rows[i][j], gens[j].rows[j][i],
            gens[i].rows[i][k], gens[j].rows[j][k])


def _on_edge(edge, row_i, row_j, one, zero):
    """The matrix whose rows i and j are given in the column order (i, j, k)
    of edge, and whose row k is the unit row."""
    rows = [[zero] * 3 for _ in range(3)]
    rows[edge[2]][edge[2]] = one
    for r, vals in zip(edge, (row_i, row_j)):
        for c, v in zip(edge, vals):
            rows[r][c] = v
    return SquareMat(rows, one, zero)


def _k(a, b):
    """k_ab: row a, column b of s_a in GENS."""
    return GENS[a].rows[a][b]


def _edge_products(i, j, k):
    """e_ij, e_ik and e_jk, with e_ab = k_ab k_ba, and the cycle term
    z = k_ij k_jk k_ki + k_ji k_kj k_ik."""
    x, y, p, q = _weights(GENS, i, j, k)
    ki, kj = _k(k, i), _k(k, j)
    return x * y, p * ki, q * kj, x * q * ki + y * p * kj


def _u_seq(at, kmax):
    return u_value_seq(at, 4 * kmax + 10)


def _edge_seq(edge, kmax):
    """u_0 .. u_(4 kmax + 10) at the edge product x y."""
    x, y, _, _ = _weights(GENS, *edge)
    return _u_seq(x * y, kmax)


# -- closed forms for (s_i s_j)^n and s_i (s_i s_j)^n ------------------

def _power(edge, n, seq):
    """(s_i s_j)^n, with u at x y in seq.  Rows i and j are
        u_(2n+1),  -x u_(2n),   w p u_n^2 + x q u_(n+1) u_n,
        y u_(2n),  -u_(2n-1),   w q u_n^2 + y p u_n u_(n-1),
    where the weight w is x y for even n and 1 for odd n."""
    x, y, p, q = _weights(GENS, *edge)
    u = lambda t: u_at(seq, t)
    w = x * y if n % 2 == 0 else ONE
    un = u(n)
    return _on_edge(edge,
                    [u(2*n+1), -x*u(2*n), w*p*un**2 + x*q*u(n+1)*un],
                    [y*u(2*n), -u(2*n-1), w*q*un**2 + y*p*un*u(n-1)],
                    ONE, ZERO)


def _reflection(edge, n, seq):
    """(s_i (s_i s_j)^n, v, c): its -1 eigenvector v = v_i e_i + v_j e_j
    and the factor c of its column k = c v.  Rows i and j are
        u_(2n-1),  -x u_(2n-2),  c v_i,
        y u_(2n),  -u_(2n-1),    c v_j,
    with v = (u_(n-1), y u_n), c = x q u_n + p u_(n-1) for even n and
    v = (x u_(n-1), u_n), c = q u_n + y p u_(n-1) for odd n."""
    i, j, _ = edge
    x, y, p, q = _weights(GENS, *edge)
    u = lambda t: u_at(seq, t)
    if n % 2 == 0:
        vi, vj, c = u(n-1), y*u(n), x*q*u(n) + p*u(n-1)
    else:
        vi, vj, c = x*u(n-1), u(n), q*u(n) + y*p*u(n-1)
    mat = _on_edge(edge, [u(2*n-1), -x*u(2*n-2), c*vi],
                   [y*u(2*n), -u(2*n-1), c*vj], ONE, ZERO)
    vec = [ZERO] * 3
    vec[i], vec[j] = vi, vj
    return mat, vec, c


def verify_power_formulas(kmax=6):
    """The closed form of (s_i s_j)^n on each edge against incrementally
    computed actual powers, over the full signed exponent range
    |n| <= 2 kmax + 1."""
    res = SuiteResult("power_formulas")
    ident = SquareMat.identity(3, ONE, ZERO)
    for edge, name, _, _, _ in _EDGES:
        seq = _edge_seq(edge, kmax)
        s, t = GENS[edge[0]], GENS[edge[1]]
        st, ts = s * t, t * s
        pos = ident
        for n in range(0, 2 * kmax + 2):
            res.check(pos == _power(edge, n, seq), (name, n))
            pos = pos * st
        # negative exponents: (s_i s_j)^-1 = s_j s_i
        neg = ts
        for n in range(-1, -(2 * kmax + 2), -1):
            res.check(neg == _power(edge, n, seq), (name, n))
            neg = neg * ts
    return res


def verify_reflection_formulas(kmax=6):
    """s_i (s_i s_j)^n closed forms plus the stated -1 eigenvector of each,
    over the signed range |n| <= 2 kmax + 1."""
    res = SuiteResult("reflection_formulas")
    top = 2 * kmax + 1
    for edge, name, _, _, _ in _EDGES:
        seq = _edge_seq(edge, kmax)
        s, t = GENS[edge[0]], GENS[edge[1]]
        st, ts = s * t, t * s
        label = "s%d(%s)^n" % (edge[0] + 1, name)
        # s_i (s_i s_j)^n and s_i (s_j s_i)^n, one multiply per step
        actual = {0: s}
        for n in range(1, top + 1):
            actual[n] = actual[n - 1] * st
            actual[-n] = actual[1 - n] * ts
        for n in range(-top, top + 1):
            mat, vec, _ = _reflection(edge, n, seq)
            res.check(actual[n] == mat, (label, n))
            img = mat.apply(vec)
            res.check(all((a + b).is_zero() for a, b in zip(img, vec)),
                      (label, n, "eigvec"))
    return res


# -- the C catalog ------------------------------------------------------

def verify_C_generic(kmax=6):
    """C(s_k, s_i (s_i s_j)^n) on each edge, as polynomial identities.  In
    the edge products e_ij = k_ij k_ji, e_ik, e_jk and the cycle term
    z = k_ij k_jk k_ki + k_ji k_kj k_ik, the expanded form is
        e_ij e_jk u_n^2 + e_ik u_(n-1)^2 + z u_n u_(n-1)   (n even),
        e_jk u_n^2 + e_ij e_ik u_(n-1)^2 + z u_n u_(n-1)   (n odd);
    for the parities the catalog lists, also the product form
    (k_ki v_i + k_kj v_j) c in the eigenvector v and the column factor c
    of _reflection."""
    res = SuiteResult("C_generic")
    forms = []
    for edge, name, _, products, _ in _EDGES:
        i, j, k = edge
        forms.append((edge, "s%d_vs_%s" % (k + 1, name), products,
                      _edge_seq(edge, kmax), _k(k, i), _k(k, j))
                     + _edge_products(*edge))
    for n in range(-(2 * kmax + 1), 2 * kmax + 2):
        for (edge, label, products, seq, ki, kj,
             e_ij, e_ik, e_jk, z) in forms:
            i, j, k = edge
            mat, vec, col = _reflection(edge, n, seq)
            c = pair_C(GENS[k], mat)
            if n % 2 in products:
                res.check((c - (ki * vec[i] + kj * vec[j]) * col).is_zero(),
                          (label, n, "product"))
            un, un1 = u_at(seq, n), u_at(seq, n - 1)
            if n % 2 == 0:
                expd = e_ij * e_jk * un**2 + e_ik * un1**2
            else:
                expd = e_jk * un**2 + e_ij * e_ik * un1**2
            res.check((c - expd - z * un * un1).is_zero(),
                      (label, n, "expanded"))
    return res


def _conjugate_C(i, j, k, u):
    """(k_ij u + k_ik k_kj) (k_ji u + k_jk k_ki)."""
    return ((_k(i, j) * u + _k(i, k) * _k(k, j))
            * (_k(j, i) * u + _k(j, k) * _k(k, i)))


def verify_C_conjugates():
    """C(s_i, s_j^w) for each ordering (i, j, k) of the generators, where
    x^g means g^-1 x g: the product _conjugate_C(i, j, k, u) with u = 1
    for w = s_k and u = u_3(e_jk) = k_jk k_kj - 1 for w = s_k s_j.  For
    w = s_k and i < j also the expanded form e_ij + e_ik e_jk + z, with z
    the cycle term of verify_C_generic."""
    res = SuiteResult("C_conjugates")
    for i, j, k in sorted(permutations(range(3)), key=lambda p: -p[2]):
        c = pair_C(GENS[i], GENS[k] * GENS[j] * GENS[k])
        name = "s%d,s%d^s%d" % (i + 1, j + 1, k + 1)
        res.check((c - _conjugate_C(i, j, k, ONE)).is_zero(), (name,))
        if i < j:
            e_ij, e_ik, e_jk, z = _edge_products(i, j, k)
            res.check((c - e_ij - e_ik * e_jk - z).is_zero(),
                      (name, "expanded"))
    for i, j, k in permutations(range(3)):
        sj, sk = GENS[j], GENS[k]
        c = pair_C(GENS[i], sj * sk * sj * sk * sj)
        u = _k(j, k) * _k(k, j) - 1
        res.check((c - _conjugate_C(i, j, k, u)).is_zero(),
                  ("s%d,s%d^s%ds%d" % (i + 1, j + 1, k + 1, j + 1),))
    return res


# -- half-turn specializations (finite even order, with denominators) --

_A0, _L0, _M0 = Fraction(7, 3), Fraction(2, 5), Fraction(-3, 4)


def _at_roots(roots, conductor):
    """The rank-3 rep over Q(zeta_conductor) whose edge products (0: alpha,
    1: beta, 2: gamma) are the v-roots that roots gives by edge index.  The
    other constants are generic rationals: l = 2/5, so gamma = root means
    m = root / l, and otherwise m = -3/4; a free alpha is 7/3, and so is a
    free beta, except that it is -3/4 when alpha is free as well."""
    a = roots.get(0, _A0)
    b = roots.get(1, _A0 if 0 in roots else _M0)
    m = roots[2] / _L0 if 2 in roots else _M0
    return rank3_rep("rank3", a, b, _L0, m, conductor)


def verify_half_turns():
    """When s_i s_j has even order 2h, with w = 4 - x y, (s_i s_j)^h is the
    half turn whose rows i and j are (-1, 0, 2 (2p + x q) / w) and
    (0, -1, 2 (y p + 2q) / w), and the C values against the third generator
    collapse to C(s_k, s_t (s_i s_j)^h) = 4 - k_tk k_kt - 2 delta / w for
    t = i, j.  Checked exactly at v-roots, for each order in _EVEN_ORDERS
    (4 and 6)."""
    res = SuiteResult("half_turns")
    for order in _EVEN_ORDERS:
        for e, (edge, _, const, _, sj_half) in enumerate(_EDGES):
            i, j, k = edge
            rep = _at_roots({e: root_of_v(order)}, order)
            g = rep.gens
            one, zero = g[0].one, g[0].zero
            d = rep.delta()
            x, y, p, q = _weights(g, *edge)
            w = 4 - x * y
            c = (2 * p + x * q) / w
            half = (g[i] * g[j]) ** (order // 2)
            expect = _on_edge(edge, [-one, zero, 2 * c],
                              [zero, -one, 2 * (y * p + 2 * q) / w],
                              one, zero)
            res.check(half == expect, (const, order, "half"))
            if sj_half:
                # row j of s_j is (y, -1, q) in the order (i, j, k)
                expect = _on_edge(edge, [-one, zero, 2 * c],
                                  [-y, one, y * c], one, zero)
                res.check(g[j] * half == expect,
                          (const, order, "s%dhalf" % (j + 1)))
            for t in (i, j):
                e_tk = g[t].rows[t][k] * g[k].rows[k][t]
                res.check(pair_C(g[k], g[t] * half) == 4 - e_tk - 2 * d / w,
                          (const, order, "C_s%d" % (t + 1)))
    return res


def verify_half_turn_pairs():
    """C between two half-turn translates when two edges have products of
    finite even order, for each pair of edges and each pair of orders in
    _EVEN_ORDERS (4 and 6).  With H1 and H2 the half turns, e1 and e2 the
    edge products, W = (4 - e1)(4 - e2) and C(s_u, s_v) = k_uv k_vu (4 when u = v), for every head s_u of the first
    edge and s_v of the second:
        C(s_u H1, s_v H2) = C(s_u, s_v) (1 - 2 delta / W)
    when s_u or s_v is the generator the two edges share, and
        C(s_u H1, s_v H2) = C(s_u, s_v) + delta (8 - 2 e1 - 2 e2) / W
    otherwise."""
    res = SuiteResult("half_turn_pairs")
    for o1 in _EVEN_ORDERS:
        for o2 in _EVEN_ORDERS:
            cond = lcm(o1, o2)
            r1, r2 = root_of_v(o1), root_of_v(o2)
            for a, b in combinations(range(3), 2):
                (i1, j1, k1), _, name1, _, _ = _EDGES[a]
                (i2, j2, k2), _, name2, _, _ = _EDGES[b]
                rep = _at_roots({a: r1, b: r2}, cond)
                g = rep.gens
                d = rep.delta()
                x1, y1, _, _ = _weights(g, i1, j1, k1)
                x2, y2, _, _ = _weights(g, i2, j2, k2)
                e1, e2 = x1 * y1, x2 * y2
                big_w = (4 - e1) * (4 - e2)
                half1 = (g[i1] * g[j1]) ** (o1 // 2)
                half2 = (g[i2] * g[j2]) ** (o2 // 2)
                shared, = {i1, j1} & {i2, j2}
                for u in (i1, j1):
                    for v in (i2, j2):
                        c = 4 if u == v else g[u].rows[u][v] * g[v].rows[v][u]
                        if shared in (u, v):
                            expect = c - 2 * c * d / big_w
                        else:
                            expect = c + d * (8 - 2 * e1 - 2 * e2) / big_w
                        res.check(pair_C(g[u] * half1, g[v] * half2) == expect,
                                  (o1, o2, name1[0] + name2[0],
                                   "%d%d" % (u + 1, v + 1)))
    return res


# -- characteristic polynomials of s_i (s_j s_k)^n ---------------------

def charpoly_template(n, seq, weight):
    """X^3 - A X^2 + B X + 1 with
    A = 1 + theta w_n^2 - (theta + theta') w_n w_{n-1},
    B = -1 + theta' w_n^2 - (theta + theta') w_n w_{n-1},
    where w_n = u_n at the relevant constant and even n picks up one extra
    factor of that constant (the weight) on the square."""
    un, un1 = u_at(seq, n), u_at(seq, n - 1)
    sq = un * un if n % 2 else weight * un * un
    mixed = (THETA + THETA_P) * un * un1
    a_coeff = 1 + THETA * sq - mixed
    b_coeff = -1 + THETA_P * sq - mixed
    return UPoly([ONE, b_coeff, -a_coeff, ONE])


# name, i, j, k and weight of the family s_i (s_j s_k)^n, 0-based
_FAMILIES = (("t", 0, 1, 2, GAMMA), ("x", 1, 2, 0, BETA),
             ("y", 2, 0, 1, ALPHA))


def _charpolys(i, j, k, nmax):
    """(M, char poly of M) for M = s_i (s_j s_k)^n, n = 0..nmax.  The char
    poly is read off two traces: X^3 - tr(M) X^2 + det(M) tr(M^-1) X -
    det(M), since the coefficient of X is tr(adj M).  It needs _PREMISES:
    then det(M) = -1 and M^-1 = (s_k s_j)^n s_i, a second chain of
    products."""
    pair, rev = GENS[j] * GENS[k], GENS[k] * GENS[j]
    cur = inv = GENS[i]
    for n in range(nmax + 1):
        if n:
            cur, inv = cur * pair, rev * inv
        yield cur, UPoly([ONE, -inv.trace(), -cur.trace(), ONE])


def verify_charpoly_catalog(kmax=6):
    """Characteristic polynomials of t_n = s1 (s2 s3)^n, x_n = s2 (s3 s1)^n
    and y_n = s3 (s1 s2)^n, from two traces each (_charpolys), against the
    shared template, the values at +-1, and the conditional factorizations
    (delta = 0 and alpha l = beta m) via pseudo-remainders in m.  Each
    template case also requires _PREMISES, on which the traces rest."""
    res = SuiteResult("charpoly_catalog")
    d = delta(ALPHA, BETA, L, M)
    skew = THETA + THETA_P  # alpha l - beta m
    x_minus_1 = UPoly([-ONE, ONE])
    x_plus_1 = UPoly([ONE, ONE])
    for name, i, j, k, weight in _FAMILIES:
        seq = _u_seq(weight, kmax)
        for n, (_, cp) in enumerate(_charpolys(i, j, k, 2 * kmax)):
            tmpl = charpoly_template(n, seq, weight)
            res.check(_PREMISES and all((x - y).is_zero()
                                        for x, y in zip(cp.coeffs,
                                                        tmpl.coeffs)),
                      (name, n, "template"))
            # value at 1: delta times the weighted square
            un = u_at(seq, n)
            sq = un * un if n % 2 else weight * un * un
            res.check((cp.eval(ONE) - d * sq).is_zero(),
                      (name, n, "at_one"))
            # value at -1: the doubled-index u
            res.check((cp.eval(-ONE) + skew * u_at(seq, 2 * n)).is_zero(),
                      (name, n, "at_minus_one"))
            if n >= 1:
                # delta = 0 forces the (X - 1) factorization
                quad = UPoly([-ONE, -THETA * u_at(seq, 2 * n), ONE])
                diff = cp - x_minus_1 * quad
                res.check(all(prem(c, d, 3).is_zero()
                              for c in diff.coeffs),
                          (name, n, "delta0_factor"))
                # alpha l = beta m forces the (X + 1) factorization
                quad = UPoly([ONE, -(2 + THETA * sq), ONE])
                diff = cp - x_plus_1 * quad
                res.check(all(prem(c, skew, 3).is_zero()
                              for c in diff.coeffs),
                          (name, n, "skew_factor"))
    return res


def verify_charpoly_even_order():
    """When s2 s3 has even order 2h, the characteristic polynomial of
    t_h = s1 (s2 s3)^h factors as (X + 1)(X^2 - 2(1 - delta/(4 - gamma))X + 1).
    Checked exactly at v-roots of gamma, for each order in _EVEN_ORDERS
    (4 and 6)."""
    res = SuiteResult("charpoly_even_order")
    for order in _EVEN_ORDERS:
        rep = _at_roots({2: root_of_v(order)}, order)
        s1, s2, s3 = rep.gens
        one = s1.one
        _, _, l, m = rep.edge_constants()
        g = l * m
        d = rep.delta()
        h = order // 2
        t = s1 * (s2 * s3) ** h
        cp = t.char_poly()
        c = 2 * (one - d / (4 - g))
        expect = UPoly([one, -c, one]) * UPoly([one, one])
        res.check(all(x == y for x, y in zip(cp.coeffs, expect.coeffs)),
                  (order, "factor"))
    return res


def run_symbolic_suites(kmax):
    """Every check of this module, as one result named section2."""
    res = SuiteResult("section2")
    for part in (verify_power_formulas(kmax), verify_reflection_formulas(kmax),
                 verify_C_generic(kmax), verify_C_conjugates(),
                 verify_half_turns(), verify_half_turn_pairs(),
                 verify_charpoly_catalog(kmax), verify_charpoly_even_order()):
        res.merge(part)
    return res
