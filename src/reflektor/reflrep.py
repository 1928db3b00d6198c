"""Reflection representations attached to decorated diagrams.

A diagram on generators s1..sn carries, for each edge {i, j}, a pair of
weights (k_ij, k_ji): the generator s_i sends the basis vector a_j to
a_j + k_ij a_i (and negates a_i).  Matrices act on coordinate columns and a
word s_{i1} s_{i2} ... multiplies left to right.  Tree edges are decorated
(C, 1); the single cycle edge, when there is one, carries the pair (l, m).

Fixed presets live in presets.json next to this module; the parameterized
families (the circuit diagrams and the n-indexed rank-3 family) are built
in code.
"""

import json
import os
from math import gcd

from .cyclo import CycloElem, field_ctx, to_field
from .matrices import SquareMat, mat_word, pair_C
from .upoly import v_poly

_PRESET_PATH = os.path.join(os.path.dirname(__file__), "presets.json")
_PRESET_DATA = None


class DiagramSpec:
    def __init__(self, rank, edges):
        """edges: dict {(i, j): (k_ij, k_ji)} with 1 <= i < j <= rank."""
        self.rank = rank
        self.edges = dict(edges)
        for (i, j) in self.edges:
            if not (1 <= i < j <= rank):
                raise ValueError("bad edge (%d, %d)" % (i, j))


def rank3_edges(alpha, beta, l, m, one):
    """The fixed rank-3 layout: alpha = k_12 and beta = k_13 with
    k_21 = k_31 = one, and the cycle pair (l, m) on {2, 3}."""
    return {(1, 2): (alpha, one), (1, 3): (beta, one), (2, 3): (l, m)}


def build_generators(spec, one, zero):
    """The rank reflection matrices of spec over any ring: one and zero are
    its unit and zero, and the edge weights are elements of it."""
    n = spec.rank
    weights = {}
    for (i, j), (kij, kji) in spec.edges.items():
        weights[(i, j)] = kij
        weights[(j, i)] = kji

    gens = []
    for i in range(1, n + 1):
        rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
        rows[i - 1][i - 1] = -one
        for j in range(1, n + 1):
            if j != i and (i, j) in weights:
                rows[i - 1][j - 1] = weights[(i, j)]
        gens.append(SquareMat(rows, one, zero))
    return gens


def delta(a, b, l, m):
    """8 - 2 alpha - 2 beta - 2 gamma - (alpha l + beta m) with gamma = l m,
    the degeneracy invariant of the rank-3 diagram, over any ring."""
    g = l * m
    return 8 - 2 * a - 2 * b - 2 * g - (a * l + b * m)


def theta_pair(a, b, l, m):
    """(theta, theta'), whose difference theta' - theta is delta and whose
    sum is alpha l - beta m."""
    g = l * m
    return (-4 + a + b + g + a * l, 4 - a - b - g - b * m)


class ReflectionRep:
    def __init__(self, name, spec, ctx):
        self.name = name
        self.spec = DiagramSpec(
            spec.rank, {e: (to_field(kij, ctx), to_field(kji, ctx))
                        for e, (kij, kji) in spec.edges.items()})
        self.ctx = ctx
        self.gens = build_generators(self.spec, ctx.one(), ctx.zero())
        for i, s in enumerate(self.gens):
            if not (s * s).is_identity():
                raise ValueError("generator s%d is not an involution" % (i + 1))

    @property
    def rank(self):
        return self.spec.rank

    def word(self, indices):
        """Matrix of the word given as 1-based generator indices."""
        return mat_word(self.gens, indices)

    def s0_word(self):
        """The extra reflection of the circuit diagram: s1 conjugated by
        s2 s3 ... s_{n-1}."""
        n = self.rank
        middle = list(range(n - 1, 1, -1)) + [1] + list(range(2, n))
        return middle

    def edge_constants(self):
        """For rank 3: (alpha, beta, l, m) in the fixed layout
        alpha = k_12, beta = k_13, (l, m) on {2, 3}."""
        if self.rank != 3:
            raise ValueError("%s has rank %d; the edge constants and delta "
                             "need rank 3" % (self.name, self.rank))
        absent = (self.ctx.zero(), self.ctx.zero())
        edges = self.spec.edges
        l, m = edges.get((2, 3), absent)
        return edges.get((1, 2), absent)[0], edges.get((1, 3), absent)[0], l, m

    def delta(self):
        return delta(*self.edge_constants())

    def theta_pair(self):
        return theta_pair(*self.edge_constants())

    def pair_C_order(self, s, t, pmax=60):
        """(C, order of s t): the order is read off from which v_p vanishes
        at C; None when no p <= pmax matches (C = 4 means unipotent or
        worse, so infinite order when s t is not the identity)."""
        c = pair_C(s, t)
        if c == 0:
            return c, 2
        for p in range(3, pmax + 1):
            if v_poly(p).eval(c).is_zero():
                return c, p
        return c, None


# -- preset catalog ----------------------------------------------------

def _load_presets():
    global _PRESET_DATA
    if _PRESET_DATA is None:
        with open(_PRESET_PATH) as fh:
            _PRESET_DATA = json.load(fh)
        if _PRESET_DATA.get("version") != 1:
            raise RuntimeError("unsupported presets.json version")
    return _PRESET_DATA


def preset_names():
    data = _load_presets()
    return sorted(data["presets"])


def preset_info(name):
    data = _load_presets()
    if name not in data["presets"]:
        raise KeyError("unknown preset %r" % (name,))
    return data["presets"][name]


def _json_scalar(ctx, data):
    den, vec = data
    return CycloElem(ctx, vec, den)


def preset(name):
    """Build a representation by name.  Fixed names come from presets.json;
    parameterized families are spelled gppn:p:n, gnn3:n[:k] and atilde:n."""
    if ":" in name:
        head, *args = name.split(":")
        if head not in _FAMILIES:
            raise KeyError("unknown parameterized preset family %r" % (head,))
        build, arities, spelling = _FAMILIES[head]
        if len(args) not in arities:
            raise ValueError("%r: the family is spelled %s" % (name, spelling))
        return build(*[int(a) for a in args])
    info = preset_info(name)
    ctx = field_ctx(info["conductor"])
    edges = {}
    for i, j, kij, kji in info["edges"]:
        edges[(i, j)] = (_json_scalar(ctx, kij), _json_scalar(ctx, kji))
    spec = DiagramSpec(info["rank"], edges)
    return ReflectionRep(name, spec, ctx)


def rank3_rep(name, alpha, beta, l, m, conductor):
    spec = DiagramSpec(3, rank3_edges(alpha, beta, l, m, 1))
    return ReflectionRep(name, spec, field_ctx(conductor))


def circuit_rep(p, n):
    """The circuit diagram on n generators whose cycle edge carries
    (zeta_p, zeta_p^-1); the image group is the monomial group of order
    p^(n-1) n!."""
    if p < 2:
        raise ValueError("need p >= 2 (gppn:1:n would be the affine atilde:n)")
    if n < 3:
        raise ValueError("need rank >= 3")
    ctx = field_ctx(p)
    l = ctx.from_fraction(-1) if p == 2 else ctx.zeta(1)
    m = ctx.from_fraction(-1) if p == 2 else ctx.zeta(-1)
    edges = {(i, i + 1): (1, 1) for i in range(1, n)}
    edges[(1, n)] = (l, m)
    spec = DiagramSpec(n, edges)
    return ReflectionRep("gppn:%d:%d" % (p, n), spec, ctx)


def affine_circuit_rep(n):
    """Same circuit with both cycle weights 1; infinite (affine) image."""
    if n < 3:
        raise ValueError("need rank >= 3")
    ctx = field_ctx(1)
    edges = {(i, i + 1): (1, 1) for i in range(1, n)}
    edges[(1, n)] = (1, 1)
    spec = DiagramSpec(n, edges)
    return ReflectionRep("atilde:%d" % n, spec, ctx)


def gnn3_rep(n, k=1):
    """Rank-3 diagram with alpha = beta = 1 and cycle pair
    (-1 - zeta_n^k, -1 - zeta_n^-k); gamma = l m is then the (n, k) v-root
    shifted into place and the image has order 6 n^2."""
    if n < 2:
        raise ValueError("need n >= 2")
    if gcd(k, n) != 1:
        raise ValueError("k must be coprime to n")
    if n == 2:
        return rank3_rep("gnn3:2:%d" % k, 1, 1, 0, 0, 1)
    ctx = field_ctx(n)
    l = -1 - ctx.zeta(k)
    m = -1 - ctx.zeta(-k)
    return rank3_rep("gnn3:%d:%d" % (n, k), 1, 1, l, m, n)


# family name -> (builder, accepted argument counts, spelling)
_FAMILIES = {
    "gppn": (circuit_rep, (2,), "gppn:p:n"),
    "atilde": (affine_circuit_rep, (1,), "atilde:n"),
    "gnn3": (gnn3_rep, (1, 2), "gnn3:n[:k]"),
}
