"""Reflection representations attached to decorated diagrams.

A diagram on generators s1..sn carries, for each edge {i, j}, a pair of
weights (k_ij, k_ji): the generator s_i sends the basis vector a_j to
a_j + k_ij a_i (and negates a_i), so k_ij is row i, column j of s_i and a
ReflectionRep keeps the generators alone.  Matrices act on coordinate
columns and a word s_{i1} s_{i2} ... multiplies left to right.  Tree edges
are decorated (C, 1); the single cycle edge, when there is one, carries
the pair (l, m).

Fixed presets are one table of small builders, _PRESETS, run when a preset
is asked for; the parameterized families (the circuit diagrams and the
n-indexed rank-3 family) are built in code.
"""

import re
from math import gcd

from .cyclo import field_ctx, named_constant, to_field
from .matrices import SquareMat, mat_word, pair_C


def rank3_edges(alpha, beta, l, m):
    """The fixed rank-3 layout: alpha = k_12 and beta = k_13 with
    k_21 = k_31 = 1, and the cycle pair (l, m) on {2, 3}."""
    return {(1, 2): (alpha, 1), (1, 3): (beta, 1), (2, 3): (l, m)}


def build_generators(rank, edges, one, zero):
    """The rank reflection matrices of the diagram with edges
    {(i, j): (k_ij, k_ji)}, 1 <= i < j <= rank, over any ring: one and zero
    are its unit and zero, and the weights are elements of it or ints.
    Only row i of s_i differs from the identity, -1 at i and k_ij at j, so
    every s_i is an involution for every weight in any commutative ring:
    (s_i^2)_ii = (-1)(-1) = 1 and (s_i^2)_ij = -k_ij + k_ij = 0."""
    ident = SquareMat.identity(rank, one, zero).rows
    own = [[-one if r == c else zero for c in range(rank)]
           for r in range(rank)]  # own[i - 1] is row i of s_i
    for (i, j), (kij, kji) in edges.items():
        if not 1 <= i < j <= rank:
            raise ValueError("bad edge (%d, %d)" % (i, j))
        own[i - 1][j - 1], own[j - 1][i - 1] = kij, kji
    return [SquareMat(ident[:r] + (row,) + ident[r + 1:], one, zero)
            for r, row in enumerate(own)]


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
    def __init__(self, name, rank, edges, ctx):
        self.name = name
        self.ctx = ctx
        self.gens = build_generators(
            rank, {e: (to_field(kij, ctx), to_field(kji, ctx))
                   for e, (kij, kji) in edges.items()},
            ctx.one(), ctx.zero())

    @property
    def rank(self):
        return len(self.gens)

    def weight(self, i, j):
        """k_ij (1-based, i != j), read off row i of s_i; 0 off the diagram."""
        return self.gens[i - 1].rows[i - 1][j - 1]

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
        alpha = k_12, beta = k_13, (l, m) on {2, 3}; ValueError unless
        k_21 = k_31 = 1, since delta and theta read no other layout."""
        if self.rank != 3:
            raise ValueError("%s has rank %d; the edge constants and delta "
                             "need rank 3" % (self.name, self.rank))
        if self.weight(2, 1) != 1 or self.weight(3, 1) != 1:
            raise ValueError("%s has k_21 or k_31 other than 1; the edge "
                             "constants and delta need it" % self.name)
        return (self.weight(1, 2), self.weight(1, 3), self.weight(2, 3),
                self.weight(3, 2))

    def delta(self):
        return delta(*self.edge_constants())

    def theta_pair(self):
        return theta_pair(*self.edge_constants())


# -- preset catalog ----------------------------------------------------

# The named_constant arguments of the builders over each conductor.
_CONSTANTS = {1: (), 5: ("tau",), 7: ("zeta7_half",), 15: ("tau", "omega")}

# name -> (conductor, rank, builder).  A rank-3 builder returns
# (alpha, beta, l, m) for rank3_rep; a rank-4 builder returns the edges
# {(i, j): (k_ij, k_ji)}.  The comments give the orders of s1 s2, s1 s3 and
# s2 s3 (or the chain or triangle) and the group order.
_PRESETS = {
    # W(H3) over Q(zeta_5), t = tau = (3 + sqrt5)/2: order 120
    "h3_coxeter": (5, 3, lambda t: (1, t, 0, 0)),  # (3,5,2) chain
    "h3_552": (5, 3, lambda t: (t, 3 - t, 0, 0)),  # (5,5,2) chain
    "h3_335": (5, 3, lambda t: (1, 1, 1 - t, 1 - t)),  # (3,3,5), gamma = t
    "h3_553a": (5, 3, lambda t: (t, t, -1, -1)),  # (5,5,3), gamma = 1
    "h3_553b": (5, 3, lambda t: (t, 3 - t, t - 3, -t)),  # (5,5,3), other
    "h3_555": (5, 3, lambda t: (t, t, 1 - t, 1 - t)),  # (5,5,5), gamma = t
    # small rational cycles with gamma = 1
    "cor9_a3": (1, 3, lambda: (1, 1, -1, -1)),  # (3,3,3): S4, order 24
    "cor9_b3": (1, 3, lambda: (2, 2, -1, -1)),  # (4,4,3): B3, order 48
    "cor9_g2t": (1, 3, lambda: (3, 3, -1, -1)),  # (6,6,3): affine, infinite
    # W(H4) over Q(zeta_5): order 14400
    "h4_1": (5, 4, lambda t: {  # chain 3-3-5
        (1, 2): (1, 1), (2, 3): (1, 1), (3, 4): (t, 1)}),
    "h4_2": (5, 4, lambda t: {  # chain 3-5-5
        (1, 2): (1, 1), (2, 3): (t, 1), (3, 4): (3 - t, 1)}),
    "h4_3": (5, 4, lambda t: {  # triangle on s2 s3 s4, gamma = t
        (1, 2): (1, 1), (2, 3): (1, 1), (2, 4): (t, 1), (3, 4): (-t, -1)}),
    "h4_4": (5, 4, lambda t: {  # triangle on s2 s3 s4, gamma = 3 - t
        (1, 2): (1, 1), (2, 3): (1, 1), (2, 4): (t, 1), (3, 4): (-1, t - 3)}),
    "h4_5": (5, 4, lambda t: {  # triangle on s2 s3 s4, gamma = t
        (1, 2): (1, 1), (2, 3): (1, 1), (2, 4): (1, 1),
        (3, 4): (1 - t, 1 - t)}),
    "h4_oracle": (5, 4, lambda t: {  # symmetric chain 3-3-5, a cross-check
        (1, 2): (1, 1), (2, 3): (1, 1), (3, 4): (t - 1, t - 1)}),
    # G24 over Q(zeta_7), z = (1 + i sqrt7)/2, a root of X^2 - X + 2: 336
    "g24_334": (7, 3, lambda z: (1, 1, -z, z - 1)),  # gamma = 2
    "g24_443": (7, 3, lambda z: (2, 2, (z - 2) / 2, (-1 - z) / 2)),  # 1
    "g24_444": (7, 3, lambda z: (2, 2, (-2 - z) / 2, (z - 3) / 2)),  # 2
    # G27 over Q(zeta_15), t = tau and w = omega = zeta_3: order 2160
    "g27_a": (15, 3, lambda t, w: (  # (3,3,5), gamma = t
        1, 1, w * (t - 1), w * w * (t - 1))),
    "g27_b": (15, 3, lambda t, w: (  # (3,4,5), gamma = t
        1, 2, -w - t, (-w * w - t) / 2)),
    "g27_c": (15, 3, lambda t, w: (  # (3,4,5), the other decoration
        1, 2, w * w + w * t, (w + w * w * t) / 2)),
    "g27_d": (15, 3, lambda t, w: (  # (5,5,3), gamma = 1
        t, 3 - t, w * (3 - t), w * w * t)),
    "g27_e": (15, 3, lambda t, w: (  # (5,5,4), gamma = 2
        t, t, w * (t - 1) + w * w, w * w * (t - 1) + w)),
    "g27_f": (15, 3, lambda t, w: (  # (4,4,5), gamma = t
        2, 2, (w - t) / 2, (w * w - t) / 2)),
    "g27_g": (15, 3, lambda t, w: (  # (3,3,4), gamma = 2
        1, 1, w * (t - 1) + w * w, w * w * (t - 1) + w)),
}


def preset_names():
    return sorted(_PRESETS)


def preset_constants(name):
    """The named constants of a fixed preset's builder, in its field."""
    conductor = _PRESETS[name][0]
    return tuple(named_constant(c, conductor) for c in _CONSTANTS[conductor])


def preset(name):
    """Build a representation by name.  Fixed names come from _PRESETS;
    parameterized families are spelled gppn:p:n, gnn3:n[:k] and atilde:n."""
    if ":" in name:
        head, *args = name.split(":")
        if head not in _FAMILIES:
            raise KeyError("unknown parameterized preset family %r" % (head,))
        build, arities, spelling = _FAMILIES[head]
        if len(args) not in arities or not all(
                re.fullmatch(r"-?\d+", a) for a in args):
            raise ValueError("%r: the family is spelled %s" % (name, spelling))
        return build(*[int(a) for a in args])
    if name not in _PRESETS:
        raise KeyError("unknown preset %r" % (name,))
    conductor, rank, build = _PRESETS[name]
    made = build(*preset_constants(name))
    if rank == 3:
        return rank3_rep(name, *made, conductor)
    return ReflectionRep(name, rank, made, field_ctx(conductor))


def rank3_rep(name, alpha, beta, l, m, conductor):
    return ReflectionRep(name, 3, rank3_edges(alpha, beta, l, m),
                         field_ctx(conductor))


def _circuit(name, n, l, m, ctx):
    """The chain s1 - s2 - ... - sn, each edge (1, 1), closed into a
    circuit by the cycle edge {1, n} carrying (l, m)."""
    if n < 3:
        raise ValueError("need rank >= 3")
    edges = {(i, i + 1): (1, 1) for i in range(1, n)}
    edges[(1, n)] = (l, m)
    return ReflectionRep(name, n, edges, ctx)


def circuit_rep(p, n):
    """The circuit diagram on n generators whose cycle edge carries
    (zeta_p, zeta_p^-1); the image group is the monomial group of order
    p^(n-1) n!."""
    if p < 2:
        raise ValueError("need p >= 2 (gppn:1:n would be the affine atilde:n)")
    ctx = field_ctx(p)
    return _circuit("gppn:%d:%d" % (p, n), n, ctx.zeta(1), ctx.zeta(-1), ctx)


def affine_circuit_rep(n):
    """Same circuit with both cycle weights 1; infinite (affine) image."""
    return _circuit("atilde:%d" % n, n, 1, 1, field_ctx(1))


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
