"""Finite closure of matrix groups over cyclotomic fields, plus element
diagnostics (orders, scalar powers, unipotence, relations, center).

An element x with denominator den is stored as the integer matrix den * x
in first-column form: an int64 array of shape (n*d, n) whose column j
stacks the zeta-coefficient vectors of the entries of column j.  The
denominator is positive and the gcd of it and every entry is 1.  A
generator g with denominator den becomes R(g), the (n*d) x (n*d) integer
matrix whose block (i, k) multiplies by den * g_ik on the power basis of
Z[zeta_N] (Cohen, A Course in Computational Algebraic Number Theory, 4.2),
so the first-column form of g*x is R(g) @ C(x).

The BFS works on base images (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 4.4): x is fixed by x(e_1), .., x(e_n), its
columns, and a finite group moves the basis through few points (240 for
W(H4) against 14,400 elements).  A point is stored exactly, as a
gcd-normalised (den, numerator) keyed by the int64 bytes of that row, so
two points share an id exactly when they are equal, and an element is the
row of the ids of its columns.  Each generator acts on ids through a
table, filled for the points not yet mapped by one matmul per layer for
all generators; a BFS step is a gather.  The ids of a row packed into one
int64 (63 // n bits each, or the row's bytes once the table outgrows that)
are then equal exactly when the elements are, so dedup groups these keys
by a sort.

When every generator is an involution (R(g)^2 = den^2 I, checked exactly)
of determinant -1, det x = (-1)^L on BFS layer L (the sign character;
Humphreys, Reflection Groups and Coxeter Groups, 1.6), so a product g x of
layer L lies in layer L - 1 or L + 1, never in L.  It lies in L - 1
exactly when g y = x for some y of layer L - 1, as g is its own inverse.
So each element keeps a mark, the bitmask of the generators that produced
it (an or over every occurrence of its key), the marked products are
skipped, and every other product is new: the next layer is their distinct
keys, and no earlier layer is searched.  Any other generator set (a det +1
involution, the identity, a non-involution, more than 62 generators)
searches the sorted keys of all earlier layers.  Either way a layer's
elements come in the order of their first occurrence among the products.

A stored finite closure is its rows of ids and the point table; the
first-column forms are built from them on first read.  The center counts
its scalar elements c I on the rows when a mod-p certificate shows that
only scalars commute with the group (Schur's lemma), else it tests every
element's forms.

The guard is the one a matmul of first-column forms would need.  With
peak = max |C(x)| over the frontier and rowsum the largest absolute row
sum of R(g), every product and partial sum of R(g) @ C(x) is an integer of
magnitude at most peak * rowsum.  So the guard bounds the next layer's
first-column forms, and the point products too, whose numerators are at
most peak.  Up to 2^53 a matmul runs in float64 (BLAS), where such
integers are exact whatever the order of summation; up to 2^63 - 1 it
runs in int64; past that the closure raises OverflowError.  int64_steps
still counts the (layer, generator) steps whose bound passes 2^53.

A closure whose point table outgrows its elements (a group of exponential
growth, where nearly every product brings new points) goes on with the
first-column forms themselves, as one matmul per generator and layer and
one bytes key per element, [den | entries] as int64, in a set.

Words, element orders, scalar powers and relations run on the same
representation: an element x is (R(den x), den), gcd-normalised after
every product, a word is the product of its letters' R(g), a power is
taken by squaring, and an order iterates C(x^k) = R(x) C(x^(k-1)).  Their
products take the same guard, (row sum of the left factor) * (max |right
factor|), in three tiers: float64 up to 2^53, int64 up to 2^63 - 1, and
Python ints (object arrays) past that, so an element of infinite order is
followed exactly to its cap and nothing wraps.
"""

from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm

import numpy as np

from .cyclo import CycloElem, ModPMap, _parts
from .matrices import check_word
from .upoly import UPoly, ring_pow

_INT64_MAX = (1 << 63) - 1
_FLOAT_EXACT = 1 << 53  # float64 holds every integer up to here exactly
# past this many elements, a closure whose point table holds more than
# _BYTES_RATIO points an element goes on with first-column forms: past 256
# elements the finite presets and families stay under 1.8 (1.72 for
# g27_d), while rank-3 growth closures keep 2.1 to 3 for good
_BYTES_AFTER = 256
_BYTES_RATIO = 2


class ClosureResult:
    def __init__(self, order, cap_exceeded, stats=None, points=0, rows=None,
                 table=None):
        self.order = order
        self.cap_exceeded = cap_exceeded
        # layers: frontiers multiplied out (for a finite group the last
        # yields nothing new); peak_frontier: the largest of them;
        # max_entry_bits: bit length of the largest coefficient of a
        # frontier's first-column forms, against an int64 budget of 63
        # bits; int64_steps: (layer, generator) steps whose product bound
        # passes 2^53, the float64 limit
        self.stats = stats
        # the size of the point table (at the switch to bytes keys, for a
        # closure that makes it)
        self.points = points
        # a stored finite closure: the (order, n) rows of base-image ids and
        # the point table (num, den) they index, else None
        self.rows, self.table = rows, table

    @cached_property
    def _forms(self):
        if self.rows is None:
            return None, None
        return _element_forms(self.rows, *self.table)

    # (order, n*d, n) int64 first-column forms and their denominators, or
    # None; built from the rows on first read
    elements = property(lambda self: self._forms[0])
    dens = property(lambda self: self._forms[1])

    def __repr__(self):
        tail = " (cap exceeded)" if self.cap_exceeded else ""
        return "<closure order %d%s>" % (self.order, tail)


@lru_cache(maxsize=None)
def _mul_tensor(ctx):
    """(T, top): T[a] = R(zeta^a), the d x d integer matrix of
    multiplication by zeta^a on the power basis, flattened to (d, d * d),
    and top the largest sum_a |T[a]| of an entry."""
    d = ctx.degree
    tensor = np.array([ctx.mul_columns([int(a == b) for b in range(d)])
                       for a in range(d)], dtype=np.int64).transpose(0, 2, 1)
    return tensor.reshape(d, d * d), int(np.abs(tensor).sum(axis=0).max())


def regular_rep(rows, ctx, wide=False):
    """(R, den, rowsum) for a matrix given by rows of CycloElem entries:
    den is the common denominator, R the int64 regular representation of
    den * rows, and rowsum the largest absolute row sum of R.  Block (i, k)
    of R is sum_a v_a T[a], for v the coefficients of den * rows[i][k],
    all blocks in one product.  A rowsum past 2^63 - 1 raises
    OverflowError, unless wide, when R holds Python ints instead.  An
    entry of another conductor raises ValueError."""
    n, d = len(rows), ctx.degree
    parts = [_parts(ctx, x) for row in rows for x in row]
    den = lcm(*(xden for _, xden in parts))
    coeffs = [[c * (den // xden) for c in vec] + [0] * (d - len(vec))
              for vec, xden in parts]
    tensor, top = _mul_tensor(ctx)
    # every entry of a block is a sum of d products, at most this
    wide_sums = max(map(abs, chain(*coeffs))) * top > _INT64_MAX
    dtype = object if wide_sums else np.int64
    blocks = np.array(coeffs, dtype=dtype) @ tensor.astype(dtype)
    mat = blocks.reshape(n, n, d, d).transpose(0, 2, 1, 3) \
        .reshape(n * d, n * d)
    rowsum = _rowsum(mat)
    if rowsum <= _INT64_MAX:
        return mat.astype(np.int64), den, rowsum
    if not wide:
        raise OverflowError("closure entries grew past the int64 guard")
    return mat, den, rowsum


def _peak(batch):
    return max(int(batch.max(initial=0)), -int(batch.min(initial=0)))


def _rowsum(mat):
    """The largest absolute row sum of an integer matrix, exactly."""
    wide = _peak(mat) * mat.shape[-1] > _INT64_MAX
    return int(np.abs(mat).sum(axis=-1, dtype=object if wide else None)
               .max())


def _matmul(a, b, bound, fb=None):
    """a @ b for integer arrays when bound bounds every product and
    partial sum: in float64 up to 2^53, where such integers are exact
    whatever the order of summation, in int64 up to 2^63 - 1, and past
    that in Python ints.  fb may be b as float64."""
    if bound <= _FLOAT_EXACT:
        if fb is None:
            fb = b.astype(np.float64)
        return np.matmul(a.astype(np.float64), fb).astype(np.int64)
    dtype = np.int64 if bound <= _INT64_MAX else object
    return np.matmul(a.astype(dtype, copy=False), b.astype(dtype, copy=False))


def apply_rep(rep, batch, dens, peak=None, fbatch=None):
    """R(g) @ batch for a (X, n*d, n) batch with denominators dens, the
    product denominators, and max |batch|.  Raises OverflowError unless
    max |batch| * rowsum(R) and max(dens) * den fit in int64, which
    bounds every partial sum of the matmul, so the result is exact; below
    2^53 the product is taken in float64.  A caller multiplying one batch
    by several generators may pass its peak and float64 copy."""
    mat, den, rowsum = rep
    if peak is None:
        peak = _peak(batch)
    if peak * rowsum > _INT64_MAX or int(dens.max(initial=0)) * den \
            > _INT64_MAX:
        raise OverflowError("closure entries grew past the int64 guard")
    return _matmul(mat, batch, peak * rowsum, fbatch), dens * den, peak


def _keys(batch, dens):
    """One bytes key per element or point: the int64 bytes of its row
    [den | entries], so every key of a closure has the same width."""
    rows = np.empty((len(batch), 1 + batch[0].size), dtype=np.int64)
    rows[:, 0] = dens
    rows[:, 1:] = batch.reshape(len(batch), -1)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


def _is_involution(*reps):
    """R(g)^2 = den^2 I for every rep, exactly: each g is its own inverse.
    One stacked product for all of them, bounded by max(rowsum, den)^2."""
    mats = np.stack([mat for mat, _, _ in reps])
    bound = max(max(rowsum, den) for _, den, rowsum in reps) ** 2
    squares = _matmul(mats, mats, bound)
    dens = np.array([den * den for _, den, _ in reps], dtype=squares.dtype)
    return np.array_equal(squares, np.eye(mats.shape[1], dtype=squares.dtype)
                          * dens[:, None, None])


def _det_minus_one(reps, d):
    """For involutions: True when there are at most 62 and each has
    determinant -1.  An involution has eigenvalues +-1, so its trace t is
    an integer, the trace of R(g) is d * den * t, and the eigenvalue -1
    has multiplicity (n - t) / 2."""
    return len(reps) <= 62 and all(
        (len(mat) * den - sum(map(int, mat.diagonal()))) // (2 * d * den) % 2
        for mat, den, _ in reps)


def _pack(ids, points):
    """One key per row of point ids: the ids packed into one int64 while
    the table has at most 2^(63 // n) points, else the bytes of the row."""
    n = ids.shape[-1]
    ids = ids.reshape(-1, n)
    bits = 63 // n
    if points <= 1 << bits:
        return ids @ (1 << bits * np.arange(n, dtype=np.int64))
    return np.ascontiguousarray(ids).view(np.dtype((np.void, 8 * n))).ravel()


def _groups(keys):
    """(distinct keys sorted, order, starts): keys[order] is sorted, and
    the run of each distinct key in it begins at starts, so
    np.minimum.reduceat(order, starts) is each key's first occurrence."""
    order = keys.argsort()
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(head)
    return keys[starts], order, starts


def _known(sorted_keys, keys):
    """Which keys occur in sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    pos = sorted_keys.searchsorted(keys)
    pos[pos == len(sorted_keys)] = 0
    return sorted_keys[pos] == keys


def _element_forms(rows, num, den):
    """(first-column forms, dens) of the elements with these rows of ids
    into the points num[:, id] / den[id]."""
    dens = den[rows]
    eden = np.lcm.reduce(dens, axis=1)
    cols = num[:, rows] * (eden[:, None] // dens)
    return np.ascontiguousarray(cols.transpose(1, 0, 2)), eden


def _grown(a, size, fill):
    """a with its last axis grown to size, the new entries fill."""
    out = np.full(a.shape[:-1] + (size,), fill, dtype=a.dtype)
    out[..., :a.shape[-1]] = a
    return out


class _Points:
    """The exact points met so far, each a gcd-normalised (den, numerator)
    with a positive den, and the action of the generators on them: act[g, p]
    is the id of g * p, or -1 until it is needed.  A point is an index of
    the last axis of each array; the arrays grow by doubling, and their
    first len(ids) entries are the points."""

    def __init__(self, n, d, reps, involutions):
        self.ids = {}
        self.num = np.zeros((n * d, 64), dtype=np.int64)
        self.den = np.zeros(64, dtype=np.int64)
        self.top = np.zeros(64, dtype=np.int64)  # max |numerator|
        self.act = np.full((len(reps), 64), -1, dtype=np.int64)
        self.full = False  # every image under every generator is known
        self.rational = True  # every den is 1
        self.stack = np.concatenate([r[0] for r in reps])
        self.dens = np.array([r[1] for r in reps], dtype=np.int64)
        self.rowsums = [r[2] for r in reps]
        self.involutions = involutions
        eye = np.zeros((n, n * d), dtype=np.int64)
        eye[np.arange(n), np.arange(n) * d] = 1
        self.add(eye, np.ones(n, dtype=np.int64))

    def add(self, num, den):
        """Ids of the points num / den (already normalised), adding the
        ones not met before."""
        table, before = self.ids, len(self.ids)
        ids = np.array([table.setdefault(k, len(table))
                        for k in _keys(num, den)], dtype=np.int64)
        size = len(table)
        if size > before:
            if size > len(self.den):
                self.num, self.den, self.top = (
                    _grown(a, 2 * size, 0)
                    for a in (self.num, self.den, self.top))
                self.act = _grown(self.act, 2 * size, -1)
            # new ids are handed out in order, so a row brings a new point
            # exactly when its id passes every id before it
            fresh = ids > np.maximum.accumulate(np.concatenate(
                ([before - 1], ids[:-1])))
            self.num[:, before:size] = num[fresh].T
            self.den[before:size] = den[fresh]
            self.top[before:size] = np.abs(num[fresh]).max(axis=1)
        return ids

    def fill(self, live, used):
        """Compute the missing images of the points used (distinct ids,
        each missing some image) under the first live generators, all in
        one product."""
        gi, at = np.nonzero(self.act[:live, used] < 0)
        nd = len(self.num)
        # the generators' R stacked, as one R of den 1: the dens of the
        # products are the point dens times each generator's den
        out, pden, _ = apply_rep(
            (self.stack[:live * nd], 1, max(self.rowsums[:live])),
            self.num[:, used][None], self.den[used],
            int(self.top[used].max()))
        num = out[0].reshape(live, nd, len(used))[gi, :, at]
        den = self.dens[gi] * pden[at]
        if den.max() > 1:
            g = np.gcd(np.gcd.reduce(num, axis=1), den)
            num //= g[:, None]
            den //= g
            self.rational = self.rational and den.max() == 1
        ids = self.add(num, den)
        self.act[gi, used[at]] = ids
        if self.involutions:  # g * (g * p) = p
            self.act[gi, ids] = used[at]
        self.full = not (self.act[:, :len(self.ids)] < 0).any()

    def forms(self, ids):
        """(first-column forms, dens) of the elements with these rows."""
        return _element_forms(ids, self.num, self.den)

    def rows(self, forms, dens):
        """The rows of ids of elements given as first-column forms, adding
        their points."""
        k, nd, n = forms.shape
        cols = forms.transpose(0, 2, 1).reshape(-1, nd)
        den = np.repeat(dens, n)
        g = np.gcd(np.gcd.reduce(cols, axis=1), den)
        return self.add(cols // g[:, None], den // g).reshape(k, n)


def _grow_bytes(reps, frontier, fdens, seen, stats, total, cap, kept):
    """The BFS continued on first-column forms, one bytes key per element
    in the set seen; returns the order and whether the cap was passed."""
    capped = False
    while len(frontier) and not capped:
        stats["layers"] += 1
        peak = _peak(frontier)
        stats["max_entry_bits"] = max(stats["max_entry_bits"],
                                      peak.bit_length())
        fbatch = frontier.astype(np.float64)
        layer = []
        for rep in reps:
            out, dens, _ = apply_rep(rep, frontier, fdens, peak, fbatch)
            stats["int64_steps"] += peak * rep[2] > _FLOAT_EXACT
            if dens.max() > 1:  # else every gcd with a denominator is 1
                g = np.gcd(np.gcd.reduce(out.reshape(len(out), -1), axis=1),
                           dens)
                out //= g[:, None, None]
                dens //= g
            # k in seen or seen.add(k) is falsy exactly for a key not seen
            # before, and adds it, so repeats within the batch drop too
            fresh = [i for i, k in enumerate(_keys(out, dens))
                     if not (k in seen or seen.add(k))]
            layer.append((out[fresh], dens[fresh]))
            total += len(fresh)
            if total > cap:
                capped = True
                break
        frontier = np.concatenate([a for a, _ in layer])
        fdens = np.concatenate([b for _, b in layer])
        stats["peak_frontier"] = max(stats["peak_frontier"], len(frontier))
        if kept is not None:
            kept.append((frontier, fdens))
    return total, capped


def closure(gens, cap=1_000_000, store_elements=True):
    """Breadth-first closure of the group generated by SquareMat generators
    with CycloElem entries, multiplying each new layer on the left by each
    generator.  Stops once more than cap distinct elements have been
    found, reporting cap_exceeded instead of an order."""
    ctx = gens[0].rows[0][0].ctx
    n, d = gens[0].n, ctx.degree
    reps = [regular_rep(g.rows, ctx) for g in gens]
    involutions = _is_involution(*reps)
    graded = involutions and _det_minus_one(reps, d)
    pts = _Points(n, d, reps, involutions)
    rowsums = pts.rowsums
    frontier = np.arange(n, dtype=np.int64)[None]
    # graded: marks[i] has bit g set when g * frontier[i] lies one layer
    # down, and seen_ids holds the last two layers, for the switch to bytes
    # keys; else seen holds the sorted keys of every element so far, and
    # seen_ids their rows of ids, for a change of key width
    marks = np.zeros(1, dtype=np.int64)
    seen = _pack(frontier, n)
    seen_ids = [frontier]
    kept, tail = [frontier], []
    stats = {"layers": 0, "peak_frontier": 1, "max_entry_bits": 1,
             "int64_steps": 0}
    total = 1
    capped = False
    while len(frontier) and not capped:
        if total >= _BYTES_AFTER and len(pts.ids) > _BYTES_RATIO * total:
            # the points outgrow the elements (a group of exponential
            # growth): go on with one bytes key per element
            seen = set(_keys(*pts.forms(np.concatenate(seen_ids))))
            total, capped = _grow_bytes(
                reps, *pts.forms(frontier), seen, stats, total, cap,
                tail if store_elements else None)
            break
        stats["layers"] += 1
        if pts.rational:
            peak, dmax = int(pts.top[frontier].max()), 1
        else:
            dens = pts.den[frontier]
            fden = np.lcm.reduce(dens, axis=1)
            peak = int((pts.top[frontier] * (fden[:, None] // dens)).max())
            dmax = int(fden.max())
        stats["max_entry_bits"] = max(stats["max_entry_bits"],
                                      peak.bit_length())
        # the generators before the first one whose step the guard refuses
        live = 0
        while live < len(reps) and peak * rowsums[live] <= _INT64_MAX \
                and dmax * reps[live][1] <= _INT64_MAX:
            live += 1
        # (take, unlike act[:live, frontier], gives a C-ordered array)
        out = pts.act[:live].take(frontier, axis=1)
        if not pts.full:
            missing = (out < 0).any(axis=0)
            if missing.any():
                used = np.zeros(len(pts.ids), dtype=bool)
                used[frontier[missing]] = True
                pts.fill(live, np.flatnonzero(used))
                out = pts.act[:live].take(frontier, axis=1)
        out = out.reshape(-1, n)
        width = len(frontier)
        if graded:
            # g * x lies one layer down exactly when bit g of x's mark is
            # set, and one layer up, so new, otherwise
            up = np.flatnonzero((marks >> np.arange(live)[:, None]) & 1 == 0)
            _, order, starts = _groups(_pack(out[up], len(pts.ids)))
            fresh = up[np.minimum.reduceat(order, starts)]
            hits = np.bitwise_or.reduceat(1 << (up[order] // width), starts)
            sort = fresh.argsort()
            fresh, hits = fresh[sort], hits[sort]
        else:
            keys = _pack(out, len(pts.ids))
            if keys.dtype != seen.dtype:  # the ids outgrew one int64
                seen = np.sort(_pack(np.concatenate(seen_ids), len(pts.ids)))
            uniq, order, starts = _groups(keys)
            new = ~_known(seen, uniq)
            fresh = np.sort(np.minimum.reduceat(order, starts)[new])
            seen = np.sort(np.concatenate([seen, uniq[new]]))
        if total + len(fresh) > cap:
            # the cap is checked after each generator's products, in turn
            per_gen = np.cumsum(np.bincount(fresh // width, minlength=live))
            live = int(np.flatnonzero(total + per_gen > cap)[0]) + 1
            # (this ends the closure, so the marks are not cut with it)
            fresh = fresh[fresh < live * width]
            capped = True
        elif live < len(reps):
            raise OverflowError("closure entries grew past the int64 guard")
        stats["int64_steps"] += sum(peak * r > _FLOAT_EXACT
                                    for r in rowsums[:live])
        total += len(fresh)
        nxt = out[fresh]
        stats["peak_frontier"] = max(stats["peak_frontier"], len(nxt))
        if store_elements:
            kept.append(nxt)
        if graded:
            seen_ids, marks = [frontier, nxt], hits
        else:
            seen_ids.append(nxt)
        frontier = nxt
    points = len(pts.ids)
    if capped or not store_elements:
        return ClosureResult(total, capped, stats, points)
    rows = np.concatenate(kept + [pts.rows(*part) for part in tail
                                  if len(part[0])])
    size = len(pts.ids)
    return ClosureResult(total, False, stats, points, rows,
                         (pts.num[:, :size], pts.den[:size]))


class _Elem:
    """An element x as (R, den): R = R(den x), den > 0 and the gcd of den
    and every entry of R is 1.  The form is canonical, since the first
    column of each block of R is the coefficient vector of that entry of
    den x, so x = 1 exactly when den = 1 and R = I, and two elements are
    equal exactly when their forms are.  Products are exact (_matmul under
    apply_rep's bound), so ring_pow powers them.  The same holds for
    first-column forms, R read at columns 0, d, 2d, ..."""
    __slots__ = ("mat", "den")

    def __init__(self, mat, den):
        if den > 1:
            g = gcd(int(np.gcd.reduce(mat, axis=None)), den)
            if g > 1:
                mat, den = mat // g, den // g
        self.mat, self.den = mat, den

    def __mul__(self, other):
        bound = _rowsum(self.mat) * _peak(other.mat)
        return _Elem(_matmul(self.mat, other.mat, bound),
                     self.den * other.den)

    def __eq__(self, other):
        return self.den == other.den and np.array_equal(self.mat, other.mat)


def _forms(mats):
    """The _Elem of each SquareMat (CycloElem entries of one field), that
    of 1, and the field."""
    ctx = mats[0].rows[0][0].ctx
    one = _Elem(np.eye(mats[0].n * ctx.degree, dtype=np.int64), 1)
    return [_form(m, ctx) for m in mats], one, ctx


def _form(mat, ctx):
    """The _Elem of mat over ctx, built once per matrix and field and kept
    in mat.form, so the word functions build a generator set's forms once
    however many words they read over it."""
    if mat.form is None or mat.form[0] is not ctx:
        mat.form = ctx, _Elem(*regular_rep(mat.rows, ctx, wide=True)[:2])
    return mat.form[1]


def element_order(mat, cap=10_000):
    """Multiplicative order, or None when cap is passed first: the
    first-column forms C(x^k) = R(x) C(x^(k-1)) against that of 1."""
    (x,), one, ctx = _forms([mat])
    d, rowsum = ctx.degree, _rowsum(x.mat)
    power, one = _Elem(x.mat[:, ::d], x.den), _Elem(one.mat[:, ::d], 1)
    for k in range(1, cap + 1):
        if power == one:
            return k
        power = _Elem(_matmul(x.mat, power.mat, rowsum * _peak(power.mat)),
                      power.den * x.den)
    return None


def scalar_power_check(mat, k):
    """mat^k when it is a scalar matrix (the scalar as a CycloElem),
    else None."""
    (x,), one, ctx = _forms([mat])
    n, d = mat.n, ctx.degree
    p = ring_pow(x, k, one)
    e = p.mat[:, ::d].reshape(n, d, n)  # [i, a, j]: coefficient a of p_ij
    if np.all(e == e[:1, :, :1] * np.eye(n, dtype=np.int64)[:, None, :]):
        return CycloElem(ctx, [int(c) for c in e[0, :, 0]], p.den)
    return None


def is_unipotent(mat):
    n = mat.n
    target = UPoly([-mat.one, mat.one]) ** n  # (X - 1)^n
    return mat.char_poly() == target


def check_relation(gens, word, exponent=1, rhs_word=None, rhs_exponent=1):
    """Whether (product of gens over word)^exponent equals the identity, or
    equals the analogous right-hand side when rhs_word is given.  Words are
    1-based generator index lists."""
    reps, one, _ = _forms(gens)

    def power(letters, k):
        check_word(letters, len(gens))
        x = one
        for i in letters:
            x = x * reps[i - 1]
        return ring_pow(x, k, one)

    lhs = power(word, exponent)
    return lhs == (one if rhs_word is None else power(rhs_word, rhs_exponent))


def _rank_mod_p(a, p):
    """Rank over F_p of an integer matrix with entries in [0, p), p < 2^31,
    by row reduction."""
    a = a.copy()
    rank = 0
    for c in range(a.shape[1]):
        rows = np.flatnonzero(a[rank:, c])
        if not len(rows):
            continue
        a[[rank, rank + rows[0]]] = a[[rank + rows[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        col = a[:, c].copy()
        col[rank] = 0
        a = (a - col[:, None] * a[rank]) % p
        rank += 1
    return rank


def _commutant_is_scalar(gens, ctx):
    """True when a mod-p certificate shows that only scalar matrices
    commute with every generator, None when it shows nothing.  With
    p = 1 mod N prime to every denominator, zeta_N -> w is a ring map
    Z[zeta_N, 1/den] -> F_p (ModPMap), and the rank of X -> (gX - Xg)_g
    on n x n matrices can only drop under it; the scalars are in its
    kernel, so rank n^2 - 1 mod p is rank n^2 - 1 over Q(zeta_N)."""
    image = ModPMap(ctx.N, above=1 << 20)
    p, n = image.p, gens[0].n
    eye = np.eye(n, dtype=np.int64)
    blocks = []
    for g in gens:
        if any(_parts(ctx, x)[1] % p == 0 for row in g.rows for x in row):
            return None
        m = np.array([[image(x) for x in row] for row in g.rows],
                     dtype=np.int64)
        # row-major vec(g X - X g) = (g (x) I - I (x) g^T) vec(X)
        blocks.append((np.kron(m, eye) - np.kron(eye, m.T)) % p)
    return _rank_mod_p(np.concatenate(blocks), p) == n * n - 1 or None


def _scalar_rows(rows, num, den):
    """How many of these rows of point ids are scalar elements c * I: the
    column j of c * I is the point c * e_j, so each point of the row lies
    on the axis of its column, and all of them have the same den and the
    same coefficients there."""
    n = rows.shape[1]
    blocks = num.reshape(n, -1, num.shape[1])  # [i, a, point]
    on = (blocks != 0).any(axis=1)
    axis = np.where(on.sum(axis=0) == 1, on.argmax(axis=0), -1)
    diag = rows[np.all(axis[rows] == np.arange(n), axis=1)]
    vals = blocks[np.arange(n), :, diag]  # [x, j, a]: the entry c of column j
    return int((np.all(vals == vals[:, :1], axis=(1, 2))
                & np.all(den[diag] == den[diag[:, :1]], axis=1)).sum())


def center_order(result, gens):
    """Size of the centralizer of the generators inside a stored closure.
    When _commutant_is_scalar certifies that only scalars commute with
    the group, Schur's lemma makes that the number of scalar elements,
    counted on the rows of base-image ids.  Otherwise every element is
    tested: x commutes with g when C(g x) = R(g) C(x) is the transpose of
    C((x g)^T) = R(g^T) C(x^T); both products have the denominator
    den(x) den(g), so their numerators are compared as they come out."""
    if result.cap_exceeded:
        raise ValueError("closure stopped at its cap; the center needs "
                         "the whole group")
    if result.rows is None:
        raise ValueError("closure was run without element storage")
    ctx, n = gens[0].rows[0][0].ctx, gens[0].n
    if _commutant_is_scalar(gens, ctx):
        return _scalar_rows(result.rows, *result.table)
    shape = (-1, n, ctx.degree, n)  # [x, i, a, j]: coefficient a of x_ij
    x, dens = result.elements, result.dens
    for g in gens:
        xt = x.reshape(shape).transpose(0, 3, 2, 1).reshape(x.shape)
        peak = _peak(x)
        left = apply_rep(regular_rep(g.rows, ctx), x, dens, peak)[0]
        right = apply_rep(regular_rep(list(zip(*g.rows)), ctx), xt, dens,
                          peak)[0]
        same = np.all(left.reshape(shape)
                      == right.reshape(shape).transpose(0, 3, 2, 1),
                      axis=(1, 2, 3))
        x, dens = x[same], dens[same]
    return len(x)


def monomial_group_order(p, n):
    """Independent enumeration of the monomial model: permutation matrices
    whose nonzero entries are p-th roots of unity with exponents summing to
    0 mod p."""
    from itertools import permutations, product
    seen = set()
    for perm in permutations(range(n)):
        for exps in product(range(p), repeat=n - 1):
            # the last exponent is forced by the determinant condition
            last = (-sum(exps)) % p
            seen.add((perm, exps + (last,)))
    return len(seen)
