"""Property-based checks for the arithmetic layers."""

import operator
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reflektor.cyclo import (CycloElem, ModPMap, classification_search,
                             field_ctx, galois_norm, root_of_v,
                             power_basis_coords, u_value_seq)
from reflektor.identities import (ALL_TAGS, FOUR_MINUS_X, IDENTITIES, Ring,
                                  certify)
from reflektor import engine
from reflektor.engine import (_keys, apply_rep, check_relation, closure,
                              element_order, regular_rep, scalar_power_check)
from reflektor.matrices import SquareMat, mat_word, pair_C
from reflektor.mpoly import ALPHA, MPoly
from reflektor.reflrep import build_generators, preset, preset_names, rank3_rep
from reflektor.suites import _GROUPS
from reflektor.sympoly import GENS
from reflektor.upoly import UPoly, X, euler_phi, u_poly

rationals = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 4))

small_polys = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=6
).map(UPoly)


def cyclo_elems(n):
    ctx = field_ctx(n)

    def build(nums, den):
        vec = [Fraction(c, den) for c in nums]
        acc = ctx.zero()
        p = ctx.one()
        z = ctx.zeta(1)
        for c in vec:
            acc = acc + p * ctx.from_fraction(c)
            p = p * z
        return acc

    return st.builds(
        build,
        st.lists(st.integers(min_value=-20, max_value=20),
                 min_size=ctx.degree, max_size=ctx.degree),
        st.integers(min_value=1, max_value=12))


@given(small_polys, small_polys, small_polys)
def test_upoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys, rationals)
def test_upoly_eval_is_ring_hom(a, b, x):
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


@given(st.integers(min_value=-40, max_value=40))
def test_u_odd_symmetry(n):
    assert u_poly(-n) == -u_poly(n)


@settings(max_examples=30)
@given(cyclo_elems(7), cyclo_elems(7))
def test_cyclo_field_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x * (x + y) == x * x + x * y
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=30)
@given(cyclo_elems(5), cyclo_elems(5))
def test_galois_norm_multiplicative(x, y):
    assert galois_norm(x * y) == galois_norm(x) * galois_norm(y)


@settings(max_examples=30)
@given(cyclo_elems(5))
def test_lift_preserves_arithmetic(x):
    big = field_ctx(15)
    assert (x * x).lift(big) == x.lift(big) * x.lift(big)
    assert (x + 1).lift(big) == x.lift(big) + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 12]), st.data())
def test_conj_is_the_galois_map_of_minus_one(n, data):
    ctx = field_ctx(n)
    x = data.draw(cyclo_elems(n))
    assert x.conj() == x.galois(n - 1)
    assert x.conj().conj() == x
    assert (x * ctx.zeta(1)).conj() == x.conj() * ctx.zeta(-1)
    if n <= 2:
        # Q(zeta_1) = Q(zeta_2) = Q: conjugation fixes every element
        assert x.conj() == x


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 5, 7, 12]),
       st.one_of(st.integers(-30, 30), rationals), st.data())
def test_rational_operands_act_as_field_constants(n, q, data):
    ctx = field_ctx(n)
    qx = ctx.from_fraction(q)
    x = data.draw(st.one_of(cyclo_elems(n), rationals.map(ctx.from_fraction),
                            st.just(qx), st.just(ctx.zero())))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        pairs = []
        if op is not operator.truediv or q != 0:
            pairs.append((op(x, q), op(x, qx)))
        if op is not operator.truediv or not x.is_zero():
            pairs.append((op(q, x), op(qx, x)))
        for got, ref in pairs:
            assert type(got) is CycloElem and got.ctx.N == n
            assert (got.vec, got.den) == (ref.vec, ref.den)
    expect = x.is_rational() and x.to_fraction() == q
    assert (x == q) == expect and (q == x) == expect


# -- the cyclotomic kernel: folded reduction, fused dot, norm ------------

@pytest.mark.parametrize("n", range(1, 65))
def test_reduce_matches_division_by_phi(n):
    """Fold plus sparse synthetic division against the remainder of
    UPoly division by Phi_N, for vectors up to 3N long, so the fold runs
    more than once."""
    ctx = field_ctx(n)
    d = ctx.degree
    rng = random.Random(n)
    for length in sorted({0, 1, d - 1, d, d + 1, 2 * d - 1, n, n + 1,
                          2 * n, 3 * n}):
        vec = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(length)]
        rem = divmod(UPoly(vec), ctx.phi_poly)[1].coeffs
        assert ctx.reduce(vec) == rem + (0,) * (d - len(rem)), length


def _scalars(n):
    """ints, Fractions and elements of Q(zeta_n) with and without a
    denominator, zero among them."""
    ctx = field_ctx(n)
    return st.one_of(st.integers(-30, 30), rationals, cyclo_elems(n),
                     st.just(ctx.zero()), st.just(0))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 5, 7, 8, 12]), st.integers(0, 5), st.data())
def test_dot_matches_sum_of_products(n, length, data):
    ctx = field_ctx(n)
    xs = data.draw(st.lists(_scalars(n), min_size=length, max_size=length))
    ys = data.draw(st.lists(_scalars(n), min_size=length, max_size=length))
    ref = ctx.zero()
    for x, y in zip(xs, ys):
        ref = ref + x * y
    got = ctx.dot(xs, ys)
    assert type(got) is CycloElem and got.ctx is ctx
    assert (got.vec, got.den) == (ref.vec, ref.den)


def _loop_product(a, b):
    """The entrywise accumulation loop SquareMat.__mul__ used to run, the
    reference for its sum_ring entries."""
    n = a.n
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(1, n)),
                 a.rows[i][0] * b.rows[0][j]) for j in range(n)]
            for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["int", "fraction", 1, 5, 7, 12]),
       st.integers(1, 4), st.data())
def test_matrix_product_matches_entry_loop(kind, n, data):
    entries, one, zero = _entry_ring(kind)
    a, b = (SquareMat([data.draw(st.lists(entries, min_size=n, max_size=n))
                       for _ in range(n)], one, zero) for _ in range(2))
    got, ref = (a * b).rows, _loop_product(a, b)
    assert [list(r) for r in got] == ref
    assert [[type(x) for x in r] for r in got] == \
        [[type(x) for x in r] for r in ref]


def test_negative_matrix_power_is_refused():
    rep = preset("g27_a")
    with pytest.raises(ValueError):
        rep.gens[0] ** -1
    # a reflection word inverts by reversal instead
    assert (rep.word([1, 2, 3]) * rep.word([3, 2, 1])).is_identity()


def _conjugate_norm(x):
    """The product of all Galois conjugates of x, the reference for
    galois_norm."""
    n = x.ctx.N
    if n <= 2:
        return Fraction(x.vec[0], x.den)
    out = x.ctx.one()
    for j in range(1, n):
        if gcd(j, n) == 1:
            out = out * x.galois(j)
    return out.to_fraction()


def _padded(n, nums, den):
    """nums / den in Q(zeta_n), nums padded with zeros to the degree."""
    ctx = field_ctx(n)
    return CycloElem(ctx, (nums + [0] * ctx.degree)[:ctx.degree], den)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 30]).flatmap(
    lambda n: st.one_of(cyclo_elems(n), st.just(field_ctx(n).zero()))))
@example(_padded(12, [], 1))                 # x = 0
@example(_padded(15, [-7], 5))               # rational, field of degree 8
@example(_padded(16, [3, 0, -2, 0], 4))      # trailing zeros, den > 1
@example(_padded(21, [0, 0, 0, 0, 0, 1], 1))
@example(_padded(5, [1, 1, 0, 1], 3))
def test_galois_norm_matches_conjugate_product(x):
    got = galois_norm(x)
    assert type(got) is Fraction
    assert got == _conjugate_norm(x)


def test_constants_hash_like_the_scalars_they_equal():
    ctx = field_ctx(5)
    for const, scalar in [(ctx.one(), 1), (ctx.zero(), 0),
                          (ctx.from_fraction(Fraction(-2, 3)),
                           Fraction(-2, 3)),
                          (MPoly.const(3), 3), (MPoly(), 0),
                          (UPoly([3]), 3), (UPoly(), 0)]:
        assert const == scalar
        assert len({const, scalar}) == 1, const
    # rational elements of two conductors are equal as their Fractions
    assert len({ctx.from_fraction(2), field_ctx(7).from_fraction(2)}) == 1


# -- exact division: the int kernel against the Fraction path ------------

def _upoly_of(cs):
    """UPoly(cs) with every integral Fraction turned into an int: the
    references compute in Q, the kernels they check in Z, so this keeps a
    comparison of coefficient types meaningful."""
    return UPoly([int(c) if type(c) is Fraction and c.denominator == 1
                  else c for c in cs])


def _fraction_divmod(a, b):
    """Long division over Fraction, the reference for UPoly.__divmod__;
    a and b are coefficient sequences, ascending."""
    rem = [Fraction(c) for c in a]
    lead = Fraction(b[-1])
    dn = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1 - dn, -1, -1):
        c = rem[i + dn] / lead
        if c:
            quo[i] = c
            for j, bc in enumerate(b):
                rem[i + j] -= c * bc
    return _upoly_of(quo), _upoly_of(rem[:dn] if dn > 0 else [])


def _same(p, q):
    return p.coeffs == q.coeffs and \
        [type(c) for c in p.coeffs] == [type(c) for c in q.coeffs]


int_coeffs = st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
                      max_size=14)
unit_divisors = st.builds(lambda low, lead: UPoly(low + [lead]),
                          st.lists(st.integers(-10 ** 6, 10 ** 6),
                                   max_size=7),
                          st.sampled_from([1, -1]))


@given(int_coeffs.map(UPoly), unit_divisors)
def test_int_divmod_matches_fraction_path(a, b):
    q, r = divmod(a, b)
    fq, fr = _fraction_divmod(a.coeffs, b.coeffs)
    assert _same(q, fq) and _same(r, fr)
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    assert q * b + r == a


REFUSED = "int coefficients and a divisor with leading coefficient"


@given(int_coeffs, st.lists(st.integers(-50, 50), max_size=5),
       st.integers(-9, 9).filter(lambda c: c not in (-1, 0, 1)))
def test_non_unit_divisor_is_refused(a, low, lead):
    """An int divisor whose leading coefficient is not +1 or -1 is refused,
    and so is the zero divisor."""
    for den in (UPoly(low + [lead]), UPoly()):
        with pytest.raises(ValueError, match=REFUSED):
            divmod(UPoly(a), den)


@given(int_coeffs, st.lists(st.integers(-50, 50), max_size=5),
       st.sampled_from([1, -1]), rationals.filter(bool), st.data())
def test_fraction_operands_are_refused(a, low, unit, q, data):
    """A divisor or a dividend that is not an int polynomial is refused,
    even when the divisor is monic; one Fraction coefficient is enough,
    even an integral one."""
    def with_fraction(cs):
        i = data.draw(st.integers(0, len(cs)))
        return UPoly(cs[:i] + [q] + cs[i:])

    for num, den in ((UPoly(a), with_fraction(low + [unit])),
                     (with_fraction(a), UPoly(low + [unit]))):
        with pytest.raises(ValueError, match=REFUSED):
            divmod(num, den)


def test_cyclo_coefficients_are_still_refused():
    ctx = field_ctx(5)
    with pytest.raises(ValueError, match=REFUSED):
        divmod(UPoly([ctx.zeta(1), ctx.one()]), UPoly([1, 1]))
    with pytest.raises(ValueError, match=REFUSED):
        divmod(UPoly([1, 2, 3]), UPoly([ctx.zeta(1), ctx.one()]))
    with pytest.raises(ValueError, match=REFUSED):
        divmod(UPoly([MPoly.var(0), 1]), UPoly([1, 1]))


# -- fraction-free solver: inverse and power-basis coordinates -----------

def _euclid_inverse(x):
    """x^(-1) by the extended Euclid algorithm over Fraction."""
    r0, t0 = x.ctx.phi_poly, UPoly()
    r1, t1 = UPoly([Fraction(c, x.den) for c in x.vec]), UPoly([1])
    while r1.degree > 0:
        q, r2 = _fraction_divmod(r0.coeffs, r1.coeffs)
        r0, t0, r1, t1 = r1, t1, r2, t0 - q * t1
    acc = x.ctx.zero()
    for i, c in enumerate(t1.coeffs):
        acc = acc + x.ctx.zeta(i) * (Fraction(c) / r1.constant())
    return acc


def _gauss_jordan_coords(x, gen, dim):
    """power_basis_coords by Gauss-Jordan elimination over Fraction."""
    d = x.ctx.degree
    cols = []
    p = x.ctx.one()
    for _ in range(dim):
        cols.append([Fraction(c, p.den) for c in p.vec])
        p = p * gen
    aug = [[cols[j][i] for j in range(dim)] + [Fraction(x.vec[i], x.den)]
           for i in range(d)]
    row = 0
    pivots = []
    for col in range(dim):
        piv = next((r for r in range(row, d) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [c / aug[row][col] for c in aug[row]]
        for r in range(d):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [c - f * pc for c, pc in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    if any(aug[r][dim] != 0 for r in range(row, d)):
        return None
    coords = [Fraction(0)] * dim
    for r, col in enumerate(pivots):
        coords[col] = aug[r][dim]
    return coords


field_elems = st.sampled_from([5, 7, 12]).flatmap(cyclo_elems)
field_pairs = st.sampled_from([5, 7, 12]).flatmap(
    lambda n: st.tuples(cyclo_elems(n), cyclo_elems(n)))


@settings(max_examples=60, deadline=None)
@given(field_elems)
def test_inverse_matches_euclid(x):
    if x.is_zero():
        return
    inv = x.inverse()
    assert x * inv == 1
    assert inv == _euclid_inverse(x)


@settings(max_examples=60, deadline=None)
@given(field_pairs, st.data())
def test_power_basis_coords_matches_gauss_jordan(pair, data):
    x, gen = pair
    dim = data.draw(st.integers(0, x.ctx.degree))
    assert power_basis_coords(x, gen, dim) == _gauss_jordan_coords(x, gen, dim)
    # a point of the span: its coordinates exist and are found
    coords = data.draw(st.lists(rationals, min_size=dim, max_size=dim))
    y, p = x.ctx.zero(), x.ctx.one()
    for c in coords:
        y, p = y + p * c, p * gen
    got = power_basis_coords(y, gen, dim)
    assert got is not None
    assert got == _gauss_jordan_coords(y, gen, dim)
    acc, p = x.ctx.zero(), x.ctx.one()
    for c in got:
        acc, p = acc + p * c, p * gen
    assert acc == y


# -- characteristic polynomial: Berkowitz against Faddeev-LeVerrier ------

def _faddeev_char_poly(mat):
    """Faddeev-LeVerrier, the reference for SquareMat.char_poly: with
    M_1 = M, c_k = -trace(M_k) / k and M_(k+1) = M (M_k + c_k I), the char
    poly is X^n + c_1 X^(n-1) + ... + c_n.  It divides by k, so the entries
    must mix with Fractions.  The c_k of an int matrix are integral and are
    brought back to ints; a Fraction or CycloElem matrix keeps its type."""
    n, one, zero = mat.n, mat.one, mat.zero
    ints = all(type(x) is int for row in mat.rows for x in row)
    cs, mk = [], mat
    for k in range(1, n + 1):
        ck = mk.trace() * Fraction(-1, k)
        cs.append(ck)
        if k < n:
            shifted = SquareMat([[x + ck * one if i == j else x + ck * zero
                                  for j, x in enumerate(row)]
                                 for i, row in enumerate(mk.rows)], one, zero)
            mk = mat * shifted
    cs = cs[::-1] + [one]
    return _upoly_of(cs) if ints else UPoly(cs)


def _entry_ring(kind):
    """Entries, one and zero of a matrix over ints, Fractions or
    Q(zeta_kind)."""
    if kind == "int":
        return st.integers(-30, 30), 1, 0
    if kind == "fraction":
        return rationals, 1, 0
    ctx = field_ctx(kind)
    return cyclo_elems(kind), ctx.one(), ctx.zero()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["int", "fraction", 1, 5, 7, 12]),
       st.integers(1, 5), st.data())
def test_char_poly_matches_faddeev(kind, n, data):
    entries, one, zero = _entry_ring(kind)
    flat = data.draw(st.lists(entries, min_size=n * n, max_size=n * n))
    mat = SquareMat([flat[i * n:(i + 1) * n] for i in range(n)], one, zero)
    assert _same(mat.char_poly(), _faddeev_char_poly(mat))


def test_symbolic_coefficients_stay_ints():
    words = [[1], [1, 2]] + [[1] + [2, 3] * n for n in (1, 2, 3)]
    values = list(u_value_seq(ALPHA, 20))
    for word in words:
        values += mat_word(GENS, word).char_poly().coeffs
    coeffs = [c for x in values
              for c in (x.terms.values() if isinstance(x, MPoly) else [x])]
    assert all(type(c) is int for c in coeffs)


# -- MPoly sums and products: the fast paths against the term loop ------

def _term_loop(a, b, mul):
    """The terms of a * b or a + b, one pair or one term at a time."""
    if mul:
        items = [(tuple(map(operator.add, e1, e2)), c1 * c2)
                 for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()]
    else:
        items = list(a.terms.items()) + list(b.terms.items())
    out = {}
    for e, c in items:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


exponents = st.tuples(*[st.integers(0, 2)] * 4)
mpolys = st.one_of(
    st.just(MPoly()),
    st.integers(-3, 3).map(MPoly.const),
    st.dictionaries(exponents, st.integers(-4, 4), max_size=5).map(MPoly),
    # Laurent numerators, as identities builds them
    st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 4), st.integers(-4, 4),
                    max_size=5).map(MPoly),
    # one term that is not a constant
    st.tuples(exponents.filter(any), st.integers(-4, 4).filter(bool))
    .map(lambda t: MPoly({t[0]: t[1]})))


@settings(max_examples=300, deadline=None)
@given(mpolys, st.one_of(mpolys, st.integers(-3, 3)), st.booleans())
def test_mpoly_fast_paths_match_the_term_loop(a, b, mul):
    before = dict(a.terms), dict(getattr(b, "terms", {}))
    got = a * b if mul else a + b
    assert got.terms == _term_loop(a, MPoly.const(b) if isinstance(b, int)
                                   else b, mul)
    assert (a.terms, getattr(b, "terms", {})) == before
    assert (b * a if mul else b + a) == got


# -- closure kernel: R(g) @ batch against Python ints ---------------------

INT64_MAX = (1 << 63) - 1


def _entry(col, a, d):
    return [int(c) for c in col[a * d:(a + 1) * d]]


def _reference_products(rows, batch):
    """den(g) * g * x for each x of a (X, n*d, n) integer batch, in Python
    ints through CycloElem products, in the same first-column layout."""
    ctx = rows[0][0].ctx
    n, d = len(rows), ctx.degree
    den = lcm(*(x.den for row in rows for x in row))
    out = []
    for x in batch:
        xs = [[CycloElem(ctx, _entry(x[:, j], k, d)) for j in range(n)]
              for k in range(n)]
        col = [[0] * n for _ in range(n * d)]
        for i in range(n):
            for j in range(n):
                acc = ctx.zero()
                for k in range(n):
                    acc = acc + rows[i][k] * den * xs[k][j]
                assert acc.den == 1
                for a, c in enumerate(acc.vec):
                    col[i * d + a][j] = c
        out.append(col)
    return out


def _peak(batch):
    return max(abs(int(c)) for c in batch.ravel())


def kernel_cases(n_cond):
    """(rows, batch): an n x n generator over Q(zeta_N) and a random batch
    whose largest entry is the largest the guard lets through, or one
    more."""
    n, cond = n_cond
    ctx = field_ctx(cond)
    m = n * ctx.degree

    def build(entries, cells, over):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        rowsum = regular_rep(rows, ctx)[2]
        peak = min(INT64_MAX // max(rowsum, 1) + over, INT64_MAX)
        batch = np.array([[[peak * f // 1000 for f in row] for row in x]
                          for x in cells], dtype=np.int64)
        batch.flat[0] = peak
        return rows, batch

    cell_rows = st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
    return st.builds(
        build,
        st.lists(cyclo_elems(cond), min_size=n * n, max_size=n * n),
        st.lists(st.lists(cell_rows, min_size=m, max_size=m),
                 min_size=1, max_size=3),
        st.sampled_from([0, 1]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (2, 5), (3, 7), (3, 12)])
       .flatmap(kernel_cases))
def test_kernel_step_is_exact_or_raises(case):
    rows, batch = case
    rep = regular_rep(rows, rows[0][0].ctx)
    dens = np.arange(1, len(batch) + 1, dtype=np.int64)
    within = _peak(batch) * rep[2] <= INT64_MAX
    try:
        out, out_dens, peak = apply_rep(rep, batch, dens)
    except OverflowError:
        assert not within
        return
    assert within
    assert peak == _peak(batch)
    assert out.tolist() == _reference_products(rows, batch)
    assert out_dens.tolist() == [int(x) * rep[1] for x in dens]


@settings(max_examples=30, deadline=None)
@given(st.lists(cyclo_elems(5), min_size=4, max_size=4),
       st.sampled_from([0, 1]))
def test_kernel_step_at_the_bound(entries, over):
    # a column aligned with the signs of R's heaviest row reaches
    # peak * rowsum exactly: the largest value passes exactly, one more
    # step of peak would wrap and raises instead
    ctx = field_ctx(5)
    rows = [entries[:2], entries[2:]]
    rep = regular_rep(rows, ctx)
    mat, den, rowsum = rep
    assume(rowsum > 1)
    r = max(range(len(mat)), key=lambda i: int(np.abs(mat[i]).sum()))
    peak = INT64_MAX // rowsum + over
    col = [peak * (1 if c >= 0 else -1) for c in mat[r].tolist()]
    batch = np.array([[[c, 0] for c in col]], dtype=np.int64)
    true = sum(int(a) * b for a, b in zip(mat[r].tolist(), col))
    assert true == peak * rowsum
    one = np.ones(1, dtype=np.int64)
    if over:
        with pytest.raises(OverflowError):
            apply_rep(rep, batch, one)
    else:
        out = apply_rep(rep, batch, one)[0]
        assert int(out[0, r, 0]) == true
        assert out.tolist() == _reference_products(rows, batch)


def test_kernel_guards_the_denominator():
    ctx = field_ctx(5)
    half = ctx.from_fraction(Fraction(1, 2))
    rep = regular_rep([[half, ctx.zero()], [ctx.zero(), ctx.one()]], ctx)
    batch = np.zeros((1, 8, 2), dtype=np.int64)
    top = np.array([INT64_MAX // 2], dtype=np.int64)
    assert apply_rep(rep, batch, top)[1].tolist() == [INT64_MAX // 2 * 2]
    with pytest.raises(OverflowError):
        apply_rep(rep, batch, top + 1)


def test_demonstrated_int64_wrap_now_raises():
    # batch entries 2^40 - 1 passed the old guard (|batch| <= 2^40); times
    # a generator row (2^24, 1) the true entry (2^40 - 1)(2^24 + 1) =
    # 18446745173204402175 wraps in int64 to 1099494850559
    ctx = field_ctx(1)
    rows = [[ctx.from_fraction(1 << 24), ctx.one()], [ctx.zero(), ctx.one()]]
    rep = regular_rep(rows, ctx)
    batch = np.full((1, 2, 2), (1 << 40) - 1, dtype=np.int64)
    assert int(np.matmul(rep[0], batch)[0, 0, 0]) == 1099494850559
    assert _reference_products(rows, batch)[0][0][0] == 18446745173204402175
    with pytest.raises(OverflowError):
        apply_rep(rep, batch, np.ones(1, dtype=np.int64))


@pytest.mark.parametrize("weight", [16, 40])
def test_rank3_growth_reports_cap(weight):
    rep = rank3_rep("grow:%d" % weight, weight, weight, weight, weight, 1)
    res = closure(rep.gens, cap=4000, store_elements=False)
    assert res.cap_exceeded
    assert res.stats["max_entry_bits"] <= 63


def test_rank3_growth_uncapped_raises():
    rep = rank3_rep("grow:40", 40, 40, 40, 40, 1)
    with pytest.raises(OverflowError):
        closure(rep.gens, store_elements=False)


def _dihedral_10():
    """A rotation of order 5 and a reflection over Q(zeta_5), so not every
    generator is an involution and the BFS checks every earlier layer."""
    ctx = field_ctx(5)
    z, zero, one = ctx.zeta(), ctx.zero(), ctx.one()
    return [SquareMat([[z, zero], [zero, z ** 4]], one, zero),
            SquareMat([[zero, one], [one, zero]], one, zero)]


@pytest.mark.parametrize("name", ["h3_coxeter", "g24_443", "g24_444",
                                  "dihedral_10"])
def test_closure_elements_match_matrix_bfs(name):
    # the stored first-column forms, read back as matrices, are exactly
    # the group that SquareMat products generate
    gens = _dihedral_10() if name == "dihedral_10" else preset(name).gens
    ctx, n = gens[0].rows[0][0].ctx, gens[0].n
    d = ctx.degree
    involutions = all((g * g).is_identity() for g in gens)
    assert involutions == (name != "dihedral_10")
    res = closure(gens)
    got = {SquareMat([[CycloElem(ctx, _entry(x[:, j], i, d), int(den))
                       for j in range(n)] for i in range(n)],
                     ctx.one(), ctx.zero())
           for x, den in zip(res.elements, res.dens)}
    ident = SquareMat.identity(n, ctx.one(), ctx.zero())
    want, layer = {ident}, [ident]
    while layer:
        layer = [g * x for x in layer for g in gens]
        layer = [y for y in set(layer) if y not in want]
        want.update(layer)
    assert len(got) == res.order == len(want)
    assert got == want


# -- float64 step under 2^53, int64 fallback above it ---------------------

FLOAT_EXACT = 1 << 53


@contextmanager
def _matmul_dtypes():
    """The dtype of the right operand of every np.matmul taken inside:
    float64 for the BLAS step, int64 for the fallback."""
    seen, real = [], np.matmul
    np.matmul = lambda a, b: seen.append(b.dtype) or real(a, b)
    try:
        yield seen
    finally:
        np.matmul = real


def _heaviest_row(mat):
    return max(range(len(mat)), key=lambda i: int(np.abs(mat[i]).sum()))


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("name, letter", [("h3_coxeter", 1), ("h4_1", 0),
                                          ("gppn:3:3", 0)])
def test_float_step_at_2_53(name, letter, over):
    # rowsum is a power of two here, so a column aligned with the signs of
    # R's heaviest row reaches peak * rowsum = 2^53 exactly and takes the
    # float64 step; one step of peak further it takes the int64 one
    rep = preset(name)
    rows = rep.gens[letter].rows
    mat, den, rowsum = kernel = regular_rep(rows, rep.ctx)
    assert FLOAT_EXACT % rowsum == 0
    r = _heaviest_row(mat)
    peak = FLOAT_EXACT // rowsum + over
    col = [peak * (1 if c >= 0 else -1) for c in mat[r].tolist()]
    batch = np.zeros((1, len(mat), rep.rank), dtype=np.int64)
    batch[0, :, 0] = col
    with _matmul_dtypes() as dtypes:
        out = apply_rep(kernel, batch, np.ones(1, dtype=np.int64))[0]
    assert dtypes == [np.dtype(np.int64 if over else np.float64)]
    assert int(out[0, r, 0]) == peak * rowsum
    assert out.tolist() == _reference_products(rows, batch)


def float_bound_cases(n_cond):
    """(rows, batch, side): a random generator and a batch whose peak is
    at 2^53 / rowsum (side 0), one past it (1) or twice it (2).  Column 0
    of the first element follows the signs of R's heaviest row, shaved by
    up to 1000 per entry, so its true value lies near peak * rowsum and is
    odd about half the time; past 2^53 a float64 product would round it."""
    n, cond = n_cond
    ctx = field_ctx(cond)
    m = n * ctx.degree

    def build(entries, cells, shave, side):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        mat, _, rowsum = regular_rep(rows, ctx)
        base = FLOAT_EXACT // max(rowsum, 1)
        peak = [base, base + 1, 2 * base][side]
        batch = np.array([[[peak * f // 1000 for f in row] for row in x]
                          for x in cells], dtype=np.int64)
        r = _heaviest_row(mat)
        for c, cut in enumerate([0] + shave):
            batch[0, c, 0] = (peak - cut) * (1 if mat[r, c] >= 0 else -1)
        return rows, batch, side

    cell_rows = st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
    return st.builds(
        build,
        st.lists(cyclo_elems(cond), min_size=n * n, max_size=n * n),
        st.lists(st.lists(cell_rows, min_size=m, max_size=m),
                 min_size=1, max_size=3),
        st.lists(st.integers(0, 1000), min_size=m - 1, max_size=m - 1),
        st.sampled_from([0, 1, 2]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (2, 5), (3, 7), (3, 12)])
       .flatmap(float_bound_cases))
def test_float_step_either_side_of_2_53(case):
    rows, batch, side = case
    kernel = regular_rep(rows, rows[0][0].ctx)
    assume(kernel[2] > 0)
    with _matmul_dtypes() as dtypes:
        out = apply_rep(kernel, batch, np.ones(len(batch), dtype=np.int64))
    assert out[2] == _peak(batch)
    assert dtypes == [np.dtype(np.float64 if side == 0 else np.int64)]
    assert out[0].tolist() == _reference_products(rows, batch)


def test_key_of_an_element_does_not_depend_on_its_batch():
    # a row needing all 64 bits in one batch leaves the keys of the
    # small rows beside it as they are alone
    small = np.array([[[3], [-1]], [[0], [127]]], dtype=np.int64)
    big = np.array([[[1 << 40], [5]]], dtype=np.int64)
    alone = _keys(small, np.ones(2, dtype=np.int64))
    mixed = _keys(np.concatenate([big, small]), np.ones(3, dtype=np.int64))
    assert mixed[1:] == alone
    assert alone[0] == np.array([1, 3, -1], dtype=np.int64).tobytes()
    assert mixed[0] == np.array([1, 1 << 40, 5], dtype=np.int64).tobytes()
    assert len(set(mixed)) == 3


@pytest.mark.parametrize("weight, steps", [(16, 0), (40, 4)])
def test_int64_steps_count_the_fallback(weight, steps):
    rep = rank3_rep("grow:%d" % weight, weight, weight, weight, weight, 1)
    res = closure(rep.gens, cap=4000, store_elements=False)
    assert res.stats["int64_steps"] == steps


@pytest.mark.parametrize("name", ["h3_coxeter", "g24_443", "g27_a",
                                  "gppn:4:4"])
def test_finite_presets_take_only_float_steps(name):
    assert closure(preset(name).gens).stats["int64_steps"] == 0


# -- regular_rep: one product against T[a] = R(zeta^a) ---------------------

def _regular_rep_by_entries(rows, ctx):
    """R(den * rows), den and rowsum by the entry loop: block (i, k),
    column b is the coefficient vector of den * rows[i][k] * zeta^b."""
    d = ctx.degree
    den = lcm(*(x.den for row in rows for x in row))
    big = [[0] * (len(rows) * d) for _ in range(len(rows) * d)]
    for i, row in enumerate(rows):
        for k, x in enumerate(row):
            cols = ctx.mul_columns([c * (den // x.den) for c in x.vec])
            for b, col in enumerate(cols):
                for a, c in enumerate(col):
                    big[i * d + a][k * d + b] = c
    return big, den, max(sum(map(abs, r)) for r in big)


FAMILY_PRESETS = ["gppn:2:3", "gppn:3:4", "gppn:7:3", "gnn3:2:1",
                  "gnn3:7:2", "gnn3:12:5", "gnn3:16:1", "atilde:4"]


@pytest.mark.parametrize("name", preset_names() + FAMILY_PRESETS)
def test_regular_rep_matches_the_entry_loop(name):
    rep = preset(name)
    for g in rep.gens:
        for rows in (g.rows, list(zip(*g.rows))):  # center_order reads both
            mat, den, rowsum = regular_rep(rows, rep.ctx)
            assert mat.dtype == np.int64
            assert (mat.tolist(), den, rowsum) \
                == _regular_rep_by_entries(rows, rep.ctx)


@pytest.mark.parametrize("cond", [1, 5, 12])
def test_wide_regular_rep_keeps_python_ints(cond):
    # entries whose blocks pass int64: OverflowError as before, or with
    # wide the exact Python ints of the entry loop
    ctx = field_ctx(cond)
    big = ctx.from_fraction((1 << 62) + 1) * ctx.zeta()
    rows = [[big, ctx.one()], [ctx.from_fraction(Fraction(1, 3)), big]]
    with pytest.raises(OverflowError):
        regular_rep(rows, ctx)
    mat, den, rowsum = regular_rep(rows, ctx, wide=True)
    assert mat.dtype == object
    assert (mat.tolist(), den, rowsum) == _regular_rep_by_entries(rows, ctx)


def test_regular_rep_row_sum_past_int64():
    # each entry fits int64, their row sum 2^63 does not
    ctx = field_ctx(1)
    top = ctx.from_fraction(1 << 62)
    rows = [[top, top], [ctx.zero(), ctx.one()]]
    with pytest.raises(OverflowError):
        regular_rep(rows, ctx)
    mat, den, rowsum = regular_rep(rows, ctx, wide=True)
    assert rowsum == 1 << 63
    assert (mat.tolist(), den, rowsum) == _regular_rep_by_entries(rows, ctx)


# -- words on the integer kernel against SquareMat products ---------------

def _order_by_matrices(mat, cap=10_000):
    p = mat
    for k in range(1, cap + 1):
        if p.is_identity():
            return k
        p = p * mat
    return None


def _relation_by_matrices(gens, word, exponent=1, rhs_word=None,
                          rhs_exponent=1):
    lhs = mat_word(gens, word) ** exponent
    if rhs_word is None:
        return lhs.is_identity()
    return lhs == mat_word(gens, rhs_word) ** rhs_exponent


def _scalar_power_by_matrices(mat, k):
    p = mat ** k
    return p.rows[0][0] if p.is_scalar() else None


def _first_columns(mat):
    """(first-column form, den) of a SquareMat, gcd-normalised, from its
    entries."""
    ctx, n = mat.rows[0][0].ctx, mat.n
    d = ctx.degree
    den = lcm(*(x.den for row in mat.rows for x in row))
    cols = [[0] * n for _ in range(n * d)]
    for i, row in enumerate(mat.rows):
        for j, x in enumerate(row):
            for a, c in enumerate(x.vec):
                cols[i * d + a][j] = c * (den // x.den)
    return cols, den


def _kernel_first_columns(x, d):
    return x.mat[:, ::d].tolist(), x.den


WORD_PRESETS = sorted(_GROUPS) + ["gppn:3:4", "gnn3:7:2"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WORD_PRESETS), st.integers(0, 12),
       st.integers(0, 12), st.randoms(use_true_random=False))
@example("g24_443", 6, 3, random.Random(1))
@example("g27_f", 12, 5, random.Random(2))
def test_word_kernel_matches_matrix_products(name, length, rhs_length, rng):
    rep = preset(name)
    gens, rank = rep.gens, rep.rank
    word = [rng.randint(1, rank) for _ in range(length)]
    rhs = [rng.randint(1, rank) for _ in range(rhs_length)]
    mat = mat_word(gens, word)
    order = element_order(mat)
    assert order == _order_by_matrices(mat)
    for e in {0, 1, order - 1, order, 2 * order}:
        assert check_relation(gens, word, e) \
            == _relation_by_matrices(gens, word, e)
    for args in [(word, order + 1, word, 1), (word, 2, rhs, 1),
                 (word, order, [], 0), (rhs, 2, word + word, 1)]:
        assert check_relation(gens, *args) \
            == _relation_by_matrices(gens, *args)
    assert check_relation(gens, word, order + 1, word, 1)
    for k in [0, 1] + [k for k in range(2, order + 1) if order % k == 0]:
        assert scalar_power_check(mat, k) \
            == _scalar_power_by_matrices(mat, k)
    # the canonical form of each power, den included, is read off the
    # entries: the gcd normalisation is neither skipped nor overdone
    (x,), _, ctx = engine._forms([mat])
    p = x
    for k in range(1, min(order, 6) + 1):
        assert _kernel_first_columns(p, ctx.degree) \
            == _first_columns(mat ** k)
        p = p * x


def test_word_kernel_on_an_infinite_order():
    rep = preset("atilde:3")
    mat = rep.word([1, 2, 3])
    assert element_order(mat, cap=50) is None
    assert _order_by_matrices(mat, cap=50) is None
    assert not check_relation(rep.gens, [1, 2, 3], 50)


@pytest.mark.parametrize("weight", [40, Fraction(81, 2)])
def test_word_kernel_past_int64_takes_python_ints(weight):
    # entries of (s1 s2 s3)^k grow about 40^3-fold a step: past 2^53 and
    # 2^63 within a few steps, and every tier must stay exact, with the
    # gcd divided out of Python ints too when the weight has den 2
    rep = rank3_rep("grow", weight, weight, weight, weight, 1)
    mat = rep.word([1, 2, 3])
    with _matmul_dtypes() as dtypes:
        assert element_order(mat, cap=150) is None
    assert np.dtype(object) in dtypes
    if weight == 40:  # den 2 jumps from float64 to Python ints at once
        assert set(dtypes) == {np.dtype(np.float64), np.dtype(np.int64),
                               np.dtype(object)}
    assert _order_by_matrices(mat, cap=150) is None
    x, p = engine._forms([mat])[0][0], mat
    q = x
    for _ in range(12):
        assert _kernel_first_columns(q, 1) == _first_columns(p)
        p, q = p * mat, q * x
    # a matrix whose own R passes int64 is read in Python ints too
    wide = engine._forms([p])[0][0]
    assert wide.mat.dtype == object
    assert _kernel_first_columns(wide, 1) == _first_columns(p)
    assert element_order(p, cap=3) is None
    with _matmul_dtypes() as dtypes:
        assert check_relation(rep.gens, [1, 2, 3], 150, [1, 2, 3] * 2, 75)
        assert not check_relation(rep.gens, [1, 2, 3], 150, [1, 2, 3], 149)
    assert np.dtype(object) in dtypes
    assert not _relation_by_matrices(rep.gens, [1, 2, 3], 150, [1, 2, 3],
                                     149)


def test_word_kernel_tells_a_scalar_from_one():
    # (1/2) I has numerator I but den 2: not the identity, of no order
    ctx = field_ctx(5)
    half = ctx.from_fraction(Fraction(1, 2))
    mat = SquareMat([[half, ctx.zero()], [ctx.zero(), half]], ctx.one(),
                    ctx.zero())
    assert element_order(mat, cap=50) is None
    assert not check_relation([mat], [1, 1])
    assert not check_relation([mat], [1], 2, [], 1)
    assert scalar_power_check(mat, 3) == Fraction(1, 8)


def test_word_kernel_refuses_a_negative_exponent():
    rep = preset("h3_coxeter")
    with pytest.raises(ValueError, match="negative power"):
        check_relation(rep.gens, [1, 2], -1)
    with pytest.raises(ValueError, match="negative power"):
        check_relation(rep.gens, [1, 2], 3, [2, 1], -3)
    with pytest.raises(ValueError, match="negative power"):
        scalar_power_check(rep.word([1, 2]), -1)
    with pytest.raises(ValueError, match=re.escape("no generator s4 "
                                                   "(have s1..s3)")):
        check_relation(rep.gens, [1, 4, 5])


# -- the involution check: one stacked product ------------------------------

@pytest.mark.parametrize("bits", [10, 14, 40])
def test_stacked_involution_check_in_every_tier(bits):
    # [[0, 2^k], [2^-k, 0]] is an involution with den 2^k and R(den g) =
    # [[0, 2^2k], [1, 0]]: max(rowsum, den)^2 = 2^4k lies under 2^53, under
    # 2^63 or past it; adding 1 to the corner breaks it
    ctx = field_ctx(1)
    zero, one = ctx.zero(), ctx.one()
    reps = [regular_rep([[zero, ctx.from_fraction(1 << bits)],
                         [ctx.from_fraction(Fraction(1, 1 << bits)), c]],
                        ctx, wide=True) for c in (zero, one)]
    flip = regular_rep([[zero, one], [one, zero]], ctx)
    with _matmul_dtypes() as dtypes:
        assert engine._is_involution(reps[0])
    assert dtypes == [np.dtype({10: np.float64, 14: np.int64,
                                40: object}[bits])]
    assert engine._is_involution(flip, reps[0])
    assert not engine._is_involution(reps[1])
    assert not engine._is_involution(reps[0], reps[1])


@pytest.mark.parametrize("name", WORD_PRESETS)
def test_stacked_involution_check_matches_each(name):
    gens = preset(name).gens
    reps = [regular_rep(g.rows, g.rows[0][0].ctx) for g in gens]
    assert engine._is_involution(*reps)
    rot = _dihedral_10()
    rot_reps = [regular_rep(g.rows, g.rows[0][0].ctx) for g in rot]
    assert [engine._is_involution(r) for r in rot_reps] == [False, True]
    assert not engine._is_involution(*rot_reps)


# -- diagrams: build_generators and the C pairing ------------------------

def random_diagrams(conductors, ranks):
    """(rank, edges, ctx): a random subset of the pairs i < j, each with a
    random weight pair in Q(zeta_N)."""
    def build(n, rank, data):
        pairs = [(i, j) for i in range(1, rank + 1)
                 for j in range(i + 1, rank + 1)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        edges = {e: (data.draw(cyclo_elems(n)), data.draw(cyclo_elems(n)))
                 for e in chosen}
        return rank, edges, field_ctx(n)

    return st.builds(build, st.sampled_from(conductors),
                     st.sampled_from(ranks), st.data())


@settings(max_examples=60, deadline=None)
@given(random_diagrams([1, 3, 5, 12], [2, 3, 4, 5]))
def test_build_generators_makes_reflections(diagram):
    rank, edges, ctx = diagram
    gens = build_generators(rank, edges, ctx.one(), ctx.zero())
    assert len(gens) == rank
    for s in gens:
        assert (s * s).is_identity()
        assert s.trace() == rank - 2


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_build_generators_refuses_bad_edges(rank):
    for edge in [(2, 1), (0, 1), (1, rank + 1)]:
        message = re.escape("bad edge %r" % (edge,))
        with pytest.raises(ValueError, match=message):
            build_generators(rank, {edge: (1, 1)}, 1, 0)


def _minus_identity(mat):
    return SquareMat([[x - (1 if i == j else 0) for j, x in enumerate(row)]
                      for i, row in enumerate(mat.rows)], mat.one, mat.zero)


def _pair_C_by_definition(s, t):
    """trace((s - I)(t - I)) by SquareMat arithmetic."""
    return (_minus_identity(s) * _minus_identity(t)).trace()


@settings(max_examples=60, deadline=None)
@given(random_diagrams([1, 3, 5, 12], [2, 3, 4]), st.data())
def test_pair_C_matches_its_definition(diagram, data):
    rank, edges, ctx = diagram
    gens = build_generators(rank, edges, ctx.one(), ctx.zero())
    letters = st.integers(1, rank)
    reflections = list(gens)
    for i in range(1, rank + 1):
        w = data.draw(st.lists(letters, max_size=3))
        reflections.append(mat_word(gens, w[::-1] + [i] + w))  # s_i^w
    s, t = (data.draw(st.sampled_from(reflections)) for _ in range(2))
    got, ref = pair_C(s, t), _pair_C_by_definition(s, t)
    assert type(got) is CycloElem and (got.vec, got.den) == (ref.vec, ref.den)


def test_symbolic_pair_C_matches_its_definition():
    conjugates = [mat_word(GENS, [j, i, j])
                  for i in range(1, 4) for j in range(1, 4)]
    for s in GENS:
        for t in list(GENS) + conjugates:
            assert pair_C(s, t) == _pair_C_by_definition(s, t)


# -- identity catalog: the Laurent certificate against UPoly ------------

UPOLY_RING = Ring(u_poly, X, FOUR_MINUS_X,
                  lambda k: u_poly(k).compose(FOUR_MINUS_X), UPoly())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TAGS), st.integers(-40, 40), st.integers(-40, 40),
       st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)),
       st.integers(0, 3), st.booleans())
def test_laurent_verdict_matches_upoly_under_a_perturbation(tag, n, m, c, j,
                                                            on_lhs):
    # one side of every pair moved by c X^j, which breaks it unless c = 0
    arity, domain, build = IDENTITIES[tag]
    idx = (n, m)[:arity]
    assume(domain(idx))

    def perturbed(r, *idx):
        bump = c * r.x ** j
        return [(lhs + bump, rhs) if on_lhs else (lhs, rhs + bump)
                for lhs, rhs in build(r, *idx)]

    failures = certify(perturbed, [idx])[0]
    expected = any(lhs != rhs for lhs, rhs in perturbed(UPOLY_RING, *idx))
    assert failures == ([idx] if expected else [])
    assert expected == (c != 0)


# -- classification search: the mod-p filter against the exact search -----

_LIFTED = {}


def _reference_search(bound, phi_cap=200):
    """The search with every triple decided in Q(zeta_lcm)."""
    roots = [(r, k) for r in range(3, bound + 1)
             for k in range(1, (r + 1) // 2) if gcd(k, r) == 1]

    def lift(rk, L):
        if (rk, L) not in _LIFTED:
            _LIFTED[rk, L] = root_of_v(*rk).lift(field_ctx(L))
        return _LIFTED[rk, L]

    product_sols, sum_sols, skipped = [], set(), set()
    for ia, ra in enumerate(roots):
        for ib in range(ia, len(roots)):
            rb = roots[ib]
            for ic, rc in enumerate(roots):
                L = lcm(ra[0], rb[0], rc[0])
                if euler_phi(L) > phi_cap:
                    skipped.add(tuple(sorted((ra[0], rb[0], rc[0]))))
                    continue
                a, b, c = lift(ra, L), lift(rb, L), lift(rc, L)
                if (a * b - 4 * c).is_zero():
                    product_sols.append({"alpha": ra, "beta": rb, "gamma": rc})
                if ic >= ib and (4 - a - b - c).is_zero():
                    sum_sols.add(tuple(sorted((ra, rb, rc))))
    return {"product": product_sols, "sum": sorted(sum_sols),
            "skipped": sorted(skipped)}


@pytest.mark.parametrize("bound", range(5, 13))
def test_classification_matches_exact_search(bound):
    assert classification_search(bound) == _reference_search(bound)


MAP_12 = ModPMap(lcm(*range(3, 13)))


def test_mod_p_map_at_bound_12():
    p, w, m = MAP_12.p, MAP_12.w, MAP_12.M
    assert (m, p) == (27720, 55441)
    assert all(p % d for d in range(2, 236))   # 235^2 < p < 236^2
    # w has order exactly M
    assert pow(w, m, p) == 1
    assert all(pow(w, m // q, p) != 1 for q in (2, 3, 5, 7, 11))
    for r in range(3, 13):
        for k in range(1, r):
            if gcd(k, r) == 1:
                z = pow(w, m // r * k, p)
                assert MAP_12(root_of_v(r, k)) == (z + pow(z, -1, p) + 2) % p


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9, 11, 12, 28, 35]), st.data())
def test_mod_p_map_is_a_ring_map(L, data):
    x = data.draw(cyclo_elems(L))
    y = data.draw(cyclo_elems(L))
    p = MAP_12.p
    assert MAP_12(x + y) == (MAP_12(x) + MAP_12(y)) % p
    assert MAP_12(x * y) == MAP_12(x) * MAP_12(y) % p
    assert MAP_12(field_ctx(L).one()) == 1
