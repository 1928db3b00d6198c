"""Property-based checks for the arithmetic layers."""

from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reflektor.cyclo import (CycloElem, field_ctx, galois_norm,
                             power_basis_coords, u_value_seq)
from reflektor.engine import _keys, apply_rep, closure, regular_rep
from reflektor.matrices import SquareMat, mat_word
from reflektor.mpoly import ALPHA, MPoly
from reflektor.reflrep import preset, rank3_rep
from reflektor.scalars import rat_str
from reflektor.sympoly import GENS
from reflektor.upoly import UPoly, u_poly

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


@given(rationals)
def test_rat_str_roundtrip(q):
    assert Fraction(rat_str(q)) == q


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


# -- exact division: the int kernel against the Fraction path ------------

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
    return UPoly(quo), UPoly(rem[:dn] if dn > 0 else [])


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


@given(int_coeffs.map(UPoly),
       st.lists(st.integers(-50, 50), max_size=5),
       st.integers(2, 9), st.sampled_from([1, -1]))
def test_non_unit_divisor_keeps_fraction_path(a, low, lead, sign):
    b = UPoly(low + [sign * lead])
    q, r = divmod(a, b)
    fq, fr = _fraction_divmod(a.coeffs, b.coeffs)
    assert _same(q, fq) and _same(r, fr)


@given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=4),
       st.sampled_from([1, -1, Fraction(1), Fraction(-3, 2)]))
def test_fraction_operands_keep_fraction_path(a, low, lead):
    a, b = UPoly(a), UPoly(low + [lead])
    q, r = divmod(a, b)
    fq, fr = _fraction_divmod(a.coeffs, b.coeffs)
    assert _same(q, fq) and _same(r, fr)


def test_cyclo_coefficients_are_still_refused():
    ctx = field_ctx(5)
    refused = "UPoly division needs rational coefficients, not CycloElem"
    with pytest.raises(TypeError, match=refused):
        divmod(UPoly([ctx.zeta(1), ctx.one()]), UPoly([1, 1]))
    with pytest.raises(TypeError, match=refused):
        divmod(UPoly([1, 2, 3]), UPoly([ctx.zeta(1), ctx.one()]))
    with pytest.raises(TypeError, match="rational coefficients, not MPoly"):
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
    must mix with Fractions."""
    n, one, zero = mat.n, mat.one, mat.zero
    cs, mk = [], mat
    for k in range(1, n + 1):
        ck = mk.trace() * Fraction(-1, k)
        cs.append(ck)
        if k < n:
            shift = SquareMat([[ck * one if i == j else ck * zero
                                for j in range(n)] for i in range(n)],
                              one, zero)
            mk = mat * (mk + shift)
    return UPoly(cs[::-1] + [one])


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
    rows = [[ctx.from_int(1 << 24), ctx.one()], [ctx.zero(), ctx.one()]]
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


@pytest.mark.parametrize("name", ["h3_coxeter", "g24_443"])
def test_closure_elements_match_matrix_bfs(name):
    # the stored first-column forms, read back as matrices, are exactly
    # the group that SquareMat products generate
    rep = preset(name)
    ctx, n, d = rep.ctx, rep.rank, rep.ctx.degree
    res = closure(rep.gens)
    got = {SquareMat([[CycloElem(ctx, _entry(x[:, j], i, d), int(den))
                       for j in range(n)] for i in range(n)],
                     ctx.one(), ctx.zero())
           for x, den in zip(res.elements, res.dens)}
    ident = SquareMat.identity(n, ctx.one(), ctx.zero())
    want, layer = {ident}, [ident]
    while layer:
        layer = [g * x for x in layer for g in rep.gens]
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


def _key_lengths(values, dens):
    batch = np.array(values, dtype=np.int64).reshape(len(values), -1, 1)
    return [len(k) for k in _keys(batch, np.array(dens, dtype=np.int64))]


def test_keys_are_one_byte_exactly_when_the_row_fits_int8():
    # a row [den | entries] of L values has an L-byte key when every value
    # fits in int8, else an 8L-byte one
    assert _key_lengths([[127, -128]], [1]) == [3]
    assert _key_lengths([[128, -128]], [1]) == [24]
    assert _key_lengths([[127, -129]], [1]) == [24]
    assert _key_lengths([[0, 1]], [127]) == [3]
    assert _key_lengths([[0, 1]], [128]) == [24]
    assert _key_lengths([[127, -128], [128, 0], [0, 1]], [1, 1, 128]) \
        == [3, 24, 24]


def test_key_of_an_element_does_not_depend_on_its_batch():
    small = np.array([[[3], [-1]], [[0], [127]]], dtype=np.int64)
    big = np.array([[[1 << 40], [5]]], dtype=np.int64)
    ones = np.ones(2, dtype=np.int64)
    alone = _keys(small, ones)
    mixed = _keys(np.concatenate([big, small]), np.ones(3, dtype=np.int64))
    assert mixed[1:] == alone
    assert alone[0] == np.array([1, 3, -1], dtype=np.int8).tobytes()
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
