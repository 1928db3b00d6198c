"""Exact arithmetic in cyclotomic fields Q(zeta_N), and everything the root
identities need on top of it: distinguished roots of the v_r factors, their
square roots one conductor up, Galois action and norms, the quadratic
extensions a^2 = phi*a +/- 1, and the small search that classifies which
root triples satisfy the two degeneracy equations.

Elements are integer coefficient vectors in the power basis 1, z, ..,
z^(phi(N)-1) over a single positive denominator, always gcd-normalized, so
equality is tuple equality.

The scalar kernel:
- _parts is the one reader of an operand (an element of the same
  conductor, or an int or Fraction as a one-entry vector); an operator
  returns NotImplemented for any other type, and divides by a rational by
  multiplying with its reciprocal;
- reduction mod Phi_N first folds a vector modulo X^(N/2) + 1 (N even) or
  X^N - 1 (N odd), both multiples of Phi_N, and then runs synthetic
  division over the nonzero terms of Phi_N only;
- every product, x * y included, is a FieldCtx.dot: sum x_k y_k as one
  convolution of the nonzero coefficients over the common denominator,
  reduced and gcd-normalized once; matrix products, matrix-vector products
  and Krylov columns of characteristic polynomials are longer dots;
- one fraction-free elimination (Bareiss 1968) inverts elements, finds
  power-basis coordinates and takes norms: N(x) is the determinant of the
  integer matrix of multiplication by den * x, over den^d.

The root identities are builders like the identity catalog's, decided by
identities.certify once per class mod 4 of their indices modulo t^r = -1,
and in the field itself only where a class fails (root_identity_suite).
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .matrices import SquareMat
from .identities import certify
from .mpoly import MPoly
from .report import SuiteResult
from .upoly import (UPoly, cyclotomic_poly, euler_phi, _factorize,
                    format_poly, n_prime, prime_power_class, ring_pow)

_CTX_CACHE = {}


def field_ctx(n):
    if n < 1:
        raise ValueError("conductor must be positive")
    ctx = _CTX_CACHE.get(n)
    if ctx is None:
        ctx = FieldCtx(n)
        _CTX_CACHE[n] = ctx
    return ctx


class FieldCtx:
    def __init__(self, n):
        self.N = n
        self.phi_poly = cyclotomic_poly(n)
        self.degree = self.phi_poly.degree
        # Phi_N divides X^(N/2) + 1 for even N and X^N - 1 for odd N, so a
        # vector is first folded modulo that binomial
        self._fold = n // 2 if n % 2 == 0 else n
        self._fold_sign = -1 if n % 2 == 0 else 1
        # the nonzero terms (j, c) of Phi_N below its leading 1
        self._terms = [(j, c) for j, c in enumerate(self.phi_poly.coeffs[:-1])
                       if c]

    def reduce(self, vec):
        """Reduce an integer coefficient list mod Phi_N: fold it modulo
        X^(N/2) + 1 or X^N - 1, then run synthetic division by the monic
        Phi_N over its nonzero terms only; both steps stay integral."""
        d, h = self.degree, self._fold
        v = list(vec)
        if len(v) > h:
            sign = self._fold_sign
            for i in range(len(v) - 1, h - 1, -1):
                if v[i]:
                    v[i - h] += sign * v[i]
            del v[h:]
        elif len(v) < d:
            v += [0] * (d - len(v))
        terms = self._terms
        for i in range(len(v) - 1, d - 1, -1):
            c = v[i]
            if c:
                base = i - d
                for j, m in terms:
                    v[base + j] -= c * m
        return tuple(v[:d])

    def dot(self, xs, ys):
        """sum of x_k * y_k as an element of this field, for entries that
        are ints, Fractions or elements of this conductor, or NotImplemented
        when an entry is of any other type.  Every product is convolved into
        one integer vector, as long as the longest product, over the common
        denominator of the products, which is reduced and gcd-normalized
        once."""
        prods, den, size = [], 1, 1
        for x, y in zip(xs, ys):
            xp, yp = _parts(self, x), _parts(self, y)
            if xp is None or yp is None:
                return NotImplemented
            (xv, xd), (yv, yd) = xp, yp
            d = xd * yd
            den = lcm(den, d)
            size = max(size, len(xv) + len(yv) - 1)
            prods.append((xv, yv, d))
        out = [0] * size
        for xv, yv, d in prods:
            ys_nz = [(j, c) for j, c in enumerate(yv) if c]
            if d != den:
                s = den // d
                ys_nz = [(j, s * c) for j, c in ys_nz]
            if ys_nz:
                for i, a in enumerate(xv):
                    if a:
                        for j, b in ys_nz:
                            out[i + j] += a * b
        return CycloElem(self, self.reduce(out), den)

    def zero(self):
        return CycloElem(self, (0,) * self.degree, 1, _raw=True)

    def one(self):
        return self.from_fraction(1)

    def from_fraction(self, q):
        """The rational q (an int or a Fraction) as an element."""
        q = Fraction(q)
        return CycloElem(self, self.reduce((q.numerator,)), q.denominator)

    def zeta(self, power=1):
        power %= self.N
        vec = [0] * (power + 1)
        vec[power] = 1
        return CycloElem(self, self.reduce(vec), 1)

    def mul_columns(self, vec):
        """Columns of the integer matrix of multiplication by the element
        with coefficient vector vec: column b holds vec * z^b mod Phi_N."""
        cols = [tuple(vec)]
        for _ in range(self.degree - 1):
            cols.append(self.reduce((0,) + cols[-1]))
        return cols

    def __repr__(self):
        return "FieldCtx(%d)" % self.N


def _parts(ctx, x):
    """(coefficient vector, denominator) of x read in ctx, or None when x
    is no int, Fraction or element; another conductor raises ValueError."""
    if isinstance(x, CycloElem):
        if x.ctx is not ctx and x.ctx.N != ctx.N:
            raise ValueError("mixed conductors %d and %d; lift first"
                             % (ctx.N, x.ctx.N))
        return x.vec, x.den
    if isinstance(x, int):
        return (x,), 1
    if isinstance(x, Fraction):
        return (x.numerator,), x.denominator
    return None


class CycloElem:
    __slots__ = ("ctx", "vec", "den")

    def __init__(self, ctx, vec, den=1, _raw=False):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not _raw:
            if den < 0:
                den = -den
                vec = [-c for c in vec]
            g = den
            for c in vec:
                g = gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                vec = [c // g for c in vec]
                den //= g
        self.ctx = ctx
        self.vec = tuple(vec)
        self.den = den

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _add(self, other, sign):
        parts = _parts(self.ctx, other)
        if parts is None:
            return NotImplemented
        vec, den = parts
        d = lcm(self.den, den)
        a, b = d // self.den, sign * d // den
        return CycloElem(self.ctx, [a * x + b * y for x, y in
                                    zip_longest(self.vec, vec, fillvalue=0)],
                         d)

    def __neg__(self):
        return CycloElem(self.ctx, [-c for c in self.vec], self.den, _raw=True)

    def __mul__(self, other):
        return self.ctx.dot((self,), (other,))

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _parts(self.ctx, other)
        if parts is None:
            return NotImplemented
        vec, den = parts
        if len(vec) > 1:
            return self * other.inverse()
        # an int, a Fraction or an element of degree 1: use the reciprocal
        return self * Fraction(den, vec[0])

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return ring_pow(base, abs(n), self.ctx.one())

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # den * a^(-1) with a = vec: solve M_a y = 1 for the integer
        # multiplication matrix M_a
        one = (1,) + (0,) * (self.ctx.degree - 1)
        sol = _solve_int(self.ctx.mul_columns(self.vec), one)
        if sol is None:
            raise ZeroDivisionError("element is a zero divisor (conductor bug)")
        nums, det = sol
        return CycloElem(self.ctx, [self.den * c for c in nums], det)

    # -- predicates and conversions -----------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.vec)

    def __eq__(self, other):
        # rational elements compare as Fractions whatever their conductors,
        # as they hash
        if isinstance(other, CycloElem) and other.ctx.N != self.ctx.N \
                and self.is_rational() and other.is_rational():
            return self.to_fraction() == other.to_fraction()
        parts = _parts(self.ctx, other)
        if parts is None:
            return NotImplemented
        vec, den = parts
        return self.den == den and \
            self.vec == vec + (0,) * (len(self.vec) - len(vec))

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like one
        if self.is_rational():
            return hash(self.to_fraction())
        return hash((self.ctx.N, self.vec, self.den))

    def is_rational(self):
        return all(c == 0 for c in self.vec[1:])

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.vec[0] if self.vec else 0, self.den)

    # -- field maps ----------------------------------------------------

    def galois(self, j):
        """Image under zeta_N -> zeta_N^j, for j coprime to N."""
        n = self.ctx.N
        if gcd(j, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        out = [0] * max(n, self.ctx.degree)
        for i, c in enumerate(self.vec):
            out[(i * j) % n] += c
        return CycloElem(self.ctx, self.ctx.reduce(out), self.den)

    def conj(self):
        return self.galois(self.ctx.N - 1)

    def lift(self, ctx2):
        """Embed into Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
        if ctx2.N % self.ctx.N != 0:
            raise ValueError("can only lift when the conductor divides")
        scale = ctx2.N // self.ctx.N
        out = [0] * (scale * max(len(self.vec), 1))
        for i, c in enumerate(self.vec):
            out[i * scale] += c
        return CycloElem(ctx2, ctx2.reduce(out), self.den)

    def __repr__(self):
        body = format_poly(UPoly(self.vec), var="z")
        if self.den == 1:
            return body
        return "(%s)/%d" % (body, self.den)


def to_field(x, ctx):
    """x (an int, a Fraction or a CycloElem) as an element of ctx.  An
    element of the same conductor is kept, a rational one is read as its
    Fraction whatever its conductor, and any other is lifted, which needs
    its conductor to divide ctx's (ValueError otherwise)."""
    if isinstance(x, CycloElem):
        if x.ctx.N == ctx.N:
            return x
        if not x.is_rational():
            return x.lift(ctx)
        x = x.to_fraction()
    return ctx.from_fraction(x)


def galois_norm(x):
    """The norm of x down to Q, the product of its Galois conjugates.  For
    x = a / den with a integral, that is det(M_a) / den^d, where M_a is the
    integer matrix of multiplication by a in the power basis, since the
    eigenvalues of M_a are the conjugates of a (Cohen, A Course in
    Computational Algebraic Number Theory, 4.3).  A column without a pivot
    makes the determinant 0, which _bareiss does not report as its det."""
    d = x.ctx.degree
    # the columns of M_a go in as rows: the transpose has the same det
    pivots, det = _bareiss([list(c) for c in x.ctx.mul_columns(x.vec)], d)
    return Fraction(det if len(pivots) == d else 0, x.den ** d)


# -- distinguished roots ----------------------------------------------

def root_of_v(r, k=1):
    """The root zeta_r^k + zeta_r^(-k) + 2 of v_r (that is, 4 cos^2(k pi/r)),
    living in Q(zeta_r).  Needs gcd(k, r) = 1."""
    if r < 3:
        raise ValueError("v_r has roots only for r >= 3")
    if gcd(k, r) != 1:
        raise ValueError("k must be coprime to r")
    ctx = field_ctx(r)
    return ctx.zeta(k) + ctx.zeta(-k) + 2


def sqrt_root(r, k=1):
    """The square root of root_of_v(r, k) inside Q(zeta_{2r}), namely
    zeta_{2r}^k + zeta_{2r}^(-k).  For 1 <= k < r/2 this is the positive
    real value 2 cos(k pi / r)."""
    if r < 3:
        raise ValueError("r must be at least 3")
    if gcd(k, r) != 1:
        raise ValueError("k must be coprime to r")
    ctx = field_ctx(2 * r)
    return ctx.zeta(k) + ctx.zeta(-k)


def named_constant(name, n):
    """A few constants the preset catalog is written in, inside Q(zeta_n):
    tau = (3+sqrt5)/2 (n divisible by 5), omega = zeta_3 (n divisible by 3),
    zeta7_half = (1+i sqrt7)/2 (n divisible by 7)."""
    ctx = field_ctx(n)
    if name == "tau":
        if n % 5:
            raise ValueError("tau needs 5 | n")
        # tau = 4 cos^2(pi/5), a root of v_5
        return root_of_v(5, 1).lift(ctx)
    if name == "omega":
        if n % 3:
            raise ValueError("omega needs 3 | n")
        return ctx.zeta(n // 3)
    if name == "zeta7_half":
        if n % 7:
            raise ValueError("zeta7_half needs 7 | n")
        z = field_ctx(7)
        val = z.one() + z.zeta(1) + z.zeta(2) + z.zeta(4)
        return val.lift(ctx)
    raise ValueError("unknown constant %r" % (name,))


def u_value_seq(gamma, hi):
    """u_0(gamma) .. u_hi(gamma) by the two interleaved recurrences
    (one multiplication per odd step)."""
    one = gamma.ctx.one() if isinstance(gamma, CycloElem) else 1
    zero = one - one
    seq = [zero, one]
    for k in range(1, hi):
        if k % 2 == 0:
            seq.append(gamma * seq[k] - seq[k - 1])
        else:
            seq.append(seq[k] - seq[k - 1])
    return seq[:hi + 1] if hi >= 1 else seq[:1]


def u_at(seq, n):
    return seq[n] if n >= 0 else -seq[-n]


def _bareiss(rows, m):
    """Fraction-free forward elimination (Bareiss 1968), in place, of the
    first m columns of a list of integer rows; the columns after them ride
    along.  Returns (pivots, det): the columns that got a pivot, in order,
    and the last pivot times the sign of the row swaps, which is the
    determinant when the rows are square in m and every column has a pivot.
    Every division is exact: each eliminated entry is a minor."""
    prev, sign = 1, 1
    pivots = []
    for col in range(m):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        prow = rows[k][col:]
        p = prow[0]
        for row in rows[k + 1:]:
            f = row[col]
            row[col:] = [(p * a - f * b) // prev
                         for a, b in zip(row[col:], prow)]
        prev = p
        pivots.append(col)
    return pivots, sign * prev


def _solve_int(cols, rhs):
    """Solve sum_j y_j * cols[j] = rhs over Q for integer vectors of one
    length, by _bareiss and back substitution.

    Returns (nums, det) with y_j = nums[j] / det, where det is the signed
    last pivot and the unknowns of columns without a pivot are 0; or None
    when rhs is not in the span of the columns.  nums are the Cramer
    numerators of the square system on the pivot rows and columns, whose
    determinant is det, so the back substitution divides exactly."""
    m, d = len(cols), len(rhs)
    rows = [[col[i] for col in cols] + [rhs[i]] for i in range(d)]
    pivots, det = _bareiss(rows, m)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    nums = [0] * m
    for k in range(len(pivots) - 1, -1, -1):
        row, col = rows[k], pivots[k]
        acc = det * row[m] - sum(row[j] * nums[j] for j in pivots[k + 1:])
        nums[col] = acc // row[col]
    return nums, det


def power_basis_coords(x, gen, dim, first=None):
    """Write x as a Q-linear combination of first, first * gen, ..,
    first * gen^(dim-1), by exact fraction-free elimination; first is 1
    unless given, and then an element of x's field.  Returns the list of
    Fractions, or None when x is not in the span."""
    powers = [x.ctx.one() if first is None else first] if dim else []
    for _ in range(dim - 1):
        powers.append(powers[-1] * gen)
    # column j holds den_j * gen^j, so coordinate j is den_j * y_j
    sol = _solve_int([p.vec for p in powers], x.vec)
    if sol is None:
        return None
    nums, det = sol
    return [Fraction(p.den * c, det * x.den) for p, c in zip(powers, nums)]


# -- quadratic extensions a^2 = phi a +/- 1 ----------------------------

def quad_pow(phi, sign, n):
    """a^n as a pair (coefficient of a, constant), for any integer n: the
    second column of M^|n|, where M = [[phi, 1], [sign, 0]] is
    multiplication by a on (coefficient of a, constant) and, for n < 0,
    M^-1 = [[0, sign], [1, -sign phi]] is multiplication by a^-1 = sign
    (a - phi).  Nothing divides, so phi may live in any ring (an int, a
    Fraction, a CycloElem or an MPoly)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    one = phi - phi + 1  # one in whatever ring phi lives in
    zero = phi - phi
    if n >= 0:
        rows = [[phi, one], [sign * one, zero]]
    else:
        rows = [[zero, sign * one], [one, -sign * phi]]
    rows = (SquareMat(rows, one, zero) ** abs(n)).rows
    return (rows[0][1], rows[1][1])


def quad_pow_closed(phi, sign, n):
    """The closed form for a^n through the u family evaluated at rho phi^2,
    rho = -sign: (c phi u_n, d u_(n-1)) for even n and (c u_n, d phi u_(n-1))
    for odd n, with c = rho^(ceil(n/2) - 1) and d = -rho^floor(n/2)."""
    rho = -sign
    sgn = lambda e: rho if e % 2 else 1  # rho^e, an int for every e
    c, d = sgn((n + 1) // 2 - 1), -sgn(n // 2)
    seq = u_value_seq(rho * phi * phi, abs(2 * n) + 3)
    un, un1 = u_at(seq, n), u_at(seq, n - 1)
    if n % 2 == 0:
        return (c * phi * un, d * un1)
    return (c * un, d * phi * un1)


# -- suites ------------------------------------------------------------


def _coprime_ks(r):
    return [k for k in range(1, (r + 1) // 2) if gcd(k, r) == 1]


def _even_weight(R, r):
    # the weight of the even rungs at even r: 4 - g, times g when r/2 is even
    return R.y if r // 2 % 2 else R.x * R.y


def _period(l):
    return lambda R, r, kk: [(R.u(l * r + kk), (-1) ** l * R.u(kk))]


# The checks at the roots of v_r, as builders like identities.IDENTITIES on
# index tuples (r, kk), (r, l) or (r,), where R.x is X = (t + 1/t)^2 and
# R.s is t + 1/t.  Even r: X is the root g and R.y is w = 4 - g.  Odd r: X
# is the root s^2 with s = e (t + 1/t), and e s = t + 1/t.
ROOT_IDENTITIES = {
    "mirror": lambda R, r, kk: [(R.u(r - kk), R.u(kk))],
    **{"period:%d" % l: _period(l) for l in range(4)},
    "top+": lambda R, r: [(R.u(r - 1), 1)],
    "top-": lambda R, r: [(R.u(r + 1), -1)],
    "ladder": lambda R, r, kk: [
        ((R.y if kk % 2 else _even_weight(R, r)) * R.u(r // 2)
         * R.u(r // 2 - kk), 2 * (R.u(kk + 1) - R.u(kk - 1)))],
    "norm4": lambda R, r: [(_even_weight(R, r) * R.u(r // 2) ** 2, 4)],
    "norm2": lambda R, r: [(R.y * R.u(r // 2) * R.u(r // 2 - 1), 2)],
    "odd_step": lambda R, r, kk: [
        (R.u(r - 2 * kk - 1), R.u(2 * kk + 1) * R.u(r - 1))],
    "even_step": lambda R, r, kk: [
        (R.u(r - 2 * kk - 2), R.x * R.u(2 * kk + 2) * R.u(r - 1))],
    "sqrt_sign": lambda R, r: [(R.s * R.u(r - 1), 1)],
    "half_e": lambda R, r, l: [
        (R.u((r - 1) // 2 - 2 * l),
         (R.u(2 * l + 1) - R.s * R.u(2 * l)) * R.u((r - 1) // 2))],
    # for r = 3 mod 4, half_o is stated times g, which is not 0
    "half_o": lambda R, r, l: [
        ((1 if r % 4 == 1 else R.x) * R.u((r - 1) // 2 - 2 * l + 1),
         (R.x * R.u(2 * l) - R.s * R.u(2 * l - 1)) * R.u((r - 1) // 2))],
}


def _even_cases(r):
    """(case id suffix, family, index tuple) of the checks at the roots of
    v_r, r = 2 half even, in case order."""
    half = r // 2
    out = [(":mirror:%d" % i, "mirror", (r, i)) for i in range(half + 1)]
    for l in range(4):
        out += [(":period:%d:%d" % (l, i), "period:%d" % l, (r, i))
                for i in range(half)]
    out += [(":top+", "top+", (r,)), (":top-", "top-", (r,))]
    for i in range(half + half % 2):
        out.append((":ladder:%d" % i if half % 2 else
                    ":ladder_%s:%d" % ("eo"[i % 2], i // 2), "ladder", (r, i)))
    return out + [(":norm4", "norm4", (r,)), (":norm2", "norm2", (r,))]


def _odd_cases(r):
    """_even_cases for odd r."""
    out = []
    for i in range((r - 1) // 2):
        out += [(":odd_step:%d" % i, "odd_step", (r, i)),
                (":even_step:%d" % i, "even_step", (r, i))]
    out.append((":sqrt_sign", "sqrt_sign", (r,)))
    lmax = (r - 1) // 4 if r % 4 == 1 else (r - 3) // 8
    for i in range(lmax + 1):
        out += [(":half_e:%d" % i, "half_e", (r, i)),
                (":half_o:%d" % i, "half_o", (r, i))]
    return out


def _mod_t_r(num, r0):
    """The canonical form of num modulo t^r = -1 on the class r = r0 + 4q,
    with T_1 = t^q in exponent slot 1: each T_1^e, e = 4a + b and
    0 <= b < 4, written as (-t^-r0)^a T_1^b (identities has why)."""
    terms = {}
    for (c, e, e2, e3), k in num.terms.items():
        a, b = divmod(e, 4)
        key = (c - a * r0, b, e2, e3)
        terms[key] = terms.get(key, 0) + (-k if a % 2 else k)
    return MPoly(terms)


def _at_zeta(num, r):
    """The coefficient vector of num, a numerator in t alone, at
    t = zeta_2r in Q(zeta_2r)."""
    vec = [0] * (2 * r)
    for (c, _, _, _), k in num.terms.items():
        vec[c % (2 * r)] += k
    return field_ctx(2 * r).reduce(vec)


def _vanishes_at_roots(num, args):
    """certify's hook for ROOT_IDENTITIES: a difference num of numerators
    built on (r, ...) vanishes at the roots, on a class when its form
    modulo t^r = -1 is 0, and on a tuple when it is 0 at t = zeta_2r."""
    r = args[0]
    if isinstance(r, int):
        return not any(_at_zeta(num, r))
    return _mod_t_r(num, r % 4).is_zero()


def root_identity_suite(r_max):
    """Exact checks, at every primitive root of every v_r with r <= r_max, of
    the evaluation identities: the reflection/periodicity rules at roots of
    v_{2p}, the weighted ladder there, and the odd-r ladder including its
    square-root-signed refinement.

    Each check is a builder of ROOT_IDENTITIES on (r, ...), decided by
    identities.certify with the hook _vanishes_at_roots:
    - every root of v_r is X = (t + 1/t)^2 at t = zeta_2r^m, m odd and prime
      to r, so t^r = -1: m = k for the root 4cos^2(k pi / r) at even r; at
      odd r the root k is the square of s = zeta_2r^k + zeta_2r^-k, which is
      e (t + 1/t) with m = k, e = 1 for odd k and m = k + r, e = -1 for
      even k, so e = (-1)^(k-1) and e s = t + 1/t;
    - a class mod 4 of (r, ...) whose difference is 0 modulo t^r = -1
      holds at every root of every r in it (identities has the argument);
    - a tuple whose class fails is decided exactly at t = zeta_2r, and the
      other roots are its Galois conjugates t -> t^m, under which a zero
      stays zero: one verdict serves every k and both signs e."""
    res = SuiteResult("root_identities")
    heads = [("even", r, _even_cases(r)) for r in range(4, r_max + 1, 2)]
    heads += [("odd", r, _odd_cases(r)) for r in range(3, r_max + 1, 2)]
    tuples = {}
    for _, _, cases in heads:
        for _, family, idx in cases:
            tuples.setdefault(family, []).append(idx)
    failed = {family: set(certify(ROOT_IDENTITIES[family], idx,
                                  _vanishes_at_roots)[0])
              for family, idx in tuples.items()}
    for parity, r, cases in heads:
        statuses = [(suffix, "fail" if idx in failed[family] else "pass")
                    for suffix, family, idx in cases]
        for k in _coprime_ks(r):
            head = "%s:%d:%d" % (parity, r, k)
            for suffix, status in statuses:
                res.add(head + suffix, status)
    return res


def norm_invertibility_suite(r_max):
    """Invertibility certificates for the v_r roots and for 4 minus them.

    With p the theta class of r (p when r = 2 p^m, else 1), p / gamma is an
    algebraic integer: solving p = sum_j y_j gamma^(j+1) gives its
    coordinates in the power basis of gamma, and they are integral, which
    exhibits a monic-free integer combination gamma P(gamma) = p.  Same on
    the 4 - gamma side through the index map r -> r'.  The Galois norms are
    checked as well (they equal p to the power phi(r) / deg of the minimal
    polynomial).

    The four checks are decided once per r, on gamma = root_of_v(r, 1), and
    that verdict is exact for every root k:
    - sigma_k: zeta_r -> zeta_r^k is a field automorphism of Q(zeta_r); it
      sends gamma to root_of_v(r, k), and 4 - gamma to 4 - sigma_k(gamma);
    - the norm is the product over all embeddings, so it is sigma-invariant;
    - applying sigma_k to p = sum_j y_j gamma^(j+1), with rational y_j,
      gives the same y_j for sigma_k(gamma); sigma_k is Q-linear and
      bijective, so p not in the span for gamma means not in the span for
      sigma_k(gamma) either."""
    res = SuiteResult("norm_invertibility")

    def integral(q, h, dim):
        coords = power_basis_coords(h.ctx.from_fraction(q), h, dim, h)
        return coords is not None and all(c.denominator == 1 for c in coords)

    for r in range(3, r_max + 1):
        dim = euler_phi(r) // 2
        p = prime_power_class(r)
        p4 = prime_power_class(n_prime(r))
        g = root_of_v(r)
        h = 4 - g
        verdicts = [("norm", galois_norm(g) == p * p),
                    ("norm4x", galois_norm(h) == p4 * p4),
                    ("integral", integral(p, g, dim)),
                    ("integral4x", integral(p4, h, dim))]
        for k in _coprime_ks(r):
            for name, ok in verdicts:
                res.check(ok, (name, r, k))
    return res


def quad_power_suite():
    """The closed power formulas in a^2 = phi a +/- 1, plus the finite-order
    realizations when phi^2 (resp. -phi^2) is a v-root."""
    res = SuiteResult("quad_powers")

    # generic agreement closed form vs iterated, rational phi, both signs
    for sign in (1, -1):
        for phi in (Fraction(3, 2), Fraction(-2), Fraction(0), Fraction(5, 7)):
            for n in range(-6, 7):
                res.check(quad_pow(phi, sign, n) == quad_pow_closed(phi, sign, n),
                          ("closed", sign, phi, n))

    def order_is(phi, sign, n, value):
        got = quad_pow(phi, sign, n)
        one = phi - phi + 1
        return got == (phi - phi, value * one)

    # sign -1, phi = 2 cos(pi/5): phi^2 is a v_5 root, a^5 = -1
    phi = sqrt_root(5, 1)
    res.check(order_is(phi, -1, 5, -1), ("pentagon",))
    res.check(order_is(phi, -1, 10, 1), ("pentagon10",))
    # sign -1, phi = 1: phi^2 = 1 is the v_3 root, a^3 = -1
    res.check(order_is(Fraction(1), -1, 3, -1), ("hexagon",))
    # sign -1, phi = sqrt2: phi^2 = 2 is the v_4 root, a^4 = -1
    phi = sqrt_root(4, 1)
    res.check(order_is(phi, -1, 4, -1), ("octagon",))
    res.check(order_is(phi, -1, 8, 1), ("octagon8",))
    # sign -1, phi = 0: a^2 = -1 directly
    res.check(order_is(Fraction(0), -1, 2, -1), ("square",))
    # sign +1, phi = i inside Q(zeta_12): -phi^2 = 1 is the v_3 root,
    # a^3 = i and a^6 = -1
    ctx = field_ctx(12)
    i = ctx.zeta(3)
    got = quad_pow(i, 1, 3)
    res.check(got == (ctx.zero(), i), ("i_cube",))
    res.check(order_is(i, 1, 6, -1), ("i_six",))
    res.check(order_is(i, 1, 12, 1), ("i_twelve",))
    # sign +1, phi = i sqrt2 inside Q(zeta_8): -phi^2 = 2 is the v_4 root,
    # a^4 = -1
    ctx = field_ctx(8)
    phi = ctx.zeta(1) + ctx.zeta(3)
    res.check(order_is(phi, 1, 4, -1), ("isqrt2",))
    res.check(order_is(phi, 1, 8, 1), ("isqrt2_8",))
    return res


class ModPMap:
    """The ring map Z[zeta_M] -> F_p, zeta_M -> w, for the first prime
    p = 1 mod M above `above` with a generator g < 500 of F_p*, and
    w = g^((p-1)/M) of order M.  Since p splits completely in Q(zeta_M),
    w is a root of Phi_M mod p, so the map is a ring homomorphism
    (Washington, Introduction to Cyclotomic Fields, ch. 2); on Q(zeta_L)
    with L | M it sends zeta_L to w^(M/L).

    g is tested against the primes of p - 1 = j M, which are those of M and
    those of j, so no loop runs up to p.  A g with g^(p-1) = 1 and
    g^((p-1)/q) != 1 for every such prime q also proves p prime (Lucas), so
    a candidate that passes the Fermat screen but has no such g below 500
    is passed over."""

    def __init__(self, m, above=0):
        self.M = m
        j = above // m
        while True:
            j += 1
            p = j * m + 1
            if pow(2, p - 1, p) != 1:
                continue
            qs = set(_factorize(m)) | set(_factorize(j))
            for g in range(2, min(p, 500)):
                if pow(g, p - 1, p) == 1 and all(
                        pow(g, (p - 1) // q, p) != 1 for q in qs):
                    self.p = p
                    self.w = pow(g, j, p)
                    return

    def __call__(self, x):
        """The image of x, an element of Q(zeta_L) with L | M whose
        denominator is prime to p."""
        p = self.p
        z = pow(self.w, self.M // x.ctx.N, p)
        acc = 0
        for c in reversed(x.vec):
            acc = (acc * z + c) % p
        return acc * pow(x.den, -1, p) % p


def classification_search(bound, phi_cap=200):
    """Search all triples of v-roots (alpha, beta, gamma) with indices
    3 <= p, q, r <= bound for the two degeneracy equations
    alpha*beta = 4*gamma  and  4 - alpha - beta - gamma = 0.

    Triples whose common field Q(zeta_lcm) would exceed degree phi_cap are
    skipped and reported.  Every other triple goes first through ModPMap for
    M = lcm(3..bound): a nonzero image of alpha*beta - 4*gamma or of
    4 - alpha - beta - gamma proves that side nonzero, and a zero image is
    certified exactly in Q(zeta_lcm)."""
    roots = []
    for r in range(3, bound + 1):
        for k in _coprime_ks(r):
            roots.append((r, k))

    image = ModPMap(lcm(*range(3, bound + 1)))
    p = image.p
    mod_p = {rk: image(root_of_v(*rk)) for rk in roots}
    lifted = {}

    def lift_root(rk, L):
        key = (rk, L)
        if key not in lifted:
            lifted[key] = root_of_v(*rk).lift(field_ctx(L))
        return lifted[key]

    product_sols = []
    sum_sols = []
    skipped = set()

    m = len(roots)
    for ia in range(m):
        for ib in range(ia, m):
            for ic in range(m):
                ra, rb, rc = roots[ia], roots[ib], roots[ic]
                L = lcm(ra[0], rb[0], rc[0])
                if euler_phi(L) > phi_cap:
                    skipped.add(tuple(sorted((ra[0], rb[0], rc[0]))))
                    continue
                a, b, c = mod_p[ra], mod_p[rb], mod_p[rc]
                product_zero = (a * b - 4 * c) % p == 0
                sum_zero = ic >= ib and (4 - a - b - c) % p == 0
                if not (product_zero or sum_zero):
                    continue
                a, b, c = (lift_root(rk, L) for rk in (ra, rb, rc))
                if product_zero and (a * b - 4 * c).is_zero():
                    product_sols.append({"alpha": ra, "beta": rb, "gamma": rc})
                if sum_zero and (4 - a - b - c).is_zero():
                    sum_sols.append(tuple(sorted((ra, rb, rc))))
    return {
        "product": product_sols,
        "sum": sorted(set(sum_sols)),
        "skipped": sorted(skipped),
    }
