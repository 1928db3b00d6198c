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
- the norm N(x) is the determinant of multiplication by x, taken by the
  same fraction-free elimination (Bareiss 1968) that inverts elements and
  finds power-basis coordinates.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .matrices import SquareMat
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
        if self.ctx.N <= 2:
            return self
        return self.galois(self.ctx.N - 1)

    def lift(self, ctx2):
        """Embed into Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
        if isinstance(ctx2, int):
            ctx2 = field_ctx(ctx2)
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
    """The norm of x down to Q, the product of its Galois conjugates: the
    determinant of multiplication by x (Cohen, A Course in Computational
    Algebraic Number Theory, 4.3), that is det(M) / den^d for the integer
    matrix M of multiplication by den * x on the power basis, with the
    determinant from the fraction-free elimination of _bareiss."""
    d = x.ctx.degree
    rows = [list(r) for r in zip(*x.ctx.mul_columns(x.vec))]
    pivots, det = _bareiss(rows, d)
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


def root_identity_suite(r_max):
    """Exact checks, at every primitive root of every v_r with r <= r_max, of
    the evaluation identities: the reflection/periodicity rules at roots of
    v_{2p}, the weighted ladder there, and the odd-r ladder including its
    square-root-signed refinement."""
    res = SuiteResult("root_identities")

    for p in range(2, r_max // 2 + 1):
        r = 2 * p
        if r > r_max:
            break
        for k in _coprime_ks(r):
            g = root_of_v(r, k)
            seq = u_value_seq(g, 8 * p + 4)
            uu = lambda n: u_at(seq, n)
            lab = ("even", r, k)
            for kk in range(0, p + 1):
                res.check(uu(2 * p - kk) == uu(kk), lab + ("mirror", kk))
            for l in range(0, 4):
                e = 1 if l % 2 == 0 else -1
                for kk in range(0, p):
                    res.check(uu(2 * l * p + kk) == e * uu(kk),
                              lab + ("period", l, kk))
            res.check(uu(2 * p - 1) == 1, lab + ("top+",))
            res.check(uu(2 * p + 1) == -1, lab + ("top-",))
            w = 4 - g
            # the weight of the even rungs: g w when p is even
            w0 = w if p % 2 else g * w
            for kk in range(p + p % 2):
                tag = (("ladder", kk) if p % 2 else
                       (("ladder_e", "ladder_o")[kk % 2], kk // 2))
                res.check((w if kk % 2 else w0) * uu(p) * uu(p - kk)
                          == 2 * (uu(kk + 1) - uu(kk - 1)), lab + tag)
            res.check(w0 * uu(p) * uu(p) == 4, lab + ("norm4",))
            res.check(w * uu(p) * uu(p - 1) == 2, lab + ("norm2",))

    for r in range(3, r_max + 1, 2):
        h = (r - 1) // 2
        for k in _coprime_ks(r):
            s = sqrt_root(r, k)
            g = s * s
            seq = u_value_seq(g, 2 * r + 4)
            uu = lambda n: u_at(seq, n)
            lab = ("odd", r, k)
            for kk in range(0, h):
                res.check(uu(r - (2 * kk + 1)) == uu(2 * kk + 1) * uu(r - 1),
                          lab + ("odd_step", kk))
                res.check(uu(r - (2 * kk + 2)) == g * uu(2 * kk + 2) * uu(r - 1),
                          lab + ("even_step", kk))
            e = 1 if (k - 1) % 2 == 0 else -1
            res.check(s * uu(r - 1) == e, lab + ("sqrt_sign",))
            # for r = 3 mod 4, half_o is stated times s, which is not 0
            lmax, wt = ((r - 1) // 4, 1) if r % 4 == 1 else ((r - 3) // 8, g)
            for l in range(0, lmax + 1):
                res.check(uu(h - 2 * l)
                          == (uu(2 * l + 1) - e * s * uu(2 * l)) * uu(h),
                          lab + ("half_e", l))
                res.check(wt * uu(h - (2 * l - 1))
                          == (g * uu(2 * l) - e * s * uu(2 * l - 1)) * uu(h),
                          lab + ("half_o", l))
    return res


def norm_invertibility_suite(r_max):
    """Invertibility certificates for the v_r roots and for 4 minus them.

    With p the theta class of r (p when r = 2 p^m, else 1), p / gamma is an
    algebraic integer: solving p = sum_j y_j gamma^(j+1) gives its
    coordinates in the power basis of gamma, and they are integral, which
    exhibits a monic-free integer combination gamma P(gamma) = p.  Same on
    the 4 - gamma side through the index map r -> r'.  The Galois norms are
    checked as well (they equal p to the power phi(r) / deg of the minimal
    polynomial)."""
    res = SuiteResult("norm_invertibility")
    for r in range(3, r_max + 1):
        dim = euler_phi(r) // 2 if r > 2 else 1
        p = prime_power_class(r)
        p4 = prime_power_class(n_prime(r))
        for k in _coprime_ks(r):
            g = root_of_v(r, k)
            res.check(galois_norm(g) == Fraction(p) ** 2,
                      ("norm", r, k))
            res.check(galois_norm(4 - g) == Fraction(p4) ** 2,
                      ("norm4x", r, k))
            coords = power_basis_coords(g.ctx.from_fraction(p), g, dim, g)
            res.check(coords is not None and
                      all(c.denominator == 1 for c in coords),
                      ("integral", r, k))
            h = 4 - g
            coords = power_basis_coords(g.ctx.from_fraction(p4), h, dim, h)
            res.check(coords is not None and
                      all(c.denominator == 1 for c in coords),
                      ("integral4x", r, k))
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
    p = 1 mod M with a generator g < 500 of F_p*, and w = g^((p-1)/M) of
    order M.  Since p splits completely in Q(zeta_M), w is a root of Phi_M
    mod p, so the map is a ring homomorphism (Washington, Introduction to
    Cyclotomic Fields, ch. 2); on Q(zeta_L) with L | M it sends zeta_L to
    w^(M/L).

    g is tested against the primes of p - 1 = j M, which are those of M and
    those of j, so no loop runs up to p.  A g with g^(p-1) = 1 and
    g^((p-1)/q) != 1 for every such prime q also proves p prime (Lucas), so
    a candidate that passes the Fermat screen but has no such g below 500
    is passed over."""

    def __init__(self, m):
        self.M = m
        j = 0
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
