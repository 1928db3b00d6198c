"""Exact arithmetic in cyclotomic fields Q(zeta_N), and everything the root
identities need on top of it: distinguished roots of the v_r factors, their
square roots one conductor up, Galois action and norms, the quadratic
extensions a^2 = phi*a +/- 1, and the small search that classifies which
root triples satisfy the two degeneracy equations.

Elements are integer coefficient vectors in the power basis 1, z, ..,
z^(phi(N)-1) over a single positive denominator, always gcd-normalized, so
equality is tuple equality.
"""

from fractions import Fraction
from math import gcd, lcm

from .report import SuiteResult
from .upoly import (UPoly, cyclotomic_poly, euler_phi,
                    n_prime, prime_power_class)

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
        # coefficients of Phi_N below the leading 1, used for reduction
        self._mod = self.phi_poly.coeffs[:-1]

    def reduce(self, vec):
        """Reduce an integer coefficient list mod Phi_N (synthetic division
        by a monic modulus stays integral)."""
        d = self.degree
        v = list(vec)
        if len(v) < d:
            v += [0] * (d - len(v))
        for i in range(len(v) - 1, d - 1, -1):
            c = v[i]
            if c:
                v[i] = 0
                base = i - d
                for j, m in enumerate(self._mod):
                    v[base + j] -= c * m
        return tuple(v[:d])

    def zero(self):
        return CycloElem(self, (0,) * self.degree, 1, _raw=True)

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        vec = [0] * self.degree
        if self.degree:
            vec[0] = k
        return CycloElem(self, self.reduce(vec), 1)

    def from_fraction(self, q):
        q = Fraction(q)
        vec = [0] * self.degree
        vec[0] = q.numerator
        return CycloElem(self, self.reduce(vec), q.denominator)

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

    # -- coercion -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.ctx is self.ctx:
                return other
            if other.ctx.N == self.ctx.N:
                return CycloElem(self.ctx, other.vec, other.den, _raw=True)
            raise ValueError("mixed conductors %d and %d; lift first"
                             % (self.ctx.N, other.ctx.N))
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = lcm(self.den, o.den)
        a, b = d // self.den, d // o.den
        vec = [a * x + b * y for x, y in zip(self.vec, o.vec)]
        return CycloElem(self.ctx, vec, d)

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.ctx, [-c for c in self.vec], self.den, _raw=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.vec, o.vec
        out = [0] * (2 * len(a) - 1 if a else 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return CycloElem(self.ctx, self.ctx.reduce(out), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = self.ctx.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vec == o.vec and self.den == o.den

    def __hash__(self):
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
        from .upoly import format_poly
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
    """Product of all Galois conjugates; always a rational number."""
    out = x.ctx.one()
    n = x.ctx.N
    if n <= 2:
        return Fraction(x.vec[0] if x.vec else 0, x.den)
    for j in range(1, n):
        if gcd(j, n) == 1:
            out = out * x.galois(j)
    return out.to_fraction()


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


def _solve_int(cols, rhs):
    """Solve sum_j y_j * cols[j] = rhs over Q for integer vectors of one
    length, by fraction-free elimination (Bareiss 1968) and back
    substitution.

    Returns (nums, det) with y_j = nums[j] / det, where det is the last
    pivot and the unknowns of columns without a pivot are 0; or None when
    rhs is not in the span of the columns.  Every division is exact: each
    eliminated entry is a minor of the augmented matrix, and nums are the
    Cramer numerators of the square system on the pivot rows and columns,
    whose determinant is det."""
    m, d = len(cols), len(rhs)
    rows = [[col[i] for col in cols] + [rhs[i]] for i in range(d)]
    prev = 1
    pivots = []
    for col in range(m):
        k = len(pivots)
        piv = next((r for r in range(k, d) if rows[r][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        prow = rows[k][col:]
        p = prow[0]
        for row in rows[k + 1:]:
            f = row[col]
            row[col:] = [(p * a - f * b) // prev
                         for a, b in zip(row[col:], prow)]
        prev = p
        pivots.append(col)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    nums = [0] * m
    for k in range(len(pivots) - 1, -1, -1):
        row, col = rows[k], pivots[k]
        acc = prev * row[m] - sum(row[j] * nums[j] for j in pivots[k + 1:])
        nums[col] = acc // row[col]
    return nums, prev


def power_basis_coords(x, gen, dim):
    """Write x as a Q-linear combination of 1, gen, .., gen^(dim-1), by exact
    fraction-free elimination.  Returns the list of Fractions, or None when
    x is not in the span."""
    cols, dens = [], []
    p = x.ctx.one()
    for _ in range(dim):
        cols.append(p.vec)
        dens.append(p.den)
        p = p * gen
    # column j holds den_j * gen^j, so coordinate j is den_j * y_j
    sol = _solve_int(cols, x.vec)
    if sol is None:
        return None
    nums, det = sol
    return [Fraction(dj * c, det * x.den) for dj, c in zip(dens, nums)]


# -- quadratic extensions a^2 = phi a +/- 1 ----------------------------

def quad_mul(x, y, phi, sign):
    """Product of x = (c1, c0) and y = (d1, d0) meaning c1*a + c0, in the
    ring where a^2 = phi*a + sign (sign is +1 or -1)."""
    c1, c0 = x
    d1, d0 = y
    cross = c1 * d1
    return (cross * phi + c1 * d0 + c0 * d1, c0 * d0 + sign * cross)


def quad_pow(phi, sign, n):
    """a^n as a pair (coefficient of a, constant), for any integer n.
    Negative powers use a^(-1) = sign * (a - phi)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    one_c = phi - phi + 1  # one in whatever ring phi lives in
    zero_c = phi - phi
    if n >= 0:
        base = (one_c, zero_c)
    else:
        base = (sign * one_c, -sign * phi)
        n = -n
    result = (zero_c, one_c)
    while n:
        if n & 1:
            result = quad_mul(result, base, phi, sign)
        base = quad_mul(base, base, phi, sign)
        n >>= 1
    return result


def quad_pow_closed(phi, sign, n):
    """The closed form for a^n through the u family evaluated at phi^2
    (sign -1) or -phi^2 (sign +1)."""
    s = phi * phi
    if sign == -1:
        seq = u_value_seq(s, abs(2 * n) + 3)
        if n % 2 == 0:
            return (phi * u_at(seq, n), -u_at(seq, n - 1))
        return (u_at(seq, n), -phi * u_at(seq, n - 1))
    seq = u_value_seq(-s, abs(2 * n) + 3)
    if n % 2 == 0:
        h = n // 2
        e = 1 if (h - 1) % 2 == 0 else -1
        return (e * phi * u_at(seq, n), e * u_at(seq, n - 1))
    h = (n - 1) // 2
    return ((1 if h % 2 == 0 else -1) * u_at(seq, n),
            (1 if (h - 1) % 2 == 0 else -1) * phi * u_at(seq, n - 1))


# -- suites ------------------------------------------------------------


def _coprime_ks(r):
    return [k for k in range(1, (r + 1) // 2) if gcd(k, r) == 1]


def root_identity_suite(r_max):
    """Exact checks, at every primitive root of every v_r with r <= r_max, of
    the evaluation identities: the reflection/periodicity rules at roots of
    v_{2p}, the two weighted ladders there, and the odd-r ladder including
    its square-root-signed refinement."""
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
            if p % 2 == 1:
                for kk in range(0, p + 1):
                    res.check(w * uu(p) * uu(p - kk) * 1
                              == 2 * (uu(kk + 1) - uu(kk - 1)),
                              lab + ("ladder", kk))
                res.check(w * uu(p) * uu(p) == 4, lab + ("norm4",))
                res.check(w * uu(p) * uu(p - 1) == 2, lab + ("norm2",))
            else:
                for kk in range(0, p // 2):
                    res.check(g * w * uu(p) * uu(p - 2 * kk)
                              == 2 * (uu(2 * kk + 1) - uu(2 * kk - 1)),
                              lab + ("ladder_e", kk))
                    res.check(w * uu(p) * uu(p - (2 * kk + 1))
                              == 2 * (uu(2 * kk + 2) - uu(2 * kk)),
                              lab + ("ladder_o", kk))
                res.check(g * w * uu(p) * uu(p) == 4, lab + ("norm4",))
                res.check(w * uu(p) * uu(p - 1) == 2, lab + ("norm2",))

    for r in range(3, r_max + 1, 2):
        r1 = (r - 1) // 2
        for k in _coprime_ks(r):
            s = sqrt_root(r, k)
            g = s * s
            seq = u_value_seq(g, 2 * r + 4)
            uu = lambda n: u_at(seq, n)
            lab = ("odd", r, k)
            for kk in range(0, r1):
                res.check(uu(r - (2 * kk + 1)) == uu(2 * kk + 1) * uu(r - 1),
                          lab + ("odd_step", kk))
                res.check(uu(r - (2 * kk + 2)) == g * uu(2 * kk + 2) * uu(r - 1),
                          lab + ("even_step", kk))
            e = 1 if (k - 1) % 2 == 0 else -1
            res.check(s * uu(r - 1) == e, lab + ("sqrt_sign",))
            h = (r - 1) // 2
            if r % 4 == 1:
                lmax = (r - 1) // 4
                for l in range(0, lmax + 1):
                    res.check(uu(h - 2 * l)
                              == (uu(2 * l + 1) - e * s * uu(2 * l)) * uu(h),
                              lab + ("half_e", l))
                    res.check(uu(h - (2 * l - 1))
                              == (g * uu(2 * l) - e * s * uu(2 * l - 1)) * uu(h),
                              lab + ("half_o", l))
            else:
                lmax = (r - 3) // 8
                for l in range(0, lmax + 1):
                    res.check(uu(h - 2 * l)
                              == (uu(2 * l + 1) - e * s * uu(2 * l)) * uu(h),
                              lab + ("half_e", l))
                    res.check(s * uu(h - (2 * l - 1))
                              == (s * uu(2 * l) - e * uu(2 * l - 1)) * uu(h),
                              lab + ("half_o", l))
    return res


def norm_invertibility_suite(r_max):
    """Invertibility certificates for the v_r roots and for 4 minus them.

    With p the theta class of r (p when r = 2 p^m, else 1), p / gamma is an
    algebraic integer: its coordinates in the power basis of gamma are
    integral, which exhibits a monic-free integer combination gamma P(gamma)
    = p.  Same on the 4 - gamma side through the index map r -> r'.  The
    Galois norms are checked as well (they equal p to the power
    phi(r) / deg of the minimal polynomial)."""
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
            coords = power_basis_coords(p / g, g, dim)
            res.check(coords is not None and
                      all(c.denominator == 1 for c in coords),
                      ("integral", r, k))
            h = 4 - g
            coords = power_basis_coords(p4 / h, h, dim)
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


def classification_search(bound, phi_cap=200):
    """Search all triples of v-roots (alpha, beta, gamma) with indices
    3 <= p, q, r <= bound for the two degeneracy equations
    alpha*beta = 4*gamma  and  4 - alpha - beta - gamma = 0,
    working exactly in Q(zeta_lcm).  Triples whose common field would exceed
    degree phi_cap are skipped and reported."""
    roots = []
    for r in range(3, bound + 1):
        for k in _coprime_ks(r):
            roots.append((r, k))

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
                a = lift_root(ra, L)
                b = lift_root(rb, L)
                c = lift_root(rc, L)
                if (a * b - 4 * c).is_zero():
                    product_sols.append({"alpha": ra, "beta": rb, "gamma": rc})
                if ic >= ib and (4 - a - b - c).is_zero():
                    sum_sols.append(tuple(sorted((ra, rb, rc))))
    return {
        "product": product_sols,
        "sum": sorted(set(sum_sols)),
        "skipped": sorted(skipped),
    }
