"""Dense univariate polynomials over Q, and the u_n / v_n families.

Coefficients are stored ascending.  They stay Python ints whenever they can;
a Fraction only appears if a construction or division introduces one.  The
product of two integer polynomials goes through Kronecker substitution (pack
into one big int, one multiply, unpack), and the division of an integer
polynomial by an integer one with leading coefficient +1 or -1 is synthetic
division in ints.  Every v_n and Phi_N is built that way, which is what keeps
the big identity sweeps cheap.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .scalars import rat_str


def _norm_coeff(c):
    # exact type tests: isinstance against Fraction goes through the ABC
    # machinery, and this runs on every coefficient of every UPoly
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _rational(c):
    try:
        return Fraction(c)
    except TypeError:
        raise TypeError("UPoly division needs rational coefficients, not %s"
                        % type(c).__name__) from None


class UPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        # degree of the zero polynomial is -1 here, by convention
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, UPoly) else UPoly([-other]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UPoly([c * other for c in self.coeffs])
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly()
        if _all_int(a) and _all_int(b):
            return UPoly(_kronecker_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if _all_int(other.coeffs) and other.coeffs[-1] in (1, -1) \
                and _all_int(self.coeffs):
            q, r = _int_divmod(self.coeffs, other.coeffs)
            return UPoly(q), UPoly(r)
        rem = [_rational(c) for c in self.coeffs]
        div = [_rational(c) for c in other.coeffs]
        lead = div[-1]
        dn = other.degree
        quo = [Fraction(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1 - dn, -1, -1):
            c = rem[i + dn] / lead
            if c:
                quo[i] = c
                for j, oc in enumerate(div):
                    rem[i + j] -= c * oc
        return UPoly(quo), UPoly(rem[:dn] if dn > 0 else [])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def eval(self, x):
        """Horner evaluation from int 0; x must mix with the coefficients
        (an MPoly x, a ring over Z, takes int or MPoly ones, not Fractions)."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def compose(self, other):
        result = UPoly()
        for c in reversed(self.coeffs):
            result = result * other + UPoly([c])
        return result

    def __repr__(self):
        return "UPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_poly(self)


def _all_int(cs):
    return all(type(c) is int for c in cs)


def _int_divmod(a, b):
    """Quotient and remainder coefficient lists of int coefficients a by int
    coefficients b whose leading one is +1 or -1.  Synthetic division: every
    quotient coefficient is a remainder coefficient times +/-1, so nothing
    leaves the integers."""
    dn = len(b) - 1
    rem = list(a)
    nq = len(rem) - dn
    if nq <= 0:
        return [], rem
    neg = b[-1] == -1
    # the divisors here (X^d - 1, Phi_N, v_d) are often sparse
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    quo = [0] * nq
    for i in range(nq - 1, -1, -1):
        c = rem[i + dn]
        if c:
            if neg:
                c = -c
            quo[i] = c
            for j, bc in terms:
                rem[i + j] -= c * bc
    return quo, rem[:dn]


def _kronecker_mul(a, b):
    # pack both polynomials into single integers at a spacing wide enough
    # that no convolution coefficient can touch its neighbour
    ma = max(abs(c) for c in a)
    mb = max(abs(c) for c in b)
    bound = ma * mb * min(len(a), len(b))
    bits = bound.bit_length() + 2
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)

    def pack(cs):
        v = 0
        for c in reversed(cs):
            v = (v << bits) + c
        return v

    val = pack(a) * pack(b)
    out = []
    while val:
        d = val & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        val = (val - d) >> bits
    return out


X = UPoly([0, 1])
ONE = UPoly([1])


def format_poly(p, var="X"):
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = rat_str(abs(c) if isinstance(c, int) else abs(Fraction(c)))
        else:
            mag = abs(c) if isinstance(c, int) else abs(Fraction(c))
            xpart = var if i == 1 else "%s^%d" % (var, i)
            body = xpart if mag == 1 else "%s*%s" % (rat_str(mag), xpart)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


@lru_cache(maxsize=None)
def u_poly(n):
    """n-th member of the family: u_1 = u_2 = 1, u_3 = X - 1, u_4 = X - 2,
    u_5 = X^2 - 3X + 1, ...; u_0 = 0 and u_{-n} = -u_n.

    Built from the closed binomial form, one coefficient per term.
    """
    if n < 0:
        return -u_poly(-n)
    if n == 0:
        return UPoly()
    if n % 2 == 1:
        # n = 2m+1: coefficients C(2m-k, k) alternating, degree m
        m = (n - 1) // 2
        cs = [0] * (m + 1)
        for k in range(m + 1):
            cs[m - k] = (-1) ** k * comb(2 * m - k, k)
        return UPoly(cs)
    # n = 2m+2: coefficients C(2m+1-k, k) alternating, degree m
    m = (n - 2) // 2
    cs = [0] * (m + 1)
    for k in range(m + 1):
        cs[m - k] = (-1) ** k * comb(2 * m + 1 - k, k)
    return UPoly(cs)


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


@lru_cache(maxsize=None)
def v_poly(n):
    """Irreducible-over-Q factor carrying the primitive roots of u_n:
    u_n = prod over d | n of v_d, with v_1 = v_2 = 1."""
    if n < 1:
        raise ValueError("v_n needs n >= 1")
    if n in (1, 2):
        return ONE
    q = u_poly(n)
    for d in _divisors(n)[:-1]:
        q = q.exact_div(v_poly(d))
    return q


def n_prime(n):
    """Index pairing v_n with v_{n'} under X -> 4 - X."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 1:
        return 2 * n
    if n % 4 == 2:
        return n // 2
    return n


def theta(p):
    """(-1)^deg times the constant term, for monic p.  This is the norm-like
    invariant that detects non-invertible constant terms."""
    if not p.is_monic():
        raise ValueError("theta is defined for monic polynomials")
    c = p.constant()
    return c if p.degree % 2 == 0 else -c


def prime_power_class(n):
    """p when n = 2*p^m with p prime and m >= 1, else 1."""
    if n % 2 != 0:
        return 1
    h = n // 2
    if h < 2:
        return 1
    p = 2
    while p * p <= h:
        if h % p == 0:
            break
        p += 1
    else:
        p = h
    while h % p == 0:
        h //= p
    return p if h == 1 else 1


def _factorize(n):
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def _mobius(n):
    mu = 1
    for p, e in _factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Phi_n via the Moebius product of X^d - 1 factors."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return UPoly([-1, 1])
    num = ONE
    den = ONE
    for d in _divisors(n):
        mu = _mobius(n // d)
        if mu == 0:
            continue
        f = UPoly([-1] + [0] * (d - 1) + [1])
        if mu == 1:
            num = num * f
        else:
            den = den * f
    return num.exact_div(den)


def euler_phi(n):
    out = n
    for p in _factorize(n):
        out = out // p * (p - 1)
    return out
