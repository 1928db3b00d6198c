"""Dense univariate polynomials, and the u_n / v_n families.

A UPoly is a polynomial over whatever commutative ring its coefficients
come from: ints for u_n, v_n and Phi_N, and CycloElem or MPoly entries for
the characteristic polynomials of matrices.  Coefficients are stored
ascending, and any operand that is not a UPoly is read as a constant of
that ring.  Products are schoolbook convolutions.  The one division is
synthetic division of an int polynomial by an int one whose leading
coefficient is +1 or -1, so quotient and remainder stay integral; that is
all v_n and Phi_N need, since each is built by exact division by monic
factors.
"""

from fractions import Fraction
from functools import lru_cache


def _const(c):
    return c if isinstance(c, UPoly) else UPoly([c])


def ring_pow(base, n, one):
    """base^n for an int n >= 0 in any ring with *, by binary powering from
    one; the last squaring, past the top bit of n, is skipped.  Every ring
    of the package (UPoly, MPoly, CycloElem, SquareMat) powers through it."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class UPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
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
        return self.coeffs == _const(other).coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if len(self.coeffs) < 2:
            return hash(self.constant())
        return hash(self.coeffs)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, _const(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_const(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self.coeffs, _const(other).coeffs
        if not a or not b:
            return UPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return ring_pow(self, n, UPoly([1]))

    def __divmod__(self, other):
        """Quotient and remainder by synthetic division in ints: every
        quotient coefficient is a remainder coefficient times +/-1, so
        nothing leaves the integers.  Both operands must have int
        coefficients and the divisor a leading coefficient of +1 or -1;
        anything else raises ValueError."""
        a, b = self.coeffs, _const(other).coeffs
        if not (b and b[-1] in (1, -1)
                and all(type(c) is int for c in a + b)):
            raise ValueError("UPoly division needs int coefficients and a "
                             "divisor with leading coefficient +1 or -1")
        dn = len(b) - 1
        rem = list(a)
        nq = len(rem) - dn
        if nq <= 0:
            return UPoly(), self
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
        return UPoly(quo), UPoly(rem[:dn])

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
            result = result * other + c
        return result

    def __repr__(self):
        return "UPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_poly(self)


X = UPoly([0, 1])
ONE = UPoly([1])


def format_poly(p, var="X"):
    """Highest degree first, e.g. "X^2 - 3*X + 1".  A rational coefficient
    (an int, a Fraction or a rational CycloElem) carries its sign; any
    other one is printed in parentheses after "+ "."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if hasattr(c, "is_rational") and c.is_rational():
            c = c.to_fraction()
        if isinstance(c, (int, Fraction)):
            neg, mag = c < 0, str(abs(c))
        else:
            neg, mag = False, "(%s)" % (c,)
        if i == 0:
            body = mag
        else:
            xpart = var if i == 1 else "%s^%d" % (var, i)
            body = xpart if mag == "1" else "%s*%s" % (mag, xpart)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


@lru_cache(maxsize=None)
def u_poly(n):
    """n-th member of the family: u_1 = u_2 = 1, u_3 = X - 1, u_4 = X - 2,
    u_5 = X^2 - 3X + 1, ...; u_0 = 0 and u_{-n} = -u_n.

    Built from the closed binomial form: with a = n - 1 and m = a // 2,
    the coefficient of X^(m-k) is (-1)^k C(a-k, k).  Each binomial comes
    from the one before by the exact ratio
    C(a-k-1, k+1) / C(a-k, k) = (a-2k)(a-2k-1) / ((k+1)(a-k)).
    """
    if n < 0:
        return -u_poly(-n)
    if n == 0:
        return UPoly()
    a = n - 1
    m = a // 2
    cs = [1] * (m + 1)
    b = 1
    for k in range(m):
        b = b * (a - 2 * k) * (a - 2 * k - 1) // ((k + 1) * (a - k))
        cs[m - 1 - k] = b if k % 2 else -b
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
