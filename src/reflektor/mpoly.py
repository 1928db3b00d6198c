"""Sparse polynomials over Z in the four edge constants alpha, beta, l, m.

The same ring holds Section 1's Laurent numerators in t and the class
variables T_i (`identities` and `cyclo`), with exponents of either sign;
only `coeffs_in` and `prem`, which Section 2 alone calls, raise ValueError
on a negative exponent in their variable.

Terms map exponent 4-tuples to nonzero ints; an MPoly mixes with ints only,
and any other scalar operand raises TypeError.  Ring ops and a fraction-free
pseudo-remainder (for the conditional factorizations) are all it needs.
Nothing changes .terms once a constructor has returned, so a sum or product
with a zero or constant operand may hand back the other operand itself.
"""

from .upoly import ring_pow

VAR_NAMES = ("alpha", "beta", "l", "m")
NVARS = 4


class MPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if c != 0:
                    self.terms[exps] = c

    @classmethod
    def const(cls, c):
        p = cls()
        if c != 0:
            p.terms[(0, 0, 0, 0)] = c
        return p

    @classmethod
    def var(cls, i):
        p = cls()
        e = [0] * NVARS
        e[i] = 1
        p.terms[tuple(e)] = 1
        return p

    def is_zero(self):
        return not self.terms

    def _constant(self):
        """The int this polynomial equals, or None if it is not constant."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            return self.terms.get((0, 0, 0, 0))
        return None

    def _scaled(self, c):
        if c == 0:
            return MPoly()
        if c == 1:
            return self
        p = MPoly()
        p.terms = {e: k * c for e, k in self.terms.items()}
        return p

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes like one
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and (0, 0, 0, 0) in self.terms:
            return hash(self.terms[(0, 0, 0, 0)])
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        p = MPoly()
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        p = MPoly()
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        c = other._constant()
        if c is not None:
            return self._scaled(c)
        c = self._constant()
        if c is not None:
            return other._scaled(c)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        p = MPoly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        return ring_pow(self, n, MPoly.const(1))

    def degree_in(self, var):
        return max((e[var] for e in self.terms), default=-1)

    def coeffs_in(self, var):
        """List of MPoly coefficients of var^0, var^1, ... (var cleared);
        a negative exponent of var raises ValueError."""
        d = self.degree_in(var)
        out = [MPoly() for _ in range(d + 1)]
        for e, c in self.terms.items():
            rest = list(e)
            k = rest[var]
            if k < 0:
                raise ValueError("a negative exponent of %s" % VAR_NAMES[var])
            rest[var] = 0
            out[k].terms[tuple(rest)] = c
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            body = "*".join(
                [VAR_NAMES[i] + ("^%d" % e[i] if e[i] != 1 else "")
                 for i in range(NVARS) if e[i]])
            if body:
                cs = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                parts.append(cs + body)
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


ALPHA = MPoly.var(0)
BETA = MPoly.var(1)
L = MPoly.var(2)
M = MPoly.var(3)
GAMMA = L * M


def prem(f, g, var):
    """The pseudo-remainder of f by a g = g1 var + g0 linear in var:
    with f = sum f_i var^i of degree D >= 1 it is
    g1^D f(-g0/g1) = sum f_i (-g0)^i g1^(D-i), taken by Horner's rule, and
    for D < 1 it is f.  That is lc(g)^(D - deg g + 1) f mod g, sympy's prem
    (Knuth, TAOCP vol. 2, 4.6.1).  A g of any other degree in var raises
    ValueError, and so does a negative exponent of var in f or g.

    For g primitive in var (gcd(g1, g0) = 1) the result is zero exactly
    when g divides f: g1^D f = q g + prem, so g | f gives prem = 0; and if
    prem = 0, g divides g1^D f while g and g1 have no common factor (one
    would lie in the coefficient ring and divide the content of g), so g
    divides f by Gauss's lemma."""
    if g.degree_in(var) != 1:
        raise ValueError("prem needs a divisor linear in the variable")
    g0, g1 = g.coeffs_in(var)
    fs = f.coeffs_in(var)
    if len(fs) < 2:
        return f
    r, g1_pow, neg_g0 = fs[-1], MPoly.const(1), -g0
    for fi in reversed(fs[:-1]):
        g1_pow = g1_pow * g1
        r = r * neg_g0 + fi * g1_pow
    return r
