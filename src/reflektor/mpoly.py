"""Sparse polynomials over Z in the four edge constants alpha, beta, l, m.

Terms map exponent 4-tuples to nonzero ints; an MPoly mixes with ints only,
and any other scalar operand raises TypeError.  Ring ops and a fraction-free
pseudo-remainder (for the conditional factorizations) are all it needs.
"""

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

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
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
            if other == 0:
                return MPoly()
            p = MPoly()
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        if not isinstance(other, MPoly):
            return NotImplemented
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
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree_in(self, var):
        return max((e[var] for e in self.terms), default=-1)

    def coeffs_in(self, var):
        """List of MPoly coefficients of var^0, var^1, ... (var cleared)."""
        d = self.degree_in(var)
        out = [MPoly() for _ in range(d + 1)]
        for e, c in self.terms.items():
            rest = list(e)
            k = rest[var]
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
                [VAR_NAMES[i] + ("^%d" % e[i] if e[i] > 1 else "")
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
    """A fraction-free pseudo-remainder of f by g with respect to var.
    Vanishing pseudo-remainder certifies divisibility when g is primitive
    (content-free) in var."""
    dg = g.degree_in(var)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lc_g = g.coeffs_in(var)[dg]
    r = f
    while True:
        dr = r.degree_in(var)
        if dr < dg:
            return r
        lc_r = r.coeffs_in(var)[dr]
        shift = MPoly.var(var) ** (dr - dg)
        r = lc_g * r - lc_r * shift * g
