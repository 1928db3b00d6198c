"""Small square matrices over an arbitrary exact commutative ring.

The entry type only has to support +, -, *, mixing with ints and Fractions,
and == against int.  That covers Fraction itself, cyclotomic elements, and
the sparse symbolic polynomials.  Characteristic polynomials go through the
trace recursion (Faddeev-LeVerrier), whose only divisions are by small
integers and therefore stay exact.
"""

from fractions import Fraction

from .upoly import UPoly


class SquareMat:
    __slots__ = ("rows", "one", "zero")

    def __init__(self, rows, one, zero):
        self.rows = tuple(tuple(r) for r in rows)
        self.one = one
        self.zero = zero

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n, one, zero):
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)], one, zero)

    def __eq__(self, other):
        if not isinstance(other, SquareMat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if not isinstance(other, SquareMat):
            return NotImplemented
        n = self.n
        a, b = self.rows, other.rows
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = a[i][0] * b[0][j]
                for k in range(1, n):
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            out.append(row)
        return SquareMat(out, self.one, self.zero)

    def __add__(self, other):
        return SquareMat([[x + y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                         self.one, self.zero)

    def __sub__(self, other):
        return SquareMat([[x - y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                         self.one, self.zero)

    def __neg__(self):
        return SquareMat([[-x for x in r] for r in self.rows],
                         self.one, self.zero)

    def scale(self, c):
        return SquareMat([[c * x for x in r] for r in self.rows],
                         self.one, self.zero)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = SquareMat.identity(self.n, self.one, self.zero)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_identity(self):
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[i][j] != (1 if i == j else 0):
                    return False
        return True

    def is_scalar(self):
        d = self.rows[0][0]
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    if self.rows[i][j] != d:
                        return False
                elif self.rows[i][j] != 0:
                    return False
        return True

    def char_poly(self):
        """Characteristic polynomial det(X I - M) as a UPoly whose
        coefficients live in the entry ring."""
        n = self.n
        ident = SquareMat.identity(n, self.one, self.zero)
        coeffs = [self.one]  # leading coefficient of X^n
        mk = self
        cs = []
        for k in range(1, n + 1):
            ck = mk.trace() * Fraction(-1, k)
            cs.append(ck)
            if k < n:
                mk = self * (mk + ident.scale(ck))
        # char = X^n + c1 X^(n-1) + ... + cn
        return UPoly(list(reversed(cs)) + [self.one])

    def det(self):
        cp = self.char_poly()
        c0 = cp.constant()
        return c0 if self.n % 2 == 0 else -c0

    def inverse(self):
        """Gauss-Jordan inverse; entries must support true division."""
        n = self.n
        a = [list(r) for r in self.rows]
        b = [list(r) for r in SquareMat.identity(n, self.one, self.zero).rows]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            pv = a[col][col]
            a[col] = [x / pv for x in a[col]]
            b[col] = [x / pv for x in b[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    b[r] = [x - f * y for x, y in zip(b[r], b[col])]
        return SquareMat(b, self.one, self.zero)

    def apply(self, vec):
        return [sum_ring(row, vec, self.zero) for row in self.rows]

    def __repr__(self):
        return "SquareMat(%s)" % ("; ".join(
            ", ".join(repr(x) for x in r) for r in self.rows))


def sum_ring(row, vec, zero):
    acc = zero
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def mat_word(mats, word):
    """Product of the generators over the 1-based letters of word, in
    written order: letter i stands for mats[i - 1]."""
    result = SquareMat.identity(mats[0].n, mats[0].one, mats[0].zero)
    for i in word:
        if not 1 <= i <= len(mats):
            raise ValueError("no generator s%d (have s1..s%d)"
                             % (i, len(mats)))
        result = result * mats[i - 1]
    return result


def pair_C(s, t):
    """C(s, t) = trace((s - 1)(t - 1)) for two reflections (trace n - 2),
    over any entry ring; the pairing that controls the order of s t."""
    n = s.n
    for mat in (s, t):
        if mat.trace() != n - 2:
            raise ValueError("pair_C expects reflections "
                             "(trace must be n - 2)")
    acc = None
    for i in range(n):
        for j in range(n):
            term = (s.rows[i][j] - (1 if i == j else 0)) * \
                   (t.rows[j][i] - (1 if i == j else 0))
            acc = term if acc is None else acc + term
    return acc
