"""Small square matrices over an arbitrary exact commutative ring.

The entry type only has to support +, -, * and == against an int.  That
covers ints, Fractions, cyclotomic elements and the sparse symbolic
polynomials over Z.  Every entry of a product, of a matrix-vector product
and of a Krylov column is one sum_ring call, the only place that looks at
the entry ring: over Q(zeta_N) it is the field's fused dot, reduced once
per entry.  Nothing here divides: powers are ring_pow from the identity,
so a negative power raises ValueError (the inverse of a word in
reflections is the reversed word), and characteristic polynomials go
through Berkowitz's recursion, so they stay in the entry ring.
"""

from .upoly import UPoly, ring_pow


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
        cols = list(zip(*other.rows))
        return SquareMat([[sum_ring(row, col, self.zero) for col in cols]
                          for row in self.rows], self.one, self.zero)

    def __pow__(self, k):
        return ring_pow(self, k, SquareMat.identity(self.n, self.one,
                                                    self.zero))

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_identity(self):
        return self.rows[0][0] == 1 and self.is_scalar()

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
        """det(X I - M) as a UPoly over the entry ring, by Berkowitz's
        recursion: bordering the leading r x r block A with the column c
        above the new diagonal entry a and the row R left of it multiplies
        the block's char poly (from X^r down) by the Toeplitz matrix whose
        first column is 1, -a, -R c, -R A c, ..., -R A^(r-1) c."""
        rows, zero = self.rows, self.zero
        cp = [self.one]
        for r in range(self.n):
            block = [row[:r] for row in rows[:r]]
            col = [row[r] for row in rows[:r]]
            toeplitz = [-rows[r][r]]
            for j in range(r):
                if j:
                    col = [sum_ring(b, col, zero) for b in block]
                toeplitz.append(-sum_ring(rows[r][:r], col, zero))
            # toeplitz is the column below its leading 1; cp[0] is one, so
            # the column's products with it are the column itself
            nxt = [cp[0]] + [c + t for c, t in zip(cp[1:] + [zero], toeplitz)]
            for i in range(1, r + 1):
                for j, t in enumerate(toeplitz[:r + 1 - i], i + 1):
                    nxt[j] = nxt[j] + t * cp[i]
            cp = nxt
        return UPoly(cp[::-1])

    def apply(self, vec):
        return [sum_ring(row, vec, self.zero) for row in self.rows]

    def __repr__(self):
        return "SquareMat(%s)" % ("; ".join(
            ", ".join(repr(x) for x in r) for r in self.rows))


def sum_ring(row, vec, zero):
    """zero + sum of row_k * vec_k.  Over a cyclotomic field (zero is an
    element with a field context) this is the field's fused dot, which
    reduces the whole sum once; any other ring adds the products in turn."""
    ctx = getattr(zero, "ctx", None)
    if ctx is not None:
        return ctx.dot(row, vec)
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
