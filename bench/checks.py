"""Output checks that do not import reflektor.

Cyclotomic matrices are rebuilt here with their own small exact
arithmetic, so a wrong answer from the package cannot also make
its own check pass.  Each checker returns a list of (label, problem) pairs,
empty when the output is right.
"""

import json
import os
from fractions import Fraction
from functools import lru_cache

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, name)) as fh:
        return json.load(fh)


# -- case lists (verify_full) -----------------------------------------

def compare_cases(expected, got):
    """expected and got are lists of [suite_id, case_id, status].  Returns
    (attempted, failed): every expected case not reported with its status
    is one failure, and so is every reported case no list names."""
    want = {}
    for suite_id, case_id, status in expected:
        want.setdefault((suite_id, case_id), []).append(status)
    extra = 0
    for suite_id, case_id, status in got:
        statuses = want.get((suite_id, case_id))
        if statuses is None:
            extra += 1
        elif status in statuses:
            statuses.remove(status)
    missing = sum(len(v) for v in want.values())
    return len(expected) + extra, missing + extra


# -- Q(zeta_N) arithmetic ----------------------------------------------

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_divexact(num, den):
    """Exact quotient of integer polynomials (ascending), den monic."""
    num = list(num)
    dn = len(den) - 1
    quo = [0] * (len(num) - dn)
    for i in range(len(quo) - 1, -1, -1):
        c = num[i + dn]
        quo[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    if any(num[:dn]):
        raise ArithmeticError("inexact division")
    return quo


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n, ascending integer coefficients: X^n - 1 over the Phi_d for
    the proper divisors d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _poly_divexact(poly, cyclotomic(d))
    return tuple(poly)


class Field:
    """Q(zeta_N) in the power basis 1, z, .., z^(deg-1)."""

    def __init__(self, n):
        self.mod = cyclotomic(n)
        self.deg = len(self.mod) - 1

    def elem(self, den, vec):
        out = [c if den == 1 else Fraction(c, den) for c in vec]
        return tuple(out + [0] * (self.deg - len(out)))

    def const(self, c):
        return tuple([c] + [0] * (self.deg - 1))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        d = self.deg
        for i in range(len(out) - 1, d - 1, -1):
            c = out[i]
            if c:
                for j, m in enumerate(self.mod[:-1]):
                    out[i - d + j] -= c * m
        return tuple(out[:d])

    def matmul(self, a, b):
        n = len(a)
        zero = self.const(0)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = self.add(acc, self.mul(a[i][k], b[k][j]))
                row.append(acc)
            out.append(row)
        return out

    def identity(self, n):
        return [[self.const(1 if i == j else 0) for j in range(n)]
                for i in range(n)]


def _prime_factors(k):
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def check_word(query, out):
    """A word query returns the element order k, the characteristic
    polynomial and whether w^k = 1 holds as a relation.  Checked here:
    w^k = 1, w^(k/p) != 1 for each prime p | k, Cayley-Hamilton, and the
    constant term (-1)^n det(w) with det(w) = (-1)^len(word)."""
    field = Field(out["conductor"])
    gens = [[[field.elem(*x) for x in row] for row in g] for g in out["gens"]]
    n = len(gens[0])
    ident = field.identity(n)
    w = ident
    for i in query["word"]:
        w = field.matmul(w, gens[i - 1])
    problems = []
    k = out["order"]
    if not isinstance(k, int) or k < 1:
        return [("order", "no finite order returned: %r" % (k,))]
    powers = [ident]
    for _ in range(max(k, n)):
        powers.append(field.matmul(powers[-1], w))
    if powers[k] != ident:
        problems.append(("order", "w^%d is not the identity" % k))
    for p in _prime_factors(k):
        if powers[k // p] == ident:
            problems.append(("order", "w^%d is already the identity"
                             % (k // p)))
    coeffs = [field.elem(*c) for c in out["charpoly"]]
    if len(coeffs) != n + 1 or coeffs[-1] != field.const(1):
        problems.append(("charpoly", "not monic of degree %d" % n))
        return problems
    sign = (-1) ** (n + len(query["word"]))
    if coeffs[0] != field.const(sign):
        problems.append(("charpoly", "constant term is not %d" % sign))
    total = [[field.const(0)] * n for _ in range(n)]
    for c, pw in zip(coeffs, powers):
        total = [[field.add(total[i][j], field.mul(c, pw[i][j]))
                  for j in range(n)] for i in range(n)]
    if any(x != field.const(0) for row in total for x in row):
        problems.append(("charpoly", "Cayley-Hamilton fails"))
    if out["relation"] is not True:
        problems.append(("relation", "check_relation(w, k) did not hold"))
    return problems


def check_query(query, out):
    """Problems with one closure_queries answer (out is never None here)."""
    kind = query["kind"]
    if kind == "order":
        if out.get("order") != query["order"] or out.get("cap_exceeded"):
            return [("order", "got %r, want %d"
                     % (out.get("order"), query["order"]))]
        return []
    if kind == "center":
        problems = []
        if out.get("order") != query["order"]:
            problems.append(("order", "got %r, want %d"
                             % (out.get("order"), query["order"])))
        if out.get("center") != query["center"]:
            problems.append(("center", "got %r, want %d"
                             % (out.get("center"), query["center"])))
        return problems
    if kind == "word":
        return check_word(query, out)
    if kind == "growth":
        if out.get("cap_exceeded") is not True:
            return [("growth", "closure of an infinite group did not "
                     "report cap_exceeded")]
        return []
    return [("kind", "unknown query kind %r" % kind)]
