"""Exact rational scalars.

The whole package computes over Q (and cyclotomic extensions of Q built on
top of it).  Python's Fraction already is a canonical exact rational, so the
only helper here is its canonical text form.
"""

from fractions import Fraction


def rat_str(q):
    """Canonical text form: "num/den", or just "num" when den == 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)
