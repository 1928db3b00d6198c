from fractions import Fraction

from reflektor.scalars import rat_str


def test_str_roundtrip():
    assert rat_str(Fraction(-3, 7)) == "-3/7"
    assert rat_str(Fraction(8, 4)) == "2"
    assert Fraction(rat_str(Fraction(22, 7))) == Fraction(22, 7)
