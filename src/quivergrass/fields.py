"""Exact coefficient fields: the rationals and prime fields.

Rational scalars are fractions.Fraction; prime-field scalars are plain ints
normalized to 0..p-1, so in both fields an element is falsy iff it is zero.
Matrix code receives one of these field objects and performs every
operation through it, so no floating point can enter. Fractions are
immutable, so zero and one are shared constants rather than fresh objects.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadPrimeError, ValidationError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class Rationals:
    """The field of rational numbers, elements are Fraction."""

    char = 0

    def of(self, x) -> Fraction:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ValidationError(f"cannot coerce {x!r} into the rationals")

    @property
    def zero(self) -> Fraction:
        return _Q_ZERO

    @property
    def one(self) -> Fraction:
        return _Q_ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def format_el(self, a) -> str | int:
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def tag(self) -> dict:
        return {"field": "Q"}

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")


class PrimeField:
    """The field with p elements, elements are ints in 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadPrimeError(f"{p} is not prime")
        self.p = p
        self.char = p

    def of(self, x) -> int:
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise BadPrimeError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        raise ValidationError(f"cannot coerce {x!r} into F_{self.p}")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def format_el(self, a) -> int:
        return a % self.p

    def tag(self) -> dict:
        return {"field": "Fp", "p": self.p}

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))


QQ = Rationals()


def field_from_tag(tag: dict):
    if tag.get("field") == "Q":
        return QQ
    if tag.get("field") == "Fp":
        return PrimeField(int(tag["p"]))
    raise ValidationError(f"unknown field tag {tag!r}")
