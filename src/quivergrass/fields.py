"""Exact coefficient fields: the rationals and prime fields.

A rational scalar is a plain int when it is integral and a normalized
fractions.Fraction only when it is not; every operation of `Rationals`
returns a Fraction with denominator 1 as its numerator, so integral
matrices are eliminated in int arithmetic. The two kinds compare and hash
equal, so matrix keys and subspace equality do not depend on which is
stored. Prime-field scalars are plain ints normalized to 0..p-1, so in both
fields an element is falsy iff it is zero. Matrix code receives one of these
field objects and performs every operation through it, so no floating point
can enter.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadPrimeError, ValidationError


# Strong probable-prime tests to the first thirteen primes as bases decide
# primality exactly below _MR_BOUND, the least strong pseudoprime to all of
# them (Sorenson and Webster 2015); the first twelve, 2..37, are fooled by
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below about 3.3e24 by deterministic Miller-Rabin.

    A number with a factor among the bases is decided at any size. Any other
    number at or above the bound raises ValidationError, since the fixed
    bases no longer decide it.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise ValidationError(
            f"cannot decide whether {n} is prime: primes must be below {_MR_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers: ints when integral, else Fractions."""

    char = 0

    def of(self, x) -> int | Fraction:
        if x.__class__ is int:
            return x
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise ValidationError(f"cannot coerce {x!r} into the rationals")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        n, d = a.numerator, a.denominator
        if n == 1:
            return d
        if n == -1:
            return -d
        return Fraction(d, n)

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
        if x.__class__ is int:
            return x % self.p
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

