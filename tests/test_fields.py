"""Primality of the user-supplied primes that define the prime fields."""

from fractions import Fraction

import pytest

from quivergrass.errors import BadPrimeError, ValidationError
from quivergrass.fields import _MR_BOUND, QQ, PrimeField, is_prime


def _sieve(n: int) -> list:
    flags = [False, False] + [True] * (n - 2)
    for d in range(2, int(n ** 0.5) + 1):
        if flags[d]:
            flags[d * d::d] = [False] * len(range(d * d, n, d))
    return flags


def test_is_prime_agrees_with_a_sieve_below_100000():
    flags = _sieve(10**5)
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [n for n in range(10**5) if flags[n]]


@pytest.mark.parametrize(
    "n", [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_strong_pseudoprimes_to_small_bases_are_rejected(n):
    # Strong pseudoprimes to base 2, to bases 2..7, to bases 2..23 and to
    # bases 2..37.
    assert not is_prime(n)


def test_a_mersenne_prime_above_trial_division_reach_is_decided():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * 1_000_003)


def test_is_prime_refuses_numbers_its_bases_cannot_decide():
    assert is_prime(_MR_BOUND - 1) is False  # even, but below the bound it is decided
    # A factor among the bases decides a number at any size.
    for n in (_MR_BOUND + 1, 10**30, 41 * (2**89 - 1)):
        assert is_prime(n) is False
    for n in (_MR_BOUND, _MR_BOUND + 6, 2**89 - 1):
        with pytest.raises(ValidationError, match="cannot decide"):
            is_prime(n)


def test_prime_field_coerces_each_input_kind():
    f7 = PrimeField(7)
    cases = [(10, 3), (-1, 6), (-15, 6), (True, 1), (False, 0), ("3/2", 5), ("-4", 3),
             (Fraction(-1, 3), 2), (Fraction(14, 7), 2)]
    for x, want in cases:
        got = f7.of(x)
        assert got == want and got.__class__ is int, x
    for x in (Fraction(1, 7), "2/21"):
        with pytest.raises(BadPrimeError, match="vanishes mod 7"):
            f7.of(x)
    with pytest.raises(ValidationError):
        f7.of(1.5)


def test_rationals_coerce_each_input_kind():
    for x, want in [(5, 5), (-3, -3), (True, 1), (False, 0), ("4/2", 2), (Fraction(6, 3), 2)]:
        got = QQ.of(x)
        assert got == want and got.__class__ is int, x
    for x in ("1/3", Fraction(-2, 6)):
        got = QQ.of(x)
        assert got == Fraction(x) and got.__class__ is Fraction, x
    with pytest.raises(ValidationError):
        QQ.of(1.5)
