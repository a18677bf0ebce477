"""Full acceptance battery: twelve exact checks, one test per criterion."""

import random

import pytest

import quivergrass.acceptance as acceptance
from quivergrass.acceptance import (
    CRITERION_NUMBERS,
    _inv,
    _rand_invertible,
    format_result,
    run_criterion,
    run_suite,
)
from quivergrass.fields import QQ
from quivergrass.linalg import Mat


@pytest.mark.parametrize("number", CRITERION_NUMBERS)
def test_criterion(number):
    result = run_criterion(number)
    print(format_result(result))
    assert result.passed, format_result(result)


def test_suite_shape():
    results = run_suite()
    assert [r.number for r in results] == list(CRITERION_NUMBERS)
    assert len(results) == 12
    lines = [format_result(r) for r in results]
    assert all(line.startswith("criterion ") for line in lines)
    assert all(("PASS" in line) or ("FAIL" in line) for line in lines)


def test_unknown_criterion_number_rejected():
    with pytest.raises(ValueError):
        run_criterion(13)


def test_inverse_of_the_random_twists_is_exact():
    # Criterion 9 twists its representations by these matrices.
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 5)
        m = _rand_invertible(rng, n)
        assert _inv(m) @ m == m @ _inv(m) == Mat.identity(QQ, n)
    with pytest.raises(ValueError):
        _inv(Mat.from_rows(QQ, [[1, 2], [2, 4]]))


def test_criterion_9_fails_on_a_wrong_inverse(monkeypatch):
    # Its twists are zero on every bar arrow, so the relation holds for any
    # inverse; only the criterion's own check of g·g^-1 = I catches this.
    monkeypatch.setattr(acceptance, "_inv", lambda m: Mat.identity(m.field, m.rows))
    result = run_criterion(9)
    assert not result.passed
    assert "do not multiply to I" in result.details


def test_criterion_8_reduces_each_module_once_per_prime(monkeypatch):
    # Three framings, two primes, and two modules each: the hull and the
    # twisted projective sum.
    reduced = []
    reduce_mod = acceptance.reduce_mod
    monkeypatch.setattr(acceptance, "reduce_mod",
                        lambda rep, p: reduced.append(p) or reduce_mod(rep, p))
    assert run_criterion(8).passed
    assert len(reduced) == 12
