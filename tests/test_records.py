"""The package's records are named tuples: immutable, hashable, picklable."""

import pickle

import pytest

from quivergrass.acceptance import CheckResult
from quivergrass.demazure import DemazureChain
from quivergrass.geomrep import (
    CheckItem,
    ChevalleyReport,
    FiniteRealization,
    Sl2Report,
    VertexOperators,
    WeightStatus,
)
from quivergrass.grassmann import CountPoly, count_polynomial
from quivergrass.hull import ExtensionResult, FramedPoint, Grading
from quivergrass.palg import Path, compose, trivial_path
from quivergrass.quiver import Arrow, CartanData, Classification, Quiver, line_quiver

RECORDS = [
    Arrow, Quiver, CartanData, Classification, Path, ExtensionResult,
    FramedPoint, Grading, CountPoly, DemazureChain, WeightStatus, FiniteRealization,
    VertexOperators, CheckItem, Sl2Report, ChevalleyReport, CheckResult,
]


def test_arrow_equality_hash_and_repr():
    a = Arrow("a", "1", "2")
    assert a == Arrow("a", "1", "2")
    assert a != Arrow("a", "2", "1")
    assert hash(a) == hash(Arrow("a", "1", "2"))
    assert repr(a) == "Arrow(name='a', src='1', dst='2')"
    # A named tuple also equals the plain tuple of its fields.
    assert a == ("a", "1", "2")


def test_quiver_equality_hash_and_repr():
    q = line_quiver(2)
    assert q == Quiver(("1", "2"), (Arrow("a1", "1", "2"),))
    assert hash(q) == hash(line_quiver(2))
    assert {q: 1}[line_quiver(2)] == 1
    assert repr(q) == (
        "Quiver(vertices=('1', '2'), arrows=(Arrow(name='a1', src='1', dst='2'),), "
        "bar=(), base=())"
    )


def test_path_keeps_its_own_repr_and_keys_dicts_by_value():
    a = Path(("a",), "1", "2")
    b = Path(("b",), "2", "3")
    ba = compose(b, a)
    assert ba == Path(("b", "a"), "1", "3")
    assert hash(ba) == hash(Path(("b", "a"), "1", "3"))
    assert {ba: 0}[Path(("b", "a"), "1", "3")] == 0
    assert repr(ba) == "ba"
    assert repr(trivial_path("1")) == "e_1"
    assert ba.length == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_attribute_assignment(cls):
    record = cls._make([None] * len(cls._fields))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_quiver_and_count_poly_survive_a_pickle_round_trip():
    q = line_quiver(3)
    assert pickle.loads(pickle.dumps(q)) == q
    poly = count_polynomial(line_quiver(2), {"1": 1, "2": 1}, {"1": 1, "2": 1}, [2, 3, 5])
    back = pickle.loads(pickle.dumps(poly))
    assert back == poly
    assert isinstance(back, CountPoly)
    assert (back.coeffs, back.chi, back.leading) == ((1, 2), 3, 2)
