import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.quiver import (
    build_quiver,
    cartan_matrix,
    classify,
    kronecker_quiver,
    line_quiver,
    star_quiver,
)

from oracles import cartan_form, form_kind


def test_cartan_cache_is_bounded_and_rebuilds_evicted_entries():
    bound = cartan_matrix.cache_info().maxsize
    assert bound is not None
    d4 = star_quiver(3)
    first = cartan_matrix(d4)
    for k in range(bound):
        cartan_matrix(build_quiver([f"bound{k}"], []))
    assert cartan_matrix.cache_info().currsize == bound
    rebuilt = cartan_matrix(d4)
    assert rebuilt is not first
    assert rebuilt == first
    assert rebuilt.kind == "finite"
    assert classify(d4).label == "D4"
    assert cartan_matrix(kronecker_quiver()).kind == "affine"


def _parallel(pairs):
    """A quiver with one arrow per (src, dst) pair, repeated pairs giving parallel arrows."""
    vertices = sorted({v for pair in pairs for v in pair})
    return build_quiver(vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(pairs)])


KINDS = [
    *((f"A{n}", line_quiver(n), "finite") for n in range(1, 6)),
    ("D4", star_quiver(3), "finite"),
    ("star4", star_quiver(4), "affine"),
    ("star5", star_quiver(5), "wild"),
    ("kronecker", kronecker_quiver(), "affine"),
    ("kronecker3", _parallel([("1", "2")] * 3), "wild"),
    # semidefinite of corank 2, so not affine
    ("two_kroneckers", _parallel([("1", "2"), ("1", "2"), ("3", "4"), ("3", "4")]), "wild"),
]


@pytest.mark.parametrize("q, kind", [k[1:] for k in KINDS], ids=[k[0] for k in KINDS])
def test_cartan_kind_matches_the_minors_oracle(q, kind):
    assert form_kind(cartan_form(q)) == kind
    assert cartan_matrix(q).kind == kind
    assert [list(r) for r in cartan_matrix(q).matrix] == cartan_form(q)


@st.composite
def multigraphs(draw):
    """A quiver on up to 6 vertices with 0-3 arrows between each pair."""
    n = draw(st.integers(1, 6))
    mult = st.sampled_from([0, 0, 0, 1, 1, 2, 3])
    pairs = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)
             for _ in range(draw(mult))]
    return build_quiver([str(i) for i in range(n)],
                        [(f"a{k}", s, t) for k, (s, t) in enumerate(pairs)])


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_cartan_kind_matches_the_minors_oracle_on_random_multigraphs(q):
    assert cartan_matrix(q).kind == form_kind(cartan_form(q))
