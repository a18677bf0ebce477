import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quivergrass.palg as palg
from quivergrass.errors import NotFiniteTypeError
from quivergrass.fields import QQ
from quivergrass.palg import (
    Path,
    algebra,
    arrow_path,
    compose,
    default_truncation,
    hilbert,
    trivial_path,
    vanishing_bound,
)
from quivergrass.quiver import build_quiver, kronecker_quiver, line_quiver, star_quiver

from oracles import naive_quotient_dims, raw_paths, relation_loops, textbook_rref


def test_raw_path_counts():
    dq3 = algebra(line_quiver(3)).dq
    assert len(raw_paths(dq3, 0)) == 3
    assert len(raw_paths(dq3, 1)) == 4
    assert len(raw_paths(dq3, 2)) == 6
    # endpoint filters agree with the full list
    full = raw_paths(dq3, 2)
    assert raw_paths(dq3, 2, src="1") == [p for p in full if p.src == "1"]
    assert raw_paths(dq3, 2, dst="3") == [p for p in full if p.dst == "3"]


def test_compose_endpoint_rule():
    dq = algebra(line_quiver(3)).dq
    a1 = arrow_path(dq, "a1")
    a2 = arrow_path(dq, "a2")
    assert compose(a2, a1) == Path(("a2", "a1"), "1", "3")
    assert compose(a1, a2) is None
    e2 = trivial_path("2")
    assert compose(a2, e2) == a2
    assert compose(e2, a1) == a1


def test_hilbert_a2():
    assert hilbert(line_quiver(2), 3) == [2, 2, 0, 0]


def test_hilbert_a3():
    assert hilbert(line_quiver(3), 3) == [3, 4, 3, 0]


def test_hilbert_line_totals():
    # total dimension n(n+1)(n+2)/6, all concentrated below degree n
    for n in range(2, 6):
        dims = hilbert(line_quiver(n), n)
        assert dims[n] == 0
        assert sum(dims) == n * (n + 1) * (n + 2) // 6


def test_matches_naive_span():
    cases = [
        (line_quiver(2), 4),
        (line_quiver(3), 4),
        (star_quiver(3), 4),
        (kronecker_quiver(), 4),
    ]
    for q, top in cases:
        alg = algebra(q)
        for n in range(2, top + 1):
            got = {k: len(b.paths) for k, b in alg.slice(n).blocks.items() if b.paths}
            assert got == naive_quotient_dims(q, n), (q, n)


def test_lex_earliest_representative():
    # in the middle vertex loop block of the 3-vertex line, both two-step
    # loops are identified and the lexicographically earlier one survives
    alg = algebra(line_quiver(3))
    blk = alg.slice(2).block("2", "2")
    assert blk.paths == [Path(("a1", "a1*"), "2", "2")]


def test_relations_rewrite_to_zero():
    for q in (line_quiver(3), star_quiver(3), kronecker_quiver()):
        alg = algebra(q)
        for x, terms in relation_loops(alg.dq).items():
            acc = {}
            for sign, mid in terms:
                for p, c in alg.rewrite(Path(mid, x, x)).items():
                    c = c if sign > 0 else QQ.neg(c)
                    acc[p] = QQ.add(acc.get(p, QQ.zero), c)
            assert all(v == QQ.zero for v in acc.values()), (q, x)


def test_rewrite_of_basis_path_is_itself():
    alg = algebra(star_quiver(3))
    for n in range(4):
        for p in alg.slice(n).basis():
            assert alg.rewrite(p) == {p: QQ.one}


def test_multiply_associative_sampled():
    rng = random.Random(7)
    alg = algebra(kronecker_quiver())
    pool = alg.slice(1).basis() + alg.slice(2).basis()
    for _ in range(20):
        elems = []
        for _ in range(3):
            p = rng.choice(pool)
            coeff = QQ.of(rng.randint(1, 5))
            elems.append({p: coeff})
        x, y, z = elems
        left = alg.multiply(alg.multiply(x, y), z)
        right = alg.multiply(x, alg.multiply(y, z))
        assert left == right


def test_multiply_degree_additive():
    alg = algebra(line_quiver(4))
    for p in alg.slice(1).basis():
        for q in alg.slice(2).basis():
            prod = alg.multiply({p: QQ.one}, {q: QQ.one})
            assert all(r.length == 3 for r in prod)


def test_vanishing_bound_line():
    assert vanishing_bound(line_quiver(2)) == 2
    assert vanishing_bound(line_quiver(3)) == 3
    assert vanishing_bound(line_quiver(4)) == 4
    assert vanishing_bound(star_quiver(3)) == 5


def test_vanishing_bound_rejects_affine():
    with pytest.raises(NotFiniteTypeError):
        vanishing_bound(kronecker_quiver())


def test_default_truncation():
    assert default_truncation(line_quiver(3)) == 3
    assert default_truncation(kronecker_quiver()) == 4


def test_kronecker_slices_stay_positive():
    alg = algebra(kronecker_quiver())
    for n in range(1, 13):
        assert alg.slice(n).dim() > 0


def test_algebra_cache_is_bounded_and_rebuilds_evicted_entries():
    bound = palg._algebra.cache_info().maxsize
    assert bound is not None
    q = line_quiver(3)
    first = algebra(q)
    dims = hilbert(q, 5)
    for k in range(bound):
        algebra(build_quiver([f"bound{k}"], []))
    assert palg._algebra.cache_info().currsize == bound
    assert hilbert(q, 5) == dims
    assert algebra(q) is not first


@st.composite
def relation_rows(draw):
    """(rows, ncols): up to 6 rational rows of width up to 8, mostly zero."""
    ncols = draw(st.integers(0, 8))
    nonzero = [Fraction(n, d) for n in (-2, -1, 1, 3) for d in (1, 2)]
    entry = st.sampled_from([Fraction(0)] * 4 + nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(relation_rows())
def test_quotient_by_rows_matches_textbook(case):
    rows, ncols = case
    reps, exprs = palg._quotient_by_rows(rows, ncols)
    _, rev_pivots = textbook_rref([r[::-1] for r in rows], ncols)
    latest = {ncols - 1 - c for c in rev_pivots}
    assert reps == [i for i in range(ncols) if i not in latest]
    assert len(exprs) == ncols
    rank = len(textbook_rref(rows, ncols)[1])
    for i, expansion in enumerate(exprs):
        assert len(expansion) == len(reps)
        diff = [Fraction(int(j == i)) for j in range(ncols)]
        for c, x in zip(reps, expansion):
            diff[c] -= x
        assert len(textbook_rref(rows + [diff], ncols)[1]) == rank
