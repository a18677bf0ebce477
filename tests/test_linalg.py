"""Property tests of the elimination kernel and the subspace primitives against
a dense textbook elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.errors import NonUniqueError, NoSolutionError, ShapeMismatchError
from quivergrass.fields import QQ, PrimeField
from quivergrass.linalg import (
    Mat,
    col_space,
    kernel,
    preimage,
    rref,
    solve_right,
    solve_unique,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)

from oracles import textbook_rref

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]
PROPERTY = settings(max_examples=120, deadline=None)


def _p(field):
    return field.p if field.char else None


NONZERO_Q = sorted({Fraction(n, d) for n in range(-4, 5) if n for d in (1, 2, 3)})


def _values(field):
    """Nonzero entries: all of F_p, or small fractions over Q."""
    if field.char:
        return st.integers(1, field.p - 1)
    return st.sampled_from(NONZERO_Q)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """A dense matrix (most entries nonzero) or a sparse one (about 5 % nonzero)."""
    sparse = draw(st.booleans())
    size = 24 if sparse else 7
    nrows = draw(st.integers(0, size)) if rows is None else rows
    ncols = draw(st.integers(1, size)) if cols is None else cols
    if sparse:
        cells = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, ncols - 1))
        spots = draw(st.dictionaries(cells, _values(field), max_size=max(1, nrows * ncols // 20)))
        entries = [[spots.get((i, j), field.zero) for j in range(ncols)] for i in range(nrows)]
    else:
        entry = st.one_of(st.just(field.zero), _values(field), _values(field))
        entries = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return Mat(field, nrows, ncols, entries)


@st.composite
def systems(draw):
    """(field, A, B): B is A Y for a random Y half the time, else random."""
    field = draw(st.sampled_from(FIELDS))
    a = draw(matrices(field))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = a @ draw(matrices(field, rows=a.cols, cols=k))
    else:
        b = Mat(field, a.rows, k, [[draw(st.one_of(st.just(field.zero), _values(field)))
                                     for _ in range(k)] for _ in range(a.rows)])
    return field, a, b


def _product(a, b, p):
    out = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b.a)]
           for row in a.a]
    return out if p is None else [[x % p for x in row] for row in out]


def _textbook_rank(m, p):
    return len(textbook_rref(m.a, m.cols, p)[1])


def _is_canonical(k):
    """Leading 1 at strictly increasing pivot rows, and pivot rows zero elsewhere."""
    pivots = []
    for j in range(k.cols):
        lead = next((i for i in range(k.rows) if k.a[i][j]), None)
        if lead is None or k.a[lead][j] != 1:
            return False
        pivots.append(lead)
    if pivots != sorted(set(pivots)):
        return False
    return all(not k.a[i][jj] for j, i in enumerate(pivots) for jj in range(k.cols) if jj != j)


@st.composite
def field_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    return field, draw(matrices(field))


@PROPERTY
@given(field_matrices())
def test_rref_matches_textbook(fm):
    field, a = fm
    r, pivots = rref(a)
    want, want_pivots = textbook_rref(a.a, a.cols, _p(field))
    assert pivots == want_pivots
    assert r.a == want


@PROPERTY
@given(field_matrices())
def test_kernel_is_the_canonical_null_space(fm):
    field, a = fm
    p = _p(field)
    k = kernel(a)
    assert k.rows == a.cols
    assert k.cols == a.cols - _textbook_rank(a, p)
    assert _is_canonical(k)
    if k.cols and a.rows:
        assert not any(any(row) for row in _product(a, k, p))


@PROPERTY
@given(systems())
def test_solve_right_solves_exactly_when_consistent(sys_):
    field, a, b = sys_
    p = _p(field)
    x = solve_right(a, b)
    consistent = _textbook_rank(a.hstack(b), p) == _textbook_rank(a, p)
    if not consistent:
        assert x is None
        return
    assert (x.rows, x.cols) == (a.cols, b.cols)
    assert _product(a, x, p) == [[field.of(e) for e in row] for row in b.a]


@PROPERTY
@given(systems())
def test_solve_unique_raises_in_order(sys_):
    field, a, b = sys_
    p = _p(field)
    rank_a = _textbook_rank(a, p)
    if _textbook_rank(a.hstack(b), p) != rank_a:
        with pytest.raises(NoSolutionError):
            solve_unique(a, b)
    elif rank_a != a.cols:
        with pytest.raises(NonUniqueError):
            solve_unique(a, b)
    else:
        assert solve_unique(a, b) == solve_right(a, b)


def test_solve_unique_reports_no_solution_before_non_uniqueness():
    a = Mat.from_rows(QQ, [[1, 0], [1, 0]])
    with pytest.raises(NoSolutionError, match="^linear system has no solution$"):
        solve_unique(a, Mat.from_rows(QQ, [[1], [0]]))
    with pytest.raises(NonUniqueError, match="^linear system has a nontrivial null space$"):
        solve_unique(a, Mat.from_rows(QQ, [[1], [1]]))


# -- subspace primitives -------------------------------------------------------

@st.composite
def spans_in(draw, field, rows, inside=None):
    """A canonical basis of rows-space; half the time spanned partly from `inside`."""
    m = draw(matrices(field, rows=rows))
    if inside is not None and draw(st.booleans()):
        m = (inside @ draw(matrices(field, rows=inside.cols))).hstack(
            draw(matrices(field, rows=rows, cols=draw(st.integers(1, 2)))))
    return col_space(m)


@st.composite
def basis_and_columns(draw):
    """(field, w, u): w canonical, u in span(w) half the time."""
    field = draw(st.sampled_from(FIELDS))
    w = col_space(draw(matrices(field)))
    if draw(st.booleans()):
        u = w @ draw(matrices(field, rows=w.cols))
    else:
        u = draw(matrices(field, rows=w.rows))
    return field, w, u


@st.composite
def matrix_and_span(draw):
    """(field, x, w): w a canonical basis of rows(x)-space, often meeting span(x)."""
    field = draw(st.sampled_from(FIELDS))
    x = draw(matrices(field))
    return field, x, draw(spans_in(field, x.rows, inside=x))


def _inside(w, u, p):
    """Whether span(u) lies in span(w), by textbook ranks."""
    return _textbook_rank(w.hstack(u), p) == _textbook_rank(w, p)


@PROPERTY
@given(basis_and_columns())
def test_subspace_contains_matches_rank_test(case):
    field, w, u = case
    assert subspace_contains(w, u) == _inside(w, u, _p(field))


@PROPERTY
@given(matrix_and_span())
def test_preimage_is_the_canonical_pullback(case):
    field, x, w = case
    p = _p(field)
    pre = preimage([(x, w)])
    assert pre.rows == x.cols
    assert pre == col_space(pre)
    assert pre.cols == x.cols - _textbook_rank(x.hstack(w), p) + w.cols
    image = Mat(field, x.rows, pre.cols, [[field.of(e) for e in row] for row in _product(x, pre, p)])
    assert _inside(w, image, p)


@PROPERTY
@given(matrix_and_span())
def test_subspace_intersect_is_the_canonical_meet(case):
    field, x, b = case
    p = _p(field)
    a = col_space(x)
    meet = subspace_intersect(a, b)
    assert meet.rows == a.rows
    assert meet == col_space(meet)
    assert meet.cols == a.cols + b.cols - _textbook_rank(a.hstack(b), p)
    assert _inside(a, meet, p)
    assert _inside(b, meet, p)


@st.composite
def pairs_on_one_source(draw):
    """(field, pairs): one to three (map, canonical basis of its target) on one source."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 12))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(matrices(field, cols=n))
        pairs.append((x, draw(spans_in(field, x.rows, inside=x))))
    return field, pairs


@PROPERTY
@given(pairs_on_one_source())
def test_stacked_preimage_is_the_chained_meet(case):
    _, pairs = case
    stacked = preimage(pairs)
    chained = preimage(pairs[:1])
    for pair in pairs[1:]:
        chained = subspace_intersect(chained, preimage([pair]))
    assert stacked == chained
    assert stacked == col_space(stacked)


@st.composite
def matrix_pairs(draw):
    """(field, a, b) with as many rows; b partly inside span(a) half the time."""
    field = draw(st.sampled_from(FIELDS))
    a = draw(matrices(field))
    b = draw(matrices(field, rows=a.rows))
    if draw(st.booleans()):
        b = b.hstack(a @ draw(matrices(field, rows=a.cols)))
    return field, a, b


@PROPERTY
@given(matrix_pairs())
def test_subspace_sum_is_the_canonical_join(case):
    field, a, b = case
    assert subspace_sum(col_space(a), b) == col_space(a.hstack(b))


# -- row ownership and the whole space ------------------------------------------

def test_built_matrices_share_no_row_with_their_sources():
    for field in (QQ, PrimeField(3)):
        a = Mat.from_rows(field, [[1, 2, 0], [0, 1, 1]])
        b = Mat.from_rows(field, [[2, 0, 1], [1, 1, 1]])
        sources = [id(r) for r in a.a + b.a]
        built = [a.take_rows([1, 0, 1]), a.hstack(b), a.t(), b.t().t()]
        for m in built:
            assert not any(id(r) in sources for r in m.a)
            assert len({id(r) for r in m.a}) == m.rows
        assert built[0].a == [[0, 1, 1], [1, 2, 0], [0, 1, 1]]
        assert built[3] == b


def test_transpose_keeps_empty_shapes():
    m = Mat(QQ, 0, 3, [])
    assert (m.t().rows, m.t().cols) == (3, 0)
    assert m.t().t() == m
    n = Mat(QQ, 2, 0, [[], []])
    assert (n.t().rows, n.t().cols) == (0, 2)


def test_construction_still_checks_every_row():
    with pytest.raises(ShapeMismatchError):
        Mat(QQ, 2, 2, [[QQ.one, QQ.zero], [QQ.one]])
    with pytest.raises(ShapeMismatchError):
        Mat(QQ, 3, 1, [[QQ.one], [QQ.one]])


@PROPERTY
@given(basis_and_columns())
def test_intersecting_with_the_whole_space_returns_the_other_basis(case):
    field, w, _ = case
    whole = Mat.identity(field, w.rows)
    assert subspace_intersect(whole, w) is w
    assert subspace_intersect(w, whole) == w
