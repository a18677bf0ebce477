"""Property tests of the elimination kernel against a dense textbook elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.errors import NonUniqueError, NoSolutionError
from quivergrass.fields import QQ, PrimeField
from quivergrass.linalg import Mat, kernel, rref, solve_right, solve_unique

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
