"""Property tests of the elimination kernel and the subspace primitives against
a dense textbook elimination."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.errors import NonUniqueError, NoSolutionError, ShapeMismatchError
from quivergrass.fields import QQ, PrimeField
from quivergrass.hull import injective_hull, vertex_injective, vertex_projective
from quivergrass.linalg import (
    Mat,
    _solve,
    col_space,
    echelon,
    kernel,
    preimage,
    rref,
    solve_right,
    solve_unique,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from quivergrass.quiver import double, kronecker_quiver, line_quiver
from quivergrass.repmod import hom_space, intertwining_rows, make_rep, semisimple_rep

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


# -- the sparse kernel on tall, very sparse systems ------------------------------

def _dict_rows(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


@st.composite
def sparse_augmented(draw):
    """(field, rows, n, k): [A | B] as dense rows, twice as tall as wide and at
    most 1 % nonzero. Half the time B is a multiple of one column of A, so the
    system is consistent."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(20, 48))
    k = draw(st.integers(1, 2))
    nrows = 2 * (n + k)
    budget = nrows * (n + k) // 100
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, n - 1))
    spots = draw(st.dictionaries(cells, _values(field), max_size=budget // 2))
    rows = [[spots.get((i, j), field.zero) for j in range(n)] for i in range(nrows)]
    if draw(st.booleans()):
        j, c = draw(st.integers(0, n - 1)), draw(_values(field))
        for r in rows:
            r += [field.mul(c, r[j])] + [field.zero] * (k - 1)
    else:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, k - 1))
        rhs = draw(st.dictionaries(cells, _values(field), max_size=budget // 2))
        for i, r in enumerate(rows):
            r += [rhs.get((i, t), field.zero) for t in range(k)]
    assert sum(map(bool, (x for r in rows for x in r))) <= budget
    return field, rows, n, k


@PROPERTY
@given(sparse_augmented())
def test_echelon_of_a_tall_sparse_system_is_the_textbook_rref(case):
    field, rows, n, k = case
    want, want_pivots = textbook_rref(rows, n + k, _p(field))
    basis = echelon(field, _dict_rows(rows))
    assert sorted(basis) == want_pivots
    assert [basis[c] for c in want_pivots] == _dict_rows(want[:len(want_pivots)])
    assert all(x for r in basis.values() for x in r.values())
    assert rref(Mat(field, len(rows), n + k, rows)) == (Mat(field, len(rows), n + k, want),
                                                        want_pivots)


@PROPERTY
@given(sparse_augmented())
def test_solve_on_a_tall_sparse_system_multiplies_back(case):
    field, rows, n, k = case
    p = _p(field)
    pivots = textbook_rref(rows, n + k, p)[1]
    x, rank_a = _solve(field, _dict_rows(rows), n, k)
    assert rank_a == sum(c < n for c in pivots)
    if rank_a != len(pivots):
        assert x is None
        return
    assert (x.rows, x.cols) == (n, k)
    a = Mat(field, len(rows), n, [r[:n] for r in rows])
    assert _product(a, x, p) == [r[n:] for r in rows]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cancelled_entries_are_dropped_and_never_pivots(field):
    # r + s loses column 1 when r is subtracted, below s's leading column 2;
    # 2r cancels completely; inserting s after r + s cancels column 2 of it.
    def row(entries):
        return {j: field.of(x) for j, x in entries.items() if field.of(x)}

    r, s = {0: 1, 1: 1, 3: 1}, {2: 1, 3: 5}
    given_rows = [r, {j: 2 * x for j, x in r.items()},
                  {j: r.get(j, 0) + s.get(j, 0) for j in range(4)}, s]
    dense = [[field.of(g.get(j, 0)) for j in range(4)] for g in given_rows]
    want, pivots = textbook_rref(dense, 4, _p(field))
    assert pivots == [0, 2]
    for order in permutations(given_rows):
        basis = echelon(field, [row(g) for g in order])
        assert sorted(basis) == pivots
        assert [basis[c] for c in pivots] == _dict_rows(want[:2])
        assert all(x for b in basis.values() for x in b.values())


# -- the intertwining system and hom spaces ---------------------------------------

def _dense_intertwining(v_rep, w_rep):
    """phi[t] X_a - Y_a phi[s] = 0, entry (i, j) by entry, as dense rows
    over the unknowns phi[v][r][c] taken vertex by vertex in row-major order."""
    field = v_rep.field
    q = v_rep.quiver
    index, total = {}, 0
    for v in q.vertices:
        for r in range(w_rep.dim(v)):
            for c in range(v_rep.dim(v)):
                index[v, r, c] = total
                total += 1
    rows = []
    for a in q.arrows:
        x, y = v_rep.map(a.name).a, w_rep.map(a.name).a
        for i in range(w_rep.dim(a.dst)):
            for j in range(v_rep.dim(a.src)):
                row = [field.zero] * total
                for k in range(v_rep.dim(a.dst)):
                    u = index[a.dst, i, k]
                    row[u] = field.add(row[u], x[k][j])
                for k in range(w_rep.dim(a.src)):
                    u = index[a.src, k, j]
                    row[u] = field.sub(row[u], y[i][k])
                rows.append(row)
    return rows, total


QUIVERS = [double(line_quiver(2)), double(line_quiver(3)), double(kronecker_quiver())]


@st.composite
def rep_pairs(draw):
    """(v_rep, w_rep): unconstrained representations of one double quiver."""
    field = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))

    def rep():
        dims = {v: draw(st.integers(0, 3)) for v in q.vertices}
        entry = st.one_of(st.just(field.zero), _values(field))
        maps = {a.name: Mat(field, dims[a.dst], dims[a.src],
                            [[draw(entry) for _ in range(dims[a.src])]
                             for _ in range(dims[a.dst])])
                for a in q.arrows}
        return make_rep(field, q, dims, maps, preprojective=False)

    return rep(), rep()


@PROPERTY
@given(rep_pairs())
def test_intertwining_rows_densify_to_the_system_built_by_hand(case):
    v_rep, w_rep = case
    rows, offsets, total = intertwining_rows(v_rep, w_rep)
    want, want_total = _dense_intertwining(v_rep, w_rep)
    assert total == want_total
    assert all(x for r in rows for x in r.values())
    assert [[r.get(j, v_rep.field.zero) for j in range(total)] for r in rows] == want


def _hom_cases():
    a2, a3 = line_quiver(2), line_quiver(3)
    a2d = double(a2)
    q1 = make_rep(QQ, a2d, {"1": 1, "2": 1}, {"a1": [[0]], "a1*": [[1]]})
    s1 = semisimple_rep(QQ, a2d, {"1": 1, "2": 0})
    s2 = semisimple_rep(QQ, a2d, {"1": 0, "2": 1})
    hull_a3 = injective_hull(a3, {"1": 1, "2": 1, "3": 1}).rep
    hull_a2 = injective_hull(a2, {"1": 1, "2": 1}).rep
    kron = injective_hull(kronecker_quiver(), {"1": 1, "2": 0}, 2).rep
    return [
        (s1, q1, 1), (s1, s2, 0), (q1, q1, 1),
        (hull_a3, hull_a3, 10), (hull_a2, hull_a2, 4), (kron, kron, 1),
        (vertex_projective(a3, "1"), vertex_injective(a3, "3").rep, 1),
        (vertex_injective(a3, "1").rep, hull_a3, 3),
        (hull_a3, vertex_injective(a3, "2").rep, 4),
    ]


@pytest.mark.parametrize("v_rep, w_rep, dim", _hom_cases())
def test_hom_space_dimensions(v_rep, w_rep, dim):
    basis = hom_space(v_rep, w_rep)
    assert len(basis) == dim
    rows, total = _dense_intertwining(v_rep, w_rep)
    assert dim == total - len(textbook_rref(rows, total)[1])
    for phi in basis:
        for a in v_rep.quiver.arrows:
            assert phi[a.dst] @ v_rep.map(a.name) == w_rep.map(a.name) @ phi[a.src]


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


# -- rationals: an integral entry is an int, never a Fraction over 1 -----------------

def _over_q(m):
    """m with every entry passed through QQ.of."""
    return Mat.from_rows(QQ, m.a, m.cols)


def _textbook_span(vectors, n):
    """Canonical column basis of the span of vectors in Q^n, as n dense rows."""
    red, pivots = textbook_rref(vectors, n)
    basis = red[:len(pivots)]
    return [[v[i] for v in basis] for i in range(n)]


def _textbook_null_vectors(rows, n):
    """One null vector of the rows per free column of their textbook RREF."""
    red, pivots = textbook_rref(rows, n)
    out = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        out.append(v)
    return out


def _textbook_meet(a, b):
    """Canonical basis of span(a) ∩ span(b), from the null space of [a | -b]."""
    rows = [ra + [-x for x in rb] for ra, rb in zip(a.a, b.a)]
    coeffs = _textbook_null_vectors(rows, a.cols + b.cols)
    vectors = [[sum(x * c for x, c in zip(r, v)) for r in a.a] for v in coeffs]
    return _textbook_span(vectors, a.rows)


def _fraction_over_one(values):
    return [x for x in values if isinstance(x, Fraction) and x.denominator == 1]


@st.composite
def rational_triples(draw):
    """(a, b, c, s): a and b of one shape, c with a.cols rows, s a scalar, all
    drawn from NONZERO_Q (which holds Fractions over 1) and passed through QQ.of."""
    a = _over_q(draw(matrices(QQ)))
    b = _over_q(draw(matrices(QQ, rows=a.rows, cols=a.cols)))
    c = _over_q(draw(matrices(QQ, rows=a.cols)))
    return a, b, c, QQ.of(draw(st.sampled_from(NONZERO_Q)))


@PROPERTY
@given(rational_triples())
def test_rational_results_hold_integral_entries_as_ints(case):
    a, b, c, s = case
    n, k = a.cols, b.cols
    col_a, col_b = col_space(a), col_space(b)
    stacked, stacked_pivots = textbook_rref([ra + rb for ra, rb in zip(a.a, b.a)], n + k)
    solvable = all(p < n for p in stacked_pivots)
    solution = [[Fraction(0)] * k for _ in range(n)]
    for r, p in zip(stacked, stacked_pivots):
        if p < n:
            solution[p] = r[n:]
    sol, _ = _solve(QQ, _dict_rows(a.hstack(b).a), n, k)
    basis = echelon(QQ, _dict_rows(a.a))
    red, pivots = textbook_rref(a.a, n)
    pre_null = _textbook_null_vectors([ra + [-y for y in rw] for ra, rw in zip(a.a, col_b.a)],
                                      n + col_b.cols)
    checks = [
        (a @ c, _product(a, c, None)),
        (a + b, [[x + y for x, y in zip(r, t)] for r, t in zip(a.a, b.a)]),
        (a - b, [[x - y for x, y in zip(r, t)] for r, t in zip(a.a, b.a)]),
        (a.scale(s), [[s * x for x in r] for r in a.a]),
        (col_a, _textbook_span(a.t().a, a.rows)),
        (kernel(a), _textbook_span(_textbook_null_vectors(a.a, n), n)),
        (preimage([(a, col_b)]), _textbook_span([v[:n] for v in pre_null], n)),
        (subspace_sum(col_a, b), _textbook_span(a.t().a + b.t().a, a.rows)),
        (subspace_intersect(col_a, col_b), _textbook_meet(col_a, col_b)),
    ]
    for got, want in checks:
        assert not _fraction_over_one(x for r in got.a for x in r)
        assert got.a == want
    assert (sol is None) == (not solvable)
    if sol is not None:
        assert not _fraction_over_one(v for r in sol.a for v in r)
        assert sol.a == solution
    assert not _fraction_over_one(v for r in basis.values() for v in r.values())
    assert [basis[p] for p in pivots] == _dict_rows(red[:len(pivots)])


def test_rational_elements_are_ints_when_integral():
    integral = [QQ.of(x) for x in (3, True, Fraction(4, 2), "6/3", "4/2")]
    assert integral == [3, 1, 2, 2, 2] and all(type(x) is int for x in integral)
    assert QQ.of("3/6") == Fraction(1, 2) and type(QQ.of("3/6")) is Fraction
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(Fraction(1, 2))) is int
    assert QQ.inv(Fraction(-1, 3)) == -3 and QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    half = Fraction(1, 2)
    for total in (QQ.add(half, half), QQ.sub(Fraction(3, 2), half), QQ.mul(half, 2)):
        assert total == 1 and type(total) is int
    assert QQ.format_el(QQ.of(3)) == 3 and QQ.format_el(QQ.of(Fraction(6, 2))) == 3
    assert QQ.format_el(QQ.of("3/2")) == "3/2"
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
