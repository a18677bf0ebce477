"""Property tests of the elimination kernel and the subspace primitives against
a dense textbook elimination."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.errors import LimitError, ShapeMismatchError
from quivergrass.fields import _MR_BOUND, QQ, PrimeField, is_prime
from quivergrass.linalg import (
    MAX_PACKED_DIM,
    Mat,
    Subspace,
    _lanes,
    col_space,
    echelon,
    kernel,
    pivot_rows,
    preimage,
    rank,
    sparse_columns,
    subspace_contains,
    subspace_intersect,
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
def full_rank_matrices(draw, field):
    """A tall matrix of full column rank or a wide one of full row rank:
    k rows of an upper triangular matrix with nonzero diagonal and more
    drawn rows, shuffled, transposed half the time."""
    k = draw(st.integers(1, 6))
    extra = draw(matrices(field, cols=k))
    square = [[draw(_values(field)) if j == i else
               (draw(st.one_of(st.just(field.zero), _values(field))) if j > i else field.zero)
               for j in range(k)] for i in range(k)]
    rows = square + extra.a
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    tall = Mat(field, len(rows), k, rows)
    return tall if draw(st.booleans()) else tall.t()


@st.composite
def field_matrices(draw):
    """Any matrix half the time; else one of full column or full row rank."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        return field, draw(matrices(field))
    return field, draw(full_rank_matrices(field))


def _dense(basis, nrows, ncols, field):
    """The sparse rows of `echelon` in pivot order as dense rows, padded with
    zero rows to nrows."""
    out = [[field.zero] * ncols for _ in range(nrows)]
    for row, p in zip(out, sorted(basis)):
        for j, x in basis[p].items():
            row[j] = x
    return out


@PROPERTY
@given(field_matrices())
def test_rref_matches_textbook(fm):
    field, a = fm
    basis = echelon(field, _dict_rows(a.a), a.cols)
    want, want_pivots = textbook_rref(a.a, a.cols, _p(field))
    assert sorted(basis) == want_pivots
    assert _dense(basis, a.rows, a.cols, field) == want
    assert rank(a) == len(want_pivots)


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


def test_echelon_stops_reading_rows_at_full_rank():
    # Rows 0 and 2 give two pivots in width 2; the rows after them are never read.
    read = []
    given_rows = [{0: 2, 1: 1}, {0: 4, 1: 2}, {1: 3}, {0: 1}, {0: 5, 1: 7}]

    def rows():
        for r in given_rows:
            read.append(r)
            yield dict(r)

    for field in (QQ, PrimeField(7)):
        read.clear()
        basis = echelon(field, rows(), 2)
        assert basis == {0: {0: 1}, 1: {1: 1}}
        assert len(read) == 3 < len(given_rows)
    tall = Mat.from_rows(QQ, [[1, 0], [0, 1]] + [[9, 9]] * 4)
    assert rank(tall) == 2 and kernel(tall).cols == 0


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
    basis = echelon(field, _dict_rows(rows), n + k)
    assert sorted(basis) == want_pivots
    assert [basis[c] for c in want_pivots] == _dict_rows(want[:len(want_pivots)])
    assert all(x for r in basis.values() for x in r.values())
    assert _dense(basis, len(rows), n + k, field) == want
    assert rank(Mat(field, len(rows), n + k, rows)) == len(want_pivots)


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
        basis = echelon(field, [row(g) for g in order], 4)
        assert sorted(basis) == pivots
        assert [basis[c] for c in pivots] == _dict_rows(want[:2])
        assert all(x for b in basis.values() for x in b.values())


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
    assert col_space(col_space(a).hstack(b)) == col_space(a.hstack(b))


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
    n = a.cols
    col_a, col_b = col_space(a), col_space(b)
    basis = echelon(QQ, _dict_rows(a.a), n)
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
        (col_space(col_a.hstack(b)), _textbook_span(a.t().a + b.t().a, a.rows)),
        (subspace_intersect(col_a, col_b), _textbook_meet(col_a, col_b)),
    ]
    for got, want in checks:
        assert not _fraction_over_one(x for r in got.a for x in r)
        assert got.a == want
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


# -- the F_p subspace type against the Mat path ---------------------------------

FP_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5)]


def _largest_prime_below(n):
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


# Fields whose lanes are widest: 2^61 - 1, and the largest prime `is_prime`
# decides.
LARGE_FIELDS = [PrimeField(2**61 - 1), PrimeField(_largest_prime_below(_MR_BOUND))]


def _pack(field, n, vectors):
    """Dense vectors of F_p^n, any residues, packed into the lanes of a
    `Subspace` column: entry i, reduced, at bit lanes.shifts[i]."""
    p, shifts = field.p, Subspace(field, n).lanes.shifts
    return [sum((x % p) << t for x, t in zip(v, shifts)) for v in vectors]


def _subspace(m):
    """span(m) as a Subspace, built by span-extend from nothing."""
    return Subspace(m.field, m.rows).extend(_pack(m.field, m.rows, zip(*m.a)))


def _packed_columns(x):
    """The map x as packed image columns (j, x·e_j), zero ones dropped."""
    return [(j, c) for j, c in enumerate(_pack(x.field, x.rows, zip(*x.a))) if c]


def _canonical(s):
    """s matches `col_space` of its own basis, its pivots and its entries' range."""
    m = s.to_mat()
    assert m == col_space(m)
    assert s.piv == tuple(pivot_rows(m))
    assert all(0 <= x < s.field.p for r in m.a for x in r)
    assert s.key() == tuple(_pack(s.field, s.n, zip(*m.a)))
    return m


@st.composite
def fp_column_pairs(draw, fields=FP_FIELDS):
    """(a, b): two matrices over one of `fields` on one row count, b in span(a) at times."""
    field = draw(st.sampled_from(fields))
    a = draw(matrices(field))
    if draw(st.booleans()):
        b = a @ draw(matrices(field, rows=a.cols))
    else:
        b = draw(matrices(field, rows=a.rows))
    return a, b


def _check_span_extend(a, b):
    s = _subspace(a)
    assert _canonical(s) == col_space(a)
    t = s.extend(_pack(b.field, b.rows, zip(*b.a)))
    assert _canonical(t) == col_space(a.hstack(b))
    assert (t is s) == (t.piv == s.piv)


def _check_containment(a, b):
    assert _subspace(a).contains(_subspace(b)) == subspace_contains(col_space(a), b)


@PROPERTY
@given(fp_column_pairs())
def test_span_extend_is_the_column_space_of_the_stack(case):
    _check_span_extend(*case)


@PROPERTY
@given(fp_column_pairs())
def test_containment_matches_subspace_contains(case):
    _check_containment(*case)


@st.composite
def fp_map_and_bounds(draw, fields=FP_FIELDS):
    """(x, hi, w) over one of `fields`: a map, a canonical basis of its source
    and one of its target, w often meeting the image of hi."""
    field = draw(st.sampled_from(fields))
    x = draw(matrices(field))
    hi = draw(spans_in(field, x.cols))
    return x, hi, draw(spans_in(field, x.rows, inside=x @ hi if hi.cols else None))


def _check_meet_preimage(x, hi, w):
    got = _subspace(hi).meet_preimage(_packed_columns(x), _subspace(w))
    assert _canonical(got) == subspace_intersect(hi, preimage([(x, w)]))


@PROPERTY
@given(fp_map_and_bounds())
def test_meet_with_a_preimage_matches_the_mat_path(case):
    _check_meet_preimage(*case)


def _check_merge(a, b, keep):
    lower, upper = _subspace(a), _subspace(a.hstack(b))
    rest = [(q, c) for q, c in zip(upper.piv, upper.cols) if q not in lower.piv]
    rest = [qc for qc, k in zip(rest, keep(len(rest))) if k]
    other = Subspace(upper.field, upper.n, tuple(q for q, _ in rest), tuple(c for _, c in rest))
    merged = lower.merge(other)
    assert _canonical(merged) == col_space(a.hstack(other.to_mat()))


def _keep(data):
    return lambda n: data.draw(st.lists(st.booleans(), min_size=n, max_size=n))


@PROPERTY
@given(fp_column_pairs(), st.data())
def test_disjoint_pivot_merge_is_the_column_space_of_the_stack(case, data):
    _check_merge(*case, _keep(data))


# The same four properties where a lane is widest and a reduction most
# likely to carry into the next lane.

@PROPERTY
@given(fp_column_pairs(LARGE_FIELDS))
def test_span_extend_and_containment_at_large_primes(case):
    _check_span_extend(*case)
    _check_containment(*case)


@PROPERTY
@given(fp_map_and_bounds(LARGE_FIELDS))
def test_meet_with_a_preimage_at_large_primes(case):
    _check_meet_preimage(*case)


@PROPERTY
@given(fp_column_pairs(LARGE_FIELDS), st.data())
def test_disjoint_pivot_merge_at_large_primes(case, data):
    _check_merge(*case, _keep(data))


# -- the lane reduction --------------------------------------------------------

LANE_PRIMES = [2, 3, 5, 7, 251, 65521, 2**31 - 1, 2**61 - 1, LARGE_FIELDS[1].p]


@st.composite
def lane_vectors(draw):
    """(lanes, values): a lane kernel and lane values below 2^E, often at
    the values where a short shift or a low multiplier errs: multiples of p
    and values one below a multiple, up to 2^E - 1."""
    p = draw(st.sampled_from(LANE_PRIMES))
    lanes = _lanes(p, draw(st.integers(1, 6)))
    top = (1 << lanes.bits) - 1
    edges = [0, 1, p - 1, p, top, top - top % p, top - (top + 1) % p]
    value = st.one_of(st.integers(0, top), st.sampled_from(edges))
    n = len(lanes.shifts)
    return lanes, draw(st.lists(value, min_size=n, max_size=n))


@PROPERTY
@given(lane_vectors())
def test_the_lane_reduction_is_every_lane_mod_p(case):
    lanes, values = case
    v = sum(x << t for x, t in zip(values, lanes.shifts))
    assert lanes.reduce(v) == sum((x % lanes.p) << t for x, t in zip(values, lanes.shifts))


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_the_dimension_guard_keeps_every_lane_below_its_bound(p):
    lanes = _lanes(p, 1)
    # An image over n source columns with n pivots cleared, plus a residue.
    assert (2 * MAX_PACKED_DIM + 1) * (p - 1) ** 2 + p - 1 < 1 << lanes.bits
    with pytest.raises(LimitError, match=f"dimension {MAX_PACKED_DIM + 1} exceeds {MAX_PACKED_DIM}"):
        _lanes(p, MAX_PACKED_DIM + 1)


def test_whole_space_and_sparse_columns():
    f5 = PrimeField(5)
    assert Subspace.whole(f5, 3).to_mat() == Mat.identity(f5, 3)
    assert Subspace(f5, 2).to_mat() == Mat.zeros(f5, 2, 0)
    m = Mat.from_rows(f5, [[0, 3, 0], [0, 0, 0], [1, 4, 0]])
    assert sparse_columns(m) == [(0, ((2, 1),)), (1, ((0, 3), (2, 4)))]
