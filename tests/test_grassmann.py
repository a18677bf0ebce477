"""Submodule enumeration, count interpolation, and graded enumeration tests."""

import functools
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quivergrass.grassmann as grassmann
import quivergrass.linalg as linalg
from quivergrass.demazure import _walk, demazure_module, stabilization_sigma
from quivergrass.errors import (
    BadPrimeError,
    CapExceededError,
    InternalCheckError,
    InterpolationInconsistentError,
    ValidationError,
)
from quivergrass.fields import QQ, PrimeField
from quivergrass.geomrep import finite_points
from quivergrass.grassmann import (
    CountPoly,
    count_polynomial,
    count_submodules,
    enumerate_submodules,
    expected_dimension,
    gaussian_binomial,
    graded_submodules,
    subspace_cells,
    tilde_count,
)
from quivergrass.hull import (
    eigen_grading,
    identity_framing,
    injective_hull,
    projective_sum,
)
from quivergrass.linalg import Mat, Subspace, col_space, subspace_contains, subspace_intersect
from quivergrass.quiver import build_quiver, double, kronecker_quiver, line_quiver, star_quiver
from quivergrass.repmod import (
    Rep,
    check_closure,
    make_rep,
    quotient,
    reduce_mod,
    reduce_subrep,
    restrict,
    socle,
)
from quivergrass.weyl import (
    apply_involution,
    diagram_involution,
    extremal_orbit,
    longest_element,
    orbit_maximum,
    weight_census,
    weight_multiplicity,
)

from oracles import (
    brute_graded_submodules,
    brute_submodule_count,
    brute_submodules,
    fraction_lagrange,
    span_set,
)

A1 = line_quiver(1)
A2 = line_quiver(2)


# -- cells and binomials ------------------------------------------------------

def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(5, 2, 2) == 155


def _subspace(m):
    """span(m) as a Subspace, its columns packed into the Subspace's lanes."""
    s = Subspace(m.field, m.rows)
    return s.extend(sum(x << t for x, t in zip(col, s.lanes.shifts)) for col in zip(*m.a))


def test_subspace_cells_complete_and_canonical():
    f3 = PrimeField(3)
    cells = [c.to_mat() for c in subspace_cells(Subspace.whole(f3, 3), 1)]
    assert len(cells) == gaussian_binomial(3, 1, 3) == 13
    keys = {c.key() for c in cells}
    assert len(keys) == 13
    for c in cells:
        assert col_space(c) == c
    pair_cells = [c.to_mat() for c in subspace_cells(Subspace.whole(f3, 4), 2)]
    assert len(pair_cells) == gaussian_binomial(4, 2, 3) == 130
    assert len({c.key() for c in pair_cells}) == 130
    assert all(col_space(c) == c for c in pair_cells)


def test_cells_between_yield_canonical_bases():
    f3 = PrimeField(3)
    lower = col_space(Mat.from_rows(f3, [[0], [1], [2], [1]]))
    upper = Subspace.whole(f3, 4)
    counter = [0]
    walk = grassmann._cells_between(_subspace(lower), upper, 2, counter, 100)
    cells = [c.to_mat() for c in walk]
    assert counter == [gaussian_binomial(3, 1, 3)] == [13]
    assert len({c.key() for c in cells}) == 13
    for c in cells:
        assert col_space(c) == c
        assert subspace_contains(c, lower)


CELL_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5)]


@st.composite
def nested_bounds(draw):
    """(field, lower, upper, k): canonical lower <= upper in F_p^n, n <= 4."""
    field = draw(st.sampled_from(CELL_FIELDS))
    entry = st.integers(0, field.p - 1)

    def spanning(rows, cols):
        return Mat(field, rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)])

    n = draw(st.integers(1, 4))
    upper = col_space(spanning(n, draw(st.integers(1, n))))
    lower = col_space(upper @ spanning(upper.cols, draw(st.integers(0, upper.cols))))
    return field, lower, upper, draw(st.integers(lower.cols, upper.cols))


@settings(max_examples=150, deadline=None)
@given(nested_bounds())
def test_cells_between_are_every_canonical_subspace_between_the_bounds(case):
    field, lower, upper, k = case
    counter = [0]
    walk = grassmann._cells_between(_subspace(lower), _subspace(upper), k, counter, 10**6)
    cells = [c.to_mat() for c in walk]
    expected = gaussian_binomial(upper.cols - lower.cols, k - lower.cols, field.p)
    assert len(cells) == counter[0] == expected
    assert len({c.key() for c in cells}) == expected
    for c in cells:
        assert c.cols == k
        assert col_space(c) == c
        assert subspace_contains(c, lower)
        assert subspace_contains(upper, c)


def test_cells_between_runs_no_elimination(monkeypatch):
    f5 = PrimeField(5)
    upper = col_space(Mat.from_rows(f5, [[1, 0, 0], [2, 1, 0], [0, 3, 0], [4, 0, 1], [1, 1, 1]]))
    lower = col_space(upper @ Mat.from_rows(f5, [[1], [2], [3]]))

    lower, upper = _subspace(lower), _subspace(upper)

    def no_elimination(*args):
        raise AssertionError("_cells_between eliminated a matrix")

    monkeypatch.setattr(linalg, "echelon", no_elimination)
    monkeypatch.setattr(Subspace, "extend", no_elimination)
    monkeypatch.setattr(Subspace, "meet_preimage", no_elimination)
    cells = list(grassmann._cells_between(lower, upper, 2, [0], 100))
    assert len(cells) == gaussian_binomial(2, 1, 5) == 6
    monkeypatch.undo()
    assert all(col_space(c.to_mat()) == c.to_mat() for c in cells)


def test_a_cell_without_free_entries_at_a_large_prime_stays_small():
    # The A3 all-ones hull has one submodule at v = (3, 4, 3), a cell with no
    # free entry, so counting it must not build the field's elements.
    a3 = line_quiver(3)
    rep = reduce_mod(injective_hull(a3, {"1": 1, "2": 1, "3": 1}).rep, 1_000_003)
    tracemalloc.start()
    try:
        count = count_submodules(rep, {"1": 3, "2": 4, "3": 3})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 2**20


# -- plain enumeration --------------------------------------------------------

def test_lines_in_a_plane_with_zero_maps():
    model = injective_hull(A1, {"1": 2})
    rep2 = reduce_mod(model.rep, 2)
    subs = enumerate_submodules(rep2, {"1": 1})
    assert len(subs) == 3
    keys = [s.key() for s in subs]
    assert keys == sorted(keys)


def test_minuscule_enumeration_frozen():
    model = injective_hull(A2, {"1": 1, "2": 0})
    rep2 = reduce_mod(model.rep, 2)
    assert len(enumerate_submodules(rep2, {"1": 1, "2": 0})) == 1
    assert len(enumerate_submodules(rep2, {"1": 0, "2": 1})) == 0


def test_enumeration_output_is_validated_and_exact_dims():
    model = injective_hull(A2, {"1": 1, "2": 1})
    rep3 = reduce_mod(model.rep, 3)
    subs = enumerate_submodules(rep3, {"1": 1, "2": 1})
    assert len(subs) == 7
    for s in subs:
        check_closure(s)
        assert s.dims() == {"1": 1, "2": 1}


def test_enumeration_deterministic():
    model = injective_hull(A2, {"1": 1, "2": 1})
    rep5 = reduce_mod(model.rep, 5)
    first = [s.key() for s in enumerate_submodules(rep5, {"1": 1, "2": 1})]
    second = [s.key() for s in enumerate_submodules(rep5, {"1": 1, "2": 1})]
    assert first == second == sorted(first)


def test_enumeration_requires_prime_field():
    model = injective_hull(A2, {"1": 1, "2": 0})
    with pytest.raises(ValidationError):
        enumerate_submodules(model.rep, {"1": 1, "2": 0})
    with pytest.raises(ValidationError, match="requires a prime field"):
        count_submodules(model.rep, {"1": 1, "2": 0})


def test_enumeration_rejects_unknown_vertex_and_negative_dims():
    model = injective_hull(A2, {"1": 1, "2": 0})
    rep2 = reduce_mod(model.rep, 2)
    with pytest.raises(ValidationError):
        enumerate_submodules(rep2, {"9": 1})
    with pytest.raises(ValidationError):
        enumerate_submodules(rep2, {"1": -1})


def test_cap_exceeded_reports_candidates():
    model = injective_hull(A1, {"1": 2})
    rep2 = reduce_mod(model.rep, 2)
    with pytest.raises(CapExceededError) as exc:
        enumerate_submodules(rep2, {"1": 1}, cap=2)
    assert exc.value.candidates == 3


def test_cap_error_names_the_slot_and_its_branching():
    model = injective_hull(A1, {"1": 2})
    rep2 = reduce_mod(model.rep, 2)
    with pytest.raises(CapExceededError) as exc:
        enumerate_submodules(rep2, {"1": 1}, cap=2)
    assert exc.value.slot == "1"
    assert str(exc.value) == "candidate count 3 exceeds the cap 2 at slot '1', branching [2 1]_2"


def test_cap_error_names_a_branching_slot_when_counting():
    model = injective_hull(A2, {"1": 1, "2": 1})
    rep3 = reduce_mod(model.rep, 3)
    assert count_submodules(rep3, {"1": 1, "2": 1}) == 7
    with pytest.raises(CapExceededError) as exc:
        count_submodules(rep3, {"1": 1, "2": 1}, cap=1)
    assert exc.value.slot in A2.vertices
    assert f"at slot {exc.value.slot!r}, branching [" in str(exc.value)


def test_cap_does_not_charge_a_lone_slot_counted_in_closed_form():
    model = injective_hull(A1, {"1": 2})
    rep2 = reduce_mod(model.rep, 2)
    assert count_submodules(rep2, {"1": 1}, cap=2) == 3


# -- what the count path runs -------------------------------------------------

def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


def test_count_runs_no_closure_check_and_enumeration_does(monkeypatch):
    model = injective_hull(A2, {"1": 1, "2": 1})
    rep3 = reduce_mod(model.rep, 3)
    monkeypatch.setattr(grassmann, "check_closure", _refuse("check_closure"))
    assert count_submodules(rep3, {"1": 1, "2": 1}) == 7
    with pytest.raises(AssertionError, match="check_closure was called"):
        enumerate_submodules(rep3, {"1": 1, "2": 1})


def test_lone_slot_is_counted_without_walking_cells(monkeypatch):
    model = injective_hull(A1, {"1": 2})
    rep3 = reduce_mod(model.rep, 3)
    monkeypatch.setattr(grassmann, "_cells_between", _refuse("_cells_between"))
    assert count_submodules(rep3, {"1": 1}) == 4


@pytest.fixture(scope="module")
def d4_all_ones():
    q = star_quiver(3)
    return injective_hull(q, {v: 1 for v in q.vertices})


D4_V = {"0": 2, "1": 1, "2": 1, "3": 1}


def test_d4_all_ones_count_mod_2(d4_all_ones):
    assert count_submodules(reduce_mod(d4_all_ones.rep, 2), D4_V) == 413


@pytest.mark.slow
def test_d4_all_ones_count_mod_3_under_the_default_cap(d4_all_ones):
    assert count_submodules(reduce_mod(d4_all_ones.rep, 3), D4_V) == 1705


def test_branch_point_leaves_a_remainder_of_three_slots(d4_all_ones):
    # With nothing at the centre, its one cell is the cheapest branching, and
    # the three legs, joined only through the centre, are left free.
    rep2 = reduce_mod(d4_all_ones.rep, 2)
    v = {"0": 0, "1": 1, "2": 1, "3": 1}
    # The walk's shape: each branch names its slot once per cell, each free
    # slot is named where it splits off.
    shape = grassmann._Combine(
        ("placed",),
        lambda s, n, cells: (f"free {s}",),
        lambda a, b: a + b,
        lambda s, pairs: tuple(x for _, val in pairs for x in (f"branch {s}",) + val),
    )
    target = grassmann._check_dim_vector(rep2.quiver, v)
    walk = grassmann._leaves(grassmann._CountSetup(rep2), 2, target, 10**6, shape)
    assert walk == ("branch 0", "placed", "free 1", "free 2", "free 3")
    n = count_submodules(rep2, v)
    assert n == len(enumerate_submodules(rep2, v)) == brute_submodule_count(rep2, v)


# -- the memoized walk ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _line_hull(n, wv):
    q = line_quiver(n)
    return injective_hull(q, dict(zip(q.vertices, wv)))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(st.just(n), st.tuples(*[st.integers(0, 2)] * n))
    ),
    st.sampled_from([2, 3]),
)
def test_memoized_walk_matches_brute_force_at_every_weight(framing, p):
    # A2/A3 framings with w_i <= 2 whose hull is small enough for the
    # vector-set oracle; every weight of the framing, counted and enumerated.
    n, wv = framing
    model = _line_hull(n, wv)
    assume(sum(model.rep.dims.values()) <= 10)
    rep = reduce_mod(model.rep, p)
    order = list(rep.quiver.vertices)
    for vec in sorted(weight_census(model.base, dict(zip(order, wv)))):
        v = dict(zip(order, vec))
        brute = brute_submodules(rep, v)
        assert count_submodules(rep, v) == len(brute), vec
        got = [tuple(span_set(zip(*s.basis(x).a), rep.dim(x), p) for x in order)
               for s in enumerate_submodules(rep, v)]
        assert len(got) == len(brute) and set(got) == brute, vec


def _counted_cells(monkeypatch):
    """Record the cell count that each `_cells_between` call charges."""
    charged = []
    cells_between = grassmann._cells_between

    def counted(lower, upper, k, counter, cap):
        charged.append(gaussian_binomial(len(upper.piv) - len(lower.piv), k - len(lower.piv),
                                         upper.field.p))
        return cells_between(lower, upper, k, counter, cap)

    monkeypatch.setattr(grassmann, "_cells_between", counted)
    return charged


def test_walk_visits_each_distinct_state_once(monkeypatch):
    # A3 all-ones at v = (1,2,1) mod 5: walking every node calls
    # `_cells_between` 32 times; sharing the repeated states, 12 times.
    _, model = _all_ones_hull(A3)
    rep5 = reduce_mod(model.rep, 5)
    v = {"1": 1, "2": 2, "3": 1}
    charged = _counted_cells(monkeypatch)
    assert count_submodules(rep5, v) == 116
    assert len(charged) == 12
    # The memo lives for one walk: a second count walks the same cells again.
    assert count_submodules(rep5, v) == 116
    assert charged[12:] == charged[:12]


def test_cap_counts_the_cells_walked_and_no_memo_hit(monkeypatch):
    _, model = _all_ones_hull(A3)
    rep5 = reduce_mod(model.rep, 5)
    v = {"1": 1, "2": 2, "3": 1}
    charged = _counted_cells(monkeypatch)
    count_submodules(rep5, v)
    walked = sum(charged)
    assert count_submodules(rep5, v, cap=walked) == 116
    with pytest.raises(CapExceededError):
        count_submodules(rep5, v, cap=walked - 1)


# -- count polynomials --------------------------------------------------------

def test_adjoint_count_polynomial_frozen():
    w = {"1": 1, "2": 1}
    v = {"1": 1, "2": 1}
    assert expected_dimension(A2, w, v) == 1
    poly = count_polynomial(A2, w, v, [2, 3, 5])
    assert poly.counts == ((2, 5), (3, 7), (5, 11))
    assert poly.coeffs == (1, 2)
    assert len(poly.coeffs) - 1 == 1
    assert poly.chi == 3
    assert poly.leading == 2
    assert poly.leading == weight_multiplicity(A2, w, v)
    assert poly.primes_used == (2, 3)
    assert poly.consistency_primes == (5,)


def test_line_count_polynomial_frozen():
    poly = count_polynomial(A1, {"1": 2}, {"1": 1}, [2, 3])
    assert poly.coeffs == (1, 1)
    assert poly.chi == 2
    assert poly.leading == 1
    assert poly.consistency_primes == (5,)
    assert poly.counts == ((2, 3), (3, 4), (5, 6))


def test_count_polynomial_zero_dims():
    poly = count_polynomial(A2, {"1": 1, "2": 0}, {}, [2])
    assert poly.coeffs == (1,)
    assert poly.chi == 1
    assert len(poly.coeffs) - 1 == 0


def test_count_polynomial_needs_enough_primes():
    with pytest.raises(ValidationError):
        count_polynomial(A2, {"1": 1, "2": 1}, {"1": 1, "2": 1}, [2])


def test_count_polynomial_rejects_bad_primes():
    with pytest.raises(ValidationError):
        count_polynomial(A1, {"1": 2}, {"1": 1}, [2, 4])
    with pytest.raises(ValidationError):
        count_polynomial(A1, {"1": 2}, {"1": 1}, [2, 2, 3])


def test_count_polynomial_refuses_primes_that_are_floats():
    with pytest.raises(ValidationError, match="must be an integer"):
        count_polynomial(line_quiver(2), {"1": 1, "2": 1}, {"1": 1, "2": 1}, [2.9, 3.2, 5.7])


def test_a_prime_given_as_a_string_is_refused():
    with pytest.raises(ValidationError, match="must be an integer"):
        grassmann._check_primes(["7", 3])


def test_a_prime_given_as_a_bool_is_refused():
    with pytest.raises(ValidationError, match="must be an integer"):
        grassmann._check_primes([True, 3])


def test_a_dimension_given_as_a_bool_is_refused():
    # True once passed as a dimension of 1 and False as 0.
    with pytest.raises(ValidationError, match="non-negative integer, got True"):
        count_polynomial(line_quiver(2), {"1": True, "2": 1}, {"1": True, "2": False}, [2, 3, 5])


@pytest.mark.parametrize("cap", ["50", 2.9, True], ids=["str", "float", "bool"])
def test_a_candidate_cap_that_is_not_an_int_is_refused(cap):
    rep = reduce_mod(injective_hull(A2, {"1": 1, "2": 1}).rep, 3)
    with pytest.raises(ValidationError, match=f"cap must be an integer, got {cap!r}"):
        count_submodules(rep, {"1": 1, "2": 1}, cap)


def test_interpolation_plan_rejects_a_dimension_vector_that_does_not_exist():
    w = {"1": 1, "2": 1}
    for v in ({"9": 5}, {"1": -3}):
        with pytest.raises(ValidationError):
            grassmann.interpolation_plan(A2, w, v, [2, 3, 5])
        # count_polynomial checks v through its plan, also when every count is known.
        with pytest.raises(ValidationError):
            count_polynomial(A2, w, v, [2, 3, 5], known_counts={2: 1, 3: 1, 5: 1})


def test_count_polynomial_refuses_a_framing_at_an_unknown_vertex():
    with pytest.raises(ValidationError, match="unknown vertex '9'"):
        count_polynomial(A2, {"9": 1, "1": 1}, {"1": 1}, [2, 3])


def test_interpolation_inconsistency_detected(monkeypatch):
    # Degree-two counts against a degree-one bound must fail the extra-prime
    # certificate rather than be silently accepted.
    monkeypatch.setattr(grassmann, "_leaves", lambda setup, p, *rest: p ** 2)
    with pytest.raises(InterpolationInconsistentError) as exc:
        count_polynomial(A1, {"1": 2}, {"1": 1}, [2, 3, 5])
    assert exc.value.counts == [(2, 4), (3, 9), (5, 25)]


def test_kronecker_line_counts_interpolate():
    K = kronecker_quiver()
    w = {"1": 1, "2": 0}
    assert expected_dimension(K, w, {"1": 1, "2": 1}) == 1
    poly = count_polynomial(K, w, {"1": 1, "2": 1}, [2, 3, 5])
    assert poly.coeffs == (1, 1)
    assert poly.chi == 2


def _partitions(n, largest=None):
    """The number of partitions of n into parts of at most `largest`."""
    if n == 0:
        return 1
    largest = n if largest is None else largest
    return sum(_partitions(n - k, k) for k in range(1, min(n, largest) + 1))


KRONECKER = kronecker_quiver()


def test_affine_a1_leading_coefficients_count_partitions():
    # Frenkel-Kac: in the basic module of affine sl2, the weight at depth
    # v = (a, b) below Lambda_0 has multiplicity p(a - (a - b)^2), the
    # number of partitions.  A submodule of dimension v lies in the hull
    # truncated at |v|, so that truncation counts Gr_v(I(w)) exactly.
    w = {"1": 1, "2": 0}
    seen = []
    for a, b in product(range(5), repeat=2):
        v = {"1": a, "2": b}
        d = expected_dimension(KRONECKER, w, v)
        if not 1 <= a + b <= 4 or d < 0:
            continue
        poly = count_polynomial(KRONECKER, w, v, PRIMES[: d + 2], trunc=a + b)
        assert len(poly.coeffs) - 1 == d and poly.leading == _partitions(a - (a - b) ** 2), (a, b)
        seen.append(poly.leading)
    assert seen == [1, 1, 1, 1, 2]


# The vector-set oracle builds every subspace it tries, so a weight is
# checked when sum_x gen(n_x, v_x) + prod_x [n_x, v_x]_p, its subspaces
# built plus pairs tried, is within a budget; gen(n, k) is
# p^n * sum_{j<k} [n, j]_p, the vectors tried while growing them.  Of the
# 222 weights (d(v) >= 0) of these eight hulls and primes, the smaller
# budget takes 41, every one of w = (1, 0) at truncation 3 among them, and
# the larger one, run with the slow tests, 53; the rest are out of the
# oracle's reach.


def _brute_cost(dims, v, p):
    def grown(n, k):
        return p**n * sum(gaussian_binomial(n, j, p) for j in range(k))

    return (sum(grown(dims[x], v[x]) for x in dims)
            + gaussian_binomial(dims["1"], v["1"], p) * gaussian_binomial(dims["2"], v["2"], p))


@pytest.mark.parametrize("budget", [5 * 10**4, pytest.param(2 * 10**5, marks=pytest.mark.slow)])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("trunc", [3, 4])
@pytest.mark.parametrize("wv", [(1, 0), (1, 1)], ids=["w10", "w11"])
def test_parallel_arrows_match_brute_force_on_kronecker_hulls(wv, trunc, p, budget):
    # Two arrows join each pair of vertices here, which no `count` input has.
    w = dict(zip(KRONECKER.vertices, wv))
    rep = reduce_mod(injective_hull(KRONECKER, w, trunc).rep, p)
    order = list(rep.quiver.vertices)
    weights = [
        v for v in (dict(zip(order, vec)) for vec in product(*(range(rep.dim(x) + 1) for x in order)))
        if expected_dimension(KRONECKER, w, v) >= 0 and _brute_cost(rep.dims, v, p) <= budget
    ]
    assert weights
    for v in weights:
        brute = brute_submodules(rep, v)
        assert count_submodules(rep, v) == brute_submodule_count(rep, v) == len(brute), v
        got = [tuple(span_set(zip(*s.basis(x).a), rep.dim(x), p) for x in order)
               for s in enumerate_submodules(rep, v)]
        assert len(got) == len(brute) and set(got) == brute, v


# -- certified interpolation ----------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=5),
    st.integers(0, 3),
    st.integers(0, 7),
    st.integers(-30, 30),
)
def test_certified_fit_agrees_with_a_fraction_lagrange(coeffs, spare, at, shift):
    # The counts of an integer polynomial at degree+1 primes and `spare` more,
    # the count at index `at` (if any) moved by `shift`.
    degree = len(coeffs) - 1
    primes = PRIMES[: degree + 1 + spare]
    counts = [(p, sum(c * p**k for k, c in enumerate(coeffs)) + (shift if i == at else 0))
              for i, p in enumerate(primes)]
    fit = fraction_lagrange(counts[: degree + 1])
    while len(fit) > 1 and fit[-1] == 0:
        fit.pop()
    certified = all(c.denominator == 1 for c in fit) and all(
        sum(c * p**k for k, c in enumerate(fit)) == n for p, n in counts
    )
    if not shift or at >= len(primes):
        stripped = list(coeffs)
        while len(stripped) > 1 and stripped[-1] == 0:
            stripped.pop()
        assert certified and fit == stripped
    if certified:
        assert grassmann._certified_fit(counts, degree) == tuple(int(c) for c in fit)
    else:
        with pytest.raises(InterpolationInconsistentError) as exc:
            grassmann._certified_fit(counts, degree)
        assert exc.value.counts == counts


# -- brute-force cross-checks ----------------------------------------------------

A3 = line_quiver(3)
A4 = line_quiver(4)


def _all_ones_hull(q):
    w = {v: 1 for v in q.vertices}
    return w, injective_hull(q, w)


def test_counts_match_brute_force_over_a3_census():
    w, model = _all_ones_hull(A3)
    for p in (2, 3):
        rep_p = reduce_mod(model.rep, p)
        for vec in sorted(weight_census(A3, w)):
            v = dict(zip(A3.vertices, vec))
            assert count_submodules(rep_p, v) == brute_submodule_count(rep_p, v), (p, vec)


RANDOM_QUIVERS = [double(A2), double(A3), double(star_quiver(3)), double(kronecker_quiver())]


@st.composite
def random_double_reps(draw):
    """(rep, d): random maps over F_2 or F_3, dims <= 3, on a doubled quiver.

    The quivers are doubled A2, A3, D4 (`star_quiver(3)`, whose centre, once
    placed, leaves the three legs free) and Kronecker (parallel arrows).
    The maps need not satisfy the preprojective relation.
    """
    q = draw(st.sampled_from(RANDOM_QUIVERS))
    field = draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    dims = {v: draw(st.integers(0, 3)) for v in q.vertices}
    entry = st.integers(0, field.p - 1)
    maps = {
        a.name: [[draw(entry) for _ in range(dims[a.src])] for _ in range(dims[a.dst])]
        for a in q.arrows
    }
    rep = make_rep(field, q, dims, maps, preprojective=False)
    return rep, {v: draw(st.integers(0, dims[v])) for v in q.vertices}


@settings(max_examples=120, deadline=None)
@given(random_double_reps())
def test_counts_match_brute_force_on_random_double_quiver_reps(case):
    rep, d = case
    assert count_submodules(rep, d) == brute_submodule_count(rep, d)


@settings(max_examples=60, deadline=None)
@given(random_double_reps(), st.data())
def test_counts_unchanged_when_vertices_are_permuted_and_renamed(case, data):
    rep, d = case
    q = rep.quiver
    order = data.draw(st.permutations(q.vertices))
    arrows = data.draw(st.permutations(q.arrows))
    name = {v: f"x{v}" for v in q.vertices}
    relabelled = Rep(
        rep.field,
        build_quiver([name[v] for v in order], [(a.name, name[a.src], name[a.dst]) for a in arrows]),
        {name[v]: rep.dim(v) for v in q.vertices},
        dict(rep.maps),
    )
    n = count_submodules(rep, d)
    assert count_submodules(relabelled, {name[v]: k for v, k in d.items()}) == n
    assert len(enumerate_submodules(rep, d)) == n


@pytest.fixture(scope="module")
def a4_mod_2():
    _, model = _all_ones_hull(A4)
    return reduce_mod(model.rep, 2)


@pytest.mark.parametrize("vec, expected", [((1, 2, 2, 0), 23), ((1, 2, 2, 1), 425)])
def test_counts_match_brute_force_a4_mod_2(a4_mod_2, vec, expected):
    v = dict(zip(A4.vertices, vec))
    assert brute_submodule_count(a4_mod_2, v) == expected
    assert count_submodules(a4_mod_2, v) == expected


@pytest.mark.slow
def test_counts_match_brute_force_over_a4_census_mod_2(a4_mod_2):
    w = {v: 1 for v in A4.vertices}
    census = sorted(weight_census(A4, w))
    assert len(census) == 291
    for vec in census:
        v = dict(zip(A4.vertices, vec))
        assert count_submodules(a4_mod_2, v) == brute_submodule_count(a4_mod_2, v), vec


def _order_free_keys(subs):
    return {frozenset((x, s.basis(x).key()) for x in s.ambient.quiver.vertices) for s in subs}


@pytest.mark.parametrize("order", list(permutations(A4.vertices)), ids="".join)
def test_enumeration_independent_of_vertex_order(a4_mod_2, order):
    v = {"1": 1, "2": 2, "3": 2, "4": 0}
    arrows = [(a.name, a.src, a.dst) for a in a4_mod_2.quiver.arrows]
    rep = Rep(a4_mod_2.field, build_quiver(order, arrows), a4_mod_2.dims, a4_mod_2.maps)
    assert count_submodules(rep, v) == 23
    natural = _order_free_keys(enumerate_submodules(a4_mod_2, v))
    assert _order_free_keys(enumerate_submodules(rep, v)) == natural


def test_leading_coefficient_is_weight_multiplicity_over_a3_census():
    w, _ = _all_ones_hull(A3)
    for vec, mult in sorted(weight_census(A3, w).items()):
        v = dict(zip(A3.vertices, vec))
        assert count_polynomial(A3, w, v, [2, 3, 5, 7]).leading == mult, vec


# -- the shared counting set-up -------------------------------------------------

def _recorded(monkeypatch, name):
    """Record the arguments of every call to `grassmann.<name>`."""
    calls = []
    real = getattr(grassmann, name)
    monkeypatch.setattr(grassmann, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _slot_builds(monkeypatch):
    """The prime of every slot build of any walk set-up, in order."""
    built = []
    slots = grassmann._CountSetup.slots

    def recording(setup, p):
        if p not in setup._by_prime:
            built.append(p)
        return slots(setup, p)

    monkeypatch.setattr(grassmann._CountSetup, "slots", recording)
    return built


def _a3_census_polys(w):
    return {vec: count_polynomial(A3, w, dict(zip(A3.vertices, vec)), [2, 3, 5, 7])
            for vec in sorted(weight_census(A3, w))}


def test_count_setup_builds_each_hull_and_its_slots_once(monkeypatch):
    w = {"1": 1, "2": 1, "3": 1}
    grassmann._hull.cache_clear()
    hulls = _recorded(monkeypatch, "injective_hull")
    slots = _slot_builds(monkeypatch)
    first = _a3_census_polys(w)
    assert len(first) == 38
    assert len(hulls) == 1
    assert sorted(slots) == [2, 3, 5, 7]
    assert _a3_census_polys(w) == first
    assert len(hulls) == 1 and len(slots) == 4
    grassmann._hull.cache_clear()
    assert _a3_census_polys(w) == first
    assert len(hulls) == 2


def test_count_setup_is_kept_per_truncation():
    # The Kronecker hull truncated at 3 is a proper submodule of the one at
    # 4, and their counts differ; a set-up kept without the truncation would
    # answer the second with the first's counts.
    K = kronecker_quiver()
    w, v = {"1": 1, "2": 0}, {"1": 2, "2": 2}
    want = {3: (1, 1, 1), 4: (1, 2, 2)}
    for order in ((3, 4), (4, 3)):
        grassmann._hull.cache_clear()
        for trunc in order:
            assert count_polynomial(K, w, v, [2, 3, 5], trunc=trunc).coeffs == want[trunc]


def test_count_setup_ignores_later_edits_to_the_callers_framing():
    v, primes = {"1": 1, "2": 1}, [2, 3, 5]
    w = {"1": 1, "2": 1}
    first = count_polynomial(A2, w, v, primes)
    w["1"] = 0
    edited = count_polynomial(A2, w, v, primes)
    # I(2) has dims (1, 1): its one submodule of those dims is itself.
    assert edited.counts == ((2, 1), (3, 1), (5, 1))
    assert count_polynomial(A2, {"1": 1, "2": 1}, v, primes) == first
    grassmann._hull.cache_clear()
    assert count_polynomial(A2, {"1": 0, "2": 1}, v, primes) == edited


def test_count_setup_keeps_every_input_check():
    w, v, primes = {"1": 1, "2": 1}, {"1": 1, "2": 1}, [2, 3, 5]
    count_polynomial(A2, w, v, primes)
    for bad_v in ({"1": 1, "2": 1, "9": 1}, {"1": 1, "2": -1}):
        with pytest.raises(ValidationError):
            count_polynomial(A2, w, bad_v, primes)
    with pytest.raises(ValidationError):
        count_polynomial(A2, {"1": -1, "2": 1}, v, primes)
    for bad_primes in ([2, 4, 5], [2, 2, 3], []):
        with pytest.raises(ValidationError):
            count_polynomial(A2, w, v, bad_primes)
    with pytest.raises(ValidationError):
        count_polynomial(A2, w, v, primes, trunc=0)


def test_count_polynomial_checks_v_once_and_every_entry_still_checks_it(monkeypatch):
    calls = []
    check = grassmann._check_dim_vector
    monkeypatch.setattr(grassmann, "_check_dim_vector",
                        lambda q, v: calls.append(v) or check(q, v))
    ones = {"1": 1, "2": 1, "3": 1}
    count_polynomial(A3, ones, ones, [2, 3, 5, 7])
    assert len(calls) == 1
    bad = {"1": 1, "9": 1}
    rep3 = reduce_mod(injective_hull(A3, ones).rep, 3)
    entries = [
        lambda: count_submodules(rep3, bad),
        lambda: enumerate_submodules(rep3, bad),
        lambda: grassmann.hull_count(A3, ones, bad, 3),
        lambda: stabilization_sigma(A3, ones, bad, [2, 3]),
    ]
    for entry in entries:
        with pytest.raises(ValidationError, match="unknown vertex"):
            entry()


def test_count_setup_charges_the_same_cap():
    w, v, primes = {"1": 1, "2": 1, "3": 1}, {"1": 1, "2": 2, "3": 1}, [2, 3, 5, 7]

    def passes(cap, cold):
        if cold:
            grassmann._hull.cache_clear()
        try:
            count_polynomial(A3, w, v, primes, cap=cap)
        except CapExceededError:
            return False
        return True

    # The least cap that passes on a cleared cache, by bisection.
    lo, hi = 0, 1
    while not passes(hi, cold=True):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid, cold=True) else (mid, hi)
    assert not passes(hi - 1, cold=True)
    assert passes(hi, cold=False)
    assert not passes(hi - 1, cold=False)


def _snapshot(slots):
    """(upper, incoming, outgoing) read afresh: each bound's pivots and packed
    columns, and each arrow's packed image columns."""
    upper, incoming, outgoing = slots
    return (
        {s: (u.piv, u.cols) for s, u in upper.items()},
        {s: [(list(xcols), t) for xcols, t in pairs] for s, pairs in incoming.items()},
        {s: [(list(xcols), t) for xcols, t in pairs] for s, pairs in outgoing.items()},
    )


def test_a_walk_leaves_the_shared_slots_unchanged():
    w, v = {"1": 1, "2": 1, "3": 1}, {"1": 1, "2": 2, "3": 1}
    key = grassmann._hull_key(A3, w, None)
    model, setup = grassmann._hull(*key)
    shared = setup.slots(3)
    before = _snapshot(shared)
    assert [u.key() for u in shared[0].values()] == [cols for _, cols in before[0].values()]
    count_polynomial(A3, w, v, [2, 3, 5, 7])
    assert len(grassmann._leaves(setup, 3, v, 10**6, grassmann._LIST)) == count_submodules(
        reduce_mod(model.rep, 3), v)
    assert grassmann._hull(*key)[1].slots(3) is shared
    assert _snapshot(shared) == before


def test_known_counts_at_every_planned_prime_build_no_setup(monkeypatch):
    w = v = {"1": 1, "2": 1}
    want = count_polynomial(A2, w, v, [2, 3, 5])

    def refuse(*args):
        raise AssertionError("count_polynomial built a counting set-up")

    monkeypatch.setattr(grassmann, "_hull", refuse)
    assert count_polynomial(A2, w, v, [2, 3, 5], known_counts=dict(want.counts)) == want


def test_hull_count_is_the_count_at_one_prime(monkeypatch):
    w, v = {"1": 1, "2": 1, "3": 1}, {"1": 1, "2": 2, "3": 1}
    poly = count_polynomial(A3, w, v, [2, 3, 5, 7])
    hulls = _recorded(monkeypatch, "injective_hull")
    assert [(p, grassmann.hull_count(A3, w, v, p)) for p, _ in poly.counts] == list(poly.counts)
    assert hulls == []
    with pytest.raises(ValidationError):
        grassmann.hull_count(A3, w, v, 4)
    with pytest.raises(ValidationError):
        grassmann.hull_count(A3, w, {"9": 1}, 2)


def test_one_key_builds_one_hull_across_every_entry(monkeypatch):
    w = v = {"1": 1, "2": 1}
    grassmann._hull.cache_clear()
    hulls = _recorded(monkeypatch, "injective_hull")
    poly = count_polynomial(A2, w, v, [2, 3, 5])
    assert [(p, grassmann.hull_count(A2, w, v, p)) for p, _ in poly.counts] == list(poly.counts)
    real = finite_points(A2, w)
    chain = demazure_module(A2, w, ("1", "2", "1"))
    assert stabilization_sigma(A2, w, v, [2, 3, 5]) == ("1", "2", "1")
    assert len(hulls) == 1
    model = grassmann._hull(*grassmann._hull_key(A2, w, None))[0]
    assert real.model is chain.model is model


# -- one walk set-up per representation -----------------------------------------

def _assert_the_setup_counts_as_the_reduction(rep):
    """At p = 2, 3, 5 and every v <= dims, the set-up of the rational rep
    counts what `count_submodules` counts on its reduction mod p."""
    setup = grassmann._CountSetup(rep)
    verts = rep.quiver.vertices
    for p in (2, 3, 5):
        rep_p = reduce_mod(rep, p)
        for vec in product(*(range(rep.dim(u) + 1) for u in verts)):
            v = dict(zip(verts, vec))
            assert setup.count(p, v) == count_submodules(rep_p, v), (p, vec)


def _shear(n, c, row):
    """1 + c·N and its inverse 1 - c·N, N the ones of row 0 right of the
    diagonal (or, if not `row`, of column 0 below it), so N² = 0."""
    pos, neg = Mat.identity(QQ, n), Mat.identity(QQ, n)
    for k in range(1, n):
        i, j = (0, k) if row else (k, 0)
        pos.a[i][j], neg.a[i][j] = c, -c
    return pos, neg


def _sheared(rep):
    """An isomorphic copy of rep with Fraction entries: each arrow's X becomes
    g·X·g^-1, for g the product of a row shear by 1/7 and a column shear by
    3/11 at each vertex."""
    g, g_inv = {}, {}
    for u in rep.quiver.vertices:
        (r, r_inv), (c, c_inv) = (_shear(rep.dim(u), Fraction(1, 7), True),
                                  _shear(rep.dim(u), Fraction(3, 11), False))
        g[u], g_inv[u] = r @ c, c_inv @ r_inv
    maps = {a.name: g[a.dst] @ rep.map(a.name) @ g_inv[a.src] for a in rep.quiver.arrows}
    return Rep(QQ, rep.quiver, dict(rep.dims), maps)


def test_the_setup_of_a_restricted_demazure_stage_counts_as_its_reduction():
    stage = demazure_module(A3, {"1": 1, "2": 1, "3": 1}, longest_element(A3)).stages[-1]
    piece = restrict(stage.ambient, stage)
    assert piece.field == QQ and piece.dims == {"1": 3, "2": 4, "3": 3}
    _assert_the_setup_counts_as_the_reduction(piece)


def test_the_setup_of_a_quotient_by_a_walk_endpoint_counts_as_its_reduction():
    # The `fiber_euler` "up" route: the quotient of a hull by a submodule.
    # Its sheared copy holds Fraction entries, which the set-up must reduce
    # as `reduce_mod` does.
    w = {"1": 1, "2": 1, "3": 1}
    model = injective_hull(A3, w)
    with_fractions = 0
    for vt, word in sorted(extremal_orbit(A3, w).items()):
        quot, _ = quotient(model.rep, _walk(model, word).stages[-1])
        _assert_the_setup_counts_as_the_reduction(quot)
        copy = _sheared(quot)
        _assert_the_setup_counts_as_the_reduction(copy)
        with_fractions += any(isinstance(x, Fraction)
                              for m in copy.maps.values() for r in m.a for x in r)
    assert with_fractions >= 12


def test_a_vanishing_denominator_fails_alike_on_both_routes():
    q = double(line_quiver(2))
    a = q.arrows[0].name
    rep = make_rep(QQ, q, {"1": 1, "2": 1}, {a: [[Fraction(1, 10)]]}, preprojective=False)
    v = {"1": 1, "2": 1}
    for p in (2, 5):
        with pytest.raises(BadPrimeError) as reduced:
            count_submodules(reduce_mod(rep, p), v)
        with pytest.raises(BadPrimeError) as walked:
            grassmann._CountSetup(rep).count(p, v)
        assert str(walked.value) == str(reduced.value)
    assert grassmann._CountSetup(rep).count(3, v) == count_submodules(reduce_mod(rep, 3), v)


def test_the_setup_of_an_fp_rep_walks_only_at_its_own_prime():
    rep3 = reduce_mod(injective_hull(A2, {"1": 1, "2": 1}).rep, 3)
    setup = grassmann._CountSetup(rep3)
    for walk in (setup.slots, lambda p: setup.count(p, {"1": 1, "2": 1})):
        for p in (2, 5):
            with pytest.raises(InternalCheckError):
                walk(p)
    assert setup.count(3, {"1": 1, "2": 1}) == count_submodules(rep3, {"1": 1, "2": 1}) == 7


# -- tilde counts --------------------------------------------------------------

def test_tilde_count_matches_plain_count_via_duality():
    theta = diagram_involution(A2)
    w = {"1": 1, "2": 0}
    tw = apply_involution(A2, theta, w)
    proj = projective_sum(A2, tw)
    model = injective_hull(A2, w)
    top = orbit_maximum(A2, w)
    for u_tuple in extremal_orbit(A2, w):
        u = {v: u_tuple[k] for k, v in enumerate(A2.vertices)}
        for p in (2, 3):
            plain = count_submodules(reduce_mod(model.rep, p), u)
            codim = {v: top[v] - u[v] for v in top}
            assert tilde_count(reduce_mod(proj, p), codim) == plain


def test_tilde_count_trivial_ends():
    model = injective_hull(A2, {"1": 1, "2": 1})
    rep2 = reduce_mod(model.rep, 2)
    assert tilde_count(rep2, {}) == 1
    assert tilde_count(rep2, rep2.dim_vector()) == 1
    assert tilde_count(rep2, {"1": 99}) == 0


def test_tilde_count_filters_non_nilpotent_quotients():
    # Invertible loop composite: the whole module is not nilpotent, so the
    # zero submodule's quotient must be filtered out.
    dq = double(A2)
    f2 = PrimeField(2)
    one = Mat.identity(f2, 1)
    rep = make_rep(
        f2,
        dq,
        {"1": 1, "2": 1},
        {"a1": one, "a1*": one},
        preprojective=False,
    )
    assert tilde_count(rep, {"1": 1, "2": 1}) == 0
    assert tilde_count(rep, {}) == 1


# -- graded enumeration ---------------------------------------------------------

def _adjoint_grading(z=Fraction(2)):
    model = injective_hull(A2, {"1": 1, "2": 1})
    grading = eigen_grading(model, identity_framing(model), z)
    return model, grading


def test_graded_socle_character_unique():
    model, grading = _adjoint_grading()
    subs = graded_submodules(model, grading, {("1", 0): 1, ("2", 0): 1}, 5)
    assert len(subs) == 1
    rep5 = reduce_mod(model.rep, 5)
    assert subs[0].key() == reduce_subrep(socle(model.rep), rep5).key()


def test_graded_counts_sum_to_euler_characteristic():
    # Torus fixed points of the 2p+1-point grassmannian: chi = P(1) = 3.
    model, grading = _adjoint_grading()
    total = 0
    per_character = []
    for k1 in (0, 1):
        for k2 in (0, 1):
            d = {("1", k1): 1, ("2", k2): 1}
            n = len(graded_submodules(model, grading, d, 5))
            per_character.append(((k1, k2), n))
            total += n
    assert per_character == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)]
    poly = count_polynomial(A2, {"1": 1, "2": 1}, {"1": 1, "2": 1}, [2, 3, 5])
    assert total == poly.chi == 3


def test_graded_output_subset_of_ungraded_and_shifts():
    model, grading = _adjoint_grading()
    rep5 = reduce_mod(model.rep, 5)
    ungraded = {s.key() for s in enumerate_submodules(rep5, {"1": 1, "2": 1})}
    layer_bases = {
        v: [col_space(Mat(rep5.field, b.rows, b.cols,
                          [[rep5.field.of(x) for x in row] for row in b.a]))
            for _, b in grading[v]]
        for v in rep5.quiver.vertices
    }
    found = []
    for k1 in (0, 1):
        for k2 in (0, 1):
            found.extend(
                graded_submodules(model, grading, {("1", k1): 1, ("2", k2): 1}, 5)
            )
    for s in found:
        assert s.key() in ungraded
        # Each piece sits inside a single layer, and arrows shift the layer
        # index down by one per degree (z-power) step.
        for a in rep5.quiver.arrows:
            for k, layer in enumerate(layer_bases[a.src]):
                piece = subspace_intersect(s.basis(a.src), layer)
                image = rep5.map(a.name) @ piece
                if image.is_zero():
                    continue
                shifted = Fraction(grading[a.src][k][0]) / Fraction(grading.z)
                k_out = [
                    j for j, (lam, _) in enumerate(grading[a.dst])
                    if Fraction(lam) == shifted
                ]
                assert k_out, "image must land in an existing layer"
                target = subspace_intersect(s.basis(a.dst), layer_bases[a.dst][k_out[0]])
                assert subspace_contains(target, col_space(image))


def test_graded_trivial_action_equals_ungraded():
    model, grading = _adjoint_grading(z=Fraction(1))
    for v in model.quiver.vertices:
        assert len(grading[v]) == 1
    rep5 = reduce_mod(model.rep, 5)
    graded = graded_submodules(model, grading, {("1", 0): 1, ("2", 0): 1}, 5)
    plain = enumerate_submodules(rep5, {"1": 1, "2": 1})
    assert [s.key() for s in graded] == [s.key() for s in plain]
    assert len(graded) == 11


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("w", [{"1": 1, "2": 1}, {"1": 2, "2": 1}, {"1": 1, "2": 0, "3": 1}],
                         ids=["w11", "w21", "w101"])
def test_graded_enumeration_matches_brute_force_for_every_character(w, p):
    q = line_quiver(len(w))
    model = injective_hull(q, w)
    grading = eigen_grading(model, identity_framing(model), 2)
    rep_p = reduce_mod(model.rep, p)
    layers = {v: [list(zip(*b.a)) for _, b in grading[v]] for v in q.vertices}
    slots = [(v, k) for v in q.vertices for k in range(len(layers[v]))]
    characters = product(*(range(len(layers[v][k]) + 1) for v, k in slots))
    total = 0
    for values in characters:
        d = dict(zip(slots, values))
        subs = graded_submodules(model, grading, d, p)
        got = [tuple(span_set(zip(*s.basis(v).a), rep_p.dim(v), p) for v in q.vertices)
               for s in subs]
        assert len(set(got)) == len(got)
        assert set(got) == brute_graded_submodules(rep_p, layers, d), d
        total += len(got)
    assert total > len(slots)


def test_graded_rejects_colliding_prime():
    model, grading = _adjoint_grading(z=Fraction(3))
    with pytest.raises(BadPrimeError):
        graded_submodules(model, grading, {("1", 0): 1, ("2", 0): 1}, 2)


def test_graded_rejects_unknown_slot():
    model, grading = _adjoint_grading()
    with pytest.raises(ValidationError):
        graded_submodules(model, grading, {("1", 7): 1}, 5)


def test_graded_rejects_a_grading_off_the_layer_contract():
    # Layers are unit columns that partition each vertex, and every arrow
    # maps a layer into the shifted one; only a hand-built Grading breaks it.
    model, grading = _adjoint_grading()
    (lam0, b0), (lam1, b1) = grading["1"]
    doubled = Mat(b0.field, b0.rows, b0.cols, [[2 * x for x in r] for r in b0.a])
    cases = [
        ((lam0, doubled), (lam1, b1)),  # a layer that is not unit columns
        ((lam1, b1),),                  # layers that do not cover the vertex
        ((lam0, b0), (lam1, b0)),       # layers that overlap
        ((lam0, b1), (lam1, b0)),       # arrows leave the shifted layers
    ]
    for spaces in cases:
        bad = grading._replace(spaces={**grading.spaces, "1": spaces})
        with pytest.raises(ValidationError):
            graded_submodules(model, bad, {}, 5)


def test_graded_cap_names_the_branching_slot():
    model = injective_hull(A2, {"1": 2, "2": 1})
    grading = eigen_grading(model, identity_framing(model), 2)
    with pytest.raises(CapExceededError) as exc:
        graded_submodules(model, grading, {("1", 0): 1, ("1", 1): 1, ("2", 0): 1}, 5, cap=2)
    assert exc.value.slot == ("1", 0)
    assert "at slot ('1', 0), branching [2 1]_5" in str(exc.value)


def test_expected_dimension_values():
    assert expected_dimension(A2, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 1
    assert expected_dimension(A1, {"1": 2}, {"1": 1}) == 1
    assert expected_dimension(A2, {"1": 1, "2": 1}, {}) == 0
    assert expected_dimension(kronecker_quiver(), {"1": 1, "2": 0}, {"1": 1, "2": 2}) == 0


def test_count_poly_evaluate_and_properties():
    poly = CountPoly(coeffs=(1, 2), primes_used=(2, 3), consistency_primes=(5,),
                     counts=((2, 5), (3, 7), (5, 11)))
    assert len(poly.coeffs) - 1 == 1
    assert poly.chi == 3
    assert poly.leading == 2
