"""Submodule enumeration, count interpolation, and graded enumeration tests."""

from fractions import Fraction
from itertools import permutations

import pytest

import quivergrass.grassmann as grassmann
from quivergrass.errors import (
    BadPrimeError,
    CapExceededError,
    InterpolationInconsistentError,
    ValidationError,
)
from quivergrass.fields import QQ, PrimeField
from quivergrass.grassmann import (
    CountPoly,
    count_polynomial,
    count_submodules,
    enumerate_pairs,
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
from quivergrass.linalg import Mat, col_space, subspace_contains, subspace_intersect
from quivergrass.quiver import build_quiver, double, kronecker_quiver, line_quiver
from quivergrass.repmod import (
    Rep,
    check_closure,
    make_rep,
    reduce_mod,
    reduce_subrep,
    socle,
)
from quivergrass.weyl import (
    apply_involution,
    diagram_involution,
    extremal_orbit,
    orbit_maximum,
    weight_census,
    weight_multiplicity,
)

from oracles import brute_submodule_count

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


def test_subspace_cells_complete_and_canonical():
    f3 = PrimeField(3)
    cells = list(subspace_cells(f3, 3, 1))
    assert len(cells) == gaussian_binomial(3, 1, 3) == 13
    keys = {c.key() for c in cells}
    assert len(keys) == 13
    for c in cells:
        assert col_space(c) == c
    pair_cells = list(subspace_cells(f3, 4, 2))
    assert len(pair_cells) == gaussian_binomial(4, 2, 3) == 130
    assert len({c.key() for c in pair_cells}) == 130


def test_cells_between_yield_canonical_bases():
    f3 = PrimeField(3)
    lower = col_space(Mat.from_rows(f3, [[0], [1], [2], [1]]))
    upper = Mat.identity(f3, 4)
    counter = [0]
    cells = list(grassmann._cells_between(lower, upper, 2, counter, 100))
    assert counter == [gaussian_binomial(3, 1, 3)] == [13]
    assert len({c.key() for c in cells}) == 13
    for c in cells:
        assert col_space(c) == c
        assert subspace_contains(c, lower)


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


# -- count polynomials --------------------------------------------------------

def test_adjoint_count_polynomial_frozen():
    w = {"1": 1, "2": 1}
    v = {"1": 1, "2": 1}
    assert expected_dimension(A2, w, v) == 1
    poly = count_polynomial(A2, w, v, [2, 3, 5])
    assert poly.counts == ((2, 5), (3, 7), (5, 11))
    assert poly.coeffs == (1, 2)
    assert poly.degree == 1
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
    assert poly.degree == 0


def test_count_polynomial_needs_enough_primes():
    with pytest.raises(ValidationError):
        count_polynomial(A2, {"1": 1, "2": 1}, {"1": 1, "2": 1}, [2])


def test_count_polynomial_rejects_bad_primes():
    with pytest.raises(ValidationError):
        count_polynomial(A1, {"1": 2}, {"1": 1}, [2, 4])
    with pytest.raises(ValidationError):
        count_polynomial(A1, {"1": 2}, {"1": 1}, [2, 2, 3])


def test_interpolation_inconsistency_detected(monkeypatch):
    # Degree-two counts against a degree-one bound must fail the extra-prime
    # certificate rather than be silently accepted.
    monkeypatch.setattr(grassmann, "count_submodules", lambda rep, v, cap=None: rep.field.p ** 2)
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


# -- pairs ---------------------------------------------------------------------

def test_pair_enumeration_frozen():
    model = injective_hull(A1, {"1": 2})
    rep2 = reduce_mod(model.rep, 2)
    assert len(enumerate_pairs(rep2, {"1": 0}, {"1": 1})) == 3
    m10 = injective_hull(A2, {"1": 1, "2": 0})
    r2 = reduce_mod(m10.rep, 2)
    assert len(enumerate_pairs(r2, {"1": 0, "2": 0}, {"1": 1, "2": 0})) == 1


def test_pair_enumeration_diagonal_and_validation():
    model = injective_hull(A2, {"1": 1, "2": 0})
    rep2 = reduce_mod(model.rep, 2)
    diag = enumerate_pairs(rep2, {"1": 1, "2": 0}, {"1": 1, "2": 0})
    assert len(diag) == 1
    assert diag[0][0] == diag[0][1]
    with pytest.raises(ValidationError):
        enumerate_pairs(rep2, {"1": 1, "2": 0}, {"1": 0, "2": 0})


def test_pairs_are_nested():
    model = injective_hull(A2, {"1": 1, "2": 1})
    rep2 = reduce_mod(model.rep, 2)
    pairs = enumerate_pairs(rep2, {"1": 1, "2": 0}, {"1": 1, "2": 1})
    assert pairs
    for inner, outer in pairs:
        for v in rep2.quiver.vertices:
            assert subspace_contains(outer.basis(v), inner.basis(v))


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


def test_graded_rejects_colliding_prime():
    model, grading = _adjoint_grading(z=Fraction(3))
    with pytest.raises(BadPrimeError):
        graded_submodules(model, grading, {("1", 0): 1, ("2", 0): 1}, 2)


def test_graded_rejects_unknown_slot():
    model, grading = _adjoint_grading()
    with pytest.raises(ValidationError):
        graded_submodules(model, grading, {("1", 7): 1}, 5)


def test_expected_dimension_values():
    assert expected_dimension(A2, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 1
    assert expected_dimension(A1, {"1": 2}, {"1": 1}) == 1
    assert expected_dimension(A2, {"1": 1, "2": 1}, {}) == 0
    assert expected_dimension(kronecker_quiver(), {"1": 1, "2": 0}, {"1": 1, "2": 2}) == 0


def test_count_poly_evaluate_and_properties():
    poly = CountPoly(coeffs=(1, 2), primes_used=(2, 3), consistency_primes=(5,),
                     counts=((2, 5), (3, 7), (5, 11)))
    assert poly.evaluate(10) == 21
    assert poly.degree == 1
    assert poly.chi == 3
    assert poly.leading == 2
