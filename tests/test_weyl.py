import itertools

import pytest

from oracles import (
    dihedral_bruhat_leq,
    dihedral_is_reduced,
    textbook_rref,
    type_a_bruhat_leq,
    type_a_is_reduced,
)

import quivergrass.weyl as weyl
from quivergrass.errors import NotFiniteTypeError, NotReducedError, ValidationError
from quivergrass.quiver import cartan_matrix, kronecker_quiver, line_quiver, star_quiver
from quivergrass.weyl import (
    act,
    apply_involution,
    bruhat_leq,
    diagram_involution,
    dot_step,
    extremal_orbit,
    is_reduced,
    longest_element,
    orbit_maximum,
    positive_roots,
    weight_census,
    weight_multiplicity,
    zero_vector,
)

A1 = line_quiver(1)
A2 = line_quiver(2)
A3 = line_quiver(3)
D4 = star_quiver(3)


def test_dot_step_basics():
    w = {"1": 1, "2": 1}
    assert dot_step(A2, "1", w, zero_vector(A2)) == {"1": 1, "2": 0}
    v = {"1": 1, "2": 0}
    assert dot_step(A2, "1", w, dot_step(A2, "1", w, v)) == v


def test_act_word_stages():
    w = {"1": 1, "2": 1}
    assert act(A2, ["1"], w, zero_vector(A2)) == {"1": 1, "2": 0}
    assert act(A2, ["2", "1"], w, zero_vector(A2)) == {"1": 1, "2": 2}
    assert act(A2, ["1", "2", "1"], w, zero_vector(A2)) == {"1": 2, "2": 2}
    assert act(A2, ["2", "1", "2"], w, zero_vector(A2)) == {"1": 2, "2": 2}


def test_extremal_orbits():
    orb = extremal_orbit(A2, {"1": 1, "2": 0})
    assert set(orb) == {(0, 0), (1, 0), (1, 1)}
    orb2 = extremal_orbit(A2, {"1": 1, "2": 1})
    assert len(orb2) == 6
    assert max(orb2) == (2, 2)
    orb3 = extremal_orbit(A1, {"1": 2})
    assert set(orb3) == {(0,), (2,)}


def test_orbit_words_are_reduced_and_consistent():
    w = {"1": 1, "2": 1}
    for vec, word in extremal_orbit(A2, w).items():
        assert is_reduced(A2, word)
        assert tuple(act(A2, word, w, zero_vector(A2))[x] for x in A2.vertices) == vec


def test_orbit_pseudo_norm_invariant():
    # -2 w.v + v^T C v is preserved by every dot-action step
    c = cartan_matrix(A2).matrix
    w = (1, 1)

    def norm(v):
        quad = sum(v[i] * c[i][j] * v[j] for i in range(2) for j in range(2))
        return -2 * sum(w[i] * v[i] for i in range(2)) + quad

    for vec in extremal_orbit(A2, {"1": 1, "2": 1}):
        assert norm(vec) == norm((0, 0))


def test_longest_element_lengths():
    assert len(longest_element(A1)) == 1
    assert len(longest_element(A2)) == 3
    assert len(longest_element(A3)) == 6
    assert len(longest_element(D4)) == 12
    for q in (A2, A3, D4):
        assert is_reduced(q, longest_element(q))


def test_longest_element_requires_finite():
    with pytest.raises(NotFiniteTypeError):
        longest_element(kronecker_quiver())


def test_diagram_involution():
    assert diagram_involution(A2) == {"1": "2", "2": "1"}
    assert diagram_involution(A3) == {"1": "3", "2": "2", "3": "1"}
    assert diagram_involution(D4) == {v: v for v in D4.vertices}
    w = {"1": 1, "2": 0, "3": 2}
    assert apply_involution(A3, diagram_involution(A3), w) == {"1": 2, "2": 0, "3": 1}


def test_orbit_maximum_solves_cartan_equation():
    # the largest extremal vector solves C v = w + theta(w)
    cases = [
        (A2, {"1": 1, "2": 0}),
        (A2, {"1": 1, "2": 1}),
        (A3, {"1": 1, "2": 0, "3": 0}),
        (A3, {"1": 0, "2": 1, "3": 0}),
        (D4, {"0": 1, "1": 0, "2": 0, "3": 0}),
        (D4, {"0": 0, "1": 1, "2": 0, "3": 0}),
    ]
    for q, w in cases:
        theta = diagram_involution(q)
        tw = apply_involution(q, theta, w)
        n = len(q.vertices)
        rows = [list(r) + [w[x] + tw[x]] for r, x in zip(cartan_matrix(q).matrix, q.vertices)]
        red, pivots = textbook_rref(rows, n + 1)
        assert pivots == list(range(n))
        vmax = orbit_maximum(q, w)
        assert [vmax[x] for x in q.vertices] == [r[n] for r in red]


def test_orbit_maximum_values():
    assert orbit_maximum(A2, {"1": 1, "2": 1}) == {"1": 2, "2": 2}
    assert orbit_maximum(A2, {"1": 1, "2": 0}) == {"1": 1, "2": 1}
    assert orbit_maximum(A3, {"1": 1, "2": 0, "3": 0}) == {"1": 1, "2": 1, "3": 1}
    assert orbit_maximum(A3, {"1": 0, "2": 1, "3": 0}) == {"1": 1, "2": 2, "3": 1}
    assert orbit_maximum(D4, {"0": 1, "1": 0, "2": 0, "3": 0}) == {
        "0": 4, "1": 2, "2": 2, "3": 2,
    }
    assert orbit_maximum(D4, {"0": 0, "1": 1, "2": 0, "3": 0}) == {
        "0": 2, "1": 2, "2": 1, "3": 1,
    }


def test_reduced_words():
    assert is_reduced(A2, ["1", "2", "1"])
    assert is_reduced(A2, [])
    assert not is_reduced(A2, ["1", "1"])
    assert not is_reduced(A2, ["1", "2", "1", "2"])


def test_braid_words_act_identically():
    w = {"1": 2, "2": 3}
    v = {"1": 1, "2": 1}
    assert act(A2, ["1", "2", "1"], w, v) == act(A2, ["2", "1", "2"], w, v)


def test_a_weight_with_a_non_integer_or_unknown_entry_is_refused():
    with pytest.raises(ValidationError, match="non-negative integer"):
        weight_multiplicity(A2, {"1": 1.5, "2": 1}, {"1": 1})
    with pytest.raises(ValidationError, match="unknown vertex '9'"):
        weight_multiplicity(A2, {"1": 1, "2": 1}, {"9": 1})
    with pytest.raises(ValidationError, match="unknown vertex '9'"):
        act(A2, ["1"], {"1": 1, "9": 1}, zero_vector(A2))


def test_a_positional_weight_with_a_non_integer_entry_is_refused():
    with pytest.raises(ValidationError, match="non-negative integer"):
        weight_multiplicity(A2, (1.5, 1), (1, 0))


def test_a_positional_weight_with_an_entry_too_many_is_refused():
    with pytest.raises(ValidationError, match="one per vertex"):
        weight_multiplicity(A2, (1, 1, 7), (1, 0))


def test_a_positional_vector_with_an_entry_too_few_is_refused():
    with pytest.raises(ValidationError, match="one per vertex"):
        act(A2, ("1",), (1, 0), (0,))


@pytest.mark.parametrize("q, values", [(A2, (0, 1, 2)), (A3, (0, 1, 2)), (D4, (0, 1))],
                         ids=["A2", "A3", "D4"])
def test_extremality_without_the_orbit_is_orbit_membership(q, values):
    for bits in itertools.product(values, repeat=len(q.vertices)):
        w = dict(zip(q.vertices, bits))
        orbit = extremal_orbit(q, w)
        tops = [max(vt[k] for vt in orbit) + 1 for k in range(len(q.vertices))]
        for vt in itertools.product(*(range(top + 1) for top in tops)):
            assert weyl._is_extremal(q, w, vt) == (vt in orbit), (bits, vt)


def test_extremality_past_finite_type_is_orbit_membership():
    # Every vector of the box has a shortest word far below the orbit's depth
    # cap.  At level zero the walk must stop at the first negative entry.
    kron = kronecker_quiver()
    for w in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
        orbit = extremal_orbit(kron, w)
        for vt in itertools.product(range(10), repeat=2):
            assert weyl._is_extremal(kron, w, vt) == (vt in orbit), (w, vt)


def test_bruhat_order():
    assert bruhat_leq(A2, [], ["1", "2", "1"])
    assert bruhat_leq(A2, ["1"], ["1", "2", "1"])
    assert bruhat_leq(A2, ["2"], ["1", "2", "1"])
    assert bruhat_leq(A2, ["2", "1"], ["1", "2", "1"])
    assert not bruhat_leq(A2, ["1", "2"], ["1"])
    assert not bruhat_leq(A2, ["1"], ["2"])
    assert not bruhat_leq(A2, ["2"], ["1"])
    with pytest.raises(NotReducedError):
        bruhat_leq(A2, ["1"], ["1", "1"])


def test_bruhat_reflexive_on_reduced_words():
    for word in (["1"], ["2", "1"], ["1", "2", "1"]):
        assert bruhat_leq(A2, word, word)


def _words(q, longest):
    return [w for n in range(longest + 1) for w in itertools.product(q.vertices, repeat=n)]


@pytest.mark.parametrize("n", [2, 3], ids=["A2", "A3"])
def test_type_a_words_and_bruhat_order_match_permutations(n):
    q = line_quiver(n)
    words = _words(q, 5)
    reduced = [w for w in words if type_a_is_reduced(w, n)]
    assert [w for w in words if is_reduced(q, w)] == reduced
    for u in words:
        for v in reduced:
            assert bruhat_leq(q, u, v) == type_a_bruhat_leq(u, v, n), (u, v)


def test_kronecker_words_and_bruhat_order_match_the_infinite_dihedral_group():
    kron = kronecker_quiver()
    words = _words(kron, 8)
    reduced = [w for w in words if dihedral_is_reduced(w)]
    assert [w for w in words if is_reduced(kron, w)] == reduced
    for u in words:
        for v in reduced:
            assert bruhat_leq(kron, u, v) == dihedral_bruhat_leq(u, v), (u, v)


def test_positive_root_counts():
    assert len(positive_roots(A1)) == 1
    assert len(positive_roots(A2)) == 3
    assert len(positive_roots(A3)) == 6
    assert len(positive_roots(D4)) == 12
    assert positive_roots(A2) == [(0, 1), (1, 0), (1, 1)]


def test_positive_roots_are_cached_and_handed_out_fresh():
    assert weyl._roots.cache_info().maxsize is not None
    first = positive_roots(A3)
    first[0] = (9, 9, 9)
    first.append((1, 2, 1))
    assert positive_roots(A3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0),
                                  (1, 1, 1)]
    assert positive_roots(A3) is not positive_roots(A3)


def test_all_ones_census_has_dimension_two_to_the_positive_roots():
    # By Weyl's formula dim V(rho) = prod over the positive roots a of
    # (2 rho, a) / (rho, a) = 2^|Phi+|, with 6, 10 and 12 positive roots.
    for q, dim in ((A3, 64), (line_quiver(4), 1024), (D4, 4096)):
        assert sum(weight_census(q, {v: 1 for v in q.vertices}).values()) == dim


def test_weight_multiplicities():
    assert weight_multiplicity(A1, {"1": 2}, {"1": 1}) == 1
    assert weight_multiplicity(A2, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 2
    for vec in extremal_orbit(A2, {"1": 1, "2": 0}):
        v = {x: n for x, n in zip(A2.vertices, vec)}
        assert weight_multiplicity(A2, {"1": 1, "2": 0}, v) == 1
    # outside the hull
    assert weight_multiplicity(A2, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == 0


def test_weight_census_totals_match_dimension_formula():
    # type A dimension: prod over positive roots of (lam+rho,a)/(rho,a)
    assert sum(weight_census(A2, {"1": 1, "2": 0}).values()) == 3
    assert sum(weight_census(A2, {"1": 1, "2": 1}).values()) == 8
    assert sum(weight_census(A2, {"1": 2, "2": 0}).values()) == 6
    assert sum(weight_census(A2, {"1": 2, "2": 2}).values()) == 27
    assert sum(weight_census(A3, {"1": 1, "2": 0, "3": 0}).values()) == 4
    assert sum(weight_census(A3, {"1": 0, "2": 1, "3": 0}).values()) == 6


def test_census_keys_include_orbit_with_mult_one():
    w = {"1": 1, "2": 1}
    census = weight_census(A2, w)
    for vec in extremal_orbit(A2, w):
        assert census[vec] == 1


def test_multiplicity_tables_are_bounded_and_refill_identically():
    bound = weyl._mult_table.cache_info().maxsize
    assert bound is not None
    w = {"1": 1, "2": 1, "3": 1}
    first = weyl._mult_table(A3, (1, 1, 1))
    assert weight_multiplicity(A3, w, (1, 2, 1)) == 4
    for k in range(bound):
        weight_multiplicity(A1, {"1": k}, {"1": 1})
    assert weyl._mult_table.cache_info().currsize == bound
    assert weight_multiplicity(A3, w, (1, 2, 1)) == 4
    assert weyl._mult_table(A3, (1, 1, 1)) is not first


def test_orbit_cache_is_bounded_hands_out_fresh_dicts_and_refills_identically():
    bound = weyl._orbit.cache_info().maxsize
    assert bound is not None
    w = {"1": 1, "2": 1, "3": 1}
    first = extremal_orbit(A3, w)
    assert len(first) == 24
    first[(9, 9, 9)] = ("1",)
    second = extremal_orbit(A3, w)
    assert second is not first
    assert (9, 9, 9) not in second
    cached = weyl._orbit(A3, (1, 1, 1), None)
    for k in range(bound):
        extremal_orbit(A1, {"1": k})
    assert weyl._orbit.cache_info().currsize == bound
    assert weyl._orbit(A3, (1, 1, 1), None) is not cached
    assert extremal_orbit(A3, w) == second
    kron = kronecker_quiver()
    assert extremal_orbit(kron, {"1": 1, "2": 0}) == dict(weyl._orbit(kron, (1, 0), 64))
