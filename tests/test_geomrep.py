"""Finite point realizations, operator matrices, fibers, and comparisons."""

import pytest

import quivergrass.geomrep as geomrep

from quivergrass.demazure import demazure_module
from quivergrass.errors import NotFiniteRegimeError, TruncationTooSmallError, ValidationError
from quivergrass.geomrep import (
    chevalley_compare,
    fiber_euler,
    finite_points,
    operator_matrices,
    restricted_compat,
    verify_sl2,
)
from quivergrass.grassmann import count_submodules, expected_dimension
from quivergrass.hull import injective_hull
from quivergrass.quiver import line_quiver, star_quiver
from quivergrass.repmod import full_subrep, reduce_mod, socle, zero_subrep
from quivergrass.weyl import extremal_orbit, weight_census

from oracles import wedge_action

A1 = line_quiver(1)
A2 = line_quiver(2)
A3 = line_quiver(3)
A4 = line_quiver(4)
D4 = star_quiver(3)
W10 = {"1": 1, "2": 0}


def test_minuscule_realization_has_one_point_per_weight():
    real = finite_points(A2, W10)
    assert real.finite
    assert real.weights() == [(0, 0), (1, 0), (1, 1)]
    for vt in real.weights():
        st = real.statuses[vt]
        assert len(st.points) == 1
        assert st.counts == ((2, 1), (3, 1), (5, 1))
        assert st.reason is None
    assert len(real.point_list()) == 3


def test_rank_three_minuscule_has_four_points():
    real = finite_points(A3, {"1": 1, "2": 0, "3": 0})
    assert real.finite
    assert len(real.point_list()) == 4
    assert real.weights() == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_varying_count_is_reported_not_raised():
    real = finite_points(A1, {"1": 2})
    assert not real.finite
    st = real.statuses[(1,)]
    assert st.points is None
    assert st.counts == ((2, 3), (3, 4), (5, 6))
    assert "varies" in st.reason
    assert real.statuses[(0,)].finite and real.statuses[(2,)].finite
    with pytest.raises(NotFiniteRegimeError):
        real.point_list()


def test_operator_matrices_frozen_values():
    real = finite_points(A2, W10)
    ops = operator_matrices(real)
    assert ops["1"].raising.a == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert ops["1"].lowering.a == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert ops["1"].torus.a == [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    assert ops["2"].raising.a == [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    assert ops["2"].lowering.a == [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    assert ops["2"].torus.a == [[0, 0, 0], [0, 1, 0], [0, 0, -1]]


def test_torus_sequence_along_the_chain():
    real = finite_points(A2, W10)
    ops = operator_matrices(real)
    pairs = [
        (ops["1"].torus.a[k][k], ops["2"].torus.a[k][k]) for k in range(3)
    ]
    assert pairs == [(1, 0), (-1, 1), (0, -1)]


def test_commutators_against_torus():
    real = finite_points(A2, W10)
    ops = operator_matrices(real)

    def mul(a, b):
        n = len(a)
        return [
            [sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n)]
            for r in range(n)
        ]

    for i in ("1", "2"):
        for j in ("1", "2"):
            comm = [
                [x - y for x, y in zip(ra, rb)]
                for ra, rb in zip(
                    mul(ops[i].raising.a, ops[j].lowering.a),
                    mul(ops[j].lowering.a, ops[i].raising.a),
                )
            ]
            expect = (
                ops[i].torus.a
                if i == j
                else [[0] * 3 for _ in range(3)]
            )
            assert comm == expect


def test_raising_annihilates_the_vacuum():
    real = finite_points(A2, W10)
    ops = operator_matrices(real)
    for i in ("1", "2"):
        assert all(row[0] == 0 for row in ops[i].raising.a)
        # and nothing lowers into the vacuum either
        assert all(ops[i].lowering.a[0][c] == 0 for c in range(3))


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(1, 5) for k in range(1, n + 1)],
    ids=[f"A{n}-k{k}" for n in range(1, 5) for k in range(1, n + 1)],
)
def test_operators_match_the_exterior_power_by_hand(n, k):
    # The framing e_k realizes the fundamental weight ϖ_k, which is minuscule:
    # its weights are distinct, so they match each point to one k-subset.
    q = line_quiver(n)
    verts = [str(i) for i in range(1, n + 1)]
    assert list(q.vertices) == verts
    ops = operator_matrices(finite_points(q, {i: int(i == str(k)) for i in verts}))
    subsets, E, F, H = wedge_action(n, k)
    size = len(subsets)
    by_weight = {tuple(H[i][c][c] for i in verts): c for c in range(size)}
    assert len(by_weight) == size == ops["1"].torus.rows
    order = [by_weight[tuple(ops[i].torus.a[r][r] for i in verts)] for r in range(size)]
    assert sorted(order) == list(range(size))
    for i in verts:
        for mine, theirs in ((ops[i].raising, E[i]), (ops[i].lowering, F[i]), (ops[i].torus, H[i])):
            assert mine.a == [[theirs[r][c] for c in order] for r in order], i


def test_fiber_euler_values():
    m = injective_hull(A1, {"1": 2})
    assert fiber_euler(zero_subrep(m.rep), "1", "up") == 2
    assert fiber_euler(full_subrep(m.rep), "1", "up") == 0
    assert fiber_euler(full_subrep(m.rep), "1", "down") == 2
    m2 = injective_hull(A2, W10)
    soc = socle(m2.rep)
    assert fiber_euler(soc, "2", "up") == 1
    assert fiber_euler(soc, "2", "down") == 0
    assert fiber_euler(soc, "1", "down") == 1


def test_fiber_euler_validation():
    m = injective_hull(A1, {"1": 2})
    with pytest.raises(ValidationError):
        fiber_euler(zero_subrep(m.rep), "1", "sideways")
    with pytest.raises(ValidationError):
        fiber_euler(zero_subrep(m.rep), "9", "up")
    rep_p = reduce_mod(m.rep, 3)
    with pytest.raises(ValidationError):
        fiber_euler(zero_subrep(rep_p), "1", "up")


def test_sl2_report_finite_case():
    rep = verify_sl2(A2, W10)
    assert rep.finite_regime
    assert rep.passed
    assert rep.total_dim == 3
    assert rep.total_points == 3
    names = [it.name for it in rep.items]
    assert "raising/lowering commutators equal the torus table" in names
    assert "repeated brackets at distinct vertices vanish" in names


def test_sl2_report_rank_three():
    rep = verify_sl2(A3, {"1": 1, "2": 0, "3": 0})
    assert rep.finite_regime and rep.passed
    assert rep.total_dim == 4 and rep.total_points == 4


def test_sl2_report_outside_finite_regime():
    rep = verify_sl2(A1, {"1": 2})
    assert not rep.finite_regime
    assert rep.passed
    assert rep.total_dim == 3
    assert rep.total_points is None
    assert len(rep.items) == 2


def test_sl2_adjoint_weight_census_via_leading_coefficients():
    rep = verify_sl2(A2, {"1": 1, "2": 1})
    assert not rep.finite_regime  # the middle weight has varying counts
    assert rep.passed
    assert rep.total_dim == 8
    dims = dict(rep.weight_dims)
    assert dims[(1, 1)] == 2
    assert sum(1 for _, m in rep.weight_dims if m == 1) == 6


def test_restricted_compat_all_word_segments():
    word = ("1", "2", "1")
    for k in range(len(word) + 1):
        assert restricted_compat(A2, W10, word[k:])
        assert restricted_compat(A2, W10, word[: len(word) - k])
    assert restricted_compat(A3, {"1": 1, "2": 0, "3": 0}, ("1", "2", "1"))


def _zero_e1_f1(monkeypatch, perturbed):
    """Make `_vertex_operators` return E_1 = F_1 = 0 on the calls that
    `perturbed(call number, w)` picks, and the true operators on the rest."""
    assemble = geomrep._vertex_operators
    calls = []

    def assemble_some_wrong(q, w, points):
        ops = assemble(q, w, points)
        calls.append(w)
        if perturbed(len(calls), w):
            zero = ops["1"].torus.scale(0)
            ops["1"] = ops["1"]._replace(raising=zero, lowering=zero)
        return ops

    monkeypatch.setattr(geomrep, "_vertex_operators", assemble_some_wrong)


def test_verify_sl2_fails_on_a_wrong_commutator(monkeypatch):
    _zero_e1_f1(monkeypatch, lambda call, w: True)
    rep = verify_sl2(A2, W10)
    assert not rep.passed
    failed = [it for it in rep.items if not it.passed]
    assert [it.name for it in failed] == ["raising/lowering commutators equal the torus table"]
    assert "(1,1)" in failed[0].details


def test_chevalley_compare_names_the_vertex_whose_swap_fails(monkeypatch):
    # Only the twisted framing's realization is wrong; perturbing both sides
    # alike would keep them each other's swap.
    twist = {"1": 0, "2": 1}
    _zero_e1_f1(monkeypatch, lambda call, w: w == twist)
    rep = chevalley_compare(A2, W10)
    assert not rep.passed
    failed = [it for it in rep.items if not it.passed]
    assert [(it.name, it.details) for it in failed] == [
        ("raising and lowering swap under the pairing", "1")
    ]


def test_restricted_compat_fails_on_a_wrong_stage_assembly(monkeypatch):
    # The ambient assembly comes first, the stage's second.
    _zero_e1_f1(monkeypatch, lambda call, w: call == 2)
    assert not restricted_compat(A2, W10, ("1",))


def test_restricted_compat_needs_finite_regime():
    with pytest.raises(NotFiniteRegimeError):
        restricted_compat(A1, {"1": 2}, ("1",))


def test_chevalley_reports():
    rep = chevalley_compare(A2, W10)
    assert rep.passed
    assert rep.pair_count == 3
    names = [it.name for it in rep.items]
    assert "raising and lowering swap under the pairing" in names
    assert "torus eigenvalue lists negate and reverse" in names
    rep1 = chevalley_compare(A1, {"1": 1})
    assert rep1.passed and rep1.pair_count == 2


def test_chevalley_needs_finite_regime():
    with pytest.raises(NotFiniteRegimeError):
        chevalley_compare(A1, {"1": 2})


def test_truncated_dynkin_hull_asks_for_a_longer_truncation():
    real = finite_points(A3, {"1": 0, "2": 1, "3": 0}, trunc=2)
    assert not real.model.full and not real.finite
    for call in (real.point_list, lambda: chevalley_compare(A3, {"1": 0, "2": 1, "3": 0}, 2)):
        with pytest.raises(TruncationTooSmallError) as err:
            call()
        assert err.value.suggested == 4


def _slot_builds(monkeypatch):
    """The prime of every slot build of any walk set-up, in order, on an
    emptied hull cache."""
    import quivergrass.grassmann as grassmann

    grassmann._hull.cache_clear()
    built = []
    slots = grassmann._CountSetup.slots

    def recording(setup, p):
        if p not in setup._by_prime:
            built.append(p)
        return slots(setup, p)

    monkeypatch.setattr(grassmann._CountSetup, "slots", recording)
    return built


def test_finite_points_builds_each_primes_slots_once(monkeypatch):
    built = _slot_builds(monkeypatch)
    real = finite_points(D4, {"0": 0, "1": 1, "2": 0, "3": 0}, primes=(2, 3, 5))
    assert len(real.statuses) == 8 and real.finite
    assert built == [2, 3, 5]
    for vt, st in real.statuses.items():
        v = dict(zip(D4.vertices, vt))
        assert st.counts == tuple(
            (p, count_submodules(reduce_mod(real.model.rep, p), v)) for p in (2, 3, 5))


def test_restricted_compat_builds_the_stages_slots_once_per_prime(monkeypatch):
    built = _slot_builds(monkeypatch)
    w = {"1": 1, "2": 0, "3": 0}
    assert len(weight_census(A3, w)) == 4
    assert restricted_compat(A3, w, ("1", "2", "1"), primes=(2, 3, 5))
    # finite_points walks the shared hull, then the stage's census walks the
    # stage's set-up: once per prime each, not once per (weight, prime).
    assert built == [2, 3, 5, 2, 3, 5]


def test_verify_sl2_counts_the_hulls_weights_once_per_prime(monkeypatch):
    import quivergrass.grassmann as grassmann

    # Hulls built from here on: the one shared by finite_points and the
    # count polynomials.
    hulls = []
    build = grassmann.injective_hull
    monkeypatch.setattr(grassmann, "injective_hull",
                        lambda *a: hulls.append(build(*a)) or hulls[-1])
    grassmann._hull.cache_clear()
    counted = []
    count = grassmann._CountSetup.count

    def recording(setup, p, v, cap=None):
        if any(setup.rep is model.rep for model in hulls):
            counted.append((tuple(v.values()), p))
        return count(setup, p, v, cap)

    monkeypatch.setattr(grassmann._CountSetup, "count", recording)
    assert verify_sl2(A2, W10).passed
    # The count polynomials interpolate finite_points' counts; the vacuum's
    # fiber counts run on a quotient, not on a hull.
    census = sorted(weight_census(A2, W10))
    assert sorted(counted) == [(vt, p) for vt in census for p in (2, 3, 5)]
    assert len(hulls) == 1


def test_verify_sl2_extends_the_default_primes_to_each_weights_degree():
    # On A1 at w = 4 the weights v = 1, 2, 3 have degrees 3, 4, 3: the three
    # default primes fit none of them, so each count polynomial counts the
    # least primes above them, while finite_points keeps the caller's.
    w = {"1": 4}
    assert [expected_dimension(A1, w, {"1": k}) for k in (1, 2, 3)] == [3, 4, 3]
    report = verify_sl2(A1, w)
    assert report.passed and not report.finite_regime
    assert [item.name for item in report.items] == [
        "leading count coefficients match the multiplicity recursion",
        "raising after lowering scales the vacuum by the framing",
    ]
    real = finite_points(A1, w)
    assert {tuple(p for p, _ in st.counts) for st in real.statuses.values()} == {(2, 3, 5)}


def test_one_prime_realizes_no_weight_off_the_orbit():
    # The adjoint's zero weight (1, 1) counts 5 at p = 2 alone; one prime
    # must not make its positive-dimensional stratum a point list.
    real = finite_points(A2, {"1": 1, "2": 1}, primes=(2,))
    st = real.statuses[(1, 1)]
    assert st.counts == ((2, 5),) and st.points is None
    assert "off the extremal orbit" in st.reason
    assert not real.finite
    with pytest.raises(NotFiniteRegimeError, match=r"\(1, 1\)"):
        real.point_list()
    with pytest.raises(NotFiniteRegimeError, match="no finite point list"):
        chevalley_compare(A2, {"1": 1, "2": 1}, primes=(2,))


@pytest.mark.parametrize("q, w", [
    (A2, (1, 1)),
    (A2, (2, 0)),
    (A3, (1, 1, 0)),
    (A3, (1, 1, 1)),
    (A4, (1, 0, 0, 1)),
    (D4, (1, 0, 0, 0)),
], ids=["A2-11", "A2-20", "A3-110", "A3-111", "A4-1001", "D4-centre"])
def test_full_hull_weights_off_the_orbit_are_positive_dimensional(q, w):
    # With two test primes no weight off the orbit has a constant count.
    w = dict(zip(q.vertices, w))
    model = injective_hull(q, w)
    orbit = extremal_orbit(q, w)
    reductions = [reduce_mod(model.rep, p) for p in (2, 3)]
    off = [vt for vt in weight_census(q, w) if vt not in orbit]
    assert off
    for vt in off:
        v = dict(zip(q.vertices, vt))
        assert expected_dimension(q, w, v) > 0
        at_2, at_3 = (count_submodules(rep, v) for rep in reductions)
        assert at_2 != at_3, vt


def test_truncated_hull_lifts_no_point_off_the_orbit():
    w = {"1": 1, "2": 1, "3": 1}
    real = finite_points(A3, w, trunc=1)
    for vt in ((0, 1, 1), (1, 1, 0), (1, 1, 1)):
        st = real.statuses[vt]
        assert st.counts == ((2, 1), (3, 1), (5, 1))
        assert st.points is None and "off the extremal orbit" in st.reason
    with pytest.raises(TruncationTooSmallError) as err:
        real.point_list()
    assert err.value.suggested == 2


def test_every_point_is_the_demazure_stage_of_its_weight():
    for q, w in ((A2, W10), (A3, {"1": 0, "2": 1, "3": 0}), (D4, {"0": 0, "1": 1})):
        orbit = extremal_orbit(q, w)
        for vt, pt in finite_points(q, w).point_list():
            stage = demazure_module(q, w, orbit[vt]).stages[-1]
            assert pt.key() == stage.key(), vt


def test_realization_is_deterministic():
    a = finite_points(A2, W10)
    b = finite_points(A2, W10)
    assert [vt for vt, _ in a.point_list()] == [vt for vt, _ in b.point_list()]
    assert [pt.key() for _, pt in a.point_list()] == [
        pt.key() for _, pt in b.point_list()
    ]
