"""Chain construction, nesting, truncation errors, and stabilization tests."""

import pytest

from quivergrass.demazure import (
    DemazureChain,
    check_nesting,
    demazure_module,
    extend_step,
    stabilization_sigma,
)
from quivergrass.errors import (
    NotComparableError,
    NotExtremalError,
    NotReducedError,
    TruncationTooSmallError,
    ValidationError,
)
from quivergrass import grassmann, linalg, weyl
from quivergrass.grassmann import count_submodules, enumerate_submodules
from quivergrass.hull import framed_point, injective_hull
from quivergrass.linalg import subspace_contains
from quivergrass.quiver import build_quiver, kronecker_quiver, line_quiver, star_quiver
from quivergrass.repmod import (
    is_nilpotent,
    make_subrep,
    reduce_mod,
    reduce_subrep,
    restrict,
    socle,
)
from quivergrass.weyl import extremal_orbit, longest_element

A1 = line_quiver(1)
A2 = line_quiver(2)
A3 = line_quiver(3)
W11 = {"1": 1, "2": 1}
WILD = build_quiver(
    ["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")]
)


def _dims_tuple(q, d):
    return tuple(d[v] for v in q.vertices)


def test_chain_frozen_stage_dims_121():
    chain = demazure_module(A2, W11, ("1", "2", "1"))
    assert [_dims_tuple(A2, t) for t in chain.dim_targets] == [
        (0, 0),
        (1, 0),
        (1, 2),
        (2, 2),
    ]
    for stage, target in zip(chain.stages, chain.dim_targets):
        assert stage.dims() == target


def test_chain_frozen_stage_dims_212_and_same_final_subspace():
    c1 = demazure_module(A2, W11, ("1", "2", "1"))
    c2 = demazure_module(A2, W11, ("2", "1", "2"))
    assert [_dims_tuple(A2, t) for t in c2.dim_targets] == [
        (0, 0),
        (0, 1),
        (2, 1),
        (2, 2),
    ]
    assert c1.stages[-1].key() == c2.stages[-1].key()


def test_empty_word_chain():
    chain = demazure_module(A2, W11, ())
    assert len(chain.stages) == 1
    assert chain.stages[0].dims() == {"1": 0, "2": 0}


def test_stages_nest_along_the_word():
    chain = demazure_module(A2, W11, ("1", "2", "1"))
    for earlier, later in zip(chain.stages, chain.stages[1:]):
        for v in chain.model.rep.quiver.vertices:
            assert subspace_contains(later.basis(v), earlier.basis(v))


def test_first_step_is_the_vertex_socle_line():
    model = injective_hull(A2, W11)
    chain = demazure_module(A2, W11, ("1",))
    assert chain.stages[-1].dims() == {"1": 1, "2": 0}
    soc = socle(model.rep)
    assert subspace_contains(soc.basis("1"), chain.stages[-1].basis("1"))


def test_full_longest_word_fills_the_module():
    for q, w in ((A2, W11), (A3, {"1": 1, "2": 0, "3": 1})):
        chain = demazure_module(q, w, longest_element(q))
        assert chain.stages[-1].dims() == chain.model.rep.dim_vector()


def test_stages_are_nilpotent_with_stable_framed_points():
    chain = demazure_module(A2, W11, ("1", "2", "1"))
    for stage in chain.stages:
        assert is_nilpotent(restrict(chain.model.rep, stage))
        assert framed_point(stage, chain.model).stable


def test_stage_dims_unique_over_small_primes():
    chain = demazure_module(A2, W11, ("1", "2", "1"))
    for stage in chain.stages:
        for p in (2, 3):
            rep_p = reduce_mod(chain.model.rep, p)
            assert count_submodules(rep_p, stage.dims()) == 1


def test_every_extremal_dim_vector_unique_over_f2_f3():
    for q, w, orbit_size in ((A2, W11, 6), (A3, {"1": 1, "2": 1, "3": 1}, 24)):
        orbit = extremal_orbit(q, w)
        assert len(orbit) == orbit_size
        for vec, word in orbit.items():
            target = {v: vec[k] for k, v in enumerate(q.vertices)}
            chain = demazure_module(q, w, word)
            stage = chain.stages[-1]
            assert stage.dims() == target
            for p in (2, 3):
                rep_p = reduce_mod(chain.model.rep, p)
                (point,) = enumerate_submodules(rep_p, target)
                assert reduce_subrep(stage, rep_p).key() == point.key()


def test_extend_step_rejects_non_extremal_dims():
    model = injective_hull(A2, W11)
    soc = socle(model.rep)  # dims (1,1): not in the extremal orbit
    with pytest.raises(NotExtremalError):
        extend_step(model, soc, "1")


def test_extend_step_rejects_shortening_letter():
    chain = demazure_module(A2, W11, ("1", "2", "1"))
    with pytest.raises(NotExtremalError):
        extend_step(chain.model, chain.stages[-1], "1")


def test_extend_step_rejects_foreign_subspace():
    model_a = injective_hull(A2, W11)
    model_b = injective_hull(A2, W11)
    from quivergrass.repmod import zero_subrep

    with pytest.raises(ValidationError):
        extend_step(model_a, zero_subrep(model_b.rep), "1")


@pytest.mark.parametrize("q, word", [(A3, ("2", "1")), (star_quiver(3), ("0", "1"))],
                         ids=["A3-middle", "D4-centre"])
def test_extend_step_eliminates_once_at_a_branching_vertex(monkeypatch, q, word):
    # However many arrows leave the vertex, the step is one stacked preimage:
    # one null space, the elimination behind `kernel` and `preimage` alike.
    chain = demazure_module(q, {v: 1 for v in q.vertices}, word)
    assert len(chain.model.quiver.arrows_from(word[0])) >= 2
    calls = []
    null_space = linalg._null_space
    monkeypatch.setattr(linalg, "_null_space",
                        lambda *args: calls.append(args) or null_space(*args))
    step = extend_step(chain.model, chain.stages[-2], word[0])
    assert len(calls) == 1
    assert step.key() == chain.stages[-1].key()


def test_word_validation():
    with pytest.raises(NotReducedError):
        demazure_module(A2, W11, ("1", "1"))
    with pytest.raises(ValidationError):
        demazure_module(A2, W11, ("7",))


def test_wall_letter_keeps_stage_fixed():
    # Reflecting at a vertex with framing zero moves nothing: the chain
    # repeats the stage instead of growing.
    chain = demazure_module(A2, {"1": 1, "2": 0}, ("2",))
    assert chain.stages[-1].dims() == {"1": 0, "2": 0}


def test_nesting_frozen_and_prefix_cases():
    c_one = demazure_module(A2, W11, ("1",))
    c_two = demazure_module(A2, W11, ("2", "1"))
    assert check_nesting(c_one, c_two)
    full = demazure_module(A2, W11, ("2", "1", "2"))
    assert check_nesting(demazure_module(A2, W11, ("2",)), full)
    assert check_nesting(full, full)


def test_nesting_rejects_incomparable_words():
    c_one = demazure_module(A2, W11, ("1",))
    c_two = demazure_module(A2, W11, ("2",))
    with pytest.raises(NotComparableError):
        check_nesting(c_one, c_two)


def test_nesting_across_equal_models():
    c_one = demazure_module(A2, W11, ("1",))
    c_full = demazure_module(A2, W11, ("1", "2", "1"))
    assert c_one.model.rep is not c_full.model.rep
    assert check_nesting(c_one, c_full)


def test_truncation_too_small_is_reported():
    K = kronecker_quiver()
    with pytest.raises(TruncationTooSmallError) as exc:
        demazure_module(K, {"1": 1, "2": 0}, ("2", "1"), trunc=1)
    assert exc.value.suggested == 2


def test_truncation_miss_is_reported_without_enumerating(monkeypatch):
    # The socle preimage alone decides a miss: no prime-field search runs.
    def refuse(*args, **kwargs):
        raise AssertionError("the Demazure step enumerated submodules")

    monkeypatch.setattr(grassmann, "_leaves", refuse)
    D4 = star_quiver(3)
    w = {v: 1 for v in D4.vertices}
    with pytest.raises(TruncationTooSmallError) as exc:
        demazure_module(D4, w, longest_element(D4), trunc=3)
    assert exc.value.suggested == 6


def test_kronecker_chain_at_default_truncation():
    K = kronecker_quiver()
    chain = demazure_module(K, {"1": 1, "2": 0}, ("2", "1"))
    assert [s.dims() for s in chain.stages] == [
        {"1": 0, "2": 0},
        {"1": 1, "2": 0},
        {"1": 1, "2": 2},
    ]


def test_stabilization_frozen_examples():
    assert stabilization_sigma(A2, {"1": 1, "2": 0}, {"1": 1, "2": 1}, [2, 3]) == (
        "2",
        "1",
    )
    assert stabilization_sigma(A2, {"1": 1, "2": 0}, {}, [2, 3]) == ()
    assert stabilization_sigma(A1, {"1": 2}, {"1": 1}, [2, 3]) == ("1",)


def test_stabilized_counts_match_the_full_module():
    word = stabilization_sigma(A2, {"1": 1, "2": 0}, {"1": 1, "2": 1}, [2, 3])
    chain = demazure_module(A2, {"1": 1, "2": 0}, word)
    stage = restrict(chain.model.rep, chain.stages[-1])
    for p in (2, 3):
        full_count = count_submodules(reduce_mod(chain.model.rep, p), {"1": 1, "2": 1})
        assert count_submodules(reduce_mod(stage, p), {"1": 1, "2": 1}) == full_count


def test_stabilization_bfs_branch_on_affine_quiver():
    K = kronecker_quiver()
    word = stabilization_sigma(K, {"1": 1, "2": 0}, {"1": 1, "2": 0}, [2], max_len=4)
    assert word == ("1",)


@pytest.mark.parametrize("v", [{"1": 1, "2": 1}, {"1": 2, "2": 1}], ids=["11", "21"])
def test_a_stable_kronecker_stage_has_the_hull_counts(v):
    K = kronecker_quiver()
    w = {"1": 1, "2": 0}
    word = stabilization_sigma(K, w, v, [2, 3])
    chain = demazure_module(K, w, word)
    stage = restrict(chain.model.rep, chain.stages[-1])
    for p in (2, 3):
        assert count_submodules(reduce_mod(stage, p), v) == grassmann.hull_count(K, w, v, p)


def _no_orbit(*args):
    raise AssertionError("an orbit was built")


def test_extend_step_builds_no_orbit(monkeypatch):
    monkeypatch.setattr(weyl, "_orbit", _no_orbit)
    chain = demazure_module(A3, {"1": 1, "2": 1, "3": 1}, ("1", "2", "1", "3", "2", "1"))
    assert chain.stages[-1].dims() == {"1": 3, "2": 4, "3": 3}


def test_a_wild_chain_is_walked_without_its_orbit(monkeypatch):
    # The orbit of a wild framing is infinite; a step must not enumerate it.
    monkeypatch.setattr(weyl, "_orbit", _no_orbit)
    chain = demazure_module(WILD, {"1": 1, "2": 0, "3": 0}, ("2", "1"))
    assert chain.stages[-1].dims() == {"1": 1, "2": 2, "3": 0}


def test_stabilization_validates_primes():
    with pytest.raises(ValidationError):
        stabilization_sigma(A1, {"1": 2}, {"1": 1}, [4])
    with pytest.raises(ValidationError):
        stabilization_sigma(A1, {"1": 2}, {"1": 1}, [])


def test_chain_fields_are_recorded():
    word = ("1", "2", "1")
    chain = demazure_module(A2, W11, word)
    assert isinstance(chain, DemazureChain)
    assert chain.word == word
    assert len(chain.stages) == len(chain.dim_targets) == 4
