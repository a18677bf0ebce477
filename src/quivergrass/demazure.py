"""Chains of extremal submodules inside a truncated injective hull.

Each chain stage is the unique submodule whose dimension vector is the dot
action of a word prefix on zero.  A stage extends to the next by taking the
preimage of the vertex-i socle of the quotient — the largest submodule whose
quotient by the current stage is a sum of vertex-i simples — and certifying
the result by an exact dimension match.

The socle preimage is the only construction.  In the full hull it is the
target stage itself, the unique submodule of its extremal dimension vector.
A truncated hull is a submodule of the full hull, so its socle preimage lies
inside the full one; any submodule of the target dimensions that contains the
current stage lies inside the truncated preimage and so, by dimension, equals
the full one.  When the truncated preimage misses the target dimensions, no
such submodule exists in the truncation, and `demazure_module` reports
`TruncationTooSmallError`.

Extremality is read off the weight, with no orbit built
(`weyl._is_extremal`); the orbit walk `_extremal_points` gives the point at
each extremal weight.  A submodule of a stage is one of every larger stage
and of the model, so stage counts grow with the stage up to the model's, and
`stabilization_sigma` calls a stage stable when its counts equal the model's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    NotComparableError,
    NotExtremalError,
    SearchExhaustedError,
    TruncationTooSmallError,
    ValidationError,
)
from .grassmann import _CountSetup, _check_primes, _hull, _hull_key
from .hull import InjectiveModel
from .linalg import subspace_contains
from .quiver import Quiver, _check_dim_vector, cartan_matrix
from .repmod import Subrep, _mapped_into, make_subrep, restrict, zero_subrep
from .weyl import (
    _is_extremal,
    _orbit,
    _tup,
    act,
    bruhat_leq,
    dot_step,
    longest_element,
    require_reduced,
    zero_vector,
)


class DemazureChain(NamedTuple):
    """A word together with the nested submodule stage per suffix length."""

    model: InjectiveModel
    word: tuple
    stages: tuple
    dim_targets: tuple


def _as_word(q: Quiver, word) -> tuple:
    out = tuple(str(x) for x in word)
    for letter in out:
        if letter not in q.vertices:
            raise ValidationError(f"unknown vertex {letter!r} in word")
    return out


def extend_step(model: InjectiveModel, u: Subrep, i: str) -> Subrep:
    """Extend an extremal stage by the vertex-i socle of the quotient."""
    if u.ambient is not model.rep:
        raise ValidationError("the stage must be a subspace of the model's module")
    base = model.base
    if i not in base.vertices:
        raise ValidationError(f"unknown vertex {i!r}")
    cur = u.dims()
    if not _is_extremal(base, model.w, cur):
        raise NotExtremalError(f"dims {cur} are not extremal for this framing")
    target = dot_step(base, i, model.w, cur)
    if target[i] < cur[i]:
        raise NotExtremalError(
            f"reflecting at vertex {i!r} shortens the element at dims {cur}"
        )
    rep = model.rep
    new_bases = dict(u.bases)
    new_bases[i] = _mapped_into(rep, u.bases, i)
    cand = make_subrep(rep, new_bases)
    if cand.dims() == target:
        return cand
    raise DimensionMismatchError(
        f"socle extension at vertex {i!r} gives dims {cand.dims()}, expected {target}"
    )


def _walk(model: InjectiveModel, word: tuple) -> DemazureChain:
    """The chain of a checked reduced word in `model`, last letter first."""
    stages = [zero_subrep(model.rep)]
    targets = [zero_vector(model.base)]
    length = len(word)
    for k in range(1, length + 1):
        letter = word[length - k]
        try:
            nxt = extend_step(model, stages[-1], letter)
        except DimensionMismatchError:
            if not model.full:
                raise TruncationTooSmallError(
                    "stage dims missed the target; the truncation is likely too small",
                    suggested=2 * model.trunc,
                )
            raise
        expected = act(model.base, word[length - k :], model.w, zero_vector(model.base))
        if nxt.dims() != expected:
            raise DimensionMismatchError(
                f"stage {k} dims {nxt.dims()} differ from the target {expected}"
            )
        for v in model.rep.quiver.vertices:
            if not subspace_contains(nxt.basis(v), stages[-1].basis(v)):
                raise InternalCheckError(
                    f"stage {k} does not contain stage {k - 1} at vertex {v!r}"
                )
        stages.append(nxt)
        targets.append(expected)
    return DemazureChain(
        model=model,
        word=word,
        stages=tuple(stages),
        dim_targets=tuple(targets),
    )


def _extremal_points(model: InjectiveModel, length_cap: int | None):
    """The unique submodule at each extremal weight, by one walk of the orbit.

    Yields (dims tuple, shortest word, point) in shortest-word order, for
    words up to `length_cap` (all of them when None).  A shortest word is
    one letter plus its parent's word, so each point is one `extend_step`
    from its parent's point.  A weight whose step misses its dimensions, or
    whose parent has no point, gets none.
    """
    base = model.base
    points = {(): zero_subrep(model.rep)}
    for vt, word in _orbit(base, _tup(base, model.w), length_cap):
        if word and word[1:] in points:
            try:
                points[word] = extend_step(model, points[word[1:]], word[0])
            except DimensionMismatchError:
                continue
        if word in points:
            yield vt, word, points[word]


def demazure_module(
    q: Quiver, w: dict, word, trunc: int | None = None
) -> DemazureChain:
    """Build the submodule chain along a reduced word, last letter first,
    in the key's shared hull (`grassmann._hull`)."""
    base_word = _as_word(q, word)
    require_reduced(q, base_word)
    return _walk(_hull(*_hull_key(q, w, trunc))[0], base_word)


def check_nesting(chain1: DemazureChain, chain2: DemazureChain) -> bool:
    """Final stage of the lower chain sits inside that of the higher chain."""
    q = chain1.model.base
    if not bruhat_leq(q, chain1.word, chain2.word):
        raise NotComparableError(
            "the first word is not at or below the second in Bruhat order"
        )
    r1, r2 = chain1.model.rep, chain2.model.rep
    if r1 is not r2:
        same = (
            tuple(r1.quiver.vertices) == tuple(r2.quiver.vertices)
            and r1.dim_vector() == r2.dim_vector()
            and all(r1.map(a.name) == r2.map(a.name) for a in r1.quiver.arrows)
        )
        if not same:
            raise ValidationError("chains live in different ambient modules")
    s1 = chain1.stages[-1]
    s2 = chain2.stages[-1]
    return all(
        subspace_contains(s2.basis(v), s1.basis(v)) for v in r1.quiver.vertices
    )


def _stage_counts(stage: Subrep, target: dict, primes, cap) -> tuple:
    """The stage's submodule counts at a checked target, one per prime."""
    setup = _CountSetup(restrict(stage.ambient, stage))
    return tuple(setup.count(p, target, cap) for p in primes)


def stabilization_sigma(
    q: Quiver,
    w: dict,
    v: dict,
    primes,
    trunc: int | None = None,
    cap: int | None = None,
    max_len: int = 8,
) -> tuple:
    """Shortest word whose stage already has every point of Gr_v of the model.

    A stage is stable when its counts equal the model's at every test prime.
    In finite type the candidates are the stages of one walk along a fixed
    reduced word for the longest element, shortest trailing segment first;
    the last of them is the model.  Otherwise they are the extremal points
    in shortest-word order, for words of length at most `max_len`; a point
    past the truncation is skipped.
    """
    plist = _check_primes(primes)
    target = _check_dim_vector(q, v)
    model, setup = _hull(*_hull_key(q, w, trunc))
    stable = tuple(setup.count(p, target, cap) for p in plist)
    if cartan_matrix(q).kind == "finite":
        word0 = longest_element(q)
        stages = _walk(model, word0).stages
        candidates = ((word0[len(word0) - k :], s) for k, s in enumerate(stages))
    else:
        candidates = ((word, s) for _, word, s in _extremal_points(model, max_len))
    for word, stage in candidates:
        if _stage_counts(stage, target, plist, cap) == stable:
            return word
    raise SearchExhaustedError(
        f"no stage among words of length <= {max_len} within truncation "
        f"{model.trunc} has the model's counts"
    )
