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
from .grassmann import _CountSetup, _check_primes
from .hull import InjectiveModel, injective_hull
from .linalg import subspace_contains
from .quiver import Quiver, _check_dim_vector, cartan_matrix
from .repmod import Subrep, _mapped_into, make_subrep, restrict, zero_subrep
from .weyl import (
    act,
    dot_step,
    extremal_orbit,
    is_reduced,
    longest_element,
    require_reduced,
    word_matrix,
    zero_vector,
    bruhat_leq,
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
    orbit = extremal_orbit(base, model.w)
    cur_tuple = tuple(cur[v] for v in base.vertices)
    if cur_tuple not in orbit:
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


def demazure_module(
    q: Quiver, w: dict, word, trunc: int | None = None
) -> DemazureChain:
    """Build the submodule chain along a reduced word, last letter first."""
    base_word = _as_word(q, word)
    require_reduced(q, base_word)
    return _walk(injective_hull(q, w, trunc), base_word)


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


def _stage_counts(stage: Subrep, v: dict, primes, cap) -> tuple:
    target = _check_dim_vector(stage.ambient.quiver, v)
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
    """Shortest word whose stage already carries the stable submodule counts.

    In finite type the search walks a fixed reduced word for the longest
    element: the returned word is the shortest trailing segment whose counts
    (at every test prime) match all later stages and every reduced one-letter
    extension.  Otherwise a breadth-first search over reduced words applies
    the one-letter-extension criterion up to a length cap.
    """
    plist = _check_primes(primes)
    kind = cartan_matrix(q).kind
    model = injective_hull(q, w, trunc)
    if kind == "finite":
        word0 = longest_element(q)
        chain = _walk(model, word0)
        length = len(word0)
        counts = [
            _stage_counts(chain.stages[k], v, plist, cap)
            for k in range(length + 1)
        ]
        for k in range(length + 1):
            if any(counts[k2] != counts[k] for k2 in range(k + 1, length + 1)):
                continue
            suffix = word0[length - k :]
            ok = True
            for letter in q.vertices:
                extended = suffix + (letter,)
                if not is_reduced(q, extended):
                    continue
                ext_chain = _walk(model, extended)
                ext_counts = _stage_counts(ext_chain.stages[-1], v, plist, cap)
                if ext_counts != counts[k]:
                    ok = False
                    break
            if ok:
                return suffix
        return word0
    # Breadth-first over reduced words, deduplicated by the reflection matrix.
    frontier = [()]
    seen = {word_matrix(q, ())}
    cache: dict = {}

    def word_counts(word: tuple) -> tuple:
        key = word_matrix(q, word)
        if key not in cache:
            cache[key] = _stage_counts(_walk(model, word).stages[-1], v, plist, cap)
        return cache[key]

    while frontier:
        nxt = []
        for word in frontier:
            base_counts = word_counts(word)
            stable = True
            for letter in q.vertices:
                extended = word + (letter,)
                if not is_reduced(q, extended):
                    continue
                if word_counts(extended) != base_counts:
                    stable = False
            if stable:
                return word
            if len(word) < max_len:
                for letter in q.vertices:
                    extended = word + (letter,)
                    if not is_reduced(q, extended):
                        continue
                    key = word_matrix(q, extended)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(extended)
        frontier = nxt
    raise SearchExhaustedError(
        f"no stabilization point found among reduced words of length <= {max_len}"
    )
