"""Weyl-group words acting on graded dimension vectors.

A word is a sequence of vertex ids naming simple reflections, applied
right to left (the last entry acts first). The action transported to
dimension vectors sends v to v + (w - Cv)_i at the reflected vertex, where
w is the framing vector and C the Cartan matrix; the orbit of the zero
vector consists of the extremal dimension vectors.

A Weyl-group element u is its vector v_u on the regular orbit, the orbit of
zero under the framing rho = all ones, on which W acts simply transitively.
The weight rho - C·v_u is u·rho, so s_k u is longer than u exactly when the
pairing rho_k - (C·v_u)_k is positive: reduced words, Bruhat order and the
diagram involution are all read off dot steps, for any symmetric Cartan
matrix (Kac, *Infinite dimensional Lie algebras*, ch. 3).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotReducedError, ValidationError
from .quiver import Quiver, _check_dim_vector, cartan_matrix, require_finite_type

_ORBIT_DEFAULT_CAP = 64


def _cartan(q: Quiver):
    return cartan_matrix(q).matrix


def _tup(q: Quiver, v) -> tuple:
    """v in vertex order, checked by `_check_dim_vector`: a dict, or a
    sequence with one entry per vertex."""
    if not isinstance(v, dict):
        v = tuple(v)
        if len(v) != len(q.vertices):
            raise ValidationError(
                f"expected {len(q.vertices)} entries, one per vertex, got {len(v)}"
            )
        v = dict(zip(q.vertices, v))
    return tuple(_check_dim_vector(q, v).values())


def _dict(q: Quiver, t) -> dict:
    return {x: int(n) for x, n in zip(q.vertices, t)}


def zero_vector(q: Quiver) -> dict:
    return {x: 0 for x in q.vertices}


def _step(q: Quiver, i: str, wt: tuple, vt: tuple) -> tuple:
    """The dot reflection at i of vt under wt, on vertex-ordered tuples."""
    c, k = _cartan(q), q.vindex(i)
    out = list(vt)
    out[k] += wt[k] - sum(c[k][j] * vt[j] for j in range(len(vt)))
    return tuple(out)


def dot_step(q: Quiver, i: str, w, v) -> dict:
    """One simple reflection of the dot action on dimension vectors."""
    return _dict(q, _step(q, i, _tup(q, w), _tup(q, v)))


def act(q: Quiver, word, w, v) -> dict:
    """Apply a word right to left to a dimension vector."""
    return _dict(q, _act(q, word, _tup(q, w), _tup(q, v)))


def _act(q: Quiver, word, wt: tuple, vt: tuple) -> tuple:
    """`act` on vertex-ordered tuples."""
    for i in reversed(list(word)):
        if i not in q.vertices:
            raise ValidationError(f"unknown vertex {i!r} in word")
        vt = _step(q, i, wt, vt)
    return vt


def extremal_orbit(q: Quiver, w) -> dict:
    """BFS orbit of zero under the dot action: vector tuple -> shortest word.

    The orbit is complete in finite type; otherwise the search stops at
    words of length `_ORBIT_DEFAULT_CAP`. Each call returns a fresh dict,
    copied from `_orbit`'s bounded cache.
    """
    length_cap = None if cartan_matrix(q).kind == "finite" else _ORBIT_DEFAULT_CAP
    return dict(_orbit(q, _tup(q, w), length_cap))


@lru_cache(maxsize=256)
def _orbit(q: Quiver, wt: tuple, length_cap: int | None) -> tuple:
    """The orbit of extremal_orbit as (vector, word) pairs, in BFS order.

    Bounded so a long-lived process keeps at most 256 orbits; an evicted
    orbit is recomputed on demand with the same pairs.
    """
    start = tuple(0 for _ in q.vertices)
    found: dict[tuple, tuple] = {start: ()}
    frontier = [start]
    depth = 0
    while frontier and (length_cap is None or depth < length_cap):
        depth += 1
        nxt = []
        for vt in frontier:
            for i in q.vertices:
                out = _step(q, i, wt, vt)
                if out not in found:
                    found[out] = (i,) + found[vt]
                    nxt.append(out)
        frontier = nxt
    return tuple(found.items())


def _is_extremal(q: Quiver, w, v) -> bool:
    """Whether v lies in the orbit of zero, with no orbit built.

    The weight w - Cv lies in W·w exactly when reflecting it toward the
    dominant chamber reaches w (Kac, *Infinite dimensional Lie algebras*,
    ch. 3). Each reflection at a vertex of negative pairing lowers v there,
    so the walk ends: at zero, at a negative entry, or at a dominant weight
    other than w.
    """
    wt, vt = _tup(q, w), _tup(q, v)
    c = _cartan(q)
    n = len(vt)
    while any(vt):
        if min(vt) < 0:
            return False
        for k in range(n):
            pairing = wt[k] - sum(c[k][j] * vt[j] for j in range(n))
            if pairing < 0:
                vt = vt[:k] + (vt[k] + pairing,) + vt[k + 1 :]
                break
        else:
            return False
    return True


def orbit_maximum(q: Quiver, w) -> dict:
    """The coordinatewise-largest extremal vector (finite type)."""
    require_finite_type(q)
    return act(q, longest_element(q), w, zero_vector(q))


# -- the regular orbit: one vector per Weyl-group element --------------------

def _regular_step(q: Quiver, i: str, vt: tuple) -> tuple[int, tuple]:
    """The dot step at i under the framing rho = all ones, and the pairing
    rho_i - (C·vt)_i it adds at i: positive exactly when s_i lengthens the
    element whose vector is vt."""
    out = _step(q, i, (1,) * len(vt), vt)
    k = q.vindex(i)
    return out[k] - vt[k], out


def is_reduced(q: Quiver, word) -> bool:
    """Each letter, applied right to left, must lengthen the element so far."""
    vt = (0,) * len(q.vertices)
    for i in reversed(list(word)):
        if i not in q.vertices:
            raise ValidationError(f"unknown vertex {i!r} in word")
        pairing, vt = _regular_step(q, i, vt)
        if pairing <= 0:
            return False
    return True


def require_reduced(q: Quiver, word) -> None:
    if not is_reduced(q, word):
        raise NotReducedError(f"word {list(word)!r} is not reduced")


def bruhat_leq(q: Quiver, u, v) -> bool:
    """Bruhat order: u at or below v; v must be reduced, u need not be.

    The lifting property (Björner–Brenti, §2.2): with v = s_j v', u <= v
    exactly when s_j u <= v' if s_j shortens u, and u <= v' otherwise.  So
    scan v left to right, step u's vector wherever the pairing is negative,
    and ask whether u has become the identity.
    """
    v = tuple(v)
    require_reduced(q, v)
    n = len(q.vertices)
    ut = _act(q, u, (1,) * n, (0,) * n)
    for j in v:
        pairing, nxt = _regular_step(q, j, ut)
        if pairing < 0:
            ut = nxt
    return not any(ut)


def longest_element(q: Quiver) -> tuple:
    """A reduced word for w0: every element lies below it, so stepping at the
    first vertex of positive pairing until none is left ends there, along
    w0's least reduced word (letters in acting order, ranked by `q.vertices`)."""
    require_finite_type(q)
    vt, word = (0,) * len(q.vertices), ()
    while True:
        for i in q.vertices:
            pairing, nxt = _regular_step(q, i, vt)
            if pairing > 0:
                vt, word = nxt, (i,) + word
                break
        else:
            return word


def diagram_involution(q: Quiver) -> dict:
    """The vertex permutation theta with w0·ϖ_j = -ϖ_theta(j).

    The weight of w0 at ϖ_j is e_j - C·v, with v the dot action of the
    longest word on zero under the framing e_j.
    """
    require_finite_type(q)
    top = longest_element(q)
    c = _cartan(q)
    n = len(q.vertices)
    out = {}
    for j, x in enumerate(q.vertices):
        ej = tuple(int(k == j) for k in range(n))
        vt = _act(q, top, ej, (0,) * n)
        weight = [ej[r] - sum(c[r][k] * vt[k] for k in range(n)) for r in range(n)]
        hits = [r for r, val in enumerate(weight) if val]
        if len(hits) != 1 or weight[hits[0]] != -1:
            raise ValidationError("longest element does not negate the fundamental weights")
        out[x] = q.vertices[hits[0]]
    return out


def apply_involution(q: Quiver, perm: dict, w) -> dict:
    wt = _dict(q, _tup(q, w))
    return {perm[x]: wt[x] for x in q.vertices}


# -- weight multiplicities ----------------------------------------------------

def positive_roots(q: Quiver) -> list:
    """Root coordinates of the positive roots, by increasing height.

    Each call returns a fresh list, copied from `_roots`' bounded cache.
    """
    return list(_roots(q))


@lru_cache(maxsize=256)
def _roots(q: Quiver) -> tuple:
    """The roots of positive_roots as a tuple.

    Bounded so a long-lived process keeps the roots of at most 256 quivers;
    evicted roots are recomputed on demand in the same order.
    """
    require_finite_type(q)
    n = len(q.vertices)
    simples = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    c = _cartan(q)
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for x in frontier:
            for k in range(n):
                coeff = sum(c[k][j] * x[j] for j in range(n))
                y = list(x)
                y[k] -= coeff
                y = tuple(y)
                if all(e >= 0 for e in y) and any(y) and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen, key=lambda x: (sum(x), x)))


@lru_cache(maxsize=256)
def _mult_table(q: Quiver, wt: tuple) -> dict:
    """The memo of weight_multiplicity for one quiver and highest weight.

    Bounded so a long-lived process keeps at most 256 tables; an evicted
    table is refilled on demand with the same values.
    """
    return {}


def weight_multiplicity(q: Quiver, w, v) -> int:
    """Multiplicity of the weight at depth v below the highest weight w.

    Exact Freudenthal recursion; zero for vectors outside the weight hull.
    """
    require_finite_type(q)
    wt = _tup(q, w)
    vt = _tup(q, v)
    table = _mult_table(q, wt)
    c = _cartan(q)
    n = len(wt)
    roots = positive_roots(q)

    def pair_c(x, y):
        return sum(x[i] * c[i][j] * y[j] for i in range(n) for j in range(n))

    def mult(vv: tuple) -> int:
        if any(e < 0 for e in vv):
            return 0
        if not any(vv):
            return 1
        if vv in table:
            return table[vv]
        denom = 2 * sum((wt[i] + 1) * vv[i] for i in range(n)) - pair_c(vv, vv)
        if denom <= 0:
            table[vv] = 0
            return 0
        rhs = 0
        for alpha in roots:
            k = 1
            while True:
                nxt = tuple(vv[i] - k * alpha[i] for i in range(n))
                if any(e < 0 for e in nxt):
                    break
                m = mult(nxt)
                if m:
                    pairing = (
                        sum(wt[i] * alpha[i] for i in range(n))
                        - pair_c(nxt, alpha)
                    )
                    rhs += pairing * m
                k += 1
        num = 2 * rhs
        if num % denom:
            raise ValidationError("non-integer multiplicity: inconsistent input")
        table[vv] = num // denom
        return table[vv]

    return mult(vt)


def weight_census(q: Quiver, w) -> dict:
    """All depth vectors with nonzero multiplicity, boxed by the lowest weight."""
    require_finite_type(q)
    vmax = _tup(q, orbit_maximum(q, w))
    out = {}

    def rec(prefix):
        if len(prefix) == len(vmax):
            m = weight_multiplicity(q, w, prefix)
            if m:
                out[tuple(prefix)] = m
            return
        for x in range(vmax[len(prefix)] + 1):
            rec(prefix + (x,))

    rec(())
    return out
