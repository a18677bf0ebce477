"""Weyl-group words acting on graded dimension vectors.

A word is a sequence of vertex ids naming simple reflections, applied
right to left (the last entry acts first). The action transported to
dimension vectors sends v to v + (w - Cv)_i at the reflected vertex, where
w is the framing vector and C the Cartan matrix; the orbit of the zero
vector consists of the extremal dimension vectors.

Reflections on root-lattice coordinates are kept as exact integer matrices;
word reduction and Bruhat order use the positivity criterion (prepending
s_j increases length exactly when the inverse sends the j-th simple root to
a positive vector).
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
    wt, cur = _tup(q, w), _tup(q, v)
    for i in reversed(list(word)):
        if i not in q.vertices:
            raise ValidationError(f"unknown vertex {i!r} in word")
        cur = _step(q, i, wt, cur)
    return _dict(q, cur)


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


# -- exact integer matrices as tuples of row tuples ---------------------------

def _int_mul(a, b) -> tuple:
    width = len(b[0]) if b else 0
    out = []
    for ar in a:
        row = [0] * width
        for x, bt in zip(ar, b):
            if x:
                for c in range(width):
                    row[c] += x * bt[c]
        out.append(tuple(row))
    return tuple(out)


def _int_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _int_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _int_identity(n: int, scale: int = 1) -> tuple:
    return tuple(tuple(scale if r == c else 0 for c in range(n)) for r in range(n))


# -- reflection matrices on root coordinates ---------------------------------

def _reflection(q: Quiver, i: str) -> tuple:
    c = _cartan(q)
    n = len(q.vertices)
    k = q.vindex(i)
    return tuple(
        tuple((1 if r == j else 0) - (c[k][j] if r == k else 0) for j in range(n))
        for r in range(n)
    )


def word_matrix(q: Quiver, word) -> tuple:
    """Integer matrix of the word's action on root coordinates."""
    n = len(q.vertices)
    m = _int_identity(n)
    for i in word:
        m = _int_mul(m, _reflection(q, i))
    return m


def _column(m, j):
    return tuple(row[j] for row in m)


def is_reduced(q: Quiver, word) -> bool:
    """Positivity test: each prepended letter must increase the length."""
    n = len(q.vertices)
    minv = _int_identity(n)
    for i in reversed(list(word)):
        if i not in q.vertices:
            raise ValidationError(f"unknown vertex {i!r} in word")
        col = _column(minv, q.vindex(i))
        if not (any(col) and all(x >= 0 for x in col)):
            return False
        minv = _int_mul(minv, _reflection(q, i))
    return True


def require_reduced(q: Quiver, word) -> None:
    if not is_reduced(q, word):
        raise NotReducedError(f"word {list(word)!r} is not reduced")


def left_multiply(q: Quiver, j: str, word: tuple) -> tuple:
    """Reduced word for s_j times the (reduced) given word."""
    n = len(q.vertices)
    minv = _int_identity(n)
    for i in reversed(word):
        minv = _int_mul(minv, _reflection(q, i))
    col = _column(minv, q.vindex(j))
    if any(col) and all(x >= 0 for x in col):
        return (j,) + tuple(word)
    # length drops: delete the letter whose prefix-transported root is alpha_j
    target = tuple(1 if k == q.vindex(j) else 0 for k in range(n))
    prefix = _int_identity(n)
    for t, letter in enumerate(word):
        if _column(prefix, q.vindex(letter)) == target:
            return tuple(word[:t]) + tuple(word[t + 1 :])
        prefix = _int_mul(prefix, _reflection(q, letter))
    raise NotReducedError(f"word {list(word)!r} is not reduced")


def reduce_word(q: Quiver, word) -> tuple:
    """A reduced word for the same element, by folding letters from the right."""
    out: tuple = ()
    for i in reversed(list(word)):
        out = left_multiply(q, i, out)
    return out


def bruhat_leq(q: Quiver, u, v) -> bool:
    """Bruhat order: u at or below v; v must be reduced."""
    v = tuple(v)
    require_reduced(q, v)
    u = reduce_word(q, u)
    while True:
        if not u:
            return True
        if not v:
            return False
        j, v = v[0], v[1:]
        su = left_multiply(q, j, u)
        if len(su) < len(u):
            u = su


def longest_element(q: Quiver) -> tuple:
    """A reduced word for the longest element, via the regular orbit."""
    require_finite_type(q)
    w = {x: 1 for x in q.vertices}
    orbit = extremal_orbit(q, w)
    best = max(orbit.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return best[1]


def diagram_involution(q: Quiver) -> dict:
    """The vertex permutation of the negated longest-element action."""
    require_finite_type(q)
    m = word_matrix(q, longest_element(q))
    out = {}
    for j, x in enumerate(q.vertices):
        col = _column(m, j)
        hits = [r for r, val in enumerate(col) if val != 0]
        if len(hits) != 1 or col[hits[0]] != -1:
            raise ValidationError("longest element does not negate the simple roots")
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
