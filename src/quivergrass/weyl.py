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
from .quiver import Quiver, cartan_matrix, require_finite_type

_ORBIT_DEFAULT_CAP = 64


def _cartan(q: Quiver):
    return cartan_matrix(q).matrix


def _tup(q: Quiver, v) -> tuple:
    if isinstance(v, dict):
        return tuple(int(v.get(x, 0)) for x in q.vertices)
    return tuple(int(x) for x in v)


def _dict(q: Quiver, t) -> dict:
    return {x: int(n) for x, n in zip(q.vertices, t)}


def zero_vector(q: Quiver) -> dict:
    return {x: 0 for x in q.vertices}


def dot_step(q: Quiver, i: str, w, v) -> dict:
    """One simple reflection of the dot action on dimension vectors."""
    c = _cartan(q)
    wt = _tup(q, w)
    vt = _tup(q, v)
    k = q.vindex(i)
    coeff = wt[k] - sum(c[k][j] * vt[j] for j in range(len(vt)))
    out = list(vt)
    out[k] += coeff
    return _dict(q, out)


def act(q: Quiver, word, w, v) -> dict:
    """Apply a word right to left to a dimension vector."""
    cur = _dict(q, _tup(q, v))
    for i in reversed(list(word)):
        if i not in q.vertices:
            raise ValidationError(f"unknown vertex {i!r} in word")
        cur = dot_step(q, i, w, cur)
    return cur


def extremal_orbit(q: Quiver, w, length_cap: int | None = None) -> dict:
    """BFS orbit of zero under the dot action: vector tuple -> shortest word."""
    if length_cap is None:
        if cartan_matrix(q).kind != "finite":
            length_cap = _ORBIT_DEFAULT_CAP
        else:
            length_cap = None
    start = tuple(0 for _ in q.vertices)
    found: dict[tuple, tuple] = {start: ()}
    frontier = [start]
    depth = 0
    while frontier and (length_cap is None or depth < length_cap):
        depth += 1
        nxt = []
        for vt in frontier:
            for i in q.vertices:
                out = _tup(q, dot_step(q, i, w, vt))
                if out not in found:
                    found[out] = (i,) + found[vt]
                    nxt.append(out)
        frontier = nxt
    return found


def orbit_maximum(q: Quiver, w) -> dict:
    """The coordinatewise-largest extremal vector (finite type)."""
    require_finite_type(q)
    return act(q, longest_element(q), w, zero_vector(q))


# -- reflection matrices on root coordinates ---------------------------------

def _reflection(q: Quiver, i: str) -> tuple:
    c = _cartan(q)
    n = len(q.vertices)
    k = q.vindex(i)
    return tuple(
        tuple((1 if r == j else 0) - (c[k][j] if r == k else 0) for j in range(n))
        for r in range(n)
    )


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def word_matrix(q: Quiver, word) -> tuple:
    """Integer matrix of the word's action on root coordinates."""
    n = len(q.vertices)
    m = _identity(n)
    for i in word:
        m = _matmul(m, _reflection(q, i))
    return m


def _column(m, j):
    return tuple(row[j] for row in m)


def is_reduced(q: Quiver, word) -> bool:
    """Positivity test: each prepended letter must increase the length."""
    n = len(q.vertices)
    minv = _identity(n)
    for i in reversed(list(word)):
        if i not in q.vertices:
            raise ValidationError(f"unknown vertex {i!r} in word")
        col = _column(minv, q.vindex(i))
        if not (any(col) and all(x >= 0 for x in col)):
            return False
        minv = _matmul(minv, _reflection(q, i))
    return True


def require_reduced(q: Quiver, word) -> None:
    if not is_reduced(q, word):
        raise NotReducedError(f"word {list(word)!r} is not reduced")


def left_multiply(q: Quiver, j: str, word: tuple) -> tuple:
    """Reduced word for s_j times the (reduced) given word."""
    n = len(q.vertices)
    minv = _identity(n)
    for i in reversed(word):
        minv = _matmul(minv, _reflection(q, i))
    col = _column(minv, q.vindex(j))
    if any(col) and all(x >= 0 for x in col):
        return (j,) + tuple(word)
    # length drops: delete the letter whose prefix-transported root is alpha_j
    target = tuple(1 if k == q.vindex(j) else 0 for k in range(n))
    prefix = _identity(n)
    for t, letter in enumerate(word):
        if _column(prefix, q.vindex(letter)) == target:
            return tuple(word[:t]) + tuple(word[t + 1 :])
        prefix = _matmul(prefix, _reflection(q, letter))
    raise NotReducedError(f"word {list(word)!r} is not reduced")


def reduce_word(q: Quiver, word) -> tuple:
    """A reduced word for the same element, by folding letters from the right."""
    out: tuple = ()
    for i in reversed(list(word)):
        out = left_multiply(q, i, out)
    return out


def word_length(q: Quiver, word) -> int:
    return len(reduce_word(q, word))


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
    """Root coordinates of the positive roots, by increasing height."""
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
    return sorted(seen, key=lambda x: (sum(x), x))


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
