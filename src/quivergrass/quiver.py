"""Finite loop-free quivers, doubling, and symmetric Cartan classification.

Vertices are arbitrary string ids carrying the total order in which they were
given; every dimension vector in the library is a tuple aligned with that
order. Doubling adds one reversed arrow per arrow, named with a trailing "*",
and records the bar involution together with the original (unbarred) half.
The Cartan matrix is 2I minus the adjacency count of the underlying graph,
where a bar pair of arrows counts as a single underlying edge.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    AlreadyDoubledError,
    DanglingEndpointError,
    DuplicateNameError,
    LoopArrowError,
    NotFiniteTypeError,
    ValidationError,
)


class Arrow(NamedTuple):
    name: str
    src: str
    dst: str


class Quiver(NamedTuple):
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    bar: tuple[tuple[str, str], ...] = ()
    base: tuple[str, ...] = ()

    def vindex(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValidationError(f"unknown vertex {v!r}") from None

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise ValidationError(f"unknown arrow {name!r}")

    def arrows_from(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.src == v)

    def arrows_into(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.dst == v)

    @property
    def is_double(self) -> bool:
        return bool(self.bar)

    def bar_of(self, name: str) -> str:
        for x, y in self.bar:
            if x == name:
                return y
        raise ValidationError(f"arrow {name!r} has no bar partner")

    def sign(self, name: str) -> int:
        """+1 on the original half of a double quiver, -1 on the barred half."""
        if name in self.base:
            return 1
        self.arrow(name)
        return -1


def build_quiver(vertices, arrows) -> Quiver:
    """Validate and freeze a quiver given vertex ids and (name, src, dst) triples."""
    vs = tuple(str(v) for v in vertices)
    if len(set(vs)) != len(vs):
        raise DuplicateNameError("duplicate vertex id")
    built = []
    seen = set()
    for name, src, dst in arrows:
        name, src, dst = str(name), str(src), str(dst)
        if name in seen:
            raise DuplicateNameError(f"duplicate arrow name {name!r}")
        seen.add(name)
        if src not in vs or dst not in vs:
            raise DanglingEndpointError(f"arrow {name!r} endpoint not a vertex")
        if src == dst:
            raise LoopArrowError(f"arrow {name!r} is a loop at {src!r}")
        built.append(Arrow(name, src, dst))
    return Quiver(vs, tuple(built))


def double(q: Quiver) -> Quiver:
    """Add a reversed arrow a* per arrow a, with the bar involution recorded."""
    if q.is_double:
        raise AlreadyDoubledError("quiver already carries a bar involution")
    names = {a.name for a in q.arrows}
    arrows = list(q.arrows)
    bar = []
    for a in q.arrows:
        rname = a.name + "*"
        if rname in names:
            raise DuplicateNameError(f"reversed name {rname!r} collides")
        names.add(rname)
        arrows.append(Arrow(rname, a.dst, a.src))
        bar.append((a.name, rname))
        bar.append((rname, a.name))
    return Quiver(
        q.vertices,
        tuple(arrows),
        tuple(bar),
        tuple(a.name for a in q.arrows),
    )


def underlying_edges(q: Quiver) -> dict[tuple[str, str], int]:
    """Edge multiplicities of the underlying graph, bar pairs counted once."""
    arrows = q.arrows
    if q.is_double:
        arrows = tuple(a for a in q.arrows if a.name in q.base)
    out: dict[tuple[str, str], int] = {}
    for a in arrows:
        key = tuple(sorted((a.src, a.dst)))
        out[key] = out.get(key, 0) + 1
    return out


class CartanData(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]
    kind: str  # "finite" | "affine" | "wild"


class Classification(NamedTuple):
    kind: str
    label: str | None


@lru_cache(maxsize=256)
def cartan_matrix(q: Quiver) -> CartanData:
    n = len(q.vertices)
    edges = underlying_edges(q)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (u, v), mult in edges.items():
        i, j = q.vindex(u), q.vindex(v)
        c[i][j] -= mult
        c[j][i] -= mult
    return CartanData(tuple(map(tuple, c)), _definiteness_kind(c))


def _definiteness_kind(c: list) -> str:
    """"finite", "affine" or "wild" for a symmetric integer matrix c.

    One symmetric elimination: while some diagonal entry d of what is left
    is positive, pivot on it and replace the rest by its Schur complement
    (entry x_ij becomes x_ij - x_ik x_kj / d). Each step is a congruence, so
    what is left is semidefinite or definite exactly when c is, and c's
    corank is the remainder's. When no positive diagonal entry is left, the
    remainder R decides: c is positive definite ("finite") iff R is empty;
    a symmetric R with no positive diagonal entry is semidefinite iff it is
    zero, and then c's corank is the size of R. Semidefinite of corank 1 is
    "affine"; everything else is "wild".
    """
    a = [[Fraction(x) for x in row] for row in c]
    while True:
        k = next((i for i, row in enumerate(a) if row[i] > 0), None)
        if k is None:
            break
        pivot_row = a.pop(k)
        d = pivot_row.pop(k)
        for row in a:
            x = row.pop(k)
            if x:
                s = x / d
                for j, y in enumerate(pivot_row):
                    if y:
                        row[j] -= s * y
    if not a:
        return "finite"
    semidefinite = not any(map(any, a))
    return "affine" if semidefinite and len(a) == 1 else "wild"


def classify(q: Quiver) -> Classification:
    data = cartan_matrix(q)
    label = _dynkin_label(q) if data.kind == "finite" else None
    return Classification(data.kind, label)


def _dynkin_label(q: Quiver) -> str | None:
    """Structural ADE recognition on the underlying graph; None if unnamed."""
    n = len(q.vertices)
    edges = underlying_edges(q)
    if any(m > 1 for m in edges.values()):
        return None
    if len(edges) != n - 1:
        return None  # not a tree, or disconnected
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # connectivity
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None
    degs = sorted(len(adj[v]) for v in q.vertices)
    if degs[-1] <= 2:
        return f"A{n}"
    if degs[-1] > 3 or degs.count(3) > 1:
        return None
    center = next(v for v in q.vertices if len(adj[v]) == 3)
    branches = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        branches.append(length)
    branches.sort()
    if branches[:2] == [1, 1]:
        return f"D{n}"
    if branches == [1, 2, 2]:
        return "E6"
    if branches == [1, 2, 3]:
        return "E7"
    if branches == [1, 2, 4]:
        return "E8"
    return None


def require_finite_type(q: Quiver) -> None:
    if cartan_matrix(q).kind != "finite":
        raise NotFiniteTypeError("operation requires a finite-type quiver")


# --- dimension vectors -----------------------------------------------------

def parse_dimvec(q: Quiver, text: str) -> tuple[int, ...]:
    """Parse "i1:n1,i2:n2" (named, omitted entries 0) or "n1,n2,..." (positional)."""
    text = text.strip()
    if not text:
        raise ValidationError("empty dimension vector")
    parts = [p.strip() for p in text.split(",")]
    if any(":" in p for p in parts):
        vec = [0] * len(q.vertices)
        for p in parts:
            if ":" not in p:
                raise ValidationError(f"mixed dimension vector syntax near {p!r}")
            name, _, val = p.partition(":")
            vec[q.vindex(name.strip())] = _nonneg(val)
        return tuple(vec)
    if len(parts) != len(q.vertices):
        raise ValidationError(
            f"expected {len(q.vertices)} entries, got {len(parts)}"
        )
    return tuple(_nonneg(p) for p in parts)


def _check_dim_vector(q: Quiver, v: dict) -> dict:
    """v over every vertex of q, in vertex order, missing entries 0; refuses an
    unknown vertex and an entry that is not a non-negative int."""
    for key, val in (v or {}).items():
        if key not in q.vertices:
            raise ValidationError(f"unknown vertex {key!r} in dimension vector")
        if not isinstance(val, int) or val < 0:
            raise ValidationError(f"dimension at vertex {key!r} must be a non-negative integer")
    return {u: int((v or {}).get(u, 0)) for u in q.vertices}


def _nonneg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValidationError(f"not an integer: {text!r}") from None
    if n < 0:
        raise ValidationError(f"negative entry: {n}")
    return n


# --- JSON ------------------------------------------------------------------

def quiver_to_obj(q: Quiver) -> dict:
    obj: dict = {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "from": a.src, "to": a.dst} for a in q.arrows],
    }
    if q.is_double:
        obj["bar"] = {x: y for x, y in q.bar}
        obj["base"] = list(q.base)
    return obj


def quiver_from_obj(obj: dict) -> Quiver:
    try:
        vertices = obj["vertices"]
        arrows = [(a["name"], a["from"], a["to"]) for a in obj["arrows"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed quiver object: {exc}") from None
    q = build_quiver(vertices, arrows)
    if "bar" in obj:
        bar = tuple((str(k), str(v)) for k, v in obj["bar"].items())
        base = tuple(str(x) for x in obj.get("base", ()))
        names = {a.name for a in q.arrows}
        for x, y in bar:
            if x not in names or y not in names:
                raise ValidationError("bar involution names unknown arrows")
        q = Quiver(q.vertices, q.arrows, bar, base)
    return q


def quiver_from_json(text: str) -> Quiver:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    return quiver_from_obj(obj)


# --- stock quivers used across the test and acceptance suites --------------

def line_quiver(n: int) -> Quiver:
    """Type A_n path: vertices "1".."n", arrows a1..a(n-1) pointing up."""
    vs = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return build_quiver(vs, arrows)


def star_quiver(legs: int) -> Quiver:
    """Star with a central vertex "0" and arrows leg -> center."""
    vs = ["0"] + [str(i) for i in range(1, legs + 1)]
    arrows = [(f"a{i}", str(i), "0") for i in range(1, legs + 1)]
    return build_quiver(vs, arrows)


def kronecker_quiver() -> Quiver:
    """Two vertices joined by two parallel arrows (affine A1)."""
    return build_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
