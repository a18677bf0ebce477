"""Representations of a double quiver over an exact field.

A representation assigns a vector space dimension to each vertex and a matrix
to each arrow (rows indexed by the target, columns by the source). Vertex
order is the quiver's canonical order throughout. Subspaces of a
representation are stored per vertex as canonical column-echelon bases, so
subrepresentation equality is plain data equality.

Every series and closure is built from two per-vertex steps, each one
elimination at a vertex v:

- the preimage step, `_mapped_into`: the largest subspace at v that every
  arrow out of v maps into a given per-vertex basis, one `linalg.preimage`
  of every outgoing arrow's pair. The socle, each step of the socle series,
  the Demazure step in `demazure` and the stability test in `hull` are
  built on it;
- the span step, `_spanned_at`: one `col_space` at v over every incoming
  arrow's image of a given per-vertex basis, plus the current basis at v
  when closing. Each term of the radical series is one span step per
  vertex, and `sub_generated` repeats it at every vertex that an arrow
  from a grown basis enters, until no basis grows.

There is no block sum of representations: `hull` builds sums of injectives
and of projectives on one labelled path basis.
"""

from __future__ import annotations

from .errors import (
    NotSubmoduleError,
    RelationViolatedError,
    ShapeMismatchError,
    ValidationError,
)
from .fields import PrimeField
from .linalg import (
    Mat,
    _projection,
    col_space,
    mat_over,
    pivot_rows,
    preimage,
    subspace_contains,
)
from .quiver import Quiver, quiver_to_obj


class Rep:
    """An exact representation of a double quiver."""

    __slots__ = ("field", "quiver", "dims", "maps")

    def __init__(self, field, quiver: Quiver, dims: dict, maps: dict):
        self.field = field
        self.quiver = quiver
        self.dims = dims
        self.maps = maps

    def map(self, arrow_name: str) -> Mat:
        return self.maps[arrow_name]

    def dim(self, vertex: str) -> int:
        return self.dims[vertex]

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> dict:
        return dict(self.dims)


class Subrep:
    """An arrow-closed graded subspace, canonical echelon basis per vertex."""

    __slots__ = ("ambient", "bases")

    def __init__(self, ambient: Rep, bases: dict):
        self.ambient = ambient
        self.bases = bases

    def basis(self, vertex: str) -> Mat:
        return self.bases[vertex]

    def dims(self) -> dict:
        return {v: self.bases[v].cols for v in self.ambient.quiver.vertices}

    def total_dim(self) -> int:
        return sum(b.cols for b in self.bases.values())

    def key(self):
        q = self.ambient.quiver
        return tuple(self.bases[v].key() for v in q.vertices)

    def __eq__(self, other):
        return isinstance(other, Subrep) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def relation_residuals(v_rep: Rep) -> dict:
    """Per-vertex residual of the signed two-step loop relation."""
    q = v_rep.quiver
    out = {}
    for x in q.vertices:
        n = v_rep.dim(x)
        acc = Mat.zeros(v_rep.field, n, n)
        for a in q.arrows_into(x):
            term = v_rep.map(a.name) @ v_rep.map(q.bar_of(a.name))
            if q.sign(a.name) > 0:
                acc = acc + term
            else:
                acc = acc - term
        out[x] = acc
    return out


def make_rep(field, quiver: Quiver, dims: dict, maps: dict, preprojective: bool = True) -> Rep:
    """Validate shapes (and optionally the preprojective relation)."""
    if quiver.arrows and not quiver.is_double:
        raise ValidationError("representations are defined over a double quiver")
    for v in quiver.vertices:
        if v not in dims or dims[v] < 0:
            raise ValidationError(f"missing or negative dimension at vertex {v!r}")
    clean = {}
    for a in quiver.arrows:
        m = maps.get(a.name)
        rows, cols = dims[a.dst], dims[a.src]
        if m is None:
            m = Mat.zeros(field, rows, cols)
        elif not isinstance(m, Mat):
            m = Mat.from_rows(field, m, cols)
        if m.rows != rows or m.cols != cols:
            raise ShapeMismatchError(
                f"arrow {a.name!r} needs a {rows}x{cols} matrix, got {m.rows}x{m.cols}"
            )
        if m.field is not field:
            m = mat_over(field, m)
        clean[a.name] = m
    rep = Rep(field, quiver, {v: dims[v] for v in quiver.vertices}, clean)
    if preprojective:
        residuals = relation_residuals(rep)
        bad = {v: r.to_lists() for v, r in residuals.items() if not r.is_zero()}
        if bad:
            raise RelationViolatedError(
                f"preprojective relation fails at vertices {sorted(bad)}", residuals=bad
            )
    return rep


def _spanning(v_rep: Rep, v: str, cols) -> Mat:
    """A spanning set at v, a Mat or a list of columns, as a Mat with v's
    dimension as its number of rows."""
    if not isinstance(cols, Mat):
        n = v_rep.dim(v)
        cols = Mat.from_rows(v_rep.field, [[col[i] for col in cols] for i in range(n)], len(cols))
    if cols.rows != v_rep.dim(v):
        raise ShapeMismatchError(f"basis rows at vertex {v!r} do not match the ambient")
    return cols


def make_subrep(v_rep: Rep, bases: dict, validate: bool = True) -> Subrep:
    """Canonicalize per-vertex spanning sets and check arrow closure."""
    s = Subrep(v_rep, {v: col_space(_spanning(v_rep, v, bases.get(v) or []))
                       for v in v_rep.quiver.vertices})
    if validate:
        check_closure(s)
    return s


def check_closure(s: Subrep) -> dict:
    """Check that every arrow maps s into itself.

    Returns {arrow name: the arrow's image of s's basis at its source},
    each image checked to lie in span(s) at the arrow's target.
    """
    images = {}
    for a in s.ambient.quiver.arrows:
        image = s.ambient.map(a.name) @ s.bases[a.src]
        if not subspace_contains(s.bases[a.dst], image):
            raise NotSubmoduleError(f"subspace is not closed under arrow {a.name!r}")
        images[a.name] = image
    return images


def zero_subrep(v_rep: Rep) -> Subrep:
    return Subrep(
        v_rep,
        {v: Mat.zeros(v_rep.field, v_rep.dim(v), 0) for v in v_rep.quiver.vertices},
    )


def full_subrep(v_rep: Rep) -> Subrep:
    return Subrep(
        v_rep,
        {v: Mat.identity(v_rep.field, v_rep.dim(v)) for v in v_rep.quiver.vertices},
    )


def _mapped_into(v_rep: Rep, bases: dict, v: str) -> Mat:
    """Largest subspace at v that every arrow out of v maps into bases[target].

    The whole space when no arrow leaves v; otherwise one stacked
    `preimage`, a single elimination however many arrows leave v.
    """
    pairs = [(v_rep.map(a.name), bases[a.dst]) for a in v_rep.quiver.arrows_from(v)]
    if not pairs:
        return Mat.identity(v_rep.field, v_rep.dim(v))
    return preimage(pairs)


def _spanned_at(v_rep: Rep, bases: dict, v: str, *keep: Mat) -> Mat:
    """Canonical basis at v of the span of every arrow's image of
    bases[arrow source] and of the columns of `keep`: one `col_space`,
    however many arrows enter v."""
    ims = [*keep, *(v_rep.map(a.name) @ bases[a.src] for a in v_rep.quiver.arrows_into(v))]
    rows = [[x for m in ims for x in m.a[i]] for i in range(v_rep.dim(v))]
    return col_space(Mat(v_rep.field, len(rows), sum(m.cols for m in ims), rows))


def socle(v_rep: Rep) -> Subrep:
    """Per vertex, the common kernel of all outgoing arrow maps."""
    zero = zero_subrep(v_rep).bases
    return Subrep(v_rep, {v: _mapped_into(v_rep, zero, v) for v in v_rep.quiver.vertices})


def socle_filtration(v_rep: Rep) -> list[Subrep]:
    """Increasing chain 0 = V0 within V1 = socle within ...; stops when stable."""
    chain = [zero_subrep(v_rep)]
    while True:
        bases = chain[-1].bases
        nxt = Subrep(v_rep, {v: _mapped_into(v_rep, bases, v) for v in v_rep.quiver.vertices})
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def radical_filtration(v_rep: Rep, start: Subrep | None = None) -> list[Subrep]:
    """Decreasing chain K, rad K, rad^2 K, ... of a submodule K of V (V itself
    when no start is given), read inside V with V's own maps; stops when stable.

    rad of a term is the span of every arrow's image of it, one span step
    per vertex. Each term lies inside the last, so equal total dimension
    means equal terms, and a zero term is the last.
    """
    chain = [full_subrep(v_rep) if start is None else start]
    while chain[-1].total_dim():
        cur = chain[-1].bases
        nxt = Subrep(v_rep, {v: _spanned_at(v_rep, cur, v) for v in v_rep.quiver.vertices})
        if nxt.total_dim() == chain[-1].total_dim():
            break
        chain.append(nxt)
    return chain


def is_nilpotent(v_rep: Rep, start: Subrep | None = None) -> bool:
    """Whether V, or its submodule `start`, has a radical series reaching 0."""
    return radical_filtration(v_rep, start)[-1].total_dim() == 0


def sub_generated(v_rep: Rep, vectors: dict) -> Subrep:
    """Smallest arrow-closed subspace containing the given vectors.

    A vertex is due for a span step over its own basis until every arrow
    into it has mapped in its source's final basis: all vertices at first,
    on the given vectors, and then each target of an arrow out of a vertex
    whose basis just grew. A basis only grows, so this stops, and when no
    vertex is due every arrow maps each basis into its target's.
    """
    q = v_rep.quiver
    bases = {v: _spanning(v_rep, v, vectors.get(v, [])) for v in q.vertices}
    dims = dict.fromkeys(q.vertices, -1)  # -1: the given vectors, not yet a basis
    due = dict.fromkeys(q.vertices)
    while due:
        v = next(iter(due))
        del due[v]
        bases[v] = _spanned_at(v_rep, bases, v, bases[v])
        if bases[v].cols != dims[v]:
            dims[v] = bases[v].cols
            due.update(dict.fromkeys(a.dst for a in q.arrows_from(v)))
    return Subrep(v_rep, bases)


def quotient(v_rep: Rep, s: Subrep) -> tuple[Rep, dict]:
    """Quotient representation and the per-vertex projection matrices.

    Coordinates of the quotient are the non-pivot rows of each echelon basis;
    an arrow's quotient map is its columns at the free rows of its source,
    projected at its target.
    """
    check_closure(s)
    q = v_rep.quiver
    projs = {}
    frees = {}
    for v in q.vertices:
        pivots = pivot_rows(s.bases[v])
        frees[v] = [i for i in range(v_rep.dim(v)) if i not in pivots]
        # subtract the unique s-component then read the free coordinates
        projs[v] = _projection(s.bases[v], frees[v])
    maps = {a.name: projs[a.dst] @ v_rep.map(a.name).take_cols(frees[a.src]) for a in q.arrows}
    qdims = {v: len(frees[v]) for v in q.vertices}
    return Rep(v_rep.field, q, qdims, maps), projs


def restrict(v_rep: Rep, s: Subrep) -> Rep:
    """The subrepresentation as a Rep in the echelon coordinates of s.

    `check_closure` hands back each arrow's image, already checked to lie
    in span(w) for the target basis w, so its coordinates are its rows at
    w's pivot rows.
    """
    images = check_closure(s)
    q = v_rep.quiver
    maps = {a.name: images[a.name].take_rows(pivot_rows(s.bases[a.dst])) for a in q.arrows}
    return Rep(v_rep.field, q, s.dims(), maps)


def reduce_mod(v_rep: Rep, p: int) -> Rep:
    """The same matrices over F_p; fails if p divides any denominator."""
    fp = PrimeField(p)
    maps = {a.name: mat_over(fp, v_rep.map(a.name)) for a in v_rep.quiver.arrows}
    return Rep(fp, v_rep.quiver, dict(v_rep.dims), maps)


def reduce_subrep(s: Subrep, ambient_p: Rep) -> Subrep:
    fp = ambient_p.field
    bases = {v: col_space(mat_over(fp, s.bases[v])) for v in ambient_p.quiver.vertices}
    out = Subrep(ambient_p, bases)
    check_closure(out)
    return out


# -- serialization -----------------------------------------------------------

def rep_to_obj(v_rep: Rep) -> dict:
    f = v_rep.field
    return {
        "field": f.tag(),
        "quiver": quiver_to_obj(v_rep.quiver),
        "dims": {v: v_rep.dim(v) for v in v_rep.quiver.vertices},
        "maps": {
            a.name: [[f.format_el(x) for x in row] for row in v_rep.map(a.name).a]
            for a in v_rep.quiver.arrows
        },
    }


def subrep_to_obj(s: Subrep) -> dict:
    f = s.ambient.field
    return {
        "dims": s.dims(),
        "bases": {
            v: [[f.format_el(x) for x in row] for row in s.bases[v].a]
            for v in s.ambient.quiver.vertices
        },
    }
