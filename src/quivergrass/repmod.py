"""Representations of a double quiver over an exact field.

A representation assigns a vector space dimension to each vertex and a matrix
to each arrow (rows indexed by the target, columns by the source). Vertex
order is the quiver's canonical order throughout. Subspaces of a
representation are stored per vertex as canonical column-echelon bases, so
subrepresentation equality is plain data equality.
"""

from __future__ import annotations

import itertools

from .errors import (
    NotSubmoduleError,
    RelationViolatedError,
    SearchExhaustedError,
    ShapeMismatchError,
    ValidationError,
)
from .fields import PrimeField, QQ, field_from_tag
from .linalg import (
    Mat,
    col_space,
    coords_in,
    kernel,
    mat_over,
    pivot_rows,
    preimage,
    rank,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from .quiver import Quiver, quiver_from_obj, quiver_to_obj


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


def semisimple_rep(field, quiver: Quiver, dims: dict) -> Rep:
    return make_rep(field, quiver, dims, {}, preprojective=False)


def make_subrep(v_rep: Rep, bases: dict, validate: bool = True) -> Subrep:
    """Canonicalize per-vertex spanning sets and check arrow closure."""
    q = v_rep.quiver
    canon = {}
    for v in q.vertices:
        b = bases.get(v)
        if b is None:
            b = Mat.zeros(v_rep.field, v_rep.dim(v), 0)
        elif not isinstance(b, Mat):
            cols = b
            b = Mat.from_rows(
                v_rep.field,
                [[col[i] for col in cols] for i in range(v_rep.dim(v))],
                len(cols),
            )
        if b.rows != v_rep.dim(v):
            raise ShapeMismatchError(f"basis rows at vertex {v!r} do not match the ambient")
        canon[v] = col_space(b)
    s = Subrep(v_rep, canon)
    if validate:
        check_closure(s)
    return s


def check_closure(s: Subrep) -> None:
    q = s.ambient.quiver
    for a in q.arrows:
        image = s.ambient.map(a.name) @ s.bases[a.src]
        if not subspace_contains(s.bases[a.dst], image):
            raise NotSubmoduleError(f"subspace is not closed under arrow {a.name!r}")


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


def socle(v_rep: Rep) -> Subrep:
    """Per vertex, the common kernel of all outgoing arrow maps."""
    q = v_rep.quiver
    bases = {}
    for v in q.vertices:
        outs = q.arrows_from(v)
        if not outs:
            bases[v] = Mat.identity(v_rep.field, v_rep.dim(v))
            continue
        stacked = v_rep.map(outs[0].name)
        for a in outs[1:]:
            stacked = stacked.vstack(v_rep.map(a.name))
        bases[v] = kernel(stacked)
    return Subrep(v_rep, bases)


def radical(v_rep: Rep) -> Subrep:
    """Per vertex, the span of all incoming arrow-map images."""
    q = v_rep.quiver
    bases = {}
    for v in q.vertices:
        acc = Mat.zeros(v_rep.field, v_rep.dim(v), 0)
        for a in q.arrows_into(v):
            acc = acc.hstack(v_rep.map(a.name))
        bases[v] = col_space(acc)
    return Subrep(v_rep, bases)


def _step_preimage(v_rep: Rep, s: Subrep) -> Subrep:
    """Largest subspace whose image under every arrow lands in s."""
    q = v_rep.quiver
    bases = {}
    for v in q.vertices:
        cur = Mat.identity(v_rep.field, v_rep.dim(v))
        for a in q.arrows_from(v):
            pre = preimage(v_rep.map(a.name), s.bases[a.dst])
            cur = subspace_intersect(cur, pre)
        bases[v] = cur
    return Subrep(v_rep, bases)


def socle_filtration(v_rep: Rep) -> list[Subrep]:
    """Increasing chain 0 = V0 within V1 = socle within ...; stops when stable."""
    chain = [zero_subrep(v_rep)]
    while True:
        nxt = _step_preimage(v_rep, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def radical_filtration(v_rep: Rep) -> list[Subrep]:
    """Decreasing chain V, rad V, rad^2 V, ...; stops when stable."""
    chain = [full_subrep(v_rep)]
    q = v_rep.quiver
    while True:
        cur = chain[-1]
        bases = {}
        for v in q.vertices:
            acc = Mat.zeros(v_rep.field, v_rep.dim(v), 0)
            for a in q.arrows_into(v):
                acc = acc.hstack(v_rep.map(a.name) @ cur.bases[a.src])
            bases[v] = col_space(acc)
        nxt = Subrep(v_rep, bases)
        if nxt == cur:
            return chain
        chain.append(nxt)


def is_nilpotent(v_rep: Rep) -> bool:
    return radical_filtration(v_rep)[-1].total_dim() == 0


def sub_generated(v_rep: Rep, vectors: dict) -> Subrep:
    """Smallest arrow-closed subspace containing the given vectors."""
    q = v_rep.quiver
    bases = {}
    for v in q.vertices:
        cols = vectors.get(v, [])
        if isinstance(cols, Mat):
            bases[v] = col_space(cols)
        else:
            m = Mat.from_rows(
                v_rep.field,
                [[col[i] for col in cols] for i in range(v_rep.dim(v))],
                len(cols),
            )
            bases[v] = col_space(m)
    while True:
        changed = False
        for a in q.arrows:
            image = v_rep.map(a.name) @ bases[a.src]
            if image.cols and not subspace_contains(bases[a.dst], image):
                bases[a.dst] = subspace_sum(bases[a.dst], image)
                changed = True
        if not changed:
            return Subrep(v_rep, bases)


def intertwining_rows(v_rep: Rep, w_rep: Rep, twists: dict | None = None):
    """The equations phi[t(a)] x_a = z_a y_a phi[s(a)], one row per arrow entry.

    Unknowns are the entries of the per-vertex maps phi[v] (w dim x v dim),
    vertex by vertex in row-major order; z_a is twists[a], 1 when absent.
    Rows hold field elements of v_rep's field. Returns (rows, offsets, total),
    where phi[v][r][c] is unknown offsets[v] + r * v_rep.dim(v) + c.
    """
    q = v_rep.quiver
    field = v_rep.field
    twists = twists or {}
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += w_rep.dim(v) * v_rep.dim(v)
    rows = []
    for a in q.arrows:
        s_, t_ = a.src, a.dst
        xv = v_rep.map(a.name).a
        xw = w_rep.map(a.name).a
        z = twists.get(a.name)
        ns, nt = v_rep.dim(s_), v_rep.dim(t_)
        xcols = [[(k, xv[k][j]) for k in range(nt) if xv[k][j]] for j in range(ns)]
        for i in range(w_rep.dim(t_)):
            yi = [(k, y if z is None else field.mul(z, y)) for k, y in enumerate(xw[i]) if y]
            base = offsets[t_] + i * nt
            for j in range(ns):
                row = [field.zero] * total
                for k, x in xcols[j]:
                    row[base + k] = x
                for k, y in yi:
                    idx = offsets[s_] + k * ns + j
                    row[idx] = field.sub(row[idx], y)
                rows.append(row)
    return rows, offsets, total


def maps_from_unknowns(vec: list, offsets: dict, v_rep: Rep, w_rep: Rep) -> dict:
    """The per-vertex maps phi[v] from values of the unknowns of intertwining_rows."""
    out = {}
    for v, o in offsets.items():
        n = v_rep.dim(v)
        out[v] = Mat(v_rep.field, w_rep.dim(v), n,
                     [vec[o + r * n:o + (r + 1) * n] for r in range(w_rep.dim(v))])
    return out


def hom_space(v_rep: Rep, w_rep: Rep) -> list[dict]:
    """Basis of the space of maps commuting with every arrow.

    Each basis element is a per-vertex matrix dict phi with
    phi[t(a)] x_a = y_a phi[s(a)] for all arrows a.
    """
    if v_rep.quiver != w_rep.quiver:
        raise ValidationError("hom requires representations of the same quiver")
    if v_rep.field is not w_rep.field and v_rep.field != w_rep.field:
        raise ValidationError("hom requires representations over the same field")
    rows, offsets, total = intertwining_rows(v_rep, w_rep)
    ker = kernel(Mat(v_rep.field, len(rows), total, rows))
    return [maps_from_unknowns(ker.col(c), offsets, v_rep, w_rep) for c in range(ker.cols)]


def is_isomorphic(v_rep: Rep, w_rep: Rep, sweep_cap: int = 1_000_000) -> bool:
    """Decide isomorphism by sweeping the hom space for an invertible element.

    Over the rationals the sweep runs over the integer grid {0..D}^k where D
    is the total dimension and k the hom-space dimension; a nonzero product
    of block determinants has degree at most D in each coordinate, so a fully
    vanishing grid certifies that no invertible map exists. Over a prime
    field the sweep is exhaustive for hom dimension at most 4. Larger sweeps
    raise SearchExhausted rather than guess.
    """
    if v_rep.dims != w_rep.dims:
        return False
    if v_rep.total_dim() == 0:
        return True
    basis = hom_space(v_rep, w_rep)
    k = len(basis)
    if k == 0:
        return False
    field = v_rep.field
    if isinstance(field, PrimeField):
        if k > 4 or field.p ** k > sweep_cap:
            raise SearchExhaustedError(
                f"isomorphism sweep too large: hom dimension {k} over F_{field.p}"
            )
        coeff_range = range(field.p)
    else:
        d = v_rep.total_dim()
        if (d + 1) ** k > sweep_cap:
            raise SearchExhaustedError(
                f"isomorphism sweep too large: hom dimension {k}, grid {(d + 1)}^{k}"
            )
        coeff_range = range(d + 1)
    verts = v_rep.quiver.vertices
    for coeffs in itertools.product(coeff_range, repeat=k):
        if not any(coeffs):
            continue
        ok = True
        for v in verts:
            n = v_rep.dim(v)
            if n == 0:
                continue
            acc = Mat.zeros(field, n, n)
            for ci, phi in zip(coeffs, basis):
                if ci:
                    acc = acc + phi[v].scale(field.of(ci))
            if rank(acc) != n:
                ok = False
                break
        if ok:
            return True
    return False


def quotient(v_rep: Rep, s: Subrep) -> tuple[Rep, dict]:
    """Quotient representation and the per-vertex projection matrices.

    Coordinates of the quotient are the non-pivot rows of each echelon basis.
    """
    check_closure(s)
    q = v_rep.quiver
    field = v_rep.field
    projs = {}
    lifts = {}
    qdims = {}
    for v in q.vertices:
        b = s.bases[v]
        n = v_rep.dim(v)
        pivots = pivot_rows(b)
        free = [i for i in range(n) if i not in pivots]
        qdims[v] = len(free)
        # subtract the unique s-component then read the free coordinates
        resid = Mat.identity(field, n)
        if b.cols:
            sel = Mat.zeros(field, b.cols, n)
            for j, r in enumerate(pivots):
                sel.a[j][r] = field.one
            resid = resid - (b @ sel)
        projs[v] = resid.take_rows(free)
        lift = Mat.zeros(field, n, len(free))
        for j, r in enumerate(free):
            lift.a[r][j] = field.one
        lifts[v] = lift
    maps = {}
    for a in q.arrows:
        maps[a.name] = projs[a.dst] @ v_rep.map(a.name) @ lifts[a.src]
    out = Rep(field, q, qdims, maps)
    return out, projs


def restrict(v_rep: Rep, s: Subrep) -> Rep:
    """The subrepresentation as a Rep in the echelon coordinates of s."""
    check_closure(s)
    q = v_rep.quiver
    dims = s.dims()
    maps = {}
    for a in q.arrows:
        image = v_rep.map(a.name) @ s.bases[a.src]
        maps[a.name] = coords_in(s.bases[a.dst], image)
    return Rep(v_rep.field, q, dims, maps)


def direct_sum(reps: list[Rep]) -> tuple[Rep, list[dict], list[dict]]:
    """Block sum; also returns per-summand inclusion and projection maps."""
    if not reps:
        raise ValidationError("direct sum needs at least one summand")
    q = reps[0].quiver
    field = reps[0].field
    for r in reps[1:]:
        if r.quiver != q or r.field != field:
            raise ValidationError("direct sum requires a common quiver and field")
    dims = {v: sum(r.dim(v) for r in reps) for v in q.vertices}
    offs = []
    running = {v: 0 for v in q.vertices}
    for r in reps:
        offs.append(dict(running))
        for v in q.vertices:
            running[v] += r.dim(v)
    maps = {}
    for a in q.arrows:
        m = Mat.zeros(field, dims[a.dst], dims[a.src])
        for r, off in zip(reps, offs):
            block = r.map(a.name)
            for i in range(block.rows):
                for j in range(block.cols):
                    m.a[off[a.dst] + i][off[a.src] + j] = block.a[i][j]
        maps[a.name] = m
    total = Rep(field, q, dims, maps)
    incs = []
    prjs = []
    for r, off in zip(reps, offs):
        inc = {}
        prj = {}
        for v in q.vertices:
            mi = Mat.zeros(field, dims[v], r.dim(v))
            mp = Mat.zeros(field, r.dim(v), dims[v])
            for j in range(r.dim(v)):
                mi.a[off[v] + j][j] = field.one
                mp.a[j][off[v] + j] = field.one
            inc[v] = mi
            prj[v] = mp
        incs.append(inc)
        prjs.append(prj)
    return total, incs, prjs


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


def rep_from_obj(obj: dict) -> Rep:
    field = field_from_tag(obj["field"])
    q = quiver_from_obj(obj["quiver"])
    dims = {v: int(n) for v, n in obj["dims"].items()}
    maps = {
        name: Mat.from_rows(
            field,
            [[field.of(x) for x in row] for row in rows],
            dims[q.arrow(name).src],
        )
        for name, rows in obj["maps"].items()
    }
    return make_rep(field, q, dims, maps, preprojective=False)


def subrep_to_obj(s: Subrep) -> dict:
    f = s.ambient.field
    return {
        "dims": s.dims(),
        "bases": {
            v: [[f.format_el(x) for x in row] for row in s.bases[v].a]
            for v in s.ambient.quiver.vertices
        },
    }
