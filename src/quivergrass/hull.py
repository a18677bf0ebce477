"""Injective and projective modules over the preprojective quotient.

The injective envelope of the vertex simple is modeled as the dual of the
space of path classes ending at that vertex: basis vectors are duals of
path classes, placed at the source vertex of the path, with arrow action
(b . f)(x) = f(x b). Degrees at or above the truncation bound are dropped,
which keeps everything finite; in finite type the default bound keeps the
whole module.  An arrow sends the dual of a path to the dual of a shorter
path (or to zero), so the duals of paths shorter than the bound span a
submodule: a truncated hull is a submodule of every longer truncation and
of the full hull.

The projective at a vertex is the span of path classes starting there,
placed at their target vertex, with arrows acting by left concatenation.

Extension maps into these models (and twisted automorphisms of them) are
found by one combined exact linear solve; the zero kernel of the
homogeneous system is the uniqueness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    NoSolutionError,
    NonUniqueError,
    NotDiagonalizableError,
    NotNilpotentError,
    ValidationError,
)
from .fields import QQ
from .linalg import Mat, _solve, kernel, rank, subspace_intersect
from .palg import Path, algebra, compose, default_truncation, trivial_path
from .quiver import Quiver
from .repmod import (
    Rep,
    Subrep,
    _mapped_into,
    check_closure,
    direct_sum,
    intertwining_rows,
    is_nilpotent,
    make_rep,
    maps_from_unknowns,
    restrict,
)


class InjectiveModel:
    """A truncated injective module with its socle framing.

    labels[v] lists (summand index, path) for each coordinate at vertex v;
    pi is the canonical projection onto the socle copy (it kills every dual
    path of positive length); socle_cols locates the socle coordinates.
    """

    def __init__(self, base: Quiver, w: dict, trunc: int, full: bool,
                 rep: Rep, labels: dict, summands: tuple, pi: dict,
                 socle_cols: dict):
        self.base = base
        self.w = w
        self.trunc = trunc
        self.full = full
        self.rep = rep
        self.labels = labels
        self.summands = summands
        self.pi = pi
        self.socle_cols = socle_cols

    @property
    def quiver(self) -> Quiver:
        return self.rep.quiver

    def socle_subrep(self) -> Subrep:
        from .repmod import make_subrep

        f = self.rep.field
        bases = {}
        for v in self.quiver.vertices:
            m = Mat.zeros(f, self.rep.dim(v), len(self.socle_cols[v]))
            for j, c in enumerate(self.socle_cols[v]):
                m.a[c][j] = f.one
            bases[v] = m
        return make_subrep(self.rep, bases)

    def with_projection(self, pi: dict) -> "InjectiveModel":
        for v in self.quiver.vertices:
            p = pi[v]
            if p.rows != self.w.get(v, 0) or p.cols != self.rep.dim(v):
                raise ValidationError(f"projection shape at vertex {v!r} is wrong")
            for j, c in enumerate(self.socle_cols[v]):
                col = [p.a[r][c] for r in range(p.rows)]
                want = [p.field.one if r == j else p.field.zero for r in range(p.rows)]
                if col != want:
                    raise ValidationError("projection must restrict to the identity on the socle copy")
        return InjectiveModel(
            self.base, self.w, self.trunc, self.full, self.rep,
            self.labels, self.summands, pi, self.socle_cols,
        )


def _piece_basis(q: Quiver, i: str, trunc: int) -> dict:
    """Per vertex, the list of path classes ending at i of length < trunc."""
    alg = algebra(q)
    out = {v: [] for v in alg.dq.vertices}
    for n in range(trunc):
        sl = alg.slice(n)
        if n >= 2 and sl.dim() == 0 and alg.slice(n - 1).dim() == 0:
            break
        for v in alg.dq.vertices:
            out[v].extend(sl.block(v, i).paths)
    return out


def vertex_injective(q: Quiver, i: str, trunc: int | None = None) -> InjectiveModel:
    return injective_hull(q, {x: (1 if x == i else 0) for x in q.vertices}, trunc)


def _resolve_trunc(q: Quiver, trunc: int | None) -> tuple[int, bool]:
    from .quiver import cartan_matrix
    from .palg import vanishing_bound

    if trunc is not None and trunc < 1:
        raise ValidationError(f"the truncation must be a positive integer, got {trunc}")
    if cartan_matrix(q).kind == "finite":
        bound = vanishing_bound(q)
        if trunc is None or trunc >= bound:
            return (trunc if trunc is not None else bound), True
        return trunc, False
    if trunc is None:
        trunc = default_truncation(q)
    return trunc, False


def injective_hull(q: Quiver, w: dict, trunc: int | None = None) -> InjectiveModel:
    """Direct sum of vertex injectives with socle multiplicities w."""
    alg = algebra(q)
    dq = alg.dq
    base = alg.base if alg.base is not None else q
    for v in base.vertices:
        if w.get(v, 0) < 0:
            raise ValidationError("socle multiplicities must be non-negative")
    n, full = _resolve_trunc(base, trunc)
    summands = tuple(v for v in base.vertices for _ in range(w.get(v, 0)))
    piece_cache = {}
    labels = {v: [] for v in dq.vertices}
    dims = {v: 0 for v in dq.vertices}
    for k, i in enumerate(summands):
        if i not in piece_cache:
            piece_cache[i] = _piece_basis(base, i, n)
        for v in dq.vertices:
            for p in piece_cache[i][v]:
                labels[v].append((k, p))
                dims[v] += 1
    index = {
        v: {lab: pos for pos, lab in enumerate(labels[v])} for v in dq.vertices
    }
    maps = {}
    for a in dq.arrows:
        m = Mat.zeros(QQ, dims[a.dst], dims[a.src])
        bpath = Path((a.name,), a.src, a.dst)
        for row, (k, gamma) in enumerate(labels[a.dst]):
            comp = compose(gamma, bpath)
            if comp is None or comp.length >= n:
                continue
            for beta, coeff in alg.rewrite(comp).items():
                col = index[a.src].get((k, beta))
                if col is not None:
                    m.a[row][col] = coeff
        maps[a.name] = m
    rep = make_rep(QQ, dq, dims, maps, preprojective=True)
    socle_cols = {v: [] for v in dq.vertices}
    for k, i in enumerate(summands):
        socle_cols[i].append(index[i][(k, trivial_path(i))])
    pi = {}
    for v in dq.vertices:
        p = Mat.zeros(QQ, len(socle_cols[v]), dims[v])
        for r, c in enumerate(socle_cols[v]):
            p.a[r][c] = QQ.one
        pi[v] = p
    wfull = {v: w.get(v, 0) for v in base.vertices}
    return InjectiveModel(base, wfull, n, full, rep, labels, summands, pi, socle_cols)


def vertex_projective(q: Quiver, i: str, trunc: int | None = None) -> Rep:
    """Path classes starting at i, graded by target, arrows acting on the left."""
    alg = algebra(q)
    dq = alg.dq
    base = alg.base if alg.base is not None else q
    n, _ = _resolve_trunc(base, trunc)
    labels = {v: [] for v in dq.vertices}
    for deg in range(n):
        sl = alg.slice(deg)
        if deg >= 2 and sl.dim() == 0 and alg.slice(deg - 1).dim() == 0:
            break
        for v in dq.vertices:
            labels[v].extend(sl.block(i, v).paths)
    index = {v: {p: pos for pos, p in enumerate(labels[v])} for v in dq.vertices}
    dims = {v: len(labels[v]) for v in dq.vertices}
    maps = {}
    for a in dq.arrows:
        m = Mat.zeros(QQ, dims[a.dst], dims[a.src])
        for col, beta in enumerate(labels[a.src]):
            target_slice = alg.slice(beta.length + 1)
            vec = target_slice.lmul.get((a.name, beta))
            if not vec:
                continue
            for out_path, coeff in vec.items():
                row = index[a.dst].get(out_path)
                if row is not None:
                    m.a[row][col] = coeff
        maps[a.name] = m
    return make_rep(QQ, dq, dims, maps, preprojective=True)


def projective_sum(q: Quiver, w: dict, trunc: int | None = None) -> Rep:
    alg = algebra(q)
    base = alg.base if alg.base is not None else q
    pieces = []
    for v in base.vertices:
        pieces.extend([vertex_projective(q, v, trunc)] * w.get(v, 0))
    if not pieces:
        dq = alg.dq
        return make_rep(QQ, dq, {v: 0 for v in dq.vertices}, {}, preprojective=False)
    total, _, _ = direct_sum(pieces)
    return total


# -- unique extension ---------------------------------------------------------

@dataclass
class ExtensionResult:
    gamma: dict
    injective: bool


def _solve_intertwining(v_rep: Rep, target: Rep, twists: dict, proj: dict,
                        rhs_proj: dict) -> dict:
    """Solve {g x_a = twist_a . y_a g for all a; proj g = rhs_proj} for g.

    Unknowns are the per-vertex matrices of g (target dim x source dim).
    The sparse rows of `intertwining_rows` are joined by the projection
    rows, each holding the rhs at column `total`, the one past the
    unknowns; only nonzero entries are stored, so the system is never
    dense. `linalg._solve` eliminates it once. A rank below the number of
    unknowns means a nonzero homogeneous kernel, checked first; otherwise
    no solution means the system is inconsistent.
    """
    field = v_rep.field
    rows, offsets, total = intertwining_rows(v_rep, target, twists)
    for v in v_rep.quiver.vertices:
        p = proj[v].a
        r_p = rhs_proj[v].a
        n = v_rep.dim(v)
        for i, p_i in enumerate(p):
            coeffs = [(offsets[v] + k * n, field.of(x)) for k, x in enumerate(p_i) if x]
            for j in range(n):
                row = {o + j: x for o, x in coeffs}
                y = field.of(r_p[i][j])
                if y:
                    row[total] = y
                rows.append(row)
    x, rank_m = _solve(field, rows, total, 1)
    if rank_m < total:
        raise NonUniqueError("homogeneous intertwining system has a nonzero kernel")
    if x is None:
        raise NoSolutionError("intertwining system is unsolvable")
    return maps_from_unknowns([row[0] for row in x.a], offsets, v_rep, target)


def extend_to_injective(v_rep: Rep, tau: dict, model: InjectiveModel) -> ExtensionResult:
    """The unique module map into the model whose socle projection is tau."""
    if not is_nilpotent(v_rep):
        raise NotNilpotentError("extension requires a nilpotent representation")
    q = model.quiver
    for v in q.vertices:
        t = tau[v]
        if t.rows != model.w.get(v, 0) or t.cols != v_rep.dim(v):
            raise ValidationError(f"tau shape at vertex {v!r} is wrong")
    gamma = _solve_intertwining(v_rep, model.rep, {}, model.pi, tau)
    injective = all(
        rank(gamma[v]) == v_rep.dim(v) for v in q.vertices
    )
    return ExtensionResult(gamma, injective)


# -- framed points ------------------------------------------------------------

@dataclass
class FramedPoint:
    x: Rep
    t: dict
    stable: bool


def is_stable(x_rep: Rep, t: dict) -> bool:
    """No nonzero arrow-invariant subspace inside the kernel of t."""
    q = x_rep.quiver
    cur = {v: kernel(t[v]) for v in q.vertices}
    while True:
        nxt = {v: subspace_intersect(cur[v], _mapped_into(x_rep, cur, v)) for v in q.vertices}
        if all(nxt[v] == cur[v] for v in q.vertices):
            break
        cur = nxt
    return all(cur[v].cols == 0 for v in q.vertices)


def framed_point(u: Subrep, model: InjectiveModel) -> FramedPoint:
    check_closure(u)
    x = restrict(model.rep, u)
    # re-validate the preprojective relation in the chosen basis
    make_rep(x.field, x.quiver, x.dims, x.maps, preprojective=True)
    t = {v: model.pi[v] @ u.bases[v] for v in model.quiver.vertices}
    return FramedPoint(x, t, is_stable(x, t))


# -- induced automorphisms ----------------------------------------------------

def _field_pow(field, x, e: int):
    if e < 0:
        return _field_pow(field, field.inv(x), -e)
    out = field.one
    for _ in range(e):
        out = field.mul(out, x)
    return out


def arrow_weights(q: Quiver, m: dict | None) -> dict:
    """Fill in bar values of an integer arrow-weight function with m(bar a) = -m(a)."""
    dq = algebra(q).dq
    out = {}
    m = dict(m or {})
    for name in dq.base:
        val = int(m.get(name, 0))
        bar = dq.bar_of(name)
        if bar in m and int(m[bar]) != -val:
            raise ValidationError(f"weights of {name!r} and its reverse must be opposite")
        out[name] = val
        out[bar] = -val
    return out


def identity_framing(model: InjectiveModel) -> dict:
    return {
        v: Mat.identity(model.rep.field, model.w.get(v, 0))
        for v in model.quiver.vertices
    }


def induced_automorphism(model: InjectiveModel, g: dict, z, m: dict | None = None) -> dict:
    """The unique invertible map with gamma x_a = z^-(m(a)+1) x_a gamma, pi gamma = g pi."""
    field = model.rep.field
    zq = field.of(z)
    if zq == field.zero:
        raise ValidationError("the scaling parameter must be nonzero")
    weights = arrow_weights(model.base, m)
    twists = {}
    for a in model.quiver.arrows:
        twists[a.name] = _field_pow(field, zq, -(weights[a.name] + 1))
    rhs = {v: g[v] @ model.pi[v] for v in model.quiver.vertices}
    gamma = _solve_intertwining(model.rep, model.rep, twists, model.pi, rhs)
    for v in model.quiver.vertices:
        if rank(gamma[v]) != model.rep.dim(v):
            raise DimensionMismatchError("induced map is not invertible")
    return gamma


@dataclass(frozen=True)
class Grading:
    """Eigenspace decomposition of a model under an induced automorphism.

    spaces maps each vertex to (eigenvalue, echelon basis) pairs sorted by
    eigenvalue; z and the full arrow-weight table are kept so consumers can
    track how arrows shift between the layers.
    """

    spaces: dict
    z: object
    weights: dict

    def __getitem__(self, vertex: str):
        return self.spaces[vertex]


def eigen_grading(model: InjectiveModel, g: dict, z, m: dict | None = None,
                  gamma: dict | None = None) -> Grading:
    """Split each vertex space into eigenspaces of the induced automorphism.

    Candidate eigenvalues are read off the diagonal framing and the degree
    ladder; g must be diagonal. Returns per vertex a list of
    (eigenvalue, echelon basis) pairs sorted by eigenvalue.
    """
    field = model.rep.field
    if gamma is None:
        gamma = induced_automorphism(model, g, z, m)
    diag = {}
    for v in model.quiver.vertices:
        gm = g[v]
        for i in range(gm.rows):
            for j in range(gm.cols):
                if i != j and gm.a[i][j] != field.zero:
                    raise NotDiagonalizableError("framing must be diagonal for the grading")
    for v in model.quiver.vertices:
        for r, c in enumerate(model.socle_cols[v]):
            k = model.labels[v][c][0]
            diag[k] = g[v].a[r][r]
    zq = field.of(z)
    if zq == field.zero:
        raise ValidationError("the scaling parameter must be nonzero")
    candidates = set()
    for v in model.quiver.vertices:
        for k, p in model.labels[v]:
            candidates.add(field.mul(diag[k], _field_pow(field, zq, p.length)))
    out = {}
    for v in model.quiver.vertices:
        n = model.rep.dim(v)
        spaces = []
        covered = 0
        for lam in sorted(candidates, key=Fraction):
            shifted = gamma[v] - Mat.identity(field, n).scale(lam)
            es = kernel(shifted)
            if es.cols:
                spaces.append((lam, es))
                covered += es.cols
        if covered != n:
            raise NotDiagonalizableError(
                f"eigenspaces cover {covered} of {n} dimensions at vertex {v!r}"
            )
        out[v] = tuple(spaces)
    return Grading(spaces=out, z=zq, weights=arrow_weights(model.base, m))
