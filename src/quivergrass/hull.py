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

A hull and a sum of projectives come from one basis, built in one pass:
coordinates labelled (summand k, path class), the paths ending at the
summand's vertex for a hull and starting there for a projective. No block
sum of pieces is formed.

A module map g from V into a model is fixed by its socle part: the row of
g at the dual of a basis path beta from v to i in summand k is
sigma_k X_beta, where sigma_k is g's socle row for summand k and X_beta is
the action of beta on V (Hom(V, D(e_i Pi)) = Hom(e_i V, k)). Extension maps
and twisted automorphisms are read off the path basis in this way, with no
linear system solved. Each answer is then checked exactly: g commutes with
every arrow and its projection is the one asked for. A map with zero
projection has an image meeting the socle copy in zero, so the homogeneous
problem has only the zero solution, for every V, exactly when the socle of
the model is its socle copy; that is the uniqueness certificate, checked
once per model. An extension needs V nilpotent, and V/K embeds in the
nilpotent model for K the map's kernel, so only K's radical series is read,
inside V with V's own maps (`repmod.radical_filtration` started at K).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    NoSolutionError,
    NonUniqueError,
    NotDiagonalizableError,
    NotNilpotentError,
    ShapeMismatchError,
    ValidationError,
)
from .fields import QQ
from .linalg import Mat, kernel, rank, row_times, subspace_intersect
from .palg import Path, algebra, compose, default_truncation, trivial_path, vanishing_bound
from .quiver import Quiver, _check_dim_vector, _is_int, cartan_matrix
from .repmod import (
    Rep,
    Subrep,
    _mapped_into,
    is_nilpotent,
    make_rep,
    restrict,
    socle,
)


class InjectiveModel:
    """A truncated injective module with its socle framing.

    labels[v] lists (summand index, path) for each coordinate at vertex v;
    pi is the canonical projection onto the socle copy (it kills every dual
    path of positive length); socle_cols locates the socle coordinates.
    Whether the socle of rep is exactly the socle copy is checked on first
    need and kept in a record that every `with_projection` copy shares.
    """

    def __init__(self, base: Quiver, w: dict, trunc: int, full: bool,
                 rep: Rep, labels: dict, pi: dict, socle_cols: dict,
                 checks: dict | None = None):
        self.base = base
        self.w = w
        self.trunc = trunc
        self.full = full
        self.rep = rep
        self.labels = labels
        self.pi = pi
        self.socle_cols = socle_cols
        self._checks = {} if checks is None else checks

    @property
    def quiver(self) -> Quiver:
        return self.rep.quiver

    def socle_subrep(self) -> Subrep:
        from .repmod import make_subrep

        return make_subrep(self.rep, {
            v: Mat.identity(self.rep.field, self.rep.dim(v)).take_cols(self.socle_cols[v])
            for v in self.quiver.vertices
        })

    def with_projection(self, pi: dict) -> "InjectiveModel":
        for v in self.quiver.vertices:
            p = pi[v]
            if p.rows != self.w.get(v, 0) or p.cols != self.rep.dim(v):
                raise ValidationError(f"projection shape at vertex {v!r} is wrong")
            if p.take_cols(self.socle_cols[v]) != Mat.identity(p.field, p.rows):
                raise ValidationError("projection must restrict to the identity on the socle copy")
        return InjectiveModel(
            self.base, self.w, self.trunc, self.full, self.rep,
            self.labels, pi, self.socle_cols, self._checks,
        )


def vertex_injective(q: Quiver, i: str, trunc: int | None = None) -> InjectiveModel:
    return injective_hull(q, {x: (1 if x == i else 0) for x in q.vertices}, trunc)


def vertex_projective(q: Quiver, i: str, trunc: int | None = None) -> Rep:
    return projective_sum(q, {x: (1 if x == i else 0) for x in q.vertices}, trunc)


def _resolve_trunc(q: Quiver, trunc: int | None) -> tuple[int, bool]:
    """The truncation to use and whether it keeps the whole module."""
    if trunc is not None and (not _is_int(trunc) or trunc < 1):
        raise ValidationError(f"the truncation must be a positive integer, got {trunc!r}")
    if cartan_matrix(q).kind == "finite":
        bound = vanishing_bound(q)
        return (bound if trunc is None else trunc), trunc is None or trunc >= bound
    return (default_truncation(q) if trunc is None else trunc), False


def _framing(q: Quiver, w: dict) -> tuple:
    """The base quiver and w's multiplicities over its vertices, in vertex order.

    Refuses what `_check_dim_vector` refuses: an unknown vertex, and an entry
    that is not a non-negative int.
    """
    alg = algebra(q)
    base = alg.base if alg.base is not None else q
    return base, tuple(_check_dim_vector(base, w).values())


def _path_basis(q: Quiver, w: dict, trunc: int | None, ends) -> tuple:
    """The summand-labelled path basis of a sum of truncated pieces.

    Summand k sits at summands[k], the vertices of w's multiset in vertex
    order; ends(i, v) is the (source, target) of the path classes of a
    summand at i that sit at vertex v. labels[v] lists (k, path class) per
    coordinate at v, summand by summand and by degree; index[v] inverts
    it. Returns (base, trunc, full, summands, labels, index).
    """
    alg = algebra(q)
    base, wt = _framing(q, w)
    n, full = _resolve_trunc(base, trunc)
    slices = []
    for deg in range(n):
        sl = alg.slice(deg)
        # past two empty slices in a row every slice is empty
        if deg >= 2 and sl.dim() == 0 and slices[-1].dim() == 0:
            break
        slices.append(sl)
    summands = tuple(v for v, m in zip(base.vertices, wt) for _ in range(m))
    labels = {
        v: [(k, p) for k, i in enumerate(summands) for sl in slices
            for p in sl.block(*ends(i, v))]
        for v in alg.dq.vertices
    }
    index = {v: {lab: pos for pos, lab in enumerate(labels[v])} for v in labels}
    return base, n, full, summands, labels, index


def injective_hull(q: Quiver, w: dict, trunc: int | None = None) -> InjectiveModel:
    """Direct sum of vertex injectives with socle multiplicities w."""
    base, n, full, summands, labels, index = _path_basis(q, w, trunc, lambda i, v: (v, i))
    alg = algebra(q)
    dims = {v: len(labels[v]) for v in labels}
    maps = {}
    for a in alg.dq.arrows:
        m = maps[a.name] = Mat.zeros(QQ, dims[a.dst], dims[a.src])
        bpath = Path((a.name,), a.src, a.dst)
        for row, (k, gamma) in enumerate(labels[a.dst]):
            comp = compose(gamma, bpath)
            if comp is None or comp.length >= n:
                continue
            for beta, coeff in alg.rewrite(comp).items():
                col = index[a.src].get((k, beta))
                if col is not None:
                    m.a[row][col] = coeff
    rep = make_rep(QQ, alg.dq, dims, maps)
    socle_cols = {v: [] for v in labels}
    for k, i in enumerate(summands):
        socle_cols[i].append(index[i][(k, trivial_path(i))])
    pi = {v: Mat.identity(QQ, dims[v]).take_rows(socle_cols[v]) for v in labels}
    wfull = {v: w.get(v, 0) for v in base.vertices}
    return InjectiveModel(base, wfull, n, full, rep, labels, pi, socle_cols)


def projective_sum(q: Quiver, w: dict, trunc: int | None = None) -> Rep:
    """Direct sum of vertex projectives with top multiplicities w."""
    labels, index = _path_basis(q, w, trunc, lambda i, v: (i, v))[4:]
    alg = algebra(q)
    dims = {v: len(labels[v]) for v in labels}
    maps = {}
    for a in alg.dq.arrows:
        m = maps[a.name] = Mat.zeros(QQ, dims[a.dst], dims[a.src])
        for col, (k, beta) in enumerate(labels[a.src]):
            vec = alg.slice(beta.length + 1).lmul.get((a.name, beta), {})
            for out_path, coeff in vec.items():
                row = index[a.dst].get((k, out_path))
                if row is not None:
                    m.a[row][col] = coeff
    return make_rep(QQ, alg.dq, dims, maps)


# -- unique extension ---------------------------------------------------------

class ExtensionResult(NamedTuple):
    gamma: dict
    injective: bool


def _path_map(v_rep: Rep, model: InjectiveModel, sigma: dict) -> dict:
    """The map g: V -> model whose row at label (k, beta) is sigma_k X_beta.

    sigma[i] holds one row per summand at vertex i, as the model's
    projection rows do: row r belongs to the summand of the socle
    coordinate socle_cols[i][r]. X_beta is the product of V's arrow maps
    along beta, last-applied arrow leftmost, so each row is the row of the
    path's prefix one arrow shorter times one arrow map, built once.
    """
    field = v_rep.field
    memo = {}
    for i in model.quiver.vertices:
        for r, c in enumerate(model.socle_cols[i]):
            memo[model.labels[i][c][0], ()] = list(sigma[i].a[r])

    def row(k, arrows):
        out = memo.get((k, arrows))
        if out is None:
            out = memo[k, arrows] = row_times(field, row(k, arrows[:-1]), v_rep.map(arrows[-1]))
        return out

    g = {}
    for v in model.quiver.vertices:
        rows = [row(k, p.arrows) for k, p in model.labels[v]]
        g[v] = Mat(field, len(rows), v_rep.dim(v), rows)
    return g


def _map_into(v_rep: Rep, model: InjectiveModel, tau: dict) -> dict:
    """The unique module map g: V -> model with model.pi·g = tau.

    The socle part sigma of g starts at tau. The trivial path's row of
    g(sigma) is sigma itself, and the rest of model.pi reads only rows of
    positive-length paths, so sigma <- sigma + (tau - pi·g(sigma)) adds
    terms through ever longer paths of V and settles within V's Loewy
    length; settled means pi·g = tau holds. Raises NonUniqueError when the
    socle of the model exceeds its socle copy, NoSolutionError when sigma
    has not settled after total_dim(V) + 1 rounds or g fails to commute with
    an arrow.
    """
    if "socle" not in model._checks:
        model._checks["socle"] = socle(model.rep) == model.socle_subrep()
    if not model._checks["socle"]:
        raise NonUniqueError("homogeneous intertwining system has a nonzero kernel")
    q = model.quiver
    sigma = tau
    for _ in range(v_rep.total_dim() + 1):
        g = _path_map(v_rep, model, sigma)
        miss = {v: tau[v] - model.pi[v] @ g[v] for v in q.vertices}
        if not any(any(map(any, miss[v].a)) for v in q.vertices):
            break
        sigma = {v: sigma[v] + miss[v] for v in q.vertices}
    else:
        raise NoSolutionError("intertwining system is unsolvable")
    for a in q.arrows:
        if (g[a.dst] @ v_rep.map(a.name)).a != (model.rep.map(a.name) @ g[a.src]).a:
            raise NoSolutionError("intertwining system is unsolvable")
    return g


def extend_to_injective(v_rep: Rep, tau: dict, model: InjectiveModel) -> ExtensionResult:
    """The unique module map into the model whose socle projection is tau.

    V must be nilpotent; a non-nilpotent V is reported before any other
    fault. The map g is injective iff its kernel K is zero at every vertex.
    V/K embeds in the nilpotent model, so V is nilpotent iff K is, and the
    radical series runs on K alone when g is not injective, read inside V
    with V's own maps, K never restricted to a Rep of its own; it runs on
    the whole V only when no map is found.
    """
    q = model.quiver
    try:
        for v in q.vertices:
            t = tau[v]
            if t.rows != model.w.get(v, 0) or t.cols != v_rep.dim(v):
                raise ValidationError(f"tau shape at vertex {v!r} is wrong")
        gamma = _map_into(v_rep, model, tau)
    except Exception:
        _require_nilpotent(v_rep)
        raise
    ker = {v: kernel(gamma[v]) for v in q.vertices}
    injective = not any(k.cols for k in ker.values())
    if not injective:
        _require_nilpotent(v_rep, Subrep(v_rep, ker))
    return ExtensionResult(gamma, injective)


def _require_nilpotent(v_rep: Rep, start: Subrep | None = None) -> None:
    if not is_nilpotent(v_rep, start):
        raise NotNilpotentError("extension requires a nilpotent representation")


# -- framed points ------------------------------------------------------------

class FramedPoint(NamedTuple):
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
    """The unique invertible map with gamma x_a = z^-(m(a)+1) x_a gamma, pi gamma = g pi.

    Such a gamma is a module map into the model from the model with each
    arrow map scaled by z^(m(a)+1), so it is read off the path basis like
    any extension.
    """
    field = model.rep.field
    zq = field.of(z)
    if zq == field.zero:
        raise ValidationError("the scaling parameter must be nonzero")
    weights = arrow_weights(model.base, m)
    rep = model.rep
    scaled = Rep(field, rep.quiver, rep.dims, {
        a.name: rep.map(a.name).scale(_field_pow(field, zq, weights[a.name] + 1))
        for a in rep.quiver.arrows
    })
    rhs = {v: g[v] @ model.pi[v] for v in model.quiver.vertices}
    gamma = _map_into(scaled, model, rhs)
    for v in model.quiver.vertices:
        if rank(gamma[v]) != model.rep.dim(v):
            raise DimensionMismatchError("induced map is not invertible")
    return gamma


class Grading(NamedTuple):
    """Eigenspace decomposition of a model under an induced automorphism.

    spaces maps each vertex to (eigenvalue, echelon basis) pairs sorted by
    eigenvalue; z and the full arrow-weight table are kept so consumers can
    track how arrows shift between the layers.  Contract, met by
    `eigen_grading` and checked by `grassmann.graded_submodules`: each basis
    is unit columns (its labels), the layers of a vertex partition its
    labels, and an arrow a maps the layer lam into the layer lam z^-(m(a)+1),
    or to zero when there is none.
    """

    spaces: dict
    z: object
    weights: dict

    def __getitem__(self, vertex: str):
        return self.spaces[vertex]


def eigen_grading(model: InjectiveModel, g: dict, z, m: dict | None = None,
                  gamma: dict | None = None) -> Grading:
    """Split each vertex space into eigenspaces of the induced automorphism.

    g must be diagonal. Under the canonical projection the induced
    automorphism is diagonal on the path basis: the label (k, beta) has
    eigenvalue g_k z^(sum over the arrows a of beta of m(a) + 1). Each
    eigenvalue is read off its label and gamma is checked to be exactly that
    diagonal. Returns per vertex a list of (eigenvalue, echelon basis) pairs
    sorted by eigenvalue, each basis the unit columns of its labels.
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
    weights = arrow_weights(model.base, m)
    out = {}
    for v in model.quiver.vertices:
        n = model.rep.dim(v)
        if (gamma[v].rows, gamma[v].cols) != (n, n):
            raise ShapeMismatchError(f"the automorphism at vertex {v!r} is not {n}x{n}")
        cols = {}
        for c, ((k, p), row) in enumerate(zip(model.labels[v], gamma[v].a)):
            lam = field.mul(diag[k], _field_pow(field, zq, sum(weights[a] + 1 for a in p.arrows)))
            if row[c] != lam or any(x for j, x in enumerate(row) if j != c):
                raise NotDiagonalizableError(
                    f"the induced automorphism is not diagonal on the path basis at vertex {v!r}"
                )
            cols.setdefault(lam, []).append(c)
        spaces = []
        for lam in sorted(cols, key=Fraction):
            basis = Mat.zeros(field, n, len(cols[lam]))
            for t, c in enumerate(cols[lam]):
                basis.a[c][t] = field.one
            spaces.append((lam, basis))
        out[v] = tuple(spaces)
    return Grading(spaces=out, z=zq, weights=weights)
