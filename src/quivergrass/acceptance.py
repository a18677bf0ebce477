"""Executable acceptance battery for the package's core guarantees.

Twelve independent checks cover the dimension tables of the preprojective
quotient, injective hulls and their socles, extremal-submodule uniqueness,
Demazure chains, count polynomials, the integer operator realization, the
duality and restriction comparisons, the unique-extension solver, and the
graded decomposition.  All arithmetic is exact (integers, prime fields and
rationals), so every comparison is equality with tolerance zero.

Each criterion function returns a list of failure notes (empty = pass);
``run_suite`` wraps them into ``CheckResult`` rows and never raises, so the
command-line ``verify`` verb can always print one line per criterion.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .demazure import check_nesting, demazure_module
from .errors import InternalCheckError
from .fields import QQ
from .geomrep import chevalley_compare, restricted_compat, verify_sl2
from .grassmann import (
    count_polynomial,
    enumerate_submodules,
    graded_submodules,
    tilde_count,
)
from .hull import (
    eigen_grading,
    extend_to_injective,
    identity_framing,
    injective_hull,
    projective_sum,
    vertex_injective,
)
from .linalg import (
    Mat,
    col_space,
    kernel,
    mat_over,
    pivot_rows,
    rank,
    subspace_contains,
    subspace_intersect,
)
from .palg import hilbert, vanishing_bound
from .quiver import double, kronecker_quiver, line_quiver, star_quiver
from .repmod import (
    is_nilpotent,
    make_rep,
    reduce_mod,
    reduce_subrep,
    restrict,
    socle,
    sub_generated,
)
from .weyl import (
    act,
    apply_involution,
    bruhat_leq,
    diagram_involution,
    extremal_orbit,
    longest_element,
    weight_multiplicity,
    zero_vector,
)

_SEED = 20240817


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    details: str = ""


def _expect(cond: bool, notes: list, message: str) -> None:
    if not cond:
        notes.append(message)


# -- criterion 1: dimension table of the preprojective quotient ---------------

def _criterion_preprojective_dims() -> list:
    notes: list = []
    table = hilbert(line_quiver(2), 2)
    _expect(table == [2, 2, 0], notes, f"degree table on two vertices is {table}")
    for n in range(1, 5):
        q = line_quiver(n)
        total = sum(hilbert(q, vanishing_bound(q)))
        want = n * (n + 1) * (n + 2) // 6
        _expect(total == want, notes, f"total dimension for {n} vertices is {total}, wanted {want}")
    kron = hilbert(kronecker_quiver(), 12)
    _expect(
        all(d > 0 for d in kron),
        notes,
        f"double-edge quotient has a vanishing slice within degree 12: {kron}",
    )
    return notes


# -- criterion 2: socle signature of injective hulls --------------------------

def _criterion_hull_signature() -> list:
    notes: list = []
    for q in (line_quiver(2), line_quiver(3), star_quiver(3)):
        top = longest_element(q)
        label = ",".join(q.vertices)
        for i in q.vertices:
            unit = {v: (1 if v == i else 0) for v in q.vertices}
            model = vertex_injective(q, i)
            got = socle(model.rep).dims()
            _expect(got == unit, notes, f"[{label}] socle of the hull at {i} is {got}")
            target = act(q, top, unit, zero_vector(q))
            _expect(
                model.rep.dims == target,
                notes,
                f"[{label}] hull at {i} has dims {model.rep.dims}, wanted {target}",
            )
        ones = {v: 1 for v in q.vertices}
        got = socle(injective_hull(q, ones).rep).dims()
        _expect(got == ones, notes, f"[{label}] socle of the all-ones hull is {got}")
    return notes


# -- criterion 3: extremal submodules are unique -------------------------------

def _criterion_extremal_uniqueness() -> list:
    notes: list = []
    q = line_quiver(2)
    w = {"1": 1, "2": 1}
    orbit = extremal_orbit(q, w)
    _expect(len(orbit) == 6, notes, f"orbit has {len(orbit)} vectors, wanted 6")
    for vt, word in sorted(orbit.items()):
        target = dict(zip(q.vertices, vt))
        chain = demazure_module(q, w, word)
        _expect(
            chain.stages[-1].dims() == target,
            notes,
            f"rational witness at {vt} has dims {chain.stages[-1].dims()}",
        )
        for p in (2, 3):
            rep_p = reduce_mod(chain.model.rep, p)
            points = enumerate_submodules(rep_p, target)
            _expect(
                len(points) == 1,
                notes,
                f"{len(points)} submodules at {vt} over the field with {p} elements",
            )
            if len(points) == 1:
                red = reduce_subrep(chain.stages[-1], rep_p)
                _expect(
                    red.key() == points[0].key(),
                    notes,
                    f"rational witness at {vt} does not reduce to the unique point mod {p}",
                )
    return notes


# -- criterion 4: chain stages and nesting -------------------------------------

def _criterion_demazure_chain() -> list:
    notes: list = []
    q = line_quiver(2)
    w = {"1": 1, "2": 1}
    chain_a = demazure_module(q, w, ("1", "2", "1"))
    stage_dims = tuple(tuple(d[v] for v in q.vertices) for d in chain_a.dim_targets)
    _expect(
        stage_dims == ((0, 0), (1, 0), (1, 2), (2, 2)),
        notes,
        f"stage dims along the first word are {stage_dims}",
    )
    chain_b = demazure_module(q, w, ("2", "1", "2"))
    _expect(
        chain_a.stages[-1].key() == chain_b.stages[-1].key(),
        notes,
        "the two longest words end at different subspaces",
    )
    _expect(
        bruhat_leq(q, (), ("1",))
        and bruhat_leq(q, ("1",), ("1", "2", "1"))
        and not bruhat_leq(q, ("1", "2", "1"), ("1",)),
        notes,
        "order sanity anchors failed",
    )
    words = [(), ("1",), ("2", "1"), ("1", "2", "1"), ("2",), ("1", "2"), ("2", "1", "2")]
    chains = {wd: demazure_module(q, w, wd) for wd in words}
    compared = 0
    for lo in words:
        for hi in words:
            if bruhat_leq(q, lo, hi):
                compared += 1
                _expect(
                    check_nesting(chains[lo], chains[hi]),
                    notes,
                    f"stage of {lo} does not sit inside stage of {hi}",
                )
    _expect(compared > len(words), notes, "no nontrivial comparable pairs found")
    return notes


# -- criterion 5: count polynomials meet the multiplicity recursion -----------

def _criterion_count_polynomial() -> list:
    notes: list = []
    q = line_quiver(2)
    w = {"1": 1, "2": 1}
    v = {"1": 1, "2": 1}
    poly = count_polynomial(q, w, v, (2, 3, 5))
    _expect(
        len(poly.consistency_primes) >= 1,
        notes,
        "no spare prime certified the interpolation",
    )
    for p, cnt in poly.counts:
        val = sum(c * p**k for k, c in enumerate(poly.coeffs))
        _expect(val == cnt, notes, f"polynomial misses the count at {p}: {val} vs {cnt}")
    _expect(poly.chi == sum(poly.coeffs), notes, "reported euler number is not the value at 1")
    mult = weight_multiplicity(q, w, v)
    _expect(
        mult == 2 and poly.coeffs[-1] == 2,
        notes,
        f"leading coefficient {poly.coeffs[-1]} vs multiplicity {mult} (wanted 2)",
    )
    line = line_quiver(1)
    poly1 = count_polynomial(line, {"1": 2}, {"1": 1}, (2, 3, 5))
    _expect(
        tuple(poly1.coeffs) == (1, 1),
        notes,
        f"rank-one polynomial has coefficients {poly1.coeffs}, wanted 1 + q",
    )
    _expect(poly1.chi == 2, notes, f"rank-one euler number is {poly1.chi}")
    mult1 = weight_multiplicity(line, {"1": 2}, {"1": 1})
    _expect(
        poly1.coeffs[-1] == 1 == mult1,
        notes,
        f"rank-one leading coefficient {poly1.coeffs[-1]} vs multiplicity {mult1}",
    )
    return notes


# -- criterion 6: minuscule integer realization --------------------------------

def _criterion_minuscule_realization() -> list:
    notes: list = []
    cases = (
        (line_quiver(2), (1, 0), 3),
        (line_quiver(3), (1, 0, 0), 4),
    )
    for q, w_tuple, total in cases:
        label = f"{len(q.vertices)} vertices"
        report = verify_sl2(q, dict(zip(q.vertices, w_tuple)))
        _expect(report.finite_regime, notes, f"[{label}] realization is not finite")
        for vt, mult in report.weight_dims:
            _expect(mult == 1, notes, f"[{label}] census multiplicity at {vt} is {mult}")
        _expect(
            report.total_points == report.total_dim == total,
            notes,
            f"[{label}] total points {report.total_points}, dimension "
            f"{report.total_dim}, wanted {total}",
        )
        _expect(
            report.passed,
            notes,
            f"[{label}] operator audit failed: {[it.name for it in report.items if not it.passed]}",
        )
    return notes


# -- criterion 7: rank-one fiber scalar ----------------------------------------

def _criterion_rank_one_fiber() -> list:
    notes: list = []
    report = verify_sl2(line_quiver(1), {"1": 2})
    _expect(
        any("vacuum" in it.name for it in report.items) and report.passed,
        notes,
        "vacuum scaling audit failed: "
        + "; ".join(f"{it.name}: {it.details}" for it in report.items if not it.passed),
    )
    return notes


# -- criterion 8: projective/injective duality ---------------------------------

def _is_hull_of(v_rep, model) -> bool:
    """Whether V is isomorphic to the hull `model.rep`, decided exactly.

    V must have the model's dimensions and a socle of its framing w. Then
    tau_v, the identity's rows at the pivot rows of V's canonical socle
    basis, is injective on the socle, and the unique map g: V -> model with
    pi·g = tau, checked against every arrow, is injective on the socle. A
    nonzero kernel would meet the socle, so g is injective, and with equal
    dimensions it is an isomorphism.
    """
    if v_rep.dims != model.rep.dims:
        return False
    soc = socle(v_rep)
    if soc.dims() != model.w:
        return False
    tau = {v: Mat.identity(v_rep.field, v_rep.dim(v)).take_rows(pivot_rows(soc.basis(v)))
           for v in v_rep.quiver.vertices}
    return extend_to_injective(v_rep, tau, model).injective


def _criterion_duality() -> list:
    notes: list = []
    q = line_quiver(2)
    theta = diagram_involution(q)
    _expect(theta == {"1": "2", "2": "1"}, notes, f"vertex involution is {theta}")
    for w_tuple in ((1, 0), (0, 1), (1, 1)):
        w = dict(zip(q.vertices, w_tuple))
        tw = apply_involution(q, theta, w)
        _expect(
            _is_hull_of(projective_sum(q, w), injective_hull(q, tw)),
            notes,
            f"projective sum at {w_tuple} is not isomorphic to the twisted hull",
        )
        model = injective_hull(q, w)
        dims = model.rep.dims
        twisted_proj = projective_sum(q, tw)
        reduced = [(p, reduce_mod(model.rep, p), reduce_mod(twisted_proj, p)) for p in (2, 3)]
        for u1 in range(dims["1"] + 1):
            for u2 in range(dims["2"] + 1):
                u = {"1": u1, "2": u2}
                comp = {x: dims[x] - u[x] for x in q.vertices}
                for p, hull_p, proj_p in reduced:
                    lhs = len(enumerate_submodules(hull_p, u))
                    rhs = tilde_count(proj_p, comp)
                    _expect(
                        lhs == rhs,
                        notes,
                        f"counts at {w_tuple}, u=({u1},{u2}), p={p}: {lhs} vs {rhs}",
                    )
    return notes


# -- criterion 9: unique extension and projection independence -----------------

def _rand_entries(rng, rows, cols, bound=2):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _rand_mat(rng, rows, cols, bound=2):
    return Mat.from_rows(QQ, _rand_entries(rng, rows, cols, bound), cols)


def _rand_invertible(rng, n):
    lower = Mat.identity(QQ, n)
    upper = Mat.identity(QQ, n)
    for r in range(n):
        for c in range(n):
            if r > c:
                lower.a[r][c] = QQ.of(rng.randint(-2, 2))
            elif r < c:
                upper.a[r][c] = QQ.of(rng.randint(-2, 2))
    return lower @ upper


def _inv(m: Mat) -> Mat:
    """M^-1, read off the canonical basis of span([M; I]), which is [I; M^-1]."""
    n = m.rows
    b = col_space(Mat(m.field, 2 * n, n, m.a + Mat.identity(m.field, n).a))
    if pivot_rows(b) != list(range(n)):
        raise ValueError("matrix is not invertible")
    return b.take_rows(range(n, 2 * n))


def _random_nilpotent_rep(rng, vertex_count: int):
    base = line_quiver(vertex_count)
    dq = double(base)
    while True:
        dims = {v: rng.randint(0, 3) for v in dq.vertices}
        if 1 <= sum(dims.values()) <= 6:
            break
    maps = {}
    for a in base.arrows:
        maps[a.name] = _rand_mat(rng, dims[a.dst], dims[a.src])
    plain = make_rep(QQ, dq, dims, maps)
    g = {v: _rand_invertible(rng, dims[v]) for v in dq.vertices}
    g_inv = {v: _inv(g[v]) for v in dq.vertices}
    # The sample is zero on every bar arrow, so the relation holds for any
    # g_inv; only this check sees a wrong inverse.
    if any(g[v] @ g_inv[v] != Mat.identity(QQ, dims[v]) for v in dq.vertices):
        raise InternalCheckError("a random twist and its computed inverse do not multiply to I")
    twisted = {
        a.name: g[a.dst] @ plain.map(a.name) @ g_inv[a.src] for a in dq.arrows
    }
    return make_rep(QQ, dq, dims, twisted)


def _tau_injective_on_socle(tau: dict, soc) -> bool:
    return all(
        rank(tau[v] @ soc.basis(v)) == soc.basis(v).cols for v in tau
    )


def _admissible_random_projection(rng, model) -> dict:
    out = {}
    for v in model.quiver.vertices:
        p = model.pi[v]
        keep = set(model.socle_cols[v])
        entries = [
            [
                p.a[r][c] if c in keep else QQ.of(rng.randint(-2, 2))
                for c in range(p.cols)
            ]
            for r in range(p.rows)
        ]
        out[v] = Mat.from_rows(QQ, entries, p.cols)
    return out


def _check_one_extension(rng, notes, v_rep, soc, tau, model, tag):
    """Solve, then verify the defining equations and projection independence;
    soc is the socle of v_rep.

    Returns the solver's injectivity verdict so the caller can tally branches.
    """
    res = extend_to_injective(v_rep, tau, model)
    for a in v_rep.quiver.arrows:
        lhs = res.gamma[a.dst] @ v_rep.map(a.name)
        rhs = model.rep.map(a.name) @ res.gamma[a.src]
        _expect(lhs == rhs, notes, f"{tag}: solution is not a module map at {a.name}")
    for v in model.quiver.vertices:
        _expect(
            model.pi[v] @ res.gamma[v] == tau[v],
            notes,
            f"{tag}: projection equation fails at vertex {v}",
        )
    _expect(
        res.injective == _tau_injective_on_socle(tau, soc),
        notes,
        f"{tag}: injectivity verdict disagrees with the socle restriction",
    )
    # independence of the projection: the two solutions are linked by the
    # unique socle-fixing automorphism carrying one projection to the other
    pi2 = _admissible_random_projection(rng, model)
    model2 = model.with_projection(pi2)
    res2 = extend_to_injective(v_rep, tau, model2)
    auto = extend_to_injective(model.rep, pi2, model)
    _expect(auto.injective, notes, f"{tag}: connecting map is not invertible")
    for v in model.quiver.vertices:
        gm = auto.gamma[v]
        for j, c in enumerate(model.socle_cols[v]):
            column = [gm.a[r][c] for r in range(gm.rows)]
            want = [QQ.one if r == c else QQ.zero for r in range(gm.rows)]
            _expect(
                column == want,
                notes,
                f"{tag}: connecting map moves the socle at vertex {v}",
            )
        _expect(
            gm @ res2.gamma[v] == res.gamma[v],
            notes,
            f"{tag}: solutions for the two projections are not conjugate at {v}",
        )
        _expect(
            rank(res.gamma[v]) == rank(res2.gamma[v]),
            notes,
            f"{tag}: image rank depends on the projection at {v}",
        )
    _expect(
        res2.injective == res.injective,
        notes,
        f"{tag}: injectivity verdict depends on the projection",
    )
    return res.injective


def _socle_annihilator_rows(soc, v: str) -> Mat:
    return kernel(soc.basis(v).t()).t()


def _criterion_unique_extension() -> list:
    notes: list = []
    rng = random.Random(_SEED)
    injective_hits = 0
    non_injective_hits = 0
    for draw in range(50):
        vertex_count = 2 if draw % 2 == 0 else 3
        v_rep = _random_nilpotent_rep(rng, vertex_count)
        _expect(is_nilpotent(v_rep), notes, f"draw {draw}: sample is not nilpotent")
        soc = socle(v_rep)
        soc_dims = soc.dims()
        verts = list(v_rep.quiver.vertices)
        if draw < 25:
            # framing dominates the socle and tau is pinned injective there
            w = {v: soc_dims[v] + rng.randint(0, 1) for v in verts}
            model = injective_hull(line_quiver(vertex_count), w)
            tau = {}
            for v in verts:
                basis = soc.basis(v)
                base = [[QQ.zero] * v_rep.dim(v) for _ in range(w[v])]
                for j, prow in enumerate(pivot_rows(basis)):
                    base[j][prow] = QQ.one
                noise_span = _socle_annihilator_rows(soc, v)
                tau_v = Mat.from_rows(QQ, base, v_rep.dim(v))
                if noise_span.rows:
                    tau_v = tau_v + _rand_mat(rng, w[v], noise_span.rows) @ noise_span
                tau[v] = tau_v
        else:
            # the framing misses a socle vertex, so tau cannot be injective
            candidates = [v for v in verts if soc_dims[v] > 0]
            starved = rng.choice(candidates)
            w = {v: (0 if v == starved else rng.randint(1, 2)) for v in verts}
            model = injective_hull(line_quiver(vertex_count), w)
            tau = {v: _rand_mat(rng, w[v], v_rep.dim(v), 3) for v in verts}
        injective = _check_one_extension(rng, notes, v_rep, soc, tau, model, f"draw {draw}")
        if injective:
            injective_hits += 1
        else:
            non_injective_hits += 1
        if notes:
            break
    _expect(
        injective_hits >= 10 and non_injective_hits >= 10,
        notes,
        f"branch balance {injective_hits}/{non_injective_hits} (need 10 each)",
    )
    # literal image independence where the socle restriction is onto: the
    # image of every extension of the same socle map is the same subspace.
    # Two extensions differ by a socle-fixing automorphism 1 + psi, and psi
    # maps into the socle only at Loewy length 2 (A2).  The last four draws,
    # on A3 hulls where a closure can grow, check only the inclusion.
    grown = 0
    for draw in range(16):
        q = line_quiver(2 if draw < 12 else 3)
        w = {v: rng.randint(1, 2) for v in q.vertices}
        model = injective_hull(q, w)
        rep = model.rep
        gens = {}
        for v in rep.quiver.vertices:
            cols = []
            for c in model.socle_cols[v]:
                cols.append([QQ.one if r == c else QQ.zero for r in range(rep.dim(v))])
            gens[v] = cols
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(list(rep.quiver.vertices))
            gens[v].append([QQ.of(rng.randint(-2, 2)) for _ in range(rep.dim(v))])
        full_socle_sub = sub_generated(rep, gens)
        grown += any(
            full_socle_sub.basis(v).cols > rank(Mat.from_rows(QQ, gens[v], rep.dim(v)))
            for v in rep.quiver.vertices
        )
        inner = restrict(rep, full_socle_sub)
        tau = {
            v: model.pi[v] @ full_socle_sub.basis(v) for v in rep.quiver.vertices
        }
        baseline = extend_to_injective(inner, tau, model)
        _expect(baseline.injective, notes, f"image draw {draw}: socle map not injective")
        variants = [baseline]
        if draw < 12:
            soc_inner = socle(inner)
            pi2 = _admissible_random_projection(rng, model)
            variants.append(extend_to_injective(inner, tau, model.with_projection(pi2)))
            tau_shift = {}
            for v in rep.quiver.vertices:
                ann = _socle_annihilator_rows(soc_inner, v)
                delta = (
                    _rand_mat(rng, w[v], ann.rows) @ ann
                    if ann.rows
                    else Mat.zeros(QQ, w[v], inner.dim(v))
                )
                _expect(
                    (delta @ soc_inner.basis(v)).is_zero(),
                    notes,
                    f"image draw {draw}: shift does not vanish on the socle",
                )
                tau_shift[v] = tau[v] + delta
            variants.append(extend_to_injective(inner, tau_shift, model))
        for k, variant in enumerate(variants):
            for v in rep.quiver.vertices:
                _expect(
                    col_space(variant.gamma[v]) == full_socle_sub.basis(v),
                    notes,
                    f"image draw {draw}, variant {k}: image differs at vertex {v}",
                )
        if notes:
            break
    _expect(grown >= 1, notes, "no image draw closes its generators into a larger span")
    return notes


# -- criterion 10: restriction compatibility -----------------------------------

def _criterion_restriction() -> list:
    notes: list = []
    q = line_quiver(2)
    w = {"1": 1, "2": 0}
    word = ("1", "2", "1")
    for k in range(len(word) + 1):
        segment = word[len(word) - k :]
        _expect(
            restricted_compat(q, w, segment),
            notes,
            f"restricted operators disagree along {segment}",
        )
    return notes


# -- criterion 11: chevalley comparison ----------------------------------------

def _criterion_chevalley() -> list:
    notes: list = []
    report = chevalley_compare(line_quiver(2), {"1": 1, "2": 0})
    _expect(
        report.passed,
        notes,
        f"failed items: {[it.name for it in report.items if not it.passed]}",
    )
    _expect(report.pair_count == 3, notes, f"paired {report.pair_count} points, wanted 3")
    return notes


# -- criterion 12: graded decomposition ----------------------------------------

def _criterion_graded_decomposition() -> list:
    notes: list = []
    q = line_quiver(2)
    model = injective_hull(q, {"1": 1, "2": 1})
    grading = eigen_grading(model, identity_framing(model), 2)
    for v in model.quiver.vertices:
        values = [Fraction(lam) for lam, _ in grading[v]]
        _expect(
            values == [Fraction(1), Fraction(2)],
            notes,
            f"layer scalars at vertex {v} are {values}",
        )
    # arrows drop the degree by exactly one layer (socle layer maps to zero)
    z = Fraction(grading.z)
    for a in model.quiver.arrows:
        for lam, basis in grading[a.src]:
            image = model.rep.map(a.name) @ basis
            target = Fraction(lam) * z ** (-(grading.weights[a.name] + 1))
            hits = [b for l2, b in grading[a.dst] if Fraction(l2) == target]
            if hits:
                _expect(
                    subspace_contains(hits[0], col_space(image)),
                    notes,
                    f"arrow {a.name} leaves the next-lower layer",
                )
            else:
                _expect(
                    image.is_zero(),
                    notes,
                    f"arrow {a.name} does not kill the bottom layer",
                )
    slots = [(v, k) for v in model.quiver.vertices for k in range(len(grading[v]))]
    sizes = {
        (v, k): basis.cols
        for v in model.quiver.vertices
        for k, (_, basis) in enumerate(grading[v])
    }
    for p in (3, 5):
        rep_p = reduce_mod(model.rep, p)
        fp = rep_p.field
        layers_p = {
            v: [col_space(mat_over(fp, basis)) for _, basis in grading[v]]
            for v in model.quiver.vertices
        }
        for choice in itertools.product(*(range(sizes[s] + 1) for s in slots)):
            d = {s: c for s, c in zip(slots, choice) if c}
            found = graded_submodules(model, grading, d, p)
            if not d:
                _expect(
                    len(found) == 1 and found[0].total_dim() == 0,
                    notes,
                    f"empty character wants exactly the zero submodule mod {p}",
                )
            if all(c == sizes[s] for s, c in zip(slots, choice)):
                _expect(
                    len(found) == 1 and found[0].total_dim() == model.rep.total_dim(),
                    notes,
                    f"full character wants exactly the whole module mod {p}",
                )
            for sub in found:
                for v in model.quiver.vertices:
                    parts = [
                        subspace_intersect(sub.basis(v), layer)
                        for layer in layers_p[v]
                    ]
                    together = Mat.zeros(fp, rep_p.dim(v), 0)
                    for part in parts:
                        together = together.hstack(part)
                    _expect(
                        sum(part.cols for part in parts) == sub.basis(v).cols
                        and col_space(together) == sub.basis(v),
                        notes,
                        f"a graded submodule is not the sum of its layer cuts at {v} mod {p}",
                    )
    return notes


# -- the battery ----------------------------------------------------------------

_TABLE = (
    (1, "preprojective dimension table", _criterion_preprojective_dims),
    (2, "injective hull socle signature", _criterion_hull_signature),
    (3, "extremal submodule uniqueness", _criterion_extremal_uniqueness),
    (4, "demazure chain stages and nesting", _criterion_demazure_chain),
    (5, "count polynomial multiplicity bridge", _criterion_count_polynomial),
    (6, "minuscule operator realization", _criterion_minuscule_realization),
    (7, "rank one fiber scalar", _criterion_rank_one_fiber),
    (8, "projective injective duality", _criterion_duality),
    (9, "unique extension and projection independence", _criterion_unique_extension),
    (10, "restriction compatibility", _criterion_restriction),
    (11, "chevalley comparison", _criterion_chevalley),
    (12, "graded decomposition", _criterion_graded_decomposition),
)

CRITERION_NUMBERS = tuple(number for number, _, _ in _TABLE)


def run_criterion(number: int) -> CheckResult:
    """Run one numbered criterion; unexpected errors become failures."""
    for num, name, fn in _TABLE:
        if num == number:
            try:
                failures = fn()
            except Exception as exc:  # noqa: BLE001 - report, never crash the battery
                return CheckResult(num, name, False, f"unexpected error: {exc!r}")
            return CheckResult(num, name, not failures, "; ".join(failures))
    raise ValueError(f"no criterion numbered {number}")


def run_suite() -> list:
    return [run_criterion(number) for number in CRITERION_NUMBERS]


def format_result(result: CheckResult) -> str:
    mark = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number:02d} {mark} {result.name}"
    if result.details:
        line += f" -- {result.details}"
    return line
