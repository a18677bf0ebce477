"""Integer raising/lowering/torus matrices on finite grassmannian point sets.

When every nonempty submodule stratum of a hull truncation is a single
point, delta functions on those points carry an exact Lie-algebra action: the
raising and lowering matrices have a 1 exactly at nested point pairs whose
dimension vectors differ by one vertex, and the torus operator is diagonal
with entries given by the framing minus the Cartan pairing.  Fiber Euler
numbers are interpolated from prime-field counts, restriction to a chain stage
is compared against extension by zero, and the codimension bijection between
a framing and its diagram twist swaps raising with lowering while negating the
torus.

Every point comes from `demazure`'s orbit walk (`_extremal_points`), one
`extend_step` from its shortest word's parent: a weight is finite only when
it holds that one point, or none.  No other weight can be finite.
Gr_v(I(w)) is the lagrangian L(v, w), of pure dimension ½((λ,λ) − (μ,μ)),
which in finite type is zero exactly on the extremal weights W·λ; elsewhere
a nonempty stratum is positive-dimensional, whatever its count at the test
primes.
"""

from __future__ import annotations

from typing import NamedTuple

from .demazure import _as_word, _extremal_points, _walk
from .errors import (
    InternalCheckError,
    NotFiniteRegimeError,
    TruncationTooSmallError,
    ValidationError,
)
from .fields import QQ
from .grassmann import (
    _certified_fit,
    _check_primes,
    _CountSetup,
    _next_prime,
    count_polynomial,
)
from .hull import InjectiveModel, injective_hull
from .linalg import pivot_rows, subspace_contains
from .quiver import Quiver, cartan_matrix
from .repmod import (
    Subrep,
    make_subrep,
    quotient,
    restrict,
    zero_subrep,
)
from .weyl import (
    _int_add,
    _int_identity,
    _int_mul,
    _int_sub,
    apply_involution,
    diagram_involution,
    dot_step,
    extremal_orbit,
    require_reduced,
    weight_census,
)


# -- realization skeleton ------------------------------------------------------

def _not_finite(model: InjectiveModel, msg: str) -> Exception:
    """The error for weights without a finite point list in `model`.

    A truncated hull of a Dynkin quiver is the full hull cut short, so
    raising the truncation is the remedy, as for `demazure_module`;
    otherwise the framing lies outside the finite regime.
    """
    if not model.full and cartan_matrix(model.base).kind == "finite":
        return TruncationTooSmallError(
            f"{msg}; the truncation is likely too small", suggested=2 * model.trunc
        )
    return NotFiniteRegimeError(msg)


class WeightStatus(NamedTuple):
    """Outcome of the finite-point test at one dimension vector."""

    dims: tuple
    counts: tuple
    points: tuple | None
    reason: str | None

    @property
    def finite(self) -> bool:
        return self.points is not None


class FiniteRealization(NamedTuple):
    """Per-weight point lists of the hull's submodule strata."""

    model: InjectiveModel
    w: dict
    statuses: dict

    @property
    def finite(self) -> bool:
        return all(st.finite for st in self.statuses.values())

    def weights(self) -> list:
        return sorted(self.statuses)

    def point_list(self) -> list:
        """All points as (dims tuple, Subrep), sorted by weight then basis."""
        bad = [vt for vt, st in self.statuses.items() if not st.finite]
        if bad:
            raise _not_finite(
                self.model,
                "no finite point list at dimension vectors "
                + ", ".join(str(v) for v in sorted(bad)),
            )
        out = []
        for vt in self.weights():
            for pt in sorted(self.statuses[vt].points, key=lambda s: s.key()):
                out.append((vt, pt))
        return out


class VertexOperators(NamedTuple):
    """Raising, lowering, and torus matrices at one vertex."""

    raising: tuple
    lowering: tuple
    torus: tuple


class CheckItem(NamedTuple):
    name: str
    passed: bool
    details: str = ""


class Sl2Report(NamedTuple):
    finite_regime: bool
    items: tuple
    weight_dims: tuple
    total_dim: int
    total_points: int | None

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


class ChevalleyReport(NamedTuple):
    items: tuple
    pair_count: int

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


# -- point containment and operator assembly -----------------------------------

def _point_contained(small: Subrep, big: Subrep) -> bool:
    verts = small.ambient.quiver.vertices
    return all(subspace_contains(big.basis(v), small.basis(v)) for v in verts)


def _vertex_operators(q: Quiver, w: dict, points: list) -> dict:
    """Assemble per-vertex operator triples on an ordered point list."""
    verts = list(q.vertices)
    cmat = cartan_matrix(q).matrix
    n = len(points)
    out = {}
    for a, i in enumerate(verts):
        diagonal = []
        for vr, _ in points:
            h = int(w.get(i, 0)) - sum(cmat[a][b] * vr[b] for b in range(len(verts)))
            # independent check through the reflection-step arithmetic
            vdict = {verts[b]: vr[b] for b in range(len(verts))}
            if dot_step(q, i, w, vdict)[i] - vr[a] != h:
                raise InternalCheckError(
                    "torus entry disagrees with the reflection step"
                )
            diagonal.append(h)
        raising = tuple(
            tuple(
                1
                if all(
                    vc[b] - vr[b] == (1 if b == a else 0)
                    for b in range(len(verts))
                )
                and _point_contained(pr, pc)
                else 0
                for vc, pc in points
            )
            for vr, pr in points
        )
        out[i] = VertexOperators(
            raising=raising,
            lowering=tuple(zip(*raising)),
            torus=tuple(
                tuple(h if r == c else 0 for c in range(n))
                for r, h in enumerate(diagonal)
            ),
        )
    return out


# -- finite-point detection ----------------------------------------------------

def finite_points(
    q: Quiver,
    w: dict,
    trunc: int | None = None,
    primes=(2, 3, 5),
    cap: int | None = None,
) -> FiniteRealization:
    """Per-weight finite rational point lists of the hull's submodule strata.

    A weight is in the finite regime when its prime-field counts agree across
    all test primes and are either 1 at an extremal weight, whose one point
    is the walk endpoint, or 0, with the empty list.  Every other weight
    carries a reason instead of a list.  The counts run on a set-up of this
    call's own model, so each prime's slots are built once.
    """
    plist = _check_primes(primes)
    model = injective_hull(q, w, trunc)
    census = weight_census(q, w)
    orbit = extremal_orbit(q, w)
    points = {vt: point for vt, _, point in _extremal_points(model, None)}
    verts = list(q.vertices)
    setup = _CountSetup(model.rep)
    statuses = {}
    for vt in sorted(census):
        vdict = dict(zip(verts, vt))
        counts = tuple((p, setup.count(p, vdict, cap)) for p in plist)
        values = {c for _, c in counts}
        if len(values) != 1:
            statuses[vt] = WeightStatus(
                vt, counts, None, "count varies across the test primes"
            )
            continue
        n = next(iter(values))
        if vt in orbit:
            if n != 1:
                statuses[vt] = WeightStatus(
                    vt,
                    counts,
                    None,
                    "prime count disagrees with the unique chain endpoint",
                )
                continue
            if vt not in points:
                raise _not_finite(model, "stage dims missed the target")
            statuses[vt] = WeightStatus(vt, counts, (points[vt],), None)
        elif n == 0:
            statuses[vt] = WeightStatus(vt, counts, (), None)
        else:
            statuses[vt] = WeightStatus(
                vt, counts, None, "nonzero count off the extremal orbit"
            )
    return FiniteRealization(model=model, w=dict(w), statuses=statuses)


def operator_matrices(real: FiniteRealization) -> dict:
    """Integer raising/lowering/torus matrices on the global point basis."""
    points = real.point_list()
    return _vertex_operators(real.model.base, real.w, points)


# -- fiber Euler numbers --------------------------------------------------------

def _interpolated_chi(rep, target: dict, bound: int, primes, cap) -> int:
    """Euler number as the value at one of the interpolated count polynomial."""
    plist = _check_primes(primes)
    while len(plist) < bound + 2:
        plist.append(_next_prime(plist[-1]))
    setup = _CountSetup(rep)
    counts = [(p, setup.count(p, target, cap)) for p in plist]
    return sum(_certified_fit(counts, bound))


def fiber_euler(
    u: Subrep,
    i: str,
    direction: str,
    primes=(2, 3, 5),
    cap: int | None = None,
) -> int:
    """Euler number of the one-step extensions above or inside a submodule.

    Going up counts lines of the vertex-i bottom layer of the quotient by u
    (submodules one vertex-i dimension larger); going down counts hyperplane
    kernels at vertex i inside u (submodules one dimension smaller).  Both
    are evaluated by interpolating prime-field counts and taking the value
    at one.
    """
    rep = u.ambient
    if rep.field != QQ:
        raise ValidationError("fiber evaluation needs a rational ambient module")
    if i not in rep.quiver.vertices:
        raise ValidationError(f"unknown vertex {i!r}")
    if direction == "up":
        quot, _ = quotient(rep, u)
        if quot.dims[i] == 0:
            return 0
        target = {x: (1 if x == i else 0) for x in rep.quiver.vertices}
        return _interpolated_chi(quot, target, quot.dims[i] - 1, primes, cap)
    if direction == "down":
        ucur = u.dims()
        if ucur[i] == 0:
            return 0
        inner = restrict(rep, u)
        target = {x: ucur[x] - (1 if x == i else 0) for x in rep.quiver.vertices}
        return _interpolated_chi(inner, target, ucur[i] - 1, primes, cap)
    raise ValidationError("direction must be 'up' or 'down'")


# -- consequence checks ----------------------------------------------------------

def _commutator(a: tuple, b: tuple) -> tuple:
    return _int_sub(_int_mul(a, b), _int_mul(b, a))


def verify_sl2(
    q: Quiver,
    w: dict,
    trunc: int | None = None,
    primes=(2, 3, 5),
    cap: int | None = None,
) -> Sl2Report:
    """Consequence checks for the operator action on the point realization.

    Always checks the leading-coefficient weight census against the
    multiplicity recursion and the vacuum scalar identity through fiber
    counts.  When every weight is in the finite regime, additionally checks
    the commutator table, the torus shift under raising, the adjacent-vertex
    nilpotency of repeated brackets, and the per-weight point census.
    The count polynomials reuse the counts of `finite_points`, so each
    weight is counted once per test prime.
    """
    plist = _check_primes(primes)
    real = finite_points(q, w, trunc, plist, cap)
    census = weight_census(q, w)
    verts = list(q.vertices)
    items = []

    mismatches = []
    for vt in sorted(census):
        vdict = dict(zip(verts, vt))
        poly = count_polynomial(q, w, vdict, plist, trunc, cap,
                                known_counts=dict(real.statuses[vt].counts))
        if poly.leading != census[vt]:
            mismatches.append(f"{vt}: {poly.leading} != {census[vt]}")
    items.append(
        CheckItem(
            "leading count coefficients match the multiplicity recursion",
            not mismatches,
            "; ".join(mismatches),
        )
    )

    vac_fail = []
    vacuum = zero_subrep(real.model.rep)
    for i in verts:
        chi = fiber_euler(vacuum, i, "up", plist, cap)
        if chi != int(w.get(i, 0)):
            vac_fail.append(f"{i}: {chi} != {w.get(i, 0)}")
    items.append(
        CheckItem(
            "raising after lowering scales the vacuum by the framing",
            not vac_fail,
            "; ".join(vac_fail),
        )
    )

    total_points = None
    if real.finite:
        points = real.point_list()
        total_points = len(points)
        ops = _vertex_operators(q, w, points)
        n = len(points)
        zero = _int_identity(n, 0)

        comm_fail = []
        for i in verts:
            for j in verts:
                comm = _commutator(ops[i].raising, ops[j].lowering)
                if comm != (ops[i].torus if i == j else zero):
                    comm_fail.append(f"({i},{j})")
        items.append(
            CheckItem(
                "raising/lowering commutators equal the torus table",
                not comm_fail,
                "; ".join(comm_fail),
            )
        )

        shift_fail = []
        for i in verts:
            lhs = _int_mul(ops[i].torus, ops[i].raising)
            rhs = _int_mul(
                ops[i].raising, _int_add(ops[i].torus, _int_identity(n, 2))
            )
            if lhs != rhs:
                shift_fail.append(i)
        items.append(
            CheckItem(
                "raising shifts the torus eigenvalue by two",
                not shift_fail,
                "; ".join(shift_fail),
            )
        )

        cmat = cartan_matrix(q).matrix
        serre_fail = []
        for a, i in enumerate(verts):
            for b, j in enumerate(verts):
                if i == j:
                    continue
                power = 1 - cmat[a][b]
                for kind in ("raising", "lowering"):
                    acc = getattr(ops[j], kind)
                    for _ in range(power):
                        acc = _commutator(getattr(ops[i], kind), acc)
                    if acc != zero:
                        serre_fail.append(f"({i},{j},{kind})")
        items.append(
            CheckItem(
                "repeated brackets at distinct vertices vanish",
                not serre_fail,
                "; ".join(serre_fail),
            )
        )

        census_fail = []
        for vt in sorted(census):
            got = len(real.statuses[vt].points)
            if got != census[vt]:
                census_fail.append(f"{vt}: {got} != {census[vt]}")
        items.append(
            CheckItem(
                "points per weight match the multiplicity recursion",
                not census_fail,
                "; ".join(census_fail),
            )
        )

    return Sl2Report(
        finite_regime=real.finite,
        items=tuple(items),
        weight_dims=tuple((vt, census[vt]) for vt in sorted(census)),
        total_dim=sum(census.values()),
        total_points=total_points,
    )


# -- restriction compatibility ----------------------------------------------------

def restricted_compat(
    q: Quiver,
    w: dict,
    word,
    trunc: int | None = None,
    primes=(2, 3, 5),
    cap: int | None = None,
) -> bool:
    """Whether chain-stage operators equal extension-by-zero restrictions.

    The point set of the chain stage is the ambient point subset it
    contains, re-expressed in stage coordinates: a contained point's rows at
    the stage basis's pivot rows, as `restrict` reads them. Its independently
    assembled operator matrices must equal the ambient matrices cut down to
    that subset.  The stage point census is certified against prime-field
    counts.
    """
    plist = _check_primes(primes)
    word = _as_word(q, word)
    require_reduced(q, word)
    real = finite_points(q, w, trunc, plist, cap)
    verts = list(q.vertices)
    hold = _walk(real.model, word).stages[-1]
    inner = restrict(real.model.rep, hold)

    amb_points = real.point_list()
    flags = [_point_contained(pt, hold) for _, pt in amb_points]
    sub_points = []
    for (vt, pt), inside in zip(amb_points, flags):
        if not inside:
            continue
        coords = {x: pt.basis(x).take_rows(pivot_rows(hold.basis(x))) for x in verts}
        sub_points.append((vt, make_subrep(inner, coords)))

    per_weight = {}
    for vt, _ in sub_points:
        per_weight[vt] = per_weight.get(vt, 0) + 1
    setup = _CountSetup(inner)
    for p in plist:
        for vt in real.weights():
            vdict = dict(zip(verts, vt))
            expected = per_weight.get(vt, 0)
            if setup.count(p, vdict, cap) != expected:
                raise InternalCheckError(
                    f"stage point census at {vt} disagrees with the count at {p}"
                )

    ops_amb = _vertex_operators(q, w, amb_points)
    ops_sub = _vertex_operators(q, w, sub_points)
    idx = [k for k, inside in enumerate(flags) if inside]
    for i in verts:
        for kind in ("raising", "lowering", "torus"):
            amb = getattr(ops_amb[i], kind)
            sub = getattr(ops_sub[i], kind)
            cut = tuple(
                tuple(amb[r][c] for c in idx) for r in idx
            )
            if cut != sub:
                return False
    return True


# -- involution comparison ---------------------------------------------------------

def chevalley_compare(
    q: Quiver,
    w: dict,
    trunc: int | None = None,
    primes=(2, 3, 5),
    cap: int | None = None,
) -> ChevalleyReport:
    """Compare the realizations of a framing and its diagram twist.

    Under the bijection sending a point to the partner of complementary
    dimension vector, raising and lowering matrices must swap and torus
    entries must negate.  Each weight of a finite realization carries at
    most one point, so the pairing is canonical.
    """
    plist = _check_primes(primes)
    perm = diagram_involution(q)
    tw = apply_involution(q, perm, w)
    real_w = finite_points(q, w, trunc, plist, cap)
    real_t = finite_points(q, tw, trunc, plist, cap)
    verts = list(q.vertices)

    for real, label in ((real_w, "framing"), (real_t, "twisted framing")):
        bad = [vt for vt, st in real.statuses.items() if not st.finite]
        if bad:
            raise _not_finite(
                real.model,
                f"{label}: no finite point list at "
                + ", ".join(str(v) for v in sorted(bad)),
            )

    vmax_w = tuple(real_w.model.rep.dims[x] for x in verts)
    vmax_t = tuple(real_t.model.rep.dims[x] for x in verts)
    if vmax_w != vmax_t:
        raise InternalCheckError(
            "the two hulls have different total dimension vectors"
        )
    vmax = vmax_w

    items = []
    occ_w = {vt for vt, st in real_w.statuses.items() if st.points}
    occ_t = {vt for vt, st in real_t.statuses.items() if st.points}
    complemented = {tuple(m - x for m, x in zip(vmax, vt)) for vt in occ_w}
    items.append(
        CheckItem(
            "occupied weights correspond under complementation",
            occ_t == complemented,
            f"{sorted(occ_t)} vs {sorted(complemented)}",
        )
    )

    pts_w = real_w.point_list()
    pts_t = real_t.point_list()
    pos_t = {vt: k for k, (vt, _) in enumerate(pts_t)}
    pairing = []
    for vt, _ in pts_w:
        comp = tuple(m - x for m, x in zip(vmax, vt))
        pairing.append(pos_t.get(comp))
    if any(k is None for k in pairing):
        items.append(CheckItem("every point has a partner", False, ""))
        return ChevalleyReport(items=tuple(items), pair_count=len(pts_w))

    ops_w = _vertex_operators(q, w, pts_w)
    ops_t = _vertex_operators(q, tw, pts_t)
    n = len(pts_w)

    swap_fail = []
    for i in verts:
        for r in range(n):
            for c in range(n):
                if (
                    ops_w[i].raising[r][c]
                    != ops_t[i].lowering[pairing[r]][pairing[c]]
                    or ops_w[i].lowering[r][c]
                    != ops_t[i].raising[pairing[r]][pairing[c]]
                ):
                    swap_fail.append(f"{i}[{r}][{c}]")
    items.append(
        CheckItem(
            "raising and lowering swap under the pairing",
            not swap_fail,
            "; ".join(swap_fail[:8]),
        )
    )

    torus_fail = []
    for i in verts:
        for r in range(n):
            if ops_t[i].torus[pairing[r]][pairing[r]] != -ops_w[i].torus[r][r]:
                torus_fail.append(f"{i}[{r}]")
    items.append(
        CheckItem(
            "torus entries negate under the pairing",
            not torus_fail,
            "; ".join(torus_fail),
        )
    )

    reversal_fail = []
    for i in verts:
        diag_w = [ops_w[i].torus[r][r] for r in range(n)]
        diag_t = [ops_t[i].torus[r][r] for r in range(n)]
        if diag_t != [-h for h in reversed(diag_w)]:
            reversal_fail.append(i)
    items.append(
        CheckItem(
            "torus eigenvalue lists negate and reverse",
            not reversal_fail,
            "; ".join(reversal_fail),
        )
    )

    return ChevalleyReport(items=tuple(items), pair_count=n)
