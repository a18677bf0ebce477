"""Exhaustive submodule enumeration over prime fields and count interpolation.

One recursion, `_leaves`, enumerates submodule grassmannians slot by slot
through Gaussian cells: a slot is a vertex, or a (vertex, layer) pair for a
graded enumeration.  Placing a slot bounds each unplaced neighbour: an arrow
out of it bounds the neighbour from below by the image of its choice, an
arrow into it bounds the neighbour from above by the preimage of its choice.
So every arrow is imposed once, at whichever end is placed later.  Plain and
graded enumeration and plain counting all run on it; counting keeps no list.

Branching rule: at each node, an unplaced slot of target dimension k has
[dim hi - dim lo, k - dim lo]_p cells between its bounds lo and hi.  A slot
with no cell prunes the node at once.  Otherwise the walk branches on the
slot with the fewest cells among those still joined by an arrow to another
unplaced slot, the first in slot order on ties, so the walk is deterministic.
(Placing any other slot would move no bound, so it could prune nothing.)

Free-remainder rule: the walk stops once no arrow joins two unplaced slots.
Every arrow at an unplaced slot then ends at a placed slot and is already
imposed by the unplaced slot's bounds, and quivers have no loops, so no slot
constrains itself: the unplaced slots' cells are independent, and any choice
of one cell per slot is arrow-closed.  `_leaves` yields the placed choices
with the remainder's bounds.  Enumeration expands the remainder as a product
of cells and still runs `check_closure` on every submodule it returns.
Counting adds the product of the remainder's Gaussian binomials and runs no
closure re-check: by the two rules every arrow is imposed, at its later end
or at the remainder slot's bound.

The cap counts the cells `_cells_between` walks: those of every branching
slot and, when enumerating, those of each remainder slot.  A remainder
counted in closed form walks no cell and is not charged.

Invariant: every bound, choice and cell the walk holds is a
`linalg.Subspace`, canonical by construction: the bounds come from
`Subspace.whole`, `extend` and `meet_preimage`, and `_cells_between` builds
each cell by `Subspace.merge` of two canonical column sets with disjoint
pivot rows, with no elimination.  Arrow maps enter as their
`sparse_columns`, split once per enumeration.  A leaf becomes a `Mat` only
where a `Subrep` is built, and `Subspace.to_mat` is the basis `col_space`
gives, so `Subrep.key()` and the output order do not depend on the walk.

Point counts at several primes feed a Lagrange interpolation whose value at
1 is the Euler characteristic; every interpolation is certified at an extra
prime.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .errors import (
    BadPrimeError,
    CapExceededError,
    InternalCheckError,
    InterpolationInconsistentError,
    ValidationError,
)
from .fields import PrimeField, is_prime
from .hull import Grading, InjectiveModel, injective_hull
from .linalg import Subspace, _image, mat_over, sparse_columns
from .quiver import Quiver, cartan_matrix
from .repmod import (
    Rep,
    Subrep,
    check_closure,
    is_nilpotent,
    quotient,
    reduce_mod,
)

DEFAULT_CANDIDATE_CAP = 10_000_000


# -- subspace cells -----------------------------------------------------------

def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_p."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    if num % den:
        raise InternalCheckError(f"gaussian binomial [{n} {k}]_{p} is not integral")
    return num // den


def subspace_cells(span: Subspace, k: int):
    """Yield every k-dimensional subspace of span(span) once, canonical.

    A cell takes k of span's columns as pivot columns, in increasing order,
    and adds to each any combination of the later columns not taken.  Span's
    columns are zero above their pivots and at each other's, so the result
    has its leading 1s at the taken columns' pivots and is zero at the other
    taken pivots: canonical, and each subspace appears exactly once.
    """
    m = len(span.piv)
    if k < 0 or k > m:
        return
    p = span.field.p
    cols = span.cols
    for taken in combinations(range(m), k):
        free = [(t, f) for t, j in enumerate(taken) for f in range(j + 1, m) if f not in taken]
        piv = tuple(span.piv[j] for j in taken)
        for vals in product(range(p), repeat=len(free)):
            out = [cols[j] for j in taken]
            for (t, f), a in zip(free, vals):
                if a:
                    out[t] = [(x + a * y) % p for x, y in zip(out[t], cols[f])]
            yield Subspace(span.field, span.n, piv, tuple(out))


def _cells_between(lower: Subspace, upper: Subspace, k: int, counter: list, cap: int):
    """Yield the k-dimensional subspaces W with lower <= W <= upper.

    span(lower) must lie inside span(upper), so lower's pivots are among
    upper's.  Upper's columns at the other pivots are canonical and zero at
    lower's pivots, and so is every cell of their span, which
    `Subspace.merge` joins to lower with no elimination.
    The cap is charged for the whole cell before the first yield.
    """
    l, m = len(lower.piv), len(upper.piv)
    if k < l or k > m:
        return
    field = upper.field
    count = gaussian_binomial(m - l, k - l, field.p)
    if counter[0] + count > cap:
        raise CapExceededError(
            f"candidate count {counter[0] + count} exceeds the cap {cap}",
            candidates=counter[0] + count,
        )
    counter[0] += count
    comp = [(q, c) for q, c in zip(upper.piv, upper.cols) if q not in lower.piv]
    span = Subspace(field, upper.n, tuple(q for q, _ in comp), tuple(c for _, c in comp))
    for s in subspace_cells(span, k - l):
        yield lower.merge(s)


def _slot_cells(slot, lo: Subspace, hi: Subspace, k: int, counter: list, cap: int):
    """`_cells_between(lo, hi, k, counter, cap)` at one slot.

    A cap overflow is raised again naming the slot and its branching [n k]_p.
    """
    cells = _cells_between(lo, hi, k, counter, cap)
    try:
        first = next(cells, None)
    except CapExceededError as exc:
        raise CapExceededError(
            f"{exc} at slot {slot!r}, branching "
            f"[{len(hi.piv) - len(lo.piv)} {k - len(lo.piv)}]_{hi.field.p}",
            candidates=exc.candidates,
            slot=slot,
        ) from None
    if first is not None:
        yield first
        yield from cells


# -- submodule enumeration ----------------------------------------------------

def _leaves(upper: dict, incoming: dict, outgoing: dict, target: dict, counter: list, cap: int):
    """Yield (placed, remainder) for every arrow-closed choice at the branched slots.

    `upper` maps each slot, in slot order, to its starting upper bound (a
    `Subspace`) and `target` to its dimension.  `incoming[s]` and
    `outgoing[s]` list (map, slot) pairs for the arrows ending and starting
    at s, each map as its `sparse_columns`.  `placed` maps each branched
    slot to its chosen `Subspace`, and `remainder` lists (slot, lo, hi) for
    the slots left unplaced.

    Placing a slot moves each unplaced neighbour's bounds: its lower bound
    takes in the image of the choice, its upper bound is cut to the
    preimage.  So each arrow is imposed once, when its earlier end is
    placed, on its later end.  Branching rule: a node where some unplaced
    slot has no cell between its bounds is pruned; otherwise the walk
    branches on the slot with the fewest cells among those joined by an
    arrow to another unplaced slot, the first in slot order on ties.
    Free-remainder rule: when no arrow joins two unplaced slots the walk
    stops.  Every arrow at a remainder slot then ends at a placed slot and
    is imposed by the remainder slot's bounds, and no slot constrains itself
    (quivers have no loops), so the remainder's cells are independent, each
    slot has at least one, and every product of them is arrow-closed: a
    count needs no closure re-check.  `counter` and `cap` are charged for
    the cells of every branching slot.
    """
    # The walk's state maps each unplaced slot to (lo, hi, its cell count).
    links = {s: {t for _, t in incoming[s] + outgoing[s]} for s in upper}
    chosen: dict = {}

    def cells(s, lo: Subspace, hi: Subspace) -> int:
        if lo.piv and not hi.contains(lo):
            return 0
        return gaussian_binomial(len(hi.piv) - len(lo.piv), target[s] - len(lo.piv), hi.field.p)

    def place(rest: dict, s, w: Subspace) -> dict | None:
        """The bounds in `rest` once s holds w, or None if a slot has no cell."""
        new = dict(rest)
        for xcols, t in outgoing[s]:
            if t in rest:
                lo, hi, _ = new[t]
                lo = lo.extend(_image(xcols, lo.n, w.cols))
                if len(lo.piv) > target[t]:
                    return None  # no cell fits; skip the costlier upper bounds
                new[t] = (lo, hi, None)
        for xcols, t in incoming[s]:
            if t in rest:
                lo, hi, _ = new[t]
                hi = hi.meet_preimage(xcols, w)
                if len(hi.piv) < target[t]:
                    return None
                new[t] = (lo, hi, None)
        for t, (lo, hi, n) in new.items():
            if n is None:
                n = cells(t, lo, hi)
                if not n:
                    return None
                new[t] = (lo, hi, n)
        return new

    def rec(bounds: dict):
        best = None
        for s, (_, _, n) in bounds.items():
            if (best is None or n < bounds[best][2]) and any(t in bounds for t in links[s]):
                best = s
        if best is None:
            yield dict(chosen), [(s, lo, hi) for s, (lo, hi, _) in bounds.items()]
            return
        lo, hi, _ = bounds[best]
        rest = {t: b for t, b in bounds.items() if t != best}
        for w in _slot_cells(best, lo, hi, target[best], counter, cap):
            new = place(rest, best, w)
            if new is not None:
                chosen[best] = w
                yield from rec(new)
        chosen.pop(best, None)

    start = {}
    for s, hi in upper.items():
        lo = Subspace(hi.field, hi.n)
        n = cells(s, lo, hi)
        if not n:
            return
        start[s] = (lo, hi, n)
    yield from rec(start)


def _expanded(upper: dict, incoming: dict, outgoing: dict, target: dict, cap: int):
    """Yield {slot: basis} for every arrow-closed choice of slot subspaces.

    Each remainder from `_leaves` is expanded as a product of its slots'
    cells, and the cap is charged for those cells too.
    """
    counter = [0]
    for placed, rest in _leaves(upper, incoming, outgoing, target, counter, cap):
        slots = [s for s, _, _ in rest]
        cells = [list(_slot_cells(s, lo, hi, target[s], counter, cap)) for s, lo, hi in rest]
        for combo in product(*cells):
            leaf = dict(placed)
            leaf.update(zip(slots, combo))
            yield leaf


def _check_dim_vector(v_rep: Rep, v: dict) -> dict:
    q = v_rep.quiver
    out = {}
    for key, val in (v or {}).items():
        if key not in q.vertices:
            raise ValidationError(f"unknown vertex {key!r} in dimension vector")
        if not isinstance(val, int) or val < 0:
            raise ValidationError(f"dimension at vertex {key!r} must be a non-negative integer")
    for u in q.vertices:
        out[u] = int((v or {}).get(u, 0))
    return out


def _vertex_slots(v_rep: Rep, v: dict) -> tuple:
    """(upper, incoming, outgoing, target) of `_leaves`, one slot per vertex."""
    field = v_rep.field
    if not isinstance(field, PrimeField):
        raise ValidationError("submodule enumeration requires a prime field")
    target = _check_dim_vector(v_rep, v)
    q = v_rep.quiver
    upper = {u: Subspace.whole(field, v_rep.dim(u)) for u in q.vertices}
    incoming: dict = {u: [] for u in q.vertices}
    outgoing: dict = {u: [] for u in q.vertices}
    for a in q.arrows:
        xcols = sparse_columns(v_rep.map(a.name))
        incoming[a.dst].append((xcols, a.src))
        outgoing[a.src].append((xcols, a.dst))
    return upper, incoming, outgoing, target


def _submodules(v_rep: Rep, v: dict, cap: int | None):
    """Yield each submodule of dims v as a closure-checked Subrep."""
    slots = _vertex_slots(v_rep, v)
    cap = DEFAULT_CANDIDATE_CAP if cap is None else int(cap)
    for leaf in _expanded(*slots, cap):
        s = Subrep(v_rep, {u: b.to_mat() for u, b in leaf.items()})
        check_closure(s)
        yield s


def enumerate_submodules(v_rep: Rep, v: dict, cap: int | None = None) -> list:
    """All arrow-closed subspaces of dims v, canonically ordered and validated."""
    out = list(_submodules(v_rep, v, cap))
    out.sort(key=lambda s: s.key())
    return out


def count_submodules(v_rep: Rep, v: dict, cap: int | None = None) -> int:
    """Number of arrow-closed subspaces of dims v, counted without a list.

    Each free remainder adds the product of its Gaussian binomials; no
    submodule is built and no closure is re-checked (see the module docstring).
    """
    upper, incoming, outgoing, target = _vertex_slots(v_rep, v)
    cap = DEFAULT_CANDIDATE_CAP if cap is None else int(cap)
    total = 0
    for _, rest in _leaves(upper, incoming, outgoing, target, [0], cap):
        n = 1
        for s, lo, hi in rest:
            l = len(lo.piv)
            n *= gaussian_binomial(len(hi.piv) - l, target[s] - l, hi.field.p)
        total += n
    return total


def tilde_count(v_rep: Rep, v: dict, cap: int | None = None) -> int:
    """Count submodules of codimension vector v whose quotient is nilpotent."""
    codim = _check_dim_vector(v_rep, v)
    target = {}
    for u in v_rep.quiver.vertices:
        d = v_rep.dim(u) - codim[u]
        if d < 0:
            return 0
        target[u] = d
    subs = enumerate_submodules(v_rep, target, cap)
    if is_nilpotent(v_rep):
        return len(subs)
    total = 0
    for s in subs:
        q_rep, _ = quotient(v_rep, s)
        if is_nilpotent(q_rep):
            total += 1
    return total


# -- point-count interpolation ------------------------------------------------

class CountPoly(NamedTuple):
    """Integer polynomial interpolating submodule counts over prime fields."""

    coeffs: tuple  # ascending degree
    primes_used: tuple
    consistency_primes: tuple
    counts: tuple  # ((prime, count), ...) over every prime touched

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def chi(self) -> int:
        return sum(self.coeffs)

    @property
    def leading(self) -> int:
        return self.coeffs[-1]


def _next_prime(n: int) -> int:
    """The least prime above n, chosen as a spare (consistency) prime."""
    m = n + 1
    try:
        while not is_prime(m):
            m += 1
    except ValidationError:
        raise ValidationError(
            f"cannot choose a spare (consistency) prime above {n}: "
            f"whether {m} is prime cannot be decided; pass one more prime"
        ) from None
    return m


def _lagrange(points: list) -> list:
    """Exact interpolation through (x, y) pairs; coefficients ascending."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == j:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xk
                new[d + 1] += c
            basis = new
            denom *= Fraction(xj - xk)
        scale = Fraction(yj) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return coeffs


def _certified_fit(counts: list, degree: int) -> tuple:
    """Integer coefficients, ascending, of the count polynomial; certified.

    `counts` lists (prime, count) pairs.  The first degree+1 fix the Lagrange
    polynomial, trailing zero coefficients are dropped, and the polynomial
    must have integer coefficients and take every listed count at its prime,
    the spare primes included; otherwise `InterpolationInconsistentError`
    carries the counts.
    """
    coeffs = _lagrange(counts[: degree + 1])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        raise InterpolationInconsistentError(
            "count not polynomial at tested degree", counts=counts
        )
    out = tuple(int(c) for c in coeffs)
    for p, n in counts:
        if sum(c * p**d for d, c in enumerate(out)) != n:
            raise InterpolationInconsistentError(
                "count not polynomial at tested degree", counts=counts
            )
    return out


def expected_dimension(q: Quiver, w: dict, v: dict) -> int:
    """The v.w - (1/2) v^T C v dimension bound used for interpolation degree."""
    c = cartan_matrix(q).matrix
    verts = list(q.vertices)
    vt = [int(v.get(x, 0)) for x in verts]
    wt = [int(w.get(x, 0)) for x in verts]
    dot = sum(a * b for a, b in zip(vt, wt))
    quad = sum(c[i][j] * vt[i] * vt[j] for i in range(len(verts)) for j in range(len(verts)))
    if quad % 2:
        raise InternalCheckError("v^T C v is odd; the Cartan matrix is not symmetric")
    return dot - quad // 2


def _check_primes(primes) -> list:
    """The primes as a sorted list of ints; at least one, distinct, all prime."""
    out = [int(p) for p in primes]
    if not out:
        raise ValidationError("at least one prime is required")
    if len(set(out)) != len(out):
        raise ValidationError("primes must be distinct")
    for p in out:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
    return sorted(out)


def interpolation_plan(q: Quiver, w: dict, v: dict, primes) -> tuple[list, list]:
    """Split the primes into interpolation and consistency lists.

    Validates and sorts the primes, derives the interpolation degree from the
    dimension bound, and appends one extra prime when none is left over for
    the consistency check.  `count_polynomial` uses exactly this plan, so a
    caller that wants to precompute per-prime counts (e.g. in parallel) can
    learn here which primes will be visited.
    """
    plist = _check_primes(primes)
    bound = max(expected_dimension(q, w, v), 0)
    if len(plist) < bound + 1:
        raise ValidationError(
            f"need at least {bound + 1} primes for interpolation degree {bound}"
        )
    interp = plist[: bound + 1]
    extras = plist[bound + 1 :]
    if not extras:
        extras = [_next_prime(plist[-1])]
    return interp, extras


def count_polynomial(
    q: Quiver,
    w: dict,
    v: dict,
    primes,
    trunc: int | None = None,
    cap: int | None = None,
    known_counts: dict | None = None,
) -> CountPoly:
    """Interpolate F_p submodule counts of the injective-hull truncation.

    The first degree+1 primes interpolate; every remaining prime (one is
    appended automatically if none is left) certifies the polynomial.
    `known_counts` is an optional {prime: count} cache consulted before
    counting; missing primes are still counted here, and every value feeds
    the same consistency certification either way.
    """
    model = injective_hull(q, w, trunc)
    interp, extras = interpolation_plan(model.base, w, v, primes)
    bound = len(interp) - 1
    counts = []
    for p in interp + extras:
        n = None if known_counts is None else known_counts.get(p)
        if n is None:
            rep_p = reduce_mod(model.rep, p)
            n = count_submodules(rep_p, v, cap)
        counts.append((p, int(n)))
    return CountPoly(
        coeffs=_certified_fit(counts, bound),
        primes_used=tuple(interp),
        consistency_primes=tuple(extras),
        counts=tuple(counts),
    )


# -- graded enumeration -------------------------------------------------------

def graded_submodules(
    model: InjectiveModel,
    grading: Grading,
    d: dict,
    p: int,
    cap: int | None = None,
) -> list:
    """Submodules that split along the grading's eigenspaces with character d.

    d maps (vertex, weight index) to the dimension of the piece inside that
    vertex's weight-index-th eigenspace (sorted order); missing keys mean 0.
    Enumeration runs over F_p; the rational eigenvalues must stay distinct
    after reduction.
    """
    (p,) = _check_primes([p])
    cap = DEFAULT_CANDIDATE_CAP if cap is None else int(cap)
    rep_p = reduce_mod(model.rep, p)
    fp = rep_p.field
    layers: dict = {}
    for vert in rep_p.quiver.vertices:
        entries = []
        seen = set()
        for lam, basis in grading[vert]:
            lam_p = fp.of(lam)
            if lam_p in seen:
                raise BadPrimeError(f"grading eigenvalues collide mod {p} at vertex {vert!r}")
            seen.add(lam_p)
            basis_p = Subspace(fp, basis.rows).extend(zip(*mat_over(fp, basis).a))
            if len(basis_p.piv) != basis.cols:
                raise BadPrimeError(f"grading layer degenerates mod {p} at vertex {vert!r}")
            entries.append((lam, basis_p))
        if sum(len(b.piv) for _, b in entries) != rep_p.dim(vert):
            raise BadPrimeError(f"grading layers do not fill vertex {vert!r} mod {p}")
        layers[vert] = entries
    upper = {
        (vert, k): basis_p
        for vert in rep_p.quiver.vertices
        for k, (_, basis_p) in enumerate(layers[vert])
    }
    for key, val in (d or {}).items():
        if key not in upper:
            raise ValidationError(f"unknown grading slot {key!r} in character")
        if not isinstance(val, int) or val < 0:
            raise ValidationError(f"character value at {key!r} must be a non-negative integer")
    # Arrows shift the eigenvalue by z^-(m(a)+1); each source layer feeds the
    # target layer holding the shifted value, and the arrow must kill the
    # layer when that value is absent.
    incoming: dict = {slot: [] for slot in upper}
    outgoing: dict = {slot: [] for slot in upper}
    for a in rep_p.quiver.arrows:
        xcols = sparse_columns(rep_p.map(a.name))
        n_out = rep_p.dim(a.dst)
        factor = Fraction(grading.z) ** (-(grading.weights[a.name] + 1))
        for k, (lam, basis_p) in enumerate(layers[a.src]):
            lam_out = Fraction(lam) * factor
            k_out = None
            for k2, (lam2, _) in enumerate(layers[a.dst]):
                if Fraction(lam2) == lam_out:
                    k_out = k2
                    break
            image = Subspace(fp, n_out).extend(_image(xcols, n_out, basis_p.cols))
            if k_out is None:
                if image.piv:
                    raise BadPrimeError(
                        f"arrow {a.name!r} does not respect the grading mod {p}"
                    )
                continue
            if not layers[a.dst][k_out][1].contains(image):
                raise BadPrimeError(
                    f"arrow {a.name!r} does not respect the grading mod {p}"
                )
            incoming[(a.dst, k_out)].append((xcols, (a.src, k)))
            outgoing[(a.src, k)].append((xcols, (a.dst, k_out)))
    target = {slot: int((d or {}).get(slot, 0)) for slot in upper}
    out = []
    for leaf in _expanded(upper, incoming, outgoing, target, cap):
        bases = {
            vert: Subspace(fp, rep_p.dim(vert)).extend(
                c for k in range(len(layers[vert])) for c in leaf[(vert, k)].cols
            ).to_mat()
            for vert in rep_p.quiver.vertices
        }
        s = Subrep(rep_p, bases)
        check_closure(s)
        out.append(s)
    out.sort(key=lambda s: s.key())
    return out
