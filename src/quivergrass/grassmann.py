"""Exhaustive submodule enumeration over prime fields and count interpolation.

One recursion, `_leaves`, enumerates submodule grassmannians slot by slot
through Gaussian cells: a slot is a vertex of the walked representation's
quiver, a (vertex, layer) pair when a graded enumeration walks the
grading's cover (`_cover`).  Placing a slot bounds each unplaced
neighbour: an arrow out of it bounds the neighbour from below by the image
of its choice, an arrow into it bounds the neighbour from above by the
preimage of its choice.  So every arrow is imposed once, at whichever end
is placed later.  The walk folds its choices into one value through a `_Combine`: counting folds ints
and builds nothing per submodule, enumeration folds lists of {slot: cell}
dicts, which `_subreps` turns into closure-checked `Subrep`s.

Branching rule: at each node, an unplaced slot of target dimension k has
[dim hi - dim lo, k - dim lo]_p cells between its bounds lo and hi.  A slot
with no cell prunes the node at once.  Otherwise the walk branches on the
slot with the fewest cells among those still joined by an arrow to another
unplaced slot, the first in slot order on ties, so the walk is deterministic.
(Placing any other slot would move no bound, so it could prune nothing.)

Free-remainder rule: an unplaced slot joined by no arrow to another unplaced
slot is free.  Every arrow at it ends at a placed slot and is already
imposed by its bounds, and quivers have no loops, so no slot constrains
itself: its cells are independent of every other choice, and once free a
slot stays free with the same bounds.  The walk splits each free slot off
where it becomes free and multiplies the node's value by the slot's value.
Counting takes that from the slot's Gaussian binomial and runs no closure
re-check: by the two rules every arrow is imposed, at its later end or at
the free slot's bound.  Enumeration lists the free slot's cells and still
runs `check_closure` on every submodule it returns.

State rule: the subtree below a node depends only on the bounds (lo, hi) of
the linked slots, the unplaced slots still joined by an arrow.  The branching
choice reads only their cell counts, placing a slot moves only its unplaced
neighbours, which are linked, the pruning reads only the bounds it moves,
and the free slots split off below are fixed by the bounds they carry; the
choices already placed only label the leaves.  Bounds are canonical, so the
linked slots with their bounds' `Subspace.key()`s are an exact key.  Each
walk keeps a memo from that key to the linked slots' value, so a state
reached again is not walked again.  The memo is local to one walk; nothing
carries over between walks.  The root is not memoized, since it cannot
repeat.

The cap counts the cells `_cells_between` walks: those of every branching
slot and, when enumerating, those of each free slot.  A free slot counted
in closed form walks no cell, and a state found in the memo walks none, so
neither is charged.

Invariant: every bound, choice and cell the walk holds is a
`linalg.Subspace`, canonical by construction: the bounds come from
`Subspace.whole`, `extend` and `meet_preimage`, and `_cells_between` builds
each cell by `Subspace.merge` of two canonical column sets with disjoint
pivot rows, with no elimination.  A basis column is one int, each entry in
its own lane, stored reduced, so the column tuple is the memo key.  Arrow
maps enter as packed image columns (j, X·e_j), which the walk's set-up
packs from their `sparse_columns` once per prime (`_columns_mod`).  A leaf
becomes a `Mat` only where a `Subrep` is built, and `Subspace.to_mat`
unpacks the basis `col_space` gives, so `Subrep.key()` and the output
order do not depend on the walk.

Set-up rule: every walk runs on the `_CountSetup` of one representation,
over Q or F_p (over F_p only at its own prime), and takes its slots from
it; a graded walk runs on the set-up of the grading's cover.  A set-up
holds the arrow maps split once into `sparse_columns`, and at each prime
walked their packed image columns and the walk's (upper, incoming,
outgoing), built the first time.  `count_polynomial` and `hull_count`
share one set-up per hull for the life of the process, keyed by the
quiver, the framing w in vertex order and the truncation, at most 64 kept
(`_count_setup`, a bounded `lru_cache`); every other caller builds one
per call and walks each of its weights and primes on it.  The walk only
reads the set-up; the target, checked once per call, the cap, the walk
and its memo belong to one count.  Counts are never kept.

Point counts at several primes feed a Lagrange interpolation, run in
integers over one common denominator, whose value at 1 is the Euler
characteristic; every interpolation is certified at an extra prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import Callable, NamedTuple

from .errors import (
    BadPrimeError,
    CapExceededError,
    InternalCheckError,
    InterpolationInconsistentError,
    ValidationError,
)
from .fields import PrimeField, is_prime
from .hull import Grading, InjectiveModel, _framing, _resolve_trunc, injective_hull
from .linalg import Mat, Subspace, _image, _lanes, col_space, sparse_columns
from .quiver import Arrow, Quiver, _check_dim_vector, cartan_matrix
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
    taken pivots: canonical, and each subspace appears exactly once.  The
    columns of a cell are chosen independently, so each column's choices
    are built once, reduced, and the cells are their products; the first
    column, which has the most choices, is walked lazily.
    """
    m = len(span.piv)
    if k < 0 or k > m:
        return
    ln = span.lanes
    p, red, cols = ln.p, ln.reduce, span.cols
    if not k:
        yield Subspace(span.field, span.n, (), (), ln)
        return

    def choices(taken, t):
        j = taken[t]
        rest = [cols[f] for f in range(j + 1, m) if f not in taken]
        if not rest:
            return (cols[j],)
        return (red(cols[j] + sum(map(mul, vals, rest)))
                for vals in product(range(p), repeat=len(rest)))

    for taken in combinations(range(m), k):
        piv = tuple(span.piv[j] for j in taken)
        later = [tuple(choices(taken, t)) for t in range(1, k)]
        for first in choices(taken, 0):
            for tail in product(*later):
                yield Subspace(span.field, span.n, piv, (first,) + tail, ln)


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

class _Combine(NamedTuple):
    """How `_leaves` folds the walk into one value.

    A value stands for a set of choices of one cell per slot, and is falsy
    exactly when that set is empty.  `unit` is the set holding the empty
    choice; `free(s, n, cells)` is the value of a free slot with n cells,
    which `cells` yields lazily (walking them charges the cap); `times` is
    the product of two values on disjoint slots; `branch(s, pairs)` is the
    union over the (cell, value) pairs of s taking that cell.
    """

    unit: object
    free: Callable
    times: Callable
    branch: Callable


# Counting: each value is the number of choices, a free slot counted in
# closed form from its n cells.
_COUNT = _Combine(1, lambda s, n, cells: n, mul, lambda s, pairs: sum(v for _, v in pairs))

# Enumeration: each value lists its choices as {slot: cell} dicts.  The memo
# shares values between states, so the fold builds new dicts (`x | y`) and
# never changes one in place.
_LIST = _Combine(
    [{}],
    lambda s, n, cells: [{s: w} for w in cells],
    lambda a, b: [x | y for x in a for y in b],
    lambda s, pairs: [{s: w} | x for w, v in pairs for x in v],
)


def _leaves(upper: dict, incoming: dict, outgoing: dict, target: dict, cap: int,
            combine: _Combine):
    """Every arrow-closed choice of slot subspaces, folded by `combine`.

    The slots are the vertices of one quiver, and (upper, incoming,
    outgoing) a `_CountSetup`'s `slots(p)`: `upper` maps each slot to its
    whole space (a `Subspace`) and `target` to its dimension; `incoming[s]`
    and `outgoing[s]` list (map, slot) pairs for the arrows ending and
    starting at s, each map as packed image columns (`_columns_mod`).

    Placing a slot moves each unplaced neighbour's bounds: its lower bound
    takes in the image of the choice, its upper bound is cut to the
    preimage.  So each arrow is imposed once, when its earlier end is
    placed, on its later end.  Branching rule: a node where some unplaced
    slot has no cell between its bounds is pruned; otherwise the walk
    branches on the slot with the fewest cells among those joined by an
    arrow to another unplaced slot, the first in slot order on ties.
    Free-remainder rule: an unplaced slot joined to no other unplaced slot
    is free.  Every arrow at it ends at a placed slot and is imposed by its
    bounds, and no slot constrains itself (quivers have no loops), so its
    cells are independent of every other choice and each is arrow-closed:
    the node's value is the free slots' values times that of the linked
    slots.  State rule: the linked slots' bounds fix their value, which is
    kept in a memo local to this call, keyed by those bounds.  `cap` is
    charged for the cells walked: those of every branching slot, and those
    of the free slots that `combine` walks.
    """
    # The walk's state maps each unplaced slot to (lo, hi, its cell count).
    links = {s: {t for _, t in incoming[s] + outgoing[s]} for s in upper}
    memo: dict = {}
    counter = [0]

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
                lo = lo.extend(_image(xcols, w.lanes, w.cols))
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

    def linked_value(linked: dict):
        # `linked` is the calling node's own dict; the branching slot leaves it.
        if not linked:
            return combine.unit
        best = min(linked, key=lambda s: linked[s][2])
        lo, hi, _ = linked.pop(best)
        pairs = (
            (w, value(new))
            for w in _slot_cells(best, lo, hi, target[best], counter, cap)
            if (new := place(linked, best, w)) is not None
        )
        return combine.branch(best, pairs)

    def value(bounds: dict, root: bool = False):
        linked = {s: b for s, b in bounds.items() if not links[s].isdisjoint(bounds)}
        free = [(s, b) for s, b in bounds.items() if s not in linked]
        if root or not linked:
            val = linked_value(linked)
        else:
            key = tuple((s, lo.key(), hi.key()) for s, (lo, hi, _) in linked.items())
            val = memo.get(key)
            if val is None:
                val = memo[key] = linked_value(linked)
        if val:
            for s, (lo, hi, n) in free:
                val = combine.times(val, combine.free(
                    s, n, _slot_cells(s, lo, hi, target[s], counter, cap)))
        return val

    start = {}
    for s, hi in upper.items():
        lo = Subspace(hi.field, hi.n)
        n = cells(s, lo, hi)
        if not n:
            return combine.branch(s, ())
        start[s] = (lo, hi, n)
    return value(start, root=True)


def _slots(fp: PrimeField, packed: dict, q: Quiver, dims: dict) -> tuple:
    """(upper, incoming, outgoing) of `_leaves`, one slot per vertex, each
    arrow's map given in `packed` as image columns over `fp`."""
    upper = {u: Subspace.whole(fp, dims[u]) for u in q.vertices}
    incoming: dict = {u: [] for u in q.vertices}
    outgoing: dict = {u: [] for u in q.vertices}
    for a in q.arrows:
        incoming[a.dst].append((packed[a.name], a.src))
        outgoing[a.src].append((packed[a.name], a.dst))
    return upper, incoming, outgoing


def _columns_mod(fp: PrimeField, n: int, xcols: list) -> list:
    """`sparse_columns` of a map into F^n, over Q or F_p, reduced into F_p and
    packed as image columns (j, X·e_j) in `Subspace` lanes; zero ones dropped."""
    sh = _lanes(fp.p, n).shifts
    out = []
    for j, col in xcols:
        c = sum(y << sh[i] for i, x in col if (y := fp.of(x)))
        if c:
            out.append((j, c))
    return out


def _cap(cap: int | None) -> int:
    return DEFAULT_CANDIDATE_CAP if cap is None else int(cap)


def _prime_of(v_rep: Rep) -> int:
    if not isinstance(v_rep.field, PrimeField):
        raise ValidationError("submodule enumeration requires a prime field")
    return v_rep.field.p


def _subreps(ambient: Rep, leaves: list, basis: Callable) -> list:
    """One closure-checked Subrep of `ambient` per leaf of `_leaves`, its
    basis at vertex u being basis(leaf, u), sorted by key."""
    out = []
    for leaf in leaves:
        s = Subrep(ambient, {u: basis(leaf, u) for u in ambient.quiver.vertices})
        check_closure(s)
        out.append(s)
    out.sort(key=lambda s: s.key())
    return out


def enumerate_submodules(v_rep: Rep, v: dict, cap: int | None = None) -> list:
    """All arrow-closed subspaces of dims v, canonically ordered and validated."""
    p = _prime_of(v_rep)
    target = _check_dim_vector(v_rep.quiver, v)
    leaves = _leaves(*_CountSetup(v_rep).slots(p), target, _cap(cap), _LIST)
    return _subreps(v_rep, leaves, lambda leaf, u: leaf[u].to_mat())


def count_submodules(v_rep: Rep, v: dict, cap: int | None = None) -> int:
    """Number of arrow-closed subspaces of dims v, counted without a list.

    Each free slot adds its Gaussian binomial as a factor; no submodule is
    built and no closure is re-checked (see the module docstring).
    """
    return _CountSetup(v_rep).count(_prime_of(v_rep), _check_dim_vector(v_rep.quiver, v), cap)


def tilde_count(v_rep: Rep, v: dict, cap: int | None = None) -> int:
    """Count submodules of codimension vector v whose quotient is nilpotent."""
    codim = _check_dim_vector(v_rep.quiver, v)
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


# -- the walk's set-up of a representation ------------------------------------

class _CountSetup:
    """The one way a representation, over Q or F_p, becomes an F_p walk.

    Its arrow maps are split into `sparse_columns` once.  The first time p
    is walked they are packed into image columns over F_p (`columns`), and
    the walk's slots are built from those (`slots`); both are kept per
    prime.  A representation over F_p is walked only at its own prime.
    """

    def __init__(self, rep: Rep):
        self.rep = rep
        self._cols = {a.name: sparse_columns(rep.map(a.name)) for a in rep.quiver.arrows}
        self._packed: dict = {}
        self._by_prime: dict = {}

    def columns(self, p: int) -> tuple:
        """(F_p, {arrow: its packed image columns over F_p}), packed once."""
        out = self._packed.get(p)
        if out is None:
            field = self.rep.field
            fp = field if field.char else PrimeField(p)
            if fp.p != p:
                raise InternalCheckError(f"a representation over F_{fp.p} walked over F_{p}")
            dims = self.rep.dims
            out = self._packed[p] = (fp, {
                a.name: _columns_mod(fp, dims[a.dst], self._cols[a.name])
                for a in self.rep.quiver.arrows
            })
        return out

    def slots(self, p: int) -> tuple:
        """(upper, incoming, outgoing) of `_leaves` over F_p, built once."""
        out = self._by_prime.get(p)
        if out is None:
            out = self._by_prime[p] = _slots(*self.columns(p), self.rep.quiver, self.rep.dims)
        return out

    def count(self, p: int, target: dict, cap: int | None = None) -> int:
        """The number of submodules over F_p of dims target, checked."""
        return _leaves(*self.slots(p), target, _cap(cap), _COUNT)


@lru_cache(maxsize=64)
def _count_setup(base: Quiver, wt: tuple, trunc: int | None) -> _CountSetup:
    """The shared set-up of the hull of `base` framed by wt, in vertex order.

    One per (quiver, framing, truncation), at most 64 kept; an evicted one
    is rebuilt on demand.  The hull is the set-up's own, built from the key
    alone; `injective_hull` still gives every other caller a new model.
    """
    return _CountSetup(injective_hull(base, dict(zip(base.vertices, wt)), trunc).rep)


def _hull_key(q: Quiver, w: dict, trunc: int | None) -> tuple:
    """The `_count_setup` key of the hull of q framed by w, checked as
    `injective_hull` checks it."""
    base, wt = _framing(q, w)
    _resolve_trunc(base, trunc)
    return base, wt, trunc


def hull_count(q: Quiver, w: dict, v: dict, p: int, trunc: int | None = None,
               cap: int | None = None) -> int:
    """The number of submodules of dims v of the hull I(w) over F_p.

    Counts on the hull's shared set-up, as `count_polynomial` does.
    """
    key = _hull_key(q, w, trunc)
    (p,) = _check_primes([p])
    return _count_setup(*key).count(p, _check_dim_vector(key[0], v), cap)


# -- point-count interpolation ------------------------------------------------

class CountPoly(NamedTuple):
    """Integer polynomial interpolating submodule counts over prime fields."""

    coeffs: tuple  # ascending degree
    primes_used: tuple
    consistency_primes: tuple
    counts: tuple  # ((prime, count), ...) over every prime touched

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


def _certified_fit(counts: list, degree: int) -> tuple:
    """Integer coefficients, ascending, of the count polynomial; certified.

    `counts` lists (prime, count) pairs.  The first degree+1 fix the Lagrange
    polynomial, trailing zero coefficients are dropped, and the polynomial
    must have integer coefficients and take every listed count at its prime,
    the spare primes included; otherwise `InterpolationInconsistentError`
    carries the counts.  The interpolation runs in integers over one common
    denominator: basis_j(t) is the product of t - x_k over k != j, d_j its
    value at x_j, and D * P(t) = sum_j y_j (D / d_j) basis_j(t) for D the
    least common multiple of the d_j.
    """
    points = counts[: degree + 1]
    terms = []
    for xj, yj in points:
        basis, dj = [1], 1
        for xk, _ in points:
            if xk != xj:
                basis = [a - xk * b for a, b in zip([0] + basis, basis + [0])]
                dj *= xj - xk
        terms.append((yj, dj, basis))
    den = lcm(*(dj for _, dj, _ in terms))
    num = [sum(yj * (den // dj) * basis[d] for yj, dj, basis in terms) for d in range(len(points))]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    if any(c % den for c in num):
        raise InterpolationInconsistentError(
            "count not polynomial at tested degree", counts=counts
        )
    out = tuple(c // den for c in num)
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


def _plan(q: Quiver, w: dict, v: dict, primes) -> tuple[list, list, dict]:
    """`interpolation_plan`, and v as `_check_dim_vector` returns it."""
    plist = _check_primes(primes)
    target = _check_dim_vector(q, v)
    bound = max(expected_dimension(q, w, target), 0)
    if len(plist) < bound + 1:
        raise ValidationError(
            f"need at least {bound + 1} primes for interpolation degree {bound}"
        )
    interp = plist[: bound + 1]
    extras = plist[bound + 1 :]
    if not extras:
        extras = [_next_prime(plist[-1])]
    return interp, extras, target


def interpolation_plan(q: Quiver, w: dict, v: dict, primes) -> tuple[list, list]:
    """Split the primes into interpolation and consistency lists.

    Validates and sorts the primes, checks v, derives the interpolation
    degree from the dimension bound, and appends one extra prime when none is
    left over for the consistency check.  `count_polynomial` uses exactly
    this plan, so a caller that wants to precompute per-prime counts (e.g.
    in parallel) can learn here which primes will be visited.
    """
    return _plan(q, w, v, primes)[:2]


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
    the same consistency certification either way.  The primes left to count
    are counted on the hull's shared set-up (`_count_setup`); when none is
    left, no set-up is built.
    """
    key = _hull_key(q, w, trunc)
    interp, extras, target = _plan(key[0], w, v, primes)
    bound = len(interp) - 1
    counts = []
    for p in interp + extras:
        n = None if known_counts is None else known_counts.get(p)
        if n is None:
            n = _count_setup(*key).count(p, target, cap)
        counts.append((p, int(n)))
    return CountPoly(
        coeffs=_certified_fit(counts, bound),
        primes_used=tuple(interp),
        consistency_primes=tuple(extras),
        counts=tuple(counts),
    )


# -- graded enumeration -------------------------------------------------------

def _cover(rep: Rep, grading: Grading) -> tuple:
    """The grading's covering representation, and the rows of rep at each vertex.

    A vertex (v, k) per layer k of v, on the rows its unit columns pick, in
    increasing order; an arrow (a, k) per layer k of a's source whose value
    lam_k z^-(m(a)+1) is a layer of a's target, its map the block of a
    between the two.  Raises `ValidationError` off the `Grading` contract.
    """
    rows, layer = {}, {}
    for v in rep.quiver.vertices:
        for k, (lam, basis) in enumerate(grading[v]):
            picked = [c.index(rep.field.one) for c in zip(*basis.a)
                      if sum(map(bool, c)) == 1 and rep.field.one in c]
            if len(picked) != basis.cols:
                raise ValidationError(f"grading layer {k} at vertex {v!r} is not unit columns")
            rows[v, k] = sorted(picked)
            layer[v, Fraction(lam)] = k
        covered = sorted(i for k in range(len(grading[v])) for i in rows[v, k])
        if covered != list(range(rep.dim(v))):
            raise ValidationError(f"grading layers do not partition vertex {v!r}")
    arrows, maps = [], {}
    for a in rep.quiver.arrows:
        x = rep.map(a.name)
        factor = Fraction(grading.z) ** (-(grading.weights[a.name] + 1))
        for k, (lam, _) in enumerate(grading[a.src]):
            k_out = layer.get((a.dst, Fraction(lam) * factor))
            inside = set() if k_out is None else set(rows[a.dst, k_out])
            if any(x.a[i][j] for i in range(x.rows) if i not in inside for j in rows[a.src, k]):
                raise ValidationError(
                    f"arrow {a.name!r} takes layer {k} at {a.src!r} off the shifted layer")
            if k_out is not None:
                arrows.append(Arrow((a.name, k), (a.src, k), (a.dst, k_out)))
                maps[a.name, k] = x.take_rows(rows[a.dst, k_out]).take_cols(rows[a.src, k])
    dims = {s: len(r) for s, r in rows.items()}
    return Rep(rep.field, Quiver(tuple(rows), tuple(arrows)), dims, maps), rows


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
    Graded submodules are the submodules of the grading's cover (`_cover`),
    whose vertices are these (vertex, layer) pairs: it is walked like any
    representation, and each leaf placed back on the model's rows.  The
    rational eigenvalues must stay distinct after reduction.
    """
    (p,) = _check_primes([p])
    cover, rows = _cover(model.rep, grading)
    rep_p = reduce_mod(model.rep, p)
    fp = rep_p.field
    for v in rep_p.quiver.vertices:
        if len({fp.of(lam) for lam, _ in grading[v]}) != len(grading[v]):
            raise BadPrimeError(f"grading eigenvalues collide mod {p} at vertex {v!r}")
    target = _check_dim_vector(cover.quiver, d)
    leaves = _leaves(*_CountSetup(cover).slots(p), target, _cap(cap), _LIST)

    def basis(leaf, v):
        cols = [dict(zip(rows[v, k], c))
                for k in range(len(grading[v])) for c in zip(*leaf[v, k].to_mat().a)]
        n = rep_p.dim(v)
        return col_space(Mat(fp, n, len(cols), [[c.get(r, 0) for c in cols] for r in range(n)]))

    return _subreps(rep_p, leaves, basis)
