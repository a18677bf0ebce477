"""Independent brute-force computations used to pin expected test values.

Everything here is deliberately naive: full spans over raw paths, direct
rank computations, classical closed-form formulas. The library must agree
with these on every case small enough to run them.
"""

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product

from quivergrass.fields import QQ
from quivergrass.quiver import double


RawPath = namedtuple("RawPath", "arrows src dst")


def raw_paths(q, n, src=None, dst=None):
    """All length-n paths of q, lexicographic in the arrow-name tuple.

    A path lists its arrows last-applied first, as in the library.
    """
    if n < 0:
        raise ValueError("path length must be >= 0")
    verts = [src] if src is not None else list(q.vertices)
    out = []
    for v in verts:
        frontier = [RawPath((), v, v)]
        for _ in range(n):
            frontier = [
                RawPath((a.name,) + p.arrows, p.src, a.dst)
                for p in frontier
                for a in q.arrows_from(p.dst)
            ]
        out.extend(frontier)
    if dst is not None:
        out = [p for p in out if p.dst == dst]
    out.sort(key=lambda p: p.arrows)
    return out


def relation_loops(dq):
    """Per vertex, the signed two-step loops of the preprojective relation."""
    loops = {v: [] for v in dq.vertices}
    for name in dq.base:
        a = dq.arrow(name)
        bar = dq.bar_of(name)
        loops[a.dst].append((1, (name, bar)))
        loops[a.src].append((-1, (bar, name)))
    return loops


def naive_quotient_dims(q, n):
    """Block dims of degree n of the preprojective quotient via the full span.

    Spans every product (path after relation after path) of total degree n
    and subtracts the rank blockwise. Exponential in n; test-size inputs only.
    """
    dq = q if q.is_double else double(q)
    basis = raw_paths(dq, n)
    loops = relation_loops(dq)
    blocks = sorted({(p.src, p.dst) for p in basis})
    dims = {}
    for src, dst in blocks:
        cols = [p.arrows for p in basis if p.src == src and p.dst == dst]
        index = {arrows: k for k, arrows in enumerate(cols)}
        rows = []
        for i in range(max(n - 1, 0)):
            j = n - 2 - i
            for x in dq.vertices:
                for beta in raw_paths(dq, i, src=x, dst=dst):
                    for beta2 in raw_paths(dq, j, src=src, dst=x):
                        row = [QQ.zero] * len(cols)
                        for sign, mid in loops[x]:
                            arrows = beta.arrows + mid + beta2.arrows
                            k = index[arrows]
                            term = QQ.one if sign > 0 else QQ.neg(QQ.one)
                            row[k] = QQ.add(row[k], term)
                        if any(v != QQ.zero for v in row):
                            rows.append(row)
        cut = len(textbook_rref(rows, len(cols))[1])
        d = len(cols) - cut
        if d:
            dims[(src, dst)] = d
    return dims


def naive_total_dim(q, n):
    return sum(naive_quotient_dims(q, n).values())


# -- dense textbook elimination ----------------------------------------------

def textbook_rref(rows, ncols, p=None):
    """Gauss-Jordan elimination of a list of rows: (reduced rows, pivot columns).

    Entries are Fractions over Q (p None) and ints mod p over F_p. Every
    entry of every row is rewritten at every pivot; no sparsity, no field
    object and no quivergrass.linalg routine is involved.
    """
    def norm(x):
        return Fraction(x) if p is None else x % p

    def inv(x):
        return 1 / x if p is None else pow(x, p - 2, p)

    a = [[norm(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        s = inv(a[r][c])
        a[r] = [norm(s * x) for x in a[r]]
        for i in range(len(a)):
            if i != r:
                coef = a[i][c]
                a[i] = [norm(x - coef * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def radical_series_dims(arrows, maps, dims, start):
    """Total dimensions of K, rad K, rad^2 K, ... until they stop falling.

    start[v] lists vectors spanning K at v, and rad of a term is spanned by
    the images X_a s of its vectors s at every arrow's source; each span is
    cut to a basis by `textbook_rref`.
    """
    def basis(vectors, n):
        red, pivots = textbook_rref(vectors, n)
        return red[:len(pivots)]

    cur = {v: basis(start[v], dims[v]) for v in dims}
    out = [sum(map(len, cur.values()))]
    while out[-1]:
        images = {v: [] for v in dims}
        for name, s, t in arrows:
            images[t] += [[sum(x * y for x, y in zip(row, vec)) for row in maps[name]]
                          for vec in cur[s]]
        cur = {v: basis(images[v], dims[v]) for v in dims}
        if sum(map(len, cur.values())) == out[-1]:
            break
        out.append(sum(map(len, cur.values())))
    return out


def generated_bases(arrows, maps, dims, gens, p=None):
    """Per vertex, the textbook RREF rows of the smallest arrow-closed
    subspace holding the vectors gens[v] at each vertex v.

    Every basis vector is mapped along every arrow (name, source, target)
    by the rows of maps[name], and each vertex's span, old vectors and
    images together, is cut to a basis by `textbook_rref`, until no basis
    changes.
    """
    def basis(vectors, n):
        red, pivots = textbook_rref(vectors, n, p)
        return red[:len(pivots)]

    cur = {v: basis(gens.get(v, []), dims[v]) for v in dims}
    while True:
        nxt = {v: list(cur[v]) for v in dims}
        for name, s, t in arrows:
            nxt[t] += [[sum(x * y for x, y in zip(row, vec)) for row in maps[name]]
                       for vec in cur[s]]
        nxt = {v: basis(nxt[v], dims[v]) for v in dims}
        if nxt == cur:
            return cur
        cur = nxt


# -- module maps by one dense linear system --------------------------------------

def intertwiner_by_hand(arrows, src, dst, twists, proj, rhs):
    """The unique G with G_t X_a = z_a Y_a G_s for every arrow and P_v G_v = R_v.

    arrows are (name, source, target); src and dst are (dims, maps) pairs
    with maps as lists of rows; twists gives z_a (1 when absent); proj and
    rhs give P_v and R_v per vertex. The unknowns are the entries of every
    G_v, vertex by vertex, row by row; each equation is written out densely,
    the right-hand side in one last column, and `textbook_rref` solves it.
    Returns (G as lists of rows per vertex, or None when the system is
    inconsistent; whether its homogeneous part has only the zero solution).
    """
    (sdims, smaps), (ddims, dmaps) = src, dst
    offset, total = {}, 0
    for v in sdims:
        offset[v] = total
        total += ddims[v] * sdims[v]
    rows = []
    for name, s, t in arrows:
        x, y, z = smaps[name], dmaps[name], Fraction(twists.get(name, 1))
        for i in range(ddims[t]):
            for j in range(sdims[s]):
                row = [Fraction(0)] * (total + 1)
                for k in range(sdims[t]):
                    row[offset[t] + i * sdims[t] + k] += x[k][j]
                for k in range(ddims[s]):
                    row[offset[s] + k * sdims[s] + j] -= z * y[i][k]
                rows.append(row)
    for v in sdims:
        for i, prow in enumerate(proj[v]):
            for j in range(sdims[v]):
                row = [Fraction(0)] * (total + 1)
                for k in range(ddims[v]):
                    row[offset[v] + k * sdims[v] + j] += prow[k]
                row[total] = Fraction(rhs[v][i][j])
                rows.append(row)
    reduced, pivots = textbook_rref(rows, total + 1)
    unique = sum(c < total for c in pivots) == total
    if total in pivots:
        return None, unique
    value = [Fraction(0)] * total
    for r, c in enumerate(pivots):
        value[c] = reduced[r][total]
    return {
        v: [value[offset[v] + r * sdims[v]:offset[v] + (r + 1) * sdims[v]] for r in range(ddims[v])]
        for v in sdims
    }, unique


# -- definiteness of the Cartan form --------------------------------------------

def cartan_form(q):
    """2I minus the edge count of the underlying graph, from the arrow list."""
    index = {v: i for i, v in enumerate(q.vertices)}
    c = [[2 if i == j else 0 for j in range(len(index))] for i in range(len(index))]
    for a in q.arrows:
        s, t = index[a.src], index[a.dst]
        c[s][t] -= 1
        c[t][s] -= 1
    return c


def leibniz_det(m):
    """Determinant as the signed sum over permutations; no elimination."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def form_kind(c):
    """"finite", "affine" or "wild" for a symmetric integer matrix, from minors.

    Positive definite iff every leading principal minor is positive
    (Sylvester's criterion); positive semidefinite iff every principal
    minor is nonnegative; the corank is n minus the rank `textbook_rref`
    finds. Semidefinite of corank 1 is affine, anything else not definite
    is wild.
    """
    n = len(c)

    def minor(idx):
        return leibniz_det([[c[i][j] for j in idx] for i in idx])

    if all(minor(range(k)) > 0 for k in range(1, n + 1)):
        return "finite"
    semidefinite = all(
        minor(idx) >= 0 for k in range(1, n + 1) for idx in combinations(range(n), k)
    )
    corank = n - len(textbook_rref(c, n)[1])
    return "affine" if semidefinite and corank == 1 else "wild"


# -- F_p submodules as sets of vectors -----------------------------------------

@functools.lru_cache(maxsize=None)
def fp_subspaces(n, k, p):
    """Every k-dim subspace of F_p^n once, as (spanning vectors, vector set).

    Subspaces grow one dimension at a time by adjoining a vector outside the
    span and are told apart as sets of vectors, so no normal form is used.
    """
    vectors = list(product(range(p), repeat=n))
    level = {frozenset([(0,) * n]): ()}
    for _ in range(k):
        grown = {}
        for span, gens in level.items():
            seen = set(span)
            for x in vectors:
                if x in seen:
                    continue
                bigger = frozenset(
                    tuple((a + c * b) % p for a, b in zip(u, x))
                    for u in span
                    for c in range(p)
                )
                seen |= bigger
                grown.setdefault(bigger, gens + (x,))
        level = grown
    return tuple((gens, span) for span, gens in level.items())


def _closed_subspaces(rep, d):
    """Yield each arrow-closed subspace of dimension vector d of a representation
    over F_p, as a dict {vertex: (spanning vectors, vector set)}.

    Reads the matrices as integer rows and tests closure vector by vector
    against explicit vector sets; no quivergrass.linalg routine is involved.
    """
    p = rep.field.p
    order = list(rep.quiver.vertices)
    arrows = [(a.src, a.dst, [list(r) for r in rep.map(a.name).a]) for a in rep.quiver.arrows]
    chosen = {}

    def closed(v):
        for src, dst, rows in arrows:
            if v in (src, dst) and src in chosen and dst in chosen:
                target = chosen[dst][1]
                for x in chosen[src][0]:
                    image = tuple(sum(r * y for r, y in zip(row, x)) % p for row in rows)
                    if image not in target:
                        return False
        return True

    def rec(i):
        if i == len(order):
            yield dict(chosen)
            return
        v = order[i]
        for sub in fp_subspaces(rep.dim(v), d.get(v, 0), p):
            chosen[v] = sub
            if closed(v):
                yield from rec(i + 1)
        chosen.pop(v, None)

    return rec(0)


def brute_submodule_count(rep, d):
    """Arrow-closed subspaces of dimension vector d of a representation over F_p."""
    return sum(1 for _ in _closed_subspaces(rep, d))


def brute_submodules(rep, d):
    """The arrow-closed subspaces of dimension vector d over F_p, as a set of
    tuples of vector sets, one per vertex in quiver order."""
    order = list(rep.quiver.vertices)
    return {tuple(sub[v][1] for v in order) for sub in _closed_subspaces(rep, d)}


def span_set(columns, n, p):
    """Every vector of the span of integer (or rational) columns of length n mod p."""
    cols = [[_mod(x, p) for x in c] for c in columns]
    return frozenset(
        tuple(sum(a * c[i] for a, c in zip(coef, cols)) % p for i in range(n))
        for coef in product(range(p), repeat=len(cols))
    )


def _mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def brute_graded_submodules(rep, layers, d):
    """The arrow-closed subspaces over F_p that split along eigenspaces with pieces d.

    `layers[v]` lists the eigenspaces at vertex v, each as spanning columns
    (rationals are reduced mod p), and d maps (v, k) to the dimension of
    the piece in v's k-th eigenspace. Every arrow-closed subspace of
    dimension sum_k d[(v, k)] at each v is kept when, at every v, its meet
    with each eigenspace, a set intersection, has p^d[(v, k)] vectors; the
    pieces then span it. Returns a set of tuples of vector sets, one per
    vertex in quiver order.
    """
    p = rep.field.p
    order = list(rep.quiver.vertices)
    spaces = {v: [span_set(cols, rep.dim(v), p) for cols in layers[v]] for v in order}
    dims = {v: sum(d.get((v, k), 0) for k in range(len(spaces[v]))) for v in order}
    return {
        tuple(sub[v][1] for v in order)
        for sub in _closed_subspaces(rep, dims)
        if all(len(sub[v][1] & e) == p ** d.get((v, k), 0)
               for v in order for k, e in enumerate(spaces[v]))
    }


# -- interpolation ----------------------------------------------------------------

def fraction_lagrange(points):
    """Coefficients, ascending, of the polynomial through the (x, y) pairs, in
    Fractions: the textbook sum of y_j times prod_{k != j} (t - x_k)/(x_j - x_k)."""
    coeffs = [Fraction(0)] * len(points)
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(yj)]
        for k, (xk, _) in enumerate(points):
            if k != j:
                scale = Fraction(1, xj - xk)
                basis = [(a - xk * b) * scale for a, b in zip([Fraction(0)] + basis, basis + [0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    return coeffs
