"""Independent brute-force computations used to pin expected test values.

Everything here is deliberately naive: full spans over raw paths, direct
rank computations, classical closed-form formulas. The library must agree
with these on every case small enough to run them.
"""

import functools
from fractions import Fraction
from itertools import product

from quivergrass.fields import QQ
from quivergrass.palg import raw_paths
from quivergrass.quiver import double


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


def brute_submodule_count(rep, d):
    """Arrow-closed subspaces of dimension vector d of a representation over F_p.

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
            return 1
        v = order[i]
        total = 0
        for sub in fp_subspaces(rep.dim(v), d.get(v, 0), p):
            chosen[v] = sub
            if closed(v):
                total += rec(i + 1)
        chosen.pop(v, None)
        return total

    return rec(0)
