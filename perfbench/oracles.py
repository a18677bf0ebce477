"""Independent checks for the benchmark.

Nothing here imports quivergrass.linalg or any other part of the library:
matrices are plain lists of rows, rational entries are Fractions, and
subspaces over F_p are explicit sets of vectors. The regeneration command
(`python3 perfbench/oracles.py --regen`) is the one place that reads the
library, and only to obtain the injective hulls whose submodules it counts.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

# Full rank modulo a prime implies full rank over Q (the rank can only drop
# when reducing), so one of these certifies that a rational system has a
# zero kernel. Two primes make a spurious drop at both astronomically rare.
CERT_PRIMES = (2**61 - 1, 2**31 - 1)

CACHE = Path(__file__).with_name("oracle_counts.json")
A3_PRIMES = (2, 3, 5, 7)
A4_PRIME = 2
A4_SAMPLE_SEED = 20091
A4_SAMPLE_SIZE = 24


# -- exact rational matrices ------------------------------------------------------

def q_matmul(a: list, b: list, inner: int, cols: int) -> list:
    """Product of an r x inner and an inner x cols list-of-rows matrix."""
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        acc[j] += x * bk[j]
        out.append(acc)
    return out


def q_scale(c, a: list) -> list:
    return [[c * x for x in row] for row in a]


def q_rank(a: list) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        rank += 1
    return rank


def q_inverse(a: list) -> list:
    """Inverse of a square rational matrix by Gauss-Jordan."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def to_mod(x, p: int) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def rank_mod(rows: list, p: int) -> int:
    """Rank modulo p of sparse rows given as {column: value} dicts."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        r = {}
        for c, v in row.items():
            v = to_mod(v, p)
            if v:
                r[c] = v
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in r.items()}
                rank += 1
                break
            f = r[c]
            for cc, vv in prow.items():
                nv = (r.get(cc, 0) - f * vv) % p
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    return rank


def full_rank_certified(rows: list, ncols: int) -> bool:
    """True when the rows have rank ncols modulo one of the certificate primes."""
    return any(rank_mod(rows, p) == ncols for p in CERT_PRIMES)


def dense_rows(a: list) -> list:
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def intertwining_rows(src_dims: dict, src_maps: dict, dst_dims: dict, dst_maps: dict,
                      arrows: list, twists: dict, proj: dict) -> tuple[list, int]:
    """Homogeneous system {G_t X_a = twist_a Y_a G_s; P_v G_v = 0} for G.

    arrows are (name, src, dst); maps are list-of-rows matrices; the unknowns
    are the entries of G_v (dst dim x src dim) for every vertex in turn.
    Returns the sparse rows and the number of unknowns.
    """
    offset, total = {}, 0
    for v in src_dims:
        offset[v] = total
        total += dst_dims[v] * src_dims[v]

    def var(v, r, c):
        return offset[v] + r * src_dims[v] + c

    rows = []
    for name, s, t in arrows:
        x, y, z = src_maps[name], dst_maps[name], twists.get(name, 1)
        for i in range(dst_dims[t]):
            for j in range(src_dims[s]):
                row: dict = {}
                for k in range(src_dims[t]):
                    if x[k][j]:
                        key = var(t, i, k)
                        row[key] = row.get(key, 0) + x[k][j]
                for k in range(dst_dims[s]):
                    if y[i][k]:
                        key = var(s, k, j)
                        row[key] = row.get(key, 0) - z * y[i][k]
                rows.append(row)
    for v, pm in proj.items():
        for i in range(len(pm)):
            for j in range(src_dims[v]):
                rows.append({var(v, k, j): pm[i][k] for k in range(dst_dims[v]) if pm[i][k]})
    return rows, total


# -- F_p subspaces as sets of vectors ------------------------------------------------

def subspaces(n: int, k: int, p: int):
    """Every k-dim subspace of F_p^n once, as (basis, set of all vectors).

    Bases are reduced row-echelon rows, which are unique per subspace.
    """
    if k == 0:
        yield (), frozenset({(0,) * n})
        return
    coeffs = list(product(range(p), repeat=k))
    for pivots in combinations(range(n), k):
        free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, n)
                if c not in pivots]
        for vals in product(range(p), repeat=len(free)):
            basis = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                basis[i][pc] = 1
            for (i, c), x in zip(free, vals):
                basis[i][c] = x
            span = frozenset(
                tuple(sum(a * row[j] for a, row in zip(cs, basis)) % p for j in range(n))
                for cs in coeffs
            )
            yield tuple(tuple(r) for r in basis), span


def count_submodules(dims: dict, arrows: list, maps: dict, p: int, d: dict) -> int:
    """Number of arrow-closed graded subspaces with dimension vector d over F_p.

    maps hold integer matrices (rows = target); arrows are (name, src, dst).
    Closure is tested on basis images against explicit vector sets.
    """
    order = list(dims)
    for v in order:
        if d[v] > dims[v]:
            return 0
    cand = {v: list(subspaces(dims[v], d[v], p)) for v in order}
    chosen: dict = {}
    placed: set = set()

    def image(m, vec):
        return tuple(sum(x * y for x, y in zip(row, vec)) % p for row in m)

    def closed(v):
        for name, s, t in arrows:
            if (s == v and t in placed) or (t == v and s in placed):
                span_t = chosen[t][1]
                m = maps[name]
                if any(image(m, b) not in span_t for b in chosen[s][0]):
                    return False
        return True

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        total = 0
        placed.add(v)
        for sub in cand[v]:
            chosen[v] = sub
            if closed(v):
                total += rec(i + 1)
        placed.discard(v)
        chosen.pop(v, None)
        return total

    return rec(0)


# -- interpolation and closed forms -----------------------------------------------

def lagrange(points: list) -> list:
    """Coefficients (ascending, Fractions) of the polynomial through the points."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k != j:
                basis = [(basis[i - 1] if i else 0) - xk * (basis[i] if i < len(basis) else 0)
                         for i in range(len(basis) + 1)]
                denom *= xj - xk
        for i, c in enumerate(basis):
            coeffs[i] += c * yj / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def cartan(quiver_obj: dict) -> list:
    """2I minus the symmetrized arrow count, from a quiver JSON object."""
    vs = quiver_obj["vertices"]
    idx = {v: i for i, v in enumerate(vs)}
    c = [[2 * int(i == j) for j in range(len(vs))] for i in range(len(vs))]
    for a in quiver_obj["arrows"]:
        i, j = idx[a["from"]], idx[a["to"]]
        c[i][j] -= 1
        c[j][i] -= 1
    return c


def _det(m: list) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n, acc = len(a), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            acc = -acc
        acc *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return acc


def cartan_kind(c: list) -> str:
    """finite (positive definite), affine (positive semidefinite, singular) or wild."""
    n = len(c)
    minors = [_det([row[:k] for row in c[:k]]) for k in range(1, n + 1)]
    if all(m > 0 for m in minors):
        return "finite"
    if all(m > 0 for m in minors[:-1]) and minors[-1] == 0:
        return "affine"
    return "indefinite"


def dynkin_label(c: list) -> str | None:
    """A_n, D_n or E_n for a positive definite simply-laced Cartan matrix."""
    n = len(c)
    if cartan_kind(c) != "finite":
        return None
    nbrs = [[j for j in range(n) if j != i and c[i][j]] for i in range(n)]
    branch = [i for i in range(n) if len(nbrs[i]) == 3]
    if not branch:
        return f"A{n}"
    centre = branch[0]
    legs = []
    for start in nbrs[centre]:
        length, prev, cur = 1, centre, start
        while len(nbrs[cur]) == 2:
            prev, cur = cur, next(x for x in nbrs[cur] if x != prev)
            length += 1
        legs.append(length)
    legs.sort()
    if legs[:2] == [1, 1]:
        return f"D{n}"
    return f"E{n}"


def coxeter_number(label: str) -> int:
    kind, n = label[0], int(label[1:])
    return {"A": n + 1, "D": 2 * n - 2}.get(kind) or {6: 12, 7: 18, 8: 30}[n]


def preprojective_total(label: str) -> int:
    """dim of the preprojective algebra of a Dynkin quiver: n h (h + 1) / 6.

    For A_n this is n(n+1)(n+2)/6; it is also the total dimension of the
    direct sum of all indecomposable injectives (or projectives).
    """
    n, h = int(label[1:]), coxeter_number(label)
    return n * h * (h + 1) // 6


def preprojective_series(c: list, degrees: int) -> list:
    """Graded dims of the preprojective algebra of a non-Dynkin quiver.

    The Hilbert series is (1 - A t + t^2)^-1 with A = 2I - C, so the degree
    pieces obey H_n = A H_(n-1) - H_(n-2).
    """
    n = len(c)
    adj = [[2 * int(i == j) - c[i][j] for j in range(n)] for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    prev, cur = [[0] * n for _ in range(n)], ident
    out = []
    for _ in range(degrees + 1):
        out.append(sum(map(sum, cur)))
        nxt = [[sum(adj[i][k] * cur[k][j] for k in range(n)) - prev[i][j] for j in range(n)]
               for i in range(n)]
        prev, cur = cur, nxt
    return out


def positive_roots(c: list) -> list:
    """Positive roots (simple-root coordinates) of a finite-type Cartan matrix."""
    n = len(c)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                pairing = sum(c[i][j] * r[j] for j in range(n))
                y = list(r)
                y[i] -= pairing
                y = tuple(y)
                if all(e >= 0 for e in y) and any(y) and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def weyl_dimension(c: list, w: list) -> int:
    """Weyl dimension formula, simply-laced: prod over roots of <w+rho,a>/<rho,a>."""
    num, den = 1, 1
    for r in positive_roots(c):
        num *= sum(k * (x + 1) for k, x in zip(r, w))
        den *= sum(r)
    return num // den


def demazure_targets(c: list, w: list, word: list) -> list:
    """Depth vectors lambda - w_k(lambda) along a word, rightmost letter first.

    Applying s_i to the weight lambda - sum d_j a_j raises d_i by
    <lambda - sum d_j a_j, a_i> = w_i - (C d)_i.
    """
    n = len(w)
    d = [0] * n
    out = [tuple(d)]
    for i in reversed(word):
        d[i] += w[i] - sum(c[i][j] * d[j] for j in range(n))
        out.append(tuple(d))
    return out


def expected_degree(c: list, w: list, v: list) -> int:
    """v.w - v^T C v / 2, the interpolation degree bound for a count."""
    n = len(w)
    quad = sum(c[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
    return sum(a * b for a, b in zip(v, w)) - quad // 2


# -- the cached count table ---------------------------------------------------------

def load_counts() -> dict:
    return json.loads(CACHE.read_text(encoding="utf-8"))


def _hull_integer_data(qg, n: int):
    q = qg.line_quiver(n)
    model = qg.injective_hull(q, {v: 1 for v in q.vertices})
    rep = model.rep
    arrows = [(a.name, a.src, a.dst) for a in rep.quiver.arrows]
    maps = {a: [list(row) for row in rep.map(a).a] for a, _, _ in arrows}
    return q, dict(rep.dims), arrows, maps


def regenerate(src: Path) -> dict:
    """Recount every cached entry with the set-of-vectors counter."""
    sys.path.insert(0, str(src))
    import quivergrass as qg

    out = {"a3_primes": list(A3_PRIMES), "a4_prime": A4_PRIME, "a3": {}, "a4": {}}
    for n, key in ((3, "a3"), (4, "a4")):
        q, dims, arrows, maps = _hull_integer_data(qg, n)
        census = sorted(qg.weight_census(q, {v: 1 for v in q.vertices}))
        if n == 3:
            todo = [(v, A3_PRIMES) for v in census]
        else:
            sample = sorted(random.Random(A4_SAMPLE_SEED).sample(census, A4_SAMPLE_SIZE))
            todo = [(v, (A4_PRIME,)) for v in sample]
        for v, primes in todo:
            d = dict(zip(q.vertices, v))
            t = time.perf_counter()
            counts = {}
            for p in primes:
                mod = {a: [[to_mod(x, p) for x in row] for row in m] for a, m in maps.items()}
                counts[str(p)] = count_submodules(dims, arrows, mod, p, d)
            out[key][",".join(map(str, v))] = counts
            print(f"{key} {v} {counts} {time.perf_counter() - t:.1f}s", file=sys.stderr)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--regen", action="store_true",
                    help=f"recompute {CACHE.name} from the oracle counter (minutes)")
    args = ap.parse_args()
    if not args.regen:
        ap.print_help()
        return 2
    src = Path(__file__).resolve().parent.parent / "src"
    table = regenerate(src)
    CACHE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
