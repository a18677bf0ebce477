"""Path algebra of a double quiver and its preprojective quotient, degreewise.

Paths are stored last-applied-first: the tuple (a3, a2, a1) is the length-3
path that applies a1 first, so its source is the source of a1 and its target
is the target of a3. Composing p after q concatenates the tuples as p + q and
is nonzero only when the source of p equals the target of q.

The preprojective relation at a vertex x is the signed sum over bar pairs of
the two-step loops through x: arrows of the original half contribute a a*
with sign +1 when x is the target of a, and a* a with sign -1 when x is the
source of a. The degree-n component of the two-sided ideal these generate is
computed iteratively: it is spanned by relation rows applied to a basis of
degree n-2 together with arrow times the degree-(n-1) ideal, so each degree
only needs the previous quotient and the structure map of left multiplication
by arrows. Basis representatives are the lexicographically earliest raw paths
that survive elimination.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import NotFiniteTypeError, ValidationError
from .fields import QQ
from .linalg import Mat, _projection, col_space, pivot_rows
from .quiver import Quiver, cartan_matrix, double


class Path(NamedTuple):
    arrows: tuple[str, ...]
    src: str
    dst: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e_{self.src}"
        return "".join(self.arrows)


def trivial_path(v: str) -> Path:
    return Path((), v, v)


def arrow_path(q: Quiver, name: str) -> Path:
    a = q.arrow(name)
    return Path((name,), a.src, a.dst)


def compose(p: Path, q: Path) -> Path | None:
    """p after q; None when the endpoints do not match."""
    if p.src != q.dst:
        return None
    return Path(p.arrows + q.arrows, q.src, p.dst)


class SliceBlock(NamedTuple):
    paths: list[Path]


class AlgSlice:
    """Basis data for one degree of the preprojective quotient.

    blocks[(i, j)] holds the basis path classes from i to j. lmul maps an
    (arrow name, degree-(n-1) basis path) pair to the coordinates of their
    composite over this degree's basis, as a {basis path: coefficient} dict.
    """

    def __init__(self):
        self.blocks: dict[tuple[str, str], SliceBlock] = {}
        self.lmul: dict[tuple[str, Path], dict[Path, object]] = {}

    def block(self, src: str, dst: str) -> SliceBlock:
        return self.blocks.get((src, dst)) or SliceBlock([])

    def basis(self) -> list[Path]:
        out: list[Path] = []
        for key in sorted(self.blocks):
            out.extend(self.blocks[key].paths)
        return out

    def dim(self) -> int:
        return sum(len(b.paths) for b in self.blocks.values())


class PathAlgebra:
    """Degree-by-degree model of the preprojective algebra of a quiver."""

    def __init__(self, q: Quiver):
        if q.is_double:
            self.base = None
            self.dq = q
        else:
            self.base = q
            self.dq = double(q)
        if self.dq.arrows and not self.dq.base:
            raise ValidationError("double quiver must record its original half")
        self._slices: dict[int, AlgSlice] = {}

    # -- construction --------------------------------------------------

    def slice(self, n: int) -> AlgSlice:
        if n < 0:
            raise ValidationError("degree must be >= 0")
        while len(self._slices) <= n:
            self._slices[len(self._slices)] = self._build(len(self._slices))
        return self._slices[n]

    def _build(self, n: int) -> AlgSlice:
        dq = self.dq
        sl = AlgSlice()
        if n == 0:
            for v in dq.vertices:
                p = trivial_path(v)
                sl.blocks[(v, v)] = SliceBlock([p])
            return sl
        if n == 1:
            for a in sorted(dq.arrows, key=lambda a: a.name):
                blk = sl.blocks.setdefault((a.src, a.dst), SliceBlock([]))
                p = arrow_path(dq, a.name)
                blk.paths.append(p)
                sl.lmul[(a.name, trivial_path(a.src))] = {p: QQ.one}
            return sl

        prev = self.slice(n - 1)
        prev2 = self.slice(n - 2)
        # candidate generators: (arrow b, basis class kappa of degree n-1);
        # a block with no candidates is not built
        by_block: dict[tuple[str, str], list[tuple[str, Path]]] = {}
        for a in dq.arrows:
            for (src, dst), blk in prev.blocks.items():
                if dst != a.src or not blk.paths:
                    continue
                cell = by_block.setdefault((src, a.dst), [])
                cell.extend((a.name, kappa) for kappa in blk.paths)
        relation_terms = self._relation_terms()
        for key in sorted(by_block):
            pairs = by_block[key]
            # order by lexicographic composite path
            pairs.sort(key=lambda bk: (bk[0],) + bk[1].arrows)
            pair_index = {bk: i for i, bk in enumerate(pairs)}
            rows: list[list] = []
            src, x = key
            blk2 = prev2.block(src, x)
            for kappa2 in blk2.paths:
                row = [QQ.zero] * len(pairs)
                for sign, b, c in relation_terms[x]:
                    vec = prev.lmul.get((c, kappa2))
                    if not vec:
                        continue
                    for kap, coeff in vec.items():
                        col = pair_index.get((b, kap))
                        if col is None:
                            continue
                        term = coeff if sign > 0 else QQ.neg(coeff)
                        row[col] = QQ.add(row[col], term)
                if any(v != QQ.zero for v in row):
                    rows.append(row)
            reps, exprs = _quotient_by_rows(rows, len(pairs))
            paths = [
                Path((pairs[i][0],) + pairs[i][1].arrows, key[0], key[1])
                for i in reps
            ]
            sl.blocks[key] = SliceBlock(paths)
            for i, (b, kappa) in enumerate(pairs):
                vec = {
                    paths[j]: coeff
                    for j, coeff in enumerate(exprs[i])
                    if coeff != QQ.zero
                }
                sl.lmul[(b, kappa)] = vec
        return sl

    def _relation_terms(self) -> dict[str, list[tuple[int, str, str]]]:
        """Per vertex x, the (sign, last arrow, first arrow) relation terms."""
        dq = self.dq
        terms: dict[str, list[tuple[int, str, str]]] = {v: [] for v in dq.vertices}
        for name in dq.base:
            a = dq.arrow(name)
            bar = dq.bar_of(name)
            terms[a.dst].append((1, name, bar))
            terms[a.src].append((-1, bar, name))
        return terms

    # -- rewriting and products -----------------------------------------

    def rewrite(self, p: Path) -> dict[Path, object]:
        """Coordinates of a raw path's class over the degree-length basis."""
        cur: dict[Path, object] = {trivial_path(p.src): QQ.one}
        depth = 0
        for b in reversed(p.arrows):
            depth += 1
            sl = self.slice(depth)
            nxt: dict[Path, object] = {}
            for kappa, coeff in cur.items():
                vec = sl.lmul.get((b, kappa))
                if not vec:
                    continue
                for out_path, c2 in vec.items():
                    acc = nxt.get(out_path, QQ.zero)
                    acc = QQ.add(acc, QQ.mul(coeff, c2))
                    if acc == QQ.zero:
                        nxt.pop(out_path, None)
                    else:
                        nxt[out_path] = acc
            cur = nxt
            if not cur:
                break
        return cur

    def multiply(self, x: dict[Path, object], y: dict[Path, object]) -> dict[Path, object]:
        """Product of two homogeneous elements given as {path: coeff} dicts."""
        out: dict[Path, object] = {}
        for px, cx in x.items():
            for py, cy in y.items():
                comp = compose(px, py)
                if comp is None:
                    continue
                coeff = QQ.mul(QQ.of(cx), QQ.of(cy))
                for pz, cz in self.rewrite(comp).items():
                    acc = QQ.add(out.get(pz, QQ.zero), QQ.mul(coeff, cz))
                    if acc == QQ.zero:
                        out.pop(pz, None)
                    else:
                        out[pz] = acc
        return out


def _quotient_by_rows(rows: list[list], ncols: int) -> tuple[list[int], list[list]]:
    """Quotient of F^ncols by the row span.

    Coordinates are reversed before the span is made canonical, so its pivots
    fall on the lexicographically latest coordinates and the earliest survive
    as representatives. Returns the representative coordinate indices and,
    for each coordinate, its expansion over them: the residual of the unit
    vector against the span, read at the representatives, as
    `repmod.quotient` reads its projections.
    """
    span = col_space(Mat(QQ, len(rows), ncols, [r[::-1] for r in rows]).t())
    pivots = set(pivot_rows(span))
    free = [ncols - 1 - i for i in range(ncols) if ncols - 1 - i not in pivots]
    res = _projection(span, free)
    return [ncols - 1 - f for f in free], [[r[ncols - 1 - i] for r in res.a] for i in range(ncols)]


# -- headline queries --------------------------------------------------------

@lru_cache(maxsize=64)
def _algebra(q: Quiver) -> PathAlgebra:
    """One shared PathAlgebra (and its built slices) per quiver, at most 64 kept."""
    return PathAlgebra(q)


def algebra(q: Quiver) -> PathAlgebra:
    return _algebra(q)


def hilbert(q: Quiver, max_len: int) -> list[int]:
    """Total dimension of each degree 0..max_len of the preprojective quotient."""
    alg = algebra(q)
    return [alg.slice(n).dim() for n in range(max_len + 1)]


def vanishing_bound(q: Quiver, cap: int = 24) -> int:
    """First degree N with slices N and N+1 both zero (finite type only)."""
    if cartan_matrix(q).kind != "finite":
        raise NotFiniteTypeError("the quotient never vanishes outside finite type")
    alg = algebra(q)
    prev_zero = False
    for n in range(cap + 1):
        if alg.slice(n).dim() == 0:
            if prev_zero:
                return n - 1
            prev_zero = True
        else:
            prev_zero = False
    raise NotFiniteTypeError(f"no vanishing detected within degree cap {cap}")


def default_truncation(q: Quiver) -> int:
    """Full algebra in finite type, otherwise twice the vertex count."""
    if cartan_matrix(q).kind == "finite":
        return vanishing_bound(q)
    return 2 * len(q.vertices)
