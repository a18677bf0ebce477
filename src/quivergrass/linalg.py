"""Exact linear algebra over a field object from .fields.

Matrices are dense lists of rows. Subspaces are stored as canonical
column-echelon basis matrices: each basis column has a leading 1 at a pivot
row, pivot rows strictly increase left to right, and pivot rows are zero in
every other column. Two subspaces are equal iff their canonical matrices are
equal, which makes subspace sets and dedup keys cheap.

Entries are tested for zero by truthiness: a Fraction, and a prime-field int
normalized to 0..p-1, is falsy iff it is zero. `rref` is the one
elimination, over Q and F_p alike. It touches only nonzero entries: the
pivot row is scaled in its nonzero columns, and every other row is updated
in those columns only. Each solve makes exactly one elimination: `kernel`
eliminates M once, and `solve_right` and `solve_unique` read the solution
and the rank of A off one elimination of [A | B].
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import NonUniqueError, NoSolutionError, ShapeMismatchError


class Mat:
    __slots__ = ("field", "rows", "cols", "a")

    def __init__(self, field, rows: int, cols: int, entries):
        self.field = field
        self.rows = rows
        self.cols = cols
        a = [list(r) for r in entries]
        if len(a) != rows or any(len(r) != cols for r in a):
            raise ShapeMismatchError(
                f"expected {rows}x{cols} entries, got {[len(r) for r in a]}"
            )
        self.a = a

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Mat":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.a[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field, entries, cols: int | None = None) -> "Mat":
        entries = [[field.of(x) for x in r] for r in entries]
        rows = len(entries)
        if cols is None:
            if rows == 0:
                raise ShapeMismatchError("cols required for a 0-row matrix")
            cols = len(entries[0])
        return cls(field, rows, cols, entries)

    @classmethod
    def column(cls, field, vec) -> "Mat":
        return cls(field, len(vec), 1, [[field.of(v)] for v in vec])

    def copy(self) -> "Mat":
        return Mat(self.field, self.rows, self.cols, self.a)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        out = Mat.zeros(f, self.rows, other.cols)
        for ai, oi in zip(self.a, out.a):
            for c, bk in zip(ai, other.a):
                if not c:
                    continue
                for j, y in enumerate(bk):
                    if y:
                        oi[j] = f.add(oi[j], f.mul(c, y))
        return out

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        f = self.field
        return Mat(
            f,
            self.rows,
            self.cols,
            [
                [f.add(x, y) for x, y in zip(r, s)]
                for r, s in zip(self.a, other.a)
            ],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        f = self.field
        return Mat(
            f,
            self.rows,
            self.cols,
            [
                [f.sub(x, y) for x, y in zip(r, s)]
                for r, s in zip(self.a, other.a)
            ],
        )

    def __neg__(self) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, [[f.neg(x) for x in r] for r in self.a])

    def scale(self, c) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, [[f.mul(c, x) for x in r] for r in self.a])

    def t(self) -> "Mat":
        return Mat(
            self.field,
            self.cols,
            self.rows,
            [[self.a[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatchError("hstack row mismatch")
        return Mat(
            self.field,
            self.rows,
            self.cols + other.cols,
            [r + s for r, s in zip(self.a, other.a)],
        )

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatchError("vstack col mismatch")
        return Mat(self.field, self.rows + other.rows, self.cols, self.a + other.a)

    def col(self, j: int) -> list:
        return [self.a[i][j] for i in range(self.rows)]

    def take_cols(self, idx) -> "Mat":
        return Mat(
            self.field,
            self.rows,
            len(idx),
            [[r[j] for j in idx] for r in self.a],
        )

    def take_rows(self, idx) -> "Mat":
        return Mat(self.field, len(idx), self.cols, [self.a[i] for i in idx])

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.a)

    def key(self) -> tuple:
        return (self.rows, self.cols, tuple(tuple(r) for r in self.a))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols}, {self.a})"

    def to_lists(self) -> list:
        return [list(r) for r in self.a]

    def _same_shape(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Row-reduced echelon form and the pivot column list.

    Once a pivot row is scaled to a leading 1, its nonzero columns are
    collected; every other row with a nonzero entry in the pivot column is
    then updated in those columns only.
    """
    f = m.field
    one, mul, sub = f.one, f.mul, f.sub
    nrows, ncols = m.rows, m.cols
    a = [list(r) for r in m.a]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        nz = [j for j in range(c, ncols) if prow[j]]
        if prow[c] != one:
            s = f.inv(prow[c])
            for j in nz:
                prow[j] = mul(s, prow[j])
        entries = [(j, prow[j]) for j in nz]
        for i, row in enumerate(a):
            coef = row[c]
            if coef and i != r:
                for j, y in entries:
                    row[j] = sub(row[j], mul(coef, y))
        pivots.append(c)
        r += 1
    return Mat(f, nrows, ncols, a), pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def col_space(m: Mat) -> Mat:
    """Canonical column-echelon basis of the column span."""
    r, pivots = rref(m.t())
    basis_rows = [r.a[i] for i in range(len(pivots))]
    return Mat(m.field, m.rows, len(pivots), list(map(list, zip(*basis_rows)))) \
        if basis_rows else Mat(m.field, m.rows, 0, [[] for _ in range(m.rows)])


def pivot_rows(w: Mat) -> list[int]:
    """Pivot rows of a canonical column-echelon matrix."""
    out = []
    for j in range(w.cols):
        for i in range(w.rows):
            if w.a[i][j]:
                out.append(i)
                break
    return out


def kernel(m: Mat) -> Mat:
    """Canonical basis of the right null space, as columns.

    M is eliminated once with its columns reversed. Each free column then
    carries a 1 above every other nonzero of its basis vector, and that
    vector is zero in the other free columns, so the basis is canonical as
    built.
    """
    f = m.field
    n = m.cols
    r, pivots = rref(Mat(f, m.rows, n, [row[::-1] for row in m.a]))
    pivot_set = set(pivots)
    cols = []
    for fc in reversed(range(n)):
        if fc in pivot_set:
            continue
        v = [f.zero] * n
        v[n - 1 - fc] = f.one
        for i, pc in enumerate(pivots):
            x = r.a[i][fc]
            if x:
                v[n - 1 - pc] = f.neg(x)
        cols.append(v)
    if not cols:
        return Mat(f, n, 0, [[] for _ in range(n)])
    return Mat(f, n, len(cols), list(map(list, zip(*cols))))


def _solve(a: Mat, b: Mat) -> tuple[Mat | None, int]:
    """One elimination of [A | B]: a solution X of A X = B (or None) and rank A.

    The rank of A is the number of pivots left of column A.cols; A X = B is
    solvable iff no pivot lies right of it. Free variables are set to zero.
    """
    r, pivots = rref(a.hstack(b))
    rank_a = bisect_left(pivots, a.cols)
    if rank_a != len(pivots):
        return None, rank_a
    x = Mat.zeros(a.field, a.cols, b.cols)
    for i, pc in enumerate(pivots):
        x.a[pc] = r.a[i][a.cols:]
    return x, rank_a


def solve_right(a: Mat, b: Mat) -> Mat | None:
    """One solution X of A X = B, or None. Free variables are set to zero."""
    return _solve(a, b)[0]


def solve_unique(a: Mat, b: Mat) -> Mat:
    """The unique solution of A X = B; raises if none or many."""
    x, rank_a = _solve(a, b)
    if x is None:
        raise NoSolutionError("linear system has no solution")
    if rank_a != a.cols:
        raise NonUniqueError("linear system has a nontrivial null space")
    return x


def membership_residual(w: Mat) -> Mat:
    """R with R v = 0 iff v lies in the span of canonical basis w."""
    f = w.field
    piv = pivot_rows(w)
    sel = Mat.zeros(f, w.cols, w.rows)
    for j, p in enumerate(piv):
        sel.a[j][p] = f.one
    return Mat.identity(f, w.rows) - (w @ sel)


def contains_vector(w: Mat, v: list) -> bool:
    return (membership_residual(w) @ Mat.column(w.field, v)).is_zero()


def subspace_contains(w: Mat, u: Mat) -> bool:
    """Whether span(u) is inside span(w); both are basis matrices."""
    return (membership_residual(w) @ u).is_zero()


def subspace_sum(a: Mat, b: Mat) -> Mat:
    return col_space(a.hstack(b))


def subspace_intersect(a: Mat, b: Mat) -> Mat:
    ra = membership_residual(a)
    rb = membership_residual(b)
    return kernel(ra.vstack(rb))


def preimage(x: Mat, w: Mat) -> Mat:
    """Canonical basis of {v : X v in span(w)}; w over the target space."""
    return kernel(membership_residual(w) @ x)


def coords_in(w: Mat, b: Mat) -> Mat:
    """Coordinates of the columns of b in the canonical basis w."""
    f = w.field
    piv = pivot_rows(w)
    c = b.take_rows(piv) if piv else Mat(f, 0, b.cols, [])
    if (w @ c).key() != b.key():
        raise NoSolutionError("columns do not lie in the given subspace")
    return c


def char_poly(m: Mat) -> list:
    """Coefficients of det(tI - M), lowest degree first. Rationals only."""
    f = m.field
    if f.char != 0:
        raise ShapeMismatchError("char_poly requires rational entries")
    n = m.rows
    coeffs = [f.zero] * (n + 1)
    coeffs[n] = f.one
    mk = Mat.identity(f, n)
    for k in range(1, n + 1):
        mk = m @ mk
        tr = f.zero
        for i in range(n):
            tr = f.add(tr, mk.a[i][i])
        ck = f.mul(f.inv(f.of(k)), tr)
        coeffs[n - k] = f.neg(ck)
        for i in range(n):
            mk.a[i][i] = f.sub(mk.a[i][i], ck)
    return coeffs


def det(m: Mat):
    """Exact determinant by fraction-free-ish elimination through the field."""
    f = m.field
    if m.rows != m.cols:
        raise ShapeMismatchError("determinant of a non-square matrix")
    n = m.rows
    a = [list(r) for r in m.a]
    sign = 1
    acc = f.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            return f.zero
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        piv = a[c][c]
        acc = f.mul(acc, piv)
        inv = f.inv(piv)
        for i in range(c + 1, n):
            if a[i][c]:
                coef = f.mul(a[i][c], inv)
                a[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(a[i], a[c])]
    return acc if sign == 1 else f.neg(acc)


def mat_over(field, m: Mat) -> Mat:
    """Re-coerce a matrix entrywise into another field (e.g. reduce mod p)."""
    return Mat(field, m.rows, m.cols, [[field.of(x) for x in r] for r in m.a])
