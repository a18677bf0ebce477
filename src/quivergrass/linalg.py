"""Exact linear algebra over a field object from .fields.

Matrices are dense lists of rows. A `Mat` adopts the row lists it is
given, without copying them, and checks their shape on every construction;
the caller hands over ownership and must not keep mutating those rows.
Every method that builds a matrix from another's rows (`take_rows`, `t`,
`hstack`) gives the new matrix row lists of its own, so no two
matrices share a row object. Subspaces are stored as canonical
column-echelon basis matrices: each basis column has a leading 1 at a pivot
row, pivot rows strictly increase left to right, and pivot rows are zero in
every other column. Two subspaces are equal iff their canonical matrices are
equal, which makes subspace sets and dedup keys cheap.

Entries are tested for zero by truthiness: a rational (an int when
integral, else a Fraction) and a prime-field int normalized to 0..p-1 are
falsy iff zero. `echelon(field, rows)` is the
one elimination, over Q and F_p alike. It works on sparse rows, each a dict
{column: nonzero entry}: every incoming row is reduced against a fully
reduced basis keyed by pivot column, entries that cancel are dropped, and
the basis it returns is the unique RREF. `col_space` and `kernel` read
their answers straight off its dict rows, so only nonzero entries are ever
stored or touched, and `rank` counts its pivots. Each answer costs exactly
one elimination, and no code reads a solution off pivots: the one matrix
inverse the package takes, in `acceptance`, is the lower half of the
canonical basis of span([M; I]), which is [I; M^-1]. `_null_space` takes
its rows with the columns already reversed, so `kernel` and `preimage`
copy each dense row once, straight into that form. No module outside
`linalg` eliminates; the Cartan classification in `quiver` pivots on its
symmetric form by congruence and solves nothing, and `hull` reads its
module maps off the path basis and solves nothing.

Subspace questions go through one residual, `_residual(w, u) = u - w·u[P]`,
where P lists the pivot rows of the canonical basis w. Because w is the
identity on P, a column v of u lies in span(w) iff v = w·v[P], that is iff
its residual column is zero. The residual is built from the k-row slice u[P]
and the nonzero entries of w, and has the shape of u, never n x n:
`subspace_contains(w, u)` builds it row by row and stops at the first
nonzero row. `preimage` takes a list of (X, w) pairs over one source and
stacks the residual rows of every pair; the kernel of the stack is
{v : X v in span(w) for every pair}, so k pairs cost one elimination, not
the 2k - 1 of a chain of single preimages and meets. The kernel is
canonical as built, so the stacked answer equals the chained one.
`subspace_intersect(a, b)` is a·C with C the kernel of `_residual(b, a)`,
the coefficient vectors c with a·c in span(b). When a and C are canonical,
so is a·C: its rows at a's pivot rows are C's rows, and column t starts
with the leading 1 of a's column at C's t-th pivot row, so no further
`col_space` pass is needed. `subspace_sum(a, b)` is one elimination of
[a | b]; reducing b against a first and merging the two bases cost more
than it saved. `_merge` joins two canonical bases with disjoint pivot rows
without eliminating, which is how `grassmann._cells_between` builds its
cells. A canonical basis with as many columns as rows is the identity, the
whole space, so intersecting with it returns the other basis unchanged, the
same object, with no elimination.
"""

from __future__ import annotations

from .errors import NoSolutionError, ShapeMismatchError


class Mat:
    __slots__ = ("field", "rows", "cols", "a")

    def __init__(self, field, rows: int, cols: int, entries):
        if len(entries) != rows or any(map(cols.__ne__, map(len, entries))):
            raise ShapeMismatchError(
                f"expected {rows}x{cols} entries, got {[len(r) for r in entries]}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.a = entries

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

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        add, mul = f.add, f.mul
        z = f.zero
        out = []
        for ai in self.a:
            oi = [z] * other.cols
            for c, bk in zip(ai, other.a):
                if c:
                    for j, y in enumerate(bk):
                        if y:
                            oi[j] = add(oi[j], mul(c, y))
            out.append(oi)
        return Mat(f, self.rows, other.cols, out)

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

    def scale(self, c) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, [[f.mul(c, x) for x in r] for r in self.a])

    def t(self) -> "Mat":
        if not self.rows:
            return Mat(self.field, self.cols, 0, [[] for _ in range(self.cols)])
        return Mat(self.field, self.cols, self.rows, list(map(list, zip(*self.a))))

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatchError("hstack row mismatch")
        return Mat(
            self.field,
            self.rows,
            self.cols + other.cols,
            [r + s for r, s in zip(self.a, other.a)],
        )

    def take_cols(self, idx) -> "Mat":
        return Mat(
            self.field,
            self.rows,
            len(idx),
            [[r[j] for j in idx] for r in self.a],
        )

    def take_rows(self, idx) -> "Mat":
        return Mat(self.field, len(idx), self.cols, [self.a[i][:] for i in idx])

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


def _sparse(rows) -> list[dict]:
    """Dense rows as dict rows {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _axpy(row: dict, c, other: dict, add, mul) -> None:
    """row += c·other in place, dropping every entry that cancels to zero."""
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            row[j] = mul(c, y)
        else:
            x = add(x, mul(c, y))
            if x:
                row[j] = x
            else:
                del row[j]


def echelon(field, rows) -> dict:
    """The reduced row echelon form of sparse rows, as {pivot column: row}.

    A row is a dict {column: nonzero entry}; the rows are adopted and
    changed in place. Each row in turn is reduced against the basis built
    so far, which is fully reduced: every basis row is zero at every other
    pivot column, so each pivot column the row holds is cleared by one
    subtraction that creates no entry at another pivot. A row left nonempty
    is scaled to a leading 1 at its least column c, c is cleared from every
    basis row, and the row joins the basis at c. Entries that cancel are
    dropped, so no stored entry is zero and none becomes a pivot. Each row
    keeps its 1 at its pivot, the least column it holds, and the basis is
    the unique RREF of the rows' span, zero rows dropped.
    """
    one, add, mul, neg, inv = field.one, field.add, field.mul, field.neg, field.inv
    basis = {}
    for r in rows:
        for p in [c for c in r if c in basis]:
            _axpy(r, neg(r.pop(p)), basis[p], add, mul)
        if not r:
            continue
        c = min(r)
        lead = r.pop(c)
        if lead != one:
            s = inv(lead)
            for j, x in r.items():
                r[j] = mul(s, x)
        for t in basis.values():
            if c in t:
                _axpy(t, neg(t.pop(c)), r, add, mul)
        basis[c] = r
    for c, r in basis.items():
        r[c] = one
    return basis


def rank(m: Mat) -> int:
    return len(echelon(m.field, _sparse(m.a)))


def col_space(m: Mat) -> Mat:
    """Canonical column-echelon basis of the column span.

    The columns of m are eliminated as sparse rows, and the basis columns
    are the rows of their RREF in pivot order.
    """
    f = m.field
    cols = [{} for _ in range(m.cols)]
    for i, r in enumerate(m.a):
        for j, x in enumerate(r):
            if x:
                cols[j][i] = x
    basis = echelon(f, cols)
    out = [[f.zero] * len(basis) for _ in range(m.rows)]
    for t, p in enumerate(sorted(basis)):
        for i, x in basis[p].items():
            out[i][t] = x
    return Mat(f, m.rows, len(basis), out)


def pivot_rows(w: Mat) -> list[int]:
    """Pivot rows of a canonical column-echelon matrix.

    Column j is zero above its pivot row, which lies below column j-1's, so
    one pass down the rows finds every pivot in order.
    """
    out = []
    j = 0
    for i, r in enumerate(w.a):
        if j == w.cols:
            break
        if r[j]:
            out.append(i)
            j += 1
    return out


def _reversed_rows(rows, n: int) -> list[dict]:
    """Dense rows of width n as sparse rows with column j read as n - 1 - j."""
    return [{n - 1 - j: x for j, x in enumerate(r) if x} for r in rows]


def _null_space(f, rows, n: int) -> Mat:
    """Canonical basis of {v in F^n : r·v = 0 for every row r}, as columns.

    The rows are sparse and arrive with their columns already reversed,
    column j read as n - 1 - j (`_reversed_rows` makes them from dense
    rows); they are eliminated once. Each free column then carries a 1
    above every other nonzero of its basis vector, and that vector is zero
    in the other free columns, so the basis is canonical as built.
    """
    basis = echelon(f, rows)
    free = {j: t for t, j in enumerate(j for j in range(n) if n - 1 - j not in basis)}
    out = [[f.zero] * len(free) for _ in range(n)]
    for j, t in free.items():
        out[j][t] = f.one
    for pc, r in basis.items():
        row = out[n - 1 - pc]
        for c, x in r.items():
            if c != pc:
                row[free[n - 1 - c]] = f.neg(x)
    return Mat(f, n, len(free), out)


def kernel(m: Mat) -> Mat:
    """Canonical basis of the right null space, as columns."""
    return _null_space(m.field, _reversed_rows(m.a, m.cols), m.cols)


def _residual_rows(w: Mat, u: Mat):
    """Yield the rows of u - w·u[pivot rows of w], top to bottom, one at a time.

    w must be canonical. Only the nonzero entries of w and of the pivot-row
    slice of u are visited, and a row is built only when it is asked for.
    """
    if w.rows != u.rows:
        raise ShapeMismatchError(f"cannot reduce {u.rows}-row columns by a {w.rows}-row basis")
    f = w.field
    mul, sub = f.mul, f.sub
    slices = [[(t, y) for t, y in enumerate(u.a[p]) if y] for p in pivot_rows(w)]
    for ui, wi in zip(u.a, w.a):
        row = list(ui)
        for j, x in enumerate(wi):
            if x:
                for t, y in slices[j]:
                    row[t] = sub(row[t], mul(x, y))
        yield row


def _residual(w: Mat, u: Mat) -> Mat:
    """u - w·u[pivot rows of w]: zero exactly in the columns of u inside span(w).

    w must be canonical; the result is n x cols(u).
    """
    return Mat(w.field, u.rows, u.cols, list(_residual_rows(w, u)))


def subspace_contains(w: Mat, u: Mat) -> bool:
    """Whether span(u) is inside span(w); w is a canonical basis.

    Stops at the first residual row with a nonzero entry.
    """
    return not any(map(any, _residual_rows(w, u)))


def _merge(a: Mat, b: Mat) -> Mat:
    """Canonical basis of span(a) + span(b), built with no elimination.

    a and b are canonical and b is zero on a's pivot rows P, so b's pivot
    rows Q are disjoint from P. Clearing a at Q (`_residual(b, a)`)
    subtracts from a's column j only columns of b whose pivot row lies
    below a's leading 1 at p_j (a is zero above p_j); they are zero down to
    that pivot row and on P, so the leading 1 and the zeros on P stay, and
    each row of Q is left exactly zero because b is the identity on Q. The
    two column sets, merged in pivot-row order, are then canonical. When
    either basis is empty the other is returned as is, the same object.
    """
    if not b.cols:
        return a
    if not a.cols:
        return b
    order = [j for _, j in sorted(zip(pivot_rows(a) + pivot_rows(b), range(a.cols + b.cols)))]
    return Mat(
        a.field,
        a.rows,
        len(order),
        [[r[j] for j in order] for r in map(list.__add__, _residual_rows(b, a), b.a)],
    )


def subspace_sum(a: Mat, b: Mat) -> Mat:
    """Canonical basis of span(a) + span(b), by one elimination of [a | b]."""
    return col_space(a.hstack(b))


def subspace_intersect(a: Mat, b: Mat) -> Mat:
    """Canonical basis of span(a) ∩ span(b); a and b are canonical bases.

    A canonical a with as many columns as rows is the identity, so the meet
    is b itself, returned as is.
    """
    if a.cols == a.rows == b.rows:
        return b
    return a @ kernel(_residual(b, a))


def preimage(pairs) -> Mat:
    """Canonical basis of {v : X v in span(w) for every pair (X, w)}.

    `pairs` is a nonempty list of (map X, canonical basis w of X's target);
    the maps share a source. Their residual rows are stacked, straight into
    reversed sparse rows, and the kernel of the stack is taken in one
    elimination.
    """
    x = pairs[0][0]
    rows = (r for m, w in pairs for r in _residual_rows(w, m))
    return _null_space(x.field, _reversed_rows(rows, x.cols), x.cols)


def coords_in(w: Mat, b: Mat) -> Mat:
    """Coordinates of the columns of b in the canonical basis w."""
    if not subspace_contains(w, b):
        raise NoSolutionError("columns do not lie in the given subspace")
    return b.take_rows(pivot_rows(w))


def mat_over(field, m: Mat) -> Mat:
    """Re-coerce a matrix entrywise into another field (e.g. reduce mod p)."""
    return Mat(field, m.rows, m.cols, [[field.of(x) for x in r] for r in m.a])
