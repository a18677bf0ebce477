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
falsy iff zero. `row_times(field, row, m)` is the one product kernel: it
gives row·m as a list, and `Mat.__matmul__` maps it over its rows, while
`hull` extends its path rows with it directly, no 1 x n `Mat` per row.
`echelon(field, rows, width)` is the
one elimination, over Q and F_p alike. It works on sparse rows, each a dict
{column: nonzero entry}: every incoming row is reduced against a fully
reduced basis keyed by pivot column, entries that cancel are dropped, and
the basis it returns is the unique RREF. Once it holds `width` pivots, one
per column, the RREF is the identity and it reads no further row;
`rank`, `kernel` and `preimage` build their rows lazily, so rows of a tall
full-rank input past that point are never built. `col_space` and `kernel` read
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

Subspace questions go through one residual, u - w·u[P], where P lists the
pivot rows of the canonical basis w. Because w is the identity on P, a
column v of u lies in span(w) iff v = w·v[P], that is iff its residual
column is zero. `_residual_rows(w, u)` yields the residual one row at a
time, from the k-row slice u[P] and the nonzero entries of w, never an
n x n product: `subspace_contains(w, u)` stops at the first nonzero row.
`preimage` takes a list of (X, w) pairs over one source and stacks the
residual rows of every pair; the kernel of the stack is
{v : X v in span(w) for every pair}, so k pairs cost one elimination, not
the 2k - 1 of a chain of single preimages and meets. The kernel is
canonical as built, so the stacked answer equals the chained one.
`subspace_intersect(a, b)` is one `preimage`: a·C with C = preimage([(a, b)]),
the coefficient vectors c with a·c in span(b). When a and C are canonical,
so is a·C: its rows at a's pivot rows are C's rows, and column t starts
with the leading 1 of a's column at C's t-th pivot row, so no further
`col_space` pass is needed. A sum of subspaces is `col_space` of the
concatenated bases. A canonical basis with as many columns as rows is the
identity, the whole space, so intersecting with it returns the other basis
unchanged, the same object, with no elimination. `_projection(w, free)`
writes the projection along span(w) onto the free rows directly, row f as
e_f - sum_j w[f, j]·e_{p_j}, for quotients.

Over F_p, submodule enumeration works on `Subspace`, not `Mat`: a pivot
tuple and basis columns, each packed into one int with a fixed-width lane
per entry, canonical by construction, since only four constructors make
one. Each updates a whole column by one int multiply-add and reduces every
lane at once, by one Barrett step, only when a lane must be read (see
`Subspace`). `extend` clears each new vector at the stored pivots and its
leading row from the stored columns; `meet_preimage` gives
{x in span(h) : X·x in span(w)} by one elimination of the images of h's
columns under X cleared at w's pivots, carrying their combinations; `contains`
reads a column's coordinates off the pivots; and `merge` joins two bases
with disjoint pivot rows without eliminating, which is how
`grassmann._cells_between` builds its cells. Each sees an arrow map X as
packed image columns (j, X·e_j), which `grassmann._CountSetup`, the one
F_p walk set-up of a representation, builds once per prime from its
`sparse_columns`, the nonzero columns as (column, ((row, entry), ...))
pairs: hull maps are mostly zero, with at most one nonzero per column.
`Subspace.to_mat` unpacks the basis into the `Mat` that `col_space` gives
for any spanning set. Every other caller (`repmod`,
`hull`, `demazure`, `geomrep`, `acceptance`) uses the Mat functions above.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache

from .errors import LimitError, ShapeMismatchError


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
        return Mat(f, self.rows, other.cols, [row_times(f, r, other) for r in self.a])

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


def row_times(field, row, m: Mat) -> list:
    """The row vector row·m as a list; `Mat.__matmul__` maps it over its rows."""
    add, mul = field.add, field.mul
    out = [field.zero] * m.cols
    for c, bk in zip(row, m.a):
        if c:
            for j, y in enumerate(bk):
                if y:
                    out[j] = add(out[j], mul(c, y))
    return out


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


def echelon(field, rows, width: int) -> dict:
    """The reduced row echelon form of sparse rows, as {pivot column: row}.

    A row is a dict {column: nonzero entry}, every column below `width`;
    the rows are adopted and changed in place. Each row in turn is reduced
    against the basis built so far, which is fully reduced: every basis row
    is zero at every other pivot column, so each pivot column the row holds
    is cleared by one subtraction that creates no entry at another pivot. A
    row left nonempty is scaled to a leading 1 at its least column c, c is
    cleared from every basis row, and the row joins the basis at c. Entries
    that cancel are dropped, so no stored entry is zero and none becomes a
    pivot. Each row keeps its 1 at its pivot, the least column it holds, and
    the basis is the unique RREF of the rows' span, zero rows dropped. Once
    every one of the `width` columns is a pivot the basis is the identity
    and every later row would reduce to zero, so no further row is read.
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
        if len(basis) == width:
            break
    for c, r in basis.items():
        r[c] = one
    return basis


def rank(m: Mat) -> int:
    return len(echelon(m.field, _reversed_rows(m.a, m.cols), m.cols))


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
    basis = echelon(f, cols, m.rows)
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


def _reversed_rows(rows, n: int):
    """Dense rows of width n as sparse rows with column j read as n - 1 - j,
    each built when read, so rows past a full-rank stop are never built."""
    return ({n - 1 - j: x for j, x in enumerate(r) if x} for r in rows)


def _null_space(f, rows, n: int) -> Mat:
    """Canonical basis of {v in F^n : r·v = 0 for every row r}, as columns.

    The rows are sparse and arrive with their columns already reversed,
    column j read as n - 1 - j (`_reversed_rows` makes them from dense
    rows); they are eliminated once. Each free column then carries a 1
    above every other nonzero of its basis vector, and that vector is zero
    in the other free columns, so the basis is canonical as built.
    """
    basis = echelon(f, rows, n)
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


def subspace_contains(w: Mat, u: Mat) -> bool:
    """Whether span(u) is inside span(w); w is a canonical basis.

    Stops at the first residual row with a nonzero entry.
    """
    return not any(map(any, _residual_rows(w, u)))


def subspace_intersect(a: Mat, b: Mat) -> Mat:
    """Canonical basis of span(a) ∩ span(b); a and b are canonical bases.

    It is a·C with C = preimage([(a, b)]), the coefficient vectors c with
    a·c in span(b). A canonical a with as many columns as rows is the
    identity, so the meet is b itself, returned as is.
    """
    if a.cols == a.rows == b.rows:
        return b
    return a @ preimage([(a, b)])


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


def mat_over(field, m: Mat) -> Mat:
    """Re-coerce a matrix entrywise into another field (e.g. reduce mod p)."""
    return Mat(field, m.rows, m.cols, [[field.of(x) for x in r] for r in m.a])


def _projection(w: Mat, free) -> Mat:
    """Rows f of u - w·u[P] at u = I, for f in `free`: the projection along span(w).

    w is canonical with pivot rows P = (p_j), and no f is a pivot row. Row f
    is written directly as e_f - sum_j w[f, j]·e_{p_j}.
    """
    f = w.field
    neg = f.neg
    pivots = pivot_rows(w)
    out = []
    for i in free:
        row = [f.zero] * w.rows
        row[i] = f.one
        for pj, x in zip(pivots, w.a[i]):
            if x:
                row[pj] = neg(x)
        out.append(row)
    return Mat(f, len(out), w.rows, out)


# -- subspaces of F_p^n ----------------------------------------------------------

# Between two reductions a lane sums at most 2n products of two residues
# (see `Subspace`); n <= MAX_PACKED_DIM keeps it below 2^16·p^2 <= 2^E.
MAX_PACKED_DIM = 2**15 - 1


class _Lanes:
    """The lane layout of F_p^n and its one reduction (see `Subspace`)."""

    __slots__ = ("p", "bits", "width", "mask", "shifts", "reduce")

    def __init__(self, p: int, n: int):
        b = p.bit_length()
        self.p = p
        self.bits = e = 2 * b + 16
        self.width = w = 2 * e + 2
        self.mask = (1 << w) - 1
        self.shifts = tuple(range(0, w * n, w))
        s = e + b + 1
        m = (1 << s) // p + 1
        # E - b + 1 low bits of each lane; sum_{i<n} 2^(W·i) = (2^(W·n) - 1) / (2^W - 1).
        q = ((1 << (e - b + 1)) - 1) * (((1 << (w * n)) - 1) // self.mask)

        def reduce(v: int) -> int:
            """Every lane of v, each below 2^E, reduced mod p by one Barrett step;
            a closure, as the walk's most frequent call, reading cells, not attributes."""
            return v - p * (((v * m) >> s) & q)

        self.reduce = reduce


@lru_cache(maxsize=256)
def _lanes(p: int, n: int) -> _Lanes:
    """The lane kernel of F_p^n; a dimension past MAX_PACKED_DIM is refused."""
    if n > MAX_PACKED_DIM:
        raise LimitError(
            f"vertex dimension {n} exceeds {MAX_PACKED_DIM}, the largest whose "
            f"packed F_p lanes stay below their reduction bound"
        )
    return _Lanes(p, n)


def sparse_columns(m: Mat) -> list:
    """The nonzero columns of m as (j, ((i, m[i][j]), ...)) pairs, j increasing."""
    out = []
    for j in range(m.cols):
        col = tuple((i, r[j]) for i, r in enumerate(m.a) if r[j])
        if col:
            out.append((j, col))
    return out


def _image(xcols, lanes: _Lanes, vectors):
    """Yield X·v = sum_j v_j·(X·e_j), unreduced, for each packed vector v of
    `lanes`, X given by its packed image columns (j, X·e_j)."""
    sh, mask = lanes.shifts, lanes.mask
    for v in vectors:
        out = 0
        for j, col in xcols:
            a = (v >> sh[j]) & mask
            if a:
                out += a * col
        yield out


class Subspace:
    """A subspace of F_p^n, held by its canonical column-echelon basis.

    `piv` is the tuple of pivot rows, strictly increasing, and `cols[j]` is
    the basis column with its leading 1 at piv[j], zero above piv[j] and at
    every other pivot row, the form `col_space` gives. Only the constructors
    below make one, and each keeps that form, so a Subspace is canonical by
    construction. A column is one int: entry i sits in lane i, bits
    [W·i, W·(i+1)). Stored columns are reduced, every lane in 0..p-1, so a
    column is canonical as an int and the column tuple is the key.

    Lanes (`lanes`, a `_Lanes`): with b = p.bit_length(), a lane holds a
    value below 2^E, E = 2b + 16, and W = 2E + 2, fixed by p. The
    constructors change a column only by v + (p - a)·c, a a residue and c a
    reduced column, or scale a reduced column, so no lane goes negative;
    between two reductions a lane sums at most 2n products below p^2 (an
    image over n source columns, then n pivots cleared), below 2^E while
    n <= MAX_PACKED_DIM, which `_lanes` enforces. `reduce` is Barrett's
    step with S = E + b + 1 and M = floor(2^S / p) + 1: a lane x has
    x·M < 2^(2E+2) = 2^W, so the lanes of v·M occupy disjoint bits, and
    (v·M) >> S, masked to E - b + 1 bits per lane, holds floor(x·M / 2^S)
    in each lane. That is floor(x / p), because x·M / 2^S exceeds x / p by
    less than 2^(E-S) < 1/p; so v - p·that is every lane mod p, with no
    borrow. A lane is read as a residue only after a reduction or with a
    final `% p`.
    """

    __slots__ = ("field", "n", "piv", "cols", "lanes")

    def __init__(self, field, n: int, piv: tuple = (), cols: tuple = (), lanes=None):
        self.field = field
        self.n = n
        self.piv = piv
        self.cols = cols
        self.lanes = lanes or _lanes(field.p, n)

    def key(self) -> tuple:
        """The basis columns; the basis is canonical, so two subspaces of one
        F_p^n are equal exactly when their keys are."""
        return self.cols

    @classmethod
    def whole(cls, field, n: int) -> "Subspace":
        ln = _lanes(field.p, n)
        return cls(field, n, tuple(range(n)), tuple(1 << t for t in ln.shifts), ln)

    def extend(self, vectors) -> "Subspace":
        """span(self) + span(vectors); a vector is an int in self's lanes, each
        lane at most MAX_PACKED_DIM products below p^2, as `_image` gives.

        Each vector in turn is cleared at the stored pivots, reduced, scaled
        to a leading 1 at its first nonzero row r, which is no stored pivot,
        and row r is cleared from the stored columns; it is then inserted in
        pivot order. The stored columns stay zero at every other pivot, and
        the new one is zero above r and at every stored pivot, so the result
        is canonical. When no vector is new, self is returned as is.
        """
        ln = self.lanes
        p, mask, sh, w, red = ln.p, ln.mask, ln.shifts, ln.width, ln.reduce
        piv, cols = list(self.piv), list(self.cols)
        for v in vectors:
            for q, c in zip(piv, cols):
                a = ((v >> sh[q]) & mask) % p
                if a:
                    v += (p - a) * c
            v = red(v)
            if not v:
                continue
            r = ((v & -v).bit_length() - 1) // w
            a = (v >> sh[r]) & mask
            if a != 1:
                v = red(v * pow(a, p - 2, p))
            for t, c in enumerate(cols):
                b = (c >> sh[r]) & mask
                if b:
                    cols[t] = red(c + (p - b) * v)
            t = bisect(piv, r)
            piv.insert(t, r)
            cols.insert(t, v)
        if len(piv) == len(self.piv):
            return self
        return Subspace(self.field, self.n, tuple(piv), tuple(cols), ln)

    def meet_preimage(self, xcols, w: "Subspace") -> "Subspace":
        """{x in span(self) : X·x in span(w)}, X given by packed image columns.

        One elimination. The residual R(y) = y - sum_q y[q]·w_q, q over w's
        pivots, is linear and zero exactly on span(w), so each column X·e_j
        is cleared at w's pivots once, and R(X·x) = sum_j x_j·R(X·e_j). The
        image R(X·h_k) of each of self's columns, the last column first, is
        reduced against the images kept so far, keyed by leading row,
        carrying the combination of h's it came from. An image reduced to
        zero gives a vector of the meet: h_k plus a combination of later
        columns whose images were kept. Self's columns are zero above their
        pivots and at each other's, so that vector has its leading 1 at
        self's k-th pivot and is zero at the other pivots of the meet: the
        meet is canonical as built. When w is the whole target, or every
        R(X·e_j) is zero, self is returned as is.
        """
        n = w.n
        if len(w.piv) == n or not self.piv:
            return self
        ln, src = w.lanes, self.lanes
        p, mask, sh, width, red = ln.p, ln.mask, ln.shifts, ln.width, ln.reduce
        ycols = []
        for j, v in xcols:
            for q, c in zip(w.piv, w.cols):
                a = (v >> sh[q]) & mask
                if a:
                    v += (p - a) * c
            v = red(v)
            if v:
                ycols.append((j, v))
        if not ycols:
            return self
        kept = {}
        piv, cols = [], []
        last = len(self.piv) - 1
        for k, v in zip(range(last, -1, -1), _image(ycols, src, self.cols[::-1])):
            carry = self.cols[k]
            v = red(v)
            while v:
                r = ((v & -v).bit_length() - 1) // width
                a = (v >> sh[r]) & mask
                b = kept.get(r)
                if b is None:
                    carry = src.reduce(carry)
                    if a != 1:
                        a = pow(a, p - 2, p)
                        v, carry = red(v * a), src.reduce(carry * a)
                    kept[r] = (v, carry)
                    break
                c, d = b
                v = red(v + (p - a) * c)
                carry += (p - a) * d
            else:
                piv.append(self.piv[k])
                cols.append(src.reduce(carry))
        if len(piv) == len(self.piv):
            return self
        return Subspace(self.field, self.n, tuple(piv[::-1]), tuple(cols[::-1]), src)

    def contains(self, other: "Subspace") -> bool:
        """Whether span(other) lies inside span(self).

        A vector of span(self) has its first nonzero at a pivot of self, so
        other's pivots must be among self's; each column of other, less its
        combination of self's columns read off at self's pivots, must then
        reduce to zero.
        """
        if not set(other.piv).issubset(self.piv):
            return False
        ln = self.lanes
        p, mask, sh = ln.p, ln.mask, ln.shifts
        for v in other.cols:
            r = v
            for q, c in zip(self.piv, self.cols):
                a = (v >> sh[q]) & mask
                if a:
                    r += (p - a) * c
            if ln.reduce(r):
                return False
        return True

    def merge(self, other: "Subspace") -> "Subspace":
        """span(self) + span(other) with no elimination; other is zero at self's pivots.

        Clearing self's columns at other's pivot rows subtracts from a
        column only columns of other whose pivot lies below its leading 1,
        which are zero down to that row and at self's pivots, so the leading
        1 and the zeros at self's pivots stay; the two column sets, merged
        in pivot order, are canonical. Other's columns are zero at each
        other's pivots, so every coefficient is read off the column as
        given.
        """
        if not other.piv:
            return self
        if not self.piv:
            return other
        ln = self.lanes
        p, mask, sh = ln.p, ln.mask, ln.shifts
        cols = []
        for c in self.cols:
            r = c
            for q, d in zip(other.piv, other.cols):
                a = (c >> sh[q]) & mask
                if a:
                    r += (p - a) * d
            cols.append(c if r is c else ln.reduce(r))
        piv, cols = zip(*sorted(zip(self.piv + other.piv, cols + list(other.cols))))
        return Subspace(self.field, self.n, piv, cols, ln)

    def to_mat(self) -> Mat:
        """The canonical basis as a Mat, equal to `col_space` of any spanning set."""
        mask = self.lanes.mask
        rows = [[(c >> t) & mask for c in self.cols] for t in self.lanes.shifts]
        return Mat(self.field, self.n, len(self.cols), rows)
