"""Exact rational linear algebra.

Dense, immutable, row-major matrices over arbitrary-precision rationals.
Everything is computed exactly; no floating point appears anywhere in this
package.  Pivoting in row reduction always takes the first nonzero entry,
so reduced forms, kernels and solutions are reproducible across runs.

The scalar type is gmpy2.mpq when available (roughly an order of magnitude
faster than fractions.Fraction on the elimination-heavy workloads here) and
falls back to fractions.Fraction otherwise.  Both keep values in lowest
terms with positive denominator, print as "num/den", and hash alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)


def rational(value, den=None):
    """Coerce an int, a string like '3/4' or '-5', or a rational to Q."""
    if den is not None:
        return Q(value, den)
    return Q(value)


class Matrix:
    """Immutable dense matrix over exact rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries):
        entries = [Q(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._data = [entries[i * cols:(i + 1) * cols] for i in range(rows)]

    @classmethod
    def _wrap(cls, rows, cols, data):
        # internal: adopt `data` (list of row lists) without copying
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._data = data
        return m

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [list(r) for r in rows_list]
        if not rows_list:
            raise ValueError("from_rows needs at least one row")
        cols = len(rows_list[0])
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return cls(len(rows_list), cols, [e for r in rows_list for e in r])

    @classmethod
    def from_columns(cls, cols_list, rows=None):
        cols_list = [list(c) for c in cols_list]
        if not cols_list:
            if rows is None:
                raise ValueError("from_columns with no columns needs an explicit row count")
            return cls._wrap(rows, 0, [[] for _ in range(rows)])
        n = len(cols_list[0])
        if rows is not None and rows != n:
            raise ValueError("row count mismatch")
        if any(len(c) != n for c in cols_list):
            raise ValueError("ragged columns")
        data = [[Q(c[i]) for c in cols_list] for i in range(n)]
        return cls._wrap(n, len(cols_list), data)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._wrap(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        data = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = ONE
        return cls._wrap(n, n, data)

    @property
    def entries(self):
        """Row-major flat tuple of all entries."""
        return tuple(e for row in self._data for e in row)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return tuple(self._data[i])

    def column(self, j):
        return tuple(row[j] for row in self._data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._data == other._data

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix._wrap(self.rows, self.cols,
                            [[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self._data, other._data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix._wrap(self.rows, self.cols,
                            [[a - b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self._data, other._data)])

    def __neg__(self):
        return Matrix._wrap(self.rows, self.cols,
                            [[-a for a in row] for row in self._data])

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        """Matrix product, or scalar multiple when `other` is a scalar."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            out = [[ZERO] * other.cols for _ in range(self.rows)]
            for i, row in enumerate(self._data):
                orow = out[i]
                for k, a in enumerate(row):
                    if a:
                        brow = other._data[k]
                        for j, b in enumerate(brow):
                            if b:
                                orow[j] += a * b
            return Matrix._wrap(self.rows, other.cols, out)
        q = Q(other)
        return Matrix._wrap(self.rows, self.cols,
                            [[a * q for a in row] for row in self._data])

    def __rmul__(self, other):
        q = Q(other)
        return Matrix._wrap(self.rows, self.cols,
                            [[q * a for a in row] for row in self._data])

    def transpose(self):
        return Matrix._wrap(self.cols, self.rows,
                            [[self._data[i][j] for i in range(self.rows)]
                             for j in range(self.cols)])

    def apply(self, vec):
        """Matrix-vector product; `vec` is any sequence, result is a list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for j, x in enumerate(vec):
            if x:
                for i in range(self.rows):
                    a = self._data[i][j]
                    if a:
                        out[i] += a * x
        return out

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns.

        Deterministic: the pivot is always the first row with a nonzero
        entry in the current column.  Elimination skips zero factors and
        zero entries of the pivot row, so block-sparse inputs reduce fast.
        """
        data = [row[:] for row in self._data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if data[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            data[r], data[pr] = data[pr], data[r]
            prow = data[r]
            piv = prow[c]
            if piv != 1:
                inv = 1 / piv
                prow = [x * inv for x in prow]
                data[r] = prow
            # rows at or below r are zero left of c, so start the scan at c
            nz = [(j, prow[j]) for j in range(c, self.cols) if prow[j]]
            for i in range(len(data)):
                if i == r:
                    continue
                row = data[i]
                f = row[c]
                if f:
                    for j, v in nz:
                        row[j] -= f * v
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix._wrap(self.rows, self.cols, data), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right null space, one column per free variable."""
        red, pivots = self.rref()
        pivset = set(pivots)
        cols = []
        for f in range(self.cols):
            if f in pivset:
                continue
            v = [ZERO] * self.cols
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -red._data[i][f]
            cols.append(v)
        return Matrix.from_columns(cols, rows=self.cols)

    def solve(self, rhs):
        """Solve self @ X = rhs for X (free variables set to zero).

        `rhs` may have several columns.  Returns None when any column has
        no solution.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        aug = hstack(self, rhs)
        red, pivots = aug.rref()
        for p in pivots:
            if p >= self.cols:
                return None
        out = [[ZERO] * rhs.cols for _ in range(self.cols)]
        for i, p in enumerate(pivots):
            out[p] = red._data[i][self.cols:]
        return Matrix._wrap(self.cols, rhs.cols, out)

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        sol = self.solve(Matrix.identity(self.rows))
        if sol is None:
            return None
        # solve() found a preimage of I; for square matrices that forces
        # full rank, but confirm to keep the contract airtight
        if (self * sol) != Matrix.identity(self.rows):
            return None
        return sol

    def kron(self, other):
        """Kronecker product; index (i,j) of a factor pair maps to i*dim+j."""
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [[ZERO] * cols for _ in range(rows)]
        for i, arow in enumerate(self._data):
            for j, a in enumerate(arow):
                if a:
                    base_r = i * other.rows
                    base_c = j * other.cols
                    for k, brow in enumerate(other._data):
                        orow = out[base_r + k]
                        for l, b in enumerate(brow):
                            if b:
                                orow[base_c + l] = a * b
        return Matrix._wrap(rows, cols, out)


def hstack(*mats):
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    data = [sum((m._data[i] for m in mats), []) for i in range(rows)]
    return Matrix._wrap(rows, sum(m.cols for m in mats), data)


def vstack(*mats):
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    data = [row[:] for m in mats for row in m._data]
    return Matrix._wrap(sum(m.rows for m in mats), cols, data)


def column_space_basis(m):
    """Canonical basis of the column space: nonzero rows of rref(m^T)."""
    red, pivots = m.transpose().rref()
    return Matrix.from_columns([red.row(i) for i in range(len(pivots))], rows=m.rows)


def spans_equal(a, b):
    """Whether two matrices with equally long columns span the same space."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch")
    return column_space_basis(a) == column_space_basis(b)


# -- vector helpers -----------------------------------------------------------
#
# Hot loops in the algebra layers work on plain lists of Q; Matrix is kept for
# operators and bases.

def vec_is_zero(v):
    return all(not x for x in v)


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_dot(u, v):
    s = ZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def integer_normalized(v):
    """Scale a nonzero rational vector to integer entries with content 1 and
    positive first nonzero entry.  The result is the unique such multiple."""
    v = [Q(x) for x in v]
    if vec_is_zero(v):
        raise ValueError("cannot normalize the zero vector")
    den_lcm = 1
    for x in v:
        if x:
            d = int(x.denominator)
            den_lcm = den_lcm // gcd(den_lcm, d) * d
    ints = [int(x * den_lcm) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    ints = [n // g for n in ints]
    first = next(n for n in ints if n)
    if first < 0:
        ints = [-n for n in ints]
    return [Q(n) for n in ints]
