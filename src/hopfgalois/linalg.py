"""Exact rational linear algebra.

Immutable sparse-row matrices over arbitrary-precision rationals: each row
keeps only its nonzero entries, so work scales with the nonzeros, not the
shape.  Everything is computed exactly; no floating point appears anywhere
in this package.  mul_kron multiplies by a Kronecker product without
building it.  The product kernels (Matrix.__mul__, mul_kron, kron and the
row sums of + and -) ask a scalar nothing that one of two rules answers:

* A factor of one is the shared ONE.  Every constructor that coerces or
  adds up values (from_entries, Matrix(), from_rows, identity, permutation,
  rref, kernel_form, rational, and so the unit of an Algebra) stores ONE
  for an entry equal to 1, so a kernel tests `a is ONE` and then adds or
  copies without arithmetic.  A 1 made some other way, say 2 * 1/2, is
  simply multiplied: the value is the same.
* A stored row is zero-free, and a product of nonzeros is nonzero, so a
  kernel tests for zero only at the positions where it formed a sum.

Row reduction eliminates on primitive integer rows and returns the unique
reduced row echelon form, whichever rows it pivots on, so kernels and
solutions are reproducible across runs.  A solve against a matrix in which
every column owns a row (a row whose only nonzero sits in that column),
such as a kernel basis with its free rows, eliminates nothing: the answer
is read off the owned rows and checked by one product.  The rank rule uses
the same test: the owned rows of such a matrix hold a diagonal of nonzeros,
so its rank is its column count, read with no elimination; a monomial
matrix (one nonzero in each row and column) is one.  A Span grows a
subspace one vector at a time and says which vectors grew it.

The scalar type is gmpy2.mpq when available (roughly an order of magnitude
faster than fractions.Fraction on the elimination-heavy workloads here) and
falls back to Q, a fractions.Fraction subclass, otherwise.  Q works on the
numerator and denominator ints directly when both operands are Q or int,
skipping Fraction's operand dispatch and its second normalisation; every
other operand goes to Fraction's own method, and a rational result comes
back as a Q.  Both types keep values in lowest terms with positive
denominator, print as "num/den", and hash alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is optional
    _new = object.__new__

    def _as_q(x):
        # a rational result of a Fraction method, as a Q; anything else as it is
        if type(x) is Fraction:
            q = _new(Q)
            q._numerator, q._denominator = x._numerator, x._denominator
            return q
        return x

    class Q(Fraction):
        """A Fraction whose arithmetic with a Q or an int works on the
        numerator and denominator ints directly.

        Sums, products and quotients split their gcds as CPython 3.12's
        fractions does (Knuth, TAOCP vol. 2, 4.5.1), so each result is built
        once, already in lowest terms with a positive denominator.  Any other
        operand goes to Fraction's own method, and a Fraction it returns comes
        back as a Q.
        """

        __slots__ = ()

        def __new__(cls, numerator=0, denominator=None):
            if type(numerator) is int:
                if denominator is None:
                    q = _new(cls)
                    q._numerator, q._denominator = numerator, 1
                    return q
                if type(denominator) is int:
                    if not denominator:
                        raise ZeroDivisionError(f"Fraction({numerator}, 0)")
                    g = gcd(numerator, denominator)
                    if denominator < 0:
                        g = -g
                    q = _new(cls)
                    q._numerator, q._denominator = numerator // g, denominator // g
                    return q
            return Fraction.__new__(cls, numerator, denominator)

        def __add__(a, b):
            na, da = a._numerator, a._denominator
            if type(b) is Q:
                nb, db = b._numerator, b._denominator
                g = gcd(da, db)
                if g == 1:
                    n, d = na * db + da * nb, da * db
                else:
                    s = da // g
                    t = na * (db // g) + nb * s
                    g = gcd(t, g)
                    n, d = t // g, s * (db // g)
            elif type(b) is int:
                n, d = na + b * da, da
            else:
                return _as_q(Fraction.__add__(a, b))
            q = _new(Q)
            q._numerator, q._denominator = n, d
            return q

        __radd__ = __add__

        def __sub__(a, b):
            na, da = a._numerator, a._denominator
            if type(b) is Q:
                nb, db = b._numerator, b._denominator
                g = gcd(da, db)
                if g == 1:
                    n, d = na * db - da * nb, da * db
                else:
                    s = da // g
                    t = na * (db // g) - nb * s
                    g = gcd(t, g)
                    n, d = t // g, s * (db // g)
            elif type(b) is int:
                n, d = na - b * da, da
            else:
                return _as_q(Fraction.__sub__(a, b))
            q = _new(Q)
            q._numerator, q._denominator = n, d
            return q

        def __rsub__(a, b):
            return Q(b) - a if type(b) is int else _as_q(Fraction.__rsub__(a, b))

        def __mul__(a, b):
            na, da = a._numerator, a._denominator
            if type(b) is Q:
                nb, db = b._numerator, b._denominator
                g1, g2 = gcd(na, db), gcd(nb, da)
                n, d = (na // g1) * (nb // g2), (da // g2) * (db // g1)
            elif type(b) is int:
                g = gcd(b, da)
                n, d = na * (b // g), da // g
            else:
                return _as_q(Fraction.__mul__(a, b))
            q = _new(Q)
            q._numerator, q._denominator = n, d
            return q

        __rmul__ = __mul__

        def __truediv__(a, b):
            na, da = a._numerator, a._denominator
            if type(b) is Q:
                nb, db = b._numerator, b._denominator
            elif type(b) is int:
                nb, db = b, 1
            else:
                return _as_q(Fraction.__truediv__(a, b))
            if not nb:
                raise ZeroDivisionError(f"Fraction({db}, 0)")
            g1, g2 = gcd(na, nb), gcd(db, da)
            n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
            if d < 0:
                n, d = -n, -d
            q = _new(Q)
            q._numerator, q._denominator = n, d
            return q

        def __rtruediv__(a, b):
            return Q(b) / a if type(b) is int else _as_q(Fraction.__rtruediv__(a, b))

        def __pow__(a, b):
            if type(b) is not int:
                return _as_q(Fraction.__pow__(a, b))
            na, da = a._numerator, a._denominator
            if b < 0:
                if not na:
                    raise ZeroDivisionError(f"Fraction({da ** -b}, 0)")
                na, da, b = (da, na, -b) if na > 0 else (-da, -na, -b)
            q = _new(Q)
            q._numerator, q._denominator = na ** b, da ** b
            return q

        def __rpow__(a, b):
            # Fraction.__rpow__ would hand a Fraction ** a back to this method
            return _as_q(b ** Fraction(a._numerator, a._denominator))

        def __neg__(a):
            q = _new(Q)
            q._numerator, q._denominator = -a._numerator, a._denominator
            return q

        def __pos__(a):
            return a

        def __abs__(a):
            return -a if a._numerator < 0 else a

        def __eq__(a, b):
            if type(b) is Q:
                return a._numerator == b._numerator and a._denominator == b._denominator
            if type(b) is int:
                return a._numerator == b and a._denominator == 1
            return Fraction.__eq__(a, b)

        # defining __eq__ would otherwise leave the class unhashable
        __hash__ = Fraction.__hash__

        def __bool__(a):
            return a._numerator != 0

ZERO = Q(0)
ONE = Q(1)


def rational(value, den=None):
    """Coerce an int, a string like '3/4' or '-5', or a rational to Q; a value
    equal to 1 is the shared ONE."""
    q = Q(value) if den is None else Q(value, den)
    return ONE if q == 1 else q


class Matrix:
    """Immutable sparse matrix over exact rationals.

    Each row is a dict {column: value} holding only the nonzero entries, so
    a zero is never stored and two equal matrices have equal row dicts.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows, cols, entries):
        _require_shape(rows, cols)
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows, self.cols = rows, cols
        self._rows = [_sparse(entries[i * cols:(i + 1) * cols]) for i in range(rows)]

    @classmethod
    def _wrap(cls, rows, cols, data):
        # internal: adopt `data` (list of zero-free row dicts) without copying
        m = object.__new__(cls)
        m.rows, m.cols, m._rows = rows, cols, data
        return m

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [list(r) for r in rows_list]
        if not rows_list:
            raise ValueError("from_rows needs at least one row")
        cols = len(rows_list[0])
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return cls._wrap(len(rows_list), cols, [_sparse(r) for r in rows_list])

    @classmethod
    def from_columns(cls, cols_list, rows=None):
        cols_list = list(cols_list)
        if not cols_list:
            if rows is None:
                raise ValueError("from_columns with no columns needs an explicit row count")
            return cls.zeros(rows, 0)
        m = cls.from_rows(cols_list)
        if rows is not None and rows != m.cols:
            raise ValueError("row count mismatch")
        return m.transpose()

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Matrix from (i, j, value) triples; repeated positions add up."""
        _require_shape(rows, cols)
        data = [{} for _ in range(rows)]
        for i, j, x in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
            row = data[i]
            y = row.get(j)
            if y is not None:
                x += y
            elif type(x) is not Q:
                x = Q(x)
            if not x:
                if y is not None:
                    del row[j]
            else:
                row[j] = x if x is ONE or x != 1 else ONE
        return cls._wrap(rows, cols, data)

    @classmethod
    def zeros(cls, rows, cols):
        _require_shape(rows, cols)
        return cls._wrap(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        _require_shape(n, n)
        return cls._wrap(n, n, [{i: ONE} for i in range(n)])

    @classmethod
    def permutation(cls, images):
        """The matrix sending basis vector j to basis vector images[j]."""
        n = require_permutation(images)
        data = [{} for _ in range(n)]
        for j, i in enumerate(images):
            data[i][j] = ONE
        return cls._wrap(n, n, data)

    @property
    def entries(self):
        """Row-major flat tuple of all entries."""
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def __getitem__(self, key):
        i, j = key
        return self._rows[_checked(i, self.rows, "row")].get(_checked(j, self.cols, "column"), ZERO)

    def row(self, i):
        r = self._rows[_checked(i, self.rows, "row")]
        return tuple(r.get(j, ZERO) for j in range(self.cols))

    def take_rows(self, indices):
        """The matrix whose row k is row indices[k] of this one: a permutation
        matrix times this one, with no product taken."""
        return Matrix._wrap(len(indices), self.cols,
                            [self._rows[_checked(i, self.rows, "row")] for i in indices])

    def row_entries(self, i):
        """The nonzero entries of row i as (column, value) pairs."""
        return self._rows[_checked(i, self.rows, "row")].items()

    def column(self, j):
        _checked(j, self.cols, "column")
        return tuple(r.get(j, ZERO) for r in self._rows)

    def column_entries(self, j):
        """The nonzero entries of column j as a dict {row: value}."""
        _checked(j, self.cols, "column")
        return {i: r[j] for i, r in enumerate(self._rows) if j in r}

    def columns(self):
        t = self.transpose()
        return [t.row(j) for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix._wrap(self.rows, self.cols,
                            [_axpy(ra, ONE, rb) for ra, rb in zip(self._rows, other._rows)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix._wrap(self.rows, self.cols,
                            [_axpy(ra, -ONE, rb) for ra, rb in zip(self._rows, other._rows)])

    def __neg__(self):
        return Matrix._wrap(self.rows, self.cols,
                            [{j: -a for j, a in r.items()} for r in self._rows])

    def first_difference(self, other):
        """The smallest column at which `other`, of the same shape, differs
        from this matrix, or None when they are equal; the zero-free row
        dicts are compared, so no difference matrix is built."""
        self._check_same_shape(other)
        return min((min(j for j in ra.keys() | rb.keys() if ra.get(j) != rb.get(j))
                    for ra, rb in zip(self._rows, other._rows) if ra != rb), default=None)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        """Matrix product, or scalar multiple when `other` is a scalar.

        A left entry that is ONE adds its right-hand row unchanged, and only
        the positions where a sum was formed are tested for zero (see the
        module docstring).
        """
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            brows = other._rows
            out = []
            for r in self._rows:
                acc, summed = {}, set()
                for k, a in r.items():
                    for j, b in brows[k].items():
                        if a is not ONE:
                            b = a * b
                        x = acc.get(j)
                        if x is None:
                            acc[j] = b
                        else:
                            acc[j] = x + b
                            summed.add(j)
                out.append(_drop_zeros(acc, summed))
            return Matrix._wrap(self.rows, other.cols, out)
        return self._scaled(Q(other))

    def __rmul__(self, other):
        return self._scaled(Q(other))

    def _scaled(self, q):
        if q == 1:
            return self
        if not q:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._wrap(self.rows, self.cols,
                            [{j: a * q for j, a in r.items()} for r in self._rows])

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                out[j][i] = x
        return Matrix._wrap(self.cols, self.rows, out)

    def apply(self, vec):
        """Matrix-vector product; `vec` is any sequence, result is a list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for i, r in enumerate(self._rows):
            s = ZERO
            for j, a in r.items():
                x = vec[j]
                if x:
                    s += a * x
            out[i] = s
        return out

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns.

        Fraction-free sparse Gauss-Jordan.  Each row is kept as a primitive
        integer row and a column -> rows index is kept up to date, so
        column c is searched and eliminated only in the rows nonzero there.
        The pivot is the shortest unused candidate row (ties to the lower
        row number); the reduced form is unique, so the choice changes only
        the cost.  Pivot rows are divided by their pivot once, at the end.
        """
        rows = [_primitive(r) if r else {} for r in self._rows]
        index = {}
        for i, row in enumerate(rows):
            for j in row:
                index.setdefault(j, set()).add(i)
        used = [False] * self.rows
        order = []
        for c in range(self.cols):
            cand = index.get(c)
            if not cand:
                continue
            pr = min((i for i in cand if not used[i]), key=lambda i: (len(rows[i]), i),
                     default=None)
            if pr is None:
                continue
            used[pr] = True
            order.append((c, pr))
            prow = rows[pr]
            pv = prow[c]
            items = tuple(prow.items())
            for i in tuple(cand):
                if i == pr:
                    continue
                row = rows[i]
                f = row[c]
                g = gcd(pv, f)
                a, b = pv // g, f // g
                if a != 1:
                    rows[i] = row = {j: a * x for j, x in row.items()}
                # row := a*row - b*prow, which cancels column c
                for j, y in items:
                    x = row.get(j)
                    if x is None:
                        row[j] = -b * y
                        index.setdefault(j, set()).add(i)
                    else:
                        x -= b * y
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                            index[j].discard(i)
                g = gcd(*row.values())
                if g > 1:
                    rows[i] = {j: x // g for j, x in row.items()}
            if len(order) == self.rows:
                break
        data = [{j: ONE if x == pv else Q(x, pv) for j, x in rows[pr].items()}
                for c, pr in order for pv in [rows[pr][c]]]
        data.extend({} for _ in range(self.rows - len(order)))
        return Matrix._wrap(self.rows, self.cols, data), tuple(c for c, _ in order)

    def rank(self):
        """The number of pivots of rref, or, by the rank rule of the module
        docstring, cols with no elimination when every column owns a row."""
        if len(self._owned_rows()) == self.cols:
            return self.cols
        return len(self.rref()[1])

    def _owned_rows(self):
        """{j: i} for each column j that owns a row, i the first row whose
        only nonzero sits in column j."""
        owner = {}
        for i, r in enumerate(self._rows):
            if len(r) == 1:
                owner.setdefault(next(iter(r)), i)
        return owner

    def kernel(self):
        """Basis of the right null space, one column per free variable."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = {f: k for k, f in enumerate(f for f in range(self.cols) if f not in pivset)}
        out = [{} for _ in range(self.cols)]
        for f, k in free.items():
            out[f][k] = ONE
        for i, p in enumerate(pivots):
            # row i is 1 at p and 0 at the other pivots, so the rest is free
            out[p] = {free[f]: -x for f, x in red._rows[i].items() if f != p}
        return Matrix._wrap(self.cols, len(free), out)

    def solve(self, rhs):
        """Solve self @ X = rhs for X (free variables set to zero).

        `rhs` may have several columns.  Returns None when any column has
        no solution.  X is returned exactly when self * X == rhs; that one
        product is the whole check.

        When every column j owns a row, one whose only nonzero sits in column
        j, self has full column rank, so a solution is unique: row j of X is
        the owned row of rhs divided by the owned entry, and no elimination
        is made.  Other matrices are solved by the rref of (self | rhs).
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        owner = self._owned_rows()
        n = self.cols
        if len(owner) == n:
            out = []
            for j in range(n):
                i = owner[j]
                a = self._rows[i][j]
                out.append(dict(rhs._rows[i]) if a == 1
                           else {k: x / a for k, x in rhs._rows[i].items()})
        else:
            red, pivots = hstack(self, rhs).rref()
            if pivots and pivots[-1] >= n:
                return None
            out = [{} for _ in range(n)]
            for i, p in enumerate(pivots):
                out[p] = {j - n: x for j, x in red._rows[i].items() if j >= n}
        sol = Matrix._wrap(n, rhs.cols, out)
        return sol if self * sol == rhs else None

    def inverse(self):
        """Inverse of a square matrix, or None if singular.

        solve confirms self * X == I, and for a square matrix a right
        inverse is the inverse."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        return self.solve(Matrix.identity(self.rows))

    def kron(self, other):
        """Kronecker product; index (i,j) of a factor pair maps to i*dim+j.

        Identity factors are common (A (x) 1 and 1 (x) A in the axiom
        checks), so a product by the shared ONE is taken without arithmetic.
        """
        w = other.cols
        return Matrix._wrap(self.rows * other.rows, self.cols * w,
                            [{j * w + l: a if b is ONE else b if a is ONE else a * b
                              for j, a in arow.items() for l, b in brow.items()}
                             for arow in self._rows for brow in other._rows])


def require_permutation(images):
    """n = len(images) when `images` lists the ints 0..n-1 (a bool is not one), else ValueError."""
    n = len(images)
    if {*map(type, images)} - {int} or sorted(images) != list(range(n)):
        raise ValueError("images must be a permutation of 0..n-1")
    return n


def _require_shape(rows, cols):
    """ValueError unless rows and cols are ints >= 0 (a bool is not one)."""
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise ValueError(f"a matrix shape is two ints >= 0, got {rows!r} x {cols!r}")


def _checked(i, n, kind):
    if not 0 <= i < n:  # a negative index does not count from the end
        raise IndexError(f"{kind} index {i} out of range for size {n}")
    return i


def _primitive(row):
    """The integer multiple of a nonzero sparse rational row {j: x} with
    content 1 and a positive entry at its lowest column; it is unique."""
    den = lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return ints if g == 1 else {j: n // g for j, n in ints.items()}


def _sparse(values):
    """Zero-free {index: value} dict of a sequence, coerced to Q, with ONE
    for each entry equal to 1."""
    out = {}
    for j, x in enumerate(values):
        if type(x) is not Q:
            x = Q(x)
        if x:
            out[j] = x if x is ONE or x != 1 else ONE
    return out


def _drop_zeros(acc, summed):
    """acc without the zeros among its `summed` positions, the only places a
    product kernel can have made one."""
    for j in summed:
        if not acc[j]:
            del acc[j]
    return acc


def _axpy(a, s, b):
    """The zero-free row dict a + s*b for a nonzero s; a position only b fills
    takes no addition and no zero test, so a sum of matrices with disjoint
    supports costs no arithmetic."""
    out = dict(a)
    for j, x in b.items():
        x = x if s is ONE else s * x
        y = out.get(j)
        if y is None:
            out[j] = x
        else:
            y += x
            if y:
                out[j] = y
            else:
                del out[j]
    return out


def mul_kron(x, y, z):
    """The product x (y (x) z), without building y (x) z: each nonzero of x at
    column i*z.rows + k meets row i of y and row k of z.  As in __mul__, a
    factor that is ONE costs no arithmetic, and only summed positions are
    tested for zero."""
    h, w = z.rows, z.cols
    if x.cols != y.rows * h:
        raise ValueError("shape mismatch in product")
    yrows, zrows = y._rows, z._rows
    out = []
    for r in x._rows:
        acc, summed = {}, set()
        for ik, a in r.items():
            i, k = divmod(ik, h)
            zrow = zrows[k]
            if not zrow:
                continue
            for j, b in yrows[i].items():
                ab = b if a is ONE else a if b is ONE else a * b
                base = j * w
                for l, c in zrow.items():
                    v = c if ab is ONE else ab if c is ONE else ab * c
                    jl = base + l
                    s = acc.get(jl)
                    if s is None:
                        acc[jl] = v
                    else:
                        acc[jl] = s + v
                        summed.add(jl)
        out.append(_drop_zeros(acc, summed))
    return Matrix._wrap(x.rows, y.cols * w, out)


def hstack(*mats):
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    data = [{} for _ in range(rows)]
    offset = 0
    for m in mats:
        for out, r in zip(data, m._rows):
            out.update((j + offset, x) for j, x in r.items())
        offset += m.cols
    return Matrix._wrap(rows, offset, data)


def vstack(*mats):
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    data = [dict(r) for m in mats for r in m._rows]
    return Matrix._wrap(sum(m.rows for m in mats), cols, data)


class Span:
    """A subspace of Q^n grown one vector at a time, for a caller that must
    know which of a stream of vectors grow it: an echelon basis whose rows
    lead at distinct columns, each scaled to 1 there."""

    def __init__(self):
        self._rows = {}  # leading column -> zero-free row dict

    def __len__(self):
        return len(self._rows)

    def add(self, vec):
        """Add the sequence `vec`; True when it was not in the span before."""
        v = _sparse(vec)
        while v:
            c = min(v)
            row = self._rows.get(c)
            if row is None:
                a = v[c]
                self._rows[c] = {j: x / a for j, x in v.items()}
                return True
            v = _axpy(v, -v[c], row)
        return False


def fixed_basis(mats, dim):
    """Basis of the common fixed space of the dim x dim matrices `mats`, in
    kernel_form: the kernel of the stacked M - I.  The identity when `mats`
    is empty; ValueError("shape mismatch") for a matrix of another shape."""
    ident = Matrix.identity(dim)
    if not mats:
        return ident
    return kernel_form(vstack(*[m - ident for m in mats]).kernel())


def kernel_form(m):
    """The canonical basis of the column space of m, the one normal form of a
    subspace in this package: two matrices span the same space exactly when
    their kernel forms are equal.  Before scaling, each column is 1 at one
    free coordinate and 0 at the others, the free coordinates being the last
    ones on which the span projects isomorphically (the reversed-coordinate
    rref of m^T); each column is then made primitive (integer, content 1,
    positive at its lowest nonzero), and the columns are sorted by their
    entry lists.

    When the last nonzero of every column sits in a row that column owns, as
    in the output of Matrix.kernel, m^T is already reduced in reversed
    coordinates, and no elimination is made.
    """
    n = m.rows
    cols = m.transpose()._rows
    if not all(c and len(m._rows[max(c)]) == 1 for c in cols):
        red, pivots = Matrix._wrap(m.cols, n, [{n - 1 - i: x for i, x in c.items()}
                                               for c in cols]).rref()
        cols = [{n - 1 - j: x for j, x in r.items()} for r in red._rows[:len(pivots)]]
    vecs = sorted((_primitive(c) for c in cols), key=lambda v: _dense(v, n))
    return Matrix._wrap(len(vecs), n, [{j: ONE if x == 1 else Q(x) for j, x in v.items()}
                                       for v in vecs]).transpose()


def _dense(v, n):
    """The length-n list of a sparse {index: value} dict, zeros as int 0."""
    out = [0] * n
    for j, x in v.items():
        out[j] = x
    return out
