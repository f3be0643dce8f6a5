import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois.algebra import Algebra
from hopfgalois.descent import SemilinearAction, group_algebra
from hopfgalois.extensions import split_model
from hopfgalois.groups import dihedral
from hopfgalois.linalg import (Matrix, ONE, Q, Span, ZERO, fixed_basis, hstack, kernel_form,
                               mul_kron, rational, vstack)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7).map(
    lambda f: Q(f.numerator, f.denominator))


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix.from_rows)


square = st.integers(2, 4).flatmap(lambda n: small_matrix(n, n))


def test_construction_and_entries():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m[1, 0] == 3
    assert list(m.row(1)) == [Q(3), Q(4)]
    assert list(m.column(1)) == [Q(2), Q(4)]
    assert m.transpose() == Matrix.from_rows([[1, 3], [2, 4]])


@pytest.mark.parametrize("build", [
    lambda: Matrix(-1, 2, []), lambda: Matrix(2, -1, []), lambda: Matrix(1.0, 1, [1]),
    lambda: Matrix.zeros(-1, 2), lambda: Matrix.zeros(2, True), lambda: Matrix.zeros(None, 0),
    lambda: Matrix.identity(-1), lambda: Matrix.identity(2.0), lambda: Matrix.identity(True),
    lambda: Matrix.from_entries(-2, 3, []), lambda: Matrix.from_entries(2, "3", []),
])
def test_matrix_refuses_an_impossible_shape(build):
    with pytest.raises(ValueError, match="shape"):
        build()


def test_empty_shapes_are_matrices():
    assert Matrix(0, 3, []) == Matrix.zeros(0, 3) == Matrix.from_entries(0, 3, [])
    assert Matrix.identity(0) == Matrix.zeros(0, 0)
    assert Matrix.zeros(2, 0).transpose() == Matrix.zeros(0, 2)


def test_rational_coercion():
    assert rational("3/4") == Q(3, 4)
    assert rational(-5) == Q(-5)
    assert rational(2, 6) == Q(1, 3)


def test_arithmetic():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a + (-a) == Matrix.zeros(2, 2)
    assert (a - b) + b == a
    assert a * Matrix.identity(2) == a
    assert (a * b)[0, 0] == 2
    assert (a * Q(1, 2))[1, 1] == 2
    assert (Q(1, 2) * a) == a * Q(1, 2)


# -- Q against fractions.Fraction, operator by operator ---------------------------
#
# Without gmpy2, Q is a Fraction subclass with integer fast paths for Q and int
# operands; every other operand goes to Fraction's own method.  Each operator
# must give Fraction's value (or raise ZeroDivisionError exactly where Fraction
# does), a Q wherever Fraction gives a Fraction, and that Q in lowest terms with
# a positive denominator.  With gmpy2, Q is gmpy2.mpq and these tests skip.

HUGE = 2 ** 200
q_ints = st.one_of(st.integers(-50, 50), st.sampled_from([0, HUGE, -HUGE]))
plain_fractions = st.builds(Fraction, st.one_of(q_ints, st.integers(-10 ** 6, 10 ** 6)),
                            st.one_of(st.integers(1, 10 ** 6), st.just(HUGE)))
q_values = plain_fractions.map(lambda f: Q(f.numerator, f.denominator))
operands = st.one_of(q_values, q_ints, st.booleans(), plain_fractions)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv,
          operator.eq, operator.ne, operator.lt, operator.le)
EXPONENTS = (-3, -1, 0, 1, 2, 3, True, False)
UNARY = (operator.neg, operator.pos, abs, hash, str, bool, int)
fraction_fallback = pytest.mark.skipif(not issubclass(Q, Fraction),
                                       reason="Q is gmpy2.mpq, not the Fraction fallback")


def as_fraction(x):
    return Fraction(x.numerator, x.denominator) if type(x) is Q else x


def outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def check_like_fraction(op, *args, reference=None):
    """op on args against `reference` (op itself by default) on the same
    values as plain Fractions."""
    got, want = outcome(op, *args), outcome(reference or op, *map(as_fraction, args))
    if not isinstance(want, Fraction):
        assert (type(got), got) == (type(want), want), (op, args)
        return
    assert type(got) is Q, (op, args)
    n, d = got.numerator, got.denominator
    assert (n, d) == (want.numerator, want.denominator), (op, args)
    assert d > 0 and gcd(n, d) == 1 and (n or d == 1), (op, args)
    assert (hash(got), str(got)) == (hash(want), str(want)), (op, args)


def check_q_operators(x, y):
    """Every binary operator on (x, y), and every unary one on each Q of them."""
    for op in BINARY:
        check_like_fraction(op, x, y)
    for v in (x, y):
        if type(v) is Q:
            for op in UNARY:
                check_like_fraction(op, v)
            for k in EXPONENTS:
                check_like_fraction(operator.pow, v, k)


def check_q_constructor(n, d):
    for args in [(n,), (n, d), (f"{n}/{abs(d)}",)]:
        check_like_fraction(Q, *args, reference=Fraction)


@fraction_fallback
@given(q_values, operands, st.booleans())
@settings(max_examples=400, deadline=None)
def test_q_operators_match_fraction(q, other, q_first):
    check_q_operators(*((q, other) if q_first else (other, q)))


@fraction_fallback
@given(q_ints, q_ints)
@settings(max_examples=100, deadline=None)
def test_q_constructor_matches_fraction(n, d):
    check_q_constructor(n, d)


@fraction_fallback
def test_q_edge_cases_match_fraction():
    zero, half = Q(0), Q(-1, 2)
    for x, y in [(zero, 0), (zero, zero), (0, zero), (half, False), (True, half),
                 (half, Fraction(0)), (Fraction(1, 2), half), (Q(-HUGE, 3), Q(HUGE, 3))]:
        check_q_operators(x, y)
    for base in (2, -3, Fraction(-3, 2), half):
        for k in range(-2, 3):
            check_like_fraction(operator.pow, base, Q(k))
    check_q_constructor(0, -7)
    check_q_constructor(6, 0)
    check_like_fraction(Q, True, -2, reference=Fraction)
    assert Q(1.5) == Q(3, 2) and type(Q(1.5)) is Q and type(Q(Fraction(1, 3))) is Q
    assert half + 0.25 == -0.25 and type(half + 0.25) is float


@given(square)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r, pivots = m.rref()
    r2, pivots2 = r.rref()
    assert r == r2
    assert pivots == pivots2


@given(square)
@settings(max_examples=60, deadline=None)
def test_kernel_annihilated(m):
    k = m.kernel()
    assert m.rank() + k.cols == m.cols
    for j in range(k.cols):
        assert all(v == 0 for v in m.apply(k.column(j)))


@given(square, st.data())
@settings(max_examples=60, deadline=None)
def test_solve_residual(m, data):
    x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    rhs = Matrix.from_columns([m.apply(x)], rows=m.rows)
    sol = m.solve(rhs)
    assert sol is not None
    assert m.apply(sol.column(0)) == m.apply(x)


def test_solve_inconsistent():
    m = Matrix.from_rows([[1], [1]])
    rhs = Matrix.from_columns([[Q(0), Q(1)]], rows=2)
    assert m.solve(rhs) is None


@given(square)
@settings(max_examples=40, deadline=None)
def test_inverse_when_full_rank(m):
    if m.rank() < m.rows:
        assert m.inverse() is None
    else:
        inv = m.inverse()
        assert m * inv == Matrix.identity(m.rows)
        assert inv * m == Matrix.identity(m.rows)


@given(st.one_of(small_matrix(2, 2), st.just(Matrix.identity(2))),
       st.one_of(small_matrix(3, 3), st.just(Matrix.identity(3))), st.data())
@settings(max_examples=40, deadline=None)
def test_kron_on_simple_tensors(a, b, data):
    x = data.draw(st.lists(rationals, min_size=2, max_size=2))
    y = data.draw(st.lists(rationals, min_size=3, max_size=3))
    xy = [xi * yj for xi in x for yj in y]
    ax = a.apply(x)
    by = b.apply(y)
    assert a.kron(b).apply(xy) == [ai * bj for ai in ax for bj in by]


def test_kernel_form_of_one_column_is_its_primitive_multiple():
    for v, expected in (([Q(1, 2), Q(-3, 4)], [Q(2), Q(-3)]), ([Q(-2), Q(4)], [Q(1), Q(-2)])):
        form = kernel_form(Matrix.from_columns([v]))
        assert form == Matrix.from_columns([expected])
        assert all(type(c) is Q for c in form.column(0))


def test_stacking():
    a = Matrix.identity(2)
    b = Matrix.zeros(2, 2)
    assert hstack(a, b).cols == 4
    assert vstack(a, b).rows == 4


permutation_pairs = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n))))


@given(permutation_pairs)
def test_permutation_matrix(pair):
    images, other = pair
    n = len(images)
    P = Matrix.permutation(images)
    assert all(P[i, j] == (ONE if i == images[j] else ZERO)
               for i in range(n) for j in range(n))
    assert P.inverse() == P.transpose()
    composed = [images[other[j]] for j in range(n)]
    assert P * Matrix.permutation(other) == Matrix.permutation(composed)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Matrix.permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Matrix.permutation([1, 2])
    # images that are not ints, even when equal to one, are refused alike
    for images in ([0, None], [1.0, 0], [0, 1.0], [False, 1]):
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            Matrix.permutation(images)


def test_spans_equal():
    b1 = Matrix.from_columns([[ONE, ZERO], [ZERO, ONE]], rows=2)
    b2 = Matrix.from_columns([[Q(2), Q(2)], [ZERO, Q(3)]], rows=2)
    b3 = Matrix.from_columns([[ONE, ONE]], rows=2)
    assert kernel_form(b1) == kernel_form(b2)
    assert kernel_form(b1) != kernel_form(b3)


# -- sparse inputs ---------------------------------------------------------------
#
# Entries are zero about 80 % of the time, shapes run from 1x1 to 6x6 and are
# mostly not square, so zero rows, zero columns and empty pivots are common.

sparse_entries = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), st.just(Q(0)),
                           rationals)


def sparse_matrix(rows, cols):
    return st.lists(sparse_entries, min_size=rows * cols,
                    max_size=rows * cols).map(lambda e: Matrix(rows, cols, e))


sparse = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: sparse_matrix(*shape))
sparse_square = st.integers(1, 6).flatmap(lambda n: sparse_matrix(n, n))


def dense_rref(rows):
    """Textbook Gauss-Jordan on lists of lists; the oracle for Matrix.rref."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, tuple(pivots)


@given(sparse)
@settings(max_examples=100, deadline=None)
def test_sparse_rref_matches_dense_oracle(m):
    red, pivots = m.rref()
    want, want_pivots = dense_rref([m.row(i) for i in range(m.rows)])
    assert pivots == want_pivots
    assert red == Matrix.from_rows(want)


@given(sparse)
@settings(max_examples=60, deadline=None)
def test_sparse_difference_stores_no_zero(m):
    z = m - m
    assert z == Matrix.zeros(m.rows, m.cols)
    assert hash(z) == hash(Matrix.zeros(m.rows, m.cols))
    assert m + (-m) == z and m * Q(0) == z
    assert all(not z.row_entries(i) for i in range(m.rows))


@given(sparse)
@settings(max_examples=60, deadline=None)
def test_sparse_entries_round_trip(m):
    assert m.transpose().transpose() == m
    assert hash(m.transpose().transpose()) == hash(m)
    assert Matrix.from_columns(m.columns(), rows=m.rows) == m
    assert Matrix(m.rows, m.cols, m.entries) == m
    for i in range(m.rows):
        assert dict(m.row_entries(i)) == {j: x for j, x in enumerate(m.row(i)) if x}
    for j in range(m.cols):
        assert m.column_entries(j) == {i: x for i, x in enumerate(m.column(j)) if x}
    triples = [(i, j, m[i, j]) for i in range(m.rows) for j in range(m.cols)]
    assert Matrix.from_entries(m.rows, m.cols, triples) == m


@given(sparse)
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_annihilated(m):
    k = m.kernel()
    assert k.rows == m.cols
    assert m.rank() + k.cols == m.cols
    assert m * k == Matrix.zeros(m.rows, k.cols)
    assert k.rank() == k.cols


@given(sparse, st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_solve_residual(m, data):
    x = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    y = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    rhs = Matrix.from_columns([m.apply(x), m.apply(y)], rows=m.rows)
    sol = m.solve(rhs)
    assert sol is not None
    assert m * sol == rhs


@given(sparse_square)
@settings(max_examples=60, deadline=None)
def test_sparse_inverse_residual(m):
    inv = m.inverse()
    if m.rank() < m.rows:
        assert inv is None
    else:
        assert m * inv == Matrix.identity(m.rows)
        assert inv * m == Matrix.identity(m.rows)


@given(sparse, sparse)
@settings(max_examples=40, deadline=None)
def test_sparse_product_matches_dense(a, b):
    b = Matrix.from_rows([[b[i % b.rows, j] for j in range(b.cols)] for i in range(a.cols)])
    want = [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Q(0)) for j in range(b.cols)]
            for i in range(a.rows)]
    assert a * b == Matrix.from_rows(want)
    assert (a * b).transpose() == b.transpose() * a.transpose()


# -- the unit path of the product ------------------------------------------------
#
# A left factor equal to one is added without a multiplication, whether it is
# the shared ONE or another object equal to one; the entries must stay of type
# Q either way.

unit_entries = st.one_of(st.just(ZERO), st.just(ONE), st.builds(Q, st.just(1)),
                         st.builds(Q, st.just(2), st.just(2)), st.just(Q(-1)), rationals)


def unit_matrix(rows, cols):
    return st.lists(unit_entries, min_size=rows * cols,
                    max_size=rows * cols).map(lambda e: Matrix(rows, cols, e))


def dense_product(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Q(0)) for j in range(b.cols)]
            for i in range(a.rows)]


def all_entries_are_q(m):
    return all(type(x) is Q for i in range(m.rows) for _, x in m.row_entries(i))


@given(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda s: st.tuples(unit_matrix(s[0], s[1]), unit_matrix(s[1], s[2]))))
@settings(max_examples=100, deadline=None)
def test_products_with_unit_factors_match_dense(pair):
    a, b = pair
    for got, want in ((a * b, dense_product(a, b)),
                      (a * 1, [list(a.row(i)) for i in range(a.rows)]),
                      (1 * a, [list(a.row(i)) for i in range(a.rows)]),
                      (a.kron(b), [[a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]
                                    for j in range(a.cols * b.cols)]
                                   for i in range(a.rows * b.rows)])):
        assert got == Matrix.from_rows(want)
        assert all_entries_are_q(got)


# -- products by a Kronecker factor -----------------------------------------------
#
# mul_kron(x, y, z) must be x * y.kron(z) exactly, entry types included, for
# the factors the axiom checks use (identities, permutations, one-column
# units) as well as general ones with zero rows, entries equal to one that
# are not the shared ONE, and long numerators.

kron_entries = st.one_of(unit_entries, st.builds(Q, st.integers(-10 ** 40, 10 ** 40),
                                                 st.integers(1, 10 ** 40)))


@st.composite
def kron_factor(draw, rows=None, cols=None):
    """A factor with the given number of rows or of columns (the other drawn)."""
    kind = draw(st.sampled_from(["identity", "permutation", "column", "general", "zero-rows"]))
    if kind in ("identity", "permutation"):
        n = cols if rows is None else rows
        return Matrix.identity(n) if kind == "identity" else Matrix.permutation(
            draw(st.permutations(range(n))))
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = (1 if kind == "column" else draw(st.integers(1, 3))) if cols is None else cols
    m = draw(st.lists(kron_entries, min_size=rows * cols, max_size=rows * cols))
    if kind == "zero-rows":
        dropped = draw(st.sets(st.integers(0, rows - 1)))
        m = [ZERO if k // cols in dropped else x for k, x in enumerate(m)]
    return Matrix(rows, cols, m)


@st.composite
def kron_triples(draw):
    y = draw(kron_factor(rows=draw(st.integers(1, 3))))
    z = draw(kron_factor(rows=draw(st.integers(1, 3))))
    return draw(kron_factor(cols=y.rows * z.rows)), y, z


@given(kron_triples())
@settings(max_examples=150, deadline=None)
def test_mul_kron_is_the_product_by_the_kronecker_factor(triple):
    x, y, z = triple
    got = mul_kron(x, y, z)
    assert got == x * y.kron(z)
    assert (got.rows, got.cols) == (x.rows, y.cols * z.cols)
    assert all_entries_are_q(got)


def test_mul_kron_with_fresh_ones_and_zero_rows():
    one = Q(2, 2)
    assert one == 1 and one is not ONE
    y = Matrix.from_rows([[one, 0], [0, 0]])
    z = Matrix.from_rows([[0, Q(3, 4)], [one, 0]])
    x = Matrix.from_rows([[one, Q(-1), 0, 2], [0, 0, 0, 0]])
    got = mul_kron(x, y, z)
    assert got == x * y.kron(z) == Matrix.from_rows([[-1, Q(3, 4), 0, 0], [0, 0, 0, 0]])
    assert all_entries_are_q(got)


def test_mul_kron_refuses_a_shape_mismatch():
    with pytest.raises(ValueError):
        mul_kron(Matrix.identity(3), Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(ValueError):
        mul_kron(Matrix.zeros(1, 4), Matrix.identity(2), Matrix.zeros(1, 2))


# -- the two kernel rules ------------------------------------------------------------
#
# A kernel tests for zero only where it formed a sum, and takes a factor of
# one without arithmetic only when it is the shared ONE.  Entries in -2..2,
# mostly zero, make sums cancel often; `fresh` stores each entry as a new
# object (a 1 there is 1/2 * 2, not ONE), which a kernel must simply multiply.

cancelling = st.sampled_from([-2, -1, 0, 0, 0, 1, 2])


def cancelling_matrix(rows, cols):
    return st.lists(cancelling, min_size=rows * cols,
                    max_size=rows * cols).map(lambda e: Matrix(rows, cols, e))


def fresh(m):
    return m * Q(1, 2) * 2


def dense(m):
    return [list(m.row(i)) for i in range(m.rows)]


def is_zero_free(m):
    return all(x for i in range(m.rows) for _, x in m.row_entries(i))


@st.composite
def cancelling_operands(draw):
    r, k, c, h = (draw(st.integers(1, 4)) for _ in range(4))
    a, b, x, y, z = (draw(cancelling_matrix(*s)) for s in (
        (r, k), (k, c), (r, k * h), (k, c), (h, c)))
    a, b, x, y, z = ((fresh(m) if draw(st.booleans()) else m) for m in (a, b, x, y, z))
    return a, b, x, y, z, draw(cancelling_matrix(r, k))


@given(cancelling_operands())
@settings(max_examples=150, deadline=None)
def test_kernels_with_cancelling_sums_match_dense(ops):
    a, b, x, y, z, a2 = ops
    yz = [[y[i // z.rows, j // z.cols] * z[i % z.rows, j % z.cols]
           for j in range(y.cols * z.cols)] for i in range(y.rows * z.rows)]
    for got, want in ((a * b, dense_product(a, b)),
                      (mul_kron(x, y, z), dense_product(x, Matrix.from_rows(yz))),
                      (a + a2, [[p + q for p, q in zip(r, s)] for r, s in zip(dense(a), dense(a2))]),
                      (a - a2, [[p - q for p, q in zip(r, s)] for r, s in zip(dense(a), dense(a2))]),
                      (a - a, dense(Matrix.zeros(a.rows, a.cols)))):
        assert got == Matrix.from_rows(want)
        assert is_zero_free(got)
        assert all_entries_are_q(got)


def ones_are_shared(m):
    return all(x is ONE for i in range(m.rows) for _, x in m.row_entries(i) if x == 1)


@given(st.lists(st.sampled_from([0, 1, -1, 2, "1", Q(2, 2), Q(1, 2)]), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_constructors_store_the_shared_one(values):
    m = Matrix(2, 3, values)
    halves = [(0, 0, Q(1, 2)), (0, 0, Q(1, 2)), (1, 1, Q(3, 2)), (1, 1, Q(-1, 2))]
    for got in (m, Matrix.from_rows([values[:3], values[3:]]),
                Matrix.from_columns([values[:2], values[2:4], values[4:]]),
                Matrix.from_entries(2, 3, [(k // 3, k % 3, v) for k, v in enumerate(values)]),
                Matrix.from_entries(2, 2, halves), kernel_form(m), kernel_form(m.transpose()),
                m.rref()[0], Matrix.identity(3), Matrix.permutation([2, 0, 1])):
        assert ones_are_shared(got)
        assert all_entries_are_q(got)
    assert Matrix.from_entries(2, 2, halves)[0, 0] is ONE
    assert rational("1") is ONE and rational(3, 3) is ONE
    unit = Algebra(Matrix.from_rows([[1]]), [Q(2, 2)]).unit
    assert unit == (ONE,) and unit[0] is ONE


def test_products_by_the_shared_one_ask_no_scalar(monkeypatch):
    """Permutation inputs hold only ONE and form no sum, so the kernels call
    neither Q.__eq__ nor Q.__bool__."""
    p, q = Matrix.permutation([2, 0, 3, 1]), Matrix.permutation([1, 0])
    x = Matrix.permutation([5, 3, 7, 0, 1, 6, 2, 4])
    calls = []
    for name in ("__eq__", "__bool__"):
        real = getattr(Q, name)
        monkeypatch.setattr(Q, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    products = [p * p, x * x, mul_kron(x, p, q), mul_kron(x, q, p), p.kron(q)]
    monkeypatch.undo()
    assert calls == []
    assert products[2] == x * p.kron(q) and products[3] == x * q.kron(p)
    assert all(ones_are_shared(m) for m in products)


def test_sparse_stacks_keep_offsets():
    a = Matrix.from_rows([[0, 1], [0, 0]])
    b = Matrix.from_rows([[2, 0], [0, 3]])
    assert hstack(a, b) == Matrix.from_rows([[0, 1, 2, 0], [0, 0, 0, 3]])
    assert vstack(a, b) == Matrix.from_rows([[0, 1], [0, 0], [2, 0], [0, 3]])
    assert Matrix.from_entries(2, 2, [(0, 1, Q(1)), (0, 1, Q(-1))]) == Matrix.zeros(2, 2)
    with pytest.raises(IndexError):
        Matrix.from_entries(2, 2, [(2, 0, Q(1))])


OUT_OF_SHAPE = {"m[-1, 0]": lambda m: m[-1, 0], "m[3, 0]": lambda m: m[3, 0],
                "m[0, -1]": lambda m: m[0, -1], "m[0, 2]": lambda m: m[0, 2],
                "row(-1)": lambda m: m.row(-1), "row(3)": lambda m: m.row(3),
                "row_entries(-3)": lambda m: m.row_entries(-3),
                "row_entries(3)": lambda m: m.row_entries(3),
                "column(-1)": lambda m: m.column(-1), "column(7)": lambda m: m.column(7),
                "column_entries(-1)": lambda m: m.column_entries(-1),
                "column_entries(7)": lambda m: m.column_entries(7)}


@pytest.mark.parametrize("read", list(OUT_OF_SHAPE))
def test_index_outside_the_shape_raises(read):
    # a negative index does not count from the end, as it would on a list
    m = Matrix.from_rows([[1, 2], [0, 4], [5, 0]])
    with pytest.raises(IndexError):
        OUT_OF_SHAPE[read](m)
    assert (m[2, 1], m.row(2), dict(m.row_entries(2))) == (ZERO, (Q(5), ZERO), {0: Q(5)})
    assert (m.column(1), m.column_entries(1)) == ((Q(2), Q(4), ZERO), {0: Q(2), 1: Q(4)})


# -- differential tests against textbook Fraction elimination ---------------------
#
# reference_rref is plain Gauss-Jordan over the rationals on the sparse rows:
# the pivot of each column is the first remaining row that is nonzero there,
# and every step is Fraction arithmetic.  Matrix.rref pivots on other rows and
# eliminates on integer rows, so agreeing with it on rows, pivots and scalar
# type checks both the reduced form and the conversion back to Q.

def reference_rref(m):
    data = [dict(m.row_entries(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if c in data[i]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = 1 / data[r][c]
        prow = data[r] = {j: x * inv for j, x in data[r].items()}
        for i, row in enumerate(data):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, v in prow.items():
                x = row.get(j, ZERO) - f * v
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        pivots.append(c)
        r += 1
    return data, tuple(pivots)


def reference_kernel(m):
    red, pivots = reference_rref(m)
    free = [f for f in range(m.cols) if f not in pivots]
    cols = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i].get(f, ZERO)
        cols.append(v)
    return Matrix.from_columns(cols, rows=m.cols)


def reference_solve(m, rhs):
    red, pivots = reference_rref(hstack(m, rhs))
    if pivots and pivots[-1] >= m.cols:
        return None
    out = [[ZERO] * rhs.cols for _ in range(m.cols)]
    for i, p in enumerate(pivots):
        out[p] = [red[i].get(m.cols + k, ZERO) for k in range(rhs.cols)]
    return Matrix.from_rows(out)


def reference_inverse(m):
    red, pivots = reference_rref(m)
    if len(pivots) < m.rows:
        return None
    return reference_solve(m, Matrix.identity(m.rows))


BIG = 10 ** 40
elimination_entries = st.one_of(
    st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), st.just(Q(0)),
    rationals,
    st.builds(Q, st.integers(-BIG, BIG), st.integers(1, 10 ** 6)),
    st.builds(Q, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 35])))


@st.composite
def elimination_matrices(draw, rows=None, cols=None):
    """Sparse rational matrices up to 12 x 16, wide and tall, with mixed and
    40-digit entries, zero rows, repeated rows and multiples of earlier rows."""
    rows = draw(st.integers(1, 12)) if rows is None else rows
    cols = draw(st.integers(1, 16)) if cols is None else cols
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "zero", "repeat", "multiple"]))
        if kind == "zero":
            data.append([ZERO] * cols)
        elif kind != "fresh" and data:
            row = draw(st.sampled_from(data))
            scale = ONE if kind == "repeat" else draw(elimination_entries.filter(bool))
            data.append([x * scale for x in row])
        else:
            data.append(draw(st.lists(elimination_entries, min_size=cols, max_size=cols)))
    return Matrix.from_rows(data)


square_elimination = st.integers(1, 10).flatmap(lambda n: elimination_matrices(n, n))


@given(elimination_matrices())
@settings(max_examples=100, deadline=None)
def test_rref_matches_reference_elimination(m):
    red, pivots = m.rref()
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert [dict(red.row_entries(i)) for i in range(red.rows)] == want
    assert all(type(x) is Q for i in range(red.rows) for _, x in red.row_entries(i))


@given(elimination_matrices())
@settings(max_examples=60, deadline=None)
def test_span_grows_on_the_pivot_columns(m):
    # fed the columns in order, a Span grows on exactly the pivot columns
    span = Span()
    grew = tuple(c for c in range(m.cols) if span.add(m.column(c)))
    assert grew == reference_rref(m)[1] and len(span) == len(grew)


@given(elimination_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_elimination(m):
    k = m.kernel()
    assert k == reference_kernel(m)
    assert all(type(x) is Q for i in range(k.rows) for _, x in k.row_entries(i))


@given(elimination_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_matches_reference_elimination(m, data):
    k = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        rhs = m * data.draw(elimination_matrices(m.cols, k))
    else:
        rhs = data.draw(elimination_matrices(m.rows, k))
    assert m.solve(rhs) == reference_solve(m, rhs)


@given(square_elimination)
@settings(max_examples=60, deadline=None)
def test_inverse_matches_reference_elimination(m):
    assert m.inverse() == reference_inverse(m)


nonzero_entries = st.one_of(
    st.sampled_from([ONE, -ONE, Q(2), Q(-1, 3)]),
    st.builds(Q, st.integers(1, BIG) | st.integers(-BIG, -1), st.integers(1, 10 ** 6)),
    st.builds(Q, st.integers(1, 50) | st.integers(-50, -1), st.sampled_from([1, 3, 4, 35])))


@st.composite
def owned_row_matrices(draw, cols=None, extra=None, twice=True):
    """Matrices in which every column owns a row (its only nonzero sits in that
    column): a scaled permutation with mixed and 40-digit scales, its rows
    placed at random among `extra` random sparse rows, and with `twice` up to
    two columns owning a second row."""
    cols = draw(st.integers(1, 8)) if cols is None else cols
    extra = draw(st.integers(0, 6)) if extra is None else extra
    data = [draw(st.lists(elimination_entries, min_size=cols, max_size=cols))
            for _ in range(extra)]
    owners = draw(st.permutations(range(cols)))
    if twice:
        owners += draw(st.lists(st.integers(0, cols - 1), max_size=2))
    for j in owners:
        row = [ZERO] * cols
        row[j] = draw(nonzero_entries)
        data.insert(draw(st.integers(0, len(data))), row)
    return Matrix.from_rows(data)


def _refuse_elimination(m):
    pytest.fail(f"row-reduced a {m.rows}x{m.cols} matrix")


def _without_elimination(solve, *args):
    """solve(*args), failing the test if it row-reduces anything."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "rref", _refuse_elimination)
        return solve(*args)


@st.composite
def right_hand_sides(draw, m):
    """Inside the span, inside it with one entry moved, or random (almost
    always outside it); one to three columns."""
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["span", "moved", "random"]))
    if kind == "random":
        return draw(elimination_matrices(m.rows, k))
    rhs = m * draw(elimination_matrices(m.cols, k))
    if kind == "moved":
        i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, k - 1))
        rhs = rhs + Matrix.from_entries(m.rows, k, [(i, j, draw(nonzero_entries))])
    return rhs


@given(owned_row_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_owned_row_solve_matches_reference_elimination(m, data):
    rhs = data.draw(right_hand_sides(m))
    sol = _without_elimination(m.solve, rhs)
    assert sol == reference_solve(m, rhs)
    if sol is not None:
        assert m * sol == rhs
        assert all(type(x) is Q for i in range(sol.rows) for _, x in sol.row_entries(i))


@given(owned_row_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_zero_column_owns_no_row_and_is_solved_by_elimination(m, data):
    j = data.draw(st.integers(0, m.cols - 1))
    zeroed = m * Matrix.from_entries(m.cols, m.cols, [(c, c, ONE) for c in range(m.cols) if c != j])
    rhs = data.draw(right_hand_sides(zeroed))
    assert zeroed.solve(rhs) == reference_solve(zeroed, rhs)


@st.composite
def rank_matrices(draw):
    """Sparse matrices for the rank rule: scaled permutations, matrices in
    which every column owns a row (some owning two rows, among other rows),
    the same with one column cleared, and sparse ones with empty rows and
    columns."""
    kind = draw(st.sampled_from(["monomial", "owned", "cleared", "sparse"]))
    if kind == "monomial":
        return draw(st.integers(1, 8).flatmap(lambda n: owned_row_matrices(n, 0, twice=False)))
    if kind in ("owned", "cleared"):
        m = draw(owned_row_matrices())
        if kind == "owned":
            return m
        j = draw(st.integers(0, m.cols - 1))
        return m * Matrix.from_entries(m.cols, m.cols,
                                       [(c, c, ONE) for c in range(m.cols) if c != j])
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)),
                      nonzero_entries)
    entries = draw(st.lists(cells, max_size=2 * rows * cols)) if rows and cols else []
    return Matrix.from_entries(rows, cols, entries)


@given(rank_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_is_the_pivot_count(m):
    owned = len({j for i in range(m.rows) for j, _ in m.row_entries(i)
                 if len(m.row_entries(i)) == 1}) == m.cols
    if owned:
        assert _without_elimination(m.rank) == m.cols
    assert m.rank() == len(m.rref()[1]) == len(reference_rref(m)[1])


def test_rank_rule_cases():
    # two rows own column 0; column 1 owns none, so rref decides
    m = Matrix.from_rows([[2, 0], [-1, 0], [0, 0]])
    assert m.rank() == 1
    assert _without_elimination(Matrix.from_rows([[0, 3], [5, 0], [1, 1]]).rank) == 2
    assert _without_elimination(Matrix.zeros(3, 0).rank) == 0
    assert Matrix.zeros(0, 2).rank() == 0


def test_solve_with_no_columns():
    # every column of a matrix with none owns a row; only a zero rhs is solvable
    m = Matrix.zeros(3, 0)
    assert _without_elimination(m.solve, Matrix.zeros(3, 2)) == Matrix.zeros(0, 2)
    assert _without_elimination(m.solve, Matrix.from_rows([[0], [Q(1, 2)], [0]])) is None


@given(st.integers(1, 8).flatmap(lambda n: owned_row_matrices(n, 0, twice=False)))
@settings(max_examples=60, deadline=None)
def test_owned_row_inverse_matches_reference_elimination(m):
    inv = _without_elimination(m.inverse)
    assert inv == reference_inverse(m)
    assert inv * m == Matrix.identity(m.rows)


@given(st.integers(1, 8).flatmap(lambda n: owned_row_matrices(n, 0, twice=False)))
@settings(max_examples=30, deadline=None)
def test_inverse_of_a_scaled_permutation_is_checked_by_one_product(m):
    products = []
    mul = Matrix.__mul__

    def counting_mul(a, b):
        products.append((a.rows, b.cols))
        return mul(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "__mul__", counting_mul)
        inv = m.inverse()
    assert products == [(m.rows, m.rows)]
    assert inv == reference_inverse(m)


def reference_fixed_basis(mats, dim):
    """Dense fixed-space basis: kernel columns scaled to content-1 integer
    vectors with a positive first entry, then sorted as tuples."""
    if not mats:
        return Matrix.identity(dim)
    ident = Matrix.identity(dim)
    ker = reference_kernel(vstack(*[m - ident for m in mats]))
    cols = []
    for c in ker.columns():
        den = lcm(*(x.denominator for x in c))
        ints = [int(x * den) for x in c]
        g = gcd(*ints)
        first = next(n for n in ints if n)
        cols.append(tuple(n // (g if first > 0 else -g) for n in ints))
    return Matrix.from_columns(sorted(cols), rows=dim)


monomial_actions = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.tuples(st.permutations(range(n)),
              st.lists(st.sampled_from([ONE, ONE, -ONE, Q(2), Q(-1, 3)]), min_size=n, max_size=n)),
    max_size=3).map(lambda gens: (n, gens)))


@given(monomial_actions)
@settings(max_examples=100, deadline=None)
def test_fixed_basis_matches_dense_normalization(action):
    """Permutation and signed, scaled permutation matrices, as a group acting
    on a basis gives them."""
    n, gens = action
    mats = [Matrix.permutation(images) for images, _ in gens]
    signed = [P * Matrix.from_entries(n, n, [(i, i, s) for i, s in enumerate(signs)])
              for P, (_, signs) in zip(mats, gens)]
    for group in (mats, signed):
        assert fixed_basis(group, n) == reference_fixed_basis(group, n)


def test_an_orbit_whose_cycle_scales_by_two_gives_no_vector():
    """v_1 = 2 v_0 and v_0 = c v_1 hold together only for c = 1/2 or v = 0."""
    for c, expected in ((ONE, [[0, 0, 1]]), (Q(1, 2), [[0, 0, 1], [1, 2, 0]])):
        m = Matrix.from_entries(3, 3, [(1, 0, 2), (0, 1, c), (2, 2, ONE)])
        assert fixed_basis([m], 3) == Matrix.from_columns(expected), c


@pytest.mark.parametrize("rows", [
    [[0, 1, 0], [0, 1, 0], [0, 0, 1]],  # one nonzero per row, column 1 twice
    [[1, 1, 1], [0, 1, 0], [0, 0, 1]],  # a full row
])
def test_a_matrix_that_is_not_monomial_is_row_reduced(monkeypatch, rows):
    m = Matrix.from_rows(rows)
    expected = reference_fixed_basis([m], 3)
    shapes, real = [], Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda x: shapes.append((x.rows, x.cols)) or real(x))
    assert fixed_basis([m], 3) == expected and fixed_basis([Matrix.identity(3), m], 3) == expected
    assert shapes


@pytest.mark.parametrize("m", [
    Matrix.permutation([1, 0, 2]),  # monomial, 3 x 3 against dim 4
    Matrix.from_entries(4, 3, [(i, i % 3, ONE) for i in range(4)]),  # one per row, not square
    Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),  # not monomial, 3 x 3
])
def test_fixed_basis_refuses_a_matrix_of_another_shape(m):
    for mats in ([m], [Matrix.identity(4), m]):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            fixed_basis(mats, 4)


@given(square, st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_form_of_any_spanning_set_is_the_dense_fixed_basis(m, data):
    """kernel_form of a spanning set of ker m, mixed by an invertible
    matrix or padded with dependent columns, is the dense reference's fixed
    basis of m + I."""
    n = m.rows
    expected = reference_fixed_basis([m + Matrix.identity(n)], n)
    ker = m.kernel()
    k = ker.cols
    below = data.draw(st.lists(rationals, min_size=k * k, max_size=k * k))
    mix = Matrix.from_entries(k, k, [(i, j, ONE if i == j else below[i * k + j])
                                     for i in range(k) for j in range(i + 1)])
    for spanning in (ker, ker * mix, hstack(ker * mix, ker, Matrix.zeros(n, 1))):
        assert kernel_form(spanning) == expected


def test_kernel_form_reads_an_echelon_basis_without_elimination(monkeypatch):
    shapes = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda m: shapes.append((m.rows, m.cols)) or real(m))
    expected = Matrix.from_columns([[1, 0, -1], [1, 1, 0]])
    assert kernel_form(Matrix.from_columns([[1, 1, 0], [0, 1, 1]])) == expected
    assert shapes == [(2, 3)]
    shapes.clear()
    # the last nonzero of each column sits in a row it owns: scaled and sorted only
    for echelon in (expected, Matrix.from_columns([[2, 2, 0], [-1, 0, 1]])):
        assert kernel_form(echelon) == expected
    assert shapes == []


def test_fixed_basis_matches_dense_normalization_p3_cubic(L3, catalog3):
    split13 = split_model(dihedral(13))
    r, s = split13.group.generators
    for L, gens in [(L3, [1]), (L3, [2]), (L3, [1, 2]), (L3, range(L3.group.order)),
                    (split13, [r]), (split13, [s]), (split13, [r, s]),
                    (split13, range(split13.group.order))]:
        mats = [L.action[g] for g in gens]
        assert fixed_basis(mats, L.dim) == reference_fixed_basis(mats, L.dim)
    for entry in catalog3:
        act = SemilinearAction(group_algebra(L3, entry.subgroup))
        A = act.parent
        mats = [act.matrix(g) for g in L3.group.generators]
        assert fixed_basis(mats, A.dim) == reference_fixed_basis(mats, A.dim)
