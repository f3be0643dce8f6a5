import importlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfgalois.algebra import (Algebra, Check, CheckReport, HopfPresentation,
                                algebra_axiom_report, first_difference, first_row_difference,
                                group_hopf_algebra, hopf_axiom_report, hopf_map_violation)
from hopfgalois.descent import group_algebra
from hopfgalois.extensions import rational_square_of
from hopfgalois.groups import cyclic, dihedral, elementary_abelian_4
from hopfgalois.linalg import Matrix, ONE, Q, ZERO, mul_kron
from test_axiom_oracle import ref_algebra_axiom_report, ref_hopf_axiom_report


@pytest.mark.parametrize("G", [cyclic(4), dihedral(3), elementary_abelian_4()])
def test_group_hopf_algebra_axioms(G):
    H = group_hopf_algebra(G)
    assert H.dim == G.order
    report = hopf_axiom_report(H)
    assert report.passed, report.failures()
    assert H.is_cocommutative()
    assert H.is_commutative() == all(
        G.mul(a, b) == G.mul(b, a) for a in range(G.order) for b in range(G.order))


def test_grouplike_comultiplication():
    H = group_hopf_algebra(cyclic(3))
    for k in range(3):
        assert H.comul_terms(k) == {(k, k): ONE}
        assert H.counit_of(H.basis_vector(k)) == ONE


def test_antipode_inverts_group_elements():
    G = dihedral(3)
    H = group_hopf_algebra(G)
    for k in range(6):
        assert H.antipode_of(H.basis_vector(k)) == H.basis_vector(G.inv(k))


def test_axiom_report_catches_bad_antipode():
    G = cyclic(3)
    H = group_hopf_algebra(G)
    from hopfgalois.algebra import HopfPresentation
    broken = HopfPresentation(H.mult, H.unit, H.comul, H.counit,
                              Matrix.identity(6 // 2), names=H.names)
    report = hopf_axiom_report(broken)
    assert not report.passed
    assert any(name == "antipode-law" for name, _ in report.failures())


def test_axiom_report_catches_bad_comultiplication():
    H = group_hopf_algebra(cyclic(2))
    cols = [list(H.comul.column(j)) for j in range(2)]
    cols[1][0] += 1  # perturb one coefficient
    from hopfgalois.algebra import HopfPresentation
    broken = HopfPresentation(H.mult, H.unit,
                              Matrix.from_columns(cols, rows=4),
                              H.counit, H.antipode, names=H.names)
    report = hopf_axiom_report(broken)
    assert not report.passed


def test_hopf_map_violation_identity_and_shuffle():
    G = cyclic(4)
    H = group_hopf_algebra(G)
    assert hopf_map_violation(Matrix.identity(4), H, H) is None
    # relabeling by the inverse map is a Hopf automorphism of a group algebra
    cols = [H.basis_vector(G.inv(k)) for k in range(4)]
    T = Matrix.from_columns(cols, rows=4)
    assert hopf_map_violation(T, H, H) is None


def test_hopf_map_violation_detects_non_maps():
    G = cyclic(4)
    H = group_hopf_algebra(G)
    # swapping two group elements of different order is not multiplicative
    images = [0, 2, 1, 3]
    T = Matrix.from_columns([H.basis_vector(i) for i in images], rows=4)
    assert hopf_map_violation(T, H, H) == "multiplication"
    # rank-deficient map
    T2 = Matrix.from_columns([H.unit] * 4, rows=4)
    assert hopf_map_violation(T2, H, H) == "bijectivity"
    # bijective, unit-preserving, but scales a group element
    cols = [H.basis_vector(k) for k in range(4)]
    cols[1] = [Q(2) * c for c in cols[1]]
    T3 = Matrix.from_columns(cols, rows=4)
    assert hopf_map_violation(T3, H, H) is not None


def test_hopf_map_violation_rejects_mismatched_dimensions():
    H = group_hopf_algebra(cyclic(4))
    # each case fails one clause of the guard only
    narrow = Matrix.from_columns([H.basis_vector(k) for k in range(3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        hopf_map_violation(narrow, H, H)
    with pytest.raises(ValueError, match="dimension mismatch"):
        hopf_map_violation(narrow.transpose(), H, H)
    with pytest.raises(ValueError, match="dimension mismatch"):
        hopf_map_violation(Matrix.identity(4), H, group_hopf_algebra(cyclic(3)))


def test_algebra_flags():
    G = dihedral(3)
    H = group_hopf_algebra(G)
    axioms = {c.name: c.passed for c in algebra_axiom_report(H)}
    assert axioms["associativity"]
    assert not H.is_commutative()
    assert axioms["unit"]
    two_r = H.mul(H.basis_vector(1), [Q(2) * u for u in H.unit])
    assert two_r == [Q(2) * c for c in H.basis_vector(1)]


def test_plain_algebra_operator_views():
    # 2x2 split algebra Q x Q
    A = Algebra(Matrix.from_columns([(ONE, ZERO), (ZERO, ZERO), (ZERO, ZERO), (ZERO, ONE)]),
                (ONE, ONE))
    e0 = A.basis_vector(0)
    assert A.mult_operator(e0).apply([Q(3), Q(5)]) == [Q(3), Q(0)]
    assert A.is_commutative() and algebra_axiom_report(A).passed


def test_algebra_axiom_report_names_first_nonassociative_triple():
    def e(k):
        return tuple(ONE if i == k else ZERO for i in range(3))

    zero = (ZERO,) * 3
    # e1*e1 = e2 and e2*e1 = e1, but e1*e2 = 0: (e1 e1) e1 != e1 (e1 e1)
    prod = ((e(0), e(1), e(2)), (e(1), e(2), zero), (e(2), e(1), zero))
    report = algebra_axiom_report(Algebra(Matrix.from_columns([v for row in prod for v in row]),
                                          e(0)))
    assert report[0] == Check("unit", True, "")
    assert not report.passed
    assert report.failures() == [("associativity", "associativity fails at (1,1,1)")]


def test_rational_square_of_split_algebra():
    # Q x Q, where w = (1, -1) squares to the unit but w = (1, 2) squares to (1, 4)
    A = Algebra(Matrix.from_columns([(ONE, ZERO), (ZERO, ZERO), (ZERO, ZERO), (ZERO, ONE)]),
                (ONE, ONE))
    assert rational_square_of(A, [Q(1), Q(-1)]) == Q(1)
    with pytest.raises(ValueError):
        rational_square_of(A, [Q(1), Q(2)])
    zero = rational_square_of(A, [ZERO, ZERO])
    assert zero is not None and zero == 0


def test_algebra_rejects_malformed_structure_constants():
    with pytest.raises(ValueError):
        Algebra(Matrix.zeros(2, 3), (ONE, ZERO))
    with pytest.raises(ValueError):
        Algebra(Matrix.zeros(2, 8), (ONE, ZERO))
    with pytest.raises(ValueError):
        Algebra(Matrix.from_columns([(ONE, ZERO), (ZERO, ONE), (ZERO, ONE), (ONE, ZERO)]),
                (ONE, ZERO, ZERO))


def test_mul_rejects_a_vector_longer_than_dim():
    # index 3 of a 3-dimensional algebra must not land in the next table row
    H = group_hopf_algebra(cyclic(3))
    with pytest.raises(ValueError, match="vector length mismatch"):
        H.mul([ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE])


def test_mul_rejects_a_vector_shorter_than_dim():
    H = group_hopf_algebra(cyclic(3))
    with pytest.raises(ValueError, match="vector length mismatch"):
        H.mul([ONE], [ZERO, ONE, ZERO])


def test_mult_operator_rejects_a_vector_of_the_wrong_length():
    H = group_hopf_algebra(cyclic(3))
    with pytest.raises(ValueError, match="vector length mismatch"):
        H.mult_operator([ZERO, ONE])


@pytest.mark.parametrize("names", [(), ("1",), ("1", "x", "y")])
def test_algebra_rejects_names_of_the_wrong_length(names):
    # Q[x]/(x^2) on the basis (1, x)
    mult = Matrix.from_columns([(ONE, ZERO), (ZERO, ONE), (ZERO, ONE), (ZERO, ZERO)])
    assert Algebra(mult, (ONE, ZERO), names=("1", "x")).names == ("1", "x")
    with pytest.raises(ValueError, match="names"):
        Algebra(mult, (ONE, ZERO), names=names)
    with pytest.raises(ValueError, match="names"):
        group_hopf_algebra(cyclic(2), names=names)


# -- first_difference against the difference-matrix formula -----------------------

def reference_first_difference(*pairs):
    """The smallest column at which some lhs - rhs has a nonzero entry."""
    diffs = [lhs - rhs for lhs, rhs in pairs]
    return min((j for diff in diffs for i in range(diff.rows) for j, _ in diff.row_entries(i)),
               default=None)


small_rationals = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def matrix_pairs(draw):
    """One to three equally shaped pairs; each rhs is its lhs with some
    entries kept, re-created as equal but distinct objects, zeroed, or
    replaced, so entries present on one side only are common."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(st.lists(st.one_of(st.just(ZERO), small_rationals),
                            min_size=rows * cols, max_size=rows * cols))
        rhs = []
        for x in lhs:
            kind = draw(st.sampled_from(["keep", "keep", "copy", "copy", "zero", "new"]))
            rhs.append(x if kind == "keep" else Q(x.numerator, x.denominator) if kind == "copy"
                       else ZERO if kind == "zero" else draw(small_rationals))
        pairs.append((Matrix(rows, cols, lhs), Matrix(rows, cols, rhs)))
    return pairs


@given(matrix_pairs())
@example([(Matrix.from_rows([[0, 1, 0], [0, 0, 0]]), Matrix.from_rows([[0, 1, 0], [2, 0, 0]]))])
@example([(Matrix.from_rows([[Q(1, 2), 3]]), Matrix.from_rows([[Q(2, 4), Q(6, 2)]]))])
@example([(Matrix.from_rows([[1, 0, 5], [0, 0, 0]]), Matrix.from_rows([[1, 0, 4], [0, 7, 0]])),
          (Matrix.from_rows([[0, 0, 0], [0, 0, 0]]), Matrix.from_rows([[0, 0, 0], [0, 0, 1]]))])
@settings(max_examples=100, deadline=None)
def test_first_difference_matches_the_difference_formula(pairs):
    assert first_difference(*pairs) == reference_first_difference(*pairs)


def test_first_difference_cases():
    a = Matrix.from_rows([[1, 0, 5], [0, 0, 0]])
    # present on one side only, in either direction
    assert first_difference((a, Matrix.from_rows([[1, 2, 5], [0, 0, 0]]))) == 1
    assert first_difference((Matrix.from_rows([[1, 2, 5], [0, 0, 0]]), a)) == 1
    # equal values held as distinct objects are no difference
    assert first_difference((a, Matrix.from_rows([[Q(2, 2), 0, Q(10, 2)], [0, 0, 0]]))) is None
    # a later row at a smaller column wins
    b = Matrix.from_rows([[1, 0, 6], [0, 3, 0]])
    assert first_difference((a, b)) == 1
    assert first_difference((a, a)) is None
    with pytest.raises(ValueError):
        first_difference((a, Matrix.zeros(3, 2)))


# -- the transposed checks ------------------------------------------------------------

@given(matrix_pairs())
@settings(max_examples=100, deadline=None)
def test_first_row_difference_of_transposes_is_first_difference(pairs):
    transposed = [(lhs.transpose(), rhs.transpose()) for lhs, rhs in pairs]
    assert first_row_difference(*transposed) == first_difference(*pairs)


def test_first_row_difference_refuses_a_shape_mismatch():
    with pytest.raises(ValueError):
        first_row_difference((Matrix.zeros(2, 3), Matrix.zeros(3, 2)))


@pytest.fixture(scope="module")
def split5_n2(split5_nc):
    return split5_nc["N2"]


# (row, column, added value) in comul, and the expected coassociativity and
# counit-law details: the first basis element at which the untransposed
# identities fail
PERTURBED_COMUL_DETAILS = [
    ([(33, 3, Q(1))], "", "counit law fails on basis 3"),
    ([(72, 9, Q(-1, 2)), (55, 4, Q(2))],
     "coassociativity fails on basis 4", "counit law fails on basis 4"),
    ([(0, 8, Q(1)), (90, 6, Q(3, 2)), (33, 3, Q(1))],
     "coassociativity fails on basis 6", "counit law fails on basis 3"),
    ([(46, 7, Q(-1))], "coassociativity fails on basis 7", "counit law fails on basis 7"),
]


@pytest.mark.parametrize("added, coassociativity, counit_law", PERTURBED_COMUL_DETAILS)
def test_perturbed_comultiplication_details_are_unchanged(split5_n2, added, coassociativity,
                                                          counit_law):
    H = split5_n2
    comul = H.comul + Matrix.from_entries(H.dim * H.dim, H.dim, added)
    report = {c.name: c for c in hopf_axiom_report(
        HopfPresentation(H.mult, H.unit, comul, H.counit, H.antipode, names=H.names))}
    assert report["coassociativity"] == ("coassociativity", not coassociativity, coassociativity)
    assert report["counit-law"] == ("counit-law", False, counit_law)


# -- product identities on a generating set ------------------------------------------

def full_algebra_axiom_report(A):
    """The unit and associativity laws with associativity checked on all n^3
    triples, as algebra_axiom_report did before its generating-set reduction."""
    n = A.dim
    m, one, u = A.mult, Matrix.identity(n), Matrix.from_columns([A.unit])
    report = CheckReport()
    col = first_difference((mul_kron(m, u, one), one), (mul_kron(m, one, u), one))
    report.add("unit", col is None, None if col is None else f"unit fails on basis {col}")
    col = first_difference((mul_kron(m, m, one), mul_kron(m, one, m)))
    report.add("associativity", col is None, None if col is None else
               "associativity fails at ({},{},{})".format(col // (n * n), col // n % n, col % n))
    return report


def full_hopf_axiom_report(H):
    """The Hopf report with every product identity checked on all of H, as
    hopf_axiom_report did before its generating-set reduction."""
    n = H.dim
    m, d, e, s = H.mult, H.comul, H.counit, H.antipode
    one, u = Matrix.identity(n), Matrix.from_columns([H.unit])
    report = full_algebra_axiom_report(H)
    if e * u != Matrix.identity(1):
        report.add("counit-algebra-map", False, "counit(unit) != 1")
    else:
        col = first_difference((e * m, e.kron(e)))
        report.add("counit-algebra-map", col is None, None if col is None else
                   "counit not multiplicative at ({},{})".format(*divmod(col, n)))
    dt, et, mt = d.transpose(), e.transpose(), m.transpose()
    if d * u != u.kron(u):
        report.add("comul-algebra-map", False, "comul(unit) != unit (x) unit")
    else:
        terms = [[(*divmod(ab, n), x) for ab, x in dt.row_entries(i)] for i in range(n)]
        X = Matrix.from_entries(n * n, n ** 4, (
            (i * n + j, (a * n + c) * n * n + b * n + f, x * y)
            for i in range(n) for j in range(n) for a, b, x in terms[i] for c, f, y in terms[j]))
        row = first_row_difference((mt * dt, mul_kron(X, mt, mt)))
        report.add("comul-algebra-map", row is None, None if row is None else
                   "comul not multiplicative at ({},{})".format(*divmod(row, n)))
    row = first_row_difference((mul_kron(dt, dt, one), mul_kron(dt, one, dt)))
    report.add("coassociativity", row is None,
               None if row is None else f"coassociativity fails on basis {row}")
    row = first_row_difference((mul_kron(dt, et, one), one), (mul_kron(dt, one, et), one))
    report.add("counit-law", row is None,
               None if row is None else f"counit law fails on basis {row}")
    ue = u * e
    col = first_difference((mul_kron(m, s, one) * d, ue), (mul_kron(m, one, s) * d, ue))
    report.add("antipode-law", col is None,
               None if col is None else f"antipode law fails on basis {col}")
    return report


def literal_words(A, words):
    """g_1(g_2(...(g_k 1))) for each word (g_1, ..., g_k), multiplied right
    to left out of the columns of `mult`."""
    n, columns = A.dim, A.mult.transpose()
    out = []
    for word in words:
        v = list(A.unit)
        for g in reversed(word):
            w = [ZERO] * n
            for j, x in enumerate(v):
                for k, c in columns.row_entries(g * n + j):
                    w[k] += x * c
            v = w
        out.append(v)
    return out


def assert_certified(A):
    """A.generators holds n words in its generators that span A, and their
    left multiplication operators."""
    gens, n = A.generators, A.dim
    assert len(gens.words) == n
    assert all(w and set(w) <= set(gens.indices) for w in gens.words)
    assert Matrix.from_columns(literal_words(A, gens.words)).rank() == n
    assert gens.operators == tuple(A.mult_operator(A.basis_vector(g)) for g in gens.indices)


def fresh(H, **parts):
    """A new presentation of H's data (so no certificate is cached), with
    `parts` replaced."""
    data = dict(mult=H.mult, unit=H.unit, comul=H.comul, counit=H.counit,
                antipode=H.antipode, names=H.names)
    data.update(parts)
    return HopfPresentation(**data)


def test_descended_presentations_are_certified_and_report_as_in_full(descended3, split5_nc):
    for H in [*descended3.values(), *split5_nc.values()]:
        assert_certified(H)
        report = hopf_axiom_report(H)
        assert report == full_hopf_axiom_report(H) and report.passed
    # two basis vectors generate every split presentation, two or three the cubic ones
    assert {H.generators.indices for H in split5_nc.values()} == {(0, 1)}
    assert {H.generators.indices for H in descended3.values()} == {(0, 1), (0, 1, 2)}


def test_a_group_algebra_over_L_is_certified(L3, catalog3):
    A = group_algebra(L3, next(e for e in catalog3 if e.label == "N1").subgroup)
    assert_certified(A)
    assert algebra_axiom_report(A).passed


def test_an_idempotent_basis_needs_every_basis_vector():
    # Q^G for G = C4, the dual of Q[C4]: delta_g delta_h = [g = h] delta_g
    H = group_hopf_algebra(cyclic(4))
    D = HopfPresentation(H.comul.transpose(), H.counit.row(0), H.mult.transpose(),
                         Matrix.from_rows([H.unit]), H.antipode.transpose())
    assert D.generators.indices == (0, 1, 2, 3)
    assert_certified(D)
    report = hopf_axiom_report(D)
    assert report == full_hopf_axiom_report(D) and report.passed


def _algebra(n, products, unit=0):
    """Basis e_0..e_{n-1}, unit e_unit, e_i e_j = c e_k for (i, j, k, c), others 0."""
    ident = [(unit, j, j, ONE) for j in range(n)] + [(j, unit, j, ONE) for j in range(n)
                                                     if j != unit]
    return Matrix.from_entries(n, n * n, [(k, i * n + j, c) for i, j, k, c in ident + products])


def test_words_of_a_non_associative_algebra_are_multiplied_literally():
    # e1 e1 = e2 and e1 e2 = e3, but e2 e1 = 0: (e1 e1) e1 = 0 while e1 (e1 e1) = e3
    A = Algebra(_algebra(4, [(1, 1, 2, ONE), (1, 2, 3, ONE)]), (ONE, ZERO, ZERO, ZERO))
    assert A.generators.indices == (0, 1)
    assert A.generators.words == ((0,), (1,), (1, 1), (1, 1, 1))
    assert literal_words(A, [(1, 1, 1)]) == [A.basis_vector(3)]
    assert_certified(A)
    report = algebra_axiom_report(A)
    assert report == full_algebra_axiom_report(A) == ref_algebra_axiom_report(A)
    assert report.failures() == [("associativity", "associativity fails at (1,1,1)")]


@pytest.fixture
def wide_products(monkeypatch):
    """A report function that also returns the full products it built: the
    n x n^3 mul_kron products by `mult` (full associativity) as "assoc", and
    the n^2-row product by X (full comultiplicativity) as "comul"."""
    module = importlib.import_module("hopfgalois.algebra")
    calls = []

    def counted(x, y, z):
        out = mul_kron(x, y, z)
        calls.append((x, out))
        return out

    monkeypatch.setattr(module, "mul_kron", counted)

    def report(H):
        calls.clear()
        out = hopf_axiom_report(H)
        n = H.dim
        wide = {"assoc" for x, p in calls if x is H.mult and p.cols == n ** 3}
        wide |= {"comul" for x, p in calls if x.rows == n * n}
        return out, wide
    return report


def test_a_passing_report_builds_no_full_product(split5_nc, wide_products):
    H = fresh(split5_nc["N2"])
    n = H.dim
    report, wide = wide_products(H)
    assert report.passed and wide == set()
    # one changed structure constant: the full associativity identity runs
    P = fresh(H, mult=H.mult + Matrix.from_entries(n, n * n, [(4, 2 * n + 3, Q(1))]))
    report, wide = wide_products(P)
    assert report == ref_hopf_axiom_report(P) and not report.passed
    assert "assoc" in wide
    # a changed coproduct: the full comultiplicativity identity runs
    P = fresh(H, comul=H.comul + Matrix.from_entries(n * n, n, [(n + 2, 5, Q(1, 2))]))
    report, wide = wide_products(P)
    assert report == ref_hopf_axiom_report(P) and not report.passed
    assert wide == {"comul"}


def test_the_axiom_report_is_computed_once_per_presentation(split5_nc, monkeypatch):
    H = fresh(split5_nc["N2"])
    first = hopf_axiom_report(H)
    first.add("added-by-a-caller", False)
    module = importlib.import_module("hopfgalois.algebra")
    monkeypatch.setattr(module, "mul_kron", lambda x, y, z: pytest.fail("report recomputed"))
    again = hopf_axiom_report(H)
    assert again == full_hopf_axiom_report(H) and again.passed and again is not first


def test_a_failed_unit_law_runs_the_full_identities(wide_products):
    H = group_hopf_algebra(cyclic(3))
    P = fresh(H, unit=(ZERO, ONE, ZERO))
    report, wide = wide_products(P)
    assert report == full_hopf_axiom_report(P) == ref_hopf_axiom_report(P)
    assert report[0] == Check("unit", False, "unit fails on basis 0")
    assert wide == {"assoc", "comul"}
    assert "generators" not in vars(P)


# Q[x]/(x^3) on (1, x, x^2); two basis vectors generate it.  By the lemma
# of the algebra module, the first failing triple or pair of a perturbed
# algebra is led by one of the perturbed algebra's own generators, so each
# perturbation here changes the products and makes e2 a generator.
CUBIC = [(1, 1, 2, ONE)]


def test_first_failing_triple_outside_the_generating_set():
    assert Algebra(_algebra(3, CUBIC), (ONE, ZERO, ZERO)).generators.indices == (0, 1)
    # x x = 0 and x^2 x = x: (x^2 x^2) x = 0, but x^2 (x^2 x) = x
    A = Algebra(_algebra(3, [(2, 1, 1, ONE)]), (ONE, ZERO, ZERO))
    assert A.generators.indices == (0, 1, 2)
    report = algebra_axiom_report(A)
    assert report == full_algebra_axiom_report(A) == ref_algebra_axiom_report(A)
    assert report.failures() == [("associativity", "associativity fails at (2,2,1)")]


def test_first_failing_comultiplicative_pair_outside_the_generating_set():
    # x x = 0: the associative Q[x, y]/(x, y)^2 with y = x^2; Delta(x) = x (x) x
    # is multiplicative, Delta(y) = y (x) 1 + 1 (x) y is not: Delta(y)^2 = 2 y (x) y
    comul = Matrix.from_entries(9, 3, [(0, 0, ONE), (4, 1, ONE), (6, 2, ONE), (2, 2, ONE)])
    H = HopfPresentation(_algebra(3, []), (ONE, ZERO, ZERO), comul,
                         Matrix.from_rows([[1, 0, 0]]), Matrix.identity(3))
    assert H.generators.indices == (0, 1, 2)
    report = hopf_axiom_report(H)
    assert report == full_hopf_axiom_report(H) == ref_hopf_axiom_report(H)
    assert ("comul-algebra-map", "comul not multiplicative at (2,2)") in report.failures()


def test_mult_operator_matches_its_kronecker_form(L3, descended3):
    """L_x read off the columns of x's nonzero coordinates is m(x (x) I),
    for basis vectors, sparse and dense x, in L and in a descended H."""
    for A in (L3, descended3["lambda"], descended3["N0"]):
        n = A.dim
        xs = [A.basis_vector(i) for i in range(n)]
        xs += [[Q(i + 1, 2) if i % 2 else ZERO for i in range(n)], [Q(i - 2) for i in range(n)],
               [ZERO] * n]
        for x in xs:
            expected = mul_kron(A.mult, Matrix.from_columns([x]), Matrix.identity(n))
            assert A.mult_operator(x) == expected
