import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfgalois.algebra import (Algebra, Check, HopfPresentation, algebra_axiom_report,
                                first_difference, first_row_difference, group_hopf_algebra,
                                hopf_axiom_report, hopf_map_violation)
from hopfgalois.extensions import rational_square_of
from hopfgalois.groups import cyclic, dihedral, elementary_abelian_4
from hopfgalois.linalg import Matrix, ONE, Q, ZERO


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
