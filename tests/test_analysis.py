import pytest

from hopfgalois.algebra import Algebra, algebra_axiom_report, group_hopf_algebra
from hopfgalois.analysis import (algebra_iso_classes_p3, character_idempotents,
                                 commutative_wedderburn, find_square_zero_element,
                                 hopf_iso_classes, minimal_polynomial,
                                 minimal_splitting_subfield_check,
                                 nilpotent_witness,
                                 noncommutative_wedderburn_p3, rational_roots)
from hopfgalois.extensions import split_model, splitting_field_cubic
from hopfgalois.groups import cyclic, dihedral
from hopfgalois.linalg import Matrix, ONE, Q, ZERO

SIX_FIELDS = tuple([(1, 1, "field")] * 6)
GROUP_ALGEBRA_D3 = ((1, 1, "field"), (1, 1, "field"), (4, 1, "matrix2_over_center"))


def quaternion_algebra():
    """(-1,-1/Q): basis 1,i,j,k with i^2 = j^2 = -1, ij = k = -ji."""
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    prod = tuple(
        tuple(tuple(Q(c) if m == table[(i, j)][0] else ZERO
                    for m in range(4))
              for j, c in ((jj, table[(i, jj)][1]) for jj in range(4)))
        for i in range(4))
    return Algebra(prod, (ONE, ZERO, ZERO, ZERO), names=("1", "i", "j", "k"))


def test_minimal_polynomial():
    d = Matrix.from_rows([[1, 0], [0, 2]])
    # (x-1)(x-2) = x^2 - 3x + 2
    assert minimal_polynomial(d) == [Q(2), Q(-3), Q(1)]
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert minimal_polynomial(n) == [Q(0), Q(0), Q(1)]
    assert minimal_polynomial(Matrix.identity(3)) == [Q(-1), Q(1)]


def test_rational_roots():
    assert rational_roots([Q(-1), Q(0), Q(1)]) == [Q(-1), Q(1)]
    assert rational_roots([Q(-2), Q(0), Q(1)]) == []
    assert rational_roots([Q(0), Q(1)]) == [Q(0)]
    assert rational_roots([Q(-1), Q(2)]) == [Q(1, 2)]


def test_wedderburn_cyclic_group_algebras():
    assert commutative_wedderburn(group_hopf_algebra(cyclic(2))).summary() == \
        ((1, 1, "field"), (1, 1, "field"))
    # Q[C3] = Q x Q(zeta_3); the quadratic factor has no rational eigenvalues
    assert commutative_wedderburn(group_hopf_algebra(cyclic(3))).summary() == \
        ((1, 1, "field"), (2, 2, "undetermined"))
    assert commutative_wedderburn(group_hopf_algebra(cyclic(6))).summary() == \
        ((1, 1, "field"), (1, 1, "field"), (2, 2, "undetermined"),
         (2, 2, "undetermined"))


def test_wedderburn_components_sum(descended3):
    rep = commutative_wedderburn(descended3["N0"])
    assert rep.total_dim == 6
    assert rep.summary() == SIX_FIELDS
    # component units are orthogonal idempotents summing to 1
    H = descended3["N0"]
    total = [ZERO] * 6
    for comp in rep.components:
        assert H.mul(comp.unit, comp.unit) == list(comp.unit)
        total = [a + b for a, b in zip(total, comp.unit)]
    assert total == list(H.unit)


def test_character_idempotents():
    e1, e2 = character_idempotents(3)
    KD3 = group_hopf_algebra(dihedral(3))
    assert KD3.mul(e1, e1) == e1
    assert KD3.mul(e2, e2) == e2
    assert KD3.mul(e1, e2) == [ZERO] * 6
    for x in range(6):
        b = KD3.basis_vector(x)
        assert KD3.mul(e1, b) == KD3.mul(b, e1)
        assert KD3.mul(e2, b) == KD3.mul(b, e2)


def test_group_algebra_wedderburn():
    rep = noncommutative_wedderburn_p3(group_hopf_algebra(dihedral(3)))
    assert rep.summary() == GROUP_ALGEBRA_D3


def test_descended_noncommutative_wedderburn(L3, descended3):
    classes, reports = algebra_iso_classes_p3(L3, descended=dict(descended3))
    assert sorted(sorted(c) for c in classes) == [
        ["N0", "N1", "N2"], ["lambda", "rho"]]
    assert reports["rho"].summary() == GROUP_ALGEBRA_D3
    assert reports["lambda"].summary() == GROUP_ALGEBRA_D3
    for c in range(3):
        assert reports[f"N{c}"].summary() == SIX_FIELDS


def test_nilpotent_witness(L3):
    from hopfgalois.descent import group_algebra, semilinear_action
    from hopfgalois.groups import left_regular
    b = nilpotent_witness(L3)
    A = group_algebra(L3, left_regular(L3.group))
    assert A.mul(b, b) == [ZERO] * A.dim
    act = semilinear_action(A)
    for g in range(L3.group.order):
        assert act.apply(g, b) == b


def test_nilpotent_witness_needs_cubic_model():
    with pytest.raises(ValueError):
        nilpotent_witness(split_model(dihedral(3)))


def test_square_zero_scan():
    KD3 = group_hopf_algebra(dihedral(3))
    e1, e2 = character_idempotents(3)
    found = find_square_zero_element(KD3)
    assert found is not None
    assert KD3.mul(found, found) == [ZERO] * 6
    # a division algebra has no square-zero elements: honest None
    assert find_square_zero_element(quaternion_algebra()) is None


def test_quaternion_is_division_shaped():
    Hq = quaternion_algebra()
    assert algebra_axiom_report(Hq).passed
    assert not Hq.is_commutative()


def test_hopf_iso_classes(L3, descended3):
    report = hopf_iso_classes(3, L3, descended=dict(descended3))
    assert report.classes == [["rho"], ["lambda"], ["N0", "N1", "N2"]]
    ev = report.evidence[("rho", "lambda")]
    assert not ev.isomorphic
    assert ev.isos_tested == 6
    assert len(ev.certificate) == 6
    pos = report.evidence[("N0", "N1")]
    assert pos.isomorphic and pos.induced_map_checked
    assert report.class_of("N2") == ["N0", "N1", "N2"]
    with pytest.raises(KeyError):
        report.class_of("N9")


def test_minimal_splitting_subfield(L3):
    out = minimal_splitting_subfield_check(L3)
    assert out["passed"]
    assert out["center_trivial"]
    assert len(out["records"]) == 6  # D_3 has six subgroups
    counts = sorted(rec["equivariant_count"] for rec in out["records"])
    assert counts == [0, 0, 0, 0, 0, 6]


def test_commutativity_predicates(descended3):
    assert descended3["N0"].is_commutative()
    assert not descended3["rho"].is_commutative()
    assert descended3["lambda"].is_cocommutative()


def test_commutative_wedderburn_rejects_noncommutative(descended3):
    with pytest.raises(ValueError):
        commutative_wedderburn(descended3["rho"])


def test_noncommutative_wedderburn_needs_dim6(descended3):
    with pytest.raises(ValueError):
        noncommutative_wedderburn_p3(group_hopf_algebra(cyclic(4)))
    with pytest.raises(ValueError):
        noncommutative_wedderburn_p3(descended3["N0"])  # commutative
