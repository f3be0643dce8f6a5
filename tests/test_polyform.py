from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois.algebra import hopf_axiom_report
from hopfgalois.analysis import commutative_wedderburn
from hopfgalois.catalog import cyclic_generator
from hopfgalois.groups import Perm, powers
from hopfgalois.linalg import Q, ZERO
from hopfgalois.polyform import (MONOMIALS, PolyHopfAlgebra, PolyMapError,
                                 check_iso_to_descended, evaluate_poly,
                                 evaluation_is_homomorphism, evaluation_matrix,
                                 ideal_generators, normal_form, point_decomposition_check,
                                 scaling_invariance_check, variety_points)

SIX_POINTS = [(Q(-2), Q(0)), (Q(-1), Q(3)), (Q(1), Q(3)),
              (Q(2), Q(0)), (Q(1), Q(-3)), (Q(-1), Q(-3))]


@cache
def xfirst_normal_form(i, j, b):
    """Alternate reduction order: apply the x-rules before the y-rule
    (memoized, as each step recurses twice)."""
    b = Q(b)
    if j == 1 and i >= 2:
        return xfirst_normal_form(i - 2, 1, b)
    if j == 0 and i >= 4:
        five = xfirst_normal_form(i - 2, 0, b)
        four = xfirst_normal_form(i - 4, 0, b)
        return [5 * h - 4 * l for h, l in zip(five, four)]
    if j >= 2:
        high = xfirst_normal_form(i + 2, j - 2, b)
        low = xfirst_normal_form(i, j - 2, b)
        return [b * h - 4 * b * l for h, l in zip(high, low)]
    vec = [ZERO] * 6
    vec[MONOMIALS.index((i, j))] = Q(1)
    return vec


def test_normal_form_base_relations():
    assert normal_form(4, 0, -3) == [Q(-4), ZERO, Q(5), ZERO, ZERO, ZERO]
    assert normal_form(0, 2, -3) == [Q(12), ZERO, Q(-3), ZERO, ZERO, ZERO]
    assert normal_form(2, 1, -3) == [ZERO, ZERO, ZERO, ZERO, Q(1), ZERO]
    assert normal_form(3, 1, -3) == [ZERO, ZERO, ZERO, ZERO, ZERO, Q(1)]
    assert normal_form(1, 0, 5) == [ZERO, Q(1), ZERO, ZERO, ZERO, ZERO]


def test_normal_form_rejects_negative_exponents():
    with pytest.raises(ValueError):
        normal_form(-1, 0, -3)


@pytest.mark.parametrize("i, j", [(2.5, 0), (0, 1.0), (True, 0), (0, False), (0, -1), ("2", 0)])
def test_normal_form_needs_non_negative_int_exponents(i, j):
    with pytest.raises(ValueError, match="exponents"):
        normal_form(i, j, 1)


def test_normal_form_at_high_powers():
    # x^4 = 5x^2 - 4 gives x^(2k) = ((4^k - 1)/3) x^2 + (4 - 4^k)/3
    k = 5000
    assert normal_form(2 * k, 0, -3) == [Q(4 - 4 ** k, 3), ZERO, Q(4 ** k - 1, 3), ZERO, ZERO, ZERO]
    # y^2 = b (x^2 - 4) and (x^2 - 4)^2 = -3 (x^2 - 4) give y^(2m) = b^m (-3)^(m-1) (x^2 - 4)
    c = Q(-3) ** 2999
    assert normal_form(0, 3000, -3) == [-4 * c, ZERO, c, ZERO, ZERO, ZERO]


@pytest.mark.parametrize("b", [Q(-3), Q(5), Q(-1)])
def test_reduction_is_confluent(b):
    for i in range(13):
        for j in range(13):
            assert normal_form(i, j, b) == xfirst_normal_form(i, j, b), (i, j)


@pytest.mark.parametrize("b", [-3, 5, -1, Q(7, 2)])
def test_hopf_axioms(b):
    P = PolyHopfAlgebra(b)
    report = hopf_axiom_report(P)
    assert report.passed, report.failures()
    assert P.is_commutative()
    assert P.is_cocommutative()


@pytest.mark.parametrize("bad", [0, 1, 4, Q(9, 4), Q(16)])
def test_rejects_degenerate_parameters(bad):
    with pytest.raises(ValueError):
        PolyHopfAlgebra(bad)


def test_generator_hopf_data():
    P = PolyHopfAlgebra(-3)
    x, y = 1, 4
    assert P.comul_terms(x) == {(x, x): Q(1, 2), (y, y): Q(-1, 6)}
    assert P.comul_terms(y) == {(x, y): Q(1, 2), (y, x): Q(1, 2)}
    assert P.counit[0, x] == 2
    assert P.counit[0, y] == 0
    assert P.antipode_of(P.basis_vector(y)) == [-c for c in P.basis_vector(y)]
    assert P.antipode_of(P.basis_vector(x)) == P.basis_vector(x)


def test_variety_points_frozen():
    assert variety_points(-3) == SIX_POINTS
    for g in ideal_generators(-3):
        for pt in SIX_POINTS:
            assert evaluate_poly(g, pt) == 0


def test_variety_points_scaled_parameter():
    pts = variety_points(-12)  # -3b = 36
    assert [(x, abs(y)) for x, y in pts] == \
        [(Q(-2), Q(0)), (Q(-1), Q(6)), (Q(1), Q(6)),
         (Q(2), Q(0)), (Q(1), Q(6)), (Q(-1), Q(6))]


def test_variety_points_nonsplit():
    with pytest.raises(ValueError):
        variety_points(5)  # -15 is not a square


def test_variety_points_refuse_b_zero():
    # -3b = 0 is a square, but t = 0 folds the six points onto four
    with pytest.raises(ValueError, match="b = 0"):
        variety_points(0)


def test_evaluation_matrix_rank():
    assert evaluation_matrix(SIX_POINTS).rank() == 6
    P = PolyHopfAlgebra(-3)
    for pt in SIX_POINTS:
        assert evaluation_is_homomorphism(P, pt)
    assert not evaluation_is_homomorphism(P, (Q(3), Q(0)))


@given(st.integers(0, 8), st.integers(0, 4), st.sampled_from(SIX_POINTS))
@settings(max_examples=80, deadline=None)
def test_normal_form_respects_evaluation(i, j, pt):
    # reducing then evaluating equals evaluating the raw monomial
    x, y = pt
    vec = normal_form(i, j, -3)
    monomial_vals = [x ** a * y ** bb for (a, bb) in MONOMIALS]
    reduced = sum((c * monomial_vals[k] for k, c in enumerate(vec)), ZERO)
    assert reduced == x ** i * y ** j


@pytest.mark.parametrize("b", [-3, -12])
def test_point_decomposition(b):
    out = point_decomposition_check(b)
    assert out["passed"], out


def test_wedderburn_of_polyform():
    P = PolyHopfAlgebra(-3)
    assert commutative_wedderburn(P).summary() == tuple([(1, 1, "field")] * 6)


def test_iso_to_descended(descended3):
    P = PolyHopfAlgebra(-3)
    for c in range(3):
        T = check_iso_to_descended(P, descended3[f"N{c}"], cyclic_generator(3, c))
        assert T.rank() == 6


def test_iso_to_descended_alternate_generator(descended3):
    # eta^5 = eta^-1 also generates N_0; the map just swaps the legs
    gen = powers(Perm.__mul__, cyclic_generator(3, 0), Perm.identity(6))[5]
    T = check_iso_to_descended(PolyHopfAlgebra(-3), descended3["N0"], gen)
    assert T.rank() == 6


def test_iso_wrong_parameter_fails(descended3):
    P5 = PolyHopfAlgebra(5)
    with pytest.raises(PolyMapError) as exc:
        check_iso_to_descended(P5, descended3["N0"], cyclic_generator(3, 0))
    assert exc.value.identity == "multiplication"


def test_iso_wrong_generator_fails(descended3):
    P = PolyHopfAlgebra(-3)
    involution = powers(Perm.__mul__, cyclic_generator(3, 0), Perm.identity(6))[3]
    with pytest.raises(PolyMapError):
        check_iso_to_descended(P, descended3["N0"], involution)


@pytest.mark.parametrize("b", [-3, 5, Q(-7, 3)])
def test_scaling_invariance(b):
    T = scaling_invariance_check(b)
    diag = [T[k, k] for k in range(6)]
    assert diag == [Q(1), Q(1), Q(1), Q(1), Q(2), Q(2)]
