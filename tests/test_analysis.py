import importlib
from math import gcd
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfgalois.algebra import Algebra, CheckFailed, algebra_axiom_report, group_hopf_algebra
from hopfgalois.analysis import (_candidate_operators, _eigen_split, _is_simple_root,
                                 algebra_iso_classes_p3,
                                 character_idempotents, commutative_wedderburn,
                                 descend_catalog, hopf_iso_classes, minimal_polynomial,
                                 minimal_splitting_subfield_check,
                                 nilpotent_witness,
                                 noncommutative_wedderburn_p3, rational_roots)
from hopfgalois.catalog import catalog
from hopfgalois.descent import descend, group_algebra, hopf_action
from hopfgalois.extensions import (GaloisAlgebra, quadratic_field, split_model,
                                   splitting_field_cubic)
from hopfgalois.groups import cyclic, dihedral
from hopfgalois.linalg import Matrix, ONE, Q, ZERO, hstack, mul_kron, rational
from hopfgalois.polyform import PolyHopfAlgebra, point_decomposition_check

from conftest import ANSWER_MODELS

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
    return Algebra(Matrix.from_columns([v for row in prod for v in row]),
                   (ONE, ZERO, ZERO, ZERO), names=("1", "i", "j", "k"))


def test_minimal_polynomial():
    d = Matrix.from_rows([[1, 0], [0, 2]])
    # (x-1)(x-2) = x^2 - 3x + 2
    assert minimal_polynomial(d) == [Q(2), Q(-3), Q(1)]
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert minimal_polynomial(n) == [Q(0), Q(0), Q(1)]
    assert minimal_polynomial(Matrix.identity(3)) == [Q(-1), Q(1)]
    assert minimal_polynomial(Matrix.zeros(0, 0)) == [ONE]


@pytest.mark.parametrize("rows, cols", [(1, 2), (2, 3), (2, 1)])
def test_minimal_polynomial_refuses_a_non_square_matrix(rows, cols):
    M = Matrix.from_rows([[Q(i * cols + j + 1) for j in range(cols)] for i in range(rows)])
    with pytest.raises(ValueError, match=f"^a minimal polynomial needs a square matrix, "
                                         f"got {rows} x {cols}$"):
        minimal_polynomial(M)


# -- minimal polynomial: one solve per degree as the reference ---------------------

def _flat(m):
    return [x for i in range(m.rows) for x in m.row(i)]


def ref_minimal_polynomial(M):
    """The first power M^d in the span of I, ..., M^(d-1), found by a fresh
    solve for each degree d."""
    power, vectors = Matrix.identity(M.rows), []
    while len(vectors) <= M.rows:
        vectors.append(_flat(power))
        power = power * M
        sol = Matrix.from_columns(vectors).solve(Matrix.from_columns([_flat(power)]))
        if sol is not None:
            return [-x for x in sol.column(0)] + [ONE]
    raise AssertionError("minimal polynomial must have degree <= dim")


def _jordan_sum(blocks):
    """The direct sum of the Jordan blocks J_m(a) for (a, m) in `blocks`, as
    long as the size stays at most 5."""
    entries, start = [], 0
    for a, m in blocks:
        if start + m > 5:
            break
        entries += [(start + i, start + i, a) for i in range(m)]
        entries += [(start + i, start + i + 1, 1) for i in range(m - 1)]
        start += m
    return Matrix.from_entries(start, start, entries)


def _conjugated(J, perm):
    P = Matrix.permutation(perm)
    return P.transpose() * J * P


entry = st.integers(-3, 3)
dense_matrices = st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k).map(Matrix.from_rows))
# eigenvalues from -1..1, so blocks often share one: derogatory matrices
jordan_matrices = st.lists(st.tuples(st.integers(-1, 1), st.integers(1, 3)), min_size=1,
                           max_size=3).map(_jordan_sum).flatmap(
    lambda J: st.permutations(range(J.rows)).map(lambda perm: _conjugated(J, perm)))


@given(st.one_of(dense_matrices, jordan_matrices))
@example(_jordan_sum([(2, 3)]))
@example(_jordan_sum([(1, 2), (1, 1), (-1, 2)]))
@example(_jordan_sum([(0, 1), (0, 1), (3, 1)]))
@settings(max_examples=100, deadline=None)
def test_minimal_polynomial_and_simple_roots_match_the_references(M):
    """minimal_polynomial equals the solve-per-degree reference, and at every
    rational root a of it, a is simple exactly when ker(M - a) is
    complementary to im(M - a)."""
    mu = minimal_polynomial(M)
    assert mu == ref_minimal_polynomial(M)
    assert all(type(c) is Q for c in mu) and mu[-1] == 1
    k, ident = M.rows, Matrix.identity(M.rows)
    for a in rational_roots(mu):
        shifted = M - ident * a
        assert _is_simple_root(mu, a) == (hstack(shifted.kernel(), shifted).rank() == k)


def test_rational_roots():
    assert rational_roots([Q(-1), Q(0), Q(1)]) == [Q(-1), Q(1)]
    assert rational_roots([Q(-2), Q(0), Q(1)]) == []
    assert rational_roots([Q(0), Q(1)]) == [Q(0)]
    assert rational_roots([Q(-1), Q(2)]) == [Q(1, 2)]


# -- rational roots: trial-division reference and differential oracle -----------

def ref_rational_roots(coeffs):
    """Rational root theorem by trial division: every +-p/q with p | a_0 and
    q | a_n is evaluated.  Cost grows with the coefficients themselves."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial")
    scale = 1
    for c in coeffs:
        d = int(Q(c).denominator)
        scale = scale // gcd(scale, d) * d
    ints = [int(Q(c) * scale) for c in coeffs]
    roots = []
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(ZERO)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    cands = {Q(s * num, den) for num in divisors(ints[low])
             for den in divisors(ints[-1]) for s in (1, -1)}
    for cand in sorted(cands):
        val = ZERO
        for c in reversed(ints):
            val = val * cand + c
        if val == 0:
            roots.append(cand)
    return sorted(set(roots))


def poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


PRIMES = (2, 3, 5, 7, 11, 13, 10007)
# No rational root: x^2 + 1, x^2 - q, and x^2 - (k^2 + 1), whose real roots lie
# within 1/(2k) of the integers +-k.
IRRATIONAL_FACTORS = st.one_of(
    st.just([]),
    st.just([Q(1), ZERO, Q(1)]),
    st.sampled_from(PRIMES).map(lambda q: [Q(-q), ZERO, Q(1)]),
    st.integers(1, 10 ** 6).map(lambda k: [Q(-(k * k + 1)), ZERO, Q(1)]),
)
ROOTS = st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12), st.integers(1, 2)),
                 max_size=4)
LEADING = st.tuples(st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 7)))


@settings(max_examples=300, deadline=None)
@given(ROOTS, st.integers(0, 3), LEADING, IRRATIONAL_FACTORS)
def test_rational_roots_differential(roots, zero_mult, leading, factor):
    poly = [ZERO] * zero_mult + [Q(*leading)]
    expected = {ZERO} if zero_mult else set()
    for num, den, mult in roots:
        r = Q(num, den)
        expected.add(r)
        for _ in range(mult):
            poly = poly_mul(poly, [-r, ONE])
    if factor:
        poly = poly_mul(poly, factor)
    got = rational_roots(poly)
    assert got == sorted(expected)
    scale = 1
    for c in poly:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    if max(abs(c * scale) for c in poly) < 10 ** 4:
        assert got == ref_rational_roots(poly)


# Quadratics, whose roots rational_roots reads off the discriminant: roots of
# up to 25 bits, as roots_bitsize's +-3m/n, over small denominators.
QUADRATIC_ROOTS = st.builds(Q, st.integers(-2 ** 25, 2 ** 25), st.sampled_from((1, 2, 5, 7, 243)))
QUADRATIC_KINDS = ("distinct", "double", "zero", "surd", "complex")


@settings(max_examples=300, deadline=None)
@given(QUADRATIC_ROOTS, QUADRATIC_ROOTS, LEADING, st.sampled_from(QUADRATIC_KINDS),
       st.integers(1, 2 ** 25))
@example(Q(3, 2), Q(3, 2), (-1, 1), "double", 1)
@example(Q(0), Q(5), (-3, 7), "zero", 1)
@example(Q(0), Q(0), (1, 1), "surd", 2)
def test_rational_roots_of_quadratics(r, s, leading, kind, k):
    """c (x - r)(x - s), c (x - r)^2, c x (x - s), and c ((x - r)^2 -+ e) with
    e = (k^2 + 1)/den(s)^2, whose discriminant 4e is no square, or -4e < 0."""
    c = Q(*leading)
    if kind in ("distinct", "double", "zero"):
        r = {"distinct": r, "double": s, "zero": ZERO}[kind]
        poly, expected = poly_mul([-r * c, c], [-s, ONE]), sorted({r, s})
    else:
        e = Q(k * k + 1, s.denominator ** 2) * (1 if kind == "surd" else -1)
        poly, expected = [(r * r - e) * c, -2 * r * c, c], []
    got = rational_roots(poly)
    assert got == expected
    scale = 1
    for x in poly:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    if max(abs(x * scale) for x in poly) < 10 ** 4:
        assert got == ref_rational_roots(poly)


def test_rational_roots_edge_cases():
    for zero in ([], [ZERO], [ZERO, ZERO], (), [0]):
        with pytest.raises(ValueError, match="^zero polynomial$"):
            rational_roots(zero)
    assert rational_roots([Q(5)]) == []
    assert rational_roots([Q(-1, 3)]) == []
    assert rational_roots([Q(-1), ZERO, Q(1), ZERO, ZERO]) == [Q(-1), Q(1)]
    coeffs = (Q(-4), ZERO, Q(1), ZERO)
    assert rational_roots(coeffs) == [Q(-2), Q(2)]
    assert coeffs == (Q(-4), ZERO, Q(1), ZERO)
    listed = [Q(-4), ZERO, Q(1), ZERO]
    rational_roots(listed)
    assert listed == [Q(-4), ZERO, Q(1), ZERO]
    for k in (1, 2, 5):
        assert rational_roots([ZERO] * k + [Q(-1, 2), ONE]) == [ZERO, Q(1, 2)]


def test_rational_roots_at_scale():
    k, n = 10 ** 30 + 57, 7  # 9 k^2 has 61 digits
    start = perf_counter()
    assert rational_roots([Q(-9 * k * k, n * n), ZERO, ONE]) == [Q(-3 * k, n), Q(3 * k, n)]
    assert rational_roots([Q(-9 * k * k - 1), ZERO, ONE]) == []
    assert rational_roots([Q(-9 * k * k), ZERO, Q(-1)]) == []
    # -5 (x - k/3)^2 (x + 2^70/5) (x^2 + 1): non-monic, repeated, 50-digit roots
    poly = [Q(-5)]
    for r in (Q(k, 3), Q(k, 3), Q(-2 ** 70, 5)):
        poly = poly_mul(poly, [-r, ONE])
    poly = poly_mul(poly, [ONE, ZERO, ONE])
    assert rational_roots(poly) == [Q(-2 ** 70, 5), Q(k, 3)]
    assert perf_counter() - start < 5.0


@pytest.mark.parametrize("k", [10007, 10 ** 39 + 7], ids=["k=10007", "k=40-digit"])
def test_point_decomposition_at_scale(k):
    start = perf_counter()
    report = point_decomposition_check(-3 * k * k)
    assert report["passed"] is True
    assert report["wedderburn_summary"] == SIX_FIELDS
    assert perf_counter() - start < 20.0


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
    assert sum(c.dim for c in rep.components) == 6
    assert rep.summary() == SIX_FIELDS
    # component units are orthogonal idempotents summing to 1
    H = descended3["N0"]
    total = [ZERO] * 6
    for comp in rep.components:
        assert H.mul(comp.unit, comp.unit) == list(comp.unit)
        total = [a + b for a, b in zip(total, comp.unit)]
    assert total == list(H.unit)


def _algebra(n, products, unit):
    """The algebra with basis products e_i e_j = e_k for (i, j) -> k, others 0."""
    return Algebra(Matrix.from_entries(n, n * n, [(k, i * n + j, ONE)
                                                  for (i, j), k in products.items()]), unit)


def test_wedderburn_keeps_a_non_semisimple_block_whole():
    # Q[x]/(x^2): ker(L_x) = im(L_x) = Qx, so no eigen-split is complementary
    dual = _algebra(2, {(0, 0): 0, (0, 1): 1, (1, 0): 1}, (ONE, ZERO))
    assert algebra_axiom_report(dual).passed
    rep = commutative_wedderburn(dual)
    assert rep.summary() == ((2, 2, "undetermined"),)
    assert rep.components[0].unit == (ONE, ZERO)
    # Q x Q[x]/(x^2): e0 splits off Q, and the dual-number block stays whole
    mixed = _algebra(3, {(0, 0): 0, (1, 1): 1, (1, 2): 2, (2, 1): 2}, (ONE, ONE, ZERO))
    assert algebra_axiom_report(mixed).passed
    rep = commutative_wedderburn(mixed)
    assert rep.summary() == ((1, 1, "field"), (2, 2, "undetermined"))
    assert [c.unit for c in rep.components] == [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO)]


def _root_algebra(*roots):
    """Q[x]/(f), f the product of the x - a over `roots`, on the basis 1, x,
    ..., x^(d-1): column i*d + j of mult is x^(i+j), a power of the
    companion matrix applied to 1."""
    f = [ONE]
    for a in roots:
        f = poly_mul(f, [Q(-a), ONE])
    d = len(roots)
    x = Matrix.from_entries(d, d, [(j + 1, j, ONE) for j in range(d - 1)]
                            + [(i, d - 1, -f[i]) for i in range(d)])
    powers = [Matrix.identity(d).column(0)]
    for _ in range(2 * d - 2):
        powers.append(x.apply(powers[-1]))
    return Algebra(Matrix.from_columns([powers[i + j] for i in range(d) for j in range(d)]),
                   powers[0])


# the full reports: (unit, basis columns) of each component, in report order
@pytest.mark.parametrize("roots, summary, components", [
    ((0, 0, 1), ((1, 1, "field"), (2, 2, "undetermined")),
     [((0, 0, 1), [(0, 0, 1)]),
      ((1, 0, -1), [(1, -1, 0), (1, 0, -1)])]),
    ((1, 1, -1, -1, 2), ((1, 1, "field"), (4, 4, "undetermined")),
     [((Q(1, 9), 0, Q(-2, 9), 0, Q(1, 9)), [(1, 0, -2, 0, 1)]),
      ((Q(8, 9), 0, Q(2, 9), 0, Q(-1, 9)),
       [(2, -1, 0, 0, 0), (4, 0, -1, 0, 0), (8, 0, 0, -1, 0), (16, 0, 0, 0, -1)])]),
], ids=["x^2(x-1)", "(x-1)^2(x+1)^2(x-2)"])
def test_wedderburn_splits_off_only_simple_roots(roots, summary, components):
    """A block on which every candidate's rational roots are multiple roots
    of its minimal polynomial stays whole: x has the simple root 1 (resp. 2),
    which splits off Q, and no candidate has a simple root on the rest,
    though Q[x]/((x-1)^2(x+1)^2) is the product of two local rings."""
    H = _root_algebra(*roots)
    assert algebra_axiom_report(H).passed
    rep = commutative_wedderburn(H)
    assert rep.summary() == summary
    assert [(c.unit, c.basis.columns()) for c in rep.components] == components


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


def _character_units(H, e1, e2):
    """The units e1, e2 and 1 - e1 - e2 that split H, as a set of tuples."""
    return {tuple(e1), tuple(e2), tuple(u - a - b for u, a, b in zip(H.unit, e1, e2))}


def test_group_algebra_wedderburn():
    KD3 = group_hopf_algebra(dihedral(3))
    rep = noncommutative_wedderburn_p3(KD3)
    assert rep.summary() == GROUP_ALGEBRA_D3
    assert {c.unit for c in rep.components} == _character_units(KD3, *character_idempotents(3))


def test_descended_noncommutative_wedderburn(L3, descended3):
    classes, reports = algebra_iso_classes_p3(descended3)
    assert sorted(sorted(c) for c in classes) == [
        ["N0", "N1", "N2"], ["lambda", "rho"]]
    assert reports["rho"].summary() == GROUP_ALGEBRA_D3
    assert reports["lambda"].summary() == GROUP_ALGEBRA_D3
    for label in ("rho", "lambda"):
        # the character idempotents of N, solved into H's basis
        H = descended3[label]
        A = H.provenance.parent
        sol = H.provenance.basis.solve(
            A.slot_map(range(A.N.order), Matrix.from_columns([L3.unit]))
            * Matrix.from_columns(character_idempotents(3)))
        assert sol is not None
        e1, e2 = (list(sol.column(j)) for j in range(2))
        assert {c.unit for c in reports[label].components} == _character_units(H, e1, e2)
    for c in range(3):
        assert reports[f"N{c}"].summary() == SIX_FIELDS


def test_nilpotent_witness(L3):
    from hopfgalois.descent import SemilinearAction, group_algebra
    from hopfgalois.groups import left_regular
    b = nilpotent_witness(L3)
    A = group_algebra(L3, left_regular(L3.group))
    assert A.mul(b, b) == [ZERO] * A.dim
    act = SemilinearAction(A)
    for g in range(L3.group.order):
        assert act.matrix(g).apply(b) == b


def test_nilpotent_witness_needs_cubic_model():
    with pytest.raises(ValueError):
        nilpotent_witness(split_model(dihedral(3)))
    with pytest.raises(ValueError):
        nilpotent_witness(quadratic_field(2))


def quaternion_block_algebra():
    """Q x Q x (-1,-1/Q): basis e0, e1 (orthogonal idempotents), then 1, i, j, k
    of the quaternions."""
    Hq = quaternion_algebra()
    mult = Matrix.from_entries(6, 36, [(0, 0, ONE), (1, 7, ONE)] + [
        (k + 2, (ij // 4 + 2) * 6 + ij % 4 + 2, c) for k in range(4)
        for ij, c in Hq.mult.row_entries(k)])
    return Algebra(mult, (ONE, ONE, ONE, ZERO, ZERO, ZERO))


def test_quaternion_block_stays_undetermined():
    # a division algebra has no idempotent other than 0 and 1 to prove M_2 with
    H = quaternion_block_algebra()
    assert algebra_axiom_report(H).passed
    assert not H.is_commutative()
    rep = noncommutative_wedderburn_p3(H)
    assert rep.summary() == ((1, 1, "field"), (1, 1, "field"), (4, 1, "undetermined"))
    block = next(c for c in rep.components if c.dim == 4)
    assert block.unit == (ZERO, ZERO, ONE, ZERO, ZERO, ZERO)


@pytest.mark.parametrize("v", ["2", "3", "5", "6", "7", "1/2", "2e50"])
def test_translation_structures_are_matrix_blocks_over_cubic_fields(v):
    L = splitting_field_cubic(rational(v))
    for e in catalog(3):
        if e.label in ("rho", "lambda"):
            H = descend(group_algebra(L, e.subgroup), label=e.label)
            assert noncommutative_wedderburn_p3(H).summary() == GROUP_ALGEBRA_D3, e.label


def test_eigen_split_units_of_the_group_algebra_block():
    KD3 = group_hopf_algebra(dihedral(3))
    block = next(c for c in noncommutative_wedderburn_p3(KD3).components if c.dim == 4)
    e = Matrix.from_columns([block.unit])
    split = _eigen_split(KD3, e, block.basis, _candidate_operators(KD3)())
    assert split is not None
    (ua, _), (ub, _) = split
    for u in (ua, ub):
        assert u != Matrix.zeros(6, 1) and u != e
        assert KD3.mul(u.column(0), u.column(0)) == list(u.column(0))
    assert ua + ub == e


def test_quaternion_is_division_shaped():
    Hq = quaternion_algebra()
    assert algebra_axiom_report(Hq).passed
    assert not Hq.is_commutative()


def test_hopf_iso_classes(descended3):
    report = hopf_iso_classes(descended3)
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


def test_hopf_iso_classes_refuses_intransitive_evidence(descended3, monkeypatch):
    # rho ~ N0 and N0 ~ N1, but rho !~ N1
    analysis = importlib.import_module("hopfgalois.analysis")
    linked = {("rho", "N0"), ("N0", "N1")}
    label_of = {e.subgroup.canonical_key(): e.label for e in catalog(3)}

    def search(N, N2, G):
        pair = (label_of[N.canonical_key()], label_of[N2.canonical_key()])
        return (["iso"], []) if pair in linked else ([], [])

    monkeypatch.setattr(analysis, "equivariant_iso_search", search)
    monkeypatch.setattr(analysis, "_induced_hopf_map", lambda Ha, Hb, iso: None)
    monkeypatch.setattr(analysis, "hopf_map_violation", lambda T, Ha, Hb: None)
    with pytest.raises(CheckFailed, match="pairwise evidence is not transitive"):
        hopf_iso_classes(descended3)


def test_hopf_iso_classes_classify_the_dict_they_are_given(descended3):
    report = hopf_iso_classes({lab: descended3[lab] for lab in ("N2", "lambda", "N0")})
    assert report.labels == ["N2", "lambda", "N0"]
    assert report.classes == [["N2", "N0"], ["lambda"]]
    assert list(report.evidence) == [("N2", "lambda"), ("N2", "N0"), ("lambda", "N0")]


@pytest.mark.parametrize("model", ANSWER_MODELS, ids=lambda m: f"{m[0]}-p{m[1]}")
def test_descend_catalog_equals_each_structure_descended_alone(batteries, model, monkeypatch):
    """descend_catalog descends rho, lambda and N0 only, and every label's
    maps, basis and phi equal that structure's own descend.  Each label has
    its own provenance: its parent is L[N] for its own N, whose elements
    hopf_action reads."""
    analysis = importlib.import_module("hopfgalois.analysis")
    real, calls = analysis.descend, []
    monkeypatch.setattr(analysis, "descend",
                        lambda A, label=None: calls.append(label) or real(A, label=label))
    runs, p = batteries[model], model[1]
    descended = descend_catalog(p, runs["rho"].H.provenance.parent.L)
    assert calls == ["rho", "lambda", "N0"]
    subgroups = {e.label: e.subgroup for e in catalog(p)}
    assert list(descended) == list(runs) == list(subgroups)
    for label, H in descended.items():
        want = runs[label].H
        for field in ("mult", "unit", "comul", "counit", "antipode"):
            assert getattr(H, field) == getattr(want, field), (label, field)
        for field in ("basis", "phi"):
            assert getattr(H.provenance, field) == getattr(want.provenance, field), (label, field)
        assert (H.provenance.parent.N, H.provenance.label) == (subgroups[label], label)
        assert hopf_action(H) == hopf_action(want), label


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("p", [3, 5])
def test_split_model_hopf_classes_join_rho_and_lambda(p, request):
    """Over the split model every H_N is Q[N] (evaluation at the identity
    point, test_split_model_descents_evaluate_onto_the_group_algebra), so
    H_rho and H_lambda are one class."""
    if p == 3:
        descended = descend_catalog(3, split_model(dihedral(3)))
    else:
        descended = {**request.getfixturevalue("split5_rho_lambda"),
                     **request.getfixturevalue("split5_nc")}
    report = hopf_iso_classes(descended)
    assert report.classes == [["rho", "lambda"], [f"N{c}" for c in range(p)]]


# an invertible integer matrix: the p = 3 split model on its columns is the
# same Galois algebra in another basis
_ANOTHER_BASIS = Matrix.from_rows([
    [-2, -1, -3, 2, 0, 0], [-2, -3, -3, -3, 0, 1], [-1, 3, 3, -3, -2, 1],
    [1, -1, -1, 3, -2, 3], [-3, -1, -2, -3, 3, 2], [3, -1, 3, -1, -2, -2]])


def _conjugated_split_model():
    """The p = 3 split model in the basis of _ANOTHER_BASIS S: mult S^-1
    mult (S (x) S), action S^-1 A_g S, unit and idempotent mapped by S^-1."""
    L, S = split_model(dihedral(3)), _ANOTHER_BASIS
    S_inv = S.inverse()
    return GaloisAlgebra(S_inv * mul_kron(L.mult, S, S), S_inv.apply(L.unit), L.group,
                         {g: S_inv * m * S for g, m in L.generator_action.items()},
                         idempotent=S_inv.apply(L.idempotent))


def test_conjugated_split_model_is_a_galois_algebra():
    assert _conjugated_split_model().verify().passed


def test_split_model_algebra_classes_join_rho_and_lambda():
    classes, _ = algebra_iso_classes_p3(descend_catalog(3, split_model(dihedral(3))))
    assert classes == [["rho", "lambda"], ["N0", "N1", "N2"]]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 31")
def test_conjugated_split_model_keeps_rho_and_lambda_in_one_algebra_class():
    """A change of basis of L changes no algebra class: H_rho and H_lambda
    are both Q[D_3], as over the split model itself."""
    classes, _ = algebra_iso_classes_p3(descend_catalog(3, _conjugated_split_model()))
    assert classes == [["rho", "lambda"], ["N0", "N1", "N2"]]


def test_classifiers_refuse_descents_over_two_fields(descended3):
    # N0 descended over the split model of D_3 instead of over cubic:2
    N0 = descend(group_algebra(split_model(dihedral(3)), catalog(3)[2].subgroup), label="N0")
    for classify in (hopf_iso_classes, algebra_iso_classes_p3):
        with pytest.raises(ValueError, match="descended over 2 fields"):
            classify({**descended3, "N0": N0})
        with pytest.raises(ValueError, match="produced by descend"):
            classify({"rho": descended3["rho"], "Q[D3]": group_hopf_algebra(dihedral(3))})


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


def test_noncommutative_wedderburn_refuses_a_center_that_is_not_closed():
    # e0 e1 = e1 e0 = e2 and e2 e3 = e4: only e2 and e3 fail to commute, so
    # the commutant is spanned by e0, e1, e4 and e5, and e0 e1 = e2 leaves
    # it.  No associative algebra has such a center; the unit given, e5, is
    # central, so the product alone trips the guard.
    H = _algebra(6, {(0, 1): 2, (1, 0): 2, (2, 3): 4}, (ZERO,) * 5 + (ONE,))
    assert not H.is_commutative()
    with pytest.raises(CheckFailed, match="^the center is not a subalgebra$"):
        noncommutative_wedderburn_p3(H)


def test_non_semisimple_block_stays_undetermined():
    # Q x Q x T, T = {[[a, x, y], [0, d, 0], [0, 0, d]]} on f0, f1, E11, E12,
    # E13, D: E11 is an idempotent other than 0 and 1 of T, but x and y span
    # its radical, so the trace form has rank 2 on T
    H = _algebra(6, {(0, 0): 0, (1, 1): 1, (2, 2): 2, (2, 3): 3, (2, 4): 4,
                     (3, 5): 3, (4, 5): 4, (5, 5): 5}, (ONE, ONE, ONE, ZERO, ZERO, ONE))
    assert algebra_axiom_report(H).passed
    assert not H.is_commutative()
    rep = noncommutative_wedderburn_p3(H)
    assert rep.summary() == ((1, 1, "field"), (1, 1, "field"), (4, 1, "undetermined"))


def test_the_polynomial_form_splits_on_three_minimal_polynomials(monkeypatch):
    # x splits P(b) by its four eigenvalues -2, -1, 1, 2 at once, and y splits
    # each 2-dimensional eigenspace of x; every other candidate is scalar there
    analysis = importlib.import_module("hopfgalois.analysis")
    calls = []

    def counting(M):
        calls.append(M)
        return minimal_polynomial(M)

    monkeypatch.setattr(analysis, "minimal_polynomial", counting)
    assert commutative_wedderburn(PolyHopfAlgebra(Q(-147, 25))).summary() == SIX_FIELDS
    assert len(calls) == 3


@pytest.mark.parametrize("square, message", [(True, "component unit is not idempotent"),
                                             (False, "component units are not orthogonal")])
def test_the_unit_guards_catch_one_wrong_product(monkeypatch, square, message):
    # the guards read u u as L_u u and u u' as L_u u', one product of a unit's
    # operator by a single column; the first such product, of u itself when
    # square and of another unit otherwise, comes back with one entry off
    H = PolyHopfAlgebra(Q(-147, 25))
    build, perturbed = H.mult_operator, []

    class OneWrong:
        def __init__(self, x):
            self.op, self.x = build(x), tuple(x)

        def __mul__(self, m):
            out = self.op * m
            if not perturbed and m.cols == 1 and (m.column(0) == self.x) == square:
                perturbed.append(m)
                out = out + Matrix.from_entries(out.rows, 1, [(0, 0, ONE)])
            return out

    monkeypatch.setattr(H, "mult_operator", OneWrong)
    with pytest.raises(CheckFailed, match=message):
        commutative_wedderburn(H)
    assert len(perturbed) == 1
