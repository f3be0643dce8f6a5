import random

import pytest

from hopfgalois import descent
from hopfgalois.algebra import (HopfPresentation, algebra_axiom_report, group_hopf_algebra,
                                hopf_axiom_report, hopf_map_violation)
from hopfgalois.catalog import catalog, cyclic_generator
from hopfgalois.analysis import nilpotent_witness
from hopfgalois.descent import (DescentError, NormalizationError, SemilinearAction,
                                _descended_comultiplication, base_change_is_group_algebra,
                                descend, explicit_basis_matches,
                                explicit_classical_basis, explicit_cyclic_basis,
                                explicit_translation_basis, group_algebra,
                                hopf_action, hopf_galois_matrix, inverse_pair_columns,
                                lform_matrix, measuring_report, verify_hopf_galois)
from hopfgalois.extensions import GaloisAlgebra, quadratic_sqrt_witness, split_model
from hopfgalois.groups import (Perm, PermSubgroup, closure, dihedral, group_isomorphisms,
                               is_normalized_by, left_regular, powers)
from hopfgalois.linalg import Matrix, ONE, Q, ZERO, fixed_basis, hstack, kernel_form, mul_kron

LABELS3 = ("rho", "lambda", "N0", "N1", "N2")


def _chunk(A, vec, t):
    """The L-coefficient of eta_t in an L[N] coordinate vector."""
    d = A.L.dim
    return list(vec[t * d:(t + 1) * d])


def _embed(A, x, t):
    """The element x * eta_t for an L-coordinate vector x."""
    d = A.L.dim
    return [ZERO] * (t * d) + list(x) + [ZERO] * (A.dim - (t + 1) * d)


def test_all_five_descents_pass_axioms(descended3):
    for label in LABELS3:
        H = descended3[label]
        assert H.dim == 6
        report = hopf_axiom_report(H)
        assert report.passed, (label, report.failures())


def test_commutativity_pattern(descended3):
    assert not descended3["rho"].is_commutative()
    assert not descended3["lambda"].is_commutative()
    for c in range(3):
        assert descended3[f"N{c}"].is_commutative()
    for label in LABELS3:
        assert descended3[label].is_cocommutative()


def test_descended_basis_is_pointwise_fixed(L3, descended3):
    for label in LABELS3:
        H = descended3[label]
        A = H.provenance.parent
        act = SemilinearAction(A)
        for j in range(H.dim):
            col = list(H.provenance.basis.column(j))
            for g in range(L3.group.order):
                assert act.matrix(g).apply(col) == col


def test_comultiplication_reconstructs_in_group_algebra(descended3):
    """Expanding the descended comultiplication back into L[N] (x)_L L[N]
    must give the group-like diagonal of each basis element."""
    for label in LABELS3:
        H = descended3[label]
        A = H.provenance.parent
        B = H.provenance.basis
        n = A.N.order
        chunks = [[_chunk(A, B.column(i), t) for t in range(n)] for i in range(H.dim)]
        L = A.L
        zero = [ZERO] * L.dim
        for k in range(H.dim):
            terms = H.comul_terms(k)
            for t in range(n):
                for u in range(n):
                    acc = list(zero)
                    for (i, j), c in terms.items():
                        prod = L.mul(chunks[i][t], chunks[j][u])
                        for idx, v in enumerate(prod):
                            if v:
                                acc[idx] += c * v
                    expected = chunks[k][t] if t == u else zero
                    assert acc == expected, (label, k, t, u)


def test_antipode_is_slot_inversion(descended3):
    for label in LABELS3:
        H = descended3[label]
        A = H.provenance.parent
        B = H.provenance.basis
        for k in range(H.dim):
            col = B.column(k)
            flipped = [ZERO] * A.dim
            for t in range(A.N.order):
                ti = A.N.index_of(A.N.elements[t].inverse())
                chunk = _chunk(A, col, t)
                for a, v in enumerate(chunk):
                    flipped[ti * A.L.dim + a] = v
            assert list(B.apply(H.antipode.column(k))) == flipped


def test_counit_sums_slots(descended3):
    for label in LABELS3:
        H = descended3[label]
        A = H.provenance.parent
        L = A.L
        for k in range(H.dim):
            col = H.provenance.basis.column(k)
            total = [ZERO] * L.dim
            for t in range(A.N.order):
                for a, v in enumerate(_chunk(A, col, t)):
                    total[a] += v
            assert total == [H.counit[0, k] * u for u in L.unit]


def test_hopf_galois_property(descended3):
    for label in LABELS3:
        check = verify_hopf_galois(descended3[label])
        assert check.passed
        assert check.rank == 36


def test_measuring(descended3):
    for label in LABELS3:
        report = measuring_report(descended3[label])
        assert report.passed, (label, report.failures())


def test_base_change_recovers_group_algebra(descended3):
    for label in LABELS3:
        assert base_change_is_group_algebra(descended3[label])


def test_explicit_bases(descended3):
    assert explicit_basis_matches(descended3["rho"], "classical")
    assert explicit_basis_matches(descended3["lambda"], "translation")
    for c in range(3):
        assert explicit_basis_matches(descended3[f"N{c}"], "cyclic",
                                      gen=cyclic_generator(3, c))


def test_explicit_basis_kind_mismatch(descended3):
    # the translation form insists on N = lambda(G)
    with pytest.raises(ValueError):
        explicit_basis_matches(descended3["N0"], "translation")
    # the classical form insists on a centralized N
    with pytest.raises(ValueError):
        explicit_basis_matches(descended3["lambda"], "classical")
    with pytest.raises(ValueError):
        explicit_basis_matches(descended3["N0"], "unknown-kind")


def test_classical_basis_is_group_elements(L3, catalog3):
    A = group_algebra(L3, catalog3[0].subgroup)
    B = explicit_classical_basis(A)
    for j in range(B.cols):
        col = B.column(j)
        nonzero_slots = [t for t in range(A.N.order)
                         if any(_chunk(A, col, t))]
        assert len(nonzero_slots) == 1
        assert list(_chunk(A, col, nonzero_slots[0])) == list(L3.unit)


def test_action_negative_control(L3, descended3):
    mats = hopf_action(descended3["N0"])
    j = hopf_galois_matrix(L3, mats)
    assert j.rank() == 36
    zeroed = list(mats)
    zeroed[3] = Matrix.zeros(6, 6)
    assert hopf_galois_matrix(L3, zeroed).rank() < 36


def test_lform_negative_control(descended3):
    H = descended3["N1"]
    A = H.provenance.parent
    B = H.provenance.basis
    full = lform_matrix(A, B)
    assert full.rank() == 36
    truncated = Matrix.from_columns([B.column(j) for j in range(5)], rows=A.dim)
    assert lform_matrix(A, truncated).rank() == 30


# -- Phi and j against their per-basis-element formulas ------------------------

def _lform_by_slot_maps(A, B):
    """Phi as the stack over a of slot_map(identity, L.mult_operator(e_a)) * B."""
    L = A.L
    return hstack(*[A.slot_map(range(A.N.order), L.mult_operator(L.basis_vector(a))) * B
                    for a in range(L.dim)])


def _hopf_galois_by_products(L, action_matrices):
    """j with column a*n + k the flattened product L.mult_operator(e_a) * M_k."""
    d, n = L.dim, len(action_matrices)
    entries = []
    for a in range(d):
        mult_op = L.mult_operator(L.basis_vector(a))
        for k, m in enumerate(action_matrices):
            composed = mult_op * m
            entries.extend((p * d + q, a * n + k, c)
                           for p in range(d) for q, c in composed.row_entries(p))
    return Matrix.from_entries(d * d, d * n, entries)


def _differential_presentations(descended3):
    """Every p = 3 cubic:2 presentation, then p = 5 split lambda and N2."""
    yield from descended3.items()
    L5 = split_model(dihedral(5))
    for e in catalog(5):
        if e.label in ("lambda", "N2"):
            yield f"p5-{e.label}", descend(group_algebra(L5, e.subgroup), label=e.label)


def test_phi_and_j_match_their_per_basis_formulas(descended3):
    for label, H in _differential_presentations(descended3):
        A, B = H.provenance.parent, H.provenance.basis
        # the negative controls: a truncated basis and a zeroed action matrix
        truncated = Matrix.from_columns([B.column(j) for j in range(B.cols - 1)], rows=A.dim)
        for basis in (B, truncated):
            assert lform_matrix(A, basis) == _lform_by_slot_maps(A, basis), label
        mats = hopf_action(H)
        zeroed = list(mats)
        zeroed[len(mats) // 2] = Matrix.zeros(A.L.dim, A.L.dim)
        for action in (mats, zeroed):
            assert hopf_galois_matrix(A.L, action) == _hopf_galois_by_products(A.L, action), label


def _action_by_slot_products(A, B):
    """The action of each column of B on L as the sum over the nonzero slots t
    of L.mult_operator(x_t) * L.action[eta_t^-1[1]]."""
    L = A.L
    G = L.group
    slot_gal = [eta.inverse()(G.identity) for eta in A.N.elements]
    mats = []
    for col in B.columns():
        x = Matrix(A.N.order, L.dim, col)
        mats.append(sum((L.mult_operator(x.row(t)) * L.action[slot_gal[t]]
                         for t in range(x.rows) if x.row_entries(t)),
                        Matrix.zeros(L.dim, L.dim)))
    return mats


def test_action_matrices_match_the_per_slot_formula(descended3):
    for label, H in _differential_presentations(descended3):
        A, B = H.provenance.parent, H.provenance.basis
        # the negative control: a truncated basis, fewer h_k than slots
        truncated = Matrix.from_columns([B.column(j) for j in range(B.cols - 1)], rows=A.dim)
        for basis in (B, truncated):
            mats = descent._action_matrices(A, basis)
            assert mats == _action_by_slot_products(A, basis), label
            assert all(type(c) is Q for m in mats for i in range(m.rows)
                       for _, c in m.row_entries(i)), label
        assert hopf_action(H) == _action_by_slot_products(A, B), label


def _one_split_and_one_cubic(L3):
    """(label, L[N]) for p = 5 split lambda and p = 3 cubic:2 N0."""
    lam5 = next(e for e in catalog(5) if e.label == "lambda")
    n0 = next(e for e in catalog(3) if e.label == "N0")
    return [("p5-lambda", group_algebra(split_model(dihedral(5)), lam5.subgroup)),
            ("p3-N0", group_algebra(L3, n0.subgroup))]


def _owns_a_row_per_column(m):
    """Whether each column has a row whose only nonzero sits in that column."""
    rows = [dict(m.row_entries(i)) for i in range(m.rows)]
    return {next(iter(r)) for r in rows if len(r) == 1} == set(range(m.cols))


@pytest.mark.parametrize("owned", [True, False])
def test_a_basis_not_closed_under_products_is_refused(monkeypatch, L3, owned):
    """The fixed basis with e_i, outside its span, added to column 0, so the
    span is no longer closed under products.  With `owned` every column keeps
    an owned row and the structure constants are read off and refused by
    their product check; otherwise column 1 first loses its owned rows
    (column 0 += column 1, which keeps the span) and the refusal comes from
    elimination."""
    real = descent.fixed_basis

    def perturbed(mats, dim):
        B = real(mats, dim)
        if not owned:
            B += Matrix.from_columns([B.column(1)] + [[ZERO] * B.rows] * (B.cols - 1))
        for i in range(B.rows):
            e_i = Matrix.from_entries(B.rows, B.cols, [(i, 0, ONE)])
            moved = B + e_i
            if hstack(B, e_i).rank() > B.cols and _owns_a_row_per_column(moved) is owned:
                return moved
        pytest.fail("no row to move column 0 at")

    monkeypatch.setattr(descent, "fixed_basis", perturbed)
    for label, A in _one_split_and_one_cubic(L3):
        act = SemilinearAction(A)
        B = perturbed([act.matrix(g) for g in A.L.group.generators], A.dim)
        assert B.cols == A.N.order and B.rank() == B.cols, label
        with pytest.raises(DescentError, match="^a product of fixed vectors left the fixed ring$"):
            descend(A, label=label)


def test_descend_eliminates_only_where_no_row_is_owned(monkeypatch, L3, L5):
    """One descend row-reduces at p = 5 split lambda only once: the fixed-space
    kernel (the stacked M_g - I over the two generators, 200 x 100).  K = 1
    there, so F = I: no fixed space of K is solved, and L^K is read off the
    owned rows of I.  The structure constants, the unit and the antipode
    against B', the counit and both stages of Delta against u (x) I, Phi'^-1
    and the kernel form of X = (I (x) F) B' are read off owned rows and
    checked by one product each.
    At p = 5 split, N0 (K = <r>) row-reduces twice: the fixed space of K in L
    (10 x 10, M_r - I) and the kernel in its 20-dimensional ambient L^K[N]
    (40 x 20).  There X is not its own kernel form, and B' is the preimage
    of B = kernel_form(X), read off the owned rows of I (x) F.  At p = 3 over
    cubic:2, N0 (K = <r>) row-reduces three times: the fixed space of K in L
    (6 x 6), the kernel in L^K[N] (24 x 12) and the solve for Phi'^-1
    (12 x 24), as that Phi' has a column that owns no row."""
    shapes, written_back = [], []
    real, real_form = Matrix.rref, descent.kernel_form

    def counted(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(Matrix, "rref", counted)
    monkeypatch.setattr(descent, "kernel_form", lambda X: written_back.append(X) or real_form(X))
    n0 = next(e for e in catalog(5) if e.label == "N0")
    cases = _one_split_and_one_cubic(L3) + [("p5-N0", group_algebra(L5, n0.subgroup))]
    expected = {"p5-lambda": [(200, 100)], "p3-N0": [(6, 6), (24, 12), (12, 24)],
                "p5-N0": [(10, 10), (40, 20)]}
    for label, A in cases:
        shapes.clear()
        written_back.clear()
        H = descend(A, label=label)
        assert shapes == expected[label], label
        assert _owns_a_row_per_column(H.provenance.phi) is (label != "p3-N0"), label
        assert (written_back != [H.provenance.basis]) is (label == "p5-N0"), label


def test_group_algebra_builds_its_table_only_when_read():
    L = split_model(dihedral(13))
    A = group_algebra(L, catalog(13)[0].subgroup)
    assert "mult" not in vars(A)
    assert A.dim == 26 * 26 and len(A.unit) == len(A.names) == A.dim


@pytest.mark.parametrize("p", [3, 5])
def test_batteries_leave_the_callers_table_unbuilt(L3, p):
    """Every check of every structure reads L[N] as a coordinate frame only."""
    L = L3 if p == 3 else split_model(dihedral(p))
    for e in catalog(p):
        A = group_algebra(L, e.subgroup)
        H = descend(A, label=e.label)
        assert hopf_axiom_report(H).passed and verify_hopf_galois(H).passed, e.label
        assert base_change_is_group_algebra(H) and measuring_report(H).passed, e.label
        if e.label in ("rho", "lambda"):
            kind, gen = {"rho": "classical", "lambda": "translation"}[e.label], None
        else:
            kind, gen = "cyclic", cyclic_generator(p, int(e.label[1:]))
        assert explicit_basis_matches(H, kind, gen=gen), e.label
        assert "mult" not in vars(A), e.label


def test_group_algebra_table_read_on_demand_matches_the_definition(L3):
    """(x eta_t)(y eta_u) = (xy) eta_tu, column by column over the basis pairs."""
    for e in catalog(3):
        A = group_algebra(L3, e.subgroup)
        d, n = L3.dim, A.N.order
        cols = []
        for t in range(n):
            for a in range(d):
                for u in range(n):
                    for b in range(d):
                        xy = L3.mul(L3.basis_vector(a), L3.basis_vector(b))
                        cols.append(_embed(A, xy, A.N.group.table[t][u]))
        assert A.mult == Matrix.from_columns(cols), e.label
        assert "mult" in vars(A), e.label


@pytest.mark.parametrize("p", [3, 5])
def test_phi_is_built_once_and_kept(monkeypatch, L3, p):
    """Phi' is built once, over L^K[N] and the basis B' there, and kept: it is
    lform_matrix of exactly those, (I (x) F) B' is the descended basis, and
    B' spans the fixed space of L^K[N]."""
    # p = 3 over cubic:2, p = 5 over the split model; every structure of each
    L = L3 if p == 3 else split_model(dihedral(p))
    calls = []

    def counted(A, B):
        calls.append((A, B))
        return lform_matrix(A, B)

    for e in catalog(p):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(descent, "lform_matrix", counted)
            H = descend(group_algebra(L, e.subgroup), label=e.label)
            assert base_change_is_group_algebra(H)
        assert [B.cols for _, B in calls] == [2 * p], e.label
        prov = H.provenance
        (AK, Bk), = calls
        assert prov.phi == lform_matrix(AK, Bk), e.label
        assert AK is not prov.parent, e.label
        assert AK.N is prov.parent.N and AK.dim == 2 * p * AK.L.dim, e.label
        K = descent.action_kernel(SemilinearAction(prov.parent))
        F = L.fixed_space(K) if len(K) > 1 else Matrix.identity(L.dim)
        assert Matrix.identity(2 * p).kron(F) * Bk == prov.basis, e.label
        act = SemilinearAction(AK)
        fixed = descent.fixed_basis([act.matrix(g) for g in L.group.generators], AK.dim)
        assert kernel_form(Bk) == fixed, e.label


def _full_ambient_descent(A):
    """The fixed ring computed in all of L[N], without L^K: its basis B and
    (mult, unit, comul, counit, antipode) in B's coordinates."""
    act = SemilinearAction(A)
    B = fixed_basis([act.matrix(g) for g in A.L.group.generators], A.dim)
    n = A.N.order
    mult = B.solve(mul_kron(A.mult, B, B))
    unit = B.solve(Matrix.from_columns([A.unit])).column(0)
    slot_sums = Matrix(1, n, [ONE] * n).kron(Matrix.identity(A.L.dim)) * B
    counit = Matrix.from_columns([A.L.unit]).solve(slot_sums)
    antipode = B.solve(A.slot_map(A.N.group.inverses) * B)
    comul, _ = _descended_comultiplication(A, B)
    return B, (mult, unit, comul, counit, antipode)


def test_descent_through_the_fixed_algebra_matches_the_full_ambient(
        descended3, split5_rho_lambda, split5_nc):
    """Every structure at p = 3 over cubic:2 and at p = 5 split: the route
    through L^K gives the basis and every structure map of the fixed ring of
    all of L[N], and K and L^K have the expected sizes."""
    presentations = [(3, descended3)] + [(5, split5_rho_lambda), (5, split5_nc)]
    for p, by_label in presentations:
        for label, H in by_label.items():
            A, B = H.provenance.parent, H.provenance.basis
            full_B, maps = _full_ambient_descent(A)
            assert B == full_B, (p, label)
            assert H.mult == B.solve(mul_kron(A.mult, B, B)), (p, label)
            assert (H.mult, H.unit, H.comul, H.counit, H.antipode) == maps, (p, label)
            K = descent.action_kernel(SemilinearAction(A))
            sizes = {"rho": (2 * p, 1), "lambda": (1, 2 * p)}.get(label, (p, 2))
            assert (len(K), A.L.fixed_space(K).cols) == sizes, (p, label)


@pytest.mark.parametrize("p", [3, 5])
def test_descent_over_another_basis_of_L_changes_to_the_fixed_basis(monkeypatch, L3, L5, p):
    """L on another basis: cubic:2 on 1, 1 + e_j (j > 0) and the p = 5 split
    model on d_j + d_last (j < last), d_last.  For N_c the written-back
    X = (I (x) F) B' is not the fixed basis B, and B = X S for an S that is no
    Hopf automorphism (at p = 3 it does not commute with the antipode, at
    p = 5 it moves the unit); the route still gives the full ambient's basis
    and every structure map."""
    base = L3 if p == 3 else L5
    n = base.dim
    row = 0 if p == 3 else n - 1
    T = Matrix.from_entries(n, n, [(i, i, ONE) for i in range(n)]
                            + [(row, j, ONE) for j in range(n) if j != row])
    T_inv = T.inverse()
    L = GaloisAlgebra(T_inv * mul_kron(base.mult, T, T), T_inv.apply(base.unit), base.group,
                      [T_inv * m * T for m in base.action])
    written_back = []
    real = descent.kernel_form
    monkeypatch.setattr(descent, "kernel_form", lambda X: written_back.append(X) or real(X))
    for e in catalog(p):
        written_back.clear()
        H = descend(group_algebra(L, e.subgroup), label=e.label)
        B = H.provenance.basis
        full_B, maps = _full_ambient_descent(H.provenance.parent)
        assert B == full_B and (H.mult, H.unit, H.comul, H.counit, H.antipode) == maps, e.label
        assert (written_back != [B]) is (e.label not in ("rho", "lambda")), e.label


def test_one_conjugation_table_per_descend(monkeypatch, L5):
    """A descend conjugates N by each element of G once, L^K[N] sharing the
    table of L[N], and the classical basis conjugates only by G's generators."""
    calls = []
    real = PermSubgroup.conjugation
    monkeypatch.setattr(PermSubgroup, "conjugation", lambda N, g: calls.append(g) or real(N, g))
    for e in catalog(5):
        calls.clear()
        H = descend(group_algebra(L5, e.subgroup), label=e.label)
        assert len(calls) == L5.group.order, e.label
        if e.label == "rho":
            calls.clear()
            assert explicit_basis_matches(H, "classical")
            assert len(calls) == len(L5.group.generators)


def test_corrupted_comultiplication_fails_axioms(descended3):
    H = descended3["N0"]
    cols = [list(H.comul.column(j)) for j in range(H.dim)]
    cols[2][7] += Q(1, 3)
    broken = HopfPresentation(H.mult, H.unit,
                              Matrix.from_columns(cols, rows=36),
                              H.counit, H.antipode, names=H.names)
    assert not hopf_axiom_report(broken).passed


def test_non_normalized_subgroup_rejected(L3):
    six_cycle = Perm((1, 2, 3, 4, 5, 0))
    N = closure([six_cycle], 6)
    assert N.order == 6
    assert not is_normalized_by(N, left_regular(L3.group))
    with pytest.raises(NormalizationError):
        SemilinearAction(group_algebra(L3, N))


def test_semilinear_action_verifies(L3, catalog3):
    for e in catalog3:
        act = SemilinearAction(group_algebra(L3, e.subgroup))
        assert act.verify().passed


@pytest.mark.parametrize("p,label", [(5, "rho"), (5, "lambda"), (5, "N0"),
                                     (7, "N2"), (7, "lambda")])
def test_split_model_descents(p, label):
    L = split_model(dihedral(p))
    entry = {e.label: e for e in catalog(p)}[label]
    H = descend(group_algebra(L, entry.subgroup), label=label)
    assert H.dim == 2 * p
    assert hopf_axiom_report(H).passed
    assert base_change_is_group_algebra(H)
    if label == "rho":
        assert explicit_basis_matches(H, "classical")
    elif label == "lambda":
        assert explicit_basis_matches(H, "translation")
    else:
        assert explicit_basis_matches(H, "cyclic",
                                      gen=cyclic_generator(p, int(label[1:])))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_split_model_descents_evaluate_onto_the_group_algebra(p):
    """Over the split model, evaluation at the identity point, f -> f(1), is a
    Hopf isomorphism H_N -> Q[N]: its matrix E_N is the rows of B at the
    coordinate d[1] of each slot, and no step of it inverts Phi."""
    G = dihedral(p)
    L = split_model(G)
    d, one = L.dim, L.names.index(f"d[{G.names[G.identity]}]")
    for e in catalog(p):
        N = e.subgroup
        H = descend(group_algebra(L, N), label=e.label)
        E = Matrix.from_rows([H.provenance.basis.row(t * d + one) for t in range(N.order)])
        QN = group_hopf_algebra(N.group)
        assert hopf_map_violation(E, H, QN) is None, e.label


def test_descend_labels_provenance(descended3):
    for label in LABELS3:
        prov = descended3[label].provenance
        assert prov.label == label
        assert prov.basis.cols == 6


# -- the L[N] slot layout against an entry-wise oracle -----------------------

ISO_PARTNER = {"rho": "lambda", "lambda": "rho", "N0": "N1"}


def _layout_models(L3):
    return ((L3, 3), (split_model(dihedral(5)), 5))


def _slot_map_cases(L3):
    """(A, images, M): the conjugation maps with the Galois matrices of L,
    slot inversion, and a subgroup isomorphism with a multiplication operator."""
    for L, p in _layout_models(L3):
        entries = {e.label: e for e in catalog(p)}
        for label, partner in ISO_PARTNER.items():
            A = group_algebra(L, entries[label].subgroup)
            act = SemilinearAction(A)
            for g in range(L.group.order):
                yield A, act.conj_map[g], L.action[g]
            yield A, A.N.group.inverses, None
            iso = group_isomorphisms(A.N, entries[partner].subgroup)[-1]
            yield A, iso.mapping, L.mult_operator(L.basis_vector(1))


def test_slot_map_sends_each_slot_through_M(L3):
    for A, images, M in _slot_map_cases(L3):
        S = A.slot_map(images, M)
        oracle = Matrix.identity(A.L.dim) if M is None else M
        for t in range(A.N.order):
            for a in range(A.L.dim):
                x = A.L.basis_vector(a)
                assert S.apply(_embed(A, x, t)) == _embed(A, oracle.apply(x), images[t])


def test_semilinear_matrix_matches_entrywise_formula(L3):
    for L, p in _layout_models(L3):
        d = L.dim
        for e in catalog(p):
            A = group_algebra(L, e.subgroup)
            act = SemilinearAction(A)
            for g in range(L.group.order):
                expected = Matrix.from_entries(A.dim, A.dim, (
                    (tp * d + b, t * d + a, c)
                    for t, tp in enumerate(act.conj_map[g])
                    for b in range(d) for a, c in L.action[g].row_entries(b)))
                assert act.matrix(g) == expected


# -- L[N] products against the slot-by-slot loop -------------------------------

def _slot_loop_mul(A, x, y):
    """(x_t eta_t)(y_u eta_u) = (x_t y_u) eta_(tu), summed over nonzero slots."""
    d = A.L.dim

    def chunks(v):
        return [(t, v[t * d:(t + 1) * d]) for t in range(A.N.order) if any(v[t * d:(t + 1) * d])]

    out = [ZERO] * A.dim
    for t, xc in chunks(x):
        for u, yc in chunks(y):
            base = A.N.group.table[t][u] * d
            for a, c in enumerate(A.L.mul(xc, yc)):
                out[base + a] += c
    return out


def _random_sparse(rng, n):
    v = [ZERO] * n
    for i in rng.sample(range(n), rng.randint(1, 8)):
        v[i] = Q(rng.randint(-9, 9), rng.randint(1, 4))
    return v


def test_mult_operator_matches_the_slot_loop(L3):
    rng = random.Random(6)
    for L, p in _layout_models(L3):
        for e in catalog(p):
            A = group_algebra(L, e.subgroup)
            for _ in range(4):
                x, y = _random_sparse(rng, A.dim), _random_sparse(rng, A.dim)
                expected = _slot_loop_mul(A, x, y)
                assert A.mult_operator(x).apply(y) == expected
                assert A.mul(x, y) == expected


@pytest.mark.parametrize("model", ["p3-cubic2", "p5-split-lambda"])
def test_group_algebra_passes_the_algebra_axioms(L3, model):
    if model == "p3-cubic2":
        L, entries = L3, catalog(3)
    else:
        L, entries = split_model(dihedral(5)), [e for e in catalog(5) if e.label == "lambda"]
    for e in entries:
        A = group_algebra(L, e.subgroup)
        report = algebra_axiom_report(A)
        assert report.passed, (e.label, report.failures())


def _disjoint_sum(rows, cols, mats):
    """The sum of matrices with pairwise disjoint supports, refusing an overlap."""
    entries = {}
    for m in mats:
        for i in range(rows):
            for j, x in m.row_entries(i):
                assert (i, j) not in entries, "supports overlap"
                entries[i, j] = x
    return Matrix.from_entries(rows, cols, ((i, j, x) for (i, j), x in entries.items()))


def _slot_map_sum(A, x):
    """mult_operator(x) as the disjoint sum over the nonzero slots t of x of
    slot_map(row t of N's table, L.mult_operator(x_t))."""
    coeffs = Matrix(A.N.order, A.L.dim, x)  # row t is the L-coefficient of eta_t
    return _disjoint_sum(A.dim, A.dim, [
        A.slot_map(A.N.group.table[t], A.L.mult_operator(coeffs.row(t)))
        for t in range(A.N.order) if coeffs.row_entries(t)])


@pytest.mark.parametrize("model", ["p7-split-lambda", "p3-cubic2"])
def test_mult_operator_is_the_disjoint_sum_of_slot_maps(L3, model):
    rng = random.Random(model)
    if model == "p3-cubic2":
        L, entries = L3, catalog(3)
    else:
        L, entries = split_model(dihedral(7)), [e for e in catalog(7) if e.label == "lambda"]
    for e in entries:
        A = group_algebra(L, e.subgroup)
        for _ in range(2):
            x = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(A.dim)]
            op = A.mult_operator(x)
            assert op == _slot_map_sum(A, x)
            assert all(type(c) is Q for i in range(op.rows) for _, c in op.row_entries(i))
            assert A.mul(x, x) == op.apply(x)
        sparse = _random_sparse(rng, A.dim)
        assert A.mult_operator(sparse) == _slot_map_sum(A, sparse)
    zero = [ZERO] * A.dim
    assert A.mult_operator(zero) == Matrix.zeros(A.dim, A.dim)
    assert A.mul(zero, sparse) == zero


def test_hopf_action_is_built_once_per_presentation(monkeypatch, L3, catalog3):
    calls = []

    def counted(A, B):
        calls.append(B.cols)
        return built(A, B)

    built = descent._action_matrices
    monkeypatch.setattr(descent, "_action_matrices", counted)
    H = descend(group_algebra(L3, catalog3[2].subgroup), label="N0")
    assert calls == []
    assert measuring_report(H).passed
    assert verify_hopf_galois(H).passed
    # a presentation sharing the provenance shares its action
    twin = HopfPresentation(H.mult, H.unit, H.comul, H.counit, H.antipode,
                            names=H.names, provenance=H.provenance)
    assert measuring_report(twin).passed
    assert hopf_action(twin) is hopf_action(H)
    assert calls == [6]
    assert hopf_action(H) == built(H.provenance.parent, H.provenance.basis)


def _entrywise_algebra_map_failure(G, matrix, mul, dim):
    """The first (g, i, j) with g(e_i e_j) != g(e_i) g(e_j), as action_report words it."""
    basis = Matrix.identity(dim).columns()
    prods = [[mul(x, y) for y in basis] for x in basis]
    for g in range(G.order):
        m = matrix(g)
        images = m.columns()
        for i in range(dim):
            for j in range(dim):
                if m.apply(prods[i][j]) != mul(images[i], images[j]):
                    return f"fails for {G.names[g]} at basis ({i},{j})"
    return ""


def test_semilinear_verify_names_the_entrywise_counterexample(L3, catalog3):
    rng = random.Random(3)
    G = L3.group
    for e in (catalog3[1], catalog3[2]):
        A = group_algebra(L3, e.subgroup)
        act = SemilinearAction(A)
        exact = act.matrix
        for _ in range(2):
            g, i, j = rng.randrange(G.order), rng.randrange(A.dim), rng.randrange(A.dim)
            bumped = exact(g) + Matrix.from_entries(A.dim, A.dim, [(i, j, Q(1, 2))])
            act.matrix = lambda h, g=g, bumped=bumped: bumped if h == g else exact(h)
            detail = {c.name: c.detail for c in act.verify()}["action-by-algebra-maps"]
            assert detail
            assert detail == _entrywise_algebra_map_failure(
                G, act.matrix, lambda x, y: _slot_loop_mul(A, x, y), A.dim)


def test_irrational_comultiplication_coefficients_are_refused(descended3):
    """Scaling the fixed basis by the cube root a keeps Phi invertible, but
    Delta(a h_k) has coefficients in a^-1 Q, which the descent must refuse."""
    H = descended3["N0"]
    A = H.provenance.parent
    scaled = A.slot_map(range(A.N.order), A.L.mult_operator(A.L.basis_vector(1))) * H.provenance.basis
    assert base_change_is_group_algebra(H)
    with pytest.raises(DescentError, match="comultiplication: expected a rational multiple"):
        _descended_comultiplication(A, scaled)


# -- closed-form bases against their coordinate-list constructions -------------

def _pair_reference(A, w, t, u):
    """1*(eta_t + eta_u) and w*(eta_t - eta_u) as coordinate lists."""
    unit = A.L.unit
    return ([a + b for a, b in zip(_embed(A, unit, t), _embed(A, unit, u))],
            [a - b for a, b in zip(_embed(A, w, t), _embed(A, w, u))])


def _reference_basis(A, kind, gen, w):
    """The closed-form basis of `kind`, built column by column in L[N] coordinates."""
    L = A.L
    if kind == "classical":
        return Matrix.from_columns([_embed(A, L.unit, t) for t in range(A.N.order)], rows=A.dim)
    if kind == "cyclic":
        n = A.N.order
        p = n // 2
        slot = [A.N.index_of(g) for g in powers(Perm.__mul__, gen, Perm.identity(n))]
        cols = [_embed(A, L.unit, slot[0]), _embed(A, L.unit, slot[p])]
        for i in range(1, p):
            cols.extend(_pair_reference(A, w, slot[i], slot[n - i]))
        return Matrix.from_columns(cols, rows=A.dim)
    G = L.group
    lam = left_regular(G)
    r_idx, s_idx = G.generators
    p = G.element_order(r_idx)
    slot = [A.N.index_of(lam.elements[g]) for g in range(G.order)]

    def rpow(i):
        g = G.identity
        for _ in range(i % p):
            g = G.mul(g, r_idx)
        return g

    cols = [_embed(A, L.unit, slot[G.identity])]
    for i in range(1, (p - 1) // 2 + 1):
        cols.extend(_pair_reference(A, w, slot[rpow(i)], slot[rpow(p - i)]))
    ybasis = L.fixed_space([s_idx])
    step = (p + 1) // 2
    d = L.dim
    reflections = Matrix.from_entries(A.dim, ybasis.cols, (
        (slot[G.mul(rpow(i), s_idx)] * d + a, m, c)
        for m, y in enumerate(ybasis.columns()) for i in range(p)
        for a, c in enumerate(L.action[rpow(step * i)].apply(y)) if c))
    return hstack(Matrix.from_columns(cols, rows=A.dim), reflections)


def _closed_form_cases(L3):
    """(A, kind, gen) for every structure at p = 3 over cubic:2 and p = 5, 7 split."""
    for L, p in ((L3, 3), (split_model(dihedral(5)), 5), (split_model(dihedral(7)), 7)):
        for e in catalog(p):
            A = group_algebra(L, e.subgroup)
            if e.label in ("rho", "lambda"):
                yield A, "classical" if e.label == "rho" else "translation", None
            else:
                yield A, "cyclic", cyclic_generator(p, int(e.label[1:]))


def _closed_form(A, kind, gen):
    if kind == "classical":
        return explicit_classical_basis(A)
    if kind == "translation":
        return explicit_translation_basis(A)
    return explicit_cyclic_basis(A, gen)


def test_closed_forms_match_the_coordinate_lists(L3):
    for A, kind, gen in _closed_form_cases(L3):
        w = quadratic_sqrt_witness(A.L)
        ref = _reference_basis(A, kind, gen, w)
        basis = _closed_form(A, kind, gen)
        assert basis.cols == basis.rank() == A.N.order, kind
        assert kernel_form(basis) == kernel_form(ref), kind
        if kind == "classical":
            assert basis == ref
        elif kind == "cyclic":
            # the pair check_iso_to_descended maps x and y to, entry for entry
            t = A.N.index_of(gen)
            pair = _pair_reference(A, w, t, A.N.index_of(gen.inverse()))
            assert inverse_pair_columns(A, [t], [t]) == Matrix.from_columns(pair)


def test_closed_forms_with_the_unit_for_w_do_not_match(L3, monkeypatch):
    # negative control: w * (eta_t - eta_t^-1) is what tells these forms apart
    monkeypatch.setattr(descent, "quadratic_sqrt_witness", lambda L: L.unit)
    for A, kind, gen in _closed_form_cases(L3):
        if kind == "classical":
            continue
        ref = _reference_basis(A, kind, gen, quadratic_sqrt_witness(A.L))
        assert kernel_form(_closed_form(A, kind, gen)) != kernel_form(ref), kind
        assert kernel_form(_reference_basis(A, kind, gen, A.L.unit)) != kernel_form(ref), kind


def test_nilpotent_witness_matches_the_dense_sum(L3):
    lam = left_regular(L3.group)
    A = group_algebra(L3, lam)
    azz = [ZERO] * 6
    azz[1] = azz[4] = -ONE                          # a z^2 = -a - az
    vec = [ZERO] * A.dim
    for coeff, g in ((L3.basis_vector(1), 3), (azz, 4), (L3.basis_vector(4), 5)):
        emb = _embed(A, coeff, A.N.index_of(lam.elements[g]))
        vec = [x + y for x, y in zip(vec, emb)]
    witness = nilpotent_witness(L3)
    assert type(witness) is list and witness == vec
