import random

import pytest

from hopfgalois import descent
from hopfgalois.algebra import (Algebra, CheckFailed, HopfPresentation, algebra_axiom_report,
                                group_hopf_algebra, hopf_axiom_report, hopf_map_violation)
from hopfgalois.catalog import catalog, cyclic_generator
from hopfgalois.analysis import nilpotent_witness
from hopfgalois.descent import (DescentError, GroupAlgebraOverL, NormalizationError,
                                SemilinearAction, _comultiplication, _slot_coefficients,
                                _slots_permuted, _unslot, base_change_is_group_algebra,
                                descend, descend_and_verify, explicit_basis_matches,
                                explicit_classical_basis, explicit_cyclic_basis,
                                explicit_translation_basis, group_algebra,
                                hopf_action, hopf_galois_matrix, inverse_pair_columns,
                                lform_matrix, measuring_report, verify_hopf_galois)
from hopfgalois.extensions import (GaloisAlgebra, quadratic_sqrt_witness, split_model,
                                   splitting_field_cubic)
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


def test_j_is_ranked_without_elimination_over_the_split_model(monkeypatch, descended3,
                                                                split5_nc, split5_rho_lambda):
    """j is monomial over the split model, so its rank is its column count
    read off the owned rows; over cubic:2 it is row-reduced once."""
    seen, real = [], Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda m: seen.append((m.rows, m.cols)) or real(m))
    for H in [*split5_nc.values(), *split5_rho_lambda.values()]:
        hopf_action(H)
        seen.clear()
        assert verify_hopf_galois(H).passed and seen == []
    for label in LABELS3:
        hopf_action(descended3[label])
        seen.clear()
        assert verify_hopf_galois(descended3[label]).passed and seen == [(36, 36)], label


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


def test_explicit_basis_match_needs_the_whole_span(descended3, monkeypatch):
    H = descended3["rho"]
    basis = H.provenance.basis
    part = Matrix.from_columns(basis.columns()[1:], rows=basis.rows)
    outside = next(e for e in Matrix.identity(basis.rows).columns()
                   if hstack(basis, Matrix.from_columns([e])).rank() > basis.cols)
    for ref, matches in ((basis, True), (hstack(part, part), False),  # in the span, rank n - 1
                         (hstack(basis, Matrix.from_columns([outside])), False)):
        monkeypatch.setattr(descent, "explicit_classical_basis", lambda A, ref=ref: ref)
        assert explicit_basis_matches(H, "classical") is matches


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
    """j with column a*n + k the product L.mult_operator(e_a) * M_k, flattened
    column-major: entry (p, q) at row q*d + p."""
    d, n = L.dim, len(action_matrices)
    entries = []
    for a in range(d):
        mult_op = L.mult_operator(L.basis_vector(a))
        for k, m in enumerate(action_matrices):
            composed = mult_op * m
            entries.extend((q * d + p, a * n + k, c)
                           for p in range(d) for q, c in composed.row_entries(p))
    return Matrix.from_entries(d * d, d * n, entries)


def _differential_presentations(descended3):
    """Every p = 3 cubic:2 presentation, then p = 5 split lambda and N2."""
    yield from descended3.items()
    L5 = split_model(dihedral(5))
    for e in catalog(5):
        if e.label in ("lambda", "N2"):
            yield f"p5-{e.label}", descend(group_algebra(L5, e.subgroup), label=e.label)


def test_unslot_inverts_the_slot_coefficients(batteries):
    """_unslot puts slot coefficients back in their slots: on every descended
    basis B it undoes _slot_coefficients, and with N's inverses as the
    relabel it is _slots_permuted, eta_t -> eta_t^-1."""
    for model, runs in batteries.items():
        for label, battery in runs.items():
            A, B = battery.H.provenance.parent, battery.H.provenance.basis
            coeffs, inverses = _slot_coefficients(B, A.L.dim), A.N.group.inverses
            assert _unslot(coeffs, range(A.N.order)) == B, (model, label)
            assert _unslot(coeffs, inverses) == _slots_permuted(A, B, inverses), (model, label)


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


def _first_kernel_form_patched(monkeypatch, change):
    """Patch descent.kernel_form so that its first call in each descend,
    the one that takes B from the trace basis X, returns change(X, B)
    instead of B; `calls` lists each changed (X, B, result)."""
    real, calls = descent.kernel_form, []

    def patched(m):
        B = real(m)
        if calls and calls[-1] is None:
            out = change(m, B)
            calls[-1] = (m, B, out)
            return out
        return B

    monkeypatch.setattr(descent, "kernel_form", patched)
    return calls


def _trace_cases(L3):
    """(label, L[N]) for p = 5 split lambda with e = d[1] + d[s] and p = 3
    cubic:2 N0."""
    L5 = split_model(dihedral(5))
    pair = _with_idempotent(L5, _reflection_pair(L5))
    lam5 = next(e for e in catalog(5) if e.label == "lambda")
    n0 = next(e for e in catalog(3) if e.label == "N0")
    return [("p5-lambda", group_algebra(pair, lam5.subgroup)),
            ("p3-N0", group_algebra(L3, n0.subgroup))]


@pytest.mark.parametrize("owned", [True, False])
def test_a_basis_not_closed_under_products_is_refused(monkeypatch, L3, owned):
    """B with e_i, outside its span, added to column 0, so its span is not
    the fixed ring and not closed under products.  With `owned` every
    column keeps an owned row; otherwise column 1 first loses its owned rows
    (column 0 += column 1, which keeps the span).  Either way G no longer
    fixes the basis, and descend refuses it at its invariance check, before
    any product is read."""
    def moved(X, B):
        if not owned:
            B += Matrix.from_columns([B.column(1)] + [[ZERO] * B.rows] * (B.cols - 1))
        for i in range(B.rows):
            e_i = Matrix.from_entries(B.rows, B.cols, [(i, 0, ONE)])
            if hstack(B, e_i).rank() > B.cols and _owns_a_row_per_column(B + e_i) is owned:
                return B + e_i
        pytest.fail("no row to move column 0 at")

    calls = _first_kernel_form_patched(monkeypatch, moved)
    for label, A in _trace_cases(L3):
        calls.append(None)
        with pytest.raises(DescentError, match="^the trace basis is not fixed by G$"):
            descend(A, label=label)
        (_, _, B), = calls[-1:]
        assert B.cols == A.N.order and B.rank() == B.cols, label


def test_a_corrupted_trace_basis_is_refused(monkeypatch, L3):
    """One entry of the trace basis X is changed, in a column with more
    than one nonzero: its span keeps n dimensions but is no longer fixed,
    and descend refuses it at its invariance check, at p = 5 split lambda
    with e = d[1] + d[s] (theta is one point d[g], and each column of X
    sums 2p of its translates) and p = 3 cubic:2 N0."""
    def corrupted(X, B):
        j, column = next((j, c) for j in range(X.cols)
                         for c in [X.column_entries(j)] if len(c) > 1)
        return kernel_form(X + Matrix.from_entries(X.rows, X.cols, [(min(column), j, ONE)]))

    calls = _first_kernel_form_patched(monkeypatch, corrupted)
    for label, A in _trace_cases(L3):
        calls.append(None)
        with pytest.raises(DescentError, match="^the trace basis is not fixed by G$"):
            descend(A, label=label)
        (X, B, changed), = calls[-1:]
        assert X.cols == changed.cols == A.N.order and changed != B, label


def test_descend_eliminates_only_where_no_row_is_owned(monkeypatch, L3, L5):
    """Over the split model G permutes the coordinates of L, theta = d[1],
    and every row of the trace basis X holds one nonzero, so B is X with its
    columns sorted, read with no elimination: p = 5 split lambda and N0
    row-reduce nothing.  R = Q d[1] for every structure; its frame J, the
    structure constants, the unit, the antipode and the slot-by-slot
    products against E_B, the counit, the Gram matrix P and P^-1 are read
    off owned rows and checked by one product each: the translates have
    disjoint supports, so P is diagonal.  At p = 3 over cubic:2, where G
    does not act monomially, N0 row-reduces three times: B from X (36 x 6,
    reduced as its 6 x 36 transpose), J from the 3 distinct nonzero
    coefficient columns of B, and the inverse of the 6 x 6 Gram matrix
    (6 x 12), which has a column that owns no row.  Phi' is kept for the
    base-change check alone, and there too it has such a column."""
    shapes, forms = [], []
    real, real_form = Matrix.rref, descent.kernel_form

    def counted(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(Matrix, "rref", counted)
    monkeypatch.setattr(descent, "kernel_form", lambda X: forms.append(X) or real_form(X))
    n0 = next(e for e in catalog(5) if e.label == "N0")
    cases = _one_split_and_one_cubic(L3) + [("p5-N0", group_algebra(L5, n0.subgroup))]
    expected = {"p5-lambda": [], "p3-N0": [(6, 36), (3, 6), (6, 12)], "p5-N0": []}
    for label, A in cases:
        A.L.normal_translates  # the per-model search ranks its candidates once, first
        shapes.clear()
        forms.clear()
        H = descend(A, label=label)
        assert shapes == expected[label], label
        assert _owns_a_row_per_column(H.provenance.phi) is (label != "p3-N0"), label
        (X, J), B = forms, H.provenance.basis
        assert (sorted(X.columns()) == sorted(B.columns())) is (label != "p3-N0"), label
        assert X != B and J.cols == (3 if label == "p3-N0" else 1), label


def test_no_split_model_descend_row_reduces(split_descents):
    """At p = 3, 5 and 7 every split-model descend takes its trace basis into
    kernel_form and its solves off owned rows, so it row-reduces nothing."""
    shapes = split_descents[1]
    assert len(shapes) == 5 + 7 + 9
    assert {key: seen for key, seen in shapes.items() if seen} == {}


def test_no_split_model_descend_builds_an_operator_on_the_full_group_algebra(split_descents):
    """At p = 3, 5 and 7 no split-model descend builds a Kronecker product of
    the size of L[N], 4p^2 x 4p^2: the fixed ring is read in Q[N], and the
    write-back and the invariance check run through the basis's nonzeros.
    Some Kronecker product is built, so the fixture does see them."""
    krons = split_descents[2]
    assert len(krons) == 5 + 7 + 9 and all(krons.values())
    full = [(p, label) for (p, label), shapes in krons.items() if (4 * p * p, 4 * p * p) in shapes]
    assert full == []


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
        H, report = descend_and_verify(L, e)
        assert report.passed, (e.label, report.failures())
        A = H.provenance.parent
        assert "mult" not in vars(A) and "pointwise" not in vars(A), e.label


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
    """Phi' is built once, over the frame R[N] and E_B there, and kept: it
    is lform_matrix of exactly those, square of side 2p dim R.  Over
    cubic:2, e = 1 and (I (x) J) E_B is the descended basis; over the split
    model, E_B is the rows of that basis at d[1] of each slot."""
    # p = 3 over cubic:2, p = 5 over the split model; every structure of each
    L = L3 if p == 3 else split_model(dihedral(p))
    one = L.idempotent.index(ONE)
    calls, frames = [], _recorded_frames(monkeypatch)

    def counted(A, B):
        calls.append((A, B))
        return lform_matrix(A, B)

    for e in catalog(p):
        calls.clear()
        frames.clear()
        with monkeypatch.context() as patch:
            patch.setattr(descent, "lform_matrix", counted)
            H = descend(group_algebra(L, e.subgroup), label=e.label)
            assert base_change_is_group_algebra(H)
        assert [B.cols for _, B in calls] == [2 * p], e.label
        prov = H.provenance
        (RA, EB), = calls
        assert prov.phi == lform_matrix(RA, EB), e.label
        assert prov.phi.rows == prov.phi.cols == RA.dim == 2 * p * RA.L.dim, e.label
        assert RA is not prov.parent and RA.N is prov.parent.N, e.label
        B, d = prov.basis, L.dim
        if p == 3:
            (_, J), = frames
            assert Matrix.identity(2 * p).kron(J) * EB == B, e.label
        else:
            assert EB == Matrix.from_rows([B.row(t * d + one) for t in range(2 * p)]), e.label


# -- the frame R[N], R = e times the coefficients of H -------------------------

def _with_idempotent(L, e):
    return GaloisAlgebra(L.mult, L.unit, L.group, L.generator_action, names=L.names,
                         idempotent=e)


def _reflection_pair(L):
    """e = d[1] + d[s], an idempotent with D = <s> and dim eL = 2."""
    G = L.group
    return [ONE if g in (G.identity, G.generators[1]) else ZERO for g in range(G.order)]


def test_each_split_descent_builds_one_table_of_dimension_2p(monkeypatch, L5):
    """At p = 5 split, each descend reads the product of R[N] once and the
    slot-by-slot product of Map(N, R) once, both of dimension 2p as R =
    Q d[1]: never a table of the 4p^2-dimensional L[N]."""
    reads = []
    for name in ("mult", "pointwise"):
        real = getattr(GroupAlgebraOverL, name).func
        monkeypatch.setattr(GroupAlgebraOverL, name, property(
            lambda A, name=name, real=real: reads.append((name, A.dim)) or real(A)))
    for e in catalog(5):
        reads.clear()
        H = descend(group_algebra(L5, e.subgroup), label=e.label)
        assert reads == [("mult", 10), ("pointwise", 10)], e.label
        assert base_change_is_group_algebra(H) and len(reads) == 2, e.label


def _recorded_frames(monkeypatch):
    """The list to which each descend's _frame appends its (R, J)."""
    frames, real = [], descent._frame
    monkeypatch.setattr(descent, "_frame", lambda L, c: frames.append(real(L, c)) or frames[-1])
    return frames


@pytest.mark.parametrize("p", [3, 5, 7])
def test_descent_through_the_residue_matches_E_equal_I(monkeypatch, split_descents, p):
    """The split model with its idempotent d[1], with the unit (theta the
    last point, and R for lambda all of L) and with d[1] + d[s] (R for
    lambda 2-dimensional) descends to the same presentation, entry for
    entry, for every structure.  Each descend builds one frame R, of the
    expected dimension, and Phi' is square of side 2p dim R."""
    L = split_model(dihedral(p))
    frames = _recorded_frames(monkeypatch)
    ref = {label: H for (q, label), H in split_descents[0].items() if q == p}
    dims = {"unit": {"rho": 1, "lambda": 2 * p}, "pair": {"rho": 1, "lambda": 2}}
    for kind, e in (("unit", list(L.unit)), ("pair", _reflection_pair(L))):
        other = _with_idempotent(L, e)
        for entry in catalog(p):
            frames.clear()
            H = descend(group_algebra(other, entry.subgroup), label=entry.label)
            R = ref[entry.label]
            assert (H.mult, H.unit, H.comul, H.counit, H.antipode) == \
                (R.mult, R.unit, R.comul, R.counit, R.antipode), entry.label
            assert H.provenance.basis == R.provenance.basis, entry.label
            (frame, _), = frames
            assert frame.dim == dims[kind].get(entry.label, 2), (kind, entry.label)
            phi = H.provenance.phi
            assert base_change_is_group_algebra(H), (kind, entry.label)
            assert phi.rows == phi.cols == 2 * p * frame.dim, (kind, entry.label)


def test_the_unit_residue_is_L_K_itself(monkeypatch, L3):
    """For every cubic:2 structure e = 1, and the coefficients of H span
    L^K, for K the kernel of G's conjugation action on N: J is
    L.fixed_space(K), Q for rho, Q<1, w> for the N_c and L for lambda, and
    R is a plain Algebra with the product and unit of L restricted to it."""
    frames = _recorded_frames(monkeypatch)
    sizes = {"rho": 1, "lambda": 6}
    for entry in catalog(3):
        frames.clear()
        A = group_algebra(L3, entry.subgroup)
        descend(A, label=entry.label)
        (R, J), = frames
        fixed = tuple(range(A.N.order))
        K = [g for g, row in enumerate(SemilinearAction(A).conj_map) if row == fixed]
        assert J == L3.fixed_space(K) and J.cols == sizes.get(entry.label, 2), entry.label
        assert type(R) is Algebra, entry.label
        assert J * R.mult == mul_kron(L3.mult, J, J), entry.label
        assert (J * Matrix.from_columns([R.unit])).column(0) == L3.unit, entry.label


def test_a_non_idempotent_e_is_refused():
    L = split_model(dihedral(3))
    twice = _with_idempotent(L, [2 * x for x in L.idempotent])
    for e in catalog(3):
        with pytest.raises(DescentError, match="not a nonzero idempotent"):
            descend(group_algebra(twice, e.subgroup), label=e.label)


def test_an_idempotent_whose_translates_overlap_is_refused_by_every_structure():
    """e = d[1] + d[r] at p = 3: its six translates cover every point twice,
    so they sum to 2 and not 1.  Every structure refuses it with the same
    error."""
    L = split_model(dihedral(3))
    G = L.group
    overlap = _with_idempotent(L, [ONE if g in (G.identity, G.generators[0]) else ZERO
                                   for g in range(G.order)])
    assert "idempotent-translates-sum-to-unit" in dict(overlap.verify().failures())
    messages = set()
    for e in catalog(3):
        with pytest.raises(DescentError, match="distinct G-translates sum to 1$") as err:
            descend(group_algebra(overlap, e.subgroup), label=e.label)
        messages.add(str(err.value))
    assert len(messages) == 1


def test_a_group_acting_trivially_is_refused_for_want_of_a_normal_element():
    """The split model's algebra with G acting trivially and e = 1 passes
    the e check, but every translate of every candidate e c is e c itself,
    of rank 1: the model has no normal element, and descend says so."""
    L = split_model(dihedral(3))
    trivial = GaloisAlgebra(L.mult, L.unit, L.group,
                            {g: Matrix.identity(L.dim) for g in L.group.generators})
    for e in catalog(3):
        with pytest.raises(CheckFailed, match="^L has no normal element e c, for c = e or a "
                                              "suffix sum of its basis$"):
            descend(group_algebra(trivial, e.subgroup), label=e.label)


def test_a_theta_that_is_not_normal_leaves_too_few_traces():
    """theta = 1 over cubic:2, whose translates are all 1: X_t is 6 times
    the sum of eta over the conjugation orbit of t, one independent column
    per orbit, so descend refuses lambda (3 orbits) and every N_c (4) by
    the dimension of the fixed ring."""
    L = splitting_field_cubic(2)
    L.__dict__["normal_translates"] = Matrix.from_rows([L.unit] * L.group.order)
    for e in catalog(3)[1:]:
        dim = 3 if e.label == "lambda" else 4
        with pytest.raises(DescentError, match=f"^fixed ring has dimension {dim}, expected 6$"):
            descend(group_algebra(L, e.subgroup), label=e.label)


def _with_a_lost_factor(R, J):
    """The frame R x Q on (J | 0): E sends H into R x 0, so E_B is the true
    E_B with a zero row per slot."""
    d = R.dim
    m = d + 1
    mult = Matrix.from_entries(m, m * m, [(c, a * m + b, x) for c in range(d)
                                          for ab, x in R.mult.row_entries(c)
                                          for a, b in [divmod(ab, d)]] + [(d, d * m + d, ONE)])
    return Algebra(mult, list(R.unit) + [ONE]), hstack(J, Matrix.zeros(J.rows, 1))


@pytest.mark.parametrize("pair", [False, True], ids=["square", "tall"])
def test_an_E_that_loses_the_fixed_ring_is_refused(monkeypatch, pair):
    """The frame R replaced by R x Q on the columns of J and a zero column,
    whether R is Q (e = d[1]) or 2-dimensional (e = d[1] + d[s]): B and its
    invariance are unchanged, E_B lies in R[N] x 0, where the products of
    fixed vectors stay, and descend refuses E_B at the unit (1, 1), which
    no such column reaches."""
    L = split_model(dihedral(3))
    if pair:
        L = _with_idempotent(L, _reflection_pair(L))
    real = descent._frame
    monkeypatch.setattr(descent, "_frame", lambda L, c: _with_a_lost_factor(*real(L, c)))
    lam = next(e for e in catalog(3) if e.label == "lambda")
    with pytest.raises(DescentError, match=r"^the unit of L\[N\] is not in the fixed ring$"):
        descend(group_algebra(L, lam.subgroup), label="lambda")


def _comultiplication_by_base_change(A, B):
    """The comultiplication of the fixed ring with basis B of A = L[N],
    through Phi^-1 for the base change Phi: L (x) H -> L[N].  Phi^-1 writes
    the term x_t eta_t of h_k as sum_i y_i h_i over L, so Delta(h_k) =
    sum_i h_i (x) w_i with w_i = sum_t y_i eta_t; Phi^-1 writes each w_i as
    sum_j c_ij h_j, and every c_ij must be a rational multiple of the unit."""
    d, n = A.L.dim, B.cols
    phi_inv = lform_matrix(A, B).inverse()
    # column k*n + t of `pieces` is the term x_t eta_t of h_k
    pieces = Matrix.from_entries(A.dim, n * n, ((r, k * n + r // d, c) for k in range(n)
                                               for r, c in B.column_entries(k).items()))
    y = phi_inv * pieces  # row a*n + i, column k*n + t: coefficient a of y_i
    w = Matrix.from_entries(A.dim, n * n, (
        (t * d + a, k * n + i, c) for r in range(y.rows) for a, i in [divmod(r, n)]
        for kt, c in y.row_entries(r) for k, t in [divmod(kt, n)]))
    coeffs = Matrix.from_columns([A.L.unit]).kron(Matrix.identity(n)).solve(phi_inv * w)
    if coeffs is None:
        pytest.fail("comultiplication coefficients are not rational")
    return Matrix.from_entries(n * n, n, ((i * n + j, k, c) for j in range(n)
                                          for ki, c in coeffs.row_entries(j)
                                          for k, i in [divmod(ki, n)]))


def _full_ambient_descent(A):
    """The fixed ring computed in all of L[N], without a trace: its basis B and
    (mult, unit, comul, counit, antipode) in B's coordinates, the
    comultiplication through the base change."""
    act = SemilinearAction(A)
    B = fixed_basis([act.matrix(g) for g in A.L.group.generators], A.dim)
    n = A.N.order
    mult = B.solve(mul_kron(A.mult, B, B))
    unit = B.solve(Matrix.from_columns([A.unit])).column(0)
    slot_sums = Matrix(1, n, [ONE] * n).kron(Matrix.identity(A.L.dim)) * B
    counit = Matrix.from_columns([A.L.unit]).solve(slot_sums)
    antipode = B.solve(A.slot_map(A.N.group.inverses, Matrix.identity(A.L.dim)) * B)
    return B, (mult, unit, _comultiplication_by_base_change(A, B), counit, antipode)


def test_descent_through_the_fixed_algebra_matches_the_full_ambient(
        descended3, split5_rho_lambda, split5_nc):
    """Every structure at p = 3 over cubic:2, at p = 5 split and at p = 3
    split with the idempotent d[1] + d[s] (a 2-dimensional frame R): the
    trace route gives the basis and every structure map of the fixed ring
    of all of L[N], its comultiplication read through Phi^-1."""
    pair3 = _with_idempotent(split_model(dihedral(3)), _reflection_pair(split_model(dihedral(3))))
    paired = {e.label: descend(group_algebra(pair3, e.subgroup), label=e.label) for e in catalog(3)}
    presentations = [(3, descended3), (5, split5_rho_lambda), (5, split5_nc), (3, paired)]
    for p, by_label in presentations:
        for label, H in by_label.items():
            A, B = H.provenance.parent, H.provenance.basis
            full_B, maps = _full_ambient_descent(A)
            assert B == full_B, (p, label)
            assert H.mult == B.solve(mul_kron(A.mult, B, B)), (p, label)
            assert (H.mult, H.unit, H.comul, H.counit, H.antipode) == maps, (p, label)


def _rebased(base, row):
    """base on the basis e_j + e_row (j != row), e_row."""
    n = base.dim
    T = Matrix.from_entries(n, n, [(i, i, ONE) for i in range(n)]
                            + [(row, j, ONE) for j in range(n) if j != row])
    T_inv = T.inverse()
    return GaloisAlgebra(T_inv * mul_kron(base.mult, T, T), T_inv.apply(base.unit), base.group,
                         {g: T_inv * m * T for g, m in base.generator_action.items()})


@pytest.mark.parametrize("p", [3, 5])
def test_descent_over_another_basis_of_L_changes_to_the_fixed_basis(L3, L5, p):
    """L on another basis: cubic:2 on 1, 1 + e_j (j > 0) and the p = 5 split
    model on d_j + d_last (j < last), d_last.  theta is then another
    element of L, and the route still gives the full ambient's basis and
    every structure map."""
    L = _rebased(L3, 0) if p == 3 else _rebased(L5, L5.dim - 1)
    for e in catalog(p):
        H = descend(group_algebra(L, e.subgroup), label=e.label)
        B = H.provenance.basis
        full_B, maps = _full_ambient_descent(H.provenance.parent)
        assert B == full_B and (H.mult, H.unit, H.comul, H.counit, H.antipode) == maps, e.label


def _answer_cases(L3, L5):
    """(L, p) for cubic:2, the split model at p = 3 and 5, another basis of
    cubic:2 and of the p = 5 split model, and the p = 3 split model with e =
    d[1] + d[s]."""
    L3s = split_model(dihedral(3))
    return [(L3, 3), (L3s, 3), (L5, 5), (_rebased(L3, 0), 3), (_rebased(L5, L5.dim - 1), 5),
            (_with_idempotent(L3s, _reflection_pair(L3s)), 3)]


def test_E_B_is_read_without_a_solve_against_the_trace_basis(monkeypatch, L3, L5):
    """No descend solves against the trace basis X for a change of basis T
    with X T = B: E_B is E B, read off B's own slot coefficients.  Over the
    split model, with e = d[1] or d[1] + d[s], B is X with its columns in
    another order; over cubic:2 and the other bases it is no reordering of
    X for every N_c."""
    solved, forms = [], []
    real_solve, real_form = Matrix.solve, descent.kernel_form
    monkeypatch.setattr(Matrix, "solve", lambda m, rhs: solved.append(m) or real_solve(m, rhs))
    monkeypatch.setattr(descent, "kernel_form", lambda X: forms.append(X) or real_form(X))
    for L, p in _answer_cases(L3, L5):
        for e in catalog(p):
            A = group_algebra(L, e.subgroup)
            solved.clear()
            forms.clear()
            H = descend(A, label=e.label)
            X = forms[0]
            assert solved and not any(m is X for m in solved), (p, e.label)
            assert X.cols == H.provenance.basis.cols == A.N.order, (p, e.label)


def test_E_B_is_e_times_B_in_the_coordinates_of_J(monkeypatch, L3, L5):
    """(I (x) J) E_B = (I (x) L_e) B: E_B is e times the descended basis, in
    the coordinates of the frame's basis J, for every structure over every
    model of _answer_cases."""
    frames, forms = _recorded_frames(monkeypatch), []
    real_form = descent.lform_matrix
    monkeypatch.setattr(descent, "lform_matrix", lambda A, B: forms.append(B) or real_form(A, B))
    for L, p in _answer_cases(L3, L5):
        times_e = Matrix.identity(2 * p).kron(L.mult_operator(L.idempotent))
        for e in catalog(p):
            frames.clear()
            forms.clear()
            H = descend(group_algebra(L, e.subgroup), label=e.label)
            ((_, J),), (EB,) = frames, forms
            assert Matrix.identity(2 * p).kron(J) * EB == times_e * H.provenance.basis, (p, e.label)


def test_one_conjugation_table_per_descend(monkeypatch, L5):
    """A descend conjugates N by each generator of G once, composing the other
    tables, and the classical basis conjugates only by G's generators."""
    calls = []
    real = PermSubgroup.conjugation
    monkeypatch.setattr(PermSubgroup, "conjugation", lambda N, g: calls.append(g) or real(N, g))
    for e in catalog(5):
        calls.clear()
        H = descend(group_algebra(L5, e.subgroup), label=e.label)
        assert len(calls) == len(L5.group.generators), e.label
        if e.basis_kind == "classical":
            calls.clear()
            assert explicit_basis_matches(H, e.basis_kind)
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
    G = L3.group
    assert not is_normalized_by(N, left_regular(G))
    # the first element of G, and the first eta, whose conjugate leaves N
    g, row = next((g, row) for g, lamg in enumerate(left_regular(G).elements)
                  for row in [N.conjugation(lamg)] if None in row)
    with pytest.raises(NormalizationError) as err:
        SemilinearAction(group_algebra(L3, N))
    assert str(err.value) == str(NormalizationError(G.names[g], N.name_of(row.index(None))))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_composed_conjugation_tables_are_the_conjugations(p):
    G = dihedral(p)
    L = split_model(G)
    lam = left_regular(G).elements
    for e in catalog(p):
        act = SemilinearAction(group_algebra(L, e.subgroup))
        assert act.conj_map == tuple(e.subgroup.conjugation(lamg) for lamg in lam), e.label


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
    assert explicit_basis_matches(H, entry.basis_kind, gen=entry.generator)


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
            yield A, A.N.group.inverses, Matrix.identity(L.dim)
            iso = group_isomorphisms(A.N, entries[partner].subgroup)[-1]
            yield A, iso.mapping, L.mult_operator(L.basis_vector(1))


def test_slot_map_sends_each_slot_through_M(L3):
    for A, images, M in _slot_map_cases(L3):
        S = A.slot_map(images, M)
        for t in range(A.N.order):
            for a in range(A.L.dim):
                x = A.L.basis_vector(a)
                assert S.apply(_embed(A, x, t)) == _embed(A, M.apply(x), images[t])


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
    Delta(a h_k) has coefficients in a^-1 Q, and the pairing of a h_i with
    a h_j lies in a^2 Q, which the descent must refuse."""
    H = descended3["N0"]
    A = H.provenance.parent
    scaled = A.slot_map(range(A.N.order), A.L.mult_operator(A.L.basis_vector(1))) * H.provenance.basis
    assert base_change_is_group_algebra(H)
    with pytest.raises(DescentError, match="comultiplication: expected a rational multiple"):
        _comultiplication(A, scaled)


def test_a_degenerate_pairing_is_refused(descended3, split5_nc):
    """The fixed basis with its last column replaced by its first, at p = 3
    over cubic:2 and p = 5 split: the pairing stays rational, but the Gram
    matrix has two equal rows, and the comultiplication is refused before
    any product is solved.  The basis itself still gives the comultiplication
    that descend read."""
    for H in (descended3["N0"], split5_nc["N0"]):
        A, B = H.provenance.parent, H.provenance.basis
        assert _comultiplication(A, B) == H.comul
        repeated = Matrix.from_columns(B.columns()[:-1] + [B.column(0)], rows=A.dim)
        with pytest.raises(DescentError, match="^the pairing .* is degenerate on the fixed ring$"):
            _comultiplication(A, repeated)


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
            yield group_algebra(L, e.subgroup), e.basis_kind, e.generator


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
    monkeypatch.setattr(GaloisAlgebra, "sqrt_witness", property(lambda L: L.unit))
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
