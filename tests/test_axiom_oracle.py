"""Differential oracle for the matrix-identity axiom checks.

The reference functions below state each axiom entry by entry, with nested
loops over basis indices that stop at the first failing index.  The package
states the same axioms as equalities of sparse matrix products and reads the
first counterexample off the first differing column.  On seeded
perturbations of real presentations (one coefficient of the multiplication,
unit, comultiplication, counit or antipode changed) both must give the same
reports, details included.
"""

import random

import pytest

from hopfgalois.algebra import (Algebra, CheckReport, HopfPresentation, algebra_axiom_report,
                                group_hopf_algebra, hopf_axiom_report, hopf_map_violation)
from hopfgalois.catalog import catalog
from hopfgalois.descent import descend, group_algebra, hopf_action, measuring_report
from hopfgalois.extensions import split_model
from hopfgalois.groups import cyclic, dihedral
from hopfgalois.linalg import Matrix, Q, ZERO

PERTURBATIONS = 50  # per presentation; six presentations


# -- reference: the axioms written out entry by entry ---------------------------------

def ref_comul_of(H, x):
    out = {}
    for k, a in enumerate(x):
        if a:
            for key, c in H.comul_terms(k).items():
                out[key] = out.get(key, ZERO) + a * c
    return {k: v for k, v in out.items() if v}


def ref_algebra_axiom_report(A):
    n = A.dim
    e = [A.basis_vector(i) for i in range(n)]
    report = CheckReport()
    detail = next((f"unit fails on basis {i}" for i in range(n)
                   if A.mul(A.unit, e[i]) != e[i] or A.mul(e[i], A.unit) != e[i]), None)
    report.add("unit", detail is None, detail)
    prods = [A.mult.column(ij) for ij in range(n * n)]
    detail = next((f"associativity fails at ({i},{j},{k})"
                   for i in range(n) for j in range(n) for k in range(n)
                   if A.mul(prods[i * n + j], e[k]) != A.mul(e[i], prods[j * n + k])), None)
    report.add("associativity", detail is None, detail)
    return report


def ref_coassociativity_fails(H, k):
    left, right = {}, {}
    for (i, j), c in H.comul_terms(k).items():
        for (a, b), c2 in H.comul_terms(i).items():
            left[(a, b, j)] = left.get((a, b, j), ZERO) + c * c2
        for (a, b), c2 in H.comul_terms(j).items():
            right[(i, a, b)] = right.get((i, a, b), ZERO) + c * c2
    return {t: v for t, v in left.items() if v} != {t: v for t, v in right.items() if v}


def ref_counit_law_fails(H, k):
    n = H.dim
    lhs, rhs = [ZERO] * n, [ZERO] * n
    for (i, j), c in H.comul_terms(k).items():
        lhs[j] += c * H.counit[0, i]
        rhs[i] += c * H.counit[0, j]
    return lhs != H.basis_vector(k) or rhs != H.basis_vector(k)


def ref_antipode_law_fails(H, k):
    n = H.dim
    left, right = [ZERO] * n, [ZERO] * n
    for (i, j), c in H.comul_terms(k).items():
        si = H.antipode_of(H.basis_vector(i))
        sj = H.antipode_of(H.basis_vector(j))
        for idx, v in enumerate(H.mul(si, H.basis_vector(j))):
            left[idx] += c * v
        for idx, v in enumerate(H.mul(H.basis_vector(i), sj)):
            right[idx] += c * v
    target = [H.counit[0, k] * u for u in H.unit]
    return left != target or right != target


def ref_hopf_axiom_report(H):
    n = H.dim
    report = ref_algebra_axiom_report(H)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    prods = [H.mult.column(ij) for ij in range(n * n)]

    if H.counit_of(H.unit) != 1:
        detail = "counit(unit) != 1"
    else:
        detail = next((f"counit not multiplicative at ({i},{j})" for i, j in pairs
                       if H.counit_of(prods[i * n + j]) != H.counit[0, i] * H.counit[0, j]), None)
    report.add("counit-algebra-map", detail is None, detail)

    unit_tensor = {(i, j): a * b for i, a in enumerate(H.unit) for j, b in enumerate(H.unit)
                   if a and b}
    if ref_comul_of(H, H.unit) != unit_tensor:
        detail = "comul(unit) != unit (x) unit"
    else:
        detail = next((f"comul not multiplicative at ({i},{j})" for i, j in pairs
                       if H.tensor_mul(H.comul_terms(i), H.comul_terms(j))
                       != ref_comul_of(H, prods[i * n + j])), None)
    report.add("comul-algebra-map", detail is None, detail)

    for name, message, fails in (
            ("coassociativity", "coassociativity fails on basis", ref_coassociativity_fails),
            ("counit-law", "counit law fails on basis", ref_counit_law_fails),
            ("antipode-law", "antipode law fails on basis", ref_antipode_law_fails)):
        detail = next((f"{message} {k}" for k in range(n) if fails(H, k)), None)
        report.add(name, detail is None, detail)
    return report


def ref_measuring_report(H):
    L = H.provenance.parent.L
    mats = hopf_action(H)
    report = CheckReport()
    detail = next((f"h{k}.1 != eps(h{k})1" for k in range(H.dim)
                   if mats[k].apply(L.unit) != [H.counit[0, k] * u for u in L.unit]), None)
    report.add("measures-unit", detail is None, detail)

    prods = [L.mult.column(ab) for ab in range(L.dim * L.dim)]
    # column a of mats[i] is h_i.e_a; the product (h_i.e_a)(h_j.e_b) is taken once
    images = [[m.column(a) for a in range(L.dim)] for m in mats]
    products = {}
    terms = [H.comul_terms(k) for k in range(H.dim)]

    def products_fail(k, a, b):
        rhs = [ZERO] * L.dim
        for (i, j), c in terms[k].items():
            key = (i, a, j, b)
            if key not in products:
                products[key] = [(m, v) for m, v in enumerate(L.mul(images[i][a], images[j][b]))
                                 if v]
            for m, v in products[key]:
                rhs[m] += c * v
        return mats[k].apply(prods[a * L.dim + b]) != rhs

    detail = next((f"measuring fails at (h{k}, {L.names[a]}, {L.names[b]})"
                   for k in range(H.dim) for a in range(L.dim) for b in range(L.dim)
                   if products_fail(k, a, b)), None)
    report.add("measures-products", detail is None, detail)
    return report


def ref_hopf_map_violation(T, src, dst):
    n = src.dim
    if T.rank() != n:
        return "bijectivity"
    if T.apply(src.unit) != list(dst.unit):
        return "unit"
    timgs = [T.column(j) for j in range(n)]
    prods = [src.mult.column(ij) for ij in range(n * n)]
    if any(T.apply(prods[i * n + j]) != dst.mul(timgs[i], timgs[j])
           for i in range(n) for j in range(n)):
        return "multiplication"
    if T.kron(T) * src.comul != dst.comul * T:
        return "comultiplication"
    if dst.counit * T != src.counit:
        return "counit"
    if dst.antipode * T != T * src.antipode:
        return "antipode"
    return None


# -- presentations and perturbations --------------------------------------------------

@pytest.fixture(scope="module")
def presentations(descended3):
    L5 = split_model(dihedral(5))
    n2 = next(e for e in catalog(5) if e.label == "N2")
    return {
        "p3-rho": descended3["rho"],
        "p3-lambda": descended3["lambda"],
        "p3-N0": descended3["N0"],
        "p5-split-N2": descend(group_algebra(L5, n2.subgroup), label="N2"),
        "Q[C4]": group_hopf_algebra(cyclic(4)),
        "Q[D3]": group_hopf_algebra(dihedral(3)),
    }


def _nudge(rng):
    return rng.choice([Q(1), Q(-1), Q(1, 2), Q(-3, 2), Q(2)])


def _perturbed_matrix(M, rng):
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    return Matrix.from_entries(M.rows, M.cols, [
        (r, c, M[r, c]) for r in range(M.rows) for c in range(M.cols)] + [(i, j, _nudge(rng))])


def perturb(H, rng):
    """H with one coefficient of mult, unit, comul, counit or antipode changed."""
    n = H.dim
    mult, unit = H.mult, list(H.unit)
    comul, counit, antipode = H.comul, H.counit, H.antipode
    part = rng.choice(["mult", "unit", "comul", "counit", "antipode"])
    if part == "mult":
        # the coefficient of e_k in e_i e_j
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        mult = mult + Matrix.from_entries(n, n * n, [(k, i * n + j, _nudge(rng))])
    elif part == "unit":
        unit[rng.randrange(n)] += _nudge(rng)
    elif part == "comul":
        comul = _perturbed_matrix(comul, rng)
    elif part == "counit":
        counit = _perturbed_matrix(counit, rng)
    else:
        antipode = _perturbed_matrix(antipode, rng)
    return HopfPresentation(mult, unit, comul, counit, antipode,
                            names=H.names, provenance=H.provenance)


NAMES = ["p3-rho", "p3-lambda", "p3-N0", "p5-split-N2", "Q[C4]", "Q[D3]"]


@pytest.mark.parametrize("name", NAMES)
def test_reports_match_the_entrywise_reference(presentations, name):
    H = presentations[name]
    assert hopf_axiom_report(H) == ref_hopf_axiom_report(H)
    assert hopf_axiom_report(H).passed
    rng = random.Random(f"axioms-{name}")
    failures = 0
    for _ in range(PERTURBATIONS):
        P = perturb(H, rng)
        # the Hopf report starts with algebra_axiom_report's unit and associativity
        report = hopf_axiom_report(P)
        assert report == ref_hopf_axiom_report(P)
        failures += not report.passed
        # measuring reads only the counit and the comultiplication of P
        if P.provenance is not None and (P.comul, P.counit) != (H.comul, H.counit):
            assert measuring_report(P) == ref_measuring_report(P)
    assert failures >= PERTURBATIONS // 2


@pytest.mark.parametrize("name", ["p3-rho", "p3-N0", "p5-split-N2"])
def test_failing_measuring_report_names_the_first_counterexample(presentations, name):
    H = presentations[name]
    assert measuring_report(H).passed
    rng = random.Random(f"measuring-{name}")
    seen = set()
    for _ in range(20):
        P = HopfPresentation(H.mult, H.unit, _perturbed_matrix(H.comul, rng),
                             _perturbed_matrix(H.counit, rng), H.antipode,
                             names=H.names, provenance=H.provenance)
        report = measuring_report(P)
        assert report == ref_measuring_report(P)
        seen.update(report.failures())
    assert {name for name, _ in seen} == {"measures-unit", "measures-products"}


@pytest.mark.parametrize("name", NAMES)
def test_hopf_map_violation_matches_the_reference(presentations, name):
    H = presentations[name]
    rng = random.Random(f"maps-{name}")
    verdicts = set()
    for base in (Matrix.identity(H.dim), H.antipode):
        for _ in range(15):
            T = _perturbed_matrix(base, rng)
            verdict = hopf_map_violation(T, H, H)
            assert verdict == ref_hopf_map_violation(T, H, H)
            verdicts.add(verdict)
    assert hopf_map_violation(Matrix.identity(H.dim), H, H) is None
    assert len(verdicts) >= 2


@pytest.mark.parametrize("name", NAMES)
def test_mult_columns_are_the_product_table(presentations, name):
    A = presentations[name]
    n = A.dim
    assert (A.mult.rows, A.mult.cols) == (n, n * n)
    for i in range(n):
        for j in range(n):
            assert tuple(A.mul(A.basis_vector(i), A.basis_vector(j))) == A.mult.column(i * n + j)


@pytest.mark.parametrize("name", NAMES)
def test_multiplication_operators_agree_with_mul(presentations, name):
    A = presentations[name]
    rng = random.Random(f"operators-{name}")
    for _ in range(5):
        x = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(A.dim)]
        y = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(A.dim)]
        assert A.mult_operator(x).apply(y) == A.mul(x, y)


def test_swap_identities_decide_commutativity():
    # 2 x 2 matrices over Q on the matrix units, E_ij at 2i + j: E_ij E_kl = [j = k] E_il
    e = [[[Q(int(r == i and c == l and j == k)) for r in range(2) for c in range(2)]
          for k in range(2) for l in range(2)] for i in range(2) for j in range(2)]
    unit = [Q(1), Q(0), Q(0), Q(1)]
    M2 = Algebra(Matrix.from_columns([v for row in e for v in row]), unit)
    assert algebra_axiom_report(M2).passed and not M2.is_commutative()
    H = group_hopf_algebra(cyclic(4))
    assert H.is_commutative() and H.is_cocommutative()
    # Delta(e0) = e0 (x) e0 + e0 (x) e1 is not symmetric
    comul = H.comul + Matrix.from_entries(16, 4, [(0 * 4 + 1, 0, Q(1))])
    skew = HopfPresentation(H.mult, H.unit, comul, H.counit, H.antipode)
    assert not skew.is_cocommutative()
