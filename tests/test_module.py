"""L is an H-module algebra: the module law, and measuring on a generating set.

module_report checks 1.x = x and (hh').x = h.(h'.x) on the generators of
H.generators, and measuring_report compares its product identity on those
generators' columns once the Hopf axioms and the module law hold.  Each
check here is compared with a reference written entry by entry or as the
full identity over every basis vector.
"""

import dataclasses

import pytest

from hopfgalois import descent
from hopfgalois.algebra import CheckReport, HopfPresentation, first_difference
from hopfgalois.descent import hopf_action, measuring_report, module_report
from hopfgalois.linalg import Matrix, ONE, Q, ZERO, hstack, mul_kron


@pytest.fixture(scope="module")
def presentations(descended3, split_descents, split13_descents):
    """Every catalog structure over cubic:2 at p = 3 and over the split
    model at p = 3, 5, 7 and 13, by name."""
    out = {f"p3-cubic2-{label}": H for label, H in descended3.items()}
    out.update({f"p{p}-split-{label}": H for (p, label), H in split_descents[0].items()})
    out.update({f"p13-split-{label}": H for label, H in split13_descents.items()})
    return out


def _acting(H, x):
    """The matrix by which the element x of H acts on L."""
    mats = hopf_action(H)
    d = mats[0].rows
    return sum((m * c for m, c in zip(mats, x) if c), Matrix.zeros(d, d))


def ref_module_report(H):
    """The module law entry by entry: 1.e_c = e_c, then M(h_k h_b) e_c =
    M(h_k) M(h_b) e_c for every (k, b, c), in that order."""
    L, mats = H.provenance.parent.L, hopf_action(H)
    d, n = L.dim, H.dim
    report = CheckReport()
    one = _acting(H, H.unit)
    detail = next((f"1.{L.names[c]} != {L.names[c]}" for c in range(d)
                   if one.column(c) != Matrix.identity(d).column(c)), None)
    report.add("module-unit", detail is None, detail)
    products = {}
    for k in range(n):
        for b in range(n):
            products[k, b] = (_acting(H, H.mult.column(k * n + b)), mats[k] * mats[b])
    detail = next((f"module law fails at (h{k}, h{b}, {L.names[c]})"
                   for k in range(n) for b in range(n) for c in range(d)
                   if products[k, b][0].column(c) != products[k, b][1].column(c)), None)
    report.add("module-law", detail is None, detail)
    return report


def full_measuring_report(H):
    """measuring_report with its product identity compared on every basis
    vector, as it was before the generating-set reduction."""
    L, mats = H.provenance.parent.L, hopf_action(H)
    d = L.dim
    u = Matrix.from_columns([L.unit])
    report = CheckReport()
    col = first_difference((hstack(*[m * u for m in mats]), u * H.counit))
    report.add("measures-unit", col is None, None if col is None else f"h{col}.1 != eps(h{col})1")
    zero = Matrix.zeros(d, d * d)
    rhs = [sum((mul_kron(L.mult, mats[i], mats[j]) * c for (i, j), c in H.comul_terms(k).items()),
               zero) for k in range(H.dim)]
    col = first_difference((hstack(*[m * L.mult for m in mats]), hstack(*rhs)))
    if col is None:
        report.add("measures-products", True)
    else:
        k, ab = divmod(col, d * d)
        a, b = divmod(ab, d)
        report.add("measures-products", False,
                   f"measuring fails at (h{k}, {L.names[a]}, {L.names[b]})")
    return report


def with_action(H, mats, **parts):
    """A new presentation of H's data whose basis acts on L by `mats`, with
    `parts` of the presentation replaced."""
    prov = dataclasses.replace(H.provenance)
    prov.action = mats
    data = dict(mult=H.mult, unit=H.unit, comul=H.comul, counit=H.counit,
                antipode=H.antipode, names=H.names)
    data.update(parts)
    return HopfPresentation(**data, provenance=prov)


def swapped(H, i, j):
    mats = list(hopf_action(H))
    mats[i], mats[j] = mats[j], mats[i]
    return with_action(H, mats)


def test_every_catalog_structure_is_a_module_algebra(presentations):
    assert len(presentations) == 5 + 5 + 7 + 9 + 15
    for name, H in presentations.items():
        report = module_report(H)
        assert [c.name for c in report] == ["module-unit", "module-law"], name
        assert report.passed, (name, report.failures())


@pytest.mark.parametrize("name", ["p3-cubic2-rho", "p3-cubic2-N0", "p5-split-N2",
                                  "p7-split-lambda"])
def test_the_module_law_matches_the_entrywise_reference(presentations, name):
    H = presentations[name]
    assert module_report(H) == ref_module_report(H)


def test_swapped_action_matrices_fail_the_module_law(presentations):
    H = presentations["p5-split-N2"]
    assert H.unit[:2] == (ZERO, ZERO)  # the unit is h9, so 1 still acts as the identity
    P = swapped(H, 0, 1)
    report = module_report(P)
    assert report == ref_module_report(P)
    assert report.failures() == [("module-law", "module law fails at (h0, h0, d[1])")]
    # moving the unit's action fails both laws
    P = swapped(H, 0, H.dim - 1)
    report = module_report(P)
    assert report == ref_module_report(P)
    assert [name for name, _ in report.failures()] == ["module-unit", "module-law"]
    for name in ("p3-cubic2-lambda", "p3-cubic2-N1", "p13-split-N5"):
        P = swapped(presentations[name], 1, 2)
        report = module_report(P)
        assert report == ref_module_report(P) and not report.passed, name


def test_a_failed_axiom_report_checks_the_module_law_in_full(presentations):
    H = presentations["p3-cubic2-N0"]
    n = H.dim
    P = with_action(H, hopf_action(H),
                    mult=H.mult + Matrix.from_entries(n, n * n, [(3, 2 * n + 4, Q(1, 2))]))
    report = module_report(P)
    assert report == ref_module_report(P)
    assert report.failures()[0][0] == "module-law"


def _counted_measuring(monkeypatch, H):
    """measuring_report(H) and the products m_L (M_i (x) M_j) it took, one
    per comultiplication term of each h_k its product identity compared."""
    L = H.provenance.parent.L
    terms, real = [], descent.mul_kron

    def counted(x, y, z):
        if x is L.mult:
            terms.append((y, z))
        return real(x, y, z)

    with monkeypatch.context() as patch:
        patch.setattr(descent, "mul_kron", counted)
        report = measuring_report(H)
    return report, terms


def _terms_of(H, ks):
    return sum(len(H.comul_terms(k)) for k in ks)


def test_measuring_compares_the_generators_columns_only(presentations, monkeypatch):
    for name in ("p3-cubic2-lambda", "p3-cubic2-N0", "p5-split-N2", "p13-split-lambda"):
        H = presentations[name]
        report, terms = _counted_measuring(monkeypatch, H)
        assert report == full_measuring_report(H) and report.passed, name
        assert len(terms) == _terms_of(H, H.generators.indices) < _terms_of(H, range(H.dim))
    assert presentations["p13-split-lambda"].generators.indices == (0, 1)
    assert len(presentations["p3-cubic2-lambda"].generators.indices) == 3


def test_a_failed_module_law_measures_in_full(presentations, monkeypatch):
    for name in ("p3-cubic2-N0", "p5-split-N2"):
        H = presentations[name]
        P = swapped(H, 1, 2)
        assert not module_report(P).passed
        report, terms = _counted_measuring(monkeypatch, P)
        assert report == full_measuring_report(P), name
        assert len(terms) == _terms_of(P, range(P.dim)), name


def test_a_failed_reduced_identity_measures_in_full(presentations, monkeypatch):
    # phi = I + E_21 - E_23 fixes the unit of L and is invertible (E_21 - E_23
    # squares to 0) but is no algebra map: conjugating every M_h by phi keeps
    # the module law and breaks measuring, on a generator, so the full
    # identity runs after the reduced one and names the failure
    for name in ("p3-cubic2-lambda", "p5-split-N2"):
        H = presentations[name]
        d = H.provenance.parent.L.dim
        nil = Matrix.from_entries(d, d, [(2, 1, ONE), (2, 3, -ONE)])
        phi, phi_inv = Matrix.identity(d) + nil, Matrix.identity(d) - nil
        P = with_action(H, [phi * m * phi_inv for m in hopf_action(H)])
        assert module_report(P).passed
        report, terms = _counted_measuring(monkeypatch, P)
        assert report == full_measuring_report(P), name
        assert [c.passed for c in report] == [True, False], name
        assert len(terms) == _terms_of(P, P.generators.indices) + _terms_of(P, range(P.dim))


def test_every_measuring_verdict_is_the_full_identitys(presentations):
    for name, H in presentations.items():
        assert measuring_report(H) == full_measuring_report(H), name
