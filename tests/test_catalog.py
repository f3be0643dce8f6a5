import importlib
import sys
import types
from dataclasses import replace

import pytest

from hopfgalois.catalog import (SUPPORTED_PRIMES, CatalogEntry, catalog, catalog_checks,
                                completeness_check_p3, cyclic_generator, matches_catalog)
from hopfgalois.groups import (Perm, PermSubgroup, closure, conj_by, dihedral,
                               enumerate_regular_normalized, is_normalized_by, is_regular,
                               iso_type, left_regular, powers, right_regular)

# the package exports the function catalog under the name of its module
catalog_module = importlib.import_module("hopfgalois.catalog")


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_catalog_checks_all_pass(p):
    for name, ok, detail in catalog_checks(p, catalog(p)):
        assert ok, f"{name} failed at p={p}: {detail}"


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_catalog_shape(p):
    entries = catalog(p)
    assert len(entries) == p + 2
    assert [e.label for e in entries][:2] == ["rho", "lambda"]
    assert entries[0].iso_label == f"D{p}"
    assert entries[1].iso_label == f"D{p}"
    for c in range(p):
        assert entries[2 + c].label == f"N{c}"
        assert entries[2 + c].iso_label == f"C{2 * p}"
        gen = cyclic_generator(p, c)
        assert entries[2 + c].subgroup.elements == tuple(powers(Perm.__mul__, gen, Perm.identity(2 * p)))


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_entries_name_their_closed_form_basis(p):
    entries = catalog(p)
    assert [(e.basis_kind, e.generator) for e in entries] == [
        ("classical", None), ("translation", None),
        *(("cyclic", cyclic_generator(p, c)) for c in range(p))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclic_generator_relations(p):
    G = dihedral(p)
    lam = left_regular(G)
    rho = right_regular(G)
    r = lam.elements[G.generators[0]]
    s = lam.elements[G.generators[1]]
    for c in range(p):
        eta = cyclic_generator(p, c)
        assert eta.order() == 2 * p
        # conjugation by r fixes eta, by s inverts it
        assert conj_by(r, eta) == eta
        assert conj_by(s, eta) == eta.inverse()
        # the unique involution is right translation by r^c s
        assert powers(Perm.__mul__, eta, Perm.identity(2 * p))[p] == rho.elements[c + p]


@pytest.mark.parametrize("c", [-1, 3, True, False, 1.5, "1", None])
def test_cyclic_generator_needs_an_int_below_p(c):
    with pytest.raises(ValueError, match="c must be an int in 0..2"):
        cyclic_generator(3, c)


@pytest.mark.parametrize("p", [3, 5])
def test_catalog_subgroups_regular_normalized(p):
    G = dihedral(p)
    lam = left_regular(G)
    for e in catalog(p):
        assert is_regular(e.subgroup)
        assert is_normalized_by(e.subgroup, lam)
        assert e.subgroup.verify_subgroup()


def test_catalog_entries_distinct():
    keys = {e.subgroup.canonical_key() for e in catalog(7)}
    assert len(keys) == 9


def test_completeness_at_p3():
    assert completeness_check_p3()


def test_matches_catalog_needs_every_entry():
    subs = enumerate_regular_normalized(dihedral(3))
    assert matches_catalog(3, subs)
    assert not matches_catalog(3, subs[1:])
    assert not matches_catalog(5, subs)


def test_catalog_checks_fail_normalized_on_a_non_normalized_entry():
    # the six-cycle generates a regular C6 that lam(D_3) does not normalize
    six_cycle = Perm((1, 2, 3, 4, 5, 0))
    N = closure([six_cycle], 6)
    assert is_regular(N)
    entries = catalog(3)
    entries[2] = CatalogEntry("N0", N, iso_type(N), "cyclic", six_cycle)
    checks = {c.name: c for c in catalog_checks(3, entries)}
    assert checks["regular"].passed
    assert not checks["normalized"].passed
    assert checks["normalized"].detail == "N0 is not normalized"


def test_catalog_checks_fail_only_the_involution_identity_on_a_rotated_entry():
    # N1 listed from gen instead of from 1: the same subgroup, with gen^(p+1) at position p
    p = 5
    entries = catalog(p)
    N = entries[3].subgroup
    rotated = PermSubgroup(N.degree, N.elements[1:] + N.elements[:1], label=N.label,
                           element_names=N.element_names)
    entries[3] = replace(entries[3], subgroup=rotated)
    failed = [c for c in catalog_checks(p, entries) if not c.passed]
    assert [(c.name, c.detail) for c in failed] == [
        ("involution-identity", "involution of N1 is not rho(r^1s)")]


@pytest.mark.parametrize("bad", [2, 4, 9, 11 * 13])
def test_catalog_rejects_unsupported(bad):
    with pytest.raises(ValueError):
        catalog(bad)


def test_package_attribute_catalog_is_the_function_and_the_module_is_importable():
    import hopfgalois
    import hopfgalois.catalog as bound
    from hopfgalois import catalog as exported

    # the package's attribute, and so both import forms, give the function
    assert exported is bound is hopfgalois.catalog is catalog
    assert callable(exported) and not isinstance(exported, types.ModuleType)
    # the module is reached by its dotted name
    assert isinstance(catalog_module, types.ModuleType)
    assert catalog_module is sys.modules["hopfgalois.catalog"]
    assert catalog_module.catalog is catalog
