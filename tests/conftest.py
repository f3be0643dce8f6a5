import pytest

from hopfgalois.analysis import descend_catalog
from hopfgalois.catalog import catalog
from hopfgalois.descent import descend, group_algebra
from hopfgalois.extensions import split_model, splitting_field_cubic
from hopfgalois.groups import dihedral


@pytest.fixture(scope="session")
def L3():
    return splitting_field_cubic(2)


@pytest.fixture(scope="session")
def catalog3():
    return catalog(3)


@pytest.fixture(scope="session")
def descended3(L3):
    return descend_catalog(3, L3)


@pytest.fixture(scope="session")
def L5():
    return split_model(dihedral(5))


@pytest.fixture(scope="session")
def split5_nc(L5):
    """The p = 5 N_c presentations descended over the split model, by label."""
    return {e.label: descend(group_algebra(L5, e.subgroup), label=e.label)
            for e in catalog(5) if e.label not in ("rho", "lambda")}


@pytest.fixture(scope="session")
def split5_rho_lambda(L5):
    """The p = 5 rho and lambda presentations descended over the split model."""
    return {e.label: descend(group_algebra(L5, e.subgroup), label=e.label)
            for e in catalog(5) if e.label in ("rho", "lambda")}
