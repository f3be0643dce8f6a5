import pytest

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
def descended3(L3, catalog3):
    return {e.label: descend(group_algebra(L3, e.subgroup), label=e.label)
            for e in catalog3}


@pytest.fixture(scope="session")
def split5_nc():
    """The p = 5 N_c presentations descended over the split model, by label."""
    L = split_model(dihedral(5))
    return {e.label: descend(group_algebra(L, e.subgroup), label=e.label)
            for e in catalog(5) if e.label not in ("rho", "lambda")}
