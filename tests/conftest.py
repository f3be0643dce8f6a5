import pytest

from hopfgalois.analysis import descend_catalog
from hopfgalois.catalog import catalog
from hopfgalois.descent import descend, group_algebra
from hopfgalois.extensions import split_model, splitting_field_cubic
from hopfgalois.groups import dihedral
from hopfgalois.linalg import Matrix


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
def split_descents(L5):
    """The split-model presentations at p = 3, 5 and 7, by (p, label); the
    shapes of the matrices each descend row-reduced, by the same key; and
    the shapes of the Kronecker products each descend built, by the same key."""
    cases = [(p, e, L5 if p == 5 else split_model(dihedral(p)))
             for p in (3, 5, 7) for e in catalog(p)]
    real, seen, shapes, presentations = Matrix.rref, [], {}, {}
    real_kron, built, krons = Matrix.kron, [], {}

    def kron(x, y):
        out = real_kron(x, y)
        built.append((out.rows, out.cols))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "rref", lambda m: seen.append((m.rows, m.cols)) or real(m))
        patch.setattr(Matrix, "kron", kron)
        for p, e, L in cases:
            seen.clear()
            built.clear()
            presentations[p, e.label] = descend(group_algebra(L, e.subgroup), label=e.label)
            shapes[p, e.label], krons[p, e.label] = list(seen), list(built)
    return presentations, shapes, krons


@pytest.fixture(scope="session")
def split5_nc(split_descents):
    """The p = 5 N_c presentations descended over the split model, by label."""
    return {label: H for (p, label), H in split_descents[0].items()
            if p == 5 and label not in ("rho", "lambda")}


@pytest.fixture(scope="session")
def split5_rho_lambda(split_descents):
    """The p = 5 rho and lambda presentations descended over the split model."""
    return {label: H for (p, label), H in split_descents[0].items()
            if p == 5 and label in ("rho", "lambda")}
