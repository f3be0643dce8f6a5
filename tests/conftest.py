from typing import NamedTuple

import pytest

from hopfgalois import descent
from hopfgalois.catalog import catalog
from hopfgalois.extensions import split_model, splitting_field_cubic
from hopfgalois.groups import dihedral
from hopfgalois.linalg import Matrix

# the models whose answers tests/test_answers.py pins, as (field, p)
ANSWER_MODELS = (("cubic:2", 3), ("cubic:7", 3), ("split", 3), ("split", 5), ("split", 7),
                 ("split", 13))


class Battery(NamedTuple):
    """One structure's descend_and_verify, with what its descend did."""

    H: object  # the presentation
    report: object  # the CheckReport of the battery
    rrefs: list  # the shapes of the matrices descend row-reduced
    krons: list  # the shapes of the Kronecker products descend built


@pytest.fixture(scope="session")
def L3():
    return splitting_field_cubic(2)


@pytest.fixture(scope="session")
def catalog3():
    return catalog(3)


@pytest.fixture(scope="session")
def L5():
    return split_model(dihedral(5))


@pytest.fixture(scope="session")
def batteries(L3, L5):
    """{(field, p): {label: Battery}} over ANSWER_MODELS in catalog order:
    every structure is descended once for the whole session, through
    descend_and_verify, and the shapes are recorded inside descend only."""
    fields = {("cubic:2", 3): L3, ("cubic:7", 3): splitting_field_cubic(7),
              **{("split", p): split_model(dihedral(p)) for p in (3, 7, 13)},
              ("split", 5): L5}
    real_descend, real_rref, real_kron = descent.descend, Matrix.rref, Matrix.kron
    rrefs, krons, last = [], [], []

    def recorded(A, label=None):
        rrefs.clear()
        krons.clear()
        H = real_descend(A, label=label)
        last[:] = [list(rrefs), list(krons)]
        return H

    def kron(x, y):
        out = real_kron(x, y)
        krons.append((out.rows, out.cols))
        return out

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "rref", lambda m: rrefs.append((m.rows, m.cols)) or real_rref(m))
        patch.setattr(Matrix, "kron", kron)
        patch.setattr(descent, "descend", recorded)
        for field, p in ANSWER_MODELS:
            out[field, p] = {e.label: Battery(*descent.descend_and_verify(fields[field, p], e),
                                              *last)
                             for e in catalog(p)}
    return out


@pytest.fixture(scope="session")
def descended3(batteries):
    """The cubic:2 presentations, {label: presentation} in catalog order."""
    return {label: b.H for label, b in batteries["cubic:2", 3].items()}


@pytest.fixture(scope="session")
def split_descents(batteries):
    """The split-model presentations at p = 3, 5 and 7, by (p, label); the
    shapes of the matrices each descend row-reduced, by the same key; and
    the shapes of the Kronecker products each descend built, by the same key."""
    runs = {(p, label): b for p in (3, 5, 7) for label, b in batteries["split", p].items()}
    return ({key: b.H for key, b in runs.items()}, {key: b.rrefs for key, b in runs.items()},
            {key: b.krons for key, b in runs.items()})


@pytest.fixture(scope="session")
def split13_descents(batteries):
    """The p = 13 split-model presentations, by label."""
    return {label: b.H for label, b in batteries["split", 13].items()}


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
