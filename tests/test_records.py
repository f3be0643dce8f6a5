"""Every record of the package is a named tuple, and importing the package
loads no dataclasses: `dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize`, which would make up most of the start of every CLI command."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfgalois.analysis import (HopfIsoClassReport, PairEvidence, WedderburnComponent,
                                 WedderburnReport)
from hopfgalois.catalog import catalog
from hopfgalois.descent import DescentProvenance, HopfGaloisCheck, group_algebra
from hopfgalois.extensions import split_model
from hopfgalois.groups import GroupIso, Perm, dihedral, left_regular
from hopfgalois.linalg import ONE, Matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfgalois"
MODULES = [importlib.import_module(f"hopfgalois.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))
           if path.stem != "__main__"]
HEAVY = ("dataclasses", "inspect")


def _dataclass_imports(tree):
    """Line numbers of every import of dataclasses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            yield node.lineno


def test_no_module_imports_dataclasses():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no sources found under {PACKAGE}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _dataclass_imports(tree)]
    assert not found, f"dataclasses imported at {', '.join(found)}"


def _loaded_after(statement):
    """The HEAVY modules in sys.modules of a fresh interpreter after `statement`."""
    code = f"import sys; {statement}; print(*sorted(set({HEAVY!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    if _loaded_after("pass"):
        pytest.skip("a bare interpreter here already loads dataclasses or inspect")
    assert _loaded_after("import hopfgalois.cli") == []


# Two equal instances built apart, and one that differs in a field, per record.
_N = left_regular(dihedral(3))
_A = group_algebra(split_model(dihedral(3)), _N)
_COMPONENT = (1, 1, "field", (ONE,), Matrix.identity(1))
CASES = {
    "Perm": lambda: (Perm([2, 0, 1]), Perm((2, 0, 1)), Perm((0, 2, 1))),
    "FiniteGroup": lambda: (dihedral(3), dihedral(3), dihedral(5)),
    "PermSubgroup": lambda: (left_regular(dihedral(3)), left_regular(dihedral(3)),
                             left_regular(dihedral(3))._replace(element_names=None)),
    "GroupIso": lambda: (GroupIso(_N, _N, tuple(range(6))), GroupIso(_N, _N, tuple(range(6))),
                         GroupIso(_N, _N, (0, 2, 1, 3, 5, 4))),
    "CatalogEntry": lambda: (catalog(3)[2], catalog(3)[2], catalog(3)[3]),
    "DescentProvenance": lambda: (DescentProvenance(_A, Matrix.identity(2), Matrix.identity(2)),
                                  DescentProvenance(_A, Matrix.identity(2), Matrix.identity(2)),
                                  DescentProvenance(_A, Matrix.identity(2), Matrix.identity(2),
                                                    label="other")),
    "HopfGaloisCheck": lambda: (HopfGaloisCheck(36, 36, True), HopfGaloisCheck(36, 36, True),
                                HopfGaloisCheck(35, 36, False)),
    "WedderburnComponent": lambda: (WedderburnComponent(*_COMPONENT),
                                    WedderburnComponent(*_COMPONENT),
                                    WedderburnComponent(*_COMPONENT)._replace(kind="other")),
    "WedderburnReport": lambda: (WedderburnReport([WedderburnComponent(*_COMPONENT)]),
                                 WedderburnReport([WedderburnComponent(*_COMPONENT)]),
                                 WedderburnReport([])),
    "PairEvidence": lambda: (PairEvidence(False, certificate=[("iso", (0, 1))], isos_tested=1),
                             PairEvidence(False, certificate=[("iso", (0, 1))], isos_tested=1),
                             PairEvidence(True)),
    "HopfIsoClassReport": lambda: (HopfIsoClassReport(["rho"], [["rho"]], {}),
                                   HopfIsoClassReport(["rho"], [["rho"]], {}),
                                   HopfIsoClassReport(["rho"], [["rho"]], {("rho", "rho"): None})),
}
FROZEN = ("Perm", "FiniteGroup", "PermSubgroup", "GroupIso", "CatalogEntry")


def test_every_record_of_the_package_is_covered():
    records = {name for m in MODULES for name, obj in vars(m).items()
               if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == m.__name__}
    assert records == set(CASES) | {"Check", "Generators"}


@pytest.mark.parametrize("name", CASES)
def test_records_compare_by_value_and_refuse_assignment(name):
    a, b, other = CASES[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and a != other
    if name in FROZEN:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])


def test_each_record_keeps_its_own_cache():
    a = dihedral(3)
    b = a._replace()
    assert a == b and a.inverses == (0, 2, 1, 3, 4, 5)
    assert "inverses" in vars(a) and "inverses" not in vars(b)
