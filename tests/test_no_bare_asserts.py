"""No check in the package may be a bare assert: python -O strips them.  Nor
may one raise AssertionError: a failed identity is a CheckFailed, which the
CLI reports as a failed check instead of a traceback."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfgalois"


def _package_nodes():
    """(file name, node) for every syntax node of the package."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no sources found under {PACKAGE}"
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield from ((path.name, node) for node in ast.walk(tree))


def test_no_bare_asserts_in_package():
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"bare assert (stripped by python -O) at {', '.join(found)}"


def test_no_assertion_error_raised_in_package():
    def raised(node):
        return node.exc.func if isinstance(node.exc, ast.Call) else node.exc

    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Raise) and isinstance(raised(node), ast.Name)
             and raised(node).id == "AssertionError"]
    assert not found, f"raise AssertionError (raise CheckFailed instead) at {', '.join(found)}"
