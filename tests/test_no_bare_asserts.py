"""No check in the package may be a bare assert: python -O strips them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfgalois"


def test_no_bare_asserts_in_package():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no sources found under {PACKAGE}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert (stripped by python -O) at {', '.join(found)}"
