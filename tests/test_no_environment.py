"""No module of the package may read the environment: a hidden setting
would change results that no argument shows."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfgalois"


def _environment_reads(tree):
    """Line numbers of every import of os and every os.environ or os.getenv."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "os" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os":
            yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno


def test_no_module_reads_the_environment():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no sources found under {PACKAGE}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in sorted(set(_environment_reads(tree)))]
    assert not found, f"environment read at {', '.join(found)}"
