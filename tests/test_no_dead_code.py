"""Code with no caller is deleted: every top-level function, class and
constant of the package, and every method, is named somewhere outside its
own definition, in src/, tests/ or perfbench/.  Dunders are exempt, and so
is a method that extends its base class's method of the same name.

A name counts where the source reads it (a name, an attribute or an
imported name); strings count only as the "<module>:<Class>.<method>"
targets that perfbench/tracer.py looks up by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfgalois"
TARGET = re.compile(r"^\w+:[\w.]+$")


def _uses(tree):
    """Counter of the names a syntax tree reads."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and TARGET.match(node.value):
            found.update(re.split(r"[:.]", node.value)[1:])
    return found


def _definitions(tree):
    """(name, node) for the top-level functions, classes and assigned names
    of a module, and for the methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not _extends(m))


def _extends(method):
    """Whether a method calls super().<its own name>: it overrides a base
    class method, and the base class's callers reach it."""
    return any(isinstance(node, ast.Attribute) and node.attr == method.name
               and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
               and node.value.func.id == "super" for node in ast.walk(method))


def test_every_definition_is_named_elsewhere():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sources}
    uses = Counter()
    for tree in trees.values():
        uses += _uses(tree)
    defined = [(path, name, node) for path in sorted(PACKAGE.glob("*.py"))
               for name, node in _definitions(trees[path])
               if not (name.startswith("__") and name.endswith("__"))]
    assert defined, f"no definitions found under {PACKAGE}"
    unnamed = [f"{path.name}:{node.lineno} {name}" for path, name, node in defined
               if uses[name] <= _uses(node)[name]]
    assert not unnamed, f"defined but never named elsewhere: {', '.join(unnamed)}"
