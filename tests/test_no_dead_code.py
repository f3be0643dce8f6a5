"""Code with no caller is deleted: every top-level function, class and
constant of the package, and every method, is named somewhere outside its
own definition, in src/, tests/ or perfbench/.  Dunders are exempt, and so
is a method that extends its base class's method of the same name.

A name counts where the source reads it as an attribute or imports it;
strings count only as the "<module>:<Class>.<method>" targets that
perfbench/tracer.py looks up by name.  A bare name (x, not a.x) counts for
top-level functions, classes and constants only, so a local variable that
shares a method's name does not keep the method alive.

A definition that only the tests name is listed in TEST_ONLY with the reason
it stays; the package's re-exports in __init__.py do not count as a caller.
Every instance attribute that src/ sets (self.<name> = ...) is read somewhere
in src/, tests/ or perfbench/.  Every top-level function or class of tests/
that pytest does not collect or inject (a test_* function or a fixture) is
named elsewhere in tests/.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfgalois"
TARGET = re.compile(r"^\w+:[\w.]+$")

# every definition of the package that no module of it (other than the
# re-exports of __init__.py) and no perfbench module names, with its reason
TEST_ONLY = {
    "group_hopf_algebra": "Q[G], the reference Hopf algebra of the axiom, Wedderburn and "
                         "descent tests",
    "character_idempotents": "the two character idempotents of Q[D_p], the tests' reference "
                             "units for its Wedderburn split",
    "nilpotent_witness": "the square-zero element of H_lambda over a cubic field that "
                         "acceptance criterion 7 checks",
    "quadratic_field": "Q(sqrt b), a second Galois model for the extension tests "
                       "(ROADMAP item 2 builds on it)",
    "normal_form": "x^i y^j on the basis of the p = 3 presentation, the tests' handle "
                   "on its relations",
}


def _uses(tree, methods=False):
    """Counter of the names a syntax tree reads; with `methods`, only the
    reads that can name a method, so no bare names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if not methods:
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
    """(name, node, is_method) for the top-level functions, classes and
    assigned names of a module, and for the methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m, True) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not _extends(m))


def _extends(method):
    """Whether a method calls super().<its own name>: it overrides a base
    class method, and the base class's callers reach it."""
    return any(isinstance(node, ast.Attribute) and node.attr == method.name
               and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
               and node.value.func.id == "super" for node in ast.walk(method))


def _unnamed(trees, callers):
    """(path, name, node) for each definition of the package, dunders
    aside, that no tree in `callers` names outside the definition itself."""
    uses = {methods: sum((_uses(trees[p], methods) for p in callers), Counter())
            for methods in (False, True)}
    defined = [(path, name, node, methods) for path in sorted(PACKAGE.glob("*.py"))
               for name, node, methods in _definitions(trees[path])
               if not (name.startswith("__") and name.endswith("__"))]
    assert defined, f"no definitions found under {PACKAGE}"
    return [(path, name, node) for path, name, node, methods in defined
            if uses[methods][name] <= _uses(node, methods)[name]]


def test_every_definition_is_named_elsewhere():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sources}
    unnamed = [f"{path.name}:{node.lineno} {name}" for path, name, node in _unnamed(trees, sources)]
    assert not unnamed, f"defined but never named elsewhere: {', '.join(unnamed)}"


def test_definitions_only_tests_name_are_listed_with_a_reason():
    sources = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sources}
    test_only = {name for _, name, _ in _unnamed(trees, [p for p in sources
                                                         if p.name != "__init__.py"])}
    assert test_only == set(TEST_ONLY), (
        f"named only from tests but not listed: {sorted(test_only - set(TEST_ONLY))}; "
        f"listed but called from the package: {sorted(set(TEST_ONLY) - test_only)}")


def test_every_instance_attribute_is_read():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    reads = {node.attr for p in sources
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = [(path, node) for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"]
    assert stored, f"no instance attributes found under {PACKAGE}"
    unread = sorted({f"{path.name}:{node.lineno} self.{node.attr}" for path, node in stored
                     if node.attr not in reads})
    assert not unread, f"set but never read: {', '.join(unread)}"


def _is_fixture(node):
    """Whether a definition is decorated with pytest.fixture, called or not."""
    return any(isinstance(d, ast.Attribute) and d.attr == "fixture"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "fixture" for d in node.decorator_list)


def test_every_test_helper_is_named_elsewhere():
    sources = sorted((ROOT / "tests").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sources}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    helpers = [(path, node) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("test_") and not _is_fixture(node)]
    assert helpers, "no test helpers found under tests/"
    unnamed = [f"{path.name}:{node.lineno} {node.name}" for path, node in helpers
               if uses[node.name] <= _uses(node)[node.name]]
    assert not unnamed, f"test helpers never named elsewhere: {', '.join(unnamed)}"
