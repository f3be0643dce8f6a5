"""Every function of the package is entered by a fixed set of entry points,
or is listed in UNREACHED with the reason it stays.

profile_entry_points.py runs the entry points under sys.setprofile in a
fresh interpreter, so the package's import and its cached helpers count as
they do for a user, whatever other tests ran first.  A function is a def of
src/ (methods and nested functions included), found by its code object's
file and first line.  The list is exact: a listed function that does get
entered fails the test too, so a removed caller or a new caller shows.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfgalois"
ENTRY_POINTS = Path(__file__).with_name("profile_entry_points.py")

# Every function the entry points never enter, as (reason, where): an error
# path or a method only tests reach, with a test that enters it; a TEST_ONLY
# name of test_no_dead_code.py; a perfbench pin, with the perfbench file that
# names it (ROADMAP item 5 decides these); or a guard of Q's closure, with the
# test that enters it.
UNREACHED = {
    "cli._ArgumentParser.error": ("error path", "tests/test_cli.py::test_bad_flags_exit_2"),
    "cli._shown": ("error path",
                   "tests/test_cli.py::test_an_unsupported_long_prime_is_echoed_only_in_part"),
    "extensions._short_text": ("error path", "tests/test_extensions.py::test_cubic_rejects_cubes"),
    "extensions._digit_count": (
        "error path", "tests/test_cli.py::test_huge_cube_is_named_without_printing_it"),
    "descent.NormalizationError.__init__": (
        "error path", "tests/test_descent.py::test_non_normalized_subgroup_rejected"),
    "polyform.PolyMapError.__init__": (
        "error path", "tests/test_polyform.py::test_iso_wrong_generator_fails"),
    "algebra.group_hopf_algebra": ("TEST_ONLY", "tests/test_no_dead_code.py"),
    "analysis.character_idempotents": ("TEST_ONLY", "tests/test_no_dead_code.py"),
    "analysis.nilpotent_witness": ("TEST_ONLY", "tests/test_no_dead_code.py"),
    "extensions.quadratic_field": ("TEST_ONLY", "tests/test_no_dead_code.py"),
    "polyform.normal_form": ("TEST_ONLY", "tests/test_no_dead_code.py"),
    "groups.cyclic": ("tests only", "tests/test_extensions.py::test_quadratic_field"),
    "groups.Perm._make": ("tests only", "tests/test_groups.py::test_perm_stores_its_images_as_a_tuple"),
    "algebra.CheckReport.failures": (
        "tests only", "tests/test_algebra.py::test_algebra_axiom_report_names_first_nonassociative_triple"),
    "algebra.action_report": (
        "tests only", "tests/test_extensions.py::test_an_idempotent_fixed_by_a_reflection_passes_verify"),
    "extensions.GaloisAlgebra.verify": (
        "tests only", "tests/test_extensions.py::test_an_idempotent_fixed_by_a_reflection_passes_verify"),
    "descent.SemilinearAction.verify": (
        "tests only", "tests/test_descent.py::test_semilinear_action_verifies"),
    "linalg.Matrix.__neg__": ("tests only", "tests/test_linalg.py::test_arithmetic"),
    "linalg.Matrix.__rmul__": ("tests only", "tests/test_linalg.py::test_arithmetic"),
    "linalg.Matrix.__repr__": (
        "tests only", "tests/test_algebra.py::test_first_difference_matches_the_difference_formula"),
    "descent.SemilinearAction.matrix": ("perfbench", "perfbench/tracer.py"),
    "algebra.HopfPresentation.counit_of": ("perfbench", "perfbench/workloads.py"),
    "algebra.HopfPresentation.antipode_of": ("perfbench", "perfbench/workloads.py"),
    # Fraction.__rpow__ would send Fraction(2) ** Q(1, 2) back to Q.__rpow__
    "linalg.Q.__rpow__": ("Q closure", "tests/test_linalg.py::test_q_edge_cases_match_fraction"),
    # the operands that are neither Q nor int, and the operators with no fast path
    "linalg._as_q": ("Q closure", "tests/test_linalg.py::test_q_edge_cases_match_fraction"),
}


def package_functions():
    """{(file, first line): "module.Qualified.name"} for every def of src/;
    a decorated def's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, path.stem)
    return found


def _names_what_exists(name, reason, where):
    """Whether `where` holds what the reason says: the TEST_ONLY key, the
    test, or, for perfbench, the exact tracer target module:Class.method in
    perfbench/tracer.py or a call .method( in the named perfbench file."""
    path, _, test = where.partition("::")
    text = (ROOT / path).read_text(encoding="utf-8")
    method = name.rsplit(".", 1)[1]
    if reason == "TEST_ONLY":
        return f'"{method}":' in text
    if reason == "perfbench":
        module, qualified = name.split(".", 1)
        tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
        return path.startswith("perfbench/") and (
            f'"{module}:{qualified}"' in tracer or f".{method}(" in text)
    return reason in ("error path", "tests only", "Q closure") and f"def {test}(" in text


def test_every_listed_reason_names_what_exists():
    for name, (reason, where) in UNREACHED.items():
        assert _names_what_exists(name, reason, where), name


@pytest.mark.parametrize("name, where", [
    ("linalg.Matrix.matrix", "perfbench/tracer.py"),
    ("descent.Semilinear.matrix", "perfbench/tracer.py"),
    ("algebra.HopfPresentation.unit_of", "perfbench/workloads.py"),
])
def test_a_perfbench_reason_needs_its_target_or_its_call(name, where):
    """Each method name occurs in its file, inside another word or target,
    but perfbench neither traces nor calls it: no reason."""
    path = ROOT / where
    assert name.rsplit(".", 1)[1] in path.read_text(encoding="utf-8")
    assert not _names_what_exists(name, "perfbench", where)


# with gmpy2, Q is gmpy2.mpq and no function of the Fraction fallback runs
@pytest.mark.skipif(importlib.util.find_spec("gmpy2") is not None,
                    reason="Q is gmpy2.mpq, not the Fraction fallback")
def test_unreached_functions_are_exactly_the_listed_ones(tmp_path):
    out = tmp_path / "entered.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ENTRY_POINTS), str(out)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads(out.read_text())}
    functions = package_functions()
    assert functions, f"no functions found under {PACKAGE}"
    unreached = {name for key, name in functions.items() if key not in entered}
    assert unreached == set(UNREACHED), (
        f"never entered but not listed: {sorted(unreached - set(UNREACHED))}; "
        f"listed but entered: {sorted(set(UNREACHED) - unreached)}")
