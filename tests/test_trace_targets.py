"""Every span the benchmark tracer wraps must exist in the package.

The tracer looks each target up by name at run time and reports a missing
one only as a zero metric, so a rename in src/ would silently blank a
per-layer figure.  This test loads perfbench/tracer.py by path and resolves
every target the way the tracer does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = load_tracer().TARGETS


def test_targets_listed():
    assert len(TARGETS) > 30


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.where)
def test_target_resolves(target):
    modname, attr = target.where.split(":")
    module = importlib.import_module(f"hopfgalois.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        # the tracer wraps the method where the class itself defines it
        assert meth in vars(owner), f"{target.where} is not defined on {cls_name}"
    else:
        assert callable(getattr(module, attr, None)), f"{target.where} not found"
