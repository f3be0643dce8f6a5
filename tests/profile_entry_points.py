"""Run a fixed set of the package's entry points under sys.setprofile and
write the (file, first line) of every Python function entered, as JSON.

    python tests/profile_entry_points.py OUT

with src/ on PYTHONPATH.  The entry points are every command of the
benchmark's CLI pool (cli_pool of perfbench/workloads.py, loaded by path),
the README's five among them, and one polynomial-form check; the package is
imported under the profiler, so what runs at import counts.
tests/test_reachability.py reads the output.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# b = -3 * 1129^2 / 25, a point of the roots_bitsize pool
POLYFORM_B = (-3 * 1129 ** 2, 25)


def cli_pool():
    """The benchmark's CLI commands, from perfbench/workloads.py, which
    imports nothing of the package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cli_pool()


def run_entry_points():
    """Run the CLI pool, writing --out files to the working directory, then
    the polynomial-form checks at POLYFORM_B."""
    from hopfgalois import cli, linalg, polyform

    for cmd in cli_pool():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(cmd.split())
        if rc != 0:
            raise SystemExit(f"{cmd}: exit code {rc}")
    b = linalg.rational(*POLYFORM_B)
    polyform.point_decomposition_check(b)
    polyform.scaling_invariance_check(b)


def entered_code():
    """(file, first line) of every Python function run_entry_points enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_entry_points()
    finally:
        sys.setprofile(previous)
    return sorted(entered)


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(entered_code()), encoding="utf-8")
