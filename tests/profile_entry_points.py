"""Run a fixed set of the package's entry points under sys.setprofile and
write the (file, first line) of every Python function entered, as JSON.

    python tests/profile_entry_points.py OUT

with src/ on PYTHONPATH.  The entry points are the README's five commands,
the CLI commands that reach the subcommand paths those leave out, and one
polynomial-form check; the package is imported under the profiler, so what
runs at import counts.  tests/test_reachability.py reads the output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

# the README's commands (perfbench's README_COMMANDS), then the rest
COMMANDS = (
    "catalog --p 13",
    "enumerate --group d3 --json",
    "descend --p 3 --structure lambda --field cubic:2",
    "descend --p 7 --structure N3 --field split --json",
    "classify --field cubic:2 --json --out report.json",
    "catalog --p 3",
    "enumerate --group klein4",
    "descend --p 3 --structure rho --field cubic:2",
    "descend --p 3 --structure N0 --field cubic:2",
)
# b = -3 * 1129^2 / 25, a point of the roots_bitsize pool
POLYFORM_B = (-3 * 1129 ** 2, 25)


def run_entry_points():
    """Run COMMANDS, writing --out files to the working directory, then the
    polynomial-form checks at POLYFORM_B."""
    from hopfgalois import cli, linalg, polyform

    for cmd in COMMANDS:
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
