"""One benchmark process: import the package under test, set up, run passes.

Started by run.py, never by hand.  Protocol on stdout: one line
"READY <k0> <k1>" once set-up is done (run.py times set-up up to that line;
k0 and k1 are the seconds of the speed kernel run at the start and the end
of set-up), then, unless ``--probe`` asked for set-up only, one line
"RESULT <json>" at the end.
Everything the package prints is captured inside the items.  The measured
passes run under a speed.Speedometer, so every item and pass has a raw
wall-clock time and a time in reference seconds; the traced pass runs
under its timer only, for a pass time in reference seconds.

Exit codes: 0 when a result was printed, 3 when the package cannot be
imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

from speed import Speedometer, sample

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("linalg", "groups", "algebra", "extensions", "catalog", "descent",
           "analysis", "polyform", "cli")


def import_package():
    """The hopfgalois modules of this checkout, or exit 3."""
    sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("hopfgalois")
        mods = {name: importlib.import_module(f"hopfgalois.{name}") for name in MODULES}
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import hopfgalois from {SRC}: {exc}\n")
        sys.exit(3)
    where = os.path.realpath(pkg.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"perfbench: hopfgalois was imported from {where}, not from {SRC}\n")
        sys.exit(3)
    return SimpleNamespace(**mods)


def stamp(m, seed):
    Q = m.linalg.Q
    return {
        "backend": f"{Q.__module__}.{Q.__qualname__}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "HGL_CLOSURE_BOUND": os.environ.get("HGL_CLOSURE_BOUND"),
    }


def pass_count(workload, seconds):
    """Passes that fill `seconds` at the workload's nominal pass time.

    The count depends on --seconds only, never on how fast this commit or
    machine runs, so both sides of a comparison do the same work and the
    tail percentile is taken over the same number of items.
    """
    return max(1, round(seconds / workload.pass_s))


def run_passes(workload, m, rec, passes):
    """[(raw seconds, reference seconds)] per pass, timed under a speedometer.

    A pass's reference time is the sum of its items' reference times plus
    the time between items (output checks) at the pass's mean speed: drift
    within a pass then weighs each item at the speed it ran at.
    """
    meter = rec.meter = Speedometer()
    walls = []
    meter.start()
    try:
        for _ in range(passes):
            start, first = meter.mark(), len(rec.timings)
            workload.run_pass(m, rec)
            raw, ref = meter.span(start, meter.mark())
            items = rec.timings[first:]
            gap = raw - sum(item[1] for item in items)
            walls.append((raw, sum(item[2] for item in items) + gap * ref / raw))
    finally:
        meter.stop()
        rec.meter = None
    return walls, len(meter.samples), meter.overhead


def traced_pass(workload, m, rec, out_dir, tag):
    """Set up and run one pass again under the tracer; write its spans.

    Returns the pass's (raw seconds, reference seconds).  The speed timer
    runs during the pass, without item probes; its samples fall inside
    the tracer's spans, adding about 1 % to their times.
    """
    from tracer import Tracer
    tracer = Tracer()
    meter = Speedometer()
    rec.on_item = tracer.set_item
    tracer.install()
    origin = perf_counter()
    try:
        tracer.set_item("setup")
        workload.setup(m)
        meter.probe()
        start = meter.mark()
        meter.start()
        try:
            workload.run_pass(m, rec)
        finally:
            meter.stop()
        end = meter.mark()
        meter.probe()
        wall = meter.span(start, end, pad=1)
    finally:
        tracer.uninstall()
        rec.on_item = None
    with open(os.path.join(out_dir, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"missing_targets": tracer.missing, "dropped_spans": tracer.dropped_spans,
                   "fields": ["id", "name", "start_s", "end_s", "parent", "item"],
                   "spans": tracer.span_records(origin)}, fh)
    return wall, tracer


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--probe", action="store_true", help="set up, report READY, exit")
    args = ap.parse_args(argv)
    before = sample()

    from workloads import WORKLOADS, Recorder

    m = import_package()
    m.workdir = args.out_dir
    workload = WORKLOADS[args.workload](args.seed, args.size)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    workload.setup(m)
    print(f"READY {before!r} {sample()!r}", flush=True)
    if args.probe:
        return 0

    rec = Recorder(reference)
    walls, samples, overhead = run_passes(workload, m, rec, pass_count(workload, args.seconds))
    result = {
        "stamp": stamp(m, args.seed),
        "inputs": workload.describe(),
        "walls": walls,
        "speed_samples": samples,
        "speed_overhead_s": overhead,
        "items": list(rec.timings),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        tag = f"{args.workload}-seed{args.seed}"
        (wall, wall_ref), tracer = traced_pass(workload, m, rec, args.out_dir, tag)
        layers = tracer.metrics()
        layers["trace.overhead_s"] = wall_ref - statistics.median(ref for _, ref in walls)
        result.update(traced_wall=wall, traced_wall_norm=wall_ref, layers=layers,
                      missing_targets=tracer.missing)
    result.update(attempted=rec.attempted, failed=rec.failed, digests_checked=rec.checked,
                  failures=[rec.failures[k] for k in sorted(rec.failures)][:20])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
