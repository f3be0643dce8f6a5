"""Benchmark entry point: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload descend_p13 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports hopfgalois from the
checkout's src/ only.  Each run starts fresh child processes (child.py)
with a pinned environment: HGL_CLOSURE_BOUND unset, PYTHONHASHSEED=0, no
other PYTHON* variables.  Ten children only set up and exit, half before
and half after the measured child; their set-up times and the measured
child's give the median ``setup_s``.  The measured child repeats the
workload's pass a fixed number of times: ``--seconds`` divided by the
workload's nominal pass time, at least once.

With ``--trace 0`` the last line carries the end-to-end metrics, times in
reference seconds (speed.py: wall-clock seconds scaled by the host speed
that a fixed kernel measures around and during the timed work): setup_s,
wall_norm_s (median pass time), item_p50_norm_s and item_tail_norm_s
(per-item latency; the tail is the highest whole percentile with at least
ten samples beyond it, or the slowest item when there are fewer than 20),
and peak_rss_mib.  The raw wall-clock figures (setup_raw_s, wall_s,
item_p50_s, item_tail_s) are printed on the line before and kept in the
result file.  With ``--trace 1`` the child also runs one pass under
the tracer and the last line carries the per-layer metrics plus
trace.overhead_s (traced pass minus median untraced pass, in reference
seconds).

Every item's output is checked against reference.json; ``fail_ratio`` =
failed / attempted is printed with the summary.  The full result, with the
stamp (scalar backend, Python, nproc, seed), goes to
.perfbench_out/result-<workload>-seed<seed>-trace<t>.json.
Exit status: 0 with a result line, 1 when the child fails or overruns,
2 when the checkout holds no src/hopfgalois.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
from time import monotonic

from speed import reference_seconds
from tracer import per_layer_metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("descend_p13", "cli_mix", "roots_bitsize")
SETUP_PROBES = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HGL_CLOSURE_BOUND"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, probe, deadline):
    """Start child.py; return ((raw, reference) set-up seconds, RESULT dict or None).

    The raw set-up time leaves out the two kernel samples the child takes at
    the start and the end of its set-up; their mean speed scales it.
    """
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", OUT_DIR]
    if probe:
        cmd.append("--probe")
    start = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=child_env(), cwd=ROOT)
    try:
        ready = b""
        while not ready.endswith(b"\n"):
            left = deadline - monotonic()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise BenchError("child did not finish set-up before the deadline")
            chunk = os.read(proc.stdout.fileno(), 1)
            if not chunk:
                raise BenchError(f"child exited during set-up (status {proc.wait()})")
            ready += chunk
        setup = monotonic() - start
        try:
            word, *kernel = ready.split()
            kernel = [float(k) for k in kernel]
        except ValueError:
            word = None
        if word != b"READY" or len(kernel) != 2:
            raise BenchError(f"unexpected child output {ready!r}")
        setup -= sum(kernel)
        setup = (setup, reference_seconds(setup, kernel))
        try:
            out, _ = proc.communicate(timeout=max(deadline - monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            raise BenchError("child overran the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited with status {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if probe:
        return setup, None
    lines = [ln for ln in out.decode().splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("child printed no result")
    return setup, json.loads(lines[-1][len("RESULT "):])


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an ascending list, 0 <= q <= 1."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n):
    """Highest whole percentile with at least ten of n samples beyond it.

    Below 20 samples that percentile would not exceed the median, so the
    tail is the slowest item instead.
    """
    return math.floor(100 * (1 - 10 / n)) / 100 if n >= 20 else 1.0


def timings(child):
    """Pass and item medians and tail of one run, for both clocks.

    ``clock`` 0 is raw wall-clock seconds, 1 is reference seconds (speed.py).
    """
    n = len(child["items"])
    q = tail_quantile(n)
    out = []
    for clock in (0, 1):
        lat = sorted(item[1 + clock] for item in child["items"])
        out.append({"wall": statistics.median(w[clock] for w in child["walls"]),
                    "p50": percentile(lat, 0.5), "tail": percentile(lat, q)})
    return out, {"tail_percentile": round(100 * q), "items": n, "passes": len(child["walls"])}


def end_to_end(setups, ref, child):
    """The BENCHMARK.json end-to-end metrics: (value, unit) by name."""
    return {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_norm_s": (ref["wall"], "s"),
        "item_p50_norm_s": (ref["p50"], "s"),
        "item_tail_norm_s": (ref["tail"], "s"),
        "peak_rss_mib": (child["peak_rss_kib"] / 1024, "MiB"),
    }


def load_json(name):
    path = os.path.join(HERE, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_with_baseline(workload, stamp, metrics):
    """Lines comparing this run with baseline.json, or a refusal."""
    baseline = load_json("baseline.json")
    if baseline is None or workload not in baseline.get("workloads", {}):
        return ["no baseline recorded for this workload"]
    base_stamp = baseline["stamp"]
    if stamp["backend"] != base_stamp["backend"]:
        msg = (f"REFUSING TO COMPARE: this run used scalar backend {stamp['backend']}, "
               f"the baseline used {base_stamp['backend']} (about 5x apart)")
        sys.stderr.write("!" * 72 + f"\n{msg}\n" + "!" * 72 + "\n")
        return [msg]
    lines = []
    base = baseline["workloads"][workload]
    for name, (value, unit) in metrics.items():
        if name in base:
            lines.append(f"{name}: {value:.6g} {unit} = {value / base[name]['median']:.3f} x baseline "
                         f"median {base[name]['median']:.6g} (spread {base[name]['spread']:.3f})")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few cheap items per workload, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "hopfgalois", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/hopfgalois under {ROOT}; run from a checkout\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = monotonic() + DEADLINE_S
    try:
        # half the set-up probes before the measured child, half after it
        setups = [run_child(args, True, deadline)[0] for _ in range(SETUP_PROBES // 2)]
        setup, child = run_child(args, False, deadline)
        setups.append(setup)
        setups += [run_child(args, True, deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}: {exc}\n")
        return 1

    (raw, ref), detail = timings(child)
    e2e = end_to_end(setups, ref, child)
    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        metrics = {name: (child["layers"][name], unit)
                   for name, unit in per_layer_metric_units().items()}
    else:
        metrics = e2e
    summary = {
        "workload": args.workload, "size": args.size, "stamp": child["stamp"],
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "failures": child["failures"], **detail,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "raw": raw, "speed_samples": child["speed_samples"],
        "speed_overhead_s": child["speed_overhead_s"],
        "setup_samples": setups, "walls": child["walls"], "inputs": child["inputs"],
        "items": child["items"],
    }
    if args.trace:
        summary.update(traced_wall_s=child["traced_wall"],
                       traced_wall_norm_s=child["traced_wall_norm"], layers=child["layers"],
                       missing_targets=child["missing_targets"])
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} ({args.size}), seed {args.seed}: "
          f"{detail['passes']} pass(es), {detail['items']} timed items")
    print("stamp " + json.dumps(child["stamp"], sort_keys=True))
    if "repeat_share" in child["inputs"]:
        print(f"repeat_share {child['inputs']['repeat_share']:.4f}")
    tail = f" (p{detail['tail_percentile']}, n={detail['items']})"
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}{tail if name == 'item_tail_norm_s' else ''}")
    print(f"wall clock: setup_raw_s {statistics.median(raw for raw, _ in setups):.6g} s, "
          f"wall_s {raw['wall']:.6g} s, "
          f"item_p50_s {raw['p50']:.6g} s, item_tail_s {raw['tail']:.6g} s{tail}; "
          f"{child['speed_samples']} speed samples took {child['speed_overhead_s']:.3g} s")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items; "
          f"{child['digests_checked']} outputs checked against reference digests)")
    for reason in child["failures"]:
        print(f"FAILED {reason}")
    if args.trace:
        print(f"trace.overhead_s {child['layers']['trace.overhead_s']:.6g} s "
              f"(traced pass {child['traced_wall_norm']:.6g} reference s, "
              f"{child['traced_wall']:.6g} s wall clock)")
        for target in child["missing_targets"]:
            print(f"WARNING trace target {target} not found; its metrics read 0")
    for line in compare_with_baseline(args.workload, child["stamp"], e2e):
        print("baseline " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
