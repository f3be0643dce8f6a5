"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cli_mix --seeds 1-10
    python3 perfbench/spread.py --workload cli_mix --seeds 1-10 --write-baseline

For every end-to-end metric it prints the median of the runs, the first
and third quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1)
divided by the median, next to the metric's bound from BENCHMARK.json,
and the same figures for the raw wall-clock times of the result files.
``--write-baseline`` stores these figures, with the run stamp, under the
workload in perfbench/baseline.json, which run.py compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# The raw wall-clock figures of a result file, by the name run.py prints.
RAW_NAMES = {"wall": "wall_s", "p50": "item_p50_s", "tail": "item_tail_s"}


def summarise(values):
    """Median, quartiles and spread of each list in `values`."""
    table = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                       "runs": len(vals)}
    return table


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values, raw, stamp = {}, {}, None
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stdout}")
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        path = os.path.join(ROOT, ".perfbench_out", f"result-{args.workload}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            detail = json.load(fh)
        raw.setdefault("setup_raw_s", []).append(
            statistics.median(setup for setup, _ in detail["setup_samples"]))
        for k, v in detail["raw"].items():
            raw.setdefault(RAW_NAMES[k], []).append(v)
        stamp_line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("stamp "))
        stamp = json.loads(stamp_line[len("stamp "):])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, wall_clock = summarise(values), summarise(raw)
    for name, row in table.items():
        flag = "" if name == "setup_s" or row["spread"] < bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:16s} median {row['median']:.5g}  q1 {row['q1']:.5g}  q3 {row['q3']:.5g}  "
              f"spread {row['spread']:.4f}  bound {bounds[name]}{flag}")
    for name, row in wall_clock.items():
        print(f"{name:16s} median {row['median']:.5g}  spread {row['spread']:.4f}  (wall clock)")

    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        baseline = {"workloads": {}}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                baseline = json.load(fh)
        stamp.pop("seed", None)
        baseline["stamp"] = stamp
        baseline["workloads"][args.workload] = {"seeds": args.seeds, "run_seconds": seconds,
                                                **table, "wall_clock": wall_clock}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
