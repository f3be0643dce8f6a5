"""Self-test of the benchmark itself (not of hopfgalois).

    python3 perfbench/selftest.py

1. A tiny pass of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with fail_ratio 0.
2. Corrupted reports fed to the digest checker count as failed items, and
   the same items pass when left alone.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.
4. Every README example command is in the cli_mix pool.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads
from child import HERE, import_package
from workloads import WORKLOADS, Recorder

ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def run_bench(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_metrics(problems):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                "differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace {trace}: not correct: {proc.stdout[-600:]}")


def corrupt(text):
    return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]


def check_digests(problems):
    m = import_package()
    m.workdir = OUT_DIR
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    originals = (workloads.render_hopf, workloads.render_roots, workloads.CliWorkload.report_text)
    for corrupted in (False, True):
        if corrupted:
            workloads.render_hopf = lambda *a: corrupt(originals[0](*a))
            workloads.render_roots = lambda *a: corrupt(originals[1](*a))
            workloads.CliWorkload.report_text = staticmethod(lambda *a: corrupt(originals[2](*a)))
        try:
            for name, cls in WORKLOADS.items():
                w = cls(7, "tiny")
                w.setup(m)
                rec = Recorder(reference[name])
                w.run_pass(m, rec)
                want = rec.checked if corrupted else 0
                if rec.failed != want or not rec.checked:
                    problems.append(f"{name}: {'corrupted' if corrupted else 'intact'} reports gave "
                                    f"{rec.failed} failed items, expected {want}")
        finally:
            workloads.render_hopf, workloads.render_roots = originals[:2]
            workloads.CliWorkload.report_text = staticmethod(originals[2])


def check_readme_commands(problems):
    missing = set(workloads.README_COMMANDS) - set(workloads.cli_pool())
    if missing:
        problems.append(f"README commands missing from the cli_mix pool: {sorted(missing)}")


def check_bare_directory(problems):
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(bare, "cli_mix", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    problems = []
    for check in (check_readme_commands, check_digests, check_bare_directory, check_metrics):
        before = len(problems)
        check(problems)
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
