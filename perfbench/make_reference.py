"""Record reference digests for every item of every workload's input pool.

    python3 perfbench/make_reference.py

Run once, at the commit the benchmark is baselined on; the digests then
pin the outputs (descended Hopf algebras with their check lists, exact CLI
report bytes, polynomial-form reports) that every later commit must
reproduce.  Items whose own checks fail are not recorded: the script
exits 1 instead.  Writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from child import HERE, import_package
from workloads import CliWorkload, DescendWorkload, Recorder, RootsWorkload, cli_pool


def record(workload, m, times):
    rec = Recorder({})
    t0 = perf_counter()
    workload.setup(m)
    workload.run_pass(m, rec)
    times[workload.name] = times.get(workload.name, 0.0) + perf_counter() - t0
    real = [r for r in rec.failures.values() if "no reference digest" not in r]
    if real:
        sys.exit("own checks failed, not recording:\n" + "\n".join(real))
    return rec.digests


def main():
    m = import_package()
    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    m.workdir = out_dir
    times = {}
    reference = {"descend_p13": {}, "cli_mix": {}, "roots_bitsize": {}}
    for size in ("tiny", "full"):
        w = DescendWorkload(0, size)
        w.labels = w.pool()
        reference["descend_p13"].update(record(w, m, times))
    w = CliWorkload(0, "tiny")
    w.commands = cli_pool()
    reference["cli_mix"].update(record(w, m, times))
    w = RootsWorkload(0, "full")
    w.inputs = RootsWorkload.pool()
    reference["roots_bitsize"].update(record(w, m, times))
    for name, table in reference.items():
        reference[name] = dict(sorted(table.items()))
        print(f"{name}: {len(table)} digests in {times[name]:.1f} s")
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
