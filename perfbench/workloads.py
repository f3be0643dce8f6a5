"""The benchmark's workloads: seeded inputs, timed items and reference digests.

A workload turns a seed into a fixed list of inputs (one "pass"), then runs
that pass item by item through a Recorder.  An item is one user-visible
operation: one structure's descent battery, one in-process CLI
invocation, or one root-finding check.  Every item is checked twice: by the
verdict the program itself returns, and by a digest of its canonical output
compared with the digest recorded at the baseline commit in reference.json.

Nothing here imports hopfgalois.  The child process imports the package from
the checkout under test and passes its modules in as ``m``; items look every
function up through ``m.<module>.<name>`` at call time, so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from time import perf_counter


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canon(obj):
    """JSON with every rational (or other scalar object) rendered by str()."""
    def conv(x):
        if x is None or isinstance(x, (bool, int, str)):
            return x
        if isinstance(x, dict):
            return {str(k): conv(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        return str(x)
    return json.dumps(conv(obj), sort_keys=True, separators=(",", ":"))


def _field(report, key):
    """A report entry, whether the report is a dict or an object."""
    return report[key] if isinstance(report, dict) else getattr(report, key)


def _checks(report):
    """(name, verdict) pairs of an iterable check report."""
    out = []
    for entry in report:
        if isinstance(entry, tuple):
            out.append((entry[0], bool(entry[1])))
        else:
            out.append((entry.name, bool(entry.passed)))
    return out


class ItemFailed(Exception):
    """Raised by Recorder.item after recording an exception as a failure."""


class Recorder:
    """Times items, counts attempts and failures, checks digests.

    ``reference`` maps item keys to digests for this workload.  A digest
    mismatch, a missing reference, a false verdict or an exception marks
    the item failed; an item counts as failed at most once.
    """

    def __init__(self, reference, on_item=None):
        self.reference = reference
        self.on_item = on_item
        self.meter = None
        self.timings = []
        self.attempted = 0
        self.failures = {}
        self.digests = {}
        self.checked = 0

    def item(self, name, fn):
        """Run and time one item; record (name, raw seconds, reference seconds).

        With a speedometer (speed.Speedometer, started by the caller) a
        kernel probe runs just before and after the item, outside its time,
        and the reference seconds use those probes and the timer samples
        taken during the item.  Without one both times are the raw time.
        """
        self.attempted += 1
        if self.on_item is not None:
            self.on_item(f"{self.attempted}:{name}")
        meter = self.meter
        if meter is not None:
            meter.probe()
            start = meter.mark()
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any exception is a failed item, not a crash
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise ItemFailed(name) from exc
        finally:
            raw = perf_counter() - t0
            if meter is not None:
                end = meter.mark()
                meter.probe()
                raw, ref = meter.span(start, end, pad=1)
            self.timings.append((name, raw, raw if meter is None else ref))
        return out

    def fail(self, reason, index=None):
        self.failures.setdefault(self.attempted if index is None else index, reason)

    def expect(self, ok, reason, index=None):
        if not ok:
            self.fail(reason, index)

    def check_digest(self, key, text, index=None):
        """Compare the digest of `text` with the reference digest of `key`."""
        self.checked += 1
        want = self.reference.get(key)
        got = self.digests[key] = sha256(text)
        if want is None:
            self.fail(f"{key}: no reference digest", index)
        elif got != want:
            self.fail(f"{key}: digest {got[:12]} != reference {want[:12]}", index)
        return got

    @property
    def failed(self):
        return len(self.failures)


# -- descend_p13 -----------------------------------------------------------------

def render_hopf(H, checks):
    """Canonical text of a descended Hopf algebra and its check list.

    Built from the presentation's behaviour (mul, unit, comul_terms,
    counit_of, antipode_of, provenance basis columns), not its storage.
    """
    n = H.dim
    e = [H.basis_vector(k) for k in range(n)]
    basis = H.provenance.basis
    return _canon({
        "dim": n,
        "prod": [[list(H.mul(e[i], e[j])) for j in range(n)] for i in range(n)],
        "unit": list(H.unit),
        "comul": [sorted([list(k), v] for k, v in H.comul_terms(k).items())
                  for k in range(n)],
        "counit": [H.counit_of(e[k]) for k in range(n)],
        "antipode": [list(H.antipode_of(e[k])) for k in range(n)],
        "basis": [list(basis.column(j)) for j in range(basis.cols)],
        "checks": checks,
    })


class DescendWorkload:
    """The full descent battery on the split model at one prime.

    Three structures per pass: rho, lambda and N_c with c drawn from the
    seed.  One item is one structure's verified report: the seven library
    calls that ``hopfgalois descend`` makes (group_algebra, descend,
    hopf_axiom_report, verify_hopf_galois, base_change_is_group_algebra,
    measuring_report, explicit_basis_matches), run directly because the CLI
    caps descent at p <= 7.  The tracer splits the item by call.
    """

    name = "descend_p13"
    pass_s = 36.0

    def __init__(self, seed, size):
        self.p = 13 if size == "full" else 5
        c = random.Random(seed).randrange(self.p)
        self.labels = ["rho", "lambda", f"N{c}"]

    def describe(self):
        return {"p": self.p, "structures": self.labels}

    def pool(self):
        return ["rho", "lambda"] + [f"N{c}" for c in range(self.p)]

    def key(self, label):
        return f"p{self.p}:{label}"

    def setup(self, m):
        self.L = m.extensions.split_model(m.groups.dihedral(self.p))
        self.entries = {e.label: e for e in m.catalog.catalog(self.p)}

    def run_pass(self, m, rec):
        for label in self.labels:
            try:
                self.run_unit(m, rec, label)
            except ItemFailed:
                pass

    def run_unit(self, m, rec, label):
        p, L, entry = self.p, self.L, self.entries[label]
        d = m.descent
        if label == "rho":
            kind, gen = "classical", None
        elif label == "lambda":
            kind, gen = "translation", None
        else:
            kind, gen = "cyclic", m.catalog.cyclic_generator(p, int(label[1:]))

        def battery():
            H = d.descend(d.group_algebra(L, entry.subgroup), label=label)
            return (H, m.algebra.hopf_axiom_report(H), d.verify_hopf_galois(H),
                    d.base_change_is_group_algebra(H), d.measuring_report(H),
                    d.explicit_basis_matches(H, kind, gen=gen))

        H, axioms, hg, bc, meas, eb = rec.item(label, battery)
        rec.expect(axioms.passed, f"{label}: Hopf axioms failed")
        rec.expect(hg.passed, f"{label}: j has rank {hg.rank} of {hg.expected}")
        rec.expect(bc is True, f"{label}: base change is not L[N]")
        rec.expect(meas.passed, f"{label}: measuring failed")
        rec.expect(eb is True, f"{label}: explicit {kind} basis differs")
        checks = [[f"axiom:{name}", ok] for name, ok in _checks(axioms)]
        checks.append(["action-bijective", hg.passed, hg.rank, hg.expected])
        checks.append(["base-change-recovers-group-algebra", bc])
        checks += [[name, ok] for name, ok in _checks(meas)]
        checks.append([f"explicit-basis-{kind}", eb])
        rec.check_digest(self.key(label), render_hopf(H, checks))


# -- cli_mix ---------------------------------------------------------------------

README_COMMANDS = (
    "catalog --p 13",
    "enumerate --group d3 --json",
    "descend --p 3 --structure lambda --field cubic:2",
    "descend --p 7 --structure N3 --field split --json",
    "classify --field cubic:2 --json --out report.json",
)
NON_CUBES = ("2", "3", "5", "6", "7", "1/2")


def _both(cmd):
    return [cmd, cmd + " --json"]


def cli_strata(size):
    """(name, members, calls, repeats) per stratum of the CLI pool.

    Each pass draws ``calls - repeats`` distinct members of a stratum and
    ``repeats`` repeats of those, so every seed gives the same cost mix and
    the same share of repeated commands.
    """
    descend3 = {s: [c for v in NON_CUBES for c in _both(
        f"descend --p 3 --structure {s} --field cubic:{v}")]
        for s in ("rho", "lambda", "N0", "N1", "N2")}
    descend5 = {s: _both(f"descend --p 5 --structure {s} --field split")
                for s in ("rho", "lambda", "N0", "N1", "N2", "N3", "N4")}
    descend7 = [c for s in ("rho", "lambda") + tuple(f"N{c}" for c in range(7))
                for c in _both(f"descend --p 7 --structure {s} --field split")]
    classify = [c for v in NON_CUBES for c in _both(f"classify --field cubic:{v}")]
    classify.append(README_COMMANDS[4])
    if size == "tiny":
        return [("catalog p3", _both("catalog --p 3"), 2, 0),
                ("enumerate klein4", _both("enumerate --group klein4"), 2, 1),
                ("descend p3 rho", descend3["rho"], 1, 0),
                ("classify", classify, 1, 0)]
    # Sizes put about a sixth of the calls below the 40-115 ms cluster of
    # p = 3 descents and a third above it, so the median call falls inside
    # it.  With two passes (116 calls) the tail, p91, falls in the middle of
    # the fourteen p = 5 descents, below the four p = 7 ones: an order
    # statistic inside a cluster is steadier than one at its edge.  The
    # p = 5 structures differ in cost, so each pass has every one once.
    strata = [(f"catalog p{p}", _both(f"catalog --p {p}"), calls, calls - 2)
              for p, calls in ((3, 2), (5, 3), (7, 3), (11, 2), (13, 2))]
    strata += [("enumerate d3", _both("enumerate --group d3"), 2, 1),
               ("enumerate klein4", _both("enumerate --group klein4"), 4, 2)]
    strata += [(f"descend p3 {s}", cmds, 5, 1) for s, cmds in descend3.items()]
    strata += [(f"descend p5 {s}", cmds, 1, 0) for s, cmds in descend5.items()]
    strata += [("descend p7", descend7, 2, 0), ("classify", classify, 6, 1)]
    return strata


def cli_pool():
    return sorted({c for size in ("full", "tiny") for _, members, _, _ in cli_strata(size)
                   for c in members})


class CliWorkload:
    """A seeded sequence of in-process ``hopfgalois.cli.main(argv)`` calls."""

    name = "cli_mix"
    pass_s = 10.0

    def __init__(self, seed, size):
        rng = random.Random(seed)
        seq = []
        for _, members, calls, repeats in cli_strata(size):
            distinct = rng.sample(members, calls - repeats)
            seq += distinct + [rng.choice(distinct) for _ in range(repeats)]
        rng.shuffle(seq)
        self.commands = seq
        self.repeat_share = 1 - len(set(seq)) / len(seq)

    def describe(self):
        return {"calls": len(self.commands), "repeat_share": self.repeat_share,
                "commands": self.commands}

    def setup(self, m):
        self.workdir = m.workdir

    def run_pass(self, m, rec):
        for cmd in self.commands:
            try:
                self.run_unit(m, rec, cmd)
            except ItemFailed:
                pass

    def run_unit(self, m, rec, cmd):
        argv = cmd.split()
        out_path = None
        if "--out" in argv:
            k = argv.index("--out") + 1
            out_path = argv[k] = os.path.join(self.workdir, argv[k])
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return m.cli.main(argv)

        rc = rec.item(cmd, call)
        rec.expect(rc == 0, f"{cmd}: exit code {rc}: {stderr.getvalue().strip()[:200]}")
        rec.check_digest(cmd, self.report_text(stdout, out_path))

    @staticmethod
    def report_text(stdout, out_path):
        if out_path is None:
            return stdout.getvalue()
        with open(out_path, encoding="utf-8") as fh:
            return fh.read()


# -- roots_bitsize ---------------------------------------------------------------

# b = -3 (m/n)^2 makes rational_roots factor 9 m^2, a 17..25-bit integer; the
# four primes of a band sit closest to the middle of their bit band, so any
# draw from a band costs about the same.
BANDS = {
    17: (97, 101, 103, 107),
    19: (193, 197, 199, 211),
    21: (397, 401, 409, 419),
    22: (563, 569, 571, 577),
    23: (809, 811, 821, 823),
    24: (1129, 1151, 1153, 1163),
    25: (1613, 1619, 1621, 1627),
}
DENOMINATORS = (1, 2, 5, 7)
# One draw per band and three each from the 23- and 24-bit bands: with three
# passes the median item falls among nine 23-bit items and the tail (ten
# items beyond it) among nine 24-bit ones, away from the neighbouring bands.
PASS_BANDS = (17, 19, 21, 22, 23, 23, 23, 24, 24, 24, 25)


def render_roots(report, scaling):
    return _canon({
        "points": [list(pt) for pt in _field(report, "points")],
        "evaluations_are_homomorphisms": _field(report, "evaluations_are_homomorphisms"),
        "points_distinct": _field(report, "points_distinct"),
        "evaluation_rank": _field(report, "evaluation_rank"),
        "wedderburn_summary": _field(report, "wedderburn_summary"),
        "units_match_lagrange": _field(report, "units_match_lagrange"),
        "passed": _field(report, "passed"),
        "scaling": [list(scaling.column(j)) for j in range(scaling.cols)],
    })


class RootsWorkload:
    """Polynomial-form checks at b = -3 (m/n)^2, (m, n) drawn per bit band."""

    name = "roots_bitsize"
    pass_s = 7.0

    def __init__(self, seed, size):
        rng = random.Random(seed)
        bands = PASS_BANDS if size == "full" else PASS_BANDS[:2]
        self.inputs = [(rng.choice(BANDS[bits]), rng.choice(DENOMINATORS)) for bits in bands]
        rng.shuffle(self.inputs)

    def describe(self):
        return {"inputs": [self.key(mn) for mn in self.inputs]}

    @staticmethod
    def pool():
        return [(mm, n) for bits in sorted(BANDS) for mm in BANDS[bits] for n in DENOMINATORS]

    @staticmethod
    def key(mn):
        return f"b=-3*{mn[0]}^2/{mn[1]}^2"

    def setup(self, m):
        self.values = [m.linalg.rational(-3 * mm * mm, n * n) for mm, n in self.inputs]

    def run_pass(self, m, rec):
        for mn, b in zip(self.inputs, self.values):
            try:
                self.run_unit(m, rec, mn, b)
            except ItemFailed:
                pass

    def run_unit(self, m, rec, mn, b):
        key = self.key(mn)
        pf = m.polyform

        def call():
            return pf.point_decomposition_check(b), pf.scaling_invariance_check(b)

        report, scaling = rec.item(key, call)
        rec.expect(_field(report, "passed") is True, f"{key}: point decomposition failed")
        rec.check_digest(key, render_roots(report, scaling))


WORKLOADS = {w.name: w for w in (DescendWorkload, CliWorkload, RootsWorkload)}
