"""Command line interface.

Four subcommands, all exact and deterministic:

  catalog    list the p+2 regular normalized subgroups for a supported prime
  enumerate  exhaustively enumerate regular normalized subgroups (small groups)
  descend    build one descended Hopf algebra and run its verification battery
  classify   full p = 3 classification over a cubic splitting field

Every command emits a report whose ``checks`` entry is a CheckReport of
Check(name, passed, detail) records.  The exit code is 0 when all checks
pass, 1 when any fails or a CheckFailed stops the command (one ``failed:``
line on stderr, no report), and 2 on usage errors: bad arguments or an
``--out`` file that cannot be written.  ``--json`` switches to a stable
JSON rendering, ``--out`` writes the rendered report to a file instead of
stdout.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections import Counter

from .algebra import Check, CheckFailed, CheckReport
from .analysis import (algebra_iso_classes_p3, descend_catalog, hopf_iso_classes,
                       minimal_splitting_subfield_check)
from .catalog import (SUPPORTED_PRIMES, catalog, catalog_checks, completeness_check_p3,
                      cyclic_generator, matches_catalog)
from .descent import descend_and_verify
from .extensions import rational_square_of, split_model, splitting_field_cubic
from .groups import (closure, dihedral, elementary_abelian_4,
                     enumerate_regular_normalized, iso_type)
from .linalg import rational
from .polyform import (PolyHopfAlgebra, PolyMapError, check_iso_to_descended,
                       point_decomposition_check, scaling_invariance_check)

# Most digits a 'cubic:<v>' spec may give the numerator or denominator of v:
# descent takes seconds at the limit, and building v grows without bound past it.
MAX_CUBIC_DIGITS = 100_000


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose error messages show each argument of more
    than 40 characters, or the value after its '=', by `_shown`."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        long = {text for arg in self._args for text in (arg, arg.partition("=")[2]) if len(text) > 40}
        for text in sorted(long, key=len, reverse=True):
            message = message.replace(repr(text), _shown(text)).replace(text, _shown(text))
        super().error(message)


# -- report assembly -----------------------------------------------------------

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Check):
        return obj._asdict()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def render_json(report):
    import json  # here, not at module level, so only a JSON rendering loads it

    return _json(_jsonable(report), json.dumps) + "\n"


def _json(value, dumps, pad="\n"):
    """json.dumps(value, indent=2, sort_keys=True) by plain recursion, with
    `dumps` json.dumps: the stdlib's indenting encoder is closures that
    reference one another, so every call of it would leave reference cycles
    behind."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{dumps(k)}: {_json(value[k], dumps, inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, list) and value:
        return "[" + inner + ("," + inner).join(_json(v, dumps, inner) for v in value) + pad + "]"
    if type(value) is int:  # not a bool, which json.dumps spells true/false
        return str(value)
    return dumps(value)  # any other scalar, {} or []


def _render_value(value, indent, lines):
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_value(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        scalars = all(not isinstance(v, (dict, list)) for v in value)
        if scalars and all("," not in str(v) and " " not in str(v) for v in value):
            lines.append(f"{pad}[{', '.join(str(v) for v in value)}]")
        elif scalars:
            for v in value:
                lines.append(f"{pad}- {v}")
        else:
            for v in value:
                if isinstance(v, list) and all(
                        not isinstance(x, (dict, list)) for x in v):
                    lines.append(f"{pad}- [{', '.join(str(x) for x in v)}]")
                elif isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    _render_value(v, indent + 1, lines)
                else:
                    lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")


def render_text(report):
    lines = [f"command: {report['command']}"]
    for k, v in report["inputs"].items():
        lines.append(f"  {k}: {v}")
    lines.append("results:")
    _render_value(_jsonable(report["results"]), 1, lines)
    lines.append("checks:")
    for c in report["checks"]:
        mark = "PASS" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"  [{mark}] {c.name}{detail}")
    lines.append(f"overall: {'PASS' if report['checks'].passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


# -- shared parsing ------------------------------------------------------------

def _parse_prime(p, allowed, what):
    if p not in allowed:
        raise UsageError(f"{what} supports p in {allowed}, got {_shown(str(p))}")
    return p


def _parse_field(spec, p):
    if spec == "split":
        return split_model(dihedral(p))
    if spec.startswith("cubic:"):
        if p != 3:
            raise UsageError("cubic splitting fields describe degree-6 extensions; use p = 3")
        raw = spec[len("cubic:"):]
        if max(_numeral_digits(raw)) > MAX_CUBIC_DIGITS:
            raise UsageError(f"v would have more than {MAX_CUBIC_DIGITS} digits "
                             "in its numerator or denominator")
        limit = sys.get_int_max_str_digits()
        if limit and max(map(len, re.findall(r"\d+", raw)), default=0) > limit:
            raise UsageError(f"v is written with a run of more than {limit} digits, Python's limit "
                             "for reading an integer; write it in exponent notation, such as 2e5000")
        try:
            v = rational(raw)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse {_shown(raw)} as a rational number")
        try:
            return splitting_field_cubic(v)
        except ValueError as exc:
            raise UsageError(str(exc))
    raise UsageError(f"unknown field spec {_shown(spec)}; expected 'cubic:<v>' or 'split'")


def _shown(text):
    """repr of user text, cut to its first 40 characters plus its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _numeral_digits(raw):
    """Upper bounds on the digits of the numerator and of the denominator of
    the rational written `raw`, read from the text before any integer is built."""
    num, _, den = raw.partition("/")
    mantissa, _, exponent = num.lower().partition("e")
    fraction = mantissa.partition(".")[2]
    try:
        shift = int(exponent)
    except ValueError:  # no exponent, or one that rational() rejects too
        shift = 0
    return (sum(map(str.isdigit, mantissa)) + max(shift, 0),
            sum(map(str.isdigit, den + fraction)) + max(-shift, 0) + 1)


def _ln_string(A, entries):
    terms = [f"({c})*{A.names[idx]}" for idx, c in sorted(entries.items())]
    return " + ".join(terms) if terms else "0"


# -- subcommands ---------------------------------------------------------------

def cmd_catalog(args):
    p = _parse_prime(args.p, SUPPORTED_PRIMES, "catalog")
    entries = catalog(p)
    results = {
        "p": p,
        "count": len(entries),
        "entries": [
            {
                "label": e.label,
                "iso_type": e.iso_label,
                "order": e.subgroup.degree,
                "elements": [list(perm.images) for perm in e.subgroup.elements],
            }
            for e in entries
        ],
    }
    checks = catalog_checks(p, entries)
    if p == 3:
        checks.add("matches-exhaustive-enumeration", completeness_check_p3())
    return {"command": "catalog", "inputs": {"p": p}, "results": results, "checks": checks}


def cmd_enumerate(args):
    if args.group == "d3":
        G = dihedral(3)
        expected_count, expected_census = 5, {"C6": 3, "D3": 2}
    else:
        G = elementary_abelian_4()
        expected_count, expected_census = 4, {"C2xC2": 1, "C4": 3}
    subs = enumerate_regular_normalized(G)
    census = Counter(iso_type(N) for N in subs)
    # regenerate each subgroup from its greedy generators; they lie in N, so the
    # closure cannot grow past N.order
    reproduced = True
    for N in subs:
        gens = [N.elements[t] for t in N.group.generators]
        if tuple(g.images for g in closure(gens, N.order).elements) != tuple(
                sorted(g.images for g in N.elements)):
            reproduced = False
    results = {
        "group": args.group,
        "count": len(subs),
        "census": dict(sorted(census.items())),
        "subgroups": [
            {"iso_type": iso_type(N),
             "elements": [list(perm.images) for perm in N.elements]}
            for N in subs
        ],
    }
    checks = CheckReport()
    checks.add("count", len(subs) == expected_count,
               f"found {len(subs)}, expected {expected_count}")
    checks.add("census", dict(census) == expected_census,
               f"found {dict(sorted(census.items()))}")
    checks.add("closure-regenerates", reproduced)
    if args.group == "d3":
        checks.add("matches-catalog", matches_catalog(3, subs))
    return {"command": "enumerate", "inputs": {"group": args.group},
            "results": results, "checks": checks}


def cmd_descend(args):
    p = _parse_prime(args.p, SUPPORTED_PRIMES, "descend")
    L = _parse_field(args.field, p)
    entries = {e.label: e for e in catalog(p)}
    if args.structure not in entries:
        raise UsageError(
            f"unknown structure {_shown(args.structure)}; choose from {sorted(entries)}")
    entry = entries[args.structure]
    H, checks = descend_and_verify(L, entry)
    results = {
        "p": p,
        "structure": entry.label,
        "structure_type": entry.iso_label,
        "field": args.field,
        "dim": H.dim,
        "commutative": H.is_commutative(),
        "cocommutative": H.is_cocommutative(),
        "basis": [_ln_string(H.provenance.parent, H.provenance.basis.column_entries(j))
                  for j in range(H.dim)],
    }
    return {"command": "descend",
            "inputs": {"p": p, "structure": args.structure, "field": args.field},
            "results": results, "checks": checks}


def cmd_classify(args):
    p = _parse_prime(args.p, (3,), "classify")
    if not args.field.startswith("cubic:"):
        raise UsageError("classification runs over a cubic splitting field; use --field cubic:<v>")
    L = _parse_field(args.field, p)

    descended = descend_catalog(p, L)
    hopf = hopf_iso_classes(descended)
    algebra_classes, wedder = algebra_iso_classes_p3(descended)
    splitting = minimal_splitting_subfield_check(L)

    b = rational_square_of(L, L.sqrt_witness)
    P = PolyHopfAlgebra(b)
    pd = point_decomposition_check(b)

    poly_results = {"b": b, "points": [(x, y) for x, y in pd["points"]]}
    checks = CheckReport()
    for cls, want in ((hopf.class_of("rho"), ["rho"]),
                      (hopf.class_of("lambda"), ["lambda"]),
                      (hopf.class_of("N0"), ["N0", "N1", "N2"])):
        checks.add(f"hopf-class-{want[0]}", cls == want, f"{cls}")
    checks.add("hopf-class-count", len(hopf.classes) == 3,
               f"{len(hopf.classes)} classes")
    ev = hopf.evidence[("rho", "lambda")]
    sample = ev.certificate[0] if ev.certificate else None
    checks.add("rho-lam-not-hopf-isomorphic",
               not ev.isomorphic and bool(ev.certificate),
               f"{ev.isos_tested} group isomorphisms rejected; "
               f"sample failure {sample[1] if sample else None}")
    want_algebra = sorted([sorted(c) for c in (["lambda", "rho"], ["N0", "N1", "N2"])])
    got_algebra = sorted([sorted(c) for c in algebra_classes])
    checks.add("algebra-class-count", got_algebra == want_algebra,
               f"{got_algebra}")
    six_fields = tuple([(1, 1, "field")] * 6)
    for c in ("N0", "N1", "N2"):
        checks.add(f"wedderburn-{c}-six-fields",
                   wedder[c].summary() == six_fields,
                   f"{wedder[c].summary()}")
    matrix_summary = ((1, 1, "field"), (1, 1, "field"), (4, 1, "matrix2_over_center"))
    for lab in ("rho", "lambda"):
        checks.add(f"wedderburn-{lab}-group-algebra-type",
                   wedder[lab].summary() == matrix_summary,
                   f"{wedder[lab].summary()}")
    checks.add("no-proper-splitting-subfield", splitting["passed"],
               f"center trivial: {splitting['center_trivial']}")
    checks.add("polyform-points", pd["passed"],
               f"rank {pd['evaluation_rank']}, units match: {pd['units_match_lagrange']}")
    # over the one L, check_iso_to_descended reads only H's matrices and basis,
    # N.group and the slot of gen: the N_c of descend_catalog share all of
    # them, gen_c sitting at slot 1 of each, so the check runs once
    verdicts = {}
    for c in (0, 1, 2):
        H, gen = descended[f"N{c}"], cyclic_generator(3, c)
        N = H.provenance.parent.N
        key = (H.mult, H.unit, H.comul, H.counit, H.antipode, H.provenance.basis,
               N.group, N.index_of(gen))
        if key not in verdicts:
            try:
                check_iso_to_descended(P, H, gen)
                verdicts[key] = None
            except PolyMapError as exc:
                verdicts[key] = exc.identity
        checks.add(f"polyform-iso-N{c}", verdicts[key] is None, verdicts[key])
    try:
        scaling_invariance_check(b)
        checks.add("polyform-scaling-4b", True)
    except (PolyMapError, ValueError) as exc:
        checks.add("polyform-scaling-4b", False, str(exc))

    results = {
        "p": p,
        "field": args.field,
        "hopf_classes": hopf.classes,
        "algebra_classes": algebra_classes,
        "wedderburn": {lab: [list(k) for k in rep.summary()]
                       for lab, rep in sorted(wedder.items())},
        "splitting_subfields": splitting["records"],
        "polyform": poly_results,
    }
    return {"command": "classify",
            "inputs": {"p": p, "field": args.field},
            "results": results, "checks": checks}


# -- entry point ---------------------------------------------------------------

@functools.cache
def build_parser():
    parser = _ArgumentParser(
        prog="hopfgalois",
        description="Exact Hopf-Galois structures on dihedral extensions of degree 2p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--out", metavar="FILE", help="write the report to FILE")

    sp = sub.add_parser("catalog", help="list the p+2 structures for a prime")
    sp.add_argument("--p", type=int, required=True)
    add_common(sp)
    sp.set_defaults(handler=cmd_catalog)

    sp = sub.add_parser("enumerate", help="exhaustive regular normalized subgroups")
    sp.add_argument("--group", choices=("d3", "klein4"), required=True)
    add_common(sp)
    sp.set_defaults(handler=cmd_enumerate)

    sp = sub.add_parser("descend", help="descend one structure and verify it")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--structure", required=True, metavar="LABEL",
                    help="rho, lambda, or N<c>")
    sp.add_argument("--field", required=True, metavar="SPEC",
                    help="cubic:<v> (p=3) or split")
    add_common(sp)
    sp.set_defaults(handler=cmd_descend)

    sp = sub.add_parser("classify", help="full p=3 classification")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--field", required=True, metavar="SPEC", help="cubic:<v>")
    add_common(sp)
    sp.set_defaults(handler=cmd_classify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    rendered = render_json(report) if args.json else render_text(report)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report["checks"].passed else 1


if __name__ == "__main__":
    sys.exit(main())
