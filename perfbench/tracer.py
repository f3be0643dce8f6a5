"""Span and counter recorder for the traced benchmark run.

The tracer wraps the public functions and methods listed in TARGETS at the
attribute where callers look them up: a method on its class, a function in
every hopfgalois module that imported it by name.  Nothing under src/ is
modified on disk and the wrappers are removed again by ``uninstall``.

Each call pushes a frame; on return the call's duration is added to its
target's totals and to the child time of the enclosing frame, so a target's
self time is its duration minus the time covered by traced calls inside it.
``total_s`` counts only the outermost activation of a target, so recursion
is not double counted.  Calls of targets marked hot (many tiny calls) are
counted but produce no span record; all other calls are kept as spans
(name, start, end, parent span, item id) in memory and written out at the
end of the run.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

QUANTITY_UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "cells": "count",
    "density": "ratio", "elements": "count", "max_coeff_bits": "bits",
}


@dataclass(frozen=True)
class Target:
    name: str          # metric prefix <layer>.<function>
    where: str         # "<module>:<function>" or "<module>:<Class>.<method>"
    quantities: tuple  # which of QUANTITY_UNITS this target reports
    moves: str         # the end-to-end metric and workload it should move
    hot: bool = False  # count only, no span records


_LINALG = "wall_norm_s, peak_rss_mib on descend_p13; must not raise item_p50_norm_s on cli_mix"
_DESCENT = "wall_norm_s on descend_p13; item_tail_norm_s on cli_mix"
_SMALL = "item_p50_norm_s on cli_mix"
_ROOTS = "wall_norm_s on roots_bitsize; item_tail_norm_s on cli_mix"

TARGETS = (
    Target("linalg.rref", "linalg:Matrix.rref", ("calls", "self_s", "cells", "density"), _LINALG),
    Target("linalg.from_columns", "linalg:Matrix.from_columns", ("calls", "self_s", "cells"), _LINALG, hot=True),
    Target("linalg.matmul", "linalg:Matrix.__mul__", ("calls", "self_s"), _LINALG, hot=True),
    Target("linalg.apply", "linalg:Matrix.apply", ("calls", "self_s"), _LINALG, hot=True),
    Target("descent.descend", "descent:descend", ("self_s", "total_s"), _DESCENT),
    Target("descent.semilinear_matrix", "descent:SemilinearAction.matrix", ("total_s",), _DESCENT),
    Target("descent.lform_matrix", "descent:lform_matrix", ("total_s",), _DESCENT),
    Target("descent.verify_hopf_galois", "descent:verify_hopf_galois", ("total_s",), _DESCENT),
    Target("descent.measuring_report", "descent:measuring_report", ("total_s",), _DESCENT),
    Target("descent.base_change", "descent:base_change_is_group_algebra", ("total_s",), _DESCENT),
    Target("descent.explicit_basis", "descent:explicit_basis_matches", ("total_s",), _DESCENT),
    Target("descent.group_algebra_mul", "descent:GroupAlgebraOverL.mul", ("calls",), _DESCENT, hot=True),
    Target("algebra.hopf_axiom_report", "algebra:hopf_axiom_report", ("total_s",), _DESCENT),
    Target("algebra.mul", "algebra:Algebra.mul", ("calls",), _DESCENT, hot=True),
    Target("algebra.hopf_map_violation", "algebra:hopf_map_violation", ("calls", "total_s"), _DESCENT),
    Target("groups.enumerate_regular_normalized", "groups:enumerate_regular_normalized", ("total_s",), _SMALL),
    Target("groups.equivariant_iso_search", "groups:equivariant_iso_search", ("calls", "total_s"), _SMALL),
    Target("groups.closure", "groups:closure", ("calls", "elements"), _SMALL),
    Target("catalog.catalog", "catalog:catalog", ("total_s",), _SMALL),
    Target("catalog.catalog_checks", "catalog:catalog_checks", ("total_s",), _SMALL),
    Target("catalog.completeness_check_p3", "catalog:completeness_check_p3", ("total_s",), _SMALL),
    Target("extensions.split_model", "extensions:split_model", ("total_s",), "setup_s"),
    Target("extensions.splitting_field_cubic", "extensions:splitting_field_cubic", ("total_s",), "setup_s"),
    Target("analysis.hopf_iso_classes", "analysis:hopf_iso_classes", ("total_s",), _ROOTS),
    Target("analysis.algebra_iso_classes_p3", "analysis:algebra_iso_classes_p3", ("total_s",), _ROOTS),
    Target("analysis.commutative_wedderburn", "analysis:commutative_wedderburn", ("total_s",), _ROOTS),
    Target("analysis.noncommutative_wedderburn_p3", "analysis:noncommutative_wedderburn_p3", ("total_s",), _ROOTS),
    Target("analysis.minimal_polynomial", "analysis:minimal_polynomial", ("calls",), _ROOTS),
    Target("analysis.rational_roots", "analysis:rational_roots", ("calls", "total_s", "max_coeff_bits"), _ROOTS),
    Target("polyform.point_decomposition_check", "polyform:point_decomposition_check", ("total_s",), _ROOTS),
    Target("polyform.scaling_invariance_check", "polyform:scaling_invariance_check", ("total_s",), _ROOTS),
    Target("polyform.check_iso_to_descended", "polyform:check_iso_to_descended", ("total_s",), _ROOTS),
    Target("cli.render", "cli:render_json", ("total_s",), _SMALL),
    Target("cli.render", "cli:render_text", ("total_s",), _SMALL),
)

# metrics that are not a <target>.<quantity> pair
EXTRA_METRICS = {"cli.report_bytes": "bytes", "trace.overhead_s": "s"}


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in TARGETS order."""
    out = {}
    for t in TARGETS:
        for q in t.quantities:
            out[f"{t.name}.{q}"] = QUANTITY_UNITS[q]
    out.update(EXTRA_METRICS)
    return out


class Stats:
    __slots__ = ("calls", "self_s", "total_s", "active", "cells", "nonzeros",
                 "elements", "max_coeff_bits", "out_bytes")

    def __init__(self):
        self.calls = self.active = self.cells = self.nonzeros = 0
        self.elements = self.max_coeff_bits = self.out_bytes = 0
        self.self_s = self.total_s = 0.0


def _nonzeros(matrix):
    return sum(1 for i in range(matrix.rows) for x in matrix.row(i) if x)


def _coeff_bits(coeffs):
    bits = 0
    for c in coeffs:
        num = getattr(c, "numerator", c)
        den = getattr(c, "denominator", 1)
        bits = max(bits, int(abs(num)).bit_length(), int(den).bit_length())
    return bits


PACKAGE = "hopfgalois"
MAX_SPANS = 500_000  # spans beyond this are counted as dropped, not stored


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.dropped_spans = 0
        self.missing = []
        self.item = None
        self._span_ids = 0
        self._stack = []
        self._undo = []

    def set_item(self, item):
        self.item = item

    # -- wrapping ----------------------------------------------------------------

    def install(self):
        for t in TARGETS:
            self.stats.setdefault(t.name, Stats())
            modname, attr = t.where.split(":")
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            if mod is None:
                self.missing.append(t.where)
                continue
            if "." in attr:
                self._wrap_method(t, mod, *attr.split("."))
            else:
                self._wrap_function(t, mod, attr)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_method(self, t, mod, cls_name, meth):
        owner = getattr(mod, cls_name, None)
        raw = vars(owner).get(meth) if owner is not None else None
        if raw is None:
            self.missing.append(t.where)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(t, raw.__func__))
        else:
            wrapped = self._wrap(t, raw)
        setattr(owner, meth, wrapped)
        self._undo.append((owner, meth, raw))

    def _wrap_function(self, t, mod, attr):
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(t.where)
            return
        wrapped = self._wrap(t, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append((module, key, original))

    def _wrap(self, t, fn):
        stats = self.stats[t.name]
        stack = self._stack
        clock = perf_counter
        pre = _PRE.get(t.name)
        post = _POST.get(t.name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                p0 = clock()
                pre(stats, args)
                if stack:  # keep the measuring cost out of the caller's self time
                    stack[-1][0] += clock() - p0
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent if t.hot else tracer._next_span_id()]
            outermost = stats.active == 0
            stats.active += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats.active -= 1
                dur = t1 - t0
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if outermost:
                    stats.total_s += dur
                if stack:
                    stack[-1][0] += dur
                if not t.hot:
                    tracer._record(t.name, t0, t1, frame[1], parent)
            if post is not None:
                post(stats, result)
            return result

        return wrapper

    def _next_span_id(self):
        self._span_ids += 1
        return self._span_ids

    def _record(self, name, t0, t1, span_id, parent):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, t0, t1, parent, self.item))
        else:
            self.dropped_spans += 1

    # -- results -----------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values (every name of per_layer_metric_units)."""
        out = {}
        for t in TARGETS:
            s = self.stats.get(t.name, Stats())
            for q in t.quantities:
                if q == "density":
                    value = s.nonzeros / s.cells if s.cells else 0.0
                else:
                    value = getattr(s, q)
                out[f"{t.name}.{q}"] = value
        out["cli.report_bytes"] = self.stats.get("cli.render", Stats()).out_bytes
        return out

    def span_records(self, origin):
        """Spans as JSON-ready lists, times relative to `origin`."""
        return [[sid, name, round(t0 - origin, 7), round(t1 - origin, 7), parent, item]
                for sid, name, t0, t1, parent, item in sorted(self.spans)]


def _pre_rref(stats, args):
    m = args[0]
    stats.cells += m.rows * m.cols
    stats.nonzeros += _nonzeros(m)


def _pre_roots(stats, args):
    stats.max_coeff_bits = max(stats.max_coeff_bits, _coeff_bits(args[0]))


def _post_from_columns(stats, result):
    stats.cells += result.rows * result.cols


def _post_closure(stats, result):
    stats.elements += len(result.elements)


def _post_render(stats, result):
    stats.out_bytes += len(result.encode("utf-8"))


_PRE = {"linalg.rref": _pre_rref, "analysis.rational_roots": _pre_roots}
_POST = {"linalg.from_columns": _post_from_columns, "groups.closure": _post_closure,
         "cli.render": _post_render}
