"""Span recorder that wraps gmtlab's public functions from outside the package.

``Tracer.installed()`` replaces each function in ``TARGETS`` by a wrapper
that records a span (name, parent, start, end) and restores the originals on
exit.  Every by-name import of a wrapped function inside ``gmtlab`` (for
example ``cones.f_ball`` or ``lipmetric.lipschitz_dual_value``) is rebound
too, so calls made through those names are counted.  Spans stay in memory
with a parent link; ``Tracer.summary()`` reduces them to the per-layer
aggregates the benchmark reports, and ``Tracer.dump()`` writes them out.

Nothing under ``src/`` is modified; pivot counts and other quantities that
need instrumentation inside the program are out of reach here.
"""

import contextlib
import functools
import importlib
import json
import sys
import threading
import time

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".
TARGETS = [
    ("transport", "transport_simplex"),
    ("transport", "lipschitz_dual_value"),
    ("simplex", "simplex_max_bounded"),
    ("lipmetric", "assemble_ball_lp"),
    ("lipmetric", "solve_ball_lp"),
    ("lipmetric", "solve_ball_lp_potential"),
    ("lipmetric", "f_ball"),
    ("lipmetric", "f_ball_potential"),
    ("lipmetric", "f_series"),
    ("lipmetric", "f_scaling_residual"),
    ("cones", "d_cone_flat"),
    ("cones", "sample_flat"),
    ("cones", "symmetry_defect"),
    ("measures", "mass_in"),
    ("measures", "restrict"),
    ("measures", "pushforward"),
    ("measures", "lambda_rescale"),
    ("measures", "ellipse_ball"),
    ("kernels", "truncated_pv"),
    ("kernels", "pv_convergence_scan"),
    ("kernels", "ball_average"),
    ("kernels", "frozen_discrepancy"),
    ("moduli", "omega_profile"),
    ("moduli", "dini_small"),
    ("moduli", "dini_large"),
    ("moduli", "tau_moduli"),
    ("blowup", "density_scan"),
    ("blowup", "blowup_sequence"),
    ("blowup", "flatness_profile"),
    ("blowup", "sandwich_check"),
    ("corpus", "gen_line"),
    ("corpus", "gen_half_line"),
    ("corpus", "gen_cross"),
    ("corpus", "gen_circle"),
    ("corpus", "gen_sine_graph"),
    ("corpus", "gen_four_corner_cantor"),
    ("corpus", "gen_lambda_field"),
]

# Busy time reported per metric: the outermost spans of these names.
BUSY = {
    "transport.busy_s": ("transport.transport_simplex",
                         "transport.lipschitz_dual_value"),
    "lipmetric.assemble.busy_s": ("lipmetric.assemble_ball_lp",),
    "lipmetric.potential.busy_s": ("lipmetric.solve_ball_lp_potential",),
    "simplex.busy_s": ("simplex.simplex_max_bounded",),
    "cones.d_cone.busy_s": ("cones.d_cone_flat",),
    "measures.mass_in.busy_s": ("measures.mass_in",),
    "measures.lambda_rescale.busy_s": ("measures.lambda_rescale",),
    "kernels.truncated_pv.busy_s": ("kernels.truncated_pv",),
    "moduli.omega_profile.busy_s": ("moduli.omega_profile",),
    "moduli.dini.busy_s": ("moduli.dini_small", "moduli.dini_large"),
    "blowup.density_scan.busy_s": ("blowup.density_scan",),
    "blowup.sandwich.busy_s": ("blowup.sandwich_check",),
}


def _transport_size(args, kwargs, result):
    cost = args[0] if args else kwargs["cost"]
    rows, cols = len(cost), len(cost[0])
    return {"cells": rows * cols, "rows": rows, "cols": cols}


def _assemble_size(args, kwargs, result):
    return {"sites": int(result.size)}


# Extra per-span measurements, taken from the call's arguments or result.
_SIZES = {
    "transport.transport_simplex": _transport_size,
    "lipmetric.assemble_ball_lp": _assemble_size,
}


class Tracer:
    """In-memory span list; spans are [name, parent, start_ns, end_ns, extra]."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        size = _SIZES.get(name)
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name, extra=None):
        """Record a span around a block (the benchmark's per-operation root)."""
        stack = self._stack()
        span = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0,
                extra]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter_ns()
            stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for every binding; restore them on exit."""
        importlib.import_module("gmtlab")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (key == "gmtlab" or key.startswith("gmtlab."))]
        replaced = []
        try:
            for mod_name, fn_name in TARGETS:
                owner = importlib.import_module(f"gmtlab.{mod_name}")
                original = getattr(owner, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def summary(self):
        """Per-layer aggregates; additive across tracers (see ``merge``)."""
        spans = self.spans
        calls = {}
        busy = {metric: 0 for metric in BUSY}
        extra = {"cells": 0, "sites": 0, "cone_evals": 0, "cone_self_ns": 0}
        child_ns = [0] * len(spans)
        per_op = {}
        # Names of each span's ancestors and its root; a parent always
        # precedes its child.
        ancestors, roots = [], []
        for idx, (name, parent, start, end, size) in enumerate(spans):
            above = ancestors[parent] | {spans[parent][0]} if parent >= 0 \
                else frozenset()
            ancestors.append(above)
            roots.append(roots[parent] if parent >= 0 else idx)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_ns[parent] += end - start
            for metric, names in BUSY.items():
                if name in names and above.isdisjoint(names):
                    busy[metric] += end - start
            if name == "lipmetric.f_ball" and "cones.d_cone_flat" in above:
                extra["cone_evals"] += 1
            root = spans[roots[idx]]
            if name == "transport.transport_simplex" and root[0] == "op":
                op = per_op.setdefault(root[4]["label"], {
                    "solves": 0, "max_rows": 0, "max_cols": 0})
                op["solves"] += 1
                op["max_rows"] = max(op["max_rows"], size["rows"])
                op["max_cols"] = max(op["max_cols"], size["cols"])
            if size is not None:
                extra["cells"] += size.get("cells", 0)
                extra["sites"] += size.get("sites", 0)
        for idx, (name, _, start, end, _) in enumerate(spans):
            if name == "cones.d_cone_flat":
                extra["cone_self_ns"] += end - start - child_ns[idx]
        return {"calls": calls, "busy_ns": busy, "extra": extra,
                "per_op": per_op, "spans": len(spans)}

    def dump(self, fh, tag):
        """Write spans as JSON lines; ``tag`` groups spans of one tracer."""
        for idx, (name, parent, start, end, size) in enumerate(self.spans):
            rec = {"tag": tag, "id": idx, "parent": parent, "name": name,
                   "start_ns": start, "end_ns": end}
            if size is not None:
                rec.update(size)
            fh.write(json.dumps(rec) + "\n")


def merge(summaries):
    """Sum tracer summaries."""
    out = {"calls": {}, "busy_ns": {key: 0 for key in BUSY},
           "extra": {"cells": 0, "sites": 0, "cone_evals": 0,
                     "cone_self_ns": 0},
           "per_op": {}, "spans": 0}
    for summ in summaries:
        for name, count in summ["calls"].items():
            out["calls"][name] = out["calls"].get(name, 0) + count
        for key, value in summ["busy_ns"].items():
            out["busy_ns"][key] += value
        for key, value in summ["extra"].items():
            out["extra"][key] += value
        out["per_op"].update(summ["per_op"])
        out["spans"] += summ["spans"]
    return out


def counts_of(summary):
    """The deterministic part of a summary: calls, sizes, solves per op."""
    extra = {k: v for k, v in summary["extra"].items() if k != "cone_self_ns"}
    return {"calls": dict(sorted(summary["calls"].items())), "extra": extra,
            "per_op": dict(sorted(summary["per_op"].items()))}
