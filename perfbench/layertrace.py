"""Outside-in layer trace: spans recorded around invlab's own functions.

Nothing under src/ is edited.  `install` rebinds each boundary name in
every loaded invlab.* namespace that holds it (so `from .dynamics import
evolve_bloch` call sites are caught too) and wraps ControlField.values on
the class.  Spans stay in memory until the run ends.  A boundary whose
name does not exist at the traced commit is reported as absent, and the
metrics that depend on it are left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# layer -> (module, qualified name) boundaries.  `_sse_run` is private but is
# the only name that separates SSE integration from the Philox draws made in
# monte_carlo_p2.
LAYERS = {
    "cli": [("cli", "main")],
    "sweeps": [("sweeps", "robustness_curve"), ("sweeps", "map_p2"),
               ("sweeps", "sweep_qn_transitionless"), ("sweeps", "sweep_qs_transitionless")],
    "sensitivity": [("sensitivity", "qn_formula"), ("sensitivity", "qs_formula"),
                    ("sensitivity", "qn_finite_difference"),
                    ("sensitivity", "qs_finite_difference")],
    "protocols": [("protocols", n) for n in (
        "make_flat_pi", "make_shaped_pi", "make_sinusoidal", "make_transitionless",
        "make_invariant_engineered", "make_optimal_noise", "make_optimal_systematic")],
    "optimal": [("optimal", "solve_optimal_theta")],
    "det": [("dynamics", "evolve_bloch"), ("dynamics", "evolve_pure")],
    "sse": [("dynamics", "monte_carlo_p2")],
    "sse_run": [("dynamics", "_sse_run")],
    "core": [("core", "ControlField.values")],
}

# per-layer metric -> (unit, better, layers whose boundaries it needs)
METRICS = {
    "dynamics.det_solves": ("count", "lower", ("det",)),
    "dynamics.det_steps": ("count", "lower", ("det",)),
    "dynamics.det_self_s": ("s", "lower", ("det",)),
    "dynamics.det_steps_per_s": ("1/s", "higher", ("det",)),
    "sensitivity.calls": ("count", "lower", ("sensitivity",)),
    "sensitivity.self_s": ("s", "lower", ("sensitivity",)),
    "sensitivity.solves_per_call": ("count", "lower", ("sensitivity", "det")),
    "dynamics.sse_traj": ("count", "higher", ("sse",)),
    "dynamics.sse_traj_steps": ("count", "higher", ("sse",)),
    "dynamics.sse_draw_s": ("s", "lower", ("sse", "sse_run")),
    "dynamics.sse_integrate_s": ("s", "lower", ("sse_run",)),
    "dynamics.sse_draw_bytes": ("B", "lower", ("sse",)),
    "dynamics.sse_traj_steps_per_s": ("1/s", "higher", ("sse",)),
    "core.values_calls": ("count", "lower", ("core",)),
    "core.values_points": ("count", "lower", ("core",)),
    "core.values_s": ("s", "lower", ("core",)),
    "optimal.theta_solves": ("count", "lower", ("optimal",)),
    "optimal.self_s": ("s", "lower", ("optimal",)),
    "protocols.builds": ("count", "lower", ("protocols",)),
    "protocols.self_s": ("s", "lower", ("protocols",)),
    "sweeps.cells": ("count", "higher", ("sweeps",)),
    "sweeps.self_s": ("s", "lower", ("sweeps",)),
    "sweeps.nan_frac": ("ratio", "lower", ("sweeps",)),
    "cli.calls": ("count", "higher", ("cli",)),
    "cli.self_s": ("s", "lower", ("cli",)),
    "cli.bytes_written": ("B", "lower", ("cli",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _det_attrs(args, kwargs, out):
    return {"steps": _arg(args, kwargs, 0, "field").grid.n_steps - 1}


def _sse_attrs(args, kwargs, out):
    grid = _arg(args, kwargs, 0, "field").grid
    dt = _arg(args, kwargs, 3, "dt")
    n_traj = _arg(args, kwargs, 2, "n_traj")
    return {"traj": n_traj, "steps": n_traj * round(grid.h / dt) * (grid.n_steps - 1)}


def _values_attrs(args, kwargs, out):
    return {"points": int(out[0].size)}


def _sweep_attrs(args, kwargs, out):
    values = out.values
    return {"cells": int(values.size), "nan": int((values != values).sum())}


ATTRS = {"det": _det_attrs, "sse": _sse_attrs, "core": _values_attrs, "sweeps": _sweep_attrs}


class Tracer:
    """Records (layer, start, end, parent, command id, attrs) spans while enabled."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.enabled = False
        self.command = None
        self.absent = []

    def _wrap(self, layer, fn, attrs, is_method=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.command, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span[5] = attrs(args[1:] if is_method else args, kwargs, out)
                return out
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return wrapper

    def install(self):
        """Wrap every boundary that exists; record the missing ones as absent."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "invlab" or n.startswith("invlab."))]
        for layer, names in LAYERS.items():
            for mod_name, qual in names:
                module = sys.modules.get(f"invlab.{mod_name}")
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(f"invlab.{mod_name}.{qual}")
                    continue
                wrapper = self._wrap(layer, original, ATTRS.get(layer), bool(owner_name))
                targets = [owner] if owner_name else [
                    m for m in loaded if m.__dict__.get(attr) is original]
                for target in targets:
                    setattr(target, attr, wrapper)
                    self._undo.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def absent_layers(self):
        missing = set(self.absent)
        return {layer for layer, names in LAYERS.items()
                if any(f"invlab.{m}.{q}" in missing for m, q in names)}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "command", "attrs"],
                       "absent": self.absent, "spans": self.spans}, fh)


def layer_totals(spans, first=0):
    """Per-layer counts and self times of one pass's spans.

    `spans` starts at index `first` of the tracer's list (parents are
    absolute indices).  Self time is a span's duration minus the time
    covered by its direct children; spans nest strictly because everything
    runs on one thread.
    """
    spans = [s[:3] + [s[3] - first if s[3] >= 0 else -1] + s[4:] for s in spans]
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    layer_of = [s[0] for s in spans]
    tot = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    for k, (layer, start, end, parent, _cmd, attrs) in enumerate(spans):
        add(f"{layer}.self_s", end - start - child[k])
        add(f"{layer}.total_s", end - start)
        parent_layer = layer_of[parent] if parent >= 0 else None
        if parent_layer != layer:  # nested same-layer calls are one unit of work
            add(f"{layer}.calls", 1)
        for key, value in (attrs or {}).items():
            add(f"{layer}.{key}", value)
        if layer == "det":
            p = parent
            while p >= 0 and layer_of[p] != "sensitivity":
                p = spans[p][3]
            if p >= 0:
                add("det.in_sensitivity", 1)
    return tot


def per_layer_metrics(tot, bytes_written, overhead_frac):
    """Map one pass's layer totals to the per-layer metric names."""
    def g(key):
        return tot.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "dynamics.det_solves": g("det.calls"),
        "dynamics.det_steps": g("det.steps"),
        "dynamics.det_self_s": g("det.self_s"),
        "dynamics.det_steps_per_s": ratio(g("det.steps"), g("det.self_s")),
        "sensitivity.calls": g("sensitivity.calls"),
        "sensitivity.self_s": g("sensitivity.self_s"),
        "sensitivity.solves_per_call": ratio(g("det.in_sensitivity"), g("sensitivity.calls")),
        "dynamics.sse_traj": g("sse.traj"),
        "dynamics.sse_traj_steps": g("sse.steps"),
        "dynamics.sse_draw_s": g("sse.self_s"),
        "dynamics.sse_integrate_s": g("sse_run.self_s"),
        "dynamics.sse_draw_bytes": 2 * 8 * g("sse.steps"),  # two float64 increments per step
        "dynamics.sse_traj_steps_per_s": ratio(g("sse.steps"), g("sse.total_s")),
        "core.values_calls": g("core.calls"),
        "core.values_points": g("core.points"),
        "core.values_s": g("core.self_s"),
        "optimal.theta_solves": g("optimal.calls"),
        "optimal.self_s": g("optimal.self_s"),
        "protocols.builds": g("protocols.calls"),
        "protocols.self_s": g("protocols.self_s"),
        "sweeps.cells": g("sweeps.cells"),
        "sweeps.self_s": g("sweeps.self_s"),
        "sweeps.nan_frac": ratio(g("sweeps.nan"), g("sweeps.cells")),
        "cli.calls": g("cli.calls"),
        "cli.self_s": g("cli.self_s"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": overhead_frac,
    }


def median_metrics(per_pass, absent_layers):
    """Median of each metric over traced passes, without metrics on absent layers."""
    out = {}
    for name, (unit, _better, layers) in METRICS.items():
        if absent_layers.intersection(layers):
            continue
        out[name] = {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
    return out
