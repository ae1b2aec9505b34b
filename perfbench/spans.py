"""Span tracing from outside the package, and the per-layer metrics.

The wrappers are installed on the module-level names the package actually
calls. Because the modules use ``from .x import y``, a function is reached
through the importing module's binding, so that binding is the one patched
(``integrator.periodic_rhs``, not ``velocity.periodic_rhs``). Spans are kept
in memory as [name, start, end, parent, note, error] and written out at exit.
"""

from __future__ import annotations

import importlib
import json
import os
import time

import numpy as np

# (module, attribute, span name). Every binding must exist; a refactor that
# moves one makes the traced run fail rather than report a silent zero.
TARGETS = (
    ("muskat.scenario", "evolve_backward_regularized", "integrator.march"),
    ("muskat.scenario", "evolve_forward", "integrator.march"),
    ("muskat.scenario", "detect_event_times", "integrator.event"),
    ("muskat.scenario", "export_snapshot", "scenario.export"),
    ("muskat.scenario", "norm_series", "diagnostics.norms"),
    ("muskat.scenario", "regime_timeline", "diagnostics.timeline"),
    ("muskat.integrator", "rk45_step", "integrator.step"),
    ("muskat.integrator", "periodic_rhs", "velocity.rhs"),
    ("muskat.integrator", "threshold_smooth", "spectral.smooth"),
    ("muskat.velocity", "filtered_derivative", "spectral.deriv"),
    ("muskat.integrator", "filtered_derivative", "spectral.deriv"),
    ("muskat.scenario", "filtered_derivative", "spectral.deriv"),
    ("muskat.diagnostics", "filtered_derivative", "spectral.deriv"),
)


def _rhs_note(args, kwargs, out):
    return args[0].grid.n


def _smooth_note(args, kwargs, out):
    # 1 when the smoother changed its input
    return int(not np.array_equal(out, args[0]))


def _export_note(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


_NOTES = {"velocity.rhs": _rhs_note, "spectral.smooth": _smooth_note,
          "scenario.export": _export_note}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        note = _NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise RuntimeError(f"trace target {mod_name}.{attr} is gone")
            setattr(mod, attr, self.wrap(span, fn))

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, note, err in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "note": note,
                                     "error": err}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    mid = clock()
    for _ in range(calls):
        traced()
    end = clock()
    return max((end - mid) - (mid - start), 0.0) / calls


def layer_metrics(spans, wall_s: float, events_found: int) -> dict:
    """Per-layer counts and times from one traced run_scenario call.

    ``wall_s`` is the traced run_scenario wall time; the self times of all
    spans plus ``trace.unattributed_s`` add up to it.
    """
    n_spans = len(spans)
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(n_spans)
    under_event = np.zeros(n_spans, dtype=bool)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            # parents precede children, so the flag is already final
            under_event[i] = (under_event[s[3]]
                              or spans[s[3]][0] == "integrator.event")
    self_t = dur - child
    names = np.array([s[0] for s in spans])

    def pick(name):
        return names == name

    def total(name, arr=dur):
        return float(arr[pick(name)].sum())

    def pct(name, q):
        sel = dur[pick(name)]
        return float(np.percentile(sel, q) * 1e3) if sel.size else 0.0

    rhs = pick("velocity.rhs")
    steps = pick("integrator.step")
    smooth = pick("spectral.smooth")
    n_rhs = int(rhs.sum())
    pair_evals = sum(spans[i][4] ** 2 // 2 for i in np.flatnonzero(rhs))
    rhs_self = total("velocity.rhs", self_t)
    n_steps = int(steps.sum())
    event_steps = int((steps & under_event).sum())
    march_steps = n_steps - event_steps
    n_smooth = int(smooth.sum())
    step_s = total("integrator.step")

    return {
        "velocity.rhs_calls": n_rhs,
        "velocity.rhs_s": total("velocity.rhs"),
        "velocity.rhs_self_s": rhs_self,
        "velocity.rhs_ms_p50": pct("velocity.rhs", 50),
        "velocity.rhs_ms_p90": pct("velocity.rhs", 90),
        "velocity.pair_evals": int(pair_evals),
        "velocity.pair_evals_per_s": pair_evals / rhs_self if rhs_self else 0.0,
        "velocity.arc_chord_errors": sum(
            1 for i in np.flatnonzero(rhs) if spans[i][5] == "ArcChordError"),
        "velocity.rhs_share_of_step": (
            total("velocity.rhs") / step_s if step_s else 0.0),
        "spectral.deriv_calls": int(pick("spectral.deriv").sum()),
        "spectral.deriv_s": total("spectral.deriv"),
        "spectral.smooth_calls": n_smooth,
        "spectral.smooth_s": total("spectral.smooth"),
        "spectral.smooth_active_frac": (
            sum(spans[i][4] for i in np.flatnonzero(smooth)) / n_smooth
            if n_smooth else 0.0),
        "integrator.step_calls": n_steps,
        "integrator.step_s": step_s,
        "integrator.step_self_s": total("integrator.step", self_t),
        "integrator.step_ms_p50": pct("integrator.step", 50),
        "integrator.step_ms_p90": pct("integrator.step", 90),
        "integrator.march_s": total("integrator.march"),
        "integrator.march_self_s": total("integrator.march", self_t),
        "integrator.event_s": total("integrator.event"),
        "integrator.event_self_s": total("integrator.event", self_t),
        "integrator.event_step_calls": event_steps,
        "integrator.event_resteps_ratio": (
            event_steps / march_steps if march_steps else 0.0),
        "integrator.events_found": events_found,
        "diagnostics.norms_s": total("diagnostics.norms"),
        "diagnostics.timeline_s": total("diagnostics.timeline"),
        "diagnostics.self_s": (total("diagnostics.norms", self_t)
                               + total("diagnostics.timeline", self_t)),
        "scenario.export_calls": int(pick("scenario.export").sum()),
        "scenario.export_s": total("scenario.export"),
        "scenario.export_self_s": total("scenario.export", self_t),
        "scenario.export_bytes": int(sum(
            spans[i][4] for i in np.flatnonzero(pick("scenario.export")))),
        "scenario.run_self_s": total("scenario.run", self_t),
        "trace.spans": n_spans,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - float(self_t.sum()),
    }
