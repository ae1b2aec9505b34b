"""Output check of one run against the stored reference of its workload.

A run fails when its status or its event kinds differ from the reference,
when the final snapshot does not re-import bitwise, or when a value drifts
past its tolerance:

* the checked state (p1 and z2 at the workload's checkpoint) and the
  minimum slope there, relative to max(|reference|, 1) for scalars and to
  the reference's max norm for the state, past STATE_TOL;
* an event time by more than EVENT_TOL seconds, twice the bisection width
  of ``detect_event_times``, since one bisection decision can flip under
  roundoff.

Perturbing the initial samples by 1e-15 relative moves the checked states
by 9e-15 (backward-512) and 3.5e-14 (backward-2048) and leaves the event
times unchanged, so a roundoff-level rewrite of the kernel passes; a rewrite
that drifts by 1e-12 per right-hand side shows up in ``max_rel_dev``.
"""

from __future__ import annotations

STATE_TOL = 1e-10
EVENT_TOL = 2e-8

REFERENCE_KEYS = ("status", "events", "checkpoint_time", "min_slope", "p1", "z2")


def reference_of(observed: dict) -> dict:
    """The part of a run's observed outputs that is stored as reference."""
    return {k: observed[k] for k in REFERENCE_KEYS}


def _max_rel(a, b) -> float:
    scale = max(max(abs(x) for x in b), 1e-300)
    return max(abs(x - y) for x, y in zip(a, b)) / scale


def compare(observed: dict, ref: dict) -> tuple[bool, float, float, list[str]]:
    """(passed, max relative deviation, max event-time deviation in s, why)."""
    why = []
    if observed["status"] != ref["status"]:
        why.append(f"status {observed['status']} != {ref['status']}")
    kinds = [k for _, k in observed["events"]]
    ref_kinds = [k for _, k in ref["events"]]
    if kinds != ref_kinds:
        why.append(f"event kinds {kinds} != {ref_kinds}")
    if "p1" not in observed:
        why.append("no trajectory (run ended with an error)")
        return False, float("inf"), float("inf"), why
    if not observed["reimport_bitwise"]:
        why.append("final snapshot does not re-import bitwise")
    dt_ev = max((abs(t - u) for (t, _), (u, _) in
                 zip(observed["events"], ref["events"])), default=0.0)
    if dt_ev > EVENT_TOL:
        why.append(f"event time off by {dt_ev:.3g} s")
    if len(observed["p1"]) != len(ref["p1"]):
        why.append("grid size differs")
        return False, float("inf"), dt_ev, why
    dev = max(
        _max_rel(observed["p1"], ref["p1"]),
        _max_rel(observed["z2"], ref["z2"]),
        abs(observed["min_slope"] - ref["min_slope"])
        / max(abs(ref["min_slope"]), 1.0),
        abs(observed["checkpoint_time"] - ref["checkpoint_time"])
        / abs(ref["checkpoint_time"] or 1.0))
    if not dev <= STATE_TOL:
        why.append(f"max relative deviation {dev:.3g} > {STATE_TOL:g}")
    return not why, dev, dt_ev, why
