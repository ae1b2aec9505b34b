"""Benchmark workloads and the run configuration each seed produces.

Every workload goes through the public entry point
``muskat.scenario.run_scenario`` with the scenario defaults (fixed dt = 4e-5,
eps = 1e-6, snapshot cadence 1e-3, density jump 4 pi) except where a field
is set below. Seed 0 runs the nominal configuration. Other seeds vary only
``RunConfig`` fields that leave the checked outputs unchanged, so one stored
reference serves every seed:

* backward workloads extend the horizon by a fraction of one step past the
  checkpoint; the checkpoint snapshot, the events and the status are the
  same for every seed, and every nonzero seed costs the same step count;
* ``turnover-512`` picks its snapshot cadence from step multiples whose
  last snapshot before the flip is the same (step 250), so the event
  re-integration, the stop step and the final state do not move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DT = 4e-5


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    n: int
    why: str
    t_final: float | None = None       # None: the scenario default
    snapshot_every: float = 1e-3
    checkpoint: float | None = None    # time of the checked snapshot; None: final
    jitter: str = "none"               # "horizon", "cadence" or "none"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="backward-512", scenario="BACKWARD_SEED", n=512,
        t_final=-1e-2, checkpoint=-1e-2, jitter="horizon",
        why="paper's regularized backward run at n=512: smoothing after every"
            " step and both regime flips, so event refinement runs"),
    Workload(
        name="turnover-512", scenario="CONJ_TURNOVER", n=512,
        jitter="cadence",
        why="forward run to turnover at n=512: no smoothing, a min-slope stop"
            " test after every step and one flip"),
    Workload(
        name="backward-2048", scenario="BACKWARD_SEED", n=2048,
        t_final=-5e-4, snapshot_every=12 * DT, checkpoint=-12 * DT,
        jitter="horizon",
        why="reference resolution n=2048: almost all time in the O(n^2) pair"
            " sum, whose 8 MiB pair arrays overflow L2; no flip, little I/O"),
)}

# Tiny versions of the same code paths for the smoke mode.
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload(name="smoke-backward", scenario="BACKWARD_SEED", n=32,
             t_final=-1.6e-4, snapshot_every=4 * DT, checkpoint=-4 * DT,
             jitter="horizon", why="smoke"),
    Workload(name="smoke-turnover", scenario="CONJ_TURNOVER", n=32,
             t_final=1.6e-4, snapshot_every=2 * DT, why="smoke"),
)}

# Snapshot cadences, in steps, whose last snapshot before the turnover flip
# (step 259.4) is step 250.
_TURNOVER_CADENCES = (10, 25, 50, 125, 250)


def find(name: str) -> Workload:
    try:
        return WORKLOADS.get(name) or SMOKE_WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from"
                         f" {', '.join(WORKLOADS)}") from None


def config_fields(w: Workload, seed: int) -> dict:
    """RunConfig keyword arguments (without out_dir) for one seed."""
    fields = {"scenario": w.scenario, "n": w.n,
              "snapshot_every": w.snapshot_every}
    if w.t_final is not None:
        fields["t_final"] = w.t_final
    if seed == 0 or w.jitter == "none":
        return fields
    rng = random.Random(seed)
    if w.jitter == "horizon":
        # a partial step past the checkpoint, never a whole one
        fields["t_final"] = w.checkpoint - rng.uniform(0.05, 0.95) * DT
    elif w.jitter == "cadence":
        fields["snapshot_every"] = rng.choice(_TURNOVER_CADENCES) * DT
    return fields
