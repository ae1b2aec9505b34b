"""Smoke mode of the benchmark: n = 32, a few steps, about a minute.

    python3 perfbench/run.py --smoke

Runs the same code paths as a measurement on tiny workloads and checks that

* every end-to-end and per-layer metric is printed by name with its unit,
  and BENCHMARK.json lists the same metrics with the same units;
* the per-layer self times and the unattributed time add up to the traced
  wall time;
* a run is checked against its reference and passes on another seed, and
  a corrupted reference (status, state, minimum slope, event times) counts
  as a failure.
"""

from __future__ import annotations

import json

import check
import run
import workloads


def _metric_problems(result: dict) -> list[str]:
    lines = run.summary_lines(result)
    units = run.PER_LAYER if result["trace"] else run.END_TO_END
    problems = [f"metric {name} not printed with unit {unit}"
                for name, unit in units.items()
                if not any(line.startswith(f"metric {name} = ")
                           and line.endswith(f" {unit}") for line in lines)]
    if not any(line.startswith("metric fail_frac = ") for line in lines):
        problems.append("fail_frac not printed")
    last = json.loads(run.result_line(result))
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result line keys {sorted(last)}")
    if {k: v["unit"] for k, v in last["metrics"].items()} != units:
        problems.append("result line metrics differ from the metric table")
    return problems


def _corruptions(ref: dict) -> dict:
    bumped = [ref["p1"][0] + 1e-6] + ref["p1"][1:]
    out = {"status": {**ref, "status": "CORRUPTED"},
           "state": {**ref, "p1": bumped},
           "min_slope": {**ref, "min_slope": ref["min_slope"] + 1e-6}}
    if ref["events"]:
        out["event time"] = {**ref, "events": [[t + 1e-6, k]
                                               for t, k in ref["events"]]}
    return out


def _benchmark_json_problems() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != {run.END_TO_END}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    return problems


def main() -> int:
    problems = _benchmark_json_problems()
    for name in workloads.SMOKE_WORKLOADS:
        base = run.run_child(name, 0, 0, timeout=120.0)
        ref = check.reference_of(base["observed"])
        for what, bad in _corruptions(ref).items():
            if check.compare(base["observed"], bad)[0]:
                problems.append(f"{name}: corrupted {what} passed the check")

        timed = run.measure(name, 1, 0.0, 0, ref)
        if timed["failed"]:
            problems.append(f"{name}: seed 1 failed the seed-0 reference:"
                            f" {timed['runs'][0]['check']['why']}")
        problems += _metric_problems(timed)

        spoiled = run.measure(name, 0, 0.0, 0, _corruptions(ref)["status"])
        if spoiled["failed"] != spoiled["attempted"]:
            problems.append(f"{name}: a corrupted reference was not counted"
                            " as a failure")

        traced = run.measure(name, 0, 0.0, 1, ref)
        problems += _metric_problems(traced)
        m = traced["runs"][1]["layers"]
        total = sum(m[k] for k in run.SELF_TIMES)
        if abs(total - m["trace.wall_s"]) > 1e-9 * max(m["trace.wall_s"], 1.0):
            problems.append(f"{name}: self times add up to {total}, traced"
                            f" wall is {m['trace.wall_s']}")
        if not m["velocity.rhs_calls"] == 7 * m["integrator.step_calls"]:
            problems.append(f"{name}: expected 7 RHS calls per step")
        print(f"smoke {name}: wall_s={timed['metrics']['wall_s']:.4f}"
              f" traced={m['trace.wall_s']:.4f} spans={m['trace.spans']}")
    for p in problems:
        print(f"smoke FAIL: {p}")
    print("smoke OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
