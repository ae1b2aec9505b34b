"""Scenario benchmark for the muskat contour solver.

    python3 perfbench/run.py --workload backward-512 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Each timed run is one fresh process (child.py) that sets up, calls
``muskat.scenario.run_scenario`` once and re-imports its final snapshot.
Processes run one after another, so the load is one process at a time.

With ``--trace 0`` the command times six set-up-only processes, half
before and half after the full runs, which repeat while another one still
fits in ``--seconds`` (at least one). It checks every run against
``reference.json`` and reports the medians of the end-to-end metrics;
``setup_s`` takes its median over the set-up of every process. With ``--trace 1`` it alternates untraced and traced
full runs and reports the per-layer metrics of the traced runs (medians),
with the tracing overhead against the untraced ones.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it give the machine record, every run
and every metric by name and unit, and the full result is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 6
DEADLINE_S = 170.0  # the whole command stays under 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# Printed with the end-to-end metrics but not in the JSON line, where it
# would read 0 on every run; the JSON carries it as failed / attempted.
FAIL_FRAC_UNIT = "ratio"

PER_LAYER = {
    "velocity.rhs_calls": "count",
    "velocity.rhs_s": "s",
    "velocity.rhs_self_s": "s",
    "velocity.rhs_ms_p50": "ms",
    "velocity.rhs_ms_p90": "ms",
    "velocity.pair_evals": "count",
    "velocity.pair_evals_per_s": "1/s",
    "velocity.arc_chord_errors": "count",
    "velocity.rhs_share_of_step": "ratio",
    "spectral.deriv_calls": "count",
    "spectral.deriv_s": "s",
    "spectral.smooth_calls": "count",
    "spectral.smooth_s": "s",
    "spectral.smooth_active_frac": "ratio",
    "integrator.step_calls": "count",
    "integrator.step_s": "s",
    "integrator.step_self_s": "s",
    "integrator.step_ms_p50": "ms",
    "integrator.step_ms_p90": "ms",
    "integrator.march_s": "s",
    "integrator.march_self_s": "s",
    "integrator.event_s": "s",
    "integrator.event_self_s": "s",
    "integrator.event_step_calls": "count",
    "integrator.event_resteps_ratio": "ratio",
    "integrator.events_found": "count",
    "diagnostics.norms_s": "s",
    "diagnostics.timeline_s": "s",
    "diagnostics.self_s": "s",
    "scenario.export_calls": "count",
    "scenario.export_s": "s",
    "scenario.export_self_s": "s",
    "scenario.export_bytes": "B",
    "scenario.import_s": "s",
    "scenario.run_self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
    "trace.unattributed_s": "s",
}

# Self times that, with trace.unattributed_s, add up to trace.wall_s.
SELF_TIMES = ("velocity.rhs_self_s", "spectral.deriv_s", "spectral.smooth_s",
              "integrator.step_self_s", "integrator.march_self_s",
              "integrator.event_self_s", "diagnostics.self_s",
              "scenario.export_self_s", "scenario.run_self_s",
              "trace.unattributed_s")


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, trace: int, timeout: float,
              setup_only: bool = False) -> dict:
    """Spawn one child process and return its parsed result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child timed out after {timeout:.0f} s"
                          ) from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            reference: dict) -> dict:
    """Run one benchmark invocation and return every run and metric."""
    started = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - started)

    def sample_setups(count):
        return [run_child(workload, seed, 0, left(), setup_only=True)["setup_s"]
                for _ in range(count)]

    # untimed: compiles the package's bytecode in a fresh checkout
    run_child(workload, seed, 0, left(), setup_only=True)
    # half before and half after the full runs, so that the median spans
    # the slow and fast phases of a shared machine
    setups = [] if trace else sample_setups(SETUP_SAMPLES // 2)

    runs = []
    modes = (0, 1) if trace else (0,)
    t_runs = time.monotonic()
    while True:
        for mode in modes:
            r = run_child(workload, seed, mode, left())
            r["trace"] = mode
            ok, dev, ev_dev, why = check.compare(r["observed"], reference)
            r["check"] = {"passed": ok, "max_rel_dev": dev,
                          "event_dev_s": ev_dev, "why": why}
            r["observed"].pop("p1", None)
            r["observed"].pop("z2", None)
            runs.append(r)
        spent = time.monotonic() - t_runs
        longest = max(r["wall_s"] + r["setup_s"] for r in runs) * len(modes)
        if spent + longest > seconds or longest > left():
            break

    timed = [r for r in runs if r["trace"] == 0]
    if not trace:
        setups += sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setups += [r["setup_s"] for r in timed]
    failed = sum(not r["check"]["passed"] for r in runs)
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "runs": runs, "setup_samples": setups,
              "attempted": len(runs), "failed": failed,
              "wall_s_samples": len(timed)}
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
    else:
        traced = [r["layers"] for r in runs if r["trace"] == 1]
        layers = {k: statistics.median(t[k] for t in traced)
                  for k in traced[0]}
        layers["trace.untraced_wall_s"] = statistics.median(
            r["wall_s"] for r in timed)
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - layers["trace.untraced_wall_s"])
        result["metrics"] = layers
    result["fail_frac"] = failed / len(runs)
    return result


def summary_lines(result: dict) -> list[str]:
    units = PER_LAYER if result["trace"] else END_TO_END
    lines = []
    for i, r in enumerate(result["runs"]):
        c = r["check"]
        lines.append(
            f"run {i} trace={r['trace']} wall_s={r['wall_s']:.4f}"
            f" setup_s={r['setup_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f}"
            f" status={r['observed']['status']}"
            f" check={'PASS' if c['passed'] else 'FAIL'}"
            f" max_rel_dev={c['max_rel_dev']:.3g}"
            f" event_dev_s={c['event_dev_s']:.3g}"
            + ("" if c["passed"] else f" ({'; '.join(c['why'])})"))
    for name, unit in units.items():
        lines.append(f"metric {name} = {result['metrics'][name]:.6g} {unit}")
    lines.append(f"metric fail_frac = {result['fail_frac']:.6g}"
                 f" {FAIL_FRAC_UNIT} ({result['failed']}/{result['attempted']})")
    lines.append(f"samples: wall_s {result['wall_s_samples']},"
                 f" setup_s {len(result['setup_samples'])}")
    return lines


def result_line(result: dict) -> str:
    units = PER_LAYER if result["trace"] else END_TO_END
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u}
                    for k, u in units.items()},
    })


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Scenario benchmark for the muskat contour solver.")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; checks metric names, units and that a"
                         " corrupted reference counts as a failure")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "muskat" / "__init__.py").is_file():
        print(f"error: no muskat package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        import smoke
        return smoke.main()
    if args.workload is None:
        ap.error("--workload is required")

    import machine
    env = machine.record(ROOT)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         load_reference()[args.workload])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["machine"] = env
    result["load"] = "one benchmark process at a time, threads per thread_env"
    OUT_ROOT.mkdir(exist_ok=True)
    out = OUT_ROOT / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print("machine: " + json.dumps(env))
    print("\n".join(summary_lines(result)))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
