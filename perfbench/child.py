"""One fresh benchmark process: set up, run one scenario, report.

Run by run.py, one process per timed run. It imports muskat from the
checkout's ``src``, builds the workload's RunConfig, samples the preset, and
stops the set-up clock; then it times ``run_scenario``, re-imports the final
snapshot, and prints one JSON object on its last stdout line with the
observed outputs, the times and the peak resident set.

    python3 perfbench/child.py --workload backward-512 --seed 0 --trace 0 \
        --t0 <time.monotonic() of the parent just before the spawn>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

_PRESET = {"BACKWARD_SEED": "SEED_T0", "CONJ_TURNOVER": "CONJ_T0"}


def _observe(manifest, w, out_dir: Path, scenario, filtered_derivative):
    """The outputs the reference check compares, plus the re-import check."""
    traj = manifest.trajectory
    obs = {"status": manifest.status, "error": manifest.error,
           "events": [[float(t), kind] for t, kind in manifest.events]}
    if traj is None:
        return obs
    if w.checkpoint is None:
        k = len(traj.times) - 1
    else:
        k = min(range(len(traj.times)),
                key=lambda i: abs(traj.times[i] - w.checkpoint))
        if abs(traj.times[k] - w.checkpoint) > 1e-12:
            raise RuntimeError(f"no snapshot at checkpoint t={w.checkpoint}")
    curve = traj.snapshots[k]
    obs.update(
        checkpoint_time=float(traj.times[k]),
        min_slope=float((1.0 + filtered_derivative(curve.p1, 1)).min()),
        p1=curve.p1.tolist(), z2=curve.z2.tolist())
    started = time.perf_counter()
    back, t_back = scenario.import_snapshot(out_dir / manifest.outputs["final"])
    obs["import_s"] = time.perf_counter() - started
    obs["reimport_bitwise"] = bool(
        t_back == traj.final_time
        and (back.z1 == traj.final.z1).all() and (back.z2 == traj.final.z2).all())
    return obs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import muskat.scenario as scenario
    from muskat.core import make_grid, sample_preset
    from muskat.spectral import filtered_derivative
    if not Path(scenario.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"muskat was imported from {scenario.__file__},"
                         f" not from {src}")
    import workloads
    w = workloads.find(args.workload)
    out_dir = OUT_ROOT / w.name
    config = scenario.RunConfig(out_dir=str(out_dir),
                                **workloads.config_fields(w, args.seed))
    sample_preset(_PRESET[w.scenario], make_grid(w.n))
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    run = scenario.run_scenario
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("scenario.run", run)
    started = time.perf_counter()
    manifest = run(config)
    result["wall_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["config"] = {k: getattr(config, k) for k in
                        ("scenario", "n", "t_final", "snapshot_every")}
    result["observed"] = _observe(manifest, w, out_dir, scenario,
                                  filtered_derivative)
    if tracer is not None:
        from spans import layer_metrics, span_cost
        found = sum(1 for _, kind in manifest.events
                    if kind.startswith("ENTER_"))
        layers = layer_metrics(tracer.spans, result["wall_s"], found)
        layers["scenario.import_s"] = result["observed"].get("import_s", 0.0)
        layers["trace.overhead_est_s"] = span_cost() * len(tracer.spans)
        result["layers"] = layers
        tracer.write(out_dir / f"spans-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
