"""Regenerate reference.json from seed-0 runs of every workload.

    python3 perfbench/make_reference.py

Only for a commit whose numerics are meant to define the reference; a
change that claims a speed-up is checked against the stored file instead.
"""

from __future__ import annotations

import json
import sys

import check
import machine
import run
import workloads


def main() -> int:
    env = machine.record(run.ROOT)
    ref = {"generated_with": {k: env[k] for k in
                              ("git_commit", "src_sha256", "numpy", "scipy")}}
    for name in workloads.WORKLOADS:
        result = run.run_child(name, 0, 0, timeout=600.0)
        ref[name] = check.reference_of(result["observed"])
        obs = result["observed"]
        print(f"{name}: status={obs['status']} events={obs['events']}"
              f" min_slope={obs['min_slope']:.17g}"
              f" wall_s={result['wall_s']:.2f}")
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
