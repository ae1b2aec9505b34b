"""Command-line front end.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when a
run ends with any status other than OK, ERROR included: a FORWARD_RERUN
whose --input file is missing exits 2 with status ERROR.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import SLOPE_TOL, regime_pattern, turning_report
from .integrator import STATUS_OK
from .scenario import (
    _SCHEMA,
    SCENARIOS,
    RunConfig,
    import_snapshot,
    load_config,
    run_scenario,
)

# `muskat run` flag of each config key: the key with dashes, except two
# shorter spellings
_RUN_FLAGS = {key: "--" + key.replace("_", "-")
              for section in _SCHEMA.values() for key in section}
_RUN_FLAGS.update(out_dir="--out", input_snapshot="--input")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a config flag and a negative number into one `--flag=value` token.

    argparse takes only plain negative decimals such as -0.5 for values and
    reads -8e-5 as an unknown option; the joined form parses in every case.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _RUN_FLAGS.values() and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muskat",
        description="Contour-dynamics runs and turnover verification for"
                    " the two-phase Muskat interface problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario")
    run.add_argument("--config", help="INI config file; defaults otherwise")
    for section, keys in _SCHEMA.items():
        for key, caster in keys.items():
            run.add_argument(_RUN_FLAGS[key], dest=key, type=caster,
                             choices=SCENARIOS if key == "scenario" else None,
                             help=f"config key {key} of [{section}]")
    run.set_defaults(func=_cmd_run)

    lemma = sub.add_parser("verify-lemma",
                           help="print the turnover construction report")
    lemma.add_argument("--out", help="also write the report to this file")
    lemma.set_defaults(func=_cmd_verify_lemma)

    inspect = sub.add_parser("inspect",
                             help="print the turning report of a snapshot")
    inspect.add_argument("snapshot")
    inspect.set_defaults(func=_cmd_inspect)
    return parser


def _cmd_run(args) -> int:
    overrides = {key: getattr(args, key) for key in _RUN_FLAGS
                 if getattr(args, key) is not None}
    config = (load_config(args.config, **overrides) if args.config
              else RunConfig(**overrides))
    manifest = run_scenario(config)
    print(f"scenario = {config.scenario}")
    print(f"status = {manifest.status}")
    if manifest.error:
        print(f"error = {manifest.error}")
    for t, kind in manifest.events:
        print(f"event: t = {t:.9g}  {kind}")
    traj = manifest.trajectory
    if manifest.timeline:
        print(f"pattern = {regime_pattern(manifest.timeline)}")
    if traj is not None:
        print("terminal state:")
        _print_turning_report(traj.final, traj.final_time)
    for name, rel in sorted(manifest.outputs.items()):
        print(f"wrote {name}: {config.out_dir}/{rel}")
    print(f"wrote manifest: {config.out_dir}/manifest.txt")
    return 0 if manifest.status == STATUS_OK else 2


def _cmd_verify_lemma(args) -> int:
    from .lemma import verification_report

    report = verification_report()
    print(report, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


def _cmd_inspect(args) -> int:
    curve, time = import_snapshot(args.snapshot)
    print(f"snapshot: {args.snapshot}")
    _print_turning_report(curve, time)
    return 0


def _fixed(v: float) -> str:
    """v to 9 decimals; a value that rounds to zero prints without a sign."""
    return f"{round(v, 9) + 0.0:.9f}"


def _print_turning_report(curve, time: float) -> None:
    """Minimum slope, regime, vertical tangents and near-critical minima."""
    rep = turning_report(curve)
    print(f"time = {time:.9g}")
    print(f"n = {curve.grid.n}")
    print(f"min_slope estimate = {rep.min_slope:.9e} at alpha ="
          f" {_fixed(rep.argmin)} (parabola fit)")
    print(f"regime = {rep.regime} (grid min_slope = {rep.grid_min:.9e},"
          f" tol {SLOPE_TOL:g})")
    if rep.tangent_points:
        for a, x, y in rep.tangent_points:
            print(f"vertical tangent: alpha = {_fixed(a)},"
                  f" point = ({_fixed(x)}, {_fixed(y)})")
    else:
        print("vertical tangents: none")
    for a, slope in rep.near_critical:
        print(f"near-critical minimum: alpha = {_fixed(a)},"
              f" slope estimate = {slope:.9e}")
    if not rep.near_critical:
        print("near-critical minima: none")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold that into our code 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
