"""Preset experiments, configuration files, and run artifacts.

A scenario is one batch experiment: it reads a RunConfig, evolves, and
leaves plain-text artifacts in the output directory. Snapshot files are
comma-delimited with 17 significant digits so they round-trip bitwise; the
manifest is INI-style text and is written even when the run fails, with a
status other than OK.
"""

from __future__ import annotations

import configparser
import time as _time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    NanEncountered,
    SampledCurve,
    make_curve,
    make_grid,
    sample_preset,
)
from .diagnostics import norm_series, regime_timeline
from .integrator import (
    STATUS_OK,
    StepControl,
    Trajectory,
    detect_event_times,
    evolve_backward_regularized,
    evolve_forward,
)
from .spectral import filtered_derivative

STATUS_ERROR = "ERROR"


@dataclass(frozen=True)
class _Scenario:
    """One scenario's facts: its default horizon; its default grid size and
    the preset it starts from (both None: the input snapshot, on its grid
    and at its time); its default smoothing threshold (not None: a
    backward, smoothed run); and the minimum slope below which a forward
    run stops (None: it runs on)."""
    t_final: float
    n: int | None = None
    preset: str | None = None
    eps: float | None = None
    stop_slope: float | None = None


_SCENARIOS = {
    "BACKWARD_SEED": _Scenario(-4.92e-2, 2048, "SEED_T0", eps=1e-6),
    "FORWARD_RERUN": _Scenario(6e-2),
    # stops once the minimum slope is clearly past turnover
    "CONJ_TURNOVER": _Scenario(0.3, 2048, "CONJ_T0", stop_slope=-0.02),
}

SCENARIOS = tuple(_SCENARIOS)

_SNAPSHOT_HEADER = "alpha, z1, z2, dz1, dz2"


def _check_grid_size(n: int, source: str = "n") -> None:
    """A run needs an even grid of at least 16 nodes; source names where n
    came from (the config field or a snapshot file)."""
    if n < 16 or n % 2:
        raise ValueError(f"{source}: need an even grid size >= 16, got {n}")


def _check_horizon(config: RunConfig, t0: float) -> None:
    """A backward run ends below its start time t0, the others past it."""
    backward = _SCENARIOS[config.scenario].eps is not None
    if not (config.t_final < t0 if backward else config.t_final > t0):
        raise ValueError(f"t_final: {config.scenario} needs a value"
                         f" {'below' if backward else 'past'} {t0},"
                         f" got {config.t_final}")


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario parameters; defaults reproduce the headline runs.

    Every field holds the value the run uses: n, t_final and eps left None
    take the scenario's defaults once the given values pass their checks.
    n stays None for FORWARD_RERUN, whose grid is its snapshot's, and eps
    for the forward runs, which do not smooth. So the [config] section of
    a manifest rebuilds an equal config.

    dataclasses.replace carries these values. A replace that changes the
    scenario must pass n, t_final and eps again (None re-resolves): a
    carried value the new scenario does not take raises, naming the field.
    """
    scenario: str = "BACKWARD_SEED"
    n: int | None = None
    mode: str = StepControl.mode
    dt: float = StepControl.dt
    rel_tol: float = StepControl.rel_tol
    eps: float | None = None
    t_final: float | None = None
    snapshot_every: float = 1e-3
    out_dir: str = "runs/out"
    input_snapshot: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario: unknown id {self.scenario!r}")
        spec = _SCENARIOS[self.scenario]
        if self.n is not None:
            if spec.preset is None:
                raise ValueError(f"n: {self.scenario} takes its grid from its"
                                 " snapshot and sets no n")
            if (not isinstance(self.n, (int, np.integer))
                    or isinstance(self.n, bool)):
                raise ValueError(f"n: expected an integer, got {self.n!r}")
            # a numpy integer, say from a sweep's np.arange, is stored as int
            object.__setattr__(self, "n", int(self.n))
            _check_grid_size(self.n)
        if not self.snapshot_every > 0:
            raise ValueError("snapshot_every: must be positive")
        if self.eps is not None:
            if not (np.isfinite(self.eps) and self.eps >= 0):
                raise ValueError("eps: must be finite and nonnegative")
            if spec.eps is None:
                raise ValueError(f"eps: {self.scenario} applies no smoothing;"
                                 " only BACKWARD_SEED takes eps")
        if self.t_final is not None and not np.isfinite(self.t_final):
            raise ValueError("t_final: must be finite")
        # the step fields are checked by their owner
        self.step_control()
        for name in ("n", "t_final", "eps"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, getattr(spec, name))
        if spec.preset is not None:
            if self.input_snapshot is not None:
                raise ValueError(f"input_snapshot: {self.scenario} starts"
                                 " from its preset and reads no snapshot")
            _check_horizon(self, 0.0)
        elif self.input_snapshot is None:
            raise ValueError(f"input_snapshot: {self.scenario} needs the final"
                             " snapshot of a BACKWARD_SEED run (--input)")

    def step_control(self) -> StepControl:
        return StepControl(mode=self.mode, dt=self.dt, rel_tol=self.rel_tol)


@dataclass
class RunManifest:
    """Outcome record of one scenario run; mirrored to manifest.txt, which
    reads the scenario from the config and the grid size, step counts, pair
    sum and pair processes from the trajectory."""
    config: RunConfig
    status: str = STATUS_OK
    error: str | None = None
    events: tuple[tuple[float, str], ...] = ()
    outputs: dict[str, str] = field(default_factory=dict)
    wall_time: float = 0.0
    trajectory: Trajectory | None = None  # in-memory only; None: nothing ran
    timeline: tuple = ()  # regime segments of `trajectory`, in-memory only

    def to_text(self) -> str:
        traj = self.trajectory
        lines = [
            "[manifest]",
            f"scenario = {self.config.scenario}",
            f"status = {self.status}",
            f"steps = {0 if traj is None else traj.steps}",
            f"rejected_steps = {0 if traj is None else traj.rejected_steps}",
            f"wall_time_s = {self.wall_time:.3f}",
            f"package_version = {__version__}",
            f"numpy_version = {np.__version__}",
        ]
        if traj is not None:
            lines += [f"grid_n = {traj.final.grid.n}",
                      f"pair_sum = {traj.pair_sum}",
                      f"pair_processes = {traj.pair_processes}"]
        if self.error is not None:
            lines.append(f"error = {self.error}")
        lines += ["", "[config]"]
        for f in fields(RunConfig):
            lines.append(f"{f.name} = {getattr(self.config, f.name)}")
        lines += ["", "[events]"]
        for i, (t, kind) in enumerate(self.events):
            lines.append(f"event_{i} = {t:.17g} {kind}")
        lines += ["", "[outputs]"]
        for name, rel in sorted(self.outputs.items()):
            lines.append(f"{name} = {rel}")
        return "\n".join(lines) + "\n"


_SCHEMA = {
    "run": {"scenario": str, "out_dir": str, "input_snapshot": str},
    "grid": {"n": int},
    "time": {"dt": float, "t_final": float, "snapshot_every": float,
             "mode": str, "rel_tol": float},
    "smoothing": {"eps": float},
}


def load_config(path, **overrides) -> RunConfig:
    """Parse an INI-style config; absent keys fall back to defaults and
    overrides (RunConfig fields) replace file values before any check."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    # no section can be named "", so [DEFAULT] is an ordinary section and
    # rejected as unknown rather than merged into every other one
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            caster = _SCHEMA[section][key]
            try:
                values[key] = caster(raw)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: bad value for {key!r}: {raw!r}") from exc
    return RunConfig(**{**values, **overrides})


def _format_rows(*cols) -> str:
    """One newline-terminated line per entry of the equal-length columns,
    17 significant digits per value, formatted by a single % over the
    row-major values."""
    fmt = (", ".join(["%.17g"] * len(cols)) + "\n") * len(cols[0])
    return fmt % tuple(np.stack(cols, axis=1).ravel().tolist())


def export_snapshot(curve: SampledCurve, path, time: float = 0.0) -> None:
    """Write one curve as delimited text: alpha, z1, z2, dz1, dz2.

    Values carry 17 significant digits, so a re-import reproduces alpha, z1,
    and z2 bitwise. The derivative columns are the filtered spectral
    derivatives and are informational; import ignores them.
    """
    path = Path(path)
    dp1, dz2 = filtered_derivative(curve.samples, 1)
    text = (f"# time = {time:.17g}\n{_SNAPSHOT_HEADER}\n"
            + _format_rows(curve.grid.nodes, curve.z1, curve.z2, 1.0 + dp1,
                           dz2))
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write snapshot {path}: {exc}") from exc


def _parse_numbers(fields, path: Path, lineno: int) -> list[float]:
    """The fields as floats; one that is no number raises a ValueError
    naming the file and the 1-based line."""
    numbers = []
    for field in fields:
        try:
            numbers.append(float(field))
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: not a number:"
                             f" {field.strip()!r}") from None
    return numbers


def import_snapshot(path) -> tuple[SampledCurve, float]:
    """Read a snapshot file back; returns the curve and its time stamp."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read snapshot {path}: {exc}") from exc
    time = 0.0
    alphas, z1s, z2s = [], [], []
    saw_header = False
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "time":
                time, = _parse_numbers([value], path, lineno)
                if not np.isfinite(time):
                    raise ValueError(f"{path}: time stamp must be finite,"
                                     f" got {time}")
            continue
        if not saw_header:
            if [c.strip() for c in line.split(",")] != \
                    [c.strip() for c in _SNAPSHOT_HEADER.split(",")]:
                raise ValueError(f"{path}: unexpected header {line!r}")
            saw_header = True
            continue
        cols = _parse_numbers(line.split(","), path, lineno)
        if len(cols) != 5:
            raise ValueError(f"{path}: expected 5 columns, got {len(cols)}")
        alphas.append(cols[0])
        z1s.append(cols[1])
        z2s.append(cols[2])
    if not saw_header or not alphas:
        raise ValueError(f"{path}: no snapshot rows found")
    try:
        grid = make_grid(len(alphas))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not np.max(np.abs(np.array(alphas) - grid.nodes)) <= 1e-12:
        raise ValueError(f"{path}: nodes are not the uniform grid on [-pi, pi)")
    p1 = np.array(z1s) - grid.nodes
    try:
        return make_curve(grid, p1, np.array(z2s)), time
    except NanEncountered as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_norms(traj: Trajectory, path: Path) -> None:
    ns = norm_series(traj)
    path.write_text("# columns: t, sup_f, sup_slope (nan when not a graph)\n"
                    + _format_rows(ns.times, ns.sup_f, ns.sup_slope))


def _write_timeline(segments, events, path: Path) -> None:
    rows = ["# columns: t_start, t_end, regime"]
    for (a, b), reg in segments:
        rows.append(f"{a:.17g}, {b:.17g}, {reg}")
    rows.append("# events: t, kind")
    for t, kind in events:
        rows.append(f"# {t:.17g}, {kind}")
    path.write_text("\n".join(rows) + "\n")


def run_scenario(config: RunConfig) -> RunManifest:
    """Execute one scenario and write its artifacts under config.out_dir.

    Numerical failures (arc-chord collapse, NaN, step underflow) are
    recorded in the manifest status and error line rather than raised;
    unexpected exceptions produce status ERROR with the message preserved.
    The manifest file is always written.
    """
    started = _time.perf_counter()
    outdir = Path(config.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config)
    try:
        _run_evolution(manifest, outdir)
    except Exception as exc:
        manifest.status = STATUS_ERROR
        manifest.error = f"{type(exc).__name__}: {exc}"
    manifest.wall_time = _time.perf_counter() - started
    (outdir / "manifest.txt").write_text(manifest.to_text())
    return manifest


def _run_evolution(manifest: RunManifest, outdir: Path) -> None:
    """Run the scenario and write its snapshots, norms and timeline,
    recording the trajectory, its outcome and each output in the manifest
    as it goes."""
    config = manifest.config
    spec = _SCENARIOS[config.scenario]
    if spec.preset is None:
        curve, t0 = import_snapshot(config.input_snapshot)
        # the grid and t0 come from the snapshot; RunConfig checked the
        # presets' n and horizon
        _check_grid_size(curve.grid.n, config.input_snapshot)
        _check_horizon(config, t0)
    else:
        curve = sample_preset(spec.preset, make_grid(config.n))
        t0 = 0.0
    export_snapshot(curve, outdir / "initial.dat", time=t0)
    manifest.outputs["initial"] = "initial.dat"

    if spec.eps is not None:
        traj = evolve_backward_regularized(
            curve, config.t_final, config.step_control(),
            eps=config.eps, snapshot_every=config.snapshot_every)
    else:
        traj = evolve_forward(
            curve, config.t_final, config.step_control(), t0=t0,
            snapshot_every=config.snapshot_every, stop_slope=spec.stop_slope)
    manifest.trajectory = traj
    manifest.status, manifest.error = traj.status, traj.error
    manifest.events = tuple(traj.events)
    export_snapshot(traj.final, outdir / "final.dat", time=traj.final_time)
    manifest.outputs["final"] = "final.dat"
    _write_norms(traj, outdir / "norms.dat")
    manifest.outputs["norms"] = "norms.dat"
    flips = tuple(detect_event_times(traj))
    manifest.events = flips + manifest.events
    manifest.timeline = regime_timeline(traj, flips)
    _write_timeline(manifest.timeline, flips, outdir / "timeline.txt")
    manifest.outputs["timeline"] = "timeline.txt"
