"""Run configs, snapshot files, scenario drivers, and the CLI."""

import configparser
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import muskat
import muskat.integrator as integrator
from muskat.cli import _RUN_FLAGS, main
from muskat.core import make_curve, make_grid, sample_preset
from muskat.scenario import (
    _SCHEMA,
    RunConfig,
    RunManifest,
    _format_rows,
    export_snapshot,
    import_snapshot,
    load_config,
    run_scenario,
)
from muskat.spectral import filtered_derivative
from muskat.velocity import ArcChordError, periodic_rhs


def test_config_defaults():
    # the scenario's defaults are stored in the fields, not resolved later
    cfg = RunConfig()
    assert cfg.scenario == "BACKWARD_SEED"
    assert (cfg.n, cfg.dt, cfg.eps, cfg.t_final) == (2048, 4e-5, 1e-6,
                                                     -4.92e-2)
    assert cfg == RunConfig(n=2048, t_final=-4.92e-2, eps=1e-6)
    assert (RunConfig(n=512).n, RunConfig(eps=1e-7).eps,
            RunConfig(t_final=-1e-3).t_final) == (512, 1e-7, -1e-3)
    rerun = RunConfig(scenario="FORWARD_RERUN", input_snapshot="final.dat")
    assert (rerun.n, rerun.t_final, rerun.eps) == (None, 6e-2, None)
    conj = RunConfig(scenario="CONJ_TURNOVER")
    assert (conj.n, conj.t_final, conj.eps) == (2048, 0.3, None)


@pytest.mark.parametrize("kwargs", [
    {},
    {"scenario": "FORWARD_RERUN", "input_snapshot": "final.dat"},
    {"scenario": "CONJ_TURNOVER", "n": 64, "mode": "adaptive"},
])
def test_manifest_config_rebuilds_the_config(kwargs):
    cfg = RunConfig(**kwargs)
    text = RunManifest(cfg).to_text()
    parsed = configparser.ConfigParser()
    parsed.read_string(text)
    casters = {k: c for keys in _SCHEMA.values() for k, c in keys.items()}
    rebuilt = {k: casters[k](v) for k, v in parsed["config"].items()
               if v != "None"}
    assert RunConfig(**rebuilt) == cfg


@pytest.mark.parametrize("start, changes, field", [
    ({}, {"scenario": "CONJ_TURNOVER"}, "eps"),
    ({}, {"scenario": "CONJ_TURNOVER", "eps": None}, "t_final"),
    ({}, {"scenario": "FORWARD_RERUN", "input_snapshot": "f.dat"}, "n"),
    ({}, {"scenario": "FORWARD_RERUN", "input_snapshot": "f.dat",
          "n": None}, "eps"),
    ({"scenario": "CONJ_TURNOVER"}, {"scenario": "BACKWARD_SEED"},
     "t_final"),
    ({"scenario": "CONJ_TURNOVER"}, {"scenario": "FORWARD_RERUN",
                                     "input_snapshot": "f.dat"}, "n"),
    ({"scenario": "FORWARD_RERUN", "input_snapshot": "f.dat"},
     {"scenario": "BACKWARD_SEED", "input_snapshot": None}, "t_final"),
])
def test_cross_scenario_replace_names_a_carried_field(start, changes, field):
    cfg = RunConfig(**start)
    with pytest.raises(ValueError, match=f"^{field}: "):
        dataclasses.replace(cfg, **changes)
    # passing the fields again as None re-resolves them
    fresh = {"n": None, "t_final": None, "eps": None}
    assert dataclasses.replace(cfg, **{**changes, **fresh}) == \
        RunConfig(**{**start, **changes})


@pytest.mark.parametrize("start, changes, carried", [
    ({"scenario": "FORWARD_RERUN", "input_snapshot": "f.dat"},
     {"scenario": "CONJ_TURNOVER", "input_snapshot": None}, 0.06),
    ({"scenario": "CONJ_TURNOVER"},
     {"scenario": "FORWARD_RERUN", "input_snapshot": "f.dat", "n": None},
     0.3),
])
def test_cross_scenario_replace_keeps_a_carried_t_final(start, changes,
                                                        carried):
    # both forward scenarios take a t_final, so a carried one does not
    # raise: it runs in place of the new scenario's default, as the
    # RunConfig docstring warns; passing it again as None re-resolves it
    cfg = dataclasses.replace(RunConfig(**start), **changes)
    assert cfg.t_final == carried
    assert cfg.t_final != RunConfig(**{**start, **changes}).t_final
    fresh = dataclasses.replace(RunConfig(**start),
                                **{**changes, "t_final": None})
    assert fresh == RunConfig(**{**start, **changes})


@pytest.mark.parametrize("kwargs, fragment", [
    ({"scenario": "SIDEWAYS"}, "scenario"),
    ({"n": 5}, "n: need an even grid size >= 16"),
    ({"n": 8}, "n: need an even grid size >= 16"),
    ({"dt": 0.0}, "dt: must be positive"),
    ({"snapshot_every": -1.0}, "snapshot_every"),
    ({"n": True}, "n: expected an integer"),
    ({"eps": -1e-9}, "eps"),
    ({"mode": "verlet"}, "mode"),
    ({"input_snapshot": "x.dat"}, "input_snapshot"),
    ({"t_final": float("inf")}, "t_final"),
    ({"dt": float("inf")}, "dt: must be positive and finite"),
    ({"mode": "adaptive", "dt": 0.05}, "dt: adaptive mode needs"),
    ({"rel_tol": -1.0}, "rel_tol: must be positive"),
    ({"snapshot_every": float("nan")}, "snapshot_every: must be positive"),
    ({"scenario": "CONJ_TURNOVER", "input_snapshot": "x.dat"},
     "input_snapshot: CONJ_TURNOVER"),
    ({"rel_tol": float("inf")}, "rel_tol: must be positive and finite"),
    ({"rel_tol": float("nan")}, "rel_tol: must be positive and finite"),
    ({"eps": float("inf")}, "eps: must be finite and nonnegative"),
    ({"scenario": "CONJ_TURNOVER", "eps": 1e-6},
     "eps: CONJ_TURNOVER applies no smoothing"),
    ({"scenario": "FORWARD_RERUN", "input_snapshot": "x.dat", "eps": 0.0},
     "eps: FORWARD_RERUN applies no smoothing"),
    ({"scenario": "FORWARD_RERUN", "input_snapshot": "x.dat", "n": 4096},
     "n: FORWARD_RERUN takes its grid from its snapshot"),
    ({"n": np.True_}, "n: expected an integer"),
    ({"n": np.float64(64.0)}, "n: expected an integer"),
])
def test_config_validation_names_the_field(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        RunConfig(**kwargs)


def test_load_config_empty_file_is_all_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert load_config(path) == RunConfig()


def test_load_config_round_trips_fields(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nscenario = BACKWARD_SEED\nout_dir = runs/bwd\n"
        "[grid]\nn = 512\n"
        "[time]\ndt = 2e-5\nt_final = -0.25\nsnapshot_every = 5e-4\n"
        "[smoothing]\neps = 1e-7\n")
    cfg = load_config(path)
    assert cfg.scenario == "BACKWARD_SEED"
    assert cfg.out_dir == "runs/bwd"
    assert cfg.n == 512
    assert cfg.dt == 2e-5
    assert cfg.t_final == -0.25
    assert cfg.snapshot_every == 5e-4
    assert cfg.eps == 1e-7
    # untouched fields keep their defaults
    assert (cfg.mode, cfg.rel_tol) == (RunConfig.mode, RunConfig.rel_tol)


def test_load_config_rejects_unknown_names(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[turbulence]\nn = 16\n")
    with pytest.raises(ValueError, match=r"\[turbulence\]"):
        load_config(bad_section)

    # the density jump is no setting: times are in the unit where the
    # velocity prefactor is 1
    removed = tmp_path / "p.ini"
    removed.write_text("[params]\ndensity_jump = 12.566370614359172\n")
    with pytest.raises(ValueError, match=r"unknown section \[params\]"):
        load_config(removed)

    # [DEFAULT] is refused like any other unknown section, not read as
    # keys that every section inherits
    for text in ("[DEFAULT]\nn = 99\n", "[DEFAULT]\nn = 32\n[grid]\n",
                 "[DEFAULT]\n"):
        defaults = tmp_path / "d.ini"
        defaults.write_text(text)
        with pytest.raises(ValueError, match=r"unknown section \[DEFAULT\]"):
            load_config(defaults)

    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[grid]\nm = 16\n")
    with pytest.raises(ValueError, match="'m'"):
        load_config(bad_key)

    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[grid]\nn = seven\n")
    with pytest.raises(ValueError, match="bad value"):
        load_config(bad_value)

    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "missing.ini")

    # keys before any section header
    headless = tmp_path / "h.ini"
    headless.write_text("n = 16\n")
    line = f"^cannot parse {re.escape(str(headless))}: File contains no"
    with pytest.raises(ValueError, match=line + " section headers"):
        load_config(headless)


def test_export_format_is_pinned(tmp_path, flat64):
    path = tmp_path / "flat.dat"
    export_snapshot(flat64, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# time = 0"
    assert lines[1] == "alpha, z1, z2, dz1, dz2"
    assert lines[2] == "-3.1415926535897931, -3.1415926535897931, 0, 1, 0"
    assert len(lines) == 2 + flat64.grid.n


def test_export_to_a_directory_names_the_snapshot(tmp_path, flat64):
    line = f"^cannot write snapshot {re.escape(str(tmp_path))}: "
    with pytest.raises(OSError, match=line + ".*Is a directory"):
        export_snapshot(flat64, tmp_path)


def test_snapshot_round_trip(tmp_path, grid64):
    curve = sample_preset("SEED_T0", grid64)
    first = tmp_path / "a.dat"
    export_snapshot(curve, first, time=-0.0123456789012345)
    back, t = import_snapshot(first)
    assert t == -0.0123456789012345
    assert back.grid.n == grid64.n
    assert np.array_equal(back.z2, curve.z2)
    assert np.max(np.abs(back.z1 - curve.z1)) == 0.0

    # the file representation is a fixed point after one round trip (the
    # derivative columns of the original export may differ in the last ulp
    # because p1 is reconstructed as z1 - alpha)
    second = tmp_path / "b.dat"
    third = tmp_path / "c.dat"
    export_snapshot(back, second, time=t)
    again, _ = import_snapshot(second)
    export_snapshot(again, third, time=t)
    assert third.read_bytes() == second.read_bytes()

    # blank lines between the rows are skipped
    spaced = tmp_path / "spaced.dat"
    spaced.write_text(first.read_text().replace("\n", "\n\n"))
    loose, t_loose = import_snapshot(spaced)
    assert t_loose == t
    assert np.array_equal(loose.samples, back.samples)


def test_export_rows_match_the_per_value_format(tmp_path):
    grid = make_grid(16)
    z2 = np.zeros(grid.n)
    z2[:5] = [-0.0, 5e-324, 1e300, 1e16, 1.0 / 3.0]
    curve = make_curve(grid, np.zeros(grid.n), z2)
    path = tmp_path / "edge.dat"
    export_snapshot(curve, path, time=1.0 / 3.0)
    dp1, dz2 = filtered_derivative(curve.samples, 1)
    rows = zip(grid.nodes, curve.z1, curve.z2, 1.0 + dp1, dz2)
    expected = ["# time = 0.33333333333333331", "alpha, z1, z2, dz1, dz2"]
    expected += [", ".join(f"{c:.17g}" for c in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
    # norms.dat rows carry nan for snapshots that are not a graph
    cols = np.array([[np.nan, -np.inf, -0.0], [5e-324, 1e300, 1.0 / 3.0]])
    assert _format_rows(*cols) == "".join(f"{a:.17g}, {b:.17g}\n"
                                          for a, b in zip(*cols))


def test_import_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.dat"
    bad_header.write_text("x, y\n0, 0\n")
    with pytest.raises(ValueError, match="unexpected header"):
        import_snapshot(bad_header)

    empty = tmp_path / "e.dat"
    empty.write_text("# time = 0\nalpha, z1, z2, dz1, dz2\n")
    with pytest.raises(ValueError, match="no snapshot rows"):
        import_snapshot(empty)

    short_row = tmp_path / "s.dat"
    short_row.write_text("alpha, z1, z2, dz1, dz2\n0, 0, 0\n")
    with pytest.raises(ValueError, match="5 columns"):
        import_snapshot(short_row)

    skewed = tmp_path / "g.dat"
    rows = ["alpha, z1, z2, dz1, dz2"]
    rows += [f"{0.1 * i}, 0, 0, 1, 0" for i in range(16)]
    skewed.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uniform grid"):
        import_snapshot(skewed)

    odd = tmp_path / "o.dat"
    grid = make_grid(16)
    rows = ["alpha, z1, z2, dz1, dz2"]
    rows += [f"{a:.17g}, {a:.17g}, 0, 1, 0" for a in grid.nodes[:15]]
    odd.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as info:
        import_snapshot(odd)
    assert str(info.value) == \
        f"{odd}: grid size must be even and >= 4, got 15"


def test_import_rejects_a_non_finite_time_stamp(tmp_path, grid64):
    # accepted, a FORWARD_RERUN from it would fail on "a value past inf"
    path = tmp_path / "inf.dat"
    export_snapshot(sample_preset("SEED_T0", grid64), path, time=np.inf)
    with pytest.raises(ValueError, match="time stamp must be finite"):
        import_snapshot(path)


def test_import_names_the_file_of_non_finite_samples(tmp_path, grid64):
    path = tmp_path / "nan.dat"
    export_snapshot(sample_preset("SEED_T0", grid64), path)
    lines = path.read_text().splitlines()
    cols = lines[5].split(", ")
    lines[5] = ", ".join([*cols[:2], "nan", *cols[3:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        import_snapshot(path)
    assert str(info.value) == f"{path}: non-finite samples"

    # a NaN node fails the grid check rather than slipping past it
    lines[5] = ", ".join(["nan", *cols[1:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="uniform grid"):
        import_snapshot(path)


def test_import_names_the_line_of_an_unreadable_time_stamp(tmp_path, grid64):
    path = tmp_path / "time.dat"
    export_snapshot(sample_preset("SEED_T0", grid64), path, time=0.5)
    lines = path.read_text().splitlines()
    stamp = lines.index("# time = 0.5") + 1
    for comment, value in (("# time = abc", "'abc'"), ("# time", "''"),
                           ("#time=", "''")):
        lines[stamp - 1] = comment
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            import_snapshot(path)
        assert str(info.value) == \
            f"{path}, line {stamp}: not a number: {value}"


def test_import_names_the_line_of_an_unreadable_sample(tmp_path, grid64):
    path = tmp_path / "row.dat"
    export_snapshot(sample_preset("SEED_T0", grid64), path)
    lines = path.read_text().splitlines()
    cols = lines[5].split(", ")
    lines[5] = ", ".join([*cols[:2], "x", *cols[3:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        import_snapshot(path)
    assert str(info.value) == f"{path}, line 6: not a number: 'x'"


def _manifest_section(out, section="manifest"):
    parsed = configparser.ConfigParser()
    parsed.read_string((out / "manifest.txt").read_text())
    return parsed[section]


def _manifest_head(out):
    """The [manifest] lines in order, without the wall time and versions."""
    head = (out / "manifest.txt").read_text().split("\n\n")[0].splitlines()
    unpinned = ("wall_time_s", "package_version", "numpy_version")
    return [ln for ln in head if ln.partition(" = ")[0] not in unpinned]


def test_manifest_of_a_run_where_nothing_ran_is_pinned(tmp_path, capsys):
    # the snapshot is missing, so the run stops before it has a grid
    missing = tmp_path / "missing.dat"
    out = tmp_path / "rerun"
    assert main(["run", "--scenario", "FORWARD_RERUN", "--input",
                 str(missing), "--out", str(out)]) == 2
    assert _manifest_head(out) == [
        "[manifest]", "scenario = FORWARD_RERUN", "status = ERROR",
        "steps = 0", "rejected_steps = 0",
        f"error = OSError: cannot read snapshot {missing}: [Errno 2] No such"
        f" file or directory: '{missing}'"]
    assert "status = ERROR" in capsys.readouterr().out


def test_numpy_integer_grid_size_runs(tmp_path):
    # a sweep may take its sizes from numpy, as make_grid does
    out = tmp_path / "conj"
    cfg = RunConfig(scenario="CONJ_TURNOVER", n=np.int64(64), t_final=1e-3,
                    dt=1e-4, snapshot_every=5e-4, out_dir=str(out))
    assert type(cfg.n) is int and cfg == dataclasses.replace(cfg, n=64)
    manifest = run_scenario(cfg)
    assert manifest.status == "OK", manifest.error
    assert _manifest_section(out, "config")["n"] == "64"
    assert _manifest_section(out)["grid_n"] == "64"


def test_manifest_records_the_resolved_horizon(tmp_path):
    # adaptive steps reach the default horizon in a few dozen steps
    out = tmp_path / "bwd"
    manifest = run_scenario(RunConfig(scenario="BACKWARD_SEED", n=32,
                                      mode="adaptive", out_dir=str(out)))
    assert manifest.status == "OK"
    assert manifest.trajectory.final_time == pytest.approx(-4.92e-2)
    assert _manifest_section(out, "config")["t_final"] == "-0.0492"


def test_scenario_runs_import_no_scipy(tmp_path):
    # the run path (kernel, stepper, diagnostics of a run), the turning
    # report that `muskat run` and `muskat inspect` print, tangent points
    # included, and the lemma check of `muskat verify-lemma` need numpy alone
    script = f"""
import sys
import numpy as np
from muskat.cli import main
from muskat.core import make_curve, make_grid
from muskat.scenario import RunConfig, export_snapshot, run_scenario
out = {str(tmp_path)!r}
m = run_scenario(RunConfig(scenario="BACKWARD_SEED", t_final=-1e-3, n=32,
                           dt=1e-4, snapshot_every=5e-4, out_dir=out + "/b"))
assert m.status == "OK", m.error
assert main(["run", "--scenario", "CONJ_TURNOVER", "--n", "32",
             "--t-final", "1e-3", "--dt", "1e-4", "--snapshot-every", "5e-4",
             "--out", out + "/conj"]) == 0
assert main(["inspect", out + "/conj/final.dat"]) == 0
grid = make_grid(64)
export_snapshot(make_curve(grid, -1.2 * np.sin(grid.nodes),
                           0.3 * np.sin(grid.nodes)), out + "/turned.dat")
assert main(["inspect", out + "/turned.dat"]) == 0
assert main(["verify-lemma", "--out", out + "/lemma.txt"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(muskat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert "vertical tangent: alpha = " in done.stdout
    assert "min_admissible_R = 18" in (tmp_path / "lemma.txt").read_text()
    assert done.stdout.splitlines()[-1] == "[]"


def test_scenario_runs_import_no_lemma(tmp_path):
    # the lemma check is `muskat verify-lemma`'s alone: a run through the
    # library loads the package, its five run modules and muskat.scenario,
    # and a run through the CLI adds muskat.cli and nothing else
    script = f"""
import sys
from muskat.scenario import RunConfig, run_scenario
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "muskat")
out = {str(tmp_path)!r}
m = run_scenario(RunConfig(scenario="BACKWARD_SEED", t_final=-1e-3, n=32,
                           dt=1e-4, snapshot_every=5e-4, out_dir=out + "/b"))
assert m.status == "OK", m.error
print("library run:", loaded())
from muskat.cli import main
assert main(["run", "--scenario", "CONJ_TURNOVER", "--n", "32",
             "--t-final", "1e-3", "--dt", "1e-4", "--snapshot-every", "5e-4",
             "--out", out + "/conj"]) == 0
print("CLI run:", loaded())
"""
    src = str(Path(muskat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    runs = dict(line.split(": ", 1) for line in done.stdout.splitlines()
                if line.startswith(("library run: ", "CLI run: ")))
    library = ["muskat", "muskat.core", "muskat.diagnostics",
               "muskat.integrator", "muskat.scenario", "muskat.spectral",
               "muskat.velocity"]
    assert runs["library run"] == str(library)
    assert runs["CLI run"] == str(sorted(library + ["muskat.cli"]))


def test_run_failing_on_a_later_step_keeps_its_status(tmp_path,
                                                      monkeypatch):
    real_step = integrator.rk45_step
    steps = []

    def second_step_fails(curve, dt, *args):
        steps.append(dt)
        if len(steps) == 2:
            raise integrator.NanEncountered("injected")
        return real_step(curve, dt, *args)

    monkeypatch.setattr(integrator, "rk45_step", second_step_fails)
    out = tmp_path / "bwd"
    cfg = RunConfig(scenario="BACKWARD_SEED", n=32, t_final=-2e-4, dt=1e-4,
                    snapshot_every=1e-4, out_dir=str(out))
    manifest = run_scenario(cfg)
    assert manifest.status == integrator.STATUS_NAN
    assert manifest.error == "NanEncountered: injected"
    assert manifest.events[-1] == (pytest.approx(-1e-4),
                                   integrator.STATUS_NAN)
    assert manifest.trajectory.steps == 1
    # the state before the failed step is the final snapshot
    final, t = import_snapshot(out / manifest.outputs["final"])
    assert t == pytest.approx(-1e-4)
    assert np.array_equal(final.z2, manifest.trajectory.final.z2)


def _fail_run(status, monkeypatch):
    """Make a run end with status, for real where the kernel or the step
    control can do it."""
    real_step = integrator.rk45_step

    def step(curve, dt, *args):
        if status == integrator.STATUS_NAN:
            raise integrator.NanEncountered("injected")
        return real_step(curve, dt, *args)

    monkeypatch.setattr(integrator, "rk45_step", step)
    if status == integrator.STATUS_ARC_CHORD:
        # the kernel's own error on a curve whose nodes are all on one
        # point, p1 = -alpha and z2 = 0
        grid = make_grid(32)
        collided = make_curve(grid, -grid.nodes, np.zeros(grid.n))
        monkeypatch.setattr(integrator, "periodic_rhs",
                            lambda curve, **kwargs: periodic_rhs(collided))
    if status == integrator.STATUS_STEP_UNDERFLOW:
        # an adaptive step pinned at 1e-4 misses a tolerance of 1e-30
        monkeypatch.setattr(integrator, "_MIN_DT", 1e-4)
        monkeypatch.setattr(integrator, "_MAX_DT", 1e-4)


@pytest.mark.parametrize("status, line", [
    (integrator.STATUS_ARC_CHORD,
     r"ArcChordError: arc-chord denominator 0\.000e\+00 at or below floor"
     r" 1\.000e-12 between nodes \(0, 1\)"),
    (integrator.STATUS_NAN, r"NanEncountered: injected"),
    (integrator.STATUS_STEP_UNDERFLOW,
     r"error estimate \S+ above tolerance \S+ at the minimum step 0\.0001")])
def test_manifest_error_is_the_first_failed_legs_line(tmp_path, monkeypatch,
                                                      status, line):
    # the run's one failure names the status and the error line
    _fail_run(status, monkeypatch)
    out = tmp_path / "conj"
    cfg = RunConfig(scenario="CONJ_TURNOVER", n=32, t_final=2e-4, dt=1e-4,
                    mode="adaptive", rel_tol=1e-30, out_dir=str(out))
    manifest = run_scenario(cfg)
    assert manifest.status == status
    assert re.fullmatch(line, manifest.error)
    assert manifest.error == manifest.trajectory.error
    assert manifest.events == ((0.0, status),)
    head = _manifest_section(out)
    assert (head["status"], head["error"]) == (status, manifest.error)


def test_leg_failing_on_its_first_step_keeps_its_status(tmp_path,
                                                        monkeypatch):
    def collapse(curve, *args):
        raise ArcChordError(0.0, (0, 1))

    monkeypatch.setattr(integrator, "rk45_step", collapse)
    out = tmp_path / "bwd"
    cfg = RunConfig(scenario="BACKWARD_SEED", n=32, t_final=-4e-4, dt=1e-4,
                    out_dir=str(out))
    manifest = run_scenario(cfg)
    assert manifest.status == integrator.STATUS_ARC_CHORD
    assert manifest.error == ("ArcChordError: arc-chord denominator"
                              " 0.000e+00 at or below floor 1.000e-12"
                              " between nodes (0, 1)")
    assert manifest.events == ((0.0, integrator.STATUS_ARC_CHORD),)
    assert manifest.trajectory.steps == 0
    # the run is its initial state alone: one point of the timeline
    assert manifest.timeline == (((0.0, 0.0), "CRITICAL"),)
    assert _manifest_head(out) == [
        "[manifest]", "scenario = BACKWARD_SEED",
        "status = ARC_CHORD_FAILURE", "steps = 0", "rejected_steps = 0",
        "grid_n = 32", "pair_sum = half", "pair_processes = 1",
        f"error = {manifest.error}"]
    assert ("event_0 = 0 ARC_CHORD_FAILURE"
            in (out / "manifest.txt").read_text())
    for name in ("final", "norms", "timeline"):
        assert (out / manifest.outputs[name]).exists()


def test_run_failing_after_its_march_keeps_its_trajectory(tmp_path,
                                                         monkeypatch, capsys):
    # the manifest records the trajectory as soon as the march returns, so
    # an output that cannot be written leaves the run's counts on record
    def full_disk(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr("muskat.scenario._write_norms", full_disk)
    out = tmp_path / "conj"
    assert main(["run", "--scenario", "CONJ_TURNOVER", "--n", "32",
                 "--t-final", "2e-4", "--dt", "1e-4", "--out", str(out)]) == 2
    assert _manifest_head(out) == [
        "[manifest]", "scenario = CONJ_TURNOVER", "status = ERROR",
        "steps = 2", "rejected_steps = 0", "grid_n = 32", "pair_sum = half",
        "pair_processes = 1",
        "error = OSError: no space left on device"]
    printed = capsys.readouterr().out
    # no timeline was formed, so there is no pattern to print
    assert "pattern = " not in printed
    assert "terminal state:" in printed


def test_backward_seed_honours_adaptive_mode(tmp_path):
    runs = {}
    for mode in ("fixed", "adaptive"):
        cfg = RunConfig(scenario="BACKWARD_SEED", n=64, t_final=-1e-2,
                        mode=mode, out_dir=str(tmp_path / mode))
        runs[mode] = run_scenario(cfg)
        assert runs[mode].status == "OK"
    assert runs["fixed"].trajectory.steps == 250
    assert runs["adaptive"].trajectory.steps < 25
    kinds = {mode: [k for _, k in m.events if k.startswith("ENTER_")]
             for mode, m in runs.items()}
    assert kinds["adaptive"] == kinds["fixed"] == ["ENTER_STABLE",
                                                   "ENTER_UNSTABLE"]


def test_adaptive_snapshots_land_on_step_ends(tmp_path):
    # an adaptive step may span many snapshot intervals: it records one
    # state, at its end, and never an interpolated one in between
    runs = {}
    for every in (1e-9, 1e-4):
        out = tmp_path / str(every)
        runs[every] = run_scenario(RunConfig(
            scenario="CONJ_TURNOVER", n=64, mode="adaptive",
            snapshot_every=every, out_dir=str(out)))
        assert runs[every].status == "OK"
    # at a cadence of 1e-9 every step end is recorded
    ends = runs[1e-9].trajectory.times
    assert len(ends) == runs[1e-9].trajectory.steps + 1
    times = runs[1e-4].trajectory.times
    assert max(np.diff(times)) > 20 * 1e-4
    # the first step end at least snapshot_every after the last one
    # recorded, and the run's last
    due = [ends[0]]
    for t in ends[1:]:
        if t - due[-1] >= 1e-4 or t == ends[-1]:
            due.append(t)
    assert times == due
    norms = np.loadtxt(tmp_path / "0.0001" / "norms.dat", delimiter=",")
    assert norms[:, 0].tolist() == times


def test_backward_seed_scenario_small(tmp_path):
    out = tmp_path / "bwd"
    cfg = RunConfig(scenario="BACKWARD_SEED", n=32, t_final=-4e-4, dt=1e-4,
                    snapshot_every=2e-4, out_dir=str(out))
    manifest = run_scenario(cfg)
    assert manifest.status == "OK"
    assert manifest.trajectory.direction == -1
    assert set(manifest.outputs) == {"initial", "final", "norms", "timeline"}
    for name in manifest.outputs:
        assert (out / manifest.outputs[name]).exists()
    final, t = import_snapshot(out / manifest.outputs["final"])
    assert t == pytest.approx(-4e-4, abs=1e-12)
    assert final.grid.n == 32
    assert _manifest_head(out) == [
        "[manifest]", "scenario = BACKWARD_SEED", "status = OK", "steps = 4",
        "rejected_steps = 0", "grid_n = 32", "pair_sum = half",
        "pair_processes = 1"]


@pytest.mark.parametrize("cpus", [None, {0}])
def test_manifest_says_how_many_processes_summed_the_pairs(tmp_path,
                                                          monkeypatch, cpus):
    # the half sum at n = 2048 forms 525 312 pairs a call, past the split
    # threshold, so it takes a helper process wherever two CPUs are allowed
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    expect = 2 if len(os.sched_getaffinity(0)) > 1 else 1
    out = tmp_path / "bwd"
    cfg = RunConfig(scenario="BACKWARD_SEED", n=2048, t_final=-1e-5,
                    dt=1e-5, out_dir=str(out))
    manifest = run_scenario(cfg)
    assert manifest.status == "OK"
    assert manifest.trajectory.pair_processes == expect
    assert _manifest_head(out)[-3:] == [
        "grid_n = 2048", "pair_sum = half", f"pair_processes = {expect}"]


def test_forward_rerun_requires_input(tmp_path, capsys):
    out = tmp_path / "rerun"
    with pytest.raises(ValueError,
                       match="^input_snapshot: FORWARD_RERUN needs"):
        RunConfig(scenario="FORWARD_RERUN", out_dir=str(out))
    # the config is refused before anything runs, so nothing is written
    assert main(["run", "--scenario", "FORWARD_RERUN", "--out",
                 str(out)]) == 1
    assert "input_snapshot: FORWARD_RERUN needs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, t_final", [
    ("BACKWARD_SEED", 1e-3), ("BACKWARD_SEED", 0.0),
    ("CONJ_TURNOVER", -1e-3), ("CONJ_TURNOVER", 0.0)])
def test_preset_horizon_sign_is_a_config_error(tmp_path, capsys, scenario,
                                               t_final):
    with pytest.raises(ValueError, match=f"^t_final: {scenario} needs"):
        RunConfig(scenario=scenario, t_final=t_final)
    out = tmp_path / "wrong_sign"
    assert main(["run", "--scenario", scenario, "--n", "16",
                 f"--t-final={t_final}", "--out", str(out)]) == 1
    assert f"t_final: {scenario} needs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["CONJ_TURNOVER", "FORWARD_RERUN"])
def test_eps_outside_backward_seed_is_a_config_error(tmp_path, capsys,
                                                     scenario):
    # only BACKWARD_SEED smooths; an eps elsewhere would be recorded but
    # change nothing, so it is refused before anything runs
    snap = tmp_path / "start.dat"
    export_snapshot(sample_preset("CONJ_T0", make_grid(32)), snap)
    out = tmp_path / "run"
    source = (["--input", str(snap)] if scenario == "FORWARD_RERUN"
              else ["--n", "32"])
    assert main(["run", "--scenario", scenario, *source, "--t-final",
                 "2e-4", "--dt", "1e-4", "--eps", "1e-3", "--out",
                 str(out)]) == 1
    assert (f"error: eps: {scenario} applies no smoothing"
            in capsys.readouterr().err)
    assert not out.exists()


def test_manifest_records_the_default_eps(tmp_path):
    bwd = run_scenario(RunConfig(n=16, t_final=-4e-5,
                                 out_dir=str(tmp_path / "bwd")))
    conj = run_scenario(RunConfig(scenario="CONJ_TURNOVER", n=16,
                                  t_final=4e-5,
                                  out_dir=str(tmp_path / "conj")))
    assert (bwd.status, conj.status) == ("OK", "OK")
    assert _manifest_section(tmp_path / "bwd", "config")["eps"] == "1e-06"
    assert _manifest_section(tmp_path / "conj", "config")["eps"] == "None"


def test_forward_rerun_consumes_a_snapshot(tmp_path):
    grid = make_grid(64)
    curve = make_curve(grid, np.zeros(64), 0.05 * np.sin(grid.nodes))
    snap = tmp_path / "start.dat"
    export_snapshot(curve, snap, time=-1e-3)

    out = tmp_path / "rerun"
    cfg = RunConfig(scenario="FORWARD_RERUN", input_snapshot=str(snap),
                    t_final=1e-3, dt=2.5e-4, snapshot_every=5e-4,
                    out_dir=str(out))
    manifest = run_scenario(cfg)
    assert manifest.status == "OK"
    assert manifest.trajectory.times[0] == -1e-3
    assert manifest.trajectory.final_time == pytest.approx(1e-3)
    assert (out / manifest.outputs["final"]).exists()
    # the grid is the snapshot's, not the config default
    head = _manifest_section(out)
    assert (head["grid_n"], head["steps"]) == ("64", "8")


def test_scenario_outputs_are_deterministic(tmp_path):
    finals = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = RunConfig(scenario="CONJ_TURNOVER", n=32, t_final=2e-4,
                        dt=1e-4, snapshot_every=1e-4, out_dir=str(out))
        manifest = run_scenario(cfg)
        finals.append((out / manifest.outputs["final"]).read_bytes())
    assert finals[0] == finals[1]


def test_cli_run_and_inspect(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["run", "--scenario", "CONJ_TURNOVER", "--out", str(out),
                 "--n", "32", "--t-final", "2e-4", "--dt", "1e-4",
                 "--snapshot-every", "1e-4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "status = OK" in captured.out
    assert "wrote manifest" in captured.out
    assert "pattern = STABLE\n" in captured.out
    assert "terminal state:" in captured.out
    # min d_alpha z1 starts at 0.04, inside the near-critical band
    assert "near-critical minimum: alpha = " in captured.out

    code = main(["inspect", str(out / "final.dat")])
    captured = capsys.readouterr()
    assert code == 0
    assert "regime = " in captured.out
    assert "near-critical minimum: alpha = " in captured.out


def test_cli_inspect_prints_no_signed_zero(tmp_path, capsys):
    # the parabola vertex of an odd curve's slope minimum sits at alpha = 0
    # up to roundoff, -1.2e-15 for CONJ_T0 at n = 64
    snap = tmp_path / "conj.dat"
    export_snapshot(sample_preset("CONJ_T0", make_grid(64)), snap)
    assert main(["inspect", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "at alpha = 0.000000000 (parabola fit)" in out
    assert "-0.000000000" not in out


def test_cli_run_whose_step_cannot_move_the_clock_exits(tmp_path):
    # at t = -0.002 a step of 1e-20 leaves t unchanged; a fresh process
    # bounds the wait, so a march that does not end fails the test
    snap = tmp_path / "start.dat"
    export_snapshot(sample_preset("SEED_T0", make_grid(16)), snap,
                    time=-0.002)
    out = tmp_path / "rerun"
    src = str(Path(muskat.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "muskat.cli", "run", "--scenario",
         "FORWARD_RERUN", "--input", str(snap), "--dt", "1e-20", "--out",
         str(out)], capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2, done.stderr
    assert "status = STEP_UNDERFLOW" in done.stdout
    head = _manifest_section(out)
    assert (head["status"], head["steps"]) == ("STEP_UNDERFLOW", "0")
    assert head["error"] == "step h = 1.000e-20 does not move t = -0.002"


def test_cli_reads_negative_scientific_notation(tmp_path, capsys):
    out = tmp_path / "bwd"
    code = main(["run", "--scenario", "BACKWARD_SEED", "--n", "32",
                 "--t-final", "-8e-5", "--dt", "4e-5", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert "t_final = -8e-05" in (out / "manifest.txt").read_text()
    assert "pattern = " in capsys.readouterr().out

    # every float flag takes such a value; the config, not the parser,
    # then judges it (FORWARD_RERUN without --input stops before running)
    for flag, message in (("--dt", "dt: must be positive"),
                          ("--eps", "eps: must be finite and nonnegative"),
                          ("--snapshot-every", "snapshot_every"),
                          ("--rel-tol", "rel_tol: must be positive"),
                          ("--t-final", "FORWARD_RERUN needs")):
        assert main(["run", "--scenario", "FORWARD_RERUN", flag,
                     "-2.5e-3"]) == 1
        assert message in capsys.readouterr().err, flag

    # a flag is joined to a number only: --out, followed by --n, is left
    # without its value
    assert main(["run", "--out", "--n", "64"]) == 1
    assert "argument --out: expected one argument" in capsys.readouterr().err


def test_cli_run_sets_every_config_key(tmp_path, capsys):
    out = tmp_path / "adaptive"
    code = main(["run", "--scenario", "BACKWARD_SEED", "--n", "32",
                 "--t-final", "-2e-4", "--mode", "adaptive", "--rel-tol",
                 "1e-9", "--eps", "1e-7", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    config = _manifest_section(out, "config")
    assert [config[k] for k in ("mode", "rel_tol", "eps")] == \
        ["adaptive", "1e-09", "1e-07"]


def test_cli_pattern_events_and_terminal_regime_agree(tmp_path, capsys):
    # At n = 32 the terminal state's parabola-refined minimum slope dips
    # below zero between two nodes while the grid minimum stays positive;
    # the pattern, the events and the terminal regime all follow the grid.
    code = main(["run", "--scenario", "BACKWARD_SEED", "--n", "32",
                 "--t-final=-1e-2", "--out", str(tmp_path / "bwd")])
    text = capsys.readouterr().out
    assert code == 0
    lines = text.splitlines()
    pattern = next(ln for ln in lines if ln.startswith("pattern = "))
    regime = next(ln for ln in lines if ln.startswith("regime = "))
    flips = [ln.split()[-1] for ln in lines
             if ln.startswith("event: ") and "ENTER_" in ln]
    terminal = regime.split()[2]
    assert pattern.split()[-1] == terminal
    assert flips[-1] == "ENTER_" + terminal
    assert ("vertical tangents: none" in lines) == (terminal == "STABLE")


def test_config_fields_keys_and_flags_are_one_set(tmp_path, capsys):
    # a key or flag left behind by a deleted field would reach
    # RunConfig(**values) as a TypeError, which no caller turns into exit 1
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert {key for keys in _SCHEMA.values() for key in keys} == names
    assert set(_RUN_FLAGS) == names
    # the absolute tolerance is no setting: rel_tol alone sets the error
    # scale
    ini = tmp_path / "abs.ini"
    ini.write_text("[time]\nabs_tol = 1e-10\n")
    assert main(["run", "--config", str(ini)]) == 1
    assert "unknown key 'abs_tol' in [time]" in capsys.readouterr().err
    assert main(["run", "--abs-tol", "1e-10"]) == 1
    assert "--abs-tol" in capsys.readouterr().err
    # nor is a tilt: no scenario reads one
    ini.write_text("[tilt]\ndelta = 0.1\n")
    assert main(["run", "--config", str(ini)]) == 1
    assert "unknown section [tilt]" in capsys.readouterr().err
    assert main(["run", "--delta", "0.1"]) == 1
    assert "--delta" in capsys.readouterr().err


def test_cli_verify_lemma(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["verify-lemma", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert "min_admissible_R = 18" in out
    assert target.exists()
    # stdout and the --out file are the committed record, byte for byte
    record = (Path(__file__).parent / "data" / "verify_lemma.txt").read_bytes()
    assert out.encode() == record
    assert target.read_bytes() == record


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert main(["run", "--scenario", "NOPE"]) == 1
    capsys.readouterr()

    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["run", "--scenario", "FORWARD_RERUN"]) == 1
    assert "input_snapshot: FORWARD_RERUN needs" in capsys.readouterr().err

    # a snapshot is read by FORWARD_RERUN alone, never silently ignored
    assert main(["run", "--scenario", "BACKWARD_SEED", "--input",
                 "x.dat", "--out", str(tmp_path / "bwd")]) == 1
    assert ("input_snapshot: BACKWARD_SEED starts from its preset"
            in capsys.readouterr().err)
    assert not (tmp_path / "bwd").exists()

    # the density jump is no setting
    assert main(["run", "--density-jump", "1"]) == 1
    assert "--density-jump" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--mode", "adaptive", "--dt", "0.05"],
                                   ["--dt", "inf"]])
def test_cli_step_control_errors_are_config_errors(tmp_path, capsys, flags):
    # values the stepper rejects are refused before the run starts: exit
    # code 1, the field named, and no manifest of a failed run
    out = tmp_path / "run"
    code = main(["run", "--scenario", "CONJ_TURNOVER", "--n", "16", *flags,
                 "--out", str(out)])
    assert code == 1
    assert "error: dt:" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("flag, value", [("--mode", "verlet"),
                                         ("--rel-tol", "-1"),
                                         ("--eps", "inf")])
def test_cli_param_checks_are_config_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    code = main(["run", "--scenario", "CONJ_TURNOVER", "--n", "16",
                 flag, value, "--out", str(out)])
    assert code == 1
    key = flag[2:].replace("-", "_")
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_cli_flags_override_the_config_file_before_it_is_checked(tmp_path):
    # the file's adaptive dt = 0.05 is out of range; the flag mends it
    ini = tmp_path / "a.ini"
    ini.write_text("[time]\nmode = adaptive\ndt = 0.05\n")
    out = tmp_path / "run"
    code = main(["run", "--config", str(ini), "--dt", "1e-3", "--scenario",
                 "CONJ_TURNOVER", "--n", "16", "--out", str(out)])
    assert code == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "dt = 0.001" in manifest
    assert "mode = adaptive" in manifest


def test_cli_refused_rerun_horizon_exits_two_with_status_error(tmp_path,
                                                               capsys):
    # the snapshot sets t0 = 0, which the horizon -1 does not pass
    snap = tmp_path / "start.dat"
    grid = make_grid(32)
    export_snapshot(make_curve(grid, np.zeros(32), np.zeros(32)), snap,
                    time=0.0)
    code = main(["run", "--scenario", "FORWARD_RERUN", "--input", str(snap),
                 "--t-final", "-1.0", "--out", str(tmp_path / "fail")])
    captured = capsys.readouterr()
    assert code == 2
    assert "status = ERROR" in captured.out
    assert "error = ValueError: t_final: FORWARD_RERUN needs a value past 0"\
        in captured.out


def test_cli_arc_chord_failure_exits_two_and_prints_the_pair(tmp_path,
                                                             capsys):
    # p1 = -alpha and z2 = 0 put every node on one point
    snap = tmp_path / "collapsed.dat"
    grid = make_grid(32)
    export_snapshot(make_curve(grid, -grid.nodes, np.zeros(32)), snap,
                    time=0.0)
    out = tmp_path / "collapsed"
    code = main(["run", "--scenario", "FORWARD_RERUN", "--input", str(snap),
                 "--t-final", "1e-3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    line = ("error = ArcChordError: arc-chord denominator 0.000e+00 at or"
            " below floor 1.000e-12 between nodes (0, 1)")
    assert "status = ARC_CHORD_FAILURE" in captured.out.splitlines()
    assert line in captured.out.splitlines()
    assert line in (out / "manifest.txt").read_text().splitlines()


def test_cli_forward_rerun_refuses_n(tmp_path, capsys):
    # the grid is the snapshot's, so an n would be recorded but not run
    snap = tmp_path / "start.dat"
    export_snapshot(sample_preset("CONJ_T0", make_grid(32)), snap)
    out = tmp_path / "rerun"
    assert main(["run", "--scenario", "FORWARD_RERUN", "--input", str(snap),
                 "--n", "4096", "--t-final", "2e-4", "--out", str(out)]) == 1
    assert ("error: n: FORWARD_RERUN takes its grid from its snapshot"
            in capsys.readouterr().err)
    assert not out.exists()


def test_forward_rerun_refuses_a_snapshot_below_the_minimum_grid(tmp_path,
                                                                 capsys):
    # the snapshot sets the grid, so the run checks it as RunConfig checks n
    snap = tmp_path / "coarse.dat"
    grid = make_grid(8)
    export_snapshot(sample_preset("SEED_T0", grid), snap, time=0.0)
    code = main(["run", "--scenario", "FORWARD_RERUN", "--input", str(snap),
                 "--t-final", "1e-3", "--out", str(tmp_path / "coarse")])
    captured = capsys.readouterr()
    assert code == 2
    assert "status = ERROR" in captured.out
    assert f"{snap}: need an even grid size >= 16, got 8" in captured.out
