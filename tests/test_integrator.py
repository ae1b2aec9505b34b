"""RK4 and Dormand-Prince marching, the regularized backward solver, event
search."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import muskat
import muskat.integrator as integrator
from muskat.core import make_curve, make_grid, sample_preset
from muskat.integrator import (
    EVENT_EARLY_STOP,
    EVENT_ENTER_STABLE,
    EVENT_ENTER_UNSTABLE,
    STATUS_ARC_CHORD,
    STATUS_NAN,
    STATUS_OK,
    STATUS_STEP_UNDERFLOW,
    StepControl,
    detect_event_times,
    evolve_backward_regularized,
    evolve_forward,
    grid_min_slope,
    rk45_step,
    slope_profile,
)
from muskat.scenario import RunConfig, export_snapshot, run_scenario
from muskat.velocity import ArcChordError, periodic_rhs

from conftest import asymmetric_curve


def test_step_control_validation():
    with pytest.raises(ValueError, match="mode"):
        StepControl(mode="leapfrog")
    with pytest.raises(ValueError, match="dt"):
        StepControl(dt=0.0)
    with pytest.raises(ValueError, match="positive"):
        StepControl(mode="adaptive", rel_tol=-1.0)
    with pytest.raises(ValueError, match="dt: adaptive mode needs"):
        StepControl(mode="adaptive", dt=1.0)
    # fixed mode ignores the adaptive bracket
    assert StepControl(mode="fixed", dt=0.5).dt == 0.5
    # but not the tolerances; every message starts with its field
    with pytest.raises(ValueError, match="^rel_tol: must be positive"):
        StepControl(mode="fixed", rel_tol=-1.0)
    with pytest.raises(ValueError, match="^rel_tol: must be positive"):
        StepControl(mode="fixed", rel_tol=float("nan"))
    with pytest.raises(ValueError, match="^mode: "):
        StepControl(mode="x")


def test_slope_profile_of_flat_and_seed_curves(flat64, grid64):
    assert np.max(np.abs(slope_profile(flat64) - 1.0)) < 1e-12
    # the seed has d_alpha z1 = 1 - cos(alpha), a double zero at alpha = 0
    seed = sample_preset("SEED_T0", grid64)
    expect = 1.0 - np.cos(grid64.nodes)
    assert np.max(np.abs(slope_profile(seed) - expect)) < 1e-10


def test_fixed_step_global_order_four():
    grid = make_grid(64)
    curve = sample_preset("CONJ_T0", grid)
    t_end = 2e-3

    def endpoint(dt):
        traj = evolve_forward(curve, t_end,
                              StepControl(mode="fixed", dt=dt))
        assert traj.status == STATUS_OK
        return traj.final.samples

    ref = endpoint(2.5e-5)
    errs = [np.max(np.abs(endpoint(dt) - ref)) for dt in (4e-4, 2e-4, 1e-4)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(10.0 < r < 24.0 for r in ratios), (errs, ratios)


def test_forward_rejects_empty_interval(flat64):
    with pytest.raises(ValueError, match="t_end"):
        evolve_forward(flat64, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        evolve_forward(flat64, 1.0, t0=2.0)


def test_flat_curve_is_a_fixed_point(flat64):
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="fixed", dt=1e-4),
                          snapshot_every=2e-4)
    assert traj.status == STATUS_OK
    assert traj.events == []
    assert len(traj.times) == 6
    assert traj.direction == 1
    assert np.array_equal(traj.final.p1, flat64.p1)
    assert np.array_equal(traj.final.z2, flat64.z2)


def test_remainder_step_hits_the_goal(flat64):
    traj = evolve_forward(flat64, 3.3e-4,
                          StepControl(mode="fixed", dt=1e-4))
    assert abs(traj.final_time - 3.3e-4) < 1e-12


def test_stop_when_records_early_stop(grid64):
    # the turnover preset's minimum slope falls at every step; a threshold
    # between the values after steps 4 and 5 stops the run after step 5
    curve = sample_preset("CONJ_T0", grid64)
    ctl = StepControl(mode="fixed", dt=1e-4)
    full = evolve_forward(curve, 1e-3, ctl, snapshot_every=1e-4)
    slopes = [grid_min_slope(c) for c in full.snapshots]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    traj = evolve_forward(curve, 1e-3, ctl,
                          stop_slope=0.5 * (slopes[4] + slopes[5]))
    assert traj.status == STATUS_OK
    assert traj.events == [(traj.final_time, EVENT_EARLY_STOP)]
    assert abs(traj.final_time - 5e-4) < 1e-12
    assert np.array_equal(traj.final.samples, full.snapshots[5].samples)


def test_stop_on_the_last_step_records_that_state_once(grid64):
    # the threshold trips on step 5, which also lands on t_end
    curve = sample_preset("CONJ_T0", grid64)
    ctl = StepControl(mode="fixed", dt=1e-4)
    full = evolve_forward(curve, 5e-4, ctl, snapshot_every=1e-4)
    stop = 0.5 * (grid_min_slope(full.snapshots[4])
                  + grid_min_slope(full.snapshots[5]))
    for every, recorded in ((1e-4, 6), (None, 2)):
        traj = evolve_forward(curve, 5e-4, ctl, snapshot_every=every,
                              stop_slope=stop)
        assert len(traj.times) == len(traj.snapshots) == recorded
        assert traj.times[-2] < traj.times[-1] == traj.final_time
        assert traj.events == [(traj.final_time, EVENT_EARLY_STOP)]
        assert np.array_equal(traj.final.samples, full.final.samples)


@pytest.mark.parametrize("every", [0.0, -1.0, np.nan])
def test_snapshot_cadence_must_be_positive(every):
    seed = sample_preset("CONJ_T0", make_grid(32))
    with pytest.raises(ValueError, match="^snapshot_every: "):
        evolve_forward(seed, 4e-4, snapshot_every=every)
    with pytest.raises(ValueError, match="^snapshot_every: "):
        evolve_backward_regularized(seed, -4e-4, snapshot_every=every)


@pytest.mark.parametrize("slope", [np.nan, np.inf, -np.inf])
def test_stop_slope_must_be_finite(slope):
    seed = sample_preset("CONJ_T0", make_grid(32))
    with pytest.raises(ValueError, match="^stop_slope: must be finite"):
        evolve_forward(seed, 4e-4, stop_slope=slope)


def test_adaptive_steps_meet_the_relative_tolerance(grid64, monkeypatch):
    # every accepted step's error estimate is within rel_tol * max(|y|, 1)
    # of its start state, with no absolute floor above it
    real_step = integrator.rk45_step
    trials = []

    def recording(curve, dt, odd, mode, k1):
        out = real_step(curve, dt, odd, mode, k1)
        trials.append((curve, out[0], out[1]))
        return out

    monkeypatch.setattr(integrator, "rk45_step", recording)
    rel_tol = 1e-12
    traj = evolve_forward(sample_preset("CONJ_T0", grid64), 1e-3,
                          StepControl(mode="adaptive", dt=1e-4,
                                      rel_tol=rel_tol),
                          snapshot_every=1e-12)
    assert traj.status == STATUS_OK
    accepted = {id(c) for c in traj.snapshots}
    ratios = [err / (rel_tol * max(np.max(np.abs(cur.samples)), 1.0))
              for cur, nxt, err in trials if id(nxt) in accepted]
    assert len(ratios) == traj.steps > 0
    assert max(ratios) <= 1.0, max(ratios)


def test_arc_chord_failure_keeps_last_state():
    # p1 = -alpha and z2 = 0 put every node on one point, so the very first
    # slope fails
    grid = make_grid(64)
    collided = make_curve(grid, -grid.nodes, np.zeros(grid.n))
    traj = evolve_forward(collided, 1e-3,
                          StepControl(mode="fixed", dt=1e-4))
    assert traj.status == STATUS_ARC_CHORD
    # the first slope's report, as the kernel raises it
    with pytest.raises(ArcChordError) as info:
        periodic_rhs(collided, odd=traj.pair_sum == "half")
    assert traj.error == f"ArcChordError: {info.value}"
    assert traj.error == ("ArcChordError: arc-chord denominator 0.000e+00"
                          " at or below floor 1.000e-12 between nodes (0, 1)")
    assert traj.events == [(0.0, STATUS_ARC_CHORD)]
    assert len(traj.snapshots) == 1
    assert traj.final is collided


def test_error_estimate_is_first_same_as_last(grid64, monkeypatch):
    # the last row of _DP_A is the textbook fifth-order solution, so the
    # last stage input is y5 and the step needs no weights of its own
    b5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84])
    assert np.array_equal(integrator._DP_A[6], b5)
    stages = []

    def recording(curve, **kwargs):
        stages.append(periodic_rhs(curve))
        return stages[-1]

    monkeypatch.setattr(integrator, "periodic_rhs", recording)
    seed = sample_preset("SEED_T0", grid64)
    k1 = periodic_rhs(seed)
    for dt in (4e-5, -1e-3):
        stages.clear()
        y4, err = rk45_step(seed, dt, False, "adaptive", k1)
        # the caller's k1 is the first stage
        assert len(stages) == 6
        y5 = seed.samples + dt * np.tensordot(b5, np.array([k1, *stages[:5]]),
                                              1)
        assert err > 0.0
        assert err == np.max(np.abs(y5 - y4.samples))


def _record_pair_sums(monkeypatch, fail_at=None, failure=None):
    """The odd flag of every right-hand side the integrator evaluates; call
    number fail_at (1-based) returns or raises failure(curve) instead."""
    flags = []

    def recording(curve, **kwargs):
        flags.append(kwargs["odd"])
        if len(flags) == fail_at:
            return failure(curve)
        return periodic_rhs(curve, **kwargs)

    monkeypatch.setattr(integrator, "periodic_rhs", recording)
    return flags


def test_fixed_step_is_classical_rk4(grid64, monkeypatch):
    calls = _record_pair_sums(monkeypatch)
    seed = sample_preset("SEED_T0", grid64)
    y = seed.samples

    def f(v):
        return periodic_rhs(seed.with_samples(v))

    k1 = f(y)
    for dt in (4e-5, -1e-3):
        # the caller's k1 is the first stage; the step evaluates the others
        calls.clear()
        nxt, err = rk45_step(seed, dt, False, "fixed", k1)
        assert len(calls) == 3
        assert err is None
        k = [k1]
        k.append(f(y + 0.5 * dt * k[0]))
        k.append(f(y + 0.5 * dt * k[1]))
        k.append(f(y + dt * k[2]))
        b = np.array([1, 2, 2, 1]) / 6
        expect = y + dt * (b @ np.reshape(k, (4, -1))).reshape(y.shape)
        assert np.array_equal(nxt.samples, expect)
        # an adaptive step is the Dormand-Prince step, 7 stages
        calls.clear()
        dp = rk45_step(seed, dt, False, "adaptive", k1)
        assert len(calls) == 6
        assert dp[1] > 0.0
    # the caller always names the start slope, the pair sum and the tableau
    with pytest.raises(TypeError):
        rk45_step(seed, 4e-5, False, "fixed")


def _paid_end_slopes(traj):
    """End slopes an OK run evaluates beyond its states' start slopes: one
    per flip when smoothed; unsmoothed, a flip's end slope is the next
    state's k1, so only a flip in the last step pays one."""
    if traj.smoothing_eps is not None:
        return len(traj.brackets)
    return sum(t + h == traj.final_time for t, _, h, *_ in traj.brackets)


def test_fixed_run_evaluates_four_slopes_per_step_and_one_per_flip(
        grid64, monkeypatch):
    calls = _record_pair_sums(monkeypatch)
    runs = (lambda: evolve_backward_regularized(
                sample_preset("SEED_T0", grid64), -1e-2),
            lambda: evolve_forward(sample_preset("CONJ_T0", grid64), 1.2e-2))
    counts = []
    for run in runs:
        calls.clear()
        traj = run()
        assert traj.status == STATUS_OK and traj.brackets
        counts.append((len(calls) - 4 * traj.steps, len(traj.brackets)))
        assert len(calls) == 4 * traj.steps + _paid_end_slopes(traj)
        # the Hermite end slope is f of the unsmoothed update, exactly
        for *_, y_next, k1, k_end in traj.brackets:
            assert np.array_equal(k_end, periodic_rhs(
                y_next, odd=traj.pair_sum == "half"))
    # (end slopes paid, flips): the smoothed run pays one per flip, the
    # unsmoothed one reuses its end slope as the next k1
    assert counts == [(2, 2), (0, 1)]


def test_adaptive_run_evaluates_k1_once_per_state_and_six_slopes_per_trial(
        grid64, monkeypatch):
    # a trial step, rejected or not, costs its 6 later stages; its state's
    # k1 is evaluated once and reused by every retry; brackets take the
    # same exact end slope as in fixed mode
    calls = _record_pair_sums(monkeypatch)
    ctl = StepControl(mode="adaptive")
    runs = (lambda: evolve_backward_regularized(
                sample_preset("SEED_T0", grid64), -1e-2, ctl),
            lambda: evolve_forward(sample_preset("CONJ_T0", grid64), 1.2e-2,
                                   ctl))
    rejected = 0
    for run in runs:
        calls.clear()
        traj = run()
        assert traj.status == STATUS_OK and traj.brackets
        trials = traj.steps + traj.rejected_steps
        assert len(calls) == 6 * trials + traj.steps + _paid_end_slopes(traj)
        rejected += traj.rejected_steps
        for _, cur, *_, y_next, k1, k_end in traj.brackets:
            odd = traj.pair_sum == "half"
            assert np.array_equal(k1, periodic_rhs(cur, odd=odd))
            assert np.array_equal(k_end, periodic_rhs(y_next, odd=odd))
    # the backward run rejects a trial step, so a retry is counted
    assert rejected > 0


def _collapse(curve):
    raise ArcChordError(0.0, (0, 1))


def _nan_velocity(curve):
    return np.full((2, curve.grid.n), np.nan)


# the error line of a run that _collapse or _nan_velocity ended at an end
# slope
_END_SLOPE_ERRORS = {
    STATUS_ARC_CHORD: "ArcChordError: arc-chord denominator 0.000e+00 at or"
                      " below floor 1.000e-12 between nodes (0, 1)",
    STATUS_NAN: "NanEncountered: non-finite end slope"}


@pytest.mark.parametrize("failure, status, mode", [
    pytest.param(_collapse, STATUS_ARC_CHORD, "fixed",
                 id="_collapse-ARC_CHORD_FAILURE"),
    pytest.param(_nan_velocity, STATUS_NAN, "fixed",
                 id="_nan_velocity-NAN_ABORT"),
    pytest.param(_collapse, STATUS_ARC_CHORD, "adaptive",
                 id="_collapse-ARC_CHORD_FAILURE-adaptive"),
    pytest.param(_nan_velocity, STATUS_NAN, "adaptive",
                 id="_nan_velocity-NAN_ABORT-adaptive")])
def test_failed_end_slope_ends_the_run_as_a_failed_step(
        grid64, monkeypatch, failure, status, mode):
    # the smoothed seed lifts off within the first backward step, which
    # both modes accept at dt, so the right-hand side after that step's
    # stages is its end slope
    seed = sample_preset("SEED_T0", grid64)
    ctl = StepControl(mode=mode, dt=1e-4)
    ref = evolve_backward_regularized(seed, -3e-4, ctl)
    assert ref.brackets[0][0] == 0.0 and ref.brackets[0][2] == -1e-4
    fail_at = len(integrator._TABLEAUS[mode][1]) + 1
    calls = _record_pair_sums(monkeypatch, fail_at=fail_at, failure=failure)
    traj = evolve_backward_regularized(seed, -3e-4, ctl)
    assert len(calls) == fail_at
    assert (traj.status, traj.error) == (status, _END_SLOPE_ERRORS[status])
    assert traj.events == [(0.0, status)]
    assert (traj.steps, traj.rejected_steps, traj.brackets,
            len(traj.snapshots)) == (0, 0, [], 1)


def test_nan_abort(flat64, monkeypatch):
    def poisoned(curve, **kwargs):
        n = curve.grid.n
        return np.stack((np.full(n, np.nan), np.zeros(n)))

    monkeypatch.setattr(integrator, "periodic_rhs", poisoned)
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="fixed", dt=1e-4))
    assert traj.status == STATUS_NAN
    # the march checks the first stage before any step uses it
    assert traj.error == "NanEncountered: non-finite start slope"
    assert traj.events == [(0.0, STATUS_NAN)]
    assert len(traj.snapshots) == 1


def test_adaptive_matches_fixed_reference():
    grid = make_grid(64)
    curve = sample_preset("CONJ_T0", grid)
    fixed = evolve_forward(curve, 1e-3,
                           StepControl(mode="fixed", dt=1.25e-5))
    adaptive = evolve_forward(curve, 1e-3,
                              StepControl(mode="adaptive", dt=1e-4,
                                          rel_tol=1e-10))
    assert (adaptive.status, adaptive.error) == (STATUS_OK, None)
    assert abs(adaptive.final_time - 1e-3) < 1e-12
    assert np.max(np.abs(adaptive.final.z2 - fixed.final.z2)) < 1e-8
    assert np.max(np.abs(adaptive.final.p1 - fixed.final.p1)) < 1e-8


def test_forward_determinism(grid64):
    curve = sample_preset("SEED_T0", grid64)
    a = evolve_forward(curve, 4e-4, StepControl(mode="fixed", dt=1e-4))
    b = evolve_forward(curve, 4e-4, StepControl(mode="fixed", dt=1e-4))
    assert np.array_equal(a.final.p1, b.final.p1)
    assert np.array_equal(a.final.z2, b.final.z2)


def test_backward_rejects_nonnegative_goal(flat64):
    with pytest.raises(ValueError, match="t_final"):
        evolve_backward_regularized(flat64, 0.0)


def test_infinite_horizons_and_nan_eps_are_rejected():
    # unchecked, an infinite horizon would take no step and report OK, and a
    # NaN eps would run unsmoothed while the trajectory records it
    seed = sample_preset("SEED_T0", make_grid(32))
    for t_end, t0 in ((np.inf, 0.0), (np.nan, 0.0), (1.0, -np.inf)):
        with pytest.raises(ValueError, match="^need finite t0 < t_end"):
            evolve_forward(seed, t_end, t0=t0)
    for t_final in (-np.inf, np.nan):
        with pytest.raises(ValueError, match="^need finite t_final < 0"):
            evolve_backward_regularized(seed, t_final)
    with pytest.raises(ValueError, match="eps"):
        evolve_backward_regularized(seed, -1e-3, eps=np.nan)


def test_backward_smooths_the_initial_state(grid64):
    # a 1e-9 ripple sits far below the default threshold and must vanish
    # before the first step is taken
    curve = make_curve(grid64, np.zeros(grid64.n),
                       1e-9 * np.sin(grid64.nodes))
    traj = evolve_backward_regularized(curve, -1e-4,
                                       StepControl(dt=1e-4))
    assert traj.smoothing_eps == 1e-6
    assert np.max(np.abs(traj.snapshots[0].z2)) < 1e-20
    assert traj.status == STATUS_OK
    assert traj.direction == -1


def test_backward_seed_run_and_event_search(grid64):
    curve = sample_preset("SEED_T0", grid64)
    traj = evolve_backward_regularized(curve, -2e-3,
                                       snapshot_every=5e-4)
    assert traj.status == STATUS_OK
    assert traj.final_time == pytest.approx(-2e-3, abs=1e-12)
    assert all(b < a for a, b in zip(traj.times, traj.times[1:]))

    # the smoothed seed sits a hair on the unstable side of critical and
    # lifts off within the first step
    events = detect_event_times(traj)
    assert len(events) == 1
    t_star, kind = events[0]
    assert kind == EVENT_ENTER_STABLE
    assert -4e-5 < t_star < 0.0


def _restep_event_times(traj, width=1e-10):
    """Oracle: bisect each bracket in t with partial steps of the run's
    method from its pre-crossing state, smoothed as the run was, to the
    width."""
    eps = traj.smoothing_eps
    found = []
    for t_a, cur, h, kind, *_ in traj.brackets:
        k1 = periodic_rhs(cur)
        lo, hi = t_a, t_a + h
        while abs(hi - lo) > width:
            mid = 0.5 * (lo + hi)
            probe = rk45_step(cur, mid - t_a, False, traj.control.mode, k1)[0]
            if eps is not None:
                probe = integrator._smoothed(probe, eps)
            if (grid_min_slope(probe) > 0.0) == (kind == EVENT_ENTER_UNSTABLE):
                lo = mid
            else:
                hi = mid
        found.append((0.5 * (lo + hi), kind))
    return found


def _seed_backward_and_conj_forward(grid):
    return (evolve_backward_regularized(sample_preset("SEED_T0", grid),
                                        -1e-2),
            evolve_forward(sample_preset("CONJ_T0", grid), 1.2e-2))


def test_hermite_events_match_partial_step_bisection(grid64):
    for traj in _seed_backward_and_conj_forward(grid64):
        assert traj.status == STATUS_OK
        events = detect_event_times(traj)
        oracle = _restep_event_times(traj)
        assert len(events) == len(traj.brackets) > 0
        assert [k for _, k in events] == [k for _, k in oracle]
        for (t, _), (t_ref, _) in zip(events, oracle):
            assert abs(t - t_ref) < 5e-9, (t, t_ref)


def test_event_refinement_evaluates_no_right_hand_side(grid64, monkeypatch):
    runs = _seed_backward_and_conj_forward(grid64)
    expected = [detect_event_times(traj) for traj in runs]

    def forbidden(*args):
        raise AssertionError("event refinement evaluated the right-hand side")

    monkeypatch.setattr(integrator, "periodic_rhs", forbidden)
    monkeypatch.setattr(integrator, "rk45_step", forbidden)
    for traj, events in zip(runs, expected):
        assert detect_event_times(traj) == events
        assert [k for _, k in events] == [b[3] for b in traj.brackets]


def test_event_detection_is_independent_of_snapshot_cadence(grid64):
    # both flips of the seed run fall inside one 1e-2 snapshot gap
    curve = sample_preset("SEED_T0", grid64)
    found = []
    for every in (1e-3, 1e-2):
        traj = evolve_backward_regularized(curve, -1e-2,
                                           snapshot_every=every)
        assert traj.status == STATUS_OK
        found.append(detect_event_times(traj))
    assert found[0] == found[1]
    assert [kind for _, kind in found[0]] == [EVENT_ENTER_STABLE,
                                             EVENT_ENTER_UNSTABLE]


def test_adaptive_step_underflow_has_its_own_status(grid64, monkeypatch):
    monkeypatch.setattr(integrator, "_MIN_DT", 1e-4)
    monkeypatch.setattr(integrator, "_MAX_DT", 1e-4)
    curve = sample_preset("CONJ_T0", grid64)
    ctl = StepControl(mode="adaptive", dt=1e-4, rel_tol=1e-30)
    traj = evolve_forward(curve, 1e-3, ctl)
    assert traj.status == STATUS_STEP_UNDERFLOW
    found = re.fullmatch(r"error estimate (\S+) above tolerance (\S+) at"
                         r" the minimum step 0\.0001", traj.error)
    assert float(found[1]) > float(found[2]) > 0.0
    assert traj.events == [(0.0, STATUS_STEP_UNDERFLOW)]
    assert (traj.steps, traj.rejected_steps) == (0, 1)


_STALLED_CLOCK_SCRIPT = """
import json, sys
import muskat.integrator as integrator
from muskat.core import make_grid, sample_preset
from muskat.integrator import StepControl, evolve_forward
calls = []
rhs = integrator.periodic_rhs
integrator.periodic_rhs = lambda c, **kw: calls.append(1) or rhs(c, **kw)
t0 = float(sys.argv[2])
traj = evolve_forward(sample_preset("CONJ_T0", make_grid(16)), t0 + 1e-6,
                      StepControl(mode=sys.argv[1], dt=float(sys.argv[3])),
                      t0=t0)
print(json.dumps([traj.status, traj.error, traj.steps, traj.times,
                  len(calls)]))
"""


@pytest.mark.parametrize("mode, t0, dt", [("fixed", 1.0, 1e-20),
                                          ("adaptive", 1e5, 1e-12)])
def test_a_step_that_cannot_move_the_clock_ends_the_run(mode, t0, dt):
    # t + h == t: such a march never reached t_end; a fresh process bounds
    # the wait, so a march that does not end fails the test
    src = str(Path(muskat.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _STALLED_CLOCK_SCRIPT, mode, str(t0), str(dt)],
        capture_output=True, text=True, timeout=30, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    status, error, steps, times, slopes = json.loads(done.stdout)
    # the run ends before its start slope is evaluated
    assert (status, steps, times, slopes) == (STATUS_STEP_UNDERFLOW, 0,
                                              [t0], 0)
    assert error == f"step h = {dt:.3e} does not move t = {t0:.17g}"


def test_adaptive_retries_a_failed_trial_step(flat64, monkeypatch):
    calls = []

    def nan_once(curve, **kwargs):
        # call 1 is the start slope k1, call 2 the first trial's second stage
        calls.append(1)
        if len(calls) == 2:
            n = curve.grid.n
            return np.stack((np.full(n, np.nan), np.zeros(n)))
        return periodic_rhs(curve)

    monkeypatch.setattr(integrator, "periodic_rhs", nan_once)
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="adaptive", dt=1e-4))
    assert traj.status == STATUS_OK
    assert traj.events == []
    assert traj.rejected_steps == 1
    assert abs(traj.final_time - 1e-3) < 1e-12
    # each accepted step took its state's k1 and 6 stages; the failed trial
    # took 1 stage, and its retry reused the first state's k1
    assert len(calls) == 1 + 7 * traj.steps


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_failed_start_slope_ends_the_run_at_once(monkeypatch, mode):
    # f(y_n) does not depend on h, so no smaller step can mend its failure:
    # p1 = -alpha and z2 = 0 put every node of the n = 32 curve on one point
    grid = make_grid(32)
    collapsed = make_curve(grid, -grid.nodes, np.zeros(32))
    calls = _record_pair_sums(monkeypatch)
    traj = evolve_forward(collapsed, 1e-3, StepControl(mode=mode, dt=1e-3))
    assert len(calls) == 1
    assert traj.status == STATUS_ARC_CHORD
    assert traj.error.startswith("ArcChordError: arc-chord denominator")
    assert traj.events == [(0.0, STATUS_ARC_CHORD)]
    assert (traj.steps, traj.rejected_steps, len(traj.snapshots)) == (0, 0, 1)


def _fixed_rhs_count(manifest):
    """Right-hand sides of a fixed-step scenario: 4 per step and the end
    slopes the run pays."""
    traj = manifest.trajectory
    return 4 * traj.steps + _paid_end_slopes(traj)


def test_odd_runs_and_their_reruns_take_the_half_sum(tmp_path, monkeypatch):
    flags = _record_pair_sums(monkeypatch)
    finals = []
    for scenario, t_final in (("BACKWARD_SEED", -2e-4),
                              ("CONJ_TURNOVER", 2e-4)):
        out = tmp_path / scenario
        flags.clear()
        manifest = run_scenario(RunConfig(
            scenario=scenario, n=32, t_final=t_final, dt=1e-4,
            out_dir=str(out)))
        assert manifest.status == STATUS_OK
        assert manifest.trajectory.pair_sum == "half"
        assert flags == [True] * _fixed_rhs_count(manifest)
        finals.append(out / manifest.outputs["final"])
    for k, final in enumerate(finals):
        out = tmp_path / f"rerun{k}"
        flags.clear()
        manifest = run_scenario(RunConfig(
            scenario="FORWARD_RERUN", input_snapshot=str(final),
            t_final=3e-4, dt=1e-4, out_dir=str(out)))
        assert manifest.status == STATUS_OK
        assert "pair_sum = half\n" in (out / "manifest.txt").read_text()
        assert manifest.trajectory.steps
        assert flags == [True] * _fixed_rhs_count(manifest)


def test_curves_that_are_not_odd_take_the_full_sum(tmp_path, monkeypatch):
    flags = _record_pair_sums(monkeypatch)
    grid = make_grid(32)
    traj = evolve_forward(asymmetric_curve(grid), 2e-4,
                          StepControl(mode="fixed", dt=1e-4))
    assert (traj.status, traj.pair_sum) == (STATUS_OK, "full")
    assert not traj.brackets
    assert flags == [False] * 8
    # the start state decides: a mirror defect of 1e-13 relative is odd,
    # one of 1e-11 is not
    seed = sample_preset("SEED_T0", grid)
    scale = np.max(np.abs(seed.samples))
    for defect, expect in ((1e-13, "half"), (1e-11, "full")):
        bumped = seed.with_samples((seed.p1, seed.z2 + defect * scale))
        traj = evolve_forward(bumped, 1e-4, StepControl(dt=1e-4))
        assert traj.pair_sum == expect
    export_snapshot(asymmetric_curve(grid), tmp_path / "asym.dat")
    manifest = run_scenario(RunConfig(
        scenario="FORWARD_RERUN", input_snapshot=str(tmp_path / "asym.dat"),
        t_final=1e-4, dt=1e-4, out_dir=str(tmp_path / "rerun")))
    assert manifest.trajectory.pair_sum == "full"
    assert "pair_sum = full\n" in (tmp_path / "rerun/manifest.txt").read_text()
