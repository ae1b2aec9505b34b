"""Dormand-Prince marching, the regularized backward solver, event search."""

import numpy as np
import pytest

import muskat.integrator as integrator
import muskat.velocity as velocity
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
from muskat.velocity import periodic_rhs


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
    with pytest.raises(ValueError, match="^abs_tol: must be positive"):
        StepControl(mode="fixed", abs_tol=float("nan"))
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


def test_stop_when_records_early_stop(flat64):
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="fixed", dt=1e-4),
                          stop_when=lambda t, c: t >= 5e-4)
    assert traj.status == STATUS_OK
    assert traj.events[-1][1] == EVENT_EARLY_STOP
    assert abs(traj.final_time - 5e-4) < 1e-12


def test_arc_chord_failure_keeps_last_state(flat64, monkeypatch):
    # an absurd floor makes the very first step fail
    monkeypatch.setattr(velocity, "ARC_CHORD_FLOOR", 10.0)
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="fixed", dt=1e-4))
    assert traj.status == STATUS_ARC_CHORD
    assert traj.events == [(0.0, STATUS_ARC_CHORD)]
    assert len(traj.snapshots) == 1
    assert np.array_equal(traj.final.z2, flat64.z2)


def test_error_estimate_is_first_same_as_last(grid64, monkeypatch):
    # the last row of _DP_A is the textbook fifth-order solution, so the
    # last stage input is y5 and the step needs no weights of its own
    b5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84])
    assert np.array_equal(integrator._DP_A[6], b5)
    stages = []

    def recording(curve):
        stages.append(periodic_rhs(curve))
        return stages[-1]

    monkeypatch.setattr(integrator, "periodic_rhs", recording)
    seed = sample_preset("SEED_T0", grid64)
    for dt in (4e-5, -1e-3):
        stages.clear()
        y4, err, k1, k7 = rk45_step(seed, dt)
        assert len(stages) == 7
        assert np.array_equal(k1, stages[0]) and np.array_equal(k7, stages[6])
        y5 = seed.samples + dt * np.tensordot(b5, np.array(stages[:6]), 1)
        assert err > 0.0
        assert err == np.max(np.abs(y5 - y4.samples))


def test_nan_abort(flat64, monkeypatch):
    def poisoned(curve):
        n = curve.grid.n
        return np.stack((np.full(n, np.nan), np.zeros(n)))

    monkeypatch.setattr(integrator, "periodic_rhs", poisoned)
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="fixed", dt=1e-4))
    assert traj.status == STATUS_NAN
    assert traj.events == [(0.0, STATUS_NAN)]
    assert len(traj.snapshots) == 1


def test_adaptive_matches_fixed_reference():
    grid = make_grid(64)
    curve = sample_preset("CONJ_T0", grid)
    fixed = evolve_forward(curve, 1e-3,
                           StepControl(mode="fixed", dt=1.25e-5))
    adaptive = evolve_forward(curve, 1e-3,
                              StepControl(mode="adaptive", dt=1e-4,
                                          rel_tol=1e-10, abs_tol=1e-12))
    assert adaptive.status == STATUS_OK
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
    """Oracle: bisect each bracket in t with partial Dormand-Prince steps
    from its pre-crossing state, smoothed as the run was, to the width."""
    eps = traj.smoothing_eps
    found = []
    for t_a, cur, h, kind, *_ in traj.brackets:
        lo, hi = t_a, t_a + h
        while abs(hi - lo) > width:
            mid = 0.5 * (lo + hi)
            probe = rk45_step(cur, mid - t_a)[0]
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
    ctl = StepControl(mode="adaptive", dt=1e-4, rel_tol=1e-30, abs_tol=1e-30)
    traj = evolve_forward(curve, 1e-3, ctl)
    assert traj.status == STATUS_STEP_UNDERFLOW
    assert traj.events == [(0.0, STATUS_STEP_UNDERFLOW)]
    assert (traj.steps, traj.rejected_steps) == (0, 1)


def test_adaptive_retries_a_failed_trial_step(flat64, monkeypatch):
    calls = []

    def nan_once(curve):
        calls.append(1)
        if len(calls) == 1:
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
