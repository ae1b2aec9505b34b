"""Turning reports, norm histories, and regime timelines."""

import numpy as np
import pytest

import muskat.diagnostics as diagnostics
from muskat.core import make_curve, make_grid, sample_preset
from muskat.diagnostics import (
    REGIME_CRITICAL,
    REGIME_STABLE,
    REGIME_UNSTABLE,
    classify_slope,
    norm_series,
    regime_pattern,
    regime_timeline,
    turning_report,
)
from muskat.integrator import (
    EVENT_ENTER_STABLE,
    EVENT_ENTER_UNSTABLE,
    StepControl,
    Trajectory,
    detect_event_times,
    evolve_backward_regularized,
    evolve_forward,
    grid_min_slope,
    slope_profile,
)
from muskat.spectral import TrigInterpolant

from conftest import tilted_seed


def overturned_curve(n=256, amp=1.2):
    grid = make_grid(n)
    return make_curve(grid, -amp * np.sin(grid.nodes),
                      0.3 * np.sin(grid.nodes))


def test_classify_slope_bands(monkeypatch):
    assert classify_slope(0.5) == REGIME_STABLE
    assert classify_slope(-0.5) == REGIME_UNSTABLE
    assert classify_slope(0.0) == REGIME_CRITICAL
    assert classify_slope(5e-11) == REGIME_CRITICAL
    monkeypatch.setattr(diagnostics, "SLOPE_TOL", 1e-12)
    assert classify_slope(5e-11) == REGIME_STABLE


def test_turning_report_on_stable_graph(flat64):
    rep = turning_report(flat64)
    assert rep.regime == REGIME_STABLE
    assert rep.min_slope == pytest.approx(1.0, abs=1e-13)
    assert rep.tangent_points == ()


def test_turning_report_on_overturned_curve():
    # slope 1 - 1.2 cos(alpha) crosses zero at alpha = +-acos(1/1.2)
    rep = turning_report(overturned_curve())
    assert rep.regime == REGIME_UNSTABLE
    assert rep.min_slope == pytest.approx(-0.2, abs=1e-12)
    assert rep.argmin == pytest.approx(0.0, abs=1e-12)
    assert len(rep.tangent_points) == 2

    a_star = np.arccos(1.0 / 1.2)
    for sign, (alpha, z1, z2) in zip((-1.0, 1.0), rep.tangent_points):
        assert alpha == pytest.approx(sign * a_star, abs=1e-8)
        assert z1 == pytest.approx(sign * (a_star - 1.2 * np.sin(a_star)),
                                   abs=1e-8)
        assert z2 == pytest.approx(sign * 0.3 * np.sin(a_star), abs=1e-8)


def _brentq_tangent_alphas(curve):
    """Reference: brentq (scipy, a test-only dependency) on every node
    bracket where the grid slope changes sign, kept where |slope| < 1e-8;
    the states used here have no near-duplicate roots to merge."""
    from scipy.optimize import brentq

    grid, s = curve.grid, slope_profile(curve)
    p1_i = TrigInterpolant(curve.p1)
    slope = lambda a: 1.0 + p1_i(a, order=1)
    roots = []
    for i in range(grid.n):
        if (s[i] > 0.0) == (s[(i + 1) % grid.n] > 0.0):
            continue
        try:
            root = brentq(slope, grid.nodes[i], grid.nodes[i] + grid.spacing,
                          xtol=1e-14)
        except ValueError:
            continue
        if abs(slope(root)) < diagnostics.TANGENT_ROOT_TOL:
            roots.append(root)
    return sorted(roots)


@pytest.fixture(scope="module")
def conj_past_turnover():
    traj = evolve_forward(sample_preset("CONJ_T0", make_grid(128)),
                          0.3, StepControl(),
                          stop_slope=-0.02)
    assert grid_min_slope(traj.final) < -0.02
    return traj.final


@pytest.mark.parametrize("state", ["overturned", "conj_past_turnover"])
def test_tangent_points_agree_with_brentq(state, request):
    curve = (overturned_curve() if state == "overturned"
             else request.getfixturevalue(state))
    points = turning_report(curve).tangent_points
    alphas = _brentq_tangent_alphas(curve)
    assert len(points) == len(alphas) == 2
    for (alpha, z1, z2), ref in zip(points, alphas):
        assert abs(alpha - ref) <= 1e-12
        assert abs(z1 - (ref + TrigInterpolant(curve.p1)(ref))) <= 1e-12
        assert abs(z2 - TrigInterpolant(curve.z2)(ref)) <= 1e-12


def _parabola_at(curve, i):
    """The refined minimum around node i, as one scalar parabola."""
    s, n = slope_profile(curve), curve.grid.n
    sm, s0, sp = s[(i - 1) % n], s[i], s[(i + 1) % n]
    den = sm - 2.0 * s0 + sp
    if den <= 0.0:
        return float(curve.grid.nodes[i]), float(s0)
    off = float(np.clip(0.5 * (sm - sp) / den, -1.0, 1.0))
    return (float(curve.grid.nodes[i] + off * curve.grid.spacing),
            float(s0 - 0.25 * (sm - sp) * off))


@pytest.mark.parametrize("state", ["two_sites", "tilt", "flat",
                                   "conj_past_turnover"])
def test_minima_equal_a_per_node_loop_bitwise(state, request, flat64):
    grid = make_grid(256)
    curve = {
        "two_sites": lambda: make_curve(
            grid, -0.475 * np.sin(2.0 * grid.nodes)
            + 1e-3 * np.sin(7.0 * grid.nodes), np.zeros(grid.n)),
        "tilt": lambda: tilted_seed(grid, 0.05),
        "flat": lambda: flat64,
        "conj_past_turnover": lambda: request.getfixturevalue(state),
    }[state]()
    s, n = slope_profile(curve), curve.grid.n
    loop = []
    for i in range(n):
        if s[i] < s[(i - 1) % n] and s[i] <= s[(i + 1) % n]:
            alpha, val = _parabola_at(curve, i)
            if abs(val) <= diagnostics.NEAR_CRITICAL_BAND:
                loop.append((alpha, val))
    assert turning_report(curve).near_critical == tuple(sorted(loop))
    rep = turning_report(curve)
    assert (rep.argmin, rep.min_slope) == \
        _parabola_at(curve, int(np.argmin(s)))


def test_near_critical_minima_single_site():
    grid = make_grid(256)
    curve = make_curve(grid, -0.95 * np.sin(grid.nodes), np.zeros(grid.n))
    minima = turning_report(curve).near_critical
    assert len(minima) == 1
    alpha, val = minima[0]
    assert alpha == pytest.approx(0.0, abs=1e-10)
    assert val == pytest.approx(0.05, abs=1e-10)


def test_near_critical_minima_band_exclusion():
    grid = make_grid(256)
    curve = make_curve(grid, -0.7 * np.sin(grid.nodes), np.zeros(grid.n))
    assert turning_report(curve).near_critical == ()


def test_near_critical_minima_two_sites():
    # slope 1 - 0.95 cos(2 alpha) dips to 0.05 at both alpha = -pi and 0
    grid = make_grid(256)
    curve = make_curve(grid, -0.475 * np.sin(2.0 * grid.nodes),
                       np.zeros(grid.n))
    minima = turning_report(curve).near_critical
    assert len(minima) == 2
    assert minima[0][0] == pytest.approx(-np.pi, abs=1e-10)
    assert minima[1][0] == pytest.approx(0.0, abs=1e-10)
    assert all(v == pytest.approx(0.05, abs=1e-10) for _, v in minima)


def test_norm_series_on_decaying_mode():
    grid = make_grid(64)
    curve = make_curve(grid, np.zeros(grid.n), 0.1 * np.sin(grid.nodes))
    traj = evolve_forward(curve, 5e-3,
                          StepControl(mode="fixed", dt=2.5e-4),
                          snapshot_every=1e-3)
    series = norm_series(traj)
    assert series.sup_f[0] == pytest.approx(0.1, abs=1e-14)
    assert np.all(np.diff(series.sup_f) <= 1e-12)
    assert np.all(np.isfinite(series.sup_slope))
    assert np.all(series.sup_slope[1:] < series.sup_slope[0])


def test_norm_series_marks_overturned_snapshots():
    flat = make_curve(make_grid(256), np.zeros(256), np.zeros(256))
    traj = Trajectory(times=[0.0, 1.0],
                      snapshots=[flat, overturned_curve()],
                      events=[],
                      control=StepControl())
    series = norm_series(traj)
    assert np.isfinite(series.sup_slope[0])
    assert np.isnan(series.sup_slope[1])
    assert series.sup_f[1] == pytest.approx(0.3, abs=1e-12)


def test_norm_series_agrees_with_the_regime_on_critical_snapshots():
    # minimum slope 5e-11 at alpha = 0: inside the CRITICAL band, not a graph
    grid = make_grid(64)
    curve = make_curve(grid, -(1.0 - 5e-11) * np.sin(grid.nodes),
                       0.3 * np.sin(grid.nodes))
    traj = Trajectory(times=[0.0], snapshots=[curve], events=[],
                      control=StepControl())
    assert classify_slope(grid_min_slope(curve)) == REGIME_CRITICAL
    assert np.isnan(norm_series(traj).sup_slope[0])


def test_single_regime_timeline(flat64):
    traj = evolve_forward(flat64, 1e-3,
                          StepControl(mode="fixed", dt=2e-4),
                          snapshot_every=5e-4)
    timeline = regime_timeline(traj, tuple(detect_event_times(traj)))
    assert timeline == (((0.0, traj.final_time), REGIME_STABLE),)


def test_backward_timeline_tiles_and_aligns_with_events(grid64):
    curve = sample_preset("SEED_T0", grid64)
    traj = evolve_backward_regularized(curve, -2e-3,
                                       snapshot_every=5e-4)
    events = detect_event_times(traj)
    timeline = regime_timeline(traj, events=tuple(events))

    # exact tiling of the run in stored time order
    assert timeline[0][0][0] == traj.times[0]
    assert timeline[-1][0][1] == traj.times[-1]
    for left, right in zip(timeline, timeline[1:]):
        assert left[0][1] == right[0][0]

    # smoothed seed starts critical, lifts into the stable regime at the
    # located event time
    assert [reg for _, reg in timeline] == [REGIME_CRITICAL, REGIME_STABLE]
    assert timeline[0][0][1] == events[0][0]

    # boundary falls back to the gap midpoint when no event is supplied
    fallback = regime_timeline(traj, events=())
    assert fallback[0][0][1] == pytest.approx(
        0.5 * (traj.times[0] + traj.times[1]))


@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_two_flips_inside_one_snapshot_gap(flat64, sgn):
    # both snapshots are stable, so only the refined events can show the
    # unstable excursion between them
    traj = Trajectory(times=[0.0, sgn], snapshots=[flat64, flat64],
                      events=[], control=StepControl())
    events = ((0.25 * sgn, EVENT_ENTER_UNSTABLE),
              (0.5 * sgn, EVENT_ENTER_STABLE))
    timeline = regime_timeline(traj, events)
    assert timeline == (((0.0, 0.25 * sgn), REGIME_STABLE),
                        ((0.25 * sgn, 0.5 * sgn), REGIME_UNSTABLE),
                        ((0.5 * sgn, sgn), REGIME_STABLE))
    assert regime_pattern(timeline) == "STABLE -> UNSTABLE -> STABLE"


def test_slope_profile_sign_matches_slope_classification(grid64):
    curve = sample_preset("SEED_T0", grid64)
    traj = evolve_backward_regularized(curve, -2e-3,
                                       snapshot_every=5e-4)
    for snap in traj.snapshots:
        rep = turning_report(snap)
        grid_min = float(np.min(slope_profile(snap)))
        assert rep.grid_min == grid_min_slope(snap) == grid_min
        assert rep.regime == classify_slope(grid_min)
        if abs(rep.min_slope) > 1e-10:
            assert (grid_min > 0.0) == (rep.min_slope > 0.0)


def test_timeline_of_one_snapshot_is_one_point(flat64):
    traj = Trajectory(times=[0.0], snapshots=[flat64], events=[],
                      control=StepControl())
    assert regime_timeline(traj, ()) == (((0.0, 0.0), REGIME_STABLE),)


def test_regime_pattern_collapses_slivers_and_repeats():
    seg = lambda reg: ((0.0, 1.0), reg)
    timeline = [seg(REGIME_UNSTABLE), seg(REGIME_CRITICAL),
                seg(REGIME_UNSTABLE), seg(REGIME_STABLE),
                seg(REGIME_CRITICAL), seg(REGIME_UNSTABLE)]
    assert regime_pattern(timeline) == "UNSTABLE -> STABLE -> UNSTABLE"
    assert regime_pattern([seg(REGIME_CRITICAL), seg(REGIME_STABLE)]) == \
        "STABLE"
    assert regime_pattern([seg(REGIME_CRITICAL)]) == "CRITICAL"
