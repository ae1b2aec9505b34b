"""Interface diagnostics: turning state, norm histories, regime timelines.

Everything here is read-only over curves and trajectories. Stability is
judged by the grid minimum m = integrator.grid_min_slope(curve), the value
the march and the event search use, with a small tolerance band:

    STABLE     m > SLOPE_TOL
    CRITICAL   |m| <= SLOPE_TOL
    UNSTABLE   m < -SLOPE_TOL

so a curve whose graph property degenerates at isolated points (slope
touching zero) is reported as critical rather than flapping between the
other two regimes under roundoff. The parabola-refined minimum of a turning
report is an estimate of the continuous minimum and judges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, SampledCurve
from .integrator import (EVENT_ENTER_STABLE, Trajectory, grid_min_slope,
                         slope_profile)
from .spectral import TrigInterpolant, filtered_derivative

REGIME_STABLE = "STABLE"
REGIME_CRITICAL = "CRITICAL"
REGIME_UNSTABLE = "UNSTABLE"

SLOPE_TOL = 1e-10

NEAR_CRITICAL_BAND = 0.1

TANGENT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class TurningReport:
    """Turning state of a single curve.

    regime is classified from grid_min, the grid minimum of d_alpha z1.
    min_slope and argmin are the parabola-refined estimate of the minimum
    between the nodes; they can differ from grid_min in sign near turnover.
    """
    min_slope: float
    argmin: float
    grid_min: float
    regime: str
    tangent_points: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class NormSeries:
    """sup |f| and sup |f'| along a trajectory; slope is NaN off-graph."""
    times: np.ndarray
    sup_f: np.ndarray
    sup_slope: np.ndarray


def classify_slope(min_slope: float) -> str:
    if min_slope > SLOPE_TOL:
        return REGIME_STABLE
    if min_slope < -SLOPE_TOL:
        return REGIME_UNSTABLE
    return REGIME_CRITICAL


def _refine_minimum(grid: Grid, s: np.ndarray, i
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Parabola through the cyclic triples around the nodes i; returns the
    vertices (alpha, s), or the node itself where a triple is not convex."""
    sm, s0, sp = np.roll(s, 1)[i], s[i], np.roll(s, -1)[i]
    den = sm - 2.0 * s0 + sp
    convex = den > 0.0
    off = np.clip(0.5 * (sm - sp) / np.where(convex, den, 1.0), -1.0, 1.0)
    return (np.where(convex, grid.nodes[i] + off * grid.spacing,
                     grid.nodes[i]),
            np.where(convex, s0 - 0.25 * (sm - sp) * off, s0))


def turning_report(curve: SampledCurve) -> TurningReport:
    """Minimum slope, its refined location, regime, and vertical tangents.

    Tangent points are sign changes of d_alpha z1 between neighbouring
    nodes, bisected together on the band-limited interpolant once per bit
    of the float significand and kept where |slope| < 1e-8. A bracket whose
    interpolant end values agree in sign under roundoff is dropped; nearby
    duplicates from a slope grazing zero at a node collapse to one point.
    """
    grid = curve.grid
    s = slope_profile(curve)
    argmin, min_slope = _refine_minimum(grid, s, int(np.argmin(s)))

    p1_i = TrigInterpolant(curve.p1)
    slope = lambda a: 1.0 + p1_i(a, order=1)
    lo = grid.nodes[np.flatnonzero((s > 0.0) != (np.roll(s, -1) > 0.0))]
    hi = lo + grid.spacing
    s_lo = slope(lo)
    keep = s_lo * slope(hi) <= 0.0
    lo, hi, s_lo = lo[keep], hi[keep], s_lo[keep]
    for _ in range(np.finfo(float).nmant + 1):
        mid = 0.5 * (lo + hi)
        right = np.sign(slope(mid)) == np.sign(s_lo)
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    roots = 0.5 * (lo + hi)
    merged: list[float] = []
    for r in sorted(roots[np.abs(slope(roots)) < TANGENT_ROOT_TOL].tolist()):
        if merged and r - merged[-1] < 0.25 * grid.spacing:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)
    r = np.array(merged)
    points = tuple(zip(merged, (r + p1_i(r)).tolist(),
                       TrigInterpolant(curve.z2)(r).tolist()))
    grid_min = float(s.min())  # grid_min_slope(curve)
    return TurningReport(min_slope=float(min_slope), argmin=float(argmin),
                         grid_min=grid_min, regime=classify_slope(grid_min),
                         tangent_points=points)


def near_critical_minima(curve: SampledCurve
                         ) -> tuple[tuple[float, float], ...]:
    """Refined local minima of the slope within NEAR_CRITICAL_BAND of zero.

    These are the candidate turnover sites while the interface is still a
    graph; each entry is (alpha, slope).
    """
    s = slope_profile(curve)
    i = np.flatnonzero((s < np.roll(s, 1)) & (s <= np.roll(s, -1)))
    alpha, val = _refine_minimum(curve.grid, s, i)
    near = np.abs(val) <= NEAR_CRITICAL_BAND
    return tuple(sorted(zip(alpha[near].tolist(), val[near].tolist())))


def norm_series(traj: Trajectory) -> NormSeries:
    """sup |z2| and, while the curve is a graph, sup |dz2/dz1| per snapshot.

    A snapshot counts as a graph when classify_slope calls it STABLE, so
    norms.dat and timeline.txt never disagree on a snapshot.
    """
    times = np.array(traj.times, dtype=float)
    sup_f = np.empty(len(times))
    sup_slope = np.empty(len(times))
    for i, c in enumerate(traj.snapshots):
        sup_f[i] = np.max(np.abs(c.z2))
        dp1, dz2 = filtered_derivative(c.samples, 1)
        dz1 = 1.0 + dp1
        # dz1.min() is grid_min_slope(c)
        if classify_slope(float(dz1.min())) == REGIME_STABLE:
            sup_slope[i] = np.max(np.abs(dz2 / dz1))
        else:
            sup_slope[i] = np.nan
    return NormSeries(times=times, sup_f=sup_f, sup_slope=sup_slope)


def regime_timeline(traj: Trajectory, events: tuple[tuple[float, str], ...]
                    ) -> tuple[tuple[tuple[float, float], str], ...]:
    """Partition of [t0, t_end] into constant-regime segments.

    Every one of the given events (the flips detect_event_times located) is
    a boundary, wherever it falls: two flips inside one snapshot gap give
    the regime of the first flip between them. A gap without events between
    snapshots of different regimes falls back to a boundary at its
    midpoint. Neighbouring segments differ in regime; intervals are in
    stored (possibly reversed) time order and tile the full run exactly; a
    run of one snapshot is the one segment ((t0, t0), regime).
    """
    times = traj.times
    regs = [classify_slope(grid_min_slope(c)) for c in traj.snapshots]
    sgn = float(traj.direction)
    flips = sorted(events, key=lambda ev: sgn * ev[0])

    # (boundary, regime after it), in stored time order
    cuts: list[tuple[float, str]] = []
    k = 0
    for i in range(1, len(regs)):
        lo, hi = times[i - 1], times[i]
        inside = []
        while k < len(flips) and (hi - flips[k][0]) * sgn >= 0.0:
            if (flips[k][0] - lo) * sgn >= 0.0:
                inside.append(flips[k])
            k += 1
        if inside:
            cuts += [(t_ev, REGIME_STABLE if kind == EVENT_ENTER_STABLE
                      else REGIME_UNSTABLE) for t_ev, kind in inside[:-1]]
            cuts.append((inside[-1][0], regs[i]))
        elif regs[i] != regs[i - 1]:
            cuts.append((0.5 * (lo + hi), regs[i]))

    segments: list[tuple[tuple[float, float], str]] = []
    seg_start, reg = times[0], regs[0]
    for t_cut, after in cuts:
        if after != reg:
            segments.append(((seg_start, t_cut), reg))
            seg_start, reg = t_cut, after
    segments.append(((seg_start, times[-1]), reg))
    return tuple(segments)


def regime_pattern(segments) -> str:
    """The regimes of a timeline in order, with critical slivers and repeats
    collapsed, e.g. "UNSTABLE -> STABLE -> UNSTABLE".

    A timeline that is critical throughout reads "CRITICAL".
    """
    pattern: list[str] = []
    for _, reg in segments:
        if reg != REGIME_CRITICAL and (not pattern or pattern[-1] != reg):
            pattern.append(reg)
    return " -> ".join(pattern) or REGIME_CRITICAL
