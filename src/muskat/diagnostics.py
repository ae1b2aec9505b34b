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

from .core import SampledCurve
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


def _refine_minimum(alphas: np.ndarray, s: np.ndarray, i: int,
                    h: float) -> tuple[float, float]:
    """Parabola through the cyclic triple around node i; returns (alpha, s)."""
    n = len(s)
    sm, s0, sp = s[(i - 1) % n], s[i], s[(i + 1) % n]
    den = sm - 2.0 * s0 + sp
    if den <= 0.0:
        return float(alphas[i]), float(s0)
    off = 0.5 * (sm - sp) / den
    off = float(np.clip(off, -1.0, 1.0))
    val = s0 - 0.25 * (sm - sp) * off
    return float(alphas[i] + off * h), float(val)


def turning_report(curve: SampledCurve) -> TurningReport:
    """Minimum slope, its refined location, regime, and vertical tangents.

    Tangent points are sign changes of d_alpha z1 along the period,
    polished on the band-limited interpolant to |slope| < 1e-8; nearby
    duplicates from a slope grazing zero at a node collapse to one point.
    """
    from scipy.optimize import brentq

    grid = curve.grid
    s = slope_profile(curve)
    i_min = int(np.argmin(s))
    argmin, min_slope = _refine_minimum(grid.nodes, s, i_min, grid.spacing)
    grid_min = grid_min_slope(curve)

    p1_i = TrigInterpolant(curve.p1)
    z2_i = TrigInterpolant(curve.z2)
    slope = lambda a: 1.0 + p1_i(a, order=1)

    n = grid.n
    roots: list[float] = []
    for i in range(n):
        a, b = grid.nodes[i], grid.nodes[i] + grid.spacing
        sa, sb = s[i], s[(i + 1) % n]
        if (sa > 0.0) == (sb > 0.0):
            continue
        try:
            root = brentq(slope, a, b, xtol=1e-14)
        except ValueError:
            # interpolant and node values disagree in sign under roundoff
            continue
        if abs(slope(root)) < TANGENT_ROOT_TOL:
            roots.append(float(root))
    merged: list[float] = []
    for r in sorted(roots):
        if merged and r - merged[-1] < 0.25 * grid.spacing:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)
    points = tuple((r, r + float(p1_i(r)), float(z2_i(r))) for r in merged)
    return TurningReport(min_slope=min_slope, argmin=argmin,
                         grid_min=grid_min, regime=classify_slope(grid_min),
                         tangent_points=points)


def near_critical_minima(curve: SampledCurve
                         ) -> tuple[tuple[float, float], ...]:
    """Refined local minima of the slope within NEAR_CRITICAL_BAND of zero.

    These are the candidate turnover sites while the interface is still a
    graph; each entry is (alpha, slope).
    """
    grid = curve.grid
    s = slope_profile(curve)
    n = grid.n
    out = []
    for i in range(n):
        if s[i] < s[(i - 1) % n] and s[i] <= s[(i + 1) % n]:
            alpha, val = _refine_minimum(grid.nodes, s, i, grid.spacing)
            if abs(val) <= NEAR_CRITICAL_BAND:
                out.append((alpha, val))
    return tuple(sorted(out))


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
        dz1 = slope_profile(c)
        dz2 = filtered_derivative(c.z2, 1)
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
