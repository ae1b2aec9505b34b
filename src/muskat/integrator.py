"""Time stepping for the interface evolution.

A Dormand-Prince 5(4) pair drives one march loop, fixed-step or adaptive,
forward or backward, on the curve's (2, n) sample array (p1, z2). The
propagated state is the fourth-order member y4; the fifth-order companion y5
only supplies the max-norm error estimate, so fixed-step convergence is
globally O(dt^4). The pair is first-same-as-last (Dormand & Prince, J.
Comput. Appl. Math. 6, 1980): y5 is the last stage input. The backward
solver follows the regularized recipe: march with a negative step and
re-threshold the spectra of p1 and z2 after every accepted step.

After every accepted step the march takes the sign of grid_min_slope, the
grid minimum of d_alpha z1 (one FFT). A step across which the sign changes
is a bracket. It keeps the data of the step's O(h^4) cubic Hermite
interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.6): y_n, y4 and
the stage slopes k1 = f(y_n), k7 = f(y5), where k7 stands in for f(y4) with
error h L |y5 - y4|. detect_event_times bisects each bracket on it, with no
further right-hand side, so every flip the march steps over is located,
whatever the snapshot cadence. The diagnostics judge regimes from the same
grid minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import NanEncountered, SampledCurve
from .spectral import filtered_derivative, threshold_smooth
from .velocity import ArcChordError, periodic_rhs

_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

STATUS_OK = "OK"
STATUS_ARC_CHORD = "ARC_CHORD_FAILURE"
STATUS_NAN = "NAN_ABORT"
STATUS_STEP_UNDERFLOW = "STEP_UNDERFLOW"

EVENT_ENTER_STABLE = "ENTER_STABLE"
EVENT_ENTER_UNSTABLE = "ENTER_UNSTABLE"
EVENT_EARLY_STOP = "EARLY_STOP"

# Adaptive mode: a trial step that raised is retried with h times this.
_FAILED_STEP_SHRINK = 0.25
# Adaptive mode: the step-size update (scale/err)**(1/5) is damped by this.
_STEP_SAFETY = 0.9

# Adaptive mode: bounds on |h| and so on an adaptive dt.
_MIN_DT = 1e-12
_MAX_DT = 1e-2


@dataclass(frozen=True)
class StepControl:
    """Fixed or adaptive marching parameters, all checked in both modes.

    Adaptive mode starts from dt and keeps |h| in [_MIN_DT, _MAX_DT].
    """
    mode: str = "fixed"
    dt: float = 4e-5
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"mode: expected fixed or adaptive, got {self.mode!r}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt: must be positive and finite, got {self.dt}")
        for name in ("rel_tol", "abs_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name}: must be positive and finite")
        if self.mode == "adaptive" and not _MIN_DT <= self.dt <= _MAX_DT:
            raise ValueError(
                f"dt: adaptive mode needs {_MIN_DT:g} <= dt <= {_MAX_DT:g},"
                f" got {self.dt}")


@dataclass
class Trajectory:
    """Recorded states of one evolution run.

    brackets holds (t_before, state_before, h, kind, y4, k1, k7) for every
    accepted step across which the sign of min d_alpha z1 changed; kind is
    the ENTER_STABLE or ENTER_UNSTABLE flip the step contains. The unsmoothed
    update y4 and the (2, n) stage slopes k1 = f(state_before), k7 = f(y5)
    fix the step's O(h^4) cubic Hermite interpolant. steps and
    rejected_steps count accepted and rejected trial steps.
    """
    times: list[float]
    snapshots: list[SampledCurve]
    events: list[tuple[float, str]]
    control: StepControl
    smoothing_eps: float | None = None
    status: str = STATUS_OK
    brackets: list[tuple] = field(default_factory=list)
    steps: int = 0
    rejected_steps: int = 0

    @property
    def final(self) -> SampledCurve:
        return self.snapshots[-1]

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def direction(self) -> int:
        return -1 if self.times[-1] < self.times[0] else 1


def rk45_step(curve: SampledCurve, dt: float
              ) -> tuple[SampledCurve, float, np.ndarray, np.ndarray]:
    """One Dormand-Prince step of size dt on curve.samples.

    Returns y4, the error max|y5 - y4| with y5 the last stage input, and
    k1 = f(y_n), k7 = f(y5) as views of the stage buffer. A non-finite
    stage input or y4 raises NanEncountered from with_samples.
    """
    y = curve.samples
    stages = np.empty((7,) + y.shape)
    stage = curve
    for i in range(7):
        if i:
            stage = curve.with_samples(
                y + dt * np.tensordot(_DP_A[i, :i], stages[:i], axes=1))
        stages[i] = periodic_rhs(stage)
    y4 = curve.with_samples(y + dt * np.tensordot(_DP_B4, stages, axes=1))
    return (y4, float(np.max(np.abs(stage.samples - y4.samples))),
            stages[0], stages[6])


def _smoothed(curve: SampledCurve, eps: float) -> SampledCurve:
    return curve.with_samples([threshold_smooth(row, eps)
                               for row in curve.samples])


def slope_profile(curve: SampledCurve) -> np.ndarray:
    """d_alpha z1 = 1 + d_alpha p1 at every node."""
    return 1.0 + filtered_derivative(curve.p1, 1)


def grid_min_slope(curve: SampledCurve) -> float:
    """The stability indicator: the minimum of slope_profile over the nodes.

    Positive while the interface is a graph (the stable regime), negative
    once it has turned over. Every regime judgement of the march, the event
    search and the diagnostics is read off this value.
    """
    return float(slope_profile(curve).min())


def _march(traj: Trajectory, t_goal: float, snapshot_every: float | None,
           stop_when: Callable[[float, SampledCurve], bool] | None):
    """Advance traj in place to t_goal, in either direction.

    Fixed mode takes steps of traj.control.dt, the last one shortened to
    land on t_goal, and ends the run at the first failed step. Adaptive mode
    rejects a trial step whose error estimate exceeds the tolerance, or that
    failed, and retries with a smaller h; the run ends only when a rejected
    step was already at _MIN_DT.
    """
    ctl, eps = traj.control, traj.smoothing_eps
    t = traj.times[-1]
    cur = traj.snapshots[-1]
    sgn = 1.0 if t_goal > t else -1.0
    stable = grid_min_slope(cur) > 0.0
    last_rec = t
    dt = ctl.dt
    tiny = 1e-12 * max(1.0, abs(t_goal), abs(t))
    while (t_goal - t) * sgn > tiny:
        h = sgn * dt
        if (t_goal - (t + h)) * sgn < 0.0:
            h = t_goal - t
        failure = None
        try:
            raw, err, k1, k7 = rk45_step(cur, h)
        except ArcChordError:
            failure = STATUS_ARC_CHORD
        except NanEncountered:
            failure = STATUS_NAN
        if ctl.mode == "adaptive":
            if failure is None:
                scale = ctl.abs_tol + ctl.rel_tol * max(
                    float(np.max(np.abs(cur.samples))), 1.0)
                # local error of the propagated member is O(h^5)
                grow = _STEP_SAFETY * (scale / err) ** 0.2 if err > 0 else 5.0
                dt = float(np.clip(abs(h) * min(grow, 5.0), _MIN_DT, _MAX_DT))
                if err > scale:
                    # a rejection that can only end the run at _MIN_DT
                    failure = STATUS_STEP_UNDERFLOW
            else:
                dt = max(abs(h) * _FAILED_STEP_SHRINK, _MIN_DT)
            if failure is not None:
                traj.rejected_steps += 1
                if abs(h) > _MIN_DT * (1.0 + 1e-9):
                    continue
        if failure is not None:
            traj.status = failure
            traj.events.append((t, failure))
            break
        nxt = raw if eps is None else _smoothed(raw, eps)
        traj.steps += 1
        now_stable = grid_min_slope(nxt) > 0.0
        if now_stable != stable:
            kind = EVENT_ENTER_STABLE if now_stable else EVENT_ENTER_UNSTABLE
            traj.brackets.append((t, cur, h, kind, raw, k1.copy(), k7.copy()))
            stable = now_stable
        del raw, k1, k7  # the views would pin the stage buffer a step longer
        cur = nxt
        t += h
        done = (t_goal - t) * sgn <= tiny
        due = snapshot_every is not None and (
            abs(t - last_rec) >= snapshot_every * (1.0 - 1e-9))
        if due or done:
            traj.times.append(t)
            traj.snapshots.append(cur)
            last_rec = t
        if stop_when is not None and stop_when(t, cur):
            if traj.times[-1] != t:
                traj.times.append(t)
                traj.snapshots.append(cur)
            traj.events.append((t, EVENT_EARLY_STOP))
            break
    if traj.times[-1] != t and traj.status == STATUS_OK:
        traj.times.append(t)
        traj.snapshots.append(cur)


def evolve_forward(curve: SampledCurve, t_end: float,
                   control: StepControl | None = None, *, t0: float = 0.0,
                   snapshot_every: float | None = None,
                   stop_when: Callable[[float, SampledCurve], bool] | None = None
                   ) -> Trajectory:
    """March from t0 to t_end; arc-chord, NaN or step-underflow failures end
    the run early with the last valid state retained and the status set."""
    if not -np.inf < t0 < t_end < np.inf:
        raise ValueError(f"need finite t0 < t_end, got {t0}, {t_end}")
    traj = Trajectory(times=[float(t0)], snapshots=[curve], events=[],
                      control=control or StepControl())
    _march(traj, float(t_end), snapshot_every, stop_when)
    return traj


def evolve_backward_regularized(curve: SampledCurve, t_final: float,
                                control: StepControl | None = None, *,
                                eps: float = 1e-6,
                                snapshot_every: float | None = None
                                ) -> Trajectory:
    """March from t = 0 down to t_final < 0, re-thresholding after each step.

    The backward problem is ill posed; the spectral threshold eps is the
    regularization and the run is only meaningful while it stays stable.
    Smoothing follows every accepted step, so an adaptive run, which takes
    fewer and longer steps, is a different regularization from a fixed one.
    Failures stop the run with the last valid state kept.

    eps goes to threshold_smooth, which compares it with 1/n-normalised
    coefficients. The default 1e-6 therefore damps resolved modes: from
    SEED_T0 the first fixed step of 4e-5 keeps a centre-slope rate of 5.97
    of the unsmoothed 10.19. The reference experiment's eps acts on raw DFT
    magnitudes, which is eps/n here.
    """
    if not -np.inf < t_final < 0.0:
        raise ValueError(f"need finite t_final < 0, got {t_final}")
    traj = Trajectory(times=[0.0], snapshots=[_smoothed(curve, eps)],
                      events=[], control=control or StepControl(),
                      smoothing_eps=float(eps))
    _march(traj, float(t_final), snapshot_every, None)
    return traj


def detect_event_times(traj: Trajectory) -> list[tuple[float, str]]:
    """Locate the sign changes of grid_min_slope the march stepped over.

    Each bracket is bisected in theta on its step's O(h^4) cubic Hermite
    interpolant H(theta) ~ y(t + theta h) from y_n, y4, k1 and k7, so no
    right-hand side is evaluated. Probes are smoothed as the run was; H(1)
    is y4 exactly, so the end signs are the march's. theta is halved once
    per float mantissa bit. A hand-built Trajectory has no brackets.
    """
    eps = traj.smoothing_eps
    events: list[tuple[float, str]] = []
    for t_a, cur, h, kind, y4, k1, k7 in traj.brackets:
        y0, y1 = cur.samples, y4.samples
        lo, hi = 0.0, 1.0
        for _ in range(np.finfo(float).nmant):
            th = 0.5 * (lo + hi)
            s = 1.0 - th
            y = (s * s * (1 + 2 * th) * y0 + th * th * (3 - 2 * th) * y1
                 + h * th * s * (s * k1 - th * k7))
            probe = cur.with_samples(y)
            probe = probe if eps is None else _smoothed(probe, eps)
            if (grid_min_slope(probe) > 0.0) == (kind == EVENT_ENTER_UNSTABLE):
                lo = th
            else:
                hi = th
        events.append((t_a + 0.5 * (lo + hi) * h, kind))
    return events
