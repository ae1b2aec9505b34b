"""Time stepping for the interface evolution.

One march loop, fixed-step or adaptive, forward or backward, advances the
curve's (2, n) sample array (p1, z2) with an explicit Runge-Kutta step, and
StepControl.mode picks its tableau. Fixed steps take the classical
four-stage RK4 step, so fixed-step convergence is globally O(dt^4) from 4
right-hand sides per step. Adaptive steps take the Dormand-Prince 5(4)
pair: 7 stages, the fourth-order member y4 propagated, and the fifth-order
companion y5 supplying only the max-norm error estimate. The pair is
first-same-as-last (Dormand & Prince, J. Comput. Appl. Math. 6, 1980): y5
is the last stage input. The march evaluates the first stage k1 = f(y_n)
once per state, so a rejected adaptive trial step costs 6 right-hand sides
and its retry reuses k1. The backward solver follows the regularized
recipe: march with a negative step and re-threshold the spectra of p1 and
z2 after every accepted step.

After every accepted step the march takes the sign of grid_min_slope, the
grid minimum of d_alpha z1 (one FFT). A step across which the sign changes
is a bracket. It keeps the data of the step's O(h^4) cubic Hermite
interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.6): y_n, the
unsmoothed update y_{n+1}, the start slope k1 = f(y_n) and the exact end
slope f(y_{n+1}), which the march evaluates on bracket steps only. An
unsmoothed run takes it as the next k1, so only a smoothed run pays one
more right-hand side per flip. detect_event_times bisects each bracket on
the interpolant, with no further right-hand side, so every flip the march
steps over is located, whatever the snapshot cadence. The diagnostics
judge regimes from the same grid minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NanEncountered, SampledCurve
from .spectral import filtered_derivative, threshold_smooth
from .velocity import ArcChordError, is_odd, pair_processes, periodic_rhs

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
# Classical RK4: c = 0, 1/2, 1/2, 1 and b = 1/6, 1/3, 1/3, 1/6.
_RK4_A = np.array([
    [0.0, 0.0, 0.0],
    [0.5, 0.0, 0.0],
    [0.0, 0.5, 0.0],
    [0.0, 0.0, 1.0],
])
_RK4_B = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0

# (A, b) of the step each StepControl.mode takes; row i of A weights the
# stages before stage i. The right-hand side is autonomous, so c is unused.
_TABLEAUS = {"fixed": (_RK4_A, _RK4_B), "adaptive": (_DP_A, _DP_B4)}

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

    Adaptive mode starts from dt and keeps |h| in [_MIN_DT, _MAX_DT]. It
    accepts a step whose error estimate is at most
    rel_tol * max(max|y_n|, 1).
    """
    mode: str = "fixed"
    dt: float = 4e-5
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"mode: expected fixed or adaptive, got {self.mode!r}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt: must be positive and finite, got {self.dt}")
        if not 0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol: must be positive and finite")
        if self.mode == "adaptive" and not _MIN_DT <= self.dt <= _MAX_DT:
            raise ValueError(
                f"dt: adaptive mode needs {_MIN_DT:g} <= dt <= {_MAX_DT:g},"
                f" got {self.dt}")


@dataclass
class Trajectory:
    """Recorded states of one evolution run.

    brackets holds (t_before, state_before, h, kind, y_next, k1, k_end) for
    every accepted step across which the sign of min d_alpha z1 changed;
    kind is the ENTER_STABLE or ENTER_UNSTABLE flip the step contains. The
    unsmoothed update y_next and the (2, n) slopes k1 = f(state_before) and
    k_end = f(y_next), which the march evaluates for the bracket only, fix
    the step's O(h^4) cubic Hermite interpolant. steps and
    rejected_steps count accepted and rejected trial steps. pair_sum is
    "half" when the march found its start state odd and summed the
    mirror-independent rows only, else "full"; pair_processes is how many
    processes summed them (velocity.pair_processes). error says in one
    line why a failed run ended, and is None while status is OK.
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
    pair_sum: str = "full"
    pair_processes: int = 1
    error: str | None = None

    @property
    def final(self) -> SampledCurve:
        return self.snapshots[-1]

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def direction(self) -> int:
        return -1 if self.times[-1] < self.times[0] else 1


def rk45_step(curve: SampledCurve, dt: float, odd: bool, mode: str,
              k1: np.ndarray) -> tuple[SampledCurve, float | None]:
    """One explicit Runge-Kutta step of size dt on curve.samples, from the
    caller's first stage k1 = f(y_n).

    mode is a StepControl.mode. "fixed" takes a classical RK4 step and
    returns (y_next, None): it has no error estimate. "adaptive" takes a
    Dormand-Prince 5(4) step and returns (y4, max|y5 - y4|), with y5 the
    last stage input. A non-finite stage input or update raises
    NanEncountered from with_samples. odd goes to every later stage's
    periodic_rhs.
    """
    a, b = _TABLEAUS[mode]
    y = curve.samples
    stages = np.empty((len(b),) + y.shape)
    stages[0] = k1
    # stage sums as vector-matrix products over the flattened stages
    flat = stages.reshape(len(b), -1)
    for i in range(1, len(b)):
        step = (a[i, :i] @ flat[:i]).reshape(y.shape)
        stage = curve.with_samples(y + dt * step)
        stages[i] = periodic_rhs(stage, odd=odd)
    nxt = curve.with_samples(y + dt * (b @ flat).reshape(y.shape))
    err = (None if mode == "fixed"
           else float(np.max(np.abs(stage.samples - nxt.samples))))
    return nxt, err


def _smoothed(curve: SampledCurve, eps: float) -> SampledCurve:
    return curve.with_samples(threshold_smooth(curve.samples, eps))


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


def _failure(exc: Exception) -> tuple[str, str]:
    """The status and error line of an ArcChordError or a NanEncountered."""
    status = STATUS_ARC_CHORD if isinstance(exc, ArcChordError) else STATUS_NAN
    return status, f"{type(exc).__name__}: {exc}"


def _slope(curve: SampledCurve, odd: bool, which: str) -> np.ndarray:
    """f(curve): a step's start slope or a bracket's end slope, as which
    says; a non-finite slope raises NanEncountered naming it."""
    k = periodic_rhs(curve, odd=odd)
    if not np.isfinite(k).all():
        raise NanEncountered(f"non-finite {which}")
    return k


def _end_run(traj: Trajectory, t: float, failure: tuple[str, str]) -> None:
    """Record a failed run's status, error line and failure event at t."""
    traj.status, traj.error = failure
    traj.events.append((t, traj.status))


def _march(traj: Trajectory, t_goal: float, snapshot_every: float | None,
           stop_slope: float | None):
    """Advance traj in place to t_goal, in either direction.

    A step h too small to move the clock (t + h == t) ends the run at once
    in both modes, with STATUS_STEP_UNDERFLOW and before any slope is
    evaluated. Each state's start slope k1 = f(y_n) is evaluated once, or
    is the end slope of the unsmoothed bracket step before; it does not
    depend on h, so its failure ends the run at once in both modes. Fixed
    mode takes steps of traj.control.dt, the last one shortened to land on
    t_goal, and ends the run at the first failed step. Adaptive mode rejects
    a trial step whose error estimate exceeds the tolerance, or that failed,
    and retries from the same k1 with a smaller h; the run ends only when a
    rejected step was already at _MIN_DT. In both modes a bracket step whose
    end slope f(y_next) fails ends the run as a failed step. A run with a
    stop_slope ends after the first step whose grid_min_slope is below it.
    A state is recorded after every step that is due, last or stopping;
    snapshot_every None records the end states only. A step is due when it
    ends at least snapshot_every after the last recorded state, so
    snapshots land on step ends: an adaptive step longer than
    snapshot_every records one state, at its end, and none in between.

    An odd start state makes every step sum half the pairs. Each stage's
    velocity is then exactly odd, but the states are not projected onto
    odd ones, which would move the seed's grazing minimum: their defect
    grows by roundoff only, about linearly with the step count.
    """
    if snapshot_every is not None and not snapshot_every > 0:
        raise ValueError(
            f"snapshot_every: must be positive or None, got {snapshot_every}")
    if stop_slope is not None and not np.isfinite(stop_slope):
        raise ValueError(f"stop_slope: must be finite, got {stop_slope}")
    ctl, eps = traj.control, traj.smoothing_eps
    t = traj.times[-1]
    cur = traj.snapshots[-1]
    odd = is_odd(cur)
    traj.pair_sum = "half" if odd else "full"
    sgn = 1.0 if t_goal > t else -1.0
    stable = grid_min_slope(cur) > 0.0
    last_rec = t
    dt = ctl.dt
    tiny = 1e-12 * max(1.0, abs(t_goal), abs(t))
    k1 = None
    while (t_goal - t) * sgn > tiny:
        h = sgn * dt
        if (t_goal - (t + h)) * sgn < 0.0:
            h = t_goal - t
        if t + h == t:
            _end_run(traj, t, (STATUS_STEP_UNDERFLOW,
                               f"step h = {h:.3e} does not move t = {t:.17g}"))
            break
        if k1 is None:
            try:
                k1 = _slope(cur, odd, "start slope")
            except (ArcChordError, NanEncountered) as exc:
                _end_run(traj, t, _failure(exc))
                break
        failure = None
        try:
            raw, err = rk45_step(cur, h, odd, ctl.mode, k1)
        except (ArcChordError, NanEncountered) as exc:
            failure = _failure(exc)
        if ctl.mode == "adaptive":
            if failure is None:
                scale = ctl.rel_tol * max(float(np.max(np.abs(cur.samples))),
                                          1.0)
                # local error of the propagated member is O(h^5)
                grow = _STEP_SAFETY * (scale / err) ** 0.2 if err > 0 else 5.0
                dt = float(np.clip(abs(h) * min(grow, 5.0), _MIN_DT, _MAX_DT))
                if err > scale:
                    # a rejection that can only end the run at _MIN_DT
                    failure = (STATUS_STEP_UNDERFLOW,
                               f"error estimate {err:.3e} above tolerance"
                               f" {scale:.3e} at the minimum step {_MIN_DT:g}")
            else:
                dt = max(abs(h) * _FAILED_STEP_SHRINK, _MIN_DT)
            if failure is not None:
                traj.rejected_steps += 1
                if abs(h) > _MIN_DT * (1.0 + 1e-9):
                    continue
        if failure is None:
            nxt = raw if eps is None else _smoothed(raw, eps)
            slope = grid_min_slope(nxt)
            flipped = (slope > 0.0) != stable
            if flipped:
                try:
                    k_end = _slope(raw, odd, "end slope")
                except (ArcChordError, NanEncountered) as exc:
                    failure = _failure(exc)
        if failure is not None:
            _end_run(traj, t, failure)
            break
        traj.steps += 1
        if flipped:
            stable = not stable
            kind = EVENT_ENTER_STABLE if stable else EVENT_ENTER_UNSTABLE
            traj.brackets.append((t, cur, h, kind, raw, k1, k_end))
        cur, k1 = nxt, (k_end if flipped and nxt is raw else None)
        t += h
        done = (t_goal - t) * sgn <= tiny
        due = snapshot_every is not None and (
            abs(t - last_rec) >= snapshot_every * (1.0 - 1e-9))
        stop = stop_slope is not None and slope < stop_slope
        if due or done or stop:
            traj.times.append(t)
            traj.snapshots.append(cur)
            last_rec = t
        if stop:
            traj.events.append((t, EVENT_EARLY_STOP))
            break
    # after the march, so that a helper fork that failed in it reads 1
    traj.pair_processes = pair_processes(cur.grid.n, odd=odd)


def evolve_forward(curve: SampledCurve, t_end: float,
                   control: StepControl | None = None, *, t0: float = 0.0,
                   snapshot_every: float | None = None,
                   stop_slope: float | None = None) -> Trajectory:
    """March from t0 to t_end; arc-chord, NaN or step-underflow failures end
    the run early with the last valid state retained and the status set.

    With stop_slope the run also ends, with an EARLY_STOP event, after the
    first step whose grid_min_slope is below stop_slope.
    """
    if not -np.inf < t0 < t_end < np.inf:
        raise ValueError(f"need finite t0 < t_end, got {t0}, {t_end}")
    traj = Trajectory(times=[float(t0)], snapshots=[curve], events=[],
                      control=control or StepControl())
    _march(traj, float(t_end), snapshot_every, stop_slope)
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
    coefficients, so the default 1e-6 damps resolved modes (see there).
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
    interpolant H(theta) ~ y(t + theta h) from y_n, y_next, k1 and k_end, so
    no right-hand side is evaluated. Probes are smoothed as the run was;
    H(1) is y_next exactly, so the end signs are the march's. theta is
    halved once per float mantissa bit. A hand-built Trajectory has no
    brackets.
    """
    eps = traj.smoothing_eps
    events: list[tuple[float, str]] = []
    for t_a, cur, h, kind, y_next, k1, k_end in traj.brackets:
        y0, y1 = cur.samples, y_next.samples
        lo, hi = 0.0, 1.0
        for _ in range(np.finfo(float).nmant):
            th = 0.5 * (lo + hi)
            s = 1.0 - th
            y = (s * s * (1 + 2 * th) * y0 + th * th * (3 - 2 * th) * y1
                 + h * th * s * (s * k1 - th * k_end))
            probe = cur.with_samples(y)
            probe = probe if eps is None else _smoothed(probe, eps)
            if (grid_min_slope(probe) > 0.0) == (kind == EVENT_ENTER_UNSTABLE):
                lo = th
            else:
                hi = th
        events.append((t_a + 0.5 * (lo + hi) * h, kind))
    return events
