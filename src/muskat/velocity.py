"""Interface velocity: periodic contour kernel and turnover predictor.

The evolution velocity at node i sums derivative differences against the
periodized Birkhoff-Rott kernel,

    v(a_i) = 2h * jump/(4 pi) * sum_{j-i odd}
             (z'(a_i) - z'(a_j)) sin(z1_i - z1_j)
             / (cosh(z2_i - z2_j) - cos(z1_i - z1_j)),

with z' = (1 + p1', z2') from the filtered spectral derivative. The
alternating-parity sum skips the removable j = i singularity with
spectral accuracy for smooth interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import PhysicalParams, SampledCurve
from .piecewise import PiecewiseCurve
from .spectral import DEFAULT_FILTER, FilterSpec, TrigInterpolant, filtered_derivative

ARC_CHORD_FLOOR = 1e-12

PRECONDITION_TOL = 1e-10


@dataclass(frozen=True)
class VelocityField:
    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True)
class ArcChordReport:
    """Where cosh(dz2) - cos(dz1) fell to or below the floor."""
    min_denominator: float
    floor: float
    pairs: tuple[tuple[int, int], ...]


class ArcChordError(RuntimeError):
    """Interface points collided or nearly collided."""

    def __init__(self, report: ArcChordReport):
        super().__init__(
            f"arc-chord denominator {report.min_denominator:.3e} at or below"
            f" floor {report.floor:.3e} for {len(report.pairs)} node pair(s)")
        self.report = report


class PreconditionError(ValueError):
    """The target point violates the predictor's flatness assumptions."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


def periodic_rhs(curve: SampledCurve, params: PhysicalParams,
                 filt: FilterSpec = DEFAULT_FILTER,
                 floor: float = ARC_CHORD_FLOOR) -> VelocityField:
    """Evolution velocity of a sampled interface.

    Raises ArcChordError before any division if some denominator is at or
    below `floor`; the report lists up to 16 offending (i, j) pairs.
    """
    n = curve.grid.n
    h = curve.grid.spacing
    z1 = curve.z1
    z2 = curve.z2
    dz1 = 1.0 + filtered_derivative(curve.p1, 1, filt)
    dz2 = filtered_derivative(curve.z2, 1, filt)

    even = np.arange(0, n, 2)
    odd = np.arange(1, n, 2)
    halves = []
    worst = np.inf
    offenders: list[tuple[int, int]] = []
    for tgt, src in ((even, odd), (odd, even)):
        d1 = z1[tgt][:, None] - z1[src][None, :]
        d2 = z2[tgt][:, None] - z2[src][None, :]
        den = np.cosh(d2) - np.cos(d1)
        worst = min(worst, float(den.min()))
        bad = np.argwhere(den <= floor)
        offenders += [(int(tgt[i]), int(src[j])) for i, j in bad[:16]]
        halves.append((tgt, src, d1, den))
    if offenders:
        raise ArcChordError(ArcChordReport(
            min_denominator=worst, floor=floor, pairs=tuple(offenders[:16])))

    v1 = np.empty(n)
    v2 = np.empty(n)
    for tgt, src, d1, den in halves:
        ker = np.sin(d1) / den
        v1[tgt] = ((dz1[tgt][:, None] - dz1[src][None, :]) * ker).sum(axis=1)
        v2[tgt] = ((dz2[tgt][:, None] - dz2[src][None, :]) * ker).sum(axis=1)
    scale = 2.0 * h * params.prefactor
    return VelocityField(v1=scale * v1, v2=scale * v2)


def _piecewise_panels(curve: PiecewiseCurve, alpha0: float):
    """Smooth quadrature panels covering the z2 support, split at alpha0."""
    cuts = set(curve.breakpoints)
    cuts.add(alpha0)
    panels = []
    for lo, hi in curve.support2():
        inner = sorted([lo, hi] + [c for c in cuts if lo < c < hi])
        panels += list(zip(inner[:-1], inner[1:]))
    return panels


def turnover_predictor(curve: PiecewiseCurve | SampledCurve, alpha0: float,
                       quad_tol: float = 1e-10,
                       filt: FilterSpec = DEFAULT_FILTER) -> float:
    """Sign predictor d_alpha v1 at a locally flat point of the interface.

    Requires z1'(alpha0) = z1''(alpha0) = z2(alpha0) = 0 (to PRECONDITION_TOL);
    under these the quantity reduces to

        z2'(alpha0) * Int (z1(b) - z1(alpha0)) z1'(b) z2(b)
                          / ((z1(alpha0) - z1(b))^2 + z2(b)^2)^2 db.

    A negative value drives the tangent past vertical, a positive one
    restores the graph property.
    """
    alpha0 = float(alpha0)
    if isinstance(curve, PiecewiseCurve):
        z1, dz1, ddz1 = curve.z1, curve.dz1, curve.ddz1
        z2, dz2 = curve.z2, curve.dz2
        panels = _piecewise_panels(curve, alpha0)
    elif isinstance(curve, SampledCurve):
        p1_i = TrigInterpolant(curve.p1, filt)
        z2_i = TrigInterpolant(curve.z2, filt)
        z1 = lambda b: b + p1_i(b)
        dz1 = lambda b: 1.0 + p1_i(b, order=1)
        ddz1 = lambda b: p1_i(b, order=2)
        z2 = z2_i
        dz2 = lambda b: z2_i(b, order=1)
        # One period centered on the target; the kernel is 2 pi periodic in
        # label only through the samples, so this is a diagnostic estimate.
        panels = [(alpha0 - np.pi, alpha0), (alpha0, alpha0 + np.pi)]
    else:
        raise TypeError(f"unsupported curve type {type(curve).__name__}")

    flat = (abs(dz1(alpha0)), abs(ddz1(alpha0)), abs(z2(alpha0)))
    if max(flat) > PRECONDITION_TOL:
        raise PreconditionError(
            f"point alpha0={alpha0} is not flat enough:"
            f" |z1'|={flat[0]:.2e}, |z1''|={flat[1]:.2e}, |z2|={flat[2]:.2e}")

    x0 = float(z1(alpha0))

    def integrand(b):
        d = z1(b) - x0
        w = z2(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = d * dz1(b) * w / (d * d + w * w) ** 2
        # b -> alpha0 is removable: numerator ~ (b - alpha0)^4 against
        # denominator ~ (b - alpha0)^2 under the flatness preconditions.
        return val if np.isfinite(val) else 0.0

    total = 0.0
    err = 0.0
    for lo, hi in panels:
        val, e = quad(integrand, lo, hi, epsabs=1e-14, epsrel=quad_tol,
                      limit=200)
        total += val
        err += e
    if err > max(quad_tol * abs(total), 1e-9):
        raise QuadratureError(
            f"turnover predictor at alpha0={alpha0}: quadrature error"
            f" {err:.3e} exceeds tolerance")
    return float(dz2(alpha0)) * total
