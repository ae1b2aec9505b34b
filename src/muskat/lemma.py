"""Verification of the finite-time turnover construction.

The construction splices three odd piecewise-polynomial blocks: a cubic
center, a tent-shaped tail translated to +-R, and identity continuation in
between. Turnover at the center and stability at the tails reduce to sign
conditions on a handful of one-dimensional integrals; the headline ones
have closed-form antiderivatives that are transcribed here and cross-checked
against adaptive quadrature of independently transcribed integrands.

Every integral in this module is a contribution to

    d_alpha v1(z(a0)) = z2'(a0) * Int (z1(b)-z1(a0)) z1'(b) z2(b)
                                     / ((z1(a0)-z1(b))^2 + z2(b)^2)^2 db

at a0 = 0 (center conditions, I_cc and I_tc) or a0 = R (tail conditions,
I_tt and I_ct); a negative value at the center forces the interface past
vertical while a positive value at the tails keeps the ends graph-like.
turnover_predictor evaluates it directly on a piecewise curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .piecewise import Piece, PiecewiseCurve

MIN_SPLICE_R = 9.0  # blocks overlap for smaller R; R > 9 keeps them disjoint

I_TT_LOWER_BOUND = 0.25  # I_tt^1 + I_tt^3 = 1/4 exactly and I_tt^2 > 0

PRECONDITION_TOL = 1e-10

# relative tolerances of the adaptive quadratures: the center and same-tail
# integrals I_cc^1, I_tt^2, and the predictor with the cross terms its
# block decomposition adds
_BLOCK_TOL = 1e-12
_PREDICTOR_TOL = 1e-10


class PreconditionError(ValueError):
    """The target point violates the predictor's flatness assumptions."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


@dataclass(frozen=True)
class Blocks:
    tail: PiecewiseCurve
    center: PiecewiseCurve
    spliced: PiecewiseCurve


@dataclass(frozen=True)
class CcIntegrals:
    """Center-center contributions; i2..i4 from closed antiderivatives."""
    i1: float
    i2: float
    i3: float
    i4: float

    @property
    def total(self) -> float:
        return self.i1 + self.i2 + self.i3 + self.i4


@dataclass(frozen=True)
class TtIntegrals:
    """Same-tail contributions at a0 = R; i1 and i3 are exactly 1/8."""
    i1: float
    i2: float
    i3: float

    @property
    def total(self) -> float:
        return self.i1 + self.i2 + self.i3


@dataclass(frozen=True)
class TailBounds:
    """Closed-form majorants of the cross contributions."""
    tc: float
    ct1: float
    ct2: float


@dataclass(frozen=True)
class ConditionReport:
    R: float
    i_cc: float
    bounds: TailBounds
    center_ok: bool
    tail_ok: bool


@dataclass(frozen=True)
class CrosscheckReport:
    R: float
    at_center: float
    at_tail: float
    recon_center: float
    recon_tail: float
    i_tc: float
    i_ct1: float
    i_ct2: float
    bounds: TailBounds


_IDENT = (0.0, 1.0)
_CUBIC = (0.0, 0.0, 0.0, 1.0)


def _tail_block() -> PiecewiseCurve:
    return PiecewiseCurve([
        Piece(-2.0, -1.0, 0.0, _IDENT, (-2.0, -1.0)),
        Piece(-1.0, 1.0, 0.0, _CUBIC, (0.0, 1.0)),
        Piece(1.0, 2.0, 0.0, _IDENT, (2.0, -1.0)),
    ])


def _center_block() -> PiecewiseCurve:
    # z1 is the identity off the cubic on [-1, 1]
    return PiecewiseCurve([
        Piece(-7.0, -5.0, 0.0, _IDENT, (10.5, 1.5)),
        Piece(-5.0, -2.0, 0.0, _IDENT, (3.0,)),
        Piece(-2.0, -1.0, 0.0, _IDENT, (-7.0, -5.0)),
        Piece(-1.0, 1.0, 0.0, _CUBIC, (0.0, 3.0, 0.0, -1.0)),
        Piece(1.0, 2.0, 0.0, _IDENT, (7.0, -5.0)),
        Piece(2.0, 5.0, 0.0, _IDENT, (-3.0,)),
        Piece(5.0, 7.0, 0.0, _IDENT, (-10.5, 1.5)),
    ])


def build_blocks(R: float) -> Blocks:
    """Tail, center, and the spliced curve z^R (requires R > 9)."""
    R = float(R)
    if R <= MIN_SPLICE_R:
        raise ValueError(f"splice needs R > {MIN_SPLICE_R}, got {R}")
    tail = _tail_block()
    center = _center_block()
    # the identity (a, 0) fills the gaps between the blocks
    gap = lambda lo, hi: (Piece(lo, hi, 0.0, _IDENT, (0.0,)),)
    spliced = PiecewiseCurve(
        tail.shifted(-R) + gap(-R + 2.0, -7.0) + center.pieces
        + gap(7.0, R - 2.0) + tail.shifted(R))
    return Blocks(tail=tail, center=center, spliced=spliced)


def _quad_sum(panels, tol, label) -> float:
    total = 0.0
    err = 0.0
    for f, lo, hi in panels:
        val, e = quad(f, lo, hi, epsabs=1e-14, epsrel=tol, limit=200)
        total += val
        err += e
    if err > max(tol * abs(total), 1e-11):
        raise QuadratureError(
            f"{label}: quadrature error {err:.3e} exceeds tolerance")
    return total


def cc_integrals() -> CcIntegrals:
    """The four center-center pieces of d_alpha v1(z(0)).

    i1 is integrated adaptively: its integrand -6x^2 (x^2 - 3) /
    (2x^4 - 6x^2 + 9)^2 is rational, with an elementary antiderivative by
    partial fractions in y = x^2 that is not transcribed here. The other
    three come from the closed-form antiderivatives

        F2(x) = (10x - 7) / (26 (26x^2 - 70x + 49)),
        F3(x) = 3 / (9 + x^2),
        F4(x) = 48 (7 - 2x) / (338x^2 - 3276x + 11466),

    giving i2 = 1/65, i3 = -63/442, i4 = -3/119 exactly.
    """
    i1 = _quad_sum(
        [(lambda x: -6.0 * x * x * (x * x - 3.0)
          / (2.0 * x ** 4 - 6.0 * x * x + 9.0) ** 2, 0.0, 1.0)],
        _BLOCK_TOL, "I_cc^1")
    F2 = lambda x: (10.0 * x - 7.0) / (26.0 * (26.0 * x * x - 70.0 * x + 49.0))
    F3 = lambda x: 3.0 / (9.0 + x * x)
    F4 = lambda x: 48.0 * (7.0 - 2.0 * x) / (338.0 * x * x - 3276.0 * x + 11466.0)
    return CcIntegrals(i1=i1, i2=F2(2.0) - F2(1.0), i3=F3(5.0) - F3(2.0),
                       i4=F4(7.0) - F4(5.0))


def tt_integrals() -> TtIntegrals:
    """Same-tail pieces; the outer two telescope to exactly 1/8 each via

        G1(x) = (1 + x) / (4 (2 + 2x + x^2)),
        G3(x) = (x - 1) / (4 (2 - 2x + x^2)).
    """
    G1 = lambda x: (1.0 + x) / (4.0 * (2.0 + 2.0 * x + x * x))
    G3 = lambda x: (x - 1.0) / (4.0 * (2.0 - 2.0 * x + x * x))
    i2 = _quad_sum(
        [(lambda x: 3.0 * x * x / (1.0 + x ** 4) ** 2, -1.0, 1.0)],
        _BLOCK_TOL, "I_tt^2")
    return TtIntegrals(i1=G1(-1.0) - G1(-2.0), i2=i2, i3=G3(2.0) - G3(1.0))


def tail_bounds(R: float) -> TailBounds:
    """Majorants of the tail-center cross terms; each is sup of the
    integrand times the interval length."""
    R = float(R)
    if R <= MIN_SPLICE_R:
        raise ValueError(f"bounds need R > {MIN_SPLICE_R}, got {R}")
    return TailBounds(
        tc=24.0 * (R + 2.0) / (R - 2.0) ** 4,
        ct1=126.0 * (R + 7.0) / (R - 7.0) ** 4,
        ct2=12.0 * (2.0 * R + 2.0) / (2.0 * R - 2.0) ** 4,
    )


def verify_conditions(R: float) -> ConditionReport:
    """Check the two sign conditions at splice radius R."""
    cc = cc_integrals()
    bounds = tail_bounds(R)
    return ConditionReport(
        R=float(R),
        i_cc=cc.total,
        bounds=bounds,
        center_ok=cc.total + bounds.tc < 0.0,
        tail_ok=I_TT_LOWER_BOUND - (bounds.ct1 + bounds.ct2) > 0.0,
    )


def min_admissible_R() -> int:
    """Smallest integer R in [10, 60] satisfying both conditions."""
    for R in range(10, 61):
        rep = verify_conditions(R)
        if rep.center_ok and rep.tail_ok:
            return R
    raise RuntimeError("no admissible R found up to 60")


def _piecewise_panels(curve: PiecewiseCurve, alpha0: float):
    """Smooth quadrature panels covering the z2 support, split at alpha0."""
    cuts = set(curve.breakpoints)
    cuts.add(alpha0)
    panels = []
    for lo, hi in curve.support2():
        inner = sorted([lo, hi] + [c for c in cuts if lo < c < hi])
        panels += list(zip(inner[:-1], inner[1:]))
    return panels


def turnover_predictor(curve: PiecewiseCurve, alpha0: float) -> float:
    """Sign predictor d_alpha v1 at a locally flat point of the interface.

    Requires z1'(alpha0) = z1''(alpha0) = z2(alpha0) = 0 (to PRECONDITION_TOL);
    under these the quantity reduces to

        z2'(alpha0) * Int (z1(b) - z1(alpha0)) z1'(b) z2(b)
                          / ((z1(alpha0) - z1(b))^2 + z2(b)^2)^2 db.

    A negative value drives the tangent past vertical, a positive one
    restores the graph property.
    """
    alpha0 = float(alpha0)
    z1, dz1, ddz1 = curve.z1, curve.dz1, curve.ddz1
    z2, dz2 = curve.z2, curve.dz2
    panels = _piecewise_panels(curve, alpha0)

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

    total = _quad_sum([(integrand, lo, hi) for lo, hi in panels],
                      _PREDICTOR_TOL, f"turnover predictor at alpha0={alpha0}")
    return float(dz2(alpha0)) * total


def _kernel(x0: float):
    """The predictor integrand factory for target abscissa x0."""
    def make(z1, dz1, z2):
        def f(b):
            d = z1(b) - x0
            return d * dz1(b) * z2(b) / (d * d + z2(b) ** 2) ** 2
        return f
    return make


def predictor_crosscheck(R: float = 18.0) -> CrosscheckReport:
    """Compare the direct predictor on z^R against its block decomposition.

    The direct route integrates over the spliced curve's full z2 support;
    the reconstruction assembles 3*(I_cc + I_tc) and 1*(I_tt + I_ct1 + I_ct2)
    from per-block quadratures of independently transcribed integrands.
    """
    R = float(R)
    blocks = build_blocks(R)
    at_center = turnover_predictor(blocks.spliced, 0.0)
    at_tail = turnover_predictor(blocks.spliced, R)

    tail, center = blocks.tail, blocks.center
    # Tail at +R seen from the center (x0 = 0): z1 = t1(s) + R on s in [-2,2],
    # and its mirror image contributes equally, hence the factor 2.
    f_tc = _kernel(0.0)(lambda s: tail.z1(s) + R, tail.dz1, tail.z2)
    i_tc = 2.0 * _quad_sum([(f_tc, -2.0, -1.0), (f_tc, -1.0, 1.0),
                            (f_tc, 1.0, 2.0)], _PREDICTOR_TOL, "I_tc")
    # Center seen from the tail point (x0 = R).
    f_ct1 = _kernel(R)(center.z1, center.dz1, center.z2)
    i_ct1 = _quad_sum(
        [(f_ct1, a, b) for a, b in zip((-7.0, -5.0, -2.0, -1.0, 1.0, 2.0, 5.0),
                                       (-5.0, -2.0, -1.0, 1.0, 2.0, 5.0, 7.0))],
        _PREDICTOR_TOL, "I_ct^1")
    # Far tail at -R seen from +R: z1 = t1(s) - R, so z1 - R = t1(s) - 2R.
    f_ct2 = _kernel(2.0 * R)(tail.z1, tail.dz1, tail.z2)
    i_ct2 = _quad_sum([(f_ct2, -2.0, -1.0), (f_ct2, -1.0, 1.0),
                       (f_ct2, 1.0, 2.0)], _PREDICTOR_TOL, "I_ct^2")

    cc = cc_integrals()
    tt = tt_integrals()
    return CrosscheckReport(
        R=R,
        at_center=at_center,
        at_tail=at_tail,
        recon_center=3.0 * (cc.total + i_tc),
        recon_tail=1.0 * (tt.total + i_ct1 + i_ct2),
        i_tc=i_tc,
        i_ct1=i_ct1,
        i_ct2=i_ct2,
        bounds=tail_bounds(R),
    )


def verification_report() -> str:
    """Human-readable verification of every condition, as structured text."""
    cc = cc_integrals()
    tt = tt_integrals()
    r_min = min_admissible_R()
    lines = [
        "turnover construction verification",
        "==================================",
        "",
        "center integrals (target alpha0 = 0)",
        f"  I_cc^1 = {cc.i1:+.12f}   (adaptive quadrature)",
        f"  I_cc^2 = {cc.i2:+.12f}   (closed form, 1/65)",
        f"  I_cc^3 = {cc.i3:+.12f}   (closed form, -63/442)",
        f"  I_cc^4 = {cc.i4:+.12f}   (closed form, -3/119)",
        f"  I_cc = {cc.total:+.12f}",
        "",
        "tail integrals (target alpha0 = R)",
        f"  I_tt^1 = {tt.i1:+.12f}   (closed form, 1/8)",
        f"  I_tt^2 = {tt.i2:+.12f}   (adaptive quadrature, positive)",
        f"  I_tt^3 = {tt.i3:+.12f}   (closed form, 1/8)",
        f"  I_tt = {tt.total:+.12f}  >= {I_TT_LOWER_BOUND}",
        "",
        "admissibility scan (integer R)",
    ]
    for R in range(10, r_min + 3):
        rep = verify_conditions(R)
        lines.append(
            f"  R = {R:2d}: I_cc + bound_tc = {rep.i_cc + rep.bounds.tc:+.6f}"
            f" (center_ok={rep.center_ok}), 1/4 - bounds_ct ="
            f" {I_TT_LOWER_BOUND - rep.bounds.ct1 - rep.bounds.ct2:+.6f}"
            f" (tail_ok={rep.tail_ok})")
    lines.append(f"  min_admissible_R = {r_min}")
    lines.append("")
    lines.append(f"predictor cross-check at R = {r_min}")
    xc = predictor_crosscheck(float(r_min))
    lines += [
        f"  d_alpha v1 at center: direct = {xc.at_center:+.9f},"
        f" reconstruction 3(I_cc + I_tc) = {xc.recon_center:+.9f}",
        f"  d_alpha v1 at tail:   direct = {xc.at_tail:+.9f},"
        f" reconstruction I_tt + I_ct = {xc.recon_tail:+.9f}",
        f"  |I_tc| = {abs(xc.i_tc):.6e} <= bound {xc.bounds.tc:.6e}:"
        f" {abs(xc.i_tc) <= xc.bounds.tc}",
        f"  |I_ct^1| = {abs(xc.i_ct1):.6e} <= bound {xc.bounds.ct1:.6e}:"
        f" {abs(xc.i_ct1) <= xc.bounds.ct1}",
        f"  |I_ct^2| = {abs(xc.i_ct2):.6e} <= bound {xc.bounds.ct2:.6e}:"
        f" {abs(xc.i_ct2) <= xc.bounds.ct2}",
        f"  turnover at center: {xc.at_center < 0},"
        f" tails stay graph-like: {xc.at_tail > 0}",
        "",
    ]
    return "\n".join(lines)
