"""Verification of the finite-time turnover construction.

The construction splices three odd piecewise-polynomial blocks: a cubic
center, a tent-shaped tail translated to +-R, and identity continuation in
between. A curve is a tuple of Pieces that tile an interval, checked
contiguous, continuous and odd where it is built. Turnover at the center
and stability at the tails reduce to sign conditions on a handful of
one-dimensional integrals; the headline ones have closed-form
antiderivatives that are transcribed here and cross-checked against
adaptive quadrature of independently transcribed integrands. The
quadratures are numpy Gauss-Legendre panels (see _quad_sum).

Every integral in this module is a contribution to

    d_alpha v1(z(a0)) = z2'(a0) * Int (z1(b)-z1(a0)) z1'(b) z2(b)
                                     / ((z1(a0)-z1(b))^2 + z2(b)^2)^2 db

at a0 = 0 (center conditions, I_cc and I_tc) or a0 = R (tail conditions,
I_tt and I_ct); a negative value at the center forces the interface past
vertical while a positive value at the tails keeps the ends graph-like.
One integrand of (piece, z1(a0)) serves every term that is integrated
piece by piece: turnover_predictor, on the pieces of z^R that carry z2,
and the cross terms I_tc, I_ct^1 and I_ct^2, on one block each.
certificate() evaluates every constant once into one Certificate, which
verification_report formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

MIN_SPLICE_R = 9.0  # blocks overlap for smaller R; R > 9 keeps them disjoint

I_TT_LOWER_BOUND = 0.25  # I_tt^1 + I_tt^3 = 1/4 exactly and I_tt^2 > 0

PRECONDITION_TOL = 1e-10
CONTINUITY_TOL = 1e-14
ODDNESS_TOL = 1e-12

# relative tolerances of the adaptive quadratures: the center and same-tail
# integrals I_cc^1, I_tt^2, and the predictor with the cross terms its
# block decomposition adds
_BLOCK_TOL = 1e-12
_PREDICTOR_TOL = 1e-10

# the Gauss-Legendre pair G_k, G_2k (k = 20) on [-1, 1], and the smallest
# share of a panel's width that _quad_sum still bisects
_RULES = (leggauss(20), leggauss(40))
_MIN_SPLIT = 1e-6


class PreconditionError(ValueError):
    """The target point violates the predictor's flatness assumptions."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


@dataclass(frozen=True)
class Piece:
    """z1 and z2 on [lo, hi] as polynomials in (x - center), lowest
    coefficient first. In local coordinates a shift by +-R is exact: lo,
    hi, center and z1's constant term move, the other coefficients do not.
    """
    lo: float
    hi: float
    center: float
    c1: tuple[float, ...]
    c2: tuple[float, ...]

    def z1(self, x, order: int = 0):
        """z1 or its derivative of the given order at x."""
        return npoly.polyval(x - self.center, npoly.polyder(self.c1, order))

    def z2(self, x, order: int = 0):
        """z2 or its derivative of the given order at x."""
        return npoly.polyval(x - self.center, npoly.polyder(self.c2, order))


def _shift(pieces, dx: float) -> tuple[Piece, ...]:
    """The pieces moved by dx along alpha and along z1, for splicing into
    a larger curve (moved, they are no longer odd)."""
    return tuple(Piece(p.lo + dx, p.hi + dx, p.center + dx,
                       (p.c1[0] + dx,) + p.c1[1:], p.c2) for p in pieces)


def _curve(pieces) -> tuple[Piece, ...]:
    """The pieces as a curve, checked to tile a contiguous interval with
    z1 and z2 continuous (their derivatives may jump) and to be odd: the
    k-th piece from the left mirrors the k-th from the right, interval and
    values at 5 points, which decides oddness up to degree 4."""
    pieces = tuple(pieces)
    if not pieces:
        raise ValueError("need at least one piece")
    for left, right in zip(pieces, pieces[1:]):
        if left.hi != right.lo:
            raise ValueError("pieces must tile a contiguous interval")
        for name in ("z1", "z2"):
            gap = abs(getattr(left, name)(left.hi)
                      - getattr(right, name)(right.lo))
            if gap > CONTINUITY_TOL:
                raise ValueError(f"{name} discontinuity {gap:.3e}"
                                 f" at breakpoint {left.hi}")
    for p, q in zip(pieces, reversed(pieces)):
        x = np.linspace(p.lo, p.hi, 5)
        bad = max(abs(p.lo + q.hi), abs(p.hi + q.lo),
                  *np.abs(p.z1(x) + q.z1(-x)), *np.abs(p.z2(x) + q.z2(-x)))
        if bad > ODDNESS_TOL:
            raise ValueError(f"curve is not odd (defect {bad:.3e}"
                             f" on [{p.lo}, {p.hi}])")
    return pieces


@dataclass(frozen=True)
class Blocks:
    tail: tuple[Piece, ...]
    center: tuple[Piece, ...]
    spliced: tuple[Piece, ...]


@dataclass(frozen=True)
class TailBounds:
    """Closed-form majorants of the cross contributions."""
    tc: float
    ct1: float
    ct2: float


@dataclass(frozen=True)
class Condition:
    """The two sign conditions at splice radius R, as margins.

    center = I_cc + bound_tc must be negative (the center turns over) and
    tail = 1/4 - bound_ct1 - bound_ct2 positive (the tails stay graphs).
    """
    R: int
    center: float
    tail: float

    @property
    def center_ok(self) -> bool:
        return self.center < 0.0

    @property
    def tail_ok(self) -> bool:
        return self.tail > 0.0


@dataclass(frozen=True)
class Certificate:
    """Every number of the verification, each computed once.

    cc holds the center pieces I_cc^1..I_cc^4 (at a0 = 0) and i_cc their
    sum; tt holds the same-tail pieces I_tt^1..I_tt^3 (at a0 = R) and i_tt
    their sum. scan holds the conditions at R = 10, 11, ..., r_min + 2,
    r_min being the smallest admissible R. At R = r_min, at_center and
    at_tail are the direct predictor on z^R at 0 and R, i_tc, i_ct1 and
    i_ct2 the cross terms from per-block quadratures, and bounds their
    majorants.
    """
    cc: tuple[float, float, float, float]
    i_cc: float
    tt: tuple[float, float, float]
    i_tt: float
    scan: tuple[Condition, ...]
    r_min: int
    at_center: float
    at_tail: float
    i_tc: float
    i_ct1: float
    i_ct2: float
    bounds: TailBounds

    @property
    def recon_center(self) -> float:
        return 3.0 * (self.i_cc + self.i_tc)

    @property
    def recon_tail(self) -> float:
        return 1.0 * (self.i_tt + self.i_ct1 + self.i_ct2)


_IDENT = (0.0, 1.0)
_CUBIC = (0.0, 0.0, 0.0, 1.0)

_TAIL = (
    Piece(-2.0, -1.0, 0.0, _IDENT, (-2.0, -1.0)),
    Piece(-1.0, 1.0, 0.0, _CUBIC, (0.0, 1.0)),
    Piece(1.0, 2.0, 0.0, _IDENT, (2.0, -1.0)),
)

# z1 is the identity off the cubic on [-1, 1]
_CENTER = (
    Piece(-7.0, -5.0, 0.0, _IDENT, (10.5, 1.5)),
    Piece(-5.0, -2.0, 0.0, _IDENT, (3.0,)),
    Piece(-2.0, -1.0, 0.0, _IDENT, (-7.0, -5.0)),
    Piece(-1.0, 1.0, 0.0, _CUBIC, (0.0, 3.0, 0.0, -1.0)),
    Piece(1.0, 2.0, 0.0, _IDENT, (7.0, -5.0)),
    Piece(2.0, 5.0, 0.0, _IDENT, (-3.0,)),
    Piece(5.0, 7.0, 0.0, _IDENT, (-10.5, 1.5)),
)


def build_blocks(R: float) -> Blocks:
    """Tail, center, and the spliced curve z^R (requires R > 9)."""
    R = float(R)
    if R <= MIN_SPLICE_R:
        raise ValueError(f"splice needs R > {MIN_SPLICE_R}, got {R}")
    tail, center = _curve(_TAIL), _curve(_CENTER)
    # the identity (a, 0) fills the gaps between the blocks
    gap = lambda lo, hi: (Piece(lo, hi, 0.0, _IDENT, (0.0,)),)
    spliced = _curve(_shift(tail, -R) + gap(-R + 2.0, -7.0) + center
                     + gap(7.0, R - 2.0) + _shift(tail, R))
    return Blocks(tail=tail, center=center, spliced=spliced)


def _quad_sum(panels, tol, label) -> float:
    """Sum of the integrals of f over (lo, hi) for each (f, lo, hi).

    f takes arrays. A panel keeps G_2k where G_k and G_2k agree within tol
    relative and is bisected otherwise, down to _MIN_SPLIT of its width;
    the summed |G_2k - G_k| of the kept panels is the error estimate,
    which must not exceed max(tol |sum|, 1e-11). A G_k or G_2k that is
    not finite fails at once.
    """
    total = 0.0
    err = 0.0
    for f, lo, hi in panels:
        todo = [(lo, hi)]
        while todo:
            a, b = todo.pop()
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            coarse, fine = (half * np.dot(w, f(mid + half * x))
                            for x, w in _RULES)
            if not (np.isfinite(coarse) and np.isfinite(fine)):
                raise QuadratureError(
                    f"{label}: integrand not finite on ({a}, {b})")
            diff = abs(fine - coarse)
            if diff <= tol * abs(fine) or b - a <= _MIN_SPLIT * (hi - lo):
                total += fine
                err += diff
            else:
                todo += [(mid, b), (a, mid)]
    if not err <= max(tol * abs(total), 1e-11):
        raise QuadratureError(
            f"{label}: quadrature error {err:.3e} exceeds tolerance")
    return total


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


def _integrand(piece: Piece, x0: float):
    """b -> (z1 - x0) z1' z2 / ((z1 - x0)^2 + z2^2)^2 on one piece.

    The exact 0/0, z1 = x0 with z2 = 0, reads 0: at the predictor's target
    it is removable, the numerator ~ (b - alpha0)^4 against a denominator
    ~ (b - alpha0)^2 under the flatness preconditions.
    """
    def f(b):
        d = piece.z1(b) - x0
        w = piece.z2(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = d * piece.z1(b, 1) * w / (d * d + w * w) ** 2
        return np.where((d == 0.0) & (w == 0.0), 0.0, val)
    return f


def _panels(curve, x0: float, cut: float | None = None):
    """(integrand, lo, hi) on each piece of curve that carries z2, the one
    holding cut in its interior split there."""
    panels = []
    for p in curve:
        if any(p.c2):
            inner = [cut] if cut is not None and p.lo < cut < p.hi else []
            edges = [p.lo, *inner, p.hi]
            panels += [(_integrand(p, x0), lo, hi)
                       for lo, hi in zip(edges, edges[1:])]
    return panels


def turnover_predictor(curve, alpha0: float) -> float:
    """Sign predictor d_alpha v1 at a locally flat point of the interface.

    curve is a tuple of Pieces, checked as build_blocks checks its own.
    Requires z1'(alpha0) = z1''(alpha0) = z2(alpha0) = 0 (to
    PRECONDITION_TOL) on the piece that holds alpha0, the right one at a
    breakpoint; under these the quantity reduces to

        z2'(alpha0) * Int (z1(b) - z1(alpha0)) z1'(b) z2(b)
                          / ((z1(alpha0) - z1(b))^2 + z2(b)^2)^2 db,

    integrated over the pieces that carry z2. A negative value drives the
    tangent past vertical, a positive one restores the graph property.
    """
    curve = _curve(curve)
    alpha0 = float(alpha0)
    held = [p for p in curve if p.lo <= alpha0 <= p.hi]
    if not held:
        raise PreconditionError(
            f"point alpha0={alpha0} lies outside the curve's span"
            f" [{curve[0].lo}, {curve[-1].hi}]")
    p = held[-1]
    flat = (abs(p.z1(alpha0, 1)), abs(p.z1(alpha0, 2)), abs(p.z2(alpha0)))
    if max(flat) > PRECONDITION_TOL:
        raise PreconditionError(
            f"point alpha0={alpha0} is not flat enough:"
            f" |z1'|={flat[0]:.2e}, |z1''|={flat[1]:.2e}, |z2|={flat[2]:.2e}")
    total = _quad_sum(_panels(curve, float(p.z1(alpha0)), alpha0),
                      _PREDICTOR_TOL, f"turnover predictor at alpha0={alpha0}")
    return float(p.z2(alpha0, 1)) * total


def certificate() -> Certificate:
    """Evaluate the construction's constants, each once.

    I_cc^1 is integrated adaptively: its integrand -6x^2 (x^2 - 3) /
    (2x^4 - 6x^2 + 9)^2 is rational, with an elementary antiderivative by
    partial fractions in y = x^2 that is not transcribed here. The other
    three center pieces come from the closed-form antiderivatives

        F2(x) = (10x - 7) / (26 (26x^2 - 70x + 49)),
        F3(x) = 3 / (9 + x^2),
        F4(x) = 48 (7 - 2x) / (338x^2 - 3276x + 11466),

    giving I_cc^2 = 1/65, I_cc^3 = -63/442, I_cc^4 = -3/119 exactly. Of the
    same-tail pieces I_tt^2 is integrated adaptively, and the outer two
    telescope to exactly 1/8 each via

        G1(x) = (1 + x) / (4 (2 + 2x + x^2)),
        G3(x) = (x - 1) / (4 (2 - 2x + x^2)).

    One scan over R = 10, 11, ... finds r_min (RuntimeError past 60) and
    runs on to r_min + 2 for the report. The cross-check at r_min compares
    the direct predictor on z^R, integrated over the spliced curve's
    pieces that carry z2, with 3 (I_cc + I_tc) and I_tt + I_ct^1 + I_ct^2
    assembled per block: I_cc and I_tt from their closed forms and
    independently transcribed integrands, the cross terms from the
    predictor's integrand on the one block each.
    """
    F2 = lambda x: (10.0 * x - 7.0) / (26.0 * (26.0 * x * x - 70.0 * x + 49.0))
    F3 = lambda x: 3.0 / (9.0 + x * x)
    F4 = lambda x: 48.0 * (7.0 - 2.0 * x) / (338.0 * x * x - 3276.0 * x + 11466.0)
    G1 = lambda x: (1.0 + x) / (4.0 * (2.0 + 2.0 * x + x * x))
    G3 = lambda x: (x - 1.0) / (4.0 * (2.0 - 2.0 * x + x * x))
    i_cc1 = _quad_sum(
        [(lambda x: -6.0 * x * x * (x * x - 3.0)
          / (2.0 * x ** 4 - 6.0 * x * x + 9.0) ** 2, 0.0, 1.0)],
        _BLOCK_TOL, "I_cc^1")
    i_tt2 = _quad_sum(
        [(lambda x: 3.0 * x * x / (1.0 + x ** 4) ** 2, -1.0, 1.0)],
        _BLOCK_TOL, "I_tt^2")
    cc = (i_cc1, F2(2.0) - F2(1.0), F3(5.0) - F3(2.0), F4(7.0) - F4(5.0))
    tt = (G1(-1.0) - G1(-2.0), i_tt2, G3(2.0) - G3(1.0))
    i_cc = cc[0] + cc[1] + cc[2] + cc[3]

    scan, r_min = [], None
    for R in range(10, 63):
        tb = tail_bounds(R)
        cond = Condition(R, i_cc + tb.tc, I_TT_LOWER_BOUND - tb.ct1 - tb.ct2)
        scan.append(cond)
        if r_min is None and R <= 60 and cond.center_ok and cond.tail_ok:
            r_min, bounds = R, tb
        if r_min is not None and R == r_min + 2:
            break
    else:
        raise RuntimeError("no admissible R found up to 60")

    R = float(r_min)
    blocks = build_blocks(R)
    # Tail at +R seen from the center (x0 = 0) is the unshifted tail seen
    # from x0 = -R; its mirror image contributes equally, hence the 2.
    i_tc = 2.0 * _quad_sum(_panels(blocks.tail, -R), _PREDICTOR_TOL, "I_tc")
    # Center seen from the tail point (x0 = R).
    i_ct1 = _quad_sum(_panels(blocks.center, R), _PREDICTOR_TOL, "I_ct^1")
    # Far tail at -R seen from +R is the unshifted tail seen from 2R.
    i_ct2 = _quad_sum(_panels(blocks.tail, 2.0 * R), _PREDICTOR_TOL,
                      "I_ct^2")

    return Certificate(
        cc=cc, i_cc=i_cc, tt=tt, i_tt=tt[0] + tt[1] + tt[2],
        scan=tuple(scan), r_min=r_min,
        at_center=turnover_predictor(blocks.spliced, 0.0),
        at_tail=turnover_predictor(blocks.spliced, R),
        i_tc=i_tc, i_ct1=i_ct1, i_ct2=i_ct2, bounds=bounds)


def verification_report() -> str:
    """The certificate, formatted as structured text."""
    c = certificate()
    lines = [
        "turnover construction verification",
        "==================================",
        "",
        "center integrals (target alpha0 = 0)",
        f"  I_cc^1 = {c.cc[0]:+.12f}   (adaptive quadrature)",
        f"  I_cc^2 = {c.cc[1]:+.12f}   (closed form, 1/65)",
        f"  I_cc^3 = {c.cc[2]:+.12f}   (closed form, -63/442)",
        f"  I_cc^4 = {c.cc[3]:+.12f}   (closed form, -3/119)",
        f"  I_cc = {c.i_cc:+.12f}",
        "",
        "tail integrals (target alpha0 = R)",
        f"  I_tt^1 = {c.tt[0]:+.12f}   (closed form, 1/8)",
        f"  I_tt^2 = {c.tt[1]:+.12f}   (adaptive quadrature, positive)",
        f"  I_tt^3 = {c.tt[2]:+.12f}   (closed form, 1/8)",
        f"  I_tt = {c.i_tt:+.12f}  >= {I_TT_LOWER_BOUND}",
        "",
        "admissibility scan (integer R)",
    ]
    lines += [
        f"  R = {s.R:2d}: I_cc + bound_tc = {s.center:+.6f}"
        f" (center_ok={s.center_ok}), 1/4 - bounds_ct = {s.tail:+.6f}"
        f" (tail_ok={s.tail_ok})" for s in c.scan]
    b = c.bounds
    lines += [
        f"  min_admissible_R = {c.r_min}",
        "",
        f"predictor cross-check at R = {c.r_min}",
        f"  d_alpha v1 at center: direct = {c.at_center:+.9f},"
        f" reconstruction 3(I_cc + I_tc) = {c.recon_center:+.9f}",
        f"  d_alpha v1 at tail:   direct = {c.at_tail:+.9f},"
        f" reconstruction I_tt + I_ct = {c.recon_tail:+.9f}",
        f"  |I_tc| = {abs(c.i_tc):.6e} <= bound {b.tc:.6e}:"
        f" {abs(c.i_tc) <= b.tc}",
        f"  |I_ct^1| = {abs(c.i_ct1):.6e} <= bound {b.ct1:.6e}:"
        f" {abs(c.i_ct1) <= b.ct1}",
        f"  |I_ct^2| = {abs(c.i_ct2):.6e} <= bound {b.ct2:.6e}:"
        f" {abs(c.i_ct2) <= b.ct2}",
        f"  turnover at center: {c.at_center < 0},"
        f" tails stay graph-like: {c.at_tail > 0}",
        "",
    ]
    return "\n".join(lines)
