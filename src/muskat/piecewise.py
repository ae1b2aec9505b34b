"""Piecewise-polynomial curves used by the turnover construction.

Each piece keeps its coefficients in a local coordinate (x - center), so
translating a block by +-R is exact: the interval and center shift, the
coefficients do not. Splicing blocks together therefore meets the strict
continuity tolerance without any polynomial recomposition error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

CONTINUITY_TOL = 1e-14
ODDNESS_TOL = 1e-12


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    center: float
    coeffs: tuple[float, ...]

    def __call__(self, x):
        return npoly.polyval(np.asarray(x, dtype=float) - self.center,
                             self.coeffs)

    def derivative(self) -> "Piece":
        der = npoly.polyder(self.coeffs) if len(self.coeffs) > 1 else (0.0,)
        return Piece(self.lo, self.hi, self.center, tuple(der))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


class PiecewisePoly:
    """Contiguous polynomial pieces on [pieces[0].lo, pieces[-1].hi]."""

    def __init__(self, pieces, check_continuity: bool = True):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile a contiguous interval")
            if check_continuity:
                gap = abs(left(left.hi) - right(right.lo))
                if gap > CONTINUITY_TOL:
                    raise ValueError(
                        f"discontinuity {gap:.3e} at breakpoint {left.hi}")
        self.pieces = pieces
        self.lo = pieces[0].lo
        self.hi = pieces[-1].hi

    @property
    def breakpoints(self) -> np.ndarray:
        return np.array([p.lo for p in self.pieces] + [self.hi])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        edges = np.array([p.hi for p in self.pieces[:-1]])
        idx = np.searchsorted(edges, x, side="right")
        flat = np.atleast_1d(x)
        out = np.empty_like(flat)
        for i, piece in enumerate(self.pieces):
            sel = np.atleast_1d(idx) == i
            if sel.any():
                out[sel] = piece(flat[sel])
        return float(out[0]) if x.ndim == 0 else out

    def derivative(self) -> "PiecewisePoly":
        # Derivatives of continuous splines may jump at breakpoints.
        return PiecewisePoly((p.derivative() for p in self.pieces),
                             check_continuity=False)

    def shifted(self, dx: float) -> "PiecewisePoly":
        return PiecewisePoly(
            (Piece(p.lo + dx, p.hi + dx, p.center + dx, p.coeffs)
             for p in self.pieces),
            check_continuity=False)

    def plus_const(self, c: float) -> "PiecewisePoly":
        return PiecewisePoly(
            (Piece(p.lo, p.hi, p.center,
                   (p.coeffs[0] + c,) + p.coeffs[1:])
             for p in self.pieces),
            check_continuity=False)

    def nonzero_intervals(self) -> list[tuple[float, float]]:
        """Merged intervals of pieces that are not identically zero."""
        out: list[tuple[float, float]] = []
        for p in self.pieces:
            if p.is_zero():
                continue
            if out and out[-1][1] == p.lo:
                out[-1] = (out[-1][0], p.hi)
            else:
                out.append((p.lo, p.hi))
        return out


class PiecewiseCurve:
    """An odd planar curve (z1(a), z2(a)) built from polynomial pieces.

    Outside the pieces' span the curve continues as (a, 0), matching the
    spliced construction which is the identity far from the blocks.
    """

    def __init__(self, c1: PiecewisePoly, c2: PiecewisePoly):
        if (c1.lo, c1.hi) != (c2.lo, c2.hi):
            raise ValueError("component polys must share a span")
        self.c1 = c1
        self.c2 = c2
        self._d1 = c1.derivative()
        self._d2 = c2.derivative()
        self._dd1 = self._d1.derivative()
        self._check_odd()

    def _check_odd(self):
        span = self.c1.hi - self.c1.lo
        probes = self.c1.lo + span * np.linspace(0.015, 0.985, 23)
        bad = max(np.max(np.abs(self.z1(probes) + self.z1(-probes))),
                  np.max(np.abs(self.z2(probes) + self.z2(-probes))))
        if bad > ODDNESS_TOL:
            raise ValueError(f"curve is not odd (defect {bad:.3e})")

    @property
    def breakpoints(self) -> np.ndarray:
        return np.unique(np.concatenate([self.c1.breakpoints,
                                         self.c2.breakpoints]))

    def _eval(self, poly, x, outside):
        x = np.asarray(x, dtype=float)
        inside = (x >= poly.lo) & (x <= poly.hi)
        flat = np.atleast_1d(x)
        out = outside(flat)
        mask = np.atleast_1d(inside)
        if mask.any():
            out[mask] = np.atleast_1d(poly(flat[mask]))
        return float(out[0]) if x.ndim == 0 else out

    def z1(self, x):
        return self._eval(self.c1, x, lambda v: v.copy())

    def z2(self, x):
        return self._eval(self.c2, x, np.zeros_like)

    def dz1(self, x):
        return self._eval(self._d1, x, np.ones_like)

    def dz2(self, x):
        return self._eval(self._d2, x, np.zeros_like)

    def ddz1(self, x):
        return self._eval(self._dd1, x, np.zeros_like)

    def support2(self) -> list[tuple[float, float]]:
        """Intervals where z2 is not identically zero."""
        return self.c2.nonzero_intervals()
