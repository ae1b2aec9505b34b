"""Piecewise-polynomial curves used by the turnover construction.

A piece carries both components on its interval, each with coefficients
in a local coordinate (x - center), so translating a block by +-R is
exact: the interval, the center and z1's constant term shift, the other
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
    """z1 and z2 on [lo, hi] as polynomials in (x - center), lowest
    coefficient first."""
    lo: float
    hi: float
    center: float
    c1: tuple[float, ...]
    c2: tuple[float, ...]


def _derivative(coeffs):
    return tuple(npoly.polyder(coeffs)) if len(coeffs) > 1 else (0.0,)


class PiecewiseCurve:
    """An odd planar curve (z1(a), z2(a)) on contiguous polynomial pieces.

    Outside the pieces' span the curve continues as (a, 0), matching the
    spliced construction which is the identity far from the blocks. At a
    breakpoint the piece on its right is evaluated; z1 and z2 are checked
    continuous there, their derivatives may jump.
    """

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile a contiguous interval")
            for name, a, b in (("z1", left.c1, right.c1),
                               ("z2", left.c2, right.c2)):
                gap = abs(npoly.polyval(left.hi - left.center, a)
                          - npoly.polyval(right.lo - right.center, b))
                if gap > CONTINUITY_TOL:
                    raise ValueError(f"{name} discontinuity {gap:.3e}"
                                     f" at breakpoint {left.hi}")
        self.pieces = pieces
        self.lo = pieces[0].lo
        self.hi = pieces[-1].hi
        self._edges = np.array([p.hi for p in pieces[:-1]])
        self._c1 = [p.c1 for p in pieces]
        self._c2 = [p.c2 for p in pieces]
        self._d1 = [_derivative(c) for c in self._c1]
        self._d2 = [_derivative(c) for c in self._c2]
        self._dd1 = [_derivative(c) for c in self._d1]
        self._check_odd()

    def _check_odd(self):
        span = self.hi - self.lo
        probes = self.lo + span * np.linspace(0.015, 0.985, 23)
        bad = max(np.max(np.abs(self.z1(probes) + self.z1(-probes))),
                  np.max(np.abs(self.z2(probes) + self.z2(-probes))))
        if bad > ODDNESS_TOL:
            raise ValueError(f"curve is not odd (defect {bad:.3e})")

    @property
    def breakpoints(self) -> np.ndarray:
        return np.array([p.lo for p in self.pieces] + [self.hi])

    def _eval(self, coeffs, x, outside):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x)
        out = outside(flat)
        inside = (flat >= self.lo) & (flat <= self.hi)
        idx = np.searchsorted(self._edges, flat, side="right")
        for i, (piece, c) in enumerate(zip(self.pieces, coeffs)):
            sel = inside & (idx == i)
            if sel.any():
                out[sel] = npoly.polyval(flat[sel] - piece.center, c)
        return float(out[0]) if x.ndim == 0 else out

    def z1(self, x):
        return self._eval(self._c1, x, lambda v: v.copy())

    def z2(self, x):
        return self._eval(self._c2, x, np.zeros_like)

    def dz1(self, x):
        return self._eval(self._d1, x, np.ones_like)

    def dz2(self, x):
        return self._eval(self._d2, x, np.zeros_like)

    def ddz1(self, x):
        return self._eval(self._dd1, x, np.zeros_like)

    def shifted(self, dx: float) -> tuple[Piece, ...]:
        """The pieces moved by dx along alpha and along z1, for splicing
        into a larger curve (moved, they are no longer odd)."""
        return tuple(Piece(p.lo + dx, p.hi + dx, p.center + dx,
                           (p.c1[0] + dx,) + p.c1[1:], p.c2)
                     for p in self.pieces)

    def support2(self) -> list[tuple[float, float]]:
        """Merged intervals of the pieces whose z2 is not identically
        zero."""
        out: list[tuple[float, float]] = []
        for p in self.pieces:
            if all(c == 0 for c in p.c2):
                continue
            if out and out[-1][1] == p.lo:
                out[-1] = (out[-1][0], p.hi)
            else:
                out.append((p.lo, p.hi))
        return out
