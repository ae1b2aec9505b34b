"""Grids and sampled interface curves.

Curves are stored as z(alpha) = (alpha + p1(alpha), z2(alpha)) with p1 and z2
periodic on [-pi, pi), so dz1/dalpha = 1 + dp1/dalpha and horizontal
differences between nodes stay well defined. The grid starts at -pi, which
places alpha = 0 on a node (index n/2); the presets below have their critical
point there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid alpha_i = -pi + i*2*pi/n on [-pi, pi)."""

    n: int
    nodes: np.ndarray

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.n


def make_grid(n: int) -> Grid:
    """Build the n-node grid; n must be even and at least 4."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError("grid size must be an integer")
    if n % 2 or n < 4:
        raise ValueError(f"grid size must be even and >= 4, got {n}")
    nodes = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return Grid(n=int(n), nodes=_frozen_array(nodes))


class NanEncountered(ValueError):
    """A curve state has non-finite samples."""


@dataclass(frozen=True)
class SampledCurve:
    """Interface samples, one read-only (2, n) array of the periodic rows p1
    and z2; z1 = nodes + p1. The constructor is the one finiteness check of
    a state, and raises NanEncountered."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != (2, self.grid.n):
            raise ValueError("samples must be (p1, z2), one row per node")
        if not np.isfinite(self.samples).all():
            raise NanEncountered("non-finite samples")

    @property
    def p1(self) -> np.ndarray:
        return self.samples[0]

    @property
    def z2(self) -> np.ndarray:
        return self.samples[1]

    @property
    def z1(self) -> np.ndarray:
        return self.grid.nodes + self.p1

    def with_samples(self, samples) -> "SampledCurve":
        return SampledCurve(self.grid, _frozen_array(samples))


def make_curve(grid: Grid, p1, z2) -> SampledCurve:
    return SampledCurve(grid, _frozen_array((p1, z2)))


def sample_preset(name: str, grid: Grid, delta: float | None = None) -> SampledCurve:
    """Sample one of the named initial conditions on the grid.

    SEED_T0        z1 = alpha - sin(alpha),
                   z2 = (3 sin(alpha) + 8 sin(2 alpha) + 3 sin(3 alpha))/4
    CONJ_T0        z1 = alpha - 0.96 sin(alpha), z2 = (2/3) sin(3 alpha)
    DELTA_TILT     z1 = alpha - (1-delta) sin(alpha), seed z2; needs delta
    """
    a = grid.nodes
    key = name.strip().upper()
    if key in ("SEED_T0", "CONJ_T0") and delta is not None:
        raise ValueError(f"preset {key} takes no delta")
    if key == "SEED_T0":
        p1 = -np.sin(a)
        z2 = (3 * np.sin(a) + 8 * np.sin(2 * a) + 3 * np.sin(3 * a)) / 4
    elif key == "CONJ_T0":
        p1 = -0.96 * np.sin(a)
        z2 = (2.0 / 3.0) * np.sin(3 * a)
    elif key == "DELTA_TILT":
        if delta is None:
            raise ValueError("DELTA_TILT needs a delta value")
        if not 0.0 < float(delta) < 1.0:
            raise ValueError(f"DELTA_TILT needs 0 < delta < 1, got {delta}")
        p1 = -(1.0 - float(delta)) * np.sin(a)
        z2 = (3 * np.sin(a) + 8 * np.sin(2 * a) + 3 * np.sin(3 * a)) / 4
    else:
        raise ValueError(f"unknown preset {name!r}")
    return make_curve(grid, p1, z2)
