"""Spectral derivatives, smoothing and interpolation on the uniform periodic
grid.

All routines share one normalization: for a real vector v sampled on the n
nodes alpha_j = -pi + 2*pi*j/n, the coefficient of wavenumber k is

    c_k = (1/n) * sum_j v_j * exp(-i*k*alpha_j),   k = -n/2+1, ..., n/2,

so sin(alpha) has c_[+1] = -i/2 and c_[-1] = +i/2. Differentiation and the
smoothing threshold both live in this convention. Every derivative, on the
grid or off it, carries the one exponential cutoff filter
rho(k) = exp(-10*(2|k|/n)**25).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Below-threshold coefficients smaller than this multiple of the largest
# coefficient are indistinguishable from FFT round-off; see threshold_smooth.
_ROUNDOFF_FLOOR = 64.0 * np.finfo(float).eps


def _filter_profile(n: int) -> np.ndarray:
    """Cutoff filter rho(k) = exp(-10*(2|k|/n)**25) in numpy FFT ordering
    for an n-point grid."""
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    return np.exp(-10.0 * (2.0 * k / n) ** 25)


def _check_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 4 or arr.size % 2:
        raise ValueError("expected a 1-D real vector of even length >= 4")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    return arr


@lru_cache(maxsize=64)
def _derivative_multiplier(n: int) -> np.ndarray:
    """ik * rho(k) in numpy FFT ordering for an n-point grid.

    The Nyquist bin is zeroed: it aliases +n/2 and -n/2 and carries no
    usable sign for ik. Cached per n, so the result is read-only.
    """
    k = np.fft.fftfreq(n, 1.0 / n)
    mult = 1j * k * _filter_profile(n)
    mult[n // 2] = 0.0
    mult.flags.writeable = False
    return mult


def filtered_derivative(values, order: int = 1) -> np.ndarray:
    """First spectral derivative with cutoff filter, along the last axis.
    A (2, n) input is taken as a checked SampledCurve.samples; order must
    be 1.

    One real FFT pair, on the first n/2 + 1 bins of the multiplier; these
    hold k = 0, ..., n/2 - 1 and the Nyquist bin, all the real transform
    keeps.
    """
    if order != 1:
        raise ValueError(f"derivative order must be 1, got {order}")
    v = _check_vector(values) if np.ndim(values) == 1 else values
    n = v.shape[-1]
    mult = _derivative_multiplier(n)
    return np.fft.irfft(np.fft.rfft(v) * mult[:n // 2 + 1], n)


def threshold_smooth(values, eps: float) -> np.ndarray:
    """Zero every coefficient with |c_k| < eps and resynthesize.

    Coefficients with |c_k| >= eps pass through untouched; eps = 0 keeps
    everything and returns the input unchanged. The map is idempotent: when
    every below-threshold coefficient already sits at FFT round-off level
    relative to the largest one, the input is returned as-is, so applying the
    smoother to its own output is a bitwise no-op.

    eps is compared with the 1/n-normalised |c_k| of the module convention,
    not with raw DFT magnitudes n*|c_k|. At eps = 1e-6 this removes resolved
    content, not only round-off growth: one backward step of 4e-5 from
    SEED_T0, smoothed before and after, moves the centre slope
    1 + d_alpha p1 at alpha = 0 at a rate of 5.97 against 10.19 unsmoothed
    (= -d_alpha v1(0)). The reference experiment's eps acts on raw DFT
    magnitudes; passing eps/n here reproduces it (rate 10.197 at n = 512).
    """
    v = _check_vector(values)
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError("eps: must be finite and nonnegative")
    n = v.size
    raw = np.fft.fft(v)
    mag = np.abs(raw) / n
    drop = mag < eps
    if not drop.any():
        return v.copy()
    if mag[drop].max() <= _ROUNDOFF_FLOOR * mag.max():
        return v.copy()
    raw[drop] = 0.0
    return np.fft.ifft(raw).real


class TrigInterpolant:
    """Evaluate the trigonometric interpolant of a grid vector off-grid.

    Derivative evaluations use the same cutoff filter and Nyquist convention
    as filtered_derivative, so roots polished against this interpolant agree
    with the grid-side derivative routines.
    """

    def __init__(self, values):
        v = _check_vector(values)
        self.n = v.size
        self._raw = np.fft.fft(v) / self.n
        self._k = np.fft.fftfreq(self.n, 1.0 / self.n)

    def __call__(self, x, order: int = 0):
        """The interpolant (order 0) or its first derivative (order 1)."""
        if order not in (0, 1):
            raise ValueError(f"interpolant order must be 0 or 1, got {order}")
        x = np.asarray(x, dtype=float)
        coeffs = self._raw
        if order:
            coeffs = coeffs * _derivative_multiplier(self.n)
        # Node j sits at alpha_j = -pi + j*h, so the bin phases need x + pi.
        phases = np.exp(1j * np.multiply.outer(x + np.pi, self._k))
        out = (phases @ coeffs).real
        return float(out) if x.ndim == 0 else out
