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


def _samples(values) -> np.ndarray:
    """values as floats with an even length n >= 4 on the last axis; 1-D
    input is checked finite (a (2, n) state was, by its SampledCurve)."""
    arr = np.asarray(values, dtype=float)
    n = arr.shape[-1] if arr.ndim else 0
    if n < 4 or n % 2:
        raise ValueError("expected an even length >= 4 along the last axis,"
                         f" got {n}")
    if arr.ndim == 1 and not np.isfinite(arr).all():
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
    """First spectral derivative with cutoff filter, along the last axis of
    input that _samples accepts; order must be 1.

    One real FFT pair, on the first n/2 + 1 bins of the multiplier; these
    hold k = 0, ..., n/2 - 1 and the Nyquist bin, all the real transform
    keeps.
    """
    if order != 1:
        raise ValueError(f"derivative order must be 1, got {order}")
    v = _samples(values)
    n = v.shape[-1]
    mult = _derivative_multiplier(n)
    return np.fft.irfft(np.fft.rfft(v) * mult[:n // 2 + 1], n)


def threshold_smooth(values, eps: float) -> np.ndarray:
    """Zero each |c_k| < eps along the last axis and resynthesize.

    Coefficients with |c_k| >= eps pass through untouched; eps = 0 keeps
    everything and returns the input unchanged. The map is idempotent: a row
    whose below-threshold coefficients all sit at FFT round-off level
    relative to its largest one keeps its samples, so applying the smoother
    to its own output is a bitwise no-op.

    eps is compared with the 1/n-normalised |c_k| of the module convention,
    not with raw DFT magnitudes n*|c_k|. At eps = 1e-6 this removes resolved
    content, not only round-off growth: one backward step of 4e-5 from
    SEED_T0, smoothed before and after, moves the centre slope
    1 + d_alpha p1 at alpha = 0 at a rate of 5.97 against 10.19 unsmoothed
    (= -d_alpha v1(0)). The reference experiment's eps acts on raw DFT
    magnitudes; passing eps/n here reproduces it (rate 10.197 at n = 512).
    """
    v = _samples(values)
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError("eps: must be finite and nonnegative")
    raw = np.fft.fft(v)
    mag = np.abs(raw) / v.shape[-1]
    drop = mag < eps
    keep = np.where(drop, mag, 0.0).max(-1) <= _ROUNDOFF_FLOOR * mag.max(-1)
    raw[drop] = 0.0
    return np.where(keep[..., None], v, np.fft.ifft(raw).real)


class TrigInterpolant:
    """Evaluate the trigonometric interpolant of a grid vector off-grid.

    Derivative evaluations use the same cutoff filter and Nyquist convention
    as filtered_derivative, so roots polished against this interpolant agree
    with the grid-side derivative routines.
    """

    def __init__(self, values):
        v = _samples(values)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
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
