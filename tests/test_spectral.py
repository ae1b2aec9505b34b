import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from muskat.core import make_grid
from muskat.spectral import (
    TrigInterpolant,
    _derivative_multiplier,
    _filter_profile,
    filtered_derivative,
    threshold_smooth,
)


def _samples(n, max_value=1e3):
    return arrays(np.float64, n,
                  elements=st.floats(-max_value, max_value, width=64))


def test_derivative_of_sin():
    g = make_grid(2048)
    d = filtered_derivative(np.sin(g.nodes), 1)
    assert np.max(np.abs(d - np.cos(g.nodes))) < 1e-10


def test_cached_multiplier_is_read_only_and_exact():
    g = make_grid(256)
    v = np.exp(np.cos(g.nodes)) + 0.3 * np.sin(5 * g.nodes)
    mult = _derivative_multiplier(256)
    assert mult is _derivative_multiplier(256)
    assert not mult.flags.writeable
    fresh = _derivative_multiplier.__wrapped__(256)
    d = filtered_derivative(v, 1)
    # one real FFT pair on the bins k = 0, ..., n/2 of the multiplier
    expect = np.fft.irfft(np.fft.rfft(v) * fresh[:129], 256)
    assert np.array_equal(d, expect)
    # the complex transform on every bin, as a reference: the two round
    # differently (a gap of 1.1e-14 of max|d| here)
    full = np.fft.ifft(np.fft.fft(v) * fresh).real
    assert np.max(np.abs(d - full)) <= 1e-13 * np.max(np.abs(full))


def test_derivative_of_smooth_nonpolynomial():
    g = make_grid(256)
    v = np.exp(np.cos(g.nodes))
    exact = -np.sin(g.nodes) * v
    assert np.max(np.abs(filtered_derivative(v, 1) - exact)) < 1e-11


def test_nyquist_mode_dropped_for_odd_order():
    g = make_grid(32)
    v = np.cos(16 * g.nodes)  # pure Nyquist mode
    assert np.max(np.abs(filtered_derivative(v, 1))) < 1e-13


def test_derivative_rejects_bad_input():
    with pytest.raises(ValueError):
        filtered_derivative(np.zeros(7), 1)
    with pytest.raises(ValueError):
        filtered_derivative(np.zeros(2), 1)
    with pytest.raises(ValueError):
        filtered_derivative(np.array([1.0, np.nan, 0.0, 0.0]), 1)
    for order in (0, 2, 5):
        with pytest.raises(ValueError, match="order must be 1"):
            filtered_derivative(np.zeros(16), order)


def test_stacked_derivative_rows_match_one_dimensional_calls():
    v = np.random.default_rng(3).normal(size=(2, 512))
    d = filtered_derivative(v, 1)
    assert d.shape == v.shape
    for row, d_row in zip(v, d):
        assert np.array_equal(d_row, filtered_derivative(row, 1))


def test_stacked_derivative_checks_the_grid_size():
    # the 1-D size rule holds on the last axis of every input, and the
    # smoother shares it
    for shape in ((2, 7), (2, 2), (3, 2, 5)):
        message = ("^expected an even length >= 4 along the last axis,"
                   f" got {shape[-1]}$")
        with pytest.raises(ValueError, match=message):
            filtered_derivative(np.zeros(shape), 1)
        with pytest.raises(ValueError, match=message):
            threshold_smooth(np.zeros(shape), 1e-6)
    # the interpolant takes one vector only
    with pytest.raises(ValueError, match="1-D"):
        TrigInterpolant(np.zeros((2, 8)))


def test_stacked_fft_rows_match_one_dimensional_calls():
    # the premise of smoothing a (2, n) state in one transform
    rng = np.random.default_rng(5)
    for n in (32, 512, 2048):
        v = rng.normal(size=(2, n))
        c = np.fft.fft(v)
        back = np.fft.ifft(c)
        for row, c_row, back_row in zip(v, c, back):
            assert np.array_equal(c_row, np.fft.fft(row))
            assert np.array_equal(back_row, np.fft.ifft(c_row))


def test_stacked_smoothing_matches_one_dimensional_calls():
    # at eps = 1e-6 noise keeps every coefficient, sin drops only FFT
    # round-off and keeps its samples, and a mode of 1e-9 is smoothed away
    g = make_grid(64)
    rows = {"whole": np.random.default_rng(11).normal(size=64),
            "round-off": np.sin(g.nodes),
            "resolved": np.sin(g.nodes) + 1e-9 * np.sin(5 * g.nodes)}
    single = {kind: threshold_smooth(row, 1e-6) for kind, row in rows.items()}
    assert np.array_equal(single["whole"], rows["whole"])
    assert np.array_equal(single["round-off"], rows["round-off"])
    assert not np.array_equal(single["resolved"], rows["resolved"])
    for a in rows:
        for b in rows:
            out = threshold_smooth(np.stack((rows[a], rows[b])), 1e-6)
            assert np.array_equal(out, np.stack((single[a], single[b])))


def test_filter_profile_shape():
    prof = _filter_profile(64)
    assert prof[0] == 1.0
    assert abs(prof[32] - np.exp(-10.0)) < 1e-15
    k = np.fft.fftfreq(64, d=1 / 64)
    order = np.argsort(np.abs(k))
    assert np.all(np.diff(prof[order]) <= 1e-15)


def test_filter_negligible_on_low_modes():
    # modes up to n/4 pass essentially untouched
    prof = _filter_profile(512)
    assert abs(prof[128] - 1.0) < 1e-6


def test_threshold_smooth_zero_eps_is_identity():
    rng = np.random.default_rng(7)
    v = rng.normal(size=64)
    assert np.array_equal(threshold_smooth(v, 0.0), v)


def test_threshold_smooth_rejects_nan_eps():
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError,
                           match="eps: must be finite and nonnegative"):
            threshold_smooth(np.zeros(16), eps)


def test_threshold_smooth_drops_small_modes():
    g = make_grid(64)
    v = np.sin(g.nodes) + 1e-9 * np.sin(5 * g.nodes)
    w = threshold_smooth(v, 1e-6)
    # 1/n-normalised coefficients; the grid starts at -pi, so odd
    # wavenumbers pick up a factor -1 against numpy's bins
    coeffs = np.fft.fft(w) / w.size
    assert abs(coeffs[5]) < 1e-15
    assert abs(-coeffs[1] - (-0.5j)) < 1e-12


def test_threshold_smooth_keeps_large_modes():
    g = make_grid(64)
    v = np.sin(g.nodes)
    w = threshold_smooth(v, 1e-6)
    assert np.max(np.abs(w - v)) < 1e-14


@given(v=_samples(32), exp=st.integers(-9, 2))
@settings(max_examples=100)
def test_threshold_smooth_idempotent_bitwise(v, exp):
    eps = 10.0 ** exp
    once = threshold_smooth(v, eps)
    twice = threshold_smooth(once, eps)
    assert np.array_equal(once, twice)


def test_interpolant_matches_nodes_and_analytic():
    g = make_grid(64)
    v = np.sin(3 * g.nodes)
    interp = TrigInterpolant(v)
    assert np.max(np.abs(interp(g.nodes) - v)) < 1e-13
    x = np.linspace(-3.0, 3.0, 17)
    assert np.max(np.abs(interp(x) - np.sin(3 * x))) < 1e-12
    assert np.max(np.abs(interp(x, order=1) - 3 * np.cos(3 * x))) < 1e-11
    with pytest.raises(ValueError, match="order must be 0 or 1"):
        interp(x, order=2)


def test_interpolant_scalar_output():
    g = make_grid(32)
    interp = TrigInterpolant(np.cos(g.nodes))
    val = interp(0.5)
    assert np.isscalar(val) or np.ndim(val) == 0
    assert abs(val - np.cos(0.5)) < 1e-12
