"""Balance laws of the flow, checked on the discrete velocity.

For a graph interface z = (alpha + p1, z2) the periodic Muskat flow has an
exact L^2 balance, the periodic form of the identity of Constantin,
Cordoba, Gancedo & Strain (J. Eur. Math. Soc. 15, 2013). In this
package's unit, where the velocity prefactor is 1,

    d/dt int z2^2 z1' dalpha = -2 D,
    D = int int ln[(cosh dz2 - cos dz1) / (1 - cos dz1)]
                z1'(alpha) z1'(beta) dalpha dbeta,

with dz = z(alpha) - z(beta) and the diagonal limit
ln(1 + (z2'/z1')^2). The mean height int z2 z1' dalpha is conserved. Both
integrands are smooth and periodic, so the trapezoid rule on the grid is
spectrally accurate, and the discrete velocity meets both laws to
roundoff on resolved graphs. A wrong prefactor, sign, factor 2 of the
alternating rule or time unit breaks the first by a fixed factor while
keeping the step's order of convergence.

Over a run, RK4 keeps neither law exactly: the energy residual
||f(T)||^2 - ||f(0)||^2 + 2 int D dt and the drift of the mean height
fall at the step's fourth order in dt.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from muskat.core import make_curve, make_grid
from muskat.integrator import STATUS_OK, StepControl, evolve_forward
from muskat.spectral import filtered_derivative
from muskat.velocity import periodic_rhs


def _graph(grid, name):
    """Three resolved graphs: the first two odd, the last one not."""
    a = grid.nodes
    p1, z2 = {
        "pure-graph": (0.0 * a, 0.3 * np.sin(a) + 0.1 * np.sin(2 * a)),
        "tilted": (-0.5 * np.sin(a), 0.4 * np.sin(a) - 0.2 * np.sin(3 * a)),
        "asymmetric": (-0.3 * np.sin(a) + 0.1 * np.cos(2 * a),
                       0.4 * np.sin(a) + 0.2 * np.cos(2 * a) + 0.1),
    }[name]
    return make_curve(grid, p1, z2)


def _balances(curve, odd):
    """(d/dt int z2^2 z1', the sum of the absolute terms of that rate, D,
    d/dt int z2 z1', the same sum for it) under periodic_rhs(curve,
    odd=odd), each by the trapezoid rule on the curve's grid."""
    h = curve.grid.spacing
    z1, z2 = curve.z1, curve.z2
    dz1, dz2 = filtered_derivative(curve.samples, 1)
    dz1 = dz1 + 1.0
    v1, v2 = periodic_rhs(curve, odd=odd)
    dv1 = filtered_derivative(v1, 1)
    energy_terms = (2.0 * z2 * v2 * dz1, z2 ** 2 * dv1)
    energy_rate = h * np.sum(sum(energy_terms))
    energy_scale = h * np.sum(sum(map(np.abs, energy_terms)))
    height_terms = (v2 * dz1, z2 * dv1)
    height_rate = h * np.sum(sum(height_terms))
    height_scale = h * np.sum(sum(map(np.abs, height_terms)))
    # (cosh dz2 - cos dz1) / (1 - cos dz1) = 1 + sinh^2(dz2/2) / sin^2(dz1/2)
    s1 = np.sin(0.5 * (z1[:, None] - z1[None, :]))
    np.fill_diagonal(s1, 1.0)  # the diagonal takes its limit below
    ker = np.log1p((np.sinh(0.5 * (z2[:, None] - z2[None, :])) / s1) ** 2)
    np.fill_diagonal(ker, np.log1p((dz2 / dz1) ** 2))
    dissipation = h * h * (dz1 @ ker @ dz1)
    return energy_rate, energy_scale, dissipation, height_rate, height_scale


_CASES = [(name, odd) for name in ("pure-graph", "tilted", "asymmetric")
          for odd in (False, True) if not (odd and name == "asymmetric")]


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("name, odd", _CASES)
def test_l2_energy_balance_holds_to_roundoff(name, odd, n):
    curve = _graph(make_grid(n), name)
    energy_rate, _, dissipation, _, _ = _balances(curve, odd)
    assert dissipation > 0.0
    assert abs(energy_rate + 2.0 * dissipation) <= 1e-12 * 2.0 * dissipation


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("name, odd", _CASES)
def test_mean_height_is_conserved(name, odd, n):
    curve = _graph(make_grid(n), name)
    _, _, _, height_rate, height_scale = _balances(curve, odd)
    assert abs(height_rate) <= 1e-14 * height_scale


_WAVES = np.arange(1, 4)
# a height coefficient in [-0.2, 0.2]; below 1e-50 it reads 0, since the
# cubes in the energy rate would underflow
_HEIGHT = st.floats(-0.2, 0.2).map(lambda c: c if abs(c) >= 1e-50 else 0.0)


@given(odd=st.booleans(),
       slope=arrays(np.float64, (2, 3), elements=st.floats(-1.0, 1.0)),
       reach=st.floats(0.0, 0.5),
       height=arrays(np.float64, (2, 3), elements=_HEIGHT),
       level=_HEIGHT)
@settings(max_examples=100, deadline=None)
def test_balances_hold_on_random_graphs(odd, slope, reach, height, level):
    # p1 = sum_k a_k sin k alpha + b_k cos k alpha with
    # sum_k k (|a_k| + |b_k|) = reach, z2 = c + sum_k c_k sin k alpha
    # + d_k cos k alpha; an odd draw drops the cosines and c and runs the
    # half sum. At n = 256 the alternating rule resolves every such graph.
    grid = make_grid(256)
    if odd:
        slope[1], height[1], level = 0.0, 0.0, 0.0
    total = float(_WAVES @ np.abs(slope).sum(0))
    if total > 0.0:
        slope = slope / total * reach
    waves = _WAVES[:, None] * grid.nodes
    basis = np.stack([np.sin(waves), np.cos(waves)])  # (2, 3, n)
    p1 = np.einsum("ij,ijn->n", slope, basis)
    z2 = level + np.einsum("ij,ijn->n", height, basis)
    energy_rate, energy_scale, dissipation, height_rate, height_scale = (
        _balances(make_curve(grid, p1, z2), odd))
    # the absolute floor is the energy sum's roundoff, which dominates on
    # nearly flat graphs
    assert (abs(energy_rate + 2.0 * dissipation)
            <= 1e-12 * 2.0 * dissipation + 1e-14 * energy_scale)
    assert abs(height_rate) <= 1e-14 * height_scale


# fixed RK4 steps of the runs, each half the one before
_DTS = (4e-3, 2e-3, 1e-3)


@lru_cache(maxsize=2)
def _runs(name):
    """Fixed RK4 runs of a graph at n = 128 from t = 0 to 0.2, one per dt
    of _DTS, each recording a state after every step."""
    curve = _graph(make_grid(128), name)
    return tuple(evolve_forward(curve, 0.2, StepControl(dt=dt),
                                snapshot_every=dt) for dt in _DTS)


def _moments(curve):
    """(||f||^2, mean height) = (int z2^2 z1', int z2 z1') by the trapezoid
    rule on the curve's grid."""
    dz1 = 1.0 + filtered_derivative(curve.p1, 1)
    weighted = curve.grid.spacing * dz1 * curve.z2
    return float(np.sum(weighted * curve.z2)), float(np.sum(weighted))


def _orders(errors):
    """The observed orders log2(e_k / e_k+1) of errors at halved steps."""
    errors = np.abs(errors)
    return np.log2(errors[:-1] / errors[1:])


@pytest.mark.parametrize("name", ["asymmetric", "tilted"])
def test_run_energy_residual_falls_at_fourth_order(name):
    # asymmetric runs the full sum, tilted the half sum
    residuals = []
    for dt, traj in zip(_DTS, _runs(name)):
        assert traj.status == STATUS_OK
        assert traj.pair_sum == ("full" if name == "asymmetric" else "half")
        times = np.asarray(traj.times)
        assert len(times) % 2 == 1 and np.allclose(np.diff(times), dt)
        odd = traj.pair_sum == "half"
        dissipation = [_balances(c, odd)[2] for c in traj.snapshots]
        # Simpson's rule over the states of every step
        weights = np.ones(len(times))
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        integral = dt / 3.0 * float(weights @ dissipation)
        residuals.append(_moments(traj.final)[0]
                         - _moments(traj.snapshots[0])[0] + 2.0 * integral)
    orders = _orders(residuals)
    print(f"{name}: energy residuals {residuals}, orders {orders}")
    assert np.all(orders >= 3.5), (residuals, orders)


def test_run_mean_height_drift_falls_at_fourth_order():
    # the odd graphs keep it at 0 by symmetry, so only asymmetric data
    # shows the step's drift
    drifts = [_moments(traj.final)[1] - _moments(traj.snapshots[0])[1]
              for traj in _runs("asymmetric")]
    orders = _orders(drifts)
    print(f"mean height drifts {drifts}, orders {orders}")
    assert np.all(orders >= 3.5), (drifts, orders)
