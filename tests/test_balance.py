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
"""

import numpy as np
import pytest

from muskat.core import make_curve, make_grid
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
    """(d/dt int z2^2 z1', D, d/dt int z2 z1', the sum of the absolute
    terms of that rate) under periodic_rhs(curve, odd=odd), each by the
    trapezoid rule on the curve's grid."""
    h = curve.grid.spacing
    z1, z2 = curve.z1, curve.z2
    dz1, dz2 = filtered_derivative(curve.samples, 1)
    dz1 = dz1 + 1.0
    v1, v2 = periodic_rhs(curve, odd=odd)
    dv1 = filtered_derivative(v1, 1)
    energy_rate = h * np.sum(2.0 * z2 * v2 * dz1 + z2 ** 2 * dv1)
    height_terms = (v2 * dz1, z2 * dv1)
    height_rate = h * np.sum(sum(height_terms))
    height_scale = h * np.sum(sum(map(np.abs, height_terms)))
    # (cosh dz2 - cos dz1) / (1 - cos dz1) = 1 + sinh^2(dz2/2) / sin^2(dz1/2)
    s1 = np.sin(0.5 * (z1[:, None] - z1[None, :]))
    np.fill_diagonal(s1, 1.0)  # the diagonal takes its limit below
    ker = np.log1p((np.sinh(0.5 * (z2[:, None] - z2[None, :])) / s1) ** 2)
    np.fill_diagonal(ker, np.log1p((dz2 / dz1) ** 2))
    dissipation = h * h * (dz1 @ ker @ dz1)
    return energy_rate, dissipation, height_rate, height_scale


_CASES = [(name, odd) for name in ("pure-graph", "tilted", "asymmetric")
          for odd in (False, True) if not (odd and name == "asymmetric")]


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("name, odd", _CASES)
def test_l2_energy_balance_holds_to_roundoff(name, odd, n):
    curve = _graph(make_grid(n), name)
    energy_rate, dissipation, _, _ = _balances(curve, odd)
    assert dissipation > 0.0
    assert abs(energy_rate + 2.0 * dissipation) <= 1e-12 * 2.0 * dissipation


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("name, odd", _CASES)
def test_mean_height_is_conserved(name, odd, n):
    curve = _graph(make_grid(n), name)
    _, _, height_rate, height_scale = _balances(curve, odd)
    assert abs(height_rate) <= 1e-14 * height_scale
