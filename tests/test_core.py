import numpy as np
import pytest

import muskat.integrator as integrator
from muskat.core import (
    NanEncountered,
    make_curve,
    make_grid,
    sample_preset,
)

from conftest import mirror


def test_make_grid_basics():
    g = make_grid(8)
    assert g.n == 8
    assert g.spacing == 2 * np.pi / 8
    assert g.nodes[0] == -np.pi
    assert np.max(np.abs(np.diff(g.nodes) - g.spacing)) < 1e-15
    # half-open period: pi itself is not a node
    assert g.nodes[-1] < np.pi


def test_make_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_grid(7)
    with pytest.raises(ValueError):
        make_grid(2)
    with pytest.raises(TypeError):
        make_grid(8.0)


def test_curve_z1_and_immutability(grid64):
    p1 = 0.1 * np.sin(grid64.nodes)
    c = make_curve(grid64, p1, np.cos(grid64.nodes))
    assert np.array_equal(c.z1, grid64.nodes + p1)
    with pytest.raises(ValueError):
        c.p1[0] = 1.0


def test_curve_validation(grid64):
    with pytest.raises(ValueError):
        make_curve(grid64, np.zeros(32), np.zeros(64))
    bad = np.zeros(64)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        make_curve(grid64, bad, np.zeros(64))


def test_with_samples_keeps_grid(grid64):
    c = make_curve(grid64, np.zeros(64), np.zeros(64))
    c2 = c.with_samples(np.stack((np.ones(64) * 0.1, np.ones(64))))
    assert c2.grid is c.grid
    assert c2.z2[0] == 1.0


def test_curve_owns_its_layout_and_finiteness_check(grid64):
    src = np.stack((np.zeros(64), np.ones(64)))
    c = make_curve(grid64, np.zeros(64), np.zeros(64)).with_samples(src)
    src[1, 0] = 5.0
    # with_samples keeps one read-only copy; p1 and z2 are its rows
    assert c.samples.shape == (2, 64) and not c.samples.flags.writeable
    assert c.z2[0] == 1.0
    assert np.shares_memory(c.p1, c.samples)
    assert np.shares_memory(c.z2, c.samples)
    with pytest.raises(ValueError, match="one row per node"):
        c.with_samples(np.zeros((2, 32)))
    for bad in (np.nan, np.inf):
        src[0, 3] = bad
        with pytest.raises(NanEncountered):
            c.with_samples(src)
    # a config error before a run, NAN_ABORT in the march
    assert issubclass(NanEncountered, ValueError)
    assert integrator.NanEncountered is NanEncountered


def test_seed_preset(grid64):
    c = sample_preset("SEED_T0", grid64)
    a = grid64.nodes
    assert np.array_equal(c.p1, -np.sin(a))
    expect = (3 * np.sin(a) + 8 * np.sin(2 * a) + 3 * np.sin(3 * a)) / 4
    assert np.max(np.abs(c.z2 - expect)) < 1e-15


def test_conj_preset_slope(grid64):
    c = sample_preset("CONJ_T0", grid64)
    a = grid64.nodes
    assert np.array_equal(c.p1, -0.96 * np.sin(a))
    assert np.max(np.abs(c.z2 - (2 / 3) * np.sin(3 * a))) < 1e-15
    # sup |f'| = dz2/dz1 at alpha = 0: 2 / 0.04 = 50
    i0 = grid64.n // 2
    assert a[i0] == 0.0
    slope = 2 * np.cos(3 * a[i0]) / (1 - 0.96 * np.cos(a[i0]))
    assert abs(slope - 50.0) < 1e-12


def test_preset_errors(grid64):
    with pytest.raises(ValueError):
        sample_preset("NO_SUCH", grid64)
    # the tilted seed of the tests is no preset
    with pytest.raises(ValueError):
        sample_preset("DELTA_TILT", grid64)


def test_presets_are_odd(grid64):
    for name in ("SEED_T0", "CONJ_T0"):
        c = sample_preset(name, grid64)
        assert np.max(np.abs(c.p1 + mirror(c.p1))) < 1e-13
        assert np.max(np.abs(c.z2 + mirror(c.z2))) < 1e-13
