"""Periodic velocity kernel and the turnover sign predictor."""

import numpy as np
import pytest

from muskat.core import PhysicalParams, make_curve, make_grid, sample_preset
from muskat.velocity import (
    ARC_CHORD_FLOOR,
    ArcChordError,
    PreconditionError,
    periodic_rhs,
    turnover_predictor,
)

from conftest import mirror


def test_flat_interface_is_stationary(flat64, params):
    field = periodic_rhs(flat64, params)
    assert np.all(field.v1 == 0.0)
    assert np.all(field.v2 == 0.0)


def test_single_mode_linearization():
    # for z2 = a sin(k alpha) with |a| tiny the flow reduces to its
    # linearization: v2 = -(jump/2) k z2, v1 second order in a
    grid = make_grid(512)
    k, a = 3, 1e-8
    z2 = a * np.sin(k * grid.nodes)
    curve = make_curve(grid, np.zeros(grid.n), z2)
    params = PhysicalParams()
    field = periodic_rhs(curve, params)

    expect = -(params.density_jump / 2.0) * k * z2
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(field.v2 - expect)) < 1e-6 * scale
    assert np.max(np.abs(field.v1)) < 1e-12 * scale


def test_odd_data_gives_odd_velocity():
    grid = make_grid(256)
    curve = sample_preset("SEED_T0", grid)
    field = periodic_rhs(curve, PhysicalParams())
    assert np.max(np.abs(field.v1 + mirror(field.v1))) < 1e-12
    assert np.max(np.abs(field.v2 + mirror(field.v2))) < 1e-12


def test_vertical_translation_invariance():
    grid = make_grid(128)
    curve = sample_preset("SEED_T0", grid)
    lifted = curve.with_samples(curve.p1, curve.z2 + 0.7)
    base = periodic_rhs(curve, PhysicalParams())
    moved = periodic_rhs(lifted, PhysicalParams())
    assert np.max(np.abs(moved.v1 - base.v1)) < 1e-12
    assert np.max(np.abs(moved.v2 - base.v2)) < 1e-12


def test_label_shift_equivariance():
    # relabeling alpha -> alpha - 2h permutes the nodes; an even shift
    # keeps the alternating parity classes aligned, so the velocity just
    # gets the same permutation
    grid = make_grid(128)
    curve = sample_preset("SEED_T0", grid)
    m = 2
    shifted = curve.with_samples(
        np.roll(curve.p1, m) - m * grid.spacing, np.roll(curve.z2, m))
    base = periodic_rhs(curve, PhysicalParams())
    moved = periodic_rhs(shifted, PhysicalParams())
    assert np.max(np.abs(moved.v1 - np.roll(base.v1, m))) < 1e-12
    assert np.max(np.abs(moved.v2 - np.roll(base.v2, m))) < 1e-12


def test_velocity_linear_in_density_jump():
    grid = make_grid(128)
    curve = sample_preset("SEED_T0", grid)
    one = periodic_rhs(curve, PhysicalParams(density_jump=4.0 * np.pi))
    two = periodic_rhs(curve, PhysicalParams(density_jump=8.0 * np.pi))
    assert np.allclose(two.v1, 2.0 * one.v1, rtol=1e-15, atol=0.0)
    assert np.allclose(two.v2, 2.0 * one.v2, rtol=1e-15, atol=0.0)


def test_collided_nodes_raise_arc_chord():
    grid = make_grid(64)
    # p1 = -alpha collapses every node onto z = (0, 0)
    curve = make_curve(grid, -grid.nodes, np.zeros(grid.n))
    with pytest.raises(ArcChordError) as info:
        periodic_rhs(curve, PhysicalParams())
    report = info.value.report
    assert report.min_denominator == 0.0
    assert report.floor == ARC_CHORD_FLOOR
    assert len(report.pairs) == 16
    assert all((i + j) % 2 == 1 for i, j in report.pairs)
    assert "arc-chord" in str(info.value)


def test_predictor_on_seed_is_negative():
    grid = make_grid(512)
    curve = sample_preset("SEED_T0", grid)
    value = turnover_predictor(curve, 0.0)
    assert value < 0.0


def test_predictor_rejects_sloped_point():
    grid = make_grid(256)
    curve = sample_preset("SEED_T0", grid)
    with pytest.raises(PreconditionError):
        turnover_predictor(curve, np.pi / 3.0)


def test_predictor_rejects_unknown_curve_type():
    with pytest.raises(TypeError):
        turnover_predictor([0.0, 1.0], 0.0)
