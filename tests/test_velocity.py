"""Periodic velocity kernel."""

import tracemalloc

import numpy as np
import pytest

import muskat.integrator as integrator
from muskat import velocity
from muskat.core import make_curve, make_grid, sample_preset
from muskat.integrator import STATUS_ARC_CHORD, StepControl, evolve_forward
from muskat.spectral import filtered_derivative
from muskat.velocity import (
    ARC_CHORD_FLOOR,
    ArcChordError,
    ArcChordReport,
    periodic_rhs,
)

from conftest import asymmetric_curve, mirror


def _two_half_sum(curve, floor=ARC_CHORD_FLOOR):
    """Reference pair sum: both parity halves formed in full.

    Returns (v1, v2, min_denominator, pair), pair the (even, odd) node pair
    of the smallest denominator, the first in row-major order; the
    velocities are None when that denominator is at or below the floor.
    """
    n = curve.grid.n
    z1, z2 = curve.z1, curve.z2
    dz1 = 1.0 + filtered_derivative(curve.p1, 1)
    dz2 = filtered_derivative(curve.z2, 1)
    even = np.arange(0, n, 2)
    odd = np.arange(1, n, 2)
    halves = []
    worst = np.inf
    for tgt, src in ((even, odd), (odd, even)):
        d1 = z1[tgt][:, None] - z1[src][None, :]
        d2 = z2[tgt][:, None] - z2[src][None, :]
        # cosh(d2) - cos(d1) without its cancellation on close pairs
        den = 2.0 * (np.sinh(0.5 * d2) ** 2 + np.sin(0.5 * d1) ** 2)
        worst = min(worst, float(den.min()))
        halves.append((tgt, src, d1, den))
    i, j = np.unravel_index(np.argmin(halves[0][3]), halves[0][3].shape)
    pair = (int(even[i]), int(odd[j]))
    if worst <= floor:
        return None, None, worst, pair
    v1 = np.empty(n)
    v2 = np.empty(n)
    for tgt, src, d1, den in halves:
        ker = np.sin(d1) / den
        v1[tgt] = ((dz1[tgt][:, None] - dz1[src][None, :]) * ker).sum(axis=1)
        v2[tgt] = ((dz2[tgt][:, None] - dz2[src][None, :]) * ker).sum(axis=1)
    scale = 2.0 * curve.grid.spacing
    return scale * v1, scale * v2, worst, pair


def _report(curve, **kwargs):
    """The ArcChordReport periodic_rhs(curve, **kwargs) raises."""
    with pytest.raises(ArcChordError) as info:
        periodic_rhs(curve, **kwargs)
    return info.value.report


def _reference_report(curve, floor=ARC_CHORD_FLOOR):
    """The report of a full sum, from the reference pair sum."""
    _, _, worst, pair = _two_half_sum(curve, floor)
    assert worst <= floor
    return ArcChordReport(worst, floor, pair)


def _test_curve(name, n):
    grid = make_grid(n)
    if name == "ASYMMETRIC":
        return asymmetric_curve(grid)
    if name == "DELTA_TILT":
        return sample_preset(name, grid, delta=0.1)
    return sample_preset(name, grid)


def _max_rel_diff(field, v1, v2):
    # np.max, unlike max, lets a NaN through
    return float(np.max([np.max(np.abs(field[0] - v1)) / np.max(np.abs(v1)),
                         np.max(np.abs(field[1] - v2)) / np.max(np.abs(v2))]))


def test_flat_interface_is_stationary(flat64):
    field = periodic_rhs(flat64)
    assert np.all(field == 0.0)


def test_single_mode_linearization():
    # for z2 = a sin(k alpha) with |a| tiny the flow reduces to its
    # linearization: v2 = -2 pi k z2, v1 second order in a
    grid = make_grid(512)
    k, a = 3, 1e-8
    z2 = a * np.sin(k * grid.nodes)
    curve = make_curve(grid, np.zeros(grid.n), z2)
    field = periodic_rhs(curve)

    expect = -2.0 * np.pi * k * z2
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(field[1] - expect)) < 1e-6 * scale
    assert np.max(np.abs(field[0])) < 1e-12 * scale


def test_odd_data_gives_odd_velocity():
    grid = make_grid(256)
    curve = sample_preset("SEED_T0", grid)
    field = periodic_rhs(curve)
    for row in field:
        assert np.max(np.abs(row + mirror(row))) < 1e-12


def test_vertical_translation_invariance():
    grid = make_grid(128)
    curve = sample_preset("SEED_T0", grid)
    lifted = curve.with_samples((curve.p1, curve.z2 + 0.7))
    base = periodic_rhs(curve)
    moved = periodic_rhs(lifted)
    assert np.max(np.abs(moved - base)) < 1e-12


@pytest.mark.parametrize("n, m, tol", [(128, 2, 1e-12), (2048, 100, 1e-10)])
def test_label_shift_equivariance(n, m, tol):
    # relabeling alpha -> alpha - m h permutes the nodes; an even shift
    # keeps the alternating parity classes aligned, so the velocity just
    # gets the same permutation. At n = 2048 the relabeled nodes differ from
    # the shifted ones in roundoff (z1 = alpha + p1 is re-rounded), which
    # moves the velocity (max 12.7) by 1.1e-11 with either pair formula
    grid = make_grid(n)
    curve = sample_preset("SEED_T0", grid)
    shifted = curve.with_samples(
        (np.roll(curve.p1, m) - m * grid.spacing, np.roll(curve.z2, m)))
    base = periodic_rhs(curve)
    moved = periodic_rhs(shifted)
    assert np.max(np.abs(moved - np.roll(base, m, axis=1))) < tol


@pytest.mark.parametrize("n", [64, 512, 600, 2048])
@pytest.mark.parametrize("name", ["SEED_T0", "CONJ_T0", "ASYMMETRIC"])
def test_kernel_matches_two_half_pair_sum(name, n):
    # every pair takes the Cauchy form but the near ones (SEED_T0: 1, 17, 58
    # at n = 64, 512, 2048; ASYMMETRIC: 0, 13, 42; CONJ_T0: none); with
    # cosh(d2) - cos(d1) as written the oracle would carry up to 5.7e-11.
    # At n = 600 the 300 even rows end in a short chunk
    curve = _test_curve(name, n)
    v1, v2, _, _ = _two_half_sum(curve)
    assert _max_rel_diff(periodic_rhs(curve), v1, v2) <= 1e-13


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("name", ["SEED_T0", "CONJ_T0"])
def test_reference_pair_sum_matches_extended_precision(name, n):
    # the oracle against the same pair sum in long double with
    # cosh(d2) - cos(d1) as written, whose cancellation costs eps_ld / den,
    # about 2e-14 on the adjacent pairs at n = 2048; that form in double
    # would leave up to 5.7e-11
    curve = _test_curve(name, n)
    v1, v2, _, _ = _two_half_sum(curve)
    z1, z2 = curve.z1.astype(np.longdouble), curve.z2.astype(np.longdouble)
    dz = np.stack((1.0 + filtered_derivative(curve.p1, 1),
                   filtered_derivative(curve.z2, 1))).astype(np.longdouble)
    ref = np.empty((2, n), dtype=np.longdouble)
    for tgt in (slice(0, n, 2), slice(1, n, 2)):
        src = slice(1 - tgt.start, n, 2)
        d1 = z1[tgt, None] - z1[None, src]
        d2 = z2[tgt, None] - z2[None, src]
        ker = np.sin(d1) / (np.cosh(d2) - np.cos(d1))
        ref[:, tgt] = dz[:, tgt] * ker.sum(axis=1) - (ker @ dz[:, src].T).T
    ref *= 2.0 * curve.grid.spacing
    assert _max_rel_diff(np.stack((v1, v2)), *ref.astype(float)) <= 1e-13


@pytest.mark.parametrize("n", [16, 18, 64, 512, 602, 2048])
@pytest.mark.parametrize("name", ["SEED_T0", "CONJ_T0", "DELTA_TILT"])
def test_half_sum_matches_full_sum_on_odd_curves(name, n):
    # the full sum is odd only up to the roundoff of the FFT derivative,
    # which is not mirror-symmetric (3.3e-13 to 1.1e-12 relative at
    # n = 2048); the half sum may sit that far from it and no farther. At
    # n = 18 and 602, m = n/2 is odd and odd node (m - 1)/2 is its own
    # mirror
    curve = _test_curve(name, n)
    full = periodic_rhs(curve)
    half = periodic_rhs(curve, odd=True)
    eps = np.finfo(float).eps
    for h, f in zip(half, full):
        scale = np.max(np.abs(f))
        assert np.max(np.abs(h - f)) <= (np.max(np.abs(f + mirror(f)))
                                         + 16 * eps * scale)
        assert np.array_equal(mirror(h), -h)


def test_kernel_is_independent_of_row_chunking(monkeypatch):
    curve = _test_curve("ASYMMETRIC", 512)
    base = periodic_rhs(curve)
    # 7 rows per chunk leave a short last chunk of the 256 even rows
    monkeypatch.setattr(velocity, "_CHUNK_PAIRS", 7 * 256 + 3)
    workspace = velocity._workspace
    sizes = []
    monkeypatch.setattr(velocity, "_workspace",
                        lambda m, rows: sizes.append((m, rows))
                        or workspace(m, rows))
    chunked = periodic_rhs(curve)
    assert sizes == [(256, 7)]
    assert _max_rel_diff(chunked, *base) <= 1e-14


def test_workspace_reuse_across_sizes_is_bitwise():
    small = _test_curve("ASYMMETRIC", 64)
    velocity._workspace.cache_clear()
    first = periodic_rhs(small)
    periodic_rhs(_test_curve("SEED_T0", 2048))
    assert np.array_equal(periodic_rhs(small), first)


def test_full_sum_after_a_half_sum_in_one_workspace_is_bitwise(monkeypatch):
    # a half sum weights entries of the shared operands that a full sum
    # must find restored
    curve = _test_curve("SEED_T0", 64)
    full = periodic_rhs(curve)
    workspace = velocity._workspace
    monkeypatch.setattr(velocity, "_workspace",
                        lambda m, rows: workspace(m, m))
    periodic_rhs(curve, odd=True)
    assert np.array_equal(periodic_rhs(curve), full)


def test_returned_velocity_is_the_callers_own():
    curve = _test_curve("SEED_T0", 512)
    first = periodic_rhs(curve)
    expect = first.copy()
    first[...] = np.nan
    again = periodic_rhs(curve)
    assert again.flags.c_contiguous
    assert np.array_equal(again, expect)


def _collided_curve():
    """n = 64 with p1 = -alpha, which collapses every node onto z = (0, 0)."""
    grid = make_grid(64)
    return make_curve(grid, -grid.nodes, np.zeros(grid.n))


def test_collided_nodes_raise_arc_chord():
    curve = _collided_curve()
    with pytest.raises(ArcChordError) as info:
        periodic_rhs(curve)
    # every pair ties at 0, so the first (even, odd) pair is reported
    assert info.value.report == ArcChordReport(0.0, ARC_CHORD_FLOOR, (0, 1))
    assert info.value.report == _reference_report(curve)
    assert str(info.value) == ("arc-chord denominator 0.000e+00 at or below"
                               " floor 1.000e-12 between nodes (0, 1)")


def _middle_chunks_curve():
    """n = 1024 with node 400 (even row 200) just left of node 601 and node
    600 (row 300) just right of node 401: two pairs below the floor, in two
    middle chunks."""
    grid = make_grid(1024)
    p1 = np.zeros(grid.n)
    p1[400] = grid.nodes[601] - grid.nodes[400] - 1e-7
    p1[600] = grid.nodes[401] - grid.nodes[600] + 2e-7
    return make_curve(grid, p1, np.zeros(grid.n))


def test_near_collision_in_middle_chunks_reports_like_two_halves():
    curve = _middle_chunks_curve()
    report = _report(curve)
    assert report == _reference_report(curve)
    # the closer pair of the two, not the first row's
    assert report.pair == (400, 601)
    assert report.min_denominator < ARC_CHORD_FLOOR


def _far_pair_curve(den):
    """n = 1024 graph z2 = 0.1 sin(alpha) with node 400 moved next to node
    601, so that this pair, 201 apart in index, has real denominator about
    den."""
    grid = make_grid(1024)
    p1 = np.zeros(grid.n)
    z2 = 0.1 * np.sin(grid.nodes)
    gap = np.sqrt(2.0 * den)  # 1 - cos(gap) = den to leading order
    p1[400] = grid.nodes[601] - grid.nodes[400] - gap
    z2[400] = z2[601]
    return make_curve(grid, p1, z2)


def test_far_pair_below_floor_reports_like_two_halves():
    curve = _far_pair_curve(0.9 * ARC_CHORD_FLOOR)
    report = _report(curve)
    assert report == _reference_report(curve)
    assert report.pair == (400, 601)


def _odd_near_pair_curve():
    """An odd n = 1024 curve with the near pair (400, 601), which lies in
    the half sum's rows 0..256, and its mirror (624, 423), which does not;
    both pairs have the same denominator, below the floor."""
    grid = make_grid(1024)
    p1 = np.zeros(grid.n)
    z2 = 0.1 * np.sin(grid.nodes)
    p1[400] = grid.nodes[601] - grid.nodes[400] - np.sqrt(1.8e-12)
    z2[400] = z2[601]
    p1[624], z2[624] = -p1[400], -z2[400]
    return make_curve(grid, p1, z2)


def test_half_sum_meeting_a_near_pair_reports_like_the_full_sum(
        monkeypatch):
    curve = _odd_near_pair_curve()
    full = _report(curve)
    assert full == _reference_report(curve)
    assert full.pair == (400, 601)
    calls, reports = [], []
    real = velocity.periodic_rhs

    def recording(curve, **kwargs):
        calls.append(kwargs)
        try:
            return real(curve, **kwargs)
        except ArcChordError as exc:
            reports.append(exc.report)
            raise

    # patched in both modules, a call the kernel made of itself would be
    # recorded too
    monkeypatch.setattr(velocity, "periodic_rhs", recording)
    monkeypatch.setattr(integrator, "periodic_rhs", recording)
    traj = evolve_forward(curve, 1e-4, StepControl(dt=1e-4))
    assert (traj.status, traj.pair_sum) == (STATUS_ARC_CHORD, "half")
    assert calls == [{"odd": True}]
    # the half sum's pair lies in its own rows 0..m//2
    half, = reports
    assert half.pair[0] // 2 <= 1024 // 4
    assert half == full
    assert traj.error == f"ArcChordError: {ArcChordError(half)}"


@pytest.mark.parametrize("curve, odd", [
    pytest.param(_collided_curve(), False, id="collided"),
    pytest.param(_middle_chunks_curve(), False, id="middle-chunks"),
    pytest.param(_odd_near_pair_curve(), False, id="mirror-tie-full"),
    pytest.param(_odd_near_pair_curve(), True, id="mirror-tie-half")])
def test_report_is_independent_of_row_chunking(monkeypatch, curve, odd):
    # one row per chunk puts every pair below the floor in a chunk of its
    # own: the mirror pairs (400, 601) and (624, 423) tie across chunks,
    # and all collided pairs tie; 7 rows per chunk leave a short last one
    base = _report(curve, odd=odd)
    m = curve.grid.n // 2
    for pairs in (m, 7 * m + 3):
        monkeypatch.setattr(velocity, "_CHUNK_PAIRS", pairs)
        assert _report(curve, odd=odd) == base


@pytest.mark.parametrize("factor", [1.1, 1e3, 10.0])
def test_far_pair_above_floor_matches_two_halves(factor):
    # 1.1 floor sits just above the floor; 10 and 1e3 floor sit between
    # 2 floor and the screen's _SCREEN_DELTA, where the pair takes the real
    # form of the kernel: the Cauchy form alone, off by about eps / sqrt(den)
    # in that entry, would miss the bound by 26x at 10 floor
    curve = _far_pair_curve(factor * ARC_CHORD_FLOOR)
    v1, v2, worst, pair = _two_half_sum(curve)
    assert pair == (400, 601)
    assert ARC_CHORD_FLOOR < worst < 2.0 * factor * ARC_CHORD_FLOOR
    assert _max_rel_diff(periodic_rhs(curve), v1, v2) <= 1e-13


@pytest.mark.parametrize("floor", [1e-6, 10.0])
def test_far_pair_screen_scales_with_the_floor(monkeypatch, floor):
    # a raised floor moves the screen with it: at 1e-6 only the far pair
    # offends, far above the 1e-8 screen; at 10 every pair does, and the
    # far pair is still the closest
    monkeypatch.setattr(velocity, "ARC_CHORD_FLOOR", floor)
    curve = _far_pair_curve(0.9e-6)
    report = _report(curve)
    assert report == _reference_report(curve, floor=floor)
    assert report.pair == (400, 601)
    assert report.floor == floor


def test_kernel_memory_is_bounded_at_n2048():
    curve = sample_preset("SEED_T0", make_grid(2048))
    periodic_rhs(curve)
    tracemalloc.start()
    try:
        periodic_rhs(curve)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two full 1024 x 1024 pair arrays would take 16 MiB
    assert peak < 4 * 2**20
