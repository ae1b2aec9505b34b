"""Periodic velocity kernel."""

import json
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import muskat
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

from conftest import asymmetric_curve, mirror, tilted_seed


def _two_half_sum(curve):
    """Reference pair sum: both parity halves formed in full.

    Returns (v1, v2, min_denominator, pair), pair the (even, odd) node pair
    of the smallest denominator, the first in row-major order; the
    velocities are None when that denominator is at or below
    ARC_CHORD_FLOOR.
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
    if worst <= ARC_CHORD_FLOOR:
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


def _reference_report(curve):
    """The report of a full sum, from the reference pair sum."""
    _, _, worst, pair = _two_half_sum(curve)
    assert worst <= ARC_CHORD_FLOOR
    return ArcChordReport(worst, pair)


def _test_curve(name, n):
    grid = make_grid(n)
    if name == "ASYMMETRIC":
        return asymmetric_curve(grid)
    if name == "DELTA_TILT":
        # odd, and strictly a graph unlike the critical seed
        return tilted_seed(grid, 0.1)
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
    # chunks of at most 7 rows cut the 256 even rows into 37 chunks of 6
    # and 7 rows
    monkeypatch.setattr(velocity, "_CHUNK_PAIRS", 7 * 256 + 3)
    cut = velocity._edges
    sizes = []
    monkeypatch.setattr(velocity, "_edges",
                        lambda nrows, chunks: sizes.append(cut(nrows, chunks))
                        or sizes[-1])
    chunked = periodic_rhs(curve)
    assert [(edges[-1], max(np.diff(edges))) for edges in sizes] == [(256, 7)]
    assert _max_rel_diff(chunked, *base) <= 1e-14


def test_workspace_reuse_across_sizes_is_bitwise():
    small = _test_curve("ASYMMETRIC", 64)
    velocity._workspace.cache_clear()
    first = periodic_rhs(small)
    periodic_rhs(_test_curve("SEED_T0", 2048))
    assert np.array_equal(periodic_rhs(small), first)


def test_full_sum_after_a_half_sum_in_one_workspace_is_bitwise():
    # both sums on a grid share one workspace: a half sum weights entries
    # of the shared operands that a full sum must find restored, and its
    # 17-row chunk leaves a buffer that the full sum's 32 rows must grow
    curve = _test_curve("SEED_T0", 64)
    full = periodic_rhs(curve)
    velocity._workspace.cache_clear()
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
    assert info.value.report == ArcChordReport(0.0, (0, 1))
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
    # the floor and the screen's _SCREEN_DELTA, where the pair takes the real
    # form of the kernel: the Cauchy form alone, off by about eps / sqrt(den)
    # in that entry, would miss the bound by 26x at 10 floor
    curve = _far_pair_curve(factor * ARC_CHORD_FLOOR)
    v1, v2, worst, pair = _two_half_sum(curve)
    assert pair == (400, 601)
    assert ARC_CHORD_FLOOR < worst < 2.0 * factor * ARC_CHORD_FLOOR
    assert _max_rel_diff(periodic_rhs(curve), v1, v2) <= 1e-13


def test_shared_memory_of_the_pair_sum_is_linear_in_n():
    # 256 m bytes: 1 MiB at n = 8192, where one (3, m) column product per
    # chunk would take 48 MiB more
    periodic_rhs(sample_preset("SEED_T0", make_grid(8192)))
    assert len(velocity._workspace(4096)._mem) < 2 * 2**20


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


_needs_proc = pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                                 reason="reads /proc")


def _cpus(monkeypatch, count):
    """Let this process run on `count` CPUs, as far as the split rule
    asks; two let a large call split whatever the machine."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.fixture(autouse=True)
def _no_helper_after_the_test():
    """Stop the pair-sum helper after each test, so that no test meets one
    that an earlier test forked."""
    yield
    velocity._stop_helper()


def _helper_pid():
    """The pid of this process's pair-sum helper, or None."""
    return velocity._helper and velocity._helper.pid


def _record_splits(monkeypatch):
    """Calls of the split pair sum, as the helper pids they met."""
    splits = []
    real = velocity._helper_for

    def recording(ws):
        helper = real(ws)
        if helper is not None:
            splits.append(helper.pid)
        return helper

    monkeypatch.setattr(velocity, "_helper_for", recording)
    return splits


def _serial(monkeypatch, curve, **kwargs):
    """periodic_rhs(curve, **kwargs) summed by this process alone."""
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        return periodic_rhs(curve, **kwargs)


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, if the block takes longer than this."""
    def expire(signum, frame):
        raise TimeoutError(f"blocked for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_split_follows_the_pair_count_and_the_cpus(monkeypatch):
    # 4 chunks of _CHUNK_PAIRS at least: the half sum splits from n = 1024
    # (257 x 512 pairs; 256 x 510 at n = 1020 do not), the full sum from
    # n = 726 (363 x 363), and n = 512 splits neither
    _cpus(monkeypatch, 2)
    assert velocity._SPLIT_PAIRS == 4 * velocity._CHUNK_PAIRS == 131072
    assert [velocity.pair_processes(n, odd=odd)
            for n in (512, 724, 726, 1020, 1024, 2048)
            for odd in (False, True)] == [
        1, 1, 1, 1, 2, 1, 2, 1, 2, 2, 2, 2]
    _cpus(monkeypatch, 1)
    assert velocity.pair_processes(2048) == 1


@pytest.mark.parametrize("name, odd", [("SEED_T0", False), ("SEED_T0", True),
                                       ("ASYMMETRIC", False)])
def test_split_sum_equals_the_serial_sum_bitwise(monkeypatch, name, odd):
    curve = _test_curve(name, 2048)
    serial = _serial(monkeypatch, curve, odd=odd)
    # another curve's products in the shared workspace, so that a chunk
    # that no process sums cannot pass with this curve's
    _serial(monkeypatch, _test_curve("CONJ_T0", 2048), odd=odd)
    _cpus(monkeypatch, 2)
    splits = _record_splits(monkeypatch)
    for _ in range(2):
        # the second call meets the helper that the first one forked or met
        assert np.array_equal(periodic_rhs(curve, odd=odd), serial)
    assert len(splits) == 2 and splits[0] == splits[1] == _helper_pid()


def test_full_and_half_sums_share_one_helper(monkeypatch):
    curve = _test_curve("SEED_T0", 2048)
    serial = [_serial(monkeypatch, curve, odd=odd) for odd in (False, True)]
    _cpus(monkeypatch, 2)
    splits = _record_splits(monkeypatch)
    for _ in range(4):
        for odd in (False, True):
            assert np.array_equal(periodic_rhs(curve, odd=odd), serial[odd])
    # one workspace per grid: the helper forked by the first call serves
    # every other
    assert len(splits) == 8 and set(splits) == {_helper_pid()}


def _helper_rows_curve():
    """_middle_chunks_curve with the gaps swapped: the closer pair is
    (600, 401), in even row 300 of 512, which the helper sums."""
    grid = make_grid(1024)
    p1 = np.zeros(grid.n)
    p1[400] = grid.nodes[601] - grid.nodes[400] - 2e-7
    p1[600] = grid.nodes[401] - grid.nodes[600] + 1e-7
    return make_curve(grid, p1, np.zeros(grid.n))


@pytest.mark.parametrize("curve, pair", [
    pytest.param(_middle_chunks_curve(), (400, 601), id="callers-rows"),
    pytest.param(_helper_rows_curve(), (600, 401), id="helpers-rows"),
    pytest.param(_odd_near_pair_curve(), (400, 601), id="tie-across-split")])
def test_split_sum_reports_like_the_serial_sum(monkeypatch, curve, pair):
    # the full sum at n = 1024 cuts 8 chunks, rows 0..255 summed here and
    # 256..511 by the helper; the mirror pairs (400, 601) and (624, 423)
    # tie across that boundary, and the first in row-major order wins
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        serial = _report(curve)
    _cpus(monkeypatch, 2)
    splits = _record_splits(monkeypatch)
    report = _report(curve)
    assert splits
    assert report == serial == _reference_report(curve)
    assert report.pair == pair


def test_dead_helper_is_replaced_and_never_blocks(monkeypatch):
    curve = _test_curve("SEED_T0", 2048)
    serial = _serial(monkeypatch, curve, odd=True)
    _cpus(monkeypatch, 2)
    splits = _record_splits(monkeypatch)
    periodic_rhs(curve, odd=True)
    os.kill(splits[-1], signal.SIGKILL)
    with _deadline(30):
        # the dead helper's chunks are summed here, and it is reaped
        assert np.array_equal(periodic_rhs(curve, odd=True), serial)
        assert _helper_pid() is None
        # the next call forks another
        assert np.array_equal(periodic_rhs(curve, odd=True), serial)
    assert splits[-1] != splits[0] and splits[-1] == _helper_pid()


def test_raising_helper_is_replaced_and_never_blocks(monkeypatch):
    curve = _test_curve("SEED_T0", 2048)
    serial = _serial(monkeypatch, curve)
    _cpus(monkeypatch, 2)
    caller = os.getpid()
    real = velocity._sum_chunks

    def failing_in_a_helper(*args):
        if os.getpid() != caller:
            raise MemoryError("no room for the chunk buffer")
        return real(*args)

    monkeypatch.setattr(velocity, "_sum_chunks", failing_in_a_helper)
    splits = _record_splits(monkeypatch)
    with _deadline(30):
        # no helper is left from an earlier test, so this call forks one
        # with the patch
        assert np.array_equal(periodic_rhs(curve), serial)
    assert splits and _helper_pid() is None


def test_helper_is_stopped_when_the_callers_half_raises(monkeypatch):
    curve = _test_curve("SEED_T0", 2048)
    serial = _serial(monkeypatch, curve)
    _cpus(monkeypatch, 2)
    real = velocity._sum_chunks
    failed = []

    def failing_once_here(ws, edges, half):
        if half == 0 and not failed:
            failed.append(half)
            raise MemoryError("no room for the chunk buffer")
        return real(ws, edges, half)

    monkeypatch.setattr(velocity, "_sum_chunks", failing_once_here)
    splits = _record_splits(monkeypatch)
    with _deadline(30):
        with pytest.raises(MemoryError):
            periodic_rhs(curve)
        # the helper's reply to the failed call would answer the next one
        assert splits and _helper_pid() is None
        assert np.array_equal(periodic_rhs(curve), serial)
    assert len(splits) == 2 and splits[1] == _helper_pid() != splits[0]


def test_forked_child_drops_the_helper(monkeypatch):
    # a child forked beside a live helper holds none of its pipe ends,
    # which would keep it from seeing end of file when the caller dies
    _cpus(monkeypatch, 2)
    periodic_rhs(_test_curve("SEED_T0", 2048), odd=True)
    helper = velocity._helper
    assert helper is not None
    with warnings.catch_warnings():
        # Python 3.12 and later warn when other threads (OpenBLAS's) exist
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            closed = []
            for fd in (helper.cmd, helper.reply):
                try:
                    os.fstat(fd)
                except OSError:
                    closed.append(fd)
            if velocity._helper is None and len(closed) == 2:
                code = 0
        finally:
            os._exit(code)
    with _deadline(30):
        assert os.waitpid(pid, 0)[1] == 0
    assert velocity._helper is helper


_FORKED = []


def _warning_fork(real_fork):
    """os.fork as Python 3.12 runs it in a process with other threads."""
    def fork():
        pid = real_fork()
        if pid:
            _FORKED.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is"
                          " multi-threaded, use of fork() may lead to"
                          " deadlocks in the child.", DeprecationWarning)
        return pid
    return fork


def _failing_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@_needs_proc
@pytest.mark.parametrize("fork", [_warning_fork(os.fork), _failing_fork],
                         ids=["warns", "fails"])
def test_refused_fork_leaves_the_process_summing_alone(monkeypatch, fork):
    curve = _test_curve("SEED_T0", 2048)
    serial = _serial(monkeypatch, curve, odd=True)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(velocity, "_fork_failed", False)
    # no helper is left from an earlier test, so the first call forks
    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork)
    splits = _record_splits(monkeypatch)
    with _deadline(30):
        assert np.array_equal(periodic_rhs(curve, odd=True), serial)
    assert not splits and _helper_pid() is None
    assert velocity.pair_processes(2048, odd=True) == 1
    # the helper forked beside the warning was reaped, and no pipe is left
    assert set(os.listdir("/proc/self/fd")) == fds
    for pid in _FORKED:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_HELPERS_SCRIPT = """
import atexit, os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
# "fork:PID" for each helper forked, "reap:PID" for each blocking wait
events = []
helpers = []


def reaped():
    # runs after every exit handler registered later, the package's too
    print(*events)
    for pid in helpers:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            print("reaped", pid)


atexit.register(reaped)
real_fork, real_waitpid = os.fork, os.waitpid


def fork():
    pid = real_fork()
    if pid:
        helpers.append(pid)
        events.append(f"fork:{pid}")
    return pid


def waitpid(pid, options):
    if not options:
        events.append(f"reap:{pid}")
    return real_waitpid(pid, options)


os.fork, os.waitpid = fork, waitpid
from muskat import velocity
from muskat.core import make_grid, sample_preset
# a helper serves one grid, so the second call replaces the first call's
# helper
velocity.periodic_rhs(sample_preset("SEED_T0", make_grid(2048)))
velocity.periodic_rhs(sample_preset("SEED_T0", make_grid(1024)), odd=True)
events.append("done")
helper = velocity._helper
print(helper.pid, *(os.fstat(fd).st_ino for fd in (helper.cmd, helper.reply)))
print(flush=True)
if sys.argv[1] == "stay":
    time.sleep(60)
"""


def _run_helpers_script(mode):
    src = str(Path(muskat.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", _HELPERS_SCRIPT, mode], text=True,
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))


def _running(pid):
    """Whether pid is a process that has not exited; a zombie has."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@_needs_proc
def test_helpers_are_reaped_when_the_caller_exits():
    proc = _run_helpers_script("exit")
    live = int(proc.stdout.readline().split()[0])
    assert proc.stdout.readline() == "\n"
    assert proc.wait(timeout=60) == 0
    events, *reaped = proc.stdout.read().splitlines()
    proc.stdout.close()
    first = int(events.split()[0].removeprefix("fork:"))
    # the switch reaps the first helper before it forks the second, and
    # exit reaps the second, the only one alive
    assert events.split() == [f"fork:{first}", f"reap:{first}",
                              f"fork:{live}", "done", f"reap:{live}"]
    # the script's last exit handler found both reaped
    assert reaped == [f"reaped {first}", f"reaped {live}"]
    assert not _running(first) and not _running(live)


# Splits one half sum with SIGCHLD ignored, so that the kernel reaps the
# helper itself, and stops the helper; prints the helper's pid.
_IGNORED_SIGCHLD_SCRIPT = """
import os, signal
os.sched_getaffinity = lambda pid: {0, 1}
signal.signal(signal.SIGCHLD, signal.SIG_IGN)
from muskat import velocity
from muskat.core import make_grid, sample_preset
velocity.periodic_rhs(sample_preset("SEED_T0", make_grid(2048)), odd=True)
pid = velocity._helper.pid
velocity._stop_helper()
print(pid, velocity._helper)
"""


@_needs_proc
def test_a_helper_the_kernel_reaped_stops_cleanly():
    # a signal disposition is process-wide, so the case runs in a process
    # of its own
    src = str(Path(muskat.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _IGNORED_SIGCHLD_SCRIPT], capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    pid, helper = done.stdout.split()
    assert helper == "None" and not _running(int(pid))


# Runs the helpers script, notes the pipes its live helper holds beyond
# the standard streams, SIGKILLs the script and times the helper's exit.
# As a child subreaper it inherits the orphaned helper and reaps it, so
# that it is not left a zombie.
_KILLER_SCRIPT = """
import ctypes, json, os, subprocess, sys, time
PR_SET_CHILD_SUBREAPER = 36
prctl = ctypes.CDLL(None).prctl
prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
prctl.restype = ctypes.c_int
if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
    sys.exit(3)


def pipes_held(pid):
    links = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            if int(fd) > 2:
                links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except FileNotFoundError:
            pass
    return [int(ln[6:-1]) for ln in links if ln.startswith("pipe:[")]


proc = subprocess.Popen([sys.executable, "-c", sys.argv[1], "stay"],
                        stdout=subprocess.PIPE, text=True)
pid, *own = map(int, proc.stdout.readline().split())
held = pipes_held(pid)
proc.kill()
proc.wait()
killed = time.monotonic()
exit_s = None
while exit_s is None and time.monotonic() - killed < 10:
    if os.waitpid(-1, os.WNOHANG)[0] == pid:
        exit_s = time.monotonic() - killed
    else:
        time.sleep(0.001)
print(json.dumps({"own": own, "held": held, "exit_s": exit_s}))
"""


@_needs_proc
def test_helpers_exit_when_the_caller_is_killed():
    src = str(Path(muskat.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _KILLER_SCRIPT, _HELPERS_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    if done.returncode == 3:
        pytest.skip("no child subreaper to reap the orphaned helper")
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    # the helper holds its own two pipes and none of the first helper's
    assert len(set(seen["own"])) == 2
    assert sorted(seen["held"]) == sorted(seen["own"])
    # it exits at end of file on its command pipe once the caller died
    assert seen["exit_s"] is not None and seen["exit_s"] < 1.0
