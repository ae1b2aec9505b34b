"""Interface velocity of a sampled curve: the periodic contour kernel.

The evolution velocity at node i sums derivative differences against the
periodized Birkhoff-Rott kernel,

    v(a_i) = 2h * sum_{j-i odd}
             (z'(a_i) - z'(a_j)) sin(z1_i - z1_j)
             / (cosh(z2_i - z2_j) - cos(z1_i - z1_j)),

with z' = (1 + p1', z2') from the filtered spectral derivative. The
alternating-parity sum skips the removable j = i singularity with
spectral accuracy for smooth interfaces.

Only the (even target, odd source) block K_ij = sin(d1)/(cosh(d2) - cos(d1))
is formed: d1, d2 and sin flip sign under i <-> j while cosh(d2) - cos(d1) is
even, so the (odd, even) block is -K^T. Even targets then get
a_e * K.sum(1) - K @ a_o and odd targets K^T @ a_e - a_o * K.sum(0), with
a = (p1', z2'). A column of ones beside a folds the sums into the products:
K @ (1, p1'_o, z2'_o) gives the row sums and K a_o, and
(1, p1'_e, z2'_e)^T K the column sums and K^T a_e. The difference carries
p1' rather than 1 + p1': the constant cancels exactly in
z'(a_i) - z'(a_j), but as 1 * K.sum(1) - K @ 1 it would leave roundoff of
the size of the row sums in v1. The even rows run in equal chunks of at
most _CHUNK_PAIRS pairs, so temporaries stay cache-sized and memory stays
bounded, and the arc-chord floor check runs in the same pass. The operands
and buffers live in a per-grid workspace kept across calls.

K is formed in the periodic Cauchy form of the vortex-sheet codes (Baker,
Meiron & Orszag, J. Fluid Mech. 123, 1982; Krasny, J. Fluid Mech. 167,
1986). With zeta = exp(i z) = P + iQ, that is P = exp(-z2) cos(z1) and
Q = exp(-z2) sin(z1),

    sin(d1)/(cosh(d2) - cos(d1)) = Re cot((z_i - z_j)/2)
                                 = -2 Im[zeta_i conj(dzeta)] / |dzeta|^2
                                 = 2 (Q_i P_j - P_i Q_j) / (dP^2 + dQ^2),

with dzeta = zeta_i - zeta_j. One complex exponential per node replaces
the sin, cos and cosh per pair, whose sin and cos were most of a
right-hand side at n = 2048; a chunk is then one small stacked matrix
product (dP, dQ and the numerator at once), a sum of squares, a division
and the two summing products, 8 numpy calls in all. The chunks hold K/2
and the factor 2 sits in the final scale. A right-hand side of SEED_T0
summed in one process takes 0.57 ms at n = 512 and 6.3 ms at n = 2048,
and 0.31 and 3.3 ms with half the pair sum (below): medians over 12
processes of each one's median call on a shared 2-vCPU Xeon, whose
per-process medians spread by about +-25% (0.46-0.74 and 5.4-6.8 ms;
0.23-0.36 and 2.8-3.5 ms).

Half the pair sum on odd curves. The mirror R: j -> (n - j) mod n takes
alpha to -alpha. On an odd curve (p1 and z2 odd) z1 is odd modulo 2 pi,
a = (p1', z2') is even and K is odd in (d1, d2), so the velocity is odd:
v_Rj = -v_j. R keeps parity. With m = n/2, even node 2k mirrors to even
node (m - k) mod m and odd node 2l + 1 to odd node m - 1 - l, and
K[Rk, Rl] = -K[k, l]. The rows H = {0..m//2} hold a node of every mirror
pair of even nodes, and periodic_rhs(curve, odd=True) forms only them,
against all m odd columns. It takes the curve to be odd; is_odd says
whether it is, to _ODD_TOL:

  - even targets in H come from the row products, as in the full sum. The
    other even targets are the negated mirrors of targets in H, and the
    self-mirror ones, k = 0 and, for even m, k = m/2, get 0;
  - the column products over H weight the self-mirror rows by 1/2, an
    exact power of 2, into C. The rows outside H are the mirrors of the
    other rows of H, so their part of column l is minus H's part of
    column Rl, and a self-mirror row k has K[k, Rl] = -K[k, l]. The full
    column product at l is therefore C[l] - C[Rl]. It gives the odd
    targets l < m//2; the others are their negated mirrors, and for odd
    m the self-mirror node (m - 1)/2 gets 0.

The velocity returned is exactly odd. It is not the full sum to the
last bit: the roundoff of the FFT derivative is not mirror-symmetric, so
on the three presets the full sum is itself odd only to 7e-14-9e-14
relative at n = 512 and 3e-13-1.1e-12 at n = 2048, and the half sum
differs from it by that much, to within 16 eps max|v|.

Near pairs. Since cosh(d2) - cos(d1) = |dzeta|^2/(2|zeta_i||zeta_j|), a
pair whose |dzeta|^2 exceeds 2 _SCREEN_DELTA max|zeta_e| max|zeta_o| has
a real denominator above _SCREEN_DELTA. A row chunk whose smallest
|dzeta|^2 is at or below that bound picks out the pairs that are, and
forms their real denominators in the cancellation-free form
2 (sinh^2(d2/2) + sin^2(d1/2)), which is accurate to a few eps however
close the pair. Only these denominators meet ARC_CHORD_FLOOR, so
the smallest of them is an ArcChordReport's, and only these kernel
entries are replaced by sin(d1)/(2 den), K/2 in the real form. Every
other pair keeps the Cauchy form, whose relative error of about
eps/sqrt(den) is below the eps/den of cosh(d2) - cos(d1) as written.
_SCREEN_DELTA is 1e4 ARC_CHORD_FLOOR, far more than the roundoff of the
|dzeta|^2 screen, so no pair at the floor escapes it. On the paper's
seed at n = 2048 it picks 58 of the 1 048 576 (even, odd) pairs.

Two processes. A call that forms at least _SPLIT_PAIRS = 131 072 pairs
(4 chunks: the half sum from n = 1024, the full sum from n = 726), in a
process that os.sched_getaffinity allows on two CPUs or more, sums the
first half of its chunks, rounded up, itself and hands the rest to a
helper process. The workspace's operands and node rows sit in a shared
anonymous mmap; the helper reads them there and writes its rows of the
row products and the column sum of its chunks back. The split is
bitwise: one chunk loop (_sum_chunks) adds the column products of the
first half of the chunks, in chunk order, to one (3, m) column sum and
those of the second half to another, the row products are disjoint, and
the caller adds the two column sums. A call that does not split, or
whose helper died, sums the second half itself into the same column sum,
so it is the split sum run in one process. The shared memory is 256 m
bytes, 1 MiB at n = 8192. The arc-chord report is the smaller of the two
halves', the first half's on a tie, since its rows come first. Threads
cannot do this: every numpy call in a chunk hands the GIL back and
forth, and two threads did twice the chunk work of one in 1.8x its time,
while two processes running the loop at once each took 0.99-1.06x their
time alone. Per right-hand side of SEED_T0 (same host, medians over 12
processes) the split takes the half sum from 0.95 to 0.87 ms at
n = 1024, 3.5 to 2.4 ms at n = 2048 and 13.0 to 8.3 ms at n = 4096, and
the full sum from 2.0 to 1.7, 6.4 to 4.6 and 25.0 to 16.4 ms. Split and
serial interleaved in one process, the half sum at n = 512 (2 chunks)
gained nothing (0.37 against 0.39 ms, split faster in 7 of 41 rounds),
at n = 768 (3 chunks) 10% and at n = 1024 (4 chunks) 20%, hence the
threshold.

Two processes are not two CPUs: the scheduler places the helper, and some
processes keep it on the caller's CPU for every call (field 39 of
/proc/<pid>/stat, read after each call). A split call then costs the
caller's time plus the helper's: on the 2-vCPU Xeon a split half sum at
n = 2048 took 2.3-2.9 ms per call, as long as one process, against
1.5-1.9 ms on separate CPUs, and direct runs of the benchmark's
backward-2048 config took 0.145-0.19 s against 0.095-0.12 s. Pinning the
helper to its own CPU was tried and not kept: with the caller pinned away
from it for each call it lost 9 of 10 benchmark pairs by about 4%, and
with the caller polling the reply instead it won 8 of 10 pairs, then 8 of
16.

One helper. A process has at most one helper (_helper), and it serves
one workspace, that is one grid: the full and the half sum on a grid
meet the same helper. A split call on another grid stops it and forks
one of its own. At n = 2048, full and half sums alternating in one
process take 4.4 ms per call and fork once in all; with a workspace per
pair sum they forked on every call and took 9.7 ms. A run, and each
benchmark workload, sums on one grid, so it forks once unless its helper
dies. The helper exits at end of file on its command pipe: the caller
closes the pipe and reaps the helper when it switches grids and at
interpreter exit (atexit), and the pipe closes with a caller that is
killed. A helper found dead is reaped and its chunks are summed by the
caller in the same call; the next split call forks another. A child
forked from the caller closes the helper's pipe ends and drops the
workspaces (_forget_helper), so a helper holds no pipe but its own.

Fork beside threads. OpenBLAS shuts its thread pool down in its own
fork handler (the caller has one thread when it forks) and starts it
again on demand, and the chunk products are too small for OpenBLAS to
thread; forking worked in every measured run. Python 3.12 and later
warn (DeprecationWarning) when a process with other threads forks, and
pytest's warnings-as-errors would raise that in the caller with the
helper already running. The fork therefore runs under
warnings.catch_warnings(record=True); if it warned, the helper is
stopped at once and the process sums alone from then on, as it does
after a fork that failed, and pair_processes says 1.
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SampledCurve
from .spectral import filtered_derivative

ARC_CHORD_FLOOR = 1e-12

# Target-source pairs per row chunk of the pair sum, at most: 32 K pairs
# keep each half of the chunk buffer at 256 KiB, inside L2. A call splits
# its rows into equal chunks, so the half sum at n = 512 runs 65 + 64 rows
# rather than 128 + 1, 2.5% faster per call. Per right-hand side on
# SEED_T0 (2-vCPU Xeon, medians of 11 interleaved rounds, three sweeps),
# 8 K / 16 K / 32 K / 64 K pairs take 7.8-8.9 / 6.7-7.5 / 6.4-6.7 /
# 6.9-7.3 ms at n = 2048, where a run is almost all pair sum, and
# 0.59-0.78 / 0.46-0.65 / 0.49-0.69 / 0.63-0.91 ms at n = 512.
_CHUNK_PAIRS = 1 << 15

# A call that forms at least this many pairs, 4 chunks, splits its chunks
# with a helper process when it may run on two CPUs (see the module
# docstring).
_SPLIT_PAIRS = 4 * _CHUNK_PAIRS
# A command to a helper: rows summed and chunks. A reply: the smallest
# near-pair denominator of its rows and its (even row, odd column),
# (-1, -1) for none.
_CMD = struct.Struct("<2q")
_REPLY = struct.Struct("<d2q")

# Pairs whose real denominator may be at or below this take the real form
# of the kernel. With one pair 201 nodes apart at denominator 1e-8, 1e-7 or
# 1e-6 (n = 1024, as in the tests) the velocity is within 1.3e-14 relative
# of the cancellation-free pair sum; the Cauchy form alone would leave
# 3.0e-14 / 1.4e-13 / 2.6e-12 with that pair at 1e-9 / 1e-10 / 1e-11.
_SCREEN_DELTA = 1e-8

# A curve y with max|y + Ry| <= this * max(max|y|, 1), R the mirror
# alpha -> -alpha, is odd (is_odd) and may take the half sum.
_ODD_TOL = 1e-12


@dataclass(frozen=True)
class ArcChordReport:
    """The smallest cosh(dz2) - cos(dz1), evaluated as
    2 (sinh^2(dz2/2) + sin^2(dz1/2)), over the rows a pair sum formed, at
    or below ARC_CHORD_FLOOR, and its (even target, odd source) node pair,
    the first in row-major order on ties."""
    min_denominator: float
    pair: tuple[int, int]


class ArcChordError(RuntimeError):
    """Interface points collided or nearly collided."""

    def __init__(self, report: ArcChordReport):
        super().__init__(
            f"arc-chord denominator {report.min_denominator:.3e} at or below"
            f" floor {ARC_CHORD_FLOOR:.3e} between nodes {report.pair}")
        self.report = report


class _Workspace:
    """Arrays of the pair sum over m even and m odd nodes, reused by every
    call on that grid, the full and the half sum alike. In one shared
    anonymous mmap of 256 m bytes, which a helper forked later sees as the
    caller does: the stacked chunk operands [P_e, -1, 0; Q_e, 0, -1;
    0, Q_e, -P_e] (3, m, 3) and [1; P_o; Q_o] with their constant entries
    in place, the sum operands a_o = [1, p1'_o, z2'_o] (m, 3) and
    a_e = [1; p1'_e; z2'_e] (3, m), the node rows z1 and z2 (2, 2m), the
    chunks' near-pair screen bounds (a call cuts at most m chunks), the
    (m, 3) row products and two (3, m) column sums, one for each half of a
    call's chunks. Private to each process: the (3, rows, m) chunk buffer,
    grown to the largest chunk a call needs. Keeping them across calls
    spares the allocator the heap trims and page faults of rebuilding them
    each time."""

    def __init__(self, m: int):
        shapes = {"left": (3, m, 3), "right": (3, m), "ao3": (m, 3),
                  "ae3": (3, m), "z": (2, 2 * m), "bounds": (m,),
                  "row_prod": (m, 3), "col": (2, 3, m)}
        # each array on cache lines of its own
        sizes = [-(-8 * math.prod(s) // 64) * 64 for s in shapes.values()]
        self._mem = mmap.mmap(-1, sum(sizes))
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            setattr(self, name, np.frombuffer(
                self._mem, count=math.prod(shape), offset=offset
            ).reshape(shape))
            offset += size
        # the mmap starts zeroed
        self.left[0, :, 1] = self.left[1, :, 2] = -1.0
        self.right[0] = self.ao3[:, 0] = self.ae3[0] = 1.0
        self.buf = np.empty((3, 0, m))


@lru_cache(maxsize=8)
def _workspace(m: int) -> _Workspace:
    """The workspace of the pair sum over m even and m odd nodes, kept for
    the next call on that grid."""
    return _Workspace(m)


class _Helper:
    """A process forked to sum the last chunks of split calls in the
    shared memory of workspace ws, and the caller's ends of its command
    and reply pipes. It exits at end of file on the command pipe: when the
    caller closes it, or dies."""

    def __init__(self, ws: _Workspace):
        self.ws = ws
        cmd_in, self.cmd = os.pipe()
        self.reply, reply_out = os.pipe()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                self.pid = os.fork()
        except OSError:
            for fd in (cmd_in, self.cmd, self.reply, reply_out):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.cmd)
                os.close(self.reply)
                _serve(ws, cmd_in, reply_out)
                code = 0
            finally:
                os._exit(code)
        os.close(cmd_in)
        os.close(reply_out)
        self.warned = bool(caught)


# the one helper of this process, or None
_helper: _Helper | None = None
# set once a fork for a helper failed or warned; this process then sums
# alone
_fork_failed = False


def _stop_helper(wait: bool = True) -> None:
    """Close the helper's pipe ends and, with wait, reap it; it exits once
    it has finished the chunks in hand. The next split call forks
    another."""
    global _helper
    helper, _helper = _helper, None
    if helper is None:
        return
    os.close(helper.cmd)
    os.close(helper.reply)
    if wait:
        try:
            os.waitpid(helper.pid, 0)
        except ChildProcessError:
            pass  # reaped already, under a caller's SIGCHLD setting


def _helper_for(ws: _Workspace) -> _Helper | None:
    """The helper that serves ws: the one this process has, or one forked
    for ws after the helper of another workspace is stopped. None if the
    fork fails or warns (see the module docstring); this process then
    sums alone from then on."""
    global _helper, _fork_failed
    if _helper is not None and _helper.ws is ws:
        return _helper
    _stop_helper()
    try:
        _helper = _Helper(ws)
    except OSError:
        _fork_failed = True
        return None
    if _helper.warned:
        _fork_failed = True
        _stop_helper()
    return _helper


def _forget_helper() -> None:
    """In a forked child: the helper and the workspaces whose memory it
    shares are the parent's. Close the helper's pipe ends, which would
    keep it from seeing end of file, and drop the workspaces."""
    _stop_helper(wait=False)
    _workspace.cache_clear()


if hasattr(os, "register_at_fork"):  # POSIX only, as is os.fork
    os.register_at_fork(after_in_child=_forget_helper)
atexit.register(_stop_helper)


def _serve(ws: _Workspace, cmd: int, reply: int) -> None:
    """The helper's loop: sum the second half of the chunks a command
    names and reply with their smallest near-pair denominator and its
    (even row, odd column), as _sum_chunks returns them."""
    while msg := os.read(cmd, _CMD.size):
        least = _sum_chunks(ws, _edges(*_CMD.unpack(msg)), 1)
        os.write(reply, _REPLY.pack(*least))


def _edges(nrows: int, chunks: int) -> list[int]:
    """Row edges of nrows rows cut into `chunks` equal chunks."""
    return [nrows * c // chunks for c in range(chunks + 1)]


def _plan(n: int, odd: bool) -> tuple[int, int, int, int]:
    """(m, rows summed, chunks, processes) of periodic_rhs on n nodes."""
    m = n // 2
    nrows = m // 2 + 1 if odd else m
    # equal row chunks of at most _CHUNK_PAIRS pairs (one row at least)
    chunks = min(nrows, -(-nrows * m // _CHUNK_PAIRS))
    split = (chunks > 1 and nrows * m >= _SPLIT_PAIRS and not _fork_failed
             and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) > 1)
    return m, nrows, chunks, 2 if split else 1


def pair_processes(n: int, *, odd: bool = False) -> int:
    """Processes that sum the pairs of periodic_rhs(curve, odd=odd) on n
    nodes: 2 when the call forms at least _SPLIT_PAIRS pairs and this
    process may run on two CPUs or more, unless a fork for a helper failed
    or warned here, else 1."""
    return _plan(n, odd)[3]


def _sum_chunks(ws: _Workspace, edges: list[int],
                half: int) -> tuple[float, int, int]:
    """One half of the chunks of the pair sum in workspace ws, chunk c
    spanning rows edges[c]..edges[c + 1]: half 0 is the first half of the
    chunks, rounded up, and half 1 the rest. The row products go to
    ws.row_prod, and the column products are added in chunk order to
    ws.col[half], from zero. Returns the smallest near-pair denominator of
    these rows, its even row and its odd column, the first in row-major
    order, or (inf, -1, -1). Once that is at or below ARC_CHORD_FLOOR the
    remaining chunks are only scanned for a smaller one."""
    first, stop = (0, len(edges) // 2, len(edges) - 1)[half:half + 2]
    # this process's own chunk buffer holds the largest chunk
    if ws.buf.shape[1] < (rows := -(-edges[-1] // (len(edges) - 1))):
        ws.buf = np.empty((3, rows, ws.buf.shape[2]))
    left, right, ao3, ae3 = ws.left, ws.right, ws.ao3, ws.ae3
    col = ws.col[half]
    col.fill(0.0)
    least = (np.inf, -1, -1)
    for c, bound in zip(range(first, stop), ws.bounds[first:stop].tolist()):
        r0, r1 = edges[c], edges[c + 1]
        block = np.matmul(left[:, r0:r1], right, out=ws.buf[:, :r1 - r0])
        dP, dQ, ker = block
        np.square(block[:2], out=block[:2])
        dP += dQ
        near = None
        if dP.min() <= bound:
            # near pairs: real denominators, free of the cancellation of
            # cosh(d2) - cos(d1) as written
            near = np.nonzero(dP <= bound)
            i, j = near[0] + r0, near[1]
            z1, z2 = ws.z
            d1 = z1[0::2][i] - z1[1::2][j]
            den = np.sinh(0.5 * (z2[0::2][i] - z2[1::2][j])) ** 2
            den += np.sin(0.5 * d1) ** 2
            den *= 2.0
            # near pairs come in row-major order, so argmin and the strict
            # < keep the first smallest whatever the chunks
            k = int(den.argmin())
            if den[k] < least[0]:
                least = (float(den[k]), int(i[k]), int(j[k]))
        if least[0] <= ARC_CHORD_FLOOR:
            continue
        ker /= dP
        if near is not None:
            ker[near] = 0.5 * np.sin(d1) / den
        # (row sums, K a_o) and (column sums, K^T a_e), one product each
        np.matmul(ker, ao3, out=ws.row_prod[r0:r1])
        col += ae3[:, r0:r1] @ ker
    return least


def _sum_pairs(ws: _Workspace, nrows: int, edges: list[int],
               split: bool) -> tuple[float, int, int]:
    """Every chunk of a call, as _sum_chunks sums them: the first half here
    into ws.col[0], and the second into ws.col[1] by the helper that serves
    ws with split, else here too, so that both sum alike. The report is the
    smaller of the two halves', and on a tie the first half's, whose rows
    come first. A helper found dead is reaped and its chunks are summed
    here."""
    helper = _helper_for(ws) if split else None
    try:
        if helper is not None:
            try:
                os.write(helper.cmd, _CMD.pack(nrows, len(edges) - 1))
            except BrokenPipeError:
                pass  # the helper is gone, and its reply reads end of file
        first = _sum_chunks(ws, edges, 0)
        reply = b"" if helper is None else os.read(helper.reply, _REPLY.size)
    except BaseException:
        # a reply left unread would answer the next command
        if helper is not None:
            _stop_helper()
        raise
    if len(reply) == _REPLY.size:
        second = _REPLY.unpack(reply)
    else:
        if helper is not None:
            _stop_helper()  # found dead
        second = _sum_chunks(ws, edges, 1)
    # the smaller, and on a tie the first half's, whose rows come first
    return second if second[0] < first[0] else first


def is_odd(curve: SampledCurve) -> bool:
    """Whether the samples are odd about alpha = 0 to _ODD_TOL, as
    periodic_rhs(curve, odd=True) takes them to be."""
    y = curve.samples
    mirrored = np.roll(y[:, ::-1], 1, axis=1)  # node j -> (n - j) mod n
    return float(np.max(np.abs(y + mirrored))) <= _ODD_TOL * max(
        float(np.max(np.abs(y))), 1.0)


def periodic_rhs(curve: SampledCurve, *, odd: bool = False) -> np.ndarray:
    """Evolution velocity (v1, v2) of a sampled interface, as a new
    C-contiguous (2, n) array laid out as curve.samples.

    With odd=True the curve is taken to be odd about alpha = 0, and only
    the even rows 0..m//2 (m = n/2) are summed; the mirror gives the rest
    (see the module docstring), and the velocity returned is exactly odd.
    The caller decides that the curve is odd, with is_odd: the half sum
    does not check.

    Raises ArcChordError, without dividing by it, if some real denominator
    cosh(dz2) - cos(dz1) of the rows summed is at or below ARC_CHORD_FLOOR;
    the report gives the smallest and its (even, odd) node pair, the first
    in row-major order, so the row chunking does not change it. A half sum
    reports from its own rows 0..m//2. Denominators are evaluated in the
    cancellation-free form 2 (sinh^2(dz2/2) + sin^2(dz1/2)), and only on
    the near pairs the |dzeta|^2 screen picks out; every other pair's is
    above _SCREEN_DELTA.

    The pair sum runs in a per-grid workspace shared by every call on the
    same grid, so two threads must not call this at once.
    """
    n = curve.grid.n
    deriv = filtered_derivative(curve.samples, 1)

    m, nrows, chunks, processes = _plan(n, odd)
    ws = _workspace(m)
    edges = _edges(nrows, chunks)
    z1, z2 = ws.z
    z1[...] = curve.z1
    z2[...] = curve.z2
    ae3, ao3 = ws.ae3, ws.ao3
    ae3[1:] = deriv[:, 0::2]
    ao3[:, 1:] = deriv[:, 1::2].T
    # the even rows that are their own mirrors, 0 and m/2 for even m, weigh
    # 1/2 in the column products of a half sum; the ones of a_e are
    # restored for a full one
    fixed = slice(0, None, m // 2) if m % 2 == 0 else slice(0, 1)
    ae3[0, fixed] = 1.0
    if odd:
        ae3[:, fixed] *= 0.5

    # zeta = P + iQ = exp(i z); per chunk, one stacked matmul forms
    # dP = P_e - P_o and dQ = Q_e - Q_o, whose zero terms are exact, so
    # they are the rounded differences, and the numerator Q_e P_o - P_e Q_o
    mod = np.exp(-z2)
    zeta = np.empty((2, n))
    np.cos(z1, out=zeta[0])
    np.sin(z1, out=zeta[1])
    zeta *= mod
    left = ws.left
    left[:2, :, 0] = zeta[:, 0::2]
    left[2, :, 1] = zeta[1, 0::2]
    np.negative(zeta[0, 0::2], out=left[2, :, 2])
    ws.right[1:] = zeta[:, 1::2]
    # a pair with |dzeta|^2 above limit * max|zeta_e| (chunk) has its real
    # denominator |dzeta|^2 / (2 |zeta_i| |zeta_j|) above _SCREEN_DELTA
    limit = 2.0 * _SCREEN_DELTA * mod[1::2].max()
    ws.bounds[:chunks] = limit * np.maximum.reduceat(mod[0:2 * nrows:2],
                                                     edges[:-1])

    worst, i, j = _sum_pairs(ws, nrows, edges, processes == 2)
    if worst <= ARC_CHORD_FLOOR:
        raise ArcChordError(ArcChordReport(worst, (2 * i, 2 * j + 1)))
    # the column sums of the two halves, in either process
    col = ws.col[0] + ws.col[1]

    v = np.empty((2, n))
    ve, vo = v[:, 0::2], v[:, 1::2]
    row_prod = ws.row_prod
    ve[:, :nrows] = (ae3[1:, :nrows] * row_prod[:nrows, 0]
                     - row_prod[:nrows, 1:].T)
    if odd:
        # even node k mirrors to (m - k) mod m, odd node l to m - 1 - l
        ve[:, nrows:] = -ve[:, m - nrows:0:-1]
        ve[:, fixed] = 0.0
        half = m // 2
        col = col[:, :half] - col[:, ::-1][:, :half]
        vo[:, :half] = col[1:] - ao3[:half, 1:].T * col[0]
        vo[:, ::-1][:, :half] = -vo[:, :half]
        if m % 2:
            vo[:, half] = 0.0
    else:
        vo[...] = col[1:] - ao3[:, 1:].T * col[0]
    # the chunks hold K/2
    v *= 4.0 * curve.grid.spacing
    return v
