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
right-hand side at n = 2048; a chunk is then two small matrix products
(dP and dQ, then the numerator), a sum of squares, a division and the two
summing products, 9 numpy calls in all. The chunks hold K/2 and the factor
2 sits in the final scale. A right-hand side of SEED_T0 takes 0.67-0.70 ms
at n = 512 and 6.5-6.9 ms at n = 2048 (2-vCPU Xeon, medians over 12
processes), and 0.38 and 3.4 ms with half the pair sum (below).

Half the pair sum on odd curves. The mirror R: j -> (n - j) mod n takes
alpha to -alpha. On an odd curve (p1 and z2 odd) z1 is odd modulo 2 pi,
a = (p1', z2') is even and K is odd in (d1, d2), so the velocity is odd:
v_Rj = -v_j. R keeps parity. With m = n/2, even node 2k mirrors to even
node (m - k) mod m and odd node 2l + 1 to odd node m - 1 - l, and
K[Rk, Rl] = -K[k, l]. The rows H = {0..m//2} hold a node of every mirror
pair of even nodes, and periodic_rhs(curve, odd=True) forms only them,
against all m odd columns:

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
pair whose |dzeta|^2 exceeds 2 max(_SCREEN_DELTA, 2 floor) max|zeta_e|
max|zeta_o| has a real denominator above max(_SCREEN_DELTA, 2 floor). A
row chunk whose smallest |dzeta|^2 is at or below that bound picks out the
pairs that are, and forms their real denominators in the cancellation-free
form 2 (sinh^2(d2/2) + sin^2(d1/2)), which is accurate to a few eps
however close the pair. Only these denominators meet ARC_CHORD_FLOOR, so
an ArcChordReport lists them, and only these kernel entries are replaced
by sin(d1)/(2 den), K/2 in the real form. Every other pair keeps the
Cauchy form, whose relative error of about eps/sqrt(den) is below the
eps/den of cosh(d2) - cos(d1) as written. The bound follows
ARC_CHORD_FLOOR, which callers may raise; the factor 2 on the floor
covers the roundoff of the |dzeta|^2 screen. On the paper's seed at
n = 2048 it picks 58 of the 1 048 576 (even, odd) pairs.
"""

from __future__ import annotations

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

# Pairs whose real denominator may be at or below this (or 2 floor) take the
# real form of the kernel. With one pair 201 nodes apart at denominator
# 1e-8, 1e-7 or 1e-6 (n = 1024, as in the tests) the velocity is within
# 1.3e-14 relative of the cancellation-free pair sum; the Cauchy form alone
# would leave 3.0e-14 / 1.4e-13 / 2.6e-12 with that pair at 1e-9 / 1e-10 /
# 1e-11.
_SCREEN_DELTA = 1e-8


@dataclass(frozen=True)
class ArcChordReport:
    """Where cosh(dz2) - cos(dz1), evaluated as
    2 (sinh^2(dz2/2) + sin^2(dz1/2)), fell to or below the floor: at count
    ordered (target, source) pairs, up to 16 of which are listed in pairs."""
    min_denominator: float
    floor: float
    pairs: tuple[tuple[int, int], ...]
    count: int


class ArcChordError(RuntimeError):
    """Interface points collided or nearly collided."""

    def __init__(self, report: ArcChordReport):
        super().__init__(
            f"arc-chord denominator {report.min_denominator:.3e} at or below"
            f" floor {report.floor:.3e} for {report.count} node pair(s)")
        self.report = report


@lru_cache(maxsize=8)
def _workspace(m: int, rows: int) -> tuple[np.ndarray, ...]:
    """Arrays of the pair sum over m even and m odd nodes in row chunks of
    the given size, reused by every call at that size: the difference
    operands [P_e, -1, 0; Q_e, 0, -1] and [1; P_o; Q_o] with their
    constant entries in place, the numerator operand [Q_e, -P_e], the sum
    operands a_o = [1, p1'_o, z2'_o] (m, 3) and a_e = [1; p1'_e; z2'_e]
    (3, m), the (2, rows, m) chunk buffer, the (m, 3) row products, and
    the (3, m) column products of one chunk and their running sum.
    Keeping them across calls spares the allocator the heap trims and page
    faults of rebuilding them each time."""
    diff = np.zeros((2, m, 3))
    diff[0, :, 1] = diff[1, :, 2] = -1.0
    right = np.empty((3, m))
    right[0] = 1.0
    ao3 = np.empty((m, 3))
    ao3[:, 0] = 1.0
    ae3 = np.empty((3, m))
    ae3[0] = 1.0
    return (diff, right, np.empty((m, 2)), ao3, ae3, np.empty((2, rows, m)),
            np.empty((m, 3)), np.empty((3, m)), np.empty((3, m)))


def periodic_rhs(curve: SampledCurve, *, odd: bool = False) -> np.ndarray:
    """Evolution velocity (v1, v2) of a sampled interface, as a new
    C-contiguous (2, n) array laid out as curve.samples.

    With odd=True the curve is taken to be odd about alpha = 0, and only
    the even rows 0..m//2 (m = n/2) are summed; the mirror gives the rest
    (see the module docstring), and the velocity returned is exactly odd.
    The caller decides that the curve is odd: the half sum does not check.

    Raises ArcChordError, without dividing by it, if some real denominator
    cosh(dz2) - cos(dz1) is at or below ARC_CHORD_FLOOR; the report gives
    the smallest denominator, counts the offending (i, j) pairs and lists
    up to 16, (even, odd) ones first. Denominators are evaluated in the
    cancellation-free form 2 (sinh^2(dz2/2) + sin^2(dz1/2)), and only on
    the near pairs the |dzeta|^2 screen picks out; every other pair's is
    above max(_SCREEN_DELTA, 2 floor). A half sum that meets such a pair
    hands over to the full sum, so the report is the same either way.

    The pair sum runs in a per-grid workspace shared by every call at the
    same size, so two threads must not call this at once.
    """
    floor = ARC_CHORD_FLOOR
    n = curve.grid.n
    z1, z2 = curve.z1, curve.z2
    dp1, dz2 = filtered_derivative(curve.samples, 1)

    m = n // 2
    nrows = m // 2 + 1 if odd else m
    # equal row chunks of at most _CHUNK_PAIRS pairs (one row at least)
    chunks = min(nrows, -(-nrows * m // _CHUNK_PAIRS))
    diff, right, cross, ao3, ae3, buf, row_prod, col_prod, col_acc = \
        _workspace(m, -(-nrows // chunks))
    edges = [nrows * c // chunks for c in range(chunks + 1)]
    z1e, z1o = z1[0::2], z1[1::2]
    z2e, z2o = z2[0::2], z2[1::2]
    ae3[1], ae3[2] = dp1[0::2], dz2[0::2]
    ao3[:, 1], ao3[:, 2] = dp1[1::2], dz2[1::2]
    # the even rows that are their own mirrors weigh 1/2 in the column
    # products of a half sum; the ones of a_e are restored for a full one
    fixed = [0, m // 2] if m % 2 == 0 else [0]
    ae3[0, fixed] = 1.0
    if odd:
        ae3[:, fixed] *= 0.5

    # zeta = P + iQ = exp(i z); per chunk, one stacked matmul forms
    # dP = P_e - P_o and dQ = Q_e - Q_o, whose zero terms are exact, so
    # they are the rounded differences, and one more the numerator
    # Q_e P_o - P_e Q_o into dQ's buffer once |dzeta|^2 is formed
    mod = np.exp(-z2)
    P = mod * np.cos(z1)
    Q = mod * np.sin(z1)
    diff[0, :, 0], diff[1, :, 0] = P[0::2], Q[0::2]
    right[1], right[2] = P[1::2], Q[1::2]
    cross[:, 0], cross[:, 1] = Q[0::2], -P[0::2]
    # a pair with |dzeta|^2 above limit * max|zeta_e| (chunk) has its real
    # denominator |dzeta|^2 / (2 |zeta_i| |zeta_j|) above max(delta, 2 floor)
    limit = 2.0 * max(_SCREEN_DELTA, 2.0 * floor) * mod[1::2].max()
    bounds = limit * np.maximum.reduceat(mod[0:2 * nrows:2], edges[:-1])

    col_acc.fill(0.0)
    worst = np.inf
    eo_bad = np.empty((0, 2), dtype=np.intp)
    oe_bad = eo_bad
    n_bad = 0
    for r0, r1, bound in zip(edges, edges[1:], bounds.tolist()):
        block = np.matmul(diff[:, r0:r1], right, out=buf[:, :r1 - r0])
        np.square(block, out=block)
        dP, dQ = block
        dP += dQ
        ker = np.matmul(cross[r0:r1], right[1:], out=dQ)
        near = None
        if dP.min() <= bound:
            # near pairs: real denominators, free of the cancellation of
            # cosh(d2) - cos(d1) as written
            near = np.nonzero(dP <= bound)
            i, j = near[0] + r0, near[1]
            d1 = z1e[i] - z1o[j]
            den = np.sinh(0.5 * (z2e[i] - z2o[j])) ** 2
            den += np.sin(0.5 * d1) ** 2
            den *= 2.0
            worst = min(worst, float(den.min()))
            if worst <= floor:
                bad = np.column_stack((i, j))[den <= floor]
                n_bad += len(bad)
                # (even, odd) offenders come in row-major order; the
                # (odd, even) ones in row-major order of the transposed block
                eo_bad = np.concatenate((eo_bad, bad[:16]))[:16]
                oe_bad = np.concatenate((oe_bad, bad))
                oe_bad = oe_bad[np.lexsort((oe_bad[:, 0], oe_bad[:, 1]))][:16]
                continue
        ker /= dP
        if near is not None:
            ker[near] = 0.5 * np.sin(d1) / den
        # (row sums, K a_o) and (column sums, K^T a_e), one product each
        np.matmul(ker, ao3, out=row_prod[r0:r1])
        col_acc += np.matmul(ae3[:, r0:r1], ker, out=col_prod)
    if worst <= floor:
        if odd:
            # the full sum meets the same pair and reports every offender
            return periodic_rhs(curve)
        offenders = ([(2 * int(i), 2 * int(j) + 1) for i, j in eo_bad]
                     + [(2 * int(j) + 1, 2 * int(i)) for i, j in oe_bad])
        raise ArcChordError(ArcChordReport(
            min_denominator=worst, floor=floor, pairs=tuple(offenders[:16]),
            count=2 * n_bad))

    v = np.empty((2, n))
    ve, vo = v[:, 0::2], v[:, 1::2]
    ve[:, :nrows] = (ae3[1:, :nrows] * row_prod[:nrows, 0]
                     - row_prod[:nrows, 1:].T)
    if odd:
        # even node k mirrors to (m - k) mod m, odd node l to m - 1 - l
        ve[:, nrows:] = -ve[:, m - nrows:0:-1]
        ve[:, fixed] = 0.0
        half = m // 2
        col = col_acc[:, :half] - col_acc[:, ::-1][:, :half]
        vo[:, :half] = col[1:] - ao3[:half, 1:].T * col[0]
        vo[:, ::-1][:, :half] = -vo[:, :half]
        if m % 2:
            vo[:, half] = 0.0
    else:
        vo[...] = col_acc[1:] - ao3[:, 1:].T * col_acc[0]
    # the chunks hold K/2
    v *= 4.0 * curve.grid.spacing
    return v
