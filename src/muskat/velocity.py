"""Interface velocity of a sampled curve: the periodic contour kernel.

The evolution velocity at node i sums derivative differences against the
periodized Birkhoff-Rott kernel,

    v(a_i) = 2h * jump/(4 pi) * sum_{j-i odd}
             (z'(a_i) - z'(a_j)) sin(z1_i - z1_j)
             / (cosh(z2_i - z2_j) - cos(z1_i - z1_j)),

with z' = (1 + p1', z2') from the filtered spectral derivative. The
alternating-parity sum skips the removable j = i singularity with
spectral accuracy for smooth interfaces.

Only the (even target, odd source) block K_ij = sin(d1)/(cosh(d2) - cos(d1))
is formed: d1, d2 and sin flip sign under i <-> j while cosh(d2) - cos(d1) is
even, so the (odd, even) block is -K^T. Even targets then get
a_e * K.sum(1) - K @ a_o and odd targets K^T @ a_e - a_o * K.sum(0), with
a = (p1', z2') stacked so one matrix product yields both components. The
difference carries p1' rather than 1 + p1': the constant cancels exactly in
z'(a_i) - z'(a_j), but as 1 * K.sum(1) - K @ 1 it would leave roundoff of
the size of the row sums in v1. The even rows run in chunks of a fixed
number of pairs, so temporaries stay cache-sized and memory stays bounded,
and the arc-chord floor check runs in the same pass.

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
(dP and dQ, then the numerator), a sum of squares and a division. The chunks
hold K/2 and the factor 2 sits in the final scale.

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

import numpy as np

from .core import PhysicalParams, SampledCurve
from .spectral import filtered_derivative

ARC_CHORD_FLOOR = 1e-12

# Target-source pairs per row chunk of the pair sum: 16 K pairs keep each
# of the two chunk buffers at 128 KiB, well inside L2, and off the peak RSS
# of a run. Per right-hand side on SEED_T0 (2-vCPU Xeon, medians of 11),
# 8 K / 16 K / 32 K pairs take 1.03 / 0.83 / 0.85 ms at n = 512 and
# 10.8 / 8.7 / 7.7 ms at n = 2048, where 32 K adds 0.6 MiB to the peak RSS;
# an unchunked 1024 x 1024 block at n = 2048 takes 19 ms, about 2x slower.
_CHUNK_PAIRS = 1 << 14

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


def periodic_rhs(curve: SampledCurve, params: PhysicalParams) -> np.ndarray:
    """Evolution velocity (v1, v2) of a sampled interface, as a C-contiguous
    (2, n) array laid out as curve.samples.

    Raises ArcChordError, without dividing by it, if some real denominator
    cosh(dz2) - cos(dz1) is at or below ARC_CHORD_FLOOR; the report gives
    the smallest denominator, counts the offending (i, j) pairs and lists
    up to 16, (even, odd) ones first. Denominators are evaluated in the
    cancellation-free form 2 (sinh^2(dz2/2) + sin^2(dz1/2)), and only on
    the near pairs the |dzeta|^2 screen picks out; every other pair's is
    above max(_SCREEN_DELTA, 2 floor).
    """
    floor = ARC_CHORD_FLOOR
    n = curve.grid.n
    z1, z2 = curve.z1, curve.z2
    dp1, dz2 = filtered_derivative(curve.samples, 1)

    m = n // 2
    z1e, z1o = z1[0::2], z1[1::2]
    z2e, z2o = z2[0::2], z2[1::2]
    ae = np.column_stack((dp1[0::2], dz2[0::2]))
    ao = np.column_stack((dp1[1::2], dz2[1::2]))
    rows = min(m, max(1, _CHUNK_PAIRS // m))

    # zeta = P + iQ = exp(i z); per chunk, one stacked matmul forms
    # dP = P_e - P_o and dQ = Q_e - Q_o, whose zero terms are exact, so
    # they are the rounded differences, and one more the numerator
    # Q_e P_o - P_e Q_o into dQ's buffer once |dzeta|^2 is formed
    mod = np.exp(-z2)
    P = mod * np.cos(z1)
    Q = mod * np.sin(z1)
    one, zero = np.ones(m), np.zeros(m)
    diff = np.stack((np.column_stack((P[0::2], -one, zero)),
                     np.column_stack((Q[0::2], zero, -one))))
    right = np.vstack((one, P[1::2], Q[1::2]))
    cross = np.column_stack((Q[0::2], -P[0::2]))
    # a pair with |dzeta|^2 above limit * max|zeta_e| (chunk) has its real
    # denominator |dzeta|^2 / (2 |zeta_i| |zeta_j|) above max(delta, 2 floor)
    limit = 2.0 * max(_SCREEN_DELTA, 2.0 * floor) * mod[1::2].max()
    mod_e = mod[0::2]

    buf = np.empty((2, rows, m))
    v_even = np.empty((m, 2))
    odd_acc = np.zeros((m, 2))
    col_sum = np.zeros(m)
    worst = np.inf
    eo_bad = np.empty((0, 2), dtype=np.intp)
    oe_bad = eo_bad
    n_bad = 0
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        dP, dQ = np.matmul(diff[:, r0:r1], right, out=buf[:, :r1 - r0])
        dP *= dP
        dQ *= dQ
        dP += dQ
        ker = np.matmul(cross[r0:r1], right[1:], out=dQ)
        bound = limit * mod_e[r0:r1].max()
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
        v_even[r0:r1] = ae[r0:r1] * ker.sum(axis=1)[:, None] - ker @ ao
        odd_acc += ker.T @ ae[r0:r1]
        col_sum += ker.sum(axis=0)
    if worst <= floor:
        offenders = ([(2 * int(i), 2 * int(j) + 1) for i, j in eo_bad]
                     + [(2 * int(j) + 1, 2 * int(i)) for i, j in oe_bad])
        raise ArcChordError(ArcChordReport(
            min_denominator=worst, floor=floor, pairs=tuple(offenders[:16]),
            count=2 * n_bad))

    v = np.empty((2, n))
    v[:, 0::2] = v_even.T
    v[:, 1::2] = (odd_acc - ao * col_sum[:, None]).T
    # the chunks hold K/2
    v *= 4.0 * curve.grid.spacing * params.prefactor
    return v
