import numpy as np
import pytest

from muskat.piecewise import Piece, PiecewiseCurve

IDENT = (0.0, 1.0)
CUBIC = (0.0, 0.0, 0.0, 1.0)


# z2 = x^3 on [-2, 2] as two pieces, the right one centred at 1, where
# it reads 1 + 3u + 3u^2 + u^3 in u = x - 1 (and z1 = x reads 1 + u)
CUBE_PIECES = (Piece(-2.0, 0.0, 0.0, IDENT, CUBIC),
               Piece(0.0, 2.0, 1.0, (1.0, 1.0), (1.0, 3.0, 3.0, 1.0)))

# the tail tent: z2 = -2 - x, x, 2 - x, with kinks at -1 and 1
TENT_PIECES = (Piece(-2.0, -1.0, 0.0, IDENT, (-2.0, -1.0)),
               Piece(-1.0, 1.0, 0.0, IDENT, IDENT),
               Piece(1.0, 2.0, 0.0, IDENT, (2.0, -1.0)))


def test_piece_evaluates_in_local_coordinates():
    curve = PiecewiseCurve(CUBE_PIECES)
    assert curve.z2(1.0) == 1.0
    assert curve.z2(2.0) == 8.0
    assert curve.z2(1.5) == 3.375
    assert curve.dz2(1.5) == 6.75
    assert curve.z1(1.5) == 1.5
    assert curve.dz1(1.5) == 1.0


def test_poly_requires_contiguous_pieces():
    with pytest.raises(ValueError, match="contiguous"):
        PiecewiseCurve([Piece(-2.0, -0.5, 0.0, IDENT, (0.0,)),
                        Piece(0.5, 2.0, 0.0, IDENT, (0.0,))])


def test_poly_requires_continuity():
    # each component is checked: the pieces meet at 0 and z1 or z2 jumps
    # by 1 there
    jump, smooth = ((0.0, 1.0), (1.0, 1.0)), (IDENT, IDENT)
    for name, c1, c2 in (("z1", jump, smooth), ("z2", smooth, jump)):
        with pytest.raises(ValueError, match=f"{name} discontinuity"):
            PiecewiseCurve([Piece(-1.0, 0.0, 0.0, c1[0], c2[0]),
                            Piece(0.0, 1.0, 0.0, c1[1], c2[1])])


def test_poly_evaluation_and_breakpoints():
    curve = PiecewiseCurve(CUBE_PIECES)
    assert curve.breakpoints.tolist() == [-2.0, 0.0, 2.0]
    x = np.array([-1.5, -0.5, 0.5, 1.5])
    assert np.allclose(curve.z2(x), x ** 3)
    assert np.array_equal(curve.z1(x), x)
    # a breakpoint evaluates continuously, and its derivatives come from
    # the piece on its right
    tent = PiecewiseCurve(TENT_PIECES)
    assert tent.z2(1.0) == 1.0
    assert tent.dz2(np.array([-1.0, 1.0])).tolist() == [1.0, -1.0]


def test_shift_is_exact_for_large_offsets():
    # local coordinates keep cubic tails exact under large shifts: no
    # catastrophic R^3 cancellation when splicing far from the origin
    R = 1e3
    # z1 = x^3 and z2 = x^3 - x on [-1, 1] meet the identity at the ends
    block = PiecewiseCurve([Piece(-1.0, 1.0, 0.0, CUBIC,
                                  (0.0, -1.0, 0.0, 1.0))])
    (moved,) = block.shifted(R)
    assert (moved.lo, moved.hi, moved.center) == (R - 1.0, R + 1.0, R)
    spliced = PiecewiseCurve(block.shifted(-R)
                             + (Piece(1.0 - R, R - 1.0, 0.0, IDENT, (0.0,)),)
                             + block.shifted(R))
    y = R + 0.1234567890123456
    assert spliced.z2(y) == block.z2(y - R)
    assert spliced.dz2(y) == block.dz2(y - R)
    assert spliced.z1(y) == block.z1(y - R) + R


def test_shift_adds_dx_to_z1():
    block = PiecewiseCurve([Piece(-1.0, 1.0, 0.0, IDENT, CUBIC)])
    (moved,) = block.shifted(2.5)
    assert moved.c1 == (2.5, 1.0)
    assert moved.c2 == CUBIC
    y = np.array([2.0, 3.0])
    assert np.array_equal(
        np.polynomial.polynomial.polyval(y - moved.center, moved.c1), y)


def test_support2_merges_intervals():
    # two tents joined by a zero piece: it is skipped, and each tent's two
    # pieces merge into one interval
    piece = lambda lo, hi, c2: Piece(lo, hi, 0.0, IDENT, c2)
    curve = PiecewiseCurve([
        piece(-4.0, -3.0, (4.0, 1.0)),
        piece(-3.0, -2.0, (-2.0, -1.0)),
        piece(-2.0, 2.0, (0.0,)),
        piece(2.0, 3.0, (2.0, -1.0)),
        piece(3.0, 4.0, (-4.0, 1.0)),
    ])
    assert curve.support2() == [(-4.0, -2.0), (2.0, 4.0)]


def test_curve_oddness_enforced():
    with pytest.raises(ValueError, match="not odd"):
        PiecewiseCurve([Piece(-2.0, 2.0, 0.0, IDENT, (0.0, 0.0, 1.0))])
    with pytest.raises(ValueError, match="not odd"):
        PiecewiseCurve([Piece(-2.0, 2.0, 0.0, (0.5, 1.0), CUBIC)])


def test_curve_extends_as_identity_outside_span():
    curve = PiecewiseCurve([Piece(-2.0, 2.0, 0.0, IDENT, CUBIC)])
    x = np.array([-5.0, 5.0])
    assert np.array_equal(curve.z1(x), x)
    assert np.array_equal(curve.z2(x), [0.0, 0.0])
    assert np.array_equal(curve.dz1(x), [1.0, 1.0])
    assert np.array_equal(curve.dz2(x), [0.0, 0.0])
    assert np.array_equal(curve.ddz1(x), [0.0, 0.0])
    assert curve.z1(-5.0) == -5.0


def test_curve_derivatives_inside_span():
    curve = PiecewiseCurve([Piece(-2.0, 2.0, 0.0, CUBIC, CUBIC)])
    assert curve.dz2(0.5) == pytest.approx(0.75)
    assert curve.dz1(0.5) == pytest.approx(0.75)
    assert curve.ddz1(0.5) == pytest.approx(3.0)
    assert curve.support2() == [(-2.0, 2.0)]
