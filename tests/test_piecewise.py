import numpy as np
import pytest

from muskat.piecewise import Piece, PiecewiseCurve, PiecewisePoly


def test_piece_evaluates_in_local_coordinates():
    p = Piece(1.0, 3.0, 2.0, (1.0, 0.0, 1.0))  # 1 + (x-2)^2
    assert p(2.0) == 1.0
    assert p(3.0) == 2.0
    d = p.derivative()
    assert d(2.5) == pytest.approx(1.0)
    assert Piece(0.0, 1.0, 0.0, (0.0,)).is_zero()
    assert not p.is_zero()


def test_poly_requires_contiguous_pieces():
    with pytest.raises(ValueError):
        PiecewisePoly([Piece(0.0, 1.0, 0.0, (0.0, 1.0)),
                       Piece(1.5, 2.0, 0.0, (1.5, 1.0))])


def test_poly_requires_continuity():
    with pytest.raises(ValueError):
        PiecewisePoly([Piece(0.0, 1.0, 0.0, (0.0, 1.0)),
                       Piece(1.0, 2.0, 0.0, (2.0, 1.0))])


def test_poly_evaluation_and_breakpoints():
    f = PiecewisePoly([Piece(-1.0, 0.0, 0.0, (0.0, -1.0)),
                       Piece(0.0, 2.0, 0.0, (0.0, 0.0, 1.0))])  # |x| ... x^2
    assert f.breakpoints.tolist() == [-1.0, 0.0, 2.0]
    x = np.array([-0.5, 0.5, 1.5])
    assert np.allclose(f(x), [0.5, 0.25, 2.25])
    # breakpoint evaluates continuously
    assert f(0.0) == 0.0


def test_shift_is_exact_for_large_offsets():
    # local coordinates keep cubic tails exact under large shifts: no
    # catastrophic R^3 cancellation when splicing far from the origin
    R = 1e3
    cubic = Piece(-1.0, 1.0, 0.0, (0.0, 0.0, 0.0, 1.0))
    f = PiecewisePoly([cubic])
    g = f.shifted(R)
    y = R + 0.1234567890123456
    assert g(y) == cubic(y - R)


def test_plus_const():
    f = PiecewisePoly([Piece(0.0, 1.0, 0.0, (0.0, 1.0))]).plus_const(2.5)
    assert f(0.5) == 3.0


def test_nonzero_intervals_merge():
    f = PiecewisePoly([
        Piece(0.0, 1.0, 0.0, (0.0, 1.0)),
        Piece(1.0, 2.0, 0.0, (2.0, -1.0)),
        Piece(2.0, 3.0, 0.0, (0.0,)),
        Piece(3.0, 4.0, 3.0, (0.0, 1.0)),
    ], check_continuity=False)
    assert f.nonzero_intervals() == [(0.0, 2.0), (3.0, 4.0)]


def _odd_pair(span=2.0):
    c1 = PiecewisePoly([Piece(-span, span, 0.0, (0.0, 1.0))])
    c2 = PiecewisePoly([Piece(-span, span, 0.0, (0.0, 0.0, 0.0, 1.0))])
    return c1, c2


def test_curve_oddness_enforced():
    c1, _ = _odd_pair()
    even = PiecewisePoly([Piece(-2.0, 2.0, 0.0, (0.0, 0.0, 1.0))])  # x^2
    with pytest.raises(ValueError):
        PiecewiseCurve(c1, even)


def test_curve_extends_as_identity_outside_span():
    c1, c2 = _odd_pair()
    curve = PiecewiseCurve(c1, c2)
    x = np.array([-5.0, 5.0])
    assert np.array_equal(curve.z1(x), x)
    assert np.array_equal(curve.z2(x), [0.0, 0.0])
    assert np.array_equal(curve.dz1(x), [1.0, 1.0])
    assert np.array_equal(curve.dz2(x), [0.0, 0.0])


def test_curve_derivatives_inside_span():
    c1, c2 = _odd_pair()
    curve = PiecewiseCurve(c1, c2)
    assert curve.dz2(0.5) == pytest.approx(0.75)
    assert curve.ddz1(0.5) == 0.0
    assert curve.support2() == [(-2.0, 2.0)]
