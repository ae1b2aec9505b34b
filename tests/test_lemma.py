import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import muskat.lemma as lemma
from muskat.lemma import (
    I_TT_LOWER_BOUND,
    Piece,
    PreconditionError,
    QuadratureError,
    _CENTER,
    _TAIL,
    _curve,
    _integrand,
    _panels,
    _quad_sum,
    _shift,
    certificate,
    splice,
    tail_bounds,
    turnover_predictor,
    verification_report,
)

# (integrand, antiderivative, lo, hi) pairs for the closed-form pieces;
# integrands transcribed independently of the antiderivatives in lemma.py
_CLOSED_FORM_PAIRS = [
    (lambda x: 2.0 * (7.0 * x - 5.0 * x * x) / (26.0 * x * x - 70.0 * x + 49.0) ** 2,
     lambda x: (10.0 * x - 7.0) / (26.0 * (26.0 * x * x - 70.0 * x + 49.0)),
     1.0, 2.0),
    (lambda x: -6.0 * x / (9.0 + x * x) ** 2,
     lambda x: 3.0 / (9.0 + x * x),
     2.0, 5.0),
    (lambda x: (3.0 * x * x - 21.0 * x) / (441.0 / 4 - 63.0 * x / 2 + 13.0 * x * x / 4) ** 2,
     lambda x: 48.0 * (7.0 - 2.0 * x) / (338.0 * x * x - 3276.0 * x + 11466.0),
     5.0, 7.0),
    (lambda x: -x * (2.0 + x) / (2.0 * x * x + 4.0 * x + 4.0) ** 2,
     lambda x: (1.0 + x) / (4.0 * (2.0 + 2.0 * x + x * x)),
     -2.0, -1.0),
    (lambda x: -x * (x - 2.0) / (2.0 * x * x - 4.0 * x + 4.0) ** 2,
     lambda x: (x - 1.0) / (4.0 * (2.0 - 2.0 * x + x * x)),
     1.0, 2.0),
]


@pytest.mark.parametrize("i", range(len(_CLOSED_FORM_PAIRS)))
def test_antiderivatives_match_quadrature(i):
    quad = pytest.importorskip("scipy.integrate").quad
    g, F, lo, hi = _CLOSED_FORM_PAIRS[i]
    val, err = quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12)
    assert abs(val - (F(hi) - F(lo))) < 1e-10


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


def at(curve, x):
    """The piece of curve that holds x, the right one at a breakpoint."""
    return [p for p in curve if p.lo <= x <= p.hi][-1]


def test_piece_evaluates_in_local_coordinates():
    right = _curve(CUBE_PIECES)[1]
    assert right.z2(1.0) == 1.0
    assert right.z2(2.0) == 8.0
    assert right.z2(1.5) == 3.375
    assert right.z2(1.5, 1) == 6.75
    assert right.z1(1.5) == 1.5
    assert right.z1(1.5, 1) == 1.0


def test_curve_evaluation_and_breakpoints():
    curve = _curve(CUBE_PIECES)
    assert [p.lo for p in curve] + [curve[-1].hi] == [-2.0, 0.0, 2.0]
    x = [-1.5, -0.5, 0.5, 1.5]
    assert np.allclose([at(curve, v).z2(v) for v in x], np.power(x, 3))
    assert [at(curve, v).z1(v) for v in x] == x
    # a breakpoint evaluates continuously, and its derivatives come from
    # the piece on its right
    tent = _curve(TENT_PIECES)
    assert [p.z2(1.0) for p in tent[1:]] == [1.0, 1.0]
    assert [at(tent, v).z2(v, 1) for v in (-1.0, 1.0)] == [1.0, -1.0]


def test_piece_derivatives():
    piece = Piece(-2.0, 2.0, 0.0, CUBIC, CUBIC)
    assert piece.z2(0.5, 1) == 0.75
    assert piece.z1(0.5, 1) == 0.75
    assert piece.z1(0.5, 2) == 3.0
    # a constant piece has derivative 0, not an empty polynomial
    assert Piece(2.0, 5.0, 0.0, IDENT, (-3.0,)).z2(3.0, 1) == 0.0


def test_curve_requires_contiguous_pieces():
    with pytest.raises(ValueError, match="^need at least one piece$"):
        _curve([])
    with pytest.raises(ValueError, match="contiguous"):
        _curve([Piece(-2.0, -0.5, 0.0, IDENT, (0.0,)),
                Piece(0.5, 2.0, 0.0, IDENT, (0.0,))])


def test_curve_requires_continuity():
    # each component is checked: the pieces meet at 0 and z1 or z2 jumps
    # by 1 there
    jump, smooth = ((0.0, 1.0), (1.0, 1.0)), (IDENT, IDENT)
    for name, c1, c2 in (("z1", jump, smooth), ("z2", smooth, jump)):
        with pytest.raises(ValueError, match=f"{name} discontinuity"):
            _curve([Piece(-1.0, 0.0, 0.0, c1[0], c2[0]),
                    Piece(0.0, 1.0, 0.0, c1[1], c2[1])])


def test_curve_oddness_enforced():
    # one piece, its own mirror: z2 = x^2, or z1 = x + 1/2
    with pytest.raises(ValueError, match="not odd"):
        _curve([Piece(-2.0, 2.0, 0.0, IDENT, (0.0, 0.0, 1.0))])
    with pytest.raises(ValueError, match="not odd"):
        _curve([Piece(-2.0, 2.0, 0.0, (0.5, 1.0), CUBIC)])
    # a pair, continuous at 0: z2 = x^3 on the left against 2x on the right
    with pytest.raises(ValueError, match="not odd"):
        _curve([Piece(-1.0, 0.0, 0.0, IDENT, CUBIC),
                Piece(0.0, 1.0, 0.0, IDENT, (0.0, 2.0))])
    # z1 = z2 = x is odd, but the tiling does not mirror
    with pytest.raises(ValueError, match="not odd"):
        _curve([Piece(-2.0, 0.5, 0.0, IDENT, IDENT),
                Piece(0.5, 2.0, 0.0, IDENT, IDENT)])
    assert _curve(CUBE_PIECES) == CUBE_PIECES


def test_shift_is_exact_for_large_offsets():
    # local coordinates keep cubic tails exact under large shifts: no
    # catastrophic R^3 cancellation when splicing far from the origin
    R = 1e3
    # z1 = x^3 and z2 = x^3 - x on [-1, 1] meet the identity at the ends
    block = (Piece(-1.0, 1.0, 0.0, CUBIC, (0.0, -1.0, 0.0, 1.0)),)
    (moved,) = _shift(block, R)
    assert (moved.lo, moved.hi, moved.center) == (R - 1.0, R + 1.0, R)
    spliced = _curve(_shift(block, -R)
                     + (Piece(1.0 - R, R - 1.0, 0.0, IDENT, (0.0,)),)
                     + _shift(block, R))
    y = R + 0.1234567890123456
    assert at(spliced, y) == moved
    assert moved.z2(y) == block[0].z2(y - R)
    assert moved.z2(y, 1) == block[0].z2(y - R, 1)
    assert moved.z1(y) == block[0].z1(y - R) + R


def test_shift_adds_dx_to_z1():
    (moved,) = _shift((Piece(-1.0, 1.0, 0.0, IDENT, CUBIC),), 2.5)
    assert moved.c1 == (2.5, 1.0)
    assert moved.c2 == CUBIC
    y = np.array([2.0, 3.0])
    assert np.array_equal(moved.z1(y), y)


def test_blocks_require_disjoint_splice():
    with pytest.raises(ValueError):
        splice(9.0)
    with pytest.raises(ValueError):
        tail_bounds(8.0)


def test_tail_block_values():
    assert at(_TAIL, 1.5).z1(1.5) == 1.5
    assert at(_TAIL, 0.5).z1(0.5) == 0.125
    assert at(_TAIL, 1.5).z2(1.5) == 0.5
    assert at(_TAIL, 0.5).z2(0.5) == 0.5
    assert at(_TAIL, 0.5).z2(0.5, 1) == 1.0


def test_center_block_values():
    assert at(_CENTER, 3.0).z2(3.0) == -3.0
    assert at(_CENTER, -3.0).z2(-3.0) == 3.0
    assert at(_CENTER, 0.5).z2(0.5) == pytest.approx(1.375)
    assert at(_CENTER, 6.0).z2(6.0) == -1.5
    assert at(_CENTER, 0.5).z1(0.5) == 0.125
    assert at(_CENTER, 0.0).z2(0.0, 1) == 3.0


def test_spliced_curve_geometry():
    z = splice(18.0)
    R = 18.0
    tip = at(z, R)
    assert tip.z1(R) == R
    assert tip.z2(R) == 0.0
    assert tip.z2(R, 1) == 1.0
    assert tip.z1(R, 1) == 0.0
    assert tip.z1(R, 2) == 0.0
    # identity in the gap between center and tail
    assert at(z, 10.0).z1(10.0) == 10.0
    assert at(z, 10.0).z2(10.0) == 0.0
    # odd through the splice
    for x in (0.3, 2.5, 6.0, 9.0, R - 1.5, R + 0.5):
        assert abs(at(z, x).z1(x) + at(z, -x).z1(-x)) < 1e-12
        assert abs(at(z, x).z2(x) + at(z, -x).z2(-x)) < 1e-12
    # the pieces that carry z2, merged where they meet
    support = []
    for p in z:
        if any(p.c2) and support and support[-1][1] == p.lo:
            support[-1] = (support[-1][0], p.hi)
        elif any(p.c2):
            support.append((p.lo, p.hi))
    assert support == [(-R - 2.0, -R + 2.0), (-7.0, 7.0),
                       (R - 2.0, R + 2.0)]


def test_cc_integrals_closed_forms():
    cert = certificate()
    i1, i2, i3, i4 = cert.cc
    assert i2 == pytest.approx(1.0 / 65.0, abs=1e-12)
    assert i3 == pytest.approx(-63.0 / 442.0, abs=1e-12)
    assert i4 == pytest.approx(-3.0 / 119.0, abs=1e-12)
    assert i1 == pytest.approx(0.127271158, abs=1e-8)
    assert cert.i_cc == pytest.approx(-0.0250882, abs=1e-6)


def test_tt_integrals():
    cert = certificate()
    i1, i2, i3 = cert.tt
    assert i1 == pytest.approx(0.125, abs=1e-12)
    assert i3 == pytest.approx(0.125, abs=1e-12)
    assert i2 > 0.0
    assert cert.i_tt > 0.25
    assert I_TT_LOWER_BOUND == 0.25


def test_tail_bounds_closed_forms():
    b = tail_bounds(18.0)
    assert b.tc == pytest.approx(24.0 * 20.0 / 16.0 ** 4, rel=1e-14)
    assert b.ct1 == pytest.approx(126.0 * 25.0 / 11.0 ** 4, rel=1e-14)
    assert b.ct2 == pytest.approx(12.0 * 38.0 / 34.0 ** 4, rel=1e-14)


def test_condition_scan():
    cert = certificate()
    scan = {cond.R: cond for cond in cert.scan}
    assert not scan[12].center_ok
    assert not scan[17].tail_ok
    rep = scan[18]
    assert rep.center_ok and rep.tail_ok
    assert cert.r_min == 18


def test_condition_scan_gives_up_past_sixty(monkeypatch):
    # no tail margin can be positive below a bound of -1
    monkeypatch.setattr(lemma, "I_TT_LOWER_BOUND", -1.0)
    with pytest.raises(RuntimeError, match="no admissible R found up to 60"):
        certificate()


def test_predictor_crosscheck_routes_agree():
    xc = certificate()
    assert xc.r_min == 18
    assert xc.at_center < 0.0
    assert xc.at_tail > 0.0
    assert xc.at_center == pytest.approx(xc.recon_center, rel=1e-8)
    assert xc.at_tail == pytest.approx(xc.recon_tail, rel=1e-8)
    assert abs(xc.i_tc) <= xc.bounds.tc
    assert abs(xc.i_ct1) <= xc.bounds.ct1
    assert abs(xc.i_ct2) <= xc.bounds.ct2


def test_predictor_rejects_sloped_point():
    # on the spliced curve z1 is the identity on [1, 7], so z1' = 1 there
    curve = splice(18.0)
    with pytest.raises(PreconditionError, match="not flat enough"):
        turnover_predictor(curve, 3.0)


# the tail with its cubic moved to the outer pieces: flat at +-1 on the
# outer pieces only, while z1 = x on [-1, 1]
_KINKED = (Piece(-2.0, -1.0, -1.0, (-1.0, 0.0, 0.0, 1.0), (0.0, 1.0)),
           Piece(-1.0, 1.0, 0.0, IDENT, (0.0,)),
           Piece(1.0, 2.0, 1.0, (1.0, 0.0, 0.0, 1.0), (0.0, 1.0)))


def test_predictor_reads_the_right_piece_at_a_breakpoint():
    # at 1 the right piece is flat; there the integrand on [1, 2] is
    # 3u^2 / (1 + u^4)^2 with u = x - 1, as in I_tt^2
    assert turnover_predictor(_KINKED, 1.0) > 0.0
    # at -1 the right piece is [-1, 1], where z1' = 1
    with pytest.raises(PreconditionError, match=r"\|z1'\|=1.00e\+00"):
        turnover_predictor(_KINKED, -1.0)


def test_predictor_rejects_target_outside_span():
    curve = splice(18.0)
    for alpha0 in (-25.0, 20.5):
        with pytest.raises(PreconditionError, match="outside the curve"):
            turnover_predictor(curve, alpha0)


def _predictor_panels(target):
    # each block's edges, cut at the target where it lies inside
    out = []
    for edges in ([-20, -19, -17, -16], [-7, -5, -2, -1, 1, 2, 5, 7],
                  [16, 17, 19, 20]):
        inside = edges[0] < target < edges[-1]
        cut = sorted(set(edges) | ({target} if inside else set()))
        out += list(zip(cut, cut[1:]))
    return out


def test_predictor_panels_are_pieces_split_at_target(report_quadratures):
    # at R = 18: the 13 pieces that carry z2, the one holding the target
    # split there, 14 panels each
    for target in (0.0, 18.0):
        panels, _ = report_quadratures[
            f"turnover predictor at alpha0={target}"]
        assert [(lo, hi) for _, lo, hi in panels] == _predictor_panels(target)
        assert len(panels) == 14


def test_integrand_zeroes_only_the_exact_removable_point():
    # z1 = z2 = x seen from x0 = 0: the integrand is 1 off the 0/0 at 0
    f = _integrand(Piece(-1.0, 1.0, 0.0, IDENT, IDENT), 0.0)
    assert f(np.array([0.0, 0.5])).tolist() == [0.0, 1.0]
    # a NaN anywhere else is kept, and the quadrature refuses it
    bad = (Piece(-1.0, 1.0, 0.0, IDENT, (np.nan, 1.0)),)
    assert np.isnan(_panels(bad, 0.0)[0][0](np.array([0.5]))).all()
    with pytest.raises(QuadratureError, match="^NaN z2: integrand not"):
        _quad_sum(_panels(bad, 0.0), 1e-10, "NaN z2")


def test_verification_report_contents():
    report = verification_report()
    assert "min_admissible_R = 18" in report
    assert "-0.025088" in report
    assert "I_tt" in report
    assert "True" in report
    # the scan lines, from I_cc and the majorants transcribed here
    i_cc = 0.127271158570 + 1.0 / 65.0 - 63.0 / 442.0 - 3.0 / 119.0
    for R in range(10, 21):
        center = i_cc + 24.0 * (R + 2.0) / (R - 2.0) ** 4
        tail = (0.25 - 126.0 * (R + 7.0) / (R - 7.0) ** 4
                - 12.0 * (2.0 * R + 2.0) / (2.0 * R - 2.0) ** 4)
        line = (f"  R = {R:2d}: I_cc + bound_tc = {center:+.6f}"
                f" (center_ok={center < 0}), 1/4 - bounds_ct = {tail:+.6f}"
                f" (tail_ok={tail > 0})")
        assert line in report.splitlines()


def test_verification_report_matches_the_record():
    # the committed `muskat verify-lemma` output
    record = Path(__file__).parent / "data" / "verify_lemma.txt"
    assert verification_report().encode() == record.read_bytes()


# every adaptive quadrature that verification_report runs, by label
_REPORT_LABELS = {"I_cc^1", "I_tt^2", "turnover predictor at alpha0=0.0",
                  "turnover predictor at alpha0=18.0", "I_tc", "I_ct^1",
                  "I_ct^2"}


@pytest.fixture(scope="module")
def report_calls():
    """(label, panels, value) of each _quad_sum call in the report."""
    calls = []
    real = lemma._quad_sum

    def recording(panels, tol, label):
        calls.append((label, panels, real(panels, tol, label)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemma, "_quad_sum", recording)
        lemma.verification_report()
    return calls


@pytest.fixture(scope="module")
def report_quadratures(report_calls):
    """label -> (panels, value) of each _quad_sum call in the report."""
    return {label: (panels, value) for label, panels, value in report_calls}


def test_report_integrates_each_quadrature_once(report_calls):
    labels = [label for label, _, _ in report_calls]
    assert sorted(labels) == sorted(_REPORT_LABELS)
    assert len(labels) == 7


def _quadpack(panels, quad):
    total = 0.0
    for f, lo, hi in panels:
        total += quad(lambda x: float(f(x)), lo, hi, epsabs=1e-14,
                      epsrel=1e-13, limit=200)[0]
    return total


def test_report_quadratures_match_quadpack(report_quadratures):
    # scipy's QUADPACK, a test-only dependency, on the same panels
    quad = pytest.importorskip("scipy.integrate").quad
    assert set(report_quadratures) == _REPORT_LABELS
    for label, (panels, value) in report_quadratures.items():
        ref = _quadpack(panels, quad)
        assert abs(value - ref) <= 1e-12 * abs(ref), label


def test_gauss_legendre_converges_geometrically_on_i_cc1(report_quadratures):
    # the G_k / G_2k comparison estimates the error only if G_k converges
    # like rho^(-2k): doubling k at least squares the error ratio, down to
    # roundoff
    [(f, lo, hi)], exact = report_quadratures["I_cc^1"]
    err = {}
    for k in (4, 8, 16):
        x, w = leggauss(k)
        half = 0.5 * (hi - lo)
        err[k] = abs(half * np.dot(w, f(lo + half * (x + 1.0))) - exact)
    assert 1e-6 < err[4] < 1e-4
    assert err[8] <= 1e-3 * err[4]
    assert err[16] <= max(err[8] ** 2 / err[4], 4 * np.finfo(float).eps)


def test_unresolvable_integrand_raises_quadrature_error():
    evals = []

    def inverse(x):
        evals.append(x.size)
        return 1.0 / x

    start = time.perf_counter()
    with pytest.raises(QuadratureError,
                       match=r"^1/x on \(0, 1\): quadrature error"):
        _quad_sum([(inverse, 0.0, 1.0)], 1e-12, "1/x on (0, 1)")
    assert time.perf_counter() - start < 1.0
    # bisection toward the pole stops at 1e-6 of the panel, about 20 levels
    assert sum(evals) < 5000


def test_non_finite_integrand_raises_quadrature_error():
    evals = []

    def nan(x):
        evals.append(x.size)
        return np.full_like(x, np.nan)

    start = time.perf_counter()
    with pytest.raises(QuadratureError,
                       match=r"^NaN on \(0, 1\): integrand not finite"):
        _quad_sum([(nan, 0.0, 1.0)], 1e-12, "NaN on (0, 1)")
    assert time.perf_counter() - start < 1.0
    # the first panel's G_20 and G_40 already fail
    assert evals == [20, 40]
