import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import muskat.lemma as lemma
from muskat.lemma import (
    I_TT_LOWER_BOUND,
    PreconditionError,
    QuadratureError,
    _quad_sum,
    build_blocks,
    certificate,
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
    g, F, lo, hi = _CLOSED_FORM_PAIRS[i]
    val, err = quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12)
    assert abs(val - (F(hi) - F(lo))) < 1e-10


def test_blocks_require_disjoint_splice():
    with pytest.raises(ValueError):
        build_blocks(9.0)
    with pytest.raises(ValueError):
        tail_bounds(8.0)


def test_tail_block_values():
    tail = build_blocks(18.0).tail
    assert tail.z1(1.5) == 1.5
    assert tail.z1(0.5) == 0.125
    assert tail.z2(1.5) == 0.5
    assert tail.z2(0.5) == 0.5
    assert tail.dz2(0.5) == 1.0


def test_center_block_values():
    center = build_blocks(18.0).center
    assert center.z2(3.0) == -3.0
    assert center.z2(-3.0) == 3.0
    assert center.z2(0.5) == pytest.approx(1.375)
    assert center.z2(6.0) == -1.5
    assert center.z1(0.5) == 0.125
    assert center.dz2(0.0) == 3.0


def test_spliced_curve_geometry():
    z = build_blocks(18.0).spliced
    R = 18.0
    assert z.z1(R) == R
    assert z.z2(R) == 0.0
    assert z.dz2(R) == 1.0
    assert z.dz1(R) == 0.0
    assert z.ddz1(R) == 0.0
    # identity in the gap between center and tail
    assert z.z1(10.0) == 10.0
    assert z.z2(10.0) == 0.0
    # odd through the splice
    probes = np.array([0.3, 2.5, 6.0, 9.0, R - 1.5, R + 0.5])
    assert np.max(np.abs(z.z1(probes) + z.z1(-probes))) < 1e-12
    assert np.max(np.abs(z.z2(probes) + z.z2(-probes))) < 1e-12
    assert z.support2() == [(-R - 2.0, -R + 2.0), (-7.0, 7.0),
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
    curve = build_blocks(18.0).spliced
    with pytest.raises(PreconditionError, match="not flat enough"):
        turnover_predictor(curve, 3.0)


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


def _quadpack(panels):
    total = 0.0
    for f, lo, hi in panels:
        total += quad(lambda x: float(f(x)), lo, hi, epsabs=1e-14,
                      epsrel=1e-13, limit=200)[0]
    return total


def test_report_quadratures_match_quadpack(report_quadratures):
    # scipy's QUADPACK, a test-only dependency, on the same panels
    assert set(report_quadratures) == _REPORT_LABELS
    for label, (panels, value) in report_quadratures.items():
        ref = _quadpack(panels)
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
