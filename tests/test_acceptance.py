"""Acceptance suite: one test per headline claim.

Every test registers a PASS/FAIL line for the terminal summary (see
conftest.record_acceptance) before asserting, so the final report always
lists all criteria. The flagship experiments share module-scoped
BACKWARD_SEED and FORWARD_RERUN runs at n = 512.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import muskat.velocity as velocity
from muskat.core import make_curve, make_grid, sample_preset
from muskat.diagnostics import (
    REGIME_CRITICAL,
    REGIME_STABLE,
    REGIME_UNSTABLE,
    norm_series,
    regime_timeline,
    turning_report,
)
from muskat.integrator import StepControl, evolve_forward
from muskat.lemma import certificate
from muskat.scenario import RunConfig, run_scenario
from muskat.spectral import filtered_derivative, threshold_smooth
from muskat.velocity import periodic_rhs

from conftest import mirror, record_acceptance


@pytest.fixture(scope="module")
def backward512(tmp_path_factory):
    out = tmp_path_factory.mktemp("backward512")
    cfg = RunConfig(scenario="BACKWARD_SEED", n=512, out_dir=str(out))
    return run_scenario(cfg)


@pytest.fixture(scope="module")
def forward_rerun512(backward512, tmp_path_factory):
    src = Path(backward512.config.out_dir) / backward512.outputs["final"]
    out = tmp_path_factory.mktemp("forward_rerun")
    cfg = RunConfig(scenario="FORWARD_RERUN", input_snapshot=str(src),
                    out_dir=str(out))
    return run_scenario(cfg)


def test_criterion_1_lemma_closed_forms():
    cert = certificate()
    _, cc2, cc3, cc4 = cert.cc
    tt1, _, tt3 = cert.tt
    checks = {
        "cc2": abs(cc2 - 1.0 / 65.0),
        "cc3": abs(cc3 + 63.0 / 442.0),
        "cc4": abs(cc4 + 3.0 / 119.0),
        "tt1": abs(tt1 - 0.125),
        "tt3": abs(tt3 - 0.125),
    }
    worst = max(checks.values())
    record_acceptance(1, "closed-form lemma integrals", worst < 1e-12,
                      f"worst |err| = {worst:.2e}")
    assert worst < 1e-12, checks


def test_criterion_2_lemma_quadratures():
    cert = certificate()
    i1, total = cert.cc[0], cert.i_cc
    ok = abs(i1 - 0.127271158) <= 1e-8 and abs(total + 0.0250882) <= 1e-6
    record_acceptance(2, "adaptive lemma quadratures", ok,
                      f"i1 = {i1:.9f}, total = {total:.7f}")
    assert abs(i1 - 0.127271158) <= 1e-8
    assert abs(total + 0.0250882) <= 1e-6


def test_criterion_3_admissible_radius_scan():
    cert = certificate()
    r_min = cert.r_min
    scan = {cond.R: cond for cond in cert.scan}
    at12, at17 = scan[12], scan[17]
    ok = r_min == 18 and not at12.center_ok and not at17.tail_ok
    record_acceptance(3, "admissible splice radius scan", ok,
                      f"min R = {r_min}")
    assert r_min == 18
    assert not at12.center_ok
    assert not at17.tail_ok


def test_criterion_4_predictor_signs_and_bounds():
    # the record's cross-check is at r_min, which criterion 3 pins to 18
    rep = certificate()
    ok_signs = rep.at_center < 0.0 < rep.at_tail
    ok_tc = abs(rep.i_tc) <= 24.0 * 20.0 / 16.0 ** 4
    ok_ct = abs(rep.i_ct1) + abs(rep.i_ct2) <= rep.bounds.ct1 + rep.bounds.ct2
    agree = max(abs(rep.at_center - rep.recon_center) / abs(rep.at_center),
                abs(rep.at_tail - rep.recon_tail) / abs(rep.at_tail))
    ok = ok_signs and ok_tc and ok_ct and agree < 1e-8
    record_acceptance(
        4, "turnover predictor on the spliced curve", ok,
        f"center = {rep.at_center:.6f}, tail = {rep.at_tail:.6f}")
    assert ok_signs, (rep.at_center, rep.at_tail)
    assert ok_tc and ok_ct
    assert agree < 1e-8


def test_criterion_5_spectral_module():
    grid = make_grid(2048)
    err = np.max(np.abs(filtered_derivative(np.sin(grid.nodes), 1)
                        - np.cos(grid.nodes)))

    rng = np.random.default_rng(0)
    idempotent = 0
    for _ in range(100):
        n = 2 * int(rng.integers(8, 129))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        v = scale * rng.standard_normal(n)
        eps = scale * 10.0 ** rng.uniform(-12.0, 1.0)
        once = threshold_smooth(v, eps)
        idempotent += np.array_equal(once, threshold_smooth(once, eps))

    ok = err < 1e-10 and idempotent == 100
    record_acceptance(5, "spectral derivative and smoother", ok,
                      f"d/dx err = {err:.2e}, idempotent {idempotent}/100")
    assert err < 1e-10
    assert idempotent == 100


def test_criterion_6_alternating_rule_vs_trapezoid():
    z1 = lambda b: b - np.sin(b)
    z2 = lambda b: (3 * np.sin(b) + 8 * np.sin(2 * b) + 3 * np.sin(3 * b)) / 4
    dz1 = lambda b: 1.0 - np.cos(b)
    dz2 = lambda b: (3 * np.cos(b) + 16 * np.cos(2 * b)
                     + 9 * np.cos(3 * b)) / 4

    def rel_gap(n):
        # oracle: plain trapezoid at double resolution on the closed-form
        # integrand, with the removable beta = alpha value filled by its
        # limit 2 z''(alpha) z1'(alpha) / |z'(alpha)|^2
        grid = make_grid(n)
        field = periodic_rhs(sample_preset("SEED_T0", grid))
        i = 5 * n // 8  # alpha = pi/4, generic node away from symmetry nulls
        alpha = grid.nodes[i]
        beta = make_grid(2 * n).nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = np.sin(z1(alpha) - z1(beta)) / (
                np.cosh(z2(alpha) - z2(beta)) - np.cos(z1(alpha) - z1(beta)))
            g1 = (dz1(alpha) - dz1(beta)) * ker
            g2 = (dz2(alpha) - dz2(beta)) * ker
        j = int(np.argmin(np.abs(beta - alpha)))
        speed2 = dz1(alpha) ** 2 + dz2(alpha) ** 2
        g1[j] = 2.0 * np.sin(alpha) * dz1(alpha) / speed2
        ddz2 = -(3 * np.sin(alpha) + 32 * np.sin(2 * alpha)
                 + 27 * np.sin(3 * alpha)) / 4
        g2[j] = 2.0 * ddz2 * dz1(alpha) / speed2
        oracle = (np.pi / n) * np.array([g1.sum(), g2.sum()])
        got = field[:, i]
        return float(np.max(np.abs(got - oracle)) / np.hypot(*oracle))

    rel = rel_gap(512)
    rel_hi = rel_gap(2048)
    # The alternating rule only sums the n/2 nodes of opposite parity, so at
    # n points it resolves like an n/2-point trapezoid. Its gap to the oracle
    # converges geometrically (1.6e-2, 1.0e-4, 4.9e-8, 6.4e-14 at n = 256,
    # 512, 1024, 2048) while the oracle itself is good to ~3e-13 from 1024
    # points, so the n = 512 gap is the rule's own error, not a fault. The
    # bound is therefore asserted at the reference resolution n = 2048,
    # where a wrong parity, weight or prefactor still misses it by orders
    # of magnitude; the n = 512 gap stays in the summary line.
    record_acceptance(6, "alternating quadrature consistency", rel_hi < 1e-8,
                      f"rel gap = {rel:.2e} at n = 512"
                      f" ({rel_hi:.2e} at n = 2048)")
    assert rel_hi < 1e-8, (rel, rel_hi)


def test_criterion_7_integrator_order():
    grid = make_grid(512)
    curve = sample_preset("CONJ_T0", grid)

    def endpoint(dt):
        traj = evolve_forward(curve, 2e-3,
                              StepControl(mode="fixed", dt=dt))
        assert traj.status == "OK"
        return traj.final.samples

    # dt large enough that the dt**4 truncation error sits well above the
    # 1e-14 spectral-derivative roundoff floor at this resolution
    ref = endpoint(2.5e-5)
    errs = [np.max(np.abs(endpoint(dt) - ref))
            for dt in (1e-3, 5e-4, 2.5e-4)]
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    ok = all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)
    record_acceptance(7, "fourth-order step halving", ok,
                      "ratios = " + ", ".join(f"{r:.1f}" for r in ratios))
    assert ok, (errs, ratios)


def test_criterion_8_backward_seed_terminal_state(backward512):
    manifest = backward512
    ran_clean = manifest.status == "OK"
    final = manifest.trajectory.final
    rep = turning_report(final)
    minima = rep.near_critical
    # the terminal state has left the stable window: criterion 9 reruns
    # forward from it and must start in the unstable regime
    unstable = rep.regime == REGIME_UNSTABLE
    two_symmetric = (len(minima) == 2
                     and abs(minima[0][0] + minima[1][0]) < 1e-6)
    flips = [(t, k) for t, k in manifest.events if k.startswith("ENTER_")]
    detail = (f"status = {manifest.status}, min slope = {rep.min_slope:.4g},"
              f" {len(minima)} near-critical minima, flips at "
              + ", ".join(f"{t:.4g}" for t, _ in flips))
    record_acceptance(8, "backward seed terminal state",
                      ran_clean and unstable and two_symmetric, detail)
    assert ran_clean
    # Red under the defaults, for two conventions of the default backward
    # run that differ from the reference experiment's (see README, "Tests
    # and acceptance"). threshold_smooth compares eps = 1e-6 with the
    # 1/n-normalised |c_k|, so it erases resolved content: the first
    # backward step keeps a centre-slope rate of 5.97 of the unsmoothed
    # 10.19. And the pinned times -4.92e-2 (here) and 6e-2 (criterion 9)
    # are in the reference's prefactor-1/(4 pi) unit, while the velocity
    # prefactor here is 1. The run leaves the stable window at -8.55e-3 and ends
    # with min slope -0.265 and no minima in the band. With eps = 1e-6/n
    # and both times divided by 4 pi, this check and criterion 9 pass at
    # n = 512 (min slope -3.5e-5, points at +-3.7934e-3, +-1.2656).
    assert unstable, f"terminal regime {rep.regime}, min slope {rep.min_slope:.4g}"
    assert two_symmetric, minima


@pytest.mark.skipif(os.environ.get("MUSKAT_FULL_RES") != "1",
                    reason="about 9 s; set MUSKAT_FULL_RES=1")
def test_criterion_8_full_resolution_coordinates(tmp_path_factory):
    # Non-blocking companion check at n = 2048: the near-vertical points of
    # the terminal state against the reference coordinates. Recorded in the
    # summary but never failed: under the default smoothing threshold
    # (eps against the 1/n-normalised |c_k|) and time unit (prefactor 1,
    # reference times in the prefactor-1/(4 pi) unit) the terminal state
    # lies far past the window edge (at n = 512 its vertical tangents sit
    # at (+-3.91e-2, +-1.163) and (+-5.03e-3, +-3.06)). With
    # eps = 1e-6/n and t_final = -4.92e-2/(4 pi) it has them at
    # (+-3.793e-3, +-1.264) against the reference (+-3.795e-3, +-1.268).
    out = tmp_path_factory.mktemp("backward2048")
    cfg = RunConfig(scenario="BACKWARD_SEED", n=2048, out_dir=str(out))
    manifest = run_scenario(cfg)
    rep = turning_report(manifest.trajectory.final)
    want = (3.795e-3, 1.268)
    found = {(round(s1 * x, 10), round(s2 * y, 10))
             for _, x, y in rep.tangent_points
             for s1 in (1, -1) for s2 in (1, -1)}
    close = any(abs(x - want[0]) < 1e-2 and abs(y - want[1]) < 1e-2
                for x, y in found)
    record_acceptance(8, "full-resolution tangent coordinates (non-blocking)",
                      close, f"{len(rep.tangent_points)} tangent points")
    assert manifest.status == "OK"


def test_criterion_9_forward_rerun_shifts_stability(forward_rerun512):
    manifest = forward_rerun512
    traj = manifest.trajectory

    flips = tuple((t, k) for t, k in manifest.events
                  if k.startswith("ENTER_"))
    timeline = regime_timeline(traj, events=flips)
    # collapse away critical slivers (snapshots caught inside the crossing
    # tolerance band) and repeats
    regimes = []
    for _, reg in timeline:
        if reg != REGIME_CRITICAL and (not regimes or regimes[-1] != reg):
            regimes.append(reg)

    # margin history: how close the rerun comes to re-entering the graph
    # regime, and where the wing overturn hands off to the central one
    margins = [float(np.min(1.0 + filtered_derivative(c.p1, 1)))
               for c in traj.snapshots]
    k = int(np.argmax(margins))
    t_stable = [t for t, k_ in flips if k_ == "ENTER_STABLE"]
    t_unstable = [t for t, k_ in flips if k_ == "ENTER_UNSTABLE"]
    ordered = (len(t_stable) == 1 and len(t_unstable) == 1
               and t_stable[0] < 0.0 < t_unstable[0])
    pattern = regimes == [REGIME_UNSTABLE, REGIME_STABLE, REGIME_UNSTABLE]
    detail = ("pattern = " + "->".join(r[0] for r in regimes)
              + ", flips = [" + ", ".join(f"{t:.4g} {k_}" for t, k_ in flips)
              + f"], peak min slope = {margins[k]:.4g} at t = {traj.times[k]:.4g}")
    record_acceptance(9, "stability shifting on the forward rerun",
                      pattern and ordered, detail)
    # Red under the defaults for the causes given at criterion 8: the
    # backward leg's threshold erases resolved content and both pinned
    # times are in the reference's prefactor-1/(4 pi) unit. The rerun
    # retraces the turning mechanism (the wing overturn relaxes from -0.26
    # to -0.053, hands off to the central overturn near t = -8.6e-3, and
    # the state passes within 0.5% of the seed at t = 0, see the companion
    # test) but its minimum slope never crosses zero, so the pattern is U
    # alone. With eps = 1e-6/n and both times divided by 4 pi the pattern
    # is U->S->U, with flips at -3.907e-3 and +3.8e-7.
    assert pattern, timeline
    assert ordered, flips


def test_forward_rerun_returns_near_seed(forward_rerun512):
    # companion reversibility check: despite the regularized backward leg,
    # the rerun must pass within 5% relative max-norm of the seed near the
    # seed time
    traj = forward_rerun512.trajectory
    k = int(np.argmin(np.abs(np.asarray(traj.times))))
    seed = sample_preset("SEED_T0", traj.snapshots[k].grid)
    gap = float(np.max(np.abs(traj.snapshots[k].z2 - seed.z2))
                / np.max(np.abs(seed.z2)))
    assert abs(traj.times[k]) < 1e-3
    assert gap < 0.05, gap


def test_default_chain_keeps_the_half_sum(backward512, forward_rerun512):
    # the odd defect max|y + Ry| grows about linearly with the step count;
    # a chain whose rerun lost oddness would silently sum every pair, at
    # twice the cost
    final = forward_rerun512.trajectory.final
    y = final.samples
    defect = float(np.max(np.abs(y + [mirror(row) for row in y]))) / max(
        float(np.max(np.abs(y))), 1.0)
    print(f"rerun final state: odd defect {defect:.3g},"
          f" tolerance {velocity._ODD_TOL:g}")
    assert backward512.trajectory.pair_sum == "half"
    assert forward_rerun512.trajectory.pair_sum == "half"
    assert velocity.is_odd(final)


def test_criterion_10_slope_fifty_turnover(tmp_path_factory):
    out = tmp_path_factory.mktemp("conj_turnover")
    cfg = RunConfig(scenario="CONJ_TURNOVER", n=512, out_dir=str(out))
    manifest = run_scenario(cfg)
    series = norm_series(manifest.trajectory)
    slope0 = float(series.sup_slope[0])
    overturns = [t for t, k in manifest.events if k == "ENTER_UNSTABLE"]
    ok_slope = abs(slope0 - 50.0) <= 1e-9
    ok_event = manifest.status == "OK" and len(overturns) >= 1 and \
        0.0 < overturns[0] < 0.3
    detail = f"initial slope = {slope0:.12g}"
    if overturns:
        detail += f", overturn at t = {overturns[0]:.6g}"
    record_acceptance(10, "steep-data turnover", ok_slope and ok_event,
                      detail)
    assert ok_slope
    assert ok_event, manifest.events


def test_criterion_11_maximum_principles():
    grid = make_grid(256)
    curve = make_curve(grid, np.zeros(grid.n), 0.1 * np.sin(grid.nodes))
    traj = evolve_forward(curve, 2e-2,
                          StepControl(mode="fixed", dt=5e-5),
                          snapshot_every=1e-4)
    series = norm_series(traj)
    n_snaps = len(series.times)
    f_monotone = bool(np.all(np.diff(series.sup_f) <= 1e-8))
    slope_bounded = bool(np.all(series.sup_slope[1:]
                                < series.sup_slope[0] + 1e-8))
    ok = traj.status == "OK" and n_snaps == 201 and f_monotone \
        and slope_bounded
    record_acceptance(
        11, "maximum principles on stable data", ok,
        f"{n_snaps} snapshots, sup|f| {series.sup_f[0]:.4g} ->"
        f" {series.sup_f[-1]:.4g}")
    assert traj.status == "OK"
    assert n_snaps == 201
    assert f_monotone
    assert slope_bounded
