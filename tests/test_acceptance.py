"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line for its criterion (straight to the
terminal, bypassing capture) and then asserts, so a red run still shows the
full scoreboard.
"""
import math
import time

import numpy as np
import pytest
from scipy.special import gamma

import singular_geodesics as sg
from singular_geodesics import experiments
from singular_geodesics.cli import main as cli_main
from singular_geodesics.experiments import (
    limit_geodesic_test,
    run_bounds_campaign,
    run_comparison_campaign,
)
from singular_geodesics.geodesic_flow import log_eta_rate


@pytest.fixture
def announce(capsys):
    def _announce(criterion: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
        assert ok, f"{criterion}: {detail}"

    return _announce


def test_criterion_01_flat_cone_closed_form(announce, cone_warp, flat_circle):
    t0 = time.perf_counter()
    R = 1.5
    worst_r = worst_exit = worst_len = 0.0
    for delta in (0.3, 0.1, 0.01):
        traj = sg.integrate_winding(cone_warp, flat_circle, delta, [0.0], [1.0])
        model = np.sqrt(traj.t**2 + delta**2)
        worst_r = max(worst_r, float(np.max(np.abs(traj.r / model - 1.0))))
        t_exit = math.sqrt(R * R - delta * delta)
        ev = traj.exit_events
        worst_exit = max(worst_exit,
                         abs(ev["t_exit_forward"] / t_exit - 1.0),
                         abs(ev["t_exit_backward"] / -t_exit - 1.0))
        length = sg.winding_length(traj)
        worst_len = max(worst_len, abs(length / (2.0 * math.atan(t_exit / delta)) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_r < 1e-8 and worst_exit < 1e-8 and worst_len < 1e-7 and elapsed < 1.0
    announce("criterion 1 (flat cone vs closed form)", ok,
             f"r err {worst_r:.2e} (<1e-8), exit err {worst_exit:.2e} (<1e-8), "
             f"length err {worst_len:.2e} (<1e-7), {elapsed:.2f}s (<1s)")


def test_criterion_02_length_constants(announce):
    t0 = time.perf_counter()
    cone = sg.compute_Cf(sg.make_power_warp(1.0))
    cusp = sg.compute_Cf(sg.make_power_warp(2.0))
    expinv = sg.compute_Cf(sg.make_exp_warp("exp_inverse_power", 1.0))
    beta_oracle = gamma(0.75) * gamma(0.5) / gamma(1.25)
    in_range = all(2.0 - 1e-9 <= v <= math.pi + 1e-9 for v in (cone, cusp, expinv))
    elapsed = time.perf_counter() - t0
    ok = (abs(cone - math.pi) < 1e-8 and abs(cusp - beta_oracle) < 1e-6
          and abs(expinv - 2.0) < 1e-6 and in_range and elapsed < 1.0)
    announce("criterion 2 (universal length constants)", ok,
             f"|C-pi|={abs(cone - math.pi):.1e} (<1e-8), "
             f"|C-B(3/4,1/2)|={abs(cusp - beta_oracle):.1e} (<1e-6), "
             f"|C-2|={abs(expinv - 2.0):.1e} (<1e-6), range ok={in_range}, "
             f"{elapsed:.2f}s (<1s)")


def test_criterion_03_delta_sweeps(announce, flat_circle):
    t0 = time.perf_counter()
    res2 = sg.delta_sweep(sg.make_power_warp(2.0), flat_circle)
    assert res2.deltas[-1] == pytest.approx(1e-4)
    tail_decreasing = bool(np.all(np.diff(res2.errors_rel[-4:]) < 0))
    res1 = sg.delta_sweep(sg.make_power_warp(1.0), flat_circle,
                          delta_list=np.geomspace(0.3, 1e-3, 6))
    elapsed = time.perf_counter() - t0
    ok = (res2.converged and tail_decreasing and res2.errors_rel[-1] < 2e-2
          and res1.errors_rel[-1] < 1e-3 and elapsed < 30.0)
    announce("criterion 3 (winding-length asymptotics)", ok,
             f"cusp err@1e-4 {res2.errors_rel[-1]:.1e} (<2e-2, decreasing={tail_decreasing}), "
             f"cone err@1e-3 {res1.errors_rel[-1]:.1e} (<1e-3), {elapsed:.1f}s (<30s)")


def test_criterion_04_concave_sqrt_lengths(announce, flat_circle):
    wf = sg.make_concave_sqrt_warp(R=1.0)
    worst = 0.0
    for delta in (0.1, 0.01):
        traj = sg.integrate_winding(wf, flat_circle, delta, [0.0], [1.0])
        measured = wf.f_prime(delta) * sg.winding_length(traj)
        # 2 * integral of sec over the Clairaut angle range, evaluated exactly
        oracle = 2.0 * math.log((1.0 + math.sqrt(1.0 - delta)) / math.sqrt(delta))
        worst = max(worst, abs(measured / oracle - 1.0))
    ok = worst < 1e-4
    announce("criterion 4 (concave sqrt warp lengths)", ok,
             f"max rel err {worst:.2e} (<1e-4)")


def test_criterion_05_conservation(announce, flat_circle, round_sphere,
                                   sphere_on_the_full_path):
    # the round sphere runs the full system, where the shell, Clairaut's
    # relation and the sphere's constraints |n| = 1 and n.L = 0 are each
    # integrated, not decoded; its L is not announced, since the round
    # sphere's force vanishes (q = 1) and the run holds L exactly
    cases = [
        (sg.make_power_warp(1.0), flat_circle, 0.1, [0.0], [1.0], "reduced"),
        (sg.make_power_warp(2.0), flat_circle, 0.05, [0.0], [1.0], "reduced"),
        (sg.make_exp_warp("log_power", 1.5), flat_circle, 0.05, [0.0], [1.0], "reduced"),
        (sg.make_power_warp(2.0), round_sphere, 0.1, [math.pi / 2, 0.0], [0.0, 1.0], "full"),
    ]
    worst_h = worst_cl = worst_amb = 0.0
    on_path = True
    for wf, cs, delta, y0, v0, path in cases:
        traj = sg.integrate_winding(wf, cs, delta, y0, v0, rtol=1e-12, atol=1e-14)
        on_path &= traj.meta["path"] == path
        worst_h = max(worst_h, float(np.nanmax(np.abs(traj.hamiltonian - 1.0))))
        worst_cl = max(worst_cl, float(np.nanmax(np.abs(traj.clairaut_rel))))
        worst_amb = max(worst_amb, traj.meta["ambient_residual"])

    pert = sg.circle_section(2 * math.pi, perturbation=(0.1, None))
    traj = sg.integrate_winding(sg.make_power_warp(2.0), pert, 0.1, [0.0], [1.0],
                                rtol=1e-12, atol=1e-14)
    on_path &= traj.meta["path"] == "full"
    worst_h = max(worst_h, float(np.nanmax(np.abs(traj.hamiltonian - 1.0))))
    c = pert.c_bound
    slack = max(abs(log_eta_rate(traj, i)) - c * abs(math.sin(traj.theta[i]))
                for i in range(len(traj.t)))
    ok = worst_h < 1e-9 and worst_cl < 1e-9 and worst_amb < 1e-9 and slack <= 1e-6 and on_path
    announce("criterion 5 (conserved quantities)", ok,
             f"sphere on the full path={on_path}, |2H-1| {worst_h:.1e} (<1e-9), Clairaut "
             f"drift {worst_cl:.1e} (<1e-9), sphere constraints {worst_amb:.2e} (<1e-9), "
             f"eta-rate slack {slack:.1e} (<=1e-6)")


def test_criterion_06_radial_bounds_campaign(announce):
    t0 = time.perf_counter()
    reports = run_bounds_campaign(n_cases=200, seed=20240817)
    elapsed = time.perf_counter() - t0
    n_pass = sum(r.passed for r in reports)
    ok = n_pass == 200 and elapsed < 60.0
    announce("criterion 6 (radial bounds, 200 randomized cases)", ok,
             f"{n_pass}/200 passed, {elapsed:.1f}s (<60s)")


def test_criterion_07_comparison_campaign(announce):
    reports = run_comparison_campaign(n_cases=100, seed=20240818)
    n_pass = sum(r.passed for r in reports)
    min_gap = min(r.min_gap for r in reports)
    ok = n_pass == 100 and min_gap > 0.0
    announce("criterion 7 (comparison principle, 100 pairs)", ok,
             f"{n_pass}/100 passed, min radial gap {min_gap:.2e}")


def limit_geodesic_on_sphere(round_sphere, monkeypatch, path):
    """Criterion 8's verdict and its detail, with every trajectory of the
    ladder required to run on ``path``."""
    paths = []

    def recording(*args, **kwargs):
        traj = sg.integrate_winding(*args, **kwargs)
        paths.append(traj.meta["path"])
        return traj
    monkeypatch.setattr(experiments, "integrate_winding", recording)
    wf = sg.make_power_warp(2.0)
    ladder = np.geomspace(0.3, 1e-3, 6)
    rep = limit_geodesic_test(wf, round_sphere, ladder,
                              [math.pi / 2, 0.0], [0.0, 1.0],
                              tau_window=(-2.0, 2.0))
    decreasing = bool(np.all(np.diff(rep.sup_distances) < 1e-8))
    on_path = paths == [path] * len(ladder)
    ok = rep.passed and decreasing and rep.sup_distances[-1] < 0.05 and on_path
    return ok, (f"{path} path={on_path}, sup distances decreasing={decreasing}, final "
                f"{rep.sup_distances[-1]:.2e} (<0.05)")


def test_criterion_08_limit_geodesic_on_sphere(announce, round_sphere, monkeypatch,
                                               sphere_on_the_full_path):
    # routed through the full system, the ladder approaches the great circle
    # (final sup distance 8.1e-10)
    announce("criterion 8 (limit geodesic on the round sphere)",
             *limit_geodesic_on_sphere(round_sphere, monkeypatch, "full"))


def test_criterion_08_reduced_decode(round_sphere, monkeypatch):
    # the round sphere's reduced path decodes the great circle itself (final
    # sup distance 4.5e-16), so this checks the decode, not the limit
    ok, detail = limit_geodesic_on_sphere(round_sphere, monkeypatch, "reduced")
    assert ok, detail


def test_criterion_09_oscillating_counterexample(announce):
    wf = sg.parse_warp_spec("osc:0.5:9")
    est_bad = sg.estimate_frakF(wf, math.exp(math.pi))
    est_good = sg.estimate_frakF(wf, math.exp(2.0 * math.pi))
    target = math.exp(2.0 * math.pi) ** (0.5 - 1.0)  # sigma^(alpha-1)
    aligned = (est_good.verdict == "converged"
               and abs(est_good.value / target - 1.0) < 1e-6)
    exit_code = cli_main(["cf", "--warp", "osc:0.5:9"])
    ok = est_bad.verdict == "oscillating" and aligned and exit_code == 2
    announce("criterion 9 (oscillating counterexample)", ok,
             f"sigma=e^pi verdict={est_bad.verdict}, sigma=e^2pi value "
             f"{est_good.value:.6g} vs {target:.6g}, cf exit={exit_code} (want 2)")


def test_criterion_10_profile_conversion(announce):
    from singular_geodesics.warp_profiles import grid_convex

    quad_wf = sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0)
    quad_err = abs(quad_wf.f(1e-3) / 1e-6 - 1.0)
    convex = grid_convex(quad_wf.f, 1e-4 * quad_wf.domain_radius,
                         0.999 * quad_wf.domain_radius)
    line_wf = sg.profile_to_warp(lambda z: z, lambda z: 1.0, 1.0)
    line_err = max(abs(line_wf.f(r) / (r / math.sqrt(2.0)) - 1.0)
                   for r in (1e-4, 1e-2, 0.5, 1.2))
    ok = quad_err < 1e-2 and convex and line_err < 1e-10
    announce("criterion 10 (profile curve conversion)", ok,
             f"parabola f/r^2 err {quad_err:.1e} (<1e-2, convex={convex}), "
             f"line f=r/sqrt2 err {line_err:.1e} (<1e-10)")
