import csv
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import singular_geodesics as sg
from singular_geodesics.cli import VERIFY_SECTIONS
from singular_geodesics.experiments import (
    _aitken,
    closed_form_winding_length,
    default_delta_ladder,
    limit_geodesic_test,
    run_bounds_campaign,
    run_comparison_campaign,
)


class TestLadder:
    def test_power_ladder_reaches_1e4(self, cusp_warp):
        ladder = default_delta_ladder(cusp_warp)
        assert ladder[0] == pytest.approx(0.3)
        assert ladder[-1] == pytest.approx(1e-4)
        assert np.all(np.diff(ladder) < 0)

    def test_exp_ladder_floors_higher(self):
        ladder = default_delta_ladder(sg.make_exp_warp("exp_inverse_power", 1.0))
        assert ladder[-1] == pytest.approx(1e-3)
        assert ladder[0] < 0.5  # clipped inside the smaller domain


class TestAitken:
    def test_geometric_sequence_is_exact(self):
        # v_k = L + c q^k accelerates to exactly L
        L, c, q = 2.5, 0.8, 0.3
        vals = [L + c * q**k for k in range(6)]
        assert _aitken(vals) == pytest.approx(L, abs=1e-12)

    def test_short_input_falls_back(self):
        assert _aitken([1.0, 2.0]) == 2.0

    def test_stalled_input_falls_back(self):
        assert _aitken([3.0, 3.0, 3.0]) == 3.0


class TestClosedFormLength:
    def test_flat_cone_arctan(self, cone_warp):
        for delta in (0.3, 0.1, 0.02):
            oracle = 2.0 * math.atan(math.sqrt(1.5**2 - delta**2) / delta)
            assert closed_form_winding_length(cone_warp, delta) == \
                pytest.approx(oracle, rel=1e-10)

    def test_scales_like_Cf_over_fprime(self, cusp_warp):
        cf = sg.compute_Cf(cusp_warp)
        for delta in (1e-3, 1e-4):
            length = closed_form_winding_length(cusp_warp, delta)
            assert cusp_warp.f_prime(delta) * length == pytest.approx(cf, rel=5e-3)

    def test_profile_table_breaks_at_its_knots(self, tmp_path, flat_circle):
        # f'' of a profile table jumps at each knot; without the knots as
        # break points quad warned of roundoff at delta = 0.2 and 0.05
        path = tmp_path / "parabola.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([("z", "s")] + [(z, z * z)
                                                     for z in np.linspace(0.0, 1.0, 200)])
        wf = sg.load_profile_csv(str(path))
        assert len(wf.knots) > 2000
        assert wf.knots[0] == 0.0 and wf.knots[-1] == wf.domain_radius
        for delta in (0.2, 0.05, 0.01):
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                oracle = closed_form_winding_length(wf, delta)
            traj = sg.integrate_winding(wf, flat_circle, delta, [0.0], [1.0], dense_nodes=16)
            # measured 1.8e-11, 5.1e-10 and 1.8e-9
            assert sg.winding_length(traj) == pytest.approx(oracle, rel=1e-8), delta


class TestDeltaSweep:
    def test_power2_converges(self, cusp_warp, flat_circle):
        res = sg.delta_sweep(cusp_warp, flat_circle,
                             delta_list=np.geomspace(0.3, 1e-3, 6))
        assert res.converged
        assert res.errors_rel[-1] < 1e-4
        assert res.extrapolated_limit == pytest.approx(res.reference_Cf, rel=1e-4)

    def test_rejects_bad_ladder(self, cusp_warp, flat_circle):
        with pytest.raises(ValueError):
            sg.delta_sweep(cusp_warp, flat_circle, delta_list=[0.1, 0.2])
        with pytest.raises(ValueError):
            sg.delta_sweep(cusp_warp, flat_circle, delta_list=[2.0, 0.1])
        with pytest.raises(ValueError, match="empty"):
            sg.delta_sweep(cusp_warp, flat_circle, delta_list=[])

    def test_oscillating_has_no_reference(self, flat_circle):
        wf = sg.parse_warp_spec("osc:0.5:9")
        res = sg.delta_sweep(wf, flat_circle, delta_list=np.geomspace(0.3, 0.05, 4))
        assert math.isnan(res.reference_Cf)
        assert not res.converged
        assert "no reference" in res.note


class TestRadialBounds:
    def test_warped_trajectory(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        rep = sg.verify_radial_bounds(traj)
        assert rep.passed
        assert rep.strict_margin is not None and rep.strict_margin > 0.0

    def test_perturbed_trajectory(self):
        cs = sg.circle_section(2 * math.pi, perturbation=(0.08, None))
        traj = sg.integrate_winding(sg.make_power_warp(1.5), cs, 0.15, [0.3], [1.0])
        rep = sg.verify_radial_bounds(traj)
        assert rep.passed
        assert rep.worst_eta <= 1e-8
        assert rep.relative_slack > 0.0

    def test_eta_rate_bound_is_checked(self):
        cs = sg.circle_section(2 * math.pi, perturbation=(0.08, None))
        traj = sg.integrate_winding(sg.make_power_warp(1.5), cs, 0.15, [0.3], [1.0])
        rep = sg.verify_radial_bounds(traj, c_bound=0.0)
        # with c = 0 the rate bound reads |sin(theta) q_r/q| <= 0
        rates = [abs(math.sin(th) * cs.cometric(r, y, eta)[2])
                 for r, th, y, eta in zip(traj.r, traj.theta, traj.y, traj.eta)]
        assert rep.worst_eta_rate == pytest.approx(max(rates), rel=1e-14)
        assert rep.worst_eta_rate > 0.0
        assert not rep.passed
        assert rep.relative_slack < 0.0
        # a slack that every other check meets: the rate bound alone fails
        others = max(rep.worst_lower, rep.worst_upper, rep.worst_eta)
        assert others < rep.worst_eta_rate
        slack = 0.5 * (others + rep.worst_eta_rate)
        assert not sg.verify_radial_bounds(traj, c_bound=0.0, slack=slack).passed

    @pytest.mark.parametrize("section, y0, v0", [
        ("circle:6.283185307179586", [0.3], [1.0]),
        ("circle:6.283185307179586:pert=0.05", [0.3], [1.0]),
        ("sphere", [math.pi / 2, 0.3], [0.6, 0.8])])
    def test_relative_slack_does_not_follow_the_grid(self, section, y0, v0):
        # the upper gap |t| + delta - r is divided by |t|, its distance from
        # the equality point t = 0.  Divided by |t| + delta it went like |t|
        # there and read the sample nearest t = 0: 0.0098 at 256 nodes and
        # 0.00088 at 16384 (flat circle).  Measured: 0.02784 at both, and
        # 0.02783 on the perturbed circle
        wf, cs = sg.make_power_warp(2.0), sg.parse_section_spec(section)
        slacks = [sg.verify_radial_bounds(sg.integrate_winding(
            wf, cs, 0.1, y0, v0, dense_nodes=nodes)).relative_slack for nodes in (256, 16384)]
        assert slacks[0] == pytest.approx(slacks[1], rel=1e-6)
        assert slacks[0] == pytest.approx(0.0278, abs=1e-4)

    def test_radial_skipped(self, cone_warp, flat_circle):
        st = sg.GeodesicState(t=0.0, r=0.4, theta=math.pi / 2,
                              y=np.array([0.0]), eta=np.array([0.0]))
        rep = sg.verify_radial_bounds(sg.integrate(cone_warp, flat_circle, st))
        assert rep.passed
        assert "skipped" in rep.note
        assert rep.relative_slack == math.inf


class TestComparison:
    def test_orders_radii(self, cusp_warp, flat_circle):
        rep = sg.comparison_test(cusp_warp, flat_circle, 0.1, 0.25)
        assert rep.passed
        assert rep.min_gap > 0.0

    def test_validation(self, cusp_warp, flat_circle):
        with pytest.raises(ValueError):
            sg.comparison_test(cusp_warp, flat_circle, 0.2, 0.2)  # equal deltas
        pert = sg.circle_section(2 * math.pi, perturbation=(0.1, None))
        with pytest.raises(ValueError):
            sg.comparison_test(cusp_warp, pert, 0.1, 0.2)  # not a warped product
        with pytest.raises(ValueError):
            sg.comparison_test(sg.make_concave_sqrt_warp(), flat_circle, 0.1, 0.2)


class TestLimitGeodesic:
    def test_flat_cone_window_validation(self, cone_warp, flat_circle):
        # conical case: tau only sweeps (-pi/2, pi/2), so [-2, 2] is rejected
        with pytest.raises(ValueError, match="pi/2"):
            limit_geodesic_test(cone_warp, flat_circle, [0.3, 0.1],
                                [0.0], [1.0], tau_window=(-2.0, 2.0))
        rep = limit_geodesic_test(cone_warp, flat_circle, [0.3, 0.1, 0.03],
                                  [0.0], [1.0], tau_window=(-1.2, 1.2))
        assert rep.passed
        assert rep.sup_distances[-1] < 1e-3

    def test_cusp_circle(self, cusp_warp, flat_circle):
        rep = limit_geodesic_test(cusp_warp, flat_circle, [0.3, 0.1, 0.03],
                                  [0.0], [1.0])
        assert rep.passed
        assert rep.sup_distances[-1] < 0.05


class TestCampaigns:
    def test_small_bounds_campaign(self):
        reports = run_bounds_campaign(n_cases=12, seed=7)
        assert len(reports) == 12
        assert all(r.passed for r in reports)

    def test_perturbed_circle_campaign_meets_rate_bound(self):
        reports = run_bounds_campaign(n_cases=4, seed=11, sections=["perturbed_circle"],
                                      slack=1e-10)
        assert all(r.passed for r in reports)
        assert max(r.worst_eta_rate for r in reports) <= 1e-10

    @pytest.mark.parametrize("suite", sorted(VERIFY_SECTIONS))
    def test_relative_slack_positive_on_verify_suites(self, suite):
        # the absolute excess reads 0 on passing cases (r = |t| + delta at
        # t = 0); the relative slack away from there does not
        reports = run_bounds_campaign(n_cases=8, seed=20240817,
                                      sections=VERIFY_SECTIONS[suite])
        assert all(r.passed and r.relative_slack > 0.0 for r in reports)
        assert max(r.worst_upper for r in reports) == 0.0

    def test_unknown_section_class_rejected(self):
        with pytest.raises(ValueError, match="bounds sections"):
            run_bounds_campaign(n_cases=1, sections=["torus"])

    def test_small_comparison_campaign(self):
        reports = run_comparison_campaign(n_cases=8, seed=7)
        assert all(r.passed for r in reports)
        assert min(r.min_gap for r in reports) > 0.0


class TestFigureData:
    def test_cone_winding_count(self):
        data = sg.figure1_data("cone", delta=0.3)
        assert data["winding_count_measured"] == pytest.approx(
            data["winding_length"] / (2 * math.pi))
        # swept angle equals the winding length on the unit circle fiber
        assert data["swept_angle"] == pytest.approx(data["winding_length"], rel=1e-8)
        assert data["max_shell_residual"] < 1e-8
        xyz = data["embedded_xyz"]
        assert np.allclose(np.hypot(xyz[:, 0], xyz[:, 1]), data["r"], atol=1e-12)

    def test_cusp_prediction(self):
        data = sg.figure1_data("cusp", delta=0.05)
        assert data["winding_count_measured"] == pytest.approx(
            data["winding_count_predicted"], rel=0.05)
        # embedded on the surface of revolution x = z^2
        xyz = data["embedded_xyz"]
        assert np.allclose(np.hypot(xyz[:, 0], xyz[:, 1]), xyz[:, 2] ** 2, atol=1e-10)
        # r is the arc length of the profile x = z^2 up to the point's z
        z = xyz[:, 2]
        arclen = 0.5 * z * np.sqrt(1.0 + 4.0 * z * z) + 0.25 * np.arcsinh(2.0 * z)
        assert np.max(np.abs(arclen - data["r"])) <= 1e-9

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            sg.figure1_data("plane")

