import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.integrate._ivp.common import OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

import singular_geodesics as sg
from singular_geodesics import IntegrationError, dop853, geodesic_flow
from singular_geodesics.cross_sections import CircleSection, SphereSection, static_sphere_bump
from singular_geodesics.experiments import closed_form_winding_length
from singular_geodesics.geodesic_flow import log_eta_rate


class TestLaunch:
    def test_unit_shell(self, cusp_warp, flat_circle):
        st = sg.launch_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        assert st.theta == 0.0
        assert st.r == 0.2
        # |eta|/f(delta) = 1 at the lowest point
        norm = flat_circle.eta_norm(0.2, st.y, st.eta)
        assert norm == pytest.approx(cusp_warp.f(0.2), rel=1e-12)

    def test_rejects_bad_delta(self, cusp_warp, flat_circle):
        with pytest.raises(ValueError):
            sg.launch_winding(cusp_warp, flat_circle, 0.0, [0.0], [1.0])
        with pytest.raises(ValueError):
            sg.launch_winding(cusp_warp, flat_circle, 2.0, [0.0], [1.0])


T_OF_TAU_CASES = {
    "reduced": (sg.circle_section(2 * math.pi), 0.1, [0.3], [1.0]),
    "perturbed_circle": (sg.circle_section(2 * math.pi, (0.08, None)), 0.1, [0.3], [1.0]),
    "perturbed_sphere": (sg.sphere_section((0.05, None)), 0.1, [math.pi / 2, 0.3],
                         [math.sin(1.0), math.cos(1.0)]),
}


def t_of_tau_faults(traj) -> list:
    """The checks that ``traj.t_of_tau`` fails at the targets tau[0], 0,
    tau[-1] and the taus of both runs' step points: times that do not
    increase with tau, or a round trip |tau(t(tau)) - tau| above 4 ulp of
    the largest |tau|."""
    steps = np.concatenate([sign * sol.t for sol, sign in zip(traj.runs, (1, -1))])
    targets = np.unique(np.concatenate([[traj.tau[0], 0.0, traj.tau[-1]],
                                        traj.tau_of_t(steps)]))
    times = traj.t_of_tau(targets)
    faults = [] if np.all(np.diff(times) > 0) else ["monotone"]
    bound = 4 * np.spacing(max(abs(traj.tau[0]), abs(traj.tau[-1])))
    if not np.max(np.abs(traj.tau_of_t(times) - targets)) <= bound:
        faults.append("round trip")
    return faults


def parabola_warp(tmp_path):
    """The warp of a 200-row CSV of the parabola s = z^2."""
    src = tmp_path / "parabola.csv"
    with open(src, "w", newline="") as fh:
        csv.writer(fh).writerows([("z", "s")] + [(z, z * z) for z in np.linspace(0.0, 1.0, 200)])
    return sg.parse_warp_spec(f"profile:{src}")


def float_rho_and_u(wf, r: float, theta: float):
    """f(r) and sign(sin theta) F(f(r) |sin theta|) of one sample, in floats
    with ``math``: the export's formulas as one call per row."""
    s = math.sin(theta)
    log_f = wf.log_f(r) if r > 0 else -math.inf
    x = math.exp(log_f + (math.log(abs(s)) if s else -math.inf))
    return math.exp(log_f), math.copysign(wf.F(x), s) if x > 0.0 else 0.0


# warp, section, delta, y0, v0 and the bound in ulp on rho and u of the
# array formulas against float_rho_and_u.  numpy's log, exp and pow differ
# from math's in the last bit; the worst measured (x86-64, numpy 2.4) is 8
# ulp (rho, logpow:1.5), and for the osc warp, whose array log f runs the
# float root on each element, 1 (rho) and 2 (u); each bound is that worst
# rounded up to the next power of ten
ARRAY_FORMULA_CASES = {
    "power:2 on sphere:pert=0.05": ("power:2", "sphere:pert=0.05", 0.2, [math.pi / 2, 0.3],
                                    [math.sin(0.5), math.cos(0.5)], 10),
    "profile": ("profile", "circle:6.283185307179586", 0.2, [0.3], [1.0], 10),
    "expinv:1": ("expinv:1", "circle:6.283185307179586", 0.07, [0.3], [1.0], 10),
    "logpow:1.5": ("logpow:1.5", "circle:6.283185307179586", 0.03, [0.3], [1.0], 10),
    "osc:0.5:9": ("osc:0.5:9", "circle:6.283185307179586", 0.005, [0.3], [1.0], 10),
}


class TestTrajectory:
    def test_time_symmetry(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        # the lowest point is a sample and both branches meet there exactly
        assert 0.0 in traj.t
        assert traj.r_of_t(0.0) == 0.2
        for t in (0.1, 0.4, 0.9):
            assert traj.r_of_t(t) == pytest.approx(traj.r_of_t(-t), rel=1e-10)

    def test_exit_events(self, cone_warp, flat_circle):
        traj = sg.integrate_winding(cone_warp, flat_circle, 0.3, [0.0], [1.0])
        ev = traj.exit_events
        t_exit = math.sqrt(1.5**2 - 0.3**2)
        assert ev["t_exit_forward"] == pytest.approx(t_exit, rel=1e-9)
        assert ev["t_exit_backward"] == pytest.approx(-t_exit, rel=1e-9)
        assert not ev["truncated_by_tau"]
        assert traj.classification == "winding"

    def test_tau_t_inverses(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        for t in (-0.8, -0.1, 0.0, 0.3, 1.0):
            assert traj.t_of_tau(traj.tau_of_t(t)) == pytest.approx(t, abs=1e-9)

    @pytest.mark.parametrize("case", ["reduced", "perturbed_circle", "perturbed_sphere"])
    def test_t_of_tau_inverts_tau_at_step_points(self, case, cusp_warp):
        traj = sg.integrate_winding(cusp_warp, *T_OF_TAU_CASES[case], dense_nodes=256)
        assert t_of_tau_faults(traj) == []

    @pytest.mark.parametrize("case", ["reduced", "perturbed_circle", "round_sphere",
                                      "reduced_tau_stop", "perturbed_circle_tau_stop"])
    def test_solver_statistics(self, case, cusp_warp):
        # each attempt costs 12 evaluations, each accepted step 3 more for its
        # dense output and the start 1; the flow gives the first step
        if case.startswith("reduced"):
            cs, y0, v0 = sg.circle_section(2 * math.pi), [0.3], [1.0]
        elif case.startswith("perturbed_circle"):
            cs, y0, v0 = sg.circle_section(2 * math.pi, (0.08, None)), [0.3], [1.0]
        else:
            cs, y0, v0 = sg.sphere_section(), [math.pi / 2, 0.3], [0.6, 0.8]
        tau_stop = 1.0 if case.endswith("tau_stop") else None
        traj = sg.integrate_winding(cusp_warp, cs, 0.1, y0, v0, tau_stop=tau_stop)
        runs = traj.meta["solver"]
        # the flat circle and the round sphere share the reduced path's one run
        one_run = case.startswith("reduced") or case == "round_sphere"
        branches = {"both"} if one_run else {"forward", "backward"}
        assert {run["branch"] for run in runs} == branches and len(runs) == len(branches)
        for run, sol, sign in zip(runs, traj.runs, (1, -1)):
            assert run["steps"] == len(sol.h) and run["steps"] > 0
            assert run["nfev"] == sol.nfev == (
                1 + 12 * (run["steps"] + run["rejected"]) + 3 * run["steps"])
            # the stop that ended the run, at the run's end
            assert run["stop"] == ("tau" if tau_stop else "exit")
            assert run["t_stop"] == sign * sol.t[-1]
        ends = (traj.t_max, traj.t_min)
        if tau_stop:
            assert traj.tau_of_t(np.array(ends)) == pytest.approx([tau_stop, -tau_stop],
                                                                  rel=1e-12)
        else:
            assert traj.r_of_t(np.array(ends)) == pytest.approx([1.5, 1.5], rel=1e-12)

    def test_state_at(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        st = traj.state_at(0.5)
        assert st.t == 0.5
        assert st.r == pytest.approx(traj.r_of_t(0.5), rel=1e-12)
        # state sits on the unit shell
        h = math.sin(st.theta) ** 2 + (
            flat_circle.eta_norm(st.r, st.y, st.eta) / cusp_warp.f(st.r)) ** 2
        assert h == pytest.approx(1.0, abs=1e-9)

    def test_query_beyond_exit_raises(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        with pytest.raises(ValueError, match="integrated span"):
            traj.r_of_t(50.0)
        with pytest.raises(ValueError, match="integrated span"):
            traj.r_of_t(np.array([0.0, 50.0]))

    def test_scalar_in_scalar_out(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.2, [0.0], [1.0])
        for query in (traj.r_of_t, traj.tau_of_t, traj.tau_scaled_of_t):
            assert isinstance(query(0.3), float)
            assert query(np.array([0.3, -0.3])).shape == (2,)
        assert isinstance(traj.t_of_tau(0.5), float)
        assert traj.t_of_tau(np.array([[0.5, -0.5]])).shape == (1, 2)
        assert traj.r_of_t(np.zeros((0, 2))).shape == (0, 2)

    def test_csv_and_metadata(self, cone_warp, flat_circle, tmp_path):
        traj = sg.integrate_winding(cone_warp, flat_circle, 0.3, [0.0], [1.0])
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path))
        header = path.read_text().splitlines()
        assert header[0].startswith("t,r,theta")
        assert len(header) == len(traj.t) + 1
        meta = traj.meta
        json.dumps(meta)  # must be serializable
        assert meta["delta"] == 0.3
        assert meta["shell_drift"] < 1e-8

    @pytest.mark.parametrize("case", ["sphere:pert=0.05", "profile"])
    def test_csv_bytes_match_row_writer(self, case, tmp_path):
        if case == "profile":
            wf, cs = parabola_warp(tmp_path), sg.circle_section(2 * math.pi)
            y0, v0 = [0.3], [1.0]
        else:
            wf, cs = sg.make_power_warp(2.0), sg.parse_section_spec(case)
            y0, v0 = [math.pi / 2, 0.3], [math.sin(0.5), math.cos(0.5)]
        traj = sg.integrate_winding(wf, cs, 0.2, y0, v0)
        traj.to_csv(str(tmp_path / "chunked.csv"))
        _row_writer_csv(traj, str(tmp_path / "rows.csv"))
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("case", sorted(ARRAY_FORMULA_CASES))
    def test_rho_and_u_match_the_float_formula(self, case, tmp_path):
        spec, section, delta, y0, v0, bound = ARRAY_FORMULA_CASES[case]
        wf = parabola_warp(tmp_path) if spec == "profile" else sg.parse_warp_spec(spec)
        traj = sg.integrate_winding(wf, sg.parse_section_spec(section), delta, y0, v0)
        rho, u = np.array([float_rho_and_u(wf, r, th) for r, th in zip(
            traj.r.tolist(), traj.theta.tolist())]).T
        for ours, rows in ((traj.rho, rho), (geodesic_flow._u_column(wf, traj.r, traj.theta), u)):
            assert np.all(np.abs(ours - rows) <= bound * np.spacing(np.abs(rows)))


def _row_writer_csv(traj, path):
    """Reference export of the trajectory's own arrays and its ``u`` column:
    ``csv.writer`` with one f-string per value, row by row."""
    k = traj.y.shape[1]
    cols = (["t", "r", "theta"] + [f"y{i}" for i in range(k)] + [f"eta{i}" for i in range(k)]
            + ["hamiltonian", "clairaut", "tau", "rho", "u"])
    clairaut = traj.rho * np.cos(traj.theta)
    u = geodesic_flow._u_column(traj.wf, traj.r, traj.theta)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(len(traj.t)):
            writer.writerow([f"{v:.16g}" for v in (
                traj.t[i], traj.r[i], traj.theta[i], *traj.y[i], *traj.eta[i],
                traj.hamiltonian[i], clairaut[i], traj.tau[i], traj.rho[i], u[i])])


class TestClassification:
    def test_radial(self, cone_warp, flat_circle):
        st = sg.GeodesicState(t=0.0, r=0.4, theta=math.pi / 2,
                              y=np.array([0.0]), eta=np.array([0.0]))
        traj = sg.integrate(cone_warp, flat_circle, st)
        assert traj.classification == "radial"
        assert sg.classify(traj) == "radial"
        assert traj.meta["solver"] == []  # a radial line runs no stepper
        # radial lines hit the exit at R - r0
        assert traj.exit_events["t_exit_forward"] == pytest.approx(1.1)

    def test_winding(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.1, [0.0], [1.0])
        assert sg.classify(traj) == "winding"

    def test_winding_requires_lowest_point(self, cusp_warp, flat_circle):
        st = sg.GeodesicState(t=0.0, r=0.4, theta=0.3,
                              y=np.array([0.0]), eta=np.array([0.2]))
        with pytest.raises(IntegrationError, match="lowest-point"):
            sg.integrate(cusp_warp, flat_circle, st)


class TestWindingLength:
    def test_matches_quadrature_oracle(self, flat_circle):
        for alpha, delta in [(1.0, 0.3), (2.0, 0.1), (1.5, 0.05)]:
            wf = sg.make_power_warp(alpha)
            traj = sg.integrate_winding(wf, flat_circle, delta, [0.0], [1.0])
            assert sg.winding_length(traj) == pytest.approx(
                closed_form_winding_length(wf, delta), rel=1e-8)

    def test_normalized(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.05, [0.0], [1.0])
        norm = sg.normalized_winding_length(traj)
        assert norm == pytest.approx(
            cusp_warp.f_prime(0.05) * sg.winding_length(traj), rel=1e-10)

    def test_normalized_needs_both_exits(self, flat_circle):
        traj = sg.integrate_winding(sg.make_power_warp(2.0), flat_circle, 0.2, [0.0],
                                    [1.0], tau_stop=0.5)
        assert traj.exit_events["t_exit_forward"] is None
        assert traj.exit_events["t_exit_backward"] is None
        with pytest.raises(IntegrationError, match="truncated before exit"):
            sg.normalized_winding_length(traj)

    def test_truncated_raises(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.1, [0.0], [1.0],
                                    tau_stop=0.5)
        assert traj.exit_events["truncated_by_tau"]
        with pytest.raises(IntegrationError):
            sg.winding_length(traj)

    @pytest.mark.parametrize("tau_stop", [math.nan, -1.0, math.inf, 0.0])
    @pytest.mark.parametrize("amplitude", [0.0, 0.08], ids=["reduced", "full"])
    def test_tau_stop_must_be_finite_and_positive(self, cusp_warp, tau_stop, amplitude):
        # a stop that no run can reach once ran to the exit unmarked, and 0
        # gave a one-sample trajectory
        cs = sg.circle_section(2 * math.pi, (amplitude, None))
        with pytest.raises(ValueError, match="tau_stop"):
            sg.integrate_winding(cusp_warp, cs, 0.1, [0.3], [1.0], tau_stop=tau_stop)

    def test_tau_stop_where_f_prime_underflows_raises(self, flat_circle):
        # the reduced path once dropped the stop silently here and ran to the
        # exit with tau = +-inf and truncated_by_tau False
        wf = sg.parse_warp_spec("expinv:1")
        assert wf.f_prime(1e-3) == 0.0
        with pytest.raises(ValueError, match="tau_stop=0.5"):
            sg.integrate_winding(wf, flat_circle, 1e-3, [0.0], [1.0], tau_stop=0.5)


# expinv:1 on the perturbed circle, launched from y0 = 1 along v0 = 1: f(0.1)
# = 4.5e-5, so |eta| is far below atol while |eta_hat| is 1
EXPINV_CIRCLE = (sg.parse_warp_spec("expinv:1"),
                 sg.parse_section_spec("circle:6.283185307179586:pert=0.05"), [1.0], [1.0])


class TestScaledState:
    """The full path integrates eta/f(delta) and f'(delta) tau, so atol
    means the same at every delta.  Bounds: the worst value measured (x86-64
    Xeon, Python 3.11, numpy 2.4) rounded up to the next power of ten.
    Integrating eta itself, the delta = 0.1 run drifted 1.8e-9 off the shell
    and its length differed from the atol 1e-20 run's by 4.8e-10 relative,
    and the delta = 0.07 run failed with a shell drift of 1.01e-6."""

    def test_default_atol_matches_a_tight_atol(self):
        # measured: shell drift 8.0e-11 (7.5e-11 at atol 1e-20), lengths 4.7e-12 apart
        wf, cs, y0, v0 = EXPINV_CIRCLE
        runs = [sg.integrate_winding(wf, cs, 0.1, y0, v0, atol=atol) for atol in (1e-12, 1e-20)]
        assert max(run.meta["shell_drift"] for run in runs) < 1e-10
        default, tight = (sg.normalized_winding_length(run) for run in runs)
        assert abs(default / tight - 1.0) < 1e-11

    def test_default_atol_runs_closer_in(self):
        # measured: shell drift 7.7e-10, in about 1.2 s
        wf, cs, y0, v0 = EXPINV_CIRCLE
        traj = sg.integrate_winding(wf, cs, 0.07, y0, v0)
        assert traj.meta["shell_drift"] < 1e-9

    @pytest.mark.parametrize("section, y0, v0", [
        ("circle:6.283185307179586:pert=0.05", [1.0], [1.0]),
        ("sphere:pert=0.05", [math.pi / 2, 0.3], [math.sin(1.0), math.cos(1.0)])])
    def test_full_path_refuses_an_underflowing_f(self, section, y0, v0):
        wf = sg.parse_warp_spec("expinv:1")
        assert wf.f(1e-3) == 0.0
        with pytest.raises(IntegrationError, match=r"f\(delta\) underflows double precision"):
            sg.integrate_winding(wf, sg.parse_section_spec(section), 1e-3, y0, v0)


class TestReparametrize:
    def test_window_and_normalized_eta(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.1, [0.0], [1.0])
        rp = sg.reparametrize_tau(traj, n=101, window=(-1.0, 1.0))
        assert rp.tau[0] == pytest.approx(-1.0)
        assert rp.tau[-1] == pytest.approx(1.0)
        assert len(rp.tau) == 101
        assert np.allclose(np.diff(rp.tau), rp.tau[1] - rp.tau[0])
        # eta / f(delta) has h-norm f(r)/f(delta) >= 1, ~1 near tau=0
        mid = len(rp.tau) // 2
        norm = flat_circle.eta_norm(rp.r[mid], rp.y[mid], rp.eta[mid] / math.exp(traj.log_fd))
        assert norm == pytest.approx(cusp_warp.f(rp.r[mid]) / cusp_warp.f(0.1), rel=1e-8)

    def test_window_beyond_the_integrated_range_raises(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.1, [0.0], [1.0])
        with pytest.raises(ValueError, match="tau beyond available range"):
            sg.reparametrize_tau(traj, window=(-1e9, 1e9))


_SPHERE_START = ([math.pi / 2, 0.3], [math.sin(0.5), math.cos(0.5)])
_FULL_PATH = [(sg.sphere_section(), *_SPHERE_START),
              (sg.circle_section(2 * math.pi, (0.08, None)), [0.3], [1.0]),
              (sg.sphere_section((0.05, None)), *_SPHERE_START),
              (sg.sphere_section((0.1, static_sphere_bump)), *_SPHERE_START)]
_FULL_PATH_IDS = ["round_sphere", "perturbed_circle", "perturbed_sphere", "static_bump"]


class TestDiagnostics:
    def test_shell_and_clairaut(self, flat_circle):
        for spec, delta in [("power:1", 0.1), ("power:2", 0.05), ("logpow:1.5", 0.05)]:
            wf = sg.parse_warp_spec(spec)
            traj = sg.integrate_winding(wf, flat_circle, delta, [0.0], [1.0],
                                        rtol=1e-12, atol=1e-14)
            assert np.nanmax(np.abs(traj.hamiltonian - 1.0)) < 1e-10
            assert np.nanmax(np.abs(traj.clairaut_rel)) < 1e-9

    @pytest.mark.parametrize("section, path", [("circle:6.283185307179586", "reduced"),
                                               ("circle:6.283185307179586:pert=0.08", "full")])
    def test_integrate_never_calls_F(self, section, path):
        # F is needed only for the u column of the CSV export
        def refuse(_):
            raise AssertionError("F called")
        wf = dataclasses.replace(sg.make_power_warp(2.0), F=refuse)
        traj = sg.integrate_winding(wf, sg.parse_section_spec(section), 0.1, [0.3], [1.0])
        assert traj.meta["path"] == path
        assert traj.meta["shell_drift"] < 1e-8

    @pytest.mark.parametrize("section", ["sphere", "sphere:pert=0.05"])
    def test_ambient_residual_at_tight_tolerance(self, section):
        # |n|^2 - 1 and n.L/|L| are invariants of the sphere flow; at the
        # tolerances of criterion 5 they stay far below the shell check
        cs = sg.parse_section_spec(section)
        traj = sg.integrate_winding(sg.make_power_warp(2.0), cs, 0.1, [math.pi / 2, 0.3],
                                    [math.sin(1.0), math.cos(1.0)], rtol=1e-12, atol=1e-14)
        assert traj.y.shape[1] == traj.eta.shape[1] == 3
        assert 0.0 < traj.meta["ambient_residual"] < 1e-9

    def test_ambient_residual_is_zero_on_circles(self, cusp_warp, flat_circle):
        for cs in (flat_circle, sg.circle_section(2 * math.pi, (0.08, None))):
            traj = sg.integrate_winding(cusp_warp, cs, 0.2, [0.0], [1.0])
            assert traj.meta["ambient_residual"] == 0.0

    def test_log_eta_rate_vanishes_for_warped(self, cusp_warp, flat_circle):
        traj = sg.integrate_winding(cusp_warp, flat_circle, 0.1, [0.0], [1.0])
        rates = [log_eta_rate(traj, i) for i in range(0, len(traj.t), 50)]
        assert max(abs(v) for v in rates) == 0.0

    def test_extreme_cusp_stays_finite_in_log_space(self, flat_circle):
        # f'(delta) underflows; the scaled clock must still be usable
        wf = sg.make_exp_warp("exp_inverse_power", 1.0)
        traj = sg.integrate_winding(wf, flat_circle, 0.001, [0.0], [1.0])
        norm = sg.normalized_winding_length(traj)
        assert np.isfinite(norm)
        assert 2.0 < norm < math.pi + 0.5
        # tau itself overflows, so it cannot be inverted
        with pytest.raises(ValueError, match="available range"):
            traj.t_of_tau(1.0)

    def test_full_path_cometric_runs_once_per_resample(self, monkeypatch):
        # the diagnostics evaluate every sample in one array call of cometric
        array_calls, resamples = [], []
        for cls in (CircleSection, SphereSection):
            def counting(self, r, y, eta, original=cls.cometric):
                if isinstance(r, np.ndarray):
                    array_calls.append(len(r))
                return original(self, r, y, eta)
            monkeypatch.setattr(cls, "cometric", counting)
        original = geodesic_flow.Trajectory._resample

        def resample(self, t):
            resamples.append(len(t))
            return original(self, t)
        monkeypatch.setattr(geodesic_flow.Trajectory, "_resample", resample)
        for section, y0, v0 in _FULL_PATH[1:3]:
            traj = sg.integrate_winding(sg.make_power_warp(2.0), section, 0.1, y0, v0)
            sg.reparametrize_tau(traj, n=64)
        assert array_calls == resamples and len(resamples) == 4

    @pytest.mark.parametrize("section, y0, v0", _FULL_PATH, ids=_FULL_PATH_IDS)
    def test_full_path_diagnostics_match_scalar_rows(self, section, y0, v0,
                                                     sphere_on_the_full_path):
        # the same arithmetic as one scalar cometric call per row, so equal
        # where np.sin and math.sin are (measured: 0 ulp on x86-64 with
        # numpy 2.4); allowed: a few ulp from either being one ulp off
        traj = sg.integrate_winding(sg.make_power_warp(2.0), section, 0.1, y0, v0)
        norm2, qr_q = np.array([section.cometric(r, y, eta)[1:3] for r, y, eta in zip(
            traj.r.tolist(), traj.y.tolist(), traj.eta.tolist())]).T
        assert traj.meta["path"] == "full"
        for ours, rows in ((traj.eta_norm, np.exp(0.5 * np.log(norm2))), (traj.qr_q, qr_q)):
            assert np.all(np.abs(ours - rows) <= 4.0 * np.spacing(np.abs(rows)))


class TestVectorField:
    def test_matches_reduced_dynamics(self, cusp_warp, flat_circle):
        # the full field in (r, theta, y, eta_hat = eta/f(delta), tau_scaled =
        # f'(delta) tau) must reproduce the scalar warped-product equations
        # and the reduced system's slopes
        delta, r, th = 0.2, 0.35, 0.4
        st = sg.launch_winding(cusp_warp, flat_circle, delta, [0.0], [1.0])
        fd, fpd = cusp_warp.f(delta), cusp_warp.f_prime(delta)
        x = np.concatenate([[r, th], st.y, st.eta / fd, [0.0]])
        rhs, reads = geodesic_flow._full_rhs(cusp_warp, flat_circle, 1, fd, fpd)
        # the flat circle's slopes read neither its point nor the clock
        assert reads == (0, 1, 3)
        dr, dth, dy, deta, dtau = rhs(*x)
        assert dr == pytest.approx(math.sin(th))
        fp_over_f = cusp_warp.f_prime(r) / cusp_warp.f(r)
        assert dth == pytest.approx(fp_over_f * math.cos(th), rel=1e-12)
        # flat circle: eta is conserved along the flow and |eta_hat| = 1, so
        # dy = |eta|/f^2 and dtau_scaled = f'(delta) |eta|/f^2
        assert np.allclose(deta, 0.0)
        eta_over_f2 = fd / cusp_warp.f(r) ** 2
        assert dy == pytest.approx(eta_over_f2, rel=1e-12)
        assert dtau == pytest.approx(fpd * eta_over_f2, rel=1e-12)
        log_fd = cusp_warp.log_f(delta)
        reduced, reads = geodesic_flow._reduced_rhs(cusp_warp, log_fd,
                                                    log_fd + math.log(cusp_warp.d_log_f(delta)))
        assert reads == (0, 1)
        assert [dr, dth, dtau] == pytest.approx(list(reduced(r, th, 0.0)), rel=1e-12)


def _scipy_dense(sol):
    """scipy's OdeSolution over the package run's own step points and
    coefficients: one ``Dop853DenseOutput`` per step, with the run's step
    length (an exit event cuts the last step short in ``sol.t`` only)."""
    steps = []
    for t_old, h, coef in zip(sol.t, sol.h, sol.coef.transpose(2, 0, 1)):
        step = Dop853DenseOutput(t_old, t_old + h, coef[7], coef[:7])
        step.h = h
        steps.append(step)
    return OdeSolution(sol.t, steps)


def _scalar_loop(traj, solutions):
    """Reference evaluation, one sample at a time: scipy's OdeSolution of the
    time direction's run at the scalar s = |t|, decoded with the time's
    sign.  ``solutions`` holds that OdeSolution for each stepper run, the
    forward run's first."""
    rows = []
    for t in traj.t:
        sign, sol = (1.0, solutions[0]) if t >= 0 else (-1.0, solutions[-1])
        x, sign = sol(abs(float(t)))[:, None], np.array([sign])
        rows.append(traj.decode(x, sign, sign * x[-1]))
    return [np.concatenate(col) for col in zip(*rows)]


def dense_case(case: str):
    """A trajectory of the reduced path, the full path or a radial line."""
    wf = sg.make_power_warp(2.0)
    if case == "radial":
        start = geodesic_flow.GeodesicState(0.0, 0.5, -math.pi / 2, [0.3], [0.0])
        return geodesic_flow.integrate(wf, sg.circle_section(2 * math.pi), start,
                                       dense_nodes=64)
    cs = sg.circle_section(2 * math.pi, (0.08, None) if case == "perturbed_circle" else None)
    return sg.integrate_winding(wf, cs, 0.1, [0.3], [1.0], dense_nodes=64)


# launch direction and meta["ambient_residual"] of power:1.3 at delta = 0.1
# from (0.4, 0.2), as the decoded rows give it.  The perturbed sphere's rows
# in Fortran order einsum adds in another order, and they read
# 3.081868094056972e-10 (most launches read the same in both orders).  The
# round sphere's rows are its closed-form great circle, whose |n|^2 - 1 is
# 2 ulp of 1 in either order (its full-path run read 2.3293489359588193e-10)
AMBIENT_RESIDUAL = {"round": ([0.2, 1.0], 4.440892098500626e-16),
                    "perturbed": ([1.0, 0.4], 3.081865873610923e-10)}


class TestDenseEvaluation:
    @pytest.mark.parametrize("case", ["reduced", "perturbed_circle", "radial"])
    def test_one_component_queries_match_the_decoded_states(self, case):
        traj = dense_case(case)
        ts = np.concatenate([traj.t, np.linspace(traj.t_max, traj.t_min, 101)])
        st = traj._evaluate(ts)
        for query, expected in ((traj.r_of_t, st.r), (traj.tau_scaled_of_t, st.tau_scaled),
                                (traj.tau_of_t, traj._tau(st.tau_scaled))):
            out = query(ts)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
            assert [query(t) for t in ts[::29]] == expected[::29].tolist()

    @pytest.mark.parametrize("case", ["reduced", "perturbed_circle", "radial"])
    def test_queries_outside_the_span_raise(self, case):
        traj = dense_case(case)
        for t in (math.nextafter(traj.t_max, math.inf), math.nextafter(traj.t_min, -math.inf)):
            for query in (traj.r_of_t, traj.tau_of_t, traj.tau_scaled_of_t, traj.state_at):
                with pytest.raises(ValueError, match="integrated span"):
                    query(t)
            with pytest.raises(ValueError, match="integrated span"):
                traj._evaluate(np.array([0.0, t]))

    @pytest.mark.parametrize("section", sorted(AMBIENT_RESIDUAL))
    def test_decoded_rows_are_contiguous(self, section):
        cs = sg.sphere_section((0.05, None) if section == "perturbed" else None)
        v0, residual = AMBIENT_RESIDUAL[section]
        traj = sg.integrate_winding(sg.make_power_warp(1.3), cs, 0.1, [0.4, 0.2], v0)
        st = traj._evaluate(np.array([traj.t_min, -0.1, 0.0, 0.2, traj.t_max]))
        for y in (traj.y, traj.eta, st.y, st.eta):
            assert y.flags.c_contiguous
        assert traj.meta["ambient_residual"] == residual

    @pytest.mark.parametrize("case", ["reduced", "perturbed_circle", "perturbed_sphere"])
    def test_array_matches_scalar_loop(self, case, monkeypatch):
        wf = sg.make_power_warp(2.0)
        if case == "reduced":
            cs, y0, v0 = sg.circle_section(2 * math.pi), [0.3], [1.0]
        elif case == "perturbed_circle":
            cs, y0, v0 = sg.circle_section(2 * math.pi, (0.08, None)), [0.3], [1.0]
        else:
            cs = sg.sphere_section((0.05, None))
            y0, v0 = [math.pi / 2, 0.3], [math.sin(1.0), math.cos(1.0)]
        solutions = []

        def recording_solve_ivp(*args):
            sol = dop853.solve_ivp(*args)
            solutions.append(_scipy_dense(sol))
            return sol
        monkeypatch.setattr(geodesic_flow, "solve_ivp", recording_solve_ivp)
        traj = sg.integrate_winding(wf, cs, 0.1, y0, v0, dense_nodes=256)
        assert len(solutions) == (1 if case == "reduced" else 2)
        r, theta, y, eta, tau_scaled = _scalar_loop(traj, solutions)
        assert np.array_equal(traj.r, r)
        assert np.array_equal(traj.theta, theta)
        assert np.array_equal(traj.y, y)
        assert np.array_equal(traj.eta, eta)
        assert np.array_equal(traj.tau_scaled, tau_scaled)
        assert np.array_equal(traj.r_of_t(traj.t), r)
        assert [traj.r_of_t(t) for t in traj.t[::37]] == list(r[::37])

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(1.0, 3.0), delta=st.floats(0.03, 0.5),
           fractions=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4))
    def test_radius_matches_time_quadrature(self, alpha, delta, fractions):
        # |t| = int_delta^r dr / sqrt(1 - (f(delta)/f(r))^2) for f = r^alpha,
        # with r = delta + s^2 removing the endpoint singularity
        R = 1.5
        wf = sg.make_power_warp(alpha, R=R)
        traj = sg.integrate_winding(wf, sg.circle_section(2 * math.pi), delta,
                                    [0.0], [1.0], dense_nodes=64)

        def time_to(r):
            def integrand(s):
                return 2.0 * s / math.sqrt(-math.expm1(-2.0 * alpha * math.log1p(s * s / delta)))
            return quad(integrand, 0.0, math.sqrt(r - delta), epsabs=1e-14, epsrel=1e-13,
                        limit=200)[0]

        t_exit = traj.exit_events["t_exit_forward"]
        ts = np.array([sign * fr * t_exit for fr in fractions for sign in (1.0, -1.0)])
        expected = np.array([delta if t == 0.0 else
                             brentq(lambda r: time_to(r) - abs(t), delta, R, xtol=1e-14)
                             for t in ts])
        assert np.max(np.abs(traj.r_of_t(ts) - expected)) < 1e-8
        assert max(abs(traj.r_of_t(t) - e) for t, e in zip(ts, expected)) < 1e-8


class TestStepBound:
    @pytest.mark.parametrize("case", ["perturbed_circle", "perturbed_sphere"])
    def test_trial_stages_stay_in_domain(self, case):
        # both inputs once raised "r=1.87... outside (0, R)" from a trial stage
        if case == "perturbed_circle":
            wf = sg.make_power_warp(2.2225985511992663)
            cs = sg.circle_section(2 * math.pi, (0.06, None), 1.5)
            delta, y0, v0 = 0.05004512407958504, [5.3771830937406575], [1.0]
        else:
            wf = sg.make_power_warp(2.297884890634525)
            cs = sg.sphere_section((0.05, None), 1.5)
            delta = 0.054695143352470395
            y0 = [math.pi / 2, 3.377491565096624]
            v0 = [-0.2607924512447339, 0.9653948919347787]
        traj = sg.integrate_winding(wf, cs, delta, y0, v0, rtol=1e-9, dense_nodes=256)
        assert traj.exit_events["t_exit_forward"] is not None
        assert traj.exit_events["t_exit_backward"] is not None
        assert traj.r[0] == pytest.approx(1.5, abs=1e-9)
        assert traj.r[-1] == pytest.approx(1.5, abs=1e-9)
        assert traj.meta["shell_drift"] < 1e-8


# round-sphere launches (warp, delta, y0, v0): an equatorial one, a tilted
# one, one close in on a steep cusp and one whose angular momentum has
# components of both signs
ROUND_SPHERE_LAUNCHES = [
    (sg.make_power_warp(2.0), 0.1, [math.pi / 2, 0.3], [math.sin(0.3), math.cos(0.3)]),
    (sg.make_power_warp(1.3), 0.25, [1.1, 2.0], [0.6, -0.8]),
    (sg.make_power_warp(2.5), 0.05, [2.0, -1.0], [-0.5, math.sqrt(0.75)]),
    (sg.parse_warp_spec("expinv:1"), 0.2, [0.7, 4.0], [0.9, -math.sqrt(0.19)]),
]
# the largest great-circle distance of the decoded point from the full
# path's, on 513 common times at the default rtol: measured 3.3e-8 (the
# launch at delta = 0.05), 5.4e-10 and below elsewhere, rounded up to the
# next power of ten
FULL_PATH_POINT_BOUND = 1e-7


class TestReducedSphere:
    """The round sphere is a warped product: it runs the reduced system,
    and its link path is the great circle of its launch at the arc length
    tau, with the angular momentum L at every time."""

    @pytest.mark.parametrize("launch", range(len(ROUND_SPHERE_LAUNCHES)))
    def test_the_run_is_the_flat_circles(self, launch):
        wf, delta, y0, v0 = ROUND_SPHERE_LAUNCHES[launch]
        sphere = sg.integrate_winding(wf, sg.sphere_section(), delta, y0, v0, dense_nodes=256)
        circle = sg.integrate_winding(wf, sg.circle_section(2 * math.pi), delta, [0.3], [1.0],
                                      dense_nodes=256)
        assert sphere.meta["solver"] == circle.meta["solver"]
        for name in ("t", "r", "theta", "tau_scaled"):
            a, b = getattr(sphere, name), getattr(circle, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("launch", range(len(ROUND_SPHERE_LAUNCHES)))
    def test_the_decode_matches_the_full_path(self, launch, request):
        wf, delta, y0, v0 = ROUND_SPHERE_LAUNCHES[launch]
        cs = sg.sphere_section()
        reduced = sg.integrate_winding(wf, cs, delta, y0, v0, dense_nodes=256)
        request.getfixturevalue("sphere_on_the_full_path")
        full = sg.integrate_winding(wf, cs, delta, y0, v0, dense_nodes=256)
        assert (reduced.meta["path"], full.meta["path"]) == ("reduced", "full")
        ts = np.linspace(max(reduced.t_min, full.t_min), min(reduced.t_max, full.t_max), 513)
        a, b = reduced._evaluate(ts), full._evaluate(ts)
        assert np.max(cs.h0_distance(a.y, b.y)) < FULL_PATH_POINT_BOUND
        # L itself, at every sample: the launch's stored covector
        L = sg.launch_winding(wf, cs, delta, y0, v0).eta
        assert np.all(reduced.eta == L) and np.all(a.eta == L)
        assert np.max(np.abs(b.eta - L)) <= 1e-15 * np.linalg.norm(L)

    @pytest.mark.parametrize("launch", range(len(ROUND_SPHERE_LAUNCHES)))
    def test_the_decode_keeps_the_ambient_constraints(self, launch):
        # |n|^2 = 1 and n.L = 0 hold to rounding (4.4e-16 measured)
        wf, delta, y0, v0 = ROUND_SPHERE_LAUNCHES[launch]
        traj = sg.integrate_winding(wf, sg.sphere_section(), delta, y0, v0)
        assert traj.meta["ambient_residual"] <= 1e-14

    def test_an_underflowing_f_is_refused(self):
        # L = 0 gives the great circle no direction
        wf = sg.parse_warp_spec("expinv:1")
        assert wf.f(1e-3) == 0.0
        with pytest.raises(IntegrationError, match=r"f\(delta\) underflows double precision"):
            sg.integrate_winding(wf, sg.sphere_section(), 1e-3, [math.pi / 2, 0.3], [0.6, 0.8])

    @pytest.mark.parametrize("section, y0, v0", [
        ("circle:6.283185307179586", [0.3], [1.0]),
        ("circle:6.283185307179586:pert=0.08", [0.3], [1.0]),
        ("sphere", [math.pi / 2, 0.3], [0.6, 0.8]),
        ("sphere:pert=0.05", [math.pi / 2, 0.3], [0.6, 0.8])])
    def test_the_path_follows_the_perturbation(self, section, y0, v0):
        traj = sg.integrate_winding(sg.make_power_warp(2.0), sg.parse_section_spec(section),
                                    0.2, y0, v0, dense_nodes=64)
        assert traj.meta["path"] == ("full" if "pert=" in section else "reduced")
