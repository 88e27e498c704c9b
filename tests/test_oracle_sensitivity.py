"""Planted defects: each check below must fail once one realistic defect is
monkeypatched into the code it judges, and pass without it.  Sizes are
reduced; the checks are the package's own or, for criteria 1 and 2, the
acceptance tests themselves (run with their announcement recorded).

What each oracle shares with the code it checks (a defect in a shared input
fools both):

- The limit-geodesic check (``limit_geodesic_test``) compares with the
  closed form n cos(tau) + V sin(tau).  It shares only the conversion of the
  input angles (``SphereSection.embed``) and the clock tau with the flow.
  It is the only check here that sees the direction of rotation.
- The shell check |2H - 1| (``integrate``'s drift limit, criterion 5, the
  benchmark's |2H-1|) evaluates |eta|^2 with the same ``cometric`` that
  drives the flow.  It sees a flow that disagrees with its own norm (a
  dropped torque, a missing q_r/q, the circle's h0 force with its sign
  flipped), not a wrong norm, and not a reversed rotation, which keeps |eta|.
  It shares with the flow nothing of its own formula sin^2(theta) +
  exp(2 (log|eta| - log f(r))), so a shell taken as |eta|/f instead of
  |eta|^2/f^2 is caught on every section (it reads sin^2 + cos, 1.25 at
  cos(theta) = 1/2).
- The radial and eta bounds (``verify_radial_bounds``) read c from the
  section's grid check and q_r/q from the same ``cometric``.
- The length oracle ``closed_form_winding_length`` integrates the same
  ``wf.f`` as the integrator, so a wrong warp fools both; it sees a wrong
  clock (dtau) on a warped product.
- The flat-cone closed form of criterion 1 (r = sqrt(t^2 + delta^2), the
  exit time, the length 2 atan(t_exit/delta)) shares only f = r and the flat
  circle with the integrator.  It sees the dense output, for instance a last
  segment evaluated with the step length that the exit event cut short, and
  the stepper's tableau: a solution weight B[5] off by 1e-6 (r err 4.5e-6,
  which the length oracle on the round sphere misses at 4.5e-7 against its
  1e-6) and a dense-output coefficient D[0, 5] off by 1e-5 (r err 6.8e-8).
  Its limit: D[0, 5] off by 1e-6 gives 6.8e-9 and passes.
- The scipy parity test (``tests/test_dop853.py``) runs scipy's DOP853,
  with scipy's own tableau, on the arguments of each package run.  It
  shares only the right-hand side, so it sees a wrong coefficient in the
  generated kernel: a stage coefficient A[7][3] off by 1e-6 changes the
  step count of every parity case against scipy as it is.  Within the
  bounds that oracle allows, the smallest size it catches is 3e-14 (the
  event time of the 1-state level crossing; 1e-13 also the pendulum's
  swing); on the geodesic flow cases 3e-13 (the reduced run's tau stop)
  and 1e-12 (the perturbed circle's step points).  Against
  scipy summed left to right, which the kernel matches bit for bit, one
  unit in the last place of A[7][3] (2.2e-16) already moves the step
  points of the perturbed circle and the round sphere, and two units move
  those of every flow case.
- The event-time parity (the same two scipy oracles) and the round trip
  tau(t_of_tau(tau)) of ``t_of_tau_faults`` (``tests/test_geodesic_flow.py``)
  judge ``dop853.crossing``, which serves both the stepper's stops and
  ``t_of_tau``.  The round trip evaluates tau with the same dense
  polynomial (``dop853._horner``) that the crossing solves on, so it sees a
  root in the wrong place, not a wrong polynomial; the parity runs see
  both.  A crossing that reads the step before its own fails both.
- Criterion 2 compares ``compute_Cf`` with the analytic constants pi,
  Gamma(3/4)Gamma(1/2)/Gamma(5/4) and 2; it shares the family's limit
  functional, not the quadrature.  A bias upward at the cone is caught first
  by ``compute_Cf_detailed``'s own range [2, pi], whose top is the cone's pi.
- The parabola oracle below inverts the closed-form arc length of s = z^2
  and compares the exact df/dr with the C^1 table of criterion 10 at its
  cell midpoints.  It shares only the profile s, s' with ``profile_to_warp``,
  so it sees a wrong knot, slope or cubic of the table, and a wrong arc
  length (the per-cell Gauss-Legendre sum), which moves the knots.  The CSV
  path's PCHIP error is beyond it (the profile is exact here).
- Criterion 10's line check compares the table of s = z with f = r/sqrt(2);
  it shares nothing with the arc-length quadrature, so a biased rule shows.
- The inverse contract (``inverse_faults`` in ``tests/test_warp_profiles.py``)
  asks F(y) to be the least x with f(x) >= y, on the float and the array
  path.  It evaluates f with the same table, so it sees a wrong search,
  not a wrong table: an F that returns the bracket's lower end, one double
  low, fails it, and no older check sees that (every round trip F(f(r)) = r
  allows far more than one double).  ``bisection_inverse`` there, the
  table's F before its Newton search, is the search's bit-for-bit oracle.

The round sphere runs the reduced system, whose decode is its closed-form
great circle.  The tests that plant defects in the full system and judge
them on the round sphere route it through that system
(``sphere_on_the_full_path`` in ``conftest.py``).
"""
import math
import re
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

import singular_geodesics as sg
import test_acceptance as acceptance
import test_dop853 as parity
import test_geodesic_flow as flow
import test_warp_profiles as profiles
from singular_geodesics import (
    IntegrationError,
    QuadratureError,
    dop853,
    geodesic_flow,
    warp_profiles,
)
from singular_geodesics.cross_sections import CircleSection, SphereSection
from singular_geodesics.experiments import (
    closed_form_winding_length,
    limit_geodesic_test,
    verify_radial_bounds,
)

Y0, V0 = [math.pi / 2, 0.3], [math.sin(0.5), math.cos(0.5)]


def _patch_rhs(monkeypatch, change):
    """Build every full right-hand side as ``change(original, wf, cs, k,
    fd, fpd)``, with f(delta) = ``fd`` and f'(delta) = ``fpd``."""
    original = geodesic_flow._full_rhs

    def full_rhs(wf, cs, k, fd, fpd):
        return change(original, wf, cs, k, fd, fpd)
    monkeypatch.setattr(geodesic_flow, "_full_rhs", full_rhs)


def test_reversed_rotation_fails_only_the_limit_check(monkeypatch, sphere_on_the_full_path):
    wf, cs = sg.make_power_warp(2.0), sg.sphere_section()

    def checks():
        traj = sg.integrate_winding(wf, cs, 0.1, Y0, V0)
        limit = limit_geodesic_test(wf, cs, [0.1, 0.03], Y0, V0, tau_window=(-1.0, 1.0))
        length = sg.winding_length(traj) / closed_form_winding_length(wf, 0.1) - 1.0
        return traj.meta["shell_drift"], abs(length), limit.passed

    assert checks()[2]
    original = SphereSection.cometric

    def reversed_cometric(self, r, y, eta):
        # p = n x L instead of L x n
        sharp, norm2, qr_q, force = original(self, r, y, eta)
        return [-v for v in sharp], norm2, qr_q, force
    monkeypatch.setattr(SphereSection, "cometric", reversed_cometric)
    drift, length_err, limit_passed = checks()
    assert drift < 1e-9 and length_err < 1e-6
    assert not limit_passed


def test_dropped_torque_fails_the_shell_check(monkeypatch):
    wf, cs = sg.make_power_warp(2.0), sg.sphere_section((0.05, None))
    assert sg.integrate_winding(wf, cs, 0.1, Y0, V0).meta["shell_drift"] < 1e-9
    original = SphereSection.cometric

    def torque_free(self, r, y, eta):
        sharp, norm2, qr_q, _ = original(self, r, y, eta)
        return sharp, norm2, qr_q, [0.0, 0.0, 0.0]
    monkeypatch.setattr(SphereSection, "cometric", torque_free)
    with pytest.raises(IntegrationError, match="shell drift"):
        sg.integrate_winding(wf, cs, 0.1, Y0, V0)


def _shell_drift_error(wf, cs, y0, v0) -> float:
    """The shell drift that ``integrate`` refuses, read from its message."""
    with pytest.raises(IntegrationError, match="shell drift") as err:
        sg.integrate_winding(wf, cs, 0.15, y0, v0)
    return float(re.search(r"shell drift (\S+)", str(err.value)).group(1))


def test_flipped_circle_force_fails_the_shell_check(monkeypatch):
    wf, cs = sg.make_power_warp(1.5), sg.parse_section_spec("circle:6.283185307179586:pert=0.08")
    assert sg.integrate_winding(wf, cs, 0.15, [0.3], [1.0]).meta["shell_drift"] < 1e-9
    original = CircleSection.cometric

    def flipped(self, r, y, eta):
        sharp, norm2, qr_q, force = original(self, r, y, eta)
        return sharp, norm2, qr_q, [-v for v in force]
    monkeypatch.setattr(CircleSection, "cometric", flipped)
    assert _shell_drift_error(wf, cs, [0.3], [1.0]) > 1e-3


@pytest.mark.parametrize("section", ["circle:6.283185307179586",
                                     "circle:6.283185307179586:pert=0.08"])
def test_unsquared_shell_fails_the_shell_check(monkeypatch, section):
    wf, cs = sg.make_power_warp(1.5), sg.parse_section_spec(section)
    assert sg.integrate_winding(wf, cs, 0.15, [0.3], [1.0]).meta["shell_drift"] < 1e-9
    original = geodesic_flow._diagnostics

    def unsquared(wf, cs, log_fd, st):
        _, clairaut_rel, eta_norm, qr_q, rho = original(wf, cs, log_fd, st)
        # |eta|/f where the shell has |eta|^2/f^2
        return np.sin(st.theta) ** 2 + eta_norm / rho, clairaut_rel, eta_norm, qr_q, rho
    monkeypatch.setattr(geodesic_flow, "_diagnostics", unsquared)
    assert _shell_drift_error(wf, cs, [0.3], [1.0]) == pytest.approx(0.25, abs=1e-3)


@pytest.mark.parametrize("section, y0, v0", [("circle:6.283185307179586:pert=0.08", [0.3], [1.0]),
                                             ("sphere:pert=0.05", Y0, V0)])
def test_dropped_radial_log_derivative_fails_the_shell_check(monkeypatch, section, y0, v0):
    wf, cs = sg.make_power_warp(1.5), sg.parse_section_spec(section)

    def bounds_hold():
        traj = sg.integrate_winding(wf, cs, 0.15, y0, v0)
        return verify_radial_bounds(traj).passed and traj.meta["shell_drift"] < 1e-9

    assert bounds_hold()

    def without_qr(original, wf, cs, k, fd, fpd):
        # dtheta = f'/f cos(theta): the flow forgets q_r/q, the diagnostics do not
        def cometric(r, y, eta):
            sharp, norm2, _, force = cs.cometric(r, y, eta)
            return sharp, norm2, 0.0, force
        return original(wf, SimpleNamespace(cometric=cometric), k, fd, fpd)
    _patch_rhs(monkeypatch, without_qr)
    with pytest.raises(IntegrationError, match="shell drift"):
        bounds_hold()


def test_biased_clock_fails_the_length_oracle(monkeypatch, sphere_on_the_full_path):
    wf, cs = sg.make_power_warp(2.0), sg.sphere_section()
    oracle = closed_form_winding_length(wf, 0.1)

    def length_err():
        traj = sg.integrate_winding(wf, cs, 0.1, Y0, V0)
        return abs(sg.winding_length(traj) / oracle - 1.0)

    assert length_err() < 1e-6

    def biased(original, wf, cs, k, fd, fpd):
        rhs, reads = original(wf, cs, k, fd, fpd)

        def out(*s):
            derivative = list(rhs(*s))
            derivative[-1] *= 1.0 + 1e-5
            return derivative
        return out, reads
    _patch_rhs(monkeypatch, biased)
    err = length_err()
    assert err > 1e-6 and np.isclose(err, 1e-5, rtol=1e-3)


def _flat_cone_check():
    """Criterion 1's verdict and its r err."""
    said = []
    acceptance.test_criterion_01_flat_cone_closed_form(
        lambda name, ok, detail: said.append((ok, detail)), sg.make_power_warp(1.0),
        sg.circle_section(2 * math.pi))
    (ok, detail), = said
    return ok, float(re.search(r"r err (\S+)", detail).group(1))


def test_event_cut_step_length_fails_the_flat_cone_check(monkeypatch):
    original = geodesic_flow.solve_ivp

    def step_from_t(*args):
        # the last step's length taken from t, which the exit event cut short
        sol = original(*args)
        return sol._replace(h=np.diff(sol.t))
    monkeypatch.setattr(geodesic_flow, "solve_ivp", step_from_t)
    ok, r_err = _flat_cone_check()
    assert not ok and r_err > 1e-8


def test_scaled_solution_weight_fails_the_flat_cone_check_not_the_length_oracle(
        monkeypatch, sphere_on_the_full_path):
    B = dop853.B.copy()
    B[5] *= 1.0 + 1e-6
    monkeypatch.setattr(dop853, "B", B)
    ok, r_err = _flat_cone_check()
    assert not ok and r_err > 1e-8
    wf, cs = sg.make_power_warp(2.0), sg.sphere_section()
    traj = sg.integrate_winding(wf, cs, 0.1, Y0, V0)
    assert abs(sg.winding_length(traj) / closed_form_winding_length(wf, 0.1) - 1.0) < 1e-6


def test_scaled_dense_output_coefficient_fails_the_flat_cone_check(monkeypatch):
    D = dop853.D.copy()
    D[0, 5] *= 1.0 + 1e-5
    monkeypatch.setattr(dop853, "D", D)
    ok, r_err = _flat_cone_check()
    assert not ok and r_err > 1e-8


def test_scaled_stage_coefficient_fails_the_scipy_parity_test(monkeypatch,
                                                              sphere_on_the_full_path):
    original = dop853.A
    A = list(original)
    A[7] = A[7].copy()
    a73 = A[7][3]
    A[7][3] = a73 * (1.0 + 1e-6)
    monkeypatch.setattr(dop853, "A", tuple(A))
    for case in sorted(parity.CASES):
        for args, ours in parity.record_runs(monkeypatch, case):
            assert "steps" in parity.mismatches(ours, parity.scipy_solve(*args)), case
    # a new row: the kernel cache keys a tableau by identity, not contents
    A[7] = A[7].copy()
    A[7][3] = math.nextafter(a73, math.inf)
    monkeypatch.setattr(dop853, "A", tuple(A))
    # the rounding of a run can absorb one ulp: the reduced runs' and the
    # perturbed circle's backward run (sign -1, the second) do
    runs = [run for case in ("perturbed_sphere_tau_stop", "round_sphere")
            for run in parity.record_runs(monkeypatch, case)]
    runs.append(parity.record_runs(monkeypatch, "perturbed_circle")[0])
    for args, ours in runs:
        assert "t" in parity.bit_mismatches(ours, parity.left_to_right_solve(*args))
    monkeypatch.setattr(dop853, "A", original)
    for case in sorted(parity.CASES):
        for args, ours in parity.record_runs(monkeypatch, case):
            assert parity.mismatches(ours, parity.scipy_solve(*args)) == [], case
            assert parity.bit_mismatches(ours, parity.left_to_right_solve(*args)) == [], case


def test_crossing_on_the_neighbouring_segment_fails_event_parity_and_t_of_tau(monkeypatch):
    stop_runs = [args for args in parity.PARITY_ARGS if len(args) > 7]
    traj = sg.integrate_winding(sg.make_power_warp(2.0),
                                *flow.T_OF_TAU_CASES["perturbed_circle"], dense_nodes=256)
    original = dop853.crossing

    def neighbouring(F, y0, t0, h, level, hi, xtol):
        # the step's polynomial read on the times of the segment before it,
        # so every crossing lands one step early
        return original(F, y0, t0 - h, h, level, hi - h, xtol)
    monkeypatch.setattr(dop853, "crossing", neighbouring)
    for args in stop_runs:
        ours = dop853.solve_ivp(*args)
        assert "t_events" in parity.mismatches(ours, parity.scipy_solve(*args))
        assert "t_events" in parity.bit_mismatches(ours, parity.left_to_right_solve(*args))
    assert "round trip" in flow.t_of_tau_faults(traj)
    monkeypatch.undo()
    for args in stop_runs:
        ours = dop853.solve_ivp(*args)
        assert parity.bit_mismatches(ours, parity.left_to_right_solve(*args)) == []
    assert flow.t_of_tau_faults(traj) == []


@pytest.mark.parametrize("bias", [1e-7, -1e-7])
def test_scaled_Cf_integrand_fails_criterion_2(monkeypatch, bias):
    original = warp_profiles.quad

    def biased_quad(integrand, *args, **kwargs):
        return original(lambda x: integrand(x) * (1.0 + bias), *args, **kwargs)
    monkeypatch.setattr(warp_profiles, "quad", biased_quad)
    # pi (cone) and 2 (expinv) are the ends of the range [2, pi] that
    # compute_Cf_detailed enforces to 1e-9, so either sign stops criterion 2
    # there, before its own comparisons
    with pytest.raises(QuadratureError, match=r"outside \[2, pi\]"):
        acceptance.test_criterion_02_length_constants(lambda *said: None)
    if bias < 0:
        # below pi the cone passes the range check; criterion 2 bounds its
        # distance to pi by 1e-8
        assert abs(sg.compute_Cf(sg.make_power_warp(1.0)) - math.pi) > 1e-8


def _parabola_slope_error(wf) -> float:
    """Largest relative error of df/dr at the cell midpoints of the table of
    s = z^2 against the exact parabola: r(z) = z sqrt(1+4z^2)/2 + asinh(2z)/4,
    inverted by Newton's method, and df/dr = 2z / sqrt(1+4z^2)."""
    x = np.array(wf.f.__self__.x)  # the table's knots
    r = 0.5 * (x[:-1] + x[1:])
    z = r.copy()  # r(z) >= z and r(z) is convex: Newton converges from above
    for _ in range(50):
        z -= (0.5 * z * np.sqrt(1 + 4 * z * z) + 0.25 * np.arcsinh(2 * z) - r) / np.sqrt(
            1 + 4 * z * z)
    exact = 2 * z / np.sqrt(1 + 4 * z * z)
    return float(np.max(np.abs(np.array([wf.f_prime(v) for v in r]) / exact - 1.0)))


def test_one_table_slope_off_fails_the_parabola_oracle(monkeypatch):
    def parabola():
        return sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0)

    assert _parabola_slope_error(parabola()) < 1e-8
    original = warp_profiles._C1Table

    class OneSlopeOff(original):
        def __init__(self, x, y, m):
            m = m.copy()
            m[len(m) // 2] *= 1.0 + 1e-4
            super().__init__(x, y, m)
    monkeypatch.setattr(warp_profiles, "_C1Table", OneSlopeOff)
    assert _parabola_slope_error(parabola()) > 1e-8


def test_scaled_arc_length_weights_fail_the_parabola_oracle_and_criterion_10(monkeypatch):
    monkeypatch.setattr(warp_profiles, "_GL_WEIGHTS", warp_profiles._GL_WEIGHTS * (1.0 + 1e-6))
    wf = sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0)
    assert _parabola_slope_error(wf) > 1e-8
    said = []
    acceptance.test_criterion_10_profile_conversion(
        lambda name, ok, detail: said.append((ok, detail)))
    (ok, detail), = said
    assert not ok
    assert float(re.search(r"line f=r/sqrt2 err (\S+)", detail).group(1)) > 1e-10


def test_inverse_one_bisection_step_low_fails_only_the_inverse_contract(monkeypatch):
    # F off by one double: the bracket's lower end, one double below the
    # least x with f(x) >= y, for every value inside a cell
    def parabola():
        return sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0)

    knots = np.array(parabola().f.__self__.y)
    ys = (0.5 * (knots[:-1] + knots[1:]))[::50].tolist() + [0.3 * knots[-1], 1e-9 * knots[-1]]
    rs = [1e-3, 0.1, 0.5, 1.0]
    assert profiles.inverse_faults(parabola(), ys) == []
    original = warp_profiles._C1Table.inverse

    def lower_end(self, y):
        x = original(self, y)
        if isinstance(y, np.ndarray):
            # the original runs this planted float call on each element
            return x
        i = bisect_right(self.y, y) - 1
        return math.nextafter(x, 0.0) if y != self.y[i] and i < len(self.x) - 1 else x
    monkeypatch.setattr(warp_profiles._C1Table, "inverse", lower_end)
    wf = parabola()
    assert profiles.inverse_faults(wf, ys) == ["float: not the least x",
                                               "array: not the least x"]
    # the older checks of F cannot see one double: the round trips
    # |F(f(r)) - r| <= 1e-13 of TestProfileTable and 1e-12 relative of
    # test_parabola, and the benchmark's F(f(r)) = r to 1e-10
    assert all(abs(wf.F(wf.f(r)) - r) <= 1e-13 for r in rs)
