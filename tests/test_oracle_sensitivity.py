"""Planted defects: each check that judges the sphere's flow in (n, L) must
fail once one realistic defect is monkeypatched into the integrator, and
pass without it.  Sizes are reduced; the checks are the package's own.

What each oracle shares with the integrator (a defect in a shared input
fools both):

- The limit-geodesic check (``limit_geodesic_test``) compares with the
  closed form n cos(tau) + V sin(tau).  It shares only the conversion of the
  input angles (``SphereSection.embed``) and the clock tau with the flow.
  It is the only check here that sees the direction of rotation.
- The shell check |2H - 1| (``integrate``'s drift limit, criterion 5, the
  benchmark's |2H-1|) evaluates |eta|^2 with the same ``cometric`` that
  drives the flow.  It sees a flow that disagrees with its own norm (a
  dropped torque, a missing q_r/q), not a wrong norm, and not a reversed
  rotation, which keeps |eta|.
- The radial and eta bounds (``verify_radial_bounds``) read c from the
  section's grid check and q_r/q from the same ``cometric``.
- The length oracle ``closed_form_winding_length`` integrates the same
  ``wf.f`` as the integrator, so a wrong warp fools both; it sees a wrong
  clock (dtau) on a warped product.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

import singular_geodesics as sg
from singular_geodesics import IntegrationError, geodesic_flow
from singular_geodesics.cross_sections import SphereSection
from singular_geodesics.experiments import (
    closed_form_winding_length,
    limit_geodesic_test,
    verify_radial_bounds,
)

Y0, V0 = [math.pi / 2, 0.3], [math.sin(0.5), math.cos(0.5)]


def _patch_rhs(monkeypatch, change):
    """Build every full right-hand side as ``change(original, wf, cs, k)``."""
    original = geodesic_flow._full_rhs

    def full_rhs(wf, cs, k):
        return change(original, wf, cs, k)
    monkeypatch.setattr(geodesic_flow, "_full_rhs", full_rhs)


def test_reversed_rotation_fails_only_the_limit_check(monkeypatch):
    wf, cs = sg.make_power_warp(2.0), sg.sphere_section()

    def checks():
        traj = sg.integrate_winding(wf, cs, 0.1, Y0, V0)
        limit = limit_geodesic_test(wf, cs, [0.1, 0.03], Y0, V0, tau_window=(-1.0, 1.0),
                                    n_nodes=41)
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


@pytest.mark.parametrize("section, y0, v0", [("circle:6.283185307179586:pert=0.08", [0.3], [1.0]),
                                             ("sphere:pert=0.05", Y0, V0)])
def test_dropped_radial_log_derivative_fails_the_shell_check(monkeypatch, section, y0, v0):
    wf, cs = sg.make_power_warp(1.5), sg.parse_section_spec(section)

    def bounds_hold():
        traj = sg.integrate_winding(wf, cs, 0.15, y0, v0)
        return verify_radial_bounds(traj).passed and traj.meta["shell_drift"] < 1e-9

    assert bounds_hold()

    def without_qr(original, wf, cs, k):
        # dtheta = f'/f cos(theta): the flow forgets q_r/q, the diagnostics do not
        def cometric(r, y, eta):
            sharp, norm2, _, force = cs.cometric(r, y, eta)
            return sharp, norm2, 0.0, force
        return original(wf, SimpleNamespace(cometric=cometric), k)
    _patch_rhs(monkeypatch, without_qr)
    with pytest.raises(IntegrationError, match="shell drift"):
        bounds_hold()


def test_biased_clock_fails_the_length_oracle(monkeypatch):
    wf, cs = sg.make_power_warp(2.0), sg.sphere_section()
    oracle = closed_form_winding_length(wf, 0.1)

    def length_err():
        traj = sg.integrate_winding(wf, cs, 0.1, Y0, V0)
        return abs(sg.winding_length(traj) / oracle - 1.0)

    assert length_err() < 1e-6

    def biased(original, wf, cs, k):
        rhs = original(wf, cs, k)

        def out(t, s):
            derivative = rhs(t, s)
            derivative[-1] *= 1.0 + 1e-5
            return derivative
        return out
    _patch_rhs(monkeypatch, biased)
    err = length_err()
    assert err > 1e-6 and np.isclose(err, 1e-5, rtol=1e-3)
