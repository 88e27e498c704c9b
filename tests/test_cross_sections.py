import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import singular_geodesics as sg
from singular_geodesics import IntegrationError, cross_sections
from singular_geodesics.cross_sections import (
    chart_jacobian,
    chart_point,
    default_circle_shape,
    point_to_chart,
    static_sphere_bump,
    switch_chart,
)


class TestCircleSection:
    def test_flat_metric(self, flat_circle):
        h = flat_circle.metric(0.5, [1.0])
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(1.0)  # circumference 2*pi -> scale 1
        assert flat_circle.c_bound == 0.0
        assert flat_circle.h0_is_flat

    def test_scaled_circumference(self):
        cs = sg.circle_section(4.0)
        assert cs.metric(0.0, [0.0])[0, 0] == pytest.approx((4.0 / (2 * math.pi)) ** 2)
        assert cs.h0_distance([0.0], [math.pi]) == pytest.approx(2.0)

    def test_perturbed_c_bound(self):
        cs = sg.circle_section(2 * math.pi, perturbation=(0.1, None))
        assert cs.c_bound > 0.0
        assert cs.domain_radius * cs.c_bound < 1.0

    def test_degenerate_metric_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            sg.circle_section(2 * math.pi, perturbation=(2.0, None))

    def test_h0_distance_wraps(self, flat_circle):
        assert flat_circle.h0_distance([0.1], [2 * math.pi + 0.1]) == pytest.approx(0.0, abs=1e-12)
        assert flat_circle.h0_distance([0.0], [1.5 * math.pi]) == pytest.approx(0.5 * math.pi)


class TestSphereCharts:
    @settings(max_examples=40, deadline=None)
    @given(psi=st.floats(0.2, math.pi - 0.2), phi=st.floats(-3.0, 3.0),
           chart=st.integers(0, 1))
    def test_point_roundtrip(self, psi, phi, chart):
        n = chart_point(chart, psi, phi)
        assert np.linalg.norm(n) == pytest.approx(1.0)
        psi2, phi2 = point_to_chart(chart, n)
        n2 = chart_point(chart, psi2, phi2)
        assert np.allclose(n, n2, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(psi=st.floats(math.pi / 4 + 0.05, 3 * math.pi / 4 - 0.05),
           phi=st.floats(-3.0, 3.0))
    def test_switch_preserves_pairing(self, psi, phi):
        # a covector's pairing with any vector is chart independent
        cs = sg.sphere_section()
        y = np.array([psi, phi])
        eta = np.array([0.37, -0.61])
        v = np.array([1.1, 0.4])
        y1, eta1 = switch_chart(0, y, eta, 1)
        # push the vector through the embedding differentials
        J0 = chart_jacobian(0, psi, phi)
        J1 = chart_jacobian(1, y1[0], y1[1])
        v1 = np.linalg.lstsq(J1, J0 @ v, rcond=None)[0]
        assert float(eta @ v) == pytest.approx(float(eta1 @ v1), rel=1e-9)

    def test_switch_preserves_norm(self, round_sphere):
        y = np.array([math.pi / 2 - 0.3, 1.2])
        eta = np.array([0.4, 0.7])
        y1, eta1 = switch_chart(0, y, eta, 1)
        n0 = round_sphere.eta_norm(0.5, y, eta, chart=0)
        n1 = round_sphere.eta_norm(0.5, y1, eta1, chart=1)
        assert n0 == pytest.approx(n1, rel=1e-12)

    def test_h0_distance_chord(self, round_sphere):
        north = np.array([1e-9, 0.0])
        south = np.array([math.pi - 1e-9, 0.0])
        assert round_sphere.h0_distance(north, south) == pytest.approx(math.pi, abs=1e-8)
        a = np.array([math.pi / 2, 0.0])
        b = np.array([math.pi / 2, 1.0])
        assert round_sphere.h0_distance(a, b) == pytest.approx(1.0, rel=1e-12)


class TestSphereSection:
    def test_round_metric(self, round_sphere):
        y = np.array([1.0, 0.3])
        h = round_sphere.metric(0.7, y)
        assert np.allclose(h, np.diag([1.0, math.sin(1.0) ** 2]))
        assert round_sphere.c_bound == 0.0

    def test_perturbed_admissible(self):
        cs = sg.sphere_section(perturbation=(0.1, None))
        assert 0.0 < cs.c_bound
        assert cs.domain_radius * cs.c_bound < 1.0

    def test_static_bump_is_warped_product(self):
        cs = sg.sphere_section(perturbation=(0.1, static_sphere_bump))
        assert cs.c_bound == 0.0
        assert not cs.h0_is_round


class TestBaseGeodesic:
    def test_circle_advance(self, flat_circle):
        y = sg.base_geodesic(flat_circle, [0.5], [1.0], 1.2)
        assert y[0] == pytest.approx(1.7)
        y = sg.base_geodesic(flat_circle, [0.5], [-1.0], 1.2)
        assert y[0] == pytest.approx(-0.7)

    def test_unit_speed_enforced(self, flat_circle):
        with pytest.raises(ValueError, match="expected 1"):
            sg.base_geodesic(flat_circle, [0.0], [2.0], 1.0)

    def test_round_sphere_great_circle(self, round_sphere):
        y0 = [math.pi / 2, 0.0]
        v0 = [0.0, 1.0]  # unit since sin(pi/2) = 1
        quarter = sg.base_geodesic(round_sphere, y0, v0, math.pi / 2)
        assert round_sphere.h0_distance(y0, quarter) == pytest.approx(math.pi / 2, rel=1e-9)
        full = sg.base_geodesic(round_sphere, y0, v0, 2 * math.pi)
        assert round_sphere.h0_distance(y0, full) == pytest.approx(0.0, abs=1e-9)

    def test_numeric_fallback_matches_round(self):
        # amplitude zero through the static bump still flags h0 as non-round,
        # which forces the numeric path; it must agree with the closed form
        cs_num = sg.sphere_section(perturbation=(1e-12, static_sphere_bump))
        cs_ref = sg.sphere_section()
        y0, v0 = [math.pi / 2, 0.0], [0.3, math.sqrt(1 - 0.09)]
        tau = 1.3
        a = sg.base_geodesic(cs_num, y0, v0, tau)
        b = sg.base_geodesic(cs_ref, y0, v0, tau)
        assert cs_ref.h0_distance(a, b) == pytest.approx(0.0, abs=1e-7)

    def test_numeric_failure_raises_integration_error(self, monkeypatch):
        def failed(*args, **kwargs):
            return SimpleNamespace(success=False, message="forced failure")
        monkeypatch.setattr(cross_sections, "solve_ivp", failed)
        cs = sg.sphere_section(perturbation=(0.1, static_sphere_bump))
        with pytest.raises(IntegrationError, match="forced failure"):
            sg.base_geodesic(cs, [math.pi / 2, 0.0], [0.3, math.sqrt(1 - 0.09)], 1.0)


def _h0_matrix(cs, y):
    """h0 as a matrix and its partials d_k h0, written out per section."""
    if cs.dim == 1:
        return np.array([[cs.scale ** 2]]), [np.zeros((1, 1))]
    sp, cp = math.sin(y[0]), math.cos(y[0])
    return np.diag([1.0, sp * sp]), [np.diag([0.0, 2.0 * sp * cp]), np.zeros((2, 2))]


def _dense_oracle(cs, r, y, eta, chart):
    """sharp, |eta|^2, q_r/q and force from h = q^2 h0 as a matrix, its
    inverse and the analytic partials d_k h = 2 q q_k h0 + q^2 d_k h0."""
    q, q_r, q_y = cs.conformal(r, y, chart)
    h0, dh0 = _h0_matrix(cs, y)
    sharp = np.linalg.inv(q * q * h0) @ eta
    norm2 = float(eta @ sharp)
    d_r = 2.0 * q * q_r * h0
    force = [0.5 * sharp @ (2.0 * q * q_y[k] * h0 + q * q * dh0[k]) @ sharp
             for k in range(cs.dim)]
    return sharp, norm2, float(sharp @ d_r @ sharp) / (2.0 * norm2), np.array(force)


_KERNEL_SECTIONS = {
    "perturbed_circle": sg.circle_section(3.0, (0.1, None)),
    "round_sphere": sg.sphere_section(),
    "perturbed_sphere": sg.sphere_section((0.05, None)),
    "static_bump": sg.sphere_section((0.1, static_sphere_bump)),
}


class TestCometric:
    @pytest.mark.parametrize("name", sorted(_KERNEL_SECTIONS))
    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.0, 1.5, allow_subnormal=False), psi=st.floats(0.2, math.pi - 0.2),
           phi=st.floats(-7.0, 7.0, allow_subnormal=False), chart=st.integers(0, 1),
           eta=st.lists(st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
                        min_size=2, max_size=2))
    def test_matches_dense_matrix_formula(self, name, r, psi, phi, chart, eta):
        cs = _KERNEL_SECTIONS[name]
        if cs.dim == 1:
            y, eta, chart = np.array([phi]), np.array(eta[:1]), 0
        else:
            y, eta = np.array([psi, phi]), np.array(eta)
        sharp, norm2, qr_q, force = cs.cometric(r, y.tolist(), eta.tolist(), chart)
        ref_sharp, ref_norm2, ref_qr_q, ref_force = _dense_oracle(cs, r, y, eta, chart)
        assert np.allclose(sharp, ref_sharp, rtol=1e-13, atol=0.0)
        assert norm2 == pytest.approx(ref_norm2, rel=1e-13)
        assert cs.eta_norm(r, y, eta, chart) == pytest.approx(math.sqrt(ref_norm2), rel=1e-13)
        assert qr_q == pytest.approx(ref_qr_q, rel=1e-13)
        # the two force terms may cancel; measure the error against their size,
        # and only absolutely once it falls below the smallest normal double
        scale = np.abs(ref_force).max() + norm2 * max(abs(v) for v in cs.conformal(r, y, chart)[2])
        assert np.max(np.abs(np.array(force) - ref_force)) <= 1e-13 * scale + np.finfo(float).tiny


class TestParseSectionSpec:
    def test_specs(self):
        cs = sg.parse_section_spec("circle:6.2832")
        assert isinstance(cs, sg.CircleSection)
        cs = sg.parse_section_spec("circle:6.2832:pert=0.1")
        assert cs.amplitude == 0.1
        cs = sg.parse_section_spec("sphere")
        assert isinstance(cs, sg.SphereSection)
        cs = sg.parse_section_spec("sphere:pert=0.05")
        assert cs.amplitude == 0.05

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            sg.parse_section_spec("circle")
        with pytest.raises(ValueError):
            sg.parse_section_spec("torus")


class TestMeanCurvature:
    def test_cone_levels(self, cone_warp, flat_circle):
        # circles {r} x S^1 in the flat cone have curvature -1/r
        assert sg.mean_curvature_scalar(flat_circle, cone_warp, 0.5, [0.0]) == \
            pytest.approx(-2.0)
        assert sg.mean_curvature_scalar(flat_circle, cone_warp, 1.0, [0.0]) == \
            pytest.approx(-1.0)

    def test_cusp_blows_up_faster(self, cusp_warp, flat_circle):
        h_cusp = sg.mean_curvature_scalar(flat_circle, cusp_warp, 0.1, [0.0])
        h_cone = sg.mean_curvature_scalar(flat_circle, sg.make_power_warp(1.0), 0.1, [0.0])
        assert h_cusp < h_cone < 0.0

    def test_perturbed_matches_metric_trace(self, cusp_warp):
        # old formula: -dim f'/f - trace(h^-1 d_r h) / 2
        for cs, y in ((sg.circle_section(3.0, (0.1, None)), [0.7]),
                      (sg.sphere_section((0.05, None)), [1.1, 0.4])):
            for r in (0.2, 0.9):
                q, q_r, _ = cs.conformal(r, y)
                h0, _ = _h0_matrix(cs, y)
                trace = np.trace(np.linalg.inv(q * q * h0) @ (2.0 * q * q_r * h0))
                expected = -cs.dim * cusp_warp.f_prime(r) / cusp_warp.f(r) - 0.5 * trace
                assert sg.mean_curvature_scalar(cs, cusp_warp, r, y) == \
                    pytest.approx(expected, rel=1e-13)
