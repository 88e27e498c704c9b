import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import singular_geodesics as sg
from singular_geodesics import IntegrationError, cross_sections
from singular_geodesics.cross_sections import static_sphere_bump


class TestCircleSection:
    def test_flat_metric(self, flat_circle):
        h = flat_circle.metric(0.5, [1.0])
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(1.0)  # circumference 2*pi -> scale 1
        assert flat_circle.c_bound == 0.0
        assert flat_circle.h0_is_standard

    def test_scaled_circumference(self):
        cs = sg.circle_section(4.0)
        assert cs.metric(0.0, [0.0])[0, 0] == pytest.approx((4.0 / (2 * math.pi)) ** 2)
        assert cs.h0_distance([0.0], [math.pi]) == pytest.approx(2.0)

    def test_perturbed_c_bound(self):
        cs = sg.circle_section(2 * math.pi, perturbation=(0.1, None))
        assert cs.c_bound > 0.0
        assert cs.domain_radius * cs.c_bound < 1.0

    def test_degenerate_metric_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0.5, 2\]"):
            sg.circle_section(2 * math.pi, perturbation=(2.0, None))

    def test_h0_distance_wraps(self, flat_circle):
        assert flat_circle.h0_distance([0.1], [2 * math.pi + 0.1]) == pytest.approx(0.0, abs=1e-12)
        assert flat_circle.h0_distance([0.0], [1.5 * math.pi]) == pytest.approx(0.5 * math.pi)


def _sphere_frame(psi, phi):
    """n and the Jacobian (d n/d psi, d n/d phi) of spherical angles, written
    out here as an oracle independent of the package; complex input works."""
    sp, cp, sa, ca = np.sin(psi), np.cos(psi), np.sin(phi), np.cos(phi)
    n = np.array([sp * ca, sp * sa, cp])
    J = np.array([[cp * ca, -sp * sa], [cp * sa, sp * ca], [-sp, 0.0 * sp]])
    return n, J


class TestSphereSection:
    def test_round_metric(self, round_sphere):
        # pulled back by the angle Jacobian, h_r is diag(1, sin^2 psi)
        n, J = _sphere_frame(1.0, 0.3)
        h = round_sphere.metric(0.7, n)
        assert np.allclose(J.T @ h @ J, np.diag([1.0, math.sin(1.0) ** 2]))
        assert np.allclose(h @ n, 0.0)
        assert round_sphere.c_bound == 0.0

    def test_embed_matches_angle_frame(self, round_sphere):
        n, V = round_sphere.embed([1.1, -0.4], [0.3, 0.7])
        ref_n, J = _sphere_frame(1.1, -0.4)
        assert np.allclose(n, ref_n, rtol=0.0, atol=1e-15)
        assert np.allclose(V, J @ [0.3, 0.7], rtol=0.0, atol=1e-15)

    def test_h0_distance_chord(self, round_sphere):
        north, south = _sphere_frame(1e-9, 0.0)[0], _sphere_frame(math.pi - 1e-9, 0.0)[0]
        assert round_sphere.h0_distance(north, south) == pytest.approx(math.pi, abs=1e-8)
        a, b = _sphere_frame(math.pi / 2, 0.0)[0], _sphere_frame(math.pi / 2, 1.0)[0]
        assert round_sphere.h0_distance(a, b) == pytest.approx(1.0, rel=1e-12)
        # rows at a time, and points off the unit sphere count by direction
        assert np.allclose(round_sphere.h0_distance(np.array([a, 2.0 * a]), np.array([b, a])),
                           [1.0, 0.0], rtol=1e-12, atol=1e-15)

    def test_perturbed_admissible(self):
        cs = sg.sphere_section(perturbation=(0.1, None))
        assert 0.0 < cs.c_bound
        assert cs.domain_radius * cs.c_bound < 1.0

    def test_static_bump_is_warped_product(self):
        cs = sg.sphere_section(perturbation=(0.1, static_sphere_bump))
        assert cs.c_bound == 0.0
        assert not cs.h0_is_standard


def _counting(shape, calls):
    """``shape`` wrapped to record each call."""
    def counted(r, point):
        calls.append(type(r))
        return shape(r, point)
    return counted


def _grid_loop(a, shape, nodes):
    """The grid check one point at a time with ``math``: (c_bound,
    h0_is_standard), or the ValueError of the first degenerate point,
    radius by radius."""
    worst = 0.0
    for r in np.linspace(0.0, 1.5, 128):
        for y in nodes:
            w, w_r, _ = shape(float(r), y.tolist())
            q = 1.0 + a * w
            if not 0.5 <= q <= 2.0:
                raise ValueError(f"perturbation out of band: 1+a*w = {q:.4g} outside [0.5, 2] "
                                 f"at r={r:.3g}, y={np.round(y, 3)}")
            worst = max(worst, abs(a * w_r) / q)
    h0 = max(abs(shape(0.0, y.tolist())[0]) for y in nodes) < 1e-15
    return 1.25 * worst, h0


_CIRCLE_NODES = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
_SHAPES = {"sincos": (cross_sections.default_circle_shape, _CIRCLE_NODES),
           "sin_r_bump": (cross_sections.default_sphere_shape,
                          cross_sections._fibonacci_sphere(128)),
           "static_bump": (static_sphere_bump, cross_sections._fibonacci_sphere(128))}


class TestGridChecks:
    def test_one_shape_call_per_section(self):
        # the 128 x 128 grid is one broadcast evaluation, not one call per point
        calls = []
        sg.circle_section(2 * math.pi, (0.06, _counting(cross_sections.default_circle_shape,
                                                         calls)))
        sg.sphere_section((0.05, _counting(cross_sections.default_sphere_shape, calls)))
        assert calls == [np.ndarray, np.ndarray]

    @pytest.mark.parametrize("amplitude", [0.02, 0.1, 0.45, -0.6, 1.5])
    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_matches_pointwise_loop(self, name, amplitude):
        # the same arithmetic point by point, so c_bound agrees to the last
        # bit where np.sin and math.sin do (measured: identical on x86-64
        # with numpy 2.4); allowed: the one ulp either may be off
        shape, nodes = _SHAPES[name]
        section = SimpleNamespace(amplitude=amplitude, shape=shape, domain_radius=1.5)
        try:
            expected = _grid_loop(amplitude, shape, nodes)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                cross_sections.CrossSection._grid_checks(section, nodes)
            assert str(err.value) == str(exc)
            return
        cross_sections.CrossSection._grid_checks(section, nodes)
        assert section.h0_is_standard == expected[1]
        assert abs(section.c_bound - expected[0]) <= 2.0 * np.spacing(expected[0])


class TestFixedNumbers:
    NAMES = ("dim", "circumference", "scale", "amplitude", "shape", "domain_radius", "c_bound",
             "h0_is_standard")

    @pytest.mark.parametrize("spec", ["circle:6.283185307179586",
                                      "circle:6.283185307179586:pert=0.05", "sphere",
                                      "sphere:pert=0.05"])
    def test_assignment_after_construction_raises(self, spec):
        # the traced right-hand side and c_bound were built from the old
        # numbers, so an in-place edit would run with stale constants
        cs = sg.parse_section_spec(spec)
        before = dict(vars(cs))
        for name in self.NAMES:
            with pytest.raises(AttributeError, match="fixed at construction"):
                setattr(cs, name, 0.1)
            with pytest.raises(AttributeError, match="fixed at construction"):
                delattr(cs, name)
        assert vars(cs) == before

    @pytest.mark.parametrize("spec, y0, v0", [("circle:6.283185307179586:pert=0.05", [0.3], [1.0]),
                                              ("sphere:pert=0.05", [1.2, 0.4], [0.3, 0.8])])
    def test_a_copy_takes_wrapped_methods(self, spec, y0, v0):
        # as the benchmark's traced pass wraps a copy's methods
        cs = sg.parse_section_spec(spec)
        traced, calls = copy.copy(cs), []

        def cometric(r, y, eta):
            calls.append(type(r))
            return cs.cometric(r, y, eta)
        traced.cometric = cometric
        wf = sg.make_power_warp(2.0)
        ours = sg.integrate_winding(wf, traced, 0.2, y0, v0, dense_nodes=16)
        assert calls and traced.amplitude == cs.amplitude
        assert np.array_equal(ours.r, sg.integrate_winding(wf, cs, 0.2, y0, v0,
                                                           dense_nodes=16).r)


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
        n0 = _sphere_frame(*y0)[0]
        quarter = sg.base_geodesic(round_sphere, y0, v0, math.pi / 2)
        assert round_sphere.h0_distance(n0, quarter) == pytest.approx(math.pi / 2, rel=1e-9)
        full = sg.base_geodesic(round_sphere, y0, v0, 2 * math.pi)
        assert round_sphere.h0_distance(n0, full) == pytest.approx(0.0, abs=1e-9)
        taus = np.array([-1.0, 0.0, math.pi / 2])
        rows = sg.base_geodesic(round_sphere, y0, v0, taus)
        assert rows.shape == (3, 3)
        assert np.array_equal(rows[2], quarter)

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
        # a window of both signs: one integration per sign, sampled densely
        taus = np.array([-1.3, -0.2, 0.0, 0.5, 1.3])
        rows_num = sg.base_geodesic(cs_num, y0, v0, taus)
        rows_ref = sg.base_geodesic(cs_ref, y0, v0, taus)
        assert np.max(cs_ref.h0_distance(rows_num, rows_ref)) < 1e-7
        assert np.array_equal(rows_num[-1], a)

    @pytest.mark.parametrize("perturbation", [None, (0.1, static_sphere_bump)])
    def test_non_finite_tau_raises(self, perturbation):
        # the numeric path once returned uninitialised rows for a NaN tau
        cs = sg.sphere_section(perturbation)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                sg.base_geodesic(cs, [math.pi / 2, 0.0], [0.3, math.sqrt(1 - 0.09)],
                                 [0.5, bad])

    def test_numeric_failure_raises_integration_error(self, monkeypatch):
        def failed(*args, **kwargs):
            return SimpleNamespace(status=-1, message="forced failure")
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


def _angle_conformal(cs, r, y):
    """q, q_r and the partials of q in the angles y; on the sphere by the
    chain rule through the ambient gradient."""
    if cs.dim == 1:
        return cs.conformal(r, y)
    n, J = _sphere_frame(*y)
    q, q_r, grad = cs.conformal(r, n)
    return q, q_r, np.asarray(grad) @ J


def _dense_oracle(cs, r, y, eta):
    """sharp, |eta|^2, q_r/q and force in angle coordinates from h = q^2 h0
    as a matrix, its inverse and the analytic partials
    d_k h = 2 q q_k h0 + q^2 d_k h0."""
    q, q_r, q_y = _angle_conformal(cs, r, y)
    h0, dh0 = _h0_matrix(cs, y)
    sharp = np.linalg.inv(q * q * h0) @ eta
    norm2 = float(eta @ sharp)
    d_r = 2.0 * q * q_r * h0
    force = [0.5 * sharp @ (2.0 * q * q_y[k] * h0 + q * q * dh0[k]) @ sharp
             for k in range(cs.dim)]
    return sharp, norm2, float(sharp @ d_r @ sharp) / (2.0 * norm2), np.array(force)


def _angular_momentum(y, eta):
    """L = n x p for the angle covector eta: p is the tangent vector with
    p . d_k n = eta_k.  Linear in eta, and analytic in y for complex steps."""
    n, J = _sphere_frame(*y)
    return np.cross(n, J @ np.linalg.solve(J.T @ J, eta))


_KERNEL_SECTIONS = {
    "perturbed_circle": sg.circle_section(3.0, (0.1, None)),
    "round_sphere": sg.sphere_section(),
    "perturbed_sphere": sg.sphere_section((0.05, None)),
    "static_bump": sg.sphere_section((0.1, static_sphere_bump)),
}
_SPHERES = sorted(name for name, cs in _KERNEL_SECTIONS.items() if cs.dim == 2)


class TestCometric:
    @pytest.mark.parametrize("name", sorted(_KERNEL_SECTIONS))
    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.0, 1.5, allow_subnormal=False), psi=st.floats(0.2, math.pi - 0.2),
           phi=st.floats(-7.0, 7.0, allow_subnormal=False),
           eta=st.lists(st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
                        min_size=2, max_size=2))
    def test_matches_dense_matrix_formula(self, name, r, psi, phi, eta):
        # on the sphere the angle flow (ydot, etadot) is carried to (ndot, Ldot)
        # by the chain rule, with d L/d y taken by complex steps
        cs = _KERNEL_SECTIONS[name]
        if cs.dim == 1:
            y, eta = np.array([phi]), np.array(eta[:1])
        else:
            y, eta = np.array([psi, phi]), np.array(eta)
        ref_sharp, ref_norm2, ref_qr_q, ref_force = _dense_oracle(cs, r, y, eta)
        if cs.dim == 1:
            y_stored, eta_stored = y, eta
            size = np.abs(ref_force).max()
        else:
            y_stored, J = _sphere_frame(*y)
            eta_stored = _angular_momentum(y, eta)
            dL_dy = np.column_stack([_angular_momentum(y + 1e-20j * e, eta).imag / 1e-20
                                     for e in np.eye(2)])
            dL_deta = np.column_stack([_angular_momentum(y, e) for e in np.eye(2)])
            size = (np.abs(dL_dy).max() * np.abs(ref_sharp).max()
                    + np.abs(dL_deta).max() * np.abs(ref_force).max())
            ref_sharp, ref_force = J @ ref_sharp, dL_dy @ ref_sharp + dL_deta @ ref_force
        sharp, norm2, qr_q, force = cs.cometric(r, y_stored.tolist(), eta_stored.tolist())
        assert np.max(np.abs(np.array(sharp) - ref_sharp)) <= 1e-13 * np.abs(ref_sharp).max()
        assert norm2 == pytest.approx(ref_norm2, rel=1e-13)
        assert cs.eta_norm(r, y_stored, eta_stored) == pytest.approx(math.sqrt(ref_norm2),
                                                                      rel=1e-13)
        assert qr_q == pytest.approx(ref_qr_q, rel=1e-13)
        # the force terms may cancel; measure the error against their size,
        # and only absolutely once it falls below the smallest normal double
        scale = size + norm2 * np.abs(_angle_conformal(cs, r, y)[2]).max()
        assert np.max(np.abs(np.array(force) - ref_force)) <= 1e-13 * scale + np.finfo(float).tiny

    @pytest.mark.parametrize("name", _SPHERES)
    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.0, 1.5, allow_subnormal=False),
           n=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           length=st.floats(0.9, 1.1),
           w=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_sphere_matches_hamiltonian_gradient(self, name, r, n, length, w):
        # with H(n, L) = |L x n/|n||^2 / (2 q^2), the kernel is the flow
        # ndot = dH/dL x n/|n| and Ldot = dH/dn x n on the invariant set n.L = 0;
        # both gradients by central differences
        cs = _KERNEL_SECTIONS[name]
        n = np.array(n)
        assume(np.linalg.norm(n) > 0.1)
        n *= length / np.linalg.norm(n)
        L = np.cross(n, w)
        assume(np.linalg.norm(L) > 0.1)

        def hamiltonian(n, L):
            unit = n / np.linalg.norm(n)
            p = np.cross(L, unit)
            return float(p @ p) / (2.0 * cs.conformal(r, unit)[0] ** 2)

        def gradient(func):
            h = 1e-6
            return np.array([(func(h * e) - func(-h * e)) / (2.0 * h) for e in np.eye(3)])

        dH_dL = gradient(lambda d: hamiltonian(n, L + d))
        dH_dn = gradient(lambda d: hamiltonian(n + d, L))
        sharp, norm2, _, force = cs.cometric(r, n.tolist(), L.tolist())
        unit = n / np.linalg.norm(n)
        assert np.max(np.abs(np.array(sharp) - np.cross(dH_dL, unit))) <= 1e-8 * math.sqrt(norm2)
        assert np.max(np.abs(np.array(force) - np.cross(dH_dn, n))) <= 1e-8 * norm2


def _normalising_twice(cs, r, y, eta):
    """The sphere's ``conformal`` and ``cometric`` as they were written when
    ``cometric`` normalised its point itself and again inside ``conformal``;
    the bits that normalising once must keep."""
    def conformal(y):
        if cs.amplitude == 0.0:
            return 1.0, 0.0, (0.0, 0.0, 0.0)
        a = cs.amplitude
        w, w_r, grad = cs.shape(r, cross_sections._unit(y))
        return 1.0 + a * w, a * w_r, [a * g for g in grad]

    n0, n1, n2 = cross_sections._unit(y)
    l0, l1, l2 = eta
    q, q_r, (g0, g1, g2) = conformal(y)
    q2 = q * q
    p0, p1, p2 = l1 * n2 - l2 * n1, l2 * n0 - l0 * n2, l0 * n1 - l1 * n0
    norm2 = (p0 * p0 + p1 * p1 + p2 * p2) / q2
    k = norm2 / q
    return conformal(y), ([p0 / q2, p1 / q2, p2 / q2], norm2, q_r / q,
                          [k * (n1 * g2 - n2 * g1), k * (n2 * g0 - n0 * g2),
                           k * (n0 * g1 - n1 * g0)])


def _bits(value) -> list:
    """The bytes of every number in a nest of tuples and lists."""
    if isinstance(value, (tuple, list)):
        return [b for v in value for b in _bits(v)]
    return [np.asarray(value, dtype=float).tobytes()]


@pytest.mark.parametrize("name", _SPHERES)
def test_sphere_normalises_its_point_once_with_the_same_bits(name):
    cs = _KERNEL_SECTIONS[name]
    nodes = cross_sections._fibonacci_sphere(24)
    points = np.concatenate([length * nodes for length in (0.9, 1.0, 1.0 + 2e-16, 1.1)])
    momenta = np.cross(points, [0.3, -1.2, 0.7])
    radii = np.linspace(0.0, 1.4, len(points))
    for r, y, eta in zip(radii, points.tolist(), momenta.tolist()):
        old = _normalising_twice(cs, r, y, eta)
        assert _bits((cs.conformal(r, y), cs.cometric(r, y, eta))) == _bits(old)
    old = _normalising_twice(cs, radii, points.T, momenta.T)
    assert _bits((cs.conformal(radii, points.T), cs.cometric(radii, points.T, momenta.T))) \
        == _bits(old)


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

    @pytest.mark.parametrize("spec, message", [
        ("sphere:pert=inf", "must be finite"), ("sphere:pert=nan", "must be finite"),
        ("circle:6.28:pert=inf", "must be finite"), ("circle:6.28:pert=-inf", "must be finite"),
        ("circle:6.28:pert=nan", "must be finite"),
        ("circle:6.28:pert=0.05:pert=0.5", "twice"), ("sphere:pert=0.05:pert=0.05", "twice")])
    def test_non_finite_or_repeated_amplitude(self, spec, message):
        # a non-finite amplitude once reached the grid check, which computed
        # inf * 0 (a numpy warning, an error under this suite) and then
        # blamed "1+a*w = nan"; a repeated pert= took the last value
        with pytest.raises(ValueError, match=message):
            sg.parse_section_spec(spec)


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
        for cs, y, point in ((sg.circle_section(3.0, (0.1, None)), [0.7], [0.7]),
                             (sg.sphere_section((0.05, None)), [1.1, 0.4],
                              _sphere_frame(1.1, 0.4)[0])):
            for r in (0.2, 0.9):
                q, q_r, _ = _angle_conformal(cs, r, y)
                h0, _ = _h0_matrix(cs, y)
                trace = np.trace(np.linalg.inv(q * q * h0) @ (2.0 * q * q_r * h0))
                expected = -cs.dim * cusp_warp.f_prime(r) / cusp_warp.f(r) - 0.5 * trace
                assert sg.mean_curvature_scalar(cs, cusp_warp, r, point) == \
                    pytest.approx(expected, rel=1e-13)
