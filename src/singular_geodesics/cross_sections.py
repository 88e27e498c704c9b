"""Cross-section metric families h_r on the link Y of the singularity.

Supported links: a circle of prescribed circumference and the round unit
2-sphere, each optionally deformed by a conformal factor, so every section is
h_r = q(r, y)^2 h0(y) with q = 1 + a*w(r, y) and a diagonal h0.  A section
exposes q with its partials (``conformal``) and the diagonal of h0 with its
derivative (``h0_diagonal``); ``cometric`` turns them into everything the
geodesic flow needs.  The factor is defined through the embedding of Y
(angle for the circle, unit vector for the sphere) so that its value does not
depend on the chart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError

__all__ = [
    "CircleShape",
    "SphereShape",
    "CrossSection",
    "CircleSection",
    "SphereSection",
    "circle_section",
    "sphere_section",
    "base_geodesic",
    "mean_curvature_scalar",
    "parse_section_spec",
    "default_circle_shape",
    "default_sphere_shape",
    "static_sphere_bump",
    "chart_point",
    "chart_jacobian",
    "point_to_chart",
    "switch_chart",
]


# ---------------------------------------------------------------------------
# perturbation shapes


@dataclass(frozen=True)
class CircleShape:
    """Scalar field w(r, phi) on [0, R] x S^1 with analytic partials."""

    label: str
    value: Callable[[float, float], float]
    d_r: Callable[[float, float], float]
    d_phi: Callable[[float, float], float]


@dataclass(frozen=True)
class SphereShape:
    """Scalar field w(r, n) on [0, R] x S^2, n the unit embedding vector.

    ``grad`` is the ambient gradient in R^3; only its tangential part enters
    via the chain rule with chart Jacobians, so any smooth extension works.
    """

    label: str
    value: Callable[[float, np.ndarray], float]
    d_r: Callable[[float, np.ndarray], float]
    grad: Callable[[float, np.ndarray], np.ndarray]


default_circle_shape = CircleShape(
    label="sincos",
    value=lambda r, phi: math.sin(r) * math.cos(phi),
    d_r=lambda r, phi: math.cos(r) * math.cos(phi),
    d_phi=lambda r, phi: -math.sin(r) * math.sin(phi),
)

default_sphere_shape = SphereShape(
    label="sin_r_bump",
    value=lambda r, n: math.sin(r) * n[0] * n[2],
    d_r=lambda r, n: math.cos(r) * n[0] * n[2],
    grad=lambda r, n: math.sin(r) * np.array([n[2], 0.0, n[0]]),
)

# r-independent deformation: still a warped product (c = 0) but with a
# non-round h_0, so the numeric reference-geodesic path gets exercised.
static_sphere_bump = SphereShape(
    label="static_bump",
    value=lambda r, n: n[0] * n[2],
    d_r=lambda r, n: 0.0,
    grad=lambda r, n: np.array([n[2], 0.0, n[0]]),
)


# ---------------------------------------------------------------------------
# sphere charts

# chart 0: polar axis e_z, azimuth measured from e_x toward e_y;
# chart 1: rotated frame with polar axis e_x (X=e_y, Y=e_z, Z=e_x).
_CHART_FRAMES = (
    (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])),
)


def chart_point(chart: int, psi: float, phi: float) -> np.ndarray:
    X, Y, Z = _CHART_FRAMES[chart]
    sp = math.sin(psi)
    return sp * math.cos(phi) * X + sp * math.sin(phi) * Y + math.cos(psi) * Z


def chart_jacobian(chart: int, psi: float, phi: float) -> np.ndarray:
    """3x2 matrix of (d n/d psi, d n/d phi)."""
    X, Y, Z = _CHART_FRAMES[chart]
    cp, sp = math.cos(psi), math.sin(psi)
    ca, sa = math.cos(phi), math.sin(phi)
    d_psi = cp * ca * X + cp * sa * Y - sp * Z
    d_phi = sp * (-sa * X + ca * Y)
    return np.column_stack([d_psi, d_phi])


def point_to_chart(chart: int, n: np.ndarray) -> Tuple[float, float]:
    X, Y, Z = _CHART_FRAMES[chart]
    psi = math.acos(max(-1.0, min(1.0, float(n @ Z))))
    phi = math.atan2(float(n @ Y), float(n @ X))
    return psi, phi


def switch_chart(
    chart_from: int, y: np.ndarray, eta: np.ndarray, chart_to: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-express a point and a covector in the other rotation chart.

    Covector components transform with the coordinate vectors of the target
    chart expressed in the source chart, independently of any metric.
    """
    psi, phi = float(y[0]), float(y[1])
    n = chart_point(chart_from, psi, phi)
    psi2, phi2 = point_to_chart(chart_to, n)
    J_from = chart_jacobian(chart_from, psi, phi)
    J_to = chart_jacobian(chart_to, psi2, phi2)
    sp2 = math.sin(psi)
    eta_to = np.empty(2)
    for a in range(2):
        E = J_to[:, a]
        w_psi = float(E @ J_from[:, 0])
        w_phi = float(E @ J_from[:, 1]) / (sp2 * sp2)
        eta_to[a] = eta[0] * w_psi + eta[1] * w_phi
    return np.array([psi2, phi2]), eta_to


# thresholds: a chart is abandoned when its polar angle leaves this band
CHART_BAND_LO = math.pi / 4.0
CHART_BAND_HI = 3.0 * math.pi / 4.0


# ---------------------------------------------------------------------------
# cross sections


class CrossSection:
    """Common interface: a conformal metric h_r = q(r, y)^2 h0(y) on Y with a
    diagonal h0, given as ``conformal`` (q, q_r, q_y) and ``h0_diagonal``,
    plus chart data.

    Coordinates are stored unwrapped (cumulative angles); wrapping happens
    inside trigonometric evaluation only, so winding counts read directly.
    """

    dim: int
    chart: str
    c_bound: float
    domain_radius: float
    amplitude: float

    def conformal(self, r: float, y, chart: int = 0):
        """Return (q, d_r q, d_y q as a sequence) with q = 1 + a*w."""
        raise NotImplementedError

    def h0_diagonal(self, y):
        """Diagonal of h0 at y and its derivative in y[0]; h0 depends on no
        other coordinate and is the same in every chart."""
        raise NotImplementedError

    def metric(self, r: float, y, chart: int = 0) -> np.ndarray:
        """The matrix of h_r at y."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        q, _, _ = self.conformal(r, y, chart)
        return q * q * np.diag(self.h0_diagonal(y)[0])

    def cometric(self, r: float, y, eta, chart: int = 0):
        """(sharp, |eta|^2, q_r/q, force) of a covector ``eta`` at (r, y).

        sharp = h^-1 eta and force_k = sharp . d_k h . sharp / 2, which for
        h = q^2 h0 reads (q_k/q)|eta|^2 + q^2/2 sum_j d_k h0_j sharp_j^2.
        ``y`` and ``eta`` are sequences of length ``dim``; float lists are
        the fast case.
        """
        q, q_r, q_y = self.conformal(r, y, chart)
        h0, dh0 = self.h0_diagonal(y)
        q2 = q * q
        sharp = []
        norm2 = bend = 0.0
        for e, h, d in zip(eta, h0, dh0):
            s = e / (q2 * h)
            sharp.append(s)
            norm2 += e * s
            bend += d * s * s
        force = [qk / q * norm2 for qk in q_y]
        force[0] += 0.5 * q2 * bend
        return sharp, norm2, q_r / q, force

    def eta_norm(self, r: float, y, eta, chart: int = 0) -> float:
        return math.sqrt(self.cometric(r, np.atleast_1d(y), np.atleast_1d(eta), chart)[1])

    def h0_distance(self, y1, y2) -> float:
        raise NotImplementedError

    def _check_admissible(self):
        if self.domain_radius * self.c_bound >= 1.0:
            raise ValueError(
                f"R*c = {self.domain_radius * self.c_bound:.4g} >= 1: shrink R "
                "or the perturbation amplitude"
            )


class CircleSection(CrossSection):
    def __init__(
        self,
        circumference: float,
        amplitude: float = 0.0,
        shape: Optional[CircleShape] = None,
        domain_radius: float = 1.5,
    ):
        if not (math.isfinite(circumference) and circumference > 0):
            raise ValueError("circumference must be finite and positive")
        if amplitude != 0.0 and shape is None:
            shape = default_circle_shape
        self.dim = 1
        self.circumference = circumference
        self.scale = circumference / (2.0 * math.pi)  # phi has period 2*pi
        self.amplitude = amplitude
        self.shape = shape
        self.domain_radius = domain_radius
        self.chart = "circle angle phi, period 2*pi, unwrapped"
        self._grid_checks()
        self._check_admissible()

    def _grid_checks(self):
        a, w = self.amplitude, self.shape
        if a == 0.0 or w is None:
            self.c_bound = 0.0
            self.h0_is_flat = True
            return
        rs = np.linspace(0.0, self.domain_radius, 128)
        phis = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        worst = 0.0
        for r in rs:
            for phi in phis:
                q = 1.0 + a * w.value(r, phi)
                if not 0.5 <= q <= 2.0:
                    raise ValueError(
                        f"degenerate metric: 1+a*w = {q:.4g} at (r={r:.3g}, phi={phi:.3g})"
                    )
                worst = max(worst, abs(a * w.d_r(r, phi)) / q)
        self.c_bound = 1.25 * worst
        self.h0_is_flat = max(abs(w.value(0.0, p)) for p in phis) < 1e-15

    def conformal(self, r, y, chart=0):
        if self.amplitude == 0.0 or self.shape is None:
            return 1.0, 0.0, (0.0,)
        phi = float(y[0])
        a, w = self.amplitude, self.shape
        return 1.0 + a * w.value(r, phi), a * w.d_r(r, phi), (a * w.d_phi(r, phi),)

    def h0_diagonal(self, y):
        return (self.scale * self.scale,), (0.0,)

    def h0_distance(self, y1, y2) -> float:
        d = abs(float(np.atleast_1d(y1)[0]) - float(np.atleast_1d(y2)[0]))
        d = math.fmod(d, 2.0 * math.pi)
        return self.scale * min(d, 2.0 * math.pi - d)


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


class SphereSection(CrossSection):
    def __init__(
        self,
        amplitude: float = 0.0,
        shape: Optional[SphereShape] = None,
        domain_radius: float = 1.5,
    ):
        if amplitude != 0.0 and shape is None:
            shape = default_sphere_shape
        self.dim = 2
        self.amplitude = amplitude
        self.shape = shape
        self.domain_radius = domain_radius
        self.chart = (
            "two rotation charts (polar/azimuth), polar axes e_z and e_x, "
            f"switch band [{CHART_BAND_LO:.4f}, {CHART_BAND_HI:.4f}]"
        )
        self._grid_checks()
        self._check_admissible()

    def _grid_checks(self):
        a, w = self.amplitude, self.shape
        if a == 0.0 or w is None:
            self.c_bound = 0.0
            self.h0_is_round = True
            return
        rs = np.linspace(0.0, self.domain_radius, 128)
        nodes = _fibonacci_sphere(128)
        worst = 0.0
        for r in rs:
            for n in nodes:
                q = 1.0 + a * w.value(r, n)
                if not 0.5 <= q <= 2.0:
                    raise ValueError(
                        f"degenerate metric: 1+a*w = {q:.4g} at r={r:.3g}"
                    )
                worst = max(worst, abs(a * w.d_r(r, n)) / q)
        self.c_bound = 1.25 * worst
        self.h0_is_round = max(abs(w.value(0.0, n)) for n in nodes) < 1e-15

    def conformal(self, r, y, chart=0):
        if self.amplitude == 0.0 or self.shape is None:
            return 1.0, 0.0, (0.0, 0.0)
        a, w = self.amplitude, self.shape
        psi, phi = float(y[0]), float(y[1])
        n = chart_point(chart, psi, phi)
        J = chart_jacobian(chart, psi, phi)
        g = w.grad(r, n)
        return 1.0 + a * w.value(r, n), a * w.d_r(r, n), (a * (g @ J)).tolist()

    def h0_diagonal(self, y):
        sp, cp = math.sin(y[0]), math.cos(y[0])
        return (1.0, sp * sp), (0.0, 2.0 * sp * cp)

    def embed(self, y, chart: int = 0) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return chart_point(chart, float(y[0]), float(y[1]))

    def h0_distance(self, y1, y2, chart1: int = 0, chart2: int = 0) -> float:
        n1 = self.embed(y1, chart1)
        n2 = self.embed(y2, chart2)
        # chord-based angle: accurate near zero, unlike acos of the dot product
        chord = float(np.linalg.norm(n1 - n2))
        return 2.0 * math.asin(min(1.0, 0.5 * chord))


# ---------------------------------------------------------------------------
# constructors per the CLI grammar


def circle_section(
    circumference: float,
    perturbation: Optional[Tuple[float, CircleShape]] = None,
    domain_radius: float = 1.5,
) -> CircleSection:
    a, shape = perturbation if perturbation is not None else (0.0, None)
    return CircleSection(circumference, a, shape, domain_radius)


def sphere_section(
    perturbation: Optional[Tuple[float, SphereShape]] = None,
    domain_radius: float = 1.5,
) -> SphereSection:
    a, shape = perturbation if perturbation is not None else (0.0, None)
    return SphereSection(a, shape, domain_radius)


def parse_section_spec(spec: str, domain_radius: float = 1.5) -> CrossSection:
    """Parse "circle:6.2832", "circle:6.2832:pert=0.1", "sphere", "sphere:pert=0.05"."""
    parts = spec.split(":")
    if parts[0] == "circle":
        if len(parts) < 2:
            raise ValueError("circle spec needs a circumference, e.g. circle:6.2832")
        circ = float(parts[1])
        pert = None
        for extra in parts[2:]:
            if extra.startswith("pert="):
                pert = (float(extra[5:]), default_circle_shape)
            else:
                raise ValueError(f"unknown circle option {extra!r}")
        return circle_section(circ, pert, domain_radius)
    if parts[0] == "sphere":
        pert = None
        for extra in parts[1:]:
            if extra.startswith("pert="):
                pert = (float(extra[5:]), default_sphere_shape)
            else:
                raise ValueError(f"unknown sphere option {extra!r}")
        return sphere_section(pert, domain_radius)
    raise ValueError(f"unknown section spec: {spec!r}")


# ---------------------------------------------------------------------------
# reference geodesics on (Y, h_0)


def _numeric_base_geodesic(cs: CrossSection, y0: np.ndarray, v0: np.ndarray, tau: float):
    """Hamiltonian integration of the unit-speed geodesic of h_0 = h(0, .)."""
    dim = cs.dim
    chart = 0
    p = cs.metric(0.0, y0, chart) @ v0

    def rhs(_, state, ch):
        y_p = state.tolist()
        sharp, _, _, force = cs.cometric(0.0, y_p[:dim], y_p[dim:], ch)
        return sharp + force

    t0 = 0.0
    state = np.concatenate([np.asarray(y0, dtype=float), p])
    sign = 1.0 if tau >= 0 else -1.0
    remaining = abs(tau)
    while remaining > 0:
        events = []
        if dim == 2:
            def leave_band(_, s, ch):
                return min(s[0] - CHART_BAND_LO, CHART_BAND_HI - s[0])
            leave_band.terminal = True
            events.append(leave_band)
        sol = solve_ivp(
            rhs, (t0, t0 + sign * remaining), state, args=(chart,),
            method="DOP853", rtol=1e-12, atol=1e-14, events=events or None,
            dense_output=False,
        )
        if not sol.success:
            raise IntegrationError(f"reference geodesic integration failed: {sol.message}")
        state = sol.y[:, -1]
        remaining -= abs(sol.t[-1] - t0)
        t0 = sol.t[-1]
        if remaining <= 1e-13:
            break
        # hit the chart band edge: move to the other chart and continue
        y_new, eta_new = switch_chart(chart, state[:dim], state[dim:], 1 - chart)
        chart = 1 - chart
        state = np.concatenate([y_new, eta_new])
    y_final = state[:dim]
    if dim == 2 and chart != 0:
        y_final, _ = switch_chart(chart, y_final, state[dim:], 0)
    return y_final


def base_geodesic(cs: CrossSection, y0, v0, tau: float):
    """Point at parameter tau of the unit-speed geodesic of (Y, h_0).

    ``y0`` and ``v0`` are chart-0 coordinates/components with |v0| = 1 in h_0.
    Closed forms cover the flat circle and the round sphere; deformed base
    metrics fall back to numeric Hamiltonian integration with chart switching.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    h0 = cs.metric(0.0, y0, 0)
    speed = math.sqrt(float(v0 @ h0 @ v0))
    if abs(speed - 1.0) > 1e-9:
        raise ValueError(f"|v0| in h_0 is {speed:.6g}, expected 1")
    if isinstance(cs, CircleSection) and getattr(cs, "h0_is_flat", True):
        return np.array([y0[0] + tau * math.copysign(1.0 / cs.scale, v0[0])])
    if isinstance(cs, SphereSection) and getattr(cs, "h0_is_round", True):
        n0 = cs.embed(y0)
        V = chart_jacobian(0, float(y0[0]), float(y0[1])) @ v0
        n = math.cos(tau) * n0 + math.sin(tau) * V
        n /= np.linalg.norm(n)
        return np.array(point_to_chart(0, n))
    return _numeric_base_geodesic(cs, y0, v0, tau)


def mean_curvature_scalar(cs: CrossSection, wf, r: float, y, chart: int = 0) -> float:
    """Scalar mean curvature of the level {r} x Y inside the warped space,
    -dim (f'/f + q_r/q) since h_r^-1 d_r h_r = 2 q_r/q."""
    q, q_r, _ = cs.conformal(r, np.atleast_1d(y), chart)
    return -cs.dim * (wf.f_prime(r) / wf.f(r) + q_r / q)
