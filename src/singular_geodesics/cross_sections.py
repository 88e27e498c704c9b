"""Cross-section metric families h_r on the link Y of the singularity.

Supported links: a circle of prescribed circumference and the round unit
2-sphere, each optionally deformed by a conformal factor, so every section is
h_r = q(r, y)^2 h0(y) with q = 1 + a*w(r, y).  A section exposes q with its
partials (``conformal``) and turns them into everything the geodesic flow
needs (``cometric``); without perturbation it also gives the closed-form
link path that decodes the reduced system (``h0_geodesic``).

A shape w is one function ``shape(r, point)`` returning ``(w, w_r,
grad w)``, written with the functions of ``straightline``, which follow
their operands' type: numpy on arrays that broadcast (the section's grid
check, the trajectory diagnostics), math on floats, and the recorder on
recorded values (the full-path right-hand side, which ``geodesic_flow``
traces once and compiles).  ``conformal`` and ``cometric`` have one
implementation for all three.

The circle is stored in its unwrapped angle phi with the covector eta.  The
sphere is stored in its embedding: a point n in R^3 and the angular momentum
L = n x p of its covector p; every sphere formula evaluates at n/|n|, and
|n|^2 - 1 and n.L are invariants of the flow (``ambient_residual``).  Input
on the sphere is given as spherical angles (psi, phi) and converted once
(``embed``).
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from . import dop853
from .dop853 import solve_ivp
from .errors import IntegrationError
from .straightline import cos, sin, sqrt

__all__ = [
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
]

# the first step of each reference-geodesic run; the step-size control takes
# over from there (on the 0.1 static-bump sphere over [0, 1.3], 178
# evaluations, against 167 with scipy's initial-step rule)
BASE_FIRST_STEP = 1e-2


# ---------------------------------------------------------------------------
# perturbation shapes: a shape is a scalar field w(r, y) on [0, R] x Y,
# given as its formula ``shape(r, point)``, which returns (w, d_r w,
# grad w).  On the circle the point is the angle phi and grad w is
# (d_phi w,).  On the sphere it is the unit embedding vector (n0, n1, n2)
# and grad w the ambient gradient in R^3; only its tangential part enters
# the flow (the normal part drops out of the cross product n x grad), so any
# smooth extension off the sphere works.


def default_circle_shape(r, phi):
    s, cos_phi = sin(r), cos(phi)
    return s * cos_phi, cos(r) * cos_phi, (-s * sin(phi),)


def default_sphere_shape(r, n):
    s = sin(r)
    return s * n[0] * n[2], cos(r) * n[0] * n[2], (s * n[2], s * 0.0, s * n[0])


def static_sphere_bump(r, n):
    """r-independent deformation: still a warped product (c = 0) but with a
    non-round h_0, so the numeric reference-geodesic path gets exercised."""
    return n[0] * n[2], 0.0, (n[2], 0.0, n[0])


# ---------------------------------------------------------------------------
# cross sections


# the numbers of a section, which its construction reads once: the grid
# checks set c_bound from them, and ``geodesic_flow`` traces a section's
# right-hand side once, with its amplitude, scale and shape as constants
_FIXED = frozenset({"dim", "circumference", "scale", "amplitude", "shape", "domain_radius",
                    "c_bound", "h0_is_standard"})


class CrossSection:
    """Common interface: a conformal metric h_r = q(r, y)^2 h0(y) on Y, given
    as ``conformal`` (q, q_r, dq) and ``cometric``.

    ``dim`` is the dimension of Y; the stored point ``y`` and covector
    ``eta`` may have more components (the sphere's live in R^3).  The
    defaults below serve sections stored in intrinsic coordinates.

    A section's numbers (``dim``, ``circumference``, ``scale``,
    ``amplitude``, ``shape``, ``domain_radius``, ``c_bound`` and
    ``h0_is_standard``) are fixed once its grid checks pass: assigning or
    deleting one raises AttributeError, since nothing built from the old
    values would see the new ones.  Build a new section instead.  Methods
    may still be replaced on an instance.
    """

    dim: int
    c_bound: float
    h0_is_standard: bool
    domain_radius: float
    amplitude: float

    def __setattr__(self, name, value):
        self._refuse(name)
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        self._refuse(name)
        object.__delattr__(self, name)

    def _refuse(self, name):
        if name in _FIXED and "_fixed" in self.__dict__:
            raise AttributeError(f"{type(self).__name__}.{name} is fixed at construction; "
                                 "build a new section")

    def conformal(self, r, y):
        """Return (q, d_r q, the gradient of q in y as a sequence), q = 1 + a*w,
        at a float ``r`` and floats ``y``, or at arrays that broadcast."""
        raise NotImplementedError

    def cometric(self, r, y, eta):
        """(sharp, |eta|^2, q_r/q, force) of the stored covector ``eta`` at
        (r, y): the flow of ``geodesic_flow`` is ydot = sharp/f^2 and
        etadot = force/f^2.  ``y`` and ``eta`` are sequences of floats (lists
        and tuples are the fast case) or, with an array ``r``, of arrays."""
        raise NotImplementedError

    def metric(self, r: float, y) -> np.ndarray:
        """The matrix of h_r at y, acting on vectors in the stored coordinates."""
        raise NotImplementedError

    def eta_norm(self, r: float, y, eta) -> float:
        return math.sqrt(self.cometric(r, np.atleast_1d(y), np.atleast_1d(eta))[1])

    def embed(self, y0, v0) -> Tuple[np.ndarray, np.ndarray]:
        """Stored point and vector of the input coordinates ``y0``, ``v0``."""
        return np.array(y0, dtype=float, ndmin=1), np.array(v0, dtype=float, ndmin=1)

    def covector(self, y, p) -> np.ndarray:
        """Stored covector of the covector ``p = metric(r, y) @ v``."""
        return p

    def ambient_residual(self, y: np.ndarray, eta: np.ndarray) -> float:
        """Largest drift of the constraints of the stored coordinates over the
        rows of ``y`` and ``eta``; intrinsic coordinates have none."""
        return 0.0

    def h0_distance(self, y1, y2):
        raise NotImplementedError

    def h0_geodesic(self, y, v, s, rate: float) -> np.ndarray:
        """Rows of the unit-speed geodesic of a standard h0 from the stored
        point ``y`` along the unit h0 velocity ``v``, at the arc lengths
        ``s / rate`` (tau_scaled / f'(delta), or tau / 1.0)."""
        raise NotImplementedError

    def _grid_checks(self, nodes):
        """Check 1/2 <= q <= 2 on 128 radii times the points ``nodes`` of Y
        in one array pass, naming the first bad point radius by radius; set
        ``c_bound`` (1.25 times the largest |q_r/q| seen) and
        ``h0_is_standard`` (w vanishes at r = 0, so h0 is the flat circle or
        the round sphere); require R*c < 1; and fix the section's numbers
        (``_FIXED``)."""
        a = self.amplitude
        if not math.isfinite(a):
            raise ValueError(f"perturbation amplitude {a!r} must be finite")
        if a == 0.0:
            self.c_bound = 0.0
            self.h0_is_standard = True
            self._fixed = True
            return
        radii = np.linspace(0.0, self.domain_radius, 128)
        w, w_r, _ = self.shape(radii[:, None], nodes.T)
        w = np.broadcast_to(w, (len(radii), len(nodes)))
        q = 1.0 + a * w
        bad = ~((0.5 <= q) & (q <= 2.0))
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"perturbation out of band: 1+a*w = {q[i, j]:.4g} outside [0.5, 2] "
                             f"at r={radii[i]:.3g}, y={np.round(nodes[j], 3)}")
        self.c_bound = 1.25 * float(np.max(np.abs(a * w_r) / q))
        self.h0_is_standard = float(np.max(np.abs(w[0]))) < 1e-15
        if self.domain_radius * self.c_bound >= 1.0:
            raise ValueError(
                f"R*c = {self.domain_radius * self.c_bound:.4g} >= 1: shrink R "
                "or the perturbation amplitude"
            )
        self._fixed = True


class CircleSection(CrossSection):
    """Circle of the given circumference in its angle phi (period 2*pi),
    stored unwrapped, so winding counts read directly; h0 = scale^2."""

    def __init__(
        self,
        circumference: float,
        amplitude: float = 0.0,
        shape: Optional[Callable] = None,
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
        self._grid_checks(np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False))

    def conformal(self, r, y):
        if self.amplitude == 0.0:
            return 1.0, 0.0, (0.0,)
        a = self.amplitude
        w, w_r, (w_phi,) = self.shape(r, y[0])
        return 1.0 + a * w, a * w_r, (a * w_phi,)

    def cometric(self, r, y, eta):
        """sharp = eta/(q^2 scale^2) and force = (q_phi/q)|eta|^2."""
        q, q_r, (q_phi,) = self.conformal(r, y)
        sharp = eta[0] / (q * q * (self.scale * self.scale))
        norm2 = eta[0] * sharp
        return [sharp], norm2, q_r / q, [q_phi / q * norm2]

    def metric(self, r, y):
        q = self.conformal(r, y)[0]
        return q * q * np.array([[self.scale * self.scale]])

    def h0_distance(self, y1, y2):
        """Distance along the circle of the points (rows) ``y1`` and ``y2``."""
        d = np.abs(np.asarray(y1, dtype=float)[..., 0] - np.asarray(y2, dtype=float)[..., 0])
        d = np.fmod(d, 2.0 * math.pi)
        return self.scale * np.minimum(d, 2.0 * math.pi - d)

    def h0_geodesic(self, y, v, s, rate):
        """phi = y + s / (rate scale), oriented by the sign of ``v``."""
        return (y[0] + math.copysign(1.0, v[0]) * s / (rate * self.scale))[:, None]


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _unit(y):
    n0, n1, n2 = y
    inv = 1.0 / sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    return n0 * inv, n1 * inv, n2 * inv


class SphereSection(CrossSection):
    """Unit 2-sphere stored as a point n in R^3 and the angular momentum
    L = n x p of its covector p."""

    def __init__(
        self,
        amplitude: float = 0.0,
        shape: Optional[Callable] = None,
        domain_radius: float = 1.5,
    ):
        if amplitude != 0.0 and shape is None:
            shape = default_sphere_shape
        self.dim = 2
        self.amplitude = amplitude
        self.shape = shape
        self.domain_radius = domain_radius
        self._grid_checks(_fibonacci_sphere(128))

    def conformal(self, r, y):
        """q, q_r and the ambient gradient a*grad w, all at n/|n|."""
        return self._conformal_at_unit(r, _unit(y))

    def _conformal_at_unit(self, r, n):
        """``conformal`` at a unit vector ``n``, which it does not normalise again."""
        if self.amplitude == 0.0:
            return 1.0, 0.0, (0.0, 0.0, 0.0)
        a = self.amplitude
        w, w_r, grad = self.shape(r, n)
        return 1.0 + a * w, a * w_r, [a * g for g in grad]

    def cometric(self, r, y, eta):
        """With n the unit vector of ``y`` and L = ``eta``: p = L x n,
        sharp = p/q^2, |eta|^2 = |p|^2/q^2 and force = (|eta|^2/q) n x grad q."""
        n = n0, n1, n2 = _unit(y)
        l0, l1, l2 = eta
        q, q_r, (g0, g1, g2) = self._conformal_at_unit(r, n)
        q2 = q * q
        p0, p1, p2 = l1 * n2 - l2 * n1, l2 * n0 - l0 * n2, l0 * n1 - l1 * n0
        norm2 = (p0 * p0 + p1 * p1 + p2 * p2) / q2
        k = norm2 / q
        return ([p0 / q2, p1 / q2, p2 / q2], norm2, q_r / q,
                [k * (n1 * g2 - n2 * g1), k * (n2 * g0 - n0 * g2), k * (n0 * g1 - n1 * g0)])

    def metric(self, r, y):
        """q^2 times the projection onto the tangent plane at n."""
        n = np.array(_unit(y))
        q = self.conformal(r, n)[0]
        return q * q * (np.eye(3) - np.outer(n, n))

    def embed(self, y0, v0):
        """n and the velocity in R^3 of spherical angles y0 = (psi, phi) (psi
        from e_z, phi from e_x toward e_y) moving at v0 = (dpsi, dphi)."""
        psi, phi = float(y0[0]), float(y0[1])
        sp, cp, sa, ca = math.sin(psi), math.cos(psi), math.sin(phi), math.cos(phi)
        n = np.array([sp * ca, sp * sa, cp])
        v = v0[0] * np.array([cp * ca, cp * sa, -sp]) + v0[1] * np.array([-sp * sa, sp * ca, 0.0])
        return n, v

    def covector(self, y, p):
        return np.cross(y, p)

    def ambient_residual(self, y, eta):
        """max over rows of ||n|^2 - 1| and |n.L|/(|n||L|)."""
        n2 = np.einsum("ij,ij->i", y, y)
        dot = np.einsum("ij,ij->i", y, eta)
        l2 = np.einsum("ij,ij->i", eta, eta)
        return float(max(np.max(np.abs(n2 - 1.0)), np.max(np.abs(dot) / np.sqrt(n2 * l2))))

    def h0_distance(self, y1, y2):
        """Great-circle distance of the points (rows) ``y1`` and ``y2``, by the
        chord: accurate near zero, unlike acos of the dot product."""
        n1, n2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
        chord = np.linalg.norm(n1 / np.linalg.norm(n1, axis=-1, keepdims=True)
                               - n2 / np.linalg.norm(n2, axis=-1, keepdims=True), axis=-1)
        return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))

    def h0_geodesic(self, y, v, s, rate):
        """The great circle n cos(tau) + v sin(tau), tau = s / rate."""
        tau = s / rate
        return np.outer(np.cos(tau), y) + np.outer(np.sin(tau), v)


# ---------------------------------------------------------------------------
# constructors per the CLI grammar


def circle_section(
    circumference: float,
    perturbation: Optional[Tuple[float, Callable]] = None,
    domain_radius: float = 1.5,
) -> CircleSection:
    a, shape = perturbation if perturbation is not None else (0.0, None)
    return CircleSection(circumference, a, shape, domain_radius)


def sphere_section(
    perturbation: Optional[Tuple[float, Callable]] = None,
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
        return CircleSection(float(parts[1]), _amplitude("circle", parts[2:]),
                             domain_radius=domain_radius)
    if parts[0] == "sphere":
        return SphereSection(_amplitude("sphere", parts[1:]), domain_radius=domain_radius)
    raise ValueError(f"unknown section spec: {spec!r}")


def _amplitude(kind: str, options) -> float:
    """The amplitude of the options of a ``kind`` spec, which may hold one
    "pert=<amplitude>"; 0.0 without one."""
    pert = None
    for extra in options:
        if not extra.startswith("pert="):
            raise ValueError(f"unknown {kind} option {extra!r}")
        if pert is not None:
            raise ValueError(f"{kind} spec sets pert= twice")
        pert = float(extra[5:])
    return 0.0 if pert is None else pert


# ---------------------------------------------------------------------------
# reference geodesics on (Y, h_0)


def _numeric_base_geodesic(cs: CrossSection, y: np.ndarray, v: np.ndarray,
                           taus: np.ndarray) -> np.ndarray:
    """Hamiltonian integration of the unit-speed geodesic of h_0 = h(0, .),
    one forward run per sign of tau, sampled at ``taus``; the system is
    autonomous and reversible, so tau < 0 runs forward over [0, |tau|] from
    the mirrored launch (y, -eta)."""
    k = len(y)

    def rhs(*x):
        sharp, _, _, force = cs.cometric(0.0, x[:k], x[k:])
        return sharp + force

    eta = cs.covector(y, cs.metric(0.0, y) @ v)
    out = np.empty((len(taus), k))
    out[taus == 0.0] = y
    for sign in (1.0, -1.0):
        side = sign * taus > 0.0
        if not side.any():
            continue
        s = sign * taus[side]
        sol = solve_ivp(rhs, float(s.max()), np.concatenate([y, sign * eta]), 1e-12, 1e-14,
                        BASE_FIRST_STEP)
        if sol.status < 0:
            raise IntegrationError(f"reference geodesic integration failed: {sol.message}")
        out[side] = dop853.evaluate(sol, s)[:k].T
    return out


def base_geodesic(cs: CrossSection, y0, v0, tau):
    """Points at the parameters ``tau`` (a scalar or an array) of the
    unit-speed geodesic of (Y, h_0), in the stored coordinates of
    ``Trajectory.y``: one row per entry of ``tau``.

    ``y0`` and ``v0`` are input coordinates (see ``CrossSection.embed``) with
    |v0| = 1 in h_0.  Closed forms (``CrossSection.h0_geodesic``) cover the
    flat circle and the round sphere; deformed base metrics take one numeric
    Hamiltonian integration per sign of tau.  A tau that is not finite
    raises ValueError.
    """
    y, v = cs.embed(y0, v0)
    speed = math.sqrt(float(v @ cs.metric(0.0, y) @ v))
    if abs(speed - 1.0) > 1e-9:
        raise ValueError(f"|v0| in h_0 is {speed:.6g}, expected 1")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau must be finite")
    if cs.h0_is_standard:
        out = cs.h0_geodesic(y, v, taus, 1.0)
    else:
        out = _numeric_base_geodesic(cs, y, v, taus)
    return out.reshape(np.shape(tau) + (len(y),))


def mean_curvature_scalar(cs: CrossSection, wf, r: float, y) -> float:
    """Scalar mean curvature of the level {r} x Y inside the warped space,
    -dim (f'/f + q_r/q) since h_r^-1 d_r h_r = 2 q_r/q."""
    q, q_r, _ = cs.conformal(r, np.atleast_1d(y))
    return -cs.dim * (wf.f_prime(r) / wf.f(r) + q_r / q)
