"""Integration of lifted geodesics of g = dr^2 + f(r)^2 h_r.

State variables are (r, theta, y, eta) with sin(theta) = rdot; the flow is

    rdot     = sin(theta)
    thetadot = (f'/f + q_r/q) cos(theta)
    ydot     = eta^sharp / f^2
    etadot   = sharp^T (d_y h) sharp / (2 f^2)

for h_r = q^2 h0 (see ``CrossSection.cometric``).

Two systems share one trajectory representation: a reduced 3-state system in
(r, theta, tau) for unperturbed circle sections, evaluated in log space so
the exponential cusp families work far below double-precision range of f,
and a full phase-space system for everything else, in the stored coordinates
of the section (the sphere's point and angular momentum live in R^3).  Each
time direction is one stepper run whose only events are the exit at r = R
and the optional tau stop.  Backward time is obtained from the symmetry
(t, theta, eta) -> (-t, -theta, -eta).
"""
from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .cross_sections import CircleSection, CrossSection
from .errors import IntegrationError
from .warp_profiles import WarpingFunction

__all__ = [
    "GeodesicState",
    "Trajectory",
    "launch_winding",
    "vector_field",
    "integrate",
    "integrate_winding",
    "classify",
    "winding_length",
    "normalized_winding_length",
    "reparametrize_tau",
    "log_eta_rate",
]

RADIAL_ETA_FACTOR = 1e-14
SHELL_DRIFT_LIMIT = 1e-6
# |dr/dt| <= 1, so steps of at most R/4 keep every trial stage of the full
# system inside the 1.25 R margin that vector_field tolerates
FULL_MAX_STEP_FRACTION = 0.25


@dataclass
class GeodesicState:
    """A phase-space point; ``y`` and ``eta`` are in the stored coordinates
    of the section (on the sphere n and L in R^3)."""

    t: float
    r: float
    theta: float
    y: np.ndarray
    eta: np.ndarray
    wind_sign: int = 1  # orientation hint, survives underflow of |eta|

    def __post_init__(self):
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float))


def launch_winding(
    wf: WarpingFunction, cs: CrossSection, delta: float, y0, v0
) -> GeodesicState:
    """State at the lowest point of a winding geodesic: t=0, r=delta, theta=0.

    eta is the h_delta-dual of f(delta) times the normalized direction, so
    |eta| = f(delta) and the unit-speed shell holds by construction.  ``y0``
    and ``v0`` are input coordinates with ``cs.dim`` components each, which
    ``cs.embed`` converts once: on the sphere they are the spherical angles
    (psi, phi) and their rates, and the state holds n and L = n x p in R^3.
    """
    if not 0.0 < delta < wf.domain_radius:
        raise ValueError(f"delta={delta:g} outside (0, R={wf.domain_radius:g})")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if not y0.shape == v0.shape == (cs.dim,):
        raise ValueError(f"y0 and v0 need {cs.dim} components each")
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(v0))):
        raise ValueError("y0 and v0 must be finite")
    y, v = cs.embed(y0, v0)
    h = cs.metric(delta, y)
    norm = math.sqrt(float(v @ h @ v))
    if norm == 0.0:
        raise ValueError("v0 must be nonzero")
    fd = math.exp(wf.log_f(delta)) if wf.log_f(delta) > -745 else 0.0
    eta = cs.covector(y, (fd / norm) * (h @ v))
    sign = 1 if (v0[-1] >= 0 or cs.dim > 1) else -1
    return GeodesicState(t=0.0, r=delta, theta=0.0, y=y, eta=eta, wind_sign=sign)


def vector_field(wf: WarpingFunction, cs: CrossSection, state: GeodesicState):
    """(dr, dtheta, dy, deta) of the lifted flow at a phase-space point."""
    k = len(state.y)
    x = np.concatenate([[state.r, state.theta], state.y, state.eta, [0.0]])
    dx = _full_rhs(wf, cs, k)(state.t, x)
    return dx[0], dx[1], np.array(dx[2:2 + k]), np.array(dx[2 + k:2 + 2 * k])


# ---------------------------------------------------------------------------
# dense branches


class States(NamedTuple):
    """Decoded trajectory states, one entry (or row) per query time."""

    r: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    eta: np.ndarray
    tau_scaled: np.ndarray


class DenseBranch:
    """One time direction of a trajectory, stored as one forward run of the
    mirrored system in s = |t|.

    Segment k of the piecewise dense solution, ``interpolants[k]``, covers
    [ts[k], ts[k+1]] with ts[0] = 0.  ``decode(x, sign)`` maps the mirrored
    states ``x`` (one column per query) to ``States``; it is the only part
    that differs between the reduced, full and radial systems.
    """

    def __init__(self, sign: int, decode, ts, interpolants, exited: bool,
                 stopped_by_tau: bool = False):
        self.sign = sign
        self.decode = decode
        self.ts = np.asarray(ts, dtype=float)
        self.interpolants = interpolants
        self.exited = exited
        self.stopped_by_tau = stopped_by_tau

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def mirrored(self) -> "DenseBranch":
        """The same dense solution serving the other time direction."""
        other = copy.copy(self)
        other.sign = -self.sign
        return other

    def evaluate(self, s: np.ndarray) -> States:
        """Decoded states at the points ``s`` in [0, t_end] (a 1-D array)."""
        # a step point takes the earlier segment, as scipy's OdeSolution does
        seg = np.maximum(np.searchsorted(self.ts, s, side="left") - 1, 0)
        order = np.argsort(seg, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(seg[order])) + 1)
        by_segment = np.hstack([self.interpolants[seg[idx[0]]](s[idx]) for idx in groups])
        x = np.empty_like(by_segment)
        x[:, order] = by_segment
        return self.decode(x, self.sign)


class _Line:
    """Dense output of the radial flow in the mirrored time s: r0 + slope*s."""

    def __init__(self, r0: float, slope: float):
        self.r0, self.slope = r0, slope

    def __call__(self, s):
        return (self.r0 + self.slope * np.asarray(s))[None, :]


def _reduced_decode(y0: float, wind: int, fpd: float, scale: float, eta_comp: float):
    def decode(x, sign):
        n = x.shape[1]
        tau_scaled = sign * x[2]
        if fpd > 0.0:
            y = y0 + wind * tau_scaled / (fpd * scale)
        else:
            # the unwrapped angle overflows double range; only scaled
            # quantities are meaningful here
            y = np.full(n, math.nan)
        return States(x[0], sign * x[1], y[:, None], np.full((n, 1), eta_comp),
                      tau_scaled)
    return decode


def _full_decode(k: int, fpd: float):
    def decode(x, sign):
        return States(x[0], sign * x[1], x[2:2 + k].T, sign * x[2 + k:2 + 2 * k].T,
                      sign * x[-1] * fpd)
    return decode


def _radial_decode(start: GeodesicState):
    def decode(x, sign):
        n = x.shape[1]
        return States(x[0], np.full(n, start.theta), np.tile(start.y, (n, 1)),
                      np.zeros((n, len(start.y))), np.zeros(n))
    return decode


# ---------------------------------------------------------------------------
# trajectory container


class Trajectory:
    """Lifted geodesic: one DenseBranch per time direction and samples of it.

    ``forward`` serves t >= 0 and ``backward`` t < 0; either may be None.
    Sample arrays are aligned with ``t`` (sorted, containing the minimum t=0
    for winding launches).  ``tau_scaled`` is f'(delta) * tau, which stays
    finite for warps whose absolute winding length overflows double
    precision.  The dense queries ``r_of_t``, ``tau_of_t``,
    ``tau_scaled_of_t`` and ``t_of_tau`` take a scalar or an array and raise
    ValueError outside the integrated span; ``state_at`` takes a scalar.
    """

    def __init__(self, wf: WarpingFunction, cs: CrossSection,
                 forward: Optional[DenseBranch], backward: Optional[DenseBranch],
                 delta: Optional[float], log_fd: Optional[float], fpd: float,
                 wind_sign: int, meta: dict):
        self.wf, self.cs = wf, cs
        self.forward, self.backward = forward, backward
        self.delta = delta
        self.log_fd = log_fd  # log f(delta); None for radial trajectories
        self.fpd = fpd
        self.wind_sign = wind_sign
        self.meta = meta
        self.classification = "radial" if delta is None else "winding"
        self.t_min = -backward.t_end if backward is not None else 0.0
        self.t_max = forward.t_end if forward is not None else 0.0
        self.exit_events = {
            "t_min": None if delta is None else 0.0,
            "t_exit_forward": self.t_max if forward is not None and forward.exited else None,
            "t_exit_backward": self.t_min if backward is not None and backward.exited else None,
            "truncated_by_tau": any(b.stopped_by_tau for b in (forward, backward)
                                    if b is not None),
        }

    # -- dense evaluation ---------------------------------------------------

    def _evaluate(self, t: np.ndarray) -> States:
        if not np.all((t >= self.t_min) & (t <= self.t_max)):
            raise ValueError(
                f"t outside the integrated span [{self.t_min:g}, {self.t_max:g}]")
        fwd = t >= 0 if self.forward is not None else np.zeros(len(t), dtype=bool)
        parts = [(branch.evaluate(np.abs(t[mask])), mask)
                 for branch, mask in ((self.forward, fwd), (self.backward, ~fwd))
                 if mask.any()]
        out = States(*(np.empty((len(t),) + col.shape[1:]) for col in parts[0][0]))
        for st, mask in parts:
            for dst, src in zip(out, st):
                dst[mask] = src
        return out

    def _query(self, t, pick):
        arr = np.asarray(t, dtype=float)
        if arr.size == 0:
            return np.empty(arr.shape)
        values = pick(self._evaluate(arr.reshape(-1)))
        return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)

    def _tau(self, tau_scaled: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.fpd > 0.0:
                return tau_scaled / self.fpd
            return np.where(tau_scaled != 0.0, np.copysign(math.inf, tau_scaled), 0.0)

    def r_of_t(self, t):
        return self._query(t, lambda st: st.r)

    def tau_scaled_of_t(self, t):
        return self._query(t, lambda st: st.tau_scaled)

    def tau_of_t(self, t):
        return self._query(t, lambda st: self._tau(st.tau_scaled))

    def t_of_tau(self, tau):
        """Invert the strictly increasing map t -> tau.

        Each root is bracketed between neighbouring samples and bisected, all
        targets at once, until its bracket holds no double in between: near
        the lowest point dtau/dt = f(delta)/f(r)^2 is large, so a looser
        stop in t would show as an error in tau.
        """
        arr = np.asarray(tau, dtype=float)
        targets = arr.reshape(-1)
        if not (np.all((targets >= self.tau[0]) & (targets <= self.tau[-1]))
                and math.isfinite(self.tau[0]) and math.isfinite(self.tau[-1])):
            raise ValueError(
                f"tau beyond available range [{self.tau[0]:g}, {self.tau[-1]:g}]")
        k = np.clip(np.searchsorted(self.tau, targets), 1, len(self.t) - 1)
        lo, hi = self.t[k - 1], self.t[k]
        below, above = targets - self.tau[k - 1], self.tau[k] - targets
        while True:
            mid = 0.5 * (lo + hi)
            live = np.flatnonzero((below > 0) & (above > 0) & (mid > lo) & (mid < hi))
            if len(live) == 0:
                break
            gap = self._tau(self._evaluate(mid[live]).tau_scaled) - targets[live]
            rises = gap >= 0.0
            up, down = live[rises], live[~rises]
            hi[up], above[up] = mid[up], gap[rises]
            lo[down], below[down] = mid[down], -gap[~rises]
        out = np.where(below <= above, lo, hi)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def state_at(self, t: float) -> GeodesicState:
        st = self._evaluate(np.array([float(t)]))
        return GeodesicState(t, float(st.r[0]), float(st.theta[0]), st.y[0], st.eta[0],
                             wind_sign=self.wind_sign)

    def _resample(self, t: np.ndarray):
        """Set every per-sample array from the dense solution at times ``t``."""
        st = self._evaluate(t)
        self.t = t
        self.r, self.theta, self.y, self.eta, self.tau_scaled = st
        self.tau = self._tau(st.tau_scaled)
        (self.hamiltonian, self.clairaut, self.clairaut_rel, self.eta_norm,
         self.qr_q, self.rho, self.u) = _diagnostics(self.wf, self.cs, self.log_fd, st)

    # -- export -------------------------------------------------------------

    def to_csv(self, path: str):
        """One row per sample; ``y*`` and ``eta*`` are the stored coordinates
        (on the sphere n and L in R^3)."""
        k = self.y.shape[1]
        cols = (["t", "r", "theta"]
                + [f"y{i}" for i in range(k)]
                + [f"eta{i}" for i in range(k)]
                + ["hamiltonian", "clairaut", "tau", "rho", "u"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for i in range(len(self.t)):
                writer.writerow(
                    [f"{self.t[i]:.16g}", f"{self.r[i]:.16g}", f"{self.theta[i]:.16g}"]
                    + [f"{v:.16g}" for v in self.y[i]]
                    + [f"{v:.16g}" for v in self.eta[i]]
                    + [f"{self.hamiltonian[i]:.16g}", f"{self.clairaut[i]:.16g}",
                       f"{self.tau[i]:.16g}", f"{self.rho[i]:.16g}",
                       f"{self.u[i]:.16g}"]
                )


def _diagnostics(wf: WarpingFunction, cs: CrossSection, log_fd: Optional[float],
                 st: States):
    """Per-sample (hamiltonian, clairaut, clairaut_rel, eta_norm, qr_q, rho, u)
    of decoded states; ``qr_q`` is q_r/q, zero on the reduced and radial paths."""
    r, theta, y, eta, _ = st
    n = len(r)
    log_f_r = np.array([wf.log_f(x) if x > 0 else -math.inf for x in r])
    rho = np.where(log_f_r > -745, np.exp(np.maximum(log_f_r, -745)), 0.0)
    if log_fd is None:  # radial: eta = 0 and there is no lowest point
        zeros = np.zeros(n)
        return np.ones(n), zeros, zeros, zeros, zeros, rho, zeros

    if _is_reduced(cs):
        qr_q = np.zeros(n)
        with np.errstate(over="ignore"):
            log_eta = np.full(n, log_fd)
            eta_norm = np.where(log_eta > -745, np.exp(np.maximum(log_eta, -745)), 0.0)
            ratio2 = np.exp(2.0 * (log_fd - log_f_r))
            hamiltonian = np.sin(theta) ** 2 + ratio2
            # conservation holds in the product f(r)*cos(theta), so take the
            # log first: both factors can individually leave double range
            clairaut_rel = np.expm1(
                log_f_r - log_fd + np.log(np.maximum(np.cos(theta), 1e-300))
            )
            clairaut = rho * np.cos(theta)
    else:
        norm2, qr_q = np.array([cs.cometric(*row)[1:3] for row in zip(
            r.tolist(), y.tolist(), eta.tolist())]).T
        eta_norm = np.sqrt(norm2)
        hamiltonian = np.sin(theta) ** 2 + (eta_norm / rho) ** 2
        clairaut = rho * np.cos(theta)
        clairaut_rel = clairaut / math.exp(log_fd) - 1.0

    u = np.empty(n)
    for i in range(n):
        sth = math.sin(theta[i])
        la = log_f_r[i] + (math.log(abs(sth)) if abs(sth) > 0 else -math.inf)
        u[i] = 0.0 if la <= -745 else math.copysign(wf.F(math.exp(la)), sth)
    return hamiltonian, clairaut, clairaut_rel, eta_norm, qr_q, rho, u


# ---------------------------------------------------------------------------
# the integrator


def _is_reduced(cs: CrossSection) -> bool:
    return isinstance(cs, CircleSection) and cs.amplitude == 0.0


def _first_step(wf: WarpingFunction, r0: float) -> float:
    return min(1e-3, 0.1 / max(wf.d_log_f(r0), 1.0))


def _reduced_rhs(wf, log_fd, log_fpd):
    L0 = log_fpd + log_fd

    def rhs(_, s):
        r, th = s[0], s[1]
        return [math.sin(th),
                wf.d_log_f(r) * math.cos(th),
                math.exp(L0 - 2.0 * wf.log_f(r))]
    return rhs


def _full_rhs(wf, cs, k):
    """Right-hand side of the full system in (r, theta, y, eta, tau), with
    ``k`` components each in y and eta."""
    r_max = 1.25 * wf.domain_radius

    def rhs(_, s):
        x = s.tolist()
        r, th = x[0], x[1]
        # adaptive steppers probe trial points slightly past the exit event,
        # so tolerate a margin beyond R before declaring the state out of domain
        if not 0.0 < r <= r_max:
            raise IntegrationError(f"r={r:g} outside (0, R)")
        sharp, norm2, qr_q, force = cs.cometric(r, x[2:2 + k], x[2 + k:2 + 2 * k])
        f = wf.f(r)
        f2 = f * f
        return [math.sin(th), (wf.d_log_f(r) + qr_q) * math.cos(th),
                *[v / f2 for v in sharp + force], math.sqrt(norm2) / f2]

    return rhs


def _run_branch(wf, rhs, x0, sign, decode, rtol, atol, tau_stop, max_step):
    """One forward run of the mirrored system from the lowest point until
    r = R or until the last state component (tau) reaches ``tau_stop``."""
    R = wf.domain_radius

    def exit_event(_, s):
        return s[0] - R
    exit_event.terminal = True
    exit_event.direction = 1.0
    events = [exit_event]
    if tau_stop is not None:
        def tau_event(_, s):
            return s[-1] - tau_stop
        tau_event.terminal = True
        events.append(tau_event)

    sol = solve_ivp(
        rhs, (0.0, 2.0 * R + 1.0), x0,
        method="DOP853", rtol=rtol, atol=atol, dense_output=True, events=events,
        first_step=_first_step(wf, x0[0]), max_step=max_step,
    )
    if not sol.success:
        raise IntegrationError(f"stepper failed: {sol.message}")
    if sol.status != 1:
        raise IntegrationError("trajectory truncated before exit at r=R")
    return DenseBranch(sign, decode, sol.sol.ts, sol.sol.interpolants,
                       exited=len(sol.t_events[0]) > 0,
                       stopped_by_tau=tau_stop is not None and len(sol.t_events[1]) > 0)


def integrate(
    wf: WarpingFunction,
    cs: CrossSection,
    start: GeodesicState,
    direction: str = "both",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    dense_nodes: int = 2048,
    tau_stop: Optional[float] = None,
) -> Trajectory:
    """Integrate a lifted geodesic from ``start`` until it exits at r = R.

    ``direction`` is "forward", "backward" or "both"; the backward branch is
    produced by mirroring (theta, eta) -> (-theta, -eta) and running forward.
    ``tau_stop`` optionally terminates each branch once |tau| exceeds it
    (the trajectory is then marked truncated).
    """
    if direction not in ("forward", "backward", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name}={tol!r} must be finite and positive")
    signs = {"forward": (1,), "backward": (-1,), "both": (1, -1)}[direction]
    R = wf.domain_radius
    if not 0.0 < start.r < R:
        raise IntegrationError(f"start r={start.r:g} outside (0, R)")

    log_fd_at = wf.log_f(start.r)
    eta_norm0 = cs.eta_norm(start.r, start.y, start.eta)
    launched_winding = abs(start.theta) < 1e-12
    is_radial = (not launched_winding) and eta_norm0 < RADIAL_ETA_FACTOR * max(
        math.exp(log_fd_at), 5e-324
    )
    if is_radial and abs(abs(math.sin(start.theta)) - 1.0) > 1e-9:
        raise IntegrationError("state with eta=0 must be radial (|sin theta| = 1)")

    if is_radial:
        return _radial_trajectory(wf, cs, start, signs, dense_nodes)

    if not launched_winding:
        raise IntegrationError(
            "integrate expects either a radial state or a lowest-point state "
            "from launch_winding (theta = 0)"
        )
    delta = start.r
    log_fd = wf.log_f(delta)
    # f'(delta) = f(delta) * (log f)'(delta): assemble its log from pieces so
    # the exponential families survive far below double-precision range
    log_fpd = log_fd + math.log(wf.d_log_f(delta))
    fpd = math.exp(log_fpd) if log_fpd > -745 else 0.0

    reduced = _is_reduced(cs)
    if not reduced and math.exp(log_fd) == 0.0:
        raise IntegrationError(
            "f(delta) underflows double precision; only unperturbed circle "
            "sections support this regime"
        )

    if reduced:
        fd = math.exp(log_fd) if log_fd > -745 else 0.0
        decode = _reduced_decode(start.y[0], start.wind_sign, fpd, cs.scale,
                                 start.wind_sign * cs.scale * fd)
        rhs = _reduced_rhs(wf, log_fd, log_fpd)
        # the reduced system integrates tau_scaled, so scale the stop with it
        stop = tau_stop * fpd if tau_stop is not None and fpd > 0.0 else None
        fwd = _run_branch(wf, rhs, [delta, 0.0, 0.0], 1, decode, rtol, atol, stop,
                          math.inf)
        # the reduced system is identical under time reversal, so both
        # branches share one forward run
        branches = {sign: fwd if sign > 0 else fwd.mirrored() for sign in signs}
    else:
        k = len(start.y)
        decode = _full_decode(k, fpd)
        rhs = _full_rhs(wf, cs, k)
        branches = {}
        for sign in signs:
            x0 = np.concatenate([[start.r, sign * start.theta], start.y,
                                 sign * start.eta, [0.0]])
            branches[sign] = _run_branch(wf, rhs, x0, sign, decode, rtol, atol, tau_stop,
                                         FULL_MAX_STEP_FRACTION * R)

    meta = {
        "warp": wf.label,
        "delta": delta,
        "R": R,
        "c_bound": cs.c_bound,
        "rtol": rtol,
        "atol": atol,
        "tau_stop": tau_stop,
        "path": "reduced" if reduced else "full",
    }
    traj = Trajectory(wf, cs, branches.get(1), branches.get(-1), delta, log_fd, fpd,
                      start.wind_sign, meta)
    parts = [np.linspace(traj.t_min, traj.t_max, dense_nodes), np.array([0.0])]
    parts += [b.sign * b.ts for b in branches.values()]
    traj._resample(np.unique(np.concatenate(parts)))

    shell_drift = float(np.max(np.abs(traj.hamiltonian - 1.0)))
    if shell_drift > SHELL_DRIFT_LIMIT:
        raise IntegrationError(
            f"unit-speed shell drift {shell_drift:.3g} exceeds {SHELL_DRIFT_LIMIT:g}"
        )
    meta["shell_drift"] = shell_drift
    meta["ambient_residual"] = cs.ambient_residual(traj.y, traj.eta)
    return traj


def integrate_winding(wf, cs, delta, y0, v0, **kwargs) -> Trajectory:
    return integrate(wf, cs, launch_winding(wf, cs, delta, y0, v0), **kwargs)


def _radial_trajectory(wf, cs, start, signs, dense_nodes):
    """A radial line r = r0 + t*sin(theta), from r = 0 or R to r = R or 0."""
    R = wf.domain_radius
    sgn = 1.0 if math.sin(start.theta) > 0 else -1.0
    decode = _radial_decode(start)
    branches = {}
    for sign in signs:
        slope = sign * sgn
        branches[sign] = DenseBranch(sign, decode, [0.0, R - start.r if slope > 0 else start.r],
                                     [_Line(start.r, slope)], exited=slope > 0)
    traj = Trajectory(wf, cs, branches.get(1), branches.get(-1), None, None, 1.0,
                      start.wind_sign, {"warp": wf.label, "radial": True})
    traj._resample(np.linspace(traj.t_min, traj.t_max, max(dense_nodes, 2)))
    return traj


# ---------------------------------------------------------------------------
# classification, lengths, reparametrization


def classify(traj: Trajectory) -> str:
    """Radial iff eta vanishes (relative to f(r)) at every sample."""
    if len(traj.t) == 0:
        raise ValueError("empty trajectory")
    if traj.log_fd is not None and traj.log_fd <= -745:
        # |eta| = f(delta) is positive but below double range; still winding
        return "winding"
    # floor applied after the multiply: the product underflows where rho = 0
    small = traj.eta_norm <= np.maximum(RADIAL_ETA_FACTOR * traj.rho, 5e-324)
    if np.all(small):
        return "radial"
    if np.any(small):
        raise IntegrationError("mixed radial/winding evidence along trajectory")
    return "winding"


def _require_entry_to_exit(traj: Trajectory):
    if traj.exit_events.get("truncated_by_tau"):
        raise IntegrationError("trajectory truncated before exit; no full length")
    if traj.exit_events.get("t_exit_forward") is None or \
            traj.exit_events.get("t_exit_backward") is None:
        raise IntegrationError("trajectory does not span entry to exit")


def winding_length(traj: Trajectory) -> float:
    """Total angular length: final tau minus initial tau, as integrated."""
    if traj.classification != "winding":
        raise ValueError("winding_length requires a winding trajectory")
    _require_entry_to_exit(traj)
    return float(traj.tau[-1] - traj.tau[0])


def normalized_winding_length(traj: Trajectory) -> float:
    """f'(delta) times the winding length, finite even when the length is not."""
    _require_entry_to_exit(traj)
    return float(traj.tau_scaled[-1] - traj.tau_scaled[0])


def reparametrize_tau(traj: Trajectory, n: int = 512,
                      window: Optional[Tuple[float, float]] = None) -> Trajectory:
    """Resample a winding trajectory on a uniform tau grid.

    Its ``t`` holds the times t_of_tau of the grid and every other array is
    sampled there, so ``tau`` is uniform to the tolerance of the inversion.
    """
    if traj.classification != "winding":
        raise ValueError("reparametrize_tau requires a winding trajectory")
    lo = traj.tau[0] if window is None else window[0]
    hi = traj.tau[-1] if window is None else window[1]
    lo = max(lo, float(traj.tau[0]))
    hi = min(hi, float(traj.tau[-1]))
    out = copy.copy(traj)
    out._resample(traj.t_of_tau(np.linspace(lo, hi, n)))
    out.meta = {**traj.meta, "parametrization": "tau"}
    return out


def log_eta_rate(traj: Trajectory, i: int) -> float:
    """d/dt log|eta| = -sin(theta) q_r/q at sample i, from the metric data
    (not finite differences)."""
    return -math.sin(traj.theta[i]) * traj.qr_q[i]
