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
of the section (the sphere's point and angular momentum live in R^3).  Both
right-hand sides are generated by one builder: their slopes are traced once
on recorded values and run as straight-line float code (``_compiled_rhs``).
Each time direction is one run of the package's DOP853 (``dop853.solve_ivp``)
whose only stops are the exit at r = R and the optional tau stop.  A
trajectory keeps each run's ``dop853.Solution`` as it is, and a query is
``dop853.evaluate`` on it: one gather plus Horner's scheme, on the
components the query reads.  A radial line
is one straight segment of the same form.  Backward time is obtained from
the symmetry (t, theta, eta) -> (-t, -theta, -eta).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import dop853, straightline
from .cross_sections import CircleSection, CrossSection
from .dop853 import solve_ivp
from .errors import IntegrationError
from .warp_profiles import WarpingFunction

__all__ = [
    "GeodesicState",
    "Trajectory",
    "launch_winding",
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
# system inside the 1.25 R margin that _full_rhs tolerates
FULL_MAX_STEP_FRACTION = 0.25
# rows per write of Trajectory.to_csv: one format call per chunk, and a
# chunk's text stays small
CSV_CHUNK_ROWS = 256


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
    eta = cs.covector(y, (math.exp(wf.log_f(delta)) / norm) * (h @ v))
    sign = 1 if (v0[-1] >= 0 or cs.dim > 1) else -1
    return GeodesicState(t=0.0, r=delta, theta=0.0, y=y, eta=eta, wind_sign=sign)


# ---------------------------------------------------------------------------
# decoding the stepper's states


class States(NamedTuple):
    """Decoded trajectory states, one entry (or row) per query time."""

    r: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    eta: np.ndarray
    tau_scaled: np.ndarray


def _reduced_decode(y0: float, wind: int, fpd: float, scale: float, eta_comp: float):
    def decode(x, sign, tau_scaled):
        n = x.shape[1]
        if fpd > 0.0:
            y = y0 + wind * tau_scaled / (fpd * scale)
        else:
            # the unwrapped angle overflows double range; only scaled
            # quantities are meaningful here
            y = np.full(n, math.nan)
        return States(x[0], sign * x[1], y[:, None], np.full((n, 1), eta_comp),
                      tau_scaled)
    return decode


def _full_decode(k: int):
    def decode(x, sign, tau_scaled):
        # y and eta as C-contiguous rows: sums over a row, as in
        # ambient_residual's einsum, then add in the same order at any query
        return States(x[0], sign * x[1], np.ascontiguousarray(x[2:2 + k].T),
                      np.ascontiguousarray((sign * x[2 + k:2 + 2 * k]).T), tau_scaled)
    return decode


# ---------------------------------------------------------------------------
# trajectory container


def _stop(sol: dop853.Solution) -> Optional[str]:
    """What ended a run: "exit" at r = R, "tau" the tau stop, None a radial tip."""
    return next((name for name, t in zip(("exit", "tau"), sol.t_events) if len(t)), None)


class Trajectory:
    """Lifted geodesic: the stepper's run of each time direction and samples.

    ``runs`` holds one ``dop853.Solution`` per direction ``sign`` (1 for
    t >= 0, then -1): a forward run of the mirrored system in s = sign * t.
    The reduced system is identical under time reversal, so its one run
    fills both slots; a radial line is one straight segment per direction.
    A query evaluates each run it needs once, at |t|, and decodes once: the
    last state component times ``sign * tau_scale`` is tau_scaled, and
    ``decode(x, sign, tau_scaled)`` maps mirrored states ``x`` (one row per
    component, one column per query) and each query's ``sign`` to
    ``States``; these two differ between the systems.  ``r_of_t``,
    ``tau_of_t`` and ``tau_scaled_of_t`` evaluate only the component they
    return.

    Sample arrays are aligned with ``t`` (sorted, containing the minimum t=0
    for winding launches).  ``tau_scaled`` is f'(delta) * tau, which stays
    finite for warps whose absolute winding length overflows double
    precision.  The dense queries ``r_of_t``, ``tau_of_t``,
    ``tau_scaled_of_t`` and ``t_of_tau`` take a scalar or an array and raise
    ValueError outside the integrated span; ``state_at`` takes a scalar.
    """

    def __init__(self, wf: WarpingFunction, cs: CrossSection,
                 runs: Tuple[dop853.Solution, dop853.Solution], decode, tau_scale: float,
                 delta: Optional[float], log_fd: Optional[float], fpd: float,
                 wind_sign: int, meta: dict):
        self.wf, self.cs = wf, cs
        self.runs, self.decode, self.tau_scale = runs, decode, tau_scale
        self.delta = delta
        self.log_fd = log_fd  # log f(delta); None for radial trajectories
        self.fpd = fpd
        self.wind_sign = wind_sign
        self.meta = meta
        self.classification = "radial" if delta is None else "winding"
        self.t_min, self.t_max = -float(runs[1].t[-1]), float(runs[0].t[-1])
        stops = [_stop(sol) for sol in runs]
        self.exit_events = {
            "t_min": None if delta is None else 0.0,
            "t_exit_forward": self.t_max if stops[0] == "exit" else None,
            "t_exit_backward": self.t_min if stops[1] == "exit" else None,
            "truncated_by_tau": "tau" in stops,
        }

    # -- dense evaluation ---------------------------------------------------

    def _mirrored(self, t: np.ndarray, component=None):
        """The runs at |t|, one column per time (``component``'s row alone
        if given), and each time's sign: one ``dop853.evaluate`` per run
        that a time falls in, and one for the reduced path's shared run."""
        if not np.all((t >= self.t_min) & (t <= self.t_max)):
            raise ValueError(
                f"t outside the integrated span [{self.t_min:g}, {self.t_max:g}]")
        fwd, s = t >= 0, np.abs(t)
        parts = [(sol, mask) for sol, mask in zip(self.runs, (fwd, ~fwd)) if mask.any()]
        if len(parts) == 1 or self.runs[0] is self.runs[1]:
            x = dop853.evaluate(parts[0][0], s, component)
        else:
            rows = self.runs[0].coef.shape[1:2] if component is None else ()
            x = np.empty(rows + s.shape)
            for sol, mask in parts:
                x[..., mask] = dop853.evaluate(sol, s[mask], component)
        return x, np.where(fwd, 1.0, -1.0)

    def _tau_scaled(self, x_tau: np.ndarray, sign: np.ndarray) -> np.ndarray:
        return sign * x_tau * self.tau_scale

    def _evaluate(self, t: np.ndarray) -> States:
        x, sign = self._mirrored(t)
        return self.decode(x, sign, self._tau_scaled(x[-1], sign))

    def _query(self, t, values):
        """``values`` of the flat times, in the shape of ``t``."""
        arr = np.asarray(t, dtype=float)
        if arr.size == 0:
            return np.empty(arr.shape)
        out = values(arr.reshape(-1))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _tau(self, tau_scaled: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.fpd > 0.0:
                return tau_scaled / self.fpd
            return np.where(tau_scaled != 0.0, np.copysign(math.inf, tau_scaled), 0.0)

    def r_of_t(self, t):
        return self._query(t, lambda ts: self._mirrored(ts, 0)[0])

    def tau_scaled_of_t(self, t):
        return self._query(t, lambda ts: self._tau_scaled(*self._mirrored(ts, -1)))

    def tau_of_t(self, t):
        return self._query(t, lambda ts: self._tau(self._tau_scaled(*self._mirrored(ts, -1))))

    def t_of_tau(self, tau):
        """Invert the strictly increasing map t -> tau.

        A target's sign picks the time direction, and the target becomes a
        level of that run's tau column (the last state component), whose
        time ``dop853.level_times`` finds with ``dop853.crossing``, the
        routine that ends the stepper's runs at their stops.  Its bracket
        stops only at 4 ulp of the time (``xtol`` 1e-300): near the lowest
        point dtau/dt = f(delta)/f(r)^2 is large, so a looser stop in t
        would show as an error in tau.
        """
        lo, hi = self.tau[0], self.tau[-1]

        def times(targets):
            if not (np.all((targets >= lo) & (targets <= hi))
                    and math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"tau beyond available range [{lo:g}, {hi:g}]")
            out = np.empty(len(targets))
            for sol, sign, mask in zip(self.runs, (1, -1), (targets >= 0, targets < 0)):
                levels = np.abs(targets[mask]) * self.fpd / self.tau_scale
                out[mask] = sign * dop853.level_times(sol, -1, levels, 1e-300)
            return out
        return self._query(tau, times)

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
        (self.hamiltonian, self.clairaut_rel, self.eta_norm, self.qr_q,
         self.rho) = _diagnostics(self.wf, self.cs, self.log_fd, st)

    # -- export -------------------------------------------------------------

    def to_csv(self, path: str):
        """One row per sample; ``y*`` and ``eta*`` are the stored coordinates
        (on the sphere n and L in R^3).  The export-only columns ``clairaut``
        = f(r) cos(theta) and ``u`` = sign(sin theta) F(f(r) |sin theta|) are
        computed here, ``u`` with one array call of F.  Values are written as
        ``%.16g`` and rows end in CRLF, as ``csv.writer`` writes them."""
        k = self.y.shape[1]
        cols = (["t", "r", "theta"]
                + [f"y{i}" for i in range(k)]
                + [f"eta{i}" for i in range(k)]
                + ["hamiltonian", "clairaut", "tau", "rho", "u"])
        rows = np.column_stack([self.t, self.r, self.theta, self.y, self.eta,
                                self.hamiltonian, self.rho * np.cos(self.theta),
                                self.tau, self.rho, _u_column(self.wf, self.r, self.theta)])
        row = ",".join(["%.16g"] * len(cols)) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\r\n")
            for i in range(0, len(rows), CSV_CHUNK_ROWS):
                chunk = rows[i:i + CSV_CHUNK_ROWS]
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _u_column(wf: WarpingFunction, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sign(sin theta) F(f(r) |sin theta|) of log f(r) + log|sin theta|."""
    s = np.sin(theta)
    # log 0 = -inf, and 1/x overflows in the exp families' F at a subnormal
    # x, silently in their float form; F is defined on (0, f(R)], and x = 0
    # at the tip or where theta = 0
    with np.errstate(divide="ignore", over="ignore"):
        x = np.exp(_log_f(wf, r) + np.log(np.abs(s)))
        u, pos = np.zeros(len(x)), x > 0.0
        u[pos] = np.copysign(wf.F(x[pos]), s[pos])
    return u


def _log_f(wf: WarpingFunction, r: np.ndarray) -> np.ndarray:
    """log f at each radius; -inf at the tip r = 0 of a radial line."""
    out, pos = np.full(len(r), -math.inf), r > 0.0
    out[pos] = wf.log_f(r[pos])
    return out


def _diagnostics(wf: WarpingFunction, cs: CrossSection, log_fd: Optional[float],
                 st: States):
    """Per-sample (hamiltonian, clairaut_rel, eta_norm, qr_q, rho) of decoded
    states; ``qr_q`` is q_r/q, zero on the reduced and radial paths, and
    ``rho`` is f(r).

    The shell sin^2(theta) + |eta|^2/f(r)^2 and |eta| come from log|eta| -
    log f(r), which stays finite far below the double range of f: log|eta|
    is log f(delta) on the reduced path (|eta| is conserved there), half the
    log of ``cometric``'s |eta|^2 on the full path and -inf on a radial line."""
    r, theta, y, eta, _ = st
    n = len(r)
    log_f_r = _log_f(wf, r)
    qr_q = np.zeros(n)
    if log_fd is None:  # radial: eta = 0 and there is no lowest point
        log_eta = np.full(n, -math.inf)
    elif _is_reduced(cs):
        log_eta = np.full(n, log_fd)
    else:
        norm2, qr_q = cs.cometric(r, y.T, eta.T)[1:3]
        log_eta = 0.5 * np.log(norm2)
        qr_q = np.full(n, qr_q)  # the float 0.0 on sections without perturbation
    with np.errstate(over="ignore", invalid="ignore"):
        # eta = 0 makes |eta|/f(r) vanish, even at the tip r = 0
        log_ratio = np.where(log_eta > -math.inf, log_eta - log_f_r, -math.inf)
        hamiltonian = np.sin(theta) ** 2 + np.exp(2.0 * log_ratio)
        # Clairaut's f(r) cos(theta) = f(delta), relative and in logs: both
        # factors can individually leave double range
        clairaut_rel = np.zeros(n) if log_fd is None else np.expm1(
            log_f_r - log_fd + np.log(np.maximum(np.cos(theta), 1e-300)))
    return hamiltonian, clairaut_rel, np.exp(log_eta), qr_q, np.exp(log_f_r)


# ---------------------------------------------------------------------------
# the integrator


def _is_reduced(cs: CrossSection) -> bool:
    return isinstance(cs, CircleSection) and cs.amplitude == 0.0


def _first_step(wf: WarpingFunction, r0: float) -> float:
    return min(1e-3, 0.1 / max(wf.d_log_f(r0), 1.0))


# a flow's right-hand side: the domain guard, then the traced slopes
_RHS = """def factory(IntegrationError, r_max, {constants}):
    def rhs(t, {inputs}):
        if not 0.0 < x0 <= r_max:
            raise IntegrationError(f"r={{x0:g}} outside (0, R)")
        {lines}
        return {outputs}
    return rhs
"""


def _compiled_rhs(slopes, n, r_max):
    """``slopes`` of the ``n`` state components (r first) as straight-line
    float code behind the guard 0 < r <= ``r_max``: ``rhs(t, x0, ...,
    x{n-1})`` returns the n slopes as a tuple.

    The slopes run once on recorded values (``straightline``), and the
    lines they record are compiled once per source text, which depends only
    on which operations they perform: every constant, such as alpha, the
    amplitude or R, is an argument of the factory.  A warp callable that is
    not a formula (a profile table's, or the osc family's, whose log f is a
    brentq root) is called from the generated code on a float."""
    lines, outputs, constants = straightline.trace(slopes, n)
    source = _RHS.format(constants=", ".join(f"c{i}" for i in range(len(constants))),
                         inputs=", ".join(f"x{i}" for i in range(n)),
                         lines="\n        ".join(lines), outputs=", ".join(outputs))
    factory = dop853.compiled(source)["factory"]
    return factory(IntegrationError, r_max, *constants)


def _reduced_rhs(wf, log_fd, log_fpd):
    """Right-hand side of the reduced system in (r, theta, tau_scaled), for
    every r > 0: its steps reach far past R."""
    L0 = log_fpd + log_fd

    def slopes(x):
        r, th = x[0], x[1]
        return [straightline.sin(th),
                straightline.call(wf.d_log_f, r) * straightline.cos(th),
                straightline.exp(L0 - 2.0 * straightline.call(wf.log_f, r))]
    return _compiled_rhs(slopes, 3, math.inf)


def _full_rhs(wf, cs, k):
    """Right-hand side of the full system in (r, theta, y, eta, tau), with
    ``k`` components each in y and eta, for r up to 1.25 R: the stepper's
    trial points reach slightly past the exit."""
    def slopes(x):
        r, th = x[0], x[1]
        sharp, norm2, qr_q, force = cs.cometric(r, x[2:2 + k], x[2 + k:2 + 2 * k])
        fr = straightline.call(wf.f, r)
        f2 = fr * fr
        d_log_f = straightline.call(wf.d_log_f, r)
        return [straightline.sin(th), (d_log_f + qr_q) * straightline.cos(th),
                *[v / f2 for v in sharp + force], straightline.sqrt(norm2) / f2]
    return _compiled_rhs(slopes, 3 + 2 * k, 1.25 * wf.domain_radius)


def _mirror(start: GeodesicState, sign: int) -> np.ndarray:
    """The mirrored state (r, sign*theta, y, sign*eta, tau = 0) of ``start``."""
    return np.concatenate([[start.r, sign * start.theta], start.y, sign * start.eta, [0.0]])


def _run_branch(wf, rhs, x0, rtol, atol, tau_stop, max_step) -> dop853.Solution:
    """One forward run of the mirrored system from the lowest point until
    r = R or until the last state component (tau) reaches ``tau_stop``.  A
    right-hand side that fails on a state that blew up (``math``'s
    ValueError or OverflowError, as at an infinite angle) fails the run."""
    R = wf.domain_radius
    stops = [(0, R)] + ([] if tau_stop is None else [(-1, tau_stop)])
    try:
        sol = solve_ivp(rhs, 2.0 * R + 1.0, x0, rtol, atol, _first_step(wf, x0[0]), max_step,
                        stops)
    except (ValueError, OverflowError) as exc:
        raise IntegrationError(
            f"stepper failed: right-hand side raised {type(exc).__name__}: {exc}") from exc
    if sol.status < 0:
        raise IntegrationError(f"stepper failed: {sol.message}")
    if sol.status != 1:
        raise IntegrationError("trajectory truncated before exit at r=R")
    return sol


def integrate(
    wf: WarpingFunction,
    cs: CrossSection,
    start: GeodesicState,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    dense_nodes: int = 2048,
    tau_stop: Optional[float] = None,
) -> Trajectory:
    """Integrate a lifted geodesic from ``start`` until it exits at r = R.

    The backward time direction is produced by mirroring (theta, eta) ->
    (-theta, -eta) and running forward.
    ``tau_stop`` optionally terminates each run once |tau| exceeds it
    (the trajectory is then marked truncated).
    """
    checked = [("rtol", rtol), ("atol", atol)] + [("tau_stop", tau_stop)] * (tau_stop is not None)
    for name, value in checked:
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name}={value!r} must be finite and positive")
    R = wf.domain_radius
    if not 0.0 < start.r < R:
        raise IntegrationError(f"start r={start.r:g} outside (0, R)")

    log_fd = wf.log_f(start.r)
    eta_norm0 = cs.eta_norm(start.r, start.y, start.eta)
    launched_winding = abs(start.theta) < 1e-12
    is_radial = (not launched_winding) and eta_norm0 < RADIAL_ETA_FACTOR * max(
        math.exp(log_fd), 5e-324
    )
    if is_radial and abs(abs(math.sin(start.theta)) - 1.0) > 1e-9:
        raise IntegrationError("state with eta=0 must be radial (|sin theta| = 1)")

    if is_radial:
        return _radial_trajectory(wf, cs, start, dense_nodes)

    if not launched_winding:
        raise IntegrationError(
            "integrate expects either a radial state or a lowest-point state "
            "from launch_winding (theta = 0)"
        )
    delta = start.r
    # f'(delta) = f(delta) * (log f)'(delta): assemble its log from pieces so
    # the exponential families survive far below double-precision range
    log_fpd = log_fd + math.log(wf.d_log_f(delta))
    fpd = math.exp(log_fpd)

    reduced = _is_reduced(cs)
    if not reduced and math.exp(log_fd) == 0.0:
        raise IntegrationError(
            "f(delta) underflows double precision; only unperturbed circle "
            "sections support this regime"
        )

    if reduced:
        decode = _reduced_decode(start.y[0], start.wind_sign, fpd, cs.scale,
                                 start.wind_sign * cs.scale * math.exp(log_fd))
        # the reduced system integrates tau_scaled (tau_scale 1), so scale
        # the stop with it
        tau_scale = 1.0
        stop = None if tau_stop is None else tau_stop * fpd
        if stop == 0.0:
            raise ValueError(f"tau_stop={tau_stop!r} cannot stop this run: f'(delta) tau_stop "
                             "underflows double precision")
        run = _run_branch(wf, _reduced_rhs(wf, log_fd, log_fpd), [delta, 0.0, 0.0], rtol, atol,
                          stop, math.inf)
        # the reduced system is identical under time reversal, so both time
        # directions share one forward run
        runs = (run, run)
    else:
        k = len(start.y)
        decode, tau_scale, rhs = _full_decode(k), fpd, _full_rhs(wf, cs, k)
        runs = tuple(_run_branch(wf, rhs, _mirror(start, sign), rtol, atol, tau_stop,
                                 FULL_MAX_STEP_FRACTION * R) for sign in (1, -1))

    meta = {
        "warp": wf.label,
        "delta": delta,
        "R": R,
        "c_bound": cs.c_bound,
        "rtol": rtol,
        "atol": atol,
        "tau_stop": tau_stop,
        "path": "reduced" if reduced else "full",
        # one entry per stepper run; the reduced path's one run serves both
        # time directions
        "solver": [{"branch": name, "nfev": sol.nfev, "steps": len(sol.h),
                    "rejected": sol.rejected, "stop": _stop(sol),
                    "t_stop": sign * float(sol.t[-1])}
                   for name, sol, sign in zip(("both",) if reduced else ("forward", "backward"),
                                              runs, (1, -1))],
    }
    traj = Trajectory(wf, cs, runs, decode, tau_scale, delta, log_fd, fpd, start.wind_sign, meta)
    parts = [np.linspace(traj.t_min, traj.t_max, dense_nodes), np.array([0.0])]
    parts += [sign * sol.t for sol, sign in zip(runs, (1, -1))]
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


def _radial_trajectory(wf, cs, start, dense_nodes):
    """A radial line r = r0 + t*sin(theta), from r = 0 or R to r = R or 0:
    per direction one dense segment of unit step length whose only nonzero
    coefficient is the slope of r.  The direction that rises ends at its
    exit stop, the other at the tip."""
    R = wf.domain_radius
    sgn = 1.0 if math.sin(start.theta) > 0 else -1.0
    runs = []
    for sign in (1, -1):
        x0 = _mirror(start, sign)
        coef = np.zeros((8, len(x0), 1))
        coef[0, 0, 0] = slope = sign * sgn
        coef[7, :, 0] = x0
        end = R - start.r if slope > 0 else start.r
        runs.append(dop853.Solution(np.array([0.0, end]), 0, int(slope > 0), "",
                                    [np.array([end] if slope > 0 else [], dtype=float)],
                                    np.ones(1), coef, 0))
    traj = Trajectory(wf, cs, tuple(runs), _full_decode(len(start.y)), 1.0, None, None, 1.0,
                      start.wind_sign, {"warp": wf.label, "radial": True, "solver": []})
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
    A ``window`` reaching beyond the integrated tau range raises ValueError.
    """
    if traj.classification != "winding":
        raise ValueError("reparametrize_tau requires a winding trajectory")
    lo, hi = (traj.tau[0], traj.tau[-1]) if window is None else window
    out = copy.copy(traj)
    out._resample(traj.t_of_tau(np.linspace(lo, hi, n)))
    out.meta = {**traj.meta, "parametrization": "tau"}
    return out


def log_eta_rate(traj: Trajectory, i: int) -> float:
    """d/dt log|eta| = -sin(theta) q_r/q at sample i, from the metric data
    (not finite differences)."""
    return -math.sin(traj.theta[i]) * traj.qr_q[i]
