"""Verification campaigns: delta sweeps against the length constant, radial
bound checks, the comparison principle, and convergence to the reference
geodesic of the link."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cross_sections import (
    CrossSection,
    base_geodesic,
    circle_section,
    default_circle_shape,
    sphere_section,
)
from .errors import IntegrationError, NonOscillationError, QuadratureError
from .geodesic_flow import (
    Trajectory,
    _linspace,
    integrate_winding,
    normalized_winding_length,
    reparametrize_tau,
    winding_length,
)
from .warp_profiles import (
    WarpingFunction,
    WarpKind,
    compute_Cf,
    make_power_warp,
    profile_to_warp,
)

__all__ = [
    "SweepResult",
    "BoundsReport",
    "ComparisonReport",
    "LimitReport",
    "default_delta_ladder",
    "delta_sweep",
    "verify_radial_bounds",
    "comparison_test",
    "limit_geodesic_test",
    "figure1_data",
    "run_bounds_campaign",
    "run_comparison_campaign",
    "closed_form_winding_length",
]


# ---------------------------------------------------------------------------
# delta sweeps


@dataclass
class SweepResult:
    deltas: np.ndarray
    lengths: np.ndarray
    normalized: np.ndarray
    extrapolated_limit: float
    reference_Cf: float
    errors_rel: np.ndarray
    converged: bool
    note: str = ""


def default_delta_ladder(wf: WarpingFunction) -> np.ndarray:
    """Geometric ladder with ratio about 1/sqrt(10) from min(0.3, 0.6 R) down
    to 1e-4 for power-law warps and 1e-3 for the exponential families (f'
    underflows sooner)."""
    exp_like = ":" in wf.label and wf.label.split(":")[0] in ("expinv", "logpow")
    floor = 1e-3 if exp_like else 1e-4
    top = min(0.3, 0.6 * wf.domain_radius)
    n = max(2, int(round(2.0 * math.log10(top / floor))) + 1)
    return np.geomspace(top, floor, n)


def _aitken(values: Sequence[float]) -> float:
    """Aitken delta-squared on the last three entries; falls back to the last
    value when the increments do not support acceleration."""
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        return float(v[-1])
    d1 = v[-2] - v[-3]
    d2 = v[-1] - v[-2]
    denom = d2 - d1
    if denom == 0.0 or not np.isfinite(denom):
        return float(v[-1])
    acc = v[-1] - d2 * d2 / denom
    return float(acc) if np.isfinite(acc) else float(v[-1])


def _checked_ladder(wf: WarpingFunction, ladder: Sequence[float]) -> np.ndarray:
    """``ladder`` as an array; ValueError unless it is non-empty, finite,
    strictly decreasing and inside (0, R)."""
    deltas = np.asarray(ladder, dtype=float)
    if len(deltas) == 0:
        raise ValueError("delta ladder is empty")
    if not np.all(np.isfinite(deltas)):
        raise ValueError(f"delta ladder {deltas.tolist()!r} holds an entry that is not finite")
    if np.any(np.diff(deltas) >= 0):
        raise ValueError("delta ladder must be strictly decreasing")
    if np.any((deltas <= 0) | (deltas >= wf.domain_radius)):
        raise ValueError("deltas must lie in (0, R)")
    return deltas


def delta_sweep(
    wf: WarpingFunction,
    cs: CrossSection,
    delta_list: Optional[Sequence[float]] = None,
    y0=0.0,
    v0=1.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> SweepResult:
    """Measure winding lengths over a decreasing delta ladder and compare
    f'(delta) * length against the length constant; ``None`` takes
    ``default_delta_ladder``.  A ladder that is empty, not finite, not
    strictly decreasing or not inside (0, R) raises ValueError before any
    work."""
    deltas = _checked_ladder(wf, default_delta_ladder(wf) if delta_list is None else delta_list)

    note = ""
    try:
        reference_Cf = compute_Cf(wf)
    except (NonOscillationError, QuadratureError) as exc:
        reference_Cf = math.nan
        note = f"no reference constant: {exc}"

    def one(delta: float) -> Tuple[float, float]:
        try:
            traj = integrate_winding(wf, cs, delta, y0, v0, rtol=rtol, atol=atol,
                                     dense_nodes=256)
        except IntegrationError as exc:
            raise IntegrationError(f"delta={delta:g}: {exc}") from exc
        return winding_length(traj), normalized_winding_length(traj)

    results = [one(d) for d in deltas]
    lengths = np.array([rr[0] for rr in results])
    normalized = np.array([rr[1] for rr in results])

    extrapolated = _aitken(normalized)
    if math.isnan(reference_Cf):
        errors = np.full(len(deltas), math.nan)
        converged = False
        if not note:
            note = "no reference constant"
    else:
        errors = np.abs(normalized / reference_Cf - 1.0)
        tail = errors[-4:]
        converged = len(tail) >= 2 and bool(np.all(np.diff(tail) < 0))
        if not converged:
            note = note or "not converged: errors not decreasing over last 4 deltas"
    return SweepResult(
        deltas=deltas, lengths=lengths, normalized=normalized,
        extrapolated_limit=extrapolated, reference_Cf=float(reference_Cf),
        errors_rel=errors, converged=converged, note=note,
    )


# _length_integrand forms 1 - q^2 from log f where s^2 is below
# LENGTH_NEAR_END delta, and below the warp's first knot past delta, where
# 3-point Gauss-Legendre (nodes and weights on [0, 1]) integrates (log f)'
# over [delta, delta + s^2]; on (log f)' = alpha/r of a power warp to a
# relative 3.6e-4 (s^2/delta)^6, at most 4e-16
LENGTH_NEAR_END = 1e-2
_GAUSS3 = ((0.5 - math.sqrt(0.15), 5.0 / 18.0), (0.5, 8.0 / 18.0),
           (0.5 + math.sqrt(0.15), 5.0 / 18.0))


def _length_integrand(s: float, wf: WarpingFunction, delta: float, fd: float,
                      near: float) -> float:
    """f(delta) times the length integrand 2 s f(delta) / (f(r)^2 sqrt(1 -
    q^2)) at r = delta + s^2, where q = f(delta)/f(r) and ``fd`` =
    f(delta): 2 s q^2 / sqrt(1 - q^2), which depends on f only through q,
    so f(r)^2 never underflows it.  Where d = s^2 is at least ``near``, 1 -
    q^2 is (1 - q)(1 + q), which does not cancel.  Nearer the end, delta +
    s^2 keeps too few digits of d, and q itself loses them.  There (1 -
    q^2)/d is formed from D = log f(delta + d) - log f(delta), the integral
    of (log f)' over [delta, delta + d]: (1 - q^2)/d = (2 D/d) (1 -
    e^(-2D))/(2D), and the integrand is 2 q^2 / sqrt((1 - q^2)/d).  At s =
    0 that is its limit 2 / sqrt(2 (log f)'(delta))."""
    d = s * s
    q = fd / wf.f(delta + d)
    if d >= near:
        return 2.0 * s * q * q / math.sqrt((1.0 - q) * (1.0 + q))
    mean = sum(w * wf.d_log_f(delta + x * d) for x, w in _GAUSS3)
    z = 2.0 * d * mean
    ratio = 2.0 * mean * (-math.expm1(-z) / z if z > 0.0 else 1.0)
    return 2.0 * q * q / math.sqrt(ratio)


def closed_form_winding_length(wf: WarpingFunction, delta: float) -> float:
    """Independent length oracle for warped products:
    l = 2 * int_delta^R f(delta) / (f^2 sqrt(1 - (f(delta)/f)^2)) dr,
    with the integrable endpoint removed by r = delta + s^2
    (``_length_integrand``, which is f(delta) times the integrand), to a
    relative 1e-11, and divided by f(delta) once.  The quadrature breaks at
    the warp's ``knots``, where a profile table's f'' jumps.  Where f(delta)
    underflows, the length is beyond double range: inf, as
    ``winding_length`` reads it for the same launch."""
    from scipy.integrate import quad  # imported here: only a quadrature loads scipy

    R = wf.domain_radius
    fd = wf.f(delta)
    if fd == 0.0:
        return math.inf
    knots = np.asarray(wf.knots, dtype=float)
    inside = knots[(knots > delta) & (knots < R)]
    breaks = np.sqrt(inside - delta)
    # the near-end form's Gauss-Legendre nodes stay short of the first knot
    near = min([LENGTH_NEAR_END * delta, *(inside[:1] - delta)])
    val, _ = quad(_length_integrand, 0.0, math.sqrt(R - delta), args=(wf, delta, fd, near),
                  epsabs=0.0, epsrel=1e-11, limit=400 + len(breaks),
                  points=breaks if len(breaks) else None)
    return 2.0 * val / fd


# ---------------------------------------------------------------------------
# radial bounds (dichotomy side conditions)


@dataclass
class BoundsReport:
    """Worst excesses of the bounds (at most ``slack`` when they hold) and
    ``relative_slack``: the smallest slack of the two radial bounds and the
    rate bound, each divided by its distance from where it holds with
    equality and taken away from there: |t| for the radial bounds (equal at
    t = 0, where the upper gap |t| + delta - r goes like |t|, so the ratio
    does not follow the grid) and c |sin(theta)| for the rate bound.
    Negative where a bound fails, inf where none was measured."""

    passed: bool
    worst_lower: float
    worst_upper: float
    worst_eta: float
    worst_eta_rate: float
    strict_margin: Optional[float]
    relative_slack: float
    note: str = ""


def _relative_slack(gap: np.ndarray, bound: np.ndarray, where: np.ndarray) -> float:
    """Smallest ``gap / |bound|`` over the samples ``where`` (inf if none)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(gap[where] / np.abs(bound[where]), initial=math.inf))


def verify_radial_bounds(traj: Trajectory, slack: float = 1e-8) -> BoundsReport:
    """Check (1 - C*delta)|t| <= r(t) <= |t| + delta with C = c*exp(c*R),
    the two-sided exponential eta bounds, the rate bound
    |d/dt log|eta|| <= c|sin(theta)|, and strict r > |t| for warped data;
    c is the section's bound ``traj.meta["c_bound"]``."""
    if traj.classification == "radial":
        return BoundsReport(True, 0.0, 0.0, 0.0, 0.0, None, math.inf,
                            note="radial trajectory: bounds degenerate, skipped")
    delta = traj.delta
    c_bound = traj.meta["c_bound"]
    C = c_bound * math.exp(c_bound * traj.meta["R"])

    t = np.abs(traj.t)
    lower_bound = (1.0 - C * delta) * t
    lower = lower_bound - traj.r
    upper = traj.r - (t + delta)
    worst_lower = float(np.max(lower))
    worst_upper = float(np.max(upper))
    ok = worst_lower <= slack and worst_upper <= slack

    # eta bounds, in log form: |log(|eta| / f(delta))| <= c (r - delta)
    if np.all(traj.eta_norm > 0):
        excess = np.abs(np.log(traj.eta_norm) - traj.log_fd) - c_bound * (traj.r - delta)
        worst_eta = float(np.max(excess))
    else:
        worst_eta = 0.0
    # d/dt log|eta| = -sin(theta) q_r/q, with |q_r/q| <= c
    sin_theta = np.abs(np.sin(traj.theta))
    rate, rate_bound = np.abs(traj.qr_q) * sin_theta, c_bound * sin_theta
    worst_eta_rate = float(np.max(rate - rate_bound))
    ok = ok and worst_eta <= slack and worst_eta_rate <= slack

    # a sample where both sides of the rate bound vanish (sin(theta) = 0, or
    # c = 0 on a warped product) holds it with equality and is left out
    relative_slack = min(_relative_slack(-lower, lower_bound, t > 0.0),
                         _relative_slack(-upper, t, t > 0.0),
                         _relative_slack(rate_bound - rate, rate_bound, rate + rate_bound > 0.0))

    strict_margin = None
    note = ""
    if c_bound == 0.0:
        margin = traj.r - t
        strict_margin = float(np.min(margin))
        if strict_margin <= 0.0:
            ok = False
            note = "warped strict bound r > |t| violated"
    return BoundsReport(ok, worst_lower, worst_upper, worst_eta, worst_eta_rate,
                        strict_margin, relative_slack, note)


# ---------------------------------------------------------------------------
# comparison principle


@dataclass
class ComparisonReport:
    passed: bool
    min_gap: float
    t_worst: float


def comparison_test(
    wf: WarpingFunction,
    cs: CrossSection,
    delta: float,
    delta_bar: float,
    n_nodes: int = 801,
    rtol: float = 1e-10,
) -> ComparisonReport:
    """For a warped product and 0 < delta < delta_bar, the radial components
    of the geodesics launched from y = 0 with unit direction satisfy
    r(t) < rbar(t) at every common time."""
    if cs.c_bound != 0.0:
        raise ValueError("comparison principle requires a warped product (c = 0)")
    if not wf.is_convex_kind:
        raise ValueError("comparison principle requires a convex warp")
    if not 0.0 < delta < delta_bar < wf.domain_radius:
        raise ValueError("need 0 < delta < delta_bar < R (equal deltas rejected)")

    lo = integrate_winding(wf, cs, delta, 0.0, 1.0, rtol=rtol, dense_nodes=128)
    hi = integrate_winding(wf, cs, delta_bar, 0.0, 1.0, rtol=rtol, dense_nodes=128)
    t_span = min(-lo.t_min, lo.t_max, -hi.t_min, hi.t_max)
    ts = _linspace(-t_span, t_span, n_nodes)
    gaps = hi.r_of_t(ts) - lo.r_of_t(ts)
    i = int(gaps.argmin())
    return ComparisonReport(
        # argmin takes the first NaN, which fails the test as np.all would
        passed=bool(gaps[i] > 0.0),
        min_gap=float(gaps[i]),
        t_worst=float(ts[i]),
    )


# ---------------------------------------------------------------------------
# limit geodesic on the link


# the sup distance may rise by at most the slack along the ladder and must
# end below the threshold; it is taken over LIMIT_NODES points of the window
LIMIT_MONOTONE_SLACK = 1e-8
LIMIT_FINAL_THRESHOLD = 0.05
LIMIT_NODES = 121


@dataclass
class LimitReport:
    passed: bool
    deltas: np.ndarray
    sup_distances: np.ndarray
    window: Tuple[float, float]
    note: str = ""


def limit_geodesic_test(
    wf: WarpingFunction,
    cs: CrossSection,
    delta_ladder: Sequence[float],
    y0,
    v0,
    tau_window: Tuple[float, float] = (-2.0, 2.0),
) -> LimitReport:
    """After unit-speed reparametrization of the link projection, compare
    against the reference geodesic of (Y, h_0) at LIMIT_NODES points of a
    fixed tau window; the sup distance must decrease along the ladder and
    end below the threshold.  The ladder is refused as ``delta_sweep``
    refuses it."""
    if wf.kind is WarpKind.CONICAL:
        half = math.pi / 2.0
        if tau_window[0] <= -half or tau_window[1] >= half:
            raise ValueError(
                "conical warps only reach tau in (-pi/2, pi/2); shrink the window"
            )
    elif wf.kind is not WarpKind.CUSPIDAL:
        raise ValueError("limit geodesic test needs a convex warp")

    deltas = _checked_ladder(wf, delta_ladder)
    note = ""
    sups = []
    tau_abs = max(abs(tau_window[0]), abs(tau_window[1]))
    for delta in deltas:
        traj = integrate_winding(wf, cs, delta, y0, v0, rtol=1e-10,
                                 dense_nodes=128, tau_stop=tau_abs + 0.25)
        lo = max(tau_window[0], float(traj.tau[0]) + 1e-9)
        hi = min(tau_window[1], float(traj.tau[-1]) - 1e-9)
        if lo > tau_window[0] or hi < tau_window[1]:
            note = f"window clipped to [{lo:.3g}, {hi:.3g}] at delta={delta:g}"
        rp = reparametrize_tau(traj, n=LIMIT_NODES, window=(lo, hi))
        ref = base_geodesic(cs, y0, v0, np.linspace(lo, hi, LIMIT_NODES))
        sups.append(float(np.max(cs.h0_distance(rp.y, ref))))
    sups = np.asarray(sups)
    decreasing = bool(np.all(np.diff(sups) < LIMIT_MONOTONE_SLACK))
    passed = decreasing and sups[-1] < LIMIT_FINAL_THRESHOLD
    return LimitReport(passed, deltas, sups, tau_window, note)


# ---------------------------------------------------------------------------
# randomized campaigns (drive acceptance-scale suites and the CLI verify)


BOUNDS_SECTIONS = ("flat_circle", "perturbed_circle", "round_sphere")


def run_bounds_campaign(n_cases: int = 200, seed: int = 20240817,
                        rtol: float = 1e-9, sections: Sequence[str] = BOUNDS_SECTIONS,
                        slack: float = 1e-8) -> List[BoundsReport]:
    """Radial bounds of random winding geodesics of f = r^alpha, each on a
    section class drawn uniformly from ``sections`` (names of BOUNDS_SECTIONS)."""
    if not sections or not set(sections) <= set(BOUNDS_SECTIONS):
        raise ValueError(f"bounds sections must be drawn from {BOUNDS_SECTIONS}")
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_cases):
        alpha = float(rng.uniform(1.0, 2.5))
        delta = float(rng.uniform(0.05, 0.3))
        section = sections[int(rng.integers(0, len(sections)))]
        wf = make_power_warp(alpha, R=1.5)
        if section == "round_sphere":
            cs = sphere_section(domain_radius=1.5)
            y0 = np.array([math.pi / 2.0, float(rng.uniform(0, 2 * math.pi))])
            ang = float(rng.uniform(-0.6, 0.6))
            v0 = np.array([math.sin(ang), math.cos(ang)])
        else:
            amp = float(rng.uniform(0.02, 0.1)) if section == "perturbed_circle" else 0.0
            cs = circle_section(2.0 * math.pi, (amp, default_circle_shape), 1.5)
            y0, v0 = np.array([float(rng.uniform(0, 2 * math.pi))]), np.array([1.0])
        traj = integrate_winding(wf, cs, delta, y0, v0, rtol=rtol, dense_nodes=256)
        reports.append(verify_radial_bounds(traj, slack=slack))
    return reports


def run_comparison_campaign(n_cases: int = 100,
                            seed: int = 20240818) -> List[ComparisonReport]:
    rng = np.random.default_rng(seed)
    cs = circle_section(2.0 * math.pi, domain_radius=1.5)
    reports = []
    for _ in range(n_cases):
        alpha = float(rng.uniform(1.0, 3.0))
        d1 = float(rng.uniform(0.02, 0.35))
        d2 = float(d1 + rng.uniform(0.02, 0.3))
        wf = make_power_warp(alpha, R=1.5)
        reports.append(comparison_test(wf, cs, d1, d2, n_nodes=401))
    return reports


# ---------------------------------------------------------------------------
# figure bundle: cone and cusp sample paths


# lowest point of each figure's path
FIGURE1_DELTA = {"cone": 0.3, "cusp": 0.05}


def figure1_data(kind: str) -> dict:
    """Sample paths of the flat cone (f = r) and the model cusp (f = r^2) on
    R = 1.5, launched at FIGURE1_DELTA[kind], through the product
    description and the embedded surface of revolution."""
    if kind not in FIGURE1_DELTA:
        raise ValueError("kind must be 'cone' or 'cusp'")
    delta = FIGURE1_DELTA[kind]
    R = 1.5
    cs = circle_section(2.0 * math.pi, domain_radius=R)
    wf = make_power_warp(1.0 if kind == "cone" else 2.0, R=R)
    traj = integrate_winding(wf, cs, delta, 0.0, 1.0, dense_nodes=1024)
    length = winding_length(traj)
    n_windings = length / (2.0 * math.pi)
    predicted = compute_Cf(wf) / (2.0 * math.pi * wf.f_prime(delta))

    phi = traj.y[:, 0]
    if kind == "cone":
        # flat cone of total angle 2*pi: the surface is the plane itself
        xyz = np.column_stack([traj.r * np.cos(phi), traj.r * np.sin(phi),
                               np.zeros(len(phi))])
    else:
        # the surface of revolution x = z^2 with r its arc length; arc
        # length >= z, so the profile up to z = R covers every r <= R
        surface = profile_to_warp(np.square, lambda z: 2.0 * z, R)
        ss = surface.f(traj.r)
        zs = np.sqrt(ss)
        xyz = np.column_stack([ss * np.cos(phi), ss * np.sin(phi), zs])
    return {
        "kind": kind,
        "t": traj.t,
        "r": traj.r,
        "phi": phi,
        "embedded_xyz": xyz,
        "winding_length": length,
        "winding_count_measured": n_windings,
        "winding_count_predicted": predicted,
        "swept_angle": float(abs(phi[-1] - phi[0])),
        "max_shell_residual": traj.meta["shell_drift"],
        "trajectory": traj,
    }
