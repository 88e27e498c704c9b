"""Warping-function families, the inverse-derivative limit functional, and the
universal length constant.

A warping function f scales the cross-section metric at distance r from an
isolated singularity: conical if f'(0) > 0, cuspidal if f'(0) = 0.  The
quantity driving the winding-length asymptotics is the limit of
F'(sigma*eps)/F'(eps) as eps -> 0, with F the inverse of f; its integral over
the angle variable gives the constant that normalizes winding lengths.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from . import straightline
from .dop853 import brent
from .errors import NonOscillationError, QuadratureError
from .straightline import cos, exp, log, sin, sqrt

__all__ = [
    "WarpKind",
    "WarpingFunction",
    "FrakFEstimate",
    "MonotonicityReport",
    "make_power_warp",
    "make_exp_warp",
    "make_oscillating_F",
    "make_concave_sqrt_warp",
    "profile_to_warp",
    "estimate_frakF",
    "compute_Cf",
    "compute_Cf_detailed",
    "check_Cf_monotonicity",
    "parse_warp_spec",
    "grid_monotone_increasing",
    "grid_convex",
    "grid_concave",
]


class WarpKind(str, Enum):
    CONICAL = "conical"
    CUSPIDAL = "cuspidal"
    CONCAVE_EXPERIMENTAL = "concave_experimental"
    OSCILLATING_COUNTEREXAMPLE = "oscillating_counterexample"


def _each(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each element of ``x``, called on a float, in the shape of
    ``x``: an element has the float call's bits, and a float call that
    raises refuses the whole array."""
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class WarpingFunction:
    """A radial scale factor f on (0, R) with inverse F and metadata.

    ``log_f`` and ``d_log_f`` (= f'/f) are kept as separate callables because
    the exponential cusp families underflow double precision long before
    their logarithms do; integrators work in log space where possible.
    Every callable takes a float, giving a float, or an ndarray, giving an
    array of its shape.  The analytic families write each formula once with
    operators and the functions of ``straightline``, which call math on a
    float and numpy on an ndarray (whose last bits may differ), and record a
    recorded value.  A profile table's callables and the osc family's log f
    (a table lookup, a root) run their float code on each element of an
    ndarray (``_each``), so every element has the float call's bits.
    """

    domain_radius: float
    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    F: Callable[[float], float]
    F_prime: Callable[[float], float]
    log_f: Callable[[float], float]
    d_log_f: Callable[[float], float]
    kind: WarpKind
    label: str
    frakF_closed_form: Optional[Callable[[float], float]] = None
    # the radii at which f'' jumps (a profile table's knots), where a
    # quadrature over r should break
    knots: Tuple[float, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise ValueError("domain_radius must be finite and positive")

    @property
    def is_convex_kind(self) -> bool:
        return self.kind in (WarpKind.CONICAL, WarpKind.CUSPIDAL)


@dataclass(frozen=True)
class FrakFEstimate:
    """Outcome of the geometric-ladder estimate of lim F'(sigma*eps)/F'(eps)."""

    sigma: float
    ladder_values: np.ndarray
    verdict: str  # "converged" | "oscillating" | "inconclusive"
    value: Optional[float] = None
    amplitude: Optional[float] = None
    diagnostic: str = ""


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    cf_small: float
    cf_big: float
    max_frak_excess: float


# ---------------------------------------------------------------------------
# discrete shape checks


def _second_divided_differences(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    s1 = np.diff(ys) / np.diff(xs)
    return np.diff(s1) / (xs[2:] - xs[:-2])


def _grid(fn, lo: float, hi: float):
    """512 geometrically spaced points of [lo, hi] and ``fn`` of them, one
    array call."""
    xs = np.geomspace(lo, hi, 512)
    return xs, fn(xs)


def grid_monotone_increasing(fn, lo: float, hi: float) -> bool:
    return bool(np.all(np.diff(_grid(fn, lo, hi)[1]) > 0))


def grid_convex(fn, lo: float, hi: float) -> bool:
    return bool(np.all(_second_divided_differences(*_grid(fn, lo, hi)) >= -1e-10))


def grid_concave(fn, lo: float, hi: float) -> bool:
    return bool(np.all(_second_divided_differences(*_grid(fn, lo, hi)) <= 1e-10))


# ---------------------------------------------------------------------------
# families


def _number(x: float) -> str:
    """``x`` for a label: as ``:g`` writes it where that reads back as ``x``,
    else its repr, so that ``parse_warp_spec(label)`` builds the same warp."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def make_power_warp(alpha: float, R: float = 1.5) -> WarpingFunction:
    """f(x) = x**alpha, the model conical (alpha=1) or cuspidal family."""
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise ValueError(
            "alpha must be finite and >= 1; use make_concave_sqrt_warp for the "
            "concave experiment"
        )
    inv = 1.0 / alpha
    return WarpingFunction(
        domain_radius=R,
        f=lambda x: x**alpha,
        f_prime=lambda x: alpha * x ** (alpha - 1.0),
        F=lambda y: y**inv,
        F_prime=lambda y: inv * y ** (inv - 1.0),
        kind=WarpKind.CONICAL if alpha == 1.0 else WarpKind.CUSPIDAL,
        label=f"power:{_number(alpha)}",
        frakF_closed_form=lambda sigma: sigma ** (inv - 1.0),
        log_f=lambda x: alpha * log(x),
        d_log_f=lambda x: alpha / x,
    )


# log_power is convex iff mu*y^mu - y - (mu-1) >= 0 for y = log(1/x) >=
# log(1/R); the largest zero of that expression is y = 1, so R <= 1/e.
_LOGPOW_MAX_R = math.exp(-1.0)


def make_exp_warp(family: str, param: float, R: Optional[float] = None) -> WarpingFunction:
    """Super-polynomial cusp families.

    ``log_power``: f(x) = exp(-log(1/x)**mu), mu > 1.
    ``exp_inverse_power``: f(x) = exp(-x**-beta), beta > 0.
    Both have limit functional 1/sigma, hence length constant 2.
    """
    if family == "log_power":
        mu = param
        if not (math.isfinite(mu) and mu > 1.0):
            raise ValueError("log_power requires a finite mu > 1")
        r_max, r_default = _LOGPOW_MAX_R, 0.9 * _LOGPOW_MAX_R
        name, label = f"log_power:{_number(mu)}", f"logpow:{_number(mu)}"

        def F(y):
            return exp(-((log(1.0 / y)) ** (1.0 / mu)))
        log_f, d_log_f, F_prime = (
            lambda x: -((log(1.0 / x)) ** mu), lambda x: mu * (log(1.0 / x)) ** (mu - 1.0) / x,
            lambda y: F(y) * (1.0 / mu) * log(1.0 / y) ** (1.0 / mu - 1.0) / y)
    elif family == "exp_inverse_power":
        beta = param
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError("exp_inverse_power requires a finite beta > 0")
        r_max = r_default = (beta / (beta + 1.0)) ** (1.0 / beta)
        name = label = f"expinv:{_number(beta)}"
        log_f, d_log_f, F, F_prime = (
            lambda x: -(x**-beta), lambda x: beta * x ** (-beta - 1.0),
            lambda y: (log(1.0 / y)) ** (-1.0 / beta),
            lambda y: (1.0 / beta) * log(1.0 / y) ** (-1.0 / beta - 1.0) / y)
    else:
        raise ValueError(f"unknown exp warp family: {family!r}")
    if R is None:
        R = r_default
    if R > r_max * (1 + 1e-12):
        raise ValueError(
            f"R={R:g} too large for convexity of {name}; "
            f"largest admissible R is {r_max:.6g}"
        )
    return WarpingFunction(
        domain_radius=R,
        f=lambda x: exp(log_f(x)),
        f_prime=lambda x: exp(log_f(x)) * d_log_f(x),
        F=F,
        F_prime=F_prime,
        log_f=log_f,
        d_log_f=d_log_f,
        kind=WarpKind.CUSPIDAL,
        label=label,
        frakF_closed_form=lambda sigma: 1.0 / sigma,
    )


def oscillation_threshold(alpha: float) -> float:
    return (2.0 - alpha) / (1.0 - alpha) * (1.0 + alpha) / alpha


def make_oscillating_F(alpha: float, c: float) -> WarpingFunction:
    """Warp whose inverse is F(x) = x**alpha * (c + sin(log x)), on
    R = F(1/2).

    F is increasing and concave for c above the threshold, but the ratio
    F'(sigma*eps)/F'(eps) has no limit except when log(sigma) is a multiple
    of 2*pi.  The warp itself (the numeric inverse of F) is convex and
    perfectly integrable; only the length-constant machinery must refuse it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    thresh = oscillation_threshold(alpha)
    if c < thresh:
        raise ValueError(
            f"c={c:g} below the monotonicity/concavity threshold {thresh:g}"
        )

    # log f(rho) is the root s of g(s) = alpha s + log(c + sin s) - log rho,
    # which increases in s; the upper end lies past x = 1/2: adaptive
    # steppers probe r slightly beyond R, and F stays monotone there
    def scalar_log_f(rho):
        target = math.log(rho)
        lo = (target - math.log(c + 1.0)) / alpha - 2.0

        def g(s):
            return alpha * s + log(c + sin(s)) - target
        return brent(g, min(-700.0, lo), math.log(0.5) + 1.0, 1e-14, 8.9e-16)

    def log_f(rho):
        # one root per traced evaluation: f, f' and (log f)' all read it
        if isinstance(rho, np.ndarray):
            return _each(scalar_log_f, rho)
        return straightline.call(scalar_log_f, rho)

    def F(x):
        return x**alpha * (c + sin(log(x)))

    def F_prime(x):
        s = log(x)
        return x ** (alpha - 1.0) * (alpha * c + alpha * sin(s) + cos(s))

    def f(rho):
        return exp(log_f(rho))

    return WarpingFunction(
        domain_radius=F(0.5),
        f=f,
        f_prime=lambda rho: 1.0 / F_prime(f(rho)),
        F=F,
        F_prime=F_prime,
        log_f=log_f,
        d_log_f=lambda rho: 1.0 / (F_prime(f(rho)) * f(rho)),
        kind=WarpKind.OSCILLATING_COUNTEREXAMPLE,
        label=f"osc:{_number(alpha)}:{_number(c)}",
    )


def make_concave_sqrt_warp(R: float = 1.0) -> WarpingFunction:
    """f(x) = sqrt(x): the concave borderline case with logarithmic length law."""
    if R <= 0:
        raise ValueError("R must be positive")
    return WarpingFunction(
        domain_radius=R,
        f=sqrt,
        f_prime=lambda x: 0.5 / sqrt(x),
        F=lambda y: y * y,
        F_prime=lambda y: 2.0 * y,
        kind=WarpKind.CONCAVE_EXPERIMENTAL,
        label="sqrt",
        frakF_closed_form=lambda sigma: sigma,
        log_f=lambda x: 0.5 * log(x),
        d_log_f=lambda x: 0.5 / x,
    )


# ---------------------------------------------------------------------------
# profile curves -> warping functions

# a Newton step this small, relative to x, is 2 to 4 ulp: the table inverse
# steps by whole doubles instead
_POLISH = 2.0 ** -51


class _C1Table:
    """The C^1 piecewise cubic through knots (x_i, y_i) with slopes m_i,
    continued past the last knot by its tangent line, and its exact inverse.
    Every method is float code, which an ndarray runs on each element
    (``_each``).

    A method looks up its cell and evaluates the cubic in its own body: a
    query that runs right after other work is cold, and then every Python
    call it makes costs several times its warm time, more so while the host
    is busy."""

    def __init__(self, x: np.ndarray, y: np.ndarray, m: np.ndarray):
        h, d = np.diff(x), np.diff(y) / np.diff(x)
        # cell i is y_i + t (m_i + t (c2_i + t c3_i)) with t = x - x_i; the
        # cell past the last knot is the tangent line (c2 = c3 = 0)
        c2 = np.append((3.0 * d - 2.0 * m[:-1] - m[1:]) / h, 0.0)
        c3 = np.append((m[:-1] + m[1:] - 2.0 * d) / (h * h), 0.0)
        self.x, self.y = array("d", x), array("d", y)
        self.cells = list(zip(*(a.tolist() for a in (x, y, m, c2, c3))))

    def value(self, x):
        if isinstance(x, np.ndarray):
            return _each(self.value, x)
        if not x >= 0.0:
            raise ValueError(f"radius {x!r} is not a number >= 0")
        x0, y0, m, c2, c3 = self.cells[bisect_right(self.x, x) - 1]
        t = x - x0
        return y0 + t * (m + t * (c2 + t * c3))

    def log_value(self, x):
        """log(value)."""
        if isinstance(x, np.ndarray):
            return _each(self.log_value, x)
        if not x >= 0.0:
            raise ValueError(f"radius {x!r} is not a number >= 0")
        x0, y0, m, c2, c3 = self.cells[bisect_right(self.x, x) - 1]
        t = x - x0
        return math.log(y0 + t * (m + t * (c2 + t * c3)))

    def slope(self, x):
        if isinstance(x, np.ndarray):
            return _each(self.slope, x)
        if not x >= 0.0:
            raise ValueError(f"radius {x!r} is not a number >= 0")
        x0, _, m, c2, c3 = self.cells[bisect_right(self.x, x) - 1]
        t = x - x0
        return m + t * (2.0 * c2 + 3.0 * t * c3)

    def log_slope(self, x):
        """slope / value, from one cell lookup."""
        if isinstance(x, np.ndarray):
            return _each(self.log_slope, x)
        if not x >= 0.0:
            raise ValueError(f"radius {x!r} is not a number >= 0")
        x0, y0, m, c2, c3 = self.cells[bisect_right(self.x, x) - 1]
        t = x - x0
        return (m + t * (2.0 * c2 + 3.0 * t * c3)) / (y0 + t * (m + t * (c2 + t * c3)))

    def inverse_slope(self, y):
        return 1.0 / self.slope(self.inverse(y))

    def inverse(self, y):
        """The least x with value(x) >= y.

        y is searched in the cell whose knot values y_i < y <= y_{i+1}
        bracket it, so a knot value but the first (0, its knot) is searched
        in the cell that ends at it, whose cubic may reach it one double
        below the knot.  Safeguarded Newton (Numerical Recipes' ``rtsafe``)
        keeps a bracket [lo, hi], first the cell's ends, with
        cubic(lo) < y <= value(hi).  The first point is the stable root
        x_i + 2 (y - y_i) / (m_i + sqrt(m_i^2 + 4 c2_i (y - y_i))) of the
        cell's quadratic model y_i + t (m_i + c2_i t) where it lies inside
        the bracket, else where the cell's chord reaches y, but below the end
        knot.  (In a cuspidal table's first cell, where m_0 = 0 and f ~ c r^2,
        the chord point lies far below the root: from there the search took
        hundreds of steps.)  Each next point is the Newton
        step on the cubic from the last, taken where the slope is positive
        and the step lands strictly inside the bracket, else the bracket's
        midpoint.  Where a Newton step is at most 2**-51 x (2 to 4 ulp) the
        next point is instead 1 ulp from the last toward the root, and each
        further such step is twice as long until points have landed on both
        sides of the answer, so a run of doubles with one value (a cubic
        value in the subnormal range) is crossed in few steps, and a start a
        few ulp off does not step far past the answer.  Each point narrows
        the bracket; the search ends when no double lies inside, and returns
        hi: never past the end knot, where value is that knot's own value.
        The tangent line past the last knot is inverted in closed form."""
        if isinstance(y, np.ndarray):
            return _each(self.inverse, y)
        if not 0.0 <= y < math.inf:
            raise ValueError(f"warp value {y!r} is not a finite number >= 0")
        i = max(bisect_left(self.y, y) - 1, 0)
        x0, y0, m, c2, c3 = self.cells[i]
        if y == y0:
            return x0
        if i == len(self.cells) - 1:
            return x0 + (y - y0) / m
        lo = x0
        hi = x1 = self.x[i + 1]
        dy, gap = y - y0, 1.0
        # the quadratic model's root; x1, outside the bracket, where it has
        # none
        root = m * m + 4.0 * c2 * dy
        root = m + math.sqrt(root) if root >= 0.0 else 0.0
        x = x0 + 2.0 * dy / root if root > 0.0 else x1
        if not lo < x < hi:
            x = x0 + dy / (self.y[i + 1] - y0) * (x1 - x0)
            if x >= x1:
                x = math.nextafter(x1, 0.0)
        while True:
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
                if not lo < x < hi:
                    return hi
            t = x - x0
            v = y0 + t * (m + t * (c2 + t * c3))
            s = m + t * (2.0 * c2 + 3.0 * t * c3)
            step = (y - v) / s if s > 0.0 else math.nan
            if v < y:
                lo = x
            else:
                hi = x
            if abs(step) <= _POLISH * x:
                x += (gap if v < y else -gap) * math.ulp(x)
                # until a point has landed on each side of the answer
                if lo == x0 or hi == x1:
                    gap *= 2.0
            else:
                x += step


# the 10-point Gauss-Legendre rule on [-1, 1], applied to every ladder cell:
# np.polynomial.legendre.leggauss(10) written out, since its eigensolver would
# start LAPACK, about 0.8 MB of resident memory, on import
_GL_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                  0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                  0.1494513491505804, 0.06667134430868814])
_GL_NODES, _GL_WEIGHTS = np.append(-_GL_X[::-1], _GL_X), np.append(_GL_W[::-1], _GL_W)


def profile_to_warp(
    s: Callable[[np.ndarray], np.ndarray],
    s_prime: Callable[[np.ndarray], np.ndarray],
    z_max: float,
    grid: int = 4096,
    label: str = "profile",
) -> WarpingFunction:
    """Convert an embedded profile curve into the intrinsic warping function.

    The radial coordinate is arc length along the generating curve,
    r(z) = integral of sqrt(1 + s'(w)^2); the warp is s re-expressed in r,
    tabulated by r, s and the exact df/dr on a geometric ladder in z joined
    with the breakpoints ``s.x`` of a piecewise polynomial s.  An s' that
    is infinite at z = 0 (s = z**alpha with alpha < 1, whose arc length
    stays integrable) gives the tip slope sin(atan(inf)) = 1.

    ``s`` and ``s_prime`` are numpy functions: each is called once on an
    array of nodes (``s`` also on two floats, to check that it vanishes at
    0), and a scalar ``s_prime`` result is broadcast, so ``lambda z: 1.0``
    works.  A cell's arc length is s(z_{i+1}) - s(z_i) plus the 10-point
    Gauss-Legendre sum of hypot(1, s') - s' = 1/(hypot(1, s') + s'), which
    stays bounded where s' does not.
    """
    if not (math.isfinite(z_max) and z_max > 0):
        raise ValueError("z_max must be finite and positive")
    # loose threshold: fractional-power profiles like z**(1/2) decay slowly
    if abs(s(z_max * 1e-13)) > 1e-4 * max(1.0, abs(s(z_max))):
        raise ValueError("profile must vanish at z=0")

    zs = np.concatenate([[0.0], np.geomspace(z_max * 1e-12, z_max, grid - 1)])
    # a cell across a breakpoint, where s'' jumps, would cost accuracy
    breaks = np.asarray(getattr(s, "x", ()), dtype=float)
    zs = np.union1d(zs, breaks[(breaks > 0.0) & (breaks < z_max)])
    svals = np.append(0.0, s(zs[1:]))
    if not np.all(np.diff(svals) > 0):
        raise ValueError("profile must be positive and strictly increasing on (0, z_max]")
    # s' on the ladder and on every cell's Gauss-Legendre nodes; a power
    # profile's s' is infinite at the tip
    h = np.diff(zs)
    nodes = np.append(zs, zs[:-1, None] + h[:, None] * (1.0 + _GL_NODES) / 2.0)
    with np.errstate(divide="ignore"):
        sp = np.broadcast_to(s_prime(nodes), nodes.shape)
    sp_gl = sp[len(zs):].reshape(len(h), -1)
    # the slope df/dr = s'/sqrt(1 + s'^2) = sin(atan(s'))
    m = np.sin(np.arctan(sp[:len(zs)]))

    excess = 1.0 / (np.hypot(1.0, sp_gl) + sp_gl)  # hypot(1, s') - s', bounded
    seg = np.diff(svals) + h / 2.0 * (excess * _GL_WEIGHTS).sum(axis=1)
    if not np.all(seg > 0):
        raise RuntimeError("internal error: non-monotone arc length")  # pragma: no cover
    r_nodes = np.append(0.0, np.cumsum(seg))

    table = _C1Table(r_nodes, svals, m)
    return WarpingFunction(
        domain_radius=float(r_nodes[-1]),
        f=table.value,
        f_prime=table.slope,
        F=table.inverse,
        F_prime=table.inverse_slope,
        log_f=table.log_value,
        d_log_f=table.log_slope,
        kind=WarpKind.CUSPIDAL if abs(m[0]) < 1e-6 else WarpKind.CONICAL,
        label=label,
        knots=tuple(r_nodes.tolist()),
    )


# ---------------------------------------------------------------------------
# the limit functional and the length constant


# rungs of the frakF ladder
FRAKF_STEPS = 30


def estimate_frakF(wf: WarpingFunction, sigma: float) -> FrakFEstimate:
    """Geometric-ladder estimate of lim_{eps->0} F'(sigma*eps)/F'(eps): eps
    halves at each of FRAKF_STEPS rungs from 1e-2 f(R/2)."""
    if sigma < 1.0:
        raise ValueError("sigma must be >= 1")
    eps0 = 1e-2 * wf.f(wf.domain_radius / 2.0)
    top = wf.f(wf.domain_radius * (1.0 - 1e-9))
    if sigma * eps0 > top:
        eps0 = 0.99 * top / sigma

    ladder = []
    diagnostic = ""
    for n in range(FRAKF_STEPS):
        eps = eps0 * 0.5**n
        try:
            d0 = wf.F_prime(eps)
            d1 = wf.F_prime(sigma * eps)
        except (OverflowError, ValueError):
            diagnostic = f"F' evaluation failed at rung {n}"
            break
        if not (math.isfinite(d0) and math.isfinite(d1)) or d0 == 0.0:
            diagnostic = f"F' underflow at rung {n}"
            break
        ladder.append(d1 / d0)
    values = np.array(ladder)
    if len(values) < FRAKF_STEPS // 2:
        return FrakFEstimate(sigma, values, "inconclusive", diagnostic=diagnostic or "ladder too short")

    q = values[-max(len(values) // 4, 2):]
    spread = float((q.max() - q.min()) / abs(np.median(q)))
    if spread < 1e-3:
        value = float(q.mean())
        if wf.is_convex_kind:
            if not (1.0 / sigma - 1e-6 <= value <= 1.0 + 1e-6):
                return FrakFEstimate(
                    sigma, values, "inconclusive", value=value,
                    diagnostic="converged value outside [1/sigma, 1]",
                )
        return FrakFEstimate(sigma, values, "converged", value=value)
    incr = np.diff(values)
    signs = np.sign(incr[np.abs(incr) > 0])
    sign_changes = int(np.sum(signs[1:] != signs[:-1])) if len(signs) > 1 else 0
    if spread > 0.05 and sign_changes >= 2:
        return FrakFEstimate(sigma, values, "oscillating", amplitude=spread)
    return FrakFEstimate(sigma, values, "inconclusive", diagnostic=f"spread={spread:.3g}")


def _numeric_frakF(wf: WarpingFunction) -> Callable[[float], float]:
    """Ladder-based evaluation of the limit functional on a log-sigma grid,
    extended beyond sigma = 1e6 by the terminal log-log slope.  A ladder
    that does not converge is reported as measured: an oscillating ladder
    of a tabulated warp may be its interpolation's wiggle, not a failure of
    the warp's non-oscillation condition."""
    sigmas = np.geomspace(1.0, 1e6, 25)
    vals = []
    for sg in sigmas:
        est = estimate_frakF(wf, sg)
        if est.verdict != "converged":
            detail = f"spread {est.amplitude:.3g}" if est.amplitude is not None else est.diagnostic
            raise NonOscillationError(
                f"limit functional estimate {est.verdict} at sigma={sg:g}: {detail}")
        vals.append(est.value)
    logs = np.log(sigmas)
    logv = np.log(vals)
    tail_slope = (logv[-1] - logv[-3]) / (logs[-1] - logs[-3])

    def frak(sigma: float) -> float:
        if sigma <= 1.0:
            return 1.0
        ls = math.log(sigma)
        if ls >= logs[-1]:
            return math.exp(logv[-1] + tail_slope * (ls - logs[-1]))
        return math.exp(np.interp(ls, logs, logv))

    return frak


def compute_Cf_detailed(wf: WarpingFunction, tol: float = 1e-9) -> tuple[float, float]:
    """Adaptive quadrature of frakF(1/cos) over the angle range.

    The substitution angle = pi/2 - phi**2 removes the infinite endpoint
    derivative; the integrand itself is bounded by 1 for convex warps.
    Returns (value, error_estimate).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol={tol!r} must be finite and positive")
    if wf.kind is WarpKind.OSCILLATING_COUNTEREXAMPLE:
        raise NonOscillationError("non-oscillation condition fails")
    if wf.kind is WarpKind.CONCAVE_EXPERIMENTAL:
        raise QuadratureError(
            "length-constant integral diverges for the concave experimental warp"
        )
    from scipy.integrate import quad  # imported here: only a quadrature loads scipy

    frak = wf.frakF_closed_form or _numeric_frakF(wf)

    def integrand(phi: float) -> float:
        srn = math.sin(phi * phi)
        sigma = 1.0 / srn if srn > 1e-280 else 1e280
        return frak(sigma) * 2.0 * phi

    val, err = quad(
        integrand, 0.0, math.sqrt(math.pi / 2.0),
        epsabs=tol / 4.0, epsrel=tol / 4.0, limit=250,
    )
    value, error = 2.0 * val, 2.0 * err
    if error > max(tol, 1e-12) * 5.0:
        raise QuadratureError(
            f"quadrature reached only {error:.3g}, requested {tol:.3g}"
        )
    check_tol = max(tol, 1e-9)
    if not (2.0 - check_tol <= value <= math.pi + check_tol):
        raise QuadratureError(
            f"length constant {value:.12g} outside [2, pi] for a convex warp"
        )
    return value, error


def compute_Cf(wf: WarpingFunction) -> float:
    return compute_Cf_detailed(wf)[0]


def check_Cf_monotonicity(wf_small: WarpingFunction,
                          wf_big: WarpingFunction) -> MonotonicityReport:
    """Comparison: if f = O(f_tilde) near zero then both the limit functional
    and the length constant are ordered the same way (to 1e-6).  The ratio
    f_small/f_big is compared in logs, which stay finite where both f
    underflow."""
    R = min(wf_small.domain_radius, wf_big.domain_radius)
    xs = np.geomspace(R * 1e-8, R * 0.9, 256)
    log_ratio = wf_small.log_f(xs) - wf_big.log_f(xs)
    near0 = log_ratio[: len(log_ratio) // 4]
    rest = log_ratio[len(log_ratio) // 4:]
    if near0.max() > math.log(10.0) + max(rest.max(), math.log(1e-300)):
        raise ValueError(
            "ordering hypothesis fails: f_small/f_big blows up near zero on the grid"
        )
    frak_s = wf_small.frakF_closed_form or _numeric_frakF(wf_small)
    frak_b = wf_big.frakF_closed_form or _numeric_frakF(wf_big)
    sigmas = np.geomspace(1.0, 1e6, 40)
    excess = max(frak_s(sg) - frak_b(sg) for sg in sigmas)
    cf_s = compute_Cf(wf_small)
    cf_b = compute_Cf(wf_big)
    passed = (cf_s <= cf_b + 1e-6) and (excess <= 1e-6)
    return MonotonicityReport(
        passed=passed, cf_small=cf_s, cf_big=cf_b, max_frak_excess=float(excess)
    )


# ---------------------------------------------------------------------------
# CLI spec strings


def parse_warp_spec(spec: str, R: Optional[float] = None) -> WarpingFunction:
    """Parse family strings like "power:2.0", "logpow:1.5", "expinv:1.0",
    "osc:0.5:9.0", "sqrt", "profile:<path>".

    ``R=None`` takes the family's own radius; ``osc`` and ``profile`` warps
    fix their radius from their curve and refuse an explicit one."""
    parts = spec.split(":")
    head = parts[0]
    needed = {"power": 2, "logpow": 2, "expinv": 2, "osc": 3, "sqrt": 1}
    if head in needed and len(parts) != needed[head]:
        raise ValueError(f"warp spec {spec!r}: {head} takes {needed[head] - 1} "
                         f"parameter(s), got {len(parts) - 1}")
    if head in ("osc", "profile") and R is not None:
        raise ValueError(f"{head}: warps take their radius from their curve; "
                         f"R={R:g} cannot be set")
    if head == "power":
        return make_power_warp(float(parts[1]), R if R is not None else 1.5)
    if head == "logpow":
        return make_exp_warp("log_power", float(parts[1]), R)
    if head == "expinv":
        return make_exp_warp("exp_inverse_power", float(parts[1]), R)
    if head == "osc":
        return make_oscillating_F(float(parts[1]), float(parts[2]))
    if head == "sqrt":
        return make_concave_sqrt_warp(R if R is not None else 1.0)
    if head == "profile":
        from .profile_io import load_profile_csv  # local import: avoids cycle

        return load_profile_csv(":".join(parts[1:]))
    raise ValueError(f"unknown warp spec: {spec!r}")
