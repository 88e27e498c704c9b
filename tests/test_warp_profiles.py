import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

import singular_geodesics as sg
from singular_geodesics import NonOscillationError, QuadratureError, WarpKind, warp_profiles
from singular_geodesics.warp_profiles import (
    grid_concave,
    grid_convex,
    grid_monotone_increasing,
    make_oscillating_F,
    oscillation_threshold,
)


class TestPowerWarps:
    def test_values(self):
        wf = sg.make_power_warp(2.0)
        assert wf.f(0.5) == pytest.approx(0.25)
        assert wf.f_prime(0.5) == pytest.approx(1.0)
        assert wf.F(0.25) == pytest.approx(0.5)
        assert wf.kind is WarpKind.CUSPIDAL
        assert sg.make_power_warp(1.0).kind is WarpKind.CONICAL

    def test_log_callables(self):
        wf = sg.make_power_warp(3.0)
        assert wf.log_f(0.2) == pytest.approx(3.0 * math.log(0.2))
        assert wf.d_log_f(0.2) == pytest.approx(3.0 / 0.2)

    def test_rejects_sublinear(self):
        with pytest.raises(ValueError):
            sg.make_power_warp(0.8)

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(1.0, 3.0), x=st.floats(1e-4, 1.4))
    def test_convexity_inequality(self, alpha, x):
        # for convex f with f(0) = 0:  f(x) <= x f'(x)
        wf = sg.make_power_warp(alpha)
        assert wf.f(x) <= x * wf.f_prime(x) * (1 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(1.0, 3.0), x=st.floats(1e-3, 1.4))
    def test_inverse_roundtrip(self, alpha, x):
        wf = sg.make_power_warp(alpha)
        assert wf.F(wf.f(x)) == pytest.approx(x, rel=1e-12)


class TestExpWarps:
    def test_domain_caps(self):
        # exp(-1/x) lives on (0, 1/2]; asking beyond that must fail loudly
        wf = sg.make_exp_warp("exp_inverse_power", 1.0)
        assert wf.domain_radius <= 0.5 + 1e-15
        with pytest.raises(ValueError, match="0.5"):
            sg.make_exp_warp("exp_inverse_power", 1.0, R=0.7)
        with pytest.raises(ValueError):
            sg.make_exp_warp("log_power", 1.5, R=0.5)  # needs R <= 1/e

    def test_logpow_requires_mu_above_one(self):
        with pytest.raises(ValueError):
            sg.make_exp_warp("log_power", 1.0)

    def test_monotone_convex(self):
        for wf in (sg.make_exp_warp("log_power", 1.5),
                   sg.make_exp_warp("exp_inverse_power", 1.0)):
            R = wf.domain_radius
            # f itself underflows near 0, so check monotonicity in log space
            assert grid_monotone_increasing(wf.log_f, 1e-4 * R, R)
            assert grid_convex(wf.f, 0.05 * R, R)
            assert wf.kind is WarpKind.CUSPIDAL

    def test_roundtrip(self):
        wf = sg.make_exp_warp("log_power", 2.0)
        for x in np.geomspace(1e-3, wf.domain_radius, 20):
            assert wf.F(wf.f(x)) == pytest.approx(x, rel=1e-10)


class TestSqrtWarp:
    def test_concave(self):
        wf = sg.make_concave_sqrt_warp()
        assert wf.kind is WarpKind.CONCAVE_EXPERIMENTAL
        assert grid_concave(wf.f, 1e-4, wf.domain_radius)
        assert wf.f(0.25) == pytest.approx(0.5)

    def test_Cf_diverges(self):
        with pytest.raises(QuadratureError):
            sg.compute_Cf(sg.make_concave_sqrt_warp())


class TestOscillatingF:
    def test_threshold_value(self):
        # ((2 - a)/(1 - a)) * ((1 + a)/a) at a = 1/2
        assert oscillation_threshold(0.5) == pytest.approx(9.0)

    def test_F_monotone_concave_f_increasing(self):
        wf = make_oscillating_F(0.5, 9.0)
        assert wf.kind is WarpKind.OSCILLATING_COUNTEREXAMPLE
        assert grid_monotone_increasing(wf.F, 1e-8, wf.f(0.99 * wf.domain_radius))
        assert grid_monotone_increasing(wf.f, 1e-6, 0.99 * wf.domain_radius)

    def test_roundtrip(self):
        wf = make_oscillating_F(0.5, 9.0)
        for x in np.geomspace(1e-5, 0.9 * wf.domain_radius, 25):
            assert wf.F(wf.f(x)) == pytest.approx(x, rel=1e-9)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            make_oscillating_F(0.5, 5.0)


class TestFrakF:
    def test_power_closed_form(self):
        # for f = x^alpha the ratio functional is sigma^(1/alpha - 1)
        for alpha, sigma in [(2.0, 2.0), (1.5, 3.0), (3.0, 1.7)]:
            est = sg.estimate_frakF(sg.make_power_warp(alpha), sigma)
            assert est.verdict == "converged"
            assert est.value == pytest.approx(sigma ** (1.0 / alpha - 1.0), rel=1e-6)

    def test_exp_families_approach_one_over_sigma(self):
        # the limit 1/sigma is attained only logarithmically, so the
        # empirical ladder stays "inconclusive"; the closed form is exact
        for wf in (sg.make_exp_warp("log_power", 1.5),
                   sg.make_exp_warp("exp_inverse_power", 1.0)):
            assert wf.frakF_closed_form(2.0) == pytest.approx(0.5)
            est = sg.estimate_frakF(wf, 2.0)
            tail = np.asarray(est.ladder_values)[-10:]
            assert np.all(np.diff(tail) < 0)
            assert np.all((tail > 0.5) & (tail <= 1.0))

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(1.0, 3.0), sigma=st.floats(1.2, 5.0))
    def test_converged_value_in_bounds(self, alpha, sigma):
        est = sg.estimate_frakF(sg.make_power_warp(alpha), sigma)
        assert est.verdict == "converged"
        assert 1.0 / sigma - 1e-6 <= est.value <= 1.0 + 1e-6


class TestCf:
    def test_flat_cone_pi(self):
        value, err = sg.compute_Cf_detailed(sg.make_power_warp(1.0))
        assert value == pytest.approx(math.pi, abs=1e-10)
        assert err < 1e-9

    def test_quadratic_cusp_beta(self):
        # C_f for f = r^2 equals Gamma(3/4) Gamma(1/2) / Gamma(5/4)
        oracle = gamma(0.75) * gamma(0.5) / gamma(1.25)
        assert sg.compute_Cf(sg.make_power_warp(2.0)) == pytest.approx(oracle, rel=1e-9)

    def test_exp_inverse_two(self):
        assert sg.compute_Cf(sg.make_exp_warp("exp_inverse_power", 1.0)) == \
            pytest.approx(2.0, abs=1e-7)

    def test_range(self):
        for spec in ("power:1", "power:1.3", "power:2", "power:4", "logpow:1.5",
                     "expinv:0.5"):
            val = sg.compute_Cf(sg.parse_warp_spec(spec))
            assert 2.0 - 1e-9 <= val <= math.pi + 1e-9

    def test_oscillating_rejected(self):
        with pytest.raises(NonOscillationError):
            sg.compute_Cf(make_oscillating_F(0.5, 9.0))

    def test_monotonicity_pairs(self):
        rep = sg.check_Cf_monotonicity(sg.make_power_warp(3.0), sg.make_power_warp(1.5))
        assert rep.passed
        rep = sg.check_Cf_monotonicity(sg.make_exp_warp("exp_inverse_power", 1.0),
                                       sg.make_power_warp(5.0, R=0.5))
        assert rep.passed
        rep = sg.check_Cf_monotonicity(sg.make_exp_warp("exp_inverse_power", 2.0),
                                       sg.make_exp_warp("exp_inverse_power", 1.0))
        assert rep.passed
        # f_big underflows to 0 near the tip, where f_small/f_big still blows up
        for small, big in [("expinv:1", "expinv:2"), ("power:2", "expinv:1")]:
            with pytest.raises(ValueError, match="ordering hypothesis fails"):
                sg.check_Cf_monotonicity(sg.parse_warp_spec(small), sg.parse_warp_spec(big))

    @settings(max_examples=15, deadline=None)
    @given(lo=st.floats(1.0, 2.0), gap=st.floats(0.1, 2.0))
    def test_monotonicity_power_family(self, lo, gap):
        # faster-vanishing warp (larger alpha) never has the larger constant
        rep = sg.check_Cf_monotonicity(sg.make_power_warp(lo + gap),
                                       sg.make_power_warp(lo))
        assert rep.passed


class TestProfileToWarp:
    def test_straight_line(self):
        wf = sg.profile_to_warp(lambda z: z, lambda z: 1.0, 1.0)
        for r in (1e-4, 1e-2, 0.5, 1.2):
            assert wf.f(r) == pytest.approx(r / math.sqrt(2.0), rel=1e-10)
        assert wf.kind is WarpKind.CONICAL

    def test_parabola(self):
        wf = sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0)
        assert wf.kind is WarpKind.CUSPIDAL
        assert wf.f(1e-3) == pytest.approx(1e-6, rel=1e-2)
        assert grid_convex(wf.f, 1e-4 * wf.domain_radius, 0.999 * wf.domain_radius)
        xs = np.geomspace(1e-3, 0.99 * wf.domain_radius, 30)
        for x in xs:
            assert wf.F(wf.f(x)) == pytest.approx(x, rel=1e-12)

    def test_sqrt_profile_is_conical(self):
        wf = sg.profile_to_warp(lambda z: np.sqrt(z), lambda z: 0.5 / np.sqrt(z), 1.0)
        assert wf.kind is WarpKind.CONICAL
        # tangent to the axis at the tip: f(r) ~ r
        assert wf.f(1e-3) == pytest.approx(1e-3, rel=1e-3)

    def test_arc_length_rule_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.array_equal(warp_profiles._GL_NODES, nodes)
        assert np.array_equal(warp_profiles._GL_WEIGHTS, weights)

    def test_sqrt_profile_knots_are_exact_arc_length(self):
        # with u = sqrt(z) = s, the arc length of (z, sqrt z) is
        # int_0^u sqrt(4v^2 + 1) dv; the tip cell, where s' is infinite, too
        wf = sg.profile_to_warp(np.sqrt, lambda z: 0.5 / np.sqrt(z), 1.0)
        table = wf.f.__self__
        u, r = np.array(table.y), np.array(table.x)
        exact = 0.5 * u * np.sqrt(4.0 * u * u + 1.0) + 0.25 * np.arcsinh(2.0 * u)
        assert r[0] == 0.0
        assert np.max(np.abs(r[1:] / exact[1:] - 1.0)) <= 1e-12

    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            sg.profile_to_warp(lambda z: 1.0 + z, lambda z: 1.0, 1.0)  # s(0) != 0
        with pytest.raises(ValueError):
            sg.profile_to_warp(lambda z: np.sin(5 * z), lambda z: 5 * np.cos(5 * z),
                               1.0)  # not increasing


@pytest.fixture(scope="module")
def profile_warps(tmp_path_factory):
    """A 200-row parabola CSV and the z, z^2 and z^(1/2) lambda profiles."""
    path = tmp_path_factory.mktemp("profile") / "parabola.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "s"])
        w.writerows((z, z * z) for z in np.linspace(0.0, 1.0, 200))
    return {
        "csv": sg.load_profile_csv(str(path)),
        "line": sg.profile_to_warp(lambda z: z, lambda z: 1.0, 1.0),
        "parabola": sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0),
        "sqrt": sg.profile_to_warp(lambda z: np.sqrt(z), lambda z: 0.5 / np.sqrt(z), 1.0),
    }


PROFILES = ["csv", "line", "parabola", "sqrt"]


class TestProfileTable:
    @pytest.mark.parametrize("name", PROFILES)
    def test_tangent_line_past_R(self, profile_warps, name):
        # no clamp at R: f continues as its tangent line, F inverts that line
        wf = profile_warps[name]
        R = wf.domain_radius
        fR, fpR = wf.f(R), wf.f_prime(R)
        assert wf.f_prime(R * (1.0 - 1e-12)) == pytest.approx(fpR, rel=1e-9)
        for r in (1.01 * R, 1.1 * R, 1.2 * R):
            assert wf.f(r) == pytest.approx(fR + fpR * (r - R), rel=1e-15)
            assert wf.f_prime(r) == fpR
            assert wf.F(wf.f(r)) == pytest.approx(r, abs=1e-13)
        # an exit sample's exp(log f(R)) may round above f(R)
        assert wf.F(math.nextafter(fR, math.inf)) == pytest.approx(R, abs=1e-13)
        assert wf.F(math.exp(wf.log_f(R))) == pytest.approx(R, abs=1e-13)

    @pytest.mark.parametrize("name", PROFILES)
    def test_rejects_negative_or_non_finite(self, profile_warps, name):
        wf = profile_warps[name]
        for bad in (-1e-300, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                wf.F(bad)
        for bad in (-1e-300, math.nan):
            with pytest.raises(ValueError):
                wf.f(bad)
            with pytest.raises(ValueError):
                wf.f_prime(bad)
        assert wf.F(0.0) == 0.0 and wf.f(0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(PROFILES),
           frac=st.one_of(st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
                          st.floats(1.0, 1.2, exclude_min=True)))
    def test_inverse_round_trip(self, profile_warps, name, frac):
        wf = profile_warps[name]
        r = frac * wf.domain_radius
        assert abs(wf.F(wf.f(r)) - r) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(PROFILES), data=st.data())
    def test_central_difference_across_knots(self, profile_warps, name, data):
        # the reduced right-hand side takes f' for the derivative of f
        wf = profile_warps[name]
        knots = wf.f.__self__.x  # f is a bound method of the warp's table
        knot = knots[data.draw(st.integers(1, len(knots) - 1), label="knot")]
        h = 1e-7 * knot
        r = knot + 0.5 * h * data.draw(st.floats(-1.0, 1.0), label="offset")
        central = (wf.f(r + h) - wf.f(r - h)) / (2.0 * h)
        assert central == pytest.approx(wf.f_prime(r), rel=1e-6)


def inverse_faults(wf, ys) -> list:
    """The checks that the table inverse F of the profile warp ``wf`` fails
    at the values ``ys`` in [0, f(R)]: F(y) must be the least x with
    f(x) >= y, on the float path and on the array path, and each array
    element must equal the float call."""
    floats = [wf.F(y) for y in ys]
    faults = []
    for path, xs in (("float", floats), ("array", wf.F(np.array(ys)).tolist())):
        if not all(wf.f(x) >= y and (x == 0.0 or wf.f(math.nextafter(x, 0.0)) < y)
                   for x, y in zip(xs, ys)):
            faults.append(f"{path}: not the least x")
    if wf.F(np.array(ys)).tolist() != floats:
        faults.append("array != float")
    return faults


def ulps_from(value: float, n: int) -> float:
    """The double ``n`` doubles above ``value`` (below for n < 0), not below 0."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.copysign(math.inf, n))
    return max(value, 0.0)


class TestInverseContract:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(PROFILES), data=st.data())
    def test_least_x_on_float_and_array_paths(self, profile_warps, name, data):
        # fractions of f(R), uniform and log-uniform, and values within 2 ulp
        # of a knot value or of f(R), where the search meets a cell's end
        wf = profile_warps[name]
        top = wf.f(wf.domain_radius)
        ends = list(wf.f.__self__.y) + [top]
        ys = data.draw(st.lists(st.one_of(
            st.floats(0.0, 1.0).map(lambda frac: frac * top),
            st.floats(-300.0, 0.0).map(lambda e: 10.0**e * top),
            st.builds(ulps_from, st.sampled_from(ends), st.integers(-2, 2))),
            min_size=1, max_size=8), label="ys")
        assert inverse_faults(wf, ys) == []

    @pytest.mark.parametrize("name", PROFILES)
    def test_knot_values_give_the_least_x(self, profile_warps, name):
        wf = profile_warps[name]
        assert inverse_faults(wf, list(wf.f.__self__.y)) == []

    def test_sqrt_knot_value_is_reached_below_its_knot(self, profile_warps):
        # the cubic of the cell that ends at knot 1 (1.0000000000006668e-06)
        # reaches the knot's value 1e-6 one double below it; F once gave the
        # knot itself
        wf = profile_warps["sqrt"]
        table = wf.f.__self__
        y, knot = table.y[1], table.x[1]
        assert wf.F(y) == wf.F(np.array([y]))[0] == math.nextafter(knot, 0.0)
        assert wf.f(wf.F(y)) >= y


def bisection_inverse(table, ys: np.ndarray):
    """The table's F as computed before its Newton search, the oracle of that
    search: each value's cell bisected in lockstep until no double lies
    inside the bracket.  It reads the table's cells and evaluates their
    cubics itself.  Returns the answers and each one's cubic evaluations."""
    x, y, m, c2, c3 = (np.array(column) for column in zip(*table.cells))
    last = len(x) - 1
    i = np.maximum(np.searchsorted(y, ys, side="left") - 1, 0)
    tangent = i == last
    lo, hi = x[i], np.where((ys == y[i]) | tangent, x[i], x[np.minimum(i + 1, last)])
    evaluations = np.zeros(len(ys), dtype=int)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        evaluations += live
        t = mid - x[i]
        below = y[i] + t * (m[i] + t * (c2[i] + t * c3[i])) < ys
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)
    return np.where(tangent, x[i] + (ys - y[i]) / np.where(tangent, m[i], 1.0), hi), evaluations


class CountingFloat(float):
    """A float that counts the additions it is the left operand of."""

    additions = 0

    def __add__(self, other):
        CountingFloat.additions += 1
        return float.__add__(self, other)


def newton_inverse(wf, ys):
    """Each float F(y) of the profile warp ``wf`` and its cubic evaluations:
    with c2 a CountingFloat, a cell's cubic y_i + t (m_i + t (c2 + t c3))
    counts one addition, and its slope none."""
    table = wf.f.__self__
    plain = table.cells
    table.cells = [(x0, y0, m, CountingFloat(c2), c3) for x0, y0, m, c2, c3 in plain]
    out = []
    try:
        for y in ys:
            CountingFloat.additions = 0
            out.append((wf.F(y), CountingFloat.additions))
    finally:
        table.cells = plain
    xs, evaluations = zip(*out)
    return np.array(xs), np.array(evaluations)


@pytest.fixture(scope="module")
def inverse_runs(profile_warps):
    """Per profile warp: 20,500 seeded values, 10,000 uniform in [0, f(R)],
    10,000 log-uniform in [1e-30, 1] f(R) and 500 in [1e-300, 1e-30] f(R)
    (below a cuspidal warp's second knot value each costs both searches
    hundreds of evaluations), then the 100 values f(r) of the radii r of a
    geometric ladder from 1e-3 R to 0.999 R; the float F of each and its
    cubic evaluations, and the bisection's."""
    runs = {}
    for seed, name in enumerate(PROFILES):
        wf = profile_warps[name]
        R, rng = wf.domain_radius, np.random.default_rng(seed)
        top = wf.f(R)
        ys = np.concatenate([rng.uniform(0.0, top, 10_000),
                             top * 10.0 ** rng.uniform(-30.0, 0.0, 10_000),
                             top * 10.0 ** rng.uniform(-300.0, -30.0, 500),
                             wf.f(np.geomspace(1e-3 * R, 0.999 * R, 100))])
        runs[name] = ys, newton_inverse(wf, ys.tolist()), bisection_inverse(wf.f.__self__, ys)
    return runs


# cubic evaluations of one float F: the median and the maximum over each
# warp's 20,500 seeded values and over its 100 ladder values, as measured
# (x86-64, the bisection took a median of 45-46 on each).  The search starts
# at the root of each cell's quadratic model; from the chord point, values
# below a cuspidal warp's second knot value, where f ~ c r^2, took up to
# 464-465 (seeded) and the ladder's medians were 4, its maxima 6
PINNED_EVALUATIONS = {
    "csv": ((3, 7), (4, 6)),
    "line": ((2, 4), (2, 4)),
    "parabola": ((3, 7), (3, 6)),
    "sqrt": ((3, 6), (3, 5)),
}


class TestNewtonInverse:
    @pytest.mark.parametrize("name", PROFILES)
    def test_same_answers_as_the_bisection(self, profile_warps, inverse_runs, name):
        ys, (xs, _), (oracle, _) = inverse_runs[name]
        differ = ys[xs != oracle].tolist()
        # every answer that differs must still be the least x; none did
        assert inverse_faults(profile_warps[name], differ) == []
        assert differ == []

    @pytest.mark.parametrize("name", PROFILES)
    def test_evaluations_are_pinned(self, inverse_runs, name):
        _, (_, evaluations), (_, halvings) = inverse_runs[name]
        for (median, most), counts in zip(PINNED_EVALUATIONS[name],
                                          (evaluations[:-100], evaluations[-100:])):
            assert counts.min() >= 1
            assert np.median(counts) <= median and counts.max() <= most, (
                np.median(counts), counts.max())
        # the halving fallback: no value in the normal range costs more
        # than the bisection did
        assert np.all(evaluations <= halvings)

    @pytest.mark.parametrize("name", ["csv", "parabola"])
    def test_tiny_values_in_a_cuspidal_first_cell(self, profile_warps, name):
        # in the first cell m_0 = 0 and f ~ c r^2: the chord point lay far
        # below the root, and Newton from above only halved its point, so
        # y = 1e-300 f(R) took 464-465 evaluations and subnormal values up to
        # 600, more than the bisection's 511-551; the quadratic model's root
        # starts next to the answer.  The whole-double steps still cross runs
        # of about 1e12 doubles with one cubic value below 1e-320
        wf = profile_warps[name]
        table = wf.f.__self__
        ys = [1e-300 * wf.f(wf.domain_radius), 2.2250738585072014e-308, 1e-310, 1e-315,
              1e-320, 5e-324]
        xs, evaluations = newton_inverse(wf, ys)
        oracle, halvings = bisection_inverse(table, np.array(ys))
        assert xs.tobytes() == oracle.tobytes() == wf.F(np.array(ys)).tobytes()
        assert np.all(evaluations <= halvings)
        assert evaluations[0] <= 2 and evaluations.max() <= 104, evaluations


CALLABLES = ("f", "f_prime", "log_f", "d_log_f", "F", "F_prime")
# one warp of each family, the callables whose array elements must equal the
# float call exactly, and the bound in ulp on the other callables.  A
# profile table's callables and the osc warp's log f run the float call on
# each element; the analytic formulas use + - * / alone where they are
# exact.  numpy's log, exp and pow differ from math's in the last bit; an
# exponential of a large logarithm (f and f' of logpow and expinv) turns one
# ulp of its argument into |log f| ulp.  Worst measured on the grids below
# (x86-64, numpy 2.4): power:1.5 2 ulp, logpow:1.5 31 (f and f'), expinv:1
# 22 (f), osc:0.5:9 4 ((log f)'), sqrt 1 (log f); each bound is its family's
# worst rounded up to the next power of ten
FAMILIES = {
    "power:1.5": ({"d_log_f"}, 10),
    "logpow:1.5": (set(), 100),
    "expinv:1": (set(), 100),
    "osc:0.5:9": ({"log_f"}, 10),
    "sqrt": ({"F", "F_prime", "d_log_f"}, 10),
    "profile": (set(CALLABLES), 10),
}


def family_warp(spec, profile_warps):
    return profile_warps["csv"] if spec == "profile" else sg.parse_warp_spec(spec)


def family_grid(wf, name: str) -> np.ndarray:
    """1000 radii in [1e-3 R, R], or for F and F' values in [1e-6 f(R), f(R)],
    half geometric and half uniform."""
    top = wf.f(wf.domain_radius) if name in ("F", "F_prime") else wf.domain_radius
    lo = top * (1e-6 if name in ("F", "F_prime") else 1e-3)
    rng = np.random.default_rng(7)
    return np.concatenate([np.geomspace(lo, top, 500), rng.uniform(lo, top, 500)])


class TestBroadcasting:
    @pytest.mark.parametrize("spec", sorted(FAMILIES))
    @pytest.mark.parametrize("name", CALLABLES)
    def test_shapes_and_types(self, profile_warps, spec, name):
        wf = family_warp(spec, profile_warps)
        fn, x = getattr(wf, name), float(family_grid(wf, name)[700])
        assert type(fn(x)) is float
        assert np.shape(fn(np.array(x))) == ()
        assert fn(np.empty(0)).shape == (0,)
        assert fn(np.full((2, 3), x)).shape == (2, 3)
        assert fn(np.full(4, x)).tolist() == [fn(np.array(x))] * 4

    @pytest.mark.parametrize("spec", sorted(FAMILIES))
    @pytest.mark.parametrize("name", CALLABLES)
    def test_elements_match_the_float_call(self, profile_warps, spec, name):
        wf = family_warp(spec, profile_warps)
        exact, bound = FAMILIES[spec]
        fn, xs = getattr(wf, name), family_grid(wf, name)
        ours, floats = fn(xs), np.array([fn(x) for x in xs.tolist()])
        if name in exact:
            assert ours.tolist() == floats.tolist()
        else:
            assert np.all(np.abs(ours - floats) <= bound * np.spacing(np.abs(floats)))

    def test_osc_array_log_f_rejects_non_positive_radii(self):
        wf = make_oscillating_F(0.5, 9.0)
        with pytest.raises(ValueError):
            wf.log_f(np.array([0.1, 0.0]))

    def test_osc_array_log_f_refuses_a_radius_past_its_bracket(self):
        # as the float root does: a query never clamps silently
        wf = make_oscillating_F(0.5, 9.0)
        for r in (20.0, np.array([20.0])):
            with pytest.raises(ValueError):
                wf.log_f(r)

    @pytest.mark.parametrize("name", CALLABLES)
    def test_a_nan_element_of_a_table_array_is_refused(self, profile_warps, name):
        with pytest.raises(ValueError):
            getattr(profile_warps["csv"], name)(np.array([0.1, math.nan]))


class TestParseWarpSpec:
    def test_families(self):
        assert sg.parse_warp_spec("power:2").label == "power:2"
        assert sg.parse_warp_spec("sqrt").kind is WarpKind.CONCAVE_EXPERIMENTAL
        assert sg.parse_warp_spec("osc:0.5:9").kind is WarpKind.OSCILLATING_COUNTEREXAMPLE
        assert sg.parse_warp_spec("logpow:1.5").kind is WarpKind.CUSPIDAL
        assert sg.parse_warp_spec("expinv:1").kind is WarpKind.CUSPIDAL

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            sg.parse_warp_spec("bogus:1")
        with pytest.raises(ValueError):
            sg.parse_warp_spec("power")

    @pytest.mark.parametrize("spec", ["power:2:3", "sqrt:1", "logpow:1.5:2", "expinv:1:1",
                                      "osc:0.5", "osc:0.5:9:1"])
    def test_wrong_number_of_fields(self, spec):
        with pytest.raises(ValueError, match="parameter"):
            sg.parse_warp_spec(spec)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1.0, 8.0), st.floats(1.0 + 1e-9, 4.0), st.floats(0.05, 4.0),
           st.floats(0.05, 0.95), st.floats(0.0, 4.0))
    def test_label_round_trips(self, alpha, mu, beta, osc_alpha, osc_excess):
        # the label is what trace.json, the sweep's config and the titles
        # record: parsing it builds the warp that was integrated
        c = oscillation_threshold(osc_alpha) + osc_excess
        warps = [sg.make_power_warp(alpha), sg.make_exp_warp("log_power", mu),
                 sg.make_exp_warp("exp_inverse_power", beta), make_oscillating_F(osc_alpha, c),
                 sg.make_concave_sqrt_warp()]
        for wf in warps:
            again = sg.parse_warp_spec(wf.label)
            assert again.label == wf.label
            r = 0.5 * wf.domain_radius
            assert (again.domain_radius, again.f(r), again.d_log_f(r)) == (
                wf.domain_radius, wf.f(r), wf.d_log_f(r))

    def test_label_keeps_g_text_where_exact(self):
        assert sg.make_power_warp(2.0).label == "power:2"
        assert sg.make_power_warp(2.123456789).label == "power:2.123456789"
        assert make_oscillating_F(0.5, 9.0).label == "osc:0.5:9"
