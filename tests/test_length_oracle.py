"""The two quadrature oracles against mpmath: the length oracle
``closed_form_winding_length`` and the length constant ``compute_Cf``.

The length's integrand, 2 s f(delta) / (f^2 sqrt(1 - (f(delta)/f)^2)) at r =
delta + s^2, is written here from each warp family's own formula in mpmath,
not from the package's ``wf.f``, so the two share no code.  Near s = 0, 1 -
q^2 is of order s^2 (1e-24 at s = 1e-12): the mpmath integrand works at 80
digits so that its value holds 30.  The lengths are mpmath's Gauss-Legendre
over the s interval cut into 8 panels at (k/8)^2 of its end, at 30 digits.
Before the near-end form, the integrand read 2.0e143 on power:2 at delta =
0.1 and s = 1e-9 (``old_integrand``), and the first four lengths below were
off by 3.2e-14 to 7.2e-13.  The package integrates f(delta) times this
integrand, which depends on f only through q, and divides by f(delta) once:
before that, f(r)^2 underflowed where f(delta) is below about 1e-154.

C_f is checked against its closed forms: pi on the cone (power:1),
Gamma(3/4) Gamma(1/2) / Gamma(5/4) on power:2, and 2 on the exponential
cusps (expinv:1, logpow:1.5)."""
import math

import mpmath as mp
import pytest

import singular_geodesics as sg
from singular_geodesics import experiments
from singular_geodesics.experiments import closed_form_winding_length

FAMILIES = {
    "power:2": lambda r: r ** 2,
    "expinv:1": lambda r: mp.exp(-1 / r),
    "logpow:1.5": lambda r: mp.exp(-mp.log(1 / r) ** mp.mpf(1.5)),
}
NEAR_END = [1e-12, 1e-10, 1e-9, 1e-8]


def mp_integrand(f, delta, s):
    """The length integrand of warp ``f`` at s, in 80-digit mpmath."""
    with mp.workdps(80):
        d, s = mp.mpf(delta), mp.mpf(s)
        fd, fr = f(d), f(d + s * s)
        q = fd / fr
        return +(2 * s * fd / (fr * fr * mp.sqrt(1 - q * q)))


def mp_length(f, delta, R):
    with mp.workdps(30):
        end = mp.sqrt(mp.mpf(R) - mp.mpf(delta))
        panels = [end * mp.mpf(k) ** 2 / 64 for k in range(9)]
        return 2 * mp.quad(lambda s: mp_integrand(f, delta, s), panels,
                           method="gauss-legendre")


def integrand(spec, delta, s):
    """The package's length integrand, which is f(delta) times the one of
    ``mp_integrand``, divided by f(delta)."""
    wf = sg.parse_warp_spec(spec)
    fd = wf.f(delta)
    return experiments._length_integrand(s, wf, delta, fd,
                                         experiments.LENGTH_NEAR_END * delta) / fd


def old_integrand(s, wf, delta, fd, near):
    """f(delta) times the integrand before the near-end form: 1 - q^2 by
    cancellation, at a clamped floor."""
    q = fd / wf.f(delta + s * s)
    return 2.0 * s * q * q / math.sqrt(max(1.0 - q * q, 1e-300))


@pytest.mark.parametrize("s", NEAR_END)
@pytest.mark.parametrize("spec", sorted(FAMILIES))
def test_the_integrand_holds_near_the_end(spec, s):
    ours = integrand(spec, 0.1, s)
    assert math.isfinite(ours)
    assert abs(ours / mp_integrand(FAMILIES[spec], 0.1, s) - 1) < 1e-12


@pytest.mark.parametrize("spec", sorted(FAMILIES))
def test_the_integrand_at_the_end_is_its_limit(spec):
    f = FAMILIES[spec]
    with mp.workdps(30):
        d = mp.mpf(0.1)
        limit = 2 / (f(d) * mp.sqrt(2 * mp.diff(lambda r: mp.log(f(r)), d)))
    assert abs(integrand(spec, 0.1, 0.0) / limit - 1) < 1e-14


def test_the_old_integrand_fails_near_the_end(monkeypatch):
    monkeypatch.setattr(experiments, "_length_integrand", old_integrand)
    assert integrand("power:2", 0.1, 1e-9) > 1e143
    assert abs(integrand("power:2", 0.1, 1e-8) / mp_integrand(FAMILIES["power:2"], 0.1, 1e-8)
               - 1) > 1e-2


# power:2 at the first rungs of criterion 3's ladder (0.0956 was 1.3e-13
# off) and far below them, and the exponential cusps at 0.1
LENGTH_CASES = [("power:2", 0.3), ("power:2", 0.09558497852172912), ("power:2", 1e-4),
                ("expinv:1", 0.1), ("logpow:1.5", 0.1)]


@pytest.mark.parametrize("spec, delta", LENGTH_CASES)
def test_lengths_match_mpmath(spec, delta):
    wf = sg.parse_warp_spec(spec)
    reference = mp_length(FAMILIES[spec], delta, wf.domain_radius)
    assert abs(closed_form_winding_length(wf, delta) / reference - 1) < 1e-14


def test_a_planted_bias_fails(monkeypatch):
    length = experiments._length_integrand

    def biased(s, *args):
        return length(s, *args) * (1.0 + 1e-10)
    monkeypatch.setattr(experiments, "_length_integrand", biased)
    wf = sg.parse_warp_spec("power:2")
    reference = mp_length(FAMILIES["power:2"], 0.3, wf.domain_radius)
    assert abs(closed_form_winding_length(wf, 0.3) / reference - 1) > 5e-11


def test_an_underflowing_f_delta_gives_an_infinite_length():
    # exp(-1000) underflows: the stepper's scaled run reads the length as
    # inf, and so does the oracle, where it divided by f(r)^2 = 0
    wf = sg.parse_warp_spec("expinv:1", R=0.5)
    assert wf.f(1e-3) == 0.0
    traj = sg.integrate_winding(wf, sg.circle_section(2 * math.pi), 1e-3, [0.0], [1.0])
    assert sg.winding_length(traj) == math.inf
    assert closed_form_winding_length(wf, 1e-3) == math.inf


@pytest.mark.parametrize("delta", [1 / 391, 1 / 700, 1 / 720])
def test_a_tiny_f_delta_keeps_its_finite_length(delta):
    # f(delta) is 1.6e-170, 9.9e-305 and 2.0e-313 (subnormal): f(r)^2
    # underflowed the unscaled integrand to a ZeroDivisionError.  The
    # subnormal f(delta) keeps about 37 bits, so the two agree to 1.2e-11
    wf = sg.parse_warp_spec("expinv:1", R=0.5)
    assert 0.0 < wf.f(delta) < 1e-154
    traj = sg.integrate_winding(wf, sg.circle_section(2 * math.pi, domain_radius=0.5), delta,
                                [0.0], [1.0])
    length = sg.winding_length(traj)
    assert math.isfinite(length)
    assert abs(closed_form_winding_length(wf, delta) / length - 1) < 1e-9


CF_CASES = {
    "power:1": lambda: mp.pi,
    "power:2": lambda: mp.gamma(0.75) * mp.gamma(0.5) / mp.gamma(1.25),
    "expinv:1": lambda: mp.mpf(2),
    "logpow:1.5": lambda: mp.mpf(2),
}


@pytest.mark.parametrize("spec", sorted(CF_CASES))
def test_Cf_matches_its_closed_form(spec):
    with mp.workdps(30):
        reference = CF_CASES[spec]()
        assert abs(sg.compute_Cf(sg.parse_warp_spec(spec)) / reference - 1) < 2e-15
