"""The length oracle ``closed_form_winding_length`` against mpmath.

Its integrand, 2 s f(delta) / (f^2 sqrt(1 - (f(delta)/f)^2)) at r = delta +
s^2, is written here from each warp family's own formula in mpmath, not from
the package's ``wf.f``, so the two share no code.  Near s = 0, 1 - q^2 is of
order s^2 (1e-24 at s = 1e-12): the mpmath integrand works at 80 digits so
that its value holds 30.  The lengths are mpmath's Gauss-Legendre over the
s interval cut into 8 panels at (k/8)^2 of its end, at 30 digits.  Before
the near-end form, the integrand read 2.0e143 on power:2 at delta = 0.1 and
s = 1e-9 (``old_integrand``), and the four lengths below were off by 3.2e-14
to 7.2e-13."""
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
    wf = sg.parse_warp_spec(spec)
    return experiments._length_integrand(s, wf, delta, wf.f(delta),
                                         experiments.LENGTH_NEAR_END * delta)


def old_integrand(s, wf, delta, fd, near):
    """The integrand before the near-end form: 1 - q^2 by cancellation, at
    a clamped floor."""
    fr = wf.f(delta + s * s)
    q = fd / fr
    return 2.0 * s * fd / (fr * fr * math.sqrt(max(1.0 - q * q, 1e-300)))


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
# off), and the exponential cusps at 0.1
LENGTH_CASES = [("power:2", 0.3), ("power:2", 0.09558497852172912), ("expinv:1", 0.1),
                ("logpow:1.5", 0.1)]


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
