"""Errors must shrink with rtol: a tolerance ladder over rtol = 1e-6 ..
1e-12, with atol = rtol/100 at every rung.

Each acceptance check runs at one rtol against a fixed tolerance, so a
defect whose error does not shrink with the step size passes wherever it
sits below that tolerance.  Here the error divided by rtol is bounded on
every rung instead.  Each bound is the worst clean ratio measured (on an
x86-64 Xeon, Python 3.11, numpy 2.4), rounded up to the next power of ten:

- the flat cone: the worst relative r error against sqrt(t^2 + delta^2) at
  delta = 0.3, 0.1 and 0.01 (criterion 1's closed form).  Measured 0.14 -
  0.57 over the ladder; bound 1.
- the perturbed circle (``circle:2pi:pert=0.05``) and the perturbed sphere
  (``sphere:pert=0.05``), f = r^2, delta = 0.1 and 0.25, which have no
  closed form: self-convergence, the largest difference in r, theta, the
  point on Y and the scaled clock from a run at rtol/100, on 513 common
  times, over rtol = 1e-6 .. 1e-10.  Measured 0.77 - 5.4 (circle) and
  0.60 - 5.2 (sphere); bound 10.  It sees the stepper, its dense output and
  the generated right-hand side's determinism, not a wrong vector field
  (the parity tests of ``tests/test_straightline.py`` and the shell checks
  cover that).  delta = 0.05 is left out: there the sphere reads 187 (at
  rtol 1e-6) and the circle 12.6 (at 1e-9), both over the bound, although
  the covector is integrated as eta/f(delta), of size 1, so atol does not
  cause it (integrating eta itself, they read 189 and 22.1).
- the reduced path's winding length against ``closed_form_winding_length``
  (the flat circle; power:2 at delta = 0.3, 0.1 and 0.03, expinv:1 at 0.3
  and 0.2, logpow:1.5 at 0.2 and 0.1), the worst relative error per warp
  over rtol = 1e-6 .. 1e-11.  Measured worst 0.032 (power), 0.136
  (expinv) and 0.403 (logpow); bound 1.  The ladder stops at 1e-11, the
  oracle's own relative accuracy: at 1e-12 logpow reads 1.06.
- the full path's winding length on the round sphere against the same
  oracle, for the same warps and deltas over rtol = 1e-6 .. 1e-11.  The
  round sphere runs the reduced path; these cases route it through the
  full system (``sphere_on_the_full_path`` in ``conftest.py``).
  Measured worst 0.034 (power), 0.055 (expinv) and 0.086 (logpow, delta =
  0.1 at 1e-11); bound 0.1.

A dense-output coefficient D[0, 5] off by 1e-6 passes criterion 1 (r err
6.8e-9 against 1e-8) but fails this ladder: the cone reads 1.3 at 1e-8 and
4200 at 1e-12, the perturbed circle 30 at 1e-9 and 278 at 1e-10, the
perturbed sphere 114 at 1e-10, the winding length 5.45 (expinv) and 7.53 (logpow) at 1e-11, and on the round
sphere 0.175 (power), 0.62 (expinv) and 1.07 (logpow) at 1e-11.
"""
import math

import numpy as np
import pytest

import singular_geodesics as sg
from singular_geodesics import dop853
from singular_geodesics.experiments import closed_form_winding_length

LADDER = [10.0 ** -e for e in range(6, 13)]
CONE_BOUND = 1.0
SELF_CONVERGENCE_BOUND = 10.0
# the perturbed sections of the self-convergence ladder, with their launch
# (y0, v0)
SELF_CONVERGENCE_SECTIONS = {
    "circle": (sg.circle_section(2 * math.pi, (0.05, None)), [0.3], [1.0]),
    "sphere": (sg.sphere_section((0.05, None)), [math.pi / 2, 0.3],
               [math.sin(1.0), math.cos(1.0)]),
}
LENGTH_LADDER = LADDER[:-1]
LENGTH_BOUND = 1.0
SPHERE_LENGTH_BOUND = 0.1
LENGTH_CASES = {"power:2": (0.3, 0.1, 0.03), "expinv:1": (0.3, 0.2), "logpow:1.5": (0.2, 0.1)}
# the flat circle runs the reduced path, the round sphere the full one
# (under the fixture sphere_on_the_full_path)
LENGTH_SECTIONS = {
    "reduced": (sg.circle_section(2 * math.pi), [0.0], [1.0]),
    "full": (sg.sphere_section(), [math.pi / 2, 0.3], [math.sin(1.0), math.cos(1.0)]),
}


def cone_ratios() -> list:
    """Worst relative r error of the flat cone over three deltas, divided
    by rtol, per rung."""
    wf, cs = sg.make_power_warp(1.0), sg.circle_section(2 * math.pi)
    ratios = []
    for rtol in LADDER:
        worst = 0.0
        for delta in (0.3, 0.1, 0.01):
            traj = sg.integrate_winding(wf, cs, delta, [0.0], [1.0], rtol=rtol, atol=rtol / 100)
            model = np.sqrt(traj.t ** 2 + delta ** 2)
            worst = max(worst, float(np.max(np.abs(traj.r / model - 1.0))))
        ratios.append(worst / rtol)
    return ratios


def self_convergence_ratios(cs, y0, v0, delta: float) -> list:
    """Largest state difference of f = r^2 on the section ``cs``, launched
    from ``y0`` along ``v0``, from its run at rtol/100, divided by rtol, for
    rtol = 1e-6 .. 1e-10."""
    wf = sg.make_power_warp(2.0)
    runs = [sg.integrate_winding(wf, cs, delta, y0, v0, rtol=rtol, atol=rtol / 100,
                                 dense_nodes=16) for rtol in LADDER]
    ratios = []
    for rtol, run, finer in zip(LADDER, runs, runs[2:]):
        ts = np.linspace(max(run.t_min, finer.t_min), min(run.t_max, finer.t_max), 513)
        a, b = run._evaluate(ts), finer._evaluate(ts)
        gap = max(float(np.max(np.abs(getattr(a, name) - getattr(b, name))))
                  for name in ("r", "theta", "y", "tau_scaled"))
        ratios.append(gap / rtol)
    return ratios


def length_ratios(spec: str, path: str = "reduced") -> list:
    """Worst relative error of the winding length on ``path`` against
    ``closed_form_winding_length`` over the warp's deltas, divided by rtol,
    per rung."""
    wf, (cs, y0, v0) = sg.parse_warp_spec(spec), LENGTH_SECTIONS[path]
    deltas = LENGTH_CASES[spec]
    oracles = [closed_form_winding_length(wf, delta) for delta in deltas]
    ratios = []
    for rtol in LENGTH_LADDER:
        worst = 0.0
        for delta, oracle in zip(deltas, oracles):
            traj = sg.integrate_winding(wf, cs, delta, y0, v0, rtol=rtol, atol=rtol / 100,
                                        dense_nodes=16)
            assert traj.meta["path"] == path
            worst = max(worst, abs(sg.winding_length(traj) / oracle - 1.0))
        ratios.append(worst / rtol)
    return ratios


def test_flat_cone_error_shrinks_with_rtol():
    ratios = cone_ratios()
    assert max(ratios) < CONE_BOUND, ratios


@pytest.mark.parametrize("delta", [0.1, 0.25])
@pytest.mark.parametrize("section", sorted(SELF_CONVERGENCE_SECTIONS))
def test_perturbed_section_self_convergence_shrinks_with_rtol(section, delta):
    ratios = self_convergence_ratios(*SELF_CONVERGENCE_SECTIONS[section], delta)
    assert max(ratios) < SELF_CONVERGENCE_BOUND, ratios


@pytest.mark.parametrize("spec", sorted(LENGTH_CASES))
def test_reduced_winding_length_error_shrinks_with_rtol(spec):
    ratios = length_ratios(spec)
    assert max(ratios) < LENGTH_BOUND, ratios


@pytest.mark.parametrize("spec", sorted(LENGTH_CASES))
def test_round_sphere_winding_length_error_shrinks_with_rtol(spec, sphere_on_the_full_path):
    ratios = length_ratios(spec, "full")
    assert max(ratios) < SPHERE_LENGTH_BOUND, ratios


def test_scaled_dense_output_coefficient_fails_the_ladder(monkeypatch, sphere_on_the_full_path):
    D = dop853.D.copy()
    D[0, 5] *= 1.0 + 1e-6
    monkeypatch.setattr(dop853, "D", D)
    assert max(cone_ratios()) > CONE_BOUND
    for section in sorted(SELF_CONVERGENCE_SECTIONS):
        ratios = self_convergence_ratios(*SELF_CONVERGENCE_SECTIONS[section], 0.1)
        assert max(ratios) > SELF_CONVERGENCE_BOUND, section
    # power:2's winding length reads only 0.071 here
    assert max(length_ratios("expinv:1")) > LENGTH_BOUND
    assert max(length_ratios("logpow:1.5")) > LENGTH_BOUND
    for spec in sorted(LENGTH_CASES):
        assert max(length_ratios(spec, "full")) > SPHERE_LENGTH_BOUND, spec
