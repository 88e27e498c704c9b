"""The full system's right-hand side is generated: ``geodesic_flow._full_rhs``
traces its slopes once on recorded values (``straightline``) and compiles
the lines.  The oracle here is the body it was traced from, evaluated on
floats as the package evaluated it before (``reference_rhs``, one call of
each formula and of ``cometric`` per evaluation).  It shares the formulas
and ``cometric`` with the generated code, not the recorder, the emitted
text or the compile cache, so it sees a wrong or reordered operation in the
generated code to the last bit: an emitter that swaps the operands of one
subtraction fails it.  A wrong formula fools both; the shell, bound and
length checks of ``tests/test_oracle_sensitivity.py`` judge those."""
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import singular_geodesics as sg
from singular_geodesics import IntegrationError, dop853, geodesic_flow, straightline
from singular_geodesics.cross_sections import static_sphere_bump
from singular_geodesics.experiments import run_bounds_campaign


def reference_rhs(wf, cs, k):
    """The full system's right-hand side evaluated on floats."""
    r_max = 1.25 * wf.domain_radius
    f, d_log_f = wf.scalar("f"), wf.scalar("d_log_f")

    def rhs(_, x):
        r, th = x[0], x[1]
        if not 0.0 < r <= r_max:
            raise IntegrationError(f"r={r:g} outside (0, R)")
        sharp, norm2, qr_q, force = cs.cometric(r, x[2:2 + k], x[2 + k:2 + 2 * k])
        fr = f(r)
        f2 = fr * fr
        return [math.sin(th), (d_log_f(r) + qr_q) * math.cos(th),
                *[v / f2 for v in sharp + force], math.sqrt(norm2) / f2]
    return rhs


WARPS = {
    "power": sg.make_power_warp(2.37),
    "logpow": sg.parse_warp_spec("logpow:1.5"),
    "expinv": sg.parse_warp_spec("expinv:1"),
    "sqrt": sg.parse_warp_spec("sqrt"),
    "osc": sg.parse_warp_spec("osc:0.5:9"),
    "table": sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0),
}
# warps whose callables are not formulas: the generated code calls their
# math evaluators
OPAQUE = {"osc", "table"}
SECTIONS = {
    "perturbed_circle": (sg.circle_section(3.0, (0.08, None)), 1),
    "round_sphere": (sg.sphere_section(), 3),
    "perturbed_sphere": (sg.sphere_section((0.05, None)), 3),
    "static_bump_sphere": (sg.sphere_section((0.1, static_sphere_bump)), 3),
}


def outcome(rhs, x):
    """The bits of ``rhs(0.0, x)``, or the type of the error it raised."""
    try:
        return [float(v).hex() for v in rhs(0.0, x)]
    except (ArithmeticError, ValueError, IntegrationError) as exc:
        return type(exc).__name__


def parity_faults(wf, cs, k, states) -> list:
    """The states at which the generated right-hand side and the reference
    differ in any bit."""
    generated, reference = geodesic_flow._full_rhs(wf, cs, k), reference_rhs(wf, cs, k)
    return [x for x in states if outcome(generated, x) != outcome(reference, x)]


def state(wf, k, r_fraction, theta, y, eta):
    return [r_fraction * 1.25 * wf.domain_radius, theta, *y[:k], *eta[:k], 0.0]


def fixed_states(wf, k, n=20, seed=3):
    rng = np.random.default_rng(seed)
    return [state(wf, k, rng.uniform(0.05, 1.0), rng.uniform(-1.5, 1.5),
                  rng.uniform(-2.0, 2.0, 3).tolist(), rng.uniform(-2.0, 2.0, 3).tolist())
            for _ in range(n)]


COMPONENTS = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)


@pytest.mark.parametrize("section", sorted(SECTIONS))
@pytest.mark.parametrize("warp", sorted(WARPS))
@settings(max_examples=15, deadline=None)
@given(r_fraction=st.floats(0.04, 1.0), theta=st.floats(-1.5, 1.5), y=COMPONENTS,
       eta=COMPONENTS)
def test_generated_rhs_matches_the_float_body_bit_for_bit(warp, section, r_fraction, theta,
                                                          y, eta):
    wf, (cs, k) = WARPS[warp], SECTIONS[section]
    # the sphere's point must not be near the origin, where n/|n| blows up
    assume(k == 1 or math.hypot(*y) > 0.1)
    assert parity_faults(wf, cs, k, [state(wf, k, r_fraction, theta, y, eta)]) == []


@pytest.mark.parametrize("warp", sorted(WARPS))
def test_only_non_formula_warps_are_called_from_the_generated_code(warp):
    wf, (cs, k) = WARPS[warp], SECTIONS["perturbed_sphere"]
    calls = re.findall(r"\bc\d+\(", inspect.getsource(geodesic_flow._full_rhs(wf, cs, k)))
    assert len(calls) == (2 if warp in OPAQUE else 0)  # f and (log f)'


def test_formulas_reached_through_a_wrapper_are_traced():
    # as the benchmark's traced run hands warps over: each callable wrapped
    # in a recording function without a math evaluator of its own
    def wrapped(fn):
        def call(x):
            return fn(x)
        return call
    wf = WARPS["logpow"]
    traced = dataclasses.replace(wf, f=wrapped(wf.f), d_log_f=wrapped(wf.d_log_f))
    cs, k = SECTIONS["perturbed_circle"]
    rhs = geodesic_flow._full_rhs(traced, cs, k)
    assert not re.search(r"\bc\d+\(", inspect.getsource(rhs))
    states = fixed_states(wf, k)
    assert [outcome(rhs, x) for x in states] == [outcome(reference_rhs(wf, cs, k), x)
                                                for x in states]


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_domain_guard(section):
    wf, (cs, k) = WARPS["power"], SECTIONS[section]
    rhs = geodesic_flow._full_rhs(wf, cs, k)
    r_max = 1.25 * wf.domain_radius
    x = fixed_states(wf, k, n=1)[0]
    for r in (0.0, -0.1, math.nextafter(r_max, math.inf), math.nan, math.inf):
        with pytest.raises(IntegrationError, match="outside"):
            rhs(0.0, [r] + x[1:])
    assert len(rhs(0.0, [r_max] + x[1:])) == len(x)


def test_a_campaign_compiles_once_per_structure(monkeypatch):
    # the source depends on the section class, shape, warp family and k, not
    # on alpha, delta or the amplitude, which the campaign draws per case;
    # its full-path structures are the perturbed circle and the round sphere
    monkeypatch.setattr(dop853, "_COMPILED", {})
    run_bounds_campaign(20)
    sources = [s for s in dop853._COMPILED if s.startswith("def factory")]
    assert 1 <= len(sources) <= 2


def test_one_source_per_structure():
    cs, k = SECTIONS["perturbed_circle"]
    sources = {inspect.getsource(geodesic_flow._full_rhs(sg.make_power_warp(alpha), other, k))
               for alpha in (1.0, 1.7, 2.5)
               for other in (cs, sg.circle_section(5.0, (0.02, None)))}
    assert len(sources) == 1


def test_swapped_subtraction_fails_the_parity_check(monkeypatch):
    wf, (cs, k) = WARPS["power"], SECTIONS["perturbed_sphere"]
    states = fixed_states(wf, k)
    assert parity_faults(wf, cs, k, states) == []
    original = straightline.Var.__sub__

    def swapped(a, b):
        # the first subtraction of each trace records b - a
        if any(" - " in line for line in a.tape.lines):
            return original(a, b)
        return a.tape.assign(f"{a.tape.operand(b)} - {a.name}")
    monkeypatch.setattr(straightline.Var, "__sub__", swapped)
    assert len(parity_faults(wf, cs, k, states)) == len(states)
