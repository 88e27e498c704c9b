"""Both flow right-hand sides are generated: ``geodesic_flow._full_rhs`` and
``geodesic_flow._reduced_rhs`` trace their slopes once on recorded values
(``straightline``) and compile the lines.  The oracle here is the body each
was traced from, evaluated on floats as the package evaluated it before
(``reference_rhs`` and ``reduced_reference_rhs``, one call of each formula
and of ``cometric`` per evaluation).  It shares the formulas and
``cometric`` with the generated code, not the recorder, the emitted text or
the compile cache, so it sees a wrong or reordered operation in the
generated code to the last bit: an emitter that swaps the operands of one
subtraction fails it.  A wrong formula fools both; the shell, bound and
length checks of ``tests/test_oracle_sensitivity.py`` judge those.

The last test checks the dispatch that every formula goes through: each of
``straightline``'s five functions gives numpy's bits on an ndarray, math's
Python float on anything else, and one recorded line on a ``Var``."""
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
    f, d_log_f = wf.f, wf.d_log_f

    def rhs(_, *x):
        r, th = x[0], x[1]
        if not 0.0 < r <= r_max:
            raise IntegrationError(f"r={r:g} outside (0, R)")
        sharp, norm2, qr_q, force = cs.cometric(r, x[2:2 + k], x[2 + k:2 + 2 * k])
        fr = f(r)
        f2 = fr * fr
        return [math.sin(th), (d_log_f(r) + qr_q) * math.cos(th),
                *[v / f2 for v in sharp + force], math.sqrt(norm2) / f2]
    return rhs


def reduced_reference_rhs(wf, log_fd, log_fpd):
    """The reduced system's right-hand side evaluated on floats."""
    L0 = log_fpd + log_fd

    def rhs(_, *x):
        r, th = x[0], x[1]
        return [math.sin(th), wf.d_log_f(r) * math.cos(th), math.exp(L0 - 2.0 * wf.log_f(r))]
    return rhs


WARPS = {
    "power": sg.make_power_warp(2.37),
    "logpow": sg.parse_warp_spec("logpow:1.5"),
    "expinv": sg.parse_warp_spec("expinv:1"),
    "sqrt": sg.parse_warp_spec("sqrt"),
    "osc": sg.parse_warp_spec("osc:0.5:9"),
    "table": sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0),
}
SECTIONS = {
    "perturbed_circle": (sg.circle_section(3.0, (0.08, None)), 1),
    "round_sphere": (sg.sphere_section(), 3),
    "perturbed_sphere": (sg.sphere_section((0.05, None)), 3),
    "static_bump_sphere": (sg.sphere_section((0.1, static_sphere_bump)), 3),
}


def outcome(rhs, x):
    """The bits of ``rhs(0.0, *x)``, or the type of the error it raised."""
    try:
        return [float(v).hex() for v in rhs(0.0, *x)]
    except (ArithmeticError, ValueError, IntegrationError) as exc:
        return type(exc).__name__


def parity_faults(wf, cs, k, states) -> list:
    """The states at which the generated right-hand side and the reference
    differ in any bit."""
    generated, reference = geodesic_flow._full_rhs(wf, cs, k), reference_rhs(wf, cs, k)
    return [x for x in states if outcome(generated, x) != outcome(reference, x)]


def reduced_builders(wf, delta_fraction):
    """The generated and the reference reduced right-hand side of a winding
    launched at delta = ``delta_fraction`` R, with the logs ``integrate``
    computes."""
    delta = delta_fraction * wf.domain_radius
    log_fd = wf.log_f(delta)
    log_fpd = log_fd + math.log(wf.d_log_f(delta))
    return (geodesic_flow._reduced_rhs(wf, log_fd, log_fpd),
            reduced_reference_rhs(wf, log_fd, log_fpd))


def reduced_parity_faults(wf, delta_fraction, states) -> list:
    generated, reference = reduced_builders(wf, delta_fraction)
    return [x for x in states if outcome(generated, x) != outcome(reference, x)]


def reduced_states(wf, n=20, seed=5):
    rng = np.random.default_rng(seed)
    return [[rng.uniform(0.05, 1.4) * wf.domain_radius, rng.uniform(-1.5, 1.5), 0.0]
            for _ in range(n)]


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
@settings(max_examples=15, deadline=None)
@given(delta_fraction=st.floats(0.01, 0.9), r_fraction=st.floats(0.01, 1.4),
       theta=st.floats(-1.5, 1.5))
def test_generated_reduced_rhs_matches_the_float_body_bit_for_bit(warp, delta_fraction,
                                                                  r_fraction, theta):
    wf = WARPS[warp]
    x = [r_fraction * wf.domain_radius, theta, 0.0]
    assert reduced_parity_faults(wf, delta_fraction, [x]) == []


@pytest.mark.parametrize("warp", sorted(WARPS))
def test_only_non_formula_warps_are_called_from_the_generated_code(warp):
    wf, (cs, k) = WARPS[warp], SECTIONS["perturbed_sphere"]
    for rhs in (geodesic_flow._full_rhs(wf, cs, k), reduced_builders(wf, 0.1)[0]):
        calls = re.findall(r"\bc\d+\(", inspect.getsource(rhs))
        # the table's f and (log f)' on the full path, log f and (log f)' on
        # the reduced; osc's log f, the one root that its f and (log f)' read
        assert len(calls) == {"osc": 1, "table": 2}.get(warp, 0)


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
            rhs(0.0, r, *x[1:])
    assert len(rhs(0.0, r_max, *x[1:])) == len(x)


@pytest.mark.parametrize("warp", sorted(WARPS))
def test_reduced_domain_guard_has_no_upper_end(warp):
    # steps on the reduced path reach far past R (criterion 3's up to 0.40 R)
    wf = WARPS[warp]
    rhs = reduced_builders(wf, 0.1)[0]
    for r in (0.0, -0.1, math.nan):
        with pytest.raises(IntegrationError, match="outside"):
            rhs(0.0, r, 0.3, 0.0)
    assert len(rhs(0.0, 1.4 * wf.domain_radius, 0.3, 0.0)) == 3


def test_a_campaign_compiles_once_per_structure(monkeypatch):
    # the source depends on the section class, shape, warp family and k, not
    # on alpha, delta or the amplitude, which the campaign draws per case;
    # its structures are the flat circle's reduced system, the perturbed
    # circle and the round sphere
    monkeypatch.setattr(dop853, "_COMPILED", {})
    run_bounds_campaign(20)
    sources = [s for s in dop853._COMPILED if s.startswith("def factory")]
    assert len(sources) == 3


def test_one_source_per_structure():
    cs, k = SECTIONS["perturbed_circle"]
    sources = {inspect.getsource(geodesic_flow._full_rhs(sg.make_power_warp(alpha), other, k))
               for alpha in (1.0, 1.7, 2.5)
               for other in (cs, sg.circle_section(5.0, (0.02, None)))}
    assert len(sources) == 1


def test_swapped_subtraction_fails_the_parity_check(monkeypatch):
    wf, (cs, k) = WARPS["power"], SECTIONS["perturbed_sphere"]
    states, flat = fixed_states(wf, k), reduced_states(wf)
    assert parity_faults(wf, cs, k, states) == []
    assert reduced_parity_faults(wf, 0.1, flat) == []

    def first_swapped(original, swapped):
        # the first subtraction of each trace records its operands swapped,
        # with the recorded value on either side
        def sub(a, b):
            first = not any(" - " in line for line in a.tape.lines)
            return (swapped if first else original)(a, b)
        return sub
    sub, rsub = straightline.Var.__sub__, straightline.Var.__rsub__
    monkeypatch.setattr(straightline.Var, "__sub__", first_swapped(sub, rsub))
    monkeypatch.setattr(straightline.Var, "__rsub__", first_swapped(rsub, sub))
    assert len(parity_faults(wf, cs, k, states)) == len(states)
    assert len(reduced_parity_faults(wf, 0.1, flat)) == len(flat)


def test_call_records_each_callable_once_per_input():
    def log(x):  # math.log refuses a recorded value: called from the code
        return math.log(x)

    def body(x):
        return [straightline.call(log, x[0]), straightline.call(log, x[0]),
                straightline.call(log, x[1])]
    lines, outputs, constants = straightline.trace(body, 2)
    assert outputs[0] == outputs[1] != outputs[2]
    assert lines == ["v0 = c0(x0)", "v1 = c1(x1)"] and constants == [log, log]
    assert straightline.call(log, 2.0) == math.log(2.0)


def test_a_dropped_call_is_recorded_again():
    def log(x):
        return math.log(x)

    def branching(x):  # records log, then compares: dropped with its lines
        return 1.0 if straightline.call(log, x) > 0.0 else 0.0

    def body(x):
        return [straightline.call(branching, x[0]), straightline.call(log, x[0])]
    lines, outputs, constants = straightline.trace(body, 1)
    assert lines == ["v0 = c0(x0)", "v1 = c1(x0)"] and constants == [branching, log]
    assert outputs == ["v0", "v1"]


FUNCTIONS = ("sin", "cos", "sqrt", "exp", "log")


@pytest.mark.parametrize("name", FUNCTIONS)
def test_each_function_follows_its_operand(name):
    ours, array, scalar = getattr(straightline, name), getattr(np, name), getattr(math, name)
    # an ndarray gets numpy's bits in its own shape, a 0-d one included
    for x in (np.linspace(0.1, 3.0, 7), np.linspace(0.1, 3.0, 6).reshape(2, 3),
              np.array(0.7)):
        out = ours(x)
        assert np.shape(out) == x.shape
        assert np.asarray(out).tobytes() == np.asarray(array(x)).tobytes()
    # a float or a numpy scalar gets math's Python float
    for x in (0.7, np.float64(0.7)):
        out = ours(x)
        assert type(out) is float and out.hex() == scalar(0.7).hex()
    # a recorded value appends one line
    lines, outputs, _ = straightline.trace(lambda x: [ours(x[0])], 1)
    assert lines == [f"v0 = {name}(x0)"] and outputs == ["v0"]
