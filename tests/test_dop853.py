"""The package's DOP853 stepper against scipy's, which serves as the oracle.

The tableau is scipy's bit for bit.  Each parity run below is checked against
two scipy runs on the same arguments:

- scipy's DOP853 as it is.  The package run takes its steps: the same
  status, message, evaluation count, step count and event count (each stop
  is a terminal event rising through its level).  Its values
  are not scipy's to the last bit: the generated kernel adds each stage sum
  left to right, and ``np.dot`` hands the sum to BLAS, whose x86-64 kernels
  add in blocks with fused multiply-adds.  The bounds below are the worst
  differences measured over these cases, rounded up to the next power of
  ten (with OpenBLAS 0.3.31's SkylakeX kernels on an x86-64 Xeon; another
  BLAS adds in another order, and its step and evaluation counts were not
  measured):

  - step points, 5.8e-5 of the run's length (the perturbed circle's
    backward branch): the error estimate of a short step is a sum that
    cancels to about 1e-11 of its terms, so a last-bit change in a stage
    moves it by about 1e-4 and the next step size by an eighth of that;
  - event times, 5.2e-15 relative (the reduced run's tau stop);
  - the dense output at 200 points, 1.04e-12 of each component's largest
    value along the run (the perturbed circle).

  Each run starts from a given first step.  Rounded up, the bounds are
  1e-4, 1e-14 and 1e-11.

- scipy's DOP853 with every ``np.dot`` and ``np.linalg.norm`` of its
  Runge-Kutta module summed left to right in float arithmetic
  (``left_to_right_solve``).  This is the order of the kernel, and also the
  order of OpenBLAS's kernels without fused multiply-adds: under
  ``OPENBLAS_CORETYPE=Sandybridge`` scipy as it is gave the same bits on the
  collapse, pendulum and Lorenz runs.  Against it every run agrees bit for
  bit: step points, evaluation count, event times and dense output.

The step-collapse run ends 3e-12 before a pole, where a last-bit change in
the state decides single steps, so only the second oracle fixes its step
count: scipy as it is took 258, 257 and 257 step points (6880, 6853 and
6841 evaluations) under OpenBLAS's SkylakeX, Haswell and Sandybridge
kernels on the same machine.
"""
import contextlib
import math
import signal
import types
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as reference
from scipy.integrate._ivp import rk

import singular_geodesics as sg
from singular_geodesics import IntegrationError, dop853, geodesic_flow
from singular_geodesics.cross_sections import BASE_FIRST_STEP, static_sphere_bump

T_TOL = 1e-4      # step points, relative to the run's length
EVENT_TOL = 1e-14  # event times, relative
DENSE_TOL = 1e-11  # dense output, relative to each component's largest value


def scipy_solve(fun, t_end, y0, rtol, atol, first_step, max_step=math.inf, stops=()):
    """scipy's DOP853 run with the arguments of ``dop853.solve_ivp``, each
    stop (component, level) a terminal event y[component] - level rising
    through 0; the result carries scipy's ``OdeSolution`` as ``sol``."""
    events = []
    for i, level in stops:
        def g(t, y, i=i, level=level):
            return y[i] - level
        g.terminal, g.direction = True, 1.0
        events.append(g)
    return scipy_solve_ivp(fun, (0.0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                           first_step=first_step, max_step=max_step, dense_output=True,
                           events=events or None)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _left_to_right(u, v) -> float:
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _dot(a, b):
    """``np.dot`` of a matrix and a vector or matrix, each entry summed left
    to right."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cols = b.T.tolist() if b.ndim == 2 else [b.tolist()]
    out = np.array([[_left_to_right(row, col) for col in cols] for row in a.tolist()])
    return out if b.ndim == 2 else out[:, 0]


class _LeftToRightNumpy(types.ModuleType):
    """numpy, but with ``dot`` and ``linalg.norm`` summed left to right."""

    dot = staticmethod(_dot)
    linalg = types.SimpleNamespace(
        norm=lambda x: np.sqrt(_left_to_right(x.tolist(), x.tolist())))

    def __getattr__(self, name):
        return getattr(np, name)


def summed_left_to_right():
    """A context in which scipy's Runge-Kutta module adds its sums left to
    right."""
    return mock.patch.object(rk, "np", _LeftToRightNumpy("numpy"))


def left_to_right_solve(*args):
    """``scipy_solve`` with its sums added left to right."""
    with summed_left_to_right():
        return scipy_solve(*args)


def test_tableau_matches_scipy_bit_for_bit():
    for s in range(1, 16):
        assert _same_bits(dop853.A[s], reference.A[s, :s]), s
        assert not np.any(reference.A[s, s:])
    assert _same_bits(dop853.C, reference.C)
    assert _same_bits(dop853.B, reference.B)
    assert _same_bits(dop853.E3, reference.E3)
    assert _same_bits(dop853.E5, reference.E5)
    assert _same_bits(dop853.D, reference.D)


def worst_differences(ours, theirs, sign=1.0):
    """The largest differences of the step points (relative to the run's
    length), the event times (relative) and the dense output at 200 points
    (relative to each component's largest value) between the package run
    ``ours`` and scipy's run ``theirs`` with as many steps and events;
    ``sign`` -1 compares a forward run of the negated field with scipy's
    backward run."""
    dt = np.max(np.abs(ours.t - sign * theirs.t)) / ours.t[-1]
    de = max((np.max(np.abs(mine - sign * ref) / np.abs(ref))
              for mine, ref in zip(ours.t_events, theirs.t_events or []) if len(ref)),
             default=0.0)
    s = np.linspace(0.0, ours.t[-1], 200)
    ref = theirs.sol(sign * s).T
    scale = np.max(np.abs(ref), axis=0)
    dense = np.abs(dop853.evaluate(ours.t, ours.h, ours.y0, ours.F, s) - ref)
    return dt, de, np.max(dense / np.where(scale > 0.0, scale, 1.0))


def mismatches(ours, theirs, sign=1.0) -> list:
    """The checks that the package run ``ours`` fails against scipy's run
    ``theirs`` (``sign`` as in ``worst_differences``)."""
    found = []
    if (ours.status, ours.message) != (theirs.status, theirs.message):
        found.append("status")
    if ours.nfev != theirs.nfev:
        found.append("nfev")
    if len(ours.t) != len(theirs.t):
        return found + ["steps"]
    if [len(e) for e in ours.t_events] != [len(e) for e in theirs.t_events or []]:
        return found + ["events"]
    return found + [name for name, value, bound in zip(
        ("t", "t_events", "dense"), worst_differences(ours, theirs, sign),
        (T_TOL, EVENT_TOL, DENSE_TOL)) if not value <= bound]


def bit_mismatches(ours, theirs, sign=1.0) -> list:
    """The checks that the package run ``ours`` fails against the scipy run
    ``theirs`` to the last bit (``sign`` as in ``worst_differences``; the
    start, 0, takes no sign)."""
    found = [name for name, a, b in (
        ("status", (ours.status, ours.message), (theirs.status, theirs.message)),
        ("nfev", ours.nfev, theirs.nfev)) if a != b]
    if not np.array_equal(ours.t, sign * theirs.t):
        found.append("t")
    events = theirs.t_events or []
    if len(ours.t_events) != len(events) or not all(
            np.array_equal(mine, sign * ref) for mine, ref in zip(ours.t_events, events)):
        found.append("t_events")
    s = np.linspace(0.0, ours.t[-1], 200)
    if not np.array_equal(dop853.evaluate(ours.t, ours.h, ours.y0, ours.F, s),
                          theirs.sol(sign * s).T):
        found.append("dense")
    return found


def _compare(runs):
    """Each recorded (args, ours) against scipy on the same arguments, as it
    is and summed left to right."""
    for args, ours in runs:
        assert mismatches(ours, scipy_solve(*args)) == []
        assert bit_mismatches(ours, left_to_right_solve(*args)) == []


def record_runs(monkeypatch, case: str) -> list:
    """(args, solution) of every stepper run of the flow case ``case``."""
    wf, cs, delta, y0, v0, kwargs = CASES[case]
    runs = []

    def recording(*args):
        sol = dop853.solve_ivp(*args)
        runs.append((args, sol))
        return sol
    monkeypatch.setattr(geodesic_flow, "solve_ivp", recording)
    traj = sg.integrate_winding(wf, cs, delta, y0, v0, **kwargs)
    assert len(runs) == (1 if case.startswith("reduced") else 2)
    assert traj.exit_events["truncated_by_tau"] == ("tau_stop" in kwargs)
    return runs


CASES = {
    "reduced": (sg.make_power_warp(2.0), sg.circle_section(2 * math.pi), 0.05,
                [0.3], [1.0], {}),
    "reduced_tau_stop": (sg.make_power_warp(2.0), sg.circle_section(2 * math.pi), 0.05,
                         [0.3], [1.0], {"tau_stop": 1.0}),
    "perturbed_circle": (sg.make_power_warp(2.0), sg.circle_section(2 * math.pi, (0.08, None)),
                         0.1, [0.3], [1.0], {"rtol": 1e-9}),
    "round_sphere": (sg.make_power_warp(2.0), sg.sphere_section(), 0.1,
                     [math.pi / 2, 0.3], [math.sin(1.0), math.cos(1.0)], {"rtol": 1e-9}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_flow_runs_match_scipy(case, monkeypatch):
    _compare(record_runs(monkeypatch, case))


def test_reference_geodesic_and_negated_field_match_scipy():
    # the reference geodesic of a non-round h0, as base_geodesic runs it
    cs = sg.sphere_section((0.1, static_sphere_bump))
    y, v = cs.embed(np.array([math.pi / 2, 0.0]), np.array([0.3, math.sqrt(1 - 0.09)]))
    x0 = np.concatenate([y, cs.covector(y, cs.metric(0.0, y) @ v)])

    def rhs(_, state):
        x = list(state)
        sharp, _, _, force = cs.cometric(0.0, x[:3], x[3:])
        return sharp + force

    args = (rhs, 1.3, x0, 1e-12, 1e-14, BASE_FIRST_STEP)
    _compare([(args, dop853.solve_ivp(*args))])
    # backward in time: the negated field forward over [0, 1.3]
    back = dop853.solve_ivp(lambda t, s: [-d for d in rhs(t, s)], *args[1:])

    def backward():
        return scipy_solve_ivp(rhs, (0.0, -1.3), x0, method="DOP853", rtol=1e-12, atol=1e-14,
                               first_step=BASE_FIRST_STEP, dense_output=True)
    assert mismatches(back, backward(), sign=-1.0) == []
    with summed_left_to_right():
        assert bit_mismatches(back, backward(), sign=-1.0) == []


def _logistic(t, y):
    return [y[0] * (1.0 - y[0]) + 0.1 * math.sin(t)]


def _pendulum(_, y):
    return [y[1], -math.sin(y[0])]


# the logistic state rising through 0.8, and the pendulum's angular
# velocity rising back through -0.5 on its first swing
_LEVEL = [(0, 0.8)]
_SWING = [(1, -0.5)]


PARITY_ARGS = [
    (_logistic, 20.0, [0.1], 1e-8, 1e-10, 1e-2, math.inf, _LEVEL),
    (_logistic, 20.0, [0.1], 1e-10, 1e-12, 1e-3, 0.5),
    (_pendulum, 10.0, [1.0, 0.0], 1e-10, 1e-12, 1e-2, math.inf, _SWING),
    (_pendulum, 10.0, np.array([2.5, 0.3]), 1e-7, 1e-9, 1e-2),
]


@pytest.mark.parametrize("args", PARITY_ARGS,
                         ids=["1-state event", "1-state max_step", "2-state event", "2-state"])
def test_one_and_two_states_match_scipy(args):
    ours = dop853.solve_ivp(*args)
    assert ours.status == (1 if len(args) > 7 else 0)
    _compare([(args, ours)])


def _blow_up(_, s):
    # tau' = 1 + tau^2: tau = tan(t) blows up at t = pi/2, where the step collapses
    return [0.0, 0.0, 1.0 + s[2] * s[2]]


def test_collapsing_step_raises():
    wf = sg.make_power_warp(2.0)
    decode = geodesic_flow._reduced_decode(0.0, 1, 0.1, 1.0, 0.01)
    with pytest.raises(IntegrationError, match="stepper failed: Required step size"):
        geodesic_flow._run_branch(wf, _blow_up, [0.1, 0.0, 0.0], 1, decode, 1.0, 1e-10,
                                  1e-12, None, math.inf)
    args = (_blow_up, 4.0, np.array([0.1, 0.0, 0.0]), 1e-10, 1e-12, 1e-3)
    ours = dop853.solve_ivp(*args)
    assert ours.status == -1 and abs(ours.t[-1] - math.pi / 2) < 1e-8
    assert bit_mismatches(ours, left_to_right_solve(*args)) == []
    # scipy as it is collapses within 3e-15 of the same time, after a step
    # count that its BLAS decides (module docstring)
    theirs = scipy_solve(*args)
    assert (ours.status, ours.message) == (theirs.status, theirs.message)
    assert abs(ours.t[-1] - theirs.t[-1]) < 1e-14


def _nan_slope(_, s):
    return [math.nan, 0.0, 1.0]


def test_run_without_an_accepted_step_fails_cleanly():
    # every attempt from a NaN slope is rejected until the step collapses
    args = (_nan_slope, 4.0, [0.1, 0.0, 0.0], 1e-10, 1e-12, 1e-3)
    ours = dop853.solve_ivp(*args)
    assert (ours.status, ours.message) == (-1, dop853.TOO_SMALL_STEP)
    assert ours.t.tolist() == [0.0] and ours.h.shape == (0,) and ours.F.shape == (7, 0, 3)
    theirs = scipy_solve(*args)
    assert (ours.status, ours.message, ours.nfev) == (theirs.status, theirs.message, theirs.nfev)
    wf = sg.make_power_warp(2.0)
    with pytest.raises(IntegrationError, match="stepper failed: Required step size"):
        geodesic_flow._run_branch(wf, _nan_slope, [0.1, 0.0, 0.0], 1, None, 1.0, 1e-10,
                                  1e-12, None, math.inf)


@pytest.mark.parametrize("args", [
    (_blow_up, 4.0, [0.1, 0.0, 0.0], 1e-10, 1e-12, 1e-3),
    (_logistic, 20.0, [0.1], 1e-8, 1e-10, 1e-2, math.inf, _LEVEL),
    (_pendulum, 10.0, [2.5, 0.3], 1e-7, 1e-9, 1e-2),
], ids=["collapse", "1-state stop", "given first step"])
def test_evaluation_count_follows_from_attempts_and_steps(args):
    # each attempt costs 12 evaluations and each accepted step 3 more for
    # its dense output; the start costs 1
    sol = dop853.solve_ivp(*args)
    accepted = len(sol.h)
    assert sol.nfev == 1 + 12 * (accepted + sol.rejected) + 3 * accepted


@contextlib.contextmanager
def alarm(seconds: int):
    """Raise TimeoutError in the block after ``seconds``: a call that never
    returns fails instead of hanging the suite."""
    def timeout(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("first_step", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_first_step_must_be_finite_and_positive(first_step):
    # a NaN step once looped forever (every comparison with it is false); 0
    # or a negative step silently became the minimum step, and an infinite
    # one a first attempt at t_end
    with alarm(10), pytest.raises(ValueError, match="first_step"):
        dop853.solve_ivp(_logistic, 20.0, [0.1], 1e-8, 1e-10, first_step)


def test_kernel_source_is_straight_line_float_code():
    source = dop853.kernel_source(2)
    assert "np." not in source and "for " not in source
    assert source.count("fun(") == 15
    attempt, dense = dop853._kernel(2)
    assert dop853._kernel(2) == (attempt, dense)


def test_patched_tableau_reaches_the_kernel(monkeypatch):
    kernel = dop853._kernel(3)
    B = dop853.B.copy()
    B[5] *= 1.0 + 1e-6
    monkeypatch.setattr(dop853, "B", B)
    assert dop853._kernel(3) != kernel
    assert repr(float(B[5])) in dop853.kernel_source(3)
