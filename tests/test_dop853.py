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
  - event times, 5.6e-15 relative (the 1-state stop of the logistic
    equation);
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

The package's root finder ``dop853.brent`` is a port of scipy's
``brentq.c``, and scipy's ``brentq`` is its oracle: on the dense
polynomials of real runs (through ``crossing``), on the ``osc`` warp's
root and on random polynomials scaled from underflow to overflow, at the
package's three (xtol, rtol) pairs, every root is scipy's bit for bit and
every refused bracket is refused by both.
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
from scipy.optimize import brentq

import singular_geodesics as sg
from singular_geodesics import IntegrationError, dop853, geodesic_flow
from singular_geodesics.cross_sections import BASE_FIRST_STEP, static_sphere_bump

T_TOL = 1e-4      # step points, relative to the run's length
EVENT_TOL = 1e-14  # event times, relative
DENSE_TOL = 1e-11  # dense output, relative to each component's largest value


def scipy_solve(fun, t_end, y0, rtol, atol, first_step, max_step=math.inf, stops=(),
                reads=None):
    """scipy's DOP853 run with the arguments of ``dop853.solve_ivp``, each
    stop (component, level) a terminal event y[component] - level rising
    through 0; scipy's state array reaches ``fun`` as positional components,
    and the result carries scipy's ``OdeSolution`` as ``sol``.  scipy forms
    every stage sum, as the package run does without ``reads``, which
    changes no result."""
    events = []
    for i, level in stops:
        def g(t, y, i=i, level=level):
            return y[i] - level
        g.terminal, g.direction = True, 1.0
        events.append(g)
    return scipy_solve_ivp(positional(fun), (0.0, t_end), y0, method="DOP853", rtol=rtol,
                           atol=atol, first_step=first_step, max_step=max_step, dense_output=True,
                           events=events or None)


def positional(fun):
    """The autonomous ``fun`` called as scipy calls a right-hand side, on the
    time and the state array."""
    return lambda t, y: fun(*y)


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
    assert _same_bits(dop853.B, reference.B)
    assert _same_bits(dop853.E3, reference.E3)
    assert _same_bits(dop853.E5, reference.E5)
    assert _same_bits(dop853.D, reference.D)


def _mirrored(mirror):
    """The sign of time and the column of state signs by which scipy's run
    is compared (``worst_differences``)."""
    return (1.0, 1.0) if mirror is None else (-1.0, np.array(mirror, dtype=float)[:, None])


def worst_differences(ours, theirs, mirror=None):
    """The largest differences of the step points (relative to the run's
    length), the event times (relative) and the dense output at 200 points
    (relative to each component's largest value) between the package run
    ``ours`` and scipy's run ``theirs`` with as many steps and events;
    ``mirror``, the sign (+1 or -1) of each state component, compares a
    forward run from the mirrored launch with scipy's backward run from the
    launch."""
    sign, states = _mirrored(mirror)
    dt = np.max(np.abs(ours.t - sign * theirs.t)) / ours.t[-1]
    de = max((np.max(np.abs(mine - sign * ref) / np.abs(ref))
              for mine, ref in zip(ours.t_events, theirs.t_events or []) if len(ref)),
             default=0.0)
    s = np.linspace(0.0, ours.t[-1], 200)
    ref = states * theirs.sol(sign * s)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    dense = np.abs(dop853.evaluate(ours, s) - ref)
    return dt, de, np.max(dense / np.where(scale > 0.0, scale, 1.0))


def mismatches(ours, theirs, mirror=None) -> list:
    """The checks that the package run ``ours`` fails against scipy's run
    ``theirs`` (``mirror`` as in ``worst_differences``)."""
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
        ("t", "t_events", "dense"), worst_differences(ours, theirs, mirror),
        (T_TOL, EVENT_TOL, DENSE_TOL)) if not value <= bound]


def bit_mismatches(ours, theirs, mirror=None) -> list:
    """The checks that the package run ``ours`` fails against the scipy run
    ``theirs`` to the last bit (``mirror`` as in ``worst_differences``; the
    start, 0, takes no sign)."""
    sign, states = _mirrored(mirror)
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
    if not np.array_equal(dop853.evaluate(ours, s), states * theirs.sol(sign * s)):
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
    # 9 states and two stops, the exit and the tau stop, in both directions
    "perturbed_sphere_tau_stop": (sg.make_power_warp(2.0), sg.sphere_section((0.05, None)),
                                  0.1, [math.pi / 2, 0.3], [math.sin(1.0), math.cos(1.0)],
                                  {"rtol": 1e-9, "tau_stop": 5.0}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_flow_runs_match_scipy(case, monkeypatch, request):
    if case == "round_sphere":
        request.getfixturevalue("sphere_on_the_full_path")
    _compare(record_runs(monkeypatch, case))


@pytest.mark.parametrize("case", ["reduced", "full"])
def test_right_hand_sides_receive_python_floats(case, monkeypatch, sphere_on_the_full_path):
    # a numpy scalar first step (from a numpy delta on the reduced path, and
    # from the state np.concatenate builds on the full one) once reached
    # every stage state, and the whole run computed in numpy scalars
    seen = set()

    def spying(builder):
        def build(*args):
            rhs, reads = builder(*args)

            def spy(*s):
                seen.update(type(v) for v in s)
                return rhs(*s)
            return spy, reads
        return build
    for name in ("_reduced_rhs", "_full_rhs"):
        monkeypatch.setattr(geodesic_flow, name, spying(getattr(geodesic_flow, name)))
    wf = sg.make_power_warp(2.0)
    if case == "reduced":
        traj = sg.integrate_winding(wf, sg.circle_section(2 * math.pi), np.float64(1e-4),
                                    [0.3], [1.0])
    else:
        traj = sg.integrate_winding(wf, sg.sphere_section(), 0.01, [math.pi / 2, 0.3],
                                    [math.sin(1.0), math.cos(1.0)])
    assert traj.meta["path"] == case
    assert seen == {float}


def test_reference_geodesic_and_mirrored_launch_match_scipy():
    # the reference geodesic of a non-round h0, as base_geodesic runs it
    cs = sg.sphere_section((0.1, static_sphere_bump))
    y, v = cs.embed(np.array([math.pi / 2, 0.0]), np.array([0.3, math.sqrt(1 - 0.09)]))
    eta = cs.covector(y, cs.metric(0.0, y) @ v)
    x0 = np.concatenate([y, eta])

    def rhs(*x):
        sharp, _, _, force = cs.cometric(0.0, x[:3], x[3:])
        return sharp + force

    args = (rhs, 1.3, x0, 1e-12, 1e-14, BASE_FIRST_STEP)
    _compare([(args, dop853.solve_ivp(*args))])
    # backward in time: the field forward over [0, 1.3] from (y, -eta),
    # whose eta rows are scipy's backward run negated
    back = dop853.solve_ivp(rhs, 1.3, np.concatenate([y, -eta]), *args[3:])
    mirror = [1.0] * 3 + [-1.0] * 3

    def backward():
        return scipy_solve_ivp(positional(rhs), (0.0, -1.3), x0, method="DOP853", rtol=1e-12,
                               atol=1e-14, first_step=BASE_FIRST_STEP, dense_output=True)
    assert mismatches(back, backward(), mirror) == []
    with summed_left_to_right():
        assert bit_mismatches(back, backward(), mirror) == []


def _logistic(y):
    return [y * (1.0 - y)]


def _pendulum(angle, rate):
    return [rate, -math.sin(angle)]


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


def _blow_up(r, theta, tau):
    # tau' = 1 + tau^2: tau = tan(t) blows up at t = pi/2, where the step collapses
    return [0.0, 0.0, 1.0 + tau * tau]


def test_collapsing_step_raises():
    wf = sg.make_power_warp(2.0)
    with pytest.raises(IntegrationError, match="stepper failed: Required step size"):
        geodesic_flow._run_branch(wf, _blow_up, [0.1, 0.0, 0.0], 1e-10, 1e-12, None, math.inf,
                                  None)
    args = (_blow_up, 4.0, np.array([0.1, 0.0, 0.0]), 1e-10, 1e-12, 1e-3)
    ours = dop853.solve_ivp(*args)
    assert ours.status == -1 and abs(ours.t[-1] - math.pi / 2) < 1e-8
    assert bit_mismatches(ours, left_to_right_solve(*args)) == []
    # scipy as it is collapses within 3e-15 of the same time, after a step
    # count that its BLAS decides (module docstring)
    theirs = scipy_solve(*args)
    assert (ours.status, ours.message) == (theirs.status, theirs.message)
    assert abs(ours.t[-1] - theirs.t[-1]) < 1e-14


def _nan_slope(*s):
    return [math.nan, 0.0, 1.0]


def test_run_without_an_accepted_step_fails_cleanly():
    # every attempt from a NaN slope is rejected until the step collapses;
    # a step factor that stayed NaN would never end the run
    args = (_nan_slope, 4.0, [0.1, 0.0, 0.0], 1e-10, 1e-12, 1e-3)
    with alarm(10):
        ours = dop853.solve_ivp(*args)
    assert (ours.status, ours.message) == (-1, dop853.TOO_SMALL_STEP)
    assert ours.t.tolist() == [0.0] and ours.h.shape == (0,) and ours.coef.shape == (8, 3, 0)
    theirs = scipy_solve(*args)
    assert (ours.status, ours.message, ours.nfev) == (theirs.status, theirs.message, theirs.nfev)
    wf = sg.make_power_warp(2.0)
    with pytest.raises(IntegrationError, match="stepper failed: Required step size"):
        geodesic_flow._run_branch(wf, _nan_slope, [0.1, 0.0, 0.0], 1e-10, 1e-12, None,
                                  math.inf, None)


def test_stop_at_the_start_value_ends_the_first_step():
    # a component that starts at its level rises through it in the first
    # step, as scipy's rising event (g <= 0 <= g_new) finds: the run ends at 0
    args = (_logistic, 20.0, [0.1], 1e-8, 1e-10, 1e-2, math.inf, [(0, 0.1)])
    ours = dop853.solve_ivp(*args)
    assert ours.status == 1 and ours.t.tolist() == [0.0, 0.0]
    assert bit_mismatches(ours, left_to_right_solve(*args)) == []


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
    # the whole run is one function: 11 stages, the end slope and 3 dense
    # stages of straight-line float code, each a call on positional floats,
    # inside the loops of the steps and of their attempts
    source = dop853.kernel_source(2, (0, 1))
    assert "np." not in source and "for " not in source and "[" not in source
    assert source.count("fun(") == 15 and source.count("while True:") == 2
    run = dop853._kernel(2, (0, 1))
    assert dop853._kernel(2, (0, 1)) is run and dop853._kernel(3, (0, 1, 2)) is not run
    # the right-hand side is autonomous: each call passes the n components,
    # a stage sum or a step-start value each, and no time, so the run has no
    # stage nodes
    for n in (1, 2, 3, 9):
        for reads in (tuple(range(n)), (0,)):
            for line in dop853.kernel_source(n, reads).splitlines():
                if "fun(" in line:
                    args = line.split("fun(", 1)[1][:-1].split(", ")
                    assert [a.split(" ")[0] for a in args] in (
                        [f"y{i}" for i in range(n)], [f"n{i}" for i in range(n)]), line
    assert not hasattr(dop853, "C")


def test_patched_tableau_reaches_the_kernel(monkeypatch):
    # a patched tableau entry or step-size constant gets its own run, which
    # steps differently
    args = (_pendulum, 10.0, [2.5, 0.3], 1e-7, 1e-9, 1e-2, math.inf, _SWING)
    kernel, sol = dop853._kernel(2, (0, 1)), dop853.solve_ivp(*args)
    B = dop853.B.copy()
    B[5] *= 1.0 + 1e-6
    for name, value, written in (("B", B, B[5]), ("SAFETY", 0.95, 0.95)):
        monkeypatch.setattr(dop853, name, value)
        assert dop853._kernel(2, (0, 1)) is not kernel
        assert repr(float(written)) in dop853.kernel_source(2, (0, 1))
        assert not np.array_equal(dop853.solve_ivp(*args).t, sol.t), name
        monkeypatch.undo()
    assert dop853._kernel(2, (0, 1)) is kernel


def test_two_stops_on_one_component_raise():
    with pytest.raises(ValueError, match="two stops on one component"):
        dop853.solve_ivp(_pendulum, 10.0, [1.0, 0.0], 1e-10, 1e-12, 1e-2, math.inf,
                         [(1, -0.5), (-1, 0.5)])


def points_major_evaluate(sol, s):
    """``sol`` at ``s``, one row per point, from its coefficients laid out
    points-major, F (7 x steps x states) and start values (steps x states):
    one gather across F's middle axis and the alternating Horner scheme of
    scipy's ``Dop853DenseOutput`` with 1 - x formed in every odd factor."""
    F, y0 = sol.coef[:7].transpose(0, 2, 1), sol.coef[7].T
    seg = np.maximum(np.searchsorted(sol.t, s, side="left") - 1, 0)
    x = ((s - sol.t[seg]) / sol.h[seg])[:, None]
    F = F[:, seg]
    y = F[6] * x
    for i in range(1, 7):
        y = (y + F[6 - i]) * (x if i % 2 == 0 else 1.0 - x)
    return y + y0[seg]


def evaluation_runs() -> dict:
    """The stepper runs of a full-path trajectory (both time directions),
    the reduced path's shared run and a radial line's two segments."""
    wf = sg.make_power_warp(2.0)
    full = sg.integrate_winding(wf, sg.circle_section(2 * math.pi, (0.08, None)), 0.1, [0.3],
                                [1.0], dense_nodes=16)
    reduced = sg.integrate_winding(wf, sg.circle_section(2 * math.pi), 0.1, [0.0], [1.0],
                                   dense_nodes=16)
    assert reduced.runs[0] is reduced.runs[1]
    radial = geodesic_flow.integrate(
        wf, sg.circle_section(2 * math.pi),
        geodesic_flow.GeodesicState(0.0, 0.5, math.pi / 2, [0.3], [0.0]), dense_nodes=16)
    return {"full forward": full.runs[0], "full backward": full.runs[1],
            "reduced": reduced.runs[0], "radial rising": radial.runs[0],
            "radial falling": radial.runs[1]}


@pytest.mark.parametrize("name", ["full forward", "full backward", "reduced", "radial rising",
                                  "radial falling"])
def test_evaluate_matches_the_points_major_gather_bit_for_bit(name):
    sol = evaluation_runs()[name]
    # 200 points, every step point and both ends
    s = np.unique(np.concatenate([np.linspace(0.0, sol.t[-1], 200), sol.t]))
    assert s[0] == 0.0 and s[-1] == sol.t[-1]
    ref = points_major_evaluate(sol, s)
    assert _same_bits(dop853.evaluate(sol, s), ref.T)
    for i in range(sol.coef.shape[1]):
        assert _same_bits(dop853.evaluate(sol, s, i), ref[:, i]), i
    assert _same_bits(dop853.evaluate(sol, s, -1), ref[:, -1])


# the package's (xtol, rtol) pairs: a stop, a level of t_of_tau, the osc root
BRENT_TOLERANCES = [(dop853.EVENT_TOL, dop853.EVENT_TOL), (1e-300, dop853.EVENT_TOL),
                    (1e-14, 8.9e-16)]


def _root_or_error(find, f, a, b, xtol, rtol):
    """The root ``find`` returns, or the type of the error it raises."""
    try:
        return find(f, a, b, xtol, rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _scipy_brent(f, a, b, xtol, rtol):
    return brentq(f, a, b, xtol=xtol, rtol=rtol)


def scipy_crossing(F, y0, t0, h, level, hi, xtol):
    """``dop853.crossing`` as it was: scipy's ``brentq`` on ``_horner``."""
    def gap(t):
        return dop853._horner(F, y0, (t - t0) / h) - level
    if gap(hi) < 0.0:
        return hi
    return brentq(gap, t0, hi, xtol=xtol, rtol=dop853.EVENT_TOL)


def _python_poly(c):
    def poly(x):
        y = 0.0
        for ci in c:
            y = y * x + ci
        return y
    return poly


def test_brent_matches_scipy_on_random_polynomials():
    rng = np.random.default_rng(20261020)
    roots = 0
    for _ in range(5000):
        # degree 1-7, scaled from underflow to overflow of the products
        scale = 10.0 ** float(rng.integers(-300, 290))
        poly = _python_poly((rng.normal(size=int(rng.integers(2, 9))) * scale).tolist())
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2).tolist())
        for xtol, rtol in BRENT_TOLERANCES:
            ours = _root_or_error(dop853.brent, poly, a, b, xtol, rtol)
            assert ours == _root_or_error(_scipy_brent, poly, a, b, xtol, rtol), (a, b)
            roots += isinstance(ours, float)
    assert roots > 4500  # the rest are same-sign brackets, refused by both


def test_crossing_matches_scipy_on_the_dense_polynomials_of_runs():
    runs = list(evaluation_runs().values())
    for spec, delta in (("power:1", 0.03), ("power:2.5", 0.1), ("expinv:1", 0.05)):
        wf = sg.parse_warp_spec(spec, R=0.5 if spec.startswith("exp") else None)
        runs += sg.integrate_winding(wf, sg.circle_section(2 * math.pi), delta, [0.0],
                                     [1.0]).runs[:1]
    rng = np.random.default_rng(7)
    crossings = 0
    for sol in runs:
        for i in range(sol.coef.shape[1]):
            for j in range(len(sol.h)):
                F, y0 = sol.coef[:7, i, j].tolist(), float(sol.coef[7, i, j])
                t0, h, hi = float(sol.t[j]), float(sol.h[j]), float(sol.t[j + 1])
                end = float(dop853._horner(F, y0, (hi - t0) / h))
                # a falling component rises when negated
                sign = 1.0 if end >= y0 else -1.0
                F, y0, end = [sign * c for c in F], sign * y0, sign * end
                for level in (y0 + (end - y0) * rng.uniform(size=4)).tolist() + [y0, end]:
                    for xtol in (dop853.EVENT_TOL, 1e-300):
                        args = (F, y0, t0, h, level, hi, xtol)
                        assert dop853.crossing(*args) == scipy_crossing(*args), args
                        crossings += 1
    assert crossings > 8000


def test_osc_log_f_matches_scipy():
    alpha, c = 0.5, 9.0
    wf = sg.make_oscillating_F(alpha, c)
    rhos = np.geomspace(1e-200, wf.domain_radius, 2000)

    def scipy_log_f(rho):
        target = math.log(rho)
        lo = (target - math.log(c + 1.0)) / alpha - 2.0
        return brentq(lambda s: alpha * s + math.log(c + math.sin(s)) - target,
                      min(-700.0, lo), math.log(0.5) + 1.0, xtol=1e-14, rtol=8.9e-16)
    assert wf.log_f(rhos).tolist() == [scipy_log_f(r) for r in rhos.tolist()]


def test_brent_edges():
    line = _python_poly([1.0, -1.0])  # x - 1
    for a, b in ((1.0, 2.0), (0.0, 1.0)):
        assert dop853.brent(line, a, b, 1e-12, dop853.EVENT_TOL) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        dop853.brent(line, 2.0, 3.0, 1e-12, dop853.EVENT_TOL)
    with pytest.raises(ValueError, match="different signs"):
        sg.make_oscillating_F(0.5, 9.0).log_f(np.array([20.0]))

    # a jump far inside a wide bracket: every secant step halves the bracket,
    # and 100 halvings of 1e300 do not reach it
    def jump(x):
        return 1.0 if x > 0.1 else -1.0
    with pytest.raises(RuntimeError, match="100 iterations"):
        dop853.brent(jump, -1e300, 1e300, 1e-12, dop853.EVENT_TOL)
    with pytest.raises(RuntimeError):
        brentq(jump, -1e300, 1e300, xtol=1e-12, rtol=dop853.EVENT_TOL)


def test_crossing_of_a_polynomial_short_of_its_level_gives_the_step_end():
    # y0 + 0.2 x ends at 0.30000000000000004: one double above that, the
    # bracket has no sign change and the step's end is the crossing
    F = [0.2] + [0.0] * 6
    short = math.nextafter(0.1 + 0.2, 1.0)
    assert dop853.crossing(F, 0.1, 2.0, 0.5, short, 2.5, dop853.EVENT_TOL) == 2.5
    with pytest.raises(ValueError):
        brentq(lambda t: 0.1 + 0.2 * (t - 2.0) / 0.5 - short, 2.0, 2.5)
    assert dop853.crossing(F, 0.1, 2.0, 0.5, 0.1 + 0.2, 2.5, dop853.EVENT_TOL) == 2.5
    assert 2.0 < dop853.crossing(F, 0.1, 2.0, 0.5, 0.2, 2.5, dop853.EVENT_TOL) < 2.5
