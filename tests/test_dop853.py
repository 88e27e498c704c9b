"""The package's DOP853 stepper against scipy's, which serves as the oracle:
the same tableau bit for bit, and on the package's own right-hand sides the
same step points, evaluation counts, event times and dense output."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as reference

import singular_geodesics as sg
from singular_geodesics import IntegrationError, dop853, geodesic_flow
from singular_geodesics.cross_sections import static_sphere_bump


def scipy_solve(fun, t_end, y0, rtol, atol, first_step=None, max_step=math.inf, events=()):
    """scipy's DOP853 run with the arguments of ``dop853.solve_ivp``, every
    event terminal; the result carries scipy's ``OdeSolution`` as ``sol``."""
    terminal = []
    for event in events:
        def g(t, y, event=event):
            return event(t, y)
        g.terminal = True
        g.direction = getattr(event, "direction", 0.0)
        terminal.append(g)
    return scipy_solve_ivp(fun, (0.0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                           first_step=first_step, max_step=max_step, dense_output=True,
                           events=terminal or None)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tableau_matches_scipy_bit_for_bit():
    for s in range(1, 16):
        assert _same_bits(dop853.A[s], reference.A[s, :s]), s
        assert not np.any(reference.A[s, s:])
    assert _same_bits(dop853.C, reference.C)
    assert _same_bits(dop853.B, reference.B)
    assert _same_bits(dop853.E3, reference.E3)
    assert _same_bits(dop853.E5, reference.E5)
    assert _same_bits(dop853.D, reference.D)


def _compare(runs):
    """Each recorded (args, ours) against scipy on the same arguments."""
    for args, ours in runs:
        theirs = scipy_solve(*args)
        assert ours.status == theirs.status and ours.message == theirs.message
        assert np.array_equal(ours.t, theirs.t)
        assert ours.nfev == theirs.nfev
        assert len(ours.t_events) == len(theirs.t_events or [])
        for mine, ref in zip(ours.t_events, theirs.t_events or []):
            assert np.array_equal(mine, ref)
        s = np.linspace(0.0, ours.t[-1], 200)
        assert np.array_equal(dop853.evaluate(ours.t, ours.h, ours.y0, ours.F, s),
                              theirs.sol(s).T)


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
    _compare(runs)


def test_default_first_step_and_negated_field_match_scipy():
    # the reference geodesic of a non-round h0, as base_geodesic runs it
    cs = sg.sphere_section((0.1, static_sphere_bump))
    y, v = cs.embed(np.array([math.pi / 2, 0.0]), np.array([0.3, math.sqrt(1 - 0.09)]))
    x0 = np.concatenate([y, cs.covector(y, cs.metric(0.0, y) @ v)])

    def rhs(_, state):
        sharp, _, _, force = cs.cometric(0.0, state[:3].tolist(), state[3:].tolist())
        return sharp + force

    ours = dop853.solve_ivp(rhs, 1.3, x0, 1e-12, 1e-14)
    _compare([((rhs, 1.3, x0, 1e-12, 1e-14), ours)])
    # backward in time: the negated field forward over [0, 1.3]
    back = dop853.solve_ivp(lambda t, s: [-d for d in rhs(t, s)], 1.3, x0, 1e-12, 1e-14)
    theirs = scipy_solve_ivp(rhs, (0.0, -1.3), x0, method="DOP853", rtol=1e-12, atol=1e-14,
                             dense_output=True)
    assert np.array_equal(back.t, -theirs.t)
    assert back.nfev == theirs.nfev
    s = np.linspace(0.0, 1.3, 200)
    assert np.array_equal(dop853.evaluate(back.t, back.h, back.y0, back.F, s),
                          theirs.sol(-s).T)


def _blow_up(_, s):
    # tau' = 1 + tau^2: tau = tan(t) blows up at t = pi/2, where the step collapses
    return [0.0, 0.0, 1.0 + s[2] * s[2]]


def test_collapsing_step_raises():
    wf = sg.make_power_warp(2.0)
    decode = geodesic_flow._reduced_decode(0.0, 1, 0.1, 1.0, 0.01)
    with pytest.raises(IntegrationError, match="stepper failed: Required step size"):
        geodesic_flow._run_branch(wf, _blow_up, [0.1, 0.0, 0.0], 1, decode, 1e-10, 1e-12,
                                  None, math.inf)
    args = (_blow_up, 4.0, np.array([0.1, 0.0, 0.0]), 1e-10, 1e-12, 1e-3)
    ours = dop853.solve_ivp(*args)
    assert ours.status == -1 and abs(ours.t[-1] - math.pi / 2) < 1e-8
    _compare([(args, ours)])
