"""A noise-free count of the fixed cost around the stepper: the calls that the
package's own frames make, counted with ``sys.setprofile``.

Two kinds of call are counted: Python-level calls whose caller is a package
frame (a "call" event whose frame's ``f_back`` lies in the package; each
resumption of a generator is one), and C-level calls made from package
frames ("c_call" events: builtins such as ``abs`` and ``len``, C functions
and methods such as ``np.concatenate`` and ``ndarray.take``).  ufuncs and
operators raise no event.  Generated code (the DOP853 run and the traced
right-hand sides, whose frames are named ``<generated N>``) is not a
package frame, so the stepper's per-step calls are not counted, and neither
are the calls that numpy's own Python frames make.  Each count repeats
exactly: a warm-up call compiles and traces first, and the cyclic garbage
collector is off while counting, so that no finalizer runs inside a package
frame.

At the parent of the change that added this file (numpy 2.4, Python 3.11)
the counts, Python + C, were 222 + 219 for the comparison pair, 95 + 102 for
one reduced trajectory and 201 + 209 for the perturbed-sphere case.  The
bounds below are the counts after it."""
import gc
import math
import os
import sys

import numpy as np
import pytest

import singular_geodesics as sg
from singular_geodesics import dop853, experiments
from singular_geodesics.cross_sections import default_sphere_shape

PACKAGE = os.path.dirname(sg.__file__) + os.sep


def package_calls(fn):
    """(Python-level calls with a package caller, C-level calls from package
    frames) made while ``fn()`` runs."""
    python = c = 0

    def profile(frame, event, arg):
        nonlocal python, c
        if event == "call":
            caller = frame.f_back
            python += caller is not None and caller.f_code.co_filename.startswith(PACKAGE)
        elif event == "c_call":
            c += frame.f_code.co_filename.startswith(PACKAGE)

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return python, c


# module-level objects, so that their traced right-hand sides stay cached
CIRCLE = sg.circle_section(2 * math.pi)
POWER2 = sg.make_power_warp(2.0)


def comparison_pair():
    # one op of the benchmark's reduced workload
    experiments.comparison_test(POWER2, CIRCLE, 0.1, 0.25, n_nodes=401, rtol=1e-10)


def reduced_trajectory():
    sg.integrate_winding(POWER2, CIRCLE, 0.1, 0.0, 1.0, dense_nodes=128)


SPHERE = sg.sphere_section((0.05, default_sphere_shape), domain_radius=1.5)
POWER15 = sg.make_power_warp(1.5, R=1.5)


def full_op():
    # one op of the benchmark's full workload on the perturbed sphere
    traj = sg.integrate_winding(POWER15, SPHERE, 0.15, np.array([math.pi / 2.0, 1.0]),
                                np.array([math.sin(0.3), math.cos(0.3)]), rtol=1e-9,
                                dense_nodes=256)
    experiments.verify_radial_bounds(traj)


@pytest.mark.parametrize("fn, bound", [(comparison_pair, (145, 195)),
                                       (reduced_trajectory, (64, 92)),
                                       (full_op, (173, 193))],
                         ids=["comparison_pair", "reduced_trajectory", "full_op"])
def test_fixed_cost_stays_within_its_count(fn, bound):
    fn()
    counts = package_calls(fn)
    assert package_calls(fn) == counts
    assert counts[0] <= bound[0] and counts[1] <= bound[1], counts


def test_the_comparison_pair_makes_at_most_350_calls():
    comparison_pair()
    assert sum(package_calls(comparison_pair)) <= 350


def test_a_run_count_does_not_grow_with_its_steps():
    # the generated run is not a package frame, so its calls are not counted
    def run(t_end):
        return dop853.solve_ivp(lambda y: (y * (1.0 - y),), t_end, [0.1], 1e-10, 1e-12, 1e-3)
    assert len(run(30.0).h) > 2 * len(run(1.0).h)
    assert package_calls(lambda: run(1.0)) == package_calls(lambda: run(30.0))
