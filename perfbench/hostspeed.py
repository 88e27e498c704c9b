"""Host-speed reference: a fixed kernel timed next to every op.

On a shared host the CPU a run gets slows down and speeds up by 25-45% for
seconds to minutes at a time (another tenant on the sibling hyperthread, say),
on each core independently.  No statistic over one run's repetitions removes
a slow spell that lasts the whole run, so the benchmark times this kernel
right before every op and scales the op's time by ``NOMINAL_S / local``,
where ``local`` is the median kernel time around the op.  Timings are then
reported in reference-normalised seconds: what the op would take while the
kernel takes ``NOMINAL_S``.

The kernel does the two kinds of work the package does -- a DOP853
``solve_ivp`` of a small nonlinear system with Python callbacks, and a
``brentq`` over ``quad`` of the arc length of a PCHIP profile -- without
calling the package, so a change to the package never moves it.  Neither
half alone tracks every workload: the solver half slows more than the
profile queries do when the host is busy.  Changing the kernel or ``NOMINAL_S`` changes every timing metric:
do it only in a change of its own that re-measures the baseline.
"""
from __future__ import annotations

import math
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

NOMINAL_S = 2.4e-3      # the kernel's typical time on a 2-core Xeon host
WINDOW_S = 0.3          # kernel samples this close to an op scale its time


def _rhs(t, y):
    return np.array([y[1], -y[0] * (1.0 + 0.1 * math.cos(y[2])),
                     1.0 / (1.0 + y[0] * y[0])])


_NODES = np.linspace(0.0, 1.0, 5)
_SLOPE = PchipInterpolator(_NODES, _NODES ** 2 + _NODES ** 3).derivative()


def _arc(x):
    return quad(lambda w: math.hypot(1.0, float(_SLOPE(w))), 0.5, x)[0] - 0.3


def kernel() -> float:
    sol = solve_ivp(_rhs, (0.0, 1.5), np.array([1.0, 0.0, 0.0]), method="DOP853",
                    rtol=1e-9, atol=1e-12)
    return float(sol.y[0, -1]) + brentq(_arc, 0.5, 0.75)


def sample() -> Tuple[float, float]:
    """Run the kernel once; return (start, seconds)."""
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter() - t0


def settle(n: int = 15) -> float:
    """Median kernel time over ``n`` runs after one discarded warm-up run."""
    kernel()
    return statistics.median(sample()[1] for _ in range(n))


def local(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Median time of the kernel samples that started within WINDOW_S of the
    interval [start, end]; the samples just before and after it always count."""
    near: List[float] = [dt for t0, dt in samples
                         if start - WINDOW_S <= t0 <= end + WINDOW_S]
    before = [s for s in samples if s[0] <= start]
    after = [s for s in samples if s[0] >= end]
    if before and before[-1][0] < start - WINDOW_S:
        near.append(before[-1][1])
    if after and after[0][0] > end + WINDOW_S:
        near.append(after[0][1])
    return statistics.median(near)
