"""The explicit Runge-Kutta method DOP853 of Hairer, Norsett and Wanner
(*Solving Ordinary Differential Equations I*, sections II.5 and II.6), run
forward from t = 0, with its dense output kept as coefficient arrays.

Each attempted step does the arithmetic of scipy's ``DOP853`` in the same
order (stages, 5th/3rd-order error estimate, step-size control, dense
output), so a run reproduces scipy's steps, counts and event times; the
tableau is written out below as literals.  A run returns its dense solution
as four arrays: the step points ``t``, each step's length ``h``, start state
``y0`` and interpolation coefficients ``F`` (7 x steps x states), which
``evaluate`` turns into states with one gather and Horner's scheme.
"""
from __future__ import annotations

import math
from typing import List, NamedTuple

import numpy as np
from scipy.optimize import brentq

__all__ = ["Solution", "solve_ivp", "evaluate"]

# the nodes c of the 16 stages
C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
     0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
     0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778)

# row s holds the coefficients a_{s,0} .. a_{s,s-1} of stage s (rows 1-11 the
# step, row 12 the solution weights B, rows 13-15 the dense-output stages)
_A_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
A = tuple(np.array(row) for row in _A_ROWS)
B = A[12]

# error weights of the embedded 5th- and 3rd-order estimates, over the 13
# stages of a step
E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
               -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
               0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, -0.4226823213237919,
               -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])

# the dense-output coefficients F[3:] = h D K over all 16 stages
D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7
EVENT_TOL = 4.0 * np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class Solution(NamedTuple):
    """One run.  ``status`` is 1 when an event ended it, 0 at ``t_end`` and
    -1 when the step collapsed (``message`` says why).  ``t`` holds the step
    points; after an event the last one is the event's time, which cuts the
    last step short (``h`` keeps its full length).  ``t_events[i]`` holds the
    time of event i, if it ended the run."""

    t: np.ndarray
    nfev: int
    status: int
    message: str
    t_events: List[np.ndarray]
    h: np.ndarray
    y0: np.ndarray
    F: np.ndarray


def _horner(F, y0, x):
    """The degree-7 dense polynomial at the fractions ``x`` of its step, in
    the alternating Horner scheme of scipy's ``Dop853DenseOutput``."""
    y = F[6] * x
    for i in range(1, 7):
        y += F[6 - i]
        y *= x if i % 2 == 0 else 1.0 - x
    y += y0
    return y


def evaluate(t, h, y0, F, s: np.ndarray) -> np.ndarray:
    """States (one row per point) of a dense solution at the points ``s``
    (a 1-D array inside [t[0], t[-1]]); a step point takes the earlier
    step, as scipy's ``OdeSolution`` does."""
    seg = np.maximum(np.searchsorted(t, s, side="left") - 1, 0)
    return _horner(F[:, seg], y0[seg], ((s - t[seg]) / h[seg])[:, None])


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x @ x) / len(x) ** 0.5


def _initial_step(fun, y0, f0, t_end, max_step, rtol, atol) -> float:
    """The starting step of Hairer, Norsett and Wanner (section II.4), as
    scipy's ``select_initial_step`` chooses it; costs one evaluation."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = np.asarray(fun(h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, t_end, max_step)


def solve_ivp(fun, t_end: float, y0, rtol: float, atol: float, first_step=None,
              max_step: float = math.inf, events=()) -> Solution:
    """Integrate y' = fun(t, y) from y(0) = ``y0`` towards ``t_end`` > 0.

    Every function of ``events`` is terminal: the run ends at the first root
    of any of them, where it changes sign in the direction of its
    ``direction`` attribute (rising if positive, falling if negative, either
    if zero or absent).  The root is found by ``brentq`` on the step's dense
    polynomial.  Without ``first_step`` the first step is chosen from the
    right-hand side at two points.
    """
    y = np.array(y0, dtype=float)
    n = len(y)
    # K holds the 12 stages of a step, its end slope and the 3 extra stages
    # of the dense output; KT[s] is the transpose of its first s rows
    K = np.empty((16, n))
    KT = [K[:s].T for s in range(16)]
    t = 0.0
    f = np.asarray(fun(t, y), dtype=float)
    nfev = 1
    if first_step is None:
        h_abs = _initial_step(fun, y, f, t_end, max_step, rtol, atol)
        nfev += 1
    else:
        h_abs = first_step
    directions = [getattr(event, "direction", 0.0) for event in events]
    g = [event(t, y) for event in events]
    t_events = [[] for _ in events]
    ts, hs, ys, Fs = [t], [], [], []
    status, message = None, ""
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + np.dot(KT[s], A[s]) * h)
            y_new = y + h * np.dot(KT[12], B)
            f_new = np.asarray(fun(t_new, y_new), dtype=float)
            K[12] = f_new
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(KT[13], E5) / scale
            err3 = np.dot(KT[13], E3) / scale
            err5_2 = math.sqrt(err5 @ err5) ** 2
            err3_2 = math.sqrt(err3 @ err3) ** 2
            if err5_2 == 0.0 and err3_2 == 0.0:
                error = 0.0
            else:
                error = h * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * n)
            if error < 1.0:
                factor = MAX_FACTOR if error == 0.0 else min(
                    MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        if status is not None:
            break

        for s in range(13, 16):
            K[s] = fun(t + C[s] * h, y + np.dot(KT[s], A[s]) * h)
        nfev += 3
        dy = y_new - y
        Fk = np.empty((7, n))
        Fk[0] = dy
        Fk[1] = h * f - dy
        Fk[2] = 2 * dy - h * (f_new + f)
        Fk[3:] = h * np.dot(D, K)
        hs.append(h)
        ys.append(y)
        Fs.append(Fk)
        t_old, t, y, f = t, t_new, y_new, f_new
        if t == t_end:
            status = 0

        if events:
            g_new = [event(t, y) for event in events]
            roots = []
            for i, (event, d, a, b) in enumerate(zip(events, directions, g, g_new)):
                rises, falls = a <= 0 <= b, a >= 0 >= b
                if (rises and d > 0) or (falls and d < 0) or ((rises or falls) and d == 0):
                    y_old = ys[-1]
                    roots.append((brentq(
                        lambda tt: event(tt, _horner(Fk, y_old, (tt - t_old) / h)),
                        t_old, t, xtol=EVENT_TOL, rtol=EVENT_TOL), i))
            if roots:
                root, i = min(roots)
                t_events[i].append(root)
                t, status = root, 1
            g = g_new
        ts.append(t)

    if status == 1:
        message = "A termination event occurred."
    elif status == 0:
        message = "The solver successfully reached the end of the integration interval."
    return Solution(
        np.array(ts), nfev, status, message, [np.array(te) for te in t_events],
        np.array(hs), np.array(ys).reshape(len(ys), n),
        np.stack(Fs, axis=1) if Fs else np.empty((7, 0, n)))
