"""The explicit Runge-Kutta method DOP853 of Hairer, Norsett and Wanner
(*Solving Ordinary Differential Equations I*, sections II.5 and II.6), run
forward from t = 0, with its dense output kept as coefficient arrays.

A run is the method of scipy's ``DOP853``: the same stages, 5th/3rd-order
error estimate, step-size control and dense output, with the tableau
written out below as literals.  The whole run is one generated function:
for each state size n, ``kernel_source`` writes the step-size clamp, the
stages as straight-line float arithmetic (one local per stage component
and one product per nonzero coefficient), the error norms, accept or
reject, the dense-output stages and the ``t_end`` and stop tests from the
tableau and step-size constants, and the module compiles that source once
per n, read set, tableau and constants.  To read the generated code,
print ``dop853.kernel_source(3, (0, 1, 2))``.  ``compiled`` is the
package's one compiler of generated source, cached by the source text;
``geodesic_flow`` compiles its traced right-hand sides with it too.

The sums add their terms left to right.  ``np.dot`` hands them to BLAS,
whose x86-64 kernels add in blocks with fused multiply-adds, so a run is
not scipy's to the last bit.  On the package's runs it takes scipy's
evaluation, step and stop counts, and its step points differ from
scipy's by up to about 1e-4 of the run's length.  Where a last-bit change
decides single steps, as next to a pole, the counts differ too.  With the
sums of scipy's Runge-Kutta module added left to right, as OpenBLAS's
kernels without fused multiply-adds add them, scipy's run is this one bit
for bit (``tests/test_dop853.py`` checks both and states the measured
differences).

A run starts with the step its caller gives (finite and positive, or
ValueError).  A right-hand side is autonomous: it is called as ``fun(x0,
..., x{n-1})`` on positional floats and returns n floats (a system that
reads its time takes t as one more component; Hairer, Norsett and Wanner,
section II.5).  A run may take a read set, the only components that its
right-hand side reads (the traced right-hand sides of ``geodesic_flow``
never read the clock ``tau_scaled``).  It passes the step-start value
y{i} in place of the stage sum of each unread component, so every step,
coefficient and count is that of the run that forms every stage sum.  A
run may end at a stop, a (component, level) pair: in the first step over
which the component goes from at most the level to at least it,
``crossing`` finds the time on the step's dense polynomial, as it does in
``level_times``, with ``brent``: the package's one root finder, a port of
scipy's ``brentq.c`` whose roots are scipy's ``brentq``'s bit for bit.  A
run returns its dense solution as three arrays of its ``Solution``: the
step points ``t``, each step's length ``h`` and one
component-major array ``coef`` (8 x states x steps) of each step's seven
interpolation coefficients and, last, its start value.  The generated run
forms all eight rows of each accepted step and records them with the
step's length and end time in one list of floats.  ``solve_ivp`` takes the
stop's crossing from the list's last step and packs the list once as C
doubles (``struct``, a third of the time of ``np.array`` on a list), so the
three arrays are views of one array of the record: ``coef`` is one
reshape of it, transposed.  Only ``evaluate`` and ``level_times`` read
``coef``.  ``evaluate`` finds each point's step with one ``searchsorted``
on the step points, gathers the steps' coefficients (of every component,
or of one) and runs Horner's scheme on them; on every component the step
fractions are laid out once per component row, so each of Horner's 15
array operations takes operands of one shape.
"""
from __future__ import annotations

import linecache
import math
import struct
from typing import List, NamedTuple

import numpy as np

__all__ = ["Solution", "solve_ivp", "evaluate", "brent", "crossing", "level_times", "compiled"]

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
EVENT_TOL = 4.0 * math.ulp(1.0)  # 4 eps, as a float
MAX_ITER = 100  # Brent iterations before RuntimeError, as scipy's brentq
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# a run's message by its status
_MESSAGES = {-1: TOO_SMALL_STEP,
             0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred."}


class Solution(NamedTuple):
    """One run.  ``status`` is 1 when a stop ended it, 0 at ``t_end`` and
    -1 when the step collapsed (``message`` says why).  ``t`` holds the step
    points; after a stop the last one is the stop's time, which cuts the
    last step short (``h`` keeps its full length).  ``t_events[i]`` holds the
    time of stop i, if it ended the run.  ``coef[:, i, j]`` holds component
    i's dense polynomial on step j: its coefficients ``coef[:7, i, j]`` and
    start value ``coef[7, i, j]``.  ``rejected`` counts the attempts whose
    error estimate failed; the accepted steps are ``len(h)``."""

    t: np.ndarray
    nfev: int
    status: int
    message: str
    t_events: List[np.ndarray]
    h: np.ndarray
    coef: np.ndarray
    rejected: int


def _stage_sum(weights, stages, i: int) -> str:
    """The sum of ``weights[j] * k{stages[j]}_{i}`` over the nonzero weights,
    as source, added left to right."""
    return " + ".join(f"{float(w)!r} * k{s}_{i}" for w, s in zip(weights, stages)
                      if w != 0.0)


def _names(stages, n: int) -> str:
    """The locals of the stages ``stages``, each with n components, as an
    unpacking target (the trailing comma serves n = 1)."""
    return " ".join(f"k{s}_{i}," for s in stages for i in range(n))


def _stages(n: int, first: int, last: int, indent: str, reads) -> list:
    """Source lines of the stages ``first`` .. ``last`` - 1, each one call
    of ``fun`` on y + (A K) h in the components ``reads`` and on y in the
    others."""
    lines = []
    for s in range(first, last):
        state = ", ".join(f"y{i} + ({_stage_sum(A[s], range(s), i)}) * h" if i in reads
                          else f"y{i}" for i in range(n))
        lines.append(f"{indent}{_names([s], n)} = fun({state})")
    return lines


def kernel_source(n: int, reads) -> str:
    """Source of one run on n-component states, written from the module's
    current tableau (``A``, ``B``, ``E5``, ``E3``, ``D``) and step-size
    constants (``SAFETY``, ``MIN_FACTOR``, ``MAX_FACTOR``,
    ``ERROR_EXPONENT``).

    ``reads`` holds the indices of the only components that the right-hand
    side reads: each stage forms the stage sum of those and passes the
    step-start value y{i} of every other component.  Every call passes all
    n components and no time, so the slopes it returns, hence every step,
    error norm, dense row and count, are those of the run that forms every
    stage sum.

    ``run(fun, t_end, y, f, rtol, atol, h_abs, max_step, record, s0, ...,
    s{n-1})`` steps from t = 0, the state ``y`` and its slope ``f`` with
    the first step ``h_abs``: the step clamp, stages 1-11 and the end slope, the squared
    norms of the 5th- and 3rd-order error estimates scaled by atol +
    max(|y|, |y_new|) rtol (the root of the sum of squares, squared, as
    scipy's ``norm(err)**2``), accept or reject, and for an accepted step
    stages 13-15.  Each accepted step is passed to ``record`` as one tuple:
    its length, the eight rows of its dense polynomial, row-major (rows 0-2
    from the step's change dy and end slopes, dy, h f_old - dy and 2 dy -
    h (f_new + f_old), as scipy's ``Dop853DenseOutput`` forms them; rows
    3-6 h D K; row 7 the start value), and its end time.  The run returns
    (status, rejected attempts, end state): status 1 after the first step
    over which a component i goes from at most its level ``s{i}`` to at
    least it (a NaN level never stops the run), with the state at that
    step's end; 0 at ``t_end`` and -1 when the step falls below 10 ulp of
    t, with None.
    """
    y, new = (", ".join(f"{v}{i}" for i in range(n)) for v in ("y", "n"))
    cap, low, safety, exponent = (repr(float(c)) for c in (MAX_FACTOR, MIN_FACTOR, SAFETY,
                                                           ERROR_EXPONENT))
    lines = [f"def run(fun, t_end, y, f, rtol, atol, h_abs, max_step, record, "
             f"{', '.join(f's{i}' for i in range(n))}):",
             f"    {y}, = y", f"    {_names([0], n)} = f",
             "    t = 0.0",
             "    rejected = 0",
             "    while True:",
             "        min_step = 10.0 * (nextafter(t, inf) - t)",
             "        if h_abs > max_step:",
             "            h_abs = max_step",
             "        elif h_abs < min_step:",
             "            h_abs = min_step",
             "        retry = False",
             "        while True:",
             "            if h_abs < min_step:",
             "                return -1, rejected, None",
             "            t_new = t + h_abs",
             "            if t_end < t_new:",
             "                t_new = t_end",
             "            h = t_new - t",
             "            h_abs = h"]
    lines += _stages(n, 1, 12, " " * 12, reads)
    lines += [f"            n{i} = y{i} + h * ({_stage_sum(B, range(12), i)})" for i in range(n)]
    lines.append(f"            {_names([12], n)} = fun({new})")
    for i in range(n):
        lines += [f"            a, b = abs(y{i}), abs(n{i})",
                  "            scale = atol + (a if a > b else b) * rtol",
                  f"            e5_{i} = ({_stage_sum(E5, range(13), i)}) / scale",
                  f"            e3_{i} = ({_stage_sum(E3, range(13), i)}) / scale"]
    for e in ("e5", "e3"):
        squares = " + ".join(f"{e}_{i} * {e}_{i}" for i in range(n))
        lines.append(f"            {e} = sqrt({squares})")
    lines += ["            e5, e3 = e5 * e5, e3 * e3",
              "            if e5 == 0.0 and e3 == 0.0:",
              "                error = 0.0",
              "            else:",
              f"                error = h * e5 / sqrt((e5 + 0.01 * e3) * {n})",
              # min and max as Python's: the first argument unless the second
              # is smaller (larger), which also takes max(MIN_FACTOR, nan)
              "            if error < 1.0:",
              f"                factor = {cap} if error == 0.0 else {safety} * error ** {exponent}",
              f"                if not factor < {cap}:",
              f"                    factor = {cap}",
              "                if retry and not factor < 1.0:",
              "                    factor = 1.0",
              "                h_abs *= factor",
              "                break",
              f"            factor = {safety} * error ** {exponent}",
              f"            if not factor > {low}:",
              f"                factor = {low}",
              "            h_abs *= factor",
              "            retry = True",
              "            rejected += 1"]
    lines += _stages(n, 13, 16, " " * 8, reads)
    lines += [f"        d{i} = n{i} - y{i}" for i in range(n)]
    rows = [f"d{i}" for i in range(n)]
    rows += [f"h * k0_{i} - d{i}" for i in range(n)]
    rows += [f"2.0 * d{i} - h * (k12_{i} + k0_{i})" for i in range(n)]
    rows += [f"h * ({_stage_sum(row, range(16), i)})" for row in D for i in range(n)]
    lines.append(f"        record((h, {', '.join(rows)}, {y}, t_new))")
    crossed = " or ".join(f"y{i} <= s{i} <= n{i}" for i in range(n))
    lines += [f"        if {crossed}:", f"            return 1, rejected, ({new},)",
              "        if t_new == t_end:", "            return 0, rejected, None",
              f"        t, {y} = t_new, {new}",
              f"        {_names([0], n)} = {_names([12], n)}"]
    return "\n".join(lines) + "\n"


# generated source -> the names its execution defined
_COMPILED = {}


def compiled(source: str) -> dict:
    """The names that executing ``source`` defines, compiled once per source
    text.  The source may call math's sin, cos, sqrt, exp, log and nextafter
    and read ``inf``.  It is registered with ``linecache``, so tracebacks and
    ``inspect.getsource`` show the generated lines."""
    if source not in _COMPILED:
        filename = f"<generated {len(_COMPILED)}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {name: getattr(math, name)
                     for name in ("sin", "cos", "sqrt", "exp", "log", "nextafter", "inf")}
        exec(compile(source, filename, "exec"), namespace)
        _COMPILED[source] = namespace
    return _COMPILED[source]


# (state size, read set, step-size constants, tableau identities) -> (the
# tableau objects, their compiled run)
_KERNELS = {}


def _kernel(n: int, reads):
    """``kernel_source(n, reads)`` compiled, once per key: a tableau array
    or step-size constant patched into the module gets its own run.  The
    key holds the identities of ``A``, ``B``, ``E5``, ``E3`` and ``D``, not
    their contents, so an in-place edit of a tableau array is not seen;
    each entry keeps those objects alive, so their ids cannot be reused."""
    tableau = (A, B, E5, E3, D)
    key = (n, reads, SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT, *map(id, tableau))
    if key not in _KERNELS:
        _KERNELS[key] = tableau, compiled(kernel_source(n, reads))["run"]
    return _KERNELS[key][1]


def _horner(F, y0, x):
    """The degree-7 dense polynomial at the fractions ``x`` of its step, in
    the alternating Horner scheme of scipy's ``Dop853DenseOutput``, from its
    coefficients ``F[:7]`` and start value ``y0``.  On floats it gives a
    float; on the arrays that ``evaluate`` gathers it gives the same bits
    for every entry."""
    w = 1.0 - x
    y = F[6] * x
    for i in range(1, 7):
        y += F[6 - i]
        y *= x if i % 2 == 0 else w
    y += y0
    return y


def evaluate(sol: Solution, s: np.ndarray, component=None) -> np.ndarray:
    """The run ``sol`` at the points ``s`` (a 1-D array inside [t[0],
    t[-1]]): one row per state component and one column per point, or, for
    a given ``component``, that component's row alone.  A step point takes
    the earlier step, as scipy's ``OdeSolution`` does."""
    # the number of step points past t[0] that lie before s: step j holds
    # (t[j], t[j + 1]], and step 0 also t[0]
    seg = sol.t[1:].searchsorted(s)
    coef = sol.coef if component is None else sol.coef[:, component]
    c = coef.take(seg, axis=-1)
    x = (s - sol.t[seg]) / sol.h[seg]
    if component is None:
        # x in every component's row: operands of one shape take numpy's
        # fastest loop in each step of Horner's scheme
        rows = np.empty(c.shape[1:])
        rows[:] = x
        x = rows
    return _horner(c, c[7], x)


def brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """The root of ``f`` in the bracket [a, b] by Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4), to
    within ``xtol`` + ``rtol`` |x|: a port of scipy's ``brentq.c``, so on
    the same bracket and tolerances it takes the steps of scipy's ``brentq``
    and returns its root bit for bit (``tests/test_dop853.py`` checks this).
    An end at which ``f`` is zero is returned as the root.  A bracket whose
    ends have the same sign raises ValueError, and one not closed within
    ``MAX_ITER`` iterations raises RuntimeError, as scipy's does.  ``f``
    takes and returns floats, never NaN.  A zero denominator, where C
    divides to an infinite or NaN step, bisects, as that step does."""
    fpre, fcur = f(a), f(b)
    if fpre == 0.0:
        return a
    if fcur == 0.0:
        return b
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        abs_sbis = abs(sbis)
        if fcur == 0.0 or abs_sbis < delta:
            return xcur
        abs_spre = abs(spre)
        stry = math.inf  # bisect, unless interpolation gives a short step
        if abs_spre > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2.0 * abs(stry) < min(abs_spre, 3.0 * abs_sbis - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {MAX_ITER} iterations, value is {xcur}")


def crossing(F, y0, t0: float, h: float, level: float, hi: float, xtol: float) -> float:
    """The time in [t0, hi] at which one component of a step's dense
    polynomial (its 7 coefficients ``F`` and start value ``y0`` as floats;
    the step starts at ``t0`` and is ``h`` long) rises through ``level``:
    the package's ``brent`` (scipy's ``brentq`` bit for bit) to within
    ``xtol`` + 4 eps |t|, on ``_horner``'s sum written out.  A polynomial
    that ends short of the level by a rounding error gives ``hi``."""
    f0, f1, f2, f3, f4, f5, f6 = F

    def gap(t):
        x = (t - t0) / h
        w = 1.0 - x
        y = (((f6 * x + f5) * w + f4) * x + f3) * w + f2
        return ((y * x + f1) * w + f0) * x + y0 - level
    if gap(hi) < 0.0:
        return hi
    return brent(gap, t0, hi, xtol, EVENT_TOL)


def level_times(sol: Solution, i: int, levels: np.ndarray, xtol: float) -> np.ndarray:
    """The times at which the rising component ``i`` of the run ``sol``
    reaches ``levels`` (a 1-D array inside its range): ``crossing`` (the
    package's ``brent``) to within ``xtol`` on the last step whose start
    value is at most the level."""
    coef = sol.coef[:, i]
    k = np.searchsorted(coef[7], levels, side="right") - 1
    steps = zip(coef.take(k, axis=1).T.tolist(), sol.t[k].tolist(), sol.h[k].tolist(),
                sol.t[k + 1].tolist(), levels.tolist())
    return np.array([crossing(c[:7], c[7], t0, h, level, t1, xtol)
                     for c, t0, h, t1, level in steps], dtype=float)


def solve_ivp(fun, t_end: float, y0, rtol: float, atol: float, first_step: float,
              max_step: float = math.inf, stops=(), reads=None) -> Solution:
    """Integrate y' = fun(y) from y(0) = ``y0`` towards ``t_end`` > 0,
    starting with a step of ``first_step`` (finite and positive, or
    ValueError).

    ``fun(x0, ..., x{n-1})`` receives the n state components as positional
    floats and returns a sequence of n floats.  ``stops`` holds (component,
    level) pairs: the run ends in the first step at whose start a component
    is at most its level and at whose end at least, at the time
    ``crossing`` finds on the step's dense polynomial (the earliest, if
    several components cross in one step); a component takes at most one
    stop (ValueError).  ``reads``, a tuple of the indices of the only
    components that ``fun`` reads (as a traced right-hand side's,
    ``straightline.trace``), or None for every component, changes which
    stage sums the run forms, not its result.  The steps are one call of
    the generated ``run`` of the state size and read set
    (``kernel_source``).  The scalar arguments are taken as Python floats:
    a numpy scalar among them would carry numpy scalar arithmetic into
    every stage.
    """
    t_end, rtol, atol, first_step, max_step = map(float, (t_end, rtol, atol, first_step,
                                                          max_step))
    if not (math.isfinite(first_step) and first_step > 0.0):
        raise ValueError(f"first_step={first_step!r} must be finite and positive")
    y = list(map(float, y0))
    n = len(y)
    at = [range(n)[i] for i, _ in stops]  # each stop's component, counted from 0
    if len(set(at)) < len(at):
        raise ValueError(f"stops={stops!r} put two stops on one component")
    # each component's stop level; NaN, which no comparison passes, where it
    # has none
    levels = [math.nan] * n
    for i, (_, level) in zip(at, stops):
        levels[i] = float(level)
    reads = tuple(range(n)) if reads is None else reads
    f = fun(*y)
    out = [0.0]
    status, rejected, end = _kernel(n, reads)(fun, t_end, y, f, rtol, atol, first_step,
                                              max_step, out.extend, *levels)
    # after the first step point, one row per accepted step: its length,
    # dense polynomial (row r of component i at 1 + r n + i) and end time
    width = 8 * n + 2
    t_events = [np.empty(0) for _ in stops]
    if status == 1:
        last, t0 = out[-width:], out[-width - 1]
        root, k = min((crossing(last[1 + i:1 + 7 * n:n], last[1 + 7 * n + i], t0, last[0],
                                levels[i], last[-1], EVENT_TOL), k)
                      for k, i in enumerate(at) if last[1 + 7 * n + i] <= levels[i] <= end[i])
        t_events[k] = np.array([root])
        out[-1] = root
    # struct packs the floats as C doubles three times as fast as np.array
    # converts the list
    size = len(out)
    record = np.frombuffer(bytearray(struct.pack(f"{size}d", *out)))
    steps = record[1:].reshape(-1, width)
    t, h = record[::width], steps[:, 0]
    coef = steps[:, 1:-1].reshape(-1, 8, n).transpose(1, 2, 0)
    accepted = size // width
    return Solution(t, 1 + 12 * (accepted + rejected) + 3 * accepted, status, _MESSAGES[status],
                    t_events, h, coef, rejected)
