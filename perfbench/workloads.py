"""The four benchmark workloads: seeded inputs, warm-up, ops and oracles.

Every workload is a closed loop with one client: the ops of one pass run one
at a time, in a fixed order, from inputs generated from the seed.  An op is
the timed call into the package; its check runs afterwards, untimed, against
an oracle that does not share the code path under test.

``reduced``  criterion-7 comparison pairs on the flat circle (reduced path).
``full``     criterion-6 bounds cases on the full phase-space path.
``profile``  a seeded parabola profile CSV turned into a warp and queried.
``cli``      in-process ``cli.main`` runs of trace, sweep, cf and verify.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import brentq

import singular_geodesics as sg
from singular_geodesics import (
    cli,
    experiments,
    geodesic_flow,
    profile_io,
    svgplot,
    warp_profiles,
)
from singular_geodesics.cross_sections import default_circle_shape, default_sphere_shape

from tracer import Span, Tracer

R = 1.5
TWO_PI = 2.0 * math.pi
CUSP_CF = math.gamma(0.75) * math.gamma(0.5) / math.gamma(1.25)

# An op's check is a list of (what, error, tolerance, counts_for_digits).
# A boolean condition is written as error 0 (holds) or 1 (fails) against
# tolerance 0.5 and does not enter oracle_digits.
Check = List[Tuple[str, float, float, bool]]


def holds(what: str, cond: bool) -> Tuple[str, float, float, bool]:
    return (what, 0.0 if cond else 1.0, 0.5, False)


def within(what: str, err: float, tol: float) -> Tuple[str, float, float, bool]:
    return (what, float(err), tol, True)


def rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n seeded draws, one uniform inside each of n equal strata of [lo, hi],
    in seeded order."""
    return grid_design(rng, (n,), [(lo, hi)])[:, 0]


def grid_design(rng, shape, ranges) -> np.ndarray:
    """One seeded draw inside every cell of a grid of ``shape`` cells over
    ``ranges`` (a full factorial with jitter), rows in seeded order.

    Op costs depend on the parameters jointly (alpha with delta, say); with
    every cell drawn once, each seed's ops have nearly the same spread of
    costs, so a run's timings measure the program rather than the draw."""
    cells = np.stack(np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"),
                     axis=-1).reshape(-1, len(shape))
    lo, hi = np.array(ranges, dtype=float).T
    points = lo + (cells + rng.uniform(0.0, 1.0, cells.shape)) / np.array(shape) * (hi - lo)
    return points[rng.permutation(len(points))]


@dataclass
class Op:
    label: str
    run: Callable[["Inputs", dict], object]     # timed
    check: Callable[[object], Check]             # untimed
    latency: bool = True                          # enters op_ms percentiles


WARP_CALLS = ("f", "f_prime", "F", "F_prime", "log_f", "d_log_f")
SECTION_CALLS = ("metric", "d_r_metric", "d_y_metric", "eta_norm", "conformal",
                 "round_metric", "d_y_round_metric", "h0_distance", "embed")
DENSE_CALLS = ("r_of_t", "state_at", "tau_of_t", "tau_scaled_of_t", "t_of_tau")


class Inputs:
    """The objects one pass hands to the package.  Untraced, they are the
    package's own; traced, they are copies whose public callables record
    leaf calls."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        # id(original) -> (original, traced copy); holding the original keeps
        # its id from being reused by a later object
        self._memo: Dict[int, tuple] = {}

    def warp(self, wf):
        if self.tracer is None:
            return wf
        if id(wf) not in self._memo:
            self._memo[id(wf)] = (wf, dataclasses.replace(wf, **{
                name: self.tracer.leaf(f"warp_profiles.{name}", getattr(wf, name))
                for name in WARP_CALLS}))
        return self._memo[id(wf)][1]

    def section(self, cs):
        if self.tracer is None:
            return cs
        if id(cs) not in self._memo:
            traced = copy.copy(cs)
            for name in SECTION_CALLS:
                if hasattr(traced, name):
                    setattr(traced, name, self.tracer.leaf(
                        f"cross_sections.{name}", getattr(traced, name)))
            self._memo[id(cs)] = (cs, traced)
        return self._memo[id(cs)][1]


# ---------------------------------------------------------------------------
# module references wrapped during traced passes


def _on_solve(span: Span, sol):
    span.attrs = {"nfev": int(sol.nfev), "steps": max(len(sol.t) - 1, 0)}


def _on_trajectory(tracer: Tracer):
    def wrap(span: Span, traj):
        span.attrs = {"samples": len(traj.t)}
        for name in DENSE_CALLS:
            setattr(traj, name,
                    tracer.leaf(f"geodesic_flow.dense.{name}", getattr(traj, name)))
        traj.to_csv = tracer.span("geodesic_flow.to_csv", traj.to_csv)
    return wrap


def traced_references(tracer: Tracer):
    """(module, attribute, wrapper) for every module reference a traced pass
    replaces; the caller restores the originals after the pass."""
    spans = [
        (geodesic_flow, "solve_ivp", "geodesic_flow.solve_ivp", _on_solve),
        (geodesic_flow, "integrate", "geodesic_flow.integrate", _on_trajectory(tracer)),
        (geodesic_flow, "integrate_winding", "geodesic_flow.integrate_winding", None),
        (experiments, "integrate_winding", "geodesic_flow.integrate_winding", None),
        (experiments, "base_geodesic", "cross_sections.base_geodesic", None),
        (experiments, "comparison_test", "experiments.comparison_test", None),
        (experiments, "verify_radial_bounds", "experiments.verify_radial_bounds", None),
        (experiments, "limit_geodesic_test", "experiments.limit_geodesic_test", None),
        (experiments, "delta_sweep", "experiments.delta_sweep", None),
        (experiments, "run_comparison_campaign", "experiments.run_comparison_campaign", None),
        (warp_profiles, "compute_Cf_detailed", "warp_profiles.compute_Cf", None),
        (profile_io, "load_profile_csv", "profile_io.load_profile_csv", None),
        (profile_io, "write_warp_table", "profile_io.write_warp_table", None),
        (svgplot, "svg_line_plot", "svgplot.svg_line_plot", None),
        (cli, "main", "cli.main", None),
    ]
    return [(mod, attr, tracer.span(name, getattr(mod, attr), hook))
            for mod, attr, name, hook in spans]


# experiments spans that are one verification case each
CASE_SPANS = ("experiments.comparison_test", "experiments.verify_radial_bounds",
              "experiments.limit_geodesic_test", "experiments.delta_sweep")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    ops: List[Op]

    def warm_up(self):
        raise NotImplementedError

    def probe(self) -> List[Tuple[str, Callable[[], Check]]]:
        """Untimed extra checks run once after the timed passes."""
        return []


class Reduced(Workload):
    """Criterion-7 comparison pairs on the flat circle, one per op."""

    name = "reduced"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = np.random.default_rng([seed, 1])
        shape, n_len, n_cone = ((2, 2, 1), 2, 1) if smoke else ((5, 5, 4), 8, 4)
        self.cs = sg.circle_section(TWO_PI, domain_radius=R)
        self.pairs = [(sg.make_power_warp(float(alpha), R=R), float(d1), float(d1 + gap))
                      for alpha, d1, gap in grid_design(
                          rng, shape, [(1.0, 3.0), (0.02, 0.35), (0.02, 0.3)])]
        n_pairs = len(self.pairs)
        self.len_probes = [(wf, d1) for wf, d1, _ in self.pairs[:n_len]]
        self.cone_probes = [float(d) for d in stratified(rng, n_cone, 0.02, 0.35)]
        self.ops = [Op(f"pair{i}", self._op(i), self._check) for i in range(n_pairs)]

    def _op(self, i):
        wf, d1, d2 = self.pairs[i]

        def run(inp: Inputs, state: dict):
            return experiments.comparison_test(inp.warp(wf), inp.section(self.cs),
                                               d1, d2, n_nodes=401, rtol=1e-10)
        return run

    @staticmethod
    def _check(rep) -> Check:
        return [holds("comparison r < rbar", rep.passed and rep.min_gap > 0.0)]

    def warm_up(self):
        experiments.comparison_test(sg.make_power_warp(2.0, R=R), self.cs, 0.2, 0.3,
                                    n_nodes=11, rtol=1e-10)

    def probe(self):
        out = []
        for k, (wf, delta) in enumerate(self.len_probes):
            def length(wf=wf, delta=delta) -> Check:
                traj = geodesic_flow.integrate_winding(wf, self.cs, delta, 0.0, 1.0,
                                                       rtol=1e-10, dense_nodes=128)
                oracle = experiments.closed_form_winding_length(wf, delta)
                return [within("winding length vs closed form",
                               rel(geodesic_flow.winding_length(traj), oracle), 1e-6)]
            out.append((f"length{k}", length))
        cone = sg.make_power_warp(1.0, R=R)
        for k, delta in enumerate(self.cone_probes):
            def flat_cone(delta=delta) -> Check:
                traj = geodesic_flow.integrate_winding(cone, self.cs, delta, 0.0, 1.0,
                                                       rtol=1e-10, dense_nodes=128)
                model = np.sqrt(traj.t ** 2 + delta ** 2)
                ts = np.linspace(traj.t[0], traj.t[-1], 401)
                dense = max(rel(traj.r_of_t(t), math.sqrt(t * t + delta * delta))
                            for t in ts)
                return [within("cone samples vs sqrt(t^2+d^2)",
                               float(np.max(np.abs(traj.r / model - 1.0))), 1e-8),
                        within("cone r_of_t vs sqrt(t^2+d^2)", dense, 1e-8)]
            out.append((f"cone{k}", flat_cone))
        return out


class Full(Workload):
    """Criterion-6 bounds cases on the full phase-space path.

    Classes are mixed 3:5:2 (round sphere : perturbed circle : perturbed
    sphere).  Their op times are ordered sphere < perturbed circle <
    perturbed sphere, so p50 falls inside the perturbed-circle block
    (30%-80%) and p90 in the middle of the perturbed-sphere block.  The
    perturbation amplitudes are fixed mid-range values of the bounds
    campaign: the amplitude sets the step count of every op of its class."""

    name = "full"
    MIX = (("sphere", (6, 5)), ("pcircle", (10, 5)), ("psphere", (5, 4)))

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = np.random.default_rng([seed, 2])
        sections = {
            "sphere": sg.sphere_section(domain_radius=R),
            "pcircle": sg.circle_section(TWO_PI, (0.06, default_circle_shape), R),
            "psphere": sg.sphere_section((0.05, default_sphere_shape), domain_radius=R),
        }
        cases = []
        for kind, shape in self.MIX:
            params = grid_design(rng, (1, 1) if smoke else shape, [(1.0, 2.5), (0.05, 0.3)])
            n = len(params)
            draws = zip(params, stratified(rng, n, 0.0, TWO_PI), stratified(rng, n, -0.6, 0.6))
            for (alpha, delta), phi, ang in draws:
                if kind == "pcircle":
                    y0, v0 = [phi], [1.0]
                else:
                    y0, v0 = [math.pi / 2.0, phi], [math.sin(ang), math.cos(ang)]
                cases.append((kind, sg.make_power_warp(float(alpha), R=R), sections[kind],
                              float(delta), np.array(y0), np.array(v0)))
        order = rng.permutation(len(cases))
        self.cases = [cases[i] for i in order]
        self.sphere = sections["sphere"]
        self._oracle: Dict[int, float] = {}
        self.ops = [Op(f"{c[0]}{i}", self._op(i), self._checker(i))
                    for i, c in enumerate(self.cases)]

    def _op(self, i):
        _, wf, cs, delta, y0, v0 = self.cases[i]

        def run(inp: Inputs, state: dict):
            traj = geodesic_flow.integrate_winding(inp.warp(wf), inp.section(cs), delta,
                                                   y0, v0, rtol=1e-9, dense_nodes=256)
            return traj, experiments.verify_radial_bounds(traj)
        return run

    def _checker(self, i):
        kind, wf, _, delta, _, _ = self.cases[i]

        def check(result) -> Check:
            traj, rep = result
            out = [holds("radial and eta bound margins", rep.passed),
                   within("|2H-1|", float(np.max(np.abs(traj.hamiltonian - 1.0))), 1e-6)]
            if kind == "sphere":
                if i not in self._oracle:
                    self._oracle[i] = experiments.closed_form_winding_length(wf, delta)
                out.append(within("winding length vs closed form",
                                  rel(geodesic_flow.winding_length(traj), self._oracle[i]),
                                  1e-6))
            return out
        return check

    def warm_up(self):
        traj = geodesic_flow.integrate_winding(
            sg.make_power_warp(2.0, R=R), self.sphere, 0.3,
            np.array([math.pi / 2.0, 0.0]), np.array([0.0, 1.0]), rtol=1e-9,
            dense_nodes=16)
        experiments.verify_radial_bounds(traj)


def parabola_r_of_z(z: float) -> float:
    """Arc length of s = z^2 from 0 to z, in closed form."""
    return 0.5 * z * math.sqrt(1.0 + 4.0 * z * z) + 0.25 * math.asinh(2.0 * z)


def parabola_warp(r: float) -> Tuple[float, float]:
    """Exact (f, f') of the surface of revolution of s = z^2 at arc length r."""
    z = brentq(lambda w: parabola_r_of_z(w) - r, 0.0, 2.0 * r + 1.0,
               xtol=1e-16, rtol=8.9e-16)
    return z * z, 2.0 * z / math.sqrt(1.0 + 4.0 * z * z)


def write_parabola_csv(path: str, rng, nodes: int, jitter: float) -> None:
    """Nodes z = 0 plus a geometric ladder 1e-3 .. 1 whose interior nodes are
    each moved up or down, at random, by ``jitter`` of the log spacing; rows
    (z, z^2).  A fixed jitter size puts every local node pattern in every
    seed's curve, so the worst interpolation error hardly depends on the
    seed."""
    logs = np.linspace(math.log(1e-3), 0.0, nodes - 1)
    step = logs[1] - logs[0]
    logs[1:-1] += rng.choice([-jitter, jitter], nodes - 3) * step
    zs = np.concatenate([[0.0], np.exp(logs)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "s"])
        for z in zs:
            writer.writerow([repr(float(z)), repr(float(z * z))])


class Profile(Workload):
    """Parabola profile CSV -> load_profile_csv -> one write_warp_table, then
    one op per radius: f, f', log f, (log f)' and F(f(r)).

    The seed moves the curve's nodes; the radii are a fixed geometric ladder.
    A query costs about ten times more when a node of the interpolant lies
    between the warp's grid point and the answer, so random radii would make
    the op-time percentiles depend on the draw.  For the same reason the
    nodes move by only 0.2% of their log spacing: at 2% the seed turned a
    few ordinary radii into slow ones and back, and p90, which sits among
    the slow ones, moved with it.  The PCHIP interpolant only resolves the
    curve from the second nonzero node up (below it the error reaches 0.35),
    so radii and checked table rows start there."""

    name = "profile"
    NODES, JITTER = 240, 0.002

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.csv_path = os.path.join(workdir, "parabola.csv")
        self.table_path = os.path.join(workdir, "warp_table.csv")
        write_parabola_csv(self.csv_path, rng, self.NODES, self.JITTER)
        # the highest the seed can move the second nonzero node: the radii
        # stay the same for every seed
        step = -math.log(1e-3) / (self.NODES - 2)
        self.r_lo = parabola_r_of_z(1e-3 * math.exp((1.0 + self.JITTER) * step))
        self.R = parabola_r_of_z(1.0)
        n = 4 if smoke else 100
        self.radii = [float(r) for r in np.geomspace(self.r_lo, 0.999 * self.R, n)]
        self._oracle = {r: parabola_warp(r) for r in self.radii}
        self.warm_path = os.path.join(workdir, "warm.csv")
        write_parabola_csv(self.warm_path, rng, 16, 0.0)
        self.ops = ([Op("load", self._load, self._check_load, latency=False),
                     Op("table", self._table, self._check_table, latency=False)]
                    + [Op(f"r{i}", self._op(r), self._checker(r))
                       for i, r in enumerate(self.radii)])

    def _load(self, inp: Inputs, state: dict):
        wf = profile_io.load_profile_csv(self.csv_path)
        state["wf"] = inp.warp(wf)
        return wf

    def _check_load(self, wf) -> Check:
        return [within("domain radius vs parabola arc length",
                       rel(wf.domain_radius, self.R), 1e-4)]

    def _table(self, inp: Inputs, state: dict):
        profile_io.write_warp_table(state["wf"], self.table_path, n=64)
        return self.table_path

    def _check_table(self, path) -> Check:
        with open(path, newline="") as fh:
            rows = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
        out = [holds("64 table rows", len(rows) == 64)]
        f_err = fp_err = 0.0
        for r, f, fp in rows:
            if self.r_lo <= r <= 0.999 * self.R:
                fe, fpe = parabola_warp(r)
                f_err, fp_err = max(f_err, rel(f, fe)), max(fp_err, rel(fp, fpe))
        return out + [within("table f vs exact parabola warp", f_err, 1e-3),
                      within("table f' vs exact parabola warp", fp_err, 5e-2)]

    def _op(self, r: float):
        def run(inp: Inputs, state: dict):
            wf = state["wf"]
            f = wf.f(r)
            return f, wf.f_prime(r), wf.log_f(r), wf.d_log_f(r), wf.F(f)
        return run

    def _checker(self, r: float):
        def check(result) -> Check:
            f, fp, lf, dlf, back = result
            fe, fpe = self._oracle[r]
            return [within("f vs exact parabola warp", rel(f, fe), 1e-3),
                    within("f' vs exact parabola warp", rel(fp, fpe), 5e-2),
                    within("log f vs exact", abs(lf - math.log(fe)), 1e-3),
                    within("(log f)' vs exact", rel(dlf, fpe / fe), 5e-2),
                    within("F(f(r)) = r", abs(back - r), 1e-10)]
        return check

    def warm_up(self):
        wf = profile_io.load_profile_csv(self.warm_path, grid=64)
        wf.f(0.5 * wf.domain_radius)


class Cli(Workload):
    """In-process ``cli.main`` runs: five traces, three sweeps, four cf runs
    and reduced-count verify runs of the default and perturbed suites.
    Sections and warps are built inside the CLI, so only the module-boundary
    layers are traced here."""

    name = "cli"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        sphere_y0 = f"{math.pi / 2.0!r},{u(0.0, TWO_PI)!r}"
        ang = u(-0.6, 0.6)
        sphere_v0 = f"{math.sin(ang)!r},{math.cos(ang)!r}"
        # narrow ranges: the trace times sit close together, and the ops on
        # either side of p50 must not change places with the seed
        pc = u(0.05, 0.07)
        traces = [
            ("trace_reduced", "power:2", [], u(0.18, 0.22), ["--svg"], "circle"),
            ("trace_expinv", "expinv:1", ["--R", "0.5"], u(0.13, 0.15), [], "circle"),
            ("trace_sphere", "power:2", ["--section", "sphere", f"--y0={sphere_y0}",
                                         f"--v0={sphere_v0}"], u(0.18, 0.22), [], "sphere"),
            ("trace_pcircle", "power:2", ["--section", f"circle:{TWO_PI!r}:pert={pc!r}"],
             u(0.18, 0.22), [], "perturbed"),
            ("trace_psphere", "power:2", ["--section", "sphere:pert=0.05",
                                          f"--y0={sphere_y0}", f"--v0={sphere_v0}"],
             u(0.18, 0.22), [], "perturbed"),
        ]
        sweeps = [("sweep_power2", ["--warp", "power:2"], CUSP_CF, 1e-6, 2e-2),
                  ("sweep_power1", ["--warp", "power:1"], math.pi, 1e-8, 1e-3),
                  ("sweep_expinv", ["--warp", "expinv:1", "--R", "0.5"], 2.0, 1e-6, 1e-2)]
        cfs = [("cf_power2", "power:2", CUSP_CF), ("cf_expinv", "expinv:1", 2.0),
               ("cf_logpow", "logpow:1.5", 2.0)]
        # the two verify runs are the slowest ops, a seventh of the op
        # executions, so p90 over them falls inside the default verify's
        # block, above the seeded perturbed-sphere trace; verify keeps the
        # CLI's own case seed, so its inputs are the same for every seed
        verifies = [("verify", ["verify", "--bounds-cases", "12", "--compare-cases", "8"]),
                    ("verify_perturbed", ["verify", "--suite", "perturbed",
                                          "--bounds-cases", "3", "--compare-cases", "2"])]
        if smoke:
            traces, cfs = traces[:1], cfs[:1]
            sweeps = [("sweep_power2", ["--warp", "power:2", "--deltas",
                                        "0.3,0.1,0.03,0.01"], CUSP_CF, 1e-6, 1.0)]
            verifies = [("verify", ["verify", "--bounds-cases", "1", "--compare-cases", "1"])]
        self.ops = []
        for label, warp, extra, delta, flags, kind in traces:
            argv = (["trace", "--warp", warp, "--delta", repr(delta)] + extra + flags
                    + ["--outdir", os.path.join(workdir, label)])
            wf = sg.parse_warp_spec(warp, R=0.5 if "--R" in extra else None)
            self.ops.append(Op(label, self._runner(argv),
                               self._trace_checker(label, wf, delta, kind, bool(flags))))
        for label, args, cf, cf_tol, err_tol in sweeps:
            argv = ["sweep"] + args + ["--outdir", os.path.join(workdir, label)]
            self.ops.append(Op(label, self._runner(argv),
                               self._sweep_checker(label, cf, cf_tol, err_tol)))
        for label, warp, cf in cfs:
            self.ops.append(Op(label, self._runner(["cf", "--warp", warp]),
                               self._cf_checker(cf)))
        self.ops.append(Op("cf_osc", self._runner(["cf", "--warp", "osc:0.5:9"]),
                           lambda res: [holds("osc:0.5:9 refused with exit 2",
                                              res[0] == cli.EXIT_INVALID)]))
        for label, argv in verifies:
            self.ops.append(Op(label, self._runner(argv), self._verify_check))
        self._oracle: Dict[str, float] = {}

    @staticmethod
    def _runner(argv):
        def run(inp: Inputs, state: dict):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects argv this way
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        return run

    def _trace_checker(self, label, wf, delta, kind, svg):
        outdir = os.path.join(self.workdir, label)

        def check(res) -> Check:
            if res[0] != 0:
                return [holds(f"exit code {res[0]} (want 0)", False)]
            with open(os.path.join(outdir, "trace.json")) as fh:
                meta = json.load(fh)
            out = [holds("exit 0", True),
                   within("|2H-1|", meta["max_shell_residual"], 1e-6)]
            if kind == "perturbed":
                # radial bounds (1 - C d)|t| <= r <= |t| + d from the CSV samples
                c = meta["c_bound"]
                big_c = c * math.exp(c * R)
                data = np.loadtxt(os.path.join(outdir, "trace.csv"), delimiter=",",
                                  skiprows=1, usecols=(0, 1))
                t, r = np.abs(data[:, 0]), data[:, 1]
                worst = max(float(np.max((1.0 - big_c * delta) * t - r)),
                            float(np.max(r - t - delta)))
                out.append(holds("radial bounds on trace.csv", worst <= 1e-8))
            else:
                if label not in self._oracle:
                    self._oracle[label] = experiments.closed_form_winding_length(wf, delta)
                out.append(within("winding length vs closed form",
                                  rel(meta["winding_length"], self._oracle[label]), 1e-6))
            if svg:
                for name in ("trace_r.svg", "trace_polar.svg"):
                    with open(os.path.join(outdir, name)) as fh:
                        out.append(holds(f"{name} is an svg", "</svg>" in fh.read()))
            return out
        return check

    def _sweep_checker(self, label, cf, cf_tol, err_tol):
        path = os.path.join(self.workdir, label, "sweep.json")

        def check(res) -> Check:
            if res[0] != 0:
                return [holds(f"exit code {res[0]} (want 0)", False)]
            with open(path) as fh:
                sweep = json.load(fh)
            return [holds("sweep converged", sweep["converged"]),
                    within("reference C_f vs closed form",
                           abs(sweep["reference_Cf"] - cf), cf_tol),
                    holds("f'(d) l(d) near C_f at the smallest delta",
                          rel(sweep["normalized"][-1], cf) < err_tol)]
        return check

    @staticmethod
    def _cf_checker(cf):
        def check(res) -> Check:
            if res[0] != 0:
                return [holds(f"exit code {res[0]} (want 0)", False)]
            value = float(res[1].split("=", 1)[1].split()[0])
            return [within("C_f vs closed form", abs(value - cf), 1e-9)]
        return check

    @staticmethod
    def _verify_check(res) -> Check:
        lines = [ln for ln in res[1].splitlines() if ln.startswith("[")]
        return [holds("verify exit 0", res[0] == 0),
                holds("verify: every campaign PASS",
                      len(lines) == 3 and all(ln.startswith("[PASS]") for ln in lines))]

    def warm_up(self):
        warm = os.path.join(self.workdir, "warm")
        self._runner(["cf", "--warp", "power:2"])(Inputs(), {})
        self._runner(["trace", "--warp", "power:2", "--delta", "0.3", "--svg",
                      "--outdir", warm])(Inputs(), {})


WORKLOADS = {w.name: w for w in (Reduced, Full, Profile, Cli)}
