"""Command-line interface.

Subcommands: cf, trace, sweep, verify, profile2warp.
Exit codes: 0 ok, 2 invalid or ill-posed input, 3 integration failure,
4 not converged.  A flat JSON config file may supply any option; explicit
flags override the file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from . import experiments, geodesic_flow, profile_io, svgplot, warp_profiles
from .cross_sections import parse_section_spec, sphere_section
from .errors import IntegrationError, NonOscillationError, QuadratureError
from .warp_profiles import parse_warp_spec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INTEGRATION = 3
EXIT_NOT_CONVERGED = 4


@dataclass
class RunConfig:
    """Flat, serializable run description embedded into every output."""

    warp: str = "power:1"
    section: str = "circle:6.283185307179586"
    R: float = 1.5
    delta: float = 0.3
    deltas: Optional[List[float]] = None
    y0: List[float] = field(default_factory=lambda: [0.0])
    v0: List[float] = field(default_factory=lambda: [1.0])
    rtol: float = 1e-10
    atol: float = 1e-12
    tol: float = 1e-9
    outdir: str = "out"
    svg: bool = False
    seed: int = 20240817

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls()
        for k, v in data.items():
            if not hasattr(cfg, k):
                raise ValueError(f"unknown config key {k!r}")
            setattr(cfg, k, v)
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def normalized_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _parse_floats(text: str) -> List[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    for key in vars(cfg):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def _build(cfg: RunConfig):
    wf = parse_warp_spec(cfg.warp, R=cfg.R)
    cs = parse_section_spec(cfg.section, domain_radius=wf.domain_radius)
    return wf, cs


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args) -> int:
    cfg = _merge_config(args)
    wf = parse_warp_spec(cfg.warp, R=None if cfg.R == RunConfig.R else cfg.R)
    value, err = warp_profiles.compute_Cf_detailed(wf, tol=cfg.tol)
    print(f"C_f({wf.label}) = {value:.12g}  (quadrature error estimate {err:.3g})")
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = _merge_config(args)
    wf, cs = _build(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    traj = geodesic_flow.integrate_winding(
        wf, cs, cfg.delta, np.asarray(cfg.y0), np.asarray(cfg.v0),
        rtol=cfg.rtol, atol=cfg.atol,
    )
    csv_path = os.path.join(cfg.outdir, "trace.csv")
    traj.to_csv(csv_path)
    length = float(traj.tau[-1] - traj.tau[0])
    meta = {
        "config": cfg.to_dict(),
        "classification": traj.classification,
        "winding_length": length,
        "winding_count": length / (2.0 * math.pi),
        "exit_events": {k: v for k, v in traj.exit_events.items()},
        "max_shell_residual": float(np.max(np.abs(traj.hamiltonian - 1.0))),
        **{k: v for k, v in traj.meta.items()},
    }
    with open(os.path.join(cfg.outdir, "trace.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
    if cfg.svg:
        svgplot.svg_line_plot(
            os.path.join(cfg.outdir, "trace_r.svg"),
            [(traj.t, traj.r, "r(t)")],
            title=f"{wf.label} delta={cfg.delta:g}", xlabel="t", ylabel="r",
        )
        ang = traj.tau / getattr(cs, "scale", 1.0)
        svgplot.svg_line_plot(
            os.path.join(cfg.outdir, "trace_polar.svg"),
            [(traj.r * np.cos(ang), traj.r * np.sin(ang), "path")],
            title=f"{wf.label} delta={cfg.delta:g} (polar)",
            xlabel="x", ylabel="y", equal_aspect=True,
        )
    print(f"wrote {csv_path} ({len(traj.t)} samples, {traj.classification})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    wf, cs = _build(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    deltas = cfg.deltas if cfg.deltas else None
    result = experiments.delta_sweep(
        wf, cs, deltas, np.asarray(cfg.y0), np.asarray(cfg.v0),
        rtol=cfg.rtol, atol=cfg.atol,
    )
    csv_path = os.path.join(cfg.outdir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("delta,length,normalized,error_rel\n")
        for i in range(len(result.deltas)):
            fh.write(f"{result.deltas[i]:.12g},{result.lengths[i]:.12g},"
                     f"{result.normalized[i]:.12g},{result.errors_rel[i]:.12g}\n")
    payload = {
        "config": cfg.to_dict(),
        "deltas": list(result.deltas),
        "lengths": list(result.lengths),
        "normalized": list(result.normalized),
        "errors_rel": list(result.errors_rel),
        "extrapolated_limit": result.extrapolated_limit,
        "reference_Cf": result.reference_Cf,
        "converged": result.converged,
        "note": result.note,
    }
    with open(os.path.join(cfg.outdir, "sweep.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
    series = [(result.deltas, result.normalized, "f'(d)*length")]
    if math.isfinite(result.reference_Cf):
        ref = np.full(len(result.deltas), result.reference_Cf)
        series.append((result.deltas, ref, "C_f"))
    svgplot.svg_line_plot(
        os.path.join(cfg.outdir, "sweep.svg"), series,
        title=f"{wf.label}: normalized winding length", xlabel="delta",
        ylabel="f'(delta) * length", logx=True,
    )
    print(f"sweep {wf.label}: extrapolated {result.extrapolated_limit:.6g}, "
          f"reference {result.reference_Cf:.6g}, converged={result.converged}")
    if not result.converged:
        print(f"NOT CONVERGED: {result.note}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    suite = args.suite or "default"
    slack = args.slack if args.slack is not None else 1e-8
    n_bounds = args.bounds_cases if args.bounds_cases is not None else 25
    n_compare = args.compare_cases if args.compare_cases is not None else 15
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures += 1

    rng_note = f"seed={cfg.seed}"
    bounds = []
    rng = np.random.default_rng(cfg.seed)
    for _ in range(n_bounds):
        alpha = float(rng.uniform(1.0, 2.5))
        delta = float(rng.uniform(0.05, 0.3))
        if suite == "perturbed":
            from .cross_sections import circle_section, default_circle_shape
            cs = circle_section(2.0 * math.pi, (0.1, default_circle_shape), 1.5)
        else:
            from .cross_sections import circle_section
            cs = circle_section(2.0 * math.pi, domain_radius=1.5)
        wf = warp_profiles.make_power_warp(alpha, R=1.5)
        traj = geodesic_flow.integrate_winding(wf, cs, delta, 0.0, 1.0,
                                               rtol=cfg.rtol, dense_nodes=256)
        rep = experiments.verify_radial_bounds(traj, slack=slack)
        bounds.append(rep)
        if suite == "perturbed":
            c = cs.c_bound
            worst = max(abs(geodesic_flow.log_eta_rate(traj, i))
                        - c * abs(math.sin(traj.theta[i])) for i in range(len(traj.t)))
            if worst > 1e-6:
                bounds.append(experiments.BoundsReport(False, 0, 0, worst, None,
                                                       "log-eta rate bound"))
    report(f"radial bounds x{n_bounds} ({suite}, {rng_note})",
           all(b.passed for b in bounds))

    comps = experiments.run_comparison_campaign(n_compare, seed=cfg.seed + 1)
    report(f"comparison principle x{n_compare}", all(c.passed for c in comps))

    wf2 = warp_profiles.make_power_warp(2.0, R=1.5)
    if suite == "perturbed":
        cs_lim = sphere_section((0.05, None), domain_radius=1.5)
    else:
        cs_lim = sphere_section(domain_radius=1.5)
    lim = experiments.limit_geodesic_test(
        wf2, cs_lim, [0.1, 0.03, 0.01],
        np.array([math.pi / 2.0, 0.0]), np.array([math.sin(0.5), math.cos(0.5)]),
        tau_window=(-1.5, 1.5),
    )
    report("limit geodesic (sphere, f=r^2)", lim.passed,
           f"sup distances {np.array2string(lim.sup_distances, precision=3)}")

    return EXIT_OK if failures == 0 else 1


def cmd_profile2warp(args) -> int:
    cfg = _merge_config(args)
    wf = profile_io.load_profile_csv(args.profile)
    out = args.out or os.path.join(cfg.outdir, "warp_table.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    profile_io.write_warp_table(wf, out)
    print(f"{wf.label}: kind={wf.kind.value}, R={wf.domain_radius:.6g}, "
          f"table written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--warp", help="warp spec, e.g. power:2.0, expinv:1, sqrt")
    p.add_argument("--section", help="section spec, e.g. circle:6.2832, sphere")
    p.add_argument("--R", type=float, help="domain radius")
    p.add_argument("--delta", type=float, help="lowest-approach distance")
    p.add_argument("--deltas", type=_parse_floats, help="comma-separated ladder")
    p.add_argument("--y0", type=_parse_floats, help="start point on Y")
    p.add_argument("--v0", type=_parse_floats, help="start direction on Y")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--tol", type=float, help="quadrature tolerance")
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singular-geodesics",
        description="Geodesics near conical and cuspidal singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="compute the universal length constant")
    _add_common(p)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("trace", help="integrate one geodesic and export it")
    _add_common(p)
    p.add_argument("--svg", action="store_true", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="delta sweep of normalized winding lengths")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run verification campaigns")
    _add_common(p)
    p.add_argument("--suite", choices=["default", "perturbed"])
    p.add_argument("--slack", type=float, help="bound slack (negative to force failure)")
    p.add_argument("--bounds-cases", type=int, dest="bounds_cases")
    p.add_argument("--compare-cases", type=int, dest="compare_cases")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profile2warp", help="convert a profile CSV to a warp table")
    _add_common(p)
    p.add_argument("--profile", required=True, help="two-column CSV (z, s)")
    p.add_argument("--out", help="output table path")
    p.set_defaults(func=cmd_profile2warp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonOscillationError, QuadratureError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
