"""Command-line interface.

Subcommands: cf, trace, sweep, verify, profile2warp.
Exit codes: 0 ok, 2 invalid or ill-posed input, 3 integration failure,
4 not converged.  A flat JSON config file may supply any option; explicit
flags override the file.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import List, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import experiments, geodesic_flow, profile_io, svgplot, warp_profiles
from .cross_sections import circle_section, parse_section_spec, sphere_section
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
    R: Optional[float] = None  # None: the warp family's own radius
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
        """The config of a JSON object; each value must have its field's type
        (an integer counts as a float)."""
        if not isinstance(data, dict):
            raise ValueError("a config file must hold one JSON object")
        kinds = get_type_hints(cls)
        cfg = cls()
        for k, v in data.items():
            if k not in kinds:
                raise ValueError(f"unknown config key {k!r}")
            setattr(cfg, k, _config_value(k, v, kinds[k]))
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def _config_value(key: str, value, kind):
    """``value`` converted to the field type ``kind``, or a ValueError."""
    if type(None) in get_args(kind):  # Optional[...]
        if value is None:
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is list:
        if isinstance(value, list):
            return [_config_value(key, v, get_args(kind)[0]) for v in value]
    elif isinstance(value, bool) == (kind is bool) and isinstance(
            value, (int, float) if kind is float else kind):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ValueError(f"config key {key!r}: {value!r} is not a {kind.__name__}")


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
    if os.path.isfile(cfg.outdir):  # refused before the run, which can take seconds
        raise NotADirectoryError(f"--outdir {cfg.outdir!r} is a file")
    wf = parse_warp_spec(cfg.warp, R=cfg.R)
    return wf, parse_section_spec(cfg.section, domain_radius=wf.domain_radius)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args) -> int:
    cfg = _merge_config(args)
    wf = parse_warp_spec(cfg.warp, R=cfg.R)
    value, err = warp_profiles.compute_Cf_detailed(wf, tol=cfg.tol)
    print(f"C_f({wf.label}) = {value:.12g}  (quadrature error estimate {err:.3g})")
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = _merge_config(args)
    wf, cs = _build(cfg)
    traj = geodesic_flow.integrate_winding(
        wf, cs, cfg.delta, np.asarray(cfg.y0), np.asarray(cfg.v0),
        rtol=cfg.rtol, atol=cfg.atol,
    )
    os.makedirs(cfg.outdir, exist_ok=True)
    csv_path = os.path.join(cfg.outdir, "trace.csv")
    traj.to_csv(csv_path)
    length = geodesic_flow.winding_length(traj)
    # a length that overflows double range (f'(delta) underflows) is null;
    # f'(delta) times the length stays finite
    finite = math.isfinite(length)
    meta = {
        "config": cfg.to_dict(),
        "classification": traj.classification,
        "winding_length": length if finite else None,
        "winding_count": length / (2.0 * math.pi) if finite else None,
        "normalized_winding_length": geodesic_flow.normalized_winding_length(traj),
        "exit_events": traj.exit_events,
        "max_shell_residual": traj.meta["shell_drift"],
        **traj.meta,
    }
    with open(os.path.join(cfg.outdir, "trace.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str, allow_nan=False)
    if cfg.svg:
        svgplot.svg_line_plot(
            os.path.join(cfg.outdir, "trace_r.svg"),
            [(traj.t, traj.r, "r(t)")],
            title=f"{wf.label} delta={cfg.delta:g}", xlabel="t", ylabel="r",
        )
        if np.all(np.isfinite(traj.tau)):
            ang = traj.tau / getattr(cs, "scale", 1.0)
            svgplot.svg_line_plot(
                os.path.join(cfg.outdir, "trace_polar.svg"),
                [(traj.r * np.cos(ang), traj.r * np.sin(ang), "path")],
                title=f"{wf.label} delta={cfg.delta:g} (polar)",
                xlabel="x", ylabel="y", equal_aspect=True,
            )
        else:
            print("skipped trace_polar.svg: the winding angle tau is not finite")
    print(f"wrote {csv_path} ({len(traj.t)} samples, {traj.classification})")
    return EXIT_OK


def _finite_or_null(value):
    """A float or an array's list of floats, each None where not finite."""
    if np.ndim(value):
        return [_finite_or_null(v) for v in value.tolist()]
    return value if math.isfinite(value) else None


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    wf, cs = _build(cfg)
    result = experiments.delta_sweep(
        wf, cs, cfg.deltas, np.asarray(cfg.y0), np.asarray(cfg.v0),
        rtol=cfg.rtol, atol=cfg.atol,
    )
    os.makedirs(cfg.outdir, exist_ok=True)
    csv_path = os.path.join(cfg.outdir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("delta,length,normalized,error_rel\n")
        for i in range(len(result.deltas)):
            fh.write(f"{result.deltas[i]:.12g},{result.lengths[i]:.12g},"
                     f"{result.normalized[i]:.12g},{result.errors_rel[i]:.12g}\n")
    # a value that is not finite (no reference constant, a length that
    # overflows) is null, so the file stays strict JSON
    payload = {
        "config": cfg.to_dict(),
        "deltas": _finite_or_null(result.deltas),
        "lengths": _finite_or_null(result.lengths),
        "normalized": _finite_or_null(result.normalized),
        "errors_rel": _finite_or_null(result.errors_rel),
        "extrapolated_limit": _finite_or_null(result.extrapolated_limit),
        "reference_Cf": _finite_or_null(result.reference_Cf),
        "converged": result.converged,
        "note": result.note,
    }
    with open(os.path.join(cfg.outdir, "sweep.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str, allow_nan=False)
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


VERIFY_SECTIONS = {"default": ("flat_circle",), "perturbed": ("perturbed_circle",)}


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    if args.bounds_cases < 1 or args.compare_cases < 1:
        raise ValueError("--bounds-cases and --compare-cases must be at least 1")
    if not math.isfinite(args.slack):
        raise ValueError(f"--slack={args.slack!r} must be finite")
    passed = []

    def report(name: str, ok: bool, detail: str):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        passed.append(ok)

    bounds = experiments.run_bounds_campaign(
        args.bounds_cases, seed=cfg.seed, rtol=cfg.rtol,
        sections=VERIFY_SECTIONS[args.suite], slack=args.slack)
    worst = max(max(b.worst_lower, b.worst_upper, b.worst_eta, b.worst_eta_rate)
                for b in bounds)
    report(f"radial bounds x{len(bounds)} ({args.suite}, seed={cfg.seed})",
           all(b.passed for b in bounds), f"{sum(b.passed for b in bounds)}/{len(bounds)} "
           f"passed, worst excess {worst:.3g} (slack {args.slack:g}), worst relative "
           f"slack {min(b.relative_slack for b in bounds):.3g}")

    comps = experiments.run_comparison_campaign(args.compare_cases, seed=cfg.seed + 1)
    report(f"comparison principle x{len(comps)}", all(c.passed for c in comps),
           f"{sum(c.passed for c in comps)}/{len(comps)} passed, min radial gap "
           f"{min(c.min_gap for c in comps):.3g}")

    # both on perturbed sections: an unperturbed section's link path is
    # decoded as the very geodesic the test compares it with
    if args.suite == "perturbed":
        name, cs_lim = "perturbed sphere", sphere_section((0.05, None), domain_radius=1.5)
        y0, v0 = [math.pi / 2.0, 0.0], [math.sin(0.5), math.cos(0.5)]
    else:
        name, y0, v0 = "perturbed circle", [0.0], [1.0]
        cs_lim = circle_section(2.0 * math.pi, (0.05, None), 1.5)
    lim = experiments.limit_geodesic_test(
        warp_profiles.make_power_warp(2.0, R=1.5), cs_lim, [0.1, 0.03, 0.01],
        np.array(y0), np.array(v0), tau_window=(-1.5, 1.5),
    )
    report(f"limit geodesic ({name}, f=r^2)", lim.passed,
           f"sup distances [{' '.join(f'{d:.3e}' for d in lim.sup_distances)}]")

    return EXIT_OK if all(passed) else 1


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


_FLAGS = {
    "warp": dict(help="warp spec, e.g. power:2.0, expinv:1, sqrt"),
    "section": dict(help="section spec, e.g. circle:6.2832, sphere"),
    "R": dict(type=float, help="domain radius (default: the warp family's own)"),
    "delta": dict(type=float, help="lowest-approach distance"),
    "deltas": dict(type=_parse_floats, help="comma-separated ladder"),
    "y0": dict(type=_parse_floats, help="start point on Y"),
    "v0": dict(type=_parse_floats, help="start direction on Y"),
    "rtol": dict(type=float),
    "atol": dict(type=float),
    "tol": dict(type=float, help="quadrature tolerance"),
    "outdir": dict(),
    "seed": dict(type=int),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singular-geodesics",
        description="Geodesics near conical and cuspidal singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags):
        """A subcommand with ``--config`` and the named common flags: only
        those it reads, spelled out in full (so ``--delta`` is not taken for
        ``--deltas``)."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("cf", cmd_cf, "compute the universal length constant", "warp", "R", "tol")
    p = command("trace", cmd_trace, "integrate one geodesic and export it", "warp",
                "section", "R", "delta", "y0", "v0", "rtol", "atol", "outdir")
    p.add_argument("--svg", action="store_true", default=None)
    command("sweep", cmd_sweep, "delta sweep of normalized winding lengths", "warp",
            "section", "R", "deltas", "y0", "v0", "rtol", "atol", "outdir")
    p = command("verify", cmd_verify, "run verification campaigns", "rtol", "seed")
    p.add_argument("--suite", choices=list(VERIFY_SECTIONS), default="default")
    p.add_argument("--slack", type=float, default=1e-8,
                   help="bound slack (negative to force failure)")
    p.add_argument("--bounds-cases", type=int, default=25)
    p.add_argument("--compare-cases", type=int, default=15)
    p = command("profile2warp", cmd_profile2warp, "convert a profile CSV to a warp table",
                "outdir")
    p.add_argument("--profile", required=True, help="two-column CSV (z, s)")
    p.add_argument("--out", help="output table path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` of a process and kept:
    each parse fills a new namespace, and no flag has a mutable default."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NonOscillationError, QuadratureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
