"""Per-layer metrics of a traced run, computed from its spans.

Every metric is computed per traced pass.  Times are reported as the median
over traced passes; counts must repeat exactly from pass to pass, and a count
that does not is reported in the notes.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from tracer import Span, self_times
from workloads import CASE_SPANS

# name -> unit, in the order they are printed
UNITS = {
    "startup.import_s": "s",
    "geodesic_flow.integrate_s": "s",
    "geodesic_flow.assemble_s": "s",
    "geodesic_flow.self_s": "s",
    "geodesic_flow.samples": "count",
    "geodesic_flow.dense_queries": "count",
    "geodesic_flow.dense_query_s": "s",
    "geodesic_flow.dense_us_per_query": "us",
    "geodesic_flow.stepper_s": "s",
    "geodesic_flow.rhs_evals": "count",
    "geodesic_flow.steps": "count",
    "geodesic_flow.rhs_per_step": "ratio",
    "geodesic_flow.legs": "count",
    "geodesic_flow.us_per_rhs": "us",
    "geodesic_flow.export_s": "s",
    "cross_sections.calls": "count",
    "cross_sections.self_s": "s",
    "cross_sections.us_per_call": "us",
    "cross_sections.base_geodesic_s": "s",
    "warp_profiles.calls": "count",
    "warp_profiles.self_s": "s",
    "warp_profiles.us_per_call": "us",
    "warp_profiles.compute_Cf_s": "s",
    "profile_io.load_s": "s",
    "profile_io.table_s": "s",
    "experiments.self_s": "s",
    "experiments.cases": "count",
    "experiments.sweep_parallelism": "ratio",
    "svgplot.self_s": "s",
    "cli.self_s": "s",
    "tracing.op_self_share": "ratio",
    "tracing.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: List[Span], selfs: Dict[int, float]) -> Dict[str, float]:
    """Metrics of the spans of one pass (all ops of the pass)."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    layer_self: Dict[str, float] = defaultdict(float)
    layer_calls: Dict[str, int] = defaultdict(int)
    leaf_count: Dict[str, int] = defaultdict(int)
    leaf_time: Dict[str, float] = defaultdict(float)
    for sp in spans:
        by_name[sp.name].append(sp)
        layer_self[sp.layer] += selfs[sp.sid]
        if sp.name != "bench.op":
            layer_calls[sp.layer] += 1
        for name, (count, total) in sp.leaves.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] += total
            layer_calls[layer] += count
            leaf_count[name] += count
            leaf_time[name] += total

    def total(name):
        return sum(sp.duration for sp in by_name[name])

    integrate = by_name["geodesic_flow.integrate"]
    stepper = by_name["geodesic_flow.solve_ivp"]
    stepper_in = defaultdict(float)
    for sp in stepper:
        if sp.parent is not None:
            stepper_in[sp.parent.sid] += sp.duration
    rhs = sum(sp.attrs["nfev"] for sp in stepper)
    steps = sum(sp.attrs["steps"] for sp in stepper)
    dense_n = sum(c for n, c in leaf_count.items() if n.startswith("geodesic_flow.dense."))
    dense_s = sum(t for n, t in leaf_time.items() if n.startswith("geodesic_flow.dense."))
    sweeps = by_name["experiments.delta_sweep"]
    sweep_ids = {sp.sid for sp in sweeps}
    in_sweeps = sum(sp.duration for sp in integrate
                    if _ancestor_in(sp, sweep_ids))
    ops = by_name["bench.op"]
    m = {
        "geodesic_flow.integrate_s": total("geodesic_flow.integrate"),
        "geodesic_flow.assemble_s": sum(sp.duration - stepper_in[sp.sid]
                                        for sp in integrate),
        "geodesic_flow.self_s": layer_self["geodesic_flow"],
        "geodesic_flow.samples": sum(sp.attrs["samples"] for sp in integrate),
        "geodesic_flow.dense_queries": dense_n,
        "geodesic_flow.dense_query_s": dense_s,
        "geodesic_flow.dense_us_per_query": 1e6 * _ratio(dense_s, dense_n),
        "geodesic_flow.stepper_s": total("geodesic_flow.solve_ivp"),
        "geodesic_flow.rhs_evals": rhs,
        "geodesic_flow.steps": steps,
        "geodesic_flow.rhs_per_step": _ratio(rhs, steps),
        "geodesic_flow.legs": len(stepper),
        "geodesic_flow.us_per_rhs": 1e6 * _ratio(total("geodesic_flow.solve_ivp"), rhs),
        "geodesic_flow.export_s": total("geodesic_flow.to_csv"),
        "cross_sections.base_geodesic_s": total("cross_sections.base_geodesic"),
        "warp_profiles.compute_Cf_s": total("warp_profiles.compute_Cf"),
        "profile_io.load_s": total("profile_io.load_profile_csv"),
        "profile_io.table_s": total("profile_io.write_warp_table"),
        "experiments.cases": sum(len(by_name[n]) for n in CASE_SPANS),
        "experiments.sweep_parallelism": _ratio(in_sweeps, total("experiments.delta_sweep")),
        "tracing.op_self_share": _ratio(layer_self["bench"], sum(sp.duration for sp in ops)),
    }
    for layer in ("cross_sections", "warp_profiles"):
        m[f"{layer}.calls"] = layer_calls[layer]
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.us_per_call"] = 1e6 * _ratio(layer_self[layer], layer_calls[layer])
    for layer in ("experiments", "svgplot", "cli"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def _ancestor_in(sp: Span, ids) -> bool:
    p = sp.parent
    while p is not None:
        if p.sid in ids:
            return True
        p = p.parent
    return False


def per_pass_metrics(spans: List[Span], records: List[dict], passes: List[int]):
    op_pass = {r["op"]: r["pass"] for r in records}
    selfs = self_times(spans)
    grouped: Dict[int, List[Span]] = defaultdict(list)
    for sp in spans:
        if sp.op is not None:
            grouped[op_pass[sp.op]].append(sp)
    return [pass_metrics(grouped[p], selfs) for p in passes]


def combine(per_pass: List[Dict[str, float]]):
    """Median of times over passes; counts from the first pass, with any
    pass-to-pass difference in a count reported in the notes."""
    metrics, notes = {}, {"traced_passes": len(per_pass)}
    for name, unit in UNITS.items():
        if name in ("startup.import_s", "tracing.overhead_s"):
            continue
        values = [m[name] for m in per_pass]
        if unit == "count":
            metrics[name] = (values[0], unit)
            if any(v != values[0] for v in values):
                notes[f"{name} differs between passes"] = values
        else:
            metrics[name] = (statistics.median(values), unit)
    return metrics, notes
