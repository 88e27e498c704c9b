"""Benchmark of singular-geodesics: seeded workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload reduced --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25      # every workload, both runs
    python3 perfbench/run.py --smoke --seed 1                 # tiny sizes, names/units/counts

Run from the repository root: the package is imported from ``src/``.  A run
repeats passes over its workload's fixed op set until ``--seconds`` are used
(at least one pass; a traced run alternates untraced and traced passes),
timing a fixed host-speed kernel before every op (hostspeed.py), then spawns
fresh interpreters to time set-up again, and prints human-readable
lines followed by one JSON result line.  It exits 1 when any op misses its
oracle and 2 when the package is missing.  Records, including the spans of a
traced run, go to ``.perfbench_out/``.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_CHILDREN = 4
perf = time.perf_counter


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package() -> float:
    """Import singular_geodesics from this checkout's src/; return seconds."""
    if not os.path.isfile(os.path.join(SRC, "singular_geodesics", "__init__.py")):
        fail(f"no package at {SRC}/singular_geodesics (run from a full checkout)")
    sys.path.insert(0, SRC)
    t0 = perf()
    import singular_geodesics
    elapsed = perf() - t0
    if not os.path.abspath(singular_geodesics.__file__).startswith(SRC + os.sep):
        fail(f"imported {singular_geodesics.__file__}, not the checkout's copy")
    return elapsed


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all order statistics
    weighted by a beta density centred on rank q.  Where op times climb
    steeply in the tail, one order statistic jumps with every op that changes
    places; the weighted mean moves little."""
    import numpy as np
    from scipy.stats import beta
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    edges = beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1.0 - q) * (n + 1))
    return float(np.diff(edges) @ x)


class Run:
    """One workload in one process: set-up, timed passes, checks."""

    def __init__(self, args, import_s: float):
        import tracer as tracer_mod
        import workloads
        self.tracer_mod, self.wl_mod = tracer_mod, workloads
        self.args = args
        self.import_s = import_s
        self.workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                           self.workdir)
        self.workload.warm_up()
        self.setup_raw_s = perf() - T0
        import hostspeed
        self.hostspeed = hostspeed
        self.setup_s = self.setup_raw_s * hostspeed.NOMINAL_S / hostspeed.settle()
        self.records = []          # one dict per op executed
        self.failures = []
        self.pass_walls = {False: [], True: []}
        self.tracer = None

    def check(self, label, fn, *arg):
        """Run an oracle check; return (ok, digits or None)."""
        try:
            items = fn(*arg)
        except Exception:  # an oracle that cannot be evaluated is a miss
            self.failures.append({"op": label, "error": traceback.format_exc()})
            return False, None
        missed = [(what, err, tol) for what, err, tol, _ in items if not err <= tol]
        if missed:
            self.failures.append({"op": label, "missed": missed})
        digits = [math.log10(tol / max(err, 1e-15))
                  for _, err, tol, counts in items if counts]
        return not missed, (min(digits) if digits else None)

    def one_pass(self, traced: bool):
        wl = self.wl_mod
        inputs = self.traced_inputs if traced else self.plain_inputs
        swaps = wl.traced_references(self.tracer) if traced else []
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
        pass_idx = len(self.pass_walls[False]) + len(self.pass_walls[True])
        state = {}
        wall = 0.0
        refs = []                  # host-speed kernel samples of this pass
        first = len(self.records)
        try:
            for mod, attr, wrapped in swaps:
                setattr(mod, attr, wrapped)
            for op in self.workload.ops:
                op_id = len(self.records)
                refs.append(self.hostspeed.sample())
                root = self.tracer.begin_op(op_id) if traced else None
                t0 = perf()
                try:
                    result, error = op.run(inputs, state), None
                except Exception:  # an op that raises counts as failed
                    result, error = None, traceback.format_exc()
                t1 = perf()
                if traced:
                    self.tracer.end_op(root)
                wall += t1 - t0
                rec = {"op": op_id, "pass": pass_idx, "label": op.label,
                       "seconds": t1 - t0, "start": t0, "end": t1,
                       "latency": op.latency, "traced": traced}
                if error is not None:
                    self.failures.append({"op": op.label, "error": error})
                    rec["ok"], rec["digits"] = False, None
                else:
                    rec["ok"], rec["digits"] = self.check(op.label, op.check, result)
                self.records.append(rec)
                del result
        finally:
            for mod, attr, original in originals:
                setattr(mod, attr, original)
        refs.append(self.hostspeed.sample())
        for rec in self.records[first:]:
            rec["ref"] = self.hostspeed.local(refs, rec["start"], rec["end"])
            rec["norm"] = rec["seconds"] * self.hostspeed.NOMINAL_S / rec["ref"]
        self.pass_walls[traced].append(wall)
        return wall

    def measure(self, trace: bool):
        """Alternate untraced and traced passes (traced runs) or run untraced
        passes until the next pass would overrun --seconds."""
        self.plain_inputs = self.wl_mod.Inputs()
        if trace:
            self.tracer = self.tracer_mod.Tracer()
            self.traced_inputs = self.wl_mod.Inputs(self.tracer)
        start = perf()
        schedule = [False, True] if trace else [False]
        i = 0
        while True:
            wall = self.one_pass(schedule[i % len(schedule)])
            i += 1
            done = i >= len(schedule)
            if done and perf() - start + wall > self.args.seconds:
                break
        self.probe_records = []
        for label, fn in self.workload.probe():
            ok, digits = self.check(label, fn)
            self.probe_records.append({"label": label, "ok": ok, "digits": digits})

    # -- metrics --------------------------------------------------------------

    def op_times(self, traced: bool, key: str = "norm"):
        """Each op's median time (s) over the passes of one kind; ``norm`` is
        the reference-normalised time (see hostspeed.py), ``seconds`` the
        measured one."""
        times = {}
        for r in self.records:
            if r["traced"] == traced:
                times.setdefault(r["label"], []).append(r[key])
        return {label: statistics.median(v) for label, v in times.items()}

    def end_to_end(self, setup_samples):
        times = self.op_times(False)
        lat = [times[op.label] * 1e3 for op in self.workload.ops if op.latency]
        raw = self.op_times(False, "seconds")
        raw_lat = [raw[op.label] * 1e3 for op in self.workload.ops if op.latency]
        digits = [r["digits"] for r in self.records + self.probe_records
                  if r.get("digits") is not None]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "wall_s": (sum(times.values()), "s"),
            "op_ms_p50": (quantile(lat, 0.5), "ms"),
            "op_ms_p90": (quantile(lat, 0.9), "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (rss, "MB"),
            # 5th percentile, not the minimum: on full the minimum is one
            # op's Hamiltonian drift and spread 18% over ten seeds
            "oracle_digits": (quantile(digits, 0.05), "digits"),
        }, {"op_samples": len(lat), "passes": len(self.pass_walls[False]),
            "setup_samples": setup_samples,
            "measured (not normalised) wall_s, op_ms_p50, op_ms_p90": [
                sum(raw.values()), quantile(raw_lat, 0.5), quantile(raw_lat, 0.9)]}

    def per_layer(self):
        import layers
        traced_passes = sorted({r["pass"] for r in self.records if r["traced"]})
        per_pass = layers.per_pass_metrics(self.tracer.spans, self.records,
                                           traced_passes)
        metrics, notes = layers.combine(per_pass)
        metrics["startup.import_s"] = (self.import_s, "s")
        overhead = (sum(self.op_times(True).values())
                    - sum(self.op_times(False).values()))
        metrics["tracing.overhead_s"] = (overhead, "s")
        return {name: metrics[name] for name in layers.UNITS}, notes


def setup_child_samples(args, n: int):
    """Set-up time of ``n`` fresh interpreters, one after another."""
    samples = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke-size")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def run_workload(args) -> int:
    import_s = import_package()
    sys.path.insert(0, HERE)
    run = Run(args, import_s)
    if args.setup_only:
        shutil.rmtree(run.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": run.setup_s, "setup_raw_s": run.setup_raw_s,
                          "import_s": import_s}))
        return 0
    try:
        run.measure(trace=bool(args.trace))
        notes = {}
        if args.trace:
            metrics, notes = run.per_layer()
        else:
            children = 1 if args.smoke else SETUP_CHILDREN
            samples = [run.setup_s] + setup_child_samples(args, children)
            metrics, notes = run.end_to_end(samples)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    attempted = len(run.records) + len(run.probe_records)
    failed = (sum(not r["ok"] for r in run.records)
              + sum(not r["ok"] for r in run.probe_records))
    correct = failed == 0
    machine = machine_record()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine,
              "metrics": result["metrics"],
              "fail_ratio": failed / attempted, "attempted": attempted,
              "failed": failed, "notes": notes,
              "op_ms": {k: v * 1e3 for k, v in run.op_times(bool(args.trace)).items()},
              "executions": [[r["label"], r["pass"], r["seconds"], r["ref"]]
                             for r in run.records],
              "op_ms_measured": {k: v * 1e3 for k, v in
                                 run.op_times(bool(args.trace), "seconds").items()},
              "pass_walls_s": {"untraced": run.pass_walls[False],
                               "traced": run.pass_walls[True]},
              "failures": run.failures[:20]}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op",
                                  "thread", "leaves", "attrs"],
                       "spans": [s.to_json() for s in run.tracer.spans]}, fh)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed")
    print("machine " + json.dumps(machine, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:16.6g} {unit}")
    print(f"  {'fail_ratio':36s} {failed / attempted:16.6g} ratio")
    for key, value in notes.items():
        print(f"  {key:36s} {value}")
    for f in run.failures[:5]:
        print(f"FAILED {json.dumps(f, default=str)[:1500]}")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# several workloads: --all and --smoke


def spawn(workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke-size")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def run_all(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    status = 0
    counts = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in ([0, 1, 1] if args.smoke else [0, 1]):
            proc, result = spawn(wl, args.seed, args.seconds, trace, args.smoke)
            print("\n".join(proc.stdout.strip().splitlines()[:-1]))
            if proc.returncode != 0 or result is None:
                print(f"ERROR {wl} trace {trace}: exit {proc.returncode}\n"
                      f"{proc.stderr[-3000:]}")
                status = 1
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                print(f"ERROR {wl} trace {trace}: metric names or units differ from "
                      f"BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
                status = 1
            if trace:
                these = {k: v["value"] for k, v in result["metrics"].items()
                         if v["unit"] == "count"}
                if wl in counts and counts[wl] != these:
                    print(f"ERROR {wl}: counts differ between two traced runs: "
                          f"{counts[wl]} vs {these}")
                    status = 1
                counts[wl] = these
    print("perfbench: " + ("all workloads correct" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["reduced", "full", "profile", "cli"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload, both runs")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny size; checks names, units, counts")
    p.add_argument("--smoke-size", action="store_true", dest="smoke_size",
                   help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all or args.smoke:
        if not os.path.isfile(os.path.join(SRC, "singular_geodesics", "__init__.py")):
            fail(f"no package at {SRC}/singular_geodesics (run from a full checkout)")
        if args.smoke:
            args.seconds = 0.0
        return run_all(args)
    if args.workload is None:
        p.error("--workload, --all or --smoke is required")
    args.smoke = args.smoke_size
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
