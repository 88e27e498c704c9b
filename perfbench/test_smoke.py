"""Tests of the benchmark itself, at smoke size.

``run.py --smoke`` runs every workload once untraced and twice traced at tiny
size, and fails unless each run is correct, emits exactly the metric names
and units listed in BENCHMARK.json, and repeats every count between the two
traced runs of the same seed.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_names_units_and_repeatable_counts():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                           "--seed", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-6000:] + proc.stderr[-3000:]
    assert "perfbench: all workloads correct" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run([sys.executable] + command[1:] + [
        "--workload", "reduced", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
