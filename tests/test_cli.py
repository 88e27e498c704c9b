import csv
import json
import math
import re

import numpy as np
import pytest

from singular_geodesics import cli, experiments, geodesic_flow
from singular_geodesics.cli import RunConfig, main
from singular_geodesics.experiments import closed_form_winding_length
from singular_geodesics.warp_profiles import compute_Cf, make_power_warp, parse_warp_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_profile(path, z, s):
    """A profile CSV of the curve (``z``, ``s``) at ``path``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "s"])
        w.writerows(zip(z.tolist(), s.tolist()))
    return path


def tip_nodes(lo: float, n: int) -> np.ndarray:
    """z = 0 and ``n`` geometric nodes from ``lo`` to 1."""
    return np.concatenate([[0.0], np.geomspace(lo, 1.0, n)])


def printed_cf(out: str) -> float:
    return float(re.search(r"\) = (\S+)", out).group(1))


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(warp="power:2", delta=0.1)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict(), sort_keys=True)))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_dict({"wrap": "power:2"})

    @pytest.mark.parametrize("content", [
        '{"delta": "0.2"}', '{"rtol": null}', '{"warp": 2}', '[1, 2]',
        '{"delta": 1%s}' % ("0" * 400),  # an integer beyond float range
    ], ids=["string", "null", "number", "array", "huge"])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(content)
        code, _, err = run(capsys, "trace", "--config", str(cfg_path),
                           "--outdir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")

    def test_config_file_merge(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"warp": "power:1"}))
        code, out, _ = run(capsys, "cf", "--config", str(cfg_path))
        assert code == 0
        assert f"{math.pi:.8f}"[:8] in out
        # a flag must override the file
        code, out, _ = run(capsys, "cf", "--config", str(cfg_path),
                           "--warp", "expinv:1")
        assert code == 0
        assert out.strip().startswith("C_f(expinv:1) = 2")


class TestCf:
    def test_flat_cone(self, capsys):
        code, out, _ = run(capsys, "cf", "--warp", "power:1")
        assert code == 0
        assert "3.14159265359" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_not_finite_and_positive_exits_2(self, capsys, tol):
        code, _, err = run(capsys, "cf", "--tol", tol)
        assert code == 2
        assert err.startswith("error:")

    def test_oscillating_exits_2(self, capsys):
        code, _, err = run(capsys, "cf", "--warp", "osc:0.5:9")
        assert code == 2
        assert "non-oscillation" in err

    def test_sqrt_exits_2(self, capsys):
        code, _, err = run(capsys, "cf", "--warp", "sqrt")
        assert code == 2
        assert "diverge" in err

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "cf", "--warp", "nope:1")
        assert code == 2

    # a profile warp has no closed-form limit functional: cf runs its
    # ladder on the table (warp_profiles._numeric_frakF)
    def test_profile_of_a_line_is_the_cone(self, tmp_path, capsys):
        z = np.linspace(0.0, 1.0, 50)
        code, out, err = run(capsys, "cf", "--warp",
                             f"profile:{write_profile(tmp_path / 'line.csv', z, z)}")
        assert code == 0, err
        assert printed_cf(out) == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_profile_of_a_power_matches_the_power_warp(self, tmp_path, capsys, alpha):
        # measured 3.8e-6 (alpha = 2) and 1.4e-6 (alpha = 1.5) off
        z = tip_nodes(1e-10, 800)
        code, out, err = run(capsys, "cf", "--warp",
                             f"profile:{write_profile(tmp_path / 'p.csv', z, z ** alpha)}")
        assert code == 0, err
        assert printed_cf(out) == pytest.approx(compute_Cf(make_power_warp(alpha)), abs=1e-5)

    def test_profile_on_the_benchmark_nodes_is_inconclusive(self, tmp_path, capsys):
        # nodes from 1e-3 leave too few ladder rungs on the table's tip
        z = tip_nodes(1e-3, 240)
        code, _, err = run(capsys, "cf", "--warp",
                           f"profile:{write_profile(tmp_path / 'p.csv', z, z * z)}")
        assert code == 2
        assert "inconclusive" in err

    def test_a_profile_wiggle_is_not_reported_as_the_failed_condition(self, tmp_path, capsys):
        # z^1.5 satisfies the non-oscillation condition; on these nodes the
        # ladder oscillates with the table's interpolation, and the error
        # names that measurement
        z = tip_nodes(1e-6, 400)
        code, _, err = run(capsys, "cf", "--warp",
                           f"profile:{write_profile(tmp_path / 'p.csv', z, z ** 1.5)}")
        assert code == 2
        assert "limit functional estimate oscillating at sigma=" in err
        assert "spread" in err and "non-oscillation" not in err


class TestTrace:
    def test_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, out, _ = run(capsys, "trace", "--warp", "power:1",
                           "--delta", "0.3", "--outdir", str(outdir), "--svg")
        assert code == 0
        assert (outdir / "trace.csv").exists()
        assert (outdir / "trace_r.svg").exists()
        assert (outdir / "trace_polar.svg").exists()
        meta = json.loads((outdir / "trace.json").read_text())
        assert meta["config"]["warp"] == "power:1"
        assert meta["classification"] == "winding"
        # the reduced path's one stepper run, its counts and the stop that
        # ended it: the exit at r = R
        (stepper,) = meta["solver"]
        assert stepper["branch"] == "both" and stepper["steps"] > 0
        assert stepper["nfev"] == 1 + 15 * stepper["steps"] + 12 * stepper["rejected"]
        assert stepper["stop"] == "exit"
        assert stepper["t_stop"] == meta["exit_events"]["t_exit_forward"]
        with open(outdir / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert len(rows) > 100

    def test_overflowing_length_is_strict_json(self, tmp_path, capsys):
        # f'(1e-3) underflows for expinv:1, so the winding length and tau overflow
        code, out, err = run(capsys, "trace", "--warp", "expinv:1", "--delta", "0.001",
                             "--outdir", str(tmp_path), "--svg")
        assert code == 0, err

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        meta = json.loads((tmp_path / "trace.json").read_text(), parse_constant=refuse)
        assert meta["winding_length"] is None and meta["winding_count"] is None
        assert meta["normalized_winding_length"] == pytest.approx(2.0, rel=1e-2)
        assert (tmp_path / "trace_r.svg").exists()
        assert not (tmp_path / "trace_polar.svg").exists()
        assert "skipped trace_polar.svg" in out

    @pytest.mark.parametrize("section", ["circle:6.283185307179586",
                                         "circle:6.283185307179586:pert=0.08"])
    def test_export_columns(self, tmp_path, capsys, section):
        code, _, err = run(capsys, "trace", "--warp", "power:2", "--delta", "0.1",
                           "--section", section, "--outdir", str(tmp_path))
        assert code == 0, err
        with open(tmp_path / "trace.csv") as fh:
            header, *rows = list(csv.reader(fh))
        cols = dict(zip(header, np.array(rows, dtype=float).T))
        wf = make_power_warp(2.0)
        f = np.array([wf.f(r) for r in cols["r"]])
        sin = np.sin(cols["theta"])
        u = np.sign(sin) * np.array([wf.F(x) for x in f * np.abs(sin)])
        for name, expected in (("rho", f), ("clairaut", f * np.cos(cols["theta"])), ("u", u)):
            assert np.allclose(cols[name], expected, rtol=1e-12, atol=1e-15), name

    @pytest.mark.parametrize("flags", [("--warp", "power:nan"), ("--warp", "power:inf"),
                                       ("--R", "nan"), ("--rtol", "-1"), ("--atol", "nan"),
                                       ("--y0", "nan"), ("--v0", "nan"),
                                       ("--section", "circle:nan"), ("--warp", "expinv:nan"),
                                       ("--warp", "logpow:nan"),
                                       ("--section", "circle:6.28:pert=inf"),
                                       ("--section", "circle:6.28:pert=nan"),
                                       ("--section", "sphere:pert=inf"),
                                       ("--section", "circle:6.28:pert=0.05:pert=0.5"),
                                       ("--warp", "power:2:3"), ("--warp", "sqrt:1")])
    def test_non_finite_or_negative_input_exits_2(self, tmp_path, capsys, flags):
        code, _, err = run(capsys, "trace", "--warp", "power:2", "--delta", "0.3",
                           "--outdir", str(tmp_path), *flags)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("flags", [("--section", "sphere"),
                                       ("--section", "sphere", "--y0", "1.5", "--v0", "1,0"),
                                       ("--y0", "0,1")])
    def test_wrong_dimension_exits_2(self, tmp_path, capsys, flags):
        # the default y0 and v0 have one component, a sphere point needs two
        code, _, err = run(capsys, "trace", "--warp", "power:2", "--delta", "0.3",
                           "--outdir", str(tmp_path), *flags)
        assert code == 2
        assert "components" in err

    @pytest.mark.parametrize("section", ["sphere", "sphere:pert=0.05"])
    def test_sphere_launch_at_pole(self, tmp_path, capsys, section):
        # the spherical angles degenerate at the pole; the launch converts
        # them to a point and a vector in R^3 once and integrates there
        code, _, err = run(capsys, "trace", "--warp", "power:2", "--delta", "0.1",
                           "--section", section, "--y0", "0,0", "--v0", "1,0",
                           "--outdir", str(tmp_path))
        assert code == 0, err
        with open(tmp_path / "trace.csv") as fh:
            header = next(csv.reader(fh))
        assert header[3:9] == ["y0", "y1", "y2", "eta0", "eta1", "eta2"]
        assert "chart" not in header
        meta = json.loads((tmp_path / "trace.json").read_text())
        assert meta["ambient_residual"] < 1e-6
        if section == "sphere":
            assert meta["max_shell_residual"] < 1e-6
            expected = closed_form_winding_length(make_power_warp(2.0), 0.1)
            assert meta["winding_length"] == pytest.approx(expected, rel=1e-6)

    def test_profile_warp(self, tmp_path, capsys):
        # a 200-row parabola CSV: the warp table must make this a seconds-long run
        src = tmp_path / "parabola.csv"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["z", "s"])
            w.writerows((z, z * z) for z in np.linspace(0.0, 1.0, 200))
        code, _, err = run(capsys, "trace", "--warp", f"profile:{src}", "--delta", "0.2",
                           "--outdir", str(tmp_path / "run"))
        assert code == 0, err
        meta = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert meta["max_shell_residual"] < 1e-6
        expected = closed_form_winding_length(parse_warp_spec(f"profile:{src}"), 0.2)
        assert meta["winding_length"] == pytest.approx(expected, abs=1e-6)

    def test_a_zero_velocity_at_the_pole_exits_2(self, tmp_path, capsys):
        # dphi moves no point at the pole psi = 0
        code, _, err = run(capsys, "trace", "--section", "sphere", "--y0", "0,0",
                           "--v0", "0,1", "--outdir", str(tmp_path))
        assert code == 2
        assert "v0 must be nonzero" in err

    def test_unknown_section_option_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "trace", "--section", "circle:6.283185307179586:foo=1",
                           "--outdir", str(tmp_path))
        assert code == 2
        assert "unknown circle option 'foo=1'" in err

    def test_too_large_radius_times_c_exits_2_and_makes_no_outdir(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, _, err = run(capsys, "trace", "--warp", "power:2", "--R", "3",
                           "--section", "circle:6.283185307179586:pert=0.3",
                           "--outdir", str(outdir))
        assert code == 2
        assert "R*c = 1.179 >= 1" in err
        assert not outdir.exists()

    def test_bad_delta_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "trace", "--warp", "power:1",
                           "--delta", "7.0", "--outdir", str(tmp_path))
        assert code == 2

    def test_perturbation_out_of_band_names_the_band(self, tmp_path, capsys):
        # 1 + a w = 0.496 is not degenerate, only outside the band the
        # section enforces
        code, _, err = run(capsys, "trace", "--warp", "power:2", "--delta", "0.1",
                           "--section", "circle:6.28:pert=2", "--outdir", str(tmp_path / "run"))
        assert code == 2
        assert "1+a*w = 0.496 outside [0.5, 2] at r=0.26, y=2.945" in err

    def test_blown_up_run_exits_3(self, tmp_path, capsys):
        # the angle blows up to infinity, where math.cos raises ValueError
        # ("math domain error"); that once left the CLI with exit 2
        code, _, err = run(capsys, "trace", "--warp", "expinv:1", "--delta", "0.05",
                           "--section", "circle:6.283185307179586:pert=0.05",
                           "--outdir", str(tmp_path))
        assert code == 3
        assert err.startswith("integration error:")


class TestSweep:
    def test_power2(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        code, out, _ = run(capsys, "sweep", "--warp", "power:2",
                           "--deltas", "0.3,0.1,0.03,0.01,0.003,0.001",
                           "--outdir", str(outdir))
        assert code == 0
        assert "converged=True" in out
        data = json.loads((outdir / "sweep.json").read_text())
        assert data["converged"]
        errs = np.asarray(data["errors_rel"])
        assert np.all(np.diff(errs[-4:]) < 0)

    def test_oscillating_not_converged_exits_4(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--warp", "osc:0.5:9",
                           "--deltas", "0.3,0.2,0.1,0.05",
                           "--outdir", str(tmp_path / "osc"))
        assert code == 4

        # osc has no length constant: its reference and relative errors are
        # null, not the non-standard token NaN
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        data = json.loads((tmp_path / "osc" / "sweep.json").read_text(), parse_constant=refuse)
        assert data["reference_Cf"] is None
        assert data["errors_rel"] == [None] * 4
        assert all(math.isfinite(v) for v in data["lengths"] + data["normalized"])

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_ladder_exits_2(self, tmp_path, capsys, source):
        # an empty ladder once ran the default one instead
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"deltas": []}')
        given = ["--deltas", ","] if source == "flag" else ["--config", str(cfg_path)]
        code, out, err = run(capsys, "sweep", "--warp", "power:2", *given,
                             "--outdir", str(tmp_path / "sweep"))
        assert code == 2
        assert "delta ladder is empty" in err and out == ""

    def test_a_ladder_entry_that_is_not_finite_exits_2(self, tmp_path, capsys, monkeypatch):
        # NaN passed the ordering and range checks: delta = 0.3 was
        # integrated before the NaN failed at launch
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(experiments, "integrate_winding", no_run)
        monkeypatch.setattr(experiments, "compute_Cf", no_run)
        outdir = tmp_path / "sweep"
        code, out, err = run(capsys, "sweep", "--warp", "power:2", "--deltas", "0.3,nan,0.1",
                             "--outdir", str(outdir))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not finite" in err
        assert not outdir.exists()


    def test_a_failed_run_names_its_delta_and_exits_3(self, tmp_path, capsys):
        # the angle blows up at delta = 0.01 on the perturbed circle
        code, _, err = run(capsys, "sweep", "--warp", "expinv:1", "--R", "0.5",
                           "--section", "circle:6.283185307179586:pert=0.05",
                           "--deltas", "0.2,0.1,0.01", "--outdir", str(tmp_path / "sweep"))
        assert code == 3
        assert err.startswith("integration error: delta=0.01:")


class TestVerify:
    def test_default_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--bounds-cases", "6",
                           "--compare-cases", "3")
        assert code == 0
        assert out.count("[PASS]") >= 3
        assert "[FAIL]" not in out

    def test_default_limit_line_tests_a_real_limit(self, capsys):
        # on the round sphere the reduced path decodes the very great circle
        # the test compares with, and the distances read rounding (4.6e-16)
        code, out, _ = run(capsys, "verify", "--bounds-cases", "1", "--compare-cases", "1")
        assert code == 0
        line, = [ln for ln in out.splitlines() if "limit geodesic" in ln]
        assert line.startswith("[PASS] limit geodesic (perturbed circle, f=r^2)")
        sups = [float(v) for v in line.split("sup distances [")[1].rstrip("]").split()]
        assert len(sups) == 3 and sups[0] > 1e-6
        assert sups[0] > sups[1] > sups[2]

    def test_negative_slack_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--bounds-cases", "3",
                           "--compare-cases", "2", "--slack", "-1")
        assert code == 1
        assert "[FAIL]" in out

    def test_perturbed_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "perturbed", "--bounds-cases", "2",
                           "--compare-cases", "1")
        assert code == 0, out
        assert "radial bounds x2 (perturbed" in out

    def test_lines_report_counts_and_margins(self, capsys):
        code, out, _ = run(capsys, "verify", "--bounds-cases", "2", "--compare-cases", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
        assert len(lines) == 3
        assert "2/2 passed, worst excess " in lines[0]
        assert float(lines[0].split("worst relative slack ")[1]) > 0.0
        assert "2/2 passed, min radial gap " in lines[1]
        gap = float(lines[1].split("min radial gap ")[1])
        assert gap > 0.0

    @pytest.mark.parametrize("flags", [("--bounds-cases", "0"), ("--bounds-cases", "-2"),
                                       ("--compare-cases", "0"), ("--slack", "nan"),
                                       ("--slack", "inf")])
    def test_invalid_counts_or_slack_exit_2(self, capsys, flags):
        # the last occurrence of a flag wins
        code, out, err = run(capsys, "verify", "--bounds-cases", "1", "--compare-cases", "1",
                             *flags)
        assert code == 2
        assert "[PASS]" not in out
        assert err.startswith("error:")


class TestRadiusDefault:
    @pytest.mark.parametrize("argv", [
        ("trace", "--warp", "expinv:1", "--delta", "0.1"),
        ("sweep", "--warp", "logpow:1.5", "--deltas", "0.1,0.05,0.02"),
    ])
    def test_family_radius_used_when_R_absent(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--outdir", str(tmp_path))
        assert code == 0, err

    def test_sqrt_trace_runs_on_library_radius(self, tmp_path, capsys):
        code, _, err = run(capsys, "trace", "--warp", "sqrt", "--delta", "0.3",
                           "--outdir", str(tmp_path))
        assert code == 0, err
        meta = json.loads((tmp_path / "trace.json").read_text())
        assert meta["R"] == 1.0
        assert meta["config"]["R"] is None

    @pytest.mark.parametrize("argv", [
        ("cf", "--warp", "expinv:1", "--R", "1.5"),
        ("cf", "--warp", "expinv:1", "--R", "1.4"),
        ("trace", "--warp", "osc:0.5:9", "--R", "0.4", "--delta", "0.1"),
        ("trace", "--warp", "profile:curve.csv", "--R", "1.0", "--delta", "0.1"),
    ])
    def test_explicit_R_checked_exits_2(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, *(("--outdir", str(tmp_path))
                                            if argv[0] == "trace" else ()))
        assert code == 2
        assert "too large" in err or "cannot be set" in err


IGNORED_FLAGS = {
    "cf": ["--section", "--delta", "--deltas", "--y0", "--v0", "--rtol", "--atol",
           "--outdir", "--seed"],
    "trace": ["--deltas", "--tol", "--seed"],
    "sweep": ["--delta", "--tol", "--seed"],
    "verify": ["--warp", "--section", "--R", "--delta", "--deltas", "--y0", "--v0",
               "--atol", "--tol", "--outdir"],
    "profile2warp": ["--warp", "--section", "--R", "--delta", "--deltas", "--y0", "--v0",
                     "--rtol", "--atol", "--tol", "--seed"],
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in IGNORED_FLAGS.items()
                                          for f in flags])
def test_flag_a_command_does_not_read_is_refused(capsys, command, flag):
    required = ["--profile", "curve.csv"] if command == "profile2warp" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["trace", "--delta", "5"], ["sweep", "--deltas", ","]])
def test_refused_input_makes_no_outdir(tmp_path, capsys, argv):
    outdir = tmp_path / "new"
    code, _, err = run(capsys, *argv, "--outdir", str(outdir))
    assert code == 2 and err.startswith("error:")
    assert not outdir.exists()


def _outcomes(capsys, workdir, argvs) -> list:
    """Exit code, stdout, stderr and every file under ``workdir`` after each
    ``argv``, run in turn by ``main`` in ``workdir``."""
    found = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        found.append((code, out, err, {p.relative_to(workdir).as_posix(): p.read_bytes()
                                       for p in sorted(workdir.rglob("*")) if p.is_file()}))
    return found


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # a flag or suite of one call must not leak into the next: each call
    # with the kept parser gives what a call with a fresh one gives
    argvs = [["trace", "--warp", "power:2", "--delta", "0.2", "--svg", "--outdir", "svg"],
             ["trace", "--warp", "power:2", "--delta", "0.2", "--outdir", "plain"],
             ["verify", "--suite", "perturbed", "--bounds-cases", "1", "--compare-cases", "1"],
             ["verify", "--bounds-cases", "1", "--compare-cases", "1"],
             ["trace", "--delta"]]
    assert cli._parser() is cli._parser()
    runs = {}
    for name in ("kept", "fresh"):
        if name == "fresh":
            monkeypatch.setattr(cli, "_parser", cli.build_parser)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        runs[name] = _outcomes(capsys, tmp_path / name, argvs)
    assert runs["kept"] == runs["fresh"]
    codes = [code for code, *_ in runs["kept"]]
    assert codes == [0, 0, 0, 0, 2]
    assert sorted(runs["kept"][1][3]) == ["plain/trace.csv", "plain/trace.json",
                                         "svg/trace.csv", "svg/trace.json",
                                         "svg/trace_polar.svg", "svg/trace_r.svg"]
    assert "perturbed sphere" in runs["kept"][2][1]
    assert "perturbed circle" in runs["kept"][3][1]


@pytest.mark.parametrize("command, flag, kind", [
    ("profile2warp", "--profile", "directory"),
    ("cf", "--config", "directory"),
    ("trace", "--outdir", "file"),
    ("sweep", "--outdir", "file"),
])
def test_unusable_path_exits_2(tmp_path, capsys, monkeypatch, command, flag, kind):
    # a directory where a file is read, or a file where a directory is made,
    # refused before any geodesic is integrated
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(geodesic_flow, "integrate", no_run)
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("")
    code, _, err = run(capsys, command, flag, str(path))
    assert code == 2
    assert err.startswith("error:")


class TestProfile2Warp:
    def test_convert(self, tmp_path, capsys):
        src = tmp_path / "line.csv"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["z", "s"])
            for z in np.linspace(0, 1, 50):
                w.writerow([z, z])
        out = tmp_path / "warp.csv"
        code, stdout, _ = run(capsys, "profile2warp", "--profile", str(src),
                              "--out", str(out))
        assert code == 0
        assert out.exists()
        with open(out) as fh:
            rows = list(csv.reader(fh))
        r, f, _ = (float(v) for v in rows[-1])
        assert f == pytest.approx(r / math.sqrt(2), rel=1e-6)

    def test_non_monotone_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["z", "s"])
            for z in np.linspace(0, 1, 50):
                w.writerow([z, math.sin(4 * z)])
        code, _, err = run(capsys, "profile2warp", "--profile", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2

    @pytest.mark.parametrize("row", [("nan", "0.25"), ("0.5", "nan"), ("inf", "0.25"),
                                     ("0.5", "inf"), ("abc", "0.25")])
    def test_a_value_that_is_not_a_finite_number_exits_2(self, tmp_path, capsys, row):
        src = tmp_path / "nan.csv"
        with open(src, "w", newline="") as fh:
            csv.writer(fh).writerows([("z", "s"), (0, 0), (0.25, 0.0625), row, (1, 1)])
        code, _, err = run(capsys, "profile2warp", "--profile", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert f"{src}:4: z and s must be finite" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "profile2warp", "--profile",
                           str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"))
        assert code == 2

    def test_a_row_with_one_column_exits_2(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        src.write_text("z,s\n0,0\n0.5\n1,1\n")
        code, _, err = run(capsys, "profile2warp", "--profile", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert f"{src}:3:" in err

    def test_a_blank_row_is_skipped(self, tmp_path, capsys):
        src = tmp_path / "blank.csv"
        src.write_text("z,s\n0,0\n\n0.25,0.0625\n0.5,0.25\n1,1\n")
        code, _, err = run(capsys, "profile2warp", "--profile", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 0, err

    def test_an_empty_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        code, _, err = run(capsys, "profile2warp", "--profile", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "expected a header row" in err
