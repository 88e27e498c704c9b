import csv
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import singular_geodesics as sg
from singular_geodesics.profile_io import write_warp_table


def write_profile(path, rows, header=("z", "s")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def parabola_csv(tmp_path):
    zs = np.linspace(0.0, 1.0, 200)
    path = tmp_path / "parabola.csv"
    write_profile(path, [(z, z * z) for z in zs])
    return str(path)


class TestLoadProfile:
    def test_parabola_roundtrip(self, parabola_csv):
        wf = sg.load_profile_csv(parabola_csv)
        # interpolation error dominates; the warp still tracks r^2 closely
        assert wf.f(0.01) == pytest.approx(1e-4, rel=1e-2)
        assert wf.f(0.5) == pytest.approx(
            sg.profile_to_warp(lambda z: z * z, lambda z: 2 * z, 1.0).f(0.5), rel=1e-4)

    def test_table_follows_interpolant_next_to_its_nodes(self, tmp_path):
        # the warp's node ladder contains the CSV's nodes, where the PCHIP
        # curve's s'' jumps; a cell across one would leave ~1e-5 errors in f
        zs = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 60)])
        path = tmp_path / "geometric.csv"
        write_profile(path, [(z, z * z) for z in zs])
        wf = sg.load_profile_csv(str(path))
        s = PchipInterpolator(zs, zs * zs)
        ds = s.derivative()
        for z in np.concatenate([zs[2:-1] * 0.997, zs[2:-1] * 1.003]):
            r, _ = quad(lambda w: math.hypot(1.0, ds(w)), 0.0, z, points=zs[1:][zs[1:] < z],
                        epsabs=0.0, epsrel=1e-13, limit=500)
            slope = ds(z) / math.hypot(1.0, ds(z))
            assert wf.f(r) == pytest.approx(s(z), rel=1e-8)
            assert wf.f_prime(r) == pytest.approx(slope, rel=1e-5)

    @pytest.mark.parametrize("z_max", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_z_max_not_finite_and_positive(self, z_max):
        with pytest.raises(ValueError, match="z_max"):
            sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, z_max)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_profile(path, [(z, z) for z in np.linspace(0, 1, 10)], header=None)
        with pytest.raises(ValueError, match="header"):
            sg.load_profile_csv(str(path))

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        write_profile(path, [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
        with pytest.raises(ValueError, match="4"):
            sg.load_profile_csv(str(path))

    def test_non_monotone_z(self, tmp_path):
        path = tmp_path / "zigzag.csv"
        write_profile(path, [(0.0, 0.0), (0.5, 0.2), (0.4, 0.3), (1.0, 1.0)])
        with pytest.raises(ValueError, match="increasing"):
            sg.load_profile_csv(str(path))

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_value_that_is_not_finite(self, tmp_path, column, value):
        # NaN passes the increasing checks: no comparison with it holds
        rows = [[z, z * z] for z in np.linspace(0.0, 1.0, 10)]
        rows[4][column] = value
        path = tmp_path / "bad.csv"
        write_profile(path, rows)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:6: z and s must be finite")):
            sg.load_profile_csv(str(path))

    def test_must_start_at_origin(self, tmp_path):
        path = tmp_path / "offset.csv"
        write_profile(path, [(0.1, 0.1), (0.4, 0.4), (0.7, 0.7), (1.0, 1.0)])
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            sg.load_profile_csv(str(path))


class TestWriteWarpTable:
    def test_table_contents(self, tmp_path):
        wf = sg.make_power_warp(2.0)
        out = tmp_path / "warp.csv"
        write_warp_table(wf, str(out), n=32)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "f", "f_prime"]
        assert len(rows) == 33
        r, f, fp = (float(v) for v in rows[-1])
        assert r == pytest.approx(wf.domain_radius)
        assert f == pytest.approx(wf.f(r), rel=1e-12)
        assert fp == pytest.approx(wf.f_prime(r), rel=1e-12)
