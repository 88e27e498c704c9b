"""CSV profile curves: load a sampled generating curve (z, s(z)) and turn it
into a warping function, or dump a warp as a table."""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from .warp_profiles import WarpingFunction, profile_to_warp

__all__ = ["load_profile_csv", "write_warp_table"]


def load_profile_csv(path: str, grid: int = 2048) -> WarpingFunction:
    """Read a two-column CSV (header row, then z, s(z) with monotone z) and
    build the warp of the corresponding surface of revolution up to the last
    sample's z.

    The samples are interpolated with a monotone cubic (PCHIP), which keeps
    s increasing between increasing data points and has a usable derivative.
    """
    zs, ss = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a header row with two columns")
        try:
            float(header[0])
        except ValueError:
            pass  # proper header
        else:
            raise ValueError(f"{path}: first row must be a header, not data")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: need two columns")
            try:
                z, s = float(row[0]), float(row[1])
            except ValueError:
                z = s = math.nan
            # NaN would pass the increasing checks below: no comparison holds
            if not (math.isfinite(z) and math.isfinite(s)):
                raise ValueError(f"{path}:{lineno}: z and s must be finite numbers, "
                                 f"got {row[0].strip()}, {row[1].strip()}")
            zs.append(z)
            ss.append(s)
    z = np.asarray(zs)
    s = np.asarray(ss)
    if len(z) < 4:
        raise ValueError(f"{path}: need at least 4 sample rows")
    if np.any(np.diff(z) <= 0):
        raise ValueError(f"{path}: z column must be strictly increasing")
    if abs(z[0]) > 1e-12 or abs(s[0]) > 1e-12:
        raise ValueError(f"{path}: profile must start at (0, 0)")
    if np.any(np.diff(s) <= 0):
        raise ValueError(f"{path}: s column must be strictly increasing")

    interp = PchipInterpolator(z, s, extrapolate=False)
    return profile_to_warp(interp, interp.derivative(), float(z[-1]), grid=grid,
                           label=f"profile:{path}")


def write_warp_table(wf: WarpingFunction, path: str, n: int = 256):
    rs = np.geomspace(wf.domain_radius * 1e-4, wf.domain_radius, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "f", "f_prime"])
        writer.writerows([f"{v:.12g}" for v in row] for row in zip(
            rs.tolist(), wf.f(rs).tolist(), wf.f_prime(rs).tolist()))
