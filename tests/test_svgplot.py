import math
import re

import numpy as np
import pytest

from singular_geodesics import svgplot


def _row_polyline(xs, ys, logx):
    """The points of one series on its own axes, mapped and formatted point
    by point: the 4% padded data range onto the 630 x 385 plot area."""
    tx = [math.log10(v) for v in xs] if logx else list(xs)
    x0, x1, y0, y1 = min(tx), max(tx), min(ys), max(ys)
    padx, pady = 0.04 * (x1 - x0), 0.04 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
    return " ".join(f"{70 + (x - x0) / (x1 - x0) * 630:.2f},"
                    f"{40 + 385 - (y - y0) / (y1 - y0) * 385:.2f}" for x, y in zip(tx, ys))


@pytest.mark.parametrize("logx, n", [(False, 2100), (True, 9)])
def test_polyline_matches_pointwise_mapping(tmp_path, logx, n):
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(1e-4, 1.5, n))
    ys = np.cumsum(rng.normal(size=n))
    path = tmp_path / "plot.svg"
    svgplot.svg_line_plot(str(path), [(xs, ys, "series")], logx=logx)
    points, = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert points == _row_polyline(xs.tolist(), ys.tolist(), logx)
