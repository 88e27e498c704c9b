"""Tiny hand-rolled SVG line plots (no plotting dependency).

Deterministic output: fixed float formatting, no timestamps, no ids.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["svg_line_plot"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT = 720, 480


def _ticks(lo: float, hi: float, n: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def svg_line_plot(
    path: str,
    series: Sequence[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    equal_aspect: bool = False,
):
    """Write a multi-series line plot.

    ``series`` is a sequence of (xs, ys, label) triples.  A log x axis applies
    a log10 transform before plotting and labels ticks with the original
    values.
    """
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def tx(v):
        return math.log10(v) if logx else v

    xs_all, ys_all = [], []
    clean = []
    for xs, ys, label in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            keep &= xs > 0
        xs, ys = xs[keep], ys[keep]
        clean.append((xs, ys, label))
        xs_all.append([tx(v) for v in xs])
        ys_all.append(list(ys))
    flat_x = [v for part in xs_all for v in part]
    flat_y = [v for part in ys_all for v in part]
    if not flat_x:
        flat_x, flat_y = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(flat_x), max(flat_x)
    y0, y1 = min(flat_y), max(flat_y)
    if x1 <= x0:
        x0, x1 = x0 - 0.5, x0 + 0.5
    if y1 <= y0:
        y0, y1 = y0 - 0.5, y0 + 0.5
    padx = 0.04 * (x1 - x0)
    pady = 0.04 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady
    if equal_aspect:
        sx = pw / (x1 - x0)
        sy = ph / (y1 - y0)
        s = min(sx, sy)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        x0, x1 = cx - 0.5 * pw / s, cx + 0.5 * pw / s
        y0, y1 = cy - 0.5 * ph / s, cy + 0.5 * ph / s

    def px(v):
        return ml + (tx(v) - x0) / (x1 - x0) * pw

    def py(v):
        return mt + ph - (v - y0) / (y1 - y0) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333" stroke-width="1"/>'
    )
    for v in _ticks(x0, x1):
        X = ml + (v - x0) / (x1 - x0) * pw
        out.append(f'<line x1="{X:.2f}" y1="{mt + ph}" x2="{X:.2f}" '
                   f'y2="{mt + ph + 5}" stroke="#333"/>')
        lab = _fmt(10.0 ** v) if logx else _fmt(v)
        out.append(f'<text x="{X:.2f}" y="{mt + ph + 20}" font-size="12" '
                   f'text-anchor="middle" font-family="monospace">{lab}</text>')
    for v in _ticks(y0, y1):
        Y = mt + ph - (v - y0) / (y1 - y0) * ph
        out.append(f'<line x1="{ml - 5}" y1="{Y:.2f}" x2="{ml}" y2="{Y:.2f}" '
                   'stroke="#333"/>')
        lab = _fmt(v)
        out.append(f'<text x="{ml - 8}" y="{Y + 4:.2f}" font-size="12" '
                   f'text-anchor="end" font-family="monospace">{lab}</text>')
    for i, (xs, ys, label) in enumerate(clean):
        if len(xs) == 0:
            continue
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        if label:
            ly = mt + 16 + 16 * i
            out.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" '
                       f'x2="{ml + pw - 125}" y2="{ly - 4}" stroke="{color}" '
                       'stroke-width="2"/>')
            out.append(f'<text x="{ml + pw - 118}" y="{ly}" font-size="12" '
                       f'font-family="monospace">{label}</text>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.0f}" y="24" font-size="15" '
                   f'text-anchor="middle" font-family="monospace">{title}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2:.0f}" y="{HEIGHT - 12}" font-size="13" '
                   f'text-anchor="middle" font-family="monospace">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{mt + ph / 2:.0f}" font-size="13" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'transform="rotate(-90 18 {mt + ph / 2:.0f})">{ylabel}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
