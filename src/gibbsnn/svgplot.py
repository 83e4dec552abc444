"""Minimal deterministic SVG plotting: trace panels, histograms, curves.

Hand-rolled on purpose: no plotting dependency, byte-stable output for a
fixed input (floats are formatted with %.6g), files diff cleanly.
"""

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return "%.6g" % float(v)


class _Canvas:
    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#888", width=1):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>')

    def polyline(self, xs, ys, color, width=1):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def rect(self, x, y, w, h, color):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{color}" stroke="none"/>')

    def text(self, x, y, s, size=11, anchor="start", color="#222"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}" fill="{color}">{s}</text>')

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts))


class _Axes:
    """Maps data coordinates into one pixel box and draws its frame."""

    def __init__(self, canvas, box, xlim, ylim):
        self.c = canvas
        self.x0, self.y0, self.w, self.h = box
        lo, hi = xlim
        self.xlo, self.xspan = lo, (hi - lo) or 1.0
        lo, hi = ylim
        self.ylo, self.yspan = lo, (hi - lo) or 1.0

    def px(self, x):
        return self.x0 + (x - self.xlo) / self.xspan * self.w

    def py(self, y):
        return self.y0 + self.h - (y - self.ylo) / self.yspan * self.h

    def frame(self, title=""):
        c, x0, y0, w, h = self.c, self.x0, self.y0, self.w, self.h
        c.line(x0, y0 + h, x0 + w, y0 + h)
        c.line(x0, y0, x0, y0 + h)
        if title:
            c.text(x0 + w / 2, y0 - 6, title, anchor="middle")
        c.text(x0 - 4, y0 + h, _fmt(self.ylo), size=9, anchor="end")
        c.text(x0 - 4, y0 + 8, _fmt(self.ylo + self.yspan), size=9, anchor="end")
        c.text(x0, y0 + h + 12, _fmt(self.xlo), size=9, anchor="middle")
        c.text(x0 + w, y0 + h + 12, _fmt(self.xlo + self.xspan), size=9, anchor="middle")


def _limits(arrays):
    arrays = [a for a in arrays if len(a)]
    if not arrays:  # nothing to plot: a unit box keeps the axes finite
        return 0.0, 1.0
    lo = min(float(np.min(a)) for a in arrays)
    hi = max(float(np.max(a)) for a in arrays)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def trace_histogram_svg(series_by_chain, name, path, bins=40):
    """Fig-style panel pair: chains over iterations left, histogram right."""
    series_by_chain = [np.asarray(s, dtype=np.float64) for s in series_by_chain]
    c = _Canvas(760, 280)
    ylim = _limits(series_by_chain)
    n = max(len(s) for s in series_by_chain)
    left = _Axes(c, (60, 30, 400, 210), (0, max(n - 1, 1)), ylim)
    left.frame(f"{name}: chains")
    for k, s in enumerate(series_by_chain):
        xs = [left.px(i) for i in range(len(s))]
        ys = [left.py(v) for v in s]
        c.polyline(xs, ys, _COLORS[k % len(_COLORS)])

    pooled = np.concatenate(series_by_chain)
    counts, edges = np.histogram(pooled, bins=bins)
    right = _Axes(c, (520, 30, 210, 210), (edges[0], edges[-1]),
                  (0, max(int(counts.max()), 1)))
    right.frame(f"{name}: histogram")
    for i, cnt in enumerate(counts):
        x = right.px(edges[i])
        wpx = right.px(edges[i + 1]) - x
        y = right.py(cnt)
        c.rect(x, y, max(wpx - 0.5, 0.5), right.py(0) - y, _COLORS[0])
    c.save(path)


def curves_svg(xs, series, labels, title, path):
    """Several y-series over a common x-axis (learning curves etc.)."""
    series = [np.asarray(s, dtype=np.float64) for s in series]
    xs = np.asarray(xs, dtype=np.float64)
    c = _Canvas(640, 360)
    ax = _Axes(c, (70, 40, 520, 260), _limits([xs]), _limits(series))
    ax.frame(title)
    for k, (s, lab) in enumerate(zip(series, labels)):
        color = _COLORS[k % len(_COLORS)]
        c.polyline([ax.px(x) for x in xs[:len(s)]], [ax.py(v) for v in s], color, width=2)
        c.text(600, 52 + 14 * k, lab, size=10, color=color, anchor="end")
    c.save(path)
