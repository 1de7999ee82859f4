"""Tiny standalone SVG plots: lines, quantile bands, scatter.

No external assets, no fonts beyond the generic sans family, and all
coordinates formatted with fixed precision, so identical data yields
identical bytes. Enough plotting for diagnostics; nothing more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

PALETTE = ("#1f6fb2", "#d1495b", "#3a8f5d", "#8a5fbf", "#c98a2b", "#4a4a4a")
WIDTH = 640
PANEL_HEIGHT = 300
# Target number of intervals between linear-axis ticks.
TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    """The powers of ten in [lo, hi]; with fewer than two of them, the
    1-2-5 mantissas in it; with none of those, its two ends."""
    decades = [10.0 ** e for e in range(math.floor(math.log10(lo)),
                                        math.ceil(math.log10(hi)) + 1)]
    ticks = [t for t in decades if lo <= t <= hi]
    if len(ticks) < 2:
        ticks = [m * t for t in decades for m in (1.0, 2.0, 5.0) if lo <= m * t <= hi]
    return ticks or sorted({lo, hi})


def _tick_label(v: float, log: bool) -> str:
    """A log-axis value rounds to three significant digits, written with a
    power of ten outside [1e-3, 1e4): 1e-5, 2.5e6."""
    if not log:
        return f"{v:g}"
    rounded = f"{v:.2e}"
    mantissa, _, e = rounded.partition("e")
    if -3 <= int(e) <= 3:
        return f"{float(rounded):g}"
    return f"{float(mantissa):g}e{int(e)}"


@dataclass
class Panel:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    xlog: bool = False
    ylog: bool = False
    series: list = field(default_factory=list)

    def line(self, xs, ys, label: str = "", dash: bool = False):
        self.series.append(("line", list(xs), list(ys), label, dash))

    def band(self, xs, lo, hi, label: str = ""):
        self.series.append(("band", list(xs), (list(lo), list(hi)), label, False))

    def scatter(self, xs, ys, label: str = ""):
        self.series.append(("scatter", list(xs), list(ys), label, False))

    def _data_range(self):
        pts = [(x, y) for kind, xs, ys, _, _ in self.series
               for x, y in _pairs(kind, xs, ys) if _ok(self, x, y)]
        if not pts:
            pts = [(0.1 if self.xlog else 0.0, 0.1 if self.ylog else 0.0), (1.0, 1.0)]
        xs_all, ys_all = zip(*pts)
        return min(xs_all), max(xs_all), min(ys_all), max(ys_all)


def _pairs(kind: str, xs, ys) -> list:
    """A series' (x, y) points in drawing order; a band runs along its lower
    edge and back along its upper one."""
    if kind == "band":
        return list(zip(xs, ys[0])) + list(zip(xs, ys[1]))[::-1]
    return list(zip(xs, ys))


def _scale(lo: float, hi: float, log: bool, p0: float, p1: float):
    """Map data values in [lo, hi] to pixels from p0 to p1, in log10 on a
    log axis; an empty range widens to one unit above lo."""
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    if hi <= lo:
        hi = lo + 1.0

    def to_px(v):
        if log:
            v = math.log10(max(v, 1e-300))
        return p0 + (v - lo) / (hi - lo) * (p1 - p0)
    return to_px


def render(panels: list[Panel]) -> str:
    """Render stacked panels to a complete SVG document string."""
    pad_l, pad_r, pad_t, pad_b = 64, 16, 34, 44
    total_h = PANEL_HEIGHT * len(panels)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{total_h}" viewBox="0 0 {WIDTH} {total_h}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{total_h}" fill="white"/>',
    ]

    for idx, panel in enumerate(panels):
        oy = idx * PANEL_HEIGHT
        x0, x1 = pad_l, WIDTH - pad_r
        y0, y1 = oy + pad_t, oy + PANEL_HEIGHT - pad_b
        xmin, xmax, ymin, ymax = panel._data_range()
        tx = _scale(xmin, xmax, panel.xlog, x0, x1)
        ty = _scale(ymin, ymax, panel.ylog, y1, y0)
        out.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
                   f'fill="none" stroke="#888"/>')
        xticks = _log_ticks(xmin, xmax) if panel.xlog else _nice_ticks(xmin, xmax)
        yticks = _log_ticks(ymin, ymax) if panel.ylog else _nice_ticks(ymin, ymax)
        for v in xticks:
            px = tx(v)
            out.append(f'<line x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 4}" stroke="#444"/>')
            out.append(f'<text x="{_fmt(px)}" y="{y1 + 16}" text-anchor="middle">'
                       f'{_tick_label(v, panel.xlog)}</text>')
        for v in yticks:
            py = ty(v)
            out.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="#444"/>')
            out.append(f'<text x="{x0 - 7}" y="{_fmt(py + 3)}" text-anchor="end">'
                       f'{_tick_label(v, panel.ylog)}</text>')
        if panel.title:
            out.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{y0 - 8:.0f}" '
                       f'text-anchor="middle" font-size="12">{_esc(panel.title)}</text>')
        if panel.xlabel:
            out.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{y1 + 32:.0f}" '
                       f'text-anchor="middle">{_esc(panel.xlabel)}</text>')
        if panel.ylabel:
            cx, cy = x0 - 46, (y0 + y1) / 2
            out.append(f'<text x="{cx:.0f}" y="{cy:.0f}" text-anchor="middle" '
                       f'transform="rotate(-90 {cx:.0f} {cy:.0f})">{_esc(panel.ylabel)}</text>')

        legend = []
        for i, (kind, xs, ys, label, dash) in enumerate(panel.series):
            color = PALETTE[i % len(PALETTE)]
            if label:
                legend.append((label, color, kind))
            pts = [(tx(x), ty(y)) for x, y in _pairs(kind, xs, ys) if _ok(panel, x, y)]
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            if kind == "band" and len(pts) >= 3:
                out.append(f'<polygon points="{path}" fill="{color}" opacity="0.18"/>')
            elif kind == "line" and len(pts) >= 2:
                extra = ' stroke-dasharray="5 4"' if dash else ""
                out.append(f'<polyline points="{path}" fill="none" '
                           f'stroke="{color}" stroke-width="1.6"{extra}/>')
            elif kind == "scatter":
                out += [f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                        f'r="2.4" fill="{color}" opacity="0.65"/>' for px, py in pts]
        for li, (label, color, kind) in enumerate(legend):
            ly = y0 + 14 + 15 * li
            out.append(f'<rect x="{x1 - 150}" y="{ly - 8}" width="10" height="10" '
                       f'fill="{color}" opacity="{0.4 if kind == "band" else 1.0}"/>')
            out.append(f'<text x="{x1 - 136}" y="{ly + 1}">{_esc(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _ok(panel: Panel, x: float, y: float) -> bool:
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    if panel.xlog and x <= 0.0:
        return False
    if panel.ylog and y <= 0.0:
        return False
    return True


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
