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
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)
            if lo <= 10.0 ** e <= hi]


def _tick_label(v: float, log: bool) -> str:
    if log:
        e = round(math.log10(v))
        return f"1e{e}" if not -3 <= e <= 3 else f"{v:g}"
    return f"{v:g}"


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
        xs_all, ys_all = [], []
        for kind, xs, ys, _, _ in self.series:
            vals = list(ys[0]) + list(ys[1]) if kind == "band" else list(ys)
            for x, y in zip(list(xs) * (2 if kind == "band" else 1), vals):
                if not (math.isfinite(x) and math.isfinite(y)):
                    continue
                if self.xlog and x <= 0.0:
                    continue
                if self.ylog and y <= 0.0:
                    continue
                xs_all.append(x)
                ys_all.append(y)
        if not xs_all:
            xs_all = [0.1, 1.0] if self.xlog else [0.0, 1.0]
            ys_all = [0.1, 1.0] if self.ylog else [0.0, 1.0]
        return min(xs_all), max(xs_all), min(ys_all), max(ys_all)


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

        def tx(v, lo=None, hi=None):
            lo = xmin if lo is None else lo
            hi = xmax if hi is None else hi
            if panel.xlog:
                lo, hi, v = math.log10(lo), math.log10(hi), math.log10(max(v, 1e-300))
            if hi <= lo:
                hi = lo + 1.0
            return x0 + (v - lo) / (hi - lo) * (x1 - x0)

        def ty(v):
            lo, hi = ymin, ymax
            if panel.ylog:
                lo, hi, v = math.log10(lo), math.log10(hi), math.log10(max(v, 1e-300))
            if hi <= lo:
                hi = lo + 1.0
            return y1 - (v - lo) / (hi - lo) * (y1 - y0)

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
            if kind == "band":
                lo_v, hi_v = ys
                pts = [(x, v) for x, v in zip(xs, lo_v) if _ok(panel, x, v)]
                pts += [(x, v) for x, v in reversed(list(zip(xs, hi_v))) if _ok(panel, x, v)]
                if len(pts) >= 3:
                    path = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
                    out.append(f'<polygon points="{path}" fill="{color}" opacity="0.18"/>')
            elif kind == "line":
                pts = [(x, y) for x, y in zip(xs, ys) if _ok(panel, x, y)]
                if len(pts) >= 2:
                    path = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
                    extra = ' stroke-dasharray="5 4"' if dash else ""
                    out.append(f'<polyline points="{path}" fill="none" '
                               f'stroke="{color}" stroke-width="1.6"{extra}/>')
            else:
                for x, y in zip(xs, ys):
                    if _ok(panel, x, y):
                        out.append(f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" '
                                   f'r="2.4" fill="{color}" opacity="0.65"/>')
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
