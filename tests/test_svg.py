"""The standalone SVG renderer: exact bytes for a small two-panel figure,
the default axis ranges of an empty panel, and the minimum point counts of
bands and lines."""
import math

from ce_spectra import svg


def two_panels() -> list[svg.Panel]:
    """A log-log panel with a band, a dashed line and a scatter holding one
    non-finite point and one point at y <= 0, over a linear panel."""
    top = svg.Panel(title="errors & <bands>", xlabel="n", ylabel="weight", xlog=True, ylog=True)
    top.band([10.0, 100.0, 1000.0], [0.5, 2.0, 8.0], [1.5, 6.0, 30.0], label="band")
    top.line([10.0, 100.0, 1000.0], [1.0, 4.0, 16.0], label="fit", dash=True)
    top.scatter([10.0, 100.0, math.nan, 300.0], [0.8, 5.0, 3.0, -1.0], label="points")
    bottom = svg.Panel(xlabel="t", ylabel="value")
    bottom.line([0.0, 1.0, 2.0], [-1.0, 0.5, 2.0], label="trend")
    return [top, bottom]


TWO_PANELS_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="600" viewBox="0 0 640 600" font-family="sans-serif" font-size="11">
<rect width="640" height="600" fill="white"/>
<rect x="64" y="34" width="560" height="222" fill="none" stroke="#888"/>
<line x1="64.00" y1="256" x2="64.00" y2="260" stroke="#444"/>
<text x="64.00" y="272" text-anchor="middle">10</text>
<line x1="344.00" y1="256" x2="344.00" y2="260" stroke="#444"/>
<text x="344.00" y="272" text-anchor="middle">100</text>
<line x1="624.00" y1="256" x2="624.00" y2="260" stroke="#444"/>
<text x="624.00" y="272" text-anchor="middle">1000</text>
<line x1="60" y1="218.42" x2="64" y2="218.42" stroke="#444"/>
<text x="57" y="221.42" text-anchor="end">1</text>
<line x1="60" y1="93.57" x2="64" y2="93.57" stroke="#444"/>
<text x="57" y="96.57" text-anchor="end">10</text>
<text x="344" y="26" text-anchor="middle" font-size="12">errors &amp; &lt;bands&gt;</text>
<text x="344" y="288" text-anchor="middle">n</text>
<text x="18" y="145" text-anchor="middle" transform="rotate(-90 18 145)">weight</text>
<polygon points="64.00,256.00 344.00,180.83 624.00,105.67 624.00,34.00 344.00,121.27 64.00,196.43" fill="#1f6fb2" opacity="0.18"/>
<polyline points="64.00,218.42 344.00,143.25 624.00,68.08" fill="none" stroke="#d1495b" stroke-width="1.6" stroke-dasharray="5 4"/>
<circle cx="64.00" cy="230.52" r="2.4" fill="#3a8f5d" opacity="0.65"/>
<circle cx="344.00" cy="131.15" r="2.4" fill="#3a8f5d" opacity="0.65"/>
<rect x="474" y="40" width="10" height="10" fill="#1f6fb2" opacity="0.4"/>
<text x="488" y="49">band</text>
<rect x="474" y="55" width="10" height="10" fill="#d1495b" opacity="1.0"/>
<text x="488" y="64">fit</text>
<rect x="474" y="70" width="10" height="10" fill="#3a8f5d" opacity="1.0"/>
<text x="488" y="79">points</text>
<rect x="64" y="334" width="560" height="222" fill="none" stroke="#888"/>
<line x1="64.00" y1="556" x2="64.00" y2="560" stroke="#444"/>
<text x="64.00" y="572" text-anchor="middle">0</text>
<line x1="204.00" y1="556" x2="204.00" y2="560" stroke="#444"/>
<text x="204.00" y="572" text-anchor="middle">0.5</text>
<line x1="344.00" y1="556" x2="344.00" y2="560" stroke="#444"/>
<text x="344.00" y="572" text-anchor="middle">1</text>
<line x1="484.00" y1="556" x2="484.00" y2="560" stroke="#444"/>
<text x="484.00" y="572" text-anchor="middle">1.5</text>
<line x1="624.00" y1="556" x2="624.00" y2="560" stroke="#444"/>
<text x="624.00" y="572" text-anchor="middle">2</text>
<line x1="60" y1="556.00" x2="64" y2="556.00" stroke="#444"/>
<text x="57" y="559.00" text-anchor="end">-1</text>
<line x1="60" y1="482.00" x2="64" y2="482.00" stroke="#444"/>
<text x="57" y="485.00" text-anchor="end">0</text>
<line x1="60" y1="408.00" x2="64" y2="408.00" stroke="#444"/>
<text x="57" y="411.00" text-anchor="end">1</text>
<line x1="60" y1="334.00" x2="64" y2="334.00" stroke="#444"/>
<text x="57" y="337.00" text-anchor="end">2</text>
<text x="344" y="588" text-anchor="middle">t</text>
<text x="18" y="445" text-anchor="middle" transform="rotate(-90 18 445)">value</text>
<polyline points="64.00,556.00 344.00,445.00 624.00,334.00" fill="none" stroke="#1f6fb2" stroke-width="1.6"/>
<rect x="474" y="340" width="10" height="10" fill="#1f6fb2" opacity="1.0"/>
<text x="488" y="349">trend</text>
</svg>
"""


def test_render_two_panels_exact_bytes():
    assert svg.render(two_panels()) == TWO_PANELS_SVG


def test_empty_panel_takes_default_ranges():
    assert svg.Panel()._data_range() == (0.0, 1.0, 0.0, 1.0)
    assert svg.Panel(xlog=True, ylog=True)._data_range() == (0.1, 1.0, 0.1, 1.0)
    assert svg.Panel(xlog=True)._data_range() == (0.1, 1.0, 0.0, 1.0)
    # Points the axes cannot draw leave the panel as empty as no points.
    undrawable = svg.Panel(ylog=True)
    undrawable.scatter([math.nan, 1.0, math.inf], [1.0, 0.0, 2.0])
    assert undrawable._data_range() == (0.0, 1.0, 0.1, 1.0)


def test_band_and_line_need_enough_drawable_points():
    panel = svg.Panel(ylog=True)
    # Two drawable band corners (one per edge) and one drawable line point.
    panel.band([1.0, 2.0], [0.5, math.nan], [-1.0, 2.0], label="band")
    panel.line([1.0, 2.0, 3.0], [1.0, 0.0, math.nan], label="line")
    panel.scatter([1.0, 3.0], [1.0, 4.0])
    out = svg.render([panel])
    assert "<polygon" not in out
    assert "<polyline" not in out
    assert out.count("<circle") == 2
    # Labels still reach the legend.
    assert ">band</text>" in out and ">line</text>" in out


def test_log_axis_within_a_decade_gets_ticks():
    # Fewer than two powers of ten in range: the 1-2-5 mantissas inside it,
    # else its two ends. Two or more powers keep the decade ticks.
    assert svg._log_ticks(2.0, 5.0) == [2.0, 5.0]
    assert svg._log_ticks(0.5, 3.0) == [0.5, 1.0, 2.0]
    assert svg._log_ticks(2.1, 2.9) == [2.1, 2.9]
    assert svg._log_ticks(3.0, 3.0) == [3.0]
    assert svg._log_ticks(0.5, 30.0) == [1.0, 10.0]
    assert [svg._tick_label(v, True) for v in (2e-5, 0.002, 2.5e6, 1e4, 1000.0, 2.123456)] == [
        "2e-5", "0.002", "2.5e6", "1e4", "1000", "2.12"]
    panel = svg.Panel(ylog=True)
    panel.line([0.0, 1.0], [2.0, 5.0])
    out = svg.render([panel])
    assert 'text-anchor="end">2</text>' in out
    assert 'text-anchor="end">5</text>' in out
