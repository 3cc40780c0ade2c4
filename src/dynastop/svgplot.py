"""Minimal hand-rolled SVG line charts: one polyline per series, labeled axes
with 1-2-5 ticks, and a legend. Output bytes are a pure function of the
input, so plots diff cleanly.
"""

import math

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)


def _ticks(lo, hi, target=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _escape(text):
    """Text as SVG character data: &, < and > escaped, as
    xml.sax.saxutils.escape does. That module imports urllib.request, which
    every command would then load, in time and memory, before it starts."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value):
    text = f"{value:.6g}"
    return text


def line_chart(series, x_label, y_label, width=720, height=480):
    """Render series as an SVG document string.

    Parameters
    ----------
    series: list of dict
        Each with keys "label", "x", "y" and optional "color".
    x_label, y_label: str
        Axis captions. Captions and series labels are escaped, so any text
        gives a well-formed document.
    """
    if not series:
        raise ValueError("nothing to plot")
    margin_l, margin_r, margin_t, margin_b = 64, 16, 28, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    if not xs or not ys:
        raise ValueError("series contain no points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return margin_t + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    axis_style = 'stroke="#333333" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="12" fill="#333333"'

    for tick in _ticks(x_lo + x_pad, x_hi - x_pad):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{margin_t + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{margin_t + plot_h + 5:.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{margin_t + plot_h + 18:.2f}" text-anchor="middle" '
            f"{text_style}>{_fmt(tick)}</text>"
        )
    for tick in _ticks(y_lo + y_pad, y_hi - y_pad):
        py = sy(tick)
        parts.append(
            f'<line x1="{margin_l - 5:.2f}" y1="{py:.2f}" x2="{margin_l:.2f}" '
            f'y2="{py:.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{margin_l - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f"{text_style}>{_fmt(tick)}</text>"
        )

    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" {axis_style}/>'
    )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" {axis_style}/>'
    )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.2f}" y="{height - 10}" text-anchor="middle" '
        f"{text_style}>{_escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.2f})" {text_style}>'
        f"{_escape(y_label)}</text>"
    )

    for s_idx, s in enumerate(series):
        color = s.get("color") or PALETTE[s_idx % len(PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s["x"], s["y"]))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )

    legend_y = margin_t + 6
    for s_idx, s in enumerate(series):
        color = s.get("color") or PALETTE[s_idx % len(PALETTE)]
        y = legend_y + 16 * s_idx
        x = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{x}" y1="{y}" x2="{x + 22}" y2="{y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{x + 28}" y="{y + 4}" {text_style}>{_escape(s["label"])}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
