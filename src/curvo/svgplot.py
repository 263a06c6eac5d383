"""Minimal deterministic SVG line plots, emitted as plain XML.

Covers exactly what the reports need: multi-series line plots with axes,
ticks, and a legend, plus an equal-aspect variant for top-down trajectory
views. Output bytes depend only on the input data (fixed float formatting,
no timestamps), so identical inputs produce identical files.
"""

from __future__ import annotations

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 160, 46, 56


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


def _bounds(values, pad_fraction=0.05):
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = 1.0 if hi == 0 else abs(hi) * 0.5
    else:
        pad = (hi - lo) * pad_fraction
    return lo - pad, hi + pad


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _text(x, y, size, body, anchor="middle", extra="") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{_escape(body)}</text>')


def _line(x1, y1, x2, y2, stroke="#333333", extra="") -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{extra}/>'


def line_plot(series, *, title="", xlabel="", ylabel="", equal_aspect=False) -> str:
    """Render (label, xs, ys) series as polylines; returns the SVG document as a string."""
    plotted = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"series {label!r} needs matching, non-empty x/y data")
        plotted.append((label, [float(v) for v in xs], [float(v) for v in ys]))
    if not plotted:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds([x for _, xs, _ in plotted for x in xs])
    y_lo, y_hi = _bounds([y for _, _, ys in plotted for y in ys])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    if equal_aspect:
        span = max((x_hi - x_lo) / plot_w, (y_hi - y_lo) / plot_h)
        x_mid, y_mid = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
        x_lo, x_hi = x_mid - span * plot_w / 2, x_mid + span * plot_w / 2
        y_lo, y_hi = y_mid - span * plot_h / 2, y_mid + span * plot_h / 2

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    bottom = HEIGHT - MARGIN_BOTTOM
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(WIDTH // 2, 24, 16, title))
    parts.append(  # frame
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = _fmt(sx(tick))
        parts.append(_line(x, bottom, x, bottom + 5))
        parts.append(_text(x, bottom + 20, 11, _tick_label(tick)))
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(_line(MARGIN_LEFT - 5, _fmt(y), MARGIN_LEFT, _fmt(y)))
        parts.append(_text(MARGIN_LEFT - 8, _fmt(y + 4), 11, _tick_label(tick), "end"))
    if xlabel:
        parts.append(_text((MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2, HEIGHT - 14, 13, xlabel))
    if ylabel:
        y = (MARGIN_TOP + bottom) // 2
        parts.append(_text(18, y, 13, ylabel, extra=f' transform="rotate(-90 18 {y})"'))
    for index, (label, xs, ys) in enumerate(plotted):
        color = PALETTE[index % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        if len(xs) <= 40:
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.4" fill="{color}"/>'
                )
        legend_y = MARGIN_TOP + 16 + index * 18
        legend_x = WIDTH - MARGIN_RIGHT + 12
        parts.append(_line(legend_x, legend_y - 4, legend_x + 22, legend_y - 4, color,
                           ' stroke-width="2"'))
        parts.append(_text(legend_x + 28, legend_y, 12, label, None))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def save_plot(svg_text: str, path) -> None:
    with open(path, "w") as f:
        f.write(svg_text)


def trajectory_plot(named_paths, *, title="trajectory (top-down)") -> str:
    """Equal-aspect x/y view; ``named_paths`` is [(label, (N, >=2) array)]."""
    series = [(label, [p[0] for p in path], [p[1] for p in path]) for label, path in named_paths]
    return line_plot(series, title=title, xlabel="x [m]", ylabel="y [m]", equal_aspect=True)
