"""Minimal deterministic SVG line plots, emitted as plain XML.

Covers exactly what the reports need: multi-series line plots with axes,
ticks, and a legend, plus an equal-aspect variant for top-down trajectory
views. Output bytes depend only on the input data (fixed float formatting,
no timestamps), so identical inputs produce identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 160, 46, 56


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) == 0:
            raise ValueError(f"series {self.label!r} needs matching, non-empty x/y data")
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in self.ys))


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


def line_plot(series, *, title="", xlabel="", ylabel="", equal_aspect=False) -> str:
    """Render (label, xs, ys) series as polylines; returns the SVG document as a string."""
    series = [Series(*s) for s in series]
    if not series:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds([x for s in series for x in s.xs])
    y_lo, y_hi = _bounds([y for s in series for y in s.ys])
    if equal_aspect:
        plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        span = max((x_hi - x_lo) / plot_w, (y_hi - y_lo) / plot_h)
        x_mid, y_mid = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
        x_lo, x_hi = x_mid - span * plot_w / 2, x_mid + span * plot_w / 2
        y_lo, y_hi = y_mid - span * plot_h / 2, y_mid + span * plot_h / 2

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def sy(y):
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )
    # frame
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_BOTTOM}" '
            f'x2="{_fmt(x)}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(y)}" '
            f'x2="{MARGIN_LEFT}" y2="{_fmt(y)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(tick)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.0f}" '
            f'y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
        )
    if ylabel:
        x, y = 18, (MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2
        parts.append(
            f'<text x="{x}" y="{y:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {x} {y:.0f})">{_escape(ylabel)}</text>'
        )
    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        if len(s.xs) <= 40:
            for x, y in zip(s.xs, s.ys):
                parts.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.4" fill="{color}"/>'
                )
        legend_y = MARGIN_TOP + 16 + index * 18
        legend_x = WIDTH - MARGIN_RIGHT + 12
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 22}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.label)}</text>'
        )
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
