"""Minimal SVG line plots for score curves (no plotting dependency)."""

from __future__ import annotations

from .serialize import write_text

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _x(v):
    return MARGIN_L + v * (WIDTH - MARGIN_L - MARGIN_R)


def _y(v):
    return HEIGHT - MARGIN_B - v * (HEIGHT - MARGIN_T - MARGIN_B)


def line_plot(series, title="", xlabel="", ylabel="") -> str:
    """Render named unit-square series as an SVG document string.

    ``series`` maps a legend label to ``(xs, ys)`` with values in [0, 1];
    both axes span exactly [0, 1].
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    # axes box and ticks every 0.2
    parts.append(
        f'<rect x="{_x(0)}" y="{_y(1)}" width="{_x(1) - _x(0)}" '
        f'height="{_y(0) - _y(1)}" fill="none" stroke="black"/>'
    )
    for i in range(6):
        v = i / 5.0
        parts.append(f'<line x1="{_x(v)}" y1="{_y(0)}" x2="{_x(v)}" '
                     f'y2="{_y(0) + 5}" stroke="black"/>')
        parts.append(f'<text x="{_x(v)}" y="{_y(0) + 18}" text-anchor="middle" '
                     f'font-size="11">{v:.1f}</text>')
        parts.append(f'<line x1="{_x(0) - 5}" y1="{_y(v)}" x2="{_x(0)}" '
                     f'y2="{_y(v)}" stroke="black"/>')
        parts.append(f'<text x="{_x(0) - 8}" y="{_y(v) + 4}" text-anchor="end" '
                     f'font-size="11">{v:.1f}</text>')
    parts.append(f'<text x="{(_x(0) + _x(1)) / 2}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_y(0) + _y(1)) / 2}" font-size="12" '
                 f'transform="rotate(-90 16 {(_y(0) + _y(1)) / 2})" '
                 f'text-anchor="middle">{ylabel}</text>')

    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = COLORS[i % len(COLORS)]
        points = " ".join(f"{_x(x):.2f},{_y(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 * i + 10
        parts.append(f'<line x1="{WIDTH - 130}" y1="{ly - 4}" '
                     f'x2="{WIDTH - 110}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 105}" y="{ly}" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_line_plot(path, series, title="", xlabel="", ylabel="") -> None:
    write_text(path, [line_plot(series, title=title, xlabel=xlabel, ylabel=ylabel)])
