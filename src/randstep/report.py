"""Standalone SVG log-log charts of the error tables.

One polyline per scheme on log2-log2 axes, with dashed reference guides
of slope 0.5 and 1; written next to the CSV output so batch runs can be
inspected without a plotting stack.
"""

from __future__ import annotations

import math

from .harness import ErrorMode, ErrorTable

_WIDTH, _HEIGHT = 640, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 150, 24, 48

_SCHEME_COLORS = {"rbe": "#1f77b4", "be": "#d62728", "rfe": "#2ca02c"}
_SCHEME_LABELS = {
    "rbe": "randomized backward Euler",
    "be": "classical backward Euler",
    "rfe": "randomized forward Euler",
}


def _color(scheme: str) -> str:
    return _SCHEME_COLORS.get(scheme, "#7f7f7f")


def render_svg_loglog(table: ErrorTable, error_mode: ErrorMode = ErrorMode.FINAL_TIME) -> str:
    """Render the chart as an SVG document string."""
    if not table.rows:
        raise ValueError("cannot plot an empty error table")
    series = {}
    for scheme in table.schemes():
        pts = sorted(
            (r.exponent, r.error(error_mode)) for r in table.for_scheme(scheme)
        )
        if not all(0.0 < err < math.inf for _, err in pts):
            raise ValueError(f"scheme {scheme}: errors must be positive and finite to plot")
        series[scheme] = [(n, math.log2(err)) for n, err in pts]

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
        f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-size="13">log2(1/k)</text>',
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})" '
        f'text-anchor="middle">log2(rms error)</text>',
    ]

    for n in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        parts.append(
            f'<text x="{px(n):.1f}" y="{_HEIGHT - _MARGIN_B + 16}" '
            f'text-anchor="middle" font-size="11">{n}</text>'
        )
    for tick in range(math.ceil(y_lo), math.floor(y_hi) + 1, max(1, round((y_hi - y_lo) / 8))):
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{py(tick) + 4:.1f}" '
            f'text-anchor="end" font-size="11">{tick}</text>'
        )

    # dashed guides: error ~ k^s appears as slope -s against log2(1/k)
    guide_x0, guide_x1 = x_lo, x_hi
    anchor_y = max(y for _, y in next(iter(series.values())))
    for s, dash in ((0.5, "6,4"), (1.0, "2,4")):
        y0 = anchor_y + 1.0
        y1 = y0 - s * (guide_x1 - guide_x0)
        parts.append(
            f'<line x1="{px(guide_x0):.1f}" y1="{py(y0):.1f}" '
            f'x2="{px(guide_x1):.1f}" y2="{py(y1):.1f}" stroke="#888" '
            f'stroke-dasharray="{dash}"/>'
        )
        parts.append(
            f'<text x="{px(guide_x1) + 4:.1f}" y="{py(y1):.1f}" '
            f'font-size="11" fill="#888">slope {s:g}</text>'
        )

    legend_y = _MARGIN_T + 10
    for scheme, pts in series.items():
        color = _color(scheme)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.6" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R + 10}" y="{legend_y}" font-size="12" '
            f'fill="{color}">{_SCHEME_LABELS.get(scheme, scheme)}</text>'
        )
        legend_y += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg_loglog(
    table: ErrorTable, path, error_mode: ErrorMode = ErrorMode.FINAL_TIME
) -> None:
    """Write the log-log chart for an error table to ``path``."""
    svg = render_svg_loglog(table, error_mode)
    with open(path, "w") as fh:
        fh.write(svg)
