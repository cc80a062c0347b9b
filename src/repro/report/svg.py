"""Dependency-free SVG rendering of experiment tables.

The reproduction must be able to emit every paper figure on a machine
with nothing beyond the core scientific stack installed, so this module
renders an :class:`~repro.experiments.common.ExperimentTable` as a
self-contained SVG document in pure Python, styled by a
:class:`~repro.report.theme.Theme`.  SVG is the pipeline's only figure
format.

Conventions: the first column is the x axis, every other numeric
column is a series, saturated points (``+inf``) render as up-arrows
pinned to the top of the panel, and NaN points are skipped.  The output is deterministic for a given table and theme —
the byte-identity regression tests rely on this.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentTable
from repro.report.theme import PUBLICATION, Theme


def _fmt(value: float) -> str:
    """Deterministic compact number formatting for coordinates."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _tick_label(value: float) -> str:
    return f"{value:g}"


def nice_ticks(low: float, high: float, target: int = 5) -> List[float]:
    """A 1-2-5 tick grid covering ``[low, high]`` (inclusive ends)."""
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ConfigurationError("tick bounds must be finite")
    if high <= low:
        high = low + 1.0
    span = high - low
    raw_step = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = multiple * magnitude
        if step >= raw_step:
            break
    first = math.ceil(low / step) * step
    ticks = []
    value = first
    while value <= high + 1e-9 * span:
        # Snap to the step grid so labels come out clean ("0.3", not
        # "0.30000000000000004").
        ticks.append(round(value / step) * step)
        value += step
    return ticks or [low, high]


def _series_bounds(xs: Sequence[float],
                   series: Sequence[Sequence[float]],
                   ) -> Tuple[float, float, float, float]:
    finite = [v for values in series for v in values if math.isfinite(v)]
    if not finite:
        raise ConfigurationError("no finite points to plot")
    y_low, y_high = min(finite), max(finite)
    if y_high == y_low:
        y_high = y_low + 1.0
    pad = 0.05 * (y_high - y_low)
    y_low = min(y_low, 0.0) if y_low >= 0.0 and y_low <= pad else y_low - pad
    y_high += pad
    x_low, x_high = min(xs), max(xs)
    if x_high == x_low:
        x_high = x_low + 1.0
    return x_low, x_high, y_low, y_high


def _marker_element(shape: str, x: float, y: float, size: float,
                    color: str) -> str:
    s = size
    if shape == "circle":
        return (f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(s)}" '
                f'fill="{color}"/>')
    if shape == "square":
        return (f'<rect x="{_fmt(x - s)}" y="{_fmt(y - s)}" '
                f'width="{_fmt(2 * s)}" height="{_fmt(2 * s)}" '
                f'fill="{color}"/>')
    if shape == "triangle":
        points = (f"{_fmt(x)},{_fmt(y - s)} {_fmt(x - s)},{_fmt(y + s)} "
                  f"{_fmt(x + s)},{_fmt(y + s)}")
        return f'<polygon points="{points}" fill="{color}"/>'
    if shape == "diamond":
        points = (f"{_fmt(x)},{_fmt(y - s)} {_fmt(x + s)},{_fmt(y)} "
                  f"{_fmt(x)},{_fmt(y + s)} {_fmt(x - s)},{_fmt(y)}")
        return f'<polygon points="{points}" fill="{color}"/>'
    if shape == "cross":
        return (f'<path d="M {_fmt(x - s)} {_fmt(y - s)} L {_fmt(x + s)} '
                f'{_fmt(y + s)} M {_fmt(x - s)} {_fmt(y + s)} L '
                f'{_fmt(x + s)} {_fmt(y - s)}" stroke="{color}" '
                f'stroke-width="1.4" fill="none"/>')
    # "plus" and anything unrecognized
    return (f'<path d="M {_fmt(x - s)} {_fmt(y)} L {_fmt(x + s)} {_fmt(y)} '
            f'M {_fmt(x)} {_fmt(y - s)} L {_fmt(x)} {_fmt(y + s)}" '
            f'stroke="{color}" stroke-width="1.4" fill="none"/>')


def _saturation_arrow(x: float, top: float, color: str) -> str:
    points = (f"{_fmt(x)},{_fmt(top)} {_fmt(x - 3.5)},{_fmt(top + 7)} "
              f"{_fmt(x + 3.5)},{_fmt(top + 7)}")
    return f'<polygon points="{points}" fill="{color}" opacity="0.85"/>'


def render_svg(table: ExperimentTable,
               y_columns: Optional[Sequence[str]] = None,
               theme: Theme = PUBLICATION) -> str:
    """Render ``table`` as a themed, self-contained SVG document.

    The first column is the x axis; ``y_columns`` defaults to every
    other column.  Raises :class:`~repro.errors.ConfigurationError` for
    empty tables, unknown columns, or all-saturated series.
    """
    if not table.rows:
        raise ConfigurationError("cannot plot an empty table")
    x_name = table.columns[0]
    names = list(y_columns) if y_columns is not None else table.columns[1:]
    for name in names:
        if name not in table.columns:
            raise ConfigurationError(f"no column {name!r} in {table.columns}")
    if not names:
        raise ConfigurationError("table has no series columns to plot")

    xs = [float(v) for v in table.column(x_name)]
    series = [[float(v) for v in table.column(name)] for name in names]
    x_low, x_high, y_low, y_high = _series_bounds(xs, series)

    margin = theme.margin
    panel_w = theme.width - margin["left"] - margin["right"]
    panel_h = theme.height - margin["top"] - margin["bottom"]
    panel_x, panel_y = margin["left"], margin["top"]

    def sx(x: float) -> float:
        return panel_x + (x - x_low) / (x_high - x_low) * panel_w

    def sy(y: float) -> float:
        return panel_y + panel_h - (y - y_low) / (y_high - y_low) * panel_h

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{theme.width}" '
        f'height="{theme.height}" viewBox="0 0 {theme.width} '
        f'{theme.height}">',
        f'<rect width="{theme.width}" height="{theme.height}" '
        f'fill="{theme.background}"/>',
        f'<text x="{panel_x}" y="22" font-family="{theme.font_family}" '
        f'font-size="{theme.title_size}" font-weight="bold" '
        f'fill="{theme.text_color}">{_escape(table.title)}</text>',
        f'<text x="{panel_x}" y="38" font-family="{theme.font_family}" '
        f'font-size="{theme.tick_size}" fill="{theme.muted_color}">'
        f'{_escape(table.experiment_id)} · {_escape(table.figure)}</text>',
    ]

    # Grid + ticks.
    for tick in nice_ticks(y_low, y_high):
        y = sy(tick)
        parts.append(f'<line x1="{panel_x}" y1="{_fmt(y)}" '
                     f'x2="{panel_x + panel_w}" y2="{_fmt(y)}" '
                     f'stroke="{theme.grid_color}" '
                     f'stroke-width="{theme.grid_width}"/>')
        parts.append(f'<text x="{panel_x - 6}" y="{_fmt(y + 3)}" '
                     f'text-anchor="end" font-family="{theme.font_family}" '
                     f'font-size="{theme.tick_size}" '
                     f'fill="{theme.axis_color}">{_tick_label(tick)}</text>')
    for tick in nice_ticks(x_low, x_high, target=6):
        x = sx(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{panel_y}" x2="{_fmt(x)}" '
                     f'y2="{panel_y + panel_h}" stroke="{theme.grid_color}" '
                     f'stroke-width="{theme.grid_width}"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{panel_y + panel_h + 16}" '
                     f'text-anchor="middle" '
                     f'font-family="{theme.font_family}" '
                     f'font-size="{theme.tick_size}" '
                     f'fill="{theme.axis_color}">{_tick_label(tick)}</text>')

    # Axes frame (left + bottom spines only).
    parts.append(f'<line x1="{panel_x}" y1="{panel_y}" x2="{panel_x}" '
                 f'y2="{panel_y + panel_h}" stroke="{theme.axis_color}" '
                 f'stroke-width="1"/>')
    parts.append(f'<line x1="{panel_x}" y1="{panel_y + panel_h}" '
                 f'x2="{panel_x + panel_w}" y2="{panel_y + panel_h}" '
                 f'stroke="{theme.axis_color}" stroke-width="1"/>')
    parts.append(f'<text x="{panel_x + panel_w // 2}" '
                 f'y="{theme.height - 40}" text-anchor="middle" '
                 f'font-family="{theme.font_family}" '
                 f'font-size="{theme.label_size}" '
                 f'fill="{theme.text_color}">{_escape(x_name)}</text>')

    # Series: polyline over finite points, markers, saturation arrows.
    for index, (name, values) in enumerate(zip(names, series)):
        color = theme.color(index)
        shape = theme.marker(index)
        points = [(sx(x), sy(y)) for x, y in zip(xs, values)
                  if math.isfinite(y)]
        if len(points) >= 2:
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" '
                         f'stroke-width="{theme.line_width}"/>')
        for px, py in points:
            parts.append(_marker_element(shape, px, py, theme.marker_size,
                                         color))
        for x, y in zip(xs, values):
            if math.isinf(y) and y > 0:
                parts.append(_saturation_arrow(sx(x), panel_y, color))

    # Legend: one row per series under the x-axis label.
    legend_y = theme.height - 22
    legend_x = float(panel_x)
    for index, name in enumerate(names):
        color = theme.color(index)
        shape = theme.marker(index)
        parts.append(_marker_element(shape, legend_x + 4, legend_y - 3,
                                     theme.marker_size, color))
        label = _escape(name)
        parts.append(f'<text x="{_fmt(legend_x + 12)}" y="{legend_y}" '
                     f'font-family="{theme.font_family}" '
                     f'font-size="{theme.legend_size}" '
                     f'fill="{theme.text_color}">{label}</text>')
        # Advance by an estimate of the label's rendered width; exact
        # metrics would need a font engine, and a fixed per-char advance
        # keeps the output deterministic everywhere.
        legend_x += 12 + 5.4 * len(name) + 14
    if any(math.isinf(v) and v > 0 for values in series for v in values):
        parts.append(f'<text x="{theme.width - margin["right"]}" '
                     f'y="{legend_y}" text-anchor="end" '
                     f'font-family="{theme.font_family}" '
                     f'font-size="{theme.legend_size}" '
                     f'fill="{theme.muted_color}">&#9650; = saturated'
                     f'</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))
