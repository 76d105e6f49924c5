"""Deterministic SVG rendering for ChartData records.

Plain hand-built markup: fixed canvas, two-decimal coordinates, children
in series order, so identical charts yield byte-identical documents.
"""

from __future__ import annotations

import math

from .render import ChartData

WIDTH = 480
HEIGHT = 320
MARGIN = 40

_BAR_FILL = "#4a7ebb"
_AXIS_STROKE = "#444444"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fx(value: float) -> str:
    return f"{value:.2f}"


def _document(body: list[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    lines = [head, f"  <title>{_escape(title)}</title>", *body, "</svg>"]
    return "\n".join(lines) + "\n"


def _bars(chart: ChartData, title: str) -> str:
    series = chart.series
    vmax = max((value for _, value in series), default=0.0)
    scale_max = vmax if vmax > 0 else 1.0
    if "max" in chart.meta:
        scale_max = max(scale_max, float(chart.meta["max"]))  # type: ignore[arg-type]
    plot_height = HEIGHT - 2 * MARGIN
    plot_width = WIDTH - 2 * MARGIN
    slot = plot_width / max(len(series), 1)
    bar_width = slot * 0.6
    body = [
        f'  <line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="{_AXIS_STROKE}"/>'
    ]
    for index, (label, value) in enumerate(series):
        height = plot_height * (value / scale_max)
        x = MARGIN + slot * index + (slot - bar_width) / 2
        y = HEIGHT - MARGIN - height
        body.append(
            f'  <rect x="{_fx(x)}" y="{_fx(y)}" width="{_fx(bar_width)}" '
            f'height="{_fx(height)}" fill="{_BAR_FILL}"/>'
        )
        body.append(
            f'  <text x="{_fx(x + bar_width / 2)}" y="{_fx(y - 6)}" '
            f'text-anchor="middle" font-size="12">{_escape(f"{value:g}")}</text>'
        )
        body.append(
            f'  <text x="{_fx(x + bar_width / 2)}" y="{HEIGHT - MARGIN + 16}" '
            f'text-anchor="middle" font-size="12">{_escape(label)}</text>'
        )
    return _document(body, title)


def _spider(chart: ChartData, title: str) -> str:
    series = chart.series
    cx, cy = WIDTH / 2, HEIGHT / 2
    radius = min(WIDTH, HEIGHT) / 2 - MARGIN
    vmax = float(chart.meta.get("max", 0.0)) or max(v for _, v in series) or 1.0  # type: ignore[arg-type]
    count = len(series)
    body = []
    points = []
    for index, (label, value) in enumerate(series):
        angle = -math.pi / 2 + 2 * math.pi * index / count
        ax = cx + radius * math.cos(angle)
        ay = cy + radius * math.sin(angle)
        body.append(
            f'  <line x1="{_fx(cx)}" y1="{_fx(cy)}" x2="{_fx(ax)}" '
            f'y2="{_fx(ay)}" stroke="{_AXIS_STROKE}"/>'
        )
        lx = cx + (radius + 14) * math.cos(angle)
        ly = cy + (radius + 14) * math.sin(angle)
        body.append(
            f'  <text x="{_fx(lx)}" y="{_fx(ly)}" text-anchor="middle" '
            f'font-size="12">{_escape(f"{label} ({value:g})")}</text>'
        )
        reach = radius * (value / vmax)
        points.append(
            f"{_fx(cx + reach * math.cos(angle))},{_fx(cy + reach * math.sin(angle))}"
        )
    body.append(
        f'  <polygon points="{" ".join(points)}" fill="{_BAR_FILL}" '
        f'fill-opacity="0.4" stroke="{_BAR_FILL}"/>'
    )
    return _document(body, title)


def _tag_cloud(chart: ChartData, title: str) -> str:
    members = chart.meta.get("members", {})
    body = []
    y = MARGIN + 20
    for label, scale in chart.series:
        font = 12.0 * scale
        body.append(
            f'  <text x="{MARGIN}" y="{_fx(y)}" font-size="{_fx(font)}">'
            f"{_escape(label)}</text>"
        )
        liked_by = members.get(label) if isinstance(members, dict) else None
        if liked_by:
            body.append(
                f'  <text x="{WIDTH - MARGIN}" y="{_fx(y)}" text-anchor="end" '
                f'font-size="10">({_escape(", ".join(liked_by))})</text>'
            )
        y += font + 10
    return _document(body, title)


def render_svg(chart: ChartData) -> str:
    """Turn any ChartData into a standalone SVG document."""
    title = f"{chart.kind}"
    if "item" in chart.meta:
        title = f"{chart.kind}: {chart.meta['item']}"
    if chart.kind in ("histogram", "bar"):
        return _bars(chart, title)
    if chart.kind == "spider":
        return _spider(chart, title)
    if chart.kind == "tag-cloud":
        return _tag_cloud(chart, title)
    raise ValueError(f"unknown chart kind {chart.kind!r}")
