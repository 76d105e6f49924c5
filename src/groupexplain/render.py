"""Presentation layer: verbal templates, display rounding and chart data.

Templates live in the packaged ``templates/catalog.txt`` (one
``template-id: text`` line each); slot markers look like ``{slot}``.
``render_explanation`` is the one way to fill a template. Charts are
neutral ChartData records that the SVG backend (or any other frontend) can
draw. Bar charts have no builder here: the caller builds them from the
values it prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import RATING_MAX
from .errors import (
    InsufficientAxesError,
    MissingSlotError,
    UnknownTemplateError,
    WeightOutOfRangeError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .cf import RatingHistogram

PRIVACY_NAMED = "named"
PRIVACY_ANONYMOUS = "anonymous"
PRIVACIES = (PRIVACY_NAMED, PRIVACY_ANONYMOUS)

_SLOT = re.compile(r"\{([a-z0-9_]+)\}")


def _quantize(value: float, places: int, rounding: str) -> float:
    # from 2**52 up a float has no fraction left to round, and quantizing
    # it could need more than Decimal's 28 digits (1e26 at 2 places)
    if abs(value) >= 2.0**52:
        return float(value)
    # 12-decimal snap so binary noise (0.1*0.35 = 0.03499...96) cannot
    # straddle a rounding boundary; real data never needs that precision
    snapped = Decimal(repr(round(value, 12)))
    return float(snapped.quantize(Decimal(1).scaleb(-places), rounding=rounding))


def display_round(value: float, places: int = 2) -> float:
    """Round for display, halves away from zero. Internal math never uses this."""
    return _quantize(value, places, ROUND_HALF_UP)


def display_trunc(value: float, places: int = 2) -> float:
    """Truncate toward zero, used only for critique support display (2/3 -> 0.66)."""
    return _quantize(value, places, ROUND_DOWN)


def fmt_num(value: float) -> str:
    """Format a number for verbal templates: 2 decimals, one trailing zero dropped."""
    text = f"{display_round(value):.2f}"
    return text[:-1] if text.endswith("0") else text


def join_names(names: Sequence[str]) -> str:
    names = list(names)
    if not names:
        return "none"
    if len(names) == 1:
        return names[0]
    if len(names) == 2:
        return f"{names[0]} and {names[1]}"
    return ", ".join(names[:-1]) + f", and {names[-1]}"


def format_slot(value: object) -> str:
    if isinstance(value, bool):
        return "y" if value else "n"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_num(value)
    if isinstance(value, (list, tuple)):
        return join_names([format_slot(v) for v in value])
    return str(value)


def _parse_catalog(text: str) -> dict[str, str]:
    """Id -> template text, parsed from ``id: text`` lines."""
    templates: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ": " not in line:
            raise ValueError(f"catalog line {lineno} is not 'id: text'")
        template_id, body = line.split(": ", 1)
        templates[template_id.strip()] = body
    return templates


@cache
def _catalog() -> dict[str, str]:
    text = (
        resources.files("groupexplain")
        .joinpath("templates/catalog.txt")
        .read_text(encoding="utf-8")
    )
    return _parse_catalog(text)


@dataclass(frozen=True)
class Explanation:
    """A rendered verbal explanation plus the slots it was filled from."""

    template_id: str
    slots: Mapping[str, object]
    text: str


def render_explanation(
    template_id: str, privacy: str, slots: Mapping[str, object]
) -> Explanation:
    """Fill a template of the packaged catalog and wrap the result.

    ``template_id`` may be a base id; the privacy-specific variant
    (``<id>-named`` / ``<id>-anonymous``) wins when the catalog has one.
    Every marker is filled in one pass, so a slot value is never scanned
    for markers of its own; one that carries a marker is rejected.
    """
    if privacy not in PRIVACIES:
        raise ValueError(f"privacy must be one of {PRIVACIES}, got {privacy!r}")
    templates = _catalog()
    resolved = f"{template_id}-{privacy}"
    if resolved not in templates:
        resolved = template_id
    if resolved not in templates:
        raise UnknownTemplateError(f"no template {template_id!r} in catalog")

    def fill(match: re.Match) -> str:
        marker = match.group(1)
        if marker not in slots:
            raise MissingSlotError(f"template {resolved!r} needs slot {marker!r}")
        return format_slot(slots[marker])

    text = _SLOT.sub(fill, templates[resolved])
    leftover = _SLOT.search(text)
    if leftover:  # a slot value smuggled a marker in
        raise MissingSlotError(
            f"template {resolved!r} left marker {leftover.group(0)!r} unfilled"
        )
    return Explanation(
        template_id=resolved, slots=MappingProxyType(dict(slots)), text=text
    )


@dataclass(frozen=True)
class ChartData:
    """Frontend-neutral chart: kind, (label, value) series, metadata."""

    kind: str
    series: tuple[tuple[str, float], ...]
    meta: Mapping[str, object] = field(default_factory=dict)


def histogram_chart(histogram: "RatingHistogram") -> ChartData:
    """Three bars (bad / neutral / good) for a rating histogram."""
    counts = histogram.counts
    return ChartData(
        kind="histogram",
        series=(
            ("bad", float(counts.bad)),
            ("neutral", float(counts.neutral)),
            ("good", float(counts.good)),
        ),
        meta={"item": histogram.item},
    )


def spider_chart(group_ratings: Mapping[str, float], item: str) -> ChartData:
    """One axis per neighbor group; needs at least three axes to be drawable."""
    if len(group_ratings) < 3:
        raise InsufficientAxesError(
            f"spider chart needs >= 3 axes, got {len(group_ratings)}"
        )
    series = tuple((gid, float(group_ratings[gid])) for gid in sorted(group_ratings))
    return ChartData(
        kind="spider",
        series=series,
        meta={"item": item, "max": RATING_MAX},
    )


def tag_cloud(
    tag_weights: Mapping[str, float],
    member_likes: Mapping[str, Sequence[str]] | None = None,
    privacy: str = PRIVACY_NAMED,
) -> ChartData:
    """Tags sized by preference weight: font scale = 1 + 2 * weight.

    Member annotations survive only in named mode.
    """
    for tag, weight in tag_weights.items():
        if not 0.0 <= weight <= 1.0:
            raise WeightOutOfRangeError(f"tag {tag!r} weight {weight} outside [0, 1]")
    series = tuple(
        (tag, 1.0 + 2.0 * tag_weights[tag]) for tag in sorted(tag_weights)
    )
    meta: dict[str, object] = {}
    if privacy == PRIVACY_NAMED and member_likes:
        meta["members"] = {
            tag: tuple(sorted(member_likes[tag])) for tag in sorted(member_likes)
        }
    return ChartData(kind="tag-cloud", series=series, meta=meta)
