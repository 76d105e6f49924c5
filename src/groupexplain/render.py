"""Presentation layer: verbal templates, display rounding and chart data.

Templates are the ``_TEMPLATES`` table below, one per line, so an output
sentence greps to its template; slot markers look like ``{slot}``.
``render_explanation`` is the one way to fill a template. Charts are
neutral ChartData records that the SVG backend (or any other frontend) can
draw. Bar charts have no builder here: the caller builds them from the
values it prints.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

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


def _quantize(value: float, places: int, half_up: bool) -> float:
    # from 2**52 up a float has no fraction left to round; NaN and the
    # infinities come back as they are
    if not abs(value) < 2.0**52:
        return float(value)
    # 12-decimal snap so binary noise (0.1*0.35 = 0.03499...96) cannot
    # straddle a rounding boundary; real data never needs that precision.
    # The snapped repr is exact as sign, integer digits and a power of ten.
    mantissa, _, exponent = repr(round(value, 12)).partition("e")
    sign = "-" if mantissa[0] == "-" else ""
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = int(whole + fraction)
    scale = len(fraction) - int(exponent or 0)  # the value is digits * 10**-scale
    if scale > places:
        unit = 10 ** (scale - places)
        digits, rest = divmod(digits, unit)
        if half_up and 2 * rest >= unit:  # a half goes away from zero
            digits += 1
        scale = places
    # a negative value that rounds to zero parses as -0.0; adding 0.0
    # makes it +0.0, so text and JSON print 0.0, not -0.0
    return float(f"{sign}{digits}e{-scale}") + 0.0


def display_round(value: float, places: int = 2) -> float:
    """Round for display, halves away from zero. Internal math never uses this."""
    return _quantize(value, places, True)


def display_trunc(value: float, places: int = 2) -> float:
    """Truncate toward zero, used only for critique support display (2/3 -> 0.66)."""
    return _quantize(value, places, False)


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
    if isinstance(value, float):
        return fmt_num(value)
    if isinstance(value, (list, tuple)):
        return join_names([format_slot(v) for v in value])
    return str(value)


# Id -> text. Ids ending in -named / -anonymous are privacy variants of
# the same base id.
_TEMPLATES = {
    "cf-avg-named": "item {item} is most similar to the ratings of users {users}",
    "cf-avg-anonymous": "item {item} is most similar to the ratings of all {total} group members",
    "cf-lms-named": "item {item} has a group score of {score} due to the (lowest) rating determined for user {users}",
    "cf-lms-anonymous": "item {item} is recommended because it avoids misery within the group",
    "cf-mpl-named": "item {item} has a group score of {score} due to the (highest) rating determined for user {users}",
    "cf-mpl-anonymous": "item {item} has a group score of {score} due to the (highest) rating determined for {count} of {total} group members",
    "cf-nn-histogram": "users similar to members of this group rated item {item} as follows",
    "cf-group-histogram": "groups similar to the current group rated item {item} as follows",
    "cf-histogram-counts": "bad: {bad}, neutral: {neutral}, good: {good}",
    "cf-influence": "removing item {influencer} changes the group prediction for item {item} the most (average shift {delta})",
    "cb-category-named": "item {item} is recommended since each group member is interested in category {category}",
    "cb-category-anonymous": "item {item} is recommended since the group as a whole is interested in category {category}",
    "cb-opinion": "item {item} is recommended because the group appreciates {pros}; potential drawbacks: {cons}",
    "cb-tags": "this group values items tagged {tags}",
    "constraint-requirement": "requirement {requirement} is considered important by the whole group",
    "constraint-maut": "item {item} is recommended since it supports {dimension}, the dimension most valued by the group",
    "constraint-fairness-named": "the interest dimensions favored by user {users} have been given more consideration since {users} was at a disadvantage in previous decisions",
    "constraint-fairness-anonymous": "the interest dimensions favored by {count} of {total} group members have been given more consideration to compensate for previous decisions",
    "constraint-fairness-balanced": "all group members were treated equally in previous decisions; no weights were adapted",
    "relax-proposal": "no item satisfies all current requirements; relaxing {requirements} makes {items} available",
    "relax-none": "the current requirements already allow a recommendation; no relaxation is needed",
    "critique-summary": "{sentences}",
    "critique-unanimous": "the {attribute} of item {item} ({value}) is clearly within the limits specified by the group members",
    "critique-partial-named": "the {attribute} of item {item} ({value}) satisfies the requirements of {satisfied}, however, {unsatisfied} has to accept minor drawbacks",
    "critique-partial-anonymous": "the {attribute} of item {item} ({value}) satisfies the requirements of {satisfied_count} of {total} group members",
    "critique-none": "the {attribute} of item {item} ({value}) does not satisfy any critique stated within the group",
}


class Explanation(NamedTuple):
    """A rendered verbal explanation plus the slots it was filled from."""

    template_id: str
    slots: Mapping[str, object]
    text: str


def render_explanation(
    template_id: str, privacy: str, slots: Mapping[str, object]
) -> Explanation:
    """Fill one of the ``_TEMPLATES`` and wrap the result.

    ``template_id`` may be a base id; the privacy-specific variant
    (``<id>-named`` / ``<id>-anonymous``) wins when there is one.
    Every marker is filled in one pass, so a slot value is never scanned
    for markers of its own; one that carries a marker is rejected.
    """
    if privacy not in PRIVACIES:
        raise ValueError(f"privacy must be one of {PRIVACIES}, got {privacy!r}")
    resolved = f"{template_id}-{privacy}"
    if resolved not in _TEMPLATES:
        resolved = template_id
    if resolved not in _TEMPLATES:
        raise UnknownTemplateError(f"no template {template_id!r} in catalog")

    def fill(match: re.Match) -> str:
        marker = match.group(1)
        if marker not in slots:
            raise MissingSlotError(f"template {resolved!r} needs slot {marker!r}")
        return format_slot(slots[marker])

    text = _SLOT.sub(fill, _TEMPLATES[resolved])
    leftover = _SLOT.search(text)
    if leftover:  # a slot value smuggled a marker in
        raise MissingSlotError(
            f"template {resolved!r} left marker {leftover.group(0)!r} unfilled"
        )
    return Explanation(
        template_id=resolved, slots=MappingProxyType(dict(slots)), text=text
    )


class ChartData(NamedTuple):
    """Frontend-neutral chart: kind, (label, value) series, metadata."""

    kind: str
    series: tuple[tuple[str, float], ...]
    meta: Mapping[str, object]


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
