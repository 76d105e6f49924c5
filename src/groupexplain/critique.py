"""Critiquing-based explanations.

Members state critiques over item attributes (price <= 750, resolution
>= 20, ...); support of an attribute for an item is the share of its
critiques the item satisfies. The verbal summary groups attributes into
unanimous, partially supported and unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Item, satisfies
from .errors import MissingAttributeError, NoCritiquesError
from .render import Explanation, PRIVACY_NAMED, render_explanation


@dataclass(frozen=True)
class Critique:
    """One member's unit critique on a single item attribute."""

    author: str
    attribute: str
    operator: str
    bound: object

    def satisfied_by(self, item: Item) -> bool:
        if self.attribute not in item.attributes:
            raise MissingAttributeError(
                f"item {item.id!r} lacks attribute {self.attribute!r}"
            )
        return satisfies(item.attributes[self.attribute], self.operator, self.bound)


def attribute_order(critiques: Sequence[Critique]) -> tuple[str, ...]:
    """Attributes in first-appearance order across the critique list."""
    seen: dict[str, None] = {}
    for critique in critiques:
        seen.setdefault(critique.attribute, None)
    return tuple(seen)


def critique_support(
    critiques: Sequence[Critique], attribute: str, item: Item
) -> float:
    """Fraction of the critiques on one attribute that the item satisfies."""
    on_attribute = [c for c in critiques if c.attribute == attribute]
    if not on_attribute:
        raise NoCritiquesError(f"no critiques on attribute {attribute!r}")
    satisfied = sum(1 for c in on_attribute if c.satisfied_by(item))
    return satisfied / len(on_attribute)


@dataclass(frozen=True)
class SupportMatrix:
    """Per (author, attribute) satisfaction for one item.

    Cells exist only for pairs that actually have a critique; rows and
    columns are sorted ascending.
    """

    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: Mapping[tuple[str, str], bool]


def support_matrix(critiques: Sequence[Critique], item: Item) -> SupportMatrix:
    if not critiques:
        raise NoCritiquesError("no critiques given")
    cells: dict[tuple[str, str], bool] = {}
    for critique in critiques:
        key = (critique.author, critique.attribute)
        verdict = critique.satisfied_by(item)
        # an author restating an attribute must be satisfied on all counts
        cells[key] = cells.get(key, True) and verdict
    rows = tuple(sorted({author for author, _ in cells}))
    columns = tuple(sorted({attribute for _, attribute in cells}))
    return SupportMatrix(rows=rows, columns=columns, cells=cells)


def critique_explanation(
    critiques: Sequence[Critique],
    item: Item,
    privacy: str = PRIVACY_NAMED,
) -> Explanation:
    """Sentence-per-attribute summary of how the item meets the critiques.

    Unanimously satisfied attributes come first, then partially satisfied
    ones, then unsupported ones; inside each band the attributes keep
    their first-appearance order.
    """
    if not critiques:
        raise NoCritiquesError("no critiques given")
    bands: dict[str, list[str]] = {"unanimous": [], "partial": [], "none": []}
    details: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for attribute in attribute_order(critiques):
        on_attribute = [c for c in critiques if c.attribute == attribute]
        satisfied = sorted(
            {c.author for c in on_attribute if c.satisfied_by(item)}
        )
        unsatisfied = sorted(
            {c.author for c in on_attribute} - set(satisfied)
        )
        details[attribute] = (tuple(satisfied), tuple(unsatisfied))
        if not unsatisfied:
            bands["unanimous"].append(attribute)
        elif satisfied:
            bands["partial"].append(attribute)
        else:
            bands["none"].append(attribute)
    sentences = []
    for band in ("unanimous", "partial", "none"):
        for attribute in bands[band]:
            satisfied, unsatisfied = details[attribute]
            slots: dict[str, object] = {
                "attribute": attribute,
                "item": item.id,
                "value": item.attributes[attribute],
            }
            if band == "unanimous":
                template = "critique-unanimous"
            elif band == "none":
                template = "critique-none"
            else:
                template = "critique-partial"
                if privacy == PRIVACY_NAMED:
                    slots["satisfied"] = satisfied
                    slots["unsatisfied"] = unsatisfied
                else:
                    slots["satisfied_count"] = len(satisfied)
                    slots["total"] = len(satisfied) + len(unsatisfied)
            sentences.append(render_explanation(template, privacy, slots).text)
    return render_explanation(
        "critique-summary", privacy, {"item": item.id, "sentences": " ".join(sentences)}
    )
