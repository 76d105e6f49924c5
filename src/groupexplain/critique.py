"""Critiquing-based explanations.

Members state critiques over item attributes (price <= 750, resolution
>= 20, ...). ``support_matrix`` checks each critique once; every view reads
that result. The support of an attribute is the share of its critiques the
item satisfies. A member is satisfied on an attribute (a matrix cell) when
the item satisfies every critique that member stated on it. The summary
puts an attribute in the unanimous band (support 1.0), the none band
(support 0.0) or the partial band, whose sentence names or counts the
members with a true cell.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .core import Critique, Group, Item
from .errors import NoCritiquesError
from .render import Explanation, PRIVACY_NAMED, render_explanation


def group_critiques(critiques: Sequence[Critique], group: Group) -> list[Critique]:
    """The critiques stated by members of the group, in list order."""
    return [c for c in critiques if c.author in group.members]


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
    return support_matrix(on_attribute, item).supports[attribute]


class SupportMatrix(NamedTuple):
    """Per (author, attribute) satisfaction and per attribute support, one item.

    Cells exist only for pairs that actually have a critique; rows and
    columns are sorted ascending. ``supports`` keeps the attributes in
    first-appearance order.
    """

    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: Mapping[tuple[str, str], bool]
    supports: Mapping[str, float]


def support_matrix(critiques: Sequence[Critique], item: Item) -> SupportMatrix:
    """Check every critique once: attribute by attribute, in list order."""
    if not critiques:
        raise NoCritiquesError("no critiques given")
    cells: dict[tuple[str, str], bool] = {}
    supports: dict[str, float] = {}
    for attribute in attribute_order(critiques):
        on_attribute = [c for c in critiques if c.attribute == attribute]
        verdicts = [(c.author, c.satisfied_by(item)) for c in on_attribute]
        supports[attribute] = sum(v for _, v in verdicts) / len(verdicts)
        for author, verdict in verdicts:
            # an author restating an attribute must be satisfied on all counts
            key = (author, attribute)
            cells[key] = cells.get(key, True) and verdict
    rows = tuple(sorted({author for author, _ in cells}))
    columns = tuple(sorted(supports))
    return SupportMatrix(rows=rows, columns=columns, cells=cells, supports=supports)


def summary_explanation(matrix: SupportMatrix, item: Item, privacy: str) -> Explanation:
    """Sentence-per-attribute summary of a support matrix for its item.

    Unanimously satisfied attributes come first, then partially satisfied
    ones, then unsupported ones; inside each band the attributes keep
    their first-appearance order.
    """
    bands: dict[str, list[str]] = {"unanimous": [], "partial": [], "none": []}
    for attribute, support in matrix.supports.items():
        band = {1.0: "unanimous", 0.0: "none"}.get(support, "partial")
        bands[band].append(attribute)
    sentences = []
    for band, attributes in bands.items():
        for attribute in attributes:
            slots: dict[str, object] = {
                "attribute": attribute,
                "item": item.id,
                "value": item.attributes[attribute],
            }
            if band == "partial":
                cells = sorted(
                    (a, v) for (a, attr), v in matrix.cells.items() if attr == attribute
                )
                satisfied = tuple(author for author, v in cells if v)
                if privacy == PRIVACY_NAMED:
                    slots["satisfied"] = satisfied
                    slots["unsatisfied"] = tuple(author for author, v in cells if not v)
                else:
                    slots["satisfied_count"] = len(satisfied)
                    slots["total"] = len(cells)
            template = f"critique-{band}"
            sentences.append(render_explanation(template, privacy, slots).text)
    return render_explanation(
        "critique-summary", privacy, {"item": item.id, "sentences": " ".join(sentences)}
    )


def critique_explanation(
    critiques: Sequence[Critique],
    item: Item,
    privacy: str = PRIVACY_NAMED,
) -> Explanation:
    """The verbal summary of how the item meets the critiques."""
    return summary_explanation(support_matrix(critiques, item), item, privacy)
