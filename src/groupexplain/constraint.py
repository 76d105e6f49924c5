"""Constraint-based explanations: requirements, MAUT dimensions, fairness.

Covers relevance of group requirements, causal relevance against a
catalog, utility dimensions, fairness bookkeeping over past decisions and
minimal relaxations when the requirements filter everything away.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import not_
from typing import Mapping, NamedTuple, Sequence

from .core import (
    DecisionHistory,
    Group,
    InterestDimension,
    Item,
    Requirement,
    _column_holds,
    _ranked,
)
from .errors import (
    EmptyCatalogError,
    MissingImportanceError,
    MissingWeightError,
    UnknownUserError,
)


def _member_importances(group: Group, owner, gap: type) -> list[float]:
    """Each member's importance in a requirement or dimension; a gap raises *gap*."""
    noun = "requirement" if isinstance(owner, Requirement) else "dimension"
    for member in group.members:
        if member not in owner.importance:
            raise gap(f"{noun} {owner.id!r} has no importance for {member!r}")
    return [owner.importance[m] for m in group.members]


def requirement_relevance(group: Group, requirement: Requirement) -> float:
    """Group-mean importance of one requirement."""
    weights = _member_importances(group, requirement, MissingImportanceError)
    return math.fsum(weights) / len(weights)


def causally_relevant(requirement: Requirement, items: Sequence[Item]) -> bool:
    """True when the requirement actually filters something out.

    One column pass over the catalog (``core._column_holds``), O(items):
    the attribute is read once per item and the column is compared with
    one C-level ``map``. A column with a missing attribute, or under
    ``<=``/``>=`` a value that is not a plain ``int`` or ``float``, goes
    item by item instead, with the same verdicts. Every item is checked,
    so the first item in catalog order that lacks the attribute raises
    ``MissingAttributeError``, or under ``<=``/``>=`` holds a non-number
    raises ``InvalidValueError``. False on an empty catalog.
    """
    return not all(_column_holds(requirement, items))


def constrained_items(
    requirements: Sequence[Requirement], items: Mapping[str, Item]
) -> list[Item]:
    """The items, by id, that carry every attribute the requirements talk about."""
    needed = {req.attribute for req in requirements}
    return [item for _, item in sorted(items.items()) if needed <= set(item.attributes)]


def rank_requirements(
    group: Group, requirements: Sequence[Requirement], items: Mapping[str, Item]
) -> list[tuple[str, float, bool]]:
    """(id, relevance, causally relevant) per requirement, ranked by relevance.

    Causal relevance is judged on ``constrained_items``, after all relevances.
    """
    if not requirements:
        raise MissingImportanceError("dataset defines no requirements")
    relevance = [(req.id, requirement_relevance(group, req)) for req in requirements]
    catalog = constrained_items(requirements, items)
    causal = {req.id: causally_relevant(req, catalog) for req in requirements}
    return _ranked((rid, value, causal[rid]) for rid, value in relevance)


def maut_relevance(group: Group, dimension: InterestDimension, item: Item) -> float:
    """Group-mean of importance * contribution for one interest dimension."""
    if dimension.id not in item.dimension_contributions:
        raise MissingWeightError(
            f"item {item.id!r} has no contribution for dimension {dimension.id!r}"
        )
    contribution = item.dimension_contributions[dimension.id]
    weights = _member_importances(group, dimension, MissingWeightError)
    return math.fsum(w * contribution for w in weights) / len(weights)


def rank_dimensions(
    group: Group, dimensions: Sequence[InterestDimension], item: Item
) -> list[tuple[str, float, float]]:
    """(id, MAUT relevance, mean importance) per dimension, ranked by relevance."""
    if not dimensions:
        raise MissingWeightError("dataset defines no interest dimensions")
    rows = []
    for dim in dimensions:
        relevance = maut_relevance(group, dim, item)
        weights = _member_importances(group, dim, MissingWeightError)
        rows.append((dim.id, relevance, math.fsum(weights) / len(weights)))
    return _ranked(rows)


def fairness_degree(history: DecisionHistory, user: str) -> float:
    """Share of past decisions that supported the user."""
    if user not in history.records:
        raise UnknownUserError(f"user {user!r} has no decision history")
    supported, decisions = history.records[user]
    return supported / decisions


def _factor(mean: float, degree: float) -> float:
    """What ``adapt_weights`` multiplies the weights of a member with *degree* by."""
    return 1.0 + (mean - degree)


def group_fairness(
    group: Group, history: DecisionHistory
) -> tuple[dict[str, float], float, list[str]]:
    """Each member's fairness degree, their mean, and the members below it.

    The members below the mean, ascending, are exactly those whose weights
    ``adapt_weights`` raises: a degree within rounding of the mean is at it.
    The mean of equal degrees is that degree: fsum / n could drift by one ulp.
    """
    fairness = {m: fairness_degree(history, m) for m in group.members}
    values = list(fairness.values())
    mean = values[0] if max(values) == min(values) else math.fsum(values) / len(values)
    below = [m for m, f in sorted(fairness.items()) if _factor(mean, f) > 1.0]
    return fairness, mean, below


def adapt_weights(
    group: Group,
    weights: Mapping[str, Mapping[str, float]],
    history: DecisionHistory,
) -> dict[str, dict[str, float]]:
    """Scale each member's dimension weights by their fairness deficit.

    w'(u, d) = w(u, d) * (1 + (mean_fairness - fairness(u))), with the
    mean of ``group_fairness``. Members at the mean keep their weights;
    disadvantaged members gain.
    """
    fairness, mean, _ = group_fairness(group, history)
    adapted: dict[str, dict[str, float]] = {}
    for member in group.members:
        if member not in weights:
            raise MissingWeightError(f"no dimension weights for member {member!r}")
        factor = _factor(mean, fairness[member])
        adapted[member] = {
            dim: w * factor for dim, w in weights[member].items()
        }
    return adapted


class RelaxationProposal(NamedTuple):
    """A subset-minimal set of requirements whose removal restores items."""

    removed: tuple[str, ...]
    survivors: tuple[str, ...]


def relaxation_proposals(
    requirements: Sequence[Requirement], items: Sequence[Item]
) -> list[RelaxationProposal]:
    """Subset-minimal removal sets that make the catalog non-empty again.

    Removing a set R of requirements restores an item exactly when R holds
    every requirement the item violates. So the minimal R are the
    inclusion-minimal sets among the items' violation sets, and the
    survivors of R are the items whose violation set lies inside R.
    Each requirement is checked over the whole catalog in one column pass
    (``core._column_holds``: one attribute read per item and one C-level
    compare per requirement when the column is well formed, item by item
    otherwise), O(items x requirements) checks in all; each item's
    violation set is then picked out of its row of verdicts. There is no
    cap on the number of requirements.
    Every pair is evaluated. If a column raises, the pairs are checked
    again item by item, each item's requirements in the order their ids
    first appear, and the first error is raised: that of the first failing
    item and its first failing requirement, whatever column raised. So an
    item lacking a required attribute raises ``MissingAttributeError``
    whatever the requirement order.

    Empty list when the requirements already admit an item. Proposals are
    ordered by cardinality, then lexicographically by removed ids; a
    repeated requirement id counts once, as its last occurrence.
    """
    if not items:
        raise EmptyCatalogError("item catalog is empty")
    by_id = {req.id: req for req in requirements}
    try:
        columns = [_column_holds(req, items) for req in by_id.values()]
    except Exception:  # whatever a check raised, the pair-by-pair order decides
        try:
            for item in items:
                for req in by_id.values():
                    req.matches(item)
        except Exception as first:
            raise first from None
        raise
    violated = [frozenset(compress(by_id, map(not_, row))) for row in zip(*columns)]
    if not all(violated):
        return []
    # a strict subset is shorter, so it is kept before any of its supersets
    minimal: list[frozenset[str]] = []
    for own in sorted(set(violated), key=len):
        if not any(kept <= own for kept in minimal):
            minimal.append(own)
    minimal.sort(key=lambda removed: (len(removed), sorted(removed)))
    return [
        RelaxationProposal(
            removed=tuple(sorted(removed)),
            survivors=tuple(
                sorted(item.id for item, own in zip(items, violated) if own <= removed)
            ),
        )
        for removed in minimal
    ]
