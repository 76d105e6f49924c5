"""Constraint-based explanations: requirements, MAUT dimensions, fairness.

Covers relevance of group requirements, causal relevance against a
catalog, utility dimensions, fairness bookkeeping over past decisions and
minimal relaxations when the requirements filter everything away.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import compress, repeat
from operator import and_, not_
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (
    DecisionHistory,
    Group,
    InterestDimension,
    Item,
    Requirement,
    _column,
    _fast_compare,
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


def _verdicts(
    requirement: Requirement, read: tuple[list, set], items: Sequence[Item]
) -> Iterable[bool]:
    """``requirement.matches`` per item, over the column *read* of ``core._column``.

    A well-formed column (``core._fast_compare``) gives a lazy C-level
    ``map``, which a caller may stop early. Any other column is checked
    item by item at once, every item, so the first item in catalog order
    that lacks the attribute raises ``MissingAttributeError``, or under
    ``<=``/``>=`` holds a non-number raises ``InvalidValueError``.
    """
    column, kinds = read
    compare = _fast_compare(requirement.operator, kinds)
    if compare is None:
        return [requirement.matches(item) for item in items]
    return map(compare, column, repeat(requirement.bound))


def causally_relevant(requirement: Requirement, items: Sequence[Item]) -> bool:
    """True when the requirement actually filters something out.

    The attribute column is read once and its value types checked, so any
    error is raised as ``_verdicts`` says; a well-formed column is then
    compared only up to the first item it filters out. False on an empty
    catalog.
    """
    return not all(_verdicts(requirement, _column(requirement.attribute, items), items))


def constrained_items(
    requirements: Sequence[Requirement], items: Mapping[str, Item]
) -> list[Item]:
    """The items, by id, that carry every attribute the requirements talk about."""
    needed = {req.attribute for req in requirements}
    return [item for _, item in sorted(items.items()) if item.attributes.keys() >= needed]


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
    Each attribute column is read once (``core._column``) and each
    requirement checked over it as ``_verdicts`` says, O(items x
    requirements) checks in all. Every pair is evaluated. If a column
    raises, the pairs are checked again item by item, each item's
    requirements in the order their ids first appear, and the first error
    is raised: that of the first failing item and its first failing
    requirement, whatever column raised. So an item lacking a required
    attribute raises ``MissingAttributeError`` whatever the requirement
    order.

    Each requirement's verdicts become one int, ``failing``, with one byte
    lane per item (lane i is 1 when item i violates it), and ``meeting``
    is its complement in ``every``. The survivors of R are then the AND of
    ``meeting`` over the requirements outside R. If some item meets every
    requirement there is nothing to relax. Otherwise ``left`` starts as
    every item, and each round takes the first item left, sets R to its
    violation set and makes one pass over R, putting back each
    requirement that some survivor still meets (the survivors shrink to
    those that meet it too). The round emits R and its survivors, and
    clears from ``left`` every item that violates all of R.

    * Survivors only shrink as R shrinks, so a requirement that could not
      be put back once cannot be later: one pass is enough.
    * The final R has survivors, but none once any one of its requirements
      is put back. So R is some item's violation set (a survivor's
      violation set lies inside R, and a strict subset has no survivors),
      and no item's violation set is a strict subset of it: R is minimal.
    * Each round clears the item it started from, and a round starts only
      from an item whose violation set holds no R found so far, so it
      finds a new R; an item is cleared only once the R inside its
      violation set is found, so every minimal R is. The loop runs
      exactly once per proposal, with O(requirements) int operations each.

    Empty list when the requirements already admit an item. Proposals are
    ordered by cardinality, then lexicographically by removed ids; a
    repeated requirement id counts once, as its last occurrence, and a
    repeated item id is a survivor as often as it occurs.
    """
    if not items:
        raise EmptyCatalogError("item catalog is empty")
    by_id = {req.id: req for req in requirements}
    try:
        reads = {at: _column(at, items) for at in {req.attribute for req in by_id.values()}}
        rows = [
            bytes(map(not_, _verdicts(req, reads[req.attribute], items)))
            for req in by_id.values()
        ]
    except Exception:  # whatever a check raised, the pair-by-pair order decides
        try:
            for item in items:
                for req in by_id.values():
                    req.matches(item)
        except Exception as first:
            raise first from None
        raise
    every = int.from_bytes(b"\1" * len(items), "little")
    failing = [int.from_bytes(row, "little") for row in rows]
    meeting = [every ^ fails for fails in failing]
    if reduce(and_, meeting, every):
        return []
    ids = [item.id for item in items]
    proposals = []
    left = every
    while left:
        first = (left & -left).bit_length() // 8  # lane i is bit 8 i
        inside, own = every, []
        for rid, row, meets, fails in zip(by_id, rows, meeting, failing):
            if row[first]:
                own.append((rid, meets, fails))
            else:
                inside &= meets
        removed, cover = [], every
        for rid, meets, fails in own:
            if shrunk := inside & meets:
                inside = shrunk
            else:
                removed.append(rid)
                cover &= fails
        left &= ~cover
        survivors = compress(ids, inside.to_bytes(len(ids), "little"))
        proposals.append(RelaxationProposal(tuple(sorted(removed)), tuple(sorted(survivors))))
    proposals.sort(key=lambda proposal: (len(proposal.removed), proposal.removed))
    return proposals
