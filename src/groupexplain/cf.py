"""Collaborative-filtering explanations.

Histograms over neighbor ratings, verbal aggregation explanations and the
leave-one-item-out influence analysis described by the social style of
explaining a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .core import (
    AggregationStrategy,
    Group,
    RatingsMatrix,
    aggregate,
    categorize_rating,
    knn_neighbors,
    predict_rating,
    RatingBucket,
)
from .errors import (
    EmptyGroupSetError,
    MissingRatingError,
    NoPredictionBasisError,
    UnknownUserError,
)
from .render import Explanation, PRIVACY_NAMED, render_explanation

SOURCE_MEMBER_NEIGHBORS = "member-neighbors"
SOURCE_NEIGHBOR_GROUPS = "neighbor-groups"

NN_MODE_UNION = "union"
NN_MODE_INTERSECTION = "intersection"


class HistogramCounts(NamedTuple):
    bad: int
    neutral: int
    good: int

    @property
    def total(self) -> int:
        return self.bad + self.neutral + self.good


@dataclass(frozen=True)
class RatingHistogram:
    """Bucketed rating counts for one item from one source population."""

    item: str
    counts: HistogramCounts
    source: str


@dataclass(frozen=True)
class NeighborAssignment:
    """Per-member nearest-neighbor lists plus the set-combination mode."""

    neighbors: Mapping[str, tuple[str, ...]]
    mode: str = NN_MODE_UNION

    def __post_init__(self):
        if self.mode not in (NN_MODE_UNION, NN_MODE_INTERSECTION):
            raise ValueError(f"unknown neighbor mode {self.mode!r}")

    @classmethod
    def from_knn(
        cls,
        matrix: RatingsMatrix,
        group: Group,
        k: int = 2,
        mode: str = NN_MODE_UNION,
    ) -> "NeighborAssignment":
        lists = {
            member: tuple(v for v, _ in knn_neighbors(matrix, member, k))
            for member in group.members
        }
        return cls(neighbors=lists, mode=mode)

    def effective_users(self) -> tuple[str, ...]:
        """The neighbor set the histogram draws from, ascending."""
        sets = [set(lst) for lst in self.neighbors.values()]
        if not sets:
            return ()
        if self.mode == NN_MODE_UNION:
            merged = set().union(*sets)
        else:
            merged = set.intersection(*sets)
        return tuple(sorted(merged))


def _bucket_counts(ratings: Sequence[float]) -> HistogramCounts:
    tally = {RatingBucket.BAD: 0, RatingBucket.NEUTRAL: 0, RatingBucket.GOOD: 0}
    for value in ratings:
        tally[categorize_rating(value)] += 1
    return HistogramCounts(
        bad=tally[RatingBucket.BAD],
        neutral=tally[RatingBucket.NEUTRAL],
        good=tally[RatingBucket.GOOD],
    )


def nn_rating_histogram(
    matrix: RatingsMatrix, assignment: NeighborAssignment, item: str
) -> RatingHistogram:
    """Bucket the ratings of the assigned neighbors for one item.

    Every effective neighbor must have rated the item; a gap raises
    missing-rating naming the neighbor.
    """
    ratings = []
    for user in assignment.effective_users():
        value = matrix.get(user, item)
        if value is None:
            raise MissingRatingError(f"neighbor {user!r} has not rated item {item!r}")
        ratings.append(value)
    return RatingHistogram(
        item=item, counts=_bucket_counts(ratings), source=SOURCE_MEMBER_NEIGHBORS
    )


def group_rating_histogram(
    group_ratings: Mapping[str, float], item: str
) -> RatingHistogram:
    """Bucket the ratings that similar groups gave one item."""
    if not group_ratings:
        raise EmptyGroupSetError(f"no neighbor groups rated item {item!r}")
    return RatingHistogram(
        item=item,
        counts=_bucket_counts(list(group_ratings.values())),
        source=SOURCE_NEIGHBOR_GROUPS,
    )


def aggregation_explanation(
    item: str,
    scores: Mapping[str, float],
    strategy: AggregationStrategy,
    privacy: str = PRIVACY_NAMED,
) -> Explanation:
    """Verbal explanation of the aggregated group score.

    The raw aggregate lands in the ``score`` slot bit-for-bit; the rendered
    text formats it for display. Anonymous variants drop contributor names
    and speak in cardinalities.
    """
    value, contributors = aggregate(scores, strategy)
    slots: dict[str, object] = {
        "item": item,
        "score": value,
        "count": len(contributors),
        "total": len(scores),
    }
    if privacy == PRIVACY_NAMED:
        slots["users"] = tuple(contributors)
    return render_explanation(
        paradigm="collaborative",
        template_id=f"cf-{strategy.value}",
        privacy=privacy,
        slots=slots,
    )


@dataclass(frozen=True)
class ItemInfluence:
    """Result of removing one item: mean absolute prediction shift."""

    item: str
    delta: float
    basis_destroying: bool


def influential_items(
    matrix: RatingsMatrix, group: Group, target: str, k: int = 2
) -> list[ItemInfluence]:
    """Rank rated items by how much their removal moves the group prediction.

    For each item some member rated (except the target) the whole rating
    column is removed and every member's prediction for the target is
    recomputed; delta is the mean absolute shift over members that still
    have a prediction. Removals that strip a member of any basis are
    flagged basis-destroying rather than treated as errors.
    """
    base: dict[str, float] = {}
    for member in group.members:
        try:
            base[member] = predict_rating(matrix, member, target, k)
        except (NoPredictionBasisError, UnknownUserError):
            continue
    if not base:
        raise NoPredictionBasisError(
            f"no member of {group.id!r} has a prediction for {target!r}"
        )
    candidates = sorted(
        {
            item
            for member in group.members
            for item in matrix.items_rated_by(member)
            if item != target
        }
    )
    results = []
    for candidate in candidates:
        reduced = matrix.without_item(candidate)
        deltas = []
        destroying = False
        for member, before in base.items():
            try:
                after = predict_rating(reduced, member, target, k)
            except (NoPredictionBasisError, UnknownUserError):
                destroying = True
                continue
            deltas.append(abs(after - before))
        delta = math.fsum(deltas) / len(deltas) if deltas else 0.0
        results.append(
            ItemInfluence(item=candidate, delta=delta, basis_destroying=destroying)
        )
    results.sort(key=lambda r: (-r.delta, r.item))
    return results
