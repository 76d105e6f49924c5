"""Collaborative-filtering explanations.

Histograms over neighbor ratings, verbal aggregation explanations and the
leave-one-item-out influence analysis described by the social style of
explaining a prediction.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .core import (
    NN_MODE_INTERSECTION,
    NN_MODE_UNION,
    AggregationStrategy,
    Group,
    RatingsMatrix,
    aggregate,
    categorize_rating,
    RatingBucket,
    _mean,
    _nearest,
    _predict,
    _ranked,
    _similarities,
    _similarity,
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


class HistogramCounts(NamedTuple):
    bad: int
    neutral: int
    good: int

    @property
    def total(self) -> int:
        return self.bad + self.neutral + self.good


class RatingHistogram(NamedTuple):
    """Bucketed rating counts for one item from one source population."""

    item: str
    counts: HistogramCounts
    source: str


class MemberPrediction(NamedTuple):
    """One member's similarity map, k nearest neighbors and prediction."""

    similarities: dict[str, float]
    neighbors: list[tuple[str, float]]
    prediction: float | None


def member_predictions(
    matrix: RatingsMatrix, group: Group, item: str | None, k: int = 2
) -> dict[str, MemberPrediction]:
    """The members who take part in a CF explanation, in group order.

    Members without ratings never take part. Without an *item* the others
    do, with prediction None; with one, only those whose k nearest
    neighbors include a rater of it, with ``predict_rating``'s prediction.
    Raises unknown-user, or no-prediction-basis given an item, when no one
    takes part. Each member's similarity map is computed once.
    """
    found = {}
    for member in group.members:
        if not matrix.has_user(member):
            continue
        scored = _similarities(matrix, member)
        nearest = _nearest(scored, k)
        prediction = None
        if item is not None:
            try:
                prediction = _predict(matrix, member, item, nearest, matrix.user_mean)
            except NoPredictionBasisError:
                continue
        found[member] = MemberPrediction(scored, nearest, prediction)
    if not found and item is None:
        raise UnknownUserError(f"no member of {group.id!r} has ratings")
    if not found:
        raise NoPredictionBasisError(
            f"no member of {group.id!r} has a prediction for {item!r}"
        )
    return found


class NeighborAssignment(
    NamedTuple("NeighborAssignment", [("neighbors", Mapping), ("mode", str)])
):
    """Per-member nearest-neighbor lists plus the set-combination mode."""

    __slots__ = ()

    def __new__(
        cls, neighbors: Mapping[str, tuple[str, ...]], mode: str = NN_MODE_UNION
    ):
        if mode not in (NN_MODE_UNION, NN_MODE_INTERSECTION):
            raise ValueError(f"unknown neighbor mode {mode!r}")
        return super().__new__(cls, neighbors, mode)

    @classmethod
    def from_knn(
        cls,
        matrix: RatingsMatrix,
        group: Group,
        k: int = 2,
        mode: str = NN_MODE_UNION,
    ) -> "NeighborAssignment":
        """The neighbor lists of the members with ratings."""
        taking_part = member_predictions(matrix, group, None, k)
        lists = {m: tuple(v for v, _ in p.neighbors) for m, p in taking_part.items()}
        return cls(neighbors=lists, mode=mode)

    def effective_users(self) -> tuple[str, ...]:
        """The neighbor set the histogram draws from, ascending."""
        sets = [set(lst) for lst in self.neighbors.values()]
        if not sets:
            return ()
        combine = set.union if self.mode == NN_MODE_UNION else set.intersection
        return tuple(sorted(combine(*sets)))


def _bucket_counts(ratings: Sequence[float]) -> HistogramCounts:
    buckets = [categorize_rating(value) for value in ratings]
    # RatingBucket declares bad, neutral, good: the order of the fields
    return HistogramCounts(*(buckets.count(bucket) for bucket in RatingBucket))


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
    return render_explanation(f"cf-{strategy.value}", privacy, slots)


class ItemInfluence(NamedTuple):
    """Result of removing one item: mean absolute prediction shift."""

    item: str
    delta: float
    basis_destroying: bool


def influential_items(
    matrix: RatingsMatrix, group: Group, target: str, k: int = 2
) -> list[ItemInfluence]:
    """Rank rated items by how much their removal moves the group prediction.

    For each item some member rated (except the target) the whole rating
    column is removed and the prediction of each member taking part
    (``member_predictions``) is recomputed; delta is the mean absolute shift
    over members that still have a prediction. Removals that strip a member
    of any basis are flagged basis-destroying rather than treated as errors.

    The matrix is never copied. Each member's similarities to all other
    users are computed once; removing an item then re-scores only the pairs
    in which both users rated it (exactly, with ``pearson`` on the
    remaining co-rated items; a pair left with fewer than two drops out),
    re-ranks only the neighbors of members who rated it, and recomputes
    only the means of users who rated it. The result equals rebuilding the
    matrix without the item's ratings and calling ``predict_rating`` for
    each member, bit for bit.
    """
    base = member_predictions(matrix, group, target, k)
    rows = {user: matrix.items_rated_by(user) for user in matrix.users()}
    means = {user: _mean(row) for user, row in rows.items()}
    rated = {item for member in group.members for item in rows.get(member, ())}
    results = []
    for candidate in sorted(rated - {target}):

        def mean(user: str) -> float:
            row = rows[user]
            return _mean(row, candidate) if candidate in row else means[user]

        deltas = []
        destroying = False
        # A member with a prediction has a neighbor, hence two ratings, so
        # no removal leaves a member without ratings.
        for member, (scored, nearest, before) in base.items():
            own = rows[member]
            if candidate in own:
                rescored = dict(scored)
                for other in scored:
                    if candidate in rows[other]:
                        sim = _similarity(own, rows[other], candidate)
                        if sim is None:
                            del rescored[other]
                        else:
                            rescored[other] = sim
                nearest = _nearest(rescored, k)
            try:
                after = _predict(matrix, member, target, nearest, mean)
            except NoPredictionBasisError:
                destroying = True
                continue
            deltas.append(abs(after - before))
        delta = math.fsum(deltas) / len(deltas) if deltas else 0.0
        results.append(
            ItemInfluence(item=candidate, delta=delta, basis_destroying=destroying)
        )
    return _ranked(results)
