"""Collaborative-filtering explanations.

Histograms over neighbor ratings, verbal aggregation explanations and the
leave-one-item-out influence analysis described by the social style of
explaining a prediction.
"""

from __future__ import annotations

import math
from bisect import insort
from operator import itemgetter
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
    _BOUNDS,
    _MEANS_WITHOUT,
    _NEAREST_WITHOUT,
    _SHIFTS,
    _centred,
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

    similarities: Mapping[str, float]
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
    takes part. Each member's similarity map is computed once per matrix.
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


# A pair whose smaller leave-one-out variance falls below this is scored
# exactly; its upper bound is +inf (see ``_removal_bounds``).
_VARIANCE_FLOOR = 1e-3


def _removal_bounds(
    own: Mapping[str, float],
    scored: Mapping[str, float],
    rows: Mapping[str, Mapping[str, float]],
) -> dict[str, list[tuple[float, str]]]:
    """Per item c of *own*, the users of *scored* who rated c, each with an
    upper bound on their similarity to *own* once c is removed.

    The list entries are (-bound, user), so that sorting them visits the
    users by descending bound, ties by ascending id. ``core._centred`` on a
    pair's n co-rated items gives the centred sums Sxx, Syy and Sxy;
    removing item c with deviations dx_c, dy_c leaves
    Sxx' = Sxx - n/(n-1)·dx_c², Syy' and Sxy' alike, and the approximate
    similarity r' = Sxy' / sqrt(Sxx'·Syy').
    The bound is -inf when n = 2 (one co-rated item is left: the pair drops
    out), +inf when low = min(Sxx', Syy') is below
    max(``_VARIANCE_FLOOR``, n·1e-9) (near-degenerate: score it exactly),
    and r' + n·1e-10/low + 1e-12 otherwise.

    Why the margin holds. Ratings lie in [0, 5]; u = 2^-53. By the
    rounding premises in ``core._centred``, which ``pearson`` also calls,
    ``pearson``'s sums on the n - 1 remaining items are within 200(n-1)u of the real
    leave-one-out sums. Here the full sums are within 200nu and every
    deviation is at most 5 in size; the downdate term n/(n-1)·dx_c·dy_c
    (n >= 3, so at most 37.5 in size) adds 400u and the subtraction 25nu,
    so Sxx', Syy', Sxy' are within 360nu of the real ones. By
    Cauchy-Schwarz |Sxy| <= sqrt(Sxx·Syy), so a change of ε in each sum
    moves r = Sxy / sqrt(Sxx·Syy) by at most 2ε/L to first order, L the
    smaller real variance; the square root, product and quotient add 4u
    on each side. The floor makes 360nu/low <= 4e-5, so L >= low·(1-4e-5)
    and the second-order terms are negligible: the exact similarity and r'
    differ by at most 2·560nu/L + 8u < 1.3e-13·n/low + 1e-15. The margin is
    over 700 times that. A pair whose real leave-one-out variance is zero
    (``_similarity`` scores it 0.0) or underflows has low < 360nu, below
    the floor, so it is scored exactly.
    """
    by_item: dict[str, list[tuple[float, str]]] = {}
    for other in scored:
        row = rows[other]
        common = own.keys() & row.keys()
        n = len(common)
        if n == 2:
            for item in common:
                by_item.setdefault(item, []).append((math.inf, other))
            continue
        pick = itemgetter(*common)
        dx, dy, sxx, syy, sxy = _centred(pick(own), pick(row))
        scale = n / (n - 1)
        floor = max(_VARIANCE_FLOOR, n * 1e-9)
        slack = n * 1e-10
        for item, a, b in zip(common, dx, dy):  # a set iterates in one order
            vx = sxx - scale * a * a
            vy = syy - scale * b * b
            low = min(vx, vy)
            if low < floor:
                key = -math.inf
            else:
                key = -((sxy - scale * a * b) / math.sqrt(vx * vy) + slack / low + 1e-12)
            by_item.setdefault(item, []).append((key, other))
    return by_item


def _nearest_without(
    own: Mapping[str, float],
    scored: Mapping[str, float],
    raters: list[tuple[float, str]],
    candidate: str,
    rows: Mapping[str, Mapping[str, float]],
    k: int,
) -> list[tuple[str, float]]:
    """The k nearest neighbors of *own* once *candidate* is removed.

    *raters* are the users of *scored* who rated the candidate, keyed as
    ``_removal_bounds`` keys them; the other users keep their similarity.
    The raters are scored exactly by descending bound until k users are
    known and the next bound is strictly below the k-th best known
    similarity.
    """
    rescored = scored.copy()
    for _, other in raters:
        del rescored[other]
    top = sorted(rescored.values())[-k:]  # ascending: top[0] is the k-th best
    for key, other in sorted(raters):
        if len(top) == k and -key < top[0]:
            break
        sim = _similarity(own, rows[other], candidate)
        if sim is None:  # one co-rated item left (bound -inf): no pearson call
            continue
        rescored[other] = sim
        insort(top, sim)
        if len(top) > k:
            del top[0]
    return _nearest(rescored, k)


_UNKNOWN = object()  # a shift the memo does not hold yet; None means no basis


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
    users, and the bounds from one more pass over each member/user pair (per
    co-rated item, an upper bound on the pair's similarity without that
    item: ``_removal_bounds``), are computed once per matrix and member and
    kept in the matrix's bounded memo with every user's mean; none depends
    on k, so later calls for any group and k read them. Removing an item c
    then changes a member's neighbors only if the member rated c, and only
    through the users who also rated c: they are re-scored exactly with
    ``pearson`` on the remaining co-rated items, by descending bound, until
    k similarities are known and the next bound is strictly below the k-th
    best (``_nearest_without``). A user skipped then has an exact similarity
    at most its bound, so strictly below k known ones: it cannot enter the
    top k, ties included, and the k nearest are those of a full re-scan. A
    member who did not rate c keeps its neighbors; if none of those who
    rated the target rated c either, its prediction's inputs are all
    unchanged and its shift is 0.0 without recomputing it. A member who
    rated c never takes that shortcut, since its own mean moves. Neither a
    member's k nearest neighbors without c nor a user's mean without c
    depends on the target or the group: each is computed the first time a
    call removes c and kept in the memo, so a later call that removes c
    again, for any target and group, reads it. Nor does a member's shift
    without c depend on the group: |after - before|, or no basis, is kept
    keyed (target, k, c), so a later call for any group that holds the
    member reads it, and a kept no basis still flags c as basis-destroying;
    only the 0.0 shortcut is computed each time. The bounds only decide what
    to skip: every similarity that is ranked or weighs a prediction comes
    from ``pearson``, so the result equals rebuilding the matrix without
    the item's ratings and calling ``predict_rating`` for each member, bit
    for bit.
    """
    base = member_predictions(matrix, group, target, k)
    memo, rows = matrix._memo, matrix._by_user  # rows are read, never changed
    rated = {item for member in group.members for item in rows.get(member, ())}
    bounds = {
        member: memo.get(member, _BOUNDS, _removal_bounds, rows[member], scored, rows)
        for member, (scored, _, _) in base.items()
    }
    # per member, the items rated by the neighbors whose ratings of the
    # target make its prediction
    voted = {
        member: set().union(*(rows[v] for v, _ in nearest if target in rows[v]))
        for member, (_, nearest, _) in base.items()
    }
    # The memo's shifts, neighbor lists and means without one item, for the
    # members and for every user who may weigh a prediction of the target,
    # and what this call adds to them, kept at the end.
    kept_shifts = memo.tables(base, _SHIFTS)
    kept_nearest = memo.tables(base, _NEAREST_WITHOUT)
    weighing = {v for scored, _, _ in base.values() for v in scored if target in rows[v]}
    kept_means = memo.tables(weighing.union(base), _MEANS_WITHOUT)
    new_shifts: dict[str, dict] = {member: {} for member in base}
    new_nearest: dict[str, dict] = {member: {} for member in base}
    new_means: dict[str, dict] = {user: {} for user in kept_means}
    means: dict[str, float] = {}  # read from the memo once per call
    results = []
    for candidate in sorted(rated - {target}):
        shifted: dict[str, float] = {}

        def mean(user: str) -> float:
            row = rows[user]
            if candidate not in row:
                if user not in means:
                    means[user] = matrix.user_mean(user)
                return means[user]
            if user not in shifted:
                value = kept_means[user].get(candidate)
                if value is None:
                    value = new_means[user][candidate] = _mean(row, candidate)
                shifted[user] = value
            return shifted[user]

        key = (target, k, candidate)
        deltas = []
        destroying = False
        # A member with a prediction has a neighbor, hence two ratings, so
        # no removal leaves a member without ratings.
        for member, (scored, nearest, before) in base.items():
            own = rows[member]
            if candidate not in own and candidate not in voted[member]:
                deltas.append(0.0)
                continue
            shift = kept_shifts[member].get(key, _UNKNOWN)
            if shift is _UNKNOWN:
                if candidate in own:
                    raters = bounds[member].get(candidate)
                    if raters:
                        nearest = kept_nearest[member].get((candidate, k))
                        if nearest is None:
                            nearest = new_nearest[member][candidate, k] = tuple(
                                _nearest_without(own, scored, raters, candidate, rows, k)
                            )
                try:
                    shift = abs(_predict(matrix, member, target, nearest, mean) - before)
                except NoPredictionBasisError:
                    shift = None
                new_shifts[member][key] = shift
            if shift is None:
                destroying = True
            else:
                deltas.append(shift)
        delta = math.fsum(deltas) / len(deltas) if deltas else 0.0
        results.append(
            ItemInfluence(item=candidate, delta=delta, basis_destroying=destroying)
        )
    memo.extend(_NEAREST_WITHOUT, new_nearest)
    memo.extend(_MEANS_WITHOUT, new_means)
    memo.extend(_SHIFTS, new_shifts)
    return _ranked(results)
