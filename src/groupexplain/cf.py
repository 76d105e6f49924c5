"""Collaborative-filtering explanations and the kNN path they share with ``core``.

Histograms over neighbor ratings, verbal aggregation explanations and the
leave-one-item-out influence analysis described by the social style of
explaining a prediction. The only state is kept per rating matrix: its
first kNN read gives a ``RatingsMatrix`` a locked, bounded memo
(``_UserMemo``) of the kNN state computed once per user, and no result
depends on what that memo holds.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from bisect import insort
from collections import OrderedDict
from functools import partial
from itertools import compress, repeat
from operator import itemgetter, truediv
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .core import (
    NN_MODE_INTERSECTION, NN_MODE_UNION, RATING_MAX, RATING_MIN, AggregationStrategy, Group,
    RatingBucket, RatingsMatrix, _centred, _mean, _ranked, aggregate, categorize_rating, pearson,
)
from .errors import (
    DegenerateVarianceError, EmptyGroupSetError, MissingRatingError, NoPredictionBasisError,
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


#: Most values the memo of one ``RatingsMatrix`` (``_memo_of``) keeps, over
#: all the tables of ``_UserMemo``: the entries of its similarity maps,
#: removal-bound lists and shift rows, its means and predictions, and the
#: values of its neighbor lists and removal maps (plus one per list and per
#: row). Measured with tracemalloc at 1,000 users x 200 items x 30k ratings,
#: a map entry takes about 50 bytes, a bound or neighbor-list value about
#: 89, a removal-map value about 73 (~220 per list at k = 2), a shift-row
#: entry about 48 and a prediction, with its (item, k) key, about 132, so a
#: full memo holds at most ~35 MB: every map of a 500-user matrix, or the
#: maps and bounds of ~20 members of a 1,000-user one (~13,000 values
#: each). A mean, alone in its table, takes about 250, at most once per
#: user of the matrix.
_MEMO_CAP = 1 << 18

# The tables of a memo entry, then the count of the entry's values toward
# the cap (see ``_UserMemo`` for their keys).
_SIMILARITIES, _MEANS, _BOUNDS, _NEAREST, _REMOVALS, _PREDICTIONS, _SHIFTS, _COST = range(8)


def _lists(lists) -> int:
    """What neighbor lists or shift rows count: each its length plus one."""
    return len(lists) + sum(map(len, lists))


# What the values added to each table count.
_SLOT_COSTS = (
    lambda maps: sum(map(len, maps)),
    len,
    lambda tables: sum(len(raters) for bounds in tables for raters in bounds.values()),
    _lists,
    lambda maps: sum(_lists(removals.values()) for removals in maps),
    len,
    _lists,
)


class _UserMemo:
    """Per-user kNN state of one matrix, computed once and kept least
    recently used first. Each user's entry holds one table per slot, keyed
    as listed, where None keys a slot's one value:

    - ``_SIMILARITIES`` {None: the user's similarity map};
    - ``_MEANS`` {None: the user's mean rating};
    - ``_BOUNDS`` {None: the removal bounds (``_removal_bounds``)};
    - ``_NEAREST`` {k: the k nearest neighbors, a tuple};
    - ``_REMOVALS`` {k: {item c: the k nearest neighbors without c}, for
      each item c of the removal bounds (``_shift_row``)};
    - ``_PREDICTIONS`` {(item, k): the prediction, or None: no basis};
    - ``_SHIFTS`` {(target t, k): the shift row of t (``_shift_row``)}.

    ``get`` reads one value and is the only write: it stores the value it
    computes on a miss. ``every`` reads one key's value for each of a group
    of users, or none. A user's entry is dropped whole. A matrix gets its
    memo from ``_memo_of``, on its first kNN read.
    """

    __slots__ = ("_entries", "_size", "_lock")

    def __init__(self):
        self._entries: OrderedDict[str, list] = OrderedDict()  # user -> [*slots, cost]
        self._size = 0
        self._lock = allocate_lock()

    def __len__(self) -> int:
        """How many values are kept, counted as ``_MEMO_CAP`` counts them."""
        return self._size

    def get(self, user: str, slot: int, key, compute: Callable[..., Any], *args) -> Any:
        """The value under *key* in *user*'s table in *slot*,
        ``compute(*args)`` the first time, kept unless it alone would pass
        the cap. If another call kept the key while this one computed, its
        value is returned and nothing more is counted."""
        with self._lock:
            entry = self._entries.get(user)
            if entry is not None:
                self._entries.move_to_end(user)
                table = entry[slot]
                if table is not None and key in table:
                    return table[key]
        value = compute(*args)  # unlocked: another thread may keep the key meanwhile
        with self._lock:
            entry = self._entries.get(user)
            table = None if entry is None else entry[slot]
            if table is not None and key in table:  # kept meanwhile: counted once
                return table[key]
            entry = self._admit(user, entry, _SLOT_COSTS[slot]((value,)))
            if entry is not None:
                if table is None:
                    entry[slot] = {key: value}
                else:
                    table[key] = value
        return value

    def every(self, users: Sequence[str], slot: int, key) -> list | None:
        """The value under *key* in each user's table in *slot*, in order,
        each user then the most recently used in that order; None, and no
        user moved, if any user has none."""
        found = []
        with self._lock:
            for user in users:
                entry = self._entries.get(user)
                if entry is None or entry[slot] is None or key not in entry[slot]:
                    return None
                found.append(entry[slot][key])
            for user in users:
                self._entries.move_to_end(user)
        return found

    def _admit(self, user: str, entry: list | None, cost: int) -> list | None:
        """*user*'s *entry* (None: a new one) counting *cost* more values,
        now the most recently used; the caller holds the lock and stores
        the values. None, and nothing changed, if they would take the entry
        past the whole cap. Least recently used users are dropped until the
        kept values fit."""
        if entry is None:
            entry = [None] * _COST + [0]
        if entry[_COST] + cost > _MEMO_CAP:
            return None
        entry[_COST] += cost
        self._size += cost
        self._entries[user] = entry
        self._entries.move_to_end(user)
        while self._size > _MEMO_CAP:  # the entry admitted is last
            _, dropped = self._entries.popitem(last=False)
            self._size -= dropped[_COST]
        return entry


def _memo_of(matrix: RatingsMatrix) -> _UserMemo:
    """*matrix*'s memo, made on first use; a copy or pickle keeps only rows."""
    try:
        return matrix._memo
    except AttributeError:  # one setdefault: racing first uses keep one memo
        return vars(matrix).setdefault("_memo", _UserMemo())


def _user_mean(matrix: RatingsMatrix, user: str) -> float:
    """The mean rating of *user*, who has ratings, computed once per matrix."""
    return _memo_of(matrix).get(user, _MEANS, None, _mean, matrix._by_user[user])


def _similarity(
    own: Mapping[str, float], other: Mapping[str, float], without: str | None = None
) -> float | None:
    """Pearson over the items both rows rate, in set order, leaving out *without*.

    None when fewer than two such items remain: the pair is not eligible
    as neighbors. A degenerate pair scores 0.0 and stays eligible.
    """
    common = own.keys() & other.keys()
    common.discard(without)
    if len(common) < 2:  # a one-key itemgetter returns a bare value
        return None
    pick = itemgetter(*common)
    try:
        return pearson(pick(own), pick(other))
    except DegenerateVarianceError:
        return 0.0


def _similarities(matrix: RatingsMatrix, user: str) -> Mapping[str, float]:
    """Every other user eligible as *user*'s neighbor, with their similarity,
    in ascending id order.

    Computed once per matrix and user (the matrix's memo), and read-only.
    """
    return _memo_of(matrix).get(user, _SIMILARITIES, None, _scan, matrix, user)


def _scan(matrix: RatingsMatrix, user: str) -> Mapping[str, float]:
    rows = matrix._by_user
    if user not in rows:  # a user without ratings has no memo entry
        raise UnknownUserError(f"user {user!r} has no ratings")
    sims = ((v, _similarity(rows[user], rows[v])) for v in sorted(rows) if v != user)
    return MappingProxyType({v: sim for v, sim in sims if sim is not None})


def _nearest(scored: Mapping[str, float], k: int) -> tuple[tuple[str, float], ...]:
    """The k most similar users; ties by ascending user id."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return tuple(_ranked(scored.items())[:k])


def _predict(
    matrix: RatingsMatrix,
    user: str,
    item: str,
    neighbors: Sequence[tuple[str, float]],
    mean: Callable[[str], float],
) -> float | None:
    """The clamped mean-centred prediction from ranked (neighbor, sim)
    pairs, or None when no neighbor rated *item*: no basis.

    *mean* gives a user's mean rating; ratings of *item* come from *matrix*.
    """
    rows = matrix._by_user
    raters = [(v, sim, rows[v][item]) for v, sim in neighbors if item in rows[v]]
    if not raters:
        return None
    numerator = math.fsum(sim * (rating - mean(v)) for v, sim, rating in raters)
    denominator = math.fsum(abs(sim) for _, sim, _ in raters)
    deviation = numerator / denominator if denominator > 0.0 else 0.0
    return min(RATING_MAX, max(RATING_MIN, mean(user) + deviation))


def _ranking(matrix: RatingsMatrix, user: str, k: int) -> tuple[tuple[str, float], ...]:
    """*user*'s k nearest neighbors, ranked once per matrix, user and k. Only
    ranking reads the similarity map, which names an unknown user before a bad k."""
    return _memo_of(matrix).get(
        user, _NEAREST, k, lambda: _nearest(_similarities(matrix, user), k)
    )


def _prediction(matrix: RatingsMatrix, user: str, item: str, k: int) -> float | None:
    """``predict_rating``'s value, or None without a basis, computed once
    per matrix, user, item and k."""
    return _memo_of(matrix).get(
        user, _PREDICTIONS, (item, k),
        lambda: _predict(matrix, user, item, _ranking(matrix, user, k), partial(_user_mean, matrix)),
    )


def member_predictions(
    matrix: RatingsMatrix, group: Group, item: str | None, k: int = 2
) -> dict[str, MemberPrediction]:
    """The members who take part in a CF explanation, in group order.

    Members without ratings never take part. Without an *item* the others
    do, with prediction None; with one, only those whose k nearest
    neighbors include a rater of it, with ``predict_rating``'s prediction.
    Raises unknown-user, or no-prediction-basis given an item, when no one
    takes part. Each member's similarity map, k nearest neighbors and
    prediction are computed once per matrix and kept in its memo; each call
    returns new neighbor lists.
    """
    found = {}
    for member in group.members:
        if not matrix.has_user(member):
            continue
        prediction = None
        if item is not None:
            prediction = _prediction(matrix, member, item, k)
            if prediction is None:
                continue
        scored = _similarities(matrix, member)
        found[member] = MemberPrediction(scored, list(_ranking(matrix, member, k)), prediction)
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
) -> tuple[tuple[str, float], ...]:
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
    # top holds the k best similarities: no user below top[0] can be ranked in
    return _nearest({u: sim for u, sim in rescored.items() if sim >= top[0]} if top else {}, k)


def influential_items(
    matrix: RatingsMatrix, group: Group, target: str, k: int = 2
) -> list[ItemInfluence]:
    """Rank rated items by how much their removal moves the group prediction.

    For each item some member rated (except the target) the whole rating
    column is removed and the prediction of each member taking part
    (``member_predictions``) is recomputed; delta is the mean absolute shift
    over members that still have a prediction. Removals that strip a member
    of any basis are flagged basis-destroying rather than treated as errors.

    The matrix is never copied, and no shift depends on the group: each
    member's shifts of the target at k are computed once per matrix, as one
    row (``_shift_row``, which reads and keeps only the member's own memo
    entry: its bounds and its removal map at k) kept in the matrix's
    bounded memo, and a later call for any group that holds the member
    reads them. When every member has a kept row for the target at k, the
    call reads all the rows in one locked memo read (``_UserMemo.every``)
    and nothing else: only a member ``member_predictions`` admitted on this
    matrix has a row.
    Otherwise (a member never asked, evicted, without ratings or without
    a prediction) ``member_predictions`` picks the members, raising any
    error, and each row is read or computed.

    A call scores the candidates as columns: one column per member, read
    from its row over the id-sorted candidates, where an item missing from
    a row leaves that member's prediction as it is (shift 0.0) and a kept
    None means no basis. The columns zip into one tuple of shifts per
    candidate; a candidate with a None in its tuple is basis-destroying and
    is scored over the other members, and one with no member left scores
    0.0. One stable sort by descending delta keeps the id order among
    equal deltas.
    """
    memo = _memo_of(matrix)
    member_rows = memo.every(group.members, _SHIFTS, (target, k))
    if member_rows is None:
        base = member_predictions(matrix, group, target, k)
        member_rows = [
            memo.get(member, _SHIFTS, (target, k), _shift_row, matrix, member, target, k,
                     taking_part)
            for member, taking_part in base.items()
        ]
    rated = {item for member in group.members for item in matrix._by_user.get(member, ())}
    rated.discard(target)
    candidates = sorted(rated)
    shifts = list(zip(*[map(row.get, candidates, repeat(0.0)) for row in member_rows]))
    missing = list(map(tuple.count, shifts, repeat(None)))
    for at in compress(range(len(shifts)), missing):  # no member left: delta 0.0 / 1
        shifts[at] = tuple(shift for shift in shifts[at] if shift is not None) or (0.0,)
    deltas = map(truediv, map(math.fsum, shifts), map(len, shifts))
    results = list(map(ItemInfluence, candidates, deltas, map(bool, missing)))
    results.sort(key=itemgetter(1), reverse=True)
    return results


def _shift_row(
    matrix: RatingsMatrix, member: str, target: str, k: int, taking_part: MemberPrediction
) -> dict[str, float | None]:
    """The shift of *member*'s prediction of *target* (*taking_part*) per
    item c whose removal can move it: |after - before|, or None when no
    basis is left. Those are the items the member rated, whose removal
    moves its own mean, and the items rated by a neighbor who rated the
    target, whose removal moves that neighbor's mean. Removing any other
    item leaves every input of the prediction as it is.

    The member's similarities to all other users, and the bounds from one
    more pass over each member/user pair (per co-rated item, an upper bound
    on the pair's similarity without that item: ``_removal_bounds``), are
    computed once per matrix and member and kept in the memo; neither
    depends on k. Removing an item c changes the member's neighbors only if
    the member rated c, and only through the users who also rated c: they
    are re-scored exactly with ``pearson`` on the remaining co-rated items,
    by descending bound, until k similarities are known and the next bound
    is strictly below the k-th best (``_nearest_without``). A user skipped
    then has an exact similarity at most its bound, so strictly below k
    known ones: it cannot enter the top k, ties included, and the k nearest
    are those of a full re-scan. The member's k nearest neighbors without
    c do not depend on the target: the first row at k computes them for
    every item c of the bounds, as one removal map kept in the memo, and a
    later row at k reads that map. A user's mean without c is computed
    exactly where it is needed (``core._mean``), and a user who did not
    rate c keeps its mean, computed once per row. The bounds only decide
    what to skip: every similarity that is ranked or weighs a prediction
    comes from ``pearson``, so each shift equals the one from rebuilding
    the matrix without c's ratings and calling ``predict_rating``, bit for
    bit. A member with a prediction has a neighbor, hence two ratings, so
    no removal leaves it without ratings. The row reads and writes only
    the member's memo entry.
    """
    memo, rows = _memo_of(matrix), matrix._by_user  # rows are read, never changed
    own, (scored, nearest, before) = rows[member], taking_part

    def removal_map() -> dict[str, tuple[tuple[str, float], ...]]:
        bounds = memo.get(member, _BOUNDS, None, _removal_bounds, own, scored, rows)
        return {c: _nearest_without(own, scored, users, c, rows, k) for c, users in bounds.items()}

    removals = memo.get(member, _REMOVALS, k, removal_map)
    means: dict[str, float] = {}

    def mean(user: str) -> float:  # *user*'s mean once *candidate* is removed
        ratings = rows[user]
        if candidate in ratings:
            return _mean(ratings, candidate)
        value = means.get(user)
        if value is None:
            value = means[user] = _mean(ratings)
        return value

    voting = [rows[v] for v, _ in nearest if target in rows[v]]
    row = {}
    for candidate in set(own).union(*voting) - {target}:
        after = _predict(matrix, member, target, removals.get(candidate, nearest), mean)
        row[candidate] = None if after is None else abs(after - before)
    return row
