"""Matrix helpers the tests build from the public ``RatingsMatrix`` API, the
leave-one-out influence oracle, a call's outcome as one comparable value, a recount of a kNN memo entry's
values, reference checks of a dataset's ``ratings`` rows and weight maps,
a frozen reference kNN kernel, frozen per-pair requirement checks and the
frozen ``decimal`` display rounding."""

import math
from decimal import Decimal
from typing import Callable, Iterable, Mapping, Sequence

from groupexplain import ItemInfluence, RatingsMatrix, RelaxationProposal, cf, predict_rating
from groupexplain.constraint import constrained_items, requirement_relevance
from groupexplain.core import RATING_MAX, RATING_MIN
from groupexplain.errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyCatalogError,
    InvalidValueError,
    MalformedDatasetError,
    MissingAttributeError,
    MissingImportanceError,
    NoPredictionBasisError,
    UnknownUserError,
    UnresolvedIdError,
)


def co_rated(matrix: RatingsMatrix, a: str, b: str) -> tuple[str, ...]:
    """Items rated by both users, ascending."""
    row_a, row_b = matrix.items_rated_by(a), matrix.items_rated_by(b)
    return tuple(sorted(row_a.keys() & row_b.keys()))


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its error."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def kept_values(entry):
    """The values a memo entry holds, counted from its tables as
    ``cf._MEMO_CAP`` counts them: one per map entry, mean, bound-list
    entry and prediction, and per neighbor list and shift row its length
    plus one."""
    scored, means, bounds, nearest, predictions, shifts = (
        (table or {}).values() for table in entry[:cf._COST]
    )
    return (
        sum(map(len, scored))
        + len(means)
        + sum(len(raters) for table in bounds for raters in table.values())
        + sum(len(neighbors) + 1 for neighbors in nearest)
        + len(predictions)
        + sum(len(row) + 1 for row in shifts)
    )


def rating_rows(**rows: Mapping[str, float]) -> list[tuple[str, str, float]]:
    """(user, item, value) triples from one keyword per user: its row."""
    return [(user, item, value) for user, row in rows.items() for item, value in row.items()]


def without_item(matrix: RatingsMatrix, item: str) -> RatingsMatrix:
    """A new matrix with every rating of *item* removed."""
    return RatingsMatrix(
        (user, rated, value)
        for user in matrix.users()
        for rated, value in matrix.items_rated_by(user).items()
        if rated != item
    )


def leave_one_out(matrix, group, target, k):
    """Independent oracle: ``influential_items`` by its definition.

    Each candidate item is removed with ``without_item`` (a rebuilt copy of
    the matrix, not the library's incremental scan) and every member's
    prediction is recomputed from scratch on the reduced copy.
    """

    def predictions(ratings):
        found = {}
        for member in group.members:
            try:
                found[member] = predict_rating(ratings, member, target, k)
            except (NoPredictionBasisError, UnknownUserError):
                pass
        return found

    base = predictions(matrix)
    if not base:
        return None
    rated = {i for member in group.members for i in matrix.items_rated_by(member)}
    results = []
    for candidate in sorted(rated - {target}):
        after = predictions(without_item(matrix, candidate))
        deltas = [abs(after[m] - before) for m, before in base.items() if m in after]
        delta = math.fsum(deltas) / len(deltas) if deltas else 0.0
        results.append(ItemInfluence(candidate, delta, len(deltas) < len(base)))
    results.sort(key=lambda r: (-r.delta, r.item))
    return results


def checked_ratings(rows, users, items) -> list[tuple[str, str, float]]:
    """A ``ratings`` section checked one row, then one field, at a time.

    The reference for the loader's inline row check: per row, the shape,
    then the user id (a string, then a known one), the item id likewise,
    then the value (a number but not a bool, convertible to a float,
    finite, in [0, 5]). Raises what the loader raises, message included,
    for the first row that fails.
    """
    triples = []
    for index, row in enumerate(rows):
        where = f"ratings[{index}]"
        if not isinstance(row, list) or len(row) != 3:
            raise MalformedDatasetError(f"{where}: expected [user, item, value]")
        for ident, known, noun in ((row[0], users, "user"), (row[1], items, "item")):
            if not isinstance(ident, str):
                raise MalformedDatasetError(f"{where}: {noun} id must be a string")
            if ident not in known:
                raise UnresolvedIdError(f"{where}: unknown {noun} {ident!r}")
        value = row[2]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedDatasetError(f"{where}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise InvalidValueError(f"{where}: integer too large for a float") from None
        if not math.isfinite(number):
            raise InvalidValueError(f"{where}: {number} is not a finite number")
        if not 0.0 <= number <= 5.0:
            raise InvalidValueError(f"{where}: rating {number} outside [0, 5]")
        triples.append((row[0], row[1], number))
    return triples


def checked_weights(raw, where: str) -> dict[str, float]:
    """A weight map checked one value at a time, each location built first.

    The reference for the loader's inline weight check: the map must be
    an object, and each value a number but not a bool, convertible to a
    float, finite and in [0, 1]. Raises what the loader raises, message
    included, for the first value that fails.
    """
    if not isinstance(raw, dict):
        raise MalformedDatasetError(f"{where}: must be an object")
    weights = {}
    for key, value in raw.items():
        spot = f"{where}.{key}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedDatasetError(f"{spot}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise InvalidValueError(f"{spot}: integer too large for a float") from None
        if not math.isfinite(number):
            raise InvalidValueError(f"{spot}: {number} is not a finite number")
        if not 0.0 <= number <= 1.0:
            raise InvalidValueError(f"{spot}: {number} outside [0, 1]")
        weights[key] = number
    return weights


# The reference display rounding: ``render._quantize`` as the library had
# it when it quantized with ``decimal``; *rounding* is ``ROUND_HALF_UP``
# (``display_round``) or ``ROUND_DOWN`` (``display_trunc``). Frozen here,
# so the digit arithmetic that replaced it is compared with results it
# cannot have produced itself; leave this body as it is.


def reference_quantize(value: float, places: int, rounding: str) -> float:
    if abs(value) >= 2.0**52:
        return float(value)
    snapped = Decimal(repr(round(value, 12)))
    rounded = float(snapped.quantize(Decimal(1).scaleb(-places), rounding=rounding))
    return rounded + 0.0


# The reference kNN kernel: ``pearson``, ``_similarity``, ``_similarities``,
# ``_ranked``, ``_nearest`` and ``_predict`` as the library had them when
# co-rated items were paired in ascending id order and every sum of
# products was a generator expression. Frozen here, so a change to the
# library's kernel is checked against numbers it cannot have produced
# itself; leave these bodies as they are.


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length samples.

    Raises dimension-mismatch below two paired points and
    degenerate-variance when either side is constant (its minimum equals
    its maximum), whatever rounding its mean takes, or varies so little
    that its variance underflows a float.
    """
    if len(x) != len(y):
        raise DimensionMismatchError(f"sample sizes differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DimensionMismatchError("need at least two paired points")
    # constant means min == max; one count per sample is the cheaper test
    if x.count(x[0]) == len(x) or y.count(y[0]) == len(y):
        raise DegenerateVarianceError("a constant sample has no correlation")
    mx = math.fsum(x) / len(x)
    my = math.fsum(y) / len(y)
    dx = [a - mx for a in x]
    dy = [b - my for b in y]
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    spread = math.sqrt(sxx * syy)
    if spread == 0.0:  # the product of two tiny variances can underflow
        raise DegenerateVarianceError("sample variance underflows a float")
    return sxy / spread


def _similarity(
    own: Mapping[str, float], other: Mapping[str, float], without: str | None = None
) -> float | None:
    """Pearson over the items both rows rate, leaving out *without*.

    None when fewer than two such items remain: the pair is not eligible
    as neighbors. A degenerate pair scores 0.0 and stays eligible.
    """
    common = own.keys() & other.keys()
    common.discard(without)
    if len(common) < 2:
        return None
    common = sorted(common)
    try:
        return pearson([own[i] for i in common], [other[i] for i in common])
    except DegenerateVarianceError:
        return 0.0


def _similarities(matrix: RatingsMatrix, user: str) -> dict[str, float]:
    """Every other user eligible as *user*'s neighbor, with their similarity."""
    if not matrix.has_user(user):
        raise UnknownUserError(f"user {user!r} has no ratings")
    own = matrix.items_rated_by(user)
    scored: dict[str, float] = {}
    for other in matrix.users():
        if other != user:
            sim = _similarity(own, matrix.items_rated_by(other))
            if sim is not None:
                scored[other] = sim
    return scored


def _ranked(rows: Iterable[Sequence]) -> list:
    """(id, value, ...) rows by descending value, ties by ascending id."""
    return sorted(rows, key=lambda row: (-row[1], row[0]))


def _nearest(scored: Mapping[str, float], k: int) -> list[tuple[str, float]]:
    """The k most similar users; ties by ascending user id."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _ranked(scored.items())[:k]


def _predict(
    matrix: RatingsMatrix,
    user: str,
    item: str,
    neighbors: Sequence[tuple[str, float]],
    mean: Callable[[str], float],
) -> float:
    """The clamped mean-centred prediction from ranked (neighbor, sim) pairs.

    *mean* gives a user's mean rating; ratings of *item* come from *matrix*.
    """
    raters = [(v, sim) for v, sim in neighbors if matrix.get(v, item) is not None]
    if not raters:
        raise NoPredictionBasisError(
            f"no neighbor of {user!r} rated item {item!r}"
        )
    numerator = math.fsum(sim * (matrix.get(v, item) - mean(v)) for v, sim in raters)
    denominator = math.fsum(abs(sim) for _, sim in raters)
    deviation = numerator / denominator if denominator > 0.0 else 0.0
    return min(RATING_MAX, max(RATING_MIN, mean(user) + deviation))


def reference_knn_neighbors(
    matrix: RatingsMatrix, user: str, k: int
) -> list[tuple[str, float]]:
    """``knn_neighbors`` computed by the reference kernel."""
    return _nearest(_similarities(matrix, user), k)


def reference_predict_rating(matrix: RatingsMatrix, user: str, item: str, k: int) -> float:
    """``predict_rating`` computed by the reference kernel."""

    def mean(rater: str) -> float:
        row = matrix.items_rated_by(rater)
        return math.fsum(row.values()) / len(row)

    return _predict(matrix, user, item, reference_knn_neighbors(matrix, user, k), mean)


class Count(int):
    """An int subclass: compared like an int, but left to the per-pair path."""


# The reference requirement checks: ``satisfies``, ``Requirement.matches``,
# ``causally_relevant``, ``relaxation_proposals`` and ``rank_requirements``
# as the library had them when every (item, requirement) pair was one
# method call. Frozen here, so the column-wise checks are compared with
# results, and errors, they cannot have produced themselves; leave these
# bodies as they are.

_OPERATORS = ("<=", ">=", "=")


def _satisfies(value: object, operator: str, bound: object) -> bool:
    if operator == "=":
        return value == bound
    if operator not in _OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidValueError(
            f"operator {operator!r} needs a numeric value, got {value!r}"
        )
    if operator == "<=":
        return value <= bound
    return value >= bound


def _matches(req, item) -> bool:
    if req.attribute not in item.attributes:
        raise MissingAttributeError(
            f"item {item.id!r} lacks attribute {req.attribute!r}"
        )
    return _satisfies(item.attributes[req.attribute], req.operator, req.bound)


def reference_causally_relevant(requirement, items) -> bool:
    """``causally_relevant`` with one check per item."""
    surviving = sum(1 for item in items if _matches(requirement, item))
    return surviving < len(items)


def reference_relaxation_proposals(requirements, items) -> list:
    """``relaxation_proposals`` with one check per (item, requirement) pair."""
    if not items:
        raise EmptyCatalogError("item catalog is empty")
    by_id = {req.id: req for req in requirements}
    violated = []
    for item in items:
        own = frozenset([rid for rid, req in by_id.items() if not _matches(req, item)])
        violated.append((item.id, own))
    if any(not own for _, own in violated):
        return []
    minimal = []
    for own in sorted({own for _, own in violated}, key=lambda v: (len(v), sorted(v))):
        if not any(kept <= own for kept in minimal):
            minimal.append(own)
    return [
        RelaxationProposal(
            removed=tuple(sorted(removed)),
            survivors=tuple(sorted(i for i, own in violated if own <= removed)),
        )
        for removed in minimal
    ]


def reference_rank_requirements(group, requirements, items) -> list:
    """``rank_requirements`` with the reference causal relevance."""
    if not requirements:
        raise MissingImportanceError("dataset defines no requirements")
    relevance = [(req.id, requirement_relevance(group, req)) for req in requirements]
    catalog = constrained_items(requirements, items)
    causal = {req.id: reference_causally_relevant(req, catalog) for req in requirements}
    return _ranked((rid, value, causal[rid]) for rid, value in relevance)
