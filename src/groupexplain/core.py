"""Shared model: the dataset's records, aggregation, similarity and prediction.

Everything downstream (the four explanation paradigms, the renderer, the
CLI) builds on the types and functions in this module. Every record type
the loader builds is defined here, so loading a dataset imports no
paradigm module. Results are pure: the containers are treated as
immutable after construction, and the same arguments give the same result.
This module keeps no state: ``cf`` computes ``knn_neighbors`` and
``predict_rating`` and keeps the kNN state of each rating matrix.
"""

from __future__ import annotations

import enum
import math
import sys
from importlib import import_module
from operator import eq, ge, le, mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyGroupError,
    InvalidValueError,
    MissingAttributeError,
    NoPredictionBasisError,
    RatingOutOfRangeError,
)

RATING_MIN = 0.0
RATING_MAX = 5.0

# Bucket edges: bad = [0, 2], neutral = (2, 3.5], good = (3.5, 5].
BAD_UPPER = 2.0
NEUTRAL_UPPER = 3.5

# How a neighbor histogram combines the members' neighbor sets
# (``cf.NeighborAssignment``, the CLI's ``--nn-mode``).
NN_MODE_UNION = "union"
NN_MODE_INTERSECTION = "intersection"


class RatingBucket(enum.Enum):
    BAD = "bad"
    NEUTRAL = "neutral"
    GOOD = "good"


class AggregationStrategy(enum.Enum):
    """How a group score is derived from per-member scores."""

    AVG = "avg"
    LMS = "lms"
    MPL = "mpl"

    @classmethod
    def parse(cls, name: str) -> "AggregationStrategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise InvalidValueError(f"unknown aggregation strategy {name!r}") from None


class Frozen:
    """Base of the immutable records whose fields are read on hot paths.

    A subclass lists its fields in ``__slots__`` and stores them with
    ``_set`` in that order. Equality, hash and repr go by the fields, and
    assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class Group(NamedTuple("Group", [("id", str), ("members", tuple)])):
    """A group id and its members: at least one, none listed twice."""

    __slots__ = ()

    def __new__(cls, id: str, members: tuple[str, ...]):
        if not members:
            raise EmptyGroupError(f"group {id!r} has no members")
        if len(set(members)) != len(members):
            raise InvalidValueError(f"group {id!r} lists a member twice")
        return super().__new__(cls, id, members)


class Item(Frozen):
    """A catalog item plus the per-paradigm annotations attached to it.

    attributes hold raw values (price, resolution, ...); the three weight
    maps carry values in [0, 1] and may each be empty when a paradigm does
    not apply to the item. A map not given is a new empty dict.
    """

    __slots__ = (
        "id",
        "attributes",
        "category_weights",
        "feature_sentiments",
        "dimension_contributions",
    )

    def __init__(
        self,
        id: str,
        attributes: Mapping[str, object] | None = None,
        category_weights: Mapping[str, float] | None = None,
        feature_sentiments: Mapping[str, float] | None = None,
        dimension_contributions: Mapping[str, float] | None = None,
    ):
        self._set(
            id,
            {} if attributes is None else attributes,
            {} if category_weights is None else category_weights,
            {} if feature_sentiments is None else feature_sentiments,
            {} if dimension_contributions is None else dimension_contributions,
        )
        for label, weights in (
            ("category weight", self.category_weights),
            ("feature sentiment", self.feature_sentiments),
            ("dimension contribution", self.dimension_contributions),
        ):
            for key, value in weights.items():
                if not 0.0 <= value <= 1.0:
                    raise InvalidValueError(
                        f"item {self.id!r}: {label} {key!r} = {value} outside [0, 1]"
                    )

    @classmethod
    def _checked(
        cls,
        id: str,
        attributes: dict[str, object],
        category_weights: dict[str, float],
        feature_sentiments: dict[str, float],
        dimension_contributions: dict[str, float],
    ) -> "Item":
        """An item over weight maps its caller checked as ``__init__`` does:
        every value in [0, 1]. The maps are not copied."""
        item = cls.__new__(cls)
        item._set(id, attributes, category_weights, feature_sentiments, dimension_contributions)
        return item


def _duplicate_rating(user: str, item: str) -> InvalidValueError:
    """The error for a second rating of *item* by *user*."""
    return InvalidValueError(f"duplicate rating for ({user!r}, {item!r})")


class RatingsMatrix:
    """Sparse user x item rating store on the fixed [0, 5] scale.

    Immutable after construction, so ``cf`` can keep its kNN state with it.
    """

    def __init__(self, ratings: Iterable[tuple[str, str, float]]):
        by_user: dict[str, dict[str, float]] = {}
        for user, item, value in ratings:
            value = float(value)
            if not RATING_MIN <= value <= RATING_MAX:
                raise RatingOutOfRangeError(
                    f"rating {value} by {user!r} for {item!r} outside [0, 5]"
                )
            row = by_user.setdefault(user, {})
            if item in row:
                raise _duplicate_rating(user, item)
            row[item] = value
        self._by_user = by_user

    @classmethod
    def _checked(cls, by_user: dict[str, dict[str, float]]) -> "RatingsMatrix":
        """A matrix over rows its caller checked as ``__init__`` does.

        Each value is a float in [0, 5], and the caller has rejected a
        second rating of an item by a user: a dict row would keep only the
        last. The rows are not copied.
        """
        matrix = cls.__new__(cls)
        matrix._by_user = by_user
        return matrix

    def __reduce__(self):  # copy and pickle keep the rows and nothing kept with them
        return type(self)._checked, (self._by_user,)

    def __len__(self) -> int:
        return sum(len(row) for row in self._by_user.values())

    def users(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_user))

    def has_user(self, user: str) -> bool:
        return user in self._by_user

    def get(self, user: str, item: str) -> float | None:
        return self._by_user.get(user, {}).get(item)

    def items_rated_by(self, user: str) -> Mapping[str, float]:
        return MappingProxyType(self._by_user.get(user, {}))


class TagApplications:
    """Per-item tag application counts; shares are count / total."""

    def __init__(self, applications: Mapping[str, Mapping[str, int]]):
        self._counts: dict[str, dict[str, int]] = {}
        self._totals: dict[str, int] = {}
        for item, tags in applications.items():
            for tag, count in tags.items():
                if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                    raise InvalidValueError(
                        f"tag count for ({item!r}, {tag!r}) must be a non-negative int"
                    )
            self._counts[item] = dict(tags)
            self._totals[item] = sum(tags.values())

    def tags(self) -> tuple[str, ...]:
        seen = {tag for tags in self._counts.values() for tag in tags}
        return tuple(sorted(seen))

    def has_tags(self, item: str) -> bool:
        return self._totals.get(item, 0) > 0

    def share(self, item: str, tag: str) -> float:
        """Fraction of the item's tag applications that used this tag."""
        total = self._totals.get(item, 0)
        if total == 0:
            return 0.0
        return self._counts[item].get(tag, 0) / total


class InterestDimension(NamedTuple):
    """A MAUT interest dimension with per-user importance weights."""

    id: str
    importance: Mapping[str, float]


class DecisionHistory(NamedTuple("DecisionHistory", [("records", Mapping)])):
    """Per-user (supported, decisions) counts over past group choices."""

    __slots__ = ()

    def __new__(cls, records: Mapping[str, tuple[int, int]]):
        for user, (supported, decisions) in records.items():
            if decisions < 1:
                raise InvalidValueError(
                    f"user {user!r}: decision count must be positive"
                )
            if not 0 <= supported <= decisions:
                raise InvalidValueError(
                    f"user {user!r}: supported count {supported} outside [0, {decisions}]"
                )
        return super().__new__(cls, records)


#: Each comparison operator of requirements and critiques: the test it
#: applies, and whether it compares numbers (the loader then requires a
#: numeric bound, and ``satisfies`` a numeric value).
_OPERATOR_TABLE = {"<=": (le, True), ">=": (ge, True), "=": (eq, False)}

#: Comparison operators usable in requirements and critiques.
OPERATORS = tuple(_OPERATOR_TABLE)
#: The operators that compare numbers.
NUMERIC_OPERATORS = tuple(op for op, (_, numeric) in _OPERATOR_TABLE.items() if numeric)


def satisfies(value: object, operator: str, bound: object) -> bool:
    """Evaluate ``value <operator> bound`` for requirement/critique checks."""
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    compare, numeric = _OPERATOR_TABLE[operator]
    if numeric and (not isinstance(value, (int, float)) or isinstance(value, bool)):
        raise InvalidValueError(
            f"operator {operator!r} needs a numeric value, got {value!r}"
        )
    return compare(value, bound)


def _attribute_holds(self, item: Item) -> bool:
    """Body of ``Requirement.matches`` and ``Critique.satisfied_by`` (one call each)."""
    if self.attribute not in item.attributes:
        raise MissingAttributeError(
            f"item {item.id!r} lacks attribute {self.attribute!r}"
        )
    return satisfies(item.attributes[self.attribute], self.operator, self.bound)


_MISSING = object()  # an absent attribute; type object sends a column item by item
_NUMBER_TYPES = frozenset((int, float))


def _column(attribute: str, items: Sequence[Item]) -> tuple[list, set]:
    """Each item's value of *attribute* (``_MISSING`` where it lacks it),
    read once, and the set of the values' types."""
    column = [item.attributes.get(attribute, _MISSING) for item in items]
    return column, set(map(type, column))


def _fast_compare(operator: str, kinds: set) -> Callable | None:
    """The C-level compare of *operator* for a column of value types *kinds*.

    None unless the column is well formed: every item has the attribute
    and, for a numeric operator, every value has exact type ``int`` or
    ``float`` (so no bool). A column that is not goes item by item through
    ``Requirement.matches``: the same verdicts, and the same first error
    in item order. The verdict depends on the operator's class as well as
    the column, so it is never shared between ``=`` and ``<=``/``>=``.
    """
    if operator in OPERATORS:
        compare, numeric = _OPERATOR_TABLE[operator]
        if (kinds <= _NUMBER_TYPES) if numeric else (object not in kinds):
            return compare
    return None


class Requirement(Frozen):
    """A group requirement over one item attribute, e.g. price <= 250."""

    __slots__ = ("id", "attribute", "operator", "bound", "importance")

    def __init__(
        self,
        id: str,
        attribute: str,
        operator: str,
        bound: object,
        importance: Mapping[str, float],
    ):
        self._set(id, attribute, operator, bound, importance)

    matches = _attribute_holds


class Critique(Frozen):
    """One member's unit critique on a single item attribute."""

    __slots__ = ("author", "attribute", "operator", "bound")

    def __init__(self, author: str, attribute: str, operator: str, bound: object):
        self._set(author, attribute, operator, bound)

    satisfied_by = _attribute_holds


def categorize_rating(rating: float) -> RatingBucket:
    """Place a rating into the bad / neutral / good bucket."""
    if not RATING_MIN <= rating <= RATING_MAX:
        raise RatingOutOfRangeError(f"rating {rating} outside [0, 5]")
    if rating <= BAD_UPPER:
        return RatingBucket.BAD
    if rating <= NEUTRAL_UPPER:
        return RatingBucket.NEUTRAL
    return RatingBucket.GOOD


def aggregate(
    scores: Mapping[str, float], strategy: AggregationStrategy
) -> tuple[float, tuple[str, ...]]:
    """Collapse per-member scores into one group score.

    Returns the score plus the contributing members, ascending by id:
    everyone for AVG, the members attaining the minimum for LMS, the
    maximum for MPL.
    """
    if not scores:
        raise EmptyGroupError("cannot aggregate an empty score map")
    if strategy is AggregationStrategy.AVG:
        value = math.fsum(scores.values()) / len(scores)
        return value, tuple(sorted(scores))
    extremum = min(scores.values()) if strategy is AggregationStrategy.LMS else max(scores.values())
    contributors = tuple(sorted(u for u, s in scores.items() if s == extremum))
    return extremum, contributors


def _centred(x: Sequence[float], y: Sequence[float]) -> tuple:
    """Deviations dx, dy from the means and centred sums Sxx, Syy, Sxy of
    two equal-length samples: the one Pearson kernel, summed with ``fsum``.

    Rounding premises of ``cf._removal_bounds``' margin, for samples in
    [0, 5] and u = 2^-53: a mean (one ``fsum``, one division) is within
    10u of the real mean, a deviation (at most 5 in size) within 15u, a
    product of two within 175u, and each sum of n products (each at most
    25 in size) within 175nu + 25nu = 200nu of the real centred sum.
    """
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)  # fsum: order-free
    dx = [a - mx for a in x]
    dy = [b - my for b in y]
    sxx = math.fsum(map(mul, dx, dx))
    syy = math.fsum(map(mul, dy, dy))
    sxy = math.fsum(map(mul, dx, dy))
    return dx, dy, sxx, syy, sxy


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length samples, in any order of the pairs.

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
    _, _, sxx, syy, sxy = _centred(x, y)
    spread = math.sqrt(sxx * syy)
    if spread == 0.0:  # the product of two tiny variances can underflow
        raise DegenerateVarianceError("sample variance underflows a float")
    return sxy / spread


def _mean(row: Mapping[str, float], without: str | None = None) -> float:
    """Mean of a rating row, leaving out the rating of *without*."""
    values = [value for item, value in row.items() if item != without]
    return math.fsum(values) / len(values)


def _ranked(rows: Iterable[Sequence]) -> list:
    """(id, value, ...) rows by descending value, ties by ascending id."""
    return sorted(rows, key=lambda row: (-row[1], row[0]))


_CF = f"{__package__}.cf"  # read from sys.modules: an import costs ~20 times more


def knn_neighbors(
    matrix: RatingsMatrix, user: str, k: int = 2
) -> list[tuple[str, float]]:
    """The k most similar users, as (user, similarity) pairs.

    Candidates need at least two co-rated items with *user*; pairs with
    degenerate variance get similarity 0.0 and stay eligible. Sorted by
    similarity descending, ties by ascending user id. The ranking is made
    once per matrix, user and k and kept in ``cf``'s memo of the matrix;
    each call returns a new list.
    """
    cf = sys.modules.get(_CF) or import_module(_CF)
    return list(cf._ranking(matrix, user, k))


def predict_rating(matrix: RatingsMatrix, user: str, item: str, k: int = 2) -> float:
    """Mean-centered weighted kNN prediction, clamped to the rating scale.

    prediction = mean(user) + sum(sim * (r_neighbor - mean(neighbor)))
                            / sum(|sim|)
    over the k nearest neighbors that rated the item. With no such
    neighbor there is no basis; with all-zero similarity weights the
    deviation term is 0. The prediction, or its lack of a basis, is
    computed once per matrix, user, item and k and kept in ``cf``'s memo of
    the matrix.
    """
    cf = sys.modules.get(_CF) or import_module(_CF)
    prediction = cf._prediction(matrix, user, item, k)
    if prediction is None:
        raise NoPredictionBasisError(f"no neighbor of {user!r} rated item {item!r}")
    return prediction
