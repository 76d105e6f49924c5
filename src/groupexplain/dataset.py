"""Dataset loading and validation.

One JSON file carries everything the four paradigms need: users, groups,
items with their annotations, ratings, tag applications, requirements,
interest dimensions, critiques, decision history and neighbor-group
ratings. A small bundled dataset reproduces the worked examples used
throughout the test suite.

Error discipline: parse/shape problems raise malformed-dataset, dangling
references raise unresolved-id, out-of-range or inconsistent values raise
invalid-value. Every message names the entity and field involved.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple

from .core import (
    NUMERIC_OPERATORS,
    OPERATORS,
    RATING_MAX,
    RATING_MIN,
    Critique,
    DecisionHistory,
    Group,
    InterestDimension,
    Item,
    RatingsMatrix,
    Requirement,
    TagApplications,
    _duplicate_rating,
)
from .errors import (
    InvalidValueError,
    MalformedDatasetError,
    UnresolvedIdError,
)


class Dataset(NamedTuple):
    """Every section of one dataset; an absent optional section is empty or None."""

    users: tuple[str, ...]
    items: dict[str, Item]
    matrix: RatingsMatrix
    tags: TagApplications
    groups: dict[str, Group]
    user_category_weights: dict[str, dict[str, float]]
    group_sentiments: dict[str, dict[str, float]]
    member_sentiments: dict[str, dict[str, float]]
    requirements: list[Requirement]
    dimensions: list[InterestDimension]
    critiques: list[Critique]
    decision_history: DecisionHistory | None
    fairness_weights: dict[str, dict[str, float]]
    neighbor_group_ratings: dict[str, dict[str, float]]

    def group(self, group_id: str) -> Group:
        if group_id not in self.groups:
            raise UnresolvedIdError(f"unknown group {group_id!r}")
        return self.groups[group_id]

    def item(self, item_id: str) -> Item:
        if item_id not in self.items:
            raise UnresolvedIdError(f"unknown item {item_id!r}")
        return self.items[item_id]

    def neighbor_group_row(self, item_id: str) -> dict[str, float]:
        """The neighbor groups that rated the item, with their ratings of it."""
        rows = self.neighbor_group_ratings.items()
        return {gp: row[item_id] for gp, row in rows if item_id in row}


_TOP = "dataset"
_REQUIRED = object()
_ITEM_WEIGHTS = ("category_weights", "feature_sentiments", "dimension_contributions")


def _section(mapping: Mapping, key: str, kind: type, where: str, default=_REQUIRED):
    """``mapping[key]`` checked to be a *kind*; *default* when absent, if given."""
    if key not in mapping:
        if default is _REQUIRED:
            raise MalformedDatasetError(f"{where}: missing required section {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, kind):
        raise MalformedDatasetError(
            f"{where}: section {key!r} must be a {kind.__name__}"
        )
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedDatasetError(f"{where}: must be an object")
    return value


def _objects(raw: Mapping, key: str):
    """(where, entry) for each object of the optional list section *key*."""
    for index, entry in enumerate(_section(raw, key, list, _TOP, [])):
        where = f"{key}[{index}]"
        yield where, _object(entry, where)


def _reject_constant(path, constant: str):
    raise MalformedDatasetError(f"{path}: non-finite number {constant} is not allowed")


def _finite(value, where: str):
    """Reject the infinity json.loads makes of an overflowing literal like
    1e999, also inside *value*'s lists and objects."""
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidValueError(f"{where}: {value} is not a finite number")
    if isinstance(value, list):
        for index, inner in enumerate(value):
            _finite(inner, f"{where}[{index}]")
    elif isinstance(value, dict):
        for key, inner in value.items():
            _finite(inner, f"{where}.{key}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedDatasetError(f"{where}: expected a number, got {value!r}")
    try:
        return _finite(float(value), where)
    except OverflowError:  # an integer literal beyond the float range
        raise InvalidValueError(f"{where}: integer too large for a float") from None


def _rating(value, where: str) -> float:
    number = _number(value, where)
    if not RATING_MIN <= number <= RATING_MAX:
        raise InvalidValueError(f"{where}: rating {number} outside [0, 5]")
    return number


def _unit_weights(raw, where: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for key, value in _object(raw, where).items():
        # A valid value passes this inline check (json.loads makes exact
        # int and float); any other fails it, and _number raises its error
        # first if it has one, so the location is built only then.
        if not ((type(value) is float or type(value) is int) and 0.0 <= value <= 1.0):
            spot = f"{where}.{key}"
            raise InvalidValueError(f"{spot}: {_number(value, spot)} outside [0, 1]")
        weights[key] = float(value)
    return weights


def _known(ident, known, noun: str, where: str) -> str:
    if not isinstance(ident, str):
        raise MalformedDatasetError(f"{where}: {noun} id must be a string")
    if ident not in known:
        raise UnresolvedIdError(f"{where}: unknown {noun} {ident!r}")
    return ident


def _check_rating_row(row, where: str, known_users, items) -> None:
    """Raise the error of a ``ratings`` row that failed the inline check,
    its fields checked in error precedence order."""
    if not isinstance(row, list) or len(row) != 3:
        raise MalformedDatasetError(f"{where}: expected [user, item, value]")
    _known(row[0], known_users, "user", where)
    _known(row[1], items, "item", where)
    _rating(row[2], where)


def _weights_by_id(raw: Mapping, known, noun: str, where: str):
    """{id: unit weights}, each id one of *known*."""
    by_id: dict[str, dict[str, float]] = {}
    for ident, weights in raw.items():
        spot = f"{where}[{ident}]"
        _known(ident, known, noun, spot)
        by_id[ident] = _unit_weights(weights, spot)
    return by_id


def _identified(raw: Mapping, key: str, noun: str):
    """(where, entry, id) for each object of *key*; ids must be unique."""
    seen: set[str] = set()
    for where, entry in _objects(raw, key):
        ident = _section(entry, "id", str, where)
        if ident in seen:
            raise InvalidValueError(f"{where}: duplicate {noun} id {ident!r}")
        seen.add(ident)
        yield where, entry, ident


def _importance(entry: Mapping, where: str, known_users) -> dict[str, float]:
    importance = _unit_weights(entry.get("importance", {}), f"{where}.importance")
    for user in importance:
        _known(user, known_users, "user", f"{where}.importance")
    return importance


def _predicate_fields(entry: dict, where: str) -> tuple[str, str, object]:
    attribute = _section(entry, "attribute", str, where)
    operator = _section(entry, "operator", str, where)
    if operator not in OPERATORS:
        raise InvalidValueError(f"{where}: unknown operator {operator!r}")
    bound = _finite(_section(entry, "bound", object, where), f"{where}.bound")
    if operator in NUMERIC_OPERATORS and (
        isinstance(bound, bool) or not isinstance(bound, (int, float))
    ):
        raise InvalidValueError(
            f"{where}: operator {operator!r} needs a numeric bound"
        )
    return attribute, operator, bound


def load_dataset(path: str | Path) -> Dataset:
    """Parse and validate one dataset file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDatasetError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=lambda c: _reject_constant(path, c))
    except (ValueError, RecursionError) as exc:  # bad JSON, digit limit, nesting
        raise MalformedDatasetError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedDatasetError(f"{path}: top level must be an object")

    scale = _section(raw, "scale", dict, _TOP, {"min": 0, "max": 5})
    if (
        _number(scale.get("min", 0), "scale.min") != RATING_MIN
        or _number(scale.get("max", 5), "scale.max") != RATING_MAX
    ):
        raise InvalidValueError("scale: only the 0..5 rating scale is supported")

    users = _section(raw, "users", list, _TOP)
    known_users: set[str] = set()
    for user in users:
        if not isinstance(user, str):
            raise MalformedDatasetError("users: ids must be strings")
        if user in known_users:
            raise InvalidValueError(f"users: duplicate id {user!r}")
        known_users.add(user)

    items: dict[str, Item] = {}
    for item_id, entry in _section(raw, "items", dict, _TOP).items():
        spot = f"items[{item_id}]"
        attributes = _section(_object(entry, spot), "attributes", dict, spot, {})
        for name, value in attributes.items():
            # the location is built only for a value _finite may reject
            if (type(value) is float and not math.isfinite(value)) or type(value) in (list, dict):
                _finite(value, f"{spot}.attributes.{name}")
        weights = {
            name: _unit_weights(entry.get(name, {}), f"{spot}.{name}")
            for name in _ITEM_WEIGHTS
        }
        items[item_id] = Item._checked(item_id, dict(attributes), **weights)

    # Each row is checked once, here, and filed under its user. A duplicate
    # (user, item) is raised after the loop, so a bad row later in the
    # section still raises first.
    by_user: dict[str, dict[str, float]] = {}
    duplicate = None
    for index, row in enumerate(_section(raw, "ratings", list, _TOP, [])):
        # A valid row passes these inline checks (json.loads makes exact
        # str, int and float); any other row goes to _check_rating_row,
        # which raises its error, so the location is built only then.
        if type(row) is list and len(row) == 3:
            user, item, value = row
        else:
            user = None  # fails the check below
        if not (
            type(user) is str
            and user in known_users
            and type(item) is str
            and item in items
            and (type(value) is float or type(value) is int)
            and RATING_MIN <= value <= RATING_MAX
        ):
            _check_rating_row(row, f"ratings[{index}]", known_users, items)
        rated = by_user.get(user)
        if rated is None:
            rated = by_user[user] = {}
        elif duplicate is None and item in rated:
            duplicate = (user, item)
        rated[item] = float(value)
    if duplicate is not None:
        raise _duplicate_rating(*duplicate)
    matrix = RatingsMatrix._checked(by_user)

    raw_tags = _section(raw, "tags", dict, _TOP, {})
    for item_id, tag_counts in raw_tags.items():
        spot = f"tags[{item_id}]"
        _known(item_id, items, "item", spot)
        _object(tag_counts, spot)
    tags = TagApplications(raw_tags)

    groups: dict[str, Group] = {}
    for group_id, members in _section(raw, "groups", dict, _TOP, {}).items():
        spot = f"groups[{group_id}]"
        if not isinstance(members, list) or not members:
            raise InvalidValueError(f"{spot}: needs a non-empty member list")
        checked = tuple(_known(m, known_users, "user", spot) for m in members)
        groups[group_id] = Group(id=group_id, members=checked)

    weights_by_id = {
        key: _weights_by_id(_section(raw, key, dict, _TOP, {}), known, noun, key)
        for key, known, noun in (
            ("user_category_weights", known_users, "user"),
            ("group_sentiments", groups, "group"),
            ("member_sentiments", known_users, "user"),
        )
    }

    requirements = [
        Requirement(
            ident,
            *_predicate_fields(entry, spot),
            _importance(entry, spot, known_users),
        )
        for spot, entry, ident in _identified(raw, "requirements", "requirement")
    ]
    dimensions = [
        InterestDimension(ident, _importance(entry, spot, known_users))
        for spot, entry, ident in _identified(raw, "dimensions", "dimension")
    ]
    critiques = [
        Critique(
            _known(_section(entry, "author", str, spot), known_users, "user", spot),
            *_predicate_fields(entry, spot),
        )
        for spot, entry in _objects(raw, "critiques")
    ]

    raw_history = _section(raw, "decision_history", dict, _TOP, None)
    decision_history = None
    fairness_weights: dict[str, dict[str, float]] = {}
    if raw_history is not None:
        counts = _section(raw_history, "counts", dict, "decision_history")
        records: dict[str, tuple[int, int]] = {}
        for user, pair in counts.items():
            spot = f"decision_history.counts[{user}]"
            _known(user, known_users, "user", spot)
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
            ):
                raise MalformedDatasetError(f"{spot}: expected [supported, decisions]")
            records[user] = tuple(pair)
        decision_history = DecisionHistory(records=records)
        fairness_weights = _weights_by_id(
            _section(raw_history, "weights", dict, "decision_history", {}),
            known_users,
            "user",
            "decision_history.weights",
        )

    raw_ngr = _section(raw, "neighbor_group_ratings", dict, _TOP, {})
    neighbor_group_ratings: dict[str, dict[str, float]] = {}
    for gp_id, per_item in raw_ngr.items():
        spot = f"neighbor_group_ratings[{gp_id}]"
        ratings = neighbor_group_ratings[gp_id] = {}
        for item_id, value in _object(per_item, spot).items():
            _known(item_id, items, "item", f"{spot}.{item_id}")
            ratings[item_id] = _rating(value, f"{spot}.{item_id}")

    return Dataset(
        users=tuple(users),
        items=items,
        matrix=matrix,
        tags=tags,
        groups=groups,
        **weights_by_id,
        requirements=requirements,
        dimensions=dimensions,
        critiques=critiques,
        decision_history=decision_history,
        fairness_weights=fairness_weights,
        neighbor_group_ratings=neighbor_group_ratings,
    )


def builtin_dataset_path() -> Path:
    """Path of the bundled worked-example dataset."""
    return Path(__file__).with_name("data") / "worked_examples.json"


def load_builtin() -> Dataset:
    return load_dataset(builtin_dataset_path())
