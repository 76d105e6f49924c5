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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .cb import TagApplications
from .constraint import DecisionHistory, InterestDimension, Requirement
from .core import (
    OPERATORS,
    RATING_MAX,
    RATING_MIN,
    Group,
    Item,
    RatingsMatrix,
)
from .critique import Critique
from .errors import (
    InvalidValueError,
    MalformedDatasetError,
    UnresolvedIdError,
)


@dataclass
class Dataset:
    users: tuple[str, ...]
    items: dict[str, Item]
    matrix: RatingsMatrix
    tags: TagApplications
    groups: dict[str, Group]
    user_category_weights: dict[str, dict[str, float]] = field(default_factory=dict)
    group_sentiments: dict[str, dict[str, float]] = field(default_factory=dict)
    member_sentiments: dict[str, dict[str, float]] = field(default_factory=dict)
    requirements: list[Requirement] = field(default_factory=list)
    dimensions: list[InterestDimension] = field(default_factory=list)
    critiques: list[Critique] = field(default_factory=list)
    decision_history: DecisionHistory | None = None
    fairness_weights: dict[str, dict[str, float]] = field(default_factory=dict)
    neighbor_group_ratings: dict[str, dict[str, float]] = field(default_factory=dict)

    def group(self, group_id: str) -> Group:
        if group_id not in self.groups:
            raise UnresolvedIdError(f"unknown group {group_id!r}")
        return self.groups[group_id]

    def item(self, item_id: str) -> Item:
        if item_id not in self.items:
            raise UnresolvedIdError(f"unknown item {item_id!r}")
        return self.items[item_id]


def _require(mapping: Mapping, key: str, kind: type, where: str):
    if key not in mapping:
        raise MalformedDatasetError(f"{where}: missing required section {key!r}")
    value = mapping[key]
    if not isinstance(value, kind):
        raise MalformedDatasetError(
            f"{where}: section {key!r} must be a {kind.__name__}"
        )
    return value


def _optional(mapping: Mapping, key: str, kind: type, where: str, default):
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, kind):
        raise MalformedDatasetError(
            f"{where}: section {key!r} must be a {kind.__name__}"
        )
    return value


def _reject_constant(path, constant: str):
    raise MalformedDatasetError(f"{path}: non-finite number {constant} is not allowed")


def _finite(value, where: str):
    """Reject the infinity json.loads makes of an overflowing literal like 1e999."""
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidValueError(f"{where}: {value} is not a finite number")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedDatasetError(f"{where}: expected a number, got {value!r}")
    try:
        return _finite(float(value), where)
    except OverflowError:  # an integer literal beyond the float range
        raise InvalidValueError(f"{where}: integer too large for a float") from None


def _unit_weights(raw, where: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise MalformedDatasetError(f"{where}: expected an object")
    weights: dict[str, float] = {}
    for key, value in raw.items():
        number = _number(value, f"{where}.{key}")
        if not 0.0 <= number <= 1.0:
            raise InvalidValueError(f"{where}.{key}: {number} outside [0, 1]")
        weights[key] = number
    return weights


def _check_user(user, known: set[str], where: str) -> str:
    if not isinstance(user, str):
        raise MalformedDatasetError(f"{where}: user id must be a string")
    if user not in known:
        raise UnresolvedIdError(f"{where}: unknown user {user!r}")
    return user


def _check_item(item, known: set[str], where: str) -> str:
    if not isinstance(item, str):
        raise MalformedDatasetError(f"{where}: item id must be a string")
    if item not in known:
        raise UnresolvedIdError(f"{where}: unknown item {item!r}")
    return item


def _predicate_fields(entry: dict, where: str) -> tuple[str, str, object]:
    attribute = _require(entry, "attribute", str, where)
    operator = _require(entry, "operator", str, where)
    if operator not in OPERATORS:
        raise InvalidValueError(f"{where}: unknown operator {operator!r}")
    if "bound" not in entry:
        raise MalformedDatasetError(f"{where}: missing required section 'bound'")
    bound = _finite(entry["bound"], f"{where}.bound")
    if operator in ("<=", ">=") and (
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
    except OSError as exc:
        raise MalformedDatasetError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=lambda c: _reject_constant(path, c))
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise MalformedDatasetError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedDatasetError(f"{path}: top level must be an object")

    where = "dataset"
    scale = _optional(raw, "scale", dict, where, {"min": 0, "max": 5})
    if (
        _number(scale.get("min", 0), "scale.min") != RATING_MIN
        or _number(scale.get("max", 5), "scale.max") != RATING_MAX
    ):
        raise InvalidValueError("scale: only the 0..5 rating scale is supported")

    raw_users = _require(raw, "users", list, where)
    users: list[str] = []
    for user in raw_users:
        if not isinstance(user, str):
            raise MalformedDatasetError("users: ids must be strings")
        if user in users:
            raise InvalidValueError(f"users: duplicate id {user!r}")
        users.append(user)
    known_users = set(users)

    raw_items = _require(raw, "items", dict, where)
    items: dict[str, Item] = {}
    for item_id, entry in raw_items.items():
        if not isinstance(entry, dict):
            raise MalformedDatasetError(f"items[{item_id}]: must be an object")
        attributes = _optional(entry, "attributes", dict, f"items[{item_id}]", {})
        for name, value in attributes.items():
            _finite(value, f"items[{item_id}].attributes.{name}")
        items[item_id] = Item(
            id=item_id,
            attributes=dict(attributes),
            category_weights=_unit_weights(
                entry.get("category_weights", {}), f"items[{item_id}].category_weights"
            ),
            feature_sentiments=_unit_weights(
                entry.get("feature_sentiments", {}),
                f"items[{item_id}].feature_sentiments",
            ),
            dimension_contributions=_unit_weights(
                entry.get("dimension_contributions", {}),
                f"items[{item_id}].dimension_contributions",
            ),
        )
    known_items = set(items)

    raw_ratings = _optional(raw, "ratings", list, where, [])
    triples: list[tuple[str, str, float]] = []
    for index, row in enumerate(raw_ratings):
        spot = f"ratings[{index}]"
        if not isinstance(row, list) or len(row) != 3:
            raise MalformedDatasetError(f"{spot}: expected [user, item, value]")
        user = _check_user(row[0], known_users, spot)
        item = _check_item(row[1], known_items, spot)
        value = _number(row[2], spot)
        if not RATING_MIN <= value <= RATING_MAX:
            raise InvalidValueError(f"{spot}: rating {value} outside [0, 5]")
        triples.append((user, item, value))
    matrix = RatingsMatrix(triples)

    raw_tags = _optional(raw, "tags", dict, where, {})
    for item_id, tag_counts in raw_tags.items():
        spot = f"tags[{item_id}]"
        _check_item(item_id, known_items, spot)
        if not isinstance(tag_counts, dict):
            raise MalformedDatasetError(f"{spot}: must be an object")
    tags = TagApplications(raw_tags)

    raw_groups = _optional(raw, "groups", dict, where, {})
    groups: dict[str, Group] = {}
    for group_id, members in raw_groups.items():
        spot = f"groups[{group_id}]"
        if not isinstance(members, list) or not members:
            raise InvalidValueError(f"{spot}: needs a non-empty member list")
        checked = tuple(_check_user(m, known_users, spot) for m in members)
        groups[group_id] = Group(id=group_id, members=checked)

    raw_ucw = _optional(raw, "user_category_weights", dict, where, {})
    user_category_weights = {
        _check_user(user, known_users, f"user_category_weights[{user}]"): _unit_weights(
            weights, f"user_category_weights[{user}]"
        )
        for user, weights in raw_ucw.items()
    }

    raw_gs = _optional(raw, "group_sentiments", dict, where, {})
    group_sentiments = {}
    for group_id, sentiments in raw_gs.items():
        spot = f"group_sentiments[{group_id}]"
        if group_id not in groups:
            raise UnresolvedIdError(f"{spot}: unknown group {group_id!r}")
        group_sentiments[group_id] = _unit_weights(sentiments, spot)

    raw_ms = _optional(raw, "member_sentiments", dict, where, {})
    member_sentiments = {
        _check_user(user, known_users, f"member_sentiments[{user}]"): _unit_weights(
            sentiments, f"member_sentiments[{user}]"
        )
        for user, sentiments in raw_ms.items()
    }

    raw_reqs = _optional(raw, "requirements", list, where, [])
    requirements: list[Requirement] = []
    for index, entry in enumerate(raw_reqs):
        spot = f"requirements[{index}]"
        if not isinstance(entry, dict):
            raise MalformedDatasetError(f"{spot}: must be an object")
        req_id = _require(entry, "id", str, spot)
        if any(r.id == req_id for r in requirements):
            raise InvalidValueError(f"{spot}: duplicate requirement id {req_id!r}")
        attribute, operator, bound = _predicate_fields(entry, spot)
        importance = _unit_weights(
            entry.get("importance", {}), f"{spot}.importance"
        )
        for user in importance:
            _check_user(user, known_users, f"{spot}.importance")
        requirements.append(
            Requirement(
                id=req_id,
                attribute=attribute,
                operator=operator,
                bound=bound,
                importance=importance,
            )
        )

    raw_dims = _optional(raw, "dimensions", list, where, [])
    dimensions: list[InterestDimension] = []
    for index, entry in enumerate(raw_dims):
        spot = f"dimensions[{index}]"
        if not isinstance(entry, dict):
            raise MalformedDatasetError(f"{spot}: must be an object")
        dim_id = _require(entry, "id", str, spot)
        if any(d.id == dim_id for d in dimensions):
            raise InvalidValueError(f"{spot}: duplicate dimension id {dim_id!r}")
        importance = _unit_weights(entry.get("importance", {}), f"{spot}.importance")
        for user in importance:
            _check_user(user, known_users, f"{spot}.importance")
        dimensions.append(InterestDimension(id=dim_id, importance=importance))

    raw_critiques = _optional(raw, "critiques", list, where, [])
    critiques: list[Critique] = []
    for index, entry in enumerate(raw_critiques):
        spot = f"critiques[{index}]"
        if not isinstance(entry, dict):
            raise MalformedDatasetError(f"{spot}: must be an object")
        author = _check_user(_require(entry, "author", str, spot), known_users, spot)
        attribute, operator, bound = _predicate_fields(entry, spot)
        critiques.append(
            Critique(author=author, attribute=attribute, operator=operator, bound=bound)
        )

    raw_history = _optional(raw, "decision_history", dict, where, None)
    decision_history = None
    fairness_weights: dict[str, dict[str, float]] = {}
    if raw_history is not None:
        counts_raw = _require(raw_history, "counts", dict, "decision_history")
        records: dict[str, tuple[int, int]] = {}
        for user, pair in counts_raw.items():
            spot = f"decision_history.counts[{user}]"
            _check_user(user, known_users, spot)
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
            ):
                raise MalformedDatasetError(f"{spot}: expected [supported, decisions]")
            records[user] = tuple(pair)
        decision_history = DecisionHistory(records=records)
        weights_raw = _optional(raw_history, "weights", dict, "decision_history", {})
        for user, weights in weights_raw.items():
            spot = f"decision_history.weights[{user}]"
            _check_user(user, known_users, spot)
            fairness_weights[user] = _unit_weights(weights, spot)

    raw_ngr = _optional(raw, "neighbor_group_ratings", dict, where, {})
    neighbor_group_ratings: dict[str, dict[str, float]] = {}
    for gp_id, per_item in raw_ngr.items():
        spot = f"neighbor_group_ratings[{gp_id}]"
        if not isinstance(per_item, dict):
            raise MalformedDatasetError(f"{spot}: must be an object")
        row: dict[str, float] = {}
        for item_id, value in per_item.items():
            _check_item(item_id, known_items, f"{spot}.{item_id}")
            number = _number(value, f"{spot}.{item_id}")
            if not RATING_MIN <= number <= RATING_MAX:
                raise InvalidValueError(
                    f"{spot}.{item_id}: rating {number} outside [0, 5]"
                )
            row[item_id] = number
        neighbor_group_ratings[gp_id] = row

    return Dataset(
        users=tuple(users),
        items=items,
        matrix=matrix,
        tags=tags,
        groups=groups,
        user_category_weights=user_category_weights,
        group_sentiments=group_sentiments,
        member_sentiments=member_sentiments,
        requirements=requirements,
        dimensions=dimensions,
        critiques=critiques,
        decision_history=decision_history,
        fairness_weights=fairness_weights,
        neighbor_group_ratings=neighbor_group_ratings,
    )


def builtin_dataset_path() -> Path:
    """Path of the bundled worked-example dataset."""
    return Path(
        str(resources.files("groupexplain").joinpath("data/worked_examples.json"))
    )


def load_builtin() -> Dataset:
    return load_dataset(builtin_dataset_path())
