"""Content-based explanations: category interest, tag statistics, opinions.

Relevance of a category to a group is the group-mean product of user and
item weights. Tag statistics follow the tagsplanation idea: a preference
(how much the user likes items carrying the tag) and a relevance (how
strongly the tag correlates with the user's ratings).
"""

from __future__ import annotations

import math
from typing import Mapping

from .core import (
    AggregationStrategy, Group, Item, RatingsMatrix, TagApplications, _ranked,
    aggregate, pearson,
)
from .errors import (
    EmptyGroupError,
    MissingFeatureError,
    MissingWeightError,
    NoTaggedRatingsError,
)
from .render import PRIVACY_ANONYMOUS, PRIVACY_NAMED

#: user id -> category id -> interest weight in [0, 1]
UserCategoryWeights = Mapping[str, Mapping[str, float]]


def category_relevance(
    group: Group, weights: UserCategoryWeights, item: Item, category: str
) -> float:
    """Group-mean of userweight * itemweight for one category."""
    if category not in item.category_weights:
        raise MissingWeightError(
            f"item {item.id!r} has no weight for category {category!r}"
        )
    for member in group.members:
        if category not in weights.get(member, {}):
            raise MissingWeightError(
                f"user {member!r} has no weight for category {category!r}"
            )
    item_weight = item.category_weights[category]
    total = math.fsum(weights[m][category] * item_weight for m in group.members)
    return total / len(group.members)


def rank_categories(
    group: Group, weights: UserCategoryWeights, item: Item
) -> list[tuple[str, float]]:
    """All categories the item carries, by descending relevance, ties ascending."""
    if not item.category_weights:
        raise MissingWeightError(f"item {item.id!r} carries no category weights")
    return _ranked(
        (category, category_relevance(group, weights, item, category))
        for category in sorted(item.category_weights)
    )


def _tagged_rated_items(
    matrix: RatingsMatrix, tags: TagApplications, user: str
) -> list[str]:
    return sorted(i for i in matrix.items_rated_by(user) if tags.has_tags(i))


def tag_preference(
    matrix: RatingsMatrix, tags: TagApplications, user: str, tag: str
) -> float:
    """Rating-weighted mean tag share over the user's tagged rated items.

    sum(rating * share) / sum(rating); 0.0 when every rating is zero.
    """
    items = _tagged_rated_items(matrix, tags, user)
    if not items:
        raise NoTaggedRatingsError(f"user {user!r} rated no items carrying tags")
    row = matrix.items_rated_by(user)
    denominator = math.fsum(row[i] for i in items)
    if denominator == 0.0:
        return 0.0
    numerator = math.fsum(row[i] * tags.share(i, tag) for i in items)
    return numerator / denominator


def tag_relevance(
    matrix: RatingsMatrix, tags: TagApplications, user: str, tag: str
) -> float:
    """Pearson correlation between the user's ratings and the tag's shares."""
    items = _tagged_rated_items(matrix, tags, user)
    if len(items) < 2:
        raise NoTaggedRatingsError(
            f"user {user!r} rated fewer than two items carrying tags"
        )
    row = matrix.items_rated_by(user)
    return pearson([row[i] for i in items], [tags.share(i, tag) for i in items])


def member_tag_preferences(
    matrix: RatingsMatrix, tags: TagApplications, group: Group, tag: str
) -> dict[str, float]:
    """Each member's tag preference, in member order."""
    return {
        member: tag_preference(matrix, tags, member, tag) for member in group.members
    }


def group_tag_preference(
    matrix: RatingsMatrix, tags: TagApplications, group: Group, tag: str
) -> float:
    """Mean member tag preference."""
    preferences = member_tag_preferences(matrix, tags, group, tag)
    return aggregate(preferences, AggregationStrategy.AVG)[0]


def group_tag_relevance(
    matrix: RatingsMatrix,
    tags: TagApplications,
    group: Group,
    tag: str,
    privacy: str = PRIVACY_NAMED,
) -> float:
    """Tag relevance lifted to the group.

    Named mode averages per-member relevances (aggregated predictions);
    anonymous mode correlates against a synthetic group rating row built
    from per-item member means (aggregated models).
    """
    if privacy == PRIVACY_ANONYMOUS:
        items = sorted(
            {
                item
                for member in group.members
                for item in matrix.items_rated_by(member)
                if tags.has_tags(item)
            }
        )
        if len(items) < 2:
            raise NoTaggedRatingsError(
                f"group {group.id!r} rated fewer than two items carrying tags"
            )
        group_row = []
        for item in items:
            ratings = [
                matrix.get(member, item)
                for member in group.members
                if matrix.get(member, item) is not None
            ]
            group_row.append(math.fsum(ratings) / len(ratings))
        return pearson(group_row, [tags.share(i, tag) for i in items])
    total = math.fsum(
        tag_relevance(matrix, tags, member, tag) for member in group.members
    )
    return total / len(group.members)


def tag_summary(
    matrix: RatingsMatrix,
    tags: TagApplications,
    group: Group,
    threshold: float = 0.4,
    privacy: str = PRIVACY_NAMED,
) -> tuple[list[tuple[str, float, float, list[str]]], list[str]]:
    """Tags ranked by group preference, as (tag, preference, relevance, likers).

    Likers are the members whose preference reaches *threshold*, ascending.
    Also returns the favoured tags: those whose group preference reaches
    it, or else the top tag. Each member preference is computed once.
    """
    if not tags.tags():
        raise NoTaggedRatingsError("dataset has no tag applications")
    rows = []
    for tag in tags.tags():
        prefs = member_tag_preferences(matrix, tags, group, tag)
        preference = aggregate(prefs, AggregationStrategy.AVG)[0]
        relevance = group_tag_relevance(matrix, tags, group, tag, privacy=privacy)
        likers = [m for m in sorted(prefs) if prefs[m] >= threshold]
        rows.append((tag, preference, relevance, likers))
    rows = _ranked(rows)
    favored = [tag for tag, pref, _, _ in rows if pref >= threshold]
    return rows, favored or [rows[0][0]]


def opinion_relevance(
    profile: Mapping[str, float], item: Item, feature: str
) -> float:
    """Group sentiment times item sentiment for one feature."""
    if feature not in profile:
        raise MissingFeatureError(f"profile has no sentiment for feature {feature!r}")
    if feature not in item.feature_sentiments:
        raise MissingFeatureError(
            f"item {item.id!r} has no sentiment for feature {feature!r}"
        )
    return profile[feature] * item.feature_sentiments[feature]


def pros_cons(
    profile: Mapping[str, float], item: Item, threshold: float = 0.4
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Partition the item's features into pros (relevance >= threshold) and cons.

    Both lists come back sorted by descending relevance, ties ascending, so
    pros + cons is the whole ranking.
    """
    if not item.feature_sentiments:
        raise MissingFeatureError(f"item {item.id!r} carries no feature sentiments")
    ranked = _ranked(
        (feature, opinion_relevance(profile, item, feature))
        for feature in sorted(item.feature_sentiments)
    )
    pros = [pair for pair in ranked if pair[1] >= threshold]
    return pros, ranked[len(pros):]


def opinion_relevance_per_member(
    member_profiles: Mapping[str, Mapping[str, float]],
    item: Item,
    feature: str,
) -> float:
    """Mean over members of sentiment * item sentiment for one feature."""
    if not member_profiles:
        raise EmptyGroupError("no member sentiment profiles given")
    total = 0.0
    for member in sorted(member_profiles):
        profile = member_profiles[member]
        if feature not in profile:
            raise MissingFeatureError(
                f"member {member!r} has no sentiment for feature {feature!r}"
            )
        total += opinion_relevance(profile, item, feature)
    return total / len(member_profiles)
