"""Explanations for group recommendations.

Four paradigms under one roof: collaborative filtering (neighbor
histograms, aggregated predictions, influential items), content-based
(category interest, tagsplanations, opinion mining), constraint-based
(requirement relevance, MAUT dimensions, fairness, relaxations) and
critiquing (support degrees, verbal summaries). A render layer turns the
numbers into templated sentences and chart data; a CLI drives everything
from JSON datasets.
"""

from .cb import (
    TagApplications,
    category_relevance,
    group_tag_preference,
    group_tag_relevance,
    opinion_relevance,
    opinion_relevance_per_member,
    pros_cons,
    rank_categories,
    tag_preference,
    tag_relevance,
)
from .cf import (
    HistogramCounts,
    ItemInfluence,
    MemberPrediction,
    NeighborAssignment,
    RatingHistogram,
    aggregation_explanation,
    group_rating_histogram,
    influential_items,
    member_predictions,
    nn_rating_histogram,
)
from .constraint import (
    DecisionHistory,
    InterestDimension,
    RelaxationProposal,
    Requirement,
    adapt_weights,
    causally_relevant,
    fairness_degree,
    group_fairness,
    maut_relevance,
    mean_importance,
    relaxation_proposals,
    requirement_relevance,
)
from .core import (
    AggregationStrategy,
    Group,
    Item,
    RatingBucket,
    RatingsMatrix,
    aggregate,
    categorize_rating,
    knn_neighbors,
    pearson,
    predict_rating,
)
from .critique import (
    Critique,
    SupportMatrix,
    critique_explanation,
    critique_support,
    support_matrix,
)
from .dataset import Dataset, builtin_dataset_path, load_builtin, load_dataset
from .errors import GroupExplainError
from .render import (
    ChartData,
    Explanation,
    histogram_chart,
    render_explanation,
    spider_chart,
    tag_cloud,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AggregationStrategy",
    "ChartData",
    "Critique",
    "Dataset",
    "DecisionHistory",
    "Explanation",
    "Group",
    "GroupExplainError",
    "HistogramCounts",
    "InterestDimension",
    "Item",
    "ItemInfluence",
    "MemberPrediction",
    "NeighborAssignment",
    "RatingBucket",
    "RatingHistogram",
    "RatingsMatrix",
    "RelaxationProposal",
    "Requirement",
    "SupportMatrix",
    "TagApplications",
    "adapt_weights",
    "aggregate",
    "aggregation_explanation",
    "builtin_dataset_path",
    "categorize_rating",
    "category_relevance",
    "causally_relevant",
    "critique_explanation",
    "critique_support",
    "fairness_degree",
    "group_fairness",
    "group_rating_histogram",
    "group_tag_preference",
    "group_tag_relevance",
    "histogram_chart",
    "influential_items",
    "knn_neighbors",
    "load_builtin",
    "load_dataset",
    "maut_relevance",
    "mean_importance",
    "member_predictions",
    "nn_rating_histogram",
    "opinion_relevance",
    "opinion_relevance_per_member",
    "pearson",
    "predict_rating",
    "pros_cons",
    "rank_categories",
    "relaxation_proposals",
    "render_explanation",
    "render_svg",
    "requirement_relevance",
    "spider_chart",
    "support_matrix",
    "tag_cloud",
    "tag_preference",
    "tag_relevance",
]
