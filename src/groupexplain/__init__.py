"""Explanations for group recommendations.

Four paradigms under one roof: collaborative filtering (neighbor
histograms, aggregated predictions, influential items), content-based
(category interest, tagsplanations, opinion mining), constraint-based
(requirement relevance, MAUT dimensions, fairness, relaxations) and
critiquing (support degrees, verbal summaries). A render layer turns the
numbers into templated sentences and chart data; a CLI drives everything
from JSON datasets.

The exported names are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the names the package exports from it.
_EXPORTS = {
    "cb": (
        "category_relevance",
        "group_tag_preference",
        "group_tag_relevance",
        "opinion_relevance",
        "opinion_relevance_per_member",
        "pros_cons",
        "rank_categories",
        "tag_preference",
        "tag_relevance",
    ),
    "cf": (
        "HistogramCounts",
        "ItemInfluence",
        "MemberPrediction",
        "NeighborAssignment",
        "RatingHistogram",
        "aggregation_explanation",
        "group_rating_histogram",
        "influential_items",
        "member_predictions",
        "nn_rating_histogram",
    ),
    "constraint": (
        "RelaxationProposal",
        "adapt_weights",
        "causally_relevant",
        "constrained_items",
        "fairness_degree",
        "group_fairness",
        "maut_relevance",
        "rank_dimensions",
        "relaxation_proposals",
        "requirement_relevance",
    ),
    "core": (
        "AggregationStrategy",
        "Critique",
        "DecisionHistory",
        "Group",
        "InterestDimension",
        "Item",
        "RatingBucket",
        "RatingsMatrix",
        "Requirement",
        "TagApplications",
        "aggregate",
        "categorize_rating",
        "knn_neighbors",
        "pearson",
        "predict_rating",
    ),
    "critique": (
        "SupportMatrix",
        "critique_explanation",
        "critique_support",
        "support_matrix",
    ),
    "dataset": ("Dataset", "builtin_dataset_path", "load_builtin", "load_dataset"),
    "errors": ("GroupExplainError",),
    "render": (
        "ChartData",
        "Explanation",
        "histogram_chart",
        "render_explanation",
        "spider_chart",
        "tag_cloud",
    ),
    "svg": ("render_svg",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # The name is looked up in its module on every read and never bound
    # here, so a patched module attribute is what the package returns.
    # An imported submodule is bound here, by the import system.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(home) or import_module(f"{__name__}.{home}")
    return getattr(module, name)
