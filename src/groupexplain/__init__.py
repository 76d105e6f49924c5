"""Explanations for group recommendations.

Four paradigms under one roof: collaborative filtering (neighbor
histograms, aggregated predictions, influential items), content-based
(category interest, tagsplanations, opinion mining), constraint-based
(requirement relevance, MAUT dimensions, fairness, relaxations) and
critiquing (support degrees, verbal summaries). A render layer turns the
numbers into templated sentences and chart data; a CLI drives everything
from JSON datasets.

The exported names are resolved on use, so importing the package, or one
of its modules, loads only the modules that it needs.
"""

import sys
from importlib import import_module
from types import ModuleType

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
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


class _Export:
    """One exported name, read from its module on every access.

    Nothing is bound in the package, so a patched module attribute is what
    the package returns. The descriptor sits on the package's module type,
    so a read never reaches the module ``__getattr__`` hook (PEP 562), which
    Python 3.11 calls only after building and discarding an
    ``AttributeError``: that costs about ten times this lookup, on every
    ``groupexplain.name`` read.
    """

    __slots__ = ("module", "name")

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name

    def __get__(self, package, owner=None):
        module = sys.modules.get(self.module) or import_module(self.module)
        return getattr(module, self.name)


# The package's module type: one _Export per exported name.
_Package = type(
    "_Package",
    (ModuleType,),
    {
        name: _Export(f"{__name__}.{home}", name)
        for home, names in _EXPORTS.items()
        for name in names
    },
)
sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    # Only a submodule not yet imported, or an unknown name, gets here; an
    # imported submodule is bound in the package by the import system.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
