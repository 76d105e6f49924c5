"""Acceptance gate: one test per criterion, named test_criterion_NN_*.

Each criterion pins the published worked-example values (exact integers,
2-decimal display for reals unless stated), an independent oracle, or an
end-to-end CLI check. Tolerances: display comparisons use the shared
display rounding; raw float oracles compare at 1e-9; bit-exact identities
use ==.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from groupexplain import (
    Group,
    Item,
    NeighborAssignment,
    Requirement,
    RatingsMatrix,
    adapt_weights,
    category_relevance,
    critique_support,
    fairness_degree,
    group_rating_histogram,
    influential_items,
    maut_relevance,
    nn_rating_histogram,
    opinion_relevance,
    pros_cons,
    relaxation_proposals,
    requirement_relevance,
    support_matrix,
)
from groupexplain.cli import main
from groupexplain.render import display_round, display_trunc

import test_cli
import test_properties


# ---------------------------------------------------------------- criterion 1

NN_HISTOGRAMS = {
    "t1": (0, 2, 4),
    "t2": (0, 5, 1),
    "t3": (0, 4, 2),
    "t4": (0, 0, 6),
    "t5": (0, 3, 3),
}


def test_criterion_01_member_neighbor_histograms(dataset, g1):
    started = time.perf_counter()
    assignment = NeighborAssignment.from_knn(dataset.matrix, g1, k=2)
    for item, expected in NN_HISTOGRAMS.items():
        histogram = nn_rating_histogram(dataset.matrix, assignment, item)
        assert tuple(histogram.counts) == expected, item
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------- criterion 2

GROUP_HISTOGRAMS = {
    "t1": (0, 1, 3),
    "t2": (2, 2, 0),
    "t3": (0, 3, 1),
    "t4": (0, 0, 4),
    "t5": (0, 2, 2),
}


def test_criterion_02_neighbor_group_histograms(dataset):
    for item, expected in GROUP_HISTOGRAMS.items():
        ratings = {
            gp: row[item]
            for gp, row in dataset.neighbor_group_ratings.items()
            if item in row
        }
        histogram = group_rating_histogram(ratings, item)
        assert tuple(histogram.counts) == expected, item


# ---------------------------------------------------------------- criterion 3

CATEGORY_CELLS = {
    "t1": {"cat1": 0.01, "cat2": 0.28, "cat3": 0.02, "cat4": 0.03},
    "t2": {"cat1": 0.01, "cat2": 0.08, "cat3": 0.08, "cat4": 0.06},
    "t3": {"cat1": 0.02, "cat2": 0.08, "cat3": 0.04, "cat4": 0.09},
    "t4": {"cat1": 0.03, "cat2": 0.0, "cat3": 0.06, "cat4": 0.03},
}
CATEGORY_MARKS = {
    "t1": {"cat2"},
    "t2": {"cat2", "cat3"},
    "t3": {"cat4"},
    "t4": {"cat3"},
}


def test_criterion_03_category_relevance_cells(dataset, g1):
    weights = dataset.user_category_weights
    for item_id, row in CATEGORY_CELLS.items():
        item = dataset.items[item_id]
        displayed = {
            cat: display_round(category_relevance(g1, weights, item, cat))
            for cat in row
        }
        assert displayed == row, item_id
        top = max(displayed.values())
        assert {c for c, v in displayed.items() if v == top} == CATEGORY_MARKS[item_id]


# ---------------------------------------------------------------- criterion 4

OPINION_CELLS = {
    "t1": {"f1": 0.019, "f2": 0.46, "f3": 0.10, "f4": 0.75},
    "t2": {"f1": 0.023, "f2": 0.40, "f3": 0.09, "f4": 0.62},
    "t3": {"f1": 0.035, "f2": 0.36, "f3": 0.04, "f4": 0.40},
    "t4": {"f1": 0.068, "f2": 0.40, "f3": 0.07, "f4": 0.63},
}
PRO_SETS = {"t1": {"f2", "f4"}, "t2": {"f4"}, "t3": {"f4"}, "t4": {"f4"}}


def test_criterion_04_opinion_relevance_cells(dataset, g1):
    profile = dataset.group_sentiments[g1.id]
    for item_id, row in OPINION_CELLS.items():
        item = dataset.items[item_id]
        for feature, printed in row.items():
            relevance = opinion_relevance(profile, item, feature)
            assert display_round(relevance) == display_round(printed), (
                item_id,
                feature,
            )
        pros, cons = pros_cons(profile, item, threshold=0.4)
        assert {f for f, _ in pros} == PRO_SETS[item_id], item_id
        # the split uses the exact relevance, not its display rounding
        assert all(er >= 0.4 for _, er in pros)
        assert all(er < 0.4 for _, er in cons)


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_requirement_relevance(dataset, g1):
    displayed = {
        req.id: display_round(requirement_relevance(g1, req))
        for req in dataset.requirements
    }
    assert displayed == {"req1": 0.3, "req2": 0.33, "req3": 0.37}
    assert max(displayed, key=displayed.get) == "req3"


# ---------------------------------------------------------------- criterion 6

MAUT_CELLS = {
    "t1": {"dim1": 0.05, "dim2": 0.14, "dim3": 0.15},
    "t2": {"dim1": 0.05, "dim2": 0.23, "dim3": 0.07},
    "t3": {"dim1": 0.02, "dim2": 0.28, "dim3": 0.07},
}
MAUT_MARKS = {"t1": "dim3", "t2": "dim2", "t3": "dim2"}


def test_criterion_06_maut_relevance_cells(dataset, g1):
    dimensions = {d.id: d for d in dataset.dimensions}
    for item_id, row in MAUT_CELLS.items():
        item = dataset.items[item_id]
        displayed = {
            dim_id: display_round(maut_relevance(g1, dimensions[dim_id], item))
            for dim_id in row
        }
        assert displayed == row, item_id
        assert max(displayed, key=displayed.get) == MAUT_MARKS[item_id]


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_fairness_adaptation(dataset, g1):
    history = dataset.decision_history
    degrees = tuple(fairness_degree(history, m) for m in g1.members)
    assert degrees == (0.5, 0.75, 1.0)
    adapted = adapt_weights(g1, dataset.fairness_weights, history)
    # u1 sits 0.25 below the mean: factor 1.25, exact in binary floats
    assert adapted["u1"] == {"dim1": 0.375, "dim2": 0.375, "dim3": 0.5}
    # u2 sits exactly at the mean: weights unchanged bit-for-bit
    assert adapted["u2"] == dataset.fairness_weights["u2"]
    # u3 sits 0.25 above: factor 0.75; rows match the printed 4-decimal values
    for dim, printed in (("dim1", 0.225), ("dim2", 0.15), ("dim3", 0.375)):
        assert adapted["u3"][dim] == pytest.approx(printed, abs=1e-12)
        assert display_round(adapted["u3"][dim], 4) == printed


# ---------------------------------------------------------------- criterion 8

SUPPORT_CELLS = {
    "t1": {"price": 1.0, "resolution": 0.66, "weight": 0.33, "exchangeable_lens": 0.66},
    "t2": {"price": 0.66, "resolution": 1.0, "weight": 0.0, "exchangeable_lens": 0.66},
    "t3": {"price": 0.0, "resolution": 1.0, "weight": 0.33, "exchangeable_lens": 0.33},
}


def test_criterion_08_critique_support_values(dataset):
    critiques = dataset.critiques
    for item_id, row in SUPPORT_CELLS.items():
        item = dataset.items[item_id]
        for attribute, printed in row.items():
            support = critique_support(critiques, attribute, item)
            # printed values truncate toward zero: 2/3 appears as 0.66
            assert display_trunc(support) == printed, (item_id, attribute)


# ---------------------------------------------------------------- criterion 9

T1_SUPPORT_MATRIX = {
    ("u1", "price"): True,
    ("u1", "resolution"): True,
    ("u1", "weight"): False,
    ("u1", "exchangeable_lens"): True,
    ("u2", "price"): True,
    ("u2", "resolution"): True,
    ("u2", "weight"): True,
    ("u2", "exchangeable_lens"): True,
    ("u3", "price"): True,
    ("u3", "resolution"): False,
    ("u3", "weight"): False,
    ("u3", "exchangeable_lens"): False,
}


def test_criterion_09_critique_matrix(dataset):
    matrix = support_matrix(dataset.critiques, dataset.items["t1"])
    assert dict(matrix.cells) == T1_SUPPORT_MATRIX
    assert matrix.rows == ("u1", "u2", "u3")


# --------------------------------------------------------------- criterion 10

PROPERTY_SUITES = (
    test_properties.test_aggregation_ordering,
    test_properties.test_aggregation_permutation_invariance,
    test_properties.test_bucket_partition,
    test_properties.test_pearson_affine_invariance,
    test_properties.test_relaxation_matches_brute_force,
    test_properties.test_column_checks_match_the_per_pair_reference,
    test_properties.test_equal_fairness_keeps_weights,
    test_properties.test_critique_support_monotone,
    test_properties.test_anonymous_outputs_never_leak_member_ids,
)


def test_criterion_10_property_suites_run_at_200_examples():
    assert len(PROPERTY_SUITES) == 9
    for suite in PROPERTY_SUITES:
        runs = suite._hypothesis_internal_use_settings.max_examples
        assert runs >= 200, suite.__name__
        suite()  # executes the full generative search


# --------------------------------------------------------------- criterion 11

INFLUENCE_RATINGS = [
    ("a", "m1", 4.0), ("a", "m2", 3.0), ("a", "m3", 5.0), ("a", "m4", 2.0),
    ("a", "m5", 3.5),
    ("b", "m1", 3.0), ("b", "m2", 2.5), ("b", "m3", 4.5), ("b", "m4", 1.0),
    ("b", "m6", 4.0),
    ("c", "m2", 3.5), ("c", "m3", 4.0), ("c", "m4", 2.5), ("c", "m5", 4.0),
    ("d", "m1", 2.0), ("d", "m2", 4.0), ("d", "m3", 2.0), ("d", "m5", 1.0),
    ("d", "m6", 2.5),
    ("e", "m1", 5.0), ("e", "m3", 3.0), ("e", "m4", 4.0), ("e", "m5", 2.0),
    ("e", "m6", 1.0),
]


def _oracle_pearson(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.std() == 0.0 or y.std() == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0][1])


def _oracle_predict(table, user, item, k=2):
    """None when no neighbor rated the item (no prediction basis)."""
    scored = []
    for other, row in table.items():
        if other == user:
            continue
        common = sorted(set(table[user]) & set(row))
        if len(common) < 2:
            continue
        scored.append(
            (other, _oracle_pearson(
                [table[user][i] for i in common], [row[i] for i in common]
            ))
        )
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    raters = [(v, s) for v, s in scored[:k] if item in table[v]]
    if not raters:
        return None
    mean_of = lambda u: float(np.mean(list(table[u].values())))
    numerator = sum(s * (table[v][item] - mean_of(v)) for v, s in raters)
    denominator = sum(abs(s) for _, s in raters)
    deviation = numerator / denominator if denominator > 0.0 else 0.0
    return float(np.clip(mean_of(user) + deviation, 0.0, 5.0))


def _oracle_influence(ratings, members, target, k=2):
    table = {}
    for user, item, value in ratings:
        table.setdefault(user, {})[item] = value
    base = {
        m: _oracle_predict(table, m, target, k)
        for m in members
        if _oracle_predict(table, m, target, k) is not None
    }
    candidates = sorted(
        {i for m in members for i in table.get(m, {}) if i != target}
    )
    results = []
    for candidate in candidates:
        reduced = {
            u: {i: r for i, r in row.items() if i != candidate}
            for u, row in table.items()
        }
        reduced = {u: row for u, row in reduced.items() if row}
        shifts, destroying = [], False
        for member, before in base.items():
            after = (
                _oracle_predict(reduced, member, target, k)
                if member in reduced
                else None
            )
            if after is None:
                destroying = True
                continue
            shifts.append(abs(after - before))
        delta = sum(shifts) / len(shifts) if shifts else 0.0
        results.append((candidate, delta, destroying))
    results.sort(key=lambda row: (-row[1], row[0]))
    return results


def test_criterion_11_oracle_equivalence():
    matrix = RatingsMatrix(INFLUENCE_RATINGS)
    group = Group(id="pair", members=("a", "c"))
    ranking = influential_items(matrix, group, "m6", k=2)
    expected = _oracle_influence(INFLUENCE_RATINGS, ("a", "c"), "m6", k=2)
    assert len(ranking) == len(expected) == 5
    assert any(delta > 1e-6 for _, delta, _ in expected)  # non-degenerate fixture
    for result, (item, delta, destroying) in zip(ranking, expected):
        assert result.item == item
        assert result.delta == pytest.approx(delta, abs=1e-9)
        assert result.basis_destroying == destroying

    # minimal relaxations against full subset enumeration
    items = [
        Item(id="i1", attributes={"p": 10, "q": 1}),
        Item(id="i2", attributes={"p": 7, "q": 5}),
        Item(id="i3", attributes={"p": 3, "q": 9}),
        Item(id="i4", attributes={"p": 5, "q": 5}),
    ]
    requirements = [
        Requirement(id="r1", attribute="p", operator="<=", bound=4, importance={}),
        Requirement(id="r2", attribute="q", operator="<=", bound=4, importance={}),
        Requirement(id="r3", attribute="p", operator=">=", bound=6, importance={}),
        Requirement(id="r4", attribute="q", operator=">=", bound=6, importance={}),
    ]
    proposals = relaxation_proposals(requirements, items)
    expected = test_properties.brute_force_relaxations(requirements, items)
    assert expected  # instance engineered to need relaxation
    assert [(p.removed, p.survivors) for p in proposals] == expected


# --------------------------------------------------------------- criterion 12


def test_criterion_12_cli_end_to_end(capsys):
    started = time.perf_counter()
    commands_seen = set()
    for golden, argv in test_cli.GOLDEN_CASES:
        commands_seen.add(argv[0])
        expected = (test_cli.GOLDEN_DIR / golden).read_text(encoding="utf-8")
        for _ in range(2):  # byte stability across reruns
            assert main(list(argv)) == 0
            out = capsys.readouterr().out
            assert out == expected, golden
    assert commands_seen == {
        "explain-cf",
        "explain-cb",
        "explain-constraint",
        "explain-critique",
        "fairness-adapt",
        "relax",
    }
    assert time.perf_counter() - started < 30.0
