"""The paradigm decisions the CLI formats, each made by one library function.

Tag summary, constrained items, requirement and dimension rankings, the
members below the fairness mean, the group's critiques, the neighbor-group
row and the one ranking rule, on the bundled data and on small cases that
pin each rule.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupexplain import (
    Critique,
    Dataset,
    DecisionHistory,
    Group,
    InterestDimension,
    Item,
    RatingsMatrix,
    Requirement,
    TagApplications,
    adapt_weights,
    causally_relevant,
    constrained_items,
    group_fairness,
    group_tag_preference,
    group_tag_relevance,
    maut_relevance,
    rank_dimensions,
    requirement_relevance,
)
from groupexplain.cb import tag_summary
from groupexplain.cli import EXIT_COMPUTE, main
from groupexplain.constraint import rank_requirements
from groupexplain.core import _ranked
from groupexplain.critique import group_critiques
from groupexplain.dataset import builtin_dataset_path
from groupexplain.errors import (
    MissingImportanceError,
    MissingWeightError,
    NoTaggedRatingsError,
)


class TestRankingRule:
    def test_descending_value_ties_by_ascending_id(self):
        rows = [("b", 1.0, "x"), ("c", 2.0, "y"), ("a", 1.0, "z"), ("d", -1.0, "w")]
        assert _ranked(rows) == [
            ("c", 2.0, "y"),
            ("a", 1.0, "z"),
            ("b", 1.0, "x"),
            ("d", -1.0, "w"),
        ]

    def test_dimension_tie_goes_to_the_smaller_id(self):
        # listed b before a with the same relevance: max(scored, key=scored.get)
        # would pick b, the first in list order
        group = Group("g", ("u1", "u2"))
        dimensions = [
            InterestDimension("b", {"u1": 0.5, "u2": 0.5}),
            InterestDimension("a", {"u1": 0.5, "u2": 0.5}),
        ]
        item = Item("i", dimension_contributions={"a": 0.4, "b": 0.4})
        scored = {d.id: maut_relevance(group, d, item) for d in dimensions}
        assert max(scored, key=scored.get) == "b"
        ranking = rank_dimensions(group, dimensions, item)
        assert [d for d, _, _ in ranking] == ["a", "b"]


class TestTagSummary:
    def test_bundled_group(self, dataset, g1):
        rows, favored = tag_summary(dataset.matrix, dataset.tags, g1)
        assert [tag for tag, _, _, _ in rows] == [
            "city-tours", "beach", "hiking", "museums"
        ]
        assert favored == ["city-tours"]
        likers = {tag: who for tag, _, _, who in rows}
        assert likers == {
            "city-tours": ["u1"], "beach": [], "hiking": ["u3"], "museums": []
        }
        for tag, preference, relevance, _ in rows:
            assert preference == group_tag_preference(
                dataset.matrix, dataset.tags, g1, tag
            )
            assert relevance == group_tag_relevance(
                dataset.matrix, dataset.tags, g1, tag
            )

    def test_anonymous_relevance(self, dataset, g1):
        rows, _ = tag_summary(dataset.matrix, dataset.tags, g1, privacy="anonymous")
        for tag, _, relevance, _ in rows:
            assert relevance == group_tag_relevance(
                dataset.matrix, dataset.tags, g1, tag, privacy="anonymous"
            )

    def test_falls_back_to_the_top_tag(self, dataset, g1):
        rows, favored = tag_summary(dataset.matrix, dataset.tags, g1, threshold=0.9)
        assert all(preference < 0.9 for _, preference, _, _ in rows)
        assert favored == [rows[0][0]] == ["city-tours"]

    def test_favoured_tags_keep_rank_order(self, dataset, g1):
        rows, favored = tag_summary(dataset.matrix, dataset.tags, g1, threshold=0.2)
        assert favored == ["city-tours", "beach", "hiking"]

    def test_likers_are_sorted(self, dataset):
        group = Group("g", ("u3", "u1"))
        rows, _ = tag_summary(dataset.matrix, dataset.tags, group, threshold=0.0)
        assert all(likers == ["u1", "u3"] for _, _, _, likers in rows)

    @pytest.mark.parametrize("privacy", ["named", "anonymous"])
    def test_no_tag_applications(self, dataset, g1, privacy):
        with pytest.raises(NoTaggedRatingsError) as raised:
            tag_summary(dataset.matrix, TagApplications({}), g1, privacy=privacy)
        assert str(raised.value) == "no-tagged-ratings: dataset has no tag applications"


class TestConstrainedItems:
    def test_bundled_catalog(self, dataset):
        catalog = constrained_items(dataset.requirements, dataset.items)
        assert [item.id for item in catalog] == ["t1", "t2", "t3", "t4", "t5"]

    def test_drops_an_item_lacking_a_required_attribute(self):
        requirements = [
            Requirement("r1", "price", "<=", 100, {}),
            Requirement("r2", "weight", "<=", 2, {}),
        ]
        items = {
            "b": Item("b", attributes={"price": 50, "weight": 1, "colour": "red"}),
            "a": Item("a", attributes={"price": 50}),
            "c": Item("c", attributes={"price": 500, "weight": 3}),
        }
        assert [i.id for i in constrained_items(requirements, items)] == ["b", "c"]


class TestRequirementRanking:
    def test_bundled_group(self, dataset, g1):
        ranking = rank_requirements(g1, dataset.requirements, dataset.items)
        assert [rid for rid, _, _ in ranking] == ["req3", "req2", "req1"]
        catalog = constrained_items(dataset.requirements, dataset.items)
        by_id = {req.id: req for req in dataset.requirements}
        for rid, relevance, causal in ranking:
            assert relevance == requirement_relevance(g1, by_id[rid])
            assert causal == causally_relevant(by_id[rid], catalog)

    def test_causal_flags_use_the_constrained_items(self):
        group = Group("g", ("u1",))
        requirements = [
            Requirement("cheap", "price", "<=", 100, {"u1": 0.5}),
            Requirement("light", "weight", "<=", 2, {"u1": 0.5}),
        ]
        # "bare" lacks weight, so it is not checked; both others are light
        items = {
            "bare": Item("bare", attributes={"price": 500}),
            "x": Item("x", attributes={"price": 50, "weight": 1}),
            "y": Item("y", attributes={"price": 500, "weight": 1}),
        }
        ranking = rank_requirements(group, requirements, items)
        assert ranking == [("cheap", 0.5, True), ("light", 0.5, False)]

    def test_no_requirements(self, g1, dataset):
        with pytest.raises(MissingImportanceError) as raised:
            rank_requirements(g1, [], dataset.items)
        assert str(raised.value) == "missing-importance: dataset defines no requirements"


class TestDimensionRanking:
    def test_bundled_group(self, dataset, g1):
        item = dataset.items["t1"]
        ranking = rank_dimensions(g1, dataset.dimensions, item)
        assert [d for d, _, _ in ranking] == ["dim3", "dim2", "dim1"]
        by_id = {dim.id: dim for dim in dataset.dimensions}
        for d, relevance, mean in ranking:
            assert relevance == maut_relevance(g1, by_id[d], item)
            weights = [by_id[d].importance[m] for m in g1.members]
            assert mean == math.fsum(weights) / len(weights)

    def test_no_dimensions(self, dataset, g1):
        with pytest.raises(MissingWeightError) as raised:
            rank_dimensions(g1, [], dataset.items["t1"])
        assert str(raised.value) == "missing-weight: dataset defines no interest dimensions"


class TestFairness:
    def test_bundled_group(self, dataset, g1):
        fairness, mean, below = group_fairness(g1, dataset.decision_history)
        assert fairness == {"u1": 0.5, "u2": 0.75, "u3": 1.0}
        assert mean == 0.75 and below == ["u1"]

    def test_balanced_group_has_no_one_below(self):
        group = Group("g", ("m1", "m2", "m3"))
        history = DecisionHistory({"m1": (1, 3), "m2": (2, 6), "m3": (3, 9)})
        assert group_fairness(group, history)[2] == []

    def test_degree_at_the_exact_mean_is_not_below(self):
        # the degrees 1.0, 0.7, 0.4 have the mean 0.7 exactly, which fsum / 3
        # rounds to 0.7000000000000001; the adaptation leaves m1 as it is
        group = Group("g", ("m0", "m1", "m2"))
        history = DecisionHistory({"m0": (5, 5), "m1": (7, 10), "m2": (4, 10)})
        _, mean, below = group_fairness(group, history)
        assert mean > 0.7 and below == ["m2"]
        weights = {m: {"d": 0.5} for m in group.members}
        assert adapt_weights(group, weights, history)["m1"] == {"d": 0.5}

    @given(
        counts=st.lists(
            st.integers(1, 12).flatmap(
                lambda d: st.tuples(st.integers(0, d), st.just(d))
            ),
            min_size=1,
            max_size=5,
        ),
        weight=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_below_the_mean_is_whose_weights_rise(self, counts, weight):
        members = tuple(f"m{i}" for i in range(len(counts)))
        group = Group("g", members)
        history = DecisionHistory(dict(zip(members, counts)))
        weights = {m: {"d": weight} for m in members}
        adapted = adapt_weights(group, weights, history)
        raised = [m for m in sorted(members) if adapted[m]["d"] > weight]
        assert group_fairness(group, history)[2] == raised


class TestGroupCritiques:
    def test_bundled_group_keeps_every_critique(self, dataset, g1):
        assert group_critiques(dataset.critiques, g1) == dataset.critiques

    def test_drops_a_critique_by_a_non_member(self):
        kept = [Critique("u1", "price", "<=", 10), Critique("u2", "price", ">=", 5)]
        stranger = Critique("zz", "price", "<=", 1)
        critiques = [kept[0], stranger, kept[1]]
        assert group_critiques(critiques, Group("g", ("u2", "u1"))) == kept


class TestNeighborGroupRow:
    def test_bundled_item(self, dataset):
        assert dataset.neighbor_group_row("t1") == {
            "gp1": 4.2, "gp2": 4.9, "gp3": 4.3, "gp4": 3.5
        }

    def test_leaves_out_a_group_that_did_not_rate_the_item(self):
        dataset = Dataset(
            users=(),
            items={},
            matrix=RatingsMatrix([]),
            tags=TagApplications({}),
            groups={},
            user_category_weights={},
            group_sentiments={},
            member_sentiments={},
            requirements=[],
            dimensions=[],
            critiques=[],
            decision_history=None,
            fairness_weights={},
            neighbor_group_ratings={
                "gp1": {"t1": 4.0, "t2": 2.0},
                "gp2": {"t2": 1.0},
                "gp3": {"t1": 0.0},
            },
        )
        assert dataset.neighbor_group_row("t1") == {"gp1": 4.0, "gp3": 0.0}
        assert dataset.neighbor_group_row("t9") == {}


def _run_on(tmp_path, capsys, doc: dict, *argv):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([*argv, "--data", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bundled_doc() -> dict:
    return json.loads(builtin_dataset_path().read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["text", "json", "svg"])
def test_cli_requirements_without_requirements(tmp_path, capsys, fmt):
    doc = _bundled_doc()
    doc["requirements"] = []
    argv = ["explain-constraint", "--mode", "requirements", "--format", fmt]
    code, out, err = _run_on(tmp_path, capsys, doc, *argv)
    assert code == EXIT_COMPUTE and out == ""
    assert err == "error: missing-importance: dataset defines no requirements\n"


@pytest.mark.parametrize("privacy", ["named", "anonymous"])
@pytest.mark.parametrize("fmt", ["text", "json", "svg"])
def test_cli_tags_without_tag_applications(tmp_path, capsys, privacy, fmt):
    doc = _bundled_doc()
    doc["tags"] = {}
    argv = ["explain-cb", "--mode", "tags", "--privacy", privacy, "--format", fmt]
    code, out, err = _run_on(tmp_path, capsys, doc, *argv)
    assert code == EXIT_COMPUTE and out == ""
    assert err == "error: no-tagged-ratings: dataset has no tag applications\n"
