"""Content-based explanations: categories, tags, opinions."""

import pytest

from groupexplain import (
    Group,
    Item,
    RatingsMatrix,
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
from groupexplain.errors import (
    DegenerateVarianceError,
    EmptyGroupError,
    InvalidValueError,
    MissingFeatureError,
    MissingWeightError,
    NoTaggedRatingsError,
)
from groupexplain.render import display_round

# printed relevance table: item -> category -> displayed value
CATEGORY_TABLE = {
    "t1": {"cat1": 0.01, "cat2": 0.28, "cat3": 0.02, "cat4": 0.03},
    "t2": {"cat1": 0.01, "cat2": 0.08, "cat3": 0.08, "cat4": 0.06},
    "t3": {"cat1": 0.02, "cat2": 0.08, "cat3": 0.04, "cat4": 0.09},
    "t4": {"cat1": 0.03, "cat2": 0.0, "cat3": 0.06, "cat4": 0.03},
}

# printed sentiment relevance: item -> feature -> displayed value
OPINION_TABLE = {
    "t1": {"f1": 0.019, "f2": 0.46, "f3": 0.10, "f4": 0.75},
    "t2": {"f1": 0.023, "f2": 0.40, "f3": 0.09, "f4": 0.62},
    "t3": {"f1": 0.035, "f2": 0.36, "f3": 0.04, "f4": 0.40},
    "t4": {"f1": 0.068, "f2": 0.40, "f3": 0.07, "f4": 0.63},
}


class TestCategoryRelevance:
    @pytest.mark.parametrize("item_id", sorted(CATEGORY_TABLE))
    def test_all_cells(self, dataset, g1, item_id):
        item = dataset.items[item_id]
        for category, printed in CATEGORY_TABLE[item_id].items():
            relevance = category_relevance(
                g1, dataset.user_category_weights, item, category
            )
            assert display_round(relevance) == printed

    def test_argmax_sets(self, dataset, g1):
        expected = {
            "t1": {"cat2"},
            "t2": {"cat2", "cat3"},  # genuine tie
            "t3": {"cat4"},
            "t4": {"cat3"},
        }
        for item_id, want in expected.items():
            ranked = rank_categories(
                g1, dataset.user_category_weights, dataset.items[item_id]
            )
            top_value = display_round(ranked[0][1])
            top_set = {c for c, er in ranked if display_round(er) == top_value}
            assert top_set == want, item_id

    def test_ranking_order(self, dataset, g1):
        ranked = rank_categories(g1, dataset.user_category_weights, dataset.items["t1"])
        assert [c for c, _ in ranked] == ["cat2", "cat4", "cat3", "cat1"]

    def test_missing_user_weight(self, dataset):
        stranger = Group("gx", ("u1", "nn11"))
        with pytest.raises(MissingWeightError):
            category_relevance(
                stranger, dataset.user_category_weights, dataset.items["t1"], "cat2"
            )

    def test_missing_item_weight(self, dataset, g1):
        bare = Item(id="bare")
        with pytest.raises(MissingWeightError):
            category_relevance(g1, dataset.user_category_weights, bare, "cat2")
        with pytest.raises(MissingWeightError, match="item 'bare' carries no category"):
            rank_categories(g1, dataset.user_category_weights, bare)


class TestOpinions:
    @pytest.mark.parametrize("item_id", sorted(OPINION_TABLE))
    def test_all_cells(self, dataset, g1, item_id):
        profile = dataset.group_sentiments["g1"]
        item = dataset.items[item_id]
        for feature, printed in OPINION_TABLE[item_id].items():
            relevance = opinion_relevance(profile, item, feature)
            assert display_round(relevance) == display_round(printed)

    def test_pro_con_split_uses_exact_values(self, dataset):
        profile = dataset.group_sentiments["g1"]
        # f2 displays as 0.40 for t2/t4 but its exact value is below 0.4,
        # so only t1 keeps f2 among the pros
        expected_pros = {"t1": {"f2", "f4"}, "t2": {"f4"}, "t3": {"f4"}, "t4": {"f4"}}
        for item_id, want in expected_pros.items():
            pros, cons = pros_cons(profile, dataset.items[item_id], threshold=0.4)
            assert {f for f, _ in pros} == want, item_id
            assert {f for f, _ in cons} == {"f1", "f2", "f3", "f4"} - want

    def test_pros_sorted_descending(self, dataset):
        profile = dataset.group_sentiments["g1"]
        pros, cons = pros_cons(profile, dataset.items["t1"], threshold=0.4)
        assert pros == [("f4", pytest.approx(0.7544)), ("f2", pytest.approx(0.4636))]
        assert [f for f, _ in cons] == ["f3", "f1"]

    def test_missing_feature_in_profile(self, dataset):
        with pytest.raises(MissingFeatureError):
            opinion_relevance({"f1": 0.5}, dataset.items["t1"], "f2")

    def test_item_without_feature_sentiments(self, dataset):
        profile = dataset.group_sentiments["g1"]
        with pytest.raises(MissingFeatureError) as raised:
            pros_cons(profile, dataset.items["x11"])
        assert raised.value.message == "item 'x11' carries no feature sentiments"

    def test_missing_feature_on_item(self, dataset):
        profile = dataset.group_sentiments["g1"]
        with pytest.raises(MissingFeatureError):
            opinion_relevance(profile, Item(id="bare"), "f1")

    def test_per_member_mean(self):
        profiles = {
            "m1": {"f": 0.2},
            "m2": {"f": 0.5},
            "m3": {"f": 0.8},
        }
        item = Item(id="i", feature_sentiments={"f": 0.6})
        assert opinion_relevance_per_member(profiles, item, "f") == pytest.approx(
            0.30, abs=1e-12
        )

    def test_per_member_missing_names_member(self):
        profiles = {"m1": {"f": 0.2}, "m2": {}}
        item = Item(id="i", feature_sentiments={"f": 0.6})
        with pytest.raises(MissingFeatureError, match="m2"):
            opinion_relevance_per_member(profiles, item, "f")

    def test_per_member_empty(self):
        with pytest.raises(EmptyGroupError):
            opinion_relevance_per_member({}, Item(id="i"), "f")


@pytest.fixture()
def tagged_world():
    matrix = RatingsMatrix(
        [
            ("v", "m1", 4.0), ("v", "m2", 2.0), ("v", "m3", 5.0),
            ("w", "n1", 1.0), ("w", "n2", 2.0), ("w", "n3", 4.0), ("w", "n4", 5.0),
        ]
    )
    tags = TagApplications(
        {
            "m1": {"alpha": 1, "beta": 1},
            "m2": {"beta": 3},
            "m3": {"alpha": 2},
            "n1": {"alpha": 1, "other": 4},
            "n2": {"alpha": 1, "other": 9},
            "n3": {"alpha": 3, "other": 2},
            "n4": {"alpha": 1, "other": 1},
        }
    )
    return matrix, tags


class TestTags:
    def test_preference_reference_value(self, tagged_world):
        matrix, tags = tagged_world
        # (4*0.5 + 2*0 + 5*1) / (4+2+5) = 7/11, frozen before implementation
        assert tag_preference(matrix, tags, "v", "alpha") == pytest.approx(
            7.0 / 11.0, abs=1e-15
        )

    def test_relevance_reference_value(self, tagged_world):
        matrix, tags = tagged_world
        # corrcoef([1,2,4,5], [0.2,0.1,0.6,0.5]) via numpy, frozen up front
        assert tag_relevance(matrix, tags, "w", "alpha") == pytest.approx(
            0.8436614877321077, abs=1e-12
        )

    def test_shares(self, tagged_world):
        _, tags = tagged_world
        assert tags.share("m1", "alpha") == 0.5
        assert tags.share("m2", "alpha") == 0.0
        assert tags.share("m3", "alpha") == 1.0
        assert tags.share("m9", "alpha") == 0.0  # an item without tags

    def test_no_tagged_ratings(self, tagged_world):
        matrix, _ = tagged_world
        empty = TagApplications({})
        with pytest.raises(NoTaggedRatingsError):
            tag_preference(matrix, empty, "v", "alpha")
        single = TagApplications({"m1": {"alpha": 1}})
        with pytest.raises(NoTaggedRatingsError):
            tag_relevance(matrix, single, "v", "alpha")

    def test_anonymous_group_relevance_needs_two_tagged_items(self, tagged_world):
        matrix, _ = tagged_world
        single = TagApplications({"m1": {"alpha": 1}})
        with pytest.raises(NoTaggedRatingsError) as raised:
            group_tag_relevance(
                matrix, single, Group("vw", ("v", "w")), "alpha", privacy="anonymous"
            )
        assert str(raised.value) == (
            "no-tagged-ratings: group 'vw' rated fewer than two items carrying tags"
        )

    @pytest.mark.parametrize("count", [True, False])
    def test_bool_count_rejected(self, count):
        with pytest.raises(InvalidValueError):
            TagApplications({"m1": {"alpha": count}})

    def test_all_zero_ratings_give_zero_preference(self):
        matrix = RatingsMatrix([("z", "m1", 0.0), ("z", "m2", 0.0)])
        tags = TagApplications({"m1": {"alpha": 1}, "m2": {"alpha": 2}})
        assert tag_preference(matrix, tags, "z", "alpha") == 0.0

    def test_degenerate_share_variance_propagates(self):
        matrix = RatingsMatrix([("z", "m1", 1.0), ("z", "m2", 2.0)])
        tags = TagApplications({"m1": {"alpha": 1}, "m2": {"alpha": 1}})
        with pytest.raises(DegenerateVarianceError):
            tag_relevance(matrix, tags, "z", "alpha")

    def test_group_preference_is_member_mean(self, dataset, g1):
        value = group_tag_preference(dataset.matrix, dataset.tags, g1, "city-tours")
        members = [
            tag_preference(dataset.matrix, dataset.tags, m, "city-tours")
            for m in g1.members
        ]
        assert value == pytest.approx(sum(members) / 3, abs=1e-12)
        assert 0.0 <= value <= 1.0

    def test_group_relevance_modes_differ_here(self, dataset, g1):
        named = group_tag_relevance(
            dataset.matrix, dataset.tags, g1, "city-tours", privacy="named"
        )
        anonymous = group_tag_relevance(
            dataset.matrix, dataset.tags, g1, "city-tours", privacy="anonymous"
        )
        assert -1.0 <= named <= 1.0
        assert -1.0 <= anonymous <= 1.0
        assert named != anonymous
