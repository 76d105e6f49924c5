"""Dataset loading: happy path on the bundled file, then each error class."""

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupexplain import Item, RatingsMatrix, load_builtin, load_dataset
from groupexplain.dataset import builtin_dataset_path
from groupexplain.errors import (
    GroupExplainError,
    InvalidValueError,
    MalformedDatasetError,
    UnresolvedIdError,
)
from helpers import checked_ratings, checked_weights

BASE = {
    "scale": {"min": 0, "max": 5},
    "users": ["u1", "u2"],
    "items": {
        "t1": {"attributes": {"price": 299}, "category_weights": {"cat1": 0.5}},
        "t2": {"attributes": {"price": 650}},
    },
    "ratings": [["u1", "t1", 4], ["u2", "t1", 2.5]],
    "tags": {"t1": {"beach": 2}},
    "groups": {"g1": ["u1", "u2"]},
    "user_category_weights": {"u1": {"cat1": 0.3}},
    "group_sentiments": {"g1": {"f1": 0.4}},
    "member_sentiments": {"u1": {"f1": 0.4}},
    "requirements": [
        {
            "id": "req1",
            "attribute": "price",
            "operator": "<=",
            "bound": 400,
            "importance": {"u1": 0.2, "u2": 0.3},
        }
    ],
    "dimensions": [{"id": "dim1", "importance": {"u1": 0.1}}],
    "critiques": [
        {"author": "u1", "attribute": "price", "operator": "<=", "bound": 500}
    ],
    "decision_history": {
        "counts": {"u1": [2, 4], "u2": [3, 4]},
        "weights": {"u1": {"dim1": 0.1}},
    },
    "neighbor_group_ratings": {"gp1": {"t1": 4.2}},
}


def write(tmp_path, payload) -> str:
    target = tmp_path / "data.json"
    if isinstance(payload, str):
        target.write_text(payload, encoding="utf-8")
    else:
        target.write_text(json.dumps(payload), encoding="utf-8")
    return str(target)


def variant(**overrides):
    data = copy.deepcopy(BASE)
    data.update(overrides)
    return data


def test_builtin_loads():
    dataset = load_builtin()
    assert "u1" in dataset.users and "nn32" in dataset.users
    assert set("t%d" % i for i in range(1, 6)) <= set(dataset.items)
    assert dataset.groups["g1"].members == ("u1", "u2", "u3")
    assert dataset.decision_history is not None
    assert len(dataset.requirements) == 3
    assert len(dataset.critiques) == 12
    assert set(dataset.neighbor_group_ratings) == {"gp1", "gp2", "gp3", "gp4"}
    assert builtin_dataset_path().exists()


def test_minimal_base_loads(tmp_path):
    dataset = load_dataset(write(tmp_path, BASE))
    assert dataset.users == ("u1", "u2")
    assert dataset.matrix.get("u1", "t1") == 4.0
    assert dataset.tags.share("t1", "beach") == 1.0
    assert dataset.requirements[0].matches(dataset.items["t1"])
    assert dataset.fairness_weights["u1"] == {"dim1": 0.1}


def test_loaded_items_equal_constructed_ones():
    # the loader builds items without Item.__init__'s second weight check
    dataset = load_builtin()
    for item_id, item in dataset.items.items():
        rebuilt = Item(
            item_id,
            dict(item.attributes),
            dict(item.category_weights),
            dict(item.feature_sentiments),
            dict(item.dimension_contributions),
        )
        assert type(item) is Item and item == rebuilt
        assert repr(item) == repr(rebuilt)


def test_constructed_items_still_check_their_weights():
    with pytest.raises(InvalidValueError) as caught:
        Item("x", category_weights={"a": 1.01})
    assert str(caught.value) == "invalid-value: item 'x': category weight 'a' = 1.01 outside [0, 1]"


def test_missing_file(tmp_path):
    with pytest.raises(MalformedDatasetError):
        load_dataset(tmp_path / "absent.json")


def test_unparseable_json(tmp_path):
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, "{not json"))


def test_top_level_array(tmp_path):
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, "[1, 2]"))


@pytest.mark.parametrize("section", ["users", "items"])
def test_missing_required_section(tmp_path, section):
    data = variant()
    del data[section]
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, data))


def test_wrong_section_type(tmp_path):
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, variant(users={"u1": 1})))
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, variant(ratings={"u1": 4})))


def test_rating_row_shape(tmp_path):
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, variant(ratings=[["u1", "t1"]])))
    with pytest.raises(MalformedDatasetError):
        load_dataset(write(tmp_path, variant(ratings=[["u1", "t1", "high"]])))


@pytest.mark.parametrize("pair", [[1], [1, 2, 3], [1, "2"], [True, 2], "1/2"])
def test_history_count_shape(tmp_path, pair):
    data = variant()
    data["decision_history"]["counts"]["u1"] = pair
    with pytest.raises(MalformedDatasetError) as raised:
        load_dataset(write(tmp_path, data))
    assert raised.value.message == (
        "decision_history.counts[u1]: expected [supported, decisions]"
    )


def test_non_object_weights(tmp_path):
    data = variant()
    data["items"]["t1"]["category_weights"] = [0.5]
    with pytest.raises(MalformedDatasetError) as raised:
        load_dataset(write(tmp_path, data))
    assert raised.value.message == "items[t1].category_weights: must be an object"


def test_unsupported_scale(tmp_path):
    with pytest.raises(InvalidValueError):
        load_dataset(write(tmp_path, variant(scale={"min": 1, "max": 10})))


class TestUnresolvedIds:
    def test_rating_unknown_user(self, tmp_path):
        data = variant(ratings=[["ghost", "t1", 3]])
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_rating_unknown_item(self, tmp_path):
        data = variant(ratings=[["u1", "t9", 3]])
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_group_unknown_member(self, tmp_path):
        data = variant(groups={"g1": ["u1", "ghost"]})
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_tags_unknown_item(self, tmp_path):
        data = variant(tags={"t9": {"beach": 1}})
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_requirement_importance_unknown_user(self, tmp_path):
        data = variant()
        data["requirements"][0]["importance"]["ghost"] = 0.5
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_group_sentiments_unknown_group(self, tmp_path):
        data = variant(group_sentiments={"g9": {"f1": 0.4}})
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_neighbor_group_unknown_item(self, tmp_path):
        data = variant(neighbor_group_ratings={"gp1": {"t9": 4.2}})
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_critique_unknown_author(self, tmp_path):
        data = variant()
        data["critiques"][0]["author"] = "ghost"
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_history_unknown_user(self, tmp_path):
        data = variant()
        data["decision_history"]["counts"]["ghost"] = [1, 2]
        with pytest.raises(UnresolvedIdError):
            load_dataset(write(tmp_path, data))

    def test_dataset_lookup_helpers(self, tmp_path):
        dataset = load_dataset(write(tmp_path, BASE))
        with pytest.raises(UnresolvedIdError):
            dataset.group("g9")
        with pytest.raises(UnresolvedIdError):
            dataset.item("t9")


class TestInvalidValues:
    def test_rating_out_of_range(self, tmp_path):
        data = variant(ratings=[["u1", "t1", 6.0]])
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_duplicate_rating(self, tmp_path):
        data = variant(ratings=[["u1", "t1", 4], ["u1", "t1", 2]])
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_duplicate_int_and_float_rating(self, tmp_path):
        data = variant(ratings=[["u1", "t1", 4], ["u1", "t1", 4.0]])
        with pytest.raises(InvalidValueError) as raised:
            load_dataset(write(tmp_path, data))
        assert raised.value.message == "duplicate rating for ('u1', 't1')"

    def test_the_first_duplicate_is_the_one_raised(self, tmp_path):
        ratings = [["u2", "t2", 1], ["u1", "t1", 4], ["u2", "t2", 2], ["u1", "t1", 3]]
        with pytest.raises(InvalidValueError) as raised:
            load_dataset(write(tmp_path, variant(ratings=ratings)))
        assert raised.value.message == "duplicate rating for ('u2', 't2')"

    def test_a_bad_row_after_a_duplicate_raises_first(self, tmp_path):
        ratings = [["u1", "t1", 4], ["u1", "t1", 2], ["u2", "t2", 3], ["u2", "t1", 9]]
        with pytest.raises(InvalidValueError) as raised:
            load_dataset(write(tmp_path, variant(ratings=ratings)))
        assert raised.value.message == "ratings[3]: rating 9.0 outside [0, 5]"

    def test_int_rating_is_stored_as_float(self, tmp_path):
        matrix = load_dataset(write(tmp_path, BASE)).matrix
        assert [type(v) for v in matrix.items_rated_by("u1").values()] == [float]

    def test_duplicate_user(self, tmp_path):
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, variant(users=["u1", "u1"])))

    def test_category_weight_above_one(self, tmp_path):
        data = variant(user_category_weights={"u1": {"cat1": 1.5}})
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    @pytest.mark.parametrize(
        "value,error,message",
        [
            (2, InvalidValueError, "2.0 outside [0, 1]"),
            (-0.5, InvalidValueError, "-0.5 outside [0, 1]"),
            ("0.5", MalformedDatasetError, "expected a number, got '0.5'"),
            (True, MalformedDatasetError, "expected a number, got True"),
            (10**400, InvalidValueError, "integer too large for a float"),
        ],
        ids=["int-above", "below", "text", "bool", "huge-int"],
    )
    def test_a_weight_error_comes_from_the_number_check(
        self, tmp_path, value, error, message
    ):
        data = variant(user_category_weights={"u1": {"cat1": value}})
        with pytest.raises(error) as raised:
            load_dataset(write(tmp_path, data))
        assert raised.value.message == f"user_category_weights[u1].cat1: {message}"

    def test_negative_tag_count(self, tmp_path):
        data = variant(tags={"t1": {"beach": -1}})
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_bad_operator(self, tmp_path):
        data = variant()
        data["requirements"][0]["operator"] = "!="
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_non_numeric_ordering_bound(self, tmp_path):
        data = variant()
        data["critiques"][0]["bound"] = "cheap"
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_equality_bound_may_be_any_type(self, tmp_path):
        data = variant()
        data["requirements"][0]["operator"] = "="
        data["requirements"][0]["bound"] = True
        dataset = load_dataset(write(tmp_path, data))
        assert dataset.requirements[0].bound is True

    def test_supported_exceeds_decisions(self, tmp_path):
        data = variant()
        data["decision_history"]["counts"]["u1"] = [5, 4]
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_zero_decisions(self, tmp_path):
        data = variant()
        data["decision_history"]["counts"]["u1"] = [0, 0]
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_empty_group(self, tmp_path):
        data = variant(groups={"g1": []})
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_duplicate_group_member(self, tmp_path):
        data = variant(groups={"g1": ["u1", "u1"]})
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_duplicate_requirement_id(self, tmp_path):
        data = variant()
        data["requirements"].append(dict(data["requirements"][0]))
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))

    def test_neighbor_group_rating_range(self, tmp_path):
        data = variant(neighbor_group_ratings={"gp1": {"t1": 9.0}})
        with pytest.raises(InvalidValueError):
            load_dataset(write(tmp_path, data))


# ------------------------------------------------- ratings rows vs reference

BUNDLED = json.loads(builtin_dataset_path().read_text(encoding="utf-8"))
# json.dumps cannot write an overflowing literal; this marker becomes one
OVERFLOW = "<1e999>"

ids = st.one_of(
    st.sampled_from(BUNDLED["users"] + sorted(BUNDLED["items"])),
    st.sampled_from(["ghost", "", "U1"]),
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.lists(st.sampled_from(BUNDLED["users"]), max_size=2),  # unhashable
    st.just({"u1": 1}),
)
rating_values = st.one_of(
    st.floats(0.0, 5.0),
    st.integers(0, 5),
    st.sampled_from(
        [True, False, None, "3", "", 10**400, -(10**400), -1, -0.5, -0.0,
         5.0000001, 5.5, 1e308, OVERFLOW, [3], {"v": 3}]
    ),
)


@st.composite
def rating_rows(draw):
    """A valid row, one with one field replaced, or a list of values or a non-list."""
    row = [
        draw(st.sampled_from(BUNDLED["users"])),
        draw(st.sampled_from(sorted(BUNDLED["items"]))),
        draw(st.one_of(st.floats(0.0, 5.0), st.integers(0, 5))),
    ]
    change = draw(st.sampled_from(["none", "user", "item", "value", "shape"]))
    if change == "user":
        row[0] = draw(ids)
    elif change == "item":
        row[1] = draw(ids)
    elif change == "value":
        row[2] = draw(rating_values)
    elif change == "shape":
        row = draw(
            st.one_of(
                st.lists(rating_values, max_size=4),
                st.sampled_from([None, "u1", 3, True, {"u1": "t1"}]),
            )
        )
    return row


@settings(max_examples=300, deadline=None)
@given(ratings=st.lists(rating_rows(), max_size=8))
def test_ratings_rows_match_the_reference_check(tmp_path_factory, ratings):
    text = json.dumps({**BUNDLED, "ratings": ratings}).replace(f'"{OVERFLOW}"', "1e999")
    path = tmp_path_factory.getbasetemp() / "ratings.json"
    path.write_text(text, encoding="utf-8")
    parsed = json.loads(text)["ratings"]  # what the loader sees (1e999 is inf)
    try:
        expected = RatingsMatrix(
            checked_ratings(parsed, set(BUNDLED["users"]), BUNDLED["items"])
        )
    except GroupExplainError as exc:
        expected = (type(exc), str(exc))
    try:
        got = load_dataset(path).matrix
    except GroupExplainError as exc:
        got = (type(exc), str(exc))
    if isinstance(expected, RatingsMatrix):
        assert isinstance(got, RatingsMatrix), got
        assert {u: dict(got.items_rated_by(u)) for u in got.users()} == {
            u: dict(expected.items_rated_by(u)) for u in expected.users()
        }
    else:
        assert got == expected


# ------------------------------------------------- weight maps vs reference

weight_values = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [True, False, None, "0.5", "", 10**400, -(10**400), OVERFLOW, -0.0, 0.0,
         1.0000001, -1e-9, 2, -1, 1e308, [0.5], {"v": 0.5}]
    ),
)
weight_maps = st.one_of(
    st.dictionaries(
        st.one_of(st.sampled_from(["cat1", "f1", "dim1"]), st.text(max_size=3)),
        weight_values,
        max_size=4,
    ),
    st.sampled_from([None, 0.5, "cat1", [0.5]]),  # not an object
)


# slot: where the loader names the map, its keys in the file, its reader
WEIGHT_SLOTS = {
    "item": (
        "items[t1].category_weights",
        ("items", "t1", "category_weights"),
        lambda dataset: dataset.items["t1"].category_weights,
    ),
    "user": (
        "user_category_weights[u1]",
        ("user_category_weights", "u1"),
        lambda dataset: dataset.user_category_weights["u1"],
    ),
    "history": (
        "decision_history.weights[u1]",
        ("decision_history", "weights", "u1"),
        lambda dataset: dataset.fairness_weights["u1"],
    ),
}


@settings(max_examples=300, deadline=None)
@given(weights=weight_maps, slot=st.sampled_from(sorted(WEIGHT_SLOTS)))
def test_weight_maps_match_the_reference_check(tmp_path_factory, weights, slot):
    where, keys, read = WEIGHT_SLOTS[slot]
    data = copy.deepcopy(BUNDLED)
    functools.reduce(dict.__getitem__, keys[:-1], data)[keys[-1]] = weights
    text = json.dumps(data).replace(f'"{OVERFLOW}"', "1e999")
    path = tmp_path_factory.getbasetemp() / "weights.json"
    path.write_text(text, encoding="utf-8")
    # what the loader sees (1e999 is inf)
    parsed = functools.reduce(dict.__getitem__, keys, json.loads(text))
    try:
        expected = checked_weights(parsed, where)
    except GroupExplainError as exc:
        expected = (type(exc), str(exc))
    try:
        got = read(load_dataset(path))
    except GroupExplainError as exc:
        got = (type(exc), str(exc))
    if isinstance(expected, dict):
        assert isinstance(got, dict), got
        # repr tells -0.0 from 0.0 and 1 from 1.0
        assert [(k, repr(v)) for k, v in got.items()] == [
            (k, repr(v)) for k, v in expected.items()
        ]
    else:
        assert got == expected
