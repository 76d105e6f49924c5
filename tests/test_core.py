"""Core model: aggregation, buckets, similarity, prediction.

The numeric reference values here were computed independently (numpy
corrcoef and longhand weighted sums) before the implementation existed.
"""

import ast
import copy
import math
import pickle
import sys
import threading
from pathlib import Path

import pytest

from groupexplain import (
    AggregationStrategy,
    Group,
    RatingBucket,
    RatingsMatrix,
    aggregate,
    categorize_rating,
    influential_items,
    knn_neighbors,
    member_predictions,
    pearson,
    predict_rating,
)
from groupexplain import cf, core
from groupexplain.core import satisfies
from groupexplain.errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyGroupError,
    InvalidValueError,
    NoPredictionBasisError,
    RatingOutOfRangeError,
    UnknownUserError,
)
from helpers import co_rated, kept_values, outcome, without_item

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "groupexplain"


@pytest.fixture()
def four_users():
    # a/b strongly correlated, a/c anti-correlated, d flat (degenerate)
    return RatingsMatrix(
        [
            ("a", "i1", 4.0), ("a", "i2", 3.0), ("a", "i3", 5.0),
            ("b", "i1", 4.5), ("b", "i2", 3.5), ("b", "i3", 4.5), ("b", "i4", 4.0),
            ("c", "i1", 2.0), ("c", "i2", 4.0), ("c", "i3", 1.0), ("c", "i4", 2.5),
            ("d", "i1", 3.0), ("d", "i2", 3.0), ("d", "i3", 3.0), ("d", "i4", 3.5),
        ]
    )


class TestAggregate:
    SCORES = {"a": 2.9, "b": 4.8, "c": 3.2}

    def test_avg(self):
        value, contributors = aggregate(self.SCORES, AggregationStrategy.AVG)
        assert value == pytest.approx((2.9 + 4.8 + 3.2) / 3)
        assert contributors == ("a", "b", "c")

    def test_lms(self):
        value, contributors = aggregate(self.SCORES, AggregationStrategy.LMS)
        assert value == 2.9
        assert contributors == ("a",)

    def test_mpl(self):
        value, contributors = aggregate(self.SCORES, AggregationStrategy.MPL)
        assert value == 4.8
        assert contributors == ("b",)

    def test_ties_list_every_attainer_ascending(self):
        value, contributors = aggregate(
            {"z": 1.0, "m": 1.0, "q": 4.0}, AggregationStrategy.LMS
        )
        assert value == 1.0
        assert contributors == ("m", "z")

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            aggregate({}, AggregationStrategy.AVG)

    def test_strategy_parse(self):
        assert AggregationStrategy.parse("MPL") is AggregationStrategy.MPL
        with pytest.raises(InvalidValueError):
            AggregationStrategy.parse("median")

    def test_single_member(self):
        for strategy in AggregationStrategy:
            value, contributors = aggregate({"solo": 3.3}, strategy)
            assert value == 3.3
            assert contributors == ("solo",)


class TestBuckets:
    def test_edges(self):
        assert categorize_rating(0.0) is RatingBucket.BAD
        assert categorize_rating(2.0) is RatingBucket.BAD
        assert categorize_rating(2.0000001) is RatingBucket.NEUTRAL
        assert categorize_rating(3.5) is RatingBucket.NEUTRAL
        assert categorize_rating(3.50001) is RatingBucket.GOOD
        assert categorize_rating(5.0) is RatingBucket.GOOD

    @pytest.mark.parametrize("bad", [-0.1, 5.1, 100.0])
    def test_out_of_range(self, bad):
        with pytest.raises(RatingOutOfRangeError):
            categorize_rating(bad)


class TestPearson:
    def test_reference_value(self):
        # 57 / sqrt(3276), verified against numpy before implementation
        assert pearson([1, 2, 4], [2, 3, 6]) == pytest.approx(
            0.9958705948858223, abs=1e-15
        )

    def test_perfect_correlation(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(DimensionMismatchError):
            pearson([1.0], [2.0])

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        # constant, though fsum([0.1] * 3) / 3 is not exactly 0.1
        with pytest.raises(DegenerateVarianceError):
            pearson([0.1] * 3, [0.0, 1.0, 2.0])
        # not constant, but the variance underflows to zero
        with pytest.raises(DegenerateVarianceError):
            pearson([0.0, 1e-200], [0.0, 1.0])


class TestRatingsMatrix:
    def test_duplicate_rating_rejected(self):
        with pytest.raises(InvalidValueError):
            RatingsMatrix([("a", "i", 1.0), ("a", "i", 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(RatingOutOfRangeError):
            RatingsMatrix([("a", "i", 5.5)])

    def test_lookup(self, four_users):
        assert four_users.get("a", "i1") == 4.0
        assert four_users.get("a", "i4") is None
        assert co_rated(four_users, "a", "b") == ("i1", "i2", "i3")
        assert cf._user_mean(four_users, "a") == pytest.approx(4.0)
        assert len(four_users) == 15

    def test_without_item(self, four_users):
        reduced = without_item(four_users, "i1")
        assert reduced.get("a", "i1") is None
        assert reduced.get("a", "i2") == 3.0
        assert len(reduced) == 11


class TestMemo:
    """Each matrix keeps its own bounded memo of per-user kNN state."""

    @staticmethod
    def triples(matrix):
        return [
            (user, item, value)
            for user in matrix.users()
            for item, value in matrix.items_rated_by(user).items()
        ]

    @staticmethod
    def state(matrix):
        users = matrix.users()
        return [
            (list(cf._similarities(matrix, u).items()), knn_neighbors(matrix, u, 2),
             cf._user_mean(matrix, u), predict_rating(matrix, u, "i4", 3))
            for u in users
        ] + [influential_items(matrix, Group("g", users), "i4", 2)]

    def test_matrices_with_the_same_users_share_no_state(self, four_users):
        ratings = [
            ("a", "i1", 1.0), ("a", "i2", 5.0), ("a", "i3", 2.0),
            ("b", "i1", 4.5), ("b", "i2", 3.5), ("b", "i3", 4.5), ("b", "i4", 4.0),
            ("c", "i1", 2.0), ("c", "i2", 4.0), ("c", "i3", 1.0), ("c", "i4", 2.5),
            ("d", "i1", 3.0), ("d", "i2", 2.0), ("d", "i3", 3.0), ("d", "i4", 3.5),
        ]
        other = RatingsMatrix(ratings)
        assert other.users() == four_users.users()
        before = self.state(four_users)  # fills four_users' memo
        after = self.state(other)
        assert after != before
        assert after == self.state(RatingsMatrix(ratings))
        assert self.state(four_users) == before

    def test_similarity_maps_are_read_only(self, four_users):
        scored = cf._similarities(four_users, "a")
        with pytest.raises(TypeError):
            scored["b"] = 0.0
        taking_part = member_predictions(four_users, Group("g", ("a",)), None, 2)
        with pytest.raises(TypeError):
            taking_part["a"].similarities["b"] = 0.0
        fresh = cf._similarities(RatingsMatrix(self.triples(four_users)), "a")
        assert list(cf._similarities(four_users, "a").items()) == list(fresh.items())

    def test_least_recently_used_users_go_first(self, four_users, monkeypatch):
        # each map holds 3 entries, each ranking at k = 2 counts 3 and each
        # mean 1: three maps, their rankings and a mean fill it
        monkeypatch.setattr(cf, "_MEMO_CAP", 19)
        fresh = RatingsMatrix(self.triples(four_users))
        expected = [knn_neighbors(fresh, u, 2) for u in "abcd"]
        memo = cf._memo_of(four_users)
        assert [knn_neighbors(four_users, u, 2) for u in "abc"] == expected[:3]
        assert cf._user_mean(four_users, "a") == 4.0  # "a" is now the most recent
        assert len(memo) == 19 and list(memo._entries) == ["b", "c", "a"]
        assert knn_neighbors(four_users, "d", 2) == expected[3]
        assert len(memo) == 19 and list(memo._entries) == ["c", "a", "d"]

    def test_a_value_larger_than_the_cap_is_not_kept(self, four_users, monkeypatch):
        # a's map holds 3 entries and its ranking at k = 1 counts 2
        monkeypatch.setattr(cf, "_MEMO_CAP", 2)
        assert knn_neighbors(four_users, "a", 1) == knn_neighbors(
            RatingsMatrix(self.triples(four_users)), "a", 1
        )
        memo = cf._memo_of(four_users)
        entry = memo._entries["a"]
        assert entry[cf._SIMILARITIES] is None and list(entry[cf._NEAREST]) == [1]
        assert cf._user_mean(four_users, "a") == 4.0  # would take a's entry past the cap
        assert entry[cf._MEANS] is None
        assert len(memo) == 2 and list(memo._entries) == ["a"]

    def test_copies_keep_the_ratings_and_start_a_new_memo(self, four_users):
        warm = knn_neighbors(four_users, "a", 3)
        for clone in (copy.copy(four_users), copy.deepcopy(four_users),
                      pickle.loads(pickle.dumps(four_users))):
            memo = cf._memo_of(clone)
            assert len(memo) == 0 and memo is not cf._memo_of(four_users)
            assert [dict(clone.items_rated_by(u)) for u in clone.users()] == [
                dict(four_users.items_rated_by(u)) for u in four_users.users()
            ]
            assert knn_neighbors(clone, "a", 3) == warm

    def test_callers_own_the_lists_they_get(self, four_users):
        fresh = RatingsMatrix(self.triples(four_users))
        first = knn_neighbors(four_users, "a", 2)
        first.clear()
        assert knn_neighbors(four_users, "a", 2) == knn_neighbors(fresh, "a", 2)
        group = Group("g", ("a", "b"))
        for taking_part in member_predictions(four_users, group, "i4", 2).values():
            taking_part.neighbors.append(("x", 1.0))
        assert member_predictions(four_users, group, "i4", 2) == member_predictions(
            fresh, group, "i4", 2
        )

    def test_an_unknown_user_is_named_before_a_bad_k(self, four_users):
        knn_neighbors(four_users, "a", 2)  # a warm memo and a fresh one
        predict_rating(four_users, "a", "i4", 2)
        for matrix in (four_users, RatingsMatrix(self.triples(four_users))):
            with pytest.raises(UnknownUserError):
                knn_neighbors(matrix, "ghost", 0)
            with pytest.raises(UnknownUserError):
                predict_rating(matrix, "ghost", "i4", 0)
            with pytest.raises(ValueError):
                knn_neighbors(matrix, "a", 0)
            with pytest.raises(ValueError):
                predict_rating(matrix, "a", "i4", 0)

    def test_a_kept_lack_of_basis_raises_as_a_fresh_matrix_does(self, four_users):
        fresh = outcome(predict_rating, RatingsMatrix(self.triples(four_users)), "a", "i9", 2)
        assert fresh[:2] == ("raised", NoPredictionBasisError)
        group = Group("g", ("a",))
        with pytest.raises(NoPredictionBasisError):
            member_predictions(four_users, group, "i9", 2)  # keeps a's lack of basis
        assert cf._memo_of(four_users)._entries["a"][cf._PREDICTIONS] == {("i9", 2): None}
        assert outcome(predict_rating, four_users, "a", "i9", 2) == fresh
        assert outcome(predict_rating, four_users, "a", "i9", 2) == fresh

    def test_each_user_and_k_is_ranked_once(self, four_users, monkeypatch):
        rankings, nearest = [], cf._nearest

        def counting_nearest(scored, k):
            rankings.append(k)
            return nearest(scored, k)

        monkeypatch.setattr(cf, "_nearest", counting_nearest)
        for _ in range(3):
            for k in (1, 2, 3):
                for user in "abcd":
                    knn_neighbors(four_users, user, k)
                    outcome(predict_rating, four_users, user, "i4", k)
                    outcome(predict_rating, four_users, user, "i1", k)
        assert sorted(rankings) == [1] * 4 + [2] * 4 + [3] * 4

    def test_every_slot_has_a_cost(self):
        assert len(cf._SLOT_COSTS) == cf._COST

    def test_two_gets_of_one_key_count_it_once(self, four_users):
        """Two gets of a member's shift row both miss, and the second runs
        and keeps its row inside the first's compute, as another thread's
        get can (forced here without threads): the first returns the kept
        row, and the memo counts it once."""
        memo, key, row = cf._memo_of(four_users), ("i4", 2), {"i1": 0.25, "i2": None}
        computes = []

        def overlapping():
            computes.append("first")
            assert memo.get("a", cf._SHIFTS, key, lambda: computes.append("second") or row) is row
            return dict(row)

        assert memo.get("a", cf._SHIFTS, key, overlapping) is row
        assert memo.get("a", cf._SHIFTS, ("i4", 3), dict, {"i1": 0.5}) == {"i1": 0.5}
        assert computes == ["first", "second"]
        entry = memo._entries["a"]
        assert entry[cf._SHIFTS] == {key: row, ("i4", 3): {"i1": 0.5}}
        # a row counts its entries plus one
        assert len(memo) == entry[cf._COST] == kept_values(entry) == 3 + 2

    def test_a_group_read_moves_users_only_when_each_has_the_key(self, four_users):
        """``every`` reads one key for each of several users: on a miss it
        returns None and moves no one, and on a hit it moves each user to
        the recently used end in the order given."""
        memo = cf._memo_of(four_users)
        for user, key, value in (("a", ("i4", 2), 4.5), ("b", ("i4", 2), None),
                                 ("c", ("i1", 2), 3.0)):
            assert memo.get(user, cf._PREDICTIONS, key, lambda: value) == value
        size = len(memo)
        for users, slot in ((["b", "c"], cf._PREDICTIONS), (["a", "d"], cf._PREDICTIONS),
                            (["a"], cf._SHIFTS)):
            assert memo.every(users, slot, ("i4", 2)) is None
            assert list(memo._entries) == ["a", "b", "c"]
        assert memo.every(["b", "a"], cf._PREDICTIONS, ("i4", 2)) == [None, 4.5]
        assert list(memo._entries) == ["c", "b", "a"] and len(memo) == size

    def test_threads_sharing_a_matrix_keep_the_count(self, monkeypatch):
        ratings = [
            (f"u{n}", f"i{i}", float((n * 7 + i * 3) % 11) / 2)
            for n in range(12) for i in range(8) if (n + i) % 4
        ]
        users = [f"u{n}" for n in range(12)]
        expected = {u: knn_neighbors(RatingsMatrix(ratings), u, 3) for u in users}
        predicted = {(u, t): outcome(predict_rating, RatingsMatrix(ratings), u, t, 2)
                     for u in users for t in ("i1", "i6")}
        groups = [Group("g", tuple(users[n:n + 3])) for n in range(0, 12, 3)]
        influence = {
            (g, t): influential_items(RatingsMatrix(ratings), g, t, 2)
            for g in groups for t in ("i1", "i6")
        }
        monkeypatch.setattr(cf, "_MEMO_CAP", 40)  # room for about three users
        shared = RatingsMatrix(ratings)
        failures = []

        def work(offset):
            try:
                for round_ in range(1000):
                    user = users[(offset + round_ * 5) % len(users)]
                    assert knn_neighbors(shared, user, 3) == expected[user]
                    for other in users:
                        cf._user_mean(shared, other)
                    key = list(predicted)[(offset + round_ * 3) % len(predicted)]
                    assert outcome(predict_rating, shared, *key, 2) == predicted[key]
                    if round_ % 20 == 0:  # fills and reads the shift rows
                        key = list(influence)[(offset + round_) % len(influence)]
                        assert influential_items(shared, *key, 2) == influence[key]
            except Exception as exc:  # a thread's error would not fail the test
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        memo = cf._memo_of(shared)
        kept = sum(entry[cf._COST] for entry in memo._entries.values())
        assert len(memo) == kept <= 40

    def test_racing_first_uses_keep_one_memo(self, monkeypatch):
        """Six threads make the first kNN reads of each of 400 fresh
        matrices at once: each matrix ends with one memo, the one every
        read used, counting the values it keeps."""
        ratings = [
            (f"u{n}", f"i{i}", float((n * 7 + i * 3) % 11) / 2)
            for n in range(12) for i in range(8) if (n + i) % 4
        ]
        users = [f"u{n}" for n in range(12)]
        used, get = [], cf._UserMemo.get

        def recording_get(memo, *args, **kwargs):
            used.append(memo)
            return get(memo, *args, **kwargs)

        monkeypatch.setattr(cf._UserMemo, "get", recording_get)
        matrices = [RatingsMatrix(ratings) for _ in range(400)]
        start, failures = threading.Barrier(6, timeout=60), []

        def work(offset):
            try:
                for matrix in matrices:
                    start.wait()
                    user = users[offset]
                    if offset % 2:
                        knn_neighbors(matrix, user, 3)
                    else:
                        outcome(predict_rating, matrix, user, "i1", 2)
            except Exception as exc:  # a thread's error would not fail the test
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        memos = [cf._memo_of(matrix) for matrix in matrices]
        assert {id(memo) for memo in used} == {id(memo) for memo in memos}
        for memo in memos:
            assert len(memo) == sum(map(kept_values, memo._entries.values())) > 0


class TestCfStateLayout:
    """The kNN memo and the kNN path are defined in ``cf`` alone; ``core``
    keeps the public kNN functions, which reach ``cf`` without an import
    statement."""

    MEMO = {
        "_UserMemo", "_MEMO_CAP", "_SLOT_COSTS", "_lists", "_SIMILARITIES", "_MEANS", "_BOUNDS",
        "_NEAREST", "_REMOVALS", "_PREDICTIONS", "_SHIFTS", "_COST",
    }
    KNN = {"_similarity", "_similarities", "_scan", "_nearest", "_predict", "_ranking",
           "_prediction"}

    @staticmethod
    def _body(file):
        return ast.parse((SRC_DIR / file).read_text(encoding="utf-8")).body

    def _defined(self, file):
        """The names *file* binds at module level."""
        names = set()
        for node in self._body(file):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        return names

    def test_cf_and_not_core_defines_the_memo_and_the_knn_path(self):
        assert not self._defined("core.py") & (self.MEMO | self.KNN)
        assert self.MEMO | self.KNN <= self._defined("cf.py")

    def test_cf_imports_no_memo_name_from_core(self):
        imported = {
            alias.name
            for node in self._body("cf.py")
            if isinstance(node, ast.ImportFrom) and node.module.endswith("core")
            for alias in node.names
        }
        assert imported and not imported & (self.MEMO | self.KNN)

    def test_the_public_knn_functions_import_nothing(self):
        functions = {
            node.name: node for node in self._body("core.py") if isinstance(node, ast.FunctionDef)
        }
        for name in ("knn_neighbors", "predict_rating"):
            assert not any(isinstance(n, ast.ImportFrom) for n in ast.walk(functions[name]))


class TestKnn:
    def test_neighbor_ranking(self, four_users):
        # sims verified with numpy: b 0.8660254..., c -0.9819805..., d flat -> 0.0
        neighbors = knn_neighbors(four_users, "a", 2)
        assert neighbors == [
            ("b", pytest.approx(0.8660254037844385, abs=1e-12)),
            ("d", 0.0),
        ]

    def test_k_three_includes_negative(self, four_users):
        neighbors = knn_neighbors(four_users, "a", 3)
        assert [user for user, _ in neighbors] == ["b", "d", "c"]
        assert neighbors[2][1] == pytest.approx(-0.9819805060619656, abs=1e-12)

    def test_candidates_need_two_corated(self):
        matrix = RatingsMatrix(
            [("a", "i1", 1.0), ("a", "i2", 2.0), ("b", "i1", 3.0)]
        )
        assert knn_neighbors(matrix, "a", 5) == []

    def test_unknown_user(self, four_users):
        with pytest.raises(UnknownUserError):
            knn_neighbors(four_users, "ghost", 2)

    def test_bad_k(self, four_users):
        with pytest.raises(ValueError):
            knn_neighbors(four_users, "a", 0)

    def test_tie_breaks_ascending(self):
        matrix = RatingsMatrix(
            [
                ("u", "i1", 1.0), ("u", "i2", 2.0),
                ("n2", "i1", 2.0), ("n2", "i2", 4.0),
                ("n1", "i1", 3.0), ("n1", "i2", 5.0),
            ]
        )
        assert [user for user, _ in knn_neighbors(matrix, "u", 1)] == ["n1"]


class TestPredict:
    def test_reference_value(self, four_users):
        # 4.0 + (0.866... * (4.0 - 4.125)) / 0.866... = 3.875, frozen up front
        assert predict_rating(four_users, "a", "i4", 2) == pytest.approx(
            3.875, abs=1e-12
        )

    def test_no_basis(self, four_users):
        with pytest.raises(NoPredictionBasisError):
            predict_rating(four_users, "a", "i9", 2)

    def test_zero_weight_falls_back_to_user_mean(self):
        # the only qualifying neighbor is flat: sim 0.0, deviation term 0
        matrix = RatingsMatrix(
            [
                ("a", "i1", 3.0), ("a", "i2", 4.0),
                ("e", "i1", 2.0), ("e", "i2", 2.0), ("e", "i3", 4.1),
            ]
        )
        assert predict_rating(matrix, "a", "i3", 2) == pytest.approx(3.5)

    def test_clamped_to_scale(self):
        matrix = RatingsMatrix(
            [
                ("a", "i1", 5.0), ("a", "i2", 4.5),
                ("b", "i1", 2.0), ("b", "i2", 1.0),
                ("b", "i3", 5.0), ("b", "i4", 0.0), ("b", "i5", 0.0),
            ]
        )
        # b's mean is low, rating of i3 far above: raw sum exceeds 5
        assert predict_rating(matrix, "a", "i3", 1) == 5.0


class TestGroupType:
    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroupError):
            Group(id="g", members=())

    def test_duplicate_member_rejected(self):
        with pytest.raises(InvalidValueError):
            Group(id="g", members=("a", "a"))


class TestSatisfies:
    def test_numeric_ops(self):
        assert satisfies(299, "<=", 1000)
        assert not satisfies(1200, "<=", 1000)
        assert satisfies(24, ">=", 20)
        assert not satisfies(18, ">=", 20)

    def test_equality_on_any_type(self):
        assert satisfies(True, "=", True)
        assert not satisfies(True, "=", False)
        assert satisfies("red", "=", "red")

    def test_bad_operator(self):
        with pytest.raises(ValueError):
            satisfies(1, "<", 2)

    def test_non_numeric_for_ordering(self):
        with pytest.raises(InvalidValueError):
            satisfies("cheap", "<=", 100)
        with pytest.raises(InvalidValueError):
            satisfies(True, ">=", 0)


class TestOneKernel:
    """The Pearson kernel's centred sums are computed in ``core._centred``
    only: ``pearson`` and the influence bounds both call it."""

    @staticmethod
    def _functions():
        """(file name, function name, node) for every function in the package."""
        for path in sorted(SRC_DIR.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield path.name, node.name, node

    @staticmethod
    def _named(node, name):
        return any(
            isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
        )

    def test_pearson_and_the_removal_bounds_call_the_kernel(self):
        functions = {(file, name): node for file, name, node in self._functions()}
        assert self._named(functions["core.py", "pearson"], "_centred")
        assert self._named(functions["cf.py", "_removal_bounds"], "_centred")

    def test_only_the_kernel_sums_products(self):
        def name(node):  # f for f(...) or module.f(...)
            return getattr(node, "id", None) or getattr(node, "attr", None)

        def call_of(node, function):
            return isinstance(node, ast.Call) and name(node.func) == function

        summing = {
            (file, function)
            for file, function, node in self._functions()
            for call in ast.walk(node)
            if call_of(call, "fsum")
            and call.args
            and call_of(call.args[0], "map")
            and call.args[0].args
            and name(call.args[0].args[0]) == "mul"
        }
        assert summing == {("core.py", "_centred")}
