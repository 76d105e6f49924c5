"""Collaborative explanations: histograms, aggregation texts, influence."""

import copy
import random
from collections import Counter

import pytest

from groupexplain import cf, core
from groupexplain import (
    AggregationStrategy,
    Group,
    NeighborAssignment,
    RatingsMatrix,
    aggregation_explanation,
    group_rating_histogram,
    influential_items,
    member_predictions,
    nn_rating_histogram,
    predict_rating,
)
from groupexplain.cf import SOURCE_MEMBER_NEIGHBORS, SOURCE_NEIGHBOR_GROUPS
from groupexplain.errors import (
    EmptyGroupSetError,
    MissingRatingError,
    NoPredictionBasisError,
    UnknownUserError,
)
from helpers import kept_values, leave_one_out, outcome, rating_rows

# expected bucket counts per item over the six assigned neighbors
NEIGHBOR_BUCKETS = {
    "t1": (0, 2, 4),
    "t2": (0, 5, 1),
    "t3": (0, 4, 2),
    "t4": (0, 0, 6),
    "t5": (0, 3, 3),
}

# expected bucket counts per item over the four similar groups
GROUP_BUCKETS = {
    "t1": (0, 1, 3),
    "t2": (2, 2, 0),
    "t3": (0, 3, 1),
    "t4": (0, 0, 4),
    "t5": (0, 2, 2),
}


class TestNeighborHistogram:
    def test_assignment_from_knn(self, dataset, g1):
        assignment = NeighborAssignment.from_knn(dataset.matrix, g1, k=2)
        assert assignment.neighbors == {
            "u1": ("nn11", "nn12"),
            "u2": ("nn21", "nn22"),
            "u3": ("nn31", "nn32"),
        }
        assert assignment.effective_users() == (
            "nn11", "nn12", "nn21", "nn22", "nn31", "nn32",
        )

    def test_assignment_leaves_out_members_without_ratings(self, dataset, g1):
        plain = NeighborAssignment.from_knn(dataset.matrix, g1, k=2)
        more = Group("g9", g1.members + ("nobody",))
        assert NeighborAssignment.from_knn(dataset.matrix, more, k=2) == plain
        with pytest.raises(UnknownUserError):
            NeighborAssignment.from_knn(dataset.matrix, Group("g0", ("nobody",)), k=2)

    @pytest.mark.parametrize("item", sorted(NEIGHBOR_BUCKETS))
    def test_bucket_counts(self, dataset, g1, item):
        assignment = NeighborAssignment.from_knn(dataset.matrix, g1, k=2)
        histogram = nn_rating_histogram(dataset.matrix, assignment, item)
        assert tuple(histogram.counts) == NEIGHBOR_BUCKETS[item]
        assert histogram.source == SOURCE_MEMBER_NEIGHBORS
        assert histogram.counts.total == 6

    def test_intersection_mode_empty_here(self, dataset, g1):
        assignment = NeighborAssignment.from_knn(
            dataset.matrix, g1, k=2, mode="intersection"
        )
        assert assignment.effective_users() == ()
        histogram = nn_rating_histogram(dataset.matrix, assignment, "t1")
        assert tuple(histogram.counts) == (0, 0, 0)

    def test_no_lists_no_neighbors(self):
        for mode in ("union", "intersection"):
            assert NeighborAssignment(neighbors={}, mode=mode).effective_users() == ()

    def test_missing_rating(self, dataset):
        assignment = NeighborAssignment(neighbors={"u1": ("nn11",)})
        with pytest.raises(MissingRatingError):
            nn_rating_histogram(dataset.matrix, assignment, "x21")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            NeighborAssignment(neighbors={}, mode="fancy")


class TestGroupHistogram:
    @pytest.mark.parametrize("item", sorted(GROUP_BUCKETS))
    def test_bucket_counts(self, dataset, item):
        ratings = {
            gp: row[item]
            for gp, row in dataset.neighbor_group_ratings.items()
            if item in row
        }
        histogram = group_rating_histogram(ratings, item)
        assert tuple(histogram.counts) == GROUP_BUCKETS[item]
        assert histogram.source == SOURCE_NEIGHBOR_GROUPS

    def test_empty_group_set(self):
        with pytest.raises(EmptyGroupSetError):
            group_rating_histogram({}, "t9")


class TestAggregationExplanation:
    SCORES = {"a": 2.9, "b": 4.8, "c": 3.2}

    def test_lms_named(self):
        explanation = aggregation_explanation(
            "y", self.SCORES, AggregationStrategy.LMS, privacy="named"
        )
        assert explanation.text == (
            "item y has a group score of 2.9 due to the (lowest) "
            "rating determined for user a"
        )
        assert explanation.slots["score"] == 2.9  # bit-for-bit the aggregate

    def test_mpl_named(self):
        explanation = aggregation_explanation(
            "y", self.SCORES, AggregationStrategy.MPL, privacy="named"
        )
        assert explanation.text == (
            "item y has a group score of 4.8 due to the (highest) "
            "rating determined for user b"
        )

    def test_avg_named(self):
        explanation = aggregation_explanation(
            "y", self.SCORES, AggregationStrategy.AVG, privacy="named"
        )
        assert explanation.text == (
            "item y is most similar to the ratings of users a, b, and c"
        )

    def test_lms_anonymous_avoids_misery_phrasing(self):
        explanation = aggregation_explanation(
            "y", self.SCORES, AggregationStrategy.LMS, privacy="anonymous"
        )
        assert explanation.text == (
            "item y is recommended because it avoids misery within the group"
        )
        for member in self.SCORES:
            assert member not in explanation.slots

    def test_anonymous_texts_name_no_member(self):
        scores = {"zz1": 2.0, "zz2": 4.0, "zz3": 3.0}
        for strategy in AggregationStrategy:
            explanation = aggregation_explanation(
                "y", scores, strategy, privacy="anonymous"
            )
            for member in scores:
                assert member not in explanation.text

    def test_score_matches_aggregate_bit_for_bit(self):
        from groupexplain import aggregate

        for strategy in AggregationStrategy:
            explanation = aggregation_explanation(
                "y", self.SCORES, strategy, privacy="named"
            )
            value, _ = aggregate(self.SCORES, strategy)
            assert explanation.slots["score"] == value


class TestInfluence:
    def test_builtin_ranking(self, dataset, g1):
        results = influential_items(dataset.matrix, g1, "t1", k=2)
        assert [r.item for r in results[:2]] == ["x23", "x33"]
        # removing x23 shifts only u2's own mean: |5.0 - mean(1,3)| ... -> 1.0/3
        assert results[0].delta == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert not results[0].basis_destroying
        # removing a co-rated item strips the member's only neighbor pair
        flagged = {r.item for r in results if r.basis_destroying}
        assert flagged == {"x11", "x12", "x21", "x22", "x31", "x32"}

    def test_neutral_item_has_zero_delta(self, dataset, g1):
        results = influential_items(dataset.matrix, g1, "t1", k=2)
        by_item = {r.item: r for r in results}
        # x13 keeps u1's mean at 3.0, so nothing moves
        assert by_item["x13"].delta == pytest.approx(0.0, abs=1e-12)
        assert not by_item["x13"].basis_destroying

    def test_sorted_by_delta_then_id(self, dataset, g1):
        results = influential_items(dataset.matrix, g1, "t1", k=2)
        keys = [(-r.delta, r.item) for r in results]
        assert keys == sorted(keys)

    def test_no_basis_at_all(self):
        matrix = RatingsMatrix([("a", "i1", 3.0), ("b", "i2", 2.0)])
        with pytest.raises(NoPredictionBasisError):
            influential_items(matrix, Group("g", ("a", "b")), "i2", k=2)


class TestInfluenceScoring:
    """Candidates are scored from the members' shift rows. At k = 1, m1's
    one neighbor is a, over the co-rated c and i1, and m2's is b, over i1
    and i2: removing c leaves m1 without a neighbor and moves m2's own
    mean by 1.0, and removing i1 leaves both without one."""

    MATRIX = rating_rows(
        m1=dict(c=1.0, i1=4.0),
        a=dict(c=2.0, i1=5.0, t=4.0),
        m2=dict(c=5.0, i1=1.0, i2=3.0),
        b=dict(i1=1.0, i2=3.0, t=2.0),
    )
    GROUP = Group("g", ("m1", "m2"))

    def ranking(self):
        return influential_items(RatingsMatrix(self.MATRIX), self.GROUP, "t", 1)

    def test_a_candidate_that_removes_one_basis_is_scored_over_the_others(self):
        by_item = {r.item: r for r in self.ranking()}
        # m1 has no basis without c; m2 shifts by |2.0 - 3.0|, alone
        assert by_item["c"] == cf.ItemInfluence("c", 1.0, True)
        # without i2, m2 moves by 1/3 and m1, who keeps its prediction, by 0.0
        assert by_item["i2"].delta == pytest.approx((1.0 / 3.0 + 0.0) / 2, abs=1e-12)
        assert not by_item["i2"].basis_destroying

    def test_a_candidate_that_removes_every_basis_scores_zero(self):
        by_item = {r.item: r for r in self.ranking()}
        assert by_item["i1"] == cf.ItemInfluence("i1", 0.0, True)

    def test_equal_deltas_rank_by_ascending_id(self):
        # m's only neighbor rating t is b, over i1 and i2; removing p or q
        # moves m's mean by the same amount, removing i1 or i2 its basis
        matrix = RatingsMatrix(rating_rows(
            m=dict(i1=1.0, i2=3.0, q=5.0, p=5.0),
            b=dict(i1=1.0, i2=3.0, t=2.0),
            c=dict(i1=3.0, i2=1.0, t=4.0),
        ))
        ranking = influential_items(matrix, Group("g", ("m",)), "t", 1)
        assert ranking == [
            cf.ItemInfluence("p", 0.5, False),
            cf.ItemInfluence("q", 0.5, False),
            cf.ItemInfluence("i1", 0.0, True),
            cf.ItemInfluence("i2", 0.0, True),
        ]

    def test_a_warm_call_equals_the_first_and_the_oracle(self):
        matrix = RatingsMatrix(self.MATRIX)
        first = influential_items(matrix, self.GROUP, "t", 1)
        assert cf._memo_of(matrix)._entries["m1"][cf._SHIFTS]  # kept: read again
        assert repr(influential_items(matrix, self.GROUP, "t", 1)) == repr(first)
        assert first == leave_one_out(RatingsMatrix(self.MATRIX), self.GROUP, "t", 1)
        assert [r.item for r in first] == ["c", "i2", "i1"]


def _generated_case():
    rng = random.Random(7)
    users = [f"u{n:02d}" for n in range(40)]
    ratings = [
        (u, f"i{i:02d}", rng.randrange(11) / 2)
        for u in users
        for i in range(30)
        if rng.random() < 0.35
    ]
    return RatingsMatrix(ratings), Group("g", tuple(users[:4])), "i00"


class TestInfluenceWork:
    """influential_items recomputes only what a removed item touches."""

    @pytest.fixture(params=["builtin", "generated"])
    def case(self, request, dataset, g1):
        if request.param == "builtin":
            return dataset.matrix, g1, "t1"
        return _generated_case()

    @staticmethod
    def pearson_bound(matrix, group, target):
        """Pearson calls allowed: members x (users - 1), plus, per removed
        item c, (#members with a prediction who rated c) x (#other users
        who rated c)."""
        users = matrix.users()
        predicted = []
        for member in group.members:
            try:
                predict_rating(matrix, member, target, 2)
                predicted.append(member)
            except (NoPredictionBasisError, UnknownUserError):
                pass
        bound = len(group.members) * (len(users) - 1)
        rated = {i for m in group.members for i in matrix.items_rated_by(m)}
        for item in rated - {target}:
            raters = [u for u in users if matrix.get(u, item) is not None]
            bound += sum(m in raters for m in predicted) * (len(raters) - 1)
        return bound

    @staticmethod
    def count_work(matrix, calls, monkeypatch):
        """The work of each (group, target, k) in *calls*, made in turn as
        an influential_items call on one fresh copy of *matrix* (so no
        earlier call has filled its memo): its Pearson calls, those made to
        re-score a pair without a removed item, its similarity scans, its
        removal-bound passes, its rankings of a similarity map (with or
        without an item) and its predictions per member, with its ranking.
        Also the matrix builds the calls made."""
        fresh = RatingsMatrix(
            (user, item, value)
            for user in matrix.users()
            for item, value in matrix.items_rated_by(user).items()
        )
        builds, work, rescoring = [], [], []
        init, pearson = core.RatingsMatrix.__init__, cf.pearson
        scan, bounds, nearest_without = cf._scan, cf._removal_bounds, cf._nearest_without
        predict, nearest = cf._predict, cf._nearest

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        def counted(name, fn):
            def wrapper(*args):
                work[-1][name] += 1
                return fn(*args)
            return wrapper

        def counting_pearson(*args):
            work[-1]["pearsons"] += 1
            work[-1]["rescoring"] += bool(rescoring)
            return pearson(*args)

        def rescoring_nearest_without(*args):
            rescoring.append(1)
            try:
                return nearest_without(*args)
            finally:
                rescoring.pop()

        def counting_predict(matrix, user, *args):
            work[-1]["predicts"][user] += 1
            return predict(matrix, user, *args)

        monkeypatch.setattr(core.RatingsMatrix, "__init__", counting_init)
        monkeypatch.setattr(cf, "pearson", counting_pearson)  # where _similarity reads it
        monkeypatch.setattr(cf, "_scan", counted("scans", scan))
        monkeypatch.setattr(cf, "_removal_bounds", counted("bound_passes", bounds))
        monkeypatch.setattr(cf, "_nearest_without", rescoring_nearest_without)
        monkeypatch.setattr(cf, "_predict", counting_predict)
        monkeypatch.setattr(cf, "_nearest", counted("rankings", nearest))
        for group, target, k in calls:
            work.append(dict.fromkeys(
                ("pearsons", "rescoring", "scans", "bound_passes", "rankings"), 0
            ))
            work[-1]["predicts"] = Counter()
            work[-1]["ranking"] = influential_items(fresh, group, target, k)
            assert work[-1]["ranking"]
        monkeypatch.undo()
        return work, len(builds)

    def test_no_matrix_copies_and_bounded_pearson_calls(self, case, monkeypatch):
        matrix, group, target = case
        bound = self.pearson_bound(matrix, group, target)
        [work], builds = self.count_work(matrix, [(group, target, 2)], monkeypatch)
        assert builds == 0
        assert 0 < work["pearsons"] <= bound

    def test_bounds_skip_most_rescoring(self, monkeypatch):
        """Fails if every user who co-rated a removed item is re-scored
        (211 calls beyond the first pass here), or if a second call on the
        same matrix scores any pair, passes over any bounds, ranks any
        similarity map or predicts anything again."""
        matrix, group, target = _generated_case()
        first_pass = len(group.members) * (len(matrix.users()) - 1)
        allowance = self.pearson_bound(matrix, group, target) - first_pass
        (cold, warm), _ = self.count_work(
            matrix, [(group, target, 2), (group, target, 2)], monkeypatch
        )
        assert allowance == 265
        assert cold["pearsons"] - first_pass <= allowance // 4
        assert cold["bound_passes"] == len(member_predictions(matrix, group, target, 2))
        assert cold["rankings"] > 0 and cold["predicts"]
        # the second call reads every prediction, ranking and shift row
        assert warm["pearsons"] == warm["bound_passes"] == warm["rankings"] == 0
        assert warm["predicts"] == {}
        assert repr(warm["ranking"]) == repr(cold["ranking"])

    def test_another_target_scores_no_pair_again(self, monkeypatch):
        """Members ask about one candidate after another. A call with a new
        target that no member rated, whose members with a prediction all
        had one in the last call, removes the same items for the same
        members: it reads every neighbor list and mean from the memo. The
        shifts are kept per target, so it reads none of the last call's."""
        matrix, group, _ = _generated_case()
        rated = {i for m in group.members for i in matrix.items_rated_by(m)}
        assert not rated & {"i14", "i15"}
        taking_part = [set(member_predictions(matrix, group, t, 2)) for t in ("i15", "i14")]
        assert taking_part[1] < taking_part[0]
        (first, second), _ = self.count_work(
            matrix, [(group, "i15", 2), (group, "i14", 2)], monkeypatch
        )
        assert first["pearsons"] > 0
        assert second["pearsons"] == 0
        fresh = influential_items(copy.copy(matrix), group, "i14", 2)
        assert repr(second["ranking"]) == repr(fresh)

    def test_a_new_k_rescores_only_leave_one_out_pairs(self, monkeypatch):
        """The maps and bounds serve every k; the neighbor lists without an
        item are kept per k, so a new k re-scores pairs and nothing else."""
        matrix, group, target = _generated_case()
        (_, second), _ = self.count_work(
            matrix, [(group, target, 2), (group, target, 3)], monkeypatch
        )
        assert second["scans"] == second["bound_passes"] == 0
        assert 0 < second["pearsons"] == second["rescoring"]

    def test_another_group_reads_a_shared_members_shifts(self, monkeypatch):
        """A member's shift without an item does not depend on the group.
        After u04 alone and then u00-u03 asked about the target, the group
        of u03 and u04 asks: every map, bound and neighbor list it needs is
        kept, so it scores no pair, and u03's prediction and every shift of
        u03's are kept, so u03 is not predicted at all."""
        matrix, group, target = _generated_case()
        other = Group("h", ("u03", "u04"))
        calls = [(Group("c", ("u04",)), target, 2), (group, target, 2), (other, target, 2)]
        (_, first, last), _ = self.count_work(matrix, calls, monkeypatch)
        assert first["predicts"]["u03"] > 1
        assert last["pearsons"] == 0
        assert last["predicts"]["u03"] == 0
        assert repr(last["ranking"]) == repr(influential_items(copy.copy(matrix), other, target, 2))

    def test_a_kept_removal_without_basis_is_flagged_again(self, dataset, g1, monkeypatch):
        """Removing x11 leaves u1 without a basis for t1 (TestInfluence).
        The memo keeps that as no basis, not as a shift: the group of u3 and
        u1 that asks next reads every prediction and shift it needs, so it
        predicts nothing, and flags x11, x12, x31 and x32 as the group of
        u1, u2 and u3 did."""
        other = Group("h", ("u3", "u1"))
        (_, again), _ = self.count_work(
            dataset.matrix, [(g1, "t1", 2), (other, "t1", 2)], monkeypatch
        )
        assert again["predicts"] == {}
        flagged = {r.item for r in again["ranking"] if r.basis_destroying}
        assert flagged == {"x11", "x12", "x31", "x32"}
        fresh = influential_items(copy.copy(dataset.matrix), other, "t1", 2)
        assert repr(again["ranking"]) == repr(fresh)

    # Every member has a prediction for i01 at k = 2 and at k = 3.
    WARM = Group("w", ("u00", "u01", "u02", "u04"))

    @staticmethod
    def count_reads(monkeypatch):
        """From now on, count each memo read, each member_predictions call
        and each similarity scan, ranking, prediction and Pearson call."""
        calls = Counter()
        for owner, name in (
            (cf._UserMemo, "get"), (cf._UserMemo, "every"),
            (cf, "member_predictions"), (cf, "_scan"), (cf, "_nearest"), (cf, "_predict"),
            (cf, "pearson"),
        ):
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def fresh(matrix, group, target, k):
        return repr(influential_items(copy.copy(matrix), group, target, k))

    def test_a_repeated_call_reads_the_memo_once(self, monkeypatch):
        """Fails if a warm call reads the memo member by member: four
        locked reads per member, 16 for this group."""
        matrix, _, _ = _generated_case()
        first = influential_items(matrix, self.WARM, "i01", 2)
        calls = self.count_reads(monkeypatch)
        again = influential_items(matrix, self.WARM, "i01", 2)
        monkeypatch.undo()
        assert calls == {"every": 1}
        assert repr(again) == repr(first) == self.fresh(matrix, self.WARM, "i01", 2)

    def test_two_members_kept_and_two_new(self, monkeypatch):
        """u00 and u01 have rows; u02 and u04 are known to the memo but
        were never asked about i01. The call takes the member path for
        all four, reading the two kept rows and computing the others."""
        matrix, _, _ = _generated_case()
        influential_items(matrix, Group("k", ("u00", "u01")), "i01", 2)
        for user in ("u02", "u04"):
            core.knn_neighbors(matrix, user, 2)
        calls = self.count_reads(monkeypatch)
        got = influential_items(matrix, self.WARM, "i01", 2)
        monkeypatch.undo()
        assert calls["every"] == calls["member_predictions"] == 1
        assert repr(got) == self.fresh(matrix, self.WARM, "i01", 2)

    def test_a_kept_group_at_a_new_k(self):
        matrix, _, _ = _generated_case()
        at_2 = influential_items(matrix, self.WARM, "i01", 2)
        at_3 = influential_items(matrix, self.WARM, "i01", 3)
        assert repr(at_3) != repr(at_2)
        assert repr(at_3) == self.fresh(matrix, self.WARM, "i01", 3)
        assert repr(influential_items(matrix, self.WARM, "i01", 2)) == repr(at_2)

    def test_a_kept_group_gains_a_member_without_ratings(self):
        matrix, _, _ = _generated_case()
        kept = influential_items(matrix, self.WARM, "i01", 2)
        grown = Group("n", (*self.WARM.members, "nobody"))
        got = influential_items(matrix, grown, "i01", 2)
        assert repr(got) == self.fresh(matrix, grown, "i01", 2) == repr(kept)

    def test_warm_calls_raise_as_a_fresh_matrix_does(self):
        """k = 0, a target no member's neighbors rated, and a group whose
        one member has no ratings raise the errors of a fresh matrix."""
        matrix, _, _ = _generated_case()
        for k in (2, 3):
            influential_items(matrix, self.WARM, "i01", k)
        unrated = Group("z", ("nobody",))
        for group, target, k, error in (
            (self.WARM, "i01", 0, ValueError),
            (self.WARM, "i99", 2, NoPredictionBasisError),
            (unrated, "i01", 2, NoPredictionBasisError),
        ):
            got = outcome(influential_items, matrix, group, target, k)
            assert got == outcome(influential_items, copy.copy(matrix), group, target, k)
            assert got[:2] == ("raised", error)
        assert outcome(influential_items, matrix, self.WARM, "i99", 2)[2] == (
            "no-prediction-basis: no member of 'w' has a prediction for 'i99'"
        )

    def test_a_shift_row_reads_and_keeps_its_own_members_entry_only(self, monkeypatch):
        """Building u00's first shift row, its bounds and removal map
        included, calls ``_UserMemo.get`` for u00 alone: every other
        user's entry, and the order of the entries, stay as they were."""
        matrix, _, _ = _generated_case()
        taking_part = member_predictions(matrix, Group("s", ("u00", "u01")), "i01", 2)["u00"]
        entries = cf._memo_of(matrix)._entries
        assert "u00" in entries and len(entries) > 1
        others = [(user, repr(entry)) for user, entry in entries.items() if user != "u00"]
        users, get = [], cf._UserMemo.get

        def recording_get(memo, user, *args):
            users.append(user)
            return get(memo, user, *args)

        monkeypatch.setattr(cf._UserMemo, "get", recording_get)
        row = cf._shift_row(matrix, "u00", "i01", 2, taking_part)
        monkeypatch.undo()
        assert users and set(users) == {"u00"}
        after = [(user, repr(entry)) for user, entry in entries.items()]
        assert after == [*others, ("u00", repr(entries["u00"]))]
        assert entries["u00"][cf._REMOVALS].keys() == {2}
        assert row and repr(row) == repr(
            cf._shift_row(copy.copy(matrix), "u00", "i01", 2, taking_part)
        )

    @pytest.mark.parametrize("kept", [4, 2], ids=["every-row-kept", "two-rows-kept"])
    def test_another_call_evicts_the_group_right_after_its_read(self, kept, monkeypatch):
        """A call reads its group's rows, and before it goes on, another
        group's call evicts every row it read (forced in one thread, with
        no timing). A kept row stays valid once read, and a miss computes
        what it needs again: the ranking is a fresh matrix's, and the memo
        counts what it keeps."""
        matrix, _, _ = _generated_case()
        one_group = copy.copy(matrix)
        influential_items(one_group, self.WARM, "i01", 2)
        cap = len(cf._memo_of(one_group))  # room for about one group's state
        monkeypatch.setattr(cf, "_MEMO_CAP", cap)
        influential_items(matrix, Group("k", self.WARM.members[:kept]), "i01", 2)
        other = Group("o", tuple(f"u{n:02d}" for n in range(5, 17)))
        read, reads = cf._UserMemo.every, []

        def read_then_evict(memo, users, slot, key):
            rows = read(memo, users, slot, key)
            if not reads:
                reads.append(rows is not None)
                influential_items(matrix, other, "i01", 2)
                tables = [(memo._entries.get(user) or [None] * cf._COST)[slot] for user in users]
                assert not any(key in (table or {}) for table in tables)
            return rows

        monkeypatch.setattr(cf._UserMemo, "every", read_then_evict)
        got = influential_items(matrix, self.WARM, "i01", 2)
        monkeypatch.undo()
        assert reads == [kept == 4]
        assert repr(got) == self.fresh(matrix, self.WARM, "i01", 2)
        memo = cf._memo_of(matrix)
        assert len(memo) == sum(map(kept_values, memo._entries.values())) <= cap

    def test_the_group_read_leaves_the_memo_as_member_reads_do(self, monkeypatch):
        """Under the default cap, after each call of a mixed sequence, the
        memo's user order, kept values and count are those of the same
        calls when influential_items always takes the member path."""
        matrix, group, _ = _generated_case()
        reversed_warm = Group("r", self.WARM.members[::-1])
        calls = [
            (influential_items, self.WARM, "i01", 2),
            (core.knn_neighbors, "u10", 2),
            (influential_items, self.WARM, "i01", 2),
            (influential_items, reversed_warm, "i01", 2),
            (predict_rating, "u12", "i01", 2),
            (influential_items, group, "i00", 2),
            (influential_items, self.WARM, "i01", 3),
            (member_predictions, Group("m", ("u03", "u00")), None, 2),
            (influential_items, Group("n", (*self.WARM.members, "nobody")), "i01", 2),
            (influential_items, self.WARM, "i01", 3),
            (influential_items, self.WARM, "i99", 2),
            (influential_items, group, "i00", 2),
        ]

        def states(shared):
            found = []
            for call, *args in calls:
                outcome(call, shared, *args)
                memo = cf._memo_of(shared)
                found.append((list(memo._entries), repr(list(memo._entries.values())), len(memo)))
            return found

        grouped = states(copy.copy(matrix))
        monkeypatch.setattr(cf._UserMemo, "every", lambda memo, users, slot, key: None)
        assert states(copy.copy(matrix)) == grouped


class TestMemoLayout:
    """Every slot of a memo entry is a table, keyed as ``cf._UserMemo``
    lists: None keys a slot's one value and never means "no item removed",
    a neighbor list is keyed by k, and a removal map by k, then by each
    item of the user's removal bounds, an item the user rated."""

    @staticmethod
    def assert_layout(matrix):
        entries = cf._memo_of(matrix)._entries
        assert entries
        for user, entry in entries.items():
            rated = matrix.items_rated_by(user).keys()
            tables = entry[:cf._COST]
            assert all(table is None or type(table) is dict for table in tables), user
            scored, means, bounds, nearest, removals, _, _ = (table or {} for table in tables)
            assert set(scored) <= {None} and set(means) <= {None} and set(bounds) <= {None}
            for k in (*nearest, *removals):
                assert type(k) is int and k >= 1, k
            for by_item in removals.values():
                assert by_item.keys() <= rated, user
                if bounds:
                    assert by_item.keys() == bounds[None].keys(), user

    def test_every_table_is_keyed_by_what_it_removes(self, dataset, g1):
        matrix = copy.copy(dataset.matrix)  # a new, empty memo
        influential_items(matrix, g1, "t1", 2)
        for k in (1, 2, 3):
            for user in matrix.users():
                core.knn_neighbors(matrix, user, k)
                try:
                    predict_rating(matrix, user, "t1", k)
                except NoPredictionBasisError:
                    pass
        self.assert_layout(matrix)
        matrix, group, target = _generated_case()
        for item in (target, "i14"):
            influential_items(matrix, group, item, 2)
        self.assert_layout(matrix)
