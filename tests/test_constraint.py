"""Constraint-based explanations: requirements, MAUT, fairness, relaxation."""

import random

import pytest

from groupexplain import (
    DecisionHistory,
    Group,
    InterestDimension,
    Item,
    Requirement,
    adapt_weights,
    causally_relevant,
    fairness_degree,
    maut_relevance,
    relaxation_proposals,
    requirement_relevance,
)
from groupexplain import constraint, core
from groupexplain.constraint import rank_requirements
from groupexplain.errors import (
    EmptyCatalogError,
    InvalidValueError,
    MissingAttributeError,
    MissingImportanceError,
    MissingWeightError,
    UnknownUserError,
)
from groupexplain.render import display_round
from helpers import Count, reference_relaxation_proposals

MAUT_TABLE = {
    "t1": {"dim1": 0.05, "dim2": 0.14, "dim3": 0.15},
    "t2": {"dim1": 0.05, "dim2": 0.23, "dim3": 0.07},
    "t3": {"dim1": 0.02, "dim2": 0.28, "dim3": 0.07},
}


class TestRequirementRelevance:
    def test_printed_values(self, dataset, g1):
        by_id = {req.id: req for req in dataset.requirements}
        assert display_round(requirement_relevance(g1, by_id["req1"])) == 0.3
        assert display_round(requirement_relevance(g1, by_id["req2"])) == 0.33
        assert display_round(requirement_relevance(g1, by_id["req3"])) == 0.37

    def test_req3_is_maximal(self, dataset, g1):
        ranked = sorted(
            dataset.requirements,
            key=lambda req: -requirement_relevance(g1, req),
        )
        assert ranked[0].id == "req3"

    def test_missing_importance(self, g1):
        req = Requirement(
            id="r", attribute="price", operator="<=", bound=10, importance={"u1": 0.5}
        )
        with pytest.raises(MissingImportanceError):
            requirement_relevance(g1, req)


class TestCausalRelevance:
    def test_filtering_requirements_are_relevant(self, dataset):
        catalog = [dataset.items[i] for i in ("t1", "t2", "t3", "t4", "t5")]
        for req in dataset.requirements:
            assert causally_relevant(req, catalog)

    def test_vacuous_requirement_is_not(self, dataset):
        catalog = [dataset.items[i] for i in ("t1", "t2", "t3", "t4", "t5")]
        lax = Requirement(
            id="lax", attribute="weight", operator="<=", bound=99, importance={}
        )
        assert not causally_relevant(lax, catalog)

    def test_missing_attribute(self, dataset):
        req = dataset.requirements[0]
        with pytest.raises(MissingAttributeError):
            causally_relevant(req, [Item(id="bare")])


class TestMaut:
    @pytest.mark.parametrize("item_id", sorted(MAUT_TABLE))
    def test_all_cells(self, dataset, g1, item_id):
        dims = {d.id: d for d in dataset.dimensions}
        for dim_id, printed in MAUT_TABLE[item_id].items():
            value = maut_relevance(g1, dims[dim_id], dataset.items[item_id])
            assert display_round(value) == printed

    def test_argmax_per_item(self, dataset, g1):
        dims = {d.id: d for d in dataset.dimensions}
        expected = {"t1": "dim3", "t2": "dim2", "t3": "dim2"}
        for item_id, want in expected.items():
            best = max(
                dims,
                key=lambda d: (
                    maut_relevance(g1, dims[d], dataset.items[item_id]),
                    d,
                ),
            )
            assert best == want, item_id

    def test_missing_contribution(self, dataset, g1):
        dim = dataset.dimensions[0]
        with pytest.raises(MissingWeightError):
            maut_relevance(g1, dim, Item(id="bare"))

    def test_missing_importance(self, dataset, g1):
        dim = InterestDimension(id="dim1", importance={"u1": 0.2})
        with pytest.raises(MissingWeightError):
            maut_relevance(g1, dim, dataset.items["t1"])


class TestFairness:
    def test_degrees(self, dataset):
        history = dataset.decision_history
        assert fairness_degree(history, "u1") == 0.5
        assert fairness_degree(history, "u2") == 0.75
        assert fairness_degree(history, "u3") == 1.0

    def test_unknown_user(self, dataset):
        with pytest.raises(UnknownUserError):
            fairness_degree(dataset.decision_history, "ghost")

    def test_history_validation(self):
        with pytest.raises(InvalidValueError):
            DecisionHistory(records={"u": (5, 4)})
        with pytest.raises(InvalidValueError):
            DecisionHistory(records={"u": (0, 0)})

    def test_adapted_weights_match_printed_rows(self, dataset, g1):
        adapted = adapt_weights(g1, dataset.fairness_weights, dataset.decision_history)
        # u1 was below the mean fairness of 0.75: factor 1.25, exact in floats
        assert adapted["u1"] == {"dim1": 0.375, "dim2": 0.375, "dim3": 0.5}
        # u2 sits exactly at the mean: bit-for-bit unchanged
        assert adapted["u2"] == dataset.fairness_weights["u2"]
        # u3 was above: factor 0.75
        assert adapted["u3"]["dim1"] == pytest.approx(0.225, abs=1e-12)
        assert adapted["u3"]["dim2"] == pytest.approx(0.15, abs=1e-12)
        assert adapted["u3"]["dim3"] == pytest.approx(0.375, abs=1e-12)
        for dim, printed in (("dim1", 0.225), ("dim2", 0.15), ("dim3", 0.375)):
            assert display_round(adapted["u3"][dim], 4) == printed

    def test_adapt_missing_weights(self, dataset, g1):
        with pytest.raises(MissingWeightError):
            adapt_weights(g1, {"u1": {"dim1": 0.3}}, dataset.decision_history)

    def test_adapt_identity_when_equal(self):
        group = Group("g", ("a", "b", "c"))
        history = DecisionHistory(records={"a": (1, 3), "b": (2, 6), "c": (3, 9)})
        weights = {
            "a": {"d1": 0.1, "d2": 0.7},
            "b": {"d1": 0.35, "d2": 0.2},
            "c": {"d1": 0.9, "d2": 0.05},
        }
        assert adapt_weights(group, weights, history) == weights


def _req(rid, attribute, operator, bound):
    return Requirement(
        id=rid, attribute=attribute, operator=operator, bound=bound, importance={}
    )


class TestRelaxation:
    def test_builtin_single_minimal_proposal(self, dataset):
        catalog = [dataset.items[i] for i in ("t1", "t2", "t3", "t4", "t5")]
        proposals = relaxation_proposals(dataset.requirements, catalog)
        assert len(proposals) == 1
        assert proposals[0].removed == ("req1",)
        assert proposals[0].survivors == ("t1", "t3", "t5")

    def test_satisfiable_needs_no_relaxation(self, dataset):
        catalog = [dataset.items[i] for i in ("t1", "t2", "t3", "t4", "t5")]
        without_price_cap = dataset.requirements[1:]
        assert relaxation_proposals(without_price_cap, catalog) == []

    def test_two_disjoint_singletons(self):
        items = [
            Item(id="i1", attributes={"a": 0, "b": 1}),
            Item(id="i2", attributes={"a": 1, "b": 0}),
        ]
        reqs = [_req("r1", "a", "<=", 0), _req("r2", "b", "<=", 0)]
        proposals = relaxation_proposals(reqs, items)
        assert [(p.removed, p.survivors) for p in proposals] == [
            (("r1",), ("i2",)),
            (("r2",), ("i1",)),
        ]

    def test_minimality_skips_supersets(self):
        items = [Item(id="i1", attributes={"a": 1, "b": 1})]
        reqs = [_req("r1", "a", "<=", 0), _req("r2", "b", "<=", 0)]
        proposals = relaxation_proposals(reqs, items)
        # only the pair works; no singleton is sound
        assert [(p.removed, p.survivors) for p in proposals] == [
            (("r1", "r2"), ("i1",))
        ]

    def test_empty_catalog(self):
        with pytest.raises(EmptyCatalogError):
            relaxation_proposals([_req("r1", "a", "<=", 0)], [])

    def test_single_violations_over_24_requirements(self):
        # item iNN violates rNN alone; "both" violates r00 and r01, so the
        # pair is never minimal and "both" survives no proposal
        names = [f"{n:02d}" for n in range(24)]
        items = [
            Item(id=f"i{n}", attributes={f"a{m}": int(m == n) for m in names})
            for n in names
        ]
        items.append(
            Item(id="both", attributes={f"a{m}": int(m in ("00", "01")) for m in names})
        )
        reqs = [_req(f"r{n}", f"a{n}", "<=", 0) for n in reversed(names)]
        proposals = relaxation_proposals(reqs, items)
        assert [(p.removed, p.survivors) for p in proposals] == [
            ((f"r{n}",), (f"i{n}",)) for n in names
        ]

    @staticmethod
    def few_pattern_catalog():
        """12 requirements over 2,000 items drawn from 9 attribute profiles,
        in shuffled id order: a few violation patterns, each proposal with
        hundreds of survivors."""
        rng = random.Random(23)
        profiles = [
            {f"a{m}": rng.choice([0, 1, 2.5, 4]) for m in range(12)} for _ in range(9)
        ]
        ids = [f"i{n:04d}" for n in range(2000)]
        rng.shuffle(ids)
        items = [Item(id=i, attributes=dict(rng.choice(profiles))) for i in ids]
        reqs = [_req("lo", "a0", "<=", 1), _req("hi", "a0", ">=", 2)]
        reqs += [_req(f"f{m}", f"a{m}", rng.choice(["<=", ">=", "="]), 2.5) for m in range(1, 11)]
        return reqs, items

    def test_large_catalog_with_few_patterns_matches_the_reference(self):
        reqs, items = self.few_pattern_catalog()
        proposals = relaxation_proposals(reqs, items)
        assert len(reqs) == 12 and len(proposals) > 1
        assert sum(map(len, (p.survivors for p in proposals))) > 500
        assert proposals == reference_relaxation_proposals(reqs, items)

    @staticmethod
    def many_pattern_catalog():
        """12 requirements over 202 items: a contradictory pair on a0 and ten
        filters that 20 of the 100 attribute values fail, over 200 items of
        random values, so the catalog holds over a hundred violation
        patterns. Two more items meet every filter, one at each end of a0,
        so the pair's members are the only relaxations."""
        rng = random.Random(29)
        names = [f"a{m}" for m in range(11)]
        items = [
            Item(id=f"i{n:03d}", attributes={a: rng.randrange(100) for a in names})
            for n in range(200)
        ]
        items += [
            Item(id=f"end{a0}", attributes={**dict.fromkeys(names, 50), "a0": a0})
            for a0 in (0, 99)
        ]
        reqs = [_req("lo", "a0", "<=", 30), _req("hi", "a0", ">=", 70)]
        reqs += [
            _req(f"f{m}", f"a{m}", *rng.choice([("<=", 79), (">=", 20)])) for m in range(1, 11)
        ]
        return reqs, items

    @staticmethod
    def compress_calls(monkeypatch, reqs, items):
        """``relaxation_proposals(reqs, items)`` and how often it called
        ``constraint.compress``, which picks each proposal's survivors out
        of the catalog."""
        calls = []

        def counting(*args, _original=constraint.compress):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(constraint, "compress", counting)
        proposals = relaxation_proposals(reqs, items)
        monkeypatch.undo()
        return proposals, len(calls)

    def test_work_is_per_distinct_pattern_not_per_item(self, monkeypatch):
        reqs, items = self.few_pattern_catalog()
        proposals, calls = self.compress_calls(monkeypatch, reqs, items)
        assert 0 < calls <= 9 + len(proposals)

    def test_work_is_per_proposal_not_per_pattern(self, monkeypatch):
        reqs, items = self.many_pattern_catalog()
        patterns = {frozenset(r.id for r in reqs if not r.matches(item)) for item in items}
        proposals, calls = self.compress_calls(monkeypatch, reqs, items)
        assert len(patterns) >= 100
        assert [p.removed for p in proposals] == [("hi",), ("lo",)]
        assert proposals == reference_relaxation_proposals(reqs, items)
        assert 0 < calls <= 2 * len(proposals)

    @pytest.mark.parametrize(
        "reqs, items, expected",
        [
            # the search starts from i0, whose violation set {r1, r2} is
            # not minimal: it must put r1 back and emit {r2} alone
            (
                [_req("r1", "a", "<=", 0), _req("r2", "b", "<=", 0)],
                [
                    Item(id="i0", attributes={"a": 1, "b": 1}),
                    Item(id="i1", attributes={"a": 1, "b": 0}),
                    Item(id="i2", attributes={"a": 0, "b": 1}),
                ],
                [(("r1",), ("i1",)), (("r2",), ("i2",))],
            ),
            (
                [_req("r1", "a", "<=", 1), _req("r2", "b", "<=", 1)],
                [
                    Item(id="i1", attributes={"a": 5, "b": 5}),
                    Item(id="i2", attributes={"a": 9, "b": 7}),
                ],
                [(("r1", "r2"), ("i1", "i2"))],
            ),
            (
                [_req("r1", "a", "<=", 1), _req("r2", "b", "<=", 1), _req("r3", "b", ">=", 3)],
                [Item(id="i1", attributes={"a": 5, "b": 0})],
                [(("r1", "r3"), ("i1",))],
            ),
            (
                [_req("r1", "a", "<=", 1), _req("r2", "b", "<=", 1)],
                [
                    Item(id="x", attributes={"a": 0, "b": 5}),
                    Item(id="y", attributes={"a": 5, "b": 0}),
                    Item(id="x", attributes={"a": 0, "b": 5}),
                    Item(id="x", attributes={"a": 5, "b": 5}),
                ],
                [(("r1",), ("y",)), (("r2",), ("x", "x"))],
            ),
            ([], [Item(id="i1", attributes={"a": 5})], []),
        ],
        ids=[
            "superset-first",
            "all-violate-all",
            "one-item",
            "repeated-item-ids",
            "no-requirements",
        ],
    )
    def test_edge_cases_match_the_reference(self, reqs, items, expected):
        proposals = relaxation_proposals(reqs, items)
        assert [(p.removed, p.survivors) for p in proposals] == expected
        assert proposals == reference_relaxation_proposals(reqs, items)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)], ids=["r2-last", "r2-first"])
    def test_missing_attribute_regardless_of_order(self, order):
        items = [
            Item(id="x", attributes={"a": 5, "c": 5}),
            Item(id="y", attributes={"a": 5, "b": 0, "c": 0}),
        ]
        reqs = [
            _req("r0", "a", "<=", 1),
            _req("r1", "c", "<=", 1),
            _req("r2", "b", "<=", 1),
        ]
        with pytest.raises(MissingAttributeError):
            relaxation_proposals([reqs[i] for i in order], items)

    def test_a_column_error_the_item_by_item_check_misses_is_raised(self):
        class FirstEqRaises:
            """An attribute value whose first ``==`` raises; later ones hold."""

            calls = 0

            def __eq__(self, other):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("first comparison")
                return True

        value = FirstEqRaises()
        items = [Item(id="x", attributes={"kind": value, "price": 900})]
        reqs = [_req("r0", "kind", "=", "tent"), _req("r1", "price", "<=", 100)]
        # the column raises, the item-by-item re-check does not: the
        # column's error comes back, never proposals from a partial column
        with pytest.raises(RuntimeError, match="^first comparison$"):
            relaxation_proposals(reqs, items)
        assert value.calls == 2


class TestColumnWork:
    """On a well-formed catalog no requirement is checked pair by pair."""

    @staticmethod
    def catalog_case():
        """200 items of int and half-step attributes; a contradictory pair
        on a0 plus filters, so no item passes and relaxations exist."""
        rng = random.Random(11)
        items = {
            f"i{n:03d}": Item(
                id=f"i{n:03d}",
                attributes={
                    f"a{m}": rng.randrange(100) if m % 2 else rng.randrange(200) / 2
                    for m in range(6)
                },
            )
            for n in range(200)
        }
        requirements = [
            Requirement("lo", "a0", "<=", 30, {"u": 0.4}),
            Requirement("hi", "a0", ">=", 70, {"u": 0.6}),
            *(
                Requirement(f"f{m}", f"a{m}", rng.choice(["<=", ">=", "="]), 50, {"u": 0.5})
                for m in range(1, 6)
            ),
        ]
        return Group("g", ("u",)), requirements, items

    @staticmethod
    def per_pair_calls(monkeypatch, run):
        """Calls of ``Requirement.matches``, ``_attribute_holds`` and
        ``satisfies`` made by *run*, and its result."""
        calls = []
        for owner, name in (
            (core.Requirement, "matches"),
            (core, "_attribute_holds"),
            (core, "satisfies"),
        ):
            original = getattr(owner, name)

            def counting(*args, _original=original):
                calls.append(1)
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)
        result = run()
        monkeypatch.undo()
        return len(calls), result

    def test_well_formed_catalog_makes_no_per_pair_checks(self, monkeypatch):
        group, requirements, items = self.catalog_case()
        catalog = list(items.values())
        calls, (proposals, causal, ranked) = self.per_pair_calls(
            monkeypatch,
            lambda: (
                relaxation_proposals(requirements, catalog),
                [causally_relevant(req, catalog) for req in requirements],
                rank_requirements(group, requirements, items),
            ),
        )
        assert proposals and any(causal) and len(ranked) == len(requirements)
        assert calls == 0

    def test_causal_relevance_compares_up_to_the_first_filtered_item(self, monkeypatch):
        _, requirements, items = self.catalog_case()
        # the items "lo" (a0 <= 30) keeps first, then those it filters out
        catalog = sorted(items.values(), key=lambda item: item.attributes["a0"] > 30)
        cut = next(n for n, item in enumerate(catalog) if item.attributes["a0"] > 30)
        compared = []

        def counting(value, bound, _original=core._OPERATOR_TABLE["<="][0]):
            compared.append(value)
            return _original(value, bound)

        monkeypatch.setitem(core._OPERATOR_TABLE, "<=", (counting, True))
        assert causally_relevant(requirements[0], catalog)
        assert len(compared) == cut + 1

    def test_an_int_subclass_value_is_checked_pair_by_pair(self, monkeypatch):
        group, requirements, items = self.catalog_case()
        catalog = list(items.values())
        catalog[7] = Item(id="odd", attributes={**catalog[7].attributes, "a0": Count(5)})
        calls, _ = self.per_pair_calls(
            monkeypatch, lambda: causally_relevant(requirements[0], catalog)
        )
        assert calls >= len(catalog)
