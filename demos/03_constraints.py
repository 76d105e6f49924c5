"""Walkthrough: constraint-based explanations.

Covers requirement relevance (which hard constraint mattered most),
interest-dimension relevance under a MAUT utility model, minimal
relaxations when nothing satisfies every requirement, and rebalancing
dimension weights from the group's decision history.
"""

from groupexplain import (
    Item,
    Requirement,
    adapt_weights,
    causally_relevant,
    constrained_items,
    fairness_degree,
    load_builtin,
    rank_dimensions,
    relaxation_proposals,
    requirement_relevance,
)


def main() -> None:
    ds = load_builtin()
    group = ds.groups["g1"]

    print("== Which requirement argues for the recommendation? ==")
    # causal relevance only makes sense on items carrying the attributes
    catalog = constrained_items(ds.requirements, ds.items)
    for req in ds.requirements:
        relevance = requirement_relevance(group, req)
        causal = causally_relevant(req, catalog)
        note = "" if causal else "  (filters nothing here)"
        print(f"  {req.id} ({req.attribute} {req.operator} {req.bound}): {relevance:.2f}{note}")

    print("\n== Which interest dimension argues for each item? ==")
    for item_id in ("t1", "t2", "t3"):
        # ranked by relevance, ties by id; the cells keep the dataset order
        ranking = rank_dimensions(group, ds.dimensions, ds.items[item_id])
        scored = {d: relevance for d, relevance, _ in ranking}
        cells = ", ".join(f"{d.id}={scored[d.id]:.2f}" for d in ds.dimensions)
        print(f"  {item_id}: {cells}  -> {ranking[0][0]}")

    print("\n== Minimal relaxations for an over-constrained query ==")
    # deliberately contradictory: no catalog item is both cheap and premium
    requirements = [
        Requirement(id="cheap", attribute="price", operator="<=", bound=200, importance={}),
        Requirement(id="premium", attribute="price", operator=">=", bound=900, importance={}),
        Requirement(id="light", attribute="weight", operator="<=", bound=500, importance={}),
    ]
    items = [
        Item(id="basic", attributes={"price": 150, "weight": 800}),
        Item(id="pro", attributes={"price": 950, "weight": 450}),
    ]
    for proposal in relaxation_proposals(requirements, items):
        print(f"  drop {list(proposal.removed)} -> keeps {list(proposal.survivors)}")

    print("\n== Fairness-driven weight adaptation ==")
    history = ds.decision_history
    for member in group.members:
        print(f"  {member}: fairness degree {fairness_degree(history, member):.2f}")
    adapted = adapt_weights(group, ds.fairness_weights, history)
    for member in group.members:
        row = ", ".join(f"{d}={w:.4g}" for d, w in adapted[member].items())
        print(f"  {member}: {row}")


if __name__ == "__main__":
    main()
