"""Walkthrough: explaining a collaborative-filtering group recommendation.

Predicts each member's rating for a candidate item, aggregates the
predictions under the three strategies, and shows the artifacts a user
would actually see: the explanation sentence, the neighbor-rating
histogram, and the most influential rated items.
"""

from groupexplain import (
    AggregationStrategy,
    NeighborAssignment,
    aggregation_explanation,
    group_rating_histogram,
    influential_items,
    load_builtin,
    member_predictions,
    nn_rating_histogram,
)


def main() -> None:
    ds = load_builtin()
    group = ds.groups["g1"]
    item = "t1"

    print(f"== Predicted ratings for {item} ==")
    taking_part = member_predictions(ds.matrix, group, item)
    scores = {m: p.prediction for m, p in taking_part.items()}
    for member, score in scores.items():
        print(f"  {member}: {score:.3f}")

    print("\n== One sentence per aggregation strategy ==")
    for strategy in AggregationStrategy:
        explanation = aggregation_explanation(item, scores, strategy)
        print(f"  [{strategy.value}] {explanation.text}")

    # same sentence, but without naming anyone
    anonymous = aggregation_explanation(
        item, scores, AggregationStrategy.LMS, privacy="anonymous"
    )
    print(f"  [anonymous] {anonymous.text}")

    print("\n== How did the neighbors rate it? ==")
    assignment = NeighborAssignment.from_knn(ds.matrix, group, k=2)
    histogram = nn_rating_histogram(ds.matrix, assignment, item)
    for bucket, count in zip(("bad", "neutral", "good"), histogram.counts):
        print(f"  {bucket:8s} {'#' * count} ({count})")

    print("\n== How did similar groups rate it? ==")
    histogram = group_rating_histogram(ds.neighbor_group_row(item), item)
    for bucket, count in zip(("bad", "neutral", "good"), histogram.counts):
        print(f"  {bucket:8s} {'#' * count} ({count})")

    print("\n== Which existing ratings drive the prediction? ==")
    for influence in influential_items(ds.matrix, group, item)[:5]:
        flag = "  (removing it breaks a member's prediction)" if influence.basis_destroying else ""
        print(f"  {influence.item}: mean shift {influence.delta:.4f}{flag}")


if __name__ == "__main__":
    main()
