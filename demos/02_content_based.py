"""Walkthrough: content-based explanations from three evidence sources.

Categories (per-member interest weights), mined opinions (feature
sentiment), and community tags each yield a relevance score; the best
scorer becomes the argument for recommending the item.
"""

from groupexplain import (
    group_tag_preference,
    group_tag_relevance,
    load_builtin,
    opinion_relevance,
    pros_cons,
    rank_categories,
    render_explanation,
    tag_cloud,
)


def main() -> None:
    ds = load_builtin()
    group = ds.groups["g1"]
    item = ds.items["t1"]

    print(f"== Category relevance for {item.id} ==")
    ranked = rank_categories(group, ds.user_category_weights, item)
    for category, relevance in ranked:
        print(f"  {category}: {relevance:.2f}")
    best = ranked[0][0]
    explanation = render_explanation(
        "cb-category", "named", {"item": item.id, "category": best}
    )
    print(f"  -> {explanation.text}")

    print(f"\n== Opinion relevance for {item.id} ==")
    profile = ds.group_sentiments[group.id]
    for feature in sorted(profile):
        print(f"  {feature}: {opinion_relevance(profile, item, feature):.3f}")
    pros, cons = pros_cons(profile, item)
    print(f"  pros: {[f for f, _ in pros]}")
    print(f"  cons: {[f for f, _ in cons]}")

    print("\n== Tag preference vs relevance ==")
    for tag in ds.tags.tags():
        preference = group_tag_preference(ds.matrix, ds.tags, group, tag)
        relevance = group_tag_relevance(ds.matrix, ds.tags, group, tag)
        print(f"  {tag}: preference {preference:.2f}, relevance {relevance:.2f}")

    # the cloud scales tag size by preference; anonymous mode drops the
    # per-member "liked by" annotations
    weights = {
        tag: group_tag_preference(ds.matrix, ds.tags, group, tag)
        for tag in ds.tags.tags()
    }
    cloud = tag_cloud(weights, privacy="anonymous")
    print("\n== Tag cloud series (label, scale) ==")
    for label, scale in cloud.series:
        print(f"  {label}: {scale:.2f}")


if __name__ == "__main__":
    main()
