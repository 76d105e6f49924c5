"""Walkthrough: critiquing-based explanations.

Members criticise attributes over a session ("cheaper", "higher
resolution"); support measures how well a candidate item satisfies
those critiques. Shows per-attribute support, the member-by-attribute
boolean matrix, the generated sentences, and an SVG chart.
"""

from groupexplain import (
    critique_explanation,
    critique_support,
    load_builtin,
    render_svg,
    spider_chart,
    support_matrix,
)


def main() -> None:
    ds = load_builtin()
    item = ds.items["t1"]

    print(f"== Critique support for {item.id} ==")
    attributes = sorted({c.attribute for c in ds.critiques})
    for attribute in attributes:
        support = critique_support(ds.critiques, attribute, item)
        print(f"  {attribute}: {support:.2f}")

    print("\n== Who is satisfied with what? ==")
    matrix = support_matrix(ds.critiques, item)
    header = "        " + "  ".join(f"{c:>17s}" for c in matrix.columns)
    print(header)
    for row in matrix.rows:
        marks = "  ".join(
            f"{'yes' if matrix.cells[(row, col)] else 'no':>17s}"
            for col in matrix.columns
        )
        print(f"  {row:4s}  {marks}")

    print("\n== Generated explanation ==")
    named = critique_explanation(ds.critiques, item)
    print(f"  {named.text}")
    anonymous = critique_explanation(ds.critiques, item, privacy="anonymous")
    print(f"  {anonymous.text}")

    print("\n== Spider chart of similar-group ratings (SVG) ==")
    svg = render_svg(spider_chart(ds.neighbor_group_row("t1"), "t1"))
    print(f"  {len(svg)} bytes, starts with: {svg.splitlines()[0]}")


if __name__ == "__main__":
    main()
