"""Command line interface.

One subcommand per explanation paradigm plus fairness adaptation and
requirement relaxation. Every subcommand reads a dataset (bundled worked
examples by default), computes through the library and emits text, JSON
or SVG. Exit codes: 0 ok, 2 usage, 3 dataset problem, 4 computation
problem.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import cb, cf, constraint, critique, svg
from .core import AggregationStrategy, Group, aggregate, predict_rating
from .dataset import Dataset, builtin_dataset_path, load_dataset
from .errors import (
    DATASET_ERRORS,
    GroupExplainError,
    MissingFeatureError,
    MissingWeightError,
    UnresolvedIdError,
)
from .render import (
    ChartData,
    PRIVACY_ANONYMOUS,
    PRIVACY_NAMED,
    display_round,
    display_trunc,
    fairness_chart,
    fmt_num,
    histogram_chart,
    importance_chart,
    render_explanation,
    spider_chart,
    tag_cloud,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATASET = 3
EXIT_COMPUTE = 4


class _CliUsageError(Exception):
    """Bad flag combination detected after parsing; maps to exit 2."""


@dataclass
class CommandResult:
    lines: list[str]
    payload: dict
    charts: list[ChartData] = field(default_factory=list)


def _r2(value: float) -> float:
    return display_round(value, 2)


def _r4(value: float) -> float:
    return display_round(value, 4)


def _resolve_group(dataset: Dataset, args) -> Group:
    if args.group is not None:
        return dataset.group(args.group)
    if not dataset.groups:
        raise UnresolvedIdError("dataset defines no groups")
    return dataset.groups[sorted(dataset.groups)[0]]


def _need_item(args) -> str:
    if not args.item:
        raise _CliUsageError(f"--item is required for this mode")
    return args.item


def _anonymous_labels(series: Sequence[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
    return tuple((f"member-{i}", v) for i, (_, v) in enumerate(series, start=1))


# ---------------------------------------------------------------- explain-cf


def _cf_aggregation(dataset: Dataset, args, group: Group) -> CommandResult:
    item = _need_item(args)
    dataset.item(item)
    scores = {
        member: predict_rating(dataset.matrix, member, item, args.k)
        for member in group.members
    }
    strategy = AggregationStrategy.parse(args.strategy)
    explanation = cf.aggregation_explanation(
        item, scores, strategy, privacy=args.privacy
    )
    value, contributors = aggregate(scores, strategy)
    payload = {
        "command": "explain-cf",
        "mode": "aggregation",
        "item": item,
        "group": group.id,
        "strategy": strategy.value,
        "privacy": args.privacy,
        "score": _r2(value),
        "explanation": explanation.text,
        "template": explanation.template_id,
    }
    if args.privacy == PRIVACY_NAMED:
        payload["scores"] = {m: _r2(s) for m, s in sorted(scores.items())}
        payload["contributors"] = list(contributors)
        chart_series = tuple((m, scores[m]) for m in sorted(scores))
    else:
        payload["contributor_count"] = len(contributors)
        payload["member_count"] = len(scores)
        chart_series = _anonymous_labels(
            [(m, scores[m]) for m in sorted(scores)]
        )
    chart = ChartData(
        kind="bar", series=chart_series, meta={"value-axis": "score", "max": 5.0}
    )
    lines = [explanation.text]
    if args.privacy == PRIVACY_NAMED:
        lines += [f"{m}: {fmt_num(s)}" for m, s in sorted(scores.items())]
    lines.append(f"group score ({strategy.value}): {fmt_num(value)}")
    return CommandResult(lines=lines, payload=payload, charts=[chart])


def _cf_histogram(dataset: Dataset, args, group: Group) -> CommandResult:
    item = _need_item(args)
    dataset.item(item)
    assignment = cf.NeighborAssignment.from_knn(
        dataset.matrix, group, k=args.k, mode=args.nn_mode
    )
    histogram = cf.nn_rating_histogram(dataset.matrix, assignment, item)
    explanation = render_explanation(
        "collaborative", "cf-nn-histogram", args.privacy, {"item": item}
    )
    counts_line = render_explanation(
        "collaborative",
        "cf-histogram-counts",
        args.privacy,
        {
            "bad": histogram.counts.bad,
            "neutral": histogram.counts.neutral,
            "good": histogram.counts.good,
        },
    )
    payload = {
        "command": "explain-cf",
        "mode": "histogram",
        "item": item,
        "group": group.id,
        "privacy": args.privacy,
        "nn_mode": args.nn_mode,
        "source": histogram.source,
        "histogram": {
            "bad": histogram.counts.bad,
            "neutral": histogram.counts.neutral,
            "good": histogram.counts.good,
        },
        "explanation": explanation.text,
    }
    if args.privacy == PRIVACY_NAMED:
        payload["neighbors"] = list(assignment.effective_users())
    else:
        payload["neighbor_count"] = len(assignment.effective_users())
    return CommandResult(
        lines=[explanation.text, counts_line.text],
        payload=payload,
        charts=[histogram_chart(histogram)],
    )


def _neighbor_group_row(dataset: Dataset, item: str) -> dict[str, float]:
    return {
        gp: ratings[item]
        for gp, ratings in dataset.neighbor_group_ratings.items()
        if item in ratings
    }


def _cf_group_histogram(dataset: Dataset, args, group: Group) -> CommandResult:
    item = _need_item(args)
    dataset.item(item)
    ratings = _neighbor_group_row(dataset, item)
    histogram = cf.group_rating_histogram(ratings, item)
    explanation = render_explanation(
        "collaborative", "cf-group-histogram", args.privacy, {"item": item}
    )
    counts_line = render_explanation(
        "collaborative",
        "cf-histogram-counts",
        args.privacy,
        {
            "bad": histogram.counts.bad,
            "neutral": histogram.counts.neutral,
            "good": histogram.counts.good,
        },
    )
    payload = {
        "command": "explain-cf",
        "mode": "group-histogram",
        "item": item,
        "group": group.id,
        "privacy": args.privacy,
        "source": histogram.source,
        "histogram": {
            "bad": histogram.counts.bad,
            "neutral": histogram.counts.neutral,
            "good": histogram.counts.good,
        },
        "neighbor_groups": sorted(ratings),
        "explanation": explanation.text,
    }
    return CommandResult(
        lines=[explanation.text, counts_line.text],
        payload=payload,
        charts=[histogram_chart(histogram)],
    )


def _cf_spider(dataset: Dataset, args, group: Group) -> CommandResult:
    item = _need_item(args)
    dataset.item(item)
    ratings = _neighbor_group_row(dataset, item)
    chart = spider_chart(ratings, item)
    explanation = render_explanation(
        "collaborative", "cf-group-histogram", args.privacy, {"item": item}
    )
    payload = {
        "command": "explain-cf",
        "mode": "spider",
        "item": item,
        "group": group.id,
        "privacy": args.privacy,
        "ratings": {gp: _r2(r) for gp, r in sorted(ratings.items())},
        "explanation": explanation.text,
    }
    lines = [explanation.text] + [
        f"{gp}: {fmt_num(r)}" for gp, r in sorted(ratings.items())
    ]
    return CommandResult(lines=lines, payload=payload, charts=[chart])


def _cf_influence(dataset: Dataset, args, group: Group) -> CommandResult:
    item = _need_item(args)
    dataset.item(item)
    results = cf.influential_items(dataset.matrix, group, item, k=args.k)
    lines = []
    if results:
        top = results[0]
        explanation = render_explanation(
            "collaborative",
            "cf-influence",
            args.privacy,
            {"influencer": top.item, "item": item, "delta": top.delta},
        )
        lines.append(explanation.text)
    for result in results:
        flag = " (basis-destroying)" if result.basis_destroying else ""
        lines.append(f"{result.item}: {fmt_num(result.delta)}{flag}")
    payload = {
        "command": "explain-cf",
        "mode": "influence",
        "item": item,
        "group": group.id,
        "privacy": args.privacy,
        "ranking": [
            {
                "item": r.item,
                "delta": _r2(r.delta),
                "basis_destroying": r.basis_destroying,
            }
            for r in results
        ],
    }
    chart = ChartData(
        kind="bar",
        series=tuple((r.item, r.delta) for r in results[:10]),
        meta={"value-axis": "delta"},
    )
    return CommandResult(lines=lines, payload=payload, charts=[chart])


def _run_explain_cf(dataset: Dataset, args) -> CommandResult:
    if args.k < 1:
        raise _CliUsageError("--k must be at least 1")
    group = _resolve_group(dataset, args)
    handlers = {
        "aggregation": _cf_aggregation,
        "histogram": _cf_histogram,
        "group-histogram": _cf_group_histogram,
        "spider": _cf_spider,
        "influence": _cf_influence,
    }
    return handlers[args.mode](dataset, args, group)


# ---------------------------------------------------------------- explain-cb


def _cb_category(dataset: Dataset, args, group: Group) -> CommandResult:
    item = dataset.item(_need_item(args))
    ranked = cb.rank_categories(group, dataset.user_category_weights, item)
    if not ranked:
        raise MissingWeightError(f"item {item.id!r} carries no category weights")
    top = ranked[0][0]
    explanation = render_explanation(
        "content-based",
        "cb-category",
        args.privacy,
        {"item": item.id, "category": top},
    )
    payload = {
        "command": "explain-cb",
        "mode": "category",
        "item": item.id,
        "group": group.id,
        "privacy": args.privacy,
        "top": top,
        "ranking": [
            {"category": c, "relevance": _r2(er)} for c, er in ranked
        ],
        "explanation": explanation.text,
    }
    lines = [explanation.text] + [f"{c}: {fmt_num(er)}" for c, er in ranked]
    chart = ChartData(
        kind="bar",
        series=tuple((c, er) for c, er in ranked),
        meta={"value-axis": "relevance"},
    )
    return CommandResult(lines=lines, payload=payload, charts=[chart])


def _cb_opinion(dataset: Dataset, args, group: Group) -> CommandResult:
    item = dataset.item(_need_item(args))
    profile = dataset.group_sentiments.get(group.id)
    if profile is None:
        raise MissingFeatureError(f"group {group.id!r} has no sentiment profile")
    pros, cons = cb.pros_cons(profile, item, threshold=args.threshold)
    explanation = render_explanation(
        "content-based",
        "cb-opinion",
        args.privacy,
        {
            "item": item.id,
            "pros": [f for f, _ in pros],
            "cons": [f for f, _ in cons],
        },
    )
    merged = sorted(pros + cons, key=lambda pair: (-pair[1], pair[0]))
    payload = {
        "command": "explain-cb",
        "mode": "opinion",
        "item": item.id,
        "group": group.id,
        "privacy": args.privacy,
        "threshold": args.threshold,
        "pros": [{"feature": f, "relevance": _r2(er)} for f, er in pros],
        "cons": [{"feature": f, "relevance": _r2(er)} for f, er in cons],
        "explanation": explanation.text,
    }
    lines = [explanation.text] + [f"{f}: {fmt_num(er)}" for f, er in merged]
    chart = ChartData(
        kind="bar",
        series=tuple((f, er) for f, er in merged),
        meta={"value-axis": "relevance"},
    )
    return CommandResult(lines=lines, payload=payload, charts=[chart])


def _cb_tags(dataset: Dataset, args, group: Group) -> CommandResult:
    rows = []
    for tag in dataset.tags.tags():
        preference = cb.group_tag_preference(dataset.matrix, dataset.tags, group, tag)
        relevance = cb.group_tag_relevance(
            dataset.matrix, dataset.tags, group, tag, privacy=args.privacy
        )
        rows.append((tag, preference, relevance))
    rows.sort(key=lambda row: (-row[1], row[0]))
    favored = [tag for tag, pref, _ in rows if pref >= args.threshold]
    if not favored and rows:
        favored = [rows[0][0]]
    explanation = render_explanation(
        "content-based", "cb-tags", args.privacy, {"tags": favored}
    )
    member_likes = None
    if args.privacy == PRIVACY_NAMED:
        member_likes = {}
        for tag, _, _ in rows:
            liking = [
                member
                for member in sorted(group.members)
                if cb.tag_preference(dataset.matrix, dataset.tags, member, tag)
                >= args.threshold
            ]
            if liking:
                member_likes[tag] = liking
    cloud = tag_cloud(
        {tag: pref for tag, pref, _ in rows},
        member_likes,
        privacy=args.privacy,
    )
    payload = {
        "command": "explain-cb",
        "mode": "tags",
        "group": group.id,
        "privacy": args.privacy,
        "threshold": args.threshold,
        "tags": [
            {"tag": tag, "preference": _r2(pref), "relevance": _r2(rel)}
            for tag, pref, rel in rows
        ],
        "explanation": explanation.text,
    }
    if member_likes is not None:
        payload["member_likes"] = member_likes
    lines = [explanation.text] + [
        f"{tag}: preference {fmt_num(pref)}, relevance {fmt_num(rel)}"
        for tag, pref, rel in rows
    ]
    return CommandResult(lines=lines, payload=payload, charts=[cloud])


def _run_explain_cb(dataset: Dataset, args) -> CommandResult:
    group = _resolve_group(dataset, args)
    handlers = {
        "category": _cb_category,
        "opinion": _cb_opinion,
        "tags": _cb_tags,
    }
    return handlers[args.mode](dataset, args, group)


# -------------------------------------------------------- explain-constraint


def _constraint_catalog(dataset: Dataset) -> list:
    """Items that carry every attribute the requirement set talks about."""
    needed = {req.attribute for req in dataset.requirements}
    return [
        item
        for _, item in sorted(dataset.items.items())
        if needed <= set(item.attributes)
    ]


def _constraint_requirements(dataset: Dataset, args, group: Group) -> CommandResult:
    catalog = _constraint_catalog(dataset)
    ranking = [
        (req.id, constraint.requirement_relevance(group, req))
        for req in dataset.requirements
    ]
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    causal = {
        req.id: constraint.causally_relevant(req, catalog)
        for req in dataset.requirements
    }
    lines = []
    payload = {
        "command": "explain-constraint",
        "mode": "requirements",
        "group": group.id,
        "privacy": args.privacy,
        "ranking": [
            {
                "requirement": rid,
                "relevance": _r2(rel),
                "causally_relevant": causal[rid],
            }
            for rid, rel in ranking
        ],
    }
    if ranking:
        top = ranking[0][0]
        explanation = render_explanation(
            "constraint", "constraint-requirement", args.privacy, {"requirement": top}
        )
        payload["top"] = top
        payload["explanation"] = explanation.text
        lines.append(explanation.text)
    for rid, rel in ranking:
        suffix = " (causally relevant)" if causal[rid] else ""
        lines.append(f"{rid}: {fmt_num(rel)}{suffix}")
    chart = ChartData(
        kind="bar",
        series=tuple((rid, rel) for rid, rel in ranking),
        meta={"value-axis": "relevance"},
    )
    return CommandResult(lines=lines, payload=payload, charts=[chart])


def _constraint_maut(dataset: Dataset, args, group: Group) -> CommandResult:
    item = dataset.item(_need_item(args))
    ranking = [
        (dim.id, constraint.maut_relevance(group, dim, item))
        for dim in dataset.dimensions
    ]
    if not ranking:
        raise MissingWeightError("dataset defines no interest dimensions")
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    top = ranking[0][0]
    explanation = render_explanation(
        "constraint",
        "constraint-maut",
        args.privacy,
        {"item": item.id, "dimension": top},
    )
    means = {}
    for dim in dataset.dimensions:
        for member in group.members:
            if member not in dim.importance:
                raise MissingWeightError(
                    f"dimension {dim.id!r} has no importance for {member!r}"
                )
        means[dim.id] = math.fsum(
            dim.importance[m] for m in group.members
        ) / len(group.members)
    payload = {
        "command": "explain-constraint",
        "mode": "maut",
        "item": item.id,
        "group": group.id,
        "privacy": args.privacy,
        "top": top,
        "ranking": [
            {"dimension": d, "relevance": _r2(rel)} for d, rel in ranking
        ],
        "importance_means": {d: _r2(v) for d, v in sorted(means.items())},
        "explanation": explanation.text,
    }
    lines = [explanation.text] + [f"{d}: {fmt_num(rel)}" for d, rel in ranking]
    return CommandResult(
        lines=lines, payload=payload, charts=[importance_chart(means)]
    )


def _run_explain_constraint(dataset: Dataset, args) -> CommandResult:
    group = _resolve_group(dataset, args)
    handlers = {
        "requirements": _constraint_requirements,
        "maut": _constraint_maut,
    }
    return handlers[args.mode](dataset, args, group)


# ------------------------------------------------------------ fairness-adapt


def _run_fairness_adapt(dataset: Dataset, args) -> CommandResult:
    group = _resolve_group(dataset, args)
    history = dataset.decision_history
    if history is None:
        raise UnresolvedIdError("dataset has no decision_history section")
    fairness = {
        member: constraint.fairness_degree(history, member)
        for member in group.members
    }
    values = list(fairness.values())
    mean = values[0] if max(values) == min(values) else math.fsum(values) / len(values)
    adapted = constraint.adapt_weights(group, dataset.fairness_weights, history)
    upgraded = sorted(m for m, f in fairness.items() if f < mean)
    if upgraded:
        slots = (
            {"users": upgraded}
            if args.privacy == PRIVACY_NAMED
            else {"count": len(upgraded), "total": len(group.members)}
        )
        explanation = render_explanation(
            "constraint", "constraint-fairness", args.privacy, slots
        )
    else:
        explanation = render_explanation(
            "constraint", "constraint-fairness-balanced", args.privacy, {}
        )
    payload = {
        "command": "fairness-adapt",
        "group": group.id,
        "privacy": args.privacy,
        "mean_fairness": _r2(mean),
        "explanation": explanation.text,
    }
    lines = [explanation.text, f"mean fairness: {fmt_num(mean)}"]
    if args.privacy == PRIVACY_NAMED:
        payload["fairness"] = {m: _r2(f) for m, f in sorted(fairness.items())}
        payload["adapted_weights"] = {
            m: {d: _r4(w) for d, w in sorted(weights.items())}
            for m, weights in sorted(adapted.items())
        }
        payload["upgraded"] = upgraded
        for member in sorted(fairness):
            lines.append(f"{member}: fairness {fmt_num(fairness[member])}")
        chart = fairness_chart(history)
    else:
        payload["upgraded_count"] = len(upgraded)
        payload["member_count"] = len(group.members)
        chart = ChartData(
            kind="bar",
            series=_anonymous_labels(
                [(m, fairness[m]) for m in sorted(fairness)]
            ),
            meta={"value-axis": "fairness", "max": 1.0},
        )
    return CommandResult(lines=lines, payload=payload, charts=[chart])


# ----------------------------------------------------------------------relax


def _run_relax(dataset: Dataset, args) -> CommandResult:
    catalog = _constraint_catalog(dataset)
    proposals = constraint.relaxation_proposals(dataset.requirements, catalog)
    lines = []
    if not proposals:
        explanation = render_explanation("constraint", "relax-none", args.privacy, {})
        lines.append(explanation.text)
    else:
        for proposal in proposals:
            explanation = render_explanation(
                "constraint",
                "relax-proposal",
                args.privacy,
                {
                    "requirements": list(proposal.removed),
                    "items": list(proposal.survivors),
                },
            )
            lines.append(explanation.text)
    payload = {
        "command": "relax",
        "privacy": args.privacy,
        "proposals": [
            {"remove": list(p.removed), "survivors": list(p.survivors)}
            for p in proposals
        ],
    }
    return CommandResult(lines=lines, payload=payload, charts=[])


# ------------------------------------------------------------ explain-critique


def _run_explain_critique(dataset: Dataset, args) -> CommandResult:
    group = _resolve_group(dataset, args)
    item = dataset.item(_need_item(args))
    critiques = [c for c in dataset.critiques if c.author in group.members]
    explanation = critique.critique_explanation(
        critiques, item, privacy=args.privacy
    )
    supports = [
        (attribute, critique.critique_support(critiques, attribute, item))
        for attribute in critique.attribute_order(critiques)
    ]
    payload = {
        "command": "explain-critique",
        "item": item.id,
        "group": group.id,
        "privacy": args.privacy,
        "supports": [
            {"attribute": a, "support": display_trunc(s)} for a, s in supports
        ],
        "explanation": explanation.text,
    }
    if args.privacy == PRIVACY_NAMED:
        matrix = critique.support_matrix(critiques, item)
        payload["matrix"] = {
            author: {
                attribute: matrix.cells[(author, attribute)]
                for attribute in matrix.columns
                if (author, attribute) in matrix.cells
            }
            for author in matrix.rows
        }
    lines = [explanation.text] + [
        f"{a}: {fmt_num(display_trunc(s))}" for a, s in supports
    ]
    chart = ChartData(
        kind="bar",
        series=tuple((a, s) for a, s in supports),
        meta={"value-axis": "support", "max": 1.0},
    )
    return CommandResult(lines=lines, payload=payload, charts=[chart])


# ---------------------------------------------------------------------- glue


def _add_common(parser: argparse.ArgumentParser, with_item: bool):
    parser.add_argument("--data", default=None, help="dataset file (JSON)")
    parser.add_argument("--group", default=None, help="group id (default: first)")
    if with_item:
        parser.add_argument("--item", default=None, help="target item id")
    parser.add_argument(
        "--privacy",
        choices=[PRIVACY_NAMED, PRIVACY_ANONYMOUS],
        default=PRIVACY_NAMED,
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "json", "svg"],
        default="text",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupexplain",
        description="Explain group recommendations across four paradigms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("explain-cf", help="collaborative filtering explanations")
    _add_common(p_cf, with_item=True)
    p_cf.add_argument(
        "--mode",
        choices=["aggregation", "histogram", "group-histogram", "spider", "influence"],
        default="aggregation",
    )
    p_cf.add_argument("--strategy", choices=["avg", "lms", "mpl"], default="avg")
    p_cf.add_argument("--k", type=int, default=2)
    p_cf.add_argument(
        "--nn-mode", dest="nn_mode", choices=["union", "intersection"], default="union"
    )

    p_cb = sub.add_parser("explain-cb", help="content-based explanations")
    _add_common(p_cb, with_item=True)
    p_cb.add_argument(
        "--mode", choices=["category", "opinion", "tags"], default="category"
    )
    p_cb.add_argument("--threshold", type=float, default=0.4)

    p_con = sub.add_parser(
        "explain-constraint", help="constraint-based explanations"
    )
    _add_common(p_con, with_item=True)
    p_con.add_argument(
        "--mode", choices=["requirements", "maut"], default="requirements"
    )

    p_crit = sub.add_parser("explain-critique", help="critiquing-based explanations")
    _add_common(p_crit, with_item=True)

    p_fair = sub.add_parser("fairness-adapt", help="fairness-aware weight adaptation")
    _add_common(p_fair, with_item=False)

    p_relax = sub.add_parser("relax", help="minimal requirement relaxations")
    _add_common(p_relax, with_item=False)

    return parser


_HANDLERS: dict[str, Callable[[Dataset, argparse.Namespace], CommandResult]] = {
    "explain-cf": _run_explain_cf,
    "explain-cb": _run_explain_cb,
    "explain-constraint": _run_explain_constraint,
    "explain-critique": _run_explain_critique,
    "fairness-adapt": _run_fairness_adapt,
    "relax": _run_relax,
}


def _emit(result: CommandResult, args) -> str:
    if args.fmt == "text":
        return "\n".join(result.lines) + "\n"
    if args.fmt == "json":
        return json.dumps(result.payload, indent=2, sort_keys=True) + "\n"
    if not result.charts:
        raise _CliUsageError(f"{args.command} has no chart; --format svg unsupported")
    return "".join(svg.render_svg(chart) for chart in result.charts)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        dataset = load_dataset(args.data if args.data else builtin_dataset_path())
        result = _HANDLERS[args.command](dataset, args)
        output = _emit(result, args)
    except _CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATASET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except GroupExplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    sys.stdout.write(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
