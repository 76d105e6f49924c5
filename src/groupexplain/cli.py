"""Command line interface.

One subcommand per explanation paradigm plus fairness adaptation and
requirement relaxation. Every subcommand reads a dataset (bundled worked
examples by default), computes through the library and emits text, JSON
or SVG. Exit codes: 0 ok, 2 usage, 3 dataset problem, 4 computation
problem. Each (subcommand, mode) pair is one row of ``_TABLE``, which
also gives the parser its ``--mode`` choices. A row returns one record of
raw values, and ``_emit`` derives the requested view. Each row imports its
paradigm module (``cb``, ``cf``, ``constraint`` or ``critique``) and
``_emit`` imports ``svg`` when they run, so a process loads only the
modules its request uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

from .core import NN_MODE_INTERSECTION, NN_MODE_UNION, AggregationStrategy, Group, Item
from .dataset import Dataset, builtin_dataset_path, load_dataset
from .errors import (
    DATASET_ERRORS,
    GroupExplainError,
    MissingFeatureError,
    UnresolvedIdError,
)
from .render import (
    ChartData,
    PRIVACIES,
    PRIVACY_NAMED,
    display_round,
    display_trunc,
    fmt_num,
    histogram_chart,
    render_explanation,
    spider_chart,
    tag_cloud,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATASET = 3
EXIT_COMPUTE = 4


class _CliUsageError(Exception):
    """A command line that does not parse or does not fit the mode; exit 2."""


class _OutputFailed(Exception):
    """A write to stdout failed; exit 4."""


def _write(stream, text: str) -> None:
    """Write *text* to *stream*, stdout or stderr, and flush it.

    Every byte ``main`` writes goes through here. A failed write (a full
    disk, a closed pipe) points the stream's descriptor at ``os.devnull``,
    so the flush at shutdown stays silent. A failed stdout write then
    raises ``_OutputFailed``; a failed stderr write is dropped, so the
    request keeps the exit code of the failure it was reporting.
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if stream is sys.stdout:
            raise _OutputFailed(exc) from None


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing a usage block and exiting,
    and writes its help through ``_write``.

    ``add_subparsers`` makes its subparsers of the same class.
    """

    def error(self, message: str):
        raise _CliUsageError(message)

    def _print_message(self, message: str, file=None) -> None:
        if message:
            _write(file or sys.stderr, message)


class CommandResult(NamedTuple):
    """What one row found, in raw values; ``_emit`` derives each view.

    ``lines`` is the text: sentences, and ``(pattern, *values)`` lines of
    ids and numbers (``_text``). ``payload`` is the JSON body (``_json``).
    ``chart`` draws a series of the same values.
    """

    lines: list
    payload: dict
    chart: ChartData | None = None


def _text(line) -> str:
    """A text line, each number shown by ``fmt_num``."""
    if isinstance(line, str):
        return line
    pattern, *values = line
    return pattern.format(*(v if isinstance(v, str) else fmt_num(v) for v in values))


# The JSON shows a number rounded to two places, halves away from zero,
# at any depth, but under these top-level keys.
_JSON_SHOWN = {
    "supports": display_trunc,  # a critique support: 2/3 shows 0.66, in the text too
    "adapted_weights": lambda weight: display_round(weight, 4),
    "threshold": float,  # the --threshold given, as given
}


def _json(value, show: Callable[[float], float]):
    """*value* as the JSON shows it, each float through *show*."""
    if type(value) is float:
        return show(value)
    if isinstance(value, dict):
        return {key: _json(inner, show) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(inner, show) for inner in value]
    return value


def _sentence(args, template_id: str, **slots) -> str:
    return render_explanation(template_id, args.privacy, slots).text


def _listing(first: str, pairs) -> list:
    return [first, *(("{}: {}", label, value) for label, value in pairs)]


def _bar(series, **meta) -> ChartData:
    return ChartData(kind="bar", series=tuple(series), meta=meta)


def _anonymous_labels(series: Sequence[tuple[str, float]]) -> tuple:
    return tuple((f"member-{i}", v) for i, (_, v) in enumerate(series, start=1))


def _resolve_group(dataset: Dataset, args) -> Group:
    if args.group is not None:
        return dataset.group(args.group)
    if not dataset.groups:
        raise UnresolvedIdError("dataset defines no groups")
    return dataset.groups[sorted(dataset.groups)[0]]


# ---------------------------------------------------------------- explain-cf


def _cf_aggregation(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import cf

    taking_part = cf.member_predictions(dataset.matrix, group, item.id, args.k)
    scores = {member: p.prediction for member, p in taking_part.items()}
    strategy = AggregationStrategy.parse(args.strategy)
    explanation = cf.aggregation_explanation(item.id, scores, strategy, args.privacy)
    slots = explanation.slots
    ordered = sorted(scores.items())
    payload = dict(
        strategy=strategy.value,
        score=slots["score"],
        explanation=explanation.text,
        template=explanation.template_id,
    )
    if args.privacy == PRIVACY_NAMED:
        payload.update(scores=scores, contributors=slots["users"])
        lines, series = _listing(explanation.text, ordered), ordered
    else:
        payload.update(contributor_count=slots["count"], member_count=slots["total"])
        lines, series = [explanation.text], _anonymous_labels(ordered)
    lines.append(("group score ({}): {}", strategy.value, slots["score"]))
    return CommandResult(lines, payload, _bar(series, max=5.0))


def _histogram_result(args, histogram, template_id: str, **body) -> CommandResult:
    counts = histogram.counts._asdict()
    lines = [
        _sentence(args, template_id, item=histogram.item),
        _sentence(args, "cf-histogram-counts", **counts),
    ]
    payload = dict(source=histogram.source, histogram=counts, explanation=lines[0], **body)
    return CommandResult(lines, payload, histogram_chart(histogram))


def _cf_histogram(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import cf

    assignment = cf.NeighborAssignment.from_knn(
        dataset.matrix, group, k=args.k, mode=args.nn_mode
    )
    histogram = cf.nn_rating_histogram(dataset.matrix, assignment, item.id)
    neighbors = list(assignment.effective_users())
    if args.privacy == PRIVACY_NAMED:
        body = dict(neighbors=neighbors)
    else:
        body = dict(neighbor_count=len(neighbors))
    return _histogram_result(
        args, histogram, "cf-nn-histogram", nn_mode=args.nn_mode, **body
    )


def _cf_group_histogram(
    dataset: Dataset, args, group: Group, item: Item
) -> CommandResult:
    from . import cf

    ratings = dataset.neighbor_group_row(item.id)
    histogram = cf.group_rating_histogram(ratings, item.id)
    return _histogram_result(
        args, histogram, "cf-group-histogram", neighbor_groups=sorted(ratings)
    )


def _cf_spider(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    ratings = dataset.neighbor_group_row(item.id)
    chart = spider_chart(ratings, item.id)
    explanation = _sentence(args, "cf-group-histogram", item=item.id)
    lines = _listing(explanation, sorted(ratings.items()))
    return CommandResult(lines, dict(ratings=ratings, explanation=explanation), chart)


def _cf_influence(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import cf

    results = cf.influential_items(dataset.matrix, group, item.id, k=args.k)
    top = results[0]
    lines = [_sentence(args, "cf-influence", influencer=top.item, item=item.id, delta=top.delta)]
    lines += [
        ("{}: {} (basis-destroying)" if r.basis_destroying else "{}: {}", r.item, r.delta)
        for r in results
    ]
    ranking = [r._asdict() for r in results]
    chart = _bar((r.item, r.delta) for r in results[:10])
    return CommandResult(lines, dict(ranking=ranking), chart)


# ---------------------------------------------------------------- explain-cb


def _cb_category(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import cb

    ranked = cb.rank_categories(group, dataset.user_category_weights, item)
    top = ranked[0][0]
    explanation = _sentence(args, "cb-category", item=item.id, category=top)
    payload = dict(
        top=top,
        ranking=[dict(category=c, relevance=er) for c, er in ranked],
        explanation=explanation,
    )
    return CommandResult(_listing(explanation, ranked), payload, _bar(ranked))


def _cb_opinion(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import cb

    profile = dataset.group_sentiments.get(group.id)
    if profile is None:
        raise MissingFeatureError(f"group {group.id!r} has no sentiment profile")
    pros, cons = cb.pros_cons(profile, item, threshold=args.threshold)
    explanation = _sentence(
        args, "cb-opinion", item=item.id, pros=[f for f, _ in pros], cons=[f for f, _ in cons]
    )
    merged = pros + cons
    payload = dict(
        threshold=args.threshold,
        pros=[dict(feature=f, relevance=er) for f, er in pros],
        cons=[dict(feature=f, relevance=er) for f, er in cons],
        explanation=explanation,
    )
    return CommandResult(_listing(explanation, merged), payload, _bar(merged))


def _cb_tags(dataset: Dataset, args, group: Group, item: None) -> CommandResult:
    from . import cb

    rows, favored = cb.tag_summary(
        dataset.matrix, dataset.tags, group, args.threshold, args.privacy
    )
    explanation = _sentence(args, "cb-tags", tags=favored)
    member_likes = {tag: likers for tag, _, _, likers in rows if likers}
    cloud = tag_cloud(
        {tag: pref for tag, pref, _, _ in rows}, member_likes, privacy=args.privacy
    )
    payload = dict(
        threshold=args.threshold,
        tags=[dict(tag=tag, preference=pref, relevance=rel) for tag, pref, rel, _ in rows],
        explanation=explanation,
    )
    if args.privacy == PRIVACY_NAMED:
        payload.update(member_likes=member_likes)
    lines = [explanation] + [
        ("{}: preference {}, relevance {}", tag, pref, rel) for tag, pref, rel, _ in rows
    ]
    return CommandResult(lines, payload, cloud)


# -------------------------------------------------------- explain-constraint


def _constraint_requirements(
    dataset: Dataset, args, group: Group, item: None
) -> CommandResult:
    from . import constraint

    ranking = constraint.rank_requirements(group, dataset.requirements, dataset.items)
    top = ranking[0][0]
    explanation = _sentence(args, "constraint-requirement", requirement=top)
    payload = dict(
        top=top,
        ranking=[
            dict(requirement=rid, relevance=rel, causally_relevant=causal)
            for rid, rel, causal in ranking
        ],
        explanation=explanation,
    )
    lines = [explanation] + [
        ("{}: {} (causally relevant)" if causal else "{}: {}", rid, rel)
        for rid, rel, causal in ranking
    ]
    chart = _bar((rid, rel) for rid, rel, _ in ranking)
    return CommandResult(lines, payload, chart)


def _constraint_maut(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import constraint

    ranking = constraint.rank_dimensions(group, dataset.dimensions, item)
    top = ranking[0][0]
    explanation = _sentence(args, "constraint-maut", item=item.id, dimension=top)
    means = sorted((d, mean) for d, _, mean in ranking)
    payload = dict(
        top=top,
        ranking=[dict(dimension=d, relevance=rel) for d, rel, _ in ranking],
        importance_means=dict(means),
        explanation=explanation,
    )
    lines = _listing(explanation, ((d, rel) for d, rel, _ in ranking))
    return CommandResult(lines, payload, _bar(means))


def _critique(dataset: Dataset, args, group: Group, item: Item) -> CommandResult:
    from . import critique

    critiques = critique.group_critiques(dataset.critiques, group)
    result = critique.support_matrix(critiques, item)
    explanation = critique.summary_explanation(result, item, args.privacy).text
    supports = result.supports.items()
    payload = dict(
        supports=[dict(attribute=a, support=s) for a, s in supports],
        explanation=explanation,
    )
    if args.privacy == PRIVACY_NAMED:
        matrix: dict[str, dict[str, bool]] = {}
        for (author, attribute), satisfied in result.cells.items():
            matrix.setdefault(author, {})[attribute] = satisfied
        payload.update(matrix=matrix)
    shown = _JSON_SHOWN["supports"]
    lines = _listing(explanation, ((a, shown(s)) for a, s in supports))
    return CommandResult(lines, payload, _bar(supports, max=1.0))


def _fairness_adapt(dataset: Dataset, args, group: Group, item: None) -> CommandResult:
    from . import constraint

    history = dataset.decision_history
    if history is None:
        raise UnresolvedIdError("dataset has no decision_history section")
    fairness, mean, upgraded = constraint.group_fairness(group, history)
    adapted = constraint.adapt_weights(group, dataset.fairness_weights, history)
    slots = dict(count=len(upgraded), total=len(group.members))
    if args.privacy == PRIVACY_NAMED:
        slots.update(users=upgraded)
    template = "constraint-fairness" if upgraded else "constraint-fairness-balanced"
    explanation = _sentence(args, template, **slots)
    payload = dict(mean_fairness=mean, explanation=explanation)
    lines = [explanation, ("mean fairness: {}", mean)]
    ordered = sorted(fairness.items())
    if args.privacy == PRIVACY_NAMED:
        payload.update(fairness=fairness, adapted_weights=adapted, upgraded=upgraded)
        lines += [("{}: fairness {}", m, f) for m, f in ordered]
        series = ordered
    else:
        payload.update(upgraded_count=len(upgraded), member_count=len(group.members))
        series = _anonymous_labels(ordered)
    return CommandResult(lines, payload, _bar(series, max=1.0))


def _relax(dataset: Dataset, args, group: None, item: None) -> CommandResult:
    from . import constraint

    catalog = constraint.constrained_items(dataset.requirements, dataset.items)
    proposals = constraint.relaxation_proposals(dataset.requirements, catalog)
    lines = [
        _sentence(args, "relax-proposal", requirements=p.removed, items=p.survivors)
        for p in proposals
    ] or [_sentence(args, "relax-none")]
    payload = dict(
        proposals=[dict(remove=p.removed, survivors=p.survivors) for p in proposals]
    )
    return CommandResult(lines, payload)


# ---------------------------------------------------------------------- glue


class _Mode(NamedTuple):
    """One (subcommand, mode) row.

    ``_run`` resolves the group and the item when the row asks for them and
    calls ``run(dataset, args, group, item)``, with None for the others.
    ``flags`` names the mode flags (keys of ``_FLAGS``) the row reads.
    """

    run: Callable[..., CommandResult]
    group: bool = True
    item: bool = True
    flags: tuple[str, ...] = ()


# Subcommands without a --mode flag have the mode None.
_TABLE: dict[tuple[str, str | None], _Mode] = {
    ("explain-cf", "aggregation"): _Mode(_cf_aggregation, flags=("--strategy", "--k")),
    ("explain-cf", "histogram"): _Mode(_cf_histogram, flags=("--k", "--nn-mode")),
    ("explain-cf", "group-histogram"): _Mode(_cf_group_histogram),
    ("explain-cf", "spider"): _Mode(_cf_spider),
    ("explain-cf", "influence"): _Mode(_cf_influence, flags=("--k",)),
    ("explain-cb", "category"): _Mode(_cb_category),
    ("explain-cb", "opinion"): _Mode(_cb_opinion, flags=("--threshold",)),
    ("explain-cb", "tags"): _Mode(_cb_tags, item=False, flags=("--threshold",)),
    ("explain-constraint", "requirements"): _Mode(_constraint_requirements, item=False),
    ("explain-constraint", "maut"): _Mode(_constraint_maut),
    ("explain-critique", None): _Mode(_critique),
    ("fairness-adapt", None): _Mode(_fairness_adapt, item=False),
    ("relax", None): _Mode(_relax, group=False, item=False),
}

_HELP = {
    "explain-cf": "collaborative filtering explanations",
    "explain-cb": "content-based explanations",
    "explain-constraint": "constraint-based explanations",
    "explain-critique": "critiquing-based explanations",
    "fairness-adapt": "fairness-aware weight adaptation",
    "relax": "minimal requirement relaxations",
}


def _neighbor_count(text: str) -> int:
    try:
        k = int(text)
        if k >= 1:
            return k
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _finite_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# Mode flags: argparse settings and the value a row that reads the flag
# gets when it is not given. A subcommand has the flags its rows read.
_FLAGS = {
    "--strategy": (
        dict(choices=[s.value for s in AggregationStrategy]),
        AggregationStrategy.AVG.value,
    ),
    "--k": (dict(type=_neighbor_count), 2),
    "--nn-mode": (
        dict(choices=[NN_MODE_UNION, NN_MODE_INTERSECTION]),
        NN_MODE_UNION,
    ),
    "--threshold": (dict(type=_finite_number), 0.4),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupexplain",
        description="Explain group recommendations across four paradigms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _HELP.items():
        rows = {mode: row for (cmd, mode), row in _TABLE.items() if cmd == command}
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--data", default=None, help="dataset file (JSON)")
        if any(row.group for row in rows.values()):
            p.add_argument("--group", default=None, help="group id (default: first)")
        if any(row.item for row in rows.values()):
            p.add_argument("--item", default=None, help="target item id")
        p.add_argument("--privacy", choices=PRIVACIES, default=PRIVACY_NAMED)
        p.add_argument(
            "--format", dest="fmt", choices=["text", "json", "svg"], default="text"
        )
        modes = [mode for mode in rows if mode is not None]
        if modes:
            p.add_argument("--mode", choices=modes, default=modes[0])
        read = {flag for row in rows.values() for flag in row.flags}
        for flag, (settings, _) in _FLAGS.items():
            if flag in read:  # None tells _run the flag was not given
                p.add_argument(flag, default=None, **settings)
    return parser


def _apply_flags(row: _Mode, args) -> None:
    """Reject mode flags the row does not read; default the ones it does."""
    for flag, (_, default) in _FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if flag in row.flags:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest, None) is not None:
            raise _CliUsageError(f"{flag} is not used by this mode")


def _run(dataset: Dataset, args) -> CommandResult:
    """Resolve what the row asks for, run it and head its payload."""
    mode = getattr(args, "mode", None)
    row = _TABLE[(args.command, mode)]
    _apply_flags(row, args)
    header = dict(command=args.command, privacy=args.privacy)
    if mode is not None:
        header.update(mode=mode)
    group = item = None
    if row.group:
        group = _resolve_group(dataset, args)
        header.update(group=group.id)
    if row.item:
        if not args.item:
            raise _CliUsageError("--item is required for this mode")
        item = dataset.item(args.item)
        header.update(item=item.id)
    elif getattr(args, "item", None) is not None:
        raise _CliUsageError("--item is not used by this mode")
    result = row.run(dataset, args, group, item)
    result.payload.update(header)
    return result


def _emit(result: CommandResult, args) -> str:
    if args.fmt == "text":
        return "".join(_text(line) + "\n" for line in result.lines)
    if args.fmt == "json":
        payload = {
            key: _json(value, _JSON_SHOWN.get(key, display_round))
            for key, value in result.payload.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if result.chart is None:
        raise _CliUsageError(f"{args.command} has no chart; --format svg unsupported")
    from . import svg

    return svg.render_svg(result.chart)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        dataset = load_dataset(args.data if args.data else builtin_dataset_path())
        _write(sys.stdout, _emit(_run(dataset, args), args))
        return EXIT_OK
    except SystemExit as exc:  # only --help exits: it has printed the help
        return int(exc.code or 0)
    except _CliUsageError as exc:
        code, line = EXIT_USAGE, f"usage error: {exc}"
    except DATASET_ERRORS as exc:
        code, line = EXIT_DATASET, f"error: {exc}"
    except GroupExplainError as exc:
        code, line = EXIT_COMPUTE, f"error: {exc}"
    except _OutputFailed as exc:  # a full disk or a closed pipe
        code, line = EXIT_COMPUTE, f"error: output-failed: {exc}"
    _write(sys.stderr, line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
