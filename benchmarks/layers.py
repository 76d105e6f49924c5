"""Per-layer tracing from outside the package.

:func:`instrument` wraps the public functions of each package module;
``Tracer.enable`` puts the wrappers in place of every module attribute
that refers to an original (so calls made through ``from .core import
knn_neighbors`` are seen too) and ``Tracer.disable`` puts the originals
back, which lets one loop alternate traced and untraced requests. A
wrapped call is a span: it runs under its caller's span, and its self time
is its duration minus the time its wrapped callees took. Spans are
aggregated as they close, per bucket, instead of being stored.

A few functions are too hot and too small to time without distorting what
they are called from; they are only counted (``COUNTED``) or left alone
(``INLINE``), so their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("dataset", "core", "cf", "cb", "constraint", "critique", "render", "svg", "cli")

# Public functions whose self time has a bucket of its own; every other
# public function of module m lands in "m.other".
BUCKETS = {
    "dataset.load_dataset": "dataset.load",
    "core.knn_neighbors": "core.knn",
    "core.pearson": "core.pearson",
    "core.predict_rating": "core.predict",
    "cf.influential_items": "cf.influence",
    "constraint.relaxation_proposals": "constraint.relax",
    "constraint.requirement_relevance": "constraint.relevance",
    "constraint.causally_relevant": "constraint.relevance",
    "cb.tag_preference": "cb.tags",
    "cb.tag_relevance": "cb.tags",
    "cb.group_tag_preference": "cb.tags",
    "cb.group_tag_relevance": "cb.tags",
    "critique.critique_explanation": "critique.explain",
    "render.render_explanation": "render.explain",
    "svg.render_svg": "svg.render",
    "cli.main": "cli.main",
    "cli.build_parser": "cli.parse",
}
COUNTED = {
    "render.display_round": "render.display_round_calls",
}
INLINE = {
    "core.satisfies", "core.categorize_rating", "core.aggregate",
    "render.display_trunc", "render.fmt_num", "render.join_names", "render.format_slot",
}
# Methods wrapped on their class: (module, class, method) -> bucket or counter.
METHOD_SPANS = {
    ("core", "RatingsMatrix", "__init__"): "core.matrix_build",
    ("cf", "NeighborAssignment", "from_knn"): "cf.other",
}
METHOD_COUNTS = {
    ("constraint", "Requirement", "matches"): "constraint.match_calls",
    ("critique", "Critique", "satisfied_by"): "critique.satisfied_by_calls",
}


class Tracer:
    """Self time per bucket in nanoseconds, call counts and work counters."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_ns = 0  # time covered by outermost spans
        self._children: list[int] = []  # child time of each open span
        self.patches: list[tuple[object, str, object, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self.patches.append((owner, name, inspect.getattr_static(owner, name), replacement))

    def enable(self) -> None:
        for owner, name, _, replacement in self.patches:
            setattr(owner, name, replacement)

    def disable(self) -> None:
        for owner, name, original, _ in self.patches:
            setattr(owner, name, original)

    def span(self, bucket: str, fn, after=None):
        children = self._children
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_ns[bucket] += elapsed - children.pop()
                self.total_ns[bucket] += elapsed
                self.calls[bucket] += 1
                if children:
                    children[-1] += elapsed
                else:
                    self.top_ns += elapsed
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_ns": self.top_ns,
        }


def _after_load(tracer: Tracer, dataset) -> None:
    tracer.counts["dataset.ratings"] += len(dataset.matrix)


def _after_influence(tracer: Tracer, ranking) -> None:
    tracer.counts["cf.influence_candidates"] += len(ranking)
    tracer.counts["cf.basis_destroying"] += sum(r.basis_destroying for r in ranking)


def _after_predict(tracer: Tracer, _value) -> None:
    tracer.counts["core.predict_returned"] += 1


def _after_relax(tracer: Tracer, proposals) -> None:
    tracer.counts["constraint.proposals"] += len(proposals)


def _after_svg(tracer: Tracer, document) -> None:
    tracer.counts["svg.bytes"] += len(document.encode("utf-8"))


def _after_parser(tracer: Tracer, parser) -> None:
    parser.parse_args = tracer.span("cli.parse", parser.parse_args)


AFTER = {
    "dataset.load": _after_load,
    "cf.influence": _after_influence,
    "core.predict": _after_predict,
    "constraint.relax": _after_relax,
    "svg.render": _after_svg,
    "cli.parse": _after_parser,
}


class _JsonProxy:
    """Stands in for ``json`` inside the dataset module to time decoding."""

    def __init__(self, real, loads):
        self._real = real
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._real, name)


def _patch_everywhere(tracer: Tracer, original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "groupexplain" or name.startswith("groupexplain."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, attr, replacement)


def instrument() -> Tracer:
    """A disabled tracer holding wrappers for every layer of the package."""
    tracer = Tracer()
    for short in MODULES:
        module = importlib.import_module(f"groupexplain.{short}")
        for name, fn in list(vars(module).items()):
            key = f"{short}.{name}"
            if (
                name.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or key in INLINE
            ):
                continue
            if key in COUNTED:
                wrapped = tracer.counter(COUNTED[key], fn)
            else:
                bucket = BUCKETS.get(key, f"{short}.other")
                wrapped = tracer.span(bucket, fn, AFTER.get(bucket))
            _patch_everywhere(tracer, fn, wrapped)
    for (short, cls_name, method), bucket in METHOD_SPANS.items():
        cls = getattr(importlib.import_module(f"groupexplain.{short}"), cls_name)
        raw = inspect.getattr_static(cls, method)
        if isinstance(raw, classmethod):
            tracer.patch(cls, method, classmethod(tracer.span(bucket, raw.__func__)))
        else:
            tracer.patch(cls, method, tracer.span(bucket, raw))
    for (short, cls_name, method), name in METHOD_COUNTS.items():
        cls = getattr(importlib.import_module(f"groupexplain.{short}"), cls_name)
        tracer.patch(cls, method, tracer.counter(name, inspect.getattr_static(cls, method)))
    dataset = importlib.import_module("groupexplain.dataset")
    tracer.patch(
        dataset, "json",
        _JsonProxy(dataset.json, tracer.span("dataset.decode", dataset.json.loads)),
    )
    return tracer


def diff(after: dict, before: dict) -> dict:
    """Per-field difference of two snapshots."""
    out = {"top_ns": after["top_ns"] - before["top_ns"]}
    for field in ("self_ns", "total_ns", "calls", "counts"):
        out[field] = {
            key: value - before[field].get(key, 0) for key, value in after[field].items()
        }
    return out


def layer_metrics(loop: dict, loads: dict, requests: int, request_ns: int) -> dict[str, float]:
    """Per-layer metrics: per request from *loop*, per load from *loads*.

    *loop* is the snapshot difference over the timed requests, *loads* the
    counters over every traced ``load_dataset`` call, *request_ns* the
    summed duration of the requests.
    """
    ms = 1e-6
    self_ns, calls, counts = loop["self_ns"], loop["calls"], loop["counts"]

    def per_request(table, key, scale=1.0):
        return table.get(key, 0) * scale / requests

    n_loads = loads["calls"].get("dataset.load", 0)

    def per_load(table, key, scale=1.0):
        return table.get(key, 0) * scale / n_loads if n_loads else 0.0

    predicts = calls.get("core.predict", 0)
    return {
        "cli.parse_ms": per_request(self_ns, "cli.parse", ms),
        "cli.self_ms": per_request(self_ns, "cli.main", ms),
        "dataset.load_ms": per_load(loads["total_ns"], "dataset.load", ms),
        "dataset.decode_ms": per_load(loads["self_ns"], "dataset.decode", ms),
        "dataset.validate_ms": per_load(loads["self_ns"], "dataset.load", ms),
        "dataset.ratings": per_load(loads["counts"], "dataset.ratings"),
        "core.matrix_builds": per_request(calls, "core.matrix_build"),
        "core.matrix_build_ms": per_request(self_ns, "core.matrix_build", ms),
        "core.knn_calls": per_request(calls, "core.knn"),
        "core.knn_self_ms": per_request(self_ns, "core.knn", ms),
        "core.pearson_calls": per_request(calls, "core.pearson"),
        "core.pearson_ms": per_request(self_ns, "core.pearson", ms),
        "core.predict_calls": per_request(calls, "core.predict"),
        "core.predict_self_ms": per_request(self_ns, "core.predict", ms),
        "core.predict_useful_ratio": (
            counts.get("core.predict_returned", 0) / predicts if predicts else 0.0
        ),
        "cf.influence_self_ms": per_request(self_ns, "cf.influence", ms),
        "cf.influence_candidates": per_request(counts, "cf.influence_candidates"),
        "cf.basis_destroying": per_request(counts, "cf.basis_destroying"),
        "constraint.relax_self_ms": per_request(self_ns, "constraint.relax", ms),
        "constraint.match_calls": per_request(counts, "constraint.match_calls"),
        "constraint.proposals": per_request(counts, "constraint.proposals"),
        "constraint.relevance_ms": per_request(self_ns, "constraint.relevance", ms),
        "cb.tags_ms": per_request(self_ns, "cb.tags", ms),
        "cb.calls": sum(v for k, v in calls.items() if k.startswith("cb.")) / requests,
        "critique.explain_ms": per_request(self_ns, "critique.explain", ms),
        "critique.satisfied_by_calls": per_request(counts, "critique.satisfied_by_calls"),
        "render.explanations": per_request(calls, "render.explain"),
        "render.explain_ms": per_request(self_ns, "render.explain", ms),
        "render.display_round_calls": per_request(counts, "render.display_round_calls"),
        "svg.documents": per_request(calls, "svg.render"),
        "svg.render_ms": per_request(self_ns, "svg.render", ms),
        "svg.bytes": per_request(counts, "svg.bytes"),
        "trace.unattributed_ratio": max(0.0, 1.0 - loop["top_ns"] / request_ns),
    }
