"""In-process client: one closed loop of library calls in a fresh interpreter.

Started by ``run.py`` with the package on ``PYTHONPATH``. It loads the
dataset, turns the request list into package objects before timing, sends
the requests one after another, and writes latencies, outputs and peak
RSS to the ``--out`` file. With ``--trace 1`` every request runs twice, once with the
:mod:`layers` wrappers in place, and the per-layer metrics are added.

The ``cli-oneshot`` client here is the traced stand-in for the subprocess
loop in ``run.py``: it replays the same argv lists through ``cli.main``
with stdout captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import traceback

import groupexplain as ge
from groupexplain import cli

import layers
import record


def _cf_client(dataset, requests, data_path):
    prepared = [
        (
            ge.Group(id=f"q{i}", members=tuple(r["members"])),
            r["target"],
            ge.AggregationStrategy.parse(r["strategy"]),
        )
        for i, r in enumerate(requests)
    ]

    def run(index):
        group, target, strategy = prepared[index]
        ranking = ge.influential_items(dataset.matrix, group, target, k=2)
        scores = {m: ge.predict_rating(dataset.matrix, m, target, 2) for m in group.members}
        return ranking, ge.aggregation_explanation(target, scores, strategy)

    def output(result):
        ranking, explanation = result
        return {
            "ranking": [[r.item, r.delta, r.basis_destroying] for r in ranking],
            "score": explanation.slots["score"],
            "contributors": list(explanation.slots["users"]),
            "text": explanation.text,
        }

    return run, output


def _relax_client(dataset, requests, data_path):
    by_id = {req.id: req for req in dataset.requirements}
    catalog = [dataset.items[k] for k in sorted(dataset.items)]
    prepared = [
        (dataset.group(r["group"]), [by_id[rid] for rid in r["requirements"]])
        for r in requests
    ]

    def run(index):
        group, chosen = prepared[index]
        proposals = ge.relaxation_proposals(chosen, catalog)
        relevance = {r.id: ge.requirement_relevance(group, r) for r in chosen}
        causal = {r.id: ge.causally_relevant(r, catalog) for r in chosen}
        return proposals, relevance, causal

    def output(result):
        proposals, relevance, causal = result
        return {
            "proposals": [[list(p.removed), list(p.survivors)] for p in proposals],
            "relevance": relevance,
            "causal": causal,
        }

    return run, output


def _cli_client(dataset, requests, data_path):
    argvs = [argv + ["--data", str(data_path)] for argv in requests]

    def run(index):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argvs[index])
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run, lambda text: text


CLIENTS = {
    "cli-oneshot": _cli_client,
    "cf-influence": _cf_client,
    "constraint-relax": _relax_client,
}


def closed_loop(run, output, count, seconds, trace, tracer=None):
    """Send requests one at a time for *seconds*, and at least a minimum.

    With a tracer every request runs twice in a row, once traced and once
    not, the first of the two alternating, so both halves see the same
    requests in the same stretch of time. Each result becomes its output
    as soon as its timer stops. Returns the :class:`record.Record`, the
    traced flag of each execution, and the peak RSS (MB) once the minimum
    number of executions is done: that count is fixed, so the harness holds
    the same data whatever the throughput.
    """
    step = 2 if tracer else 1
    least = record.min_requests(trace, count)
    done = record.Record(count)
    traced_flags = bytearray()
    rss_mb = None
    clock = time.perf_counter
    start = clock()
    while True:
        elapsed = clock() - start
        executions = len(done.latencies)
        if executions == least:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if executions % step == 0 and (
            (executions >= least and elapsed >= seconds) or elapsed >= record.MAX_LOOP_SECONDS
        ):
            break
        traced = tracer is not None and executions % 4 in (1, 2)
        if traced:
            tracer.enable()
        began = clock()
        try:
            result, error = run((executions // step) % count), None
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            result, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        latency = clock() - began
        if traced:
            tracer.disable()
        done.add(executions // step, latency, None if error else output(result), error)
        traced_flags.append(traced)
        if tracer is None:
            done.time_reference()
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return done, list(traced_flags), rss_mb


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(CLIENTS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(args.requests, encoding="utf-8") as handle:
        requests = json.load(handle)
    tracer = layers.instrument() if args.trace else None
    if tracer:
        tracer.enable()  # the set-up load is traced for the dataset.* metrics
    dataset = ge.load_dataset(args.data)
    if tracer:
        tracer.disable()
    run, output = CLIENTS[args.workload](dataset, requests, args.data)
    run(0)  # warm lazy state (template catalog) outside the timed loop
    before = tracer.snapshot() if tracer else None
    done, traced, rss_mb = closed_loop(
        run, output, len(requests), args.seconds, args.trace, tracer
    )
    loop = {**done.to_json(), "traced": traced, "rss_mb": rss_mb}
    if tracer:
        after = tracer.snapshot()
        traced_latencies = [t for t, flag in zip(done.latencies, traced) if flag]
        loop["layers"] = layers.layer_metrics(
            layers.diff(after, before),
            after,
            len(traced_latencies),
            int(sum(traced_latencies) * 1e9),
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(loop, handle)


if __name__ == "__main__":
    main()
