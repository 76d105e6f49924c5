"""Run lengths, the request record and the latency scaling shared by
``run.py`` and ``worker.py``.

The machine is a shared host: its neighbours slow every process on it by
20 to 60%, for stretches from a fraction of a second to minutes, so raw
times of the same code differ by a third from one run to the next. Two
things take most of that out:

* After each request the loop times :func:`reference_loop`, a fixed piece
  of pure-Python work that belongs to the benchmark, not the program. A
  request's latency is scaled by the median reference time of the
  ``WINDOW`` executions on each side of it, to a host on which the
  reference loop takes ``REFERENCE_MS``: whatever slows the host at that
  moment slows both, and the ratio stays.
* A loop sends a short list of distinct requests over and over, so every
  request runs at least ``MIN_PASSES`` times, at moments spread over the
  run; a request's latency is the fastest of its scaled runs, which drops
  the bursts that hit a request but not the reference loop around it.

The harness's own data should not grow with throughput, or a faster
program would show as a larger ``peak_rss_mb``. So a :class:`Record`
keeps the latencies and reference times in flat arrays (16 bytes a
request), the output of only the first successful run of each entry of
the request list, and compares later runs of that entry with it on the
spot.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array

MIN_PASSES = 3  # runs of every entry of the request list, at the least
TRACE_MIN_REQUESTS = 72  # executions: a traced run runs each request twice
MAX_LOOP_SECONDS = 110.0
SMOKE_ENV = "BENCH_SMOKE"  # set to 1 by the benchmark's own tests: tiny loops
REFERENCE_MS = 1.0  # latencies are scaled to a host where reference_loop takes this
WINDOW = 10  # reference times on each side of an execution that scale it


def min_requests(trace: int, count: int) -> int:
    """Executions a closed loop over *count* entries runs at least."""
    if os.environ.get(SMOKE_ENV) == "1":
        return 6 if trace else 3
    return TRACE_MIN_REQUESTS if trace else MIN_PASSES * count


def reference_loop() -> float:
    """About a millisecond of dict, float and sort work, the same on every run."""
    table = {i: (i * 7919) % 1013 / 7.0 for i in range(3000)}
    total = 0.0
    for key, value in table.items():
        total += value * value - key
    sorted(table.values(), reverse=True)
    return total


def reference_seconds() -> float:
    """The time of one :func:`reference_loop`."""
    began = time.perf_counter()
    reference_loop()
    return time.perf_counter() - began


def scaled(latencies, references) -> list[float]:
    """Each latency in ms at the reference speed.

    Latency *n* is scaled by the median of the reference times from
    ``n - WINDOW`` to ``n + WINDOW``, each timed just after its latency.
    """
    return [
        latency * REFERENCE_MS / statistics.median(references[max(0, n - WINDOW):n + WINDOW + 1])
        for n, latency in enumerate(latencies)
    ]


def scaled_latencies(latencies, references, count: int) -> list[float]:
    """Each request's fastest latency in ms at the reference speed.

    Execution *n* sent entry ``n % count`` of the request list. Entries
    that never ran are left out.
    """
    runs: list[list[float]] = [[] for _ in range(count)]
    for n, latency in enumerate(scaled(latencies, references)):
        runs[n % count].append(latency)
    return [min(r) for r in runs if r]


class Record:
    """What one closed loop over a cyclic list of *count* requests produced.

    Request *n* sends entry ``n % count`` of the list. ``outputs[k]`` is the
    output of the first successful run of entry *k*, or None if none was.
    ``failed`` maps each failed request number to its error line.
    ``references[n]`` is the time of the :func:`reference_loop` run just
    after request *n*, in an untraced loop.
    """

    def __init__(self, count: int):
        self.count = count
        self.latencies = array("d")
        self.references = array("d")
        self.outputs: list = []
        self.failed: dict[int, str] = {}

    def add(self, request: int, seconds: float, output, error: str | None) -> None:
        """One execution of request number *request*, which may repeat one."""
        self.latencies.append(seconds)
        key = request % self.count
        if key == len(self.outputs):
            self.outputs.append(None if error else output)
        elif error is None and self.outputs[key] is None:
            self.outputs[key] = output
        elif error is None and output != self.outputs[key]:
            error = "output differs from an earlier run of the same request"
        if error and request not in self.failed:
            self.failed[request] = error

    def time_reference(self) -> None:
        """Time one :func:`reference_loop`, just after the latest request."""
        self.references.append(reference_seconds())

    def to_json(self) -> dict:
        return {
            "latencies": list(self.latencies),
            "references": list(self.references),
            "outputs": self.outputs,
            "failed": {str(n): e for n, e in self.failed.items()},
        }
