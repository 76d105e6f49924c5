"""groupexplain benchmark: three seeded workloads, checked outputs, metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload cf-influence --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another. Every
workload is a closed loop with one client: the next request is sent only
after the previous one returned.

* ``cli-oneshot``: each request is a fresh ``groupexplain <subcommand>``
  process on a large dataset, cycling through every subcommand and mode
  except influence, in text, json and svg.
* ``cf-influence``: ``influential_items`` plus ``aggregation_explanation``
  called in-process on a medium matrix.
* ``constraint-relax``: ``relaxation_proposals`` plus
  ``requirement_relevance`` and ``causally_relevant`` called in-process on
  over-constrained sets of 8 to 12 requirements.

Each workload sends a short list of distinct requests (36 CLI argv lists,
100 or 55 library requests) in a closed loop until ``--seconds`` have passed and
every request has run at least three times. After each request the loop
times a fixed reference loop of the benchmark's own, and each latency is
scaled by the reference times around it to a host on which that loop
takes ``record.REFERENCE_MS``; this takes out how busy the shared host
was at that moment (see ``record``). A request's latency is the fastest
of its scaled runs: ``latency_p50_ms`` and ``latency_p90_ms`` are percentiles
over the requests of the list, and ``throughput_rps`` is the number of
requests over the sum of their latencies, what one client gets.
``setup_s`` is the median of twelve cold ``import groupexplain;
load_dataset(<file>)`` processes, six before the loop and six after it,
each scaled the same way. The metadata line holds the unscaled
percentiles over all runs, the unscaled ``setup_s`` and the median
reference time.

Inputs come from ``datagen`` and depend only on the workload and the seed.
Outputs are checked outside the timed loop (golden replay, oracles in
``oracles``, well-formed CLI output); a failed check counts as a failed
request. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``layers``). The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path

import datagen
import oracles
import record

WORKLOADS = ("cli-oneshot", "cf-influence", "constraint-relax")
DIGEST_REQUESTS = 36  # outputs hashed into the digest: always completed
SETUP_STARTS = 6  # cold starts before and again after the loop; setup_s is their median
IMPORT_STARTS = 5
CHILD_TIMEOUT = 60.0
CF_CHECKED = (0, 9, 18, 27, 35)  # cf-influence requests checked against the oracle
CLI_ENTRY = "import sys; from groupexplain.cli import main; sys.exit(main())"
SETUP_CODE = "import sys, groupexplain; groupexplain.load_dataset(sys.argv[1])"
HERE = Path(__file__).resolve().parent


@dataclass
class Child:
    code: int
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts package processes from one checkout and waits for each."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def run(self, args: list[str], timeout: float = CHILD_TIMEOUT) -> Child:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out,
                stderr=err, env=self.env, cwd=self.root,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode, seconds, usage.ru_maxrss / 1024.0,
            out_path.read_bytes(), err_path.read_bytes(),
        )

    def cold_starts(
        self, args: list[str], count: int, warm: bool = True, references: list | None = None
    ) -> list[Child]:
        """*count* timed starts, after one untimed start that fills bytecode caches.

        With a *references* list, one reference loop is timed after each start
        and appended to it.
        """
        if warm:
            self.run(args)
        children = []
        for _ in range(count):
            children.append(self.run(args))
            if references is not None:
                references.append(record.reference_seconds())
        failed = [c for c in children if c.code != 0]
        if failed:
            raise RuntimeError(f"{args[:3]} failed: {failed[0].stderr.decode()[-500:]}")
        return children


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def digest(outputs: list) -> str:
    blob = json.dumps(outputs[:DIGEST_REQUESTS], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def golden_cases(root: Path) -> list[tuple[str, list[str]]]:
    """GOLDEN_CASES from the CLI tests, read without importing pytest."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_CASES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError("tests/test_cli.py defines no GOLDEN_CASES")


def check_goldens(runner: Runner) -> tuple[int, list[str]]:
    """Replay the golden argv lists on the bundled dataset, byte for byte.

    Returns the number of cases and one entry per case that differs.
    """
    problems = []
    cases = golden_cases(runner.root)
    for name, argv in cases:
        child = runner.run(["-c", CLI_ENTRY, *argv])
        expected = (runner.root / "tests" / "golden" / name).read_bytes()
        if child.code != 0 or child.stdout != expected:
            problems.append(f"golden {name}: exit {child.code}, output differs")
    return len(cases), problems


def cli_problem(argv: list[str], text: str | None) -> str | None:
    """Why one CLI output is not well formed, or None."""
    fmt = argv[argv.index("--format") + 1]
    if not text.endswith("\n"):
        return "output does not end with a newline"
    if fmt == "json":
        try:
            payload = json.loads(text)
        except ValueError:
            return "json output does not parse"
        if payload.get("command") != argv[0]:
            return "json payload names another command"
    elif fmt == "svg":
        documents = [d for d in text.split("</svg>\n") if d]
        try:
            for document in documents:
                ElementTree.fromstring(document + "</svg>")
        except ElementTree.ParseError:
            return "svg output does not parse"
        if not documents or not text.startswith("<svg"):
            return "svg output holds no document"
    elif not text.strip():
        return "text output is empty"
    return None


def check_outputs(
    workload: str, data: dict, requests: list, loop: dict, total: int
) -> list[str]:
    """One entry per failed request of a loop of *total* requests.

    *loop* is a ``record.Record`` as JSON. The first successful output of
    each request-list entry is checked; a later run of the same entry was
    compared with it in the loop.
    """
    failed = {int(n): error for n, error in loop["failed"].items()}
    for key, output in enumerate(loop["outputs"]):
        if output is None:
            continue
        request = requests[key]
        if workload == "cli-oneshot":
            found = [p for p in [cli_problem(request, output)] if p]
        elif workload == "constraint-relax":
            found = oracles.check_relax(oracles.expected_relax(data, request), output)
        elif key in CF_CHECKED:
            found = oracles.check_cf(data, request, output)
        else:
            found = []
        if found:  # every run of this entry gave the same output
            for number in range(key, total, len(requests)):
                failed.setdefault(number, "; ".join(found))
    return [f"request {n}: {error}" for n, error in sorted(failed.items())]


def cli_loop(runner: Runner, requests: list, data_path: Path, seconds: float):
    """Closed loop of CLI processes; returns (loop record, max rss)."""
    done, peak = record.Record(len(requests)), 0.0
    least = record.min_requests(0, len(requests))
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        count = len(done.latencies)
        if (count >= least and elapsed >= seconds) or elapsed >= record.MAX_LOOP_SECONDS:
            break
        argv = requests[count % len(requests)]
        child = runner.run(["-c", CLI_ENTRY, *argv, "--data", str(data_path)])
        peak = max(peak, child.rss_mb)
        ok = child.code == 0 and not child.stderr
        stderr = child.stderr.decode("utf-8", "replace").strip().splitlines()
        done.add(
            count, child.seconds, child.stdout.decode("utf-8") if ok else None,
            None if ok else f"exit {child.code}: {stderr[-1] if stderr else ''}",
        )
        done.time_reference()
    return done.to_json(), peak


def worker(runner: Runner, workload: str, paths, seconds: float, trace: int) -> dict:
    out = runner.work / "worker.json"
    child = runner.run(
        [
            str(HERE / "worker.py"), "--workload", workload,
            "--data", str(paths[0]), "--requests", str(paths[1]),
            "--seconds", repr(seconds), "--trace", str(trace), "--out", str(out),
        ],
        timeout=record.MAX_LOOP_SECONDS + CHILD_TIMEOUT,
    )
    if child.code != 0:
        raise RuntimeError(f"worker failed: {child.stderr.decode()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def import_metrics(runner: Runner) -> dict[str, float]:
    floor = statistics.median(
        c.seconds for c in runner.cold_starts(["-c", "pass"], IMPORT_STARTS)
    )
    cli = statistics.median(
        c.seconds for c in runner.cold_starts(["-c", "import groupexplain.cli"], IMPORT_STARTS)
    )
    svg = []
    for child in runner.cold_starts(["-X", "importtime", "-c", "import groupexplain.cli"], 3):
        match = re.search(rb"\|\s*(\d+) \|\s*groupexplain\.svg\s*$", child.stderr, re.M)
        svg.append(int(match.group(1)) / 1000.0 if match else 0.0)
    return {
        "import.interpreter_ms": floor * 1000.0,
        "import.cli_ms": (cli - floor) * 1000.0,
        "import.svg_ms": statistics.median(svg),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work)
        data, requests, data_path, requests_path = datagen.write_workload(workload, seed, work)
        attempted, problems = check_goldens(runner) if workload == "cli-oneshot" else (0, [])
        metrics: dict[str, float] = {}
        unscaled: dict[str, float] = {}
        if trace:
            metrics.update(import_metrics(runner))
            loop = worker(runner, workload, (data_path, requests_path), seconds, 1)
            by_mode = {True: [], False: []}
            for latency, traced in zip(loop["latencies"], loop["traced"]):
                by_mode[traced].append(latency)
            metrics.update(loop["layers"])
            metrics["trace.overhead_ratio"] = statistics.median(
                by_mode[True]
            ) / statistics.median(by_mode[False])
        else:
            setup_args = ["-c", SETUP_CODE, str(data_path)]
            references: list[float] = []
            setup = runner.cold_starts(setup_args, SETUP_STARTS, references=references)
            # Starts on both sides of the loop sample the host at two times,
            # each side scaled by its own reference times.
            setup_ms = record.scaled([c.seconds for c in setup], references)
            if workload == "cli-oneshot":
                loop, peak = cli_loop(runner, requests, data_path, seconds)
            else:
                loop = worker(runner, workload, (data_path, requests_path), seconds, 0)
                peak = loop["rss_mb"]
            references = []
            after = runner.cold_starts(setup_args, SETUP_STARTS, warm=False, references=references)
            setup_ms += record.scaled([c.seconds for c in after], references)
            setup += after
            latencies = loop["latencies"]
            per_request = record.scaled_latencies(
                latencies, loop["references"], len(requests)
            )
            metrics = {
                "latency_p50_ms": statistics.median(per_request),
                "latency_p90_ms": p90(per_request),
                "throughput_rps": 1000.0 * len(per_request) / sum(per_request),
                "setup_s": statistics.median(setup_ms) / 1000.0,
                "peak_rss_mb": peak,
            }
            unscaled = {
                "latency_p50_ms": statistics.median(latencies) * 1000.0,
                "latency_p90_ms": p90(latencies) * 1000.0,
                "setup_s": statistics.median(c.seconds for c in setup),
                "reference_ms": statistics.median(loop["references"]) * 1000.0,
            }
        requests_done = len(loop["latencies"]) // (2 if trace else 1)
        problems += check_outputs(workload, data, requests, loop, requests_done)
        attempted += requests_done
        return {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "attempted": attempted,
            "failed": len(problems),
            "problems": problems[:20],
            "digest": digest(loop["outputs"]),
            "metrics": metrics,
            "meta": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "loop": "closed",
                "clients": 1,
                "requests": requests_done,
                "seconds": seconds,
                "sizes": datagen.describe(workload, data, requests),
                "unscaled": unscaled,
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_lines(result: dict, units: dict[str, str]) -> list[str]:
    rate = result["failed"] / result["attempted"]
    lines = [
        f"{result['workload']} seed={result['seed']} trace={result['trace']} "
        f"correct={result['failed'] == 0} attempted={result['attempted']} "
        f"failed={result['failed']} error_rate={rate:g} ratio",
    ]
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines += [
        f"  {name:<28} {value:>14.4f} {units[name]}"
        for name, value in result["metrics"].items()
    ]
    lines.append(f"  output sha256 {result['digest']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "groupexplain" / "__init__.py").is_file():
        print("error: run from a groupexplain checkout (src/groupexplain missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = declared_units(root, args.trace)
    results = [run_workload(root, w, args.seed, args.seconds, args.trace) for w in names]
    for result in results:
        if set(result["metrics"]) != set(units):
            raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                               f"{sorted(set(result['metrics']) ^ set(units))}")
        print("\n".join(report_lines(result, units)))
        print("meta " + json.dumps({
            "workload": result["workload"], "seed": result["seed"],
            "error_rate": result["failed"] / result["attempted"],
            "digest": result["digest"], **result["meta"],
        }, sort_keys=True))
    prefix = len(results) > 1
    final = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): {"value": value, "unit": units[name]}
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
