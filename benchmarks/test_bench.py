"""Tests of the benchmark itself: generator, oracles, and a short smoke run.

Run from the repository root: ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import datagen  # noqa: E402
import oracles  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
from groupexplain import (  # noqa: E402
    Group,
    influential_items,
    load_builtin,
    load_dataset,
    relaxation_proposals,
)

BUNDLED = json.loads(
    (ROOT / "src" / "groupexplain" / "data" / "worked_examples.json").read_text("utf-8")
)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_byte_deterministic(tmp_path, workload):
    first = datagen.write_workload(workload, 7, tmp_path / "a")
    second = datagen.write_workload(workload, 7, tmp_path / "b")
    for a, b in zip(first[2:], second[2:]):
        assert a.read_bytes() == b.read_bytes()
    other = datagen.write_workload(workload, 8, tmp_path / "c")
    assert other[2].read_bytes() != first[2].read_bytes()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generated_dataset_loads_with_every_section_filled(tmp_path, workload):
    data, requests, data_path, _ = datagen.write_workload(workload, 3, tmp_path)
    dataset = load_dataset(data_path)
    assert len(dataset.matrix) == len(data["ratings"])
    for section, value in data.items():
        assert value, section
    for field in ("groups", "requirements", "dimensions", "critiques", "tags",
                  "neighbor_group_ratings", "member_sentiments", "fairness_weights"):
        assert getattr(dataset, field), field
    assert len(requests) == datagen.REQUEST_COUNTS[workload]


def test_relax_requests_are_over_constrained_with_the_stated_sizes():
    data, requests = datagen.generate("constraint-relax", 5)
    by_id = {r["id"]: r for r in data["requirements"]}
    for index, request in enumerate(requests[:50]):
        chosen = [by_id[rid] for rid in request["requirements"]]
        assert len(chosen) == datagen.RELAX_SIZES[index % len(datagen.RELAX_SIZES)]
        assert datagen.over_constrained(data["items"], chosen)


def assert_influence_matches(data, matrix, group, target):
    _, expected = oracles.influence(data, list(group.members), target)
    got = influential_items(matrix, group, target, k=2)
    assert [r.item for r in got] == [row[0] for row in expected]
    assert [r.basis_destroying for r in got] == [row[2] for row in expected]
    for r, row in zip(got, expected):
        assert abs(r.delta - row[1]) <= oracles.DELTA_TOLERANCE


def test_influence_oracle_agrees_with_library_on_bundled_dataset():
    dataset = load_builtin()
    for group in dataset.groups.values():
        for target in ("t1", "t2"):
            assert_influence_matches(BUNDLED, dataset.matrix, group, target)


def test_influence_oracle_agrees_with_library_on_generated_requests(tmp_path):
    data, requests, data_path, _ = datagen.write_workload("cf-influence", 2, tmp_path)
    matrix = load_dataset(data_path).matrix
    for index, request in enumerate(requests[:2]):
        group = Group(id=f"q{index}", members=tuple(request["members"]))
        assert_influence_matches(data, matrix, group, request["target"])


def test_relaxation_oracle_agrees_with_library_on_bundled_dataset():
    dataset = load_builtin()
    needed = {r.attribute for r in dataset.requirements}
    catalog = [i for _, i in sorted(dataset.items.items()) if needed <= set(i.attributes)]
    items = {i.id: BUNDLED["items"][i.id] for i in catalog}
    expected = oracles.relaxations(items, BUNDLED["requirements"])
    got = relaxation_proposals(dataset.requirements, catalog)
    assert expected, "the bundled requirements should be over-constrained"
    assert [[list(p.removed), list(p.survivors)] for p in got] == [list(e) for e in expected]


def test_relaxation_oracle_agrees_with_library_on_generated_requests(tmp_path):
    data, requests, data_path, _ = datagen.write_workload("constraint-relax", 4, tmp_path)
    dataset = load_dataset(data_path)
    by_id = {r.id: r for r in dataset.requirements}
    catalog = [dataset.items[k] for k in sorted(dataset.items)]
    for request in requests[:3]:  # sizes 8, 9 and 10
        chosen = [by_id[rid] for rid in request["requirements"]]
        got = relaxation_proposals(chosen, catalog)
        expected = oracles.expected_relax(data, request)["proposals"]
        assert [[list(p.removed), list(p.survivors)] for p in got] == expected


def test_record_keeps_one_output_per_entry_and_flags_a_changed_repeat():
    done = record.Record(2)
    for number, output in enumerate(["a", "b", "a", "c", "a"]):
        done.add(number, 0.001, output, None)
        done.time_reference()
    assert done.outputs == ["a", "b"]
    assert done.failed == {3: "output differs from an earlier run of the same request"}
    assert len(done.latencies) == len(done.references) == 5
    assert all(0 < r < 1 for r in done.references)


def test_scaled_latencies_take_out_a_slower_host(monkeypatch):
    # two requests; the host runs twice as slow for the last four executions
    latencies = [0.010, 0.030, 0.010, 0.030, 0.020, 0.060, 0.020, 0.060]
    references = [0.001] * 4 + [0.002] * 4
    monkeypatch.setattr(record, "WINDOW", 0)
    assert record.scaled_latencies(latencies, references, 2) == pytest.approx([10.0, 30.0])
    monkeypatch.setattr(record, "WINDOW", 8)  # one median, 1.5 ms, for every execution
    assert record.scaled_latencies(latencies, references, 2) == pytest.approx([20 / 3, 20.0])
    assert record.scaled_latencies(latencies[:1], references[:1], 2) == [10.0]


@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setenv(record.SMOKE_ENV, "1")
    for name, value in (("DIGEST_REQUESTS", 3), ("SETUP_STARTS", 1),
                        ("IMPORT_STARTS", 1), ("CF_CHECKED", (0,))):
        monkeypatch.setattr(run, name, value)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_traced_outputs_match(short_runs, workload):
    plain = run.run_workload(ROOT, workload, 11, 0.0, 0)
    traced = run.run_workload(ROOT, workload, 11, 0.0, 1)
    for result, trace in ((plain, 0), (traced, 1)):
        assert result["failed"] == 0, result["problems"]
        assert set(result["metrics"]) == set(run.declared_units(ROOT, trace))
        assert all(v == v and v >= 0 for v in result["metrics"].values())
    assert plain["digest"] == traced["digest"]
    assert plain["metrics"]["latency_p50_ms"] > 0
    assert traced["metrics"]["trace.unattributed_ratio"] < 0.05


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cf-influence", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
