"""CLI end to end: text output, golden JSON/SVG comparison, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from groupexplain import Critique, cb, predict_rating
from groupexplain.cli import (
    EXIT_COMPUTE,
    EXIT_DATASET,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from groupexplain.dataset import builtin_dataset_path
from groupexplain.render import display_round

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Every subcommand appears at least once; outputs are committed verbatim.
GOLDEN_CASES = [
    ("cf_aggregation_avg_named.json",
     ["explain-cf", "--mode", "aggregation", "--strategy", "avg",
      "--item", "t1", "--format", "json"]),
    ("cf_aggregation_lms_anonymous.json",
     ["explain-cf", "--mode", "aggregation", "--strategy", "lms",
      "--item", "t1", "--privacy", "anonymous", "--format", "json"]),
    ("cf_histogram_named.json",
     ["explain-cf", "--mode", "histogram", "--item", "t1", "--format", "json"]),
    ("cf_group_histogram_t2.json",
     ["explain-cf", "--mode", "group-histogram", "--item", "t2",
      "--format", "json"]),
    ("cf_influence_t1.json",
     ["explain-cf", "--mode", "influence", "--item", "t1", "--format", "json"]),
    ("cb_category_t1.json",
     ["explain-cb", "--mode", "category", "--item", "t1", "--format", "json"]),
    ("cb_opinion_t1.json",
     ["explain-cb", "--mode", "opinion", "--item", "t1", "--format", "json"]),
    ("cb_tags_anonymous.json",
     ["explain-cb", "--mode", "tags", "--privacy", "anonymous",
      "--format", "json"]),
    ("constraint_requirements.json",
     ["explain-constraint", "--mode", "requirements", "--format", "json"]),
    ("constraint_maut_t1.json",
     ["explain-constraint", "--mode", "maut", "--item", "t1",
      "--format", "json"]),
    ("critique_t1_named.json",
     ["explain-critique", "--item", "t1", "--format", "json"]),
    ("fairness_adapt_named.json",
     ["fairness-adapt", "--format", "json"]),
    ("relax.json",
     ["relax", "--format", "json"]),
    ("cf_spider_t1.svg",
     ["explain-cf", "--mode", "spider", "--item", "t1", "--format", "svg"]),
]

MEMBER_IDS = ["u1", "u2", "u3", "nn11", "nn12", "nn21", "nn22", "nn31", "nn32"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs_byte_stable(capsys, golden, argv):
    code, first, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    code, second, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert first == second  # rerun is byte identical
    expected = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
    assert first == expected


@pytest.mark.parametrize(
    "golden",
    ["cf_influence_t1.json", "cf_histogram_named.json", "cf_aggregation_avg_named.json"],
)
def test_cf_goldens_do_not_depend_on_the_hash_seed(golden):
    # co-rated items are paired in set order, which follows the string hash seed
    argv = dict(GOLDEN_CASES)[golden]
    expected = (GOLDEN_DIR / golden).read_bytes()
    for seed in range(8):
        result = subprocess.run(
            [sys.executable, "-m", "groupexplain.cli", *argv],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR),
                 "PYTHONHASHSEED": str(seed)},
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            EXIT_OK, expected, b""
        ), seed


def _balanced_history(doc):
    doc["decision_history"]["counts"] = {u: [8, 8] for u in ("u1", "u2", "u3")}


def _without_price_cap(doc):
    doc["requirements"] = doc["requirements"][1:]


def _unmet_price_critiques(doc):
    doc["critiques"] = [
        {"author": u, "attribute": "price", "operator": "<=", "bound": 100}
        for u in ("u1", "u2", "u3")
    ]


# The template sentences no golden pins: argv, dataset edit, first line.
TEMPLATE_SENTENCES = {
    "cf-avg-anonymous": (
        ["explain-cf", "--mode", "aggregation", "--strategy", "avg",
         "--item", "t1", "--privacy", "anonymous"],
        None,
        "item t1 is most similar to the ratings of all 3 group members",
    ),
    "cf-influence": (
        ["explain-cf", "--mode", "influence", "--item", "t1"],
        None,
        "removing item x23 changes the group prediction for item t1 "
        "the most (average shift 0.33)",
    ),
    "cb-category-anonymous": (
        ["explain-cb", "--mode", "category", "--item", "t1",
         "--privacy", "anonymous"],
        None,
        "item t1 is recommended since the group as a whole is interested "
        "in category cat2",
    ),
    "constraint-fairness-anonymous": (
        ["fairness-adapt", "--privacy", "anonymous"],
        None,
        "the interest dimensions favored by 1 of 3 group members have been "
        "given more consideration to compensate for previous decisions",
    ),
    "constraint-fairness-balanced": (
        ["fairness-adapt"],
        _balanced_history,
        "all group members were treated equally in previous decisions; "
        "no weights were adapted",
    ),
    "relax-none": (
        ["relax"],
        _without_price_cap,
        "the current requirements already allow a recommendation; "
        "no relaxation is needed",
    ),
    "critique-none": (
        ["explain-critique", "--item", "t1"],
        _unmet_price_critiques,
        "the price of item t1 (299) does not satisfy any critique stated "
        "within the group",
    ),
}


class TestTextOutput:
    @pytest.mark.parametrize("template", list(TEMPLATE_SENTENCES))
    def test_template_sentence(self, capsys, tmp_path, template):
        argv, edit, expected = TEMPLATE_SENTENCES[template]
        if edit is not None:
            doc = _bundled_doc()
            edit(doc)
            argv = [*argv, "--data", _write(tmp_path, json.dumps(doc))]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[0] == expected

    def test_lms_names_the_miserable_member(self, capsys):
        code, out, _ = run(
            capsys, "explain-cf", "--mode", "aggregation",
            "--strategy", "lms", "--item", "t1",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == (
            "item t1 has a group score of 3.41 due to the (lowest) "
            "rating determined for user u2"
        )
        assert "u1: 4.01" in lines
        assert "u2: 3.41" in lines
        assert "u3: 3.67" in lines
        assert lines[-1] == "group score (lms): 3.41"

    def test_histogram_counts_line(self, capsys):
        code, out, _ = run(
            capsys, "explain-cf", "--mode", "histogram", "--item", "t1"
        )
        assert code == EXIT_OK
        assert "bad: 0, neutral: 2, good: 4" in out

    def test_category_ranking(self, capsys):
        code, out, _ = run(
            capsys, "explain-cb", "--mode", "category", "--item", "t1"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].endswith("interested in category cat2")
        assert lines[1:] == ["cat2: 0.28", "cat4: 0.03", "cat3: 0.02", "cat1: 0.01"]

    def test_tags_compute_each_member_preference_once(self, capsys, monkeypatch):
        calls = []
        original = cb.tag_preference

        def counting(*args):
            calls.append(args[2:])
            return original(*args)

        monkeypatch.setattr(cb, "tag_preference", counting)
        assert run(capsys, "explain-cb", "--mode", "tags")[0] == EXIT_OK
        # 4 tags x 3 members of g1, named privacy
        assert len(calls) == 12 and len(set(calls)) == 12

    def test_tag_table(self, capsys):
        code, out, _ = run(capsys, "explain-cb", "--mode", "tags")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "this group values items tagged city-tours"
        assert lines[1] == "city-tours: preference 0.42, relevance 0.86"

    def test_relevance_that_rounds_to_zero_prints_unsigned(self, capsys, tmp_path):
        doc = _bundled_doc()
        doc["tags"] = {
            "x11": {"city-tours": 1, "museums": 4},
            "x12": {"city-tours": 4, "beach": 3},
            "x13": {"hiking": 6, "city-tours": 8},
            "x21": {"beach": 0, "hiking": 3},
            "x22": {"city-tours": 8, "museums": 7},
            "x23": {"city-tours": 9, "beach": 0},
            "x31": {"hiking": 0, "city-tours": 9},
            "x32": {"museums": 3, "beach": 4},
            "x33": {"city-tours": 3, "hiking": 2, "beach": 4},
        }
        path = _write(tmp_path, json.dumps(doc))
        argv = ["explain-cb", "--mode", "tags", "--privacy", "anonymous", "--data", path]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        # beach's raw relevance is about -0.000366
        assert "beach: preference 0.16, relevance 0.0" in out.splitlines()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        assert '"relevance": 0.0,' in out and "-0.0," not in out

    def test_critique_supports(self, capsys):
        code, out, _ = run(capsys, "explain-critique", "--item", "t1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith(
            "the price of item t1 (299) is clearly within the limits"
        )
        assert lines[1:] == [
            "price: 1.0",
            "resolution: 0.66",
            "weight: 0.33",
            "exchangeable_lens: 0.66",
        ]

    def test_fairness_text(self, capsys):
        code, out, _ = run(capsys, "fairness-adapt")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("the interest dimensions favored by user u1")
        assert "mean fairness: 0.75" in lines
        assert "u1: fairness 0.5" in lines
        assert "u3: fairness 1.0" in lines

    def test_relax_text(self, capsys):
        code, out, _ = run(capsys, "relax")
        assert code == EXIT_OK
        assert out == (
            "no item satisfies all current requirements; "
            "relaxing req1 makes t1, t3, and t5 available\n"
        )


class TestPrivacy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["explain-cf", "--mode", "aggregation", "--item", "t1"],
            ["explain-cf", "--mode", "histogram", "--item", "t1"],
            ["explain-cb", "--mode", "tags"],
            ["explain-critique", "--item", "t2"],
            ["fairness-adapt"],
            ["explain-cf", "--mode", "group-histogram", "--item", "t1"],
            ["explain-cf", "--mode", "spider", "--item", "t1"],
            ["explain-cf", "--mode", "influence", "--item", "t1"],
            ["explain-cb", "--mode", "category", "--item", "t1"],
            ["explain-cb", "--mode", "opinion", "--item", "t1"],
            ["explain-constraint", "--mode", "requirements"],
            ["explain-constraint", "--mode", "maut", "--item", "t1"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    def test_anonymous_output_never_names_members(self, capsys, argv, fmt):
        code, out, _ = run(
            capsys, *argv, "--privacy", "anonymous", "--format", fmt
        )
        assert code == EXIT_OK
        for member in MEMBER_IDS:
            assert member not in out

    def test_named_json_carries_member_tables(self, capsys):
        code, out, _ = run(
            capsys, "fairness-adapt", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["fairness"] == {"u1": 0.5, "u2": 0.75, "u3": 1.0}
        assert payload["upgraded"] == ["u1"]

    def test_anonymous_json_carries_counts_only(self, capsys):
        code, out, _ = run(
            capsys, "fairness-adapt", "--privacy", "anonymous", "--format", "json"
        )
        payload = json.loads(out)
        assert "fairness" not in payload and "adapted_weights" not in payload
        assert payload["upgraded_count"] == 1
        assert payload["member_count"] == 3


NUMERIC_DATASET = {
    "users": ["a", "b"],
    "items": {"i1": {"attributes": {"price": 100}}},
    "ratings": [["a", "i1", 4]],
    "requirements": [
        {"id": "cheap", "attribute": "price", "operator": "<=", "bound": 250}
    ],
}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "explain-everything")[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(capsys, "relax", "--frobnicate")[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["relax", "--frobnicate"],
            ["explain-everything"],
            ["explain-cf", "--mode", "nope"],
        ],
        ids=["unknown-flag", "unknown-subcommand", "unknown-mode"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_missing_item(self, capsys):
        code, _, err = run(capsys, "explain-cf", "--mode", "aggregation")
        assert code == EXIT_USAGE
        assert err.startswith("usage error:")

    def test_svg_without_chart(self, capsys):
        code, _, err = run(capsys, "relax", "--format", "svg")
        assert code == EXIT_USAGE
        assert "svg" in err

    def test_unknown_item(self, capsys):
        code, _, err = run(capsys, "explain-cf", "--item", "zz9")
        assert code == EXIT_DATASET
        assert err.startswith("error: unresolved-id")

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "explain-cb", "--group", "g9", "--mode", "tags")
        assert code == EXIT_DATASET

    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    def test_opinion_on_an_item_without_feature_sentiments(self, capsys, fmt):
        argv = ["explain-cb", "--mode", "opinion", "--item", "x11", "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_COMPUTE and out == ""
        assert err == "error: missing-feature: item 'x11' carries no feature sentiments\n"

    def test_opinion_missing_profile_comes_before_missing_sentiments(
        self, capsys, tmp_path
    ):
        doc = json.loads(builtin_dataset_path().read_text(encoding="utf-8"))
        doc["groups"]["g2"] = ["u1", "u2"]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(
            capsys, "explain-cb", "--mode", "opinion", "--item", "x11",
            "--group", "g2", "--data", str(path),
        )
        assert code == EXIT_COMPUTE and out == ""
        assert err == "error: missing-feature: group 'g2' has no sentiment profile\n"

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "relax", "--data", str(tmp_path / "absent.json")
        )
        assert code == EXIT_DATASET
        assert err.startswith("error: malformed-dataset")

    @pytest.mark.parametrize(
        "groups,argv,line",
        [
            (None, ["explain-constraint", "--mode", "requirements"],
             "error: unresolved-id: dataset defines no groups\n"),
            ({"g": ["a", "b"]}, ["fairness-adapt"],
             "error: unresolved-id: dataset has no decision_history section\n"),
        ],
        ids=["no-groups", "no-decision-history"],
    )
    def test_a_missing_section_is_unresolved(self, capsys, tmp_path, groups, argv, line):
        doc = dict(NUMERIC_DATASET)
        if groups is not None:
            doc["groups"] = groups
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, *argv, "--data", str(path)) == (EXIT_DATASET, "", line)

    def test_malformed_data_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(capsys, "relax", "--data", str(bad))[0] == EXIT_DATASET

    @pytest.mark.parametrize("k", ["0", "-1", "x"])
    def test_k_below_one(self, capsys, k):
        code, out, err = run(capsys, "explain-cf", "--item", "t1", "--k", k)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "old,new,line",
        [
            ('"bound": 250', '"bound": NaN',
             "malformed-dataset: {path}: non-finite number NaN is not allowed\n"),
            ('"bound": 250', '"bound": -Infinity',
             "malformed-dataset: {path}: non-finite number -Infinity is not allowed\n"),
            ('"bound": 250', '"bound": 1e999',
             "invalid-value: requirements[0].bound: inf is not a finite number\n"),
            ('"price": 100', '"price": Infinity',
             "malformed-dataset: {path}: non-finite number Infinity is not allowed\n"),
            ('"price": 100', '"price": -1e999',
             "invalid-value: items[i1].attributes.price: -inf is not a finite number\n"),
            ('["a", "i1", 4]', '["a", "i1", 1e999]',
             "invalid-value: ratings[0]: inf is not a finite number\n"),
            ('"price": 100', '"price": [1e999, {"x": -1e999}]',
             "invalid-value: items[i1].attributes.price[0]: inf is not a finite number\n"),
            ('"price": 100', '"price": [1, {"x": -1e999}]',
             "invalid-value: items[i1].attributes.price[1].x: -inf is not a finite number\n"),
            ('"operator": "<=", "bound": 250', '"operator": "=", "bound": [1e999]',
             "invalid-value: requirements[0].bound[0]: inf is not a finite number\n"),
            ('["a", "i1", 4]', '["a", "i1", 1' + "0" * 400 + "]",
             "invalid-value: ratings[0]: integer too large for a float\n"),
            # the rest of this line is the interpreter's own wording
            ('["a", "i1", 4]', '["a", "i1", 1' + "0" * 5000 + "]",
             "malformed-dataset: {path}: "),
            # a loader check that is not about numbers: a user id that is not a string
            ('"users": ["a", "b"]', '"users": [1]',
             "malformed-dataset: users: ids must be strings\n"),
        ],
        ids=[
            "nan-bound", "neg-inf-bound", "overflow-bound", "inf-attribute",
            "overflow-attribute", "overflow-rating", "nested-attribute",
            "nested-object-attribute", "nested-bound", "huge-int-rating",
            "past-digit-limit", "non-string-user",
        ],
    )
    def test_non_finite_numbers_rejected(self, capsys, tmp_path, old, new, line):
        text = json.dumps(NUMERIC_DATASET)
        assert old in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        code, out, err = run(capsys, "relax", "--data", str(path))
        assert code == EXIT_DATASET and out == ""
        # a *line* ending in a newline is the whole of stderr
        assert err.startswith("error: " + line.format(path=path)) and err.count("\n") == 1

    @staticmethod
    def run_into(stdout):
        """``groupexplain relax`` in a subprocess writing to *stdout*."""
        return subprocess.run(
            [sys.executable, "-m", "groupexplain.cli", "relax"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )

    def test_output_to_a_closed_pipe_fails_in_one_line(self):
        read, write = os.pipe()
        os.close(read)
        try:
            result = self.run_into(write)
        finally:
            os.close(write)
        assert result.returncode == EXIT_COMPUTE
        assert result.stderr == "error: output-failed: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_output_to_a_full_device_fails_in_one_line(self):
        with open("/dev/full", "w") as full:
            result = self.run_into(full)
        assert result.returncode == EXIT_COMPUTE
        assert result.stderr == "error: output-failed: [Errno 28] No space left on device\n"

    # Requests of every outcome, each with the exit code it has when both
    # streams work and whether it writes to stdout.
    STREAM_REQUESTS = {
        "success": (["relax"], EXIT_OK, True),
        "help": (["--help"], EXIT_OK, True),
        "usage-error": (["relax", "--frobnicate"], EXIT_USAGE, False),
        "dataset-error": (["relax", "--data", "/nonexistent/data.json"], EXIT_DATASET, False),
        "compute-error": (["explain-cb", "--mode", "opinion", "--item", "x11"],
                          EXIT_COMPUTE, False),
    }

    @pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    @pytest.mark.parametrize("request_", sorted(STREAM_REQUESTS))
    def test_a_failed_stream_keeps_the_exit_code(self, stream, sink, request_):
        """A failed stdout write of the result or the help exits 4 with
        output-failed; a failed stderr write keeps the code of the failure
        it reported. No traceback reaches the stream that still works."""
        argv, code, writes_stdout = self.STREAM_REQUESTS[request_]
        if sink == "full-device" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        working = "stderr" if stream == "stdout" else "stdout"
        if sink == "closed-pipe":
            read, broken = os.pipe()
            os.close(read)
        else:
            broken = os.open("/dev/full", os.O_WRONLY)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "groupexplain.cli", *argv],
                **{stream: broken, working: subprocess.PIPE},
                text=True,
                timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            )
        finally:
            os.close(broken)
        seen = getattr(result, working)
        assert "Traceback" not in seen
        if stream == "stdout" and writes_stdout:
            assert result.returncode == EXIT_COMPUTE
            assert seen.startswith("error: output-failed: ") and seen.count("\n") == 1
        else:
            assert result.returncode == code
            assert bool(seen) == (stream == "stdout" or writes_stdout)

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 200_000],
        ids=["not-utf8", "over-nested"],
    )
    def test_unreadable_json_is_malformed(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "relax", "--data", str(path))
        assert code == EXIT_DATASET and out == ""
        assert err.startswith("error: malformed-dataset") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["explain-cb", "--mode", "opinion", "--item", "t1", "--threshold", "nan"],
             "--threshold"),
            (["explain-cb", "--mode", "tags", "--threshold=-inf"], "--threshold"),
            (["explain-cb", "--mode", "tags", "--threshold", "abc"], "--threshold"),
            (["relax", "--group", "g9"], "--group"),
            (["explain-cb", "--mode", "tags", "--item", "zz9"], "--item"),
        ],
        ids=["nan-threshold", "neg-inf-threshold", "text-threshold", "relax-group",
             "tags-item"],
    )
    def test_unused_or_non_finite_argument(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["explain-cf", "--mode", "spider", "--strategy", "lms"], "--strategy"),
            (["explain-cf", "--mode", "group-histogram", "--k", "7",
              "--nn-mode", "intersection"], "--k"),
            (["explain-cb", "--mode", "category", "--threshold", "0.9"], "--threshold"),
            (["explain-cf", "--mode", "aggregation", "--nn-mode", "union"], "--nn-mode"),
            (["explain-cf", "--mode", "histogram", "--strategy", "avg"], "--strategy"),
            (["explain-cf", "--mode", "influence", "--strategy", "mpl"], "--strategy"),
        ],
        ids=[
            "spider-strategy", "group-histogram-k", "category-threshold",
            "aggregation-nn-mode", "histogram-strategy", "influence-strategy",
        ],
    )
    def test_flag_not_read_by_mode(self, capsys, argv, named):
        code, out, err = run(capsys, *argv, "--item", "t1")
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: {named} is not used by this mode\n"

    @pytest.mark.parametrize(
        "argv,flag,default",
        [
            (["explain-cf", "--mode", "aggregation", "--item", "t1"], "--strategy", "avg"),
            (["explain-cf", "--mode", "aggregation", "--item", "t1"], "--k", "2"),
            (["explain-cf", "--mode", "histogram", "--item", "t1"], "--k", "2"),
            (["explain-cf", "--mode", "histogram", "--item", "t1"], "--nn-mode", "union"),
            (["explain-cf", "--mode", "influence", "--item", "t1"], "--k", "2"),
            (["explain-cb", "--mode", "opinion", "--item", "t1"], "--threshold", "0.4"),
            (["explain-cb", "--mode", "tags"], "--threshold", "0.4"),
        ],
        ids=[
            "aggregation-strategy", "aggregation-k", "histogram-k", "histogram-nn-mode",
            "influence-k", "opinion-threshold", "tags-threshold",
        ],
    )
    def test_flag_read_by_mode_defaults(self, capsys, argv, flag, default):
        plain = run(capsys, *argv, "--format", "json")
        assert plain[0] == EXIT_OK
        assert run(capsys, *argv, "--format", "json", flag, default) == plain

    def test_no_prediction_basis(self, capsys):
        # x13 is rated by u1 only; no neighbor of any member rated it
        code, _, err = run(capsys, "explain-cf", "--item", "x13")
        assert code == EXIT_COMPUTE
        assert err.startswith("error: no-prediction-basis")

    def test_spider_needs_three_axes(self, capsys):
        code, _, err = run(capsys, "explain-cf", "--mode", "spider", "--item", "x11")
        assert code == EXIT_COMPUTE

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK


class TestMemberRule:
    """Who takes part in a CF explanation: members with a prediction."""

    def test_aggregation_over_the_members_with_a_prediction(self, capsys, dataset):
        # on x11 only u1 has a neighbor who rated it; u2 and u3 are left out
        value = predict_rating(dataset.matrix, "u1", "x11", 2)
        argv = ["explain-cf", "--item", "x11", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["scores"] == {"u1": display_round(value, 2)}
        assert payload["score"] == display_round(value, 2)
        assert payload["contributors"] == ["u1"]
        code, out, _ = run(capsys, *argv, "--privacy", "anonymous")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["contributor_count"], payload["member_count"]) == (1, 1)

    @pytest.mark.parametrize(
        "mode,error",
        [
            ("aggregation", "no-prediction-basis"),
            ("histogram", "unknown-user"),
            ("influence", "no-prediction-basis"),
        ],
    )
    def test_no_member_with_ratings(self, capsys, tmp_path, mode, error):
        doc = json.loads(builtin_dataset_path().read_text(encoding="utf-8"))
        doc["users"] += ["nobody", "none"]
        doc["groups"]["g0"] = ["nobody", "none"]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(
            capsys, "explain-cf", "--data", str(path), "--group", "g0",
            "--mode", mode, "--item", "t1",
        )
        assert code == EXIT_COMPUTE and out == ""
        assert err.startswith(f"error: {error}: no member of 'g0' ")


def _bundled_doc() -> dict:
    return json.loads(builtin_dataset_path().read_text(encoding="utf-8"))


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "data.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bars(svg_text: str) -> list[tuple[str, float]]:
    """(label, value) per bar: each bar is a rect, a value text, a label text."""
    texts = re.findall(r'font-size="12">([^<]*)</text>', svg_text)
    assert len(texts) == 2 * svg_text.count("<rect ")
    return [(label, float(value)) for value, label in zip(texts[::2], texts[1::2])]


class TestPresentation:
    """Charts show what the text and JSON show; templates fill the same way."""

    @pytest.mark.parametrize("privacy", ["named", "anonymous"])
    def test_fairness_chart_draws_the_group(self, capsys, tmp_path, privacy):
        doc = _bundled_doc()
        doc["users"].append("x9")  # in the decision history, not in g1
        doc["decision_history"]["counts"]["x9"] = [1, 4]
        path = _write(tmp_path, json.dumps(doc))
        argv = ["fairness-adapt", "--data", path, "--privacy", privacy]
        code, out, _ = run(capsys, *argv, "--format", "svg")
        assert code == EXIT_OK
        code, text, _ = run(capsys, "fairness-adapt", "--data", path, "--format", "json")
        fairness = json.loads(text)["fairness"]
        assert sorted(fairness) == ["u1", "u2", "u3"]
        labels = list(fairness)
        if privacy == "anonymous":
            labels = ["member-1", "member-2", "member-3"]
        assert _bars(out) == list(zip(labels, fairness.values()))

    def test_maut_chart_draws_importance_means(self, capsys):
        argv = ["explain-constraint", "--mode", "maut", "--item", "t1"]
        code, out, _ = run(capsys, *argv, "--format", "svg")
        assert code == EXIT_OK
        code, text, _ = run(capsys, *argv, "--format", "json")
        means = json.loads(text)["importance_means"]
        bars = _bars(out)
        assert [label for label, _ in bars] == list(means)
        assert {label: display_round(v) for label, v in bars} == means

    def test_marker_in_a_slot_fails_the_same_way_on_every_run(self, tmp_path):
        # item t1 renamed to a marker of the template it fills
        text = builtin_dataset_path().read_text(encoding="utf-8")
        path = _write(tmp_path, text.replace('"t1"', '"{category}"'))
        argv = ["explain-cb", "--mode", "category", "--item", "{category}"]
        seen = set()
        for seed in range(8):
            result = subprocess.run(
                [sys.executable, "-m", "groupexplain.cli", *argv, "--data", path],
                capture_output=True,
                text=True,
                timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR),
                     "PYTHONHASHSEED": str(seed)},
            )
            seen.add((result.returncode, result.stdout, result.stderr))
        assert seen == {(
            EXIT_COMPUTE,
            "",
            "error: missing-slot: template 'cb-category-named' "
            "left marker '{category}' unfilled\n",
        )}

    def test_huge_attribute_value_formats(self, capsys, tmp_path):
        doc = _bundled_doc()
        doc["items"]["t1"]["attributes"]["price"] = 1e30
        path = _write(tmp_path, json.dumps(doc))
        code, out, err = run(capsys, "explain-critique", "--data", path, "--item", "t1")
        assert code == EXIT_OK and err == ""
        assert "(1000000000000000019884624838656.0)" in out



def _critiques_path(tmp_path, critiques) -> str:
    """The bundled dataset with its critiques list replaced."""
    doc = _bundled_doc()
    doc["critiques"] = critiques
    return _write(tmp_path, json.dumps(doc))


def _with_extra_critique(tmp_path, **critique) -> str:
    return _critiques_path(tmp_path, _bundled_doc()["critiques"] + [critique])


class TestCritiqueRule:
    """Sentence, matrix and support of one request agree: a member is
    satisfied on an attribute when every critique they stated on it is met."""

    def test_restated_critique_is_partial(self, capsys, tmp_path):
        # u3 now asks resolution >= 20 (met) as well as >= 25 (not met)
        path = _with_extra_critique(
            tmp_path, author="u3", attribute="resolution", operator=">=", bound=20
        )
        argv = ["explain-critique", "--data", path, "--item", "t1"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert (
            "the resolution of item t1 (24) satisfies the requirements of "
            "u1 and u2, however, u3 has to accept minor drawbacks"
        ) in out
        assert "resolution: 0.75" in out.splitlines()
        code, out, _ = run(capsys, *argv, "--privacy", "anonymous")
        assert code == EXIT_OK
        assert (
            "the resolution of item t1 (24) satisfies the requirements of "
            "2 of 3 group members"
        ) in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert {"attribute": "resolution", "support": 0.75} in payload["supports"]
        assert payload["matrix"]["u3"]["resolution"] is False

    def test_support_without_a_satisfied_member(self, capsys, tmp_path):
        # u2 adds weight <= 1: one weight critique of four is met, but no
        # member has all of theirs met
        path = _with_extra_critique(
            tmp_path, author="u2", attribute="weight", operator="<=", bound=1
        )
        argv = ["explain-critique", "--data", path, "--item", "t1"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert (
            "the weight of item t1 (1.5) satisfies the requirements of none, "
            "however, u1, u2, and u3 has to accept minor drawbacks"
        ) in out
        assert "weight: 0.25" in out.splitlines()
        code, out, _ = run(capsys, *argv, "--privacy", "anonymous")
        assert (
            "the weight of item t1 (1.5) satisfies the requirements of "
            "0 of 3 group members"
        ) in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert not any(row["weight"] for row in json.loads(out)["matrix"].values())

    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    @pytest.mark.parametrize("privacy", ["named", "anonymous"])
    def test_each_critique_is_checked_once(self, capsys, monkeypatch, privacy, fmt):
        calls = []
        original = Critique.satisfied_by

        def counting(critique, item):
            calls.append(critique)
            return original(critique, item)

        monkeypatch.setattr(Critique, "satisfied_by", counting)
        argv = ["explain-critique", "--item", "t1", "--privacy", privacy]
        assert run(capsys, *argv, "--format", fmt)[0] == EXIT_OK
        # the 12 bundled critiques, each once
        assert len(calls) == 12 and len(set(calls)) == 12

    def test_first_error_in_attribute_order(self, capsys, tmp_path):
        # exchangeable_lens comes first, so u3's non-numeric comparison is
        # reached before u2's critique on an attribute t1 lacks
        path = _critiques_path(tmp_path, [
            dict(author="u1", attribute="exchangeable_lens", operator="=", bound=True),
            dict(author="u2", attribute="zoom", operator="<=", bound=5),
            dict(author="u3", attribute="exchangeable_lens", operator="<=", bound=1),
        ])
        code, out, err = run(capsys, "explain-critique", "--data", path, "--item", "t1")
        assert code == EXIT_DATASET and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid-value: ")


def test_custom_data_file(capsys, tmp_path):
    custom = {
        "users": ["a", "b"],
        "items": {
            "i1": {"attributes": {"price": 100}},
            "i2": {"attributes": {"price": 900}},
        },
        "groups": {"g": ["a", "b"]},
        "requirements": [
            {
                "id": "cheap",
                "attribute": "price",
                "operator": "<=",
                "bound": 500,
                "importance": {"a": 0.5, "b": 0.5},
            }
        ],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(custom), encoding="utf-8")
    code, out, _ = run(capsys, "relax", "--data", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["proposals"] == []
    code, out, _ = run(capsys, "relax", "--data", str(path))
    assert out == (
        "the current requirements already allow a recommendation; "
        "no relaxation is needed\n"
    )


# Records every path given to io.open (pathlib reads go through it), then
# runs one request; the last stdout line is the JSON list of those paths.
_OPEN_SPY = """
import contextlib, io, json, sys
real_open, opened = io.open, []
def spy(file, *args, **kwargs):
    opened.append(str(file))
    return real_open(file, *args, **kwargs)
io.open = spy
from groupexplain.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, opened]))
"""


@pytest.mark.parametrize(
    "argv",
    [["relax"], ["explain-critique", "--item", "t1", "--format", "svg"]],
    ids=["relax", "critique-svg"],
)
def test_request_opens_only_its_dataset(tmp_path, argv):
    path = _write(tmp_path, builtin_dataset_path().read_text(encoding="utf-8"))
    result = subprocess.run(
        [sys.executable, "-c", _OPEN_SPY, *argv, "--data", path],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [EXIT_OK, [path]]
