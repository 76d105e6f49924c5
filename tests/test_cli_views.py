"""Text, JSON and SVG are three views of one result, and they agree.

Each (subcommand, mode) row of ``cli._TABLE`` runs in process, in both
privacy modes, as ``text``, ``json`` and ``svg``, on the bundled dataset
(the row's argv from ``test_cli.GOLDEN_CASES``) and on the mutated copies
of ``test_cli_fuzz.mutated_datasets`` (one row only on a copy that does
not load, since the load fails before any row runs). A fourth run prints
the JSON with display rounding switched off: its numbers are the raw
values the views are made from. Then:

- the three formats end alike: one exit code and one error line;
- every text line is rebuilt from the JSON: each number in it is
  ``render.fmt_num`` of the JSON value it names;
- every JSON number is its raw value rounded to two places, halves away
  from zero, but in three fields (``JSON_SHOWN``);
- every SVG bar, axis or tag (its label, and its height, reach or size)
  comes from one series of (label, value) pairs, which the raw JSON
  carries where the JSON has it;
- anonymous output names no user, and its chart labels are
  ``member-1`` ... ``member-n`` in every view that has them.

The disagreements the views still have are named below (``SVG_VALUE_LABELS``,
``ANONYMOUS_MEMBER_CHARTS``, ``NO_SENTENCE_IN_JSON``) and asserted as they
are, so that mending one fails this test until its exception goes.
"""

import contextlib
import io
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupexplain import render, svg
from groupexplain.cli import _TABLE, main
from groupexplain.core import RATING_MAX
from groupexplain.dataset import load_dataset
from groupexplain.errors import DATASET_ERRORS
from groupexplain.render import (
    PRIVACIES,
    PRIVACY_NAMED,
    display_round,
    display_trunc,
    fmt_num,
    render_explanation,
)
from test_cli import GOLDEN_CASES
from test_cli_fuzz import BUNDLED, ITEMS, mutated_datasets

FORMATS = ("text", "json", "svg")


def _row_argv(argv):
    """The golden argv without its --format and --privacy."""
    kept, skip = [], False
    for word in argv:
        if skip:
            skip = False
        elif word in ("--format", "--privacy"):
            skip = True
        else:
            kept.append(word)
    return kept


def _row(argv):
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else None
    return argv[0], mode


ROW_ARGV = {_row(argv): _row_argv(argv) for _, argv in GOLDEN_CASES}

# --- the known disagreements -------------------------------------------------

# SVG value labels print f"{value:g}", not fmt_num, so an influence bar of
# 1/3 reads 0.333333 where the text reads 0.33; and the influence chart
# drops the "(basis-destroying)" mark the text prints.
SVG_VALUE_LABELS = "{:g}"
# The anonymous aggregation and fairness-adapt charts draw one bar per
# member, whose values the anonymous text and JSON leave out.
ANONYMOUS_MEMBER_CHARTS = {("explain-cf", "aggregation"), ("fairness-adapt", None)}
# The influence and relax JSON carry no "explanation", though the text
# prints the sentence.
NO_SENTENCE_IN_JSON = {("explain-cf", "influence"), ("relax", None)}

# How the JSON shows a raw number: to two places, halves away from zero,
# but in these top-level fields.
JSON_SHOWN = {
    "supports": display_trunc,
    "adapted_weights": lambda value: display_round(value, 4),
    "threshold": lambda value: value,
}

# --- running the views -------------------------------------------------------


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _unrounded(value, places, half_up):
    return float(value)


def _views(argv, privacy):
    """{format: (code, stdout, stderr)} for the three formats, and "raw":
    the JSON with display rounding switched off."""
    runs = {
        fmt: _main([*argv, "--privacy", privacy, "--format", fmt]) for fmt in FORMATS
    }
    with mock.patch.object(render, "_quantize", _unrounded):
        runs["raw"] = _main([*argv, "--privacy", privacy, "--format", "json"])
    return runs


# --- what each row's text and chart are made of, read from its JSON ----------


def _lines(pairs):
    return [f"{label}: {fmt_num(value)}" for label, value in pairs]


def _text(row, p, privacy):
    """The text lines the JSON payload *p* names."""
    command, mode = row
    if row in NO_SENTENCE_IN_JSON:
        assert "explanation" not in p
    if mode == "aggregation":
        slots = dict(item=p["item"], score=p["score"])
        if privacy == PRIVACY_NAMED:
            slots.update(users=p["contributors"], count=len(p["contributors"]),
                         total=len(p["scores"]))
            listed = _lines(p["scores"].items())
        else:
            slots.update(count=p["contributor_count"], total=p["member_count"])
            listed = []
        sentence = render_explanation(p["template"], privacy, slots).text
        assert sentence == p["explanation"]
        return [sentence, *listed, f"group score ({p['strategy']}): {fmt_num(p['score'])}"]
    if mode in ("histogram", "group-histogram"):
        counts = render_explanation("cf-histogram-counts", privacy, p["histogram"])
        return [p["explanation"], counts.text]
    if mode == "spider":
        return [p["explanation"], *_lines(p["ratings"].items())]
    if mode == "influence":
        top = p["ranking"][0]
        slots = dict(influencer=top["item"], item=p["item"], delta=top["delta"])
        return [render_explanation("cf-influence", privacy, slots).text] + [
            f"{r['item']}: {fmt_num(r['delta'])}"
            + (" (basis-destroying)" if r["basis_destroying"] else "")
            for r in p["ranking"]
        ]
    if mode == "category":
        return [p["explanation"], *_lines((r["category"], r["relevance"]) for r in p["ranking"])]
    if mode == "opinion":
        merged = p["pros"] + p["cons"]
        return [p["explanation"], *_lines((r["feature"], r["relevance"]) for r in merged)]
    if mode == "tags":
        return [p["explanation"]] + [
            f"{r['tag']}: preference {fmt_num(r['preference'])}, "
            f"relevance {fmt_num(r['relevance'])}"
            for r in p["tags"]
        ]
    if mode == "requirements":
        return [p["explanation"]] + [
            f"{r['requirement']}: {fmt_num(r['relevance'])}"
            + (" (causally relevant)" if r["causally_relevant"] else "")
            for r in p["ranking"]
        ]
    if mode == "maut":
        return [p["explanation"], *_lines((r["dimension"], r["relevance"]) for r in p["ranking"])]
    if command == "explain-critique":
        return [p["explanation"], *_lines((r["attribute"], r["support"]) for r in p["supports"])]
    if command == "fairness-adapt":
        lines = [p["explanation"], f"mean fairness: {fmt_num(p['mean_fairness'])}"]
        if privacy == PRIVACY_NAMED:
            lines += [f"{m}: fairness {fmt_num(f)}" for m, f in p["fairness"].items()]
        return lines
    assert command == "relax"
    return [
        render_explanation(
            "relax-proposal", privacy,
            dict(requirements=q["remove"], items=q["survivors"]),
        ).text
        for q in p["proposals"]
    ] or [render_explanation("relax-none", privacy, {}).text]


def _series(row, raw, privacy, named_raw):
    """(chart kind, the (label, value) series it draws, its scale maximum),
    read from the raw JSON *raw*; None for a row without a chart."""
    command, mode = row
    if row in ANONYMOUS_MEMBER_CHARTS:
        field, top = ("scores", 5.0) if mode == "aggregation" else ("fairness", 1.0)
        if privacy == PRIVACY_NAMED:
            return "bar", list(raw[field].items()), top
        assert field not in raw
        values = list(named_raw[field].values())
        labels = [f"member-{i}" for i in range(1, len(values) + 1)]
        return "bar", list(zip(labels, values)), top
    if mode in ("histogram", "group-histogram"):
        return "histogram", [(k, float(raw["histogram"][k])) for k in ("bad", "neutral", "good")], None
    if mode == "spider":
        return "spider", list(raw["ratings"].items()), RATING_MAX
    if mode == "influence":
        return "bar", [(r["item"], r["delta"]) for r in raw["ranking"][:10]], None
    if mode == "category":
        return "bar", [(r["category"], r["relevance"]) for r in raw["ranking"]], None
    if mode == "opinion":
        return "bar", [(r["feature"], r["relevance"]) for r in raw["pros"] + raw["cons"]], None
    if mode == "tags":
        series = sorted((r["tag"], 1.0 + 2.0 * r["preference"]) for r in raw["tags"])
        return "tag-cloud", series, None
    if mode == "requirements":
        return "bar", [(r["requirement"], r["relevance"]) for r in raw["ranking"]], None
    if mode == "maut":
        return "bar", list(raw["importance_means"].items()), None
    if command == "explain-critique":
        return "bar", [(r["attribute"], r["support"]) for r in raw["supports"]], 1.0
    assert command == "relax"
    return None


# --- reading an SVG back --------------------------------------------------------

_ELEMENT = re.compile(r'<(rect|text|polygon) ([^>]*?)/?>(?:([^<]*)</text>)?')
_ATTRIBUTE = re.compile(r'([a-z-]+)="([^"]*)"')


def _unescape(text):
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def _elements(document):
    return [
        (tag, dict(_ATTRIBUTE.findall(attributes)), _unescape(content or ""))
        for tag, attributes, content in _ELEMENT.findall(document)
    ]


def _close(drawn, expected):
    # coordinates are printed to two places
    return math.isclose(float(drawn), expected, abs_tol=0.011)


def _check_svg(document, kind, series, top, liked_by):
    elements = _elements(document)
    if kind in ("bar", "histogram"):
        vmax = max((value for _, value in series), default=0.0)
        scale = max(vmax if vmax > 0 else 1.0, top or 0.0)
        rects = [a for tag, a, _ in elements if tag == "rect"]
        texts = [c for tag, _, c in elements if tag == "text"]
        assert len(rects) == len(series) and texts[1::2] == [label for label, _ in series]
        assert texts[0::2] == [SVG_VALUE_LABELS.format(value) for _, value in series]
        for rect, (_, value) in zip(rects, series):
            assert _close(rect["height"], (svg.HEIGHT - 2 * svg.MARGIN) * (value / scale))
    elif kind == "spider":
        texts = [c for tag, _, c in elements if tag == "text"]
        assert texts == [f"{label} ({SVG_VALUE_LABELS.format(value)})" for label, value in series]
        [(_, polygon, _)] = [e for e in elements if e[0] == "polygon"]
        radius = min(svg.WIDTH, svg.HEIGHT) / 2 - svg.MARGIN
        points = [point.split(",") for point in polygon["points"].split()]
        assert len(points) == len(series)
        for (x, y), (_, value) in zip(points, series):
            reach = math.hypot(float(x) - svg.WIDTH / 2, float(y) - svg.HEIGHT / 2)
            assert _close(reach, radius * (value / top))
    else:
        assert kind == "tag-cloud"
        tags = [(a, c) for tag, a, c in elements if a.get("text-anchor") != "end"]
        assert [c for _, c in tags] == [label for label, _ in series]
        for (attributes, _), (_, scale) in zip(tags, series):
            assert _close(attributes["font-size"], 12.0 * scale)
        notes, current = {}, None
        for tag, attributes, content in elements:
            if attributes.get("text-anchor") == "end":
                notes[current] = content
            else:
                current = content
        assert notes == {t: f"({', '.join(users)})" for t, users in liked_by.items() if users}


# --- no user in anonymous output -------------------------------------------

# Words the CLI prints itself: field names, fixed labels and template words.
# A user whose id is one of them is not looked for.
CLI_WORDS = {
    word
    for text in (
        " ".join(render._TEMPLATES.values()),
        "command privacy mode group item strategy score explanation template "
        "contributors contributor_count member_count scores source histogram bad "
        "neutral good neighbors neighbor_count nn_mode neighbor_groups ratings "
        "ranking delta basis_destroying basis-destroying top category relevance "
        "threshold pros cons feature tags tag preference member_likes requirement "
        "causally_relevant causally relevant dimension importance_means supports "
        "attribute support matrix mean_fairness fairness adapted_weights upgraded "
        "upgraded_count proposals remove survivors mean member",
    )
    for word in re.findall(r"[\w-]+", text)
}


def _strings(node):
    if isinstance(node, str):
        return {node}
    if isinstance(node, dict):
        return set(node).union(*map(_strings, node.values()))
    if isinstance(node, list):
        return set().union(*map(_strings, node))
    return set()


def _outside_users(doc):
    """The strings of *doc*, keys included, but where it names a user."""
    found = set()
    for section, node in doc.items():
        if section == "users":
            continue
        if section == "groups" and isinstance(node, dict):
            found |= set(node)
        elif section == "ratings" and isinstance(node, list):
            found |= _strings([row[1:] for row in node if isinstance(row, list)])
        elif section in ("requirements", "dimensions", "critiques") and isinstance(node, list):
            found |= _strings([
                {k: v for k, v in entry.items() if k not in ("importance", "author")}
                for entry in node if isinstance(entry, dict)
            ])
        elif section in ("user_category_weights", "member_sentiments") and isinstance(node, dict):
            found |= _strings(list(node.values()))
        elif section == "decision_history" and isinstance(node, dict):
            found |= set(node) | _strings([
                value for table in node.values() if isinstance(table, dict)
                for value in table.values()
            ])
        else:
            found |= _strings(node)
    return found


def _users_to_hide(doc):
    users = doc.get("users") if isinstance(doc, dict) else None
    if not isinstance(users, list):
        return set()
    hidden = {u for u in users if isinstance(u, str) and re.fullmatch(r"[A-Za-z][\w-]+", u)}
    return hidden - _outside_users(doc) - CLI_WORDS


def _check_anonymous(runs, hidden):
    shown = re.findall(r"[\w-]+", runs["text"][1])
    shown += re.findall(r"[\w-]+", runs["json"][1])
    shown += [w for _, _, c in _elements(runs["svg"][1]) for w in re.findall(r"[\w-]+", c)]
    assert hidden.isdisjoint(shown), sorted(hidden & set(shown))


# --- the checks -------------------------------------------------------------------


def _check_json_numbers(shown, raw, show):
    if isinstance(raw, dict):
        assert isinstance(shown, dict) and list(shown) == list(raw)
        for key in raw:
            _check_json_numbers(shown[key], raw[key], show)
    elif isinstance(raw, list):
        assert isinstance(shown, list) and len(shown) == len(raw)
        for one, other in zip(shown, raw):
            _check_json_numbers(one, other, show)
    elif type(raw) is float:
        assert type(shown) is float and shown == show(raw)
    else:
        assert shown == raw


def check_row(row, argv, privacy, named_raw=None, hidden=frozenset()):
    """Run *row* as *argv* in *privacy* and check that its views agree.
    Returns the raw JSON payload, or None when the row failed."""
    runs = _views(argv, privacy)
    ends = {fmt: (code, err) for fmt, (code, _, err) in runs.items()}
    if row == ("relax", None) and ends["text"][0] == 0:
        assert ends.pop("svg") == (2, "usage error: relax has no chart; --format svg unsupported\n")
    assert len(set(ends.values())) == 1, ends
    code, err = ends["text"]
    if code != 0:
        assert err.count("\n") == 1
        return None
    payload = json.loads(runs["json"][1])
    raw = json.loads(runs["raw"][1])
    for key in raw.keys() - {"explanation"}:  # its sentence was rendered unrounded
        _check_json_numbers(payload[key], raw[key], JSON_SHOWN.get(key, display_round))
    assert runs["text"][1] == "\n".join(_text(row, payload, privacy)) + "\n"
    chart = _series(row, raw, privacy, named_raw)
    if chart is not None:
        kind, series, top = chart
        liked_by = payload.get("member_likes", {}) if row[1] == "tags" else {}
        _check_svg(runs["svg"][1], kind, series, top, liked_by)
    if row == ("explain-cf", "influence"):
        assert "basis-destroying" not in runs["svg"][1]
    if privacy != PRIVACY_NAMED:
        _check_anonymous(runs, hidden)
    return raw


def check_every_row(doc, data_path, items):
    data_path.write_text(json.dumps(doc), encoding="utf-8")
    hidden = _users_to_hide(doc)
    rows = list(ROW_ARGV.items())
    try:
        load_dataset(data_path)
    except DATASET_ERRORS:
        rows = rows[:1]  # the load fails before any row runs
    for row, argv in rows:
        argv = [*argv, "--data", str(data_path)]
        if "--item" in argv:
            argv[argv.index("--item") + 1] = items.draw(st.sampled_from(ITEMS))
        named_raw = check_row(row, argv, PRIVACY_NAMED)
        check_row(row, argv, PRIVACIES[1], named_raw, hidden)


def test_every_row_is_checked():
    assert set(ROW_ARGV) == set(_TABLE)


@pytest.mark.parametrize("row", list(ROW_ARGV), ids=[f"{c} {m}" for c, m in ROW_ARGV])
def test_the_views_agree_on_the_bundled_data(row):
    argv = ROW_ARGV[row]
    named_raw = check_row(row, argv, PRIVACY_NAMED)
    assert named_raw is not None
    hidden = _users_to_hide(BUNDLED)
    assert hidden == set(BUNDLED["users"])
    assert check_row(row, argv, PRIVACIES[1], named_raw, hidden) is not None


def test_the_known_disagreements_show_on_the_bundled_data():
    influence = _views(ROW_ARGV[("explain-cf", "influence")], PRIVACY_NAMED)
    assert "x23: 0.33" in influence["text"][1].splitlines()
    assert ">0.333333</text>" in influence["svg"][1]
    assert "x11: 0.0 (basis-destroying)" in influence["text"][1].splitlines()
    assert "explanation" not in json.loads(influence["json"][1])
    anonymous = _views(ROW_ARGV[("explain-cf", "aggregation")], PRIVACIES[1])
    assert ">4.01429</text>" in anonymous["svg"][1]
    assert "4.01" not in anonymous["text"][1] + anonymous["json"][1]


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("views") / "data.json"


@settings(max_examples=100, deadline=None)
@given(doc=mutated_datasets(), items=st.data())
def test_the_views_agree_on_mutated_data(data_path, doc, items):
    check_every_row(doc, data_path, items)
