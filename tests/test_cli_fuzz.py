"""Fuzz the CLI failure contract with mutated copies of the bundled dataset.

Each example replaces, deletes or adds values at a few random JSON paths of
the bundled file and runs every (subcommand, mode) row of the CLI table on
the result, each with a drawn format and privacy. Whatever the data, the
CLI exits 0, 2, 3 or 4; a failure writes exactly one stderr line and a
success none; ``--format json`` output is strict JSON.

A second property adds a member without ratings to a group: no
``explain-cf`` mode may change its exit code or its output for it.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupexplain.cli import _TABLE, main
from groupexplain.dataset import builtin_dataset_path
from groupexplain.render import PRIVACIES

BUNDLED = json.loads(builtin_dataset_path().read_text(encoding="utf-8"))
KNOWN_IDS = sorted(
    {*BUNDLED["users"], *BUNDLED["items"], *BUNDLED["groups"]}
    | {entry["id"] for entry in BUNDLED["requirements"] + BUNDLED["dimensions"]}
    | set(BUNDLED["neighbor_group_ratings"])
)
KEYS = KNOWN_IDS + ["zz9", "ghost", "id", "bound", "importance", "counts", "weights"]
ITEMS = sorted(BUNDLED["items"]) + ["zz9"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([1e308, 10**30, -1, 0, 0.5, 3, 5.5]),
    st.text(max_size=4),
    st.sampled_from(KEYS),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    ),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_datasets(draw):
    doc = json.loads(json.dumps(BUNDLED))
    for _ in range(draw(st.integers(1, 2))):
        if not doc:
            break
        section = draw(st.sampled_from(sorted(doc)))
        path = (section,) + draw(st.sampled_from(list(_paths(doc[section]))))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "delete", "add"]))
        target = parent[last]
        if action == "delete":
            del parent[last]
        elif action == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(KEYS))] = draw(values)
        elif action == "add" and isinstance(target, list):
            target.insert(draw(st.integers(0, len(target))), draw(values))
        else:
            parent[last] = draw(values)
    return doc


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.json"


@settings(max_examples=120, deadline=None)
@given(doc=mutated_datasets(), draws=st.data())
def test_every_mode_keeps_the_failure_contract(data_path, doc, draws):
    data_path.write_text(json.dumps(doc), encoding="utf-8")
    for (command, mode), row in _TABLE.items():
        fmt = draws.draw(st.sampled_from(["text", "json", "svg"]))
        argv = [command, "--data", str(data_path), "--format", fmt]
        argv += ["--privacy", draws.draw(st.sampled_from(PRIVACIES))]
        if mode is not None:
            argv += ["--mode", mode]
        if row.item:
            argv += ["--item", draws.draw(st.sampled_from(ITEMS))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            assert err.getvalue() == "", argv
            if fmt == "json":
                json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert err.getvalue().count("\n") == 1, argv
            assert err.getvalue().endswith("\n"), argv


RATED_USERS = sorted({row[0] for row in BUNDLED["ratings"]})
CF_MODES = [(mode, row) for (cmd, mode), row in _TABLE.items() if cmd == "explain-cf"]
FLAG_VALUES = {
    "--k": st.sampled_from(["1", "2", "3"]),
    "--strategy": st.sampled_from(["avg", "lms", "mpl"]),
    "--nn-mode": st.sampled_from(["union", "intersection"]),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=20, deadline=None)
@given(
    members=st.lists(st.sampled_from(RATED_USERS), min_size=1, max_size=4, unique=True),
    draws=st.data(),
)
def test_member_without_ratings_changes_no_cf_output(data_path, members, draws):
    at = draws.draw(st.integers(0, len(members)))
    doc = json.loads(json.dumps(BUNDLED))
    doc["users"].append("nobody")
    doc["groups"].update(base=members, more=members[:at] + ["nobody"] + members[at:])
    data_path.write_text(json.dumps(doc), encoding="utf-8")
    item = draws.draw(st.sampled_from(sorted(BUNDLED["items"])))
    for mode, row in CF_MODES:
        flags = [x for flag in row.flags for x in (flag, draws.draw(FLAG_VALUES[flag]))]
        for privacy in PRIVACIES:
            for fmt in ("text", "json", "svg"):
                argv = ["explain-cf", "--data", str(data_path), "--mode", mode,
                        "--item", item, "--privacy", privacy, "--format", fmt, *flags]
                code, out = _run([*argv, "--group", "base"])
                more_code, more_out = _run([*argv, "--group", "more"])
                assert code in (0, 4) and more_code == code, argv
                if fmt == "json" and code == 0:
                    payload, more_payload = json.loads(out), json.loads(more_out)
                    assert payload.pop("group") == "base"
                    assert more_payload.pop("group") == "more"
                    assert more_payload == payload, argv
                else:
                    assert more_out == out, argv
