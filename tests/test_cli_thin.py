"""``cli.py`` formats library results and makes no paradigm decision.

An AST check: the CLI ranks nothing itself (no ``sorted(..., key=...)``,
no ``.sort(key=...)``) and calls none of the functions a paradigm module
builds its decisions from; it calls the functions that return them.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "groupexplain" / "cli.py"

# The building blocks of a decision; the CLI calls the result functions
# (tag_summary, rank_requirements, rank_dimensions, ...) instead.
BUILDING_BLOCKS = {
    "aggregate",
    "requirement_relevance",
    "causally_relevant",
    "maut_relevance",
    "member_tag_preferences",
    "group_tag_relevance",
}


def _calls():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _keywords(call: ast.Call) -> set:
    return {keyword.arg for keyword in call.keywords}


def test_cli_ranks_nothing_itself():
    ranking = [
        f"line {call.lineno}: {_name(call)}"
        for call in _calls()
        if _name(call) in ("sorted", "sort") and "key" in _keywords(call)
    ]
    assert ranking == []


def test_cli_calls_no_building_block_of_a_decision():
    found = [
        f"line {call.lineno}: {_name(call)}"
        for call in _calls()
        if _name(call) in BUILDING_BLOCKS
    ]
    assert found == []


def test_the_check_sees_what_it_looks_for():
    source = "sorted(rows, key=f)\nrows.sort(key=f)\nconstraint.maut_relevance(g, d, i)"
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    assert [(_name(c), "key" in _keywords(c)) for c in calls] == [
        ("sorted", True),
        ("sort", True),
        ("maut_relevance", False),
    ]
