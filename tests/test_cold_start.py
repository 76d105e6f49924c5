"""A fresh CLI process imports only what its request uses.

Each CLI request loads its own paradigm module and no other, ``svg`` only
for SVG output and ``decimal`` never; loading a dataset loads no paradigm
module, and no module of the package imports ``dataclasses`` (which pulls
in ``inspect``, ``ast`` and ``tokenize``). The subprocesses run without
``site``, so no start-up hook of the environment preloads a module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from groupexplain.cli import _TABLE
from test_cli import GOLDEN_CASES

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PARADIGMS = ("cb", "cf", "constraint", "critique")
WATCHED = [
    "dataclasses",
    "inspect",
    "decimal",
    *(f"groupexplain.{name}" for name in PARADIGMS),
    "groupexplain.svg",
]

# Runs one request per argv list given as JSON and prints, per request,
# its exit code, its stdout and which WATCHED modules were loaded by then.
_PROBE = """
import contextlib, io, json, sys
from groupexplain.cli import main
watched = json.loads(sys.argv[1])
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, out.getvalue(), [m for m in watched if m in sys.modules]]))
"""


def _probe(*argvs):
    result = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(WATCHED), json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_requests_load_cf_and_svg_only_when_they_use_them():
    relax, spider, histogram = _probe(
        ["relax", "--format", "json"],
        ["explain-cf", "--mode", "spider", "--item", "t1", "--format", "svg"],
        ["explain-cf", "--mode", "histogram", "--item", "t1", "--format", "json"],
    )
    assert relax[0] == 0 and relax[2] == ["groupexplain.constraint"]
    assert relax[1] == (GOLDEN_DIR / "relax.json").read_text(encoding="utf-8")
    # the spider chart reads neighbor-group ratings only: svg, but no cf
    assert spider[0] == 0
    assert spider[2] == ["groupexplain.constraint", "groupexplain.svg"]
    assert spider[1] == (GOLDEN_DIR / "cf_spider_t1.svg").read_text(encoding="utf-8")
    assert histogram[0] == 0 and histogram[2] == [
        "groupexplain.cf", "groupexplain.constraint", "groupexplain.svg"
    ]
    assert histogram[1] == (GOLDEN_DIR / "cf_histogram_named.json").read_text(
        encoding="utf-8"
    )


# The paradigm module each (subcommand, mode) row imports: its own, and
# none for the spider chart, which reads neighbor-group ratings only.
ROW_MODULE = {
    ("explain-cf", "aggregation"): "cf",
    ("explain-cf", "histogram"): "cf",
    ("explain-cf", "group-histogram"): "cf",
    ("explain-cf", "spider"): None,
    ("explain-cf", "influence"): "cf",
    ("explain-cb", "category"): "cb",
    ("explain-cb", "opinion"): "cb",
    ("explain-cb", "tags"): "cb",
    ("explain-constraint", "requirements"): "constraint",
    ("explain-constraint", "maut"): "constraint",
    ("explain-critique", None): "critique",
    ("fairness-adapt", None): "constraint",
    ("relax", None): "constraint",
}


def _row(argv: list[str]) -> tuple[str, str | None]:
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else None
    return argv[0], mode


def test_each_row_loads_its_own_paradigm_module_and_never_decimal():
    assert set(ROW_MODULE) == set(_TABLE)
    by_row = {_row(argv): (golden, argv) for golden, argv in GOLDEN_CASES}
    assert set(by_row) == set(_TABLE)  # one bundled golden argv per row
    for row, module in ROW_MODULE.items():
        golden, argv = by_row[row]
        [(code, out, loaded)] = _probe(argv)  # a fresh process per row
        expected = [f"groupexplain.{module}"] if module else []
        if argv[argv.index("--format") + 1] == "svg":
            expected.append("groupexplain.svg")
        assert (code, loaded) == (0, expected), row
        assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8"), row


def _module_level_imports(tree: ast.Module) -> set[str]:
    """Package modules imported outside functions and classes, by short name."""
    names = set()
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom) and node.level:
                module = node.module
                names.update([module.split(".")[0]] if module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("groupexplain."):
                    names.add(node.module.split(".")[1])
                elif node.module == "groupexplain":
                    names.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                names.update(
                    a.name.split(".")[1] for a in node.names
                    if a.name.startswith("groupexplain.")
                )
    return names


def test_cli_imports_no_paradigm_module_or_svg_at_module_level():
    unwanted = {*PARADIGMS, "svg"}
    sample = ast.parse(
        "from . import cb\nfrom .cf import x\nimport groupexplain.svg\n"
        "from groupexplain import critique\nif True:\n    from . import constraint\n"
        "def f():\n    from . import render\n"
    )
    assert _module_level_imports(sample) == unwanted  # the check sees each form
    imported = _module_level_imports(dict(_trees())["cli.py"])
    assert imported & unwanted == set()
    assert {"core", "dataset", "errors", "render"} <= imported


def test_loading_a_dataset_loads_no_paradigm_module():
    probe = (
        "import json, sys, groupexplain\n"
        "groupexplain.load_dataset(groupexplain.builtin_dataset_path())\n"
        "print(json.dumps(sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules)))"
    )
    unwanted = [
        *(f"groupexplain.{name}" for name in
          ("cb", "cf", "constraint", "critique", "render", "svg")),
        "decimal",
    ]
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, json.dumps(unwanted)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def _trees():
    """(file name, parsed module) for each source file of the package."""
    for path in sorted((SRC_DIR / "groupexplain").rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_source_file_imports_dataclasses():
    importers = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                importers.append(name)
    assert importers == []


def test_the_loader_imports_only_core_and_errors_from_the_package():
    imported = set()
    for node in ast.walk(dict(_trees())["dataset.py"]):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "groupexplain":
                continue  # the standard library
            module = module.removeprefix("groupexplain").lstrip(".")
            imported.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("groupexplain"))
    assert imported == {"core", "errors"}


def test_only_core_names_its_record_base_and_predicate():
    users = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named = node.id
            elif isinstance(node, ast.Attribute):
                named = node.attr
            elif isinstance(node, ast.alias):
                named = node.name
            else:
                continue
            if named in ("Frozen", "_attribute_holds"):
                users.add(name)
    assert users == {"core.py"}
