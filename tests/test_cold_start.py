"""A fresh CLI process imports only what its request uses.

``import groupexplain.cli`` loads neither ``cf`` nor ``svg``, and no
module of the package imports ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``tokenize``). The subprocess runs without
``site``, so no start-up hook of the environment preloads a module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WATCHED = ["dataclasses", "inspect", "groupexplain.cf", "groupexplain.svg"]

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
    assert relax[0] == 0 and relax[2] == []
    assert relax[1] == (GOLDEN_DIR / "relax.json").read_text(encoding="utf-8")
    # the spider chart reads neighbor-group ratings only: svg, but no cf
    assert spider[0] == 0 and spider[2] == ["groupexplain.svg"]
    assert spider[1] == (GOLDEN_DIR / "cf_spider_t1.svg").read_text(encoding="utf-8")
    assert histogram[0] == 0 and histogram[2] == ["groupexplain.cf", "groupexplain.svg"]
    assert histogram[1] == (GOLDEN_DIR / "cf_histogram_named.json").read_text(
        encoding="utf-8"
    )


def test_no_source_file_imports_dataclasses():
    importers = []
    for path in sorted((SRC_DIR / "groupexplain").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []
