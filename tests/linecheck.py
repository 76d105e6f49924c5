"""Lines of ``src/groupexplain`` that the tier-1 suite never runs.

Run by hand, from any directory::

    python3 tests/linecheck.py [pytest arguments]

It runs the ``tests/`` suite in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames of ``src/groupexplain``, and
prints every line that carries bytecode but never ran, except the lines
on ``ALLOWED``. Hypothesis draws from seed 0, so two runs on the same
source agree; arguments given are passed on to pytest after these, so
``--hypothesis-seed=1`` draws other examples. Tracing makes the suite
about 3 times slower. pytest does not collect this file (its name does
not match ``test_*.py``).

Exit status: 0 when every line outside ``ALLOWED`` ran and no allowed
line did; 1 when either fails; 2 when an allowed line's text does not
occur exactly once in its file; the suite's own status when it fails.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "groupexplain"

# (file in the package, the line's exact text without its indentation,
# why no in-process test runs it). Keyed by text, not number, so an edit
# elsewhere in the file does not move an entry.
ALLOWED = (
    ("cli.py", "except OSError as exc:",
     "_write's failed write: a closed or full stdout or stderr, only in subprocess tests"),
    ("cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)",
     "_write's failed write, only in subprocess tests"),
    ("cli.py", "os.dup2(devnull, stream.fileno())",
     "_write's failed write, only in subprocess tests"),
    ("cli.py", "os.close(devnull)",
     "_write's failed write, only in subprocess tests"),
    ("cli.py", "if stream is sys.stdout:",
     "_write's failed write, only in subprocess tests"),
    ("cli.py", "raise _OutputFailed(exc) from None",
     "_write's failed stdout write, only in subprocess tests"),
    ("cli.py", "except _OutputFailed as exc:  # a full disk or a closed pipe",
     "main's failed stdout write, only in subprocess tests"),
    ("cli.py", 'code, line = EXIT_COMPUTE, f"error: output-failed: {exc}"',
     "main's failed stdout write, only in subprocess tests"),
    ("cli.py", "sys.exit(main())",
     "runs only as python -m groupexplain.cli, in subprocess tests"),
    ("render.py", "from .cf import RatingHistogram",
     "under TYPE_CHECKING: read by type checkers, never run"),
)


def code_lines(path: Path) -> set[int]:
    """The line numbers of *path* that carry bytecode, in every code object."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: none
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def allowed_lines() -> dict[tuple[str, int], str]:
    """{(file, line number): reason} for ``ALLOWED``; ValueError unless each
    entry's text occurs exactly once in its file."""
    found = {}
    for name, text, reason in ALLOWED:
        source = (PACKAGE / name).read_text(encoding="utf-8")
        stripped = [line.strip() for line in source.splitlines()]
        if stripped.count(text) != 1:
            raise ValueError(f"{name}: {text!r} occurs {stripped.count(text)} times, not once")
        found[(name, stripped.index(text) + 1)] = reason
    return found


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on *args*, and the lines run per package file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)
    files: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            path = os.path.abspath(filename)
            files[filename] = ran[path[len(prefix):]] if path.startswith(prefix) else None
        lines = files[filename]
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(args: list[str]) -> int:
    try:
        allowed = allowed_lines()
    except ValueError as exc:
        print(f"linecheck: {exc}", file=sys.stderr)
        return 2
    # the suite as tier-1 runs it: src on the path, for in-process imports
    # and for the subprocesses the tests start
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    os.chdir(ROOT)
    status, ran = run_traced(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests", *args]
    )
    if status:
        print(f"linecheck: the suite failed (status {status})", file=sys.stderr)
        return status
    unrun = allowed_run = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.name
        lines = code_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        for number in sorted(lines - ran[name]):
            if (name, number) not in allowed:
                unrun += 1
                print(f"never run: src/groupexplain/{name}:{number}: {text[number - 1].strip()}")
        for (allowed_name, number), reason in sorted(allowed.items()):
            if allowed_name == name and number in ran[name]:
                allowed_run += 1
                print(f"allowed but run: src/groupexplain/{name}:{number}: {reason}")
    print(
        f"linecheck: {total} lines carry bytecode; {unrun} never run outside the "
        f"allow-list, {len(allowed)} allowed, {allowed_run} allowed but run"
    )
    return 1 if unrun or allowed_run else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
