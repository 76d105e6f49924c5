"""Mutation checks: each row breaks one line of ``src/`` and names the tests
that must then fail.

Run by hand, from any directory::

    python3 tests/mutants.py

For each row of ``MUTANTS`` it copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, replaces the row's snippet
(which must occur exactly once in its file) and runs the row's tests there
with ``pytest -x -q`` in a subprocess. A row is killed when a test fails;
it survives when they all pass. First, every named test must pass on an
unchanged copy, so that no failure is counted that the mutant did not
cause. pytest does not collect this file (its name does not match
``test_*.py``).

Exit status: 0 when every row is killed; 1 when a row survives or its
run errs; 2 when a snippet does not occur exactly once, a named test is
not defined, or a named test fails on the unchanged copy.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    what: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_CONSTRAINT = "src/groupexplain/constraint.py"
_DATASET = "src/groupexplain/dataset.py"
_CF = "src/groupexplain/cf.py"
_CORE = "src/groupexplain/core.py"
_CLI = "src/groupexplain/cli.py"
_VIEWS = "tests/test_cli_views.py::test_the_views_agree_on_the_bundled_data"
_COLUMNS = "tests/test_constraint.py::TestColumnWork::"
_RELAX = "tests/test_constraint.py::TestRelaxation::"
_PER_PAIR = "tests/test_properties.py::test_column_checks_match_the_per_pair_reference"
_LAYOUT = "tests/test_cf.py::TestMemoLayout::test_every_table_is_keyed_by_what_it_removes"
_SCORING = "tests/test_cf.py::TestInfluenceScoring::"
_WORK = "tests/test_cf.py::TestInfluenceWork::"
_GROUP_READ = "tests/test_core.py::TestMemo::test_a_group_read_moves_users_only_when_each_has_the_key"
# one round of relaxation_proposals' search after its first item's
# violation set is read: the shrink pass, then the clearing of left
_SHRINK = (
    "        removed, cover = [], every\n"
    "        for rid, meets, fails in own:\n"
    "            if shrunk := inside & meets:\n"
    "                inside = shrunk\n"
    "            else:\n"
    "                removed.append(rid)\n"
    "                cover &= fails\n"
    "        left &= ~cover\n"
)
_SURVIVORS = '        survivors = compress(ids, inside.to_bytes(len(ids), "little"))\n'

MUTANTS = (
    # the causal short-circuit and the column checks
    Mutant(
        "causal short-circuit placed before the kinds check",
        _CONSTRAINT,
        "    return not all(_verdicts(requirement, _column(requirement.attribute, items), items))",
        "    return not all(map(requirement.matches, items))",
        (_COLUMNS + "test_well_formed_catalog_makes_no_per_pair_checks", _PER_PAIR),
    ),
    Mutant(
        "item-by-item fallback stops early",
        _CONSTRAINT,
        "        return [requirement.matches(item) for item in items]",
        "        return map(requirement.matches, items)",
        (_COLUMNS + "test_an_int_subclass_value_is_checked_pair_by_pair", _PER_PAIR),
    ),
    Mutant(
        "the first requirement's verdict reused for every later one on its attribute",
        _CONSTRAINT,
        "    compare = _fast_compare(requirement.operator, kinds)\n",
        "    compare = dict([k for k in kinds if type(k) is tuple]"
        " or [(0, _fast_compare(requirement.operator, kinds))])[0]\n"
        "    kinds.add((0, compare))\n",
        (_PER_PAIR,),
    ),
    Mutant(
        "a well-formed column compared in full",
        _CONSTRAINT,
        "    return map(compare, column, repeat(requirement.bound))",
        "    return list(map(compare, column, repeat(requirement.bound)))",
        (_COLUMNS + "test_causal_relevance_compares_up_to_the_first_filtered_item",),
    ),
    Mutant(
        "an attribute's error location without .attributes",
        _DATASET,
        'f"{spot}.attributes.{name}"',
        'f"{spot}.{name}"',
        ("tests/test_cli.py::TestExitCodes::test_non_finite_numbers_rejected[overflow-attribute]",),
    ),
    Mutant(
        "constrained_items with > for >= on the key view",
        _CONSTRAINT,
        "item.attributes.keys() >= needed",
        "item.attributes.keys() > needed",
        ("tests/test_decisions.py",),
    ),
    # the relaxation search over per-requirement item masks
    Mutant(
        "the shrink pass skipped",
        _CONSTRAINT,
        "            if shrunk := inside & meets:\n",
        "            if shrunk := 0:\n",
        (
            _RELAX + "test_edge_cases_match_the_reference[superset-first]",
            _RELAX + "test_work_is_per_proposal_not_per_pattern",
        ),
    ),
    Mutant(
        "left cleared of the start item only",
        _CONSTRAINT,
        "        left &= ~cover\n",
        "        left &= left - 1\n",
        (_RELAX + "test_single_violations_over_24_requirements",),
    ),
    Mutant(
        "the all-meet early return dropped",
        _CONSTRAINT,
        "    if reduce(and_, meeting, every):\n        return []\n",
        "",
        (_RELAX + "test_satisfiable_needs_no_relaxation", _PER_PAIR),
    ),
    Mutant(
        "survivors taken before the shrink",
        _CONSTRAINT,
        _SHRINK + _SURVIVORS,
        _SURVIVORS + _SHRINK,
        (_RELAX + "test_edge_cases_match_the_reference[superset-first]",),
    ),
    # memo layout
    Mutant(
        "a ranking keyed (None, k) instead of k",
        _CF,
        "_NEAREST, k, lambda",
        "_NEAREST, (None, k), lambda",
        (_LAYOUT, "tests/test_core.py::TestMemo::test_a_value_larger_than_the_cap_is_not_kept"),
    ),
    Mutant(
        "the removal map keyed without k",
        _CF,
        "memo.get(member, _REMOVALS, k, removal_map)",
        "memo.get(member, _REMOVALS, None, removal_map)",
        (_LAYOUT, _WORK + "test_a_kept_group_at_a_new_k"),
    ),
    Mutant(
        "get storing a value another thread already kept",
        _CF,
        "            if table is not None and key in table:  # kept meanwhile: counted once\n"
        "                return table[key]\n",
        "",
        ("tests/test_core.py::TestMemo::test_two_gets_of_one_key_count_it_once",),
    ),
    # the means of a shift row
    Mutant(
        "the mean without c computed as (fsum(row.values()) - row[c]) / (n - 1)",
        _CORE,
        "    return math.fsum(chain(row.values(), (-row[without],))) / (len(row) - 1)",
        "    return (math.fsum(row.values()) - row[without]) / (len(row) - 1)",
        ("tests/test_properties.py::test_a_mean_without_an_item_is_the_mean_of_the_others",),
    ),
    Mutant(
        "a user who rated the removed item keeps its plain mean",
        _CF,
        "        if candidate in ratings:\n            return _mean(ratings, candidate)\n",
        "",
        ("tests/test_properties.py::test_influence_forced_cases",),
    ),
    # influence candidates scored as columns
    Mutant(
        "an influence mean taken over all members",
        _CF,
        "deltas = map(truediv, map(math.fsum, shifts), map(len, shifts))",
        "deltas = map(truediv, map(math.fsum, shifts), repeat(len(member_rows)))",
        (_SCORING + "test_a_candidate_that_removes_one_basis_is_scored_over_the_others",),
    ),
    Mutant(
        "the None count ignored",
        _CF,
        "missing = list(map(tuple.count, shifts, repeat(None)))",
        "missing = [0] * len(shifts)",
        (_SCORING + "test_a_candidate_that_removes_one_basis_is_scored_over_the_others",),
    ),
    Mutant(
        "the None count ignored in the flags",
        _CF,
        "map(bool, missing))",
        "repeat(False))",
        (
            _SCORING + "test_a_candidate_that_removes_one_basis_is_scored_over_the_others",
            "tests/test_cf.py::TestInfluenceWork::test_a_kept_removal_without_basis_is_flagged_again",
        ),
    ),
    Mutant(
        "the influence tie order flipped",
        _CF,
        "results.sort(key=itemgetter(1), reverse=True)",
        "results.sort(key=lambda r: (r.delta, r.item), reverse=True)",
        (
            _SCORING + "test_equal_deltas_rank_by_ascending_id",
            "tests/test_cf.py::TestInfluence::test_sorted_by_delta_then_id",
        ),
    ),
    # the group read of the kept shift rows
    Mutant(
        "the group read keyed (target, 2), not (target, k)",
        _CF,
        "memo.every(group.members, _SHIFTS, (target, k))",
        "memo.every(group.members, _SHIFTS, (target, 2))",
        (_WORK + "test_a_kept_group_at_a_new_k",),
    ),
    Mutant(
        "a member without a kept row left out of the group read, not a miss",
        _CF,
        "                    return None\n                found.append(",
        "                    continue\n                found.append(",
        (_WORK + "test_two_members_kept_and_two_new",),
    ),
    Mutant(
        "the rows before the first member without one used, no fallback",
        _CF,
        "                    return None\n                found.append(",
        "                    return found or None\n                found.append(",
        (_WORK + "test_two_members_kept_and_two_new",),
    ),
    Mutant(
        "a group read that misses moves the users read before the miss",
        _CF,
        "                found.append(entry[slot][key])\n"
        "            for user in users:\n                self._entries.move_to_end(user)\n",
        "                found.append(entry[slot][key])\n"
        "                self._entries.move_to_end(user)\n",
        (_GROUP_READ,),
    ),
    Mutant(
        "a group read that hits moves no user",
        _CF,
        "            for user in users:\n                self._entries.move_to_end(user)\n"
        "        return found\n",
        "        return found\n",
        (_GROUP_READ, _WORK + "test_the_group_read_leaves_the_memo_as_member_reads_do"),
    ),
    # the shift row's candidates
    Mutant(
        "no _predict for a member who is the only rater of a removed item",
        _CF,
        "        after = _predict(matrix, member, target, removals.get(candidate, nearest), mean)\n",
        "        if candidate in own and candidate not in removals:\n            continue\n"
        "        after = _predict(matrix, member, target, removals.get(candidate, nearest), mean)\n",
        ("tests/test_properties.py::test_influence_forced_cases",),
    ),
    Mutant(
        "the 0.0 shortcut taken for an item only a neighbor who rated the target rated",
        _CF,
        "    for candidate in set(own).union(*voting) - {target}:",
        "    for candidate in set(own) - {target}:",
        ("tests/test_properties.py::test_influence_forced_cases",),
    ),
    # the loader's and the relaxation's raise-only checks
    Mutant(
        "_check_rating_row without its user check",
        _DATASET,
        '    _known(row[0], known_users, "user", where)\n',
        "",
        (
            "tests/test_dataset.py::TestUnresolvedIds::test_rating_unknown_user",
            "tests/test_dataset.py::test_ratings_rows_match_the_reference_check",
        ),
    ),
    Mutant(
        "the weight error built without _number",
        _DATASET,
        "{_number(value, spot)} outside [0, 1]",
        "{value} outside [0, 1]",
        ("tests/test_dataset.py::TestInvalidValues::test_a_weight_error_comes_from_the_number_check",),
    ),
    Mutant(
        "relaxation_proposals' bare raise replaced by pass",
        _CONSTRAINT,
        "            raise first from None\n        raise\n",
        "            raise first from None\n        pass\n",
        (_RELAX + "test_a_column_error_the_item_by_item_check_misses_is_raised",),
    ),
    # the CLI's imports, its templates and its three views
    Mutant(
        "a module-level paradigm import in cli.py",
        _CLI,
        "from .dataset import Dataset, builtin_dataset_path, load_dataset\n",
        "from .dataset import Dataset, builtin_dataset_path, load_dataset\nfrom . import cf\n",
        (
            "tests/test_cold_start.py::test_cli_imports_no_paradigm_module_or_svg_at_module_level",
            "tests/test_cold_start.py::test_requests_load_cf_and_svg_only_when_they_use_them",
        ),
    ),
    Mutant(
        "render_explanation filling one slot at a time with str.replace",
        "src/groupexplain/render.py",
        "    text = _SLOT.sub(fill, _TEMPLATES[resolved])\n",
        "    text = _TEMPLATES[resolved]\n"
        "    for marker in _SLOT.findall(text):\n"
        "        text = text.replace(f\"{{{marker}}}\", fill(_SLOT.search(f\"{{{marker}}}\")))\n",
        ("tests/test_render.py::TestTemplates::test_smuggled_marker_is_not_filled",),
    ),
    Mutant(
        "the text view formatting a number with str()",
        _CLI,
        "v if isinstance(v, str) else fmt_num(v) for v in values",
        "str(v) for v in values",
        (_VIEWS,),
    ),
    Mutant(
        "the chart series built from the JSON's rounded values",
        _CLI,
        'return ChartData(kind="bar", series=tuple(series), meta=meta)',
        'return ChartData(kind="bar", series=tuple((k, display_round(v)) for k, v in series), meta=meta)',
        (_VIEWS,),
    ),
)


def defined(test_id: str) -> bool:
    """Whether *test_id* (``file::Class::test[param]``) names a test in the
    source: the file, each class or function by name, and a parameter id
    as a string constant in the test's decorators."""
    path, *names = test_id.split("::")
    if not (ROOT / path).is_file():
        return False
    param = None
    if names and names[-1].endswith("]"):
        names[-1], param = names[-1][:-1].split("[", 1)
    node: ast.AST = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for name in names:
        node = next(
            (
                child
                for child in node.body
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
            ),
            None,
        )
        if node is None:
            return False
    return param is None or any(
        isinstance(const, ast.Constant) and const.value == param
        for decorator in node.decorator_list
        for const in ast.walk(decorator)
    )


def problems(mutant: Mutant) -> list[str]:
    """What keeps *mutant* from running: a snippet not found exactly once,
    a replacement equal to it, a named test not defined."""
    found = []
    count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)
    if count != 1:
        found.append(f"snippet occurs {count} times in {mutant.file}, not once")
    if mutant.replacement == mutant.snippet:
        found.append("replacement equals the snippet")
    found.extend(f"no test {test_id}" for test_id in mutant.tests if not defined(test_id))
    return found


def run(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """pytest's run of *tests* on a copy of the repository, with *mutant*
    applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            target = copy / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                raise RuntimeError(f"{mutant.what}: snippet not found exactly once")
            target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )


def main() -> int:
    broken = [f"{m.what}: {problem}" for m in MUTANTS for problem in problems(m)]
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 2
    start = time.monotonic()
    control = run(sorted({test for mutant in MUTANTS for test in mutant.tests}))
    if control.returncode != 0:
        print(control.stdout[-2000:] + control.stderr[-2000:])
        print("mutants: the named tests do not pass on the unchanged source", file=sys.stderr)
        return 2
    killed = 0
    for number, mutant in enumerate(MUTANTS, 1):
        began = time.monotonic()
        result = run(mutant.tests, mutant)
        if result.returncode == pytest.ExitCode.TESTS_FAILED:
            outcome, killed = "killed", killed + 1
        elif result.returncode == 0:
            outcome = "SURVIVED"
        else:
            outcome = f"ERROR (pytest status {result.returncode})"
        print(
            f"[{number}/{len(MUTANTS)}] {outcome} in {time.monotonic() - began:.1f} s: "
            f"{mutant.what} ({mutant.file})",
            flush=True,
        )
        if outcome.startswith("ERROR"):
            print(result.stdout[-2000:] + result.stderr[-2000:])
    print(f"mutants: {killed} of {len(MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
