"""The tables of the two hand-run checks, ``linecheck.py`` and ``mutants.py``,
checked statically: each still points at the source it names."""

import linecheck
import mutants


def test_each_allowed_line_occurs_once_and_carries_bytecode():
    allowed = linecheck.allowed_lines()  # raises unless each text occurs once
    assert len(allowed) == len(linecheck.ALLOWED)
    for (name, number), reason in allowed.items():
        assert reason
        assert number in linecheck.code_lines(linecheck.PACKAGE / name), (name, number)


def test_each_mutant_snippet_occurs_once_and_its_tests_exist():
    assert {mutant: mutants.problems(mutant) for mutant in mutants.MUTANTS} == {
        mutant: [] for mutant in mutants.MUTANTS
    }
    assert len({mutant.what for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_a_test_id_is_found_by_file_class_function_and_parameter():
    assert mutants.defined("tests/test_decisions.py")
    assert mutants.defined(
        "tests/test_cli.py::TestExitCodes::test_non_finite_numbers_rejected[non-string-user]"
    )
    for missing in (
        "tests/test_nothing.py",
        "tests/test_cli.py::TestNothing",
        "tests/test_cli.py::TestExitCodes::test_nothing",
        "tests/test_cli.py::TestExitCodes::test_non_finite_numbers_rejected[no-such-row]",
    ):
        assert not mutants.defined(missing), missing
