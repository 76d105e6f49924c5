"""Packaging: the package-data globs ship exactly the package's data files,
and the sources parse on the oldest Python that ``requires-python`` admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupexplain"


def _package_data() -> list[str]:
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    return config["tool"]["setuptools"]["package-data"]["groupexplain"]


def test_every_glob_matches_a_file():
    for pattern in _package_data():
        assert list(PACKAGE.glob(pattern)), f"{pattern!r} matches no file"


def test_every_data_file_ships():
    shipped = {path for pattern in _package_data() for path in PACKAGE.glob(pattern)}
    data = {
        path
        for path in PACKAGE.rglob("*")
        if path.is_file()
        and path.suffix != ".py"
        and "__pycache__" not in path.relative_to(PACKAGE).parts
    }
    assert data - shipped == set()


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name
)
def test_source_parses_on_the_oldest_supported_python(path):
    config = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', config, re.M).groups()
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(int(major), int(minor)))
