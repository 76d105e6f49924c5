"""Packaging: the package-data globs ship exactly the package's data files."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupexplain"


def _package_data() -> list[str]:
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
