"""Every walkthrough in demos/ runs to completion and prints its golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = ROOT / "tests" / "golden" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 4
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN_DIR / f"{demo.stem}.txt").read_bytes()
