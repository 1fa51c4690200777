"""Every demo runs to completion as a script and prints something."""

import subprocess
import sys
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(_DEMOS) == 5


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
