"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW_DEMOS = {"04_pretrain_and_transfer.py"}  # pretrains a model: ~20 s


def demo_params():
    for path in sorted((ROOT / "demos").glob("*.py")):
        marks = [pytest.mark.slow] if path.name in SLOW_DEMOS else []
        yield pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("demo", demo_params())
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
