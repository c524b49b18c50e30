"""Every demo script runs to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


def test_decoding_demo_verdicts():
    # Greedy takes the trap; beam:10 and mcts:20 recover the intended object.
    result = run_demo(ROOT / "demos" / "03_decoding_strategies.py")
    verdicts = {
        line.split()[0]: line for line in result.stdout.splitlines() if " -> " in line
    }
    assert verdicts["greedy"].endswith("complete but wrong content")
    assert verdicts["beam:10"].endswith("exact match")
    assert verdicts["mcts:20"].endswith("exact match")
