import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))


def run_python(*argv) -> int:
    """Run `python3 argv...` from the checkout root against its src/ package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, timeout=120).returncode


@pytest.fixture
def cli(tmp_path):
    """Run one CLI command into tmp_path; returns (exit code, output path)."""

    def run(*args, name="out"):
        out = tmp_path / name
        return run_python("-m", "rydberg_frames", *args, "--out", str(out)), out

    return run
