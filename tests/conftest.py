from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_optimized():
    """Run ``code`` under ``python -O``, where asserts vanish, with this
    checkout's package first on the path; fail on a non-zero exit."""

    def run(code: str):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr + done.stdout

    return run
