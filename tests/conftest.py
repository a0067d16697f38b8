from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str, *flags: str):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr + done.stdout


@pytest.fixture
def run_fresh():
    """Run ``code`` in a fresh interpreter with this checkout's package
    first on the path; fail on a non-zero exit."""
    return _run


@pytest.fixture
def run_optimized():
    """``run_fresh`` under ``python -O``, where asserts vanish."""
    return lambda code: _run(code, "-O")
