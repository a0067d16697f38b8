"""Every demo runs to the end: each is a subprocess with this checkout's
package first on the path, and must exit 0. Demo 04 is the only
walk-through of preemption and restructure."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    # demo 05 writes its files to a fresh temporary directory
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr + done.stdout
    assert done.stdout
