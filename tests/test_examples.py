"""Every script under ``examples/`` runs to completion.

Each example runs in a fresh interpreter against the source tree, from
an empty working directory that it must leave empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_leaves_no_files(script, tmp_path):
    cwd = tmp_path / "cwd"
    scratch = tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=str(scratch),
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert list(cwd.iterdir()) == []
