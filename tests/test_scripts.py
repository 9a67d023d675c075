"""Smoke runs of the command-line scripts at small sizes: each must import
what it uses from the library and end with exit 0 and a passing verdict."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, verdict",
    [
        ("run_basis_check.py", ["3", "5"], "  3       46      192      146       46       46  ok"),
        ("run_identity_check.py", ["40"], "verdict: all three sides agree"),
        ("run_syzygy_check.py", ["0", "0", "3"], "verdict: pass"),
    ],
)
def test_script_runs_and_passes(script, args, verdict):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert verdict in done.stdout.splitlines()
