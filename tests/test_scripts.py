"""Smoke runs of the command-line scripts at small sizes: each must import
what it uses from the library and end with exit 0 and a passing verdict,
or with exit 2 and a named error on a size it cannot take."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, verdict",
    [
        ("run_basis_check.py", ["3", "5"], "  3       46      192      146       46       46  ok"),
        ("run_identity_check.py", ["40"], "verdict: all three sides agree"),
        ("run_syzygy_check.py", ["0", "0", "3"], "verdict: pass"),
    ],
)
def test_script_runs_and_passes(script, args, verdict):
    done = _run(script, args)
    assert done.returncode == 0, done.stdout + done.stderr
    assert verdict in done.stdout.splitlines()


@pytest.mark.parametrize(
    "script, args, error",
    [
        ("run_basis_check.py", ["-1"], "error: max_depth must be nonnegative, got -1"),
        ("run_identity_check.py", ["-5"], "error: order must be nonnegative, got -5"),
    ],
)
def test_negative_size_is_a_named_error(script, args, error):
    done = _run(script, args)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.splitlines() == [error]
    assert done.stdout == ""
