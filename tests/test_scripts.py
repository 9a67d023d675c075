"""Smoke runs of the command-line scripts at small sizes: each must import
what it uses from the library and end with exit 0 and a passing verdict,
with exit 2 and a named error on an argument it cannot take, or with exit 3
on a window too small to certify, as `affbasis` does."""

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
        ("run_basis_check.py", ["3"], "  3       46      192      146       46       46  ok"),
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
        # run_basis_check.py takes no window
        ("run_basis_check.py", ["8", "1"], "error: takes at most one argument, got 2"),
        ("run_syzygy_check.py", ["0", "0", "-1"], "error: window must be nonnegative, got -1"),
        ("run_identity_check.py", ["abc"], "error: invalid literal for int() with base 10: 'abc'"),
        ("run_basis_check.py", ["x"], "error: invalid literal for int() with base 10: 'x'"),
        ("run_syzygy_check.py", ["0", "0", "x"], "error: invalid literal for int() with base 10: 'x'"),
        # an empty degree range would pass with no check made
        ("run_syzygy_check.py", ["1", "0"], "error: n_min (1) must be at most n_max (0)"),
        # an argument past the last one a script takes is not dropped
        ("run_identity_check.py", ["10", "20"], "error: takes at most one argument, got 2"),
        (
            "run_syzygy_check.py", ["0", "0", "3", "9"],
            "error: takes at most three arguments, got 4",
        ),
    ],
)
def test_negative_size_is_a_named_error(script, args, error):
    done = _run(script, args)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.splitlines() == [error]
    assert done.stdout == ""


@pytest.mark.parametrize(
    "script, args, error",
    [
        (
            "run_syzygy_check.py", ["1", "1", "0"],
            "window insufficiency: window 0 holds no monomial of degree 1, which weighs at least 1",
        ),
        (
            "run_syzygy_check.py", ["2", "2", "1"],
            "window insufficiency: window 1 holds no monomial of degree 2, which weighs at least 2",
        ),
    ],
)
def test_window_too_small_exits_3(script, args, error):
    done = _run(script, args)
    assert done.returncode == 3, done.stdout + done.stderr
    assert done.stderr.splitlines() == [error]
    assert "verdict" not in done.stdout
