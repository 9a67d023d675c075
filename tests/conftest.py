"""Checks that hold for every test of the suite."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or ended.
    A running one outlives its test and holds a core, and an ended one is
    a zombie; `qseries.verify_identity` reaps its forked count on every
    path, and `subprocess.run` reaps what the other tests start."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid}, ended with status {status}"
    pytest.fail(f"the test left a child process unreaped ({state})")
