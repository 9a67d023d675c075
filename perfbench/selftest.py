"""Self-test of the benchmark harness at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For each workload, two traced cold runs at the `child.TINY` sizes (Theorem A
to depth 4, the syzygies at n = 0 on Window(1), Theorem B to order 200).
Both must pass every check and repeat every count exactly, and the time
spent outside every wrapped layer call must stay below a tenth of the traced
verdict time.  Prints one line per workload; exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

from child import TINY
from run import HERE, child_env, count_key


def traced_tiny_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, "--tiny", "--trace"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in TINY:
        first, second = traced_tiny_run(workload), traced_tiny_run(workload)
        for run in (first, second):
            if run["failed"] or run["error"]:
                problems.append(f"{workload}: {run['failures']} {run['error'] or ''}")
            if run["layers"]["unattributed_s"] >= 0.1 * run["wall_s"]:
                problems.append(f"{workload}: unattributed {run['layers']['unattributed_s']:.3f} s")
        counts = {k: v for k, v in first["layers"].items() if count_key(k)}
        differ = [k for k, v in counts.items() if second["layers"][k] != v]
        if differ:
            problems.append(f"{workload}: counts differ between traced runs: {differ}")
        for name in first["missing"]:
            print(f"note: {name} is not in the library; its figures read 0")
        print(
            f"{workload} {first['size']}: checks {first['attempted']} x2, failed "
            f"{first['failed'] + second['failed']}, {len(counts)} counts "
            f"{'repeat' if not differ else 'DIFFER'}, unattributed "
            f"{first['layers']['unattributed_s']:.3f} of {first['wall_s']:.2f} s"
        )
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
