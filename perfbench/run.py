"""The affbasis benchmark: cold runs of one workload, checked and timed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <basis|syzygy|identity> \
        --seed <n> --seconds <s> --trace <0|1>

One client in a closed loop: every run of the workload is a fresh child
interpreter (`child.py`), started only after the previous one has ended, so
each run pays the cache fill an `affbasis verify` user pays.  Children run
one at a time until the next one would end after `--seconds`, and at least
`MIN_CHILDREN` run.  Host speed varies by tens of percent on a shared
machine, so each figure is a median over the whole run.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, each the median
over the run: `verdict_s` (time of the workload in a child, scaled to a
reference host speed sampled during the child, see `child.Pace`),
`setup_s` (interpreter start plus import of every layer, timed by this
process around a child that only imports, scaled by the run's median pace)
and `peak_rss_mb` (the child's own peak resident set).  `--trace 1` alternates untraced children with
traced ones (`tracer.py`) and reports the per-layer metrics: medians of the
times, and counts that must repeat exactly between traced children.

Every workload is exact and deterministic, so `--seed` selects nothing: it
is accepted and recorded.  Every verdict is checked against the paper's
answers; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` (checks) and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REF_UNIT_S, SIZES, planned_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CHILDREN = 3
SETUP_PER_CHILD = 4  # set-up samples taken before each untraced child
HARD_LIMIT_S = 170  # a run never outlives this, children included
IMPORT_ALL = "import affbasis, affbasis.cli"
# per-layer figures that are counts, identical in every traced child
COUNT_SUFFIXES = (".calls", ".misses", ".hit_ratio", ".rows_in", "rank_total", "span_rows")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles from source, none writes
    return env


def time_setup(deadline: float) -> float | None:
    """Seconds to start an interpreter that imports every layer; None if it fails."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_ALL],
            env=child_env(),
            capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - start if proc.returncode == 0 else None


def run_child(workload: str, traced: bool, deadline: float) -> dict:
    """One cold child run; a child that crashes or overruns is a failed run."""
    cmd = [sys.executable, str(HERE / "child.py"), workload] + (["--trace"] if traced else [])
    attempted = planned_checks(workload, SIZES[workload])
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"attempted": attempted, "failed": attempted, "error": "timed out", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return {"attempted": attempted, "failed": attempted, "error": error, "traced": traced}
    out = json.loads(lines[-1])
    out["traced"] = traced
    return out


def measure(workload: str, seconds: int, trace: bool) -> tuple[list, list[dict]]:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    setup = []
    if not trace:
        time_setup(deadline)  # warms the file cache; not counted
    runs: list[dict] = []
    laps: list[float] = []
    while time.monotonic() < deadline:
        lap = time.monotonic()
        if not trace:
            setup += [time_setup(deadline) for _ in range(SETUP_PER_CHILD)]
        runs.append(run_child(workload, trace and len(runs) % 2 == 1, deadline))
        laps.append(time.monotonic() - lap)
        next_end = time.monotonic() - started + statistics.median(laps)
        if len(runs) >= MIN_CHILDREN and next_end > seconds:
            break
    return setup, runs


def count_key(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def terminate(signum, frame):
    # subprocess.run kills and reaps its child on any exception, this one too
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affbasis" / "__init__.py").is_file():
        print(f"no affbasis sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)

    setup, runs = measure(args.workload, args.seconds, trace)
    attempted = sum(r["attempted"] for r in runs) + len(setup)
    failed = sum(r["failed"] for r in runs) + setup.count(None)
    if None in setup:
        print(f"FAIL {args.workload}: `{IMPORT_ALL}` failed")
    setup = [s for s in setup if s is not None]
    for r in runs:
        if r["failed"]:
            print(f"FAIL {args.workload}: {r.get('failures')} {r.get('error') or ''}")
    plain = [r for r in runs if not r["traced"] and "verdict_s" in r]
    traced = [r for r in runs if r["traced"] and "layers" in r]

    values: dict = {}
    if plain:
        values["verdict_s"] = statistics.median(r["verdict_s"] for r in plain)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    if setup and plain:
        # the children's pace is this run's best measure of the host speed
        pace = REF_UNIT_S / statistics.median(r["unit_s"] for r in plain)
        values["setup_s"] = statistics.median(setup) * pace
    if traced:
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            column = [layer[name] for layer in layers]
            if count_key(name):
                if len(column) > 1:
                    attempted += 1
                if len(set(column)) > 1:
                    failed += 1
                    print(f"FAIL {args.workload}: {name} differs between traced runs: {column}")
                values[name] = column[0]
            else:
                values[name] = statistics.median(column)
        values["traced_verdict_s"] = statistics.median(r["wall_s"] for r in traced)
        if plain:
            wall = statistics.median(r["wall_s"] for r in plain)
            values["trace_overhead_s"] = values["traced_verdict_s"] - wall
        for name in sorted({m for r in traced for m in r["missing"]}):
            print(f"note: {name} is not in the library; its figures read 0")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            failed += 1
            print(f"FAIL {args.workload}: no value for {m['name']}")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(
        f"workload={args.workload} seed={args.seed} (recorded; inputs are fixed) "
        f"size={SIZES[args.workload]} children={len(runs)} setup_samples={len(setup)}"
    )
    if plain:
        print("  verdict_s:", " ".join(f"{r['verdict_s']:.3f}" for r in plain))
        print("  wall_s:", " ".join(f"{r['wall_s']:.3f}" for r in plain))
        print("  pace unit_ms:", " ".join(f"{1000 * r['unit_s']:.4f}" for r in plain))
    if setup:
        print(f"  setup_s unscaled median: {statistics.median(setup):.4f}")
    if traced:
        print("  traced wall_s:", " ".join(f"{r['wall_s']:.3f}" for r in traced))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
