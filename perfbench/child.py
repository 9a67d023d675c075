"""One cold run of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py <basis|syzygy|identity> [--tiny] [--trace]

Imports `affbasis` from the checkout's `src/`, runs the workload through the
library's public functions, checks every verdict against the paper's
answers, and prints one JSON line: the time from the first call into
`affbasis` to the last verdict (see `Pace`), the process's own peak RSS,
the checks attempted and failed, and (with `--trace`) the per-layer figures
of `tracer.Tracer`.  Every run starts with empty caches, as a user's
`affbasis verify` does.  An exception, `WindowError` included, is reported
as the failure of every check the run had not yet made; it never escapes.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Theorem A: ideal count = module dimension - submodule rank = oracle, depths 0..6
BASIS_COUNTS = (1, 8, 17, 46, 98, 198, 371)
ORBIT_DIMS = {"64": 64, "35": 35, "35u": 35, "27": 27}
# psi_27 collapses to c(n) times the generator x1(.)x1(.); c(n) is the same
# on windows 3, 4 and 6 (c(-2) = 0, so proportionality alone is not enough)
C27 = {-3: 1, -2: 0, -1: -1, 0: -2}

SIZES = {
    "basis": {"depth": 5, "window": 8},
    "syzygy": {"degrees": (0, 0), "window": 3},
    "identity": {"order": 1000},
}
TINY = {
    "basis": {"depth": 4, "window": 8},
    "syzygy": {"degrees": (0, 0), "window": 1},
    "identity": {"order": 200},
}


PACE_PERIOD_S = 0.02
REF_UNIT_S = 3e-4  # the pace unit's time on the reference host


def pace_unit() -> Fraction:
    """A fixed piece of pure-Python work of the library's kind: a dict keyed
    by tuples and a sum of Fractions.  About 0.3 ms."""
    table: dict = {}
    total = Fraction(0)
    for i in range(300):
        key = (i * 7919) % 101, i & 7
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            total += Fraction(i, 7)
    return total


class Pace:
    """Host speed, sampled while the workload runs.

    On a shared host the speed of one core drifts by tens of percent within
    seconds to minutes (other tenants share its caches and its hyperthread
    sibling), and CPU time drifts with wall time.  A timer interrupts the
    workload every `PACE_PERIOD_S` to time one `pace_unit`, on the same core
    at the same moment.  `verdict_s` is the workload's wall time without the
    samples, scaled by `REF_UNIT_S` / `unit_s()`: the time the run would
    have taken on a host where the unit takes `REF_UNIT_S`.  The unit is the
    benchmark's own code, so a change to the library moves the wall time and
    leaves the scale alone.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        pace_unit()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Pace":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a run shorter than one period
            self._tick(None, None)

    def unit_s(self) -> float:
        """The harmonic mean of the samples.  They are evenly spaced in wall
        time and the work done in a stretch of time is inversely proportional
        to the unit time there, so this is the mean unit time per work done."""
        return statistics.harmonic_mean(self.samples)


def planned_checks(workload: str, size: dict) -> int:
    """Checks one run makes, one of them the size check."""
    if workload == "basis":
        return 1 + 3 * (size["depth"] + 1)
    if workload == "syzygy":
        lo, hi = size["degrees"]
        return 1 + 9 * (hi - lo + 1)
    return 3


class Gate:
    def __init__(self, planned: int):
        self.planned = planned
        self.passed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        """Failed checks, counting every planned check not made."""
        return self.planned - self.passed


def run_basis(size: dict, gate: Gate) -> None:
    from affbasis.enveloping import Window
    from affbasis.relations import basis_counts_report

    depth = size["depth"]
    rows = basis_counts_report(depth, Window(size["window"]))
    gate.check("depth rows", [r["n"] for r in rows] == list(range(depth + 1)))
    for n, row in zip(range(depth + 1), rows):
        for key in ("ideal", "quotient", "oracle"):
            gate.check(f"{key}[{n}] = {BASIS_COUNTS[n]}", row[key] == BASIS_COUNTS[n])


def run_syzygy(size: dict, gate: Gate) -> None:
    from affbasis.enveloping import Window
    from affbasis.relations import collapse_report, syzygy_dimensions

    window = Window(size["window"])
    lo, hi = size["degrees"]
    seen = []
    for n in range(lo, hi + 1):
        dims = syzygy_dimensions(n, window)
        for family, dim in ORBIT_DIMS.items():
            gate.check(f"dim {family} at {n}", dims.get(family) == dim)
        rep = collapse_report(n, window)
        seen.append((rep["n"], rep["bound"]))
        for family in ("64", "35", "35u"):
            gate.check(f"psi_{family} = 0 at {n}", rep[f"psi_{family}_zero"] is True)
        gate.check(f"psi_27 ~ generator at {n}", rep["psi_27_match"] is True)
        gate.check(f"c({n}) = {C27[n]}", rep["c"] == C27[n])
    gate.check("degree range", seen == [(n, window.annihilation_bound) for n in range(lo, hi + 1)])


def run_identity(size: dict, gate: Gate) -> None:
    from affbasis.qseries import verify_identity

    order = size["order"]
    rep = verify_identity(order)
    sides = (rep["product"], rep["specialized"], rep["constrained"])
    gate.check(
        "order",
        rep["order"] == rep["sum_order"] == order and all(s.order == order for s in sides),
    )
    gate.check("product = specialized", rep["product_vs_specialized"] is None)
    gate.check("product = constrained", rep["product_vs_constrained"] is None)


RUNNERS = {"basis": run_basis, "syzygy": run_syzygy, "identity": run_identity}


def main(argv: list[str]) -> int:
    workload = argv[0]
    size = (TINY if "--tiny" in argv else SIZES)[workload]
    gate = Gate(planned_checks(workload, size))
    sys.path.insert(0, str(SRC))
    import affbasis

    if not Path(affbasis.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"affbasis imported from {affbasis.__file__}, not from {SRC}")
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer.install()
    pace = Pace()
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            with pace:
                RUNNERS[workload](size, gate)
        else:  # the sampler's ticks would land in the layers' self time
            RUNNERS[workload](size, gate)
    except Exception as exc:  # reported as failed checks, see the module docstring
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start - sum(pace.samples)
    out = {
        "workload": workload,
        "size": size,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.planned,
        "failed": gate.failed,
        "failures": gate.failures,
        "error": error,
    }
    if tracer is None:
        out["unit_s"] = pace.unit_s()
        out["verdict_s"] = wall_s * REF_UNIT_S / out["unit_s"]
    else:
        layers = tracer.metrics()
        layers["unattributed_s"] = wall_s - layers.pop("attributed_s")
        out["layers"] = layers
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
