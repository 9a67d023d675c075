"""Batch command line front end.

Three subcommands: `enumerate` streams the spanning-ideal partitions of a
given depth, `affbasis verify` runs one of the named check suites and emits
a JSON report (exit 0 on pass, 1 on falsification or an exception inside a
target, 2 on usage error, 3 when a truncation window is too small), and
`tables` prints fixture-format tables for diffing.  All numeric output is exact
decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .algebra import Weight, structure_witness
from .enveloping import Window, WindowError
from .partitions import (
    EXCEPTIONAL_CASES,
    SHAPE_CLASSES,
    enumerate_ideal,
    exceptional_class,
    format_partition,
    overlap_catalogue,
    parse_partition,
    quadratic_embeddings,
    quadratic_leading_labels,
    relation_set,
    shape_class_embedding_total,
)
from .relations import LeadingTermError, PremiseError

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_WINDOW = 3

ENV_PREFIX = "AFFBASIS_"


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.checks: list[dict] = []
        self.timings: dict[str, str] = {}

    def add(self, name: str, ok: bool, expected=None, actual=None, witness=None):
        entry = {"name": name, "verdict": "pass" if ok else "fail"}
        if expected is not None:
            entry["expected"] = str(expected)
        if actual is not None:
            entry["actual"] = str(actual)
        if witness is not None:
            entry["witness"] = str(witness)
        self.checks.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["verdict"] == "pass" for c in self.checks)

    def to_json(self, include_timings: bool) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "ok": self.ok,
            "checks": self.checks,
        }
        if include_timings:
            payload["timings"] = self.timings
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"{c['verdict'].upper():4}  {c['name']}"
            if "expected" in c:
                line += f"  expected={c['expected']} actual={c.get('actual')}"
            if c.get("witness"):
                line += f"  witness={c['witness']}"
            lines.append(line)
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'}: "
            f"{sum(1 for c in self.checks if c['verdict'] == 'pass')}"
            f"/{len(self.checks)} checks"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["name,verdict,expected,actual,witness"]
        for c in self.checks:
            cells = [
                c["name"],
                c["verdict"],
                c.get("expected", ""),
                c.get("actual", ""),
                c.get("witness", ""),
            ]
            lines.append(",".join('"' + cell.replace('"', '""') + '"' for cell in cells))
        return "\n".join(lines)


def _parse_weight(text: str) -> Weight:
    try:
        a1, a2 = (int(a) for a in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid weight: {text!r} (expected the form a1,a2, e.g. 2,2)"
        ) from None
    return Weight(a1, a2)


# --- verify targets -----------------------------------------------------------


def _progress(message: str) -> None:
    # progress goes to stderr so interrupted runs stay informative while
    # stdout remains byte-deterministic
    print(message, file=sys.stderr, flush=True)


def _verify_lemma1(cfg: argparse.Namespace, report: Report):
    from .relations import leading_elsewhere

    for j in range(-4, 0):
        for n in (2 * j, 2 * j - 1):
            labels = quadratic_leading_labels(n)
            wrong = leading_elsewhere(labels)
            report.add(
                f"leading-terms degree {n}",
                not wrong,
                expected="27 labels",
                actual=f"{len(labels) - len(wrong)} labels",
                witness=format_partition(wrong[0].partition()) if wrong else None,
            )


def _verify_lemma6(cfg: argparse.Namespace, report: Report):
    expected = {"j^3": 97, "(j-1)j(j+1)": 64, "(j-1)j^2": 162, "(j-1)^2j": 162}
    for cls in SHAPE_CLASSES:
        for j in (-3, -7):
            total = shape_class_embedding_total(cls, j)
            report.add(
                f"coloring total {cls} at j={j}",
                total == expected[cls],
                expected=expected[cls],
                actual=total,
            )


def _verify_lemma7(cfg: argparse.Namespace, report: Report):
    for case, (weight, cls) in EXCEPTIONAL_CASES.items():
        found, total = exceptional_class(weight, cls)
        report.add(
            f"case {case} count", len(found) == 10, expected=10, actual=len(found)
        )
        report.add(f"case {case} excess total", total == 7, expected=7, actual=total)
    bare = parse_partition("3:-2 4:-1 1:-1")
    report.add(
        "cubic leading term has no quadratic embedding",
        quadratic_embeddings(bare) == [],
        expected="[]",
        actual=str(quadratic_embeddings(bare)),
    )


def _verify_lemma12(cfg: argparse.Namespace, report: Report):
    from .fixture_io import load_lemma12_fixture

    computed = set(overlap_catalogue(-1))
    fixture = load_lemma12_fixture()
    report.add(
        "catalogue equals transcribed fixture",
        computed == fixture and len(computed) == 73,
        expected="73 pairs",
        actual=f"{len(computed)} pairs"
        + ("" if computed == fixture else ", fixture mismatch"),
    )


def _verify_prop3(cfg: argparse.Namespace, report: Report):
    from .relations import collapse_report

    values: dict[int, list] = {}
    for bound in (6, 7):
        window = Window(bound)
        for n in range(-6, 1):
            _progress(f"prop3: degree {n}, window bound {bound}")
            rep = collapse_report(n, window)
            for name in ("64", "35", "35u"):
                ok = rep[f"psi_{name}_zero"]
                actual = "0" if ok else "nonzero residual in window"
                if name in rep["zero_tensors"]:
                    actual = "zero tensor"  # its collapse vanishes with nothing read
                report.add(
                    f"psi(q{name}({n})) = 0 on depth <= {bound}",
                    ok,
                    expected="0",
                    actual=actual,
                )
            actual = f"c={rep['c']}" if rep["psi_27_match"] else "not proportional"
            report.add(
                f"psi(q27({n})) = c({n}) generator on depth <= {bound}",
                rep["psi_27_match"],
                expected="proportional",
                actual="zero tensor" if "27" in rep["zero_tensors"] else actual,
            )
            values.setdefault(n, []).append(rep["c"])
    for n, cs in values.items():
        # the collapse scalar is c(n) = -(n + 2) at every window
        report.add(
            f"c({n}) stable under window growth",
            set(cs) == {-(n + 2)},
            expected=str(-(n + 2)),
            actual="/".join(dict.fromkeys(map(str, cs))),
        )


def _verify_qdims(cfg: argparse.Namespace, report: Report):
    from .relations import syzygy_dimensions

    window = Window(cfg.window)
    expected = {"64": 64, "35": 35, "35u": 35, "27": 27}
    for n in range(-cfg.window, 3):
        _progress(f"qdims: syzygy orbits at degree {n}")
        dims = syzygy_dimensions(n, window)
        report.add(
            f"syzygy orbit dims at degree {n}",
            dims == expected,
            expected=str(sorted(expected.values())),
            actual=str(sorted(dims.values())),
        )


def _verify_theorem_a(cfg: argparse.Namespace, report: Report):
    from .relations import basis_counts_report

    for row in basis_counts_report(cfg.max_degree, progress=_progress):
        report.add(
            f"depth {row['n']}: ideal = module - rank = oracle",
            row["ok"],
            expected=row["oracle"],
            actual=f"ideal={row['ideal']} quotient={row['quotient']}",
            witness=row.get("witness"),
        )


def _verify_theorem_b(cfg: argparse.Namespace, report: Report):
    from .qseries import verify_identity

    rep = verify_identity(cfg.order)
    for name, side in (
        ("specialized ideal count", "specialized"),
        ("constrained three-color count", "constrained"),
    ):
        k = rep[f"product_vs_{side}"]
        report.add(
            f"product side = {name}",
            k is None,
            expected=f"agree to order {rep['order']}",
            actual="agree"
            if k is None
            else f"first difference at {k}: product={_coefficient(rep['product'], k)} "
            f"{side}={_coefficient(rep[side], k)}",
        )


def _coefficient(series, k: int) -> str:
    return str(series[k]) if k <= series.order else "missing"


# each target with the parsed flags it reads, which are all its report's inputs
VERIFY_TARGETS = {
    "lemma1": (_verify_lemma1, ()),
    "lemma6": (_verify_lemma6, ()),
    "lemma7": (_verify_lemma7, ()),
    "lemma12": (_verify_lemma12, ()),
    "prop3": (_verify_prop3, ()),
    "qdims": (_verify_qdims, ("window",)),
    "theorem-a": (_verify_theorem_a, ("max_degree",)),
    "theorem-b": (_verify_theorem_b, ("order",)),
}


# --- subcommands ----------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    parts = enumerate_ideal(args.degree, args.weight)
    if args.format == "json":
        payload = {
            "degree": args.degree,
            "count": len(parts),
            "partitions": [format_partition(p) for p in parts],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("partition")
        for p in parts:
            print(format_partition(p))
        print(f"# count,{len(parts)}")
    else:
        for p in parts:
            print(format_partition(p))
        print(f"count: {len(parts)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    target, flags = VERIFY_TARGETS[args.target]
    report = Report(
        command=f"verify {args.target}",
        inputs={flag: getattr(args, flag) for flag in flags},
    )
    started = time.monotonic()
    try:
        # every target builds on the sl(3) tables, so a corrupted table is a
        # failed check of its own and the target does not run
        broken = structure_witness()
        if broken is None:
            target(args, report)
        else:
            report.add(
                "sl(3) structure tables satisfy their identities", False, witness=broken
            )
    except WindowError:
        raise
    except LeadingTermError as exc:
        report.add(
            "relation leading terms lie in the color tables",
            False,
            witness=format_partition(exc.partition),
        )
    except PremiseError as exc:
        report.add(
            "degree -2 relation vectors are killed by X(1) and X(2)",
            False,
            witness=exc.witness,
        )
    except Exception as exc:
        report.add(
            "target runs without an internal error",
            False,
            witness=f"{type(exc).__name__}: {exc}",
        )
    report.timings["seconds"] = f"{time.monotonic() - started:.3f}"
    if args.format == "text":
        print(report.to_text())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(report.to_json(include_timings=args.timings))
    return EXIT_OK if report.ok else EXIT_FALSIFIED


def _relation_table(args: argparse.Namespace):
    for label in relation_set(args.j, args.j):
        yield format_partition(label.partition())


def _leading_term_table(args: argparse.Namespace):
    n = 2 * args.j if args.parity == "even" else 2 * args.j - 1
    for label in quadratic_leading_labels(n):
        yield format_partition(label.partition())


def _overlap_table(args: argparse.Namespace):
    for pi, rho in overlap_catalogue(args.j):
        yield f"{format_partition(pi)} | {format_partition(rho)}"


# each table's lines, from the parsed flags
TABLES = {"R": _relation_table, "lt-tables": _leading_term_table, "lemma12": _overlap_table}


def _cmd_tables(args: argparse.Namespace) -> int:
    for line in TABLES[args.which](args):
        print(line)
    return EXIT_OK


REPORT_FORMATS = ("text", "json", "csv")


def _report_format(text: str) -> str:
    # a `type` check, unlike `choices`, also applies to a string default,
    # so a bad AFFBASIS_FORMAT fails like a bad --format
    if text not in REPORT_FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(REPORT_FORMATS)})"
        )
    return text


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _common_flags(with_defaults: bool) -> argparse.ArgumentParser:
    """The flags accepted before and after the subcommand.  Only the
    top-level copy carries defaults: a subcommand copy leaves an unset flag
    alone, so a value given before the subcommand survives.  Defaults come
    from the environment as strings, which argparse converts and validates
    like a flag on the command line."""

    def default(name: str, fallback: str):
        if not with_defaults:
            return argparse.SUPPRESS
        return os.environ.get(ENV_PREFIX + name, fallback)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-degree",
        type=_nonnegative,
        default=default("MAX_DEGREE", "5"),
        help="largest module depth for graded verifications",
    )
    common.add_argument(
        "--window",
        type=_nonnegative,
        default=default("WINDOW", "8"),
        help="annihilation-weight bound of the truncation window",
    )
    common.add_argument(
        "--order",
        type=_nonnegative,
        default=default("ORDER", "200"),
        help="series truncation order",
    )
    common.add_argument(
        "--format",
        type=_report_format,
        default=default("FORMAT", "text"),
        help="report format: " + ", ".join(REPORT_FORMATS),
    )
    common.add_argument(
        "--timings",
        action="store_true",
        default=False if with_defaults else argparse.SUPPRESS,
        help="include wall-clock timings in JSON reports "
        "(omitted by default so identical inputs give identical bytes)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags(with_defaults=False)
    parser = argparse.ArgumentParser(
        prog="affbasis",
        parents=[_common_flags(with_defaults=True)],
        description="Exact checks for the colored-partition basis of the "
        "level-one vacuum module of affine sl(3).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_enum = sub.add_parser(
        "enumerate", parents=[common], help="stream spanning-ideal partitions"
    )
    p_enum.add_argument("--degree", "-n", type=_nonnegative, required=True)
    p_enum.add_argument(
        "--weight", type=_parse_weight, help="filter by weight, e.g. 2,2"
    )
    p_enum.set_defaults(command=_cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a named verification"
    )
    p_verify.add_argument("target", choices=sorted(VERIFY_TARGETS))
    p_verify.set_defaults(command=_cmd_verify)

    p_tables = sub.add_parser(
        "tables", parents=[common], help="emit fixture-format tables"
    )
    p_tables.add_argument("which", choices=tuple(TABLES))
    p_tables.add_argument("--j", type=int, default=-1)
    p_tables.add_argument("--parity", choices=("even", "odd"), default="even")
    p_tables.set_defaults(command=_cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.command(args)
    except WindowError as exc:
        print(f"window insufficiency: {exc}", file=sys.stderr)
        return EXIT_WINDOW


if __name__ == "__main__":
    sys.exit(main())
