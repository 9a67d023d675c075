import ast
import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import affbasis
from affbasis.cli import (
    EXIT_FALSIFIED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WINDOW,
    VERIFY_TARGETS,
    main,
)
from affbasis.enveloping import WindowError
from reference_fixtures import load_report_schema
from reference_relations import with_stray_term


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A minimal validator covering the subset of JSON schema the report uses.
def validate(instance, schema, path="$"):
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        ok = any(
            (name == "object" and isinstance(instance, dict))
            or (name == "array" and isinstance(instance, list))
            or (name == "string" and isinstance(instance, str))
            or (name == "integer" and isinstance(instance, int) and not isinstance(instance, bool))
            or (name == "boolean" and isinstance(instance, bool))
            or (name == "null" and instance is None)
            for name in types
        )
        assert ok, f"{path}: {instance!r} is not of type {types}"
    if "enum" in schema:
        assert instance in schema["enum"], f"{path}: {instance!r} not in enum"
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            assert key in instance, f"{path}: missing required {key}"
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                validate(value, props[key], f"{path}.{key}")
            elif extra is False:
                raise AssertionError(f"{path}: unexpected property {key}")
            elif isinstance(extra, dict):
                validate(value, extra, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], f"{path}[{i}]")


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 9 and lines[-1] == "count: 8"
    code, out, _ = run(capsys, "enumerate", "--degree", "0")
    assert out.strip().splitlines() == ["-", "count: 1"]


def test_enumerate_weight_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "3", "--weight", "1,1")
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1] == "count: 5"


def test_enumerate_json_and_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 17 and len(payload["partitions"]) == 17
    code, out, _ = run(capsys, "enumerate", "--degree", "2", "--format", "csv")
    assert out.splitlines()[0] == "partition"
    assert out.strip().endswith("# count,17")


def test_usage_errors(capsys):
    code, out, err = run(capsys, "enumerate", "--degree", "-3")
    assert code == EXIT_USAGE and out == "" and "--degree" in err
    code, _, _ = run(capsys, "verify", "not-a-target")
    assert code == EXIT_USAGE
    # a small window is no usage error: theorem-a reads no window
    code, out, _ = run(capsys, "verify", "theorem-a", "--window", "3")
    assert code == EXIT_OK and out.splitlines()[-1] == "PASS: 6/6 checks"


def test_max_degree_window_bound_binds_theorem_a(capsys):
    # no window bounds the depth: the factor vectors read none, so depth 10
    # passes at the default window, and depth 8 at window 1
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-degree", "10")
    assert code == EXIT_OK and out.splitlines()[-1] == "PASS: 11/11 checks"
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-degree", "8", "--window", "1")
    assert code == EXIT_OK and out.splitlines()[-1] == "PASS: 9/9 checks"


def test_theorem_a_reaches_depth_30_with_no_window(capsys):
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-degree", "30")
    assert code == EXIT_OK and out.splitlines()[-1] == "PASS: 31/31 checks"


def test_max_degree_window_bound_spares_targets_that_do_not_read_it(capsys):
    # lemma6 reads neither flag
    code, out, _ = run(capsys, "--max-degree", "10", "verify", "lemma6")
    assert code == EXIT_OK and out.splitlines()[-1] == "PASS: 8/8 checks"


def test_negative_degree_and_order_are_usage_errors(capsys):
    code, out, err = run(
        capsys, "verify", "theorem-a", "--max-degree", "-1", "--window", "3"
    )
    assert code == EXIT_USAGE and out == "" and "--max-degree" in err
    code, out, err = run(capsys, "verify", "theorem-b", "--order", "-5")
    assert code == EXIT_USAGE and out == "" and "--order" in err
    # an empty degree range would pass qdims with no check made
    code, out, err = run(capsys, "verify", "qdims", "--window", "-3")
    assert code == EXIT_USAGE and out == "" and "--window" in err
    assert run(capsys, "verify", "theorem-b", "--order", "0")[0] == EXIT_OK


def test_malformed_weight_names_the_flag(capsys):
    for text in ("abc", "1", "1,2,3", "1,x"):
        code, out, err = run(capsys, "enumerate", "--degree", "3", "--weight", text)
        assert code == EXIT_USAGE and out == "", text
        assert "--weight" in err and "a1,a2" in err, text


def test_verify_report_validates_against_schema(capsys):
    schema = load_report_schema()
    for target in ("lemma6", "lemma7", "lemma12", "theorem-b"):
        code, out, _ = run(capsys, "verify", target, "--format", "json")
        assert code == EXIT_OK, target
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["ok"] is True


def test_verify_timings_flag(capsys):
    _, out, _ = run(capsys, "verify", "lemma6", "--format", "json")
    assert "timings" not in json.loads(out)
    _, out, _ = run(capsys, "verify", "lemma6", "--format", "json", "--timings")
    assert "timings" in json.loads(out)


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "lemma7", "--format", "json")
    _, second, _ = run(capsys, "verify", "lemma7", "--format", "json")
    assert first == second


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("target", sorted(VERIFY_TARGETS))
def test_default_report_matches_its_golden_file(capsys, monkeypatch, target):
    # the JSON report of each target at its defaults, byte for byte: a
    # refactor must keep every verdict, count and witness
    for name in os.environ:
        if name.startswith("AFFBASIS_"):
            monkeypatch.delenv(name)
    code, out, _ = run(capsys, "verify", target, "--format", "json")
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{target}.json").read_text()


def test_tables(capsys):
    _, out, _ = run(capsys, "tables", "R", "--j", "-1")
    assert len(out.strip().splitlines()) == 56
    _, out, _ = run(capsys, "tables", "lemma12", "--j", "-1")
    assert len(out.strip().splitlines()) == 73
    _, out, _ = run(capsys, "tables", "lt-tables", "--parity", "even")
    assert len(out.strip().splitlines()) == 27
    _, out, _ = run(capsys, "tables", "lt-tables", "--parity", "odd")
    assert len(out.strip().splitlines()) == 27


def test_tables_match_fixture_emission(capsys):
    _, out, _ = run(capsys, "tables", "lemma12", "--j", "-1")
    from affbasis.fixture_io import load_lemma12_fixture
    from affbasis.partitions import parse_partition

    emitted = set()
    for line in out.strip().splitlines():
        pi, rho = line.split("|")
        emitted.add((parse_partition(pi), parse_partition(rho)))
    assert emitted == load_lemma12_fixture()


def test_theorem_a_small_via_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem-a", "--max-degree", "2", "--window", "5",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 3


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "lemma6", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "name,verdict,expected,actual,witness"
    assert len(lines) == 9
    assert all('"pass"' in line for line in lines[1:])


def test_flags_before_the_subcommand_are_kept(capsys):
    code, out, _ = run(
        capsys, "--order", "5", "verify", "theorem-b", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["order"] == 5
    _, out, _ = run(
        capsys, "--order", "5", "verify", "theorem-b", "--order", "7",
        "--format", "json",
    )
    assert json.loads(out)["inputs"]["order"] == 7


def test_environment_defaults(capsys, monkeypatch):
    monkeypatch.setenv("AFFBASIS_ORDER", "7")
    _, out, _ = run(capsys, "verify", "theorem-b", "--format", "json")
    assert json.loads(out)["inputs"]["order"] == 7
    monkeypatch.setenv("AFFBASIS_WINDOW", "abc")
    code, _, err = run(capsys, "verify", "lemma6")
    assert code == EXIT_USAGE and "--window" in err


@pytest.mark.parametrize("name, value", [("ORDER", "-2"), ("MAX_DEGREE", "-1")])
def test_negative_environment_defaults_are_usage_errors(capsys, monkeypatch, name, value):
    # argparse validates an environment default like the flag it stands
    # for, even under a target that reads neither
    monkeypatch.setenv("AFFBASIS_" + name, value)
    flag = "--" + name.lower().replace("_", "-")
    code, out, err = run(capsys, "verify", "lemma6")
    assert code == EXIT_USAGE and out == ""
    assert f"argument {flag}: must be nonnegative, got {value}" in err
    # a flag on the command line replaces the default before it is read
    for argv in ([flag, "5", "verify", "theorem-b"], ["verify", "theorem-b", flag, "5"]):
        assert run(capsys, *argv)[0] == EXIT_OK, argv


def test_report_inputs_are_the_flags_the_target_reads(capsys):

    for name, (target, flags) in VERIFY_TARGETS.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(target)))
        reads = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"
        }
        assert reads == set(flags), name
    # a flag the target does not read leaves the report's bytes alone
    _, plain, _ = run(capsys, "verify", "lemma6", "--format", "json")
    _, flagged, _ = run(
        capsys, "--max-degree", "4", "--order", "9", "verify", "lemma6", "--format", "json"
    )
    assert plain == flagged and json.loads(plain)["inputs"] == {}
    _, out, _ = run(capsys, "--window", "9", "verify", "theorem-b", "--order", "5", "--format", "json")
    assert json.loads(out)["inputs"] == {"order": 5}


def test_environment_format_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("AFFBASIS_FORMAT", "csv")
    code, out, _ = run(capsys, "verify", "lemma7")
    assert code == EXIT_OK and out.startswith("name,verdict")
    monkeypatch.setenv("AFFBASIS_FORMAT", "xml")
    code, out, err = run(capsys, "verify", "lemma7")
    assert code == EXIT_USAGE and out == "" and "--format" in err
    assert run(capsys, "verify", "lemma7", "--format", "xml")[0] == EXIT_USAGE


def test_corrupted_color_table_is_a_failed_check(capsys, monkeypatch):
    from affbasis import partitions, relations

    corrupted = partitions.ADJACENT_COLOR_PAIRS[:-1] + ((8, 7),)
    monkeypatch.setattr(partitions, "ADJACENT_COLOR_PAIRS", corrupted)
    monkeypatch.setattr(relations, "ADJACENT_COLOR_PAIRS", corrupted)
    # a fresh, empty cache, so the odd echelon of R on the vacuum is rebuilt
    # against the corrupted table; lemma1 reaches it at degree -9
    fresh = functools.cache(relations._parity_basis.__wrapped__)
    monkeypatch.setattr(relations, "_parity_basis", fresh)
    code, out, _ = run(capsys, "verify", "lemma1")
    assert code == EXIT_FALSIFIED
    fail = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert len(fail) == 1 and fail[0].endswith("witness=8:-2 8:-1")
    assert out.splitlines()[-1].startswith("FAIL: ")
    # Theorem A reads its quadratics from the same echelon
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-degree", "3")
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == [
        "FAIL  relation leading terms lie in the color tables  witness=8:-2 8:-1"
    ]


def test_theorem_a_row_leading_elsewhere_names_its_partition(capsys, monkeypatch):
    from affbasis import relations
    from affbasis.enveloping import Window
    from affbasis.partitions import format_partition

    label = relations.relation_space(-3, Window(0)).labels[0]
    original = relations.relation_on_vacuum

    def without_leading_monomial(lab):
        v = original(lab)
        if lab == label:
            del v[lab.partition()]
        return v

    monkeypatch.setattr(relations, "relation_on_vacuum", without_leading_monomial)
    code, out, _ = run(capsys, "verify", "theorem-a", "--max-degree", "3")
    assert code == EXIT_FALSIFIED
    fail = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert len(fail) == 1 and fail[0].startswith("FAIL  depth 3: ")
    assert fail[0].endswith(f"  witness={format_partition(label.partition())}")
    assert out.splitlines()[-1] == "FAIL: 3/4 checks"


def test_lemma1_row_leading_elsewhere_names_its_label(capsys, monkeypatch):
    from affbasis import relations
    from affbasis.partitions import format_partition, quadratic_leading_labels

    # one row of degree -5 loses its leading monomial: that degree's line
    # alone fails, and names the label
    label = quadratic_leading_labels(-5)[4]
    original = relations.relation_on_vacuum

    def without_leading_monomial(lab):
        v = original(lab)
        if lab == label:
            del v[lab.partition()]
        return v

    monkeypatch.setattr(relations, "relation_on_vacuum", without_leading_monomial)
    code, out, _ = run(capsys, "verify", "lemma1")
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == [
        "FAIL  leading-terms degree -5  expected=27 labels actual=26 labels"
        f"  witness={format_partition(label.partition())}"
    ]
    assert out.splitlines()[-1] == "FAIL: 7/8 checks"


# Runs the command line of the package copy on sys.argv[1], which it checks
# it imported.
_RUN_COPY = (
    "import sys, affbasis.cli as cli; "
    "assert cli.__file__.startswith(sys.argv[1]), cli.__file__; "
    "sys.exit(cli.main(sys.argv[2:]))"
)


def _run_mutated_copy(tmp_path, module, old, new, *argv):
    """Runs the command line of a copy of the package in which the one
    occurrence of `old` in `module` reads `new`: a textual mutation, since
    the tables are built at import."""
    copy = shutil.copytree(
        Path(affbasis.__file__).parent, tmp_path / "affbasis",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    source = copy / module
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    return subprocess.run(
        [sys.executable, "-c", _RUN_COPY, str(copy), *argv],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("(CUBIC_A, (3, 4, 1), j)", "(CUBIC_A, (3, 4, 2), j)", "3:-2 4:-1 2:-1"),
        ("CUBIC_B: (-1, -1, 0)", "CUBIC_B: (-1, 0, 0)", "8:-2 6:-1 4:-1"),
    ],
    ids=["cubic_a_colors", "cubic_b_offsets"],
)
def test_mutated_cubic_fails_theorem_a_with_its_factor(tmp_path, old, new, witness):
    done = _run_mutated_copy(
        tmp_path, "partitions.py", old, new, "verify", "theorem-a", "--max-degree", "5"
    )
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    fail = [line for line in done.stdout.splitlines() if line.startswith("FAIL  ")]
    assert [line.split(":")[0] for line in fail] == ["FAIL  depth 4", "FAIL  depth 5"]
    assert all(line.endswith(f"  witness={witness}") for line in fail)


def test_skipped_cubics_fail_theorem_a_by_the_factor_count(tmp_path):
    # with the cubics left out of the loop every checked factor still leads
    # with itself; only the count against the closed form catches the gap
    done = _run_mutated_copy(
        tmp_path, "relations.py", "if rho.degree() == -n]",
        "if rho.degree() == -n and len(rho.colors) == 2]",
        "verify", "theorem-a", "--max-degree", "5",
    )
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    fail = [line for line in done.stdout.splitlines() if line.startswith("FAIL  ")]
    assert [line.split(":")[0] for line in fail] == ["FAIL  depth 4", "FAIL  depth 5"]
    witness = "checked 27 factors of degree -4, expected 28"
    assert all(line.endswith(f"  witness={witness}") for line in fail)


_TABLE_CHECK = "FAIL  relation leading terms lie in the color tables  witness="


# each table mutation that prop3 reads fails it: the color tables at the
# pivots of R (degree -2) and the form in the premise on R.  prop3 reads no
# odd-parity pivot, so the adjacent-pair table fails lemma1 instead (below),
# and swapped weights fail lemma7 (`test_mutation_fails_the_lemma_target`)
@pytest.mark.parametrize(
    "module, old, new, fail_line",
    [
        (
            "partitions.py", "(7, 3), (7, 4)", "(7, 2), (7, 4)",
            re.escape(_TABLE_CHECK + "7:-1 3:-1"),
        ),
        (
            "algebra.py", "FORM[(_a, _b)] = _trace(", "FORM[(_a, _b)] = 2 * _trace(",
            re.escape(
                "FAIL  degree -2 relation vectors are killed by X(1) and X(2)  "
                "witness=7:-1 6:-1 killed-by X_4(1) fails"
            ),
        ),
    ],
    ids=["same_73_to_72", "form_doubled"],
)
def test_mutated_table_fails_prop3(tmp_path, module, old, new, fail_line):
    done = _run_mutated_copy(tmp_path, module, old, new, "verify", "prop3")
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    fail = _fail_lines(done.stdout)
    assert len(fail) == 1 and re.fullmatch(fail_line, fail[0]), fail


# the adjacent-pair table holds the pivots of the odd echelon of R on the
# vacuum, built at degree -3: lemma1 passes degree -8 and fails at -9
@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("(7, 8),\n    (8, 8),\n", "(7, 8),\n", "8:-2 8:-1"),
        ("(4, 7), (4, 8)", "(4, 6), (4, 8)", "4:-2 7:-1"),
    ],
    ids=["adjacent_88_dropped", "adjacent_47_to_46"],
)
def test_mutated_table_fails_lemma1(tmp_path, old, new, witness):
    done = _run_mutated_copy(tmp_path, "partitions.py", old, new, "verify", "lemma1")
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    assert _fail_lines(done.stdout) == [_TABLE_CHECK + witness]
    assert done.stdout.splitlines()[-1] == "FAIL: 1/2 checks"


# a mutation that each of lemma7 and lemma12 sees: swapped weights move an
# excess embedding out of case a, and a transcribed overlap that no longer
# matches the computed catalogue is a mismatch
@pytest.mark.parametrize(
    "module, old, new, target, fail_line",
    [
        (
            "algebra.py",
            "for c in COLORS}\n\n",
            "for c in COLORS}\nWEIGHT[2], WEIGHT[3] = WEIGHT[3], WEIGHT[2]\n\n",
            "lemma7",
            "FAIL  case a excess total  expected=7 actual=6",
        ),
        (
            "fixtures/lemma12_overlaps.txt",
            "mark rho1.\n3:-3 3:-2 4:-1 1:-1 |",
            "mark rho1.\n3:-3 3:-2 5:-1 1:-1 |",
            "lemma12",
            "FAIL  catalogue equals transcribed fixture  expected=73 pairs "
            "actual=73 pairs, fixture mismatch",
        ),
    ],
    ids=["lemma7_weights_2_3_swapped", "lemma12_fixture_row_changed"],
)
def test_mutation_fails_the_lemma_target(tmp_path, module, old, new, target, fail_line):
    done = _run_mutated_copy(tmp_path, module, old, new, "verify", target)
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    assert _fail_lines(done.stdout) == [fail_line]


@pytest.mark.parametrize("error", [AssertionError, ValueError])
def test_internal_error_is_a_failed_check(capsys, monkeypatch, error):
    from affbasis import relations

    def broken(m):
        raise error(f"broken space {m}")

    monkeypatch.setattr(relations, "_parity_basis", broken)
    code, out, _ = run(capsys, "verify", "lemma1")
    assert code == EXIT_FALSIFIED
    lines = out.splitlines()
    assert lines[0] == (
        "FAIL  target runs without an internal error"
        f"  witness={error.__name__}: broken space -2"
    )
    assert lines[-1] == "FAIL: 0/1 checks"


def test_window_error_in_a_target_keeps_exit_3(capsys, monkeypatch):
    from affbasis import relations

    def too_small(m):
        raise WindowError("too small")

    monkeypatch.setattr(relations, "_parity_basis", too_small)
    code, out, err = run(capsys, "verify", "lemma1")
    assert code == EXIT_WINDOW
    assert out == "" and "window insufficiency: too small" in err


def test_collapse_of_a_trimmed_tensor_keeps_exit_3(capsys, monkeypatch):
    from affbasis import relations

    original = relations.syzygy_tensors

    # the 35 family loses its least slot: the collapse cannot be certified,
    # and must not report a nonzero residual
    def trimmed(n, window):
        tensors = original(n, window)
        t = tensors["35"]
        tensors["35"] = relations.LoopTensor(t.n, t.terms, t.i_lo + 1, t.i_hi)
        return tensors

    monkeypatch.setattr(relations, "syzygy_tensors", trimmed)
    code, out, err = run(capsys, "verify", "prop3")
    assert code == EXIT_WINDOW
    assert out == "" and "window insufficiency: the tensor certifies" in err


def _drop_family_0(families):
    return families[1:]


def _raise_family_0_bound(families):
    residue, d_min, bound, slots = families[0]
    return ((residue, d_min, bound + 1, slots),) + families[1:]


@pytest.mark.parametrize("mutate", [_drop_family_0, _raise_family_0_bound])
def test_corrupted_window_family_fails_theorem_b(capsys, monkeypatch, mutate):
    from affbasis import qseries

    monkeypatch.setattr(qseries, "_QUAD_FAMILIES", mutate(qseries._QUAD_FAMILIES))
    # the compiled transfer tables must be rebuilt from the corrupted families
    qseries._tricolor_table.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "theorem-b", "--order", "60")
    finally:
        qseries._tricolor_table.cache_clear()
    assert code == EXIT_FALSIFIED
    assert out.splitlines() == [
        "PASS  product side = specialized ideal count  expected=agree to order 60 actual=agree",
        "FAIL  product side = constrained three-color count  expected=agree to order 60 "
        "actual=first difference at 6: product=7 constrained=8",
        "FAIL: 1/2 checks",
    ]


def test_corrupted_specialization_fails_theorem_b_with_a_witness(capsys, monkeypatch):
    from affbasis import qseries

    monkeypatch.setattr(qseries, "_PHI_OFFSET", {**qseries._PHI_OFFSET, 8: 3})
    # a fresh memo, so the layer table is built from the corrupted offsets
    monkeypatch.setattr(qseries, "_layer_table", functools.cache(qseries._layer_table.__wrapped__))
    code, out, _ = run(capsys, "verify", "theorem-b", "--order", "60")
    assert code == EXIT_FALSIFIED
    fail = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert fail == [
        "FAIL  product side = specialized ideal count  expected=agree to order 60 "
        "actual=first difference at 5: product=5 specialized=4"
    ]


@pytest.mark.parametrize(
    "engine, forked, fail_lines",
    [
        (
            "product_side",
            False,
            [
                "FAIL  product side = specialized ideal count  expected=agree to order 60 "
                "actual=first difference at 60: product=missing specialized=84726",
                "FAIL  product side = constrained three-color count  expected=agree to order 60 "
                "actual=first difference at 60: product=missing constrained=84726",
            ],
        ),
        (
            "tricolor_count_series",
            False,
            [
                "FAIL  product side = constrained three-color count  expected=agree to order 60 "
                "actual=first difference at 60: product=84726 constrained=missing",
            ],
        ),
        (
            "specialized_count_series",
            False,
            [
                "FAIL  product side = specialized ideal count  expected=agree to order 60 "
                "actual=first difference at 60: product=84726 specialized=missing",
            ],
        ),
        (
            # the forked count's series is checked for its length when it
            # comes back, so a short one is an internal error
            "specialized_count_series",
            True,
            [
                "FAIL  target runs without an internal error  witness=RuntimeError: "
                "the specialized count's child sent 60 coefficients, not 61",
            ],
        ),
    ],
    ids=["product", "constrained", "specialized", "specialized-forked"],
)
def test_side_short_of_its_order_fails_theorem_b(capsys, monkeypatch, engine, forked, fail_lines):
    from affbasis import qseries

    full = getattr(qseries, engine)
    monkeypatch.setattr(qseries, engine, lambda order: full(order - 1))
    monkeypatch.setattr(qseries, "_FORK_FROM_ORDER", 0 if forked else 61)
    code, out, _ = run(capsys, "verify", "theorem-b", "--order", "60")
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == fail_lines


def test_mutated_product_side_fails_theorem_b(tmp_path):
    # the packed product's q^{2r} shift becomes q^{3r}: a part may now
    # appear once or three times, never twice, and both counts disagree
    done = _run_mutated_copy(
        tmp_path, "qseries.py", "shifted + (shifted >> r * width)",
        "shifted + (shifted >> 2 * r * width)", "verify", "theorem-b", "--order", "60",
    )
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    assert _fail_lines(done.stdout) == [
        "FAIL  product side = specialized ideal count  expected=agree to order 60 "
        "actual=first difference at 2: product=1 specialized=2",
        "FAIL  product side = constrained three-color count  expected=agree to order 60 "
        "actual=first difference at 2: product=1 constrained=2",
    ]


def test_undersized_count_slot_fails_theorem_b(tmp_path):
    # the counts' byte slot halved: 2 bytes at order 60, where the lemma
    # asks for 5, so a coefficient carries into its neighbour and both
    # counts disagree with the product, which keeps its own slot
    done = _run_mutated_copy(
        tmp_path, "qseries.py", "+ 7) // 8", "+ 7) // 16",
        "verify", "theorem-b", "--order", "60",
    )
    assert done.returncode == EXIT_FALSIFIED, done.stdout + done.stderr
    assert _fail_lines(done.stdout) == [
        "FAIL  product side = specialized ideal count  expected=agree to order 60 "
        "actual=first difference at 57: product=58338 specialized=58339",
        "FAIL  product side = constrained three-color count  expected=agree to order 60 "
        "actual=first difference at 57: product=58338 constrained=58339",
    ]


def test_rescaled_q27_fails_prop3(capsys, monkeypatch):
    from affbasis import relations

    original = relations._q27_combination

    def doubled():
        combo, t = original()
        return combo, 2 * t

    # psi(q27) is still proportional to the generator, with c(n) halved
    monkeypatch.setattr(relations, "_q27_combination", doubled)
    code, out, _ = run(capsys, "verify", "prop3")
    assert code == EXIT_FALSIFIED
    fail = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert fail == [
        f"FAIL  c({n}) stable under window growth  expected={-(n + 2)} actual={c}"
        for n, c in ((-6, "2"), (-5, "3/2"), (-4, "1"), (-3, "1/2"), (-1, "-1/2"), (0, "-1"))
    ]


def _fail_lines(out):
    return [line for line in out.splitlines() if line.startswith("FAIL  ")]


def test_perturbed_35_slot_fails_qdims_with_its_slot(capsys, monkeypatch):
    from affbasis import relations
    from affbasis.algebra import F1_COLOR

    original = relations.loop_action

    # double slot i = 0 of the F1(-1) image at n = -3, which only the 35
    # family's lowering reads
    def doubled(x_color, k, t):
        image = original(x_color, k, t)
        if (x_color, k, image.n) != (F1_COLOR, -1, -3):
            return image
        terms = {key: 2 * c if key[0][1] == 0 else c for key, c in image.terms.items()}
        return relations.LoopTensor(image.n, terms, image.i_lo, image.i_hi)

    monkeypatch.setattr(relations, "loop_action", doubled)
    code, out, _ = run(capsys, "--max-degree", "1", "--window", "3", "verify", "qdims")
    assert code == EXIT_FALSIFIED
    # the 35 family certifies [n - bound, bound], so its least slot is -6
    assert _fail_lines(out) == [
        "FAIL  target runs without an internal error  witness=AssertionError: "
        "35 family at n=-3, slot i=0: the slot is not a multiple of the "
        "reference vector solved from slot i=-6"
    ]


def test_lowered_reference_vector_fails_qdims_with_its_witness(capsys, monkeypatch):
    from affbasis import relations
    from affbasis.algebra import F1_COLOR

    original = relations.reference_form

    # each family's reference vector replaced by its F1(0) image, which no
    # longer generates the orbit from the top
    def lowered(family, t):
        v, profile = original(family, t)
        one_slot = {((a, 0), lab): c for (a, lab), c in v.items()}
        image = relations.loop_action(F1_COLOR, 0, relations.LoopTensor(t.n, one_slot, 0, 0))
        return {(a, lab): c for ((a, _), lab), c in image.terms.items()}, profile

    monkeypatch.setattr(relations, "reference_form", lowered)
    code, out, _ = run(capsys, "verify", "qdims")
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == [
        "FAIL  target runs without an internal error  witness=AssertionError: "
        "E1(0) does not kill the seed: X_1(0) tensor 1:-1 1:-1 survives with 3"
    ]


def _qdims_with_zero_modes(capsys, monkeypatch, mutate):
    """`verify qdims` with each color's zero-mode columns replaced by
    mutate(color, columns), and an empty orbit memo."""
    from affbasis import relations

    original = relations._zero_mode_columns
    mutated = functools.cache(lambda x_color: mutate(x_color, original(x_color)))
    monkeypatch.setattr(relations, "_zero_mode_columns", mutated)
    fresh = functools.cache(relations._orbit_dimension.__wrapped__)
    monkeypatch.setattr(relations, "_orbit_dimension", fresh)
    return run(capsys, "verify", "qdims")


def _orbit_dims_fail_lines(actual):
    return [
        f"FAIL  syzygy orbit dims at degree {n}  expected=[27, 35, 35, 64] actual={actual}"
        for n in range(-8, 3)
    ]


def test_orbits_closed_under_f1_alone_fail_qdims(capsys, monkeypatch):
    from affbasis.algebra import F2_COLOR

    # with F2(0)'s columns empty, every orbit is closed under F1(0) alone
    def f1_alone(x_color, columns):
        return tuple(() for _ in columns) if x_color == F2_COLOR else columns

    code, out, _ = _qdims_with_zero_modes(capsys, monkeypatch, f1_alone)
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == _orbit_dims_fail_lines("[2, 3, 4, 5]")
    assert out.splitlines()[-1] == "FAIL: 0/11 checks"


def test_doubled_zero_mode_coefficient_fails_qdims(capsys, monkeypatch):
    from affbasis import relations
    from affbasis.algebra import F1_COLOR

    # the bracket term of F1(0) on X_1 tensor v_L, L the generator's label,
    # doubled: the 64 family's orbit grows to 94, and the other three keep
    # their dimensions
    _, index = relations._pair_numbering()
    k = index[1, relations.quad_same_label(1, 1, -1)]

    def doubled(x_color, columns):
        if x_color != F1_COLOR:
            return columns
        (j, c), *rest = columns[k]
        return columns[:k] + (((j, 2 * c), *rest),) + columns[k + 1 :]

    code, out, _ = _qdims_with_zero_modes(capsys, monkeypatch, doubled)
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == _orbit_dims_fail_lines("[27, 35, 35, 94]")
    assert out.splitlines()[-1] == "FAIL: 0/11 checks"


# no target builds a windowed relation space or the transport, and only
# prop3 builds an algebra element: each slot body of a collapse is a mode of
# R, and lemma1 and Theorem A write each quadratic straight onto the vacuum
# from R's echelon of its parity.  A fresh memo makes those go through the
# writer, which builds two echelons, one per parity, whatever the depth
@pytest.mark.parametrize(
    "target, argv, passed, echelons",
    [
        ("lemma1", (), 8, 2),
        ("lemma6", (), 8, 0),
        ("lemma7", (), 5, 0),
        ("lemma12", (), 1, 0),
        ("prop3", (), 63, 0),
        ("qdims", (), 11, 0),
        ("theorem-a", ("--max-degree", "8"), 9, 2),
        ("theorem-b", (), 2, 0),
    ],
    ids=["lemma1", "lemma6", "lemma7", "lemma12", "prop3", "qdims", "theorem-a", "theorem-b"],
)
def test_no_target_builds_a_relation_space(
    capsys, monkeypatch, target, argv, passed, echelons
):
    from affbasis import enveloping, relations

    def disabled(*args):
        raise AssertionError(f"read by {target}")

    names = ["relation_space", "RelationSpace", "transport_matrix"]
    if target != "prop3":
        names.append("EnvElement")
        monkeypatch.setattr(enveloping, "act", disabled)
    for name in names:
        monkeypatch.setattr(relations, name, disabled)
    fresh = functools.cache(relations._parity_basis.__wrapped__)
    monkeypatch.setattr(relations, "_parity_basis", fresh)
    code, out, _ = run(capsys, "verify", target, *argv)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == f"PASS: {passed}/{passed} checks"
    assert fresh.cache_info().currsize == echelons


def test_qdims_closes_one_orbit_per_distinct_reference_vector(capsys, monkeypatch):
    from affbasis import relations

    closed = []
    original = relations.orbit_basis

    def counted(t):
        closed.append(t)
        return original(t)

    monkeypatch.setattr(relations, "orbit_basis", counted)
    fresh = functools.cache(relations._orbit_dimension.__wrapped__)
    monkeypatch.setattr(relations, "_orbit_dimension", fresh)
    # 44 families over degrees -8..2 share four reference vectors
    code, out, _ = run(capsys, "verify", "qdims")
    assert code == EXIT_OK and out.splitlines()[-1] == "PASS: 11/11 checks"
    assert len(closed) == 4


@pytest.mark.parametrize("target, passed", [("prop3", 0), ("qdims", 0)])
def test_failed_shift_premise_fails_the_syzygy_targets(capsys, monkeypatch, target, passed):
    from affbasis import relations
    from affbasis.partitions import format_partition

    label, first = next(iter(relations.r_basis().items()))
    monkeypatch.setattr(relations, "apply_mode", with_stray_term(relations.apply_mode, first))
    # fresh, empty memos, so the premise is checked again and nothing
    # computed from the corrupted vector outlives the test
    for name in ("shift_matrix", "_premise_witness", "_q27_combination"):
        monkeypatch.setattr(relations, name, functools.cache(getattr(relations, name).__wrapped__))
    code, out, _ = run(capsys, "verify", target, "--window", "3")
    assert code == EXIT_FALSIFIED
    assert _fail_lines(out) == [
        "FAIL  degree -2 relation vectors are killed by X(1) and X(2)  "
        f"witness={format_partition(label.partition())} killed-by X_4(1) fails"
    ]
    assert out.splitlines()[-1] == f"FAIL: {passed}/{passed + 1} checks"


@pytest.fixture
def fresh_memos():
    """Empty every module-level memo of the library after the test if it
    added to one, so nothing computed from a corrupted table outlives it."""
    modules = [
        importlib.import_module(f"affbasis.{info.name}")
        for info in pkgutil.iter_modules(affbasis.__path__)
    ]
    memos = list(
        {
            id(value): value
            for module in modules
            for value in vars(module).values()
            if hasattr(value, "cache_info")
        }.values()
    )
    sizes = [memo.cache_info().currsize for memo in memos]
    yield
    if [memo.cache_info().currsize for memo in memos] != sizes:
        for memo in memos:
            memo.cache_clear()


# unchecked, the flip at (1, 4) passes lemma1 and the one at (2, 3) ends in
# a window error; the table check fails both before lemma1 runs
@pytest.mark.parametrize("pair", [(1, 4), (2, 3)])
def test_sign_flipped_bracket_is_a_failed_check(capsys, monkeypatch, fresh_memos, pair):
    from affbasis import algebra

    flipped = tuple((c, -v) for c, v in algebra.BRACKET[pair])
    monkeypatch.setitem(algebra.BRACKET, pair, flipped)
    code, out, _ = run(capsys, "verify", "lemma1")
    assert code == EXIT_FALSIFIED
    a, b = pair
    assert out.splitlines() == [
        "FAIL  sl(3) structure tables satisfy their identities"
        f"  witness=antisymmetry fails at [X{a}, X{b}]",
        "FAIL: 0/1 checks",
    ]
