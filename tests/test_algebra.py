import ast
import builtins
import importlib
import importlib.util
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import affbasis
from affbasis.algebra import (
    BRACKET,
    COLORS,
    FORM,
    WEIGHT,
    Weight,
    bracket,
    invariant_form,
    structure_witness,
)


def X(color):
    return {color: 1}


def test_bracket_chevalley_examples():
    assert bracket(X(2), X(3)) == {1: 1}
    assert bracket(X(4), X(4)) == {}
    assert bracket(X(1), X(8)) == {4: 1, 5: 1}
    assert bracket(X(2), X(7)) == {4: 1}
    assert bracket(X(4), X(2)) == {2: 2}


def test_form_values():
    assert invariant_form(X(2), X(7)) == 1
    assert invariant_form(X(1), X(2)) == 0
    assert invariant_form(X(4), X(5)) == -1
    assert invariant_form(X(4), X(4)) == 2
    assert invariant_form(X(1), X(8)) == 1


def test_weights():
    assert WEIGHT[4] == Weight(0, 0)
    assert WEIGHT[1] == Weight(1, 1)
    assert WEIGHT[6] == Weight(0, -1)


def test_bracket_weight_additivity():
    for a, b in itertools.product(COLORS, repeat=2):
        expected = WEIGHT[a] + WEIGHT[b]
        for c, coef in BRACKET[(a, b)]:
            assert coef != 0
            assert WEIGHT[c] == expected


def test_form_pairs_only_opposite_weights():
    for a, b in itertools.product(COLORS, repeat=2):
        if FORM[(a, b)]:
            assert WEIGHT[a] + WEIGHT[b] == Weight(0, 0)


# each identity the table check tests can fail on its own
@pytest.mark.parametrize(
    "table, changes, witness",
    [
        (BRACKET, {(1, 4): ((1, 1),)}, "antisymmetry fails at [X1, X4]"),
        (FORM, {(1, 8): 2}, "form symmetry fails at (X1, X8)"),
        (BRACKET, {(2, 3): ((1, 2),), (3, 2): ((1, -2),)}, "Jacobi fails at X1, X2, X7"),
        (FORM, {(2, 7): 2, (7, 2): 2}, "form invariance fails at X1, X6, X7"),
    ],
)
def test_structure_witness_names_the_failed_identity(monkeypatch, table, changes, witness):
    assert structure_witness() is None
    for key, value in changes.items():
        monkeypatch.setitem(table, key, value)
    assert structure_witness() == witness


_FLOAT_MATH = {"pi", "e", "tau", "inf", "nan", "sqrt", "exp", "log", "log2", "log10"}


def test_no_floating_point_in_the_package():
    # also no true division and no float-valued name of math: the slot
    # widths of the series engines rest on integer bounds (isqrt, and a
    # rational over-approximation of pi/ln 2), which a float would break
    sources = sorted(Path(affbasis.__file__).parent.rglob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{path.name}:{node.lineno}: float() call")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}: true division")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in _FLOAT_MATH
            ):
                found.append(f"{path.name}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.extend(
                    f"{path.name}:{node.lineno}: from math import {alias.name}"
                    for alias in node.names
                    if alias.name in _FLOAT_MATH
                )
    assert found == []


def test_the_package_imports_only_itself_and_the_standard_library():
    # no runtime dependencies: every import of the package, those inside a
    # function included, is relative or names a standard-library module,
    # and the project declares no dependency
    package = Path(affbasis.__file__).parent
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside.extend(
                f"{path.name}:{node.lineno}: import {name}"
                for name in modules
                if name.partition(".")[0] not in sys.stdlib_module_names
            )
    assert outside == []
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=.*$", pyproject, re.M) == ["dependencies = []"]


def test_importing_the_package_loads_no_dataclass_machinery():
    # every `affbasis verify` run and benchmark child starts a fresh
    # interpreter, and `dataclasses` drags in `inspect` (with `ast`, `dis`
    # and `tokenize`), a start-up and peak-memory cost paid before any work
    probe = (
        "import sys, affbasis, affbasis.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(affbasis.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_only_linalg_imports_fractions():
    # a Fraction is made only by linalg.exact_quotient; no other module of
    # the package may reach for the type
    importers = []
    for path in sorted(Path(affbasis.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "fractions" in modules:
                importers.append(f"{path.name}:{node.lineno}")
    assert [name.partition(":")[0] for name in importers] == ["linalg.py"], importers


def test_benchmark_tracer_targets_resolve():
    # the per-layer benchmark wraps these names; a missing one would read 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attribute, _ in tracer.TARGETS:
        obj = importlib.import_module(f"affbasis.{module}")
        for name in attribute.split("."):
            assert hasattr(obj, name), f"{module}.{attribute}"
            obj = getattr(obj, name)
        assert callable(obj), f"{module}.{attribute}"


def _reads(node) -> set[str]:
    """The names a statement loads: every attribute it loads, and every
    ast.Name it loads less the names it binds itself (assignment targets and
    arguments).  A bound name hides only plain names, so a loop variable
    `shape` does not hide the call `bound.shape()`."""
    loads, attributes, binds = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            (loads if isinstance(sub.ctx, ast.Load) else binds).add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attributes.add(sub.attr)
        elif isinstance(sub, ast.arg):
            binds.add(sub.arg)
    return (loads - binds) | attributes


def test_every_public_library_definition_is_live():
    # live: loaded by the command line, a script or the benchmark child,
    # named by the benchmark tracer, or loaded by a live definition.  A
    # public method of a library class is a definition of its own, live when
    # a live definition reads its attribute name; the rest of a class
    # (dunders and private methods included) lives with the class.  Whatever
    # only tests read lives in tests/
    root = Path(__file__).resolve().parents[1]
    package = Path(affbasis.__file__).parent
    reads: dict[str, set] = {}  # defined name -> the names its statements load
    public, live = [], set()  # public: (qualified name, name it is read by)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
                if not stmt.name.startswith("_"):
                    public.append((f"{path.stem}.{stmt.name}", stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            if isinstance(stmt, ast.ClassDef):
                methods = [
                    m
                    for m in stmt.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
                for method in methods:
                    public.append((f"{path.stem}.{stmt.name}.{method.name}", method.name))
                    reads.setdefault(method.name, set()).update(_reads(method))
                stmt.body = [m for m in stmt.body if m not in methods]
            for name in names:
                reads.setdefault(name, set()).update(_reads(stmt))
            if not names:  # import-time code
                live |= _reads(stmt)
    entry_points = [package / "cli.py", *sorted((root / "scripts").glob("*.py"))]
    for path in entry_points + [root / "perfbench" / "child.py"]:
        live |= _reads(ast.parse(path.read_text(), str(path)))
    path = root / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    live |= {attribute.split(".")[0] for _, attribute, _ in tracer.TARGETS}
    todo = list(live)
    while todo:
        new = reads.get(todo.pop(), set()) - live
        live |= new
        todo.extend(new)
    dead = [qualified for qualified, name in public if name not in live]
    assert dead == [], "definitions no live name reads:\n" + "\n".join(dead)


def test_every_private_library_name_is_read():
    # a private top-level name of the package (a function, class or
    # assignment; dunders aside) must be loaded by some other top-level
    # statement of the package, so no helper outlives its last caller
    package = Path(affbasis.__file__).parent
    statements = [
        (path.stem, stmt)
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]
    unread = []
    for module, stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__") and not any(
                name in _reads(other) for _, other in statements if other is not stmt
            ):
                unread.append(f"{module}.{name}")
    assert unread == [], "private names nothing else reads:\n" + "\n".join(unread)


def _backticked_resolves(ident: str, modules: dict, defined: set) -> bool:
    """A backticked identifier resolves when it is a name the package
    defines or a builtin, or, dotted, an attribute path from a package
    module, a name one of them holds, or an importable module."""
    head, *rest = ident.split(".")
    if not rest:
        return head in defined
    holders = [m for m in modules.values() if hasattr(m, head)]
    if head in modules:
        obj = modules[head]
    elif holders:
        obj = getattr(holders[0], head)
    else:
        try:
            obj = importlib.import_module(head)
        except ImportError:
            return False
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_backticked_identifier_in_the_library_resolves():
    # a docstring or comment that names `_MARGIN` after it is gone is stale.
    # Defined: every name the package binds (definitions, arguments,
    # assignment targets, stored attributes, imports), the package's module
    # names and the builtins.  Backticked text that is not an identifier
    # (`X1(-1)^2 . vac`, `affbasis verify`) is prose and is not checked
    package = Path(affbasis.__file__).parent
    modules = {
        path.stem: importlib.import_module(f"affbasis.{path.stem}")
        for path in package.glob("*.py")
    }
    defined = set(dir(builtins)) | set(modules) | {"affbasis"}
    sources = {path: path.read_text() for path in sorted(package.glob("*.py"))}
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                defined.add((node.asname or node.name).split(".")[0])
    pattern = re.compile(r"(?<!`)(`{1,2})([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\1(?!`)")
    stale = [
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}: {match.group(2)}"
        for path, text in sources.items()
        for match in pattern.finditer(text)
        if not _backticked_resolves(match.group(2), modules, defined)
    ]
    assert stale == [], "backticked names that resolve to nothing:\n" + "\n".join(stale)
