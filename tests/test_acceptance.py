"""Acceptance suite: each test prints one PASS line per criterion after
asserting it at full stated strength.  Everything is exact; there are no
tolerances anywhere.

Set AFFBASIS_STRETCH=1 to extend the graded verification to depth 7.
"""

import itertools
import os
import random


from affbasis.algebra import (
    BRACKET,
    COLORS,
    FORM,
    Weight,
    bracket,
    invariant_form,
)
from affbasis.enveloping import (
    Window,
    act,
    apply_mode,
    graded_basis,
    straighten_word,
)
from affbasis.fixture_io import load_lemma12_fixture
from affbasis.linalg import add_scaled
from affbasis.partitions import (
    EXCEPTIONAL_CASES,
    exceptional_class,
    overlap_catalogue,
    parse_partition,
    quadratic_embeddings,
    quadratic_leading_labels,
    shape_class_embedding_total,
    sort_parts,
)
from affbasis.qseries import (
    product_side,
    specialized_count_series,
    tricolor_count_series,
)
from affbasis.relations import (
    basis_counts_report,
    collapse_report,
    relation_space,
    syzygy_dimensions,
)
from reference_partitions import compare
from reference_straighten import straighten_word_randomly

STRETCH = os.environ.get("AFFBASIS_STRETCH") == "1"


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS  {criterion}" + (f"  [{detail}]" if detail else ""))


def test_criterion_1_leading_term_tables():
    window = Window(8)
    for j in range(-4, 0):
        for n in (2 * j, 2 * j - 1):
            space = relation_space(n, window)
            assert space.dimension == 27
            got = sorted(space.labels)
            expected = sorted(quadratic_leading_labels(n))
            assert got == expected, f"table mismatch at degree {n}"
    report("1: leading-term tables reproduce both 27-color lists, j in -4..-1")


def test_criterion_2_space_and_orbit_dimensions():
    window = Window(8)
    expected = {"64": 64, "35": 35, "35u": 35, "27": 27}
    for n in range(-8, 3):
        assert relation_space(n, window).dimension == 27, n
    for n in range(-8, 3):
        dims = syzygy_dimensions(n, window)
        assert dims == expected, (n, dims)
    report("2: dim R(n) = 27 and orbit dims {64,35,35,27} for n in -8..2")


def test_criterion_3_syzygy_collapse():
    scalars: dict[int, list] = {}
    for bound in (6, 7):
        window = Window(bound)
        for n in range(-6, 1):
            rep = collapse_report(n, window)
            assert rep["psi_64_zero"], (n, bound)
            assert rep["psi_35_zero"], (n, bound)
            assert rep["psi_35u_zero"], (n, bound)
            assert rep["psi_27_match"], (n, bound)
            scalars.setdefault(n, []).append(rep["c"])
    for n, values in scalars.items():
        assert set(values) == {-(n + 2)}, (n, values)
    # spot check that a vanishing collapse genuinely acts as zero
    from affbasis.relations import collapse, syzygy_tensors, vertex_mode

    window = Window(6)
    tensors = syzygy_tensors(-2, window)
    image64 = collapse(tensors["64"], window)
    image27 = collapse(tensors["27"], window)
    generator = vertex_mode({((1, -1), (1, -1)): 1}, -2, window)
    c = scalars[-2][0]
    rng = random.Random(12)
    pool = graded_basis(4) + graded_basis(6)
    for p in rng.sample(pool, 30):
        v = {p: 1}
        assert act(image64, v) == {}
        assert add_scaled(act(image27, v), act(generator, v).items(), -c) == {}
    cs = {n: values[0] for n, values in scalars.items()}
    report(
        "3: syzygy collapses vanish on depth <= 6 and 7; c(n) = -(n+2), stable",
        "c = " + ", ".join(f"{n}:{cs[n]}" for n in sorted(cs)),
    )


def test_criterion_4_coloring_totals():
    expected = {"j^3": 97, "(j-1)j(j+1)": 64, "(j-1)j^2": 162, "(j-1)^2j": 162}
    for cls, total in expected.items():
        assert shape_class_embedding_total(cls, -3) == total
        assert shape_class_embedding_total(cls, -7) == total
    report("4: coloring totals 97/64/162/162, independent of j")


def test_criterion_5_exceptional_classes():
    for case, (weight, cls) in EXCEPTIONAL_CASES.items():
        found, total = exceptional_class(weight, cls)
        assert len(found) == 10, case
        assert total == 7, case
    assert quadratic_embeddings(parse_partition("3:-2 4:-1 1:-1")) == []
    report("5: both exceptional weight classes: 10 partitions, excess total 7")


def test_criterion_6_overlap_catalogue():
    computed = set(overlap_catalogue(-1))
    fixture = load_lemma12_fixture()
    assert computed == fixture
    assert len(computed) == 73
    assert max(len(p) for p, _ in computed) == 5
    report("6: overlap catalogue equals the 73-entry transcription")


def test_criterion_7_graded_basis_counts():
    n_max = 7 if STRETCH else 5
    window = Window(max(8, n_max + 2))
    rows = basis_counts_report(n_max, window)
    counts = [r["ideal"] for r in rows]
    assert counts[:5] == [1, 8, 17, 46, 98]
    for row in rows:
        assert row["ok"], row
    report(
        f"7: ideal count = module dim - rank = oracle for depth 0..{n_max}",
        "counts " + ", ".join(str(c) for c in counts),
    )


def test_criterion_8_counting_identity():
    order = 200
    product = product_side(order)
    specialized = specialized_count_series(order)
    constrained = tricolor_count_series(order)
    assert product.first_difference(specialized) is None
    assert product.first_difference(constrained) is None
    report("8: product = constrained count = specialized count to order 200")


def test_criterion_9_property_suites():
    # Jacobi and invariance over all basis triples
    def X(color):
        return {color: 1}

    for a, b, c in itertools.product(COLORS, repeat=3):
        lhs = bracket(X(a), bracket(X(b), X(c)))
        rhs = bracket(bracket(X(a), X(b)), X(c))
        add_scaled(rhs, bracket(X(b), bracket(X(a), X(c))).items())
        assert add_scaled(lhs, rhs.items(), -1) == {}
        assert invariant_form(bracket(X(a), X(b)), X(c)) == -invariant_form(
            X(b), bracket(X(a), X(c))
        )

    rng = random.Random(2024)

    def random_mode():
        return (rng.randint(1, 8), rng.randint(-4, 4))

    # straightening confluence on 1000 random sequences
    for _ in range(1000):
        word = tuple(random_mode() for _ in range(rng.randint(0, 6)))
        baseline = straighten_word(word)
        assert straighten_word_randomly(word, rng) == baseline

    # action-commutator consistency on 1000 random checks
    for _ in range(1000):
        a, m = random_mode()
        b, n = random_mode()
        parts = [
            (rng.randint(1, 8), rng.randint(-2, -1))
            for _ in range(rng.randint(0, 3))
        ]
        v = {sort_parts(parts): 1}
        lhs = apply_mode((a, m), apply_mode((b, n), v))
        add_scaled(lhs, apply_mode((b, n), apply_mode((a, m), v)).items(), -1)
        rhs = {}
        for color, coef in BRACKET[(a, b)]:
            add_scaled(rhs, apply_mode((color, m + n), v).items(), coef)
        if m + n == 0:
            add_scaled(rhs, v.items(), m * FORM[(a, b)])
        assert lhs == rhs

    # order totality and multiplicativity on 1000 random triples
    def random_partition():
        return sort_parts(
            [
                (rng.randint(1, 8), rng.randint(-4, -1))
                for _ in range(rng.randint(0, 4))
            ]
        )

    for _ in range(1000):
        p, q, kappa = random_partition(), random_partition(), random_partition()
        signs = (compare(p, q), compare(q, p))
        if p == q:
            assert signs == (0, 0)
        else:
            assert sorted(signs) == [-1, 1]
        if compare(p, q) < 0:
            assert compare(sort_parts(p + kappa), sort_parts(q + kappa)) < 0
        if compare(p, q) < 0 and compare(q, kappa) < 0:
            assert compare(p, kappa) < 0
    report("9: Jacobi/invariance 8^3, confluence 1000, commutator 1000, order 1000")
