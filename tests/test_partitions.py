from collections import Counter
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affbasis.algebra import Weight
from affbasis.enveloping import graded_basis
from affbasis.fixture_io import load_lemma12_fixture
from affbasis.partitions import (
    _LAYER_FACTORS,
    ADJACENT_COLOR_PAIRS,
    EXCEPTIONAL_CASES,
    INDEPENDENT_COLOR_SETS,
    SAME_DEGREE_COLOR_PAIRS,
    SHAPE_CLASSES,
    compatible_layers,
    cubic_a_label,
    cubic_b_label,
    embeddings,
    embedding_excess,
    enumerate_ideal,
    exceptional_class,
    format_partition,
    order_key,
    overlap_catalogue,
    parse_partition,
    partitions_at_most,
    parts_degree,
    parts_shape,
    parts_weight,
    quad_same_label,
    quadratic_embeddings,
    quadratic_leading_labels,
    relation_set,
    shape_class_embedding_total,
    shape_key,
    sort_parts,
    colorings_of_shape,
)
from affbasis.relations import _tensor_partition
from reference_embeddings import embeddings_by_full_scan
from reference_fixtures import load_color_pairs, load_partitions
from reference_partitions import (
    compare,
    contains,
    quotient,
    satisfies_difference_conditions,
    translate,
)

parts_strategy = st.lists(
    st.tuples(st.integers(1, 8), st.integers(-4, -1)), min_size=0, max_size=5
)
partition_strategy = parts_strategy.map(sort_parts)


# --- order ---------------------------------------------------------------


def test_order_examples():
    p1 = parse_partition("3:-2 5:-1 1:-1")
    p2 = parse_partition("3:-2 4:-1 1:-1")
    p3 = parse_partition("5:-2 3:-1 1:-1")
    assert order_key(p1) < order_key(p2) < order_key(p3)
    assert not order_key(p1) < order_key(p1)
    longer = ((1, -1),) * 3
    assert order_key(longer) < order_key(((1, -3),))


def test_shape_clause_before_color_clause():
    balanced = parse_partition("1:-2 1:-1")
    spread = parse_partition("3:-3 2:0")
    assert order_key(balanced) < order_key(spread)


@settings(max_examples=300)
@given(partition_strategy, partition_strategy)
def test_order_trichotomy(p, q):
    signs = [compare(p, q), compare(q, p)]
    if p == q:
        assert signs == [0, 0]
    else:
        assert sorted(signs) == [-1, 1]


@settings(max_examples=300)
@given(partition_strategy, partition_strategy, partition_strategy)
def test_order_transitivity(p, q, r):
    if compare(p, q) < 0 and compare(q, r) < 0:
        assert compare(p, r) < 0


@settings(max_examples=300)
@given(partition_strategy, partition_strategy, partition_strategy)
def test_order_respects_multiplication(p, q, kappa):
    if compare(p, q) < 0:
        assert compare(sort_parts(p + kappa), sort_parts(q + kappa)) < 0


def test_finite_strict_chain_within_degree():
    # strictly negative partitions of a fixed degree and length sort into a
    # finite strict chain: no ties, no descents
    pool = []
    for shape in [(-3,), (-2, -1), (-1, -1, -1)]:
        pool.extend(colorings_of_shape(shape))
    pool.sort(key=order_key)
    for a, b in zip(pool, pool[1:]):
        assert compare(a, b) < 0


# --- the order key against the reference comparators ---------------------


def shape_compare(s, t):
    """Reference order on plain partitions: longer < ; then smaller total < ;
    then the positional scan from the top part downward, smaller degree
    first."""
    if s == t:
        return 0
    if len(s) != len(t):
        return -1 if len(s) > len(t) else 1
    ds, dt = sum(s), sum(t)
    if ds != dt:
        return -1 if ds < dt else 1
    for a, b in zip(reversed(s), reversed(t)):
        if a != b:
            return -1 if a < b else 1
    return 0


def parts_compare(p, q):
    """Reference monomial order: the shape order, then at equal shapes the
    reverse positional scan on colors, greater index first."""
    if p == q:
        return 0
    c = shape_compare(parts_shape(p), parts_shape(q))
    if c:
        return c
    for (ca, _), (cb, _) in zip(reversed(p), reversed(q)):
        if ca != cb:
            return -1 if ca > cb else 1
    return 0


def sorted_parts(lo, hi, min_size=0, max_size=5):
    return st.lists(
        st.tuples(st.integers(1, 8), st.integers(lo, hi)),
        min_size=min_size,
        max_size=max_size,
    ).map(sort_parts)


# tensor column keys order partitions with nonnegative degrees too; the
# narrow equal-length pairs reach the color clause often
wide_parts = sorted_parts(-5, 3)
equal_length_pairs = st.integers(0, 5).flatmap(
    lambda n: st.tuples(sorted_parts(-2, 1, n, n), sorted_parts(-2, 1, n, n))
)


@settings(max_examples=500)
@given(st.one_of(st.tuples(wide_parts, wide_parts), equal_length_pairs))
def test_order_key_matches_reference_comparators(pair):
    p, q = pair
    assert compare(p, q) == parts_compare(p, q)
    a, b = shape_key(parts_shape(p)), shape_key(parts_shape(q))
    assert (a > b) - (a < b) == shape_compare(parts_shape(p), parts_shape(q))
    assert order_key(p)[:3] == a


@settings(max_examples=200)
@given(st.lists(st.one_of(wide_parts, sorted_parts(-2, 1, max_size=3)), max_size=12))
def test_order_key_sorts_like_reference_comparator(pool):
    assert sorted(pool, key=order_key) == sorted(pool, key=cmp_to_key(parts_compare))


def test_order_key_extends_the_shape_key():
    # `order_key` writes the shape key out inline, so `shape_key` stays the
    # one definition of the shape order only while the two agree
    for n in range(7):
        for p in graded_basis(n):
            expected = shape_key(parts_shape(p)) + (tuple(-c for c, _ in reversed(p)),)
            assert order_key(p) == expected, p
    assert order_key(()) == shape_key(()) + ((),) == (0, 0, (), ())


# --- monoid ops ----------------------------------------------------------


def union(p, q):
    return sort_parts((Counter(p) | Counter(q)).elements())


def intersection(p, q):
    return sort_parts((Counter(p) & Counter(q)).elements())


def test_monoid_examples():
    p = parse_partition("1:-1 3:-1")
    q = parse_partition("1:-1 1:-1")
    assert sort_parts(p + ()) == p
    assert union(p, ()) == p
    assert intersection(p, q) == parse_partition("1:-1")
    assert quotient(
        parse_partition("3:-2 4:-1 1:-1"), parse_partition("4:-1 1:-1")
    ) == parse_partition("3:-2")
    with pytest.raises(ValueError):
        quotient(p, q)


@settings(max_examples=200)
@given(partition_strategy, partition_strategy)
def test_lattice_laws(p, q):
    u, i = union(p, q), intersection(p, q)
    assert contains(u, p) and contains(u, q)
    assert contains(p, i) and contains(q, i)
    # inclusion-exclusion on multiplicity counts
    assert sort_parts(u + i) == sort_parts(p + q)


@settings(max_examples=200)
@given(partition_strategy, partition_strategy)
def test_quotient_inverts_product(p, q):
    assert quotient(sort_parts(p + q), q) == p


# a partition is a plain tuple, so its sortedness rests on the builders
@settings(max_examples=100)
@given(
    parts_strategy,
    st.sampled_from(relation_set(-2, 1)),
    st.tuples(st.integers(1, 8), st.integers(-4, 3)),
    st.lists(st.integers(-3, 1), min_size=1, max_size=3).map(sorted),
    st.integers(0, 4),
)
def test_every_builder_returns_sorted_parts(parts, label, mode, shape, n):
    built = [
        parse_partition(" ".join(f"{c}:{d}" for c, d in parts)),
        label.partition(),
        _tensor_partition((mode, label)),
        *colorings_of_shape(tuple(shape)),
        *enumerate_ideal(n),
        *graded_basis(n),
    ]
    for p in built:
        assert type(p) is tuple and sort_parts(p) == p, p


# --- the forbidden-factor set ---------------------------------------------


def test_relation_set_counts():
    labels = relation_set(-1, -1)
    assert len(labels) == 56
    assert len(relation_set(-3, -1)) == 168
    kinds = [l.kind for l in labels]
    assert kinds.count("quad_same") == 27
    assert kinds.count("quad_adjacent") == 27


def test_color_pair_membership():
    assert (2, 1) in SAME_DEGREE_COLOR_PAIRS
    assert (2, 1) not in ADJACENT_COLOR_PAIRS
    assert len(set(SAME_DEGREE_COLOR_PAIRS)) == 27
    assert len(set(ADJACENT_COLOR_PAIRS)) == 27


def test_tables_match_fixture_files():
    assert list(SAME_DEGREE_COLOR_PAIRS) == load_color_pairs(
        "lemma1_same_degree.txt"
    )
    assert list(ADJACENT_COLOR_PAIRS) == load_color_pairs("lemma1_adjacent.txt")


def test_difference_conditions_examples():
    assert not satisfies_difference_conditions(parse_partition("1:-2 5:-1 3:-1"))
    assert satisfies_difference_conditions(parse_partition("1:-6 5:-3 3:-1"))
    assert satisfies_difference_conditions(())
    # cubic exclusions
    assert not satisfies_difference_conditions(parse_partition("3:-2 4:-1 1:-1"))
    assert not satisfies_difference_conditions(parse_partition("8:-2 4:-2 6:-1"))


def test_difference_conditions_match_divisibility():
    # reference: no forbidden factor anchored near p's degrees divides p;
    # the layer-rule enumeration must pick out exactly those partitions
    factors: dict = {}
    for n in range(6):
        ideal = set(enumerate_ideal(n))
        for p in graded_basis(n):
            degrees = [d for _, d in p] or [0]
            anchors = (min(degrees) - 1, max(degrees) + 1)
            if anchors not in factors:
                factors[anchors] = [lab.partition() for lab in relation_set(*anchors)]
            divisible = any(contains(p, rho) for rho in factors[anchors])
            assert satisfies_difference_conditions(p) == (not divisible), p
            assert (p in ideal) == (not divisible), p


def test_layer_rule_matches_divisibility():
    # two neighbouring degrees, each holding an allowed color set
    for deeper in INDEPENDENT_COLOR_SETS:
        for shallower in INDEPENDENT_COLOR_SETS:
            p = sort_parts([(c, -2) for c in deeper] + [(c, -1) for c in shallower])
            assert compatible_layers(deeper, shallower) == satisfies_difference_conditions(p)


def test_layer_rule_matches_the_direct_formula():
    # `compatible_layers` reads the factors of each shallower set from a
    # memo; on every pair of allowed sets it is the scan of all factors
    assert len(INDEPENDENT_COLOR_SETS) == 19
    for deeper in INDEPENDENT_COLOR_SETS:
        for shallower in INDEPENDENT_COLOR_SETS:
            direct = not any(
                low <= deeper and high <= shallower for low, high in _LAYER_FACTORS
            )
            assert compatible_layers(deeper, shallower) == direct, (deeper, shallower)


def test_label_translation():
    lab = cubic_a_label(-1)
    assert lab.translate(-3).partition() == translate(lab.partition(), -3)


# --- enumeration -----------------------------------------------------------


def test_enumeration_counts():
    expected = [1, 8, 17, 46, 98, 198]
    for n, count in enumerate(expected):
        assert len(enumerate_ideal(n)) == count


def test_enumeration_sorted_and_valid():
    parts = enumerate_ideal(4)
    assert parts == sorted(parts, key=order_key)
    for p in parts:
        assert satisfies_difference_conditions(p)
        assert parts_degree(p) == -4


def test_enumeration_weight_filter():
    full = enumerate_ideal(3)
    filtered = enumerate_ideal(3, Weight(1, 1))
    assert [p for p in full if parts_weight(p) == Weight(1, 1)] == filtered


def test_enumeration_matches_oracle():
    from affbasis.qseries import character_oracle

    oracle = character_oracle(6)
    for n in range(7):
        assert len(enumerate_ideal(n)) == oracle[n]


# --- embeddings -------------------------------------------------------------


def test_embedding_examples():
    found, excess = embeddings(((1, -1),) * 3)
    assert [l.colors for l in found] == [(1, 1)] and excess == 0
    found, excess = embeddings(parse_partition("3:-2 5:-1 1:-1"))
    assert len(found) == 2 and excess == 1
    assert embeddings(()) == ([], 0)


def test_indexed_embeddings_match_the_full_scan():
    for n in range(7):
        for p in graded_basis(n):
            found, excess = embeddings(p)
            ref_found, ref_excess = embeddings_by_full_scan(p)
            assert sorted(found) == sorted(ref_found) and excess == ref_excess, p
            anchors = [lab.j for lab in found]
            assert anchors == sorted(anchors), p


def test_embedding_quadratic_vs_full():
    pi = parse_partition("3:-2 4:-1 1:-1")
    assert quadratic_embeddings(pi) == []
    full, excess = embeddings(pi)
    assert [l.kind for l in full] == ["cubic_a"] and excess == 0


def test_length_three_excess_bounded():
    for shape_class in SHAPE_CLASSES:
        from affbasis.partitions import shape_of_class

        for p in colorings_of_shape(shape_of_class(shape_class, -2)):
            assert embedding_excess(p) <= 2


# --- the coloring totals ------------------------------------------------------


def test_shape_class_totals():
    expected = {"j^3": 97, "(j-1)j(j+1)": 64, "(j-1)j^2": 162, "(j-1)^2j": 162}
    for cls, total in expected.items():
        assert shape_class_embedding_total(cls, -3) == total
        assert shape_class_embedding_total(cls, -6) == total


def test_exceptional_classes():
    for case, (weight, cls) in EXCEPTIONAL_CASES.items():
        found, total = exceptional_class(weight, cls)
        assert len(found) == 10
        assert total == 7
        fixture = load_partitions(f"lemma7_case_{case}.txt")
        assert found == fixture
    case_a, _ = exceptional_class(*EXCEPTIONAL_CASES["a"])
    for text in ("3:-2 5:-1 1:-1", "3:-2 4:-1 1:-1", "5:-2 3:-1 1:-1"):
        assert parse_partition(text) in case_a


def test_exceptional_class_rejects_other_weights():
    with pytest.raises(ValueError):
        exceptional_class(Weight(1, 1), "(j-1)j^2")


# --- the overlap catalogue ------------------------------------------------------


def test_overlap_catalogue_matches_fixture():
    computed = set(overlap_catalogue(-1))
    assert len(computed) == 73
    assert computed == load_lemma12_fixture()


def test_overlap_catalogue_translates():
    at_minus_2 = set(overlap_catalogue(-2))
    shifted = {(translate(p, -1), translate(r, -1)) for p, r in overlap_catalogue(-1)}
    assert at_minus_2 == shifted


def test_overlap_catalogue_membership_examples():
    cat = overlap_catalogue(-1)
    pis = {p for p, _ in cat}
    assert parse_partition("3:-3 8:-2 4:-2 1:-2 6:-1") in pis
    assert parse_partition("3:-2 1:-2 4:-1 1:-1") in pis
    assert max(len(p) for p in pis) == 5


# --- misc -----------------------------------------------------------------------


def test_format_round_trip():
    for text in ("-", "3:-2 4:-1 1:-1", "8:-2 8:-2 2:-1"):
        assert format_partition(parse_partition(text)) == text


def test_partitions_at_most():
    bound = parse_partition("1:-1 1:-1")
    below = partitions_at_most(bound, 2, -2)
    assert bound in below
    assert all(order_key(q) <= order_key(bound) for q in below)
    # every length-2 partition of -2 with shape (-1,-1) and color pairs
    assert len(below) == 36


def test_quadratic_leading_labels_partition_degrees():
    for n in (-5, -4, 3):
        for lab in quadratic_leading_labels(n):
            assert parts_degree(lab.partition()) == n
    for lab in relation_set(-3, 2):
        assert lab.degree() == parts_degree(lab.partition()), lab
    assert quad_same_label(5, 1, -1).partition() == parse_partition("5:-1 1:-1")
    assert cubic_b_label(-1).partition() == parse_partition("8:-2 4:-2 6:-1")
