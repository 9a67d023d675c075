import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affbasis.algebra import FORM, BRACKET
from affbasis.enveloping import (
    EnvElement,
    Window,
    WindowError,
    _rewrite_once,
    act,
    apply_mode,
    apply_word,
    graded_basis,
    mode_on_partition,
    straighten_word,
)
from affbasis.linalg import SpanReducer, add_scaled, sparse_rank
from affbasis.partitions import (
    format_partition,
    order_key,
    parse_partition,
    part_key,
    sort_parts,
)
from reference_enveloping import (
    adjoint_mode,
    coefficient,
    element_weight,
    leading_term,
    mul_mode_left,
    mul_mode_right,
    narrowed,
    total_degree,
)
from reference_rank import markowitz_rank
from reference_straighten import straighten_word_randomly

W8 = Window(8)

mode_strategy = st.tuples(st.integers(1, 8), st.integers(-3, 3))
word_strategy = st.lists(mode_strategy, min_size=0, max_size=5)


def env_terms(e):
    return {parts: c for parts, c in e.terms.items()}


# --- straightening ------------------------------------------------------------


def test_straighten_already_ordered():
    e = EnvElement(straighten_word(((4, -1), (4, -1))), W8)
    assert env_terms(e) == {((4, -1), (4, -1)): 1}


def test_straighten_with_central_term():
    e = EnvElement(straighten_word(((2, 1), (7, -1))), W8)
    assert env_terms(e) == {
        ((7, -1), (2, 1)): 1,
        ((4, 0),): 1,
        (): 1,
    }


def test_straighten_zero_modes():
    e = EnvElement(straighten_word(((2, 0), (3, 0))), W8)
    assert env_terms(e) == {((3, 0), (2, 0)): 1, ((1, 0),): 1}


def test_straighten_sorted_word_is_a_fresh_unit_term():
    word = ((4, -2), (6, -1), (2, 0), (3, 1))
    first = straighten_word(word)
    assert first == {word: 1}
    first[word] = 5
    assert straighten_word(word) == {word: 1}  # no dict is shared
    assert straighten_word(list(word)) == {word: 1}  # keyed by the tuple


def test_straighten_empty_word():
    assert straighten_word(()) == {(): 1}


def test_sorted_word_ending_in_an_annihilation_mode_kills_the_vacuum():
    vac = {(): 1}
    for word in (((4, -1), (2, 0)), ((3, 0),), ((7, -2), (5, 1))):
        assert straighten_word(word) == {word: 1}
        assert apply_word(word, vac) == {}
    creation = ((4, -1), (2, -1))
    assert apply_word(creation, vac) == {creation: 1}
    assert mode_on_partition((3, 0), ()) == ()
    assert mode_on_partition((4, -1), ((2, -1),)) == ((creation, 1),)


def test_unsorted_word_still_matches_the_random_straightener():
    rng = random.Random(3)
    for word in (((2, 1), (7, -1)), ((2, 0), (3, 0)), ((1, 2), (8, -1), (4, -2))):
        assert word != tuple(sorted(word, key=part_key))
        assert straighten_word(word) == straighten_word_randomly(word, rng)


@settings(max_examples=150, deadline=None)
@given(word_strategy, st.integers(0, 2**32 - 1))
def test_straighten_confluence(word, seed):
    rng = random.Random(seed)
    assert straighten_word_randomly(word, rng) == straighten_word(tuple(word))


@settings(max_examples=80, deadline=None)
@given(word_strategy, word_strategy)
def test_straighten_is_multiplicative_on_vacuum(u, v):
    # straightening the concatenation acts on the vacuum like acting twice
    vac = {(): 1}
    left = apply_word(tuple(u) + tuple(v), vac)
    right = apply_word(tuple(u), apply_word(tuple(v), vac))
    assert left == right


# --- the module action -----------------------------------------------------------


def reference_mode_on_partition(mode, parts):
    """Reference vacuum rewriter: the separate loop mode_on_partition ran
    before it was folded into straighten_word."""
    out = {}
    stack = [((mode,) + parts, 1)]
    while stack:
        w, c = stack.pop()
        if w and w[-1][1] >= 0:
            continue  # the rightmost mode annihilates the vacuum
        idx = -1
        for i in range(len(w) - 1):
            if part_key(w[i]) > part_key(w[i + 1]):
                idx = i
                break
        if idx < 0:
            out[w] = out.get(w, 0) + c
            continue
        for term, coef in _rewrite_once(w, idx):
            stack.append((term, c * coef))
    return tuple((w, c) for w, c in out.items() if c)


@settings(max_examples=300, deadline=None)
@given(
    mode_strategy,
    st.lists(st.tuples(st.integers(1, 8), st.integers(-4, -1)), max_size=4),
)
def test_mode_on_partition_matches_reference_rewriter(mode, parts):
    parts = sort_parts(parts)
    expected = dict(reference_mode_on_partition(mode, parts))
    # equal vectors: same terms, same coefficients; no caller reads the order
    assert dict(mode_on_partition(mode, parts)) == expected
    assert dict(mode_on_partition(mode, parts)) == expected  # the cached copy


def test_mode_on_partition_is_the_whole_word_straightened_on_the_vacuum():
    # every (mode, partition) with 8 colors, mode degrees -3..3 and depth <=
    # 3: the Leibniz recursion against the whole word straightened with no
    # vacuum in mind, of which the vacuum keeps the terms whose modes all
    # create (a sorted word with a mode of degree >= 0 ends in one)
    cases = 0
    for depth in range(4):
        for parts in graded_basis(depth):
            for mode in itertools.product(range(1, 9), range(-3, 4)):
                got = mode_on_partition(mode, parts)
                word = straighten_word((mode,) + parts)
                expected = {w: c for w, c in word.items() if all(d < 0 for _, d in w)}
                assert dict(got) == expected, (mode, parts)
                assert len(dict(got)) == len(got), (mode, parts)
                for w, c in got:
                    assert c and isinstance(c, int), (mode, parts, w)
                    assert w == sort_parts(w) and all(d < 0 for _, d in w), (mode, parts, w)
                cases += 1
    assert cases == 245 * 56


coefficient_strategy = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@settings(max_examples=300)
@given(
    st.dictionaries(st.integers(0, 5), coefficient_strategy.filter(bool), max_size=6),
    st.lists(st.tuples(st.integers(0, 5), coefficient_strategy), max_size=10),
    coefficient_strategy,
)
def test_add_scaled_is_a_sum_without_zeros(acc, pairs, scale):
    naive = dict(acc)
    for k, v in pairs:
        naive[k] = naive.get(k, 0) + scale * v
    naive = {k: v for k, v in naive.items() if v}
    result = add_scaled(acc, pairs, scale)
    assert result is acc
    assert acc == naive
    assert all(acc.values())


def test_span_reducer_insert_returns_the_reduction():
    reducer = SpanReducer(lambda col: col)
    vec = {0: 2, 1: 4}
    assert reducer.insert(vec) == {0: 2, 1: 4}
    assert vec == {0: 2, 1: 4}  # the argument is not touched
    assert reducer.row_for(0) == {0: 1, 1: 2}
    assert reducer.insert({0: 3, 1: 6}) == {}  # already in the span
    meets = {0: 1, 2: 3}  # meets pivot 0, and the reduction runs in place
    assert reducer.insert(meets) == {1: -2, 2: 3}
    assert meets == {0: 1, 2: 3}
    assert reducer.pivots() == [0, 1] and reducer.rank == 2
    zeros = {0: 0, 1: 0, 2: 5, 3: 0}  # zeros are dropped, not made pivots
    assert reducer.insert(zeros) == {2: 5}
    assert zeros == {0: 0, 1: 0, 2: 5, 3: 0}
    assert reducer.rows[2] == {2: 1}


def test_span_reducer_close_matches_a_naive_fixed_point():
    # two nilpotents on 4 coordinates: e0 -> e1, e2 -> e3 and e1 -> 2 e2;
    # neither reaches from e0 what both reach
    def images(vec):
        yield {i + 1: v for i, v in vec.items() if i in (0, 2)}
        yield {2: 2 * vec[1]} if 1 in vec else {}

    for coeffs in itertools.product(range(-1, 2), repeat=4):
        seed = {i: c for i, c in enumerate(coeffs) if c}
        # naive: add every image of every vector until the rank stops growing
        vecs = [seed]
        while True:
            more = vecs + [image for vec in vecs for image in images(vec)]
            if markowitz_rank(more) == markowitz_rank(vecs):
                break
            vecs = more
        naive = SpanReducer(lambda col: col)
        for vec in vecs:
            naive.insert(vec)
        closed = SpanReducer(lambda col: col)
        closed.close(seed, images)
        assert closed.rank == markowitz_rank(vecs), seed
        assert sorted(closed.pivots()) == sorted(naive.pivots()), seed
        naive.back_eliminate()
        closed.back_eliminate()
        assert closed.rows == naive.rows, seed


entry_strategy = st.integers(-3, 3)
sparse_matrix_strategy = st.lists(
    st.dictionaries(st.integers(0, 5), entry_strategy, max_size=4), max_size=7
)


@given(sparse_matrix_strategy)
@settings(max_examples=300, deadline=None)
def test_sparse_rank_matches_the_reference_rank(rows):
    expected = markowitz_rank(rows)
    assert sparse_rank(rows, lambda col: col) == expected
    assert sparse_rank(rows, lambda col: -col) == expected


def test_span_reducer_rows_are_primitive_with_positive_pivots():
    reducer = SpanReducer(lambda col: col)
    reducer.insert({0: -6, 1: 4, 2: 18})
    # 3 * vec - 2 * row 0 is {1: 10, 2: 30}; a scaled reduction loses its gcd
    assert reducer.reduce({0: 2, 1: 2, 2: 4}) == {1: 1, 2: 3}
    # 3 * {0: 2, 1: 1} - 2 * row 0: cross-multiplied, never divided
    assert reducer.insert({0: 2, 1: 1}) == {1: 7, 2: 18}
    assert reducer.rows == {0: {0: 3, 1: -2, 2: -9}, 1: {1: 7, 2: 18}}
    assert reducer.row_for(0) == {0: 1, 1: Fraction(-2, 3), 2: -3}
    reducer.back_eliminate()
    assert reducer.rows == {0: {0: 7, 2: -9}, 1: {1: 7, 2: 18}}
    assert reducer.row_for(0) == {0: 1, 2: Fraction(-9, 7)}
    assert reducer.row_for(1) == {1: 1, 2: Fraction(18, 7)}
    # rows are integral: a Fraction is refused, whether it would be stored
    # (also behind an entry whose gcd is already 1) or meets a pivot, and
    # the rows stay as they were
    rows = {p: dict(row) for p, row in reducer.rows.items()}
    for vec in ({2: Fraction(1, 2)}, {3: 1, 4: Fraction(1, 2)}, {0: Fraction(7, 2), 2: 1}):
        with pytest.raises(TypeError):
            reducer.insert(vec)
        assert reducer.rows == rows


def test_action_examples():
    vac = {(): 1}
    assert apply_mode((2, 0), vac) == {}
    assert apply_mode((6, 0), vac) == {}  # zero-mode lowering kills the vacuum
    one_part = apply_mode((1, -1), vac)
    assert one_part == {parse_partition("1:-1"): 1}
    assert apply_mode((2, 1), apply_mode((7, -1), vac)) == vac


def test_action_returns_a_fresh_dict_and_leaves_its_input():
    v = {parse_partition("7:-1"): 1, (): 2}
    before = dict(v)
    e = EnvElement({(): 1}, W8)  # the identity element
    for out in (apply_mode((4, 0), v), apply_word((), v), act(e, v)):
        assert out is not v
        out[((1, -1),)] = 5
        assert v == before
    assert apply_word((), v) == v and act(e, v) == v


def test_action_of_env_element():
    e = EnvElement(straighten_word(((2, 1),)), W8)
    v = {parse_partition("7:-1"): 1}
    assert act(e, v) == {(): 1}


def test_action_window_certification():
    e = EnvElement({((2, 1),): Fraction(1)}, Window(0))
    deep = {parse_partition("7:-1"): 1}
    with pytest.raises(WindowError):
        act(e, deep)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(-2, 2),
    st.integers(1, 8),
    st.integers(-2, 2),
    st.lists(st.tuples(st.integers(1, 8), st.integers(-2, -1)), max_size=3),
)
def test_action_commutator_identity(a, m, b, n, parts):
    v = {sort_parts(parts): 1}
    ab = apply_mode((a, m), apply_mode((b, n), v))
    ba = apply_mode((b, n), apply_mode((a, m), v))
    lhs = add_scaled(dict(ab), ba.items(), -1)
    rhs = {}
    for color, coef in BRACKET[(a, b)]:
        add_scaled(rhs, apply_mode((color, m + n), v).items(), coef)
    if m + n == 0:
        add_scaled(rhs, v.items(), m * FORM[(a, b)])
    # dict equality is vector equality only while no zero is stored
    assert all(ab.values()) and all(ba.values())
    assert all(lhs.values()) and all(rhs.values())
    assert lhs == rhs


# --- grading ------------------------------------------------------------------


def test_graded_basis_counts():
    assert [len(graded_basis(n)) for n in range(6)] == [1, 8, 44, 192, 726, 2464]


def test_graded_basis_sorted_unique():
    basis = graded_basis(4)
    assert basis == sorted(basis, key=order_key)
    assert len(set(basis)) == len(basis)


# --- adjoint action and homogeneity --------------------------------------------


def test_adjoint_examples():
    e = EnvElement({((2, -1),): Fraction(1)}, W8)
    out = adjoint_mode(e, 4, 0)
    assert env_terms(out) == {((2, -1),): 2}
    zero = adjoint_mode(EnvElement(straighten_word(()), W8), 3, 0)
    assert zero.is_zero()


def test_adjoint_on_generator_leading_part():
    e = EnvElement({((1, -2), (1, -1)): Fraction(1)}, W8)
    out = adjoint_mode(e, 7, 0)
    assert env_terms(out) == {
        ((3, -2), (1, -1)): 1,
        ((1, -2), (3, -1)): 1,
    }


@settings(max_examples=100, deadline=None)
@given(word_strategy, st.integers(1, 8))
def test_adjoint_preserves_homogeneity(word, color):
    e = EnvElement(straighten_word(tuple(word)), W8)
    if e.is_zero() or total_degree(e) is None or element_weight(e) is None:
        return
    out = adjoint_mode(e, color, 0)
    if not out.is_zero():
        assert total_degree(out) == total_degree(e)
        from affbasis.algebra import WEIGHT

        assert element_weight(out) == element_weight(e) + WEIGHT[color]


# --- leading terms ---------------------------------------------------------------


def test_leading_term_examples():
    e = EnvElement(
        {((1, -2), (1, -1)): Fraction(2), ((3, -3), (2, 0)): Fraction(1)}, W8
    )
    assert format_partition(leading_term(e, max_length=2)) == "1:-2 1:-1"
    single = EnvElement({((5, -1),): Fraction(1)}, W8)
    assert format_partition(leading_term(single, max_length=1)) == "5:-1"


def test_scalar_leading_term_is_the_empty_partition():
    assert leading_term(EnvElement({(): 1}, Window(3)), max_length=0) == ()


def test_leading_term_needs_homogeneous():
    e = EnvElement({((1, -1),): Fraction(1), ((1, -2),): Fraction(1)}, W8)
    with pytest.raises(ValueError):
        leading_term(e, max_length=1)


def test_leading_term_window_certification():
    # a positive-degree pair whose candidates stretch past a tiny window
    e = EnvElement({((1, 1), (1, 1)): Fraction(1)}, Window(2))
    assert leading_term(e, max_length=2) == ((1, 1), (1, 1))
    # a length-3 minimum allows smaller shapes with heavier annihilation
    # content, e.g. (-6, 2, 2) below (-4, -1, 3), so a bound-3 window cannot
    # certify the minimum
    stored = EnvElement({((1, -4), (1, -1), (1, 3)): Fraction(1)}, Window(3))
    with pytest.raises(WindowError):
        leading_term(stored, max_length=3)
    assert leading_term(
        EnvElement({((1, -4), (1, -1), (1, 3)): Fraction(1)}, Window(4)), max_length=3
    ) == ((1, -4), (1, -1), (1, 3))


def test_leading_term_rejects_possible_longer_terms():
    e = EnvElement({((1, -1),): Fraction(1)}, W8)
    with pytest.raises(WindowError):
        leading_term(e, max_length=2)


# --- window arithmetic ------------------------------------------------------------


def test_window_bookkeeping():
    e = EnvElement({((1, -1), (1, 1)): Fraction(1)}, Window(4))
    assert mul_mode_left(e, (2, -1)).window.annihilation_bound == 4
    assert mul_mode_left(e, (2, 3)).window.annihilation_bound == 1
    assert mul_mode_right(e, (2, 3)).window.annihilation_bound == 7
    assert mul_mode_right(e, (2, -2)).window.annihilation_bound == 2
    assert adjoint_mode(e, 7, -1).window.annihilation_bound == 3


def test_window_admission():
    w = Window(1)
    e = EnvElement({((1, -1), (1, 2)): Fraction(1), ((1, -1),): Fraction(1)}, w)
    assert env_terms(e) == {((1, -1),): 1}
    with pytest.raises(WindowError):
        coefficient(e, ((1, -1), (1, 2)))


def test_mismatched_windows_refuse_to_combine():
    a = EnvElement({((1, -1),): Fraction(1)}, Window(3))
    b = EnvElement({((1, -1),): Fraction(1)}, Window(4))
    with pytest.raises(WindowError):
        a - b
    difference = a - narrowed(b, 3).scale(-1)
    assert difference.window == Window(3)
    assert env_terms(difference) == {((1, -1),): 2}


def test_element_action_equals_sequential_action():
    # acting with the straightened element equals acting mode by mode
    rng = random.Random(5)
    for _ in range(25):
        word = tuple(
            (rng.randint(1, 8), rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))
        )
        parts = sort_parts(
            [(rng.randint(1, 8), rng.randint(-2, -1)) for _ in range(rng.randint(0, 2))]
        )
        v = {parts: 1}
        assert act(EnvElement(straighten_word(word), W8), v) == apply_word(word, v)


def test_leading_term_of_pbw_monomial():
    p = parse_partition("3:-2 4:-1 1:-1")
    e = EnvElement({p: Fraction(1)}, W8)
    assert leading_term(e, max_length=3) == p
