import itertools
import math
import operator
import os
import signal
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_series
from affbasis.enveloping import WindowError
from affbasis.partitions import (
    INDEPENDENT_COLOR_SETS,
    compatible_layers,
    enumerate_ideal,
    parse_partition,
)
from affbasis.qseries import (
    _PHI_OFFSET,
    DUNDER,
    PLAIN,
    UNDER,
    Series,
    _layer_table,
    _local_part_ok,
    _power_bits,
    _slot_size,
    _sum_plan,
    _transfer,
    _tricolor_table,
    _window_violation,
    a2_theta_series,
    character_oracle,
    colored_part_count_series,
    ideal_count_series,
    product_side,
    specialized_count_series,
    tricolor_count_series,
    verify_identity,
)
from reference_counts import (
    nontriple_product_side,
    phi_degree,
    phi_image,
    phi_part,
    specialized_count_bruteforce,
    specialized_ideal_partitions,
    tricolor_admissible,
    tricolor_count_bruteforce,
    tricolor_partitions_bruteforce,
    tricolor_table_reference,
)

# --- the series type ----------------------------------------------------------


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), 1.0, Fraction(2)])
def test_series_rejects_non_integers(value):
    with pytest.raises(TypeError):
        Series([1, value])


# --- product sides -----------------------------------------------------------


def test_product_forms_agree():
    assert product_side(80) == nontriple_product_side(80)


def test_product_coefficients():
    p = product_side(10)
    assert p[0] == 1
    assert p[4] == 4  # 4, 3+1, 2+2, 2+1+1


def test_product_side_matches_the_list_reference():
    for order in [*range(151), 1000]:
        assert product_side(order) == reference_series.product_side(order), order


# --- the constrained count ----------------------------------------------------


def test_small_counts():
    s = tricolor_count_series(6)
    assert s.coeffs[:3] == [1, 1, 2]
    # degree 1: only the doubly underlined 1; degree 2: plain and underlined 2


def test_sum_side_matches_bruteforce():
    assert tricolor_count_series(24) == tricolor_count_bruteforce(24)


def test_admissibility_examples():
    assert tricolor_admissible([(1, DUNDER)])
    assert not tricolor_admissible([(1, PLAIN)])
    assert not tricolor_admissible([(1, UNDER)])
    assert not tricolor_admissible([(2, DUNDER)])
    assert tricolor_admissible([(2, PLAIN)])
    assert not tricolor_admissible([(3, DUNDER)])  # multiples of three
    assert not tricolor_admissible([(4, PLAIN), (5, UNDER)])  # adjacent


def test_pair_condition_does_not_subsume_windows():
    # passes the distance-one rule but fails a four-window family
    assert not tricolor_admissible([(2, PLAIN), (5, PLAIN)])
    # passes every pair rule and four-window family but fails a triple family
    witness = [(4, UNDER), (6, PLAIN), (8, DUNDER)]
    assert not tricolor_admissible(witness)
    for pair in [witness[:2], witness[1:], [witness[0], witness[2]]]:
        assert tricolor_admissible(pair)


# --- the specialization ---------------------------------------------------------


def test_phi_examples():
    assert phi_part(1, 1) == (1, DUNDER)
    assert phi_part(4, 2) == (6, PLAIN)
    assert phi_part(5, 1) == (3, UNDER)
    assert specialized_count_series(4).coeffs[:2] == [1, 1]


def test_phi_degree_matches_image():
    for p in enumerate_ideal(4):
        assert phi_degree(p) == sum(d for d, _ in phi_image(p))


def test_specialized_matches_bruteforce():
    assert specialized_count_series(24) == specialized_count_bruteforce(24)


def test_phi_is_a_bijection_onto_admissible_sets():
    order = 18
    ideal_images = {
        phi_image(p) for p in specialized_ideal_partitions(order) if p
    }
    assert len(ideal_images) == len(
        [p for p in specialized_ideal_partitions(order) if p]
    )
    admissible = {
        f
        for f in tricolor_partitions_bruteforce(order)
        if f and sum(d for d, _ in f) <= order
    }
    assert ideal_images == admissible


def test_phi_image_of_forbidden_pair_is_inadmissible():
    assert not tricolor_admissible(phi_image(parse_partition("5:-1 4:-1")))
    assert not tricolor_admissible(phi_image(parse_partition("1:-2 3:-1")))


# --- the character oracle --------------------------------------------------------


def test_theta_series_both_signs():
    assert a2_theta_series(40) == reference_series.a2_theta_series_plus(40)


def test_theta_small_values():
    t = a2_theta_series(4)
    assert t.coeffs[:5] == [1, 6, 0, 6, 6]


def test_oracle_values():
    o = character_oracle(6)
    assert o.coeffs == [1, 8, 17, 46, 98, 198, 371]


def test_oracle_matches_the_list_reference():
    for order in [*range(31), 1000]:
        assert character_oracle(order) == reference_series.character_oracle(order), order


def test_colored_part_counts():
    assert colored_part_count_series(5, 8).coeffs == [1, 8, 44, 192, 726, 2464]
    assert colored_part_count_series(5, 2).coeffs == [1, 2, 5, 10, 20, 36]


# --- the identity -----------------------------------------------------------------


def test_identity_small_order():
    rep = verify_identity(40)
    assert rep["ok"]
    assert rep["product"][0] == 1


def test_identity_reports_discrepancy_location():
    a = Series([1, 2, 3])
    b = Series([1, 2, 4])
    assert a.first_difference(b) == 2
    assert a.first_difference(a) is None
    # a coefficient only one side holds is a difference at its index
    assert a.first_difference(Series([1, 2])) == 2
    assert Series([1]).first_difference(a) == 1
    assert Series([1, 5]).first_difference(a) == 1


# --- the forked specialized count -------------------------------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise OSError("forked")


@pytest.fixture
def forking(monkeypatch):
    """verify_identity forks at every order, and a parent that never sees
    its child's pipe close fails with TimeoutError instead of hanging."""
    from affbasis import qseries

    def expire(signum, frame):
        raise TimeoutError("no answer in 60 s")

    monkeypatch.setattr(qseries, "_FORK_FROM_ORDER", 0)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield qseries
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_orders_below_the_fork_threshold_run_in_process(monkeypatch):
    from affbasis import qseries

    monkeypatch.setattr(os, "fork", _no_fork)
    assert verify_identity(qseries._FORK_FROM_ORDER - 1)["ok"]
    with pytest.raises(OSError, match="forked"):
        verify_identity(qseries._FORK_FROM_ORDER)
    _assert_no_child_left()


def test_process_with_another_thread_does_not_fork(forking, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert verify_identity(40)["ok"]
    finally:
        stop.set()
        other.join(10)
    assert not other.is_alive()
    with pytest.raises(OSError, match="forked"):
        verify_identity(40)


@pytest.mark.parametrize("order", [0, 1, 2, 40, 300])
def test_forked_report_equals_the_engines_in_process(forking, order):
    rep = verify_identity(order)
    sides = (rep["product"], rep["specialized"], rep["constrained"])
    assert sides == (
        product_side(order),
        specialized_count_series(order),
        tricolor_count_series(order),
    )
    assert rep["order"] == order and rep["ok"]
    assert rep["product_vs_specialized"] is None and rep["product_vs_constrained"] is None
    _assert_no_child_left()


def test_report_without_fork_is_the_same(forking, monkeypatch):
    forked = verify_identity(40)
    monkeypatch.delattr(os, "fork")
    assert verify_identity(40) == forked
    _assert_no_child_left()


@pytest.mark.parametrize(
    "error, raised",
    [
        (OverflowError("x"), OverflowError("x")),
        (WindowError("short"), RuntimeError("WindowError: short")),
    ],
    ids=["builtin", "library"],
)
def test_child_exception_is_raised_in_the_parent(forking, monkeypatch, error, raised):
    def failing(order):
        raise error

    monkeypatch.setattr(forking, "specialized_count_series", failing)
    with pytest.raises(type(raised)) as caught:
        verify_identity(40)
    assert type(caught.value) is type(raised) and str(caught.value) == str(raised)
    _assert_no_child_left()


@pytest.mark.parametrize(
    "end, message",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: os._exit(3), "exited with status 3"),
    ],
    ids=["sigkill", "exit-3"],
)
def test_child_that_dies_raises_in_the_parent(forking, monkeypatch, end, message):
    parent = os.getpid()

    def dying(order):
        if os.getpid() == parent:
            raise AssertionError("the specialized count ran in the parent")
        end()

    monkeypatch.setattr(forking, "specialized_count_series", dying)
    with pytest.raises(RuntimeError, match=message):
        verify_identity(40)
    _assert_no_child_left()


def test_parent_side_error_kills_and_reaps_the_child(forking, monkeypatch):
    def failing(order):
        raise ValueError("parent side")

    def slow(order):  # runs in the child, which is killed long before
        time.sleep(30)

    monkeypatch.setattr(forking, "product_side", failing)
    monkeypatch.setattr(forking, "specialized_count_series", slow)
    started = time.monotonic()
    with pytest.raises(ValueError, match="parent side"):
        verify_identity(40)
    assert time.monotonic() - started < 10
    _assert_no_child_left()


# --- the packed transfer kernel ----------------------------------------------------


@pytest.mark.parametrize(
    "engine, reference",
    [
        (tricolor_count_series, reference_series.tricolor_count_series),
        (specialized_count_series, reference_series.specialized_count_series),
        (ideal_count_series, reference_series.ideal_count_series),
    ],
    ids=["tricolor", "specialized", "ideal"],
)
def test_packed_engines_match_the_reference_engines(engine, reference):
    for order in [*range(61), 300]:
        assert engine(order) == reference(order), order
    assert engine(0).coeffs == [1]


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 20, 61, 120])
def test_slot_width_bounds_every_intermediate_coefficient(order):
    peak = 0

    def observe(states):
        nonlocal peak
        total = [sum(column) for column in zip(*states.values())]
        peak = max(peak, *total, *(c for series in states.values() for c in series))

    reference_series.tricolor_count_series(order, observe)
    reference_series.specialized_count_series(order, observe)
    assert peak < 2 ** (8 * _slot_size(3, order))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 9, 20, 60, 61, 120])
@pytest.mark.parametrize(
    "engine",
    [tricolor_count_series, specialized_count_series, ideal_count_series],
    ids=["tricolor", "specialized", "ideal"],
)
def test_lumped_engines_fit_their_slot_width(monkeypatch, engine, order):
    # the steps each engine hands the kernel (each on its lumped table, the
    # ideal count on the specialized count's, by size alone), replayed on
    # coefficient lists: every state, every sum of sources and every step's
    # total must fit the byte slot the engine hands the kernel
    from affbasis import qseries

    seen = []

    def spy(order, start, steps, size):
        steps = [list(targets) for targets in steps]
        seen.append((start, steps, size))
        return _transfer(order, start, steps, size)

    monkeypatch.setattr(qseries, "_transfer", spy)
    series = engine(order)
    (start, steps, size), = seen
    history = [{start: [1] + [0] * order}]
    assert reference_series.transfer(order, start, steps, history.append) == series
    zero = [0] * (order + 1)
    peak = 1
    for before, targets, after in zip(history, steps, history[1:]):
        for *_, sources in targets:
            peak = max(peak, *map(sum, zip(zero, *(before.get(src, zero) for src in sources))))
        peak = max(peak, *map(sum, zip(zero, *after.values())))
        peak = max(peak, *(c for series in after.values() for c in series))
    assert peak < 2 ** (8 * size)


@pytest.mark.parametrize("j", [1, 2, 3, 8])
def test_power_bits_bound_the_distinct_parts_power(j):
    # the lemma of _power_bits: every coefficient of prod (1 + q^r)^j up to
    # q^n is at most exp(pi sqrt(jn/3)), so it has at most lemma bits, and
    # _power_bits(j, n), the lemma in integers, is no fewer; the power by
    # list passes, the lemma's own bound in floats (the package has none)
    order = 1000
    power = [1] + [0] * order
    for r in range(1, order + 1):
        for _ in range(j):
            power[r:] = map(operator.add, power[r:], power[: order + 1 - r])
    peak = list(itertools.accumulate(power, max))
    for n in [*range(151), order]:
        lemma = math.floor(math.pi / math.log(2) * math.sqrt(j * n / 3)) + 1
        assert peak[n].bit_length() <= lemma <= _power_bits(j, n), (j, n)


def _tricolor_moves(degree, window):
    # the window moves at one degree, from the local rules: each (places a
    # part, (phase, next window)) pair, the phase being the table index
    return [
        (choice != 0, (min(degree, 6 + degree % 3), window[1:] + (choice,)))
        for choice in (0, PLAIN, UNDER, DUNDER)
        if (not choice or _local_part_ok(degree, choice))
        and not _window_violation(degree, window + (choice,))
    ]


def _layer_moves(upper):
    return [
        ((len(layer), sum(_PHI_OFFSET[c] for c in layer)), (0, layer))
        for layer in INDEPENDENT_COLOR_SETS
        if compatible_layers(layer, upper)
    ]


def _assert_lumpable(lumped, moves_of):
    """Every member of every class has the same multiset of (letter, class
    of target) pairs, under each list of moves `moves_of(node)` gives, and
    the lumped targets read each class once per such move, from distinct
    classes."""
    classes, tables = lumped
    futures = {}
    for node, cls in classes.items():
        for moves in moves_of(node):
            future = sorted((letter, classes[dst]) for letter, dst in moves)
            assert futures.setdefault(cls, future) == future, node
    phase = {cls: node[0] for node, cls in classes.items()}
    reads = Counter()
    for targets in tables.values():
        for dst, letter, sources in targets:
            assert len(set(sources)) == len(sources)
            reads.update((cls, letter, dst) for cls in sources)
    assert reads == Counter(
        (cls, letter, dst) for cls, future in futures.items() for letter, dst in future
    )
    assert all(phase[dst] == p for p, targets in tables.items() for dst, *_ in targets)
    return Counter(phase.values())


def test_lumped_graphs_are_lumpable():
    # a tricolor node's phase p is the table index of the degrees it follows:
    # p alone for p < 6, and p, p + 3, ... after that
    def tricolor(node):
        p, window = node
        return [_tricolor_moves(d + 1, window) for d in ([p] if p < 6 else [p, p + 3, p + 6])]

    per_phase = _assert_lumpable(_tricolor_table(), tricolor)
    assert per_phase == {0: 1, 1: 2, 2: 3, 3: 6, 4: 5, 5: 3, 6: 6, 7: 5, 8: 3}
    layers = _layer_table()
    assert len(layers[0]) == len(INDEPENDENT_COLOR_SETS) == 19
    assert _assert_lumpable(layers, lambda node: [_layer_moves(node[1])]) == {0: 6}
    # the ideal count reads the same table by the letter's size alone: the
    # classes must be stable for that letter too, and the size-only targets
    # must read each class once per move
    classes, tables = layers
    by_size = {p: [(dst, size, srcs) for dst, (size, _), srcs in ts] for p, ts in tables.items()}
    sizes = lambda node: [[(size, dst) for (size, _), dst in _layer_moves(node[1])]]
    assert _assert_lumpable((classes, by_size), sizes) == {0: 6}


def test_tricolor_table_reaches_every_window_the_full_table_reaches():
    # the table compiles the moves of each window as the lumping reaches
    # it; the reference compiles every window at every phase first, so a
    # reachable window the lazy route dropped would change a class or target
    classes, tables = _tricolor_table()
    reference_classes, reference_tables = tricolor_table_reference()
    assert classes == reference_classes
    assert tables == reference_tables
    assert len(classes) == 126 and len(set(classes.values())) == 34


def test_ideal_count_series_is_the_ideal_count():
    assert ideal_count_series(9).coeffs == [len(enumerate_ideal(n)) for n in range(10)]
    assert ideal_count_series(60) == character_oracle(60)


@st.composite
def transfer_graphs(draw):
    """A transfer over at most 4 states and 6 steps, with its order.  Each
    step has one to six targets, whose destinations often repeat, and draws
    their sources from a pool of one to three tuples together with the same
    tuples reading their first state twice, so targets often share a sources
    tuple with different costs, and a tuple and its repeat often meet in one
    step; each tuple reads a destination of the step before, so the
    transfer does not die out at once.  Costs range over 0..order+1, and 0,
    order, order + 1 and two costs past 2*order are drawn often."""
    order = draw(st.integers(0, 12))
    state = st.integers(0, 3)
    cost = st.one_of(
        st.integers(0, 2),
        st.integers(0, order + 1),
        st.sampled_from([order, order + 1, 2 * order + 1, 3 * order + 5]),
    )
    start = draw(state)
    reached, steps = [start], []
    for _ in range(draw(st.integers(0, 6))):
        sources = st.tuples(st.sampled_from(reached), st.lists(state, max_size=3))
        pool = [(first, *rest) for first, rest in draw(st.lists(sources, min_size=1, max_size=3))]
        pool += [(t[0], *t) for t in pool]
        reached = draw(st.lists(state, min_size=1, max_size=6))
        steps.append([(dst, draw(cost), draw(st.sampled_from(pool))) for dst in reached])
    return order, start, steps


@settings(max_examples=300)
@given(transfer_graphs())
def test_transfer_matches_the_list_reference(graph):
    order, start, steps = graph
    # a step has at most 6 targets of at most 5 reads each, so every state,
    # sum of sources and total is at most 30 times the largest state before
    # it, and at most 30 ** len(steps) < 2 ** (5 * len(steps) + 1), which
    # the byte slot holds
    size = (5 * len(steps) + 8) // 8
    assert _transfer(order, start, steps, size) == reference_series.transfer(
        order, start, steps
    )


def test_transfer_overflow_out_of_the_top_slot_raises():
    # eight doublings of the constant term: 256 does not fit one byte
    doubling = [(0, 0, (0, 0))]
    assert _transfer(0, 0, [doubling] * 7, 1) == Series([128])
    with pytest.raises(OverflowError):
        _transfer(0, 0, [doubling] * 8, 1)


def test_sum_plan_extends_the_largest_formed_sub_multiset():
    # the specialized table's six distinct tuples are nested, so each one
    # after the first extends the one before by one state: 5 additions,
    # where summing each tuple from nothing reads 21 states
    signature = tuple(sources for *_, sources in _layer_table()[1][0])
    plan = _sum_plan(signature)
    assert len(plan) == len(set(signature)) == 6
    assert sum(map(len, set(signature))) == 21
    assert sum(len(extra) - (not base) for _, base, extra in plan) == 5
    # a tuple is a multiset: (a, a, b) is (a, b) and one more read of a,
    # or (b,) and two more
    a, b = "a", "b"
    assert _sum_plan(((a, a, b), (a, b), (a, a, b))) == [
        ((a, b), (), (a, b)),
        ((a, a, b), (a, b), (a,)),
    ]
    assert _sum_plan(((a, a, b), (b,)))[1] == ((a, a, b), (b,), (a, a))
