import functools
from collections import Counter
from fractions import Fraction

import pytest

from affbasis.algebra import E1_COLOR, E2_COLOR, F1_COLOR, F2_COLOR, Weight
from affbasis.enveloping import (
    EnvElement,
    Window,
    WindowError,
    act,
    apply_mode,
    apply_word,
    graded_basis,
)
from affbasis.linalg import SpanReducer, add_scaled
from affbasis.partitions import (
    cubic_a_label,
    cubic_b_label,
    format_partition,
    order_key,
    parse_partition,
    parts_shape,
    quad_adjacent_label,
    quad_same_label,
    quadratic_leading_labels,
    relation_set,
    shapes_at_most,
    sort_parts,
)
from affbasis.relations import (
    LoopTensor,
    RelationSpace,
    _q27_combination,
    _tensor_column_key,
    basis_counts_report,
    collapse,
    collapse_report,
    label_for_quadratic,
    loop_action,
    orbit_basis,
    r_basis,
    reference_form,
    relation_on_vacuum,
    relation_space,
    shift_matrix,
    syzygy_dimensions,
    syzygy_tensor_64,
    syzygy_tensors,
    transport_matrix,
    vertex_mode,
)
from reference_enveloping import (
    adjoint_mode,
    coefficient,
    element_weight,
    leading_term,
    narrowed,
    total_degree,
)
from reference_rank import markowitz_rank
from reference_relations import (
    WindowedTensor,
    canonical_collapse,
    canonical_orbit_basis,
    canonical_tensor,
    canonical_vector,
    certified_rank,
    closure_relation_space,
    combined_weight_block,
    full_orbit_basis,
    max_submodule_rank,
    per_degree_quadratics,
    per_degree_shift_matrix,
    per_degree_transport_matrix,
    relation_for,
    tensor_is_zero,
    tensor_leading_partition,
    tensor_orbit_basis,
    tensor_scale,
    tensor_weight,
    windowed_collapse,
    windowed_loop_action,
    windowed_syzygy_tensors,
    with_stray_term,
    written_out,
    x1_generator_coefficient,
)

W8 = Window(8)


def generator(n, window):
    """Y(X1(-1)^2 . vac)_n, the quadratic generator of degree n."""
    return vertex_mode({((1, -1), (1, -1)): 1}, n, window)


# --- the quadratic generator -----------------------------------------------


def test_generator_examples():
    e = generator(-2, W8)
    v = act(e, {(): 1})
    assert v == {parse_partition("1:-1 1:-1"): 1}
    assert format_partition(leading_term(generator(-3, W8), max_length=2)) == "1:-2 1:-1"
    assert element_weight(generator(-3, W8)) == Weight(2, 2)


def test_generator_leading_coefficients():
    assert coefficient(generator(-3, W8), ((1, -2), (1, -1))) == 2
    assert coefficient(generator(-2, W8), ((1, -1), (1, -1))) == 1


# --- relation spaces -----------------------------------------------------------


@pytest.mark.parametrize("n, bound", [(2, 1), (3, 2), (9, 3), (8, 7)])
def test_space_without_a_generator_term_is_a_window_error(n, bound):
    # the window holds no term of the generator, so the space would be empty
    assert not generator(n, Window(bound)).terms
    with pytest.raises(WindowError, match="short of its 27-row table"):
        relation_space(n, Window(bound))


# up to the window bound: the degree-8 space has full rank in Window(8)
@pytest.mark.parametrize("n", [-6, -5, -2, 1, 2, 8])
def test_space_dimension_and_tables(n):
    space = relation_space(n, W8)
    assert space.dimension == 27
    assert sorted(space.labels) == sorted(quadratic_leading_labels(n))


def test_r_short_of_27_is_an_internal_error(monkeypatch, capsys):
    # lowered by F1 alone, the generator spans a proper subspace of R, whose
    # leading terms all lie in the table; no window enters, so it is a
    # failed check (exit 1), not a window error
    import functools

    from affbasis import relations
    from affbasis.cli import EXIT_FALSIFIED, main

    monkeypatch.setattr(relations, "F2_COLOR", F1_COLOR)
    monkeypatch.setattr(relations, "r_basis", functools.cache(r_basis.__wrapped__))
    monkeypatch.setattr(
        relations, "_parity_basis", functools.cache(relations._parity_basis.__wrapped__)
    )
    with pytest.raises(AssertionError, match="R has rank"):
        relations.r_basis()
    assert main(["verify", "lemma1"]) == EXIT_FALSIFIED
    assert "witness=AssertionError: R has rank" in capsys.readouterr().out


def test_space_short_of_its_table_is_a_window_error():
    # past the window's bound every mode of R lies outside it
    with pytest.raises(WindowError, match="rank 0 in window 3, short of its 27-row table"):
        RelationSpace(4, Window(3))


def test_space_pivots_are_their_leading_terms():
    # the argument at `RelationSpace`, wherever the space has rank 27 (n <=
    # bound): a pivot is the order_key-least term of its row, no term has
    # more than two parts, and every shape at or below the pivot weighs no
    # more than it, so the reference candidate scan certifies the pivot
    def weight(shape):
        return sum(d for d in shape if d > 0)

    for bound in range(9):
        for n in range(-11, bound + 1):
            space = relation_space(n, Window(bound))
            for label, elem in space.elements.items():
                lead = label.partition()
                assert min(elem.terms, key=order_key) == lead, (n, bound, label)
                assert max(map(len, elem.terms)) == 2
                assert leading_term(elem, 2) == lead
                top = parts_shape(lead)
                for shape in shapes_at_most(top, len(top), n):
                    assert weight(shape) <= weight(top), (n, bound, label, shape)


def test_relation_spaces_match_the_closure_route():
    # the span of Y(v_L)_n against the windowed closure of the generator
    # under the adjoint F1(0) and F2(0), label for label and element for
    # element; past the window's bound both routes are window errors
    for bound in (3, 8):
        window = Window(bound)
        for n in range(-bound - 3, bound + 1):
            space = relation_space(n, window)
            closed = closure_relation_space(n, window)
            assert list(closed) == space.labels, (bound, n)
            for label, elem in closed.items():
                assert elem.terms == space.elements[label].terms, (bound, n, label)
                assert elem.window == space.elements[label].window
        for build in (RelationSpace, closure_relation_space):
            with pytest.raises(WindowError):
                build(bound + 1, window)
    # R is the span of the degree -2 relation vectors, label for label
    for label, v in r_basis().items():
        assert v == relation_on_vacuum(label), label
        for bound in range(3, 9):
            assert v == act(relation_for(label, Window(bound)), {(): 1}), (bound, label)
    # Y(v)_n is exact on its window: a far wider one narrows to it
    for bound in (3, 5):
        for n in (-bound - 3, -3, 0, bound):
            for v in r_basis().values():
                wide = narrowed(vertex_mode(v, n, Window(bound + 6)), bound)
                assert vertex_mode(v, n, Window(bound)).terms == wide.terms, (bound, n)


def test_zero_mode_images_need_no_window_filter():
    for n in (-3, 2):
        space = relation_space(n, Window(3))
        for label in space.labels:
            elem = space.elements[label]
            for color in range(1, 9):
                image = adjoint_mode(elem, color, 0)
                filtered = EnvElement(image.terms, elem.window)
                assert image.window == elem.window
                assert image.terms == filtered.terms, (n, label, color)


def test_space_expansion_coefficients():
    # the two expansions used to assemble the cubic relations
    r51 = relation_for(quad_same_label(5, 1, -1), W8)
    assert coefficient(r51, ((5, -1), (1, -1))) == 1
    assert coefficient(r51, ((4, -1), (1, -1))) == 1
    r35 = relation_for(quad_adjacent_label(3, 5, -1), W8)
    assert coefficient(r35, ((3, -2), (5, -1))) == 1
    assert coefficient(r35, ((5, -2), (3, -1))) == 1


def test_relations_vanish_at_other_pivots():
    space = relation_space(-4, W8)
    labels = space.labels
    for label in labels[:5]:
        elem = space.elements[label]
        for other in labels:
            expected = 1 if other == label else 0
            assert coefficient(elem, other.partition()) == expected


def test_relation_annihilates_quotient_spot_check():
    # each relation's vacuum image must lie inside the maximal submodule:
    # its coordinates at ideal partitions never appear alone; here we just
    # pin the image of the smallest one
    v = act(relation_for(quad_same_label(1, 1, -1), W8), {(): 1})
    assert v == {parse_partition("1:-1 1:-1"): 1}


def test_coordinates_check_the_residual_on_the_common_window():
    space = relation_space(-2, Window(3))
    label = space.labels[0]
    assert space.coordinates(space.elements[label]) == {label: 1}
    # annihilation weight 4 lies in the element's window but not the space's
    assert space.coordinates(EnvElement({((1, -6), (1, 4)): 1}, W8)) == {}
    with pytest.raises(WindowError, match="does not lie"):
        space.coordinates(EnvElement({((1, -5), (1, 3)): 1}, W8))


# --- cubic relations -------------------------------------------------------------


def test_cubic_a():
    body = relation_for(cubic_a_label(-1), W8)
    assert format_partition(leading_term(body, max_length=3)) == "3:-2 4:-1 1:-1"
    ordered = sorted(body.terms.items(), key=lambda kv: order_key(kv[0]))
    assert ordered[:2] == [
        (parse_partition("3:-2 4:-1 1:-1"), 1),
        (parse_partition("5:-2 3:-1 1:-1"), -1),
    ]


def test_cubic_b():
    body = relation_for(cubic_b_label(-1), W8)
    assert format_partition(leading_term(body, max_length=3)) == "8:-2 4:-2 6:-1"
    assert element_weight(body) == Weight(-1, -2)
    assert total_degree(body) == -5


def test_cubic_translation_consistency():
    a1 = relation_for(cubic_a_label(-1), W8)
    a2 = relation_for(cubic_a_label(-2), W8)
    translated = {
        tuple((c, d - 3) for c, d in parts) for parts in a1.terms
    }
    # degree shifts by 3 per anchor step; leading terms must translate
    assert leading_term(a2, max_length=3) == parse_partition("3:-3 4:-2 1:-2")
    assert total_degree(a1) == -4 and total_degree(a2) == -7
    assert translated  # smoke: nonempty


# --- the zero-mode action and the transport ------------------------------------------


def test_shift_matrix_h_eigenvalue():
    m = shift_matrix(4)
    lab = quad_same_label(1, 1, -1)
    assert m[lab] == {lab: 2}  # [h1, X1 X1 pair] eigenvalue 2


def test_raising_shift_at_the_top_label_degree_is_exact():
    # the windowed 64 tensor has slots up to degree bound + 1; a k = +2
    # action on the profile, written out where the windowed image is
    # certified, is that image slot for slot
    window = Window(3)
    t = windowed_syzygy_tensors(0, window)["64"]
    assert max(t.n - i for (_, i), _ in t.terms) == 4
    for x_color in (E1_COLOR, 6, 7):
        image = windowed_loop_action(x_color, 2, t)
        exact = loop_action(x_color, 2, syzygy_tensor_64(0))
        assert written_out(exact, image.i_lo, image.i_hi).terms == image.terms, x_color


def test_transport_aligns_generator():
    t = transport_matrix()
    src = quad_same_label(1, 1, -1)
    assert t[src] == {quad_adjacent_label(1, 1, -1): Fraction(2)}


def test_parity_matrices_match_the_per_degree_computation():
    # the lemma at shift_matrix, checked against the matrices computed at
    # each degree pair: Y(v)_n over the canonical labels of degree n, moved
    # by ad(x(k)) there, is Y(x(0) v)_(n+k) over those of degree n + k.  At
    # k = 0 and n = -2 that compares the window-free zero mode, read off
    # V_2, with the windowed adjoint on the degree -2 space.  The
    # per-degree route raises WindowError where a target pivot leaves its
    # image window, and those cases are skipped
    def over(conversion, v):
        out: dict = {}
        for lab, c in v.items():
            add_scaled(out, conversion[lab].items(), c)
        return out

    skipped = 0
    for window in (Window(4), Window(8)):
        labels = relation_space(-2, window).labels
        convert = {
            m: {lab: canonical_vector({lab: 1}, m) for lab in labels}
            for m in range(-12, 5)
        }
        for m in range(-10, 3):
            assert convert[m] == per_degree_transport_matrix(m, window), m
        for x_color in range(1, 9):
            zero_mode = shift_matrix(x_color)
            for k in range(-2, 3):
                for n in range(-10, 3):
                    try:
                        matrix = per_degree_shift_matrix(x_color, k, n, window)
                    except WindowError:
                        skipped += 1
                        continue
                    for lab, column in zero_mode.items():
                        moved = over(matrix, convert[n][lab])
                        assert moved == over(convert[n + k], column), (x_color, k, n)
    assert skipped == 16


def test_a_failed_premise_stops_every_nonzero_shift(monkeypatch):
    import functools

    import affbasis.relations as relations

    label, first = next(iter(r_basis().items()))
    monkeypatch.setattr(relations, "apply_mode", with_stray_term(relations.apply_mode, first))
    monkeypatch.setattr(
        relations, "_premise_witness", functools.cache(relations._premise_witness.__wrapped__)
    )
    t = syzygy_tensor_64(-4)
    witness = f"{format_partition(label.partition())} killed-by X_4(1) fails"
    for k in (-2, -1, 1, 2):
        with pytest.raises(relations.PremiseError) as failed:
            relations.loop_action(F1_COLOR, k, t)
        assert failed.value.witness == witness
    # a zero mode does not need the premise, and reads no relation vector
    assert relations.loop_action(F1_COLOR, 0, t).n == t.n


# --- syzygies ----------------------------------------------------------------------


def test_syzygy_64_coefficients():
    for j in (-1, -2):
        t = syzygy_tensor_64(3 * j)
        assert x1_generator_coefficient(t, j) == 0
        t2 = syzygy_tensor_64(3 * j - 1)
        assert x1_generator_coefficient(t2, j) == 1


def test_syzygy_64_highest_weight():
    t = syzygy_tensor_64(-3)
    for e_color in (2, 3):
        for k in (-2, -1, 0, 1, 2):
            image = loop_action(e_color, k, t)
            assert tensor_is_zero(image), (e_color, k)
    h_image = loop_action(4, 0, t)
    assert tensor_is_zero(h_image - tensor_scale(t, 3))


def test_syzygy_weights():
    tensors = syzygy_tensors(-2, W8)
    assert tensor_weight(tensors["64"]) == Weight(3, 3)
    assert tensor_weight(tensors["35"]) == Weight(2, 3)
    assert tensor_weight(tensors["35u"]) == Weight(3, 2)
    assert tensor_weight(tensors["27"]) == Weight(2, 2)


def test_syzygy_27_highest_weight():
    t = syzygy_tensors(-2, W8)["27"]
    for e_color in (2, 3):
        assert tensor_is_zero(loop_action(e_color, 0, t))


def test_orbit_dimensions():
    dims = syzygy_dimensions(-2, W8)
    assert dims == {"64": 64, "35": 35, "35u": 35, "27": 27}


def test_zero_mode_columns_are_the_loop_action_at_degree_zero():
    # the image of each numbered pair (a, L) under x(0) is the loop action
    # x(0) on the one-slot tensor X_a(0) tensor v_L, with the slot dropped
    from affbasis import relations

    pairs, index = relations._pair_numbering()
    assert len(pairs) == 216 == len(index)
    labels = list(r_basis())
    assert pairs[:9] == tuple((a, labels[0]) for a in range(1, 9)) + ((1, labels[1]),)
    for x_color in range(1, 9):
        columns = relations._zero_mode_columns(x_color)
        assert len(columns) == 216
        for (a, label), column in zip(pairs, columns):
            one_slot = WindowedTensor(-2, {((a, 0), label): 1}, 0, 0)
            image = windowed_loop_action(x_color, 0, one_slot).terms
            assert {i for (_, i), _ in image} <= {0}
            assert dict(column) == {index[b, l2]: c for ((b, _), l2), c in image.items()}


def test_orbit_dimensions_match_the_whole_tensor_orbits():
    # the orbit of each family's reference vector, closed on the numbered
    # pairs of 8 tensor R, against the closure of its whole tensor
    for n, window in ((0, Window(3)), (-2, Window(6))):
        dims = syzygy_dimensions(n, window)
        for family, t in windowed_syzygy_tensors(n, window).items():
            assert dims[family] == len(tensor_orbit_basis(t)), (n, family)


@pytest.mark.parametrize("n, bound", [(0, 3), (-2, 6)])
def test_lowered_orbit_is_the_four_mode_orbit(n, bound):
    # the closure under F1(0) and F2(0) from a highest-weight seed against
    # the closure under E1, E2, F1 and F2: the same rank, and each basis
    # lies in the other's span
    for family, t in windowed_syzygy_tensors(n, Window(bound)).items():
        lowered, full = tensor_orbit_basis(t), full_orbit_basis(t)
        assert len(lowered) == len(full), family
        for rows, others in ((lowered, full), (full, lowered)):
            reducer = SpanReducer(_tensor_column_key)
            for vec in others:
                reducer.insert(vec.terms)
            assert not any(reducer.reduce(vec.terms) for vec in rows), family


def _reference_vector(family: str) -> dict:
    """The family's reference vector in 8 tensor R, as `_orbit_dimension`
    closes it."""
    v, _ = reference_form(family, syzygy_tensors(0, Window(3))[family])
    return v


def test_orbit_basis_rejects_a_lowered_seed():
    # F1(0) on the 64 family's vector, by the loop action on its one-slot tensor
    one_slot = {((a, 0), lab): c for (a, lab), c in _reference_vector("64").items()}
    image = windowed_loop_action(F1_COLOR, 0, WindowedTensor(-2, one_slot, 0, 0)).terms
    lowered = {(a, lab): c for ((a, _), lab), c in image.items()}
    with pytest.raises(AssertionError) as info:
        orbit_basis(lowered)
    assert str(info.value) == "E1(0) does not kill the seed: X_1(0) tensor 1:-1 1:-1 survives with 3"


def test_orbit_basis_rejects_a_seed_of_two_weights():
    mixed = add_scaled(_reference_vector("64"), _reference_vector("27").items())
    # both are highest-weight vectors, so E1(0) and E2(0) kill the sum
    with pytest.raises(AssertionError) as info:
        orbit_basis(mixed)
    assert str(info.value) == "the seed is not a weight vector: it has weights (2, 2) and (3, 3)"


def test_orbit_closure_applies_no_raising_mode(monkeypatch):
    # each closure applies E1(0) and E2(0) once, to its seed, and F1(0) and
    # F2(0) once to each of its basis vectors: 64 + 35 + 35 + 27 = 161
    from affbasis import relations

    calls = Counter()
    original = relations._apply_zero_mode

    def counted(x_color, vec):
        calls[x_color] += 1
        return original(x_color, vec)

    monkeypatch.setattr(relations, "_apply_zero_mode", counted)
    fresh = functools.cache(relations._orbit_dimension.__wrapped__)
    monkeypatch.setattr(relations, "_orbit_dimension", fresh)
    assert sorted(relations.syzygy_dimensions(0, Window(3)).values()) == [27, 35, 35, 64]
    assert calls == {E1_COLOR: 4, E2_COLOR: 4, F1_COLOR: 161, F2_COLOR: 161}


def test_reference_forms_of_the_syzygy_families():
    # 64: X1 tensor the reference generator with profile 3i - n; 27: the q27
    # pairs, negated to be positive at the least key, with a constant profile
    window = Window(3)
    combo, _ = _q27_combination()
    for n in (-3, 0):
        tensors = syzygy_tensors(n, window)
        v, profile = reference_form("64", tensors["64"])
        assert v == {(1, quad_same_label(1, 1, -1)): 1}
        assert profile == (3, -n)
        v, profile = reference_form("27", tensors["27"])
        assert v == {pair: -c for pair, c in combo}
        assert profile == (0, -1)
        for family, p in (("35", -6), ("35u", 6)):
            v, profile = reference_form(family, tensors[family])
            assert len(v) == 2 and profile == (0, p), family


def test_reference_form_rejects_a_constant_part_off_the_slope():
    # X2 tensor the generator's label added to the 64 family's constant part
    t = syzygy_tensor_64(-3)
    label = quad_same_label(1, 1, -1)
    with pytest.raises(AssertionError) as info:
        reference_form("64", LoopTensor(-3, {**t.terms, ((2, label), 0): 1}))
    assert str(info.value) == (
        "64 family at n=-3: the constant part is not a multiple of the slope part"
    )


def test_collapse_annihilation_and_scalar():
    rep = collapse_report(-3, W8)
    assert rep["psi_64_zero"] and rep["psi_35_zero"] and rep["psi_35u_zero"]
    assert rep["psi_27_match"]
    assert rep["c"] == 1  # - (n + 2) at n = -3


def test_collapse_matches_the_canonical_label_reference():
    # each slot's body read as Y(v_L)_(n-i) against the canonical elements of
    # the window's relation spaces, through the transport at odd degrees
    for bound in (3, 6):
        window = Window(bound)
        for n in range(-6, 1):
            windowed = windowed_syzygy_tensors(n, window)
            for family, t in syzygy_tensors(n, window).items():
                image = collapse(t, window)
                reference = canonical_collapse(windowed[family], window)
                assert image.window == reference.window, (bound, n, family)
                assert image.terms == reference.terms, (bound, n, family)
    # and slot by slot: X_a(i) tensor v_L for every label, at both parities
    window = Window(3)
    for n in (-3, -2):
        for label in r_basis():
            for a, i in ((1, -1), (6, 0), (8, 1)):
                t = WindowedTensor(n, {((a, i), label): 1}, n - 3, 3)
                image = windowed_collapse(t, window)
                assert not image.is_zero(), (n, label, i)
                assert image.terms == canonical_collapse(t, window).terms, (n, label, i)


def test_profiles_match_the_windowed_reference():
    # the four families, their images under x(k) and their collapses,
    # against the tensors written out slot by slot over a certified interval
    for bound in range(6, 11):
        window = Window(bound)
        for n in range(-8, 3):
            windowed = windowed_syzygy_tensors(n, window)
            for family, t in syzygy_tensors(n, window).items():
                reference = windowed[family]
                case = (bound, n, family)
                assert written_out(t, reference.i_lo, reference.i_hi).terms == reference.terms, case
                for k in range(-2, 3):
                    for x_color in range(1, 9):
                        image = windowed_loop_action(x_color, k, reference)
                        exact = loop_action(x_color, k, t)
                        assert exact.n == image.n, (case, x_color, k)
                        written = written_out(exact, image.i_lo, image.i_hi)
                        assert written.terms == image.terms, (case, x_color, k)
                assert collapse(t, window).terms == windowed_collapse(reference, window).terms, case


@pytest.mark.parametrize("n, bound", [(0, -1), (-3, -1), (1, 0), (2, 1)])
def test_a_window_lighter_than_the_degree_raises(n, bound):
    # a degree-n monomial weighs at least max(n, 0): on a lighter window
    # every collapse is zero, and every check would pass with c = 0
    window = Window(bound)
    for check in (syzygy_tensors, syzygy_dimensions, collapse_report):
        with pytest.raises(WindowError, match=f"window {bound} holds no monomial of degree {n}"):
            check(n, window)
    assert collapse_report(n, Window(max(n, 0)))["c"] == -(n + 2)


def test_collapse_scalar_profile():
    values = {n: collapse_report(n, Window(6))["c"] for n in (-4, -3, -2, -1)}
    assert values == {-4: 2, -3: 1, -2: 0, -1: -1}


def test_collapse_acts_as_zero_spot_check():
    # direct action check on a handful of module vectors
    tensors = syzygy_tensors(-1, Window(5))
    image = collapse(tensors["35"], Window(5))
    from affbasis.enveloping import graded_basis

    for p in graded_basis(3)[:40]:
        assert act(image, {p: 1}) == {}


def test_tensor_leading_shapes():
    window = Window(6)
    tensors = windowed_syzygy_tensors(-6, window)
    expected = {"64": (-3, -2, -1), "27": (-2, -2, -2), "35": (-2, -2, -2), "35u": (-2, -2, -2)}
    for name, shape in expected.items():
        shapes = {
            parts_shape(tensor_leading_partition(v))
            for v in canonical_orbit_basis(tensors[name])
        }
        assert shapes == {shape}, name


def test_exceptional_weight_block():
    # at degree 3j-1 the exceptional weight block has dimension 6 and its
    # leading terms avoid the excluded partition
    dim, leading = combined_weight_block(-7, Weight(1, 2), Window(6))
    assert dim == 6
    assert parse_partition("3:-3 5:-2 1:-2") not in leading
    assert parse_partition("3:-3 4:-2 1:-2") not in leading


# --- the graded rank verification -------------------------------------------------------


def test_rank_small_depths():
    assert max_submodule_rank(0, Window(6)) == 0
    assert max_submodule_rank(1, Window(6)) == 0
    assert max_submodule_rank(2, Window(6)) == 27
    assert max_submodule_rank(3, Window(6)) == 146


def test_basis_counts_small():
    rows = basis_counts_report(3, Window(6))
    assert [r["ideal"] for r in rows] == [1, 8, 17, 46]
    assert all(r["ok"] for r in rows)


def test_certified_rank_matches_the_elimination_rank():
    for row in basis_counts_report(5, W8):
        assert row["witness"] is None
        assert row["rank"] == max_submodule_rank(row["n"], W8), row


def test_basis_counts_report_runs_no_elimination(monkeypatch):
    from affbasis import linalg, relations

    def forbidden(*args):
        raise AssertionError("the verdict path must not eliminate")

    monkeypatch.setattr(relations, "submodule_span_blocks", forbidden)
    monkeypatch.setattr(linalg, "sparse_rank", forbidden)
    assert all(row["ok"] for row in basis_counts_report(4, W8))


def test_row_certificate_agrees_with_the_per_factor_report():
    on_vacuum = {}
    for row in basis_counts_report(5, W8):
        rank, witness = certified_rank(row["n"], W8, on_vacuum)
        assert witness is None, row
        assert rank == row["rank"] == max_submodule_rank(row["n"], W8), row


def test_order_key_is_multiplicative_and_each_factor_leads_its_rows():
    # adjacent pairs of the sorted depth 2-4 partitions stand for every pair
    # p < q, by transitivity
    pool = sorted((p for n in (2, 3, 4) for p in graded_basis(n)), key=order_key)
    for kappa in graded_basis(1) + graded_basis(2):
        keys = [order_key(sort_parts(kappa + p)) for p in pool]
        assert all(a < b for a, b in zip(keys, keys[1:])), kappa
    # so lt(u(kappa) . (r_rho . vac)) = kappa + rho on every row of depth <= 4
    factors = [rho for rho in relation_set(-2, -1) if rho.degree() >= -4]
    assert len(factors) == 27 + 27 + 28
    for rho in factors:
        v0 = relation_on_vacuum(rho)
        for kappa in (k for n in range(5 + rho.degree()) for k in graded_basis(n)):
            row = apply_word(kappa, v0)
            assert min(row, key=order_key) == sort_parts(kappa + rho.partition())


def test_parity_rows_match_the_per_degree_echelons():
    # each quadratic row on the vacuum, written from R's echelon of its
    # parity, against the echelon built at its own degree: term for term,
    # and with int coefficients, though the odd echelon's w_L has halves
    for m in range(-2, -41, -1):
        per_degree = per_degree_quadratics(m)
        assert sorted(per_degree) == sorted(quadratic_leading_labels(m)), m
        for label, row in per_degree.items():
            vacuum = relation_on_vacuum(label)
            assert vacuum == row, (m, label)
            assert all(type(c) is int for c in vacuum.values()), (m, label)


def test_factor_anchors_list_the_scanned_factors(monkeypatch):
    # `_factor_witness` reads each factor at its anchor, against the scan of
    # every anchor from -(n // 2) to -1; no anchor j >= 0 is read, where
    # cubic_b at j = 0 has degree -2 and a zero mode
    from affbasis import relations

    listed = []

    def leading_with_itself(label):
        listed.append(label)
        return {label.partition(): 1}

    monkeypatch.setattr(relations, "relation_on_vacuum", leading_with_itself)
    assert cubic_b_label(0).degree() == -2
    for n in range(2, 201):
        listed.clear()
        assert relations._factor_witness(n) is None, n
        assert listed == [rho for rho in relation_set(-(n // 2), -1) if rho.degree() == -n], n
        assert all(rho.j <= -1 for rho in listed), n


def test_factor_vectors_match_the_windowed_relations():
    # the windowless vector of each factor against its windowed relation
    # applied to the vacuum: a quadratic's vector is r . vac itself, and a
    # cubic's is the length-3 part of r . vac, which holds the lead.  The
    # relations come from the relation spaces, and to depth 12 also from the
    # closure route, which shares no code with the vacuum writer
    # (`vertex_mode` and the writer both read `relations._mode_terms`)
    closure = functools.cache(closure_relation_space)
    inputs = ((8, 10, None), (8, 14, None), (12, 12, None), (12, 4, closure))
    for max_depth, bound, space in inputs:
        factors = [
            rho for rho in relation_set(-(max_depth // 2), -1) if rho.degree() >= -max_depth
        ]
        # cubic_a has degree 3j - 1 and cubic_b 3j - 2
        assert sum(len(rho.colors) == 3 for rho in factors) == 2 * ((max_depth - 1) // 3)
        for rho in factors:
            windowed = act(relation_for(rho, Window(bound), space), {(): 1})
            if len(rho.colors) == 3:
                windowed = {p: c for p, c in windowed.items() if len(p) == 3}
                assert min(windowed, key=order_key) == rho.partition(), rho
            assert relation_on_vacuum(rho) == windowed, (max_depth, bound, rho)


def test_degree_1_modes_kill_r():
    # the premise applies only X_4(1): the z with z(1) R = 0 form an ideal
    # of the simple sl(3), so every X_a(1) kills R once H1 does
    for label, v in r_basis().items():
        for a in range(1, 9):
            assert apply_mode((a, 1), v) == {}, (label, a)


def test_degree_2_modes_kill_r():
    # the premise applies only X_4(1); X_a(2) = sums of [X_b(1), X_c(1)]
    # kills R too
    for label, v in r_basis().items():
        for a in range(1, 9):
            assert apply_mode((a, 2), v) == {}, (label, a)


def test_a_relation_vector_outside_the_submodule_fails_the_premise(monkeypatch):
    import functools

    from affbasis import relations

    # the stray X_1(-2).vac leaves every factor vector, so every row still
    # leads with its own partition, but the first vector of R is not singular
    label, first = next(iter(r_basis().items()))
    monkeypatch.setattr(relations, "apply_mode", with_stray_term(relations.apply_mode, first))
    monkeypatch.setattr(
        relations, "_premise_witness", functools.cache(relations._premise_witness.__wrapped__)
    )
    rows = basis_counts_report(3, Window(6))
    assert [row["ok"] for row in rows] == [True, True, False, False]
    witness = f"{format_partition(label.partition())} killed-by X_4(1) fails"
    assert [row["witness"] for row in rows] == [None, None, witness, witness]
    assert [row["rank"] for row in rows] == [0, 0, 27, 146]


@pytest.mark.parametrize(
    "generator, witness",
    [
        # [E1, E2] = X1, so E1(0) moves X3(-1) X1(-1) . vac to X1(-1)^2 . vac
        ({((3, -1), (1, -1)): 1}, "generator 3:-1 1:-1 killed-by X_2(0) fails"),
        # [E2, E1] = -X1, so E2(0) moves X2(-1) X1(-1) . vac, which E1(0) kills
        ({((2, -1), (1, -1)): 1}, "generator 2:-1 1:-1 killed-by X_3(0) fails"),
        # E1(0) and E2(0) kill both terms, of weights 2 theta and theta
        (
            {((1, -1), (1, -1)): 1, ((1, -2),): 1},
            "the generator is not a weight vector: it has weights (1, 1) and (2, 2)",
        ),
    ],
    ids=["e1_survives", "e2_survives", "two_weights"],
)
def test_a_generator_that_is_not_highest_weight_fails_the_premise(
    monkeypatch, generator, witness
):
    from affbasis import relations

    # R stays the closure of the true generator; only the certificate of
    # the generator sees the other vector
    r_basis()
    monkeypatch.setattr(relations, "_GENERATOR", generator)
    monkeypatch.setattr(
        relations, "_premise_witness", functools.cache(relations._premise_witness.__wrapped__)
    )
    assert relations._premise_witness() == witness
    with pytest.raises(relations.PremiseError) as failed:
        relations.loop_action(F1_COLOR, -1, syzygy_tensor_64(-4))
    assert failed.value.witness == witness
    rows = basis_counts_report(2)
    assert [row["witness"] for row in rows] == [None, None, witness]


def test_label_for_quadratic():
    assert label_for_quadratic(parse_partition("5:-1 1:-1")) == quad_same_label(
        5, 1, -1
    )
    assert label_for_quadratic(parse_partition("4:-1 1:-1")) is None
    assert label_for_quadratic(parse_partition("3:-2 5:-1")) == quad_adjacent_label(
        3, 5, -1
    )
    assert label_for_quadratic(parse_partition("3:-3 5:-1")) is None


# --- remaining stated invariants ----------------------------------------------


def test_psi_of_zero_tensor():
    from affbasis.relations import LoopTensor

    zero = LoopTensor(-2, {})
    assert collapse(zero, Window(6)).is_zero()


def test_loop_module_property_reconstruction():
    # ad(x(k)) Y(v)_m re-expands exactly as Y(x(0) v)_(m+k) over the target
    # space basis
    window = Window(8)
    for x_color, k, m in [(7, -1, -4), (6, 1, -3), (4, -1, -2), (2, 1, -5)]:
        source = relation_space(m, window)
        target = relation_space(m + k, window)
        matrix = shift_matrix(x_color)
        for label in relation_space(-2, window).labels[:6]:
            body = EnvElement({}, window)
            for lab2, c in canonical_vector({label: 1}, m).items():
                body = body - source.elements[lab2].scale(-c)
            image = adjoint_mode(body, x_color, k)
            rebuilt = image
            for lab2, c in canonical_vector(matrix[label], m + k).items():
                rebuilt = rebuilt - narrowed(
                    target.elements[lab2], image.window.annihilation_bound
                ).scale(c)
            assert rebuilt.is_zero()


def test_collapse_zero_mode_equivariance():
    # the zero-mode action commutes with the two-sided collapse
    window = Window(6)
    t = syzygy_tensor_64(-3)
    for x_color in (7, 6):
        left = collapse(loop_action(x_color, 0, t), window)
        right = adjoint_mode(collapse(t, window), x_color, 0)
        diff = left - narrowed(right, left.window.annihilation_bound)
        assert diff.is_zero()


def test_lemma2_auxiliary_conditions():
    # (h_i(-2) h_i(0) - h_i(-1) h_i(-1)) kills the top syzygy
    t = syzygy_tensor_64(-3)
    for h in (4, 5):
        first = loop_action(h, -2, loop_action(h, 0, t))
        second = loop_action(h, -1, loop_action(h, -1, t))
        assert tensor_is_zero(first - second)


def test_relation_images_live_in_the_maximal_submodule():
    # act a degree -2 relation on every depth-1 vector: each image must be
    # a combination of the depth-3 spanning family (rank does not grow)
    window = Window(6)
    from affbasis.enveloping import graded_basis

    space = relation_space(-2, window)
    rows = []
    for label in space.labels:
        v0 = act(space.elements[label], {(): 1})
        for kappa in graded_basis(1):
            v = apply_word(kappa, v0)
            if v:
                rows.append(v)
    base_rank = max_submodule_rank(3, window)
    extra = []
    for label in relation_space(-3, window).labels:
        extra.append(act(relation_for(label, window), {(): 1}))
    assert markowitz_rank(rows + extra) == base_rank


def test_submodule_block_ranks_match_the_reference_rank():
    from affbasis.linalg import sparse_rank
    from affbasis.relations import submodule_span_blocks

    # one row per degree -2 relation at depth 2
    assert sum(len(rows) for rows in submodule_span_blocks(2, Window(6)).values()) == 27
    for n in range(5):
        for weight, rows in submodule_span_blocks(n, W8).items():
            assert sparse_rank(rows, order_key) == markowitz_rank(rows), (n, weight)


# --- integer coefficients -------------------------------------------------------


def _ints(values) -> bool:
    return all(type(v) is int for v in values)


def test_integral_layers_keep_int_coefficients():
    # R, relation spaces, shift and transport matrices, the module action and
    # the spanning family are integral: no Fraction may appear in them
    from affbasis.enveloping import graded_basis, mode_on_partition
    from affbasis.relations import submodule_span_blocks

    window = Window(3)
    for n in range(-3, 1):
        space = relation_space(n, window)
        for label in space.labels:
            assert _ints(space.elements[label].terms.values()), (n, label)
    for label, v in r_basis().items():
        assert _ints(v.values()), label
    for color in range(1, 9):
        assert all(_ints(col.values()) for col in shift_matrix(color).values()), color
    assert all(_ints(col.values()) for col in transport_matrix().values())
    for mode in [(a, d) for a in range(1, 9) for d in range(-2, 3)]:
        for p in graded_basis(2) + graded_basis(3):
            assert _ints(c for _, c in mode_on_partition(mode, p)), (mode, p)
    for rows in submodule_span_blocks(4, W8).values():
        assert all(_ints(row.values()) for row in rows)
    # the four syzygy tensors, the 27 one scaled by its t, over canonical
    # labels too, their orbits, and their reference vectors and profiles
    windowed = windowed_syzygy_tensors(0, window)
    for name, t in syzygy_tensors(0, window).items():
        assert _ints(t.terms.values()), name
        assert _ints(canonical_tensor(windowed[name]).terms.values()), name
        for vec in tensor_orbit_basis(windowed[name]):
            assert _ints(vec.terms.values()), name
        v, profile = reference_form(name, t)
        assert _ints(v.values()) and _ints(profile), name
        assert all(_ints(row.values()) for row in orbit_basis(v)), name


def test_q27_combination_is_five_unit_pairs():
    assert _q27_combination() == (
        [
            ((1, quad_same_label(5, 1, -1)), -1),
            ((2, quad_same_label(3, 1, -1)), 1),
            ((3, quad_same_label(2, 1, -1)), -1),
            ((4, quad_same_label(1, 1, -1)), 1),
            ((5, quad_same_label(1, 1, -1)), 1),
        ],
        2,
    )


def test_q27_combination_rejects_a_second_solution(monkeypatch):
    # a repeated pair column makes the null space two-dimensional: the
    # repeat closes a dependency with t = 0 before the target column does
    from affbasis import relations

    pairs = relations._weight_2theta_pairs

    monkeypatch.setattr(relations, "_weight_2theta_pairs", lambda: pairs() + pairs()[:1])
    with pytest.raises(AssertionError, match="unique highest-weight"):
        _q27_combination.__wrapped__()


def test_rational_edges_never_give_floats():
    # int / int is a float in Python: the true divisions must stay exact
    from affbasis.relations import _proportionality

    window = Window(3)
    exact = (int, Fraction)
    assert type(collapse_report(0, window)["c"]) in exact
    gen = generator(0, window)
    assert type(_proportionality(gen.scale(-2), gen)) in exact
    combo, t = _q27_combination()
    assert combo and all(type(c) in exact for _, c in combo) and type(t) in exact
    for t in syzygy_tensors(0, window).values():
        for i in range(-4, 5):
            assert type(x1_generator_coefficient(t, i)) in exact, i
