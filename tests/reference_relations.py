"""Cross-checks of ``affbasis.relations`` for the tests, kept as they were
there: the relation spaces closed from the quadratic generator under the
adjoint zero modes (the library builds them from the 27 vectors of R), each
forbidden factor's relation as a windowed element of the completed algebra
(``relation_for``; the library writes its vacuum vector with no window), the
quadratic vectors on the vacuum echelonized at each degree
(``per_degree_quadratics``; the library reads the rows of each parity) and
the tagged echelon at both parities (``tagged_parity_basis``; the library
reads the even rows from R itself), the rank of the full spanning family
of the maximal submodule, the triangular certificate with one relation row
per non-ideal partition, the
leading terms of the syzygy orbits, the shift and transport matrices
computed at each degree (the library keeps syzygy tensors in the
coordinates of R and acts on them by one zero-mode matrix), the syzygy
tensors written out slot by slot over a certified interval of mode degrees,
with their loop action, lowering pairs and collapse (``WindowedTensor``;
the library keeps each tensor as an exact affine profile over every mode
degree, and ``written_out`` writes one out), and the tensor
helpers (zero test, scale, weight, generator coefficient, canonical labels)
that only the tests read, with the collapse over canonical labels that the
library's collapse, which reads each slot as a mode of R, is checked
against, the orbit of a whole windowed tensor closed under F1 and F2 from
a certified highest-weight seed (``tensor_orbit_basis``; the library
closes one vector of 8 tensor R on its numbered pairs), and the orbit
closed under all four zero modes E1, E2, F1 and F2
(``full_orbit_basis``).  The rank
and the leading terms are independent of the per-factor leading terms that
``basis_counts_report`` checks: the rank eliminates every row of
``submodule_span_blocks`` with the library's span reducer
(``linalg.sparse_rank``), and the orbit leading terms come from the
reducer's pivots and a candidate scan (``partitions_at_most``), not from
``embeddings``.  They are not independent of ``affbasis.linalg``; the
rank's independent check is ``reference_rank.markowitz_rank``."""

from affbasis.algebra import (
    BRACKET,
    E1_COLOR,
    E2_COLOR,
    F1_COLOR,
    F2_COLOR,
    H1_COLOR,
    H2_COLOR,
    WEIGHT,
    Weight,
)
from affbasis.enveloping import (
    EnvElement,
    Window,
    WindowError,
    act,
    apply_word,
    graded_basis,
    straighten_word,
)
from affbasis.linalg import Scalar, SpanReducer, add_scaled, sparse_rank
from affbasis.partitions import (
    Part,
    RelationLabel,
    embeddings,
    format_partition,
    order_key,
    partitions_at_most,
    parts_weight,
    quad_adjacent_label,
    quad_same_label,
)
from affbasis.relations import (
    LeadingTermError,
    LoopTensor,
    PremiseError,
    _labelled_rows,
    _mode_terms,
    _premise_witness,
    _q27_combination,
    _slot_body,
    _tensor_column_key,
    _tensor_partition,
    label_for_quadratic,
    r_basis,
    relation_space,
    shift_matrix,
    submodule_span_blocks,
    transport_matrix,
)
from reference_enveloping import (
    adjoint_mode,
    leading_term,
    mul_mode_left,
    mul_mode_right,
    narrowed,
)
from reference_partitions import quotient


def x1x1_label(m: int) -> RelationLabel:
    """The label of the degree-m relation that leads with X1 X1."""
    if m % 2 == 0:
        return quad_same_label(1, 1, m // 2)
    return quad_adjacent_label(1, 1, (m + 1) // 2)


def relation_for(label: RelationLabel, window: Window, space=None) -> EnvElement:
    """The canonical relation with the given leading term, normalized to
    leading coefficient one, as an element of the completed algebra on the
    window: a quadratic from the window's relation space, or from
    `space(degree, window)`, a {label: element} map such as
    `closure_relation_space`; a cubic by the two-term recipe on those
    quadratics, whose products with modes cost |j| of the bound."""
    if len(label.colors) == 2:
        if space is None:
            return relation_space(label.degree(), window).elements[label]
        return space(label.degree(), window)[label]
    j = label.j

    def quadratic(lab):
        return relation_for(lab, window, space)

    if label.kind == "cubic_a":
        left = mul_mode_left(quadratic(quad_same_label(5, 1, j)), (3, j - 1))
        right = mul_mode_right(quadratic(quad_adjacent_label(3, 5, j)), (1, j))
    elif label.kind == "cubic_b":
        left = mul_mode_right(quadratic(quad_same_label(8, 5, j - 1)), (6, j))
        right = mul_mode_left(quadratic(quad_adjacent_label(5, 6, j)), (8, j - 1))
    else:
        raise ValueError(f"unknown label kind {label.kind}")
    bound = min(left.window.annihilation_bound, right.window.annihilation_bound)
    return narrowed(left, bound) - narrowed(right, bound)


def x1_square_modes(n: int, window: Window) -> EnvElement:
    """Windowed truncation of sum_{i+j=n} X1(i)X1(j).  The modes commute,
    so each unordered pair {i, j} with i < j contributes coefficient 2."""
    bound = window.annihilation_bound
    terms: dict[tuple[Part, ...], int] = {}
    i = n - bound - 1
    while 2 * i <= n:
        j = n - i
        if i < j:
            terms[((1, i), (1, j))] = 2
        elif i == j:
            terms[((1, i), (1, j))] = 1
        i += 1
    return EnvElement(terms, window)


def closure_relation_space(n: int, window: Window) -> dict[RelationLabel, EnvElement]:
    """The canonical basis of the degree-n relation space by the closure
    route: the windowed generator closed under the adjoint F1(0) and F2(0),
    back-eliminated, with the same certificates as the library's
    `RelationSpace`.  Returns {label: element} in label order."""
    reducer = SpanReducer(order_key)

    def lowered(vec):
        current = EnvElement(vec, window)
        for color in (F1_COLOR, F2_COLOR):
            # zero-mode action, window preserved
            yield adjoint_mode(current, color, 0).terms

    generator = x1_square_modes(n, window).terms
    if not generator:
        raise WindowError(f"the window holds no term of the generator of degree {n}")
    reducer.close(generator, lowered)
    reducer.back_eliminate()
    elements = {}
    for pivot in reducer.pivots():
        elem = EnvElement(reducer.row_for(pivot), window)
        lead = leading_term(elem, max_length=2)
        if lead != pivot:
            raise WindowError(
                f"pivot {format_partition(pivot)} is not the certified "
                f"leading term {format_partition(lead)}"
            )
        label = label_for_quadratic(lead)
        if label is None:
            raise LeadingTermError(lead)
        elements[label] = elem
    if reducer.rank < 27:
        raise WindowError(
            f"the relation space of degree {n} has rank {reducer.rank} in "
            f"window {window.annihilation_bound}, short of its 27-row table"
        )
    labels = sorted(elements, key=lambda l: order_key(l.partition()))
    return {label: elements[label] for label in labels}


# --- the windowed syzygy tensors ------------------------------------------------


class WindowedTensor:
    """A syzygy tensor written out slot by slot, as the library kept it
    before its affine profiles: a sparse vector keyed by a single mode
    (a, i) and the label L of a basis vector v_L of R, with int
    coefficients.  The term ((a, i), L) stands for X_a(i) tensor
    Y(v_L)_{n-i}.  Mode degrees are tracked on the certified interval
    [i_lo, i_hi]."""

    __slots__ = ("n", "terms", "i_lo", "i_hi")

    def __init__(self, n, terms, i_lo, i_hi):
        self.n = n
        self.i_lo = i_lo
        self.i_hi = i_hi
        self.terms: dict[tuple[Part, RelationLabel], int] = {
            key: c for key, c in terms.items() if c and i_lo <= key[0][1] <= i_hi
        }

    def __sub__(self, other: "WindowedTensor") -> "WindowedTensor":
        if self.n != other.n:
            raise ValueError("cannot combine tensors of different degrees")
        lo, hi = max(self.i_lo, other.i_lo), min(self.i_hi, other.i_hi)
        out = add_scaled(dict(self.terms), other.terms.items(), -1)
        return WindowedTensor(self.n, out, lo, hi)


# Mode degrees a windowed tensor certifies past [n - bound, bound] on either
# side, for a target window of annihilation bound `bound`: the collapse
# reads exactly the mode degrees in [n - bound, bound], and the one step
# between building a tensor and collapsing it that shrinks its interval is
# the single k = -1 step of a lowering pair.  It costs one slot at the top,
# and lowers the degree, so the bottom of the interval read, by one.
_MARGIN = 1


def written_out(t: LoopTensor, i_lo: int, i_hi: int) -> WindowedTensor:
    """The affine profile t written out slot by slot over [i_lo, i_hi]: the
    term ((a, L), p) of coefficient c gives c i^p at slot ((a, i), L)."""
    slots: dict[tuple[Part, RelationLabel], int] = {}
    for ((a, label), p), c in t.terms.items():
        add_scaled(slots, ((((a, i), label), c * i**p) for i in range(i_lo, i_hi + 1)))
    return WindowedTensor(t.n, slots, i_lo, i_hi)


def windowed_loop_action(x_color: int, k: int, t: WindowedTensor) -> WindowedTensor:
    """x(k) on a windowed tensor, slot by slot: the bracket moves each mode
    degree i to i + k, and x(0) acts on every relation slot, so the interval
    gives up k slots at its bottom for k > 0 and -k at its top for k < 0.
    The premise is checked first for k != 0, as in the library."""
    if k:
        witness = _premise_witness()
        if witness is not None:
            raise PremiseError(witness)
    zero_mode = shift_matrix(x_color)
    lo, hi = t.i_lo + max(k, 0), t.i_hi + min(k, 0)
    out: dict[tuple[Part, RelationLabel], int] = {}
    for ((a, i), label), c in t.terms.items():
        bracket = BRACKET[(x_color, a)]
        add_scaled(out, ((((color, i + k), label), coef) for color, coef in bracket), c)
        add_scaled(out, ((((a, i), lab2), w) for lab2, w in zero_mode[label].items()), c)
    return WindowedTensor(t.n + k, out, lo, hi)


def windowed_syzygy_tensor_64(n: int, window: Window) -> WindowedTensor:
    """sum_i (3i - n) X1(i) tensor Y(g)_{n-i} over the interval that the
    collapse on the window reads, widened by `_MARGIN`."""
    bound = window.annihilation_bound
    i_lo, i_hi = n - bound - _MARGIN, bound + _MARGIN
    generator = quad_same_label(1, 1, -1)
    terms = {((1, i), generator): 3 * i - n for i in range(i_lo, i_hi + 1)}
    return WindowedTensor(n, terms, i_lo, i_hi)


def windowed_lowering_pair(i: int, t: WindowedTensor) -> WindowedTensor:
    """f_i(-1) h_i(0) - f_i(0) h_i(-1) on windowed tensors."""
    f = F1_COLOR if i == 1 else F2_COLOR
    h = H1_COLOR if i == 1 else H2_COLOR
    first = windowed_loop_action(f, -1, windowed_loop_action(h, 0, t))
    second = windowed_loop_action(f, 0, windowed_loop_action(h, -1, t))
    return first - second


def windowed_syzygy_tensors(n: int, window: Window) -> dict[str, WindowedTensor]:
    """The four syzygy families at degree n, written out slot by slot: the
    64 and 27 over [n - bound - 1, bound + 1], the two 35s, lowered from the
    64 of degree n + 1, over [n - bound, bound]."""
    bound = window.annihilation_bound
    i_lo, i_hi = n - bound - _MARGIN, bound + _MARGIN
    combo, _ = _q27_combination()
    above = windowed_syzygy_tensor_64(n + 1, window)
    terms27 = {((a, i), lab): c for i in range(i_lo, i_hi + 1) for (a, lab), c in combo}
    return {
        "64": windowed_syzygy_tensor_64(n, window),
        "35": windowed_lowering_pair(1, above),
        "35u": windowed_lowering_pair(2, above),
        "27": WindowedTensor(n, terms27, i_lo, i_hi),
    }


def _read_interval(t: WindowedTensor, window: Window) -> tuple[int, int]:
    """The mode degrees [n - bound, bound] that a collapse on the window
    reads; a tensor that does not certify all of them raises
    `WindowError`."""
    bound = window.annihilation_bound
    lo, hi = t.n - bound, bound
    if t.i_lo > lo or t.i_hi < hi:
        raise WindowError(
            f"the tensor certifies mode degrees [{t.i_lo}, {t.i_hi}], and the "
            f"collapse on window {bound} reads [{lo}, {hi}]"
        )
    return lo, hi


def windowed_collapse(t: WindowedTensor, window: Window) -> EnvElement:
    """The collapse of a windowed tensor, slot by slot: X_a(i) times its
    body Y(v_L)_{n-i}, from the left for a negative i and from the right
    otherwise, over the certified mode degrees that reach the window."""
    lo, hi = _read_interval(t, window)
    total: dict[tuple[Part, ...], Scalar] = {}
    for ((a, i), label), c in t.terms.items():
        if not lo <= i <= hi:
            continue  # collapses outside the window
        mode = ((a, i),)
        for w, b in _slot_body(label, t.n - i, window).terms.items():
            word = mode + w if i < 0 else w + mode
            add_scaled(total, straighten_word(word).items(), c * b)
    return EnvElement(total, Window(window.annihilation_bound))


def tensor_is_zero(t: LoopTensor | WindowedTensor) -> bool:
    return not t.terms


def tensor_scale(t: LoopTensor, s: int) -> LoopTensor:
    return LoopTensor(t.n, {k: s * c for k, c in t.terms.items()})


def tensor_weight(t: LoopTensor | WindowedTensor) -> Weight | None:
    """The common weight of the tensor's terms, or None if they differ."""
    if isinstance(t, LoopTensor):
        pairs = [pair for pair, _ in t.terms]
    else:
        pairs = [(color, label) for (color, _), label in t.terms]
    seen = {WEIGHT[color] + parts_weight(label.partition()) for color, label in pairs}
    return seen.pop() if len(seen) == 1 else None


def x1_generator_coefficient(t: LoopTensor, i: int) -> Scalar:
    """Coefficient of the profile t at slot i against X1(i) tensor (full
    quadratic generator at degree n-i): the generator of R is the degree -2
    basis vector with the generator's label, and it is the only one of its
    weight."""
    pair = (1, x1x1_label(-2))
    return sum(t.terms.get((pair, p), 0) * i**p for p in (0, 1))


def _canonical_terms(t: WindowedTensor) -> dict:
    """The terms of t over canonical relation labels.  The slot of mode
    degree i is Y(v)_m, m = n - i, whose canonical labels are those of v
    re-anchored by (m + 2) / 2 at an even m, and those of the transport of
    v re-anchored by (m + 3) / 2 at an odd m (the lemma at `shift_matrix`).
    The transport must keep the weight of each label, or `AssertionError` is
    raised."""
    transport = transport_matrix()
    for lab, column in transport.items():
        weight = parts_weight(lab.partition())
        for lab2 in column:
            if parts_weight(lab2.partition()) != weight:
                raise AssertionError(
                    f"the transport maps {format_partition(lab.partition())} to "
                    f"{format_partition(lab2.partition())} of another weight"
                )
    out: dict[tuple[Part, RelationLabel], int] = {}
    for (mode, lab), c in t.terms.items():
        m = t.n - mode[1]
        if m % 2 == 0:
            out[(mode, lab.translate((m + 2) // 2))] = c
        else:
            shift = (m + 3) // 2
            images = transport[lab].items()
            add_scaled(out, (((mode, lab2.translate(shift)), w) for lab2, w in images), c)
    return out


def canonical_collapse(t: WindowedTensor, window: Window) -> EnvElement:
    """The collapse of t as it was read over canonical labels: each slot's
    body is the canonical element of the window's relation space (at odd
    degrees through the transport), with the same interval check."""
    lo, hi = _read_interval(t, window)
    total: dict[tuple[Part, ...], Scalar] = {}
    for ((a, i), label), c in _canonical_terms(t).items():
        if not lo <= i <= hi:
            continue  # collapses outside the window
        body = relation_for(label, window)
        if i < 0:
            product = mul_mode_left(body, (a, i))
        else:
            product = mul_mode_right(body, (a, i))
        add_scaled(total, product.terms.items(), c)
    return EnvElement(total, Window(window.annihilation_bound))


def canonical_tensor(t: WindowedTensor) -> WindowedTensor:
    """The tensor t over the canonical relation labels of each slot's
    degree, as the collapse reads it."""
    return WindowedTensor(t.n, _canonical_terms(t), t.i_lo, t.i_hi)


def canonical_orbit_basis(t: WindowedTensor) -> list[WindowedTensor]:
    """Reduced basis of the orbit of t over canonical labels: one row per
    leading term of the orbit."""
    reducer = SpanReducer(_tensor_column_key)
    for vec in tensor_orbit_basis(t):
        reducer.insert(canonical_tensor(vec).terms)
    return [WindowedTensor(t.n, row, t.i_lo, t.i_hi) for row in reducer.rows.values()]


def _zero_mode_closure(t: WindowedTensor, colors) -> list[WindowedTensor]:
    """Reduced basis of the span of t under the zero modes of `colors`,
    acting on the whole tensor (`windowed_loop_action`)."""
    reducer = SpanReducer(_tensor_column_key)

    def moved(vec):
        current = WindowedTensor(t.n, vec, t.i_lo, t.i_hi)
        for color in colors:
            yield windowed_loop_action(color, 0, current).terms

    reducer.close(t.terms, moved)
    return [WindowedTensor(t.n, row, t.i_lo, t.i_hi) for row in reducer.rows.values()]


def tensor_orbit_basis(t: WindowedTensor) -> list[WindowedTensor]:
    """Reduced basis of the orbit U(g) . t of a highest-weight tensor, the
    span of the whole tensor under F1(0) and F2(0), with the certificates of
    `relations.orbit_basis`: E1(0) and E2(0) must kill t, and all its terms
    must have one weight, or `AssertionError` names the raising mode and
    its least surviving term, or two differing weights."""
    for name, color in (("E1", E1_COLOR), ("E2", E2_COLOR)):
        raised = windowed_loop_action(color, 0, t).terms
        if raised:
            (a, i), label = key = min(raised, key=_tensor_column_key)
            raise AssertionError(
                f"{name}(0) does not kill the seed: X_{a}({i}) tensor "
                f"{format_partition(label.partition())} survives with {raised[key]}"
            )
    weights = {WEIGHT[a] + parts_weight(label.partition()) for (a, _), label in t.terms}
    if len(weights) > 1:
        w1, w2 = sorted(tuple(w) for w in weights)[:2]
        raise AssertionError(f"the seed is not a weight vector: it has weights {w1} and {w2}")
    return _zero_mode_closure(t, (F1_COLOR, F2_COLOR))


def full_orbit_basis(t: WindowedTensor) -> list[WindowedTensor]:
    """Reduced basis of the span of the tensor under repeated zero-mode
    raising and lowering (the finite-dimensional orbit)."""
    return _zero_mode_closure(t, (E1_COLOR, E2_COLOR, F1_COLOR, F2_COLOR))


def canonical_vector(v: dict, m: int) -> dict:
    """Y(v)_m over the canonical labels of degree m, for a vector
    v = {label: c} of R in the degree -2 basis."""
    one_slot = WindowedTensor(m, {((1, 0), lab): c for lab, c in v.items()}, 0, 0)
    return {lab: c for (_, lab), c in _canonical_terms(one_slot).items()}


def with_stray_term(apply_mode, first: dict):
    """A wrapper of `apply_mode` under which a mode of degree 1 or 2 sees
    the vector `first` with X_1(-2) . vac added, which X_4(1) does not
    kill: a vector of R outside the maximal submodule, for the premise
    checks.  The modes of other degrees, and so R, its zero modes and the
    q27 combination, see `first` unchanged."""

    def wrapped(mode, v):
        if mode[1] in (1, 2) and v == first:
            v = {**v, ((1, -2),): v.get(((1, -2),), 0) + 1}
        return apply_mode(mode, v)

    return wrapped


def tensor_leading_partition(t: WindowedTensor) -> tuple[Part, ...]:
    """Leading colored partition of a plain tensor, certified against the
    mode-degree range."""
    if not t.terms:
        raise ValueError("zero tensor has no leading term")
    best = min((_tensor_partition(key) for key in t.terms), key=order_key)
    for candidate in partitions_at_most(best, len(best), t.n):
        for idx in range(len(candidate)):
            part = candidate[idx]
            rest = candidate[:idx] + candidate[idx + 1 :]
            if label_for_quadratic(rest) is None:
                continue
            if not (t.i_lo <= part[1] <= t.i_hi):
                raise WindowError(
                    f"candidate {format_partition(candidate)} has a slot outside the range"
                )
    return best


def combined_weight_block(
    n: int, mu: Weight, window: Window
) -> tuple[int, set[tuple[Part, ...]]]:
    """Dimension and leading-term set of the weight-mu block of the direct
    sum of the four syzygy orbits at degree n."""
    reducer = SpanReducer(_tensor_column_key)
    for t in windowed_syzygy_tensors(n, window).values():
        for vec in tensor_orbit_basis(t):
            if tensor_weight(vec) == mu:
                reducer.insert(canonical_tensor(vec).terms)
    return reducer.rank, {_tensor_partition(p) for p in reducer.pivots()}


def max_submodule_rank(n: int, window: Window) -> int:
    """Exact dimension of the depth-n piece of the maximal submodule, as
    the rank of the spanning family, computed per weight block."""
    return sum(
        sparse_rank(rows, order_key)
        for rows in submodule_span_blocks(n, window).values()
    )


def row_factor(pi: tuple[Part, ...]) -> RelationLabel | None:
    """The forbidden factor whose relation erases pi: the first quadratic
    that `embeddings` lists, or its first cubic if no quadratic divides pi;
    None for a partition of the ideal."""
    found, _ = embeddings(pi)
    return next((lab for lab in found if len(lab.colors) == 2), found[0] if found else None)


def certified_rank(n: int, window: Window, on_vacuum: dict) -> tuple[int, str | None]:
    """The paper's triangular certificate at depth n.  Each depth-n
    partition pi that a forbidden factor rho divides gets one row,
    u(pi / rho) . (r_rho . vac), which lies in N.  Rows with distinct leading
    terms are independent, so the number of distinct leading terms is a
    proven lower bound on dim N_n; it is pbw - ideal when every row leads
    with its own pi.  Returns that count and the first pi whose row leads
    elsewhere, or None."""
    leads = set()
    witness = None
    for pi in graded_basis(n):
        rho = row_factor(pi)
        if rho is None:
            continue
        v0 = on_vacuum.get(rho)
        if v0 is None:
            v0 = on_vacuum[rho] = act(relation_for(rho, window), {(): 1})
        row = apply_word(quotient(pi, rho.partition()), v0)
        lead = min(row, key=order_key, default=None)
        if lead is not None:
            leads.add(lead)
        if lead != pi and witness is None:
            witness = format_partition(pi)
    return len(leads), witness


def per_degree_shift_matrix(x_color: int, k: int, n: int, window: Window):
    """Matrix of ad(x(k)) from the degree-n relation space to degree n+k,
    computed at that degree pair: every image is expanded over the target
    basis, whose pivots must lie in the image window (the window less |k|),
    and `coordinates` checks the in-window residual."""
    source = relation_space(n, window)
    target = relation_space(n + k, window)
    image_w = Window(window.annihilation_bound - abs(k))
    for label in target.elements:
        if not image_w.admits(label.partition()):
            raise WindowError(
                f"pivot {format_partition(label.partition())} of the space of "
                f"degree {n + k} lies outside the certified image window {image_w.annihilation_bound}"
            )
    return {
        label: target.coordinates(adjoint_mode(source.elements[label], x_color, k))
        for label in source.labels
    }


def per_degree_transport_matrix(m: int, window: Window):
    """The transport from degree -2 to degree m, solved at m from the
    per-degree zero-mode matrices: the closure of the aligned generator pair
    [ref | tgt] under F1 and F2 must have no target pivot and full rank, and
    back elimination gives T(e_lab) in the target part of row ("ref", lab)."""
    ref_labels = relation_space(-2, window).labels
    action = {
        side: {c: per_degree_shift_matrix(c, 0, n, window) for c in (F1_COLOR, F2_COLOR)}
        for side, n in (("ref", -2), ("tgt", m))
    }
    reducer = SpanReducer(lambda col: (col[0] != "ref", order_key(col[1].partition())))
    # the generator's leading coefficient is 1 at an even degree, 2 at an odd one
    seed = {("ref", x1x1_label(-2)): 1, ("tgt", x1x1_label(m)): 2 if m % 2 else 1}

    def lowered(row):
        for c in (F1_COLOR, F2_COLOR):
            image: dict = {}
            for (side, lab), v in row.items():
                add_scaled(image, (((side, l2), w) for l2, w in action[side][c][lab].items()), v)
            yield image

    reducer.close(seed, lowered)
    if any(side == "tgt" for side, _ in reducer.pivots()):
        raise WindowError("transport solve is inconsistent")
    if reducer.rank != len(ref_labels):
        raise WindowError("transport basis did not reach full rank")
    reducer.back_eliminate()
    return {
        lab: {l2: v for (side, l2), v in reducer.row_for(("ref", lab)).items() if side == "tgt"}
        for lab in ref_labels
    }


def per_degree_quadratics(m: int) -> dict[RelationLabel, dict]:
    """r . vac for the 27 canonical quadratics r of degree m <= -2, by label,
    echelonized at that degree: the vectors Y(v_L)_m . vac, back-eliminated,
    so their pivots are the table `quadratic_leading_labels(m)`.  The range
    m < p < 0 keeps exactly the creation pairs X_a(p) X_b(m - p) of
    `vertex_mode`.  The library reads the rows of each parity instead
    (`relations._parity_basis`)."""
    reducer = SpanReducer(order_key)
    for v in r_basis().values():
        reducer.insert(_mode_terms(v, m, range(m + 1, 0)))
    return _labelled_rows(reducer, f"the quadratics of degree {m}")


def tagged_parity_basis(m: int) -> dict[RelationLabel, dict]:
    """2 w_L for each label L of degree m = -2 or -3, where Y(w_L)_m . vac
    is the row of L, by the tagged echelon of both parities: each
    Y(v)_m . vac, v in R, tagged with 2 v.  The library builds it at m = -3
    alone, and at m = -2 reads R's own echelon (`relations._parity_basis`)."""
    tagged = SpanReducer(lambda k: (1, k) if k[0] == "tag" else (0, order_key(k)))
    for v in r_basis().values():
        tags = ((("tag", parts), 2 * c) for parts, c in v.items())
        tagged.insert(add_scaled(_mode_terms(v, m, range(m + 1, 0)), tags))
    rows = _labelled_rows(tagged, f"the quadratics of degree {m}")
    return {lab: {k[1]: c for k, c in r.items() if k[0] == "tag"} for lab, r in rows.items()}
