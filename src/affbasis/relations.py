"""Annihilator relation spaces and the syzygies among them.

Every relation is a mode of one vertex operator.  R, the g-module that
X1(-1)^2 . vac generates in the depth-2 piece V_2, is built once with no
window (`r_basis`), and the degree-n relation space is {Y(v)_n : v in R}
(`vertex_mode`).  Its pivots depend on n only through its parity, so R is
echelonized on the vacuum once per parity (`_parity_basis`), with the two
27-element color tables as leading terms.  The two cubic relations act on
the vacuum by the fixed two-term recipe on quadratic vectors.

On top of these sit the syzygy tensors (the 64/35/35/27-dimensional
families of relations among relations), the two-sided multiplication map
that collapses a tensor into the completed algebra, and the graded
verification of the basis theorem.

A syzygy tensor is stored in the coordinates of R: the relation slot of
mode degree i holds a vector v of R, written in the basis v_L, and stands
for Y(v)_{n-i}.  When X(1) and X(2) kill R (the premise, checked once),
ad x(k) acts on every slot as the zero mode x(0) on R, one matrix for every
k and every degree (the lemma at `shift_matrix`).  `collapse` reads each
slot's body as that mode, `vertex_mode` of v at degree n - i.  A zero mode
acts on every slot by the same operator, so a family whose slots are
multiples of one vector v has the dimension of v's orbit
(`syzygy_dimensions`), which is closed under F1(0) and F2(0) alone once v is
certified a highest-weight vector (`orbit_basis`).  The orbit is closed on a
fixed numbering of the 216 pairs (a, L) of 8 tensor R, with one precomputed
column of each zero mode per pair (`_zero_mode_columns`), not on tensors.

The verification of the basis theorem follows the paper, one leading-term
check per forbidden factor: the monomial order is multiplicative, so once
each factor's relation vector leads with the factor, every depth-n partition
that a factor divides leads a vector of the maximal submodule (the lemma at
`_factor_witness`).  On the vacuum Y(w_L)_m is a finite sum of creation
pairs, written in module coordinates (`relation_on_vacuum`) with no window,
algebra element or relation space.  No row of N is built; the ideal count
must then equal the character.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .algebra import (
    BRACKET,
    COLORS,
    E1_COLOR,
    E2_COLOR,
    F1_COLOR,
    F2_COLOR,
    H1_COLOR,
    H2_COLOR,
    WEIGHT,
    Weight,
)
from .enveloping import (
    EnvElement,
    Window,
    WindowError,
    _rewrite_once,
    apply_mode,
    apply_word,
    graded_basis,
    straighten_word,
)
from .linalg import Scalar, SpanReducer, add_scaled, exact_quotient
from .partitions import (
    ADJACENT_COLOR_PAIRS,
    CUBIC_A,
    SAME_DEGREE_COLOR_PAIRS,
    Part,
    RelationLabel,
    format_partition,
    order_key,
    parts_weight,
    quad_adjacent_label,
    quad_same_label,
    relation_set,
    sort_parts,
)
from .qseries import character_oracle, colored_part_count_series, ideal_count_series


# X1(-1)^2 . vac, the highest-weight vector that generates R
_GENERATOR = {((1, -1), (1, -1)): 1}


@cache
def r_basis() -> dict[RelationLabel, dict]:
    """The basis v_L of R, the g-module that X1(-1)^2 . vac generates in the
    depth-2 piece V_2, with no window: the closure of the generator under
    F1(0) and F2(0) on module vectors, back-eliminated (`_labelled_rows`), so
    that v_L has coefficient 1 at its degree -2 label L and 0 at the others."""
    reducer = SpanReducer(order_key)
    reducer.close(
        _GENERATOR, lambda v: (apply_mode((c, 0), v) for c in (F1_COLOR, F2_COLOR))
    )
    return _labelled_rows(reducer, "R")


def _labelled_rows(reducer: SpanReducer, name: str) -> dict[RelationLabel, dict]:
    """The back-eliminated rows at pivot coefficient 1, keyed by the label of
    their pivots in the monomial order: the one labelled echelon, of R, of
    R on the vacuum per parity and of each windowed relation space.  A rank
    other than 27, not counting tags (`_parity_basis`), raises
    `AssertionError`, and a pivot off the color table `LeadingTermError`."""
    pivots = [p for p in reducer.pivots() if p[0] != "tag"]
    if len(pivots) != 27:
        raise AssertionError(f"{name} has rank {len(pivots)}, not 27")
    reducer.back_eliminate()
    rows = {}
    for pivot in sorted(pivots, key=order_key):
        label = label_for_quadratic(pivot)
        if label is None:
            raise LeadingTermError(pivot)
        rows[label] = reducer.row_for(pivot)
    return rows


def vertex_mode(v: dict, n: int, window: Window) -> EnvElement:
    """Y(v)_n for v in V_2, exact on the window of bound B.  A term
    X_a(-1) X_b(-1) . vac gives the modes of :X_a X_b:, the creation part on
    the left: X_a(p) X_b(n - p) for p < 0, X_b(n - p) X_a(p) for p >= 0.
    Outside p in [n - B, B] one mode has a degree d > B: if the other
    creates, the word is sorted and weighs d; if not, every term of the
    straightened word weighs n >= d (a swap keeps both modes, a bracket is a
    mode of degree n).  A term X_a(-2) . vac gives the derivative of X_a(z):
    -(n + 1) X_a(n)."""
    bound = window.annihilation_bound
    return EnvElement(_mode_terms(v, n, range(n - bound, bound + 1)), window)


def _mode_terms(v: dict, n: int, degrees) -> dict:
    """The terms of Y(v)_n (`vertex_mode`) over the modes p in `degrees`."""
    out: dict[tuple[Part, ...], Scalar] = {}
    for parts, c in v.items():
        if len(parts) == 1:
            ((a, _),) = parts
            add_scaled(out, [(((a, n),), -(n + 1) * c)])
            continue
        (a, _), (b, _) = parts
        for p in degrees:
            word = ((a, p), (b, n - p)) if p < 0 else ((b, n - p), (a, p))
            (x, i), (y, k) = word
            if i > k or (i == k and x < y):  # `_first_inversion`, inline
                # one rewrite sorts a pair: the swapped pair is sorted, and
                # the bracket and the central term are one mode or none
                add_scaled(out, _rewrite_once(word, 0), c)
            else:
                add_scaled(out, ((word, c),))
    return out


class RelationSpace:
    """Canonical echelon basis of the degree-n relation space, the span of
    the 27 vectors Y(v_L)_n (the lemma at `shift_matrix`), labelled by
    `_labelled_rows` once the window holds all 27 rows.  No verdict reads
    it: the tests check it, and the benchmark traces it.  A pivot, the
    `order_key`-least term of its row, is its leading term in the completed
    algebra: Y(v)_n has at most two parts, and a two-part shape of degree n
    at or below a two-part pivot has a top part no higher, so the window
    holds it exactly.  A pivot of fewer parts is on no color table, so it
    raises `LeadingTermError`."""

    def __init__(self, n: int, window: Window):
        self.n = n
        self.window = window
        reducer = SpanReducer(order_key)
        for v in r_basis().values():
            reducer.insert(vertex_mode(v, n, window).terms)
        self.dimension = reducer.rank
        if self.dimension < 27:
            raise WindowError(
                f"the relation space of degree {n} has rank {self.dimension} in "
                f"window {window.annihilation_bound}, short of its 27-row table"
            )
        rows = _labelled_rows(reducer, f"the relation space of degree {n}")
        self.elements = {label: EnvElement(row, window) for label, row in rows.items()}
        self.labels = list(rows)

    def coordinates(self, e: EnvElement) -> dict[RelationLabel, Scalar]:
        """Expand a member of the space over the canonical basis; raises if
        a certified in-window residual survives."""
        coords: dict[RelationLabel, Scalar] = {}
        residual = dict(e.terms)
        for label, elem in self.elements.items():
            c = residual.get(label.partition())
            if not c:
                continue
            coords[label] = c
            add_scaled(residual, elem.terms.items(), -c)
        certified = e.window.narrowed(self.window.annihilation_bound)
        for parts in residual:
            if certified.admits(parts):
                raise WindowError(
                    f"element does not lie in the relation space of degree "
                    f"{self.n} (residual at {format_partition(parts)})"
                )
        return coords


class LeadingTermError(Exception):
    """A computed relation has a leading term that the color tables do not
    list; `partition` is the offending leading term."""

    def __init__(self, partition: tuple[Part, ...]):
        super().__init__(f"unexpected leading term {format_partition(partition)}")
        self.partition = partition


def label_for_quadratic(p: tuple[Part, ...]) -> RelationLabel | None:
    """The relation label whose partition is p, if p is a listed quadratic."""
    if len(p) != 2:
        return None
    (c1, d1), (c2, d2) = p
    if d1 == d2 and (c1, c2) in SAME_DEGREE_COLOR_PAIRS:
        return quad_same_label(c1, c2, d1)
    if d2 == d1 + 1 and (c1, c2) in ADJACENT_COLOR_PAIRS:
        return quad_adjacent_label(c1, c2, d2)
    return None


@cache
def relation_space(n: int, window: Window) -> RelationSpace:
    return RelationSpace(n, window)


# --- the zero-mode action on R and the transport -------------------------------


class PremiseError(Exception):
    """A degree -2 relation vector is not killed by some X_a(1), so a loop
    mode of nonzero degree may not act on a relation slot as its zero mode;
    `witness` names the label and the mode."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


@cache
def _premise_witness() -> str | None:
    """The hypothesis of the lemma at `shift_matrix`, checked once: each
    vector of R must lie in the maximal submodule N, so it must be killed by
    X_a(1) and X_a(2) for every color a.  Those modes generate the positive
    loop modes, and X_a(k) with k > 2 lowers depth 2 below 0, so such a
    vector is singular and generates a submodule with no vacuum component.
    This is the check on the degree -2 relation vectors, as Y(v)_-2 . vac =
    v makes them R's vectors; the relations of other degrees are modes of
    the same vertex operators, and the cubics products of them with modes,
    so their vectors lie in N too.

    Two steps, each with its witness; the first failure is returned.
      - The generator X1(-1)^2 . vac is certified a highest-weight vector:
        E1(0) and E2(0) kill it, and they generate n+; its terms have one
        weight.  By PBW, U(g) = U(n-) U(h) U(n+), so R = U(n-) . generator
        (`r_basis`) is g-stable.
      - X_4(1) (H1) alone is applied to the 27 vectors of R.
    Lemma.  When R is g-stable, the z in g with z(1) R = 0 form an ideal:
    [y(0), z(1)] = [y, z](1) has no central term, so [y, z](1) v = y(0)
    z(1) v - z(1) y(0) v = 0 for v in R, as y(0) v lies in R.  sl(3) is
    simple, so once H1 lies in the ideal, every X_a(1) kills R.  sl(3) is
    perfect and [X_a(1), X_b(1)] = [X_a, X_b](2) has no central term, so
    every X_c(2) kills R too."""
    for color in (E1_COLOR, E2_COLOR):
        if apply_mode((color, 0), _GENERATOR):
            least = min(_GENERATOR, key=order_key)
            return f"generator {format_partition(least)} killed-by X_{color}(0) fails"
    weights = sorted({tuple(parts_weight(parts)) for parts in _GENERATOR})
    if len(weights) > 1:
        w1, w2 = weights[:2]
        return f"the generator is not a weight vector: it has weights {w1} and {w2}"
    for label, v in r_basis().items():
        if apply_mode((H1_COLOR, 1), v):
            return f"{format_partition(label.partition())} killed-by X_{H1_COLOR}(1) fails"
    return None


@cache
def shift_matrix(x_color: int):
    """Matrix of the zero mode x(0) on R in the basis v_L of `r_basis`: the
    image of each v_L in V_2 is read at the 27 pivot pairs, and what is left
    must vanish, or `AssertionError` is raised.

    Lemma.  Hypothesis (the premise, `_premise_witness`): X_a(1) and X_a(2)
    kill R for every color a.
      - The degree-n space is {Y(v)_n : v in R} (`vertex_mode`): the
        generator is Y(X1(-1)^2 . vac)_n, and [x(0), Y(v)_n] = Y(x(0) v)_n.
      - [x(k), Y(v)_n] = sum_{j >= 0} C(k, j) Y(x(j) v)_{n+k}.  x(j) v = 0
        for j >= 3, as the module has no negative depth, and for j = 1, 2
        by the hypothesis, so [x(k), Y(v)_n] = Y(x(0) v)_{n+k}.  For k = 0
        the hypothesis is not needed, as C(0, j) = 0 for j >= 1.
      - The coefficient of a quadratic X_c(p) X_d(n - p) in Y(v)_n, for v =
        sum C_ab X_a(-1) X_b(-1) . vac + sum D_a X_a(-2) . vac, is
        C_cd + C_dc for c != d, and for c = d it is C_cc if p = n - p and
        2 C_cc if not: putting a product in part order adds only terms with
        fewer parts, and so does the D part.  The pivots of degree n are the
        middle pairs (n even) or the adjacent ones (n odd), so the 27 pivot
        functionals on R depend on n only through its parity, and at degree
        -2 they are the coefficients of v at its pivot pairs.
    So a syzygy slot holds its vector of R whatever its degree, and ad x(k)
    acts on every slot as x(0) on R once the premise holds."""
    basis = r_basis()
    pivots = [(lab2, lab2.partition(), v2) for lab2, v2 in basis.items()]
    matrix = {}
    for label, v in basis.items():
        image = apply_mode((x_color, 0), v)
        column = matrix[label] = {}
        for lab2, pivot, v2 in pivots:
            c = image.get(pivot)
            if c:
                column[lab2] = c
                add_scaled(image, v2.items(), -c)
        if image:
            raise AssertionError(
                f"X_{x_color}(0) moves {format_partition(label.partition())} out of R"
            )
    return matrix


@cache
def transport_matrix():
    """The transport from degree -2 to degree -3 in canonical coordinates:
    the coordinates of Y(v_L)_-3 over the canonical basis of degree -3, for
    each label L of R.  The coordinates are read at the pivots, and the
    degree -3 pivots are creation pairs X_c(-2) X_d(-1), so the window of
    bound 0 holds them exactly.  No verdict reads it: the tests compare it
    with the per-degree computation, and the benchmark traces it."""
    window = Window(0)
    space = relation_space(-3, window)
    return {
        label: space.coordinates(vertex_mode(v, -3, window))
        for label, v in r_basis().items()
    }


# --- syzygy tensors -------------------------------------------------------------


class LoopTensor:
    """Exact element of the degree-n piece of (loop algebra) tensor R: a
    sparse vector keyed by a single mode (a, i) and the label L of a basis
    vector v_L of R (`r_basis`), with int coefficients.  The term
    ((a, i), L) stands for X_a(i) tensor Y(v_L)_{n-i} (the lemma at
    `shift_matrix`).  Mode degrees are tracked on the certified interval
    [i_lo, i_hi]."""

    __slots__ = ("n", "terms", "i_lo", "i_hi")

    def __init__(self, n, terms, i_lo, i_hi):
        self.n = n
        self.i_lo = i_lo
        self.i_hi = i_hi
        self.terms: dict[tuple[Part, RelationLabel], int] = {
            key: c for key, c in terms.items() if c and i_lo <= key[0][1] <= i_hi
        }

    def __sub__(self, other: "LoopTensor") -> "LoopTensor":
        if self.n != other.n:
            raise ValueError("cannot combine tensors of different degrees")
        lo, hi = max(self.i_lo, other.i_lo), min(self.i_hi, other.i_hi)
        out = add_scaled(dict(self.terms), other.terms.items(), -1)
        return LoopTensor(self.n, out, lo, hi)

    def __repr__(self):
        return (
            f"LoopTensor(n={self.n}, {len(self.terms)} terms, "
            f"range=[{self.i_lo}, {self.i_hi}])"
        )


# Mode degrees a syzygy tensor certifies past [n - bound, bound] on either
# side, for a target window of annihilation bound `bound`.  `collapse` reads
# exactly the mode degrees in [n - bound, bound]: a creation mode multiplies
# its body from the left and keeps every weight, a body of degree D > bound
# has every weight >= D, and an annihilation mode i > bound adds weight i, so
# every other slot collapses outside the window.  The one step between
# building a tensor and collapsing it that shrinks its interval is the single
# k = -1 step of `lowering_pair`: it costs one slot at the top, and lowers the
# degree, so the bottom of the interval read, by one.
_MARGIN = 1


def syzygy_tensor_64(n: int, window: Window) -> LoopTensor:
    """sum_i (3i - n) X1(i) tensor Y(g)_{n-i}, g = X1(-1)^2 . vac the
    generator of R."""
    bound = window.annihilation_bound
    i_lo, i_hi = n - bound - _MARGIN, bound + _MARGIN
    generator = quad_same_label(1, 1, -1)  # the label of X1(-1)^2 . vac
    terms = {((1, i), generator): 3 * i - n for i in range(i_lo, i_hi + 1)}
    return LoopTensor(n, terms, i_lo, i_hi)


def loop_action(x_color: int, k: int, t: LoopTensor) -> LoopTensor:
    """Action of x(k) on a tensor: the bracket on the mode slot, and x(0) on
    every relation slot, which keeps its vector of R and moves from degree
    n - i to n + k - i (the lemma at `shift_matrix`; for k != 0 its premise
    is checked first, and a failure raises `PremiseError`)."""
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
    return LoopTensor(t.n + k, out, lo, hi)


@cache
def _pair_numbering() -> tuple[tuple, dict]:
    """The 216 pairs (a, L) of 8 tensor R, the labels of `r_basis` in order,
    then the colors, and the index of each pair."""
    pairs = tuple((a, label) for label in r_basis() for a in COLORS)
    return pairs, {pair: k for k, pair in enumerate(pairs)}


@cache
def _zero_mode_columns(x_color: int) -> tuple[tuple, ...]:
    """The column of x(0) on each pair of 8 tensor R, by pair index: the
    bracket on the mode and x(0) on R (`shift_matrix`), the operator that
    `loop_action(x_color, 0, .)` applies to every slot of a tensor."""
    pairs, index = _pair_numbering()
    zero_mode = shift_matrix(x_color)
    columns = []
    for a, label in pairs:
        column: dict[int, int] = {}
        add_scaled(column, ((index[color, label], c) for color, c in BRACKET[(x_color, a)]))
        add_scaled(column, ((index[a, lab2], w) for lab2, w in zero_mode[label].items()))
        columns.append(tuple(column.items()))
    return tuple(columns)


def _apply_zero_mode(x_color: int, vec: dict[int, int]) -> dict[int, int]:
    """x(0) on a vector of 8 tensor R keyed by pair index."""
    columns = _zero_mode_columns(x_color)
    out: dict[int, int] = {}
    for k, c in vec.items():
        add_scaled(out, columns[k], c)
    return out


def lowering_pair(i: int, t: LoopTensor) -> LoopTensor:
    """The operator f_i(-1) h_i(0) - f_i(0) h_i(-1) on tensors."""
    f = F1_COLOR if i == 1 else F2_COLOR
    h = H1_COLOR if i == 1 else H2_COLOR
    first = loop_action(f, -1, loop_action(h, 0, t))
    second = loop_action(f, 0, loop_action(h, -1, t))
    return first - second


def _weight_2theta_pairs():
    """Pairs (mode color, label of R) of joint weight 2*theta."""
    joint = lambda a, lab: WEIGHT[a] + parts_weight(lab.partition())
    return [(a, lab) for lab in r_basis() for a in COLORS if joint(a, lab) == Weight(2, 2)]


@cache
def _q27_combination():
    """The unique highest-weight combination of (mode x abstract relation)
    pairs of weight 2*theta whose degree-3 state image is t times the
    derivative of the quadratic generator state, 2 X1(-2)X1(-1).vac.
    Returned as (pairs, t): the primitive integer null vector, with t > 0,
    as ((mode color, label), coefficient) pairs and the integer t.  Solved
    exactly in the reference coordinates; no truncation enters."""
    pairs = _weight_2theta_pairs()
    basis = r_basis()
    _, index = _pair_numbering()
    # one column per unknown.  A pair (a, r) gives the entries of
    # e . (X_a tensor r) = [e, X_a] tensor r + X_a tensor (e . r), the zero
    # mode e(0) on 8 tensor R (`_zero_mode_columns`), which must cancel,
    # and of its state X_a(-1) . (r . vac); the last unknown t gives
    # -2 X1(-2)X1(-1).vac.  A dependency among the columns is a
    # highest-weight combination whose state is t times the target.
    columns = []
    for a, lab in pairs:
        column: dict = {}
        for e in (E1_COLOR, E2_COLOR):
            raised = _zero_mode_columns(e)[index[a, lab]]
            add_scaled(column, ((("raise", e, k), v) for k, v in raised))
        state = apply_mode((a, -1), basis[lab])
        add_scaled(column, ((("state", parts), v) for parts, v in state.items()))
        columns.append(column)
    columns.append({("state", ((1, -2), (1, -1))): -2})
    # nullspace of the columns: each tag records its column's combination,
    # and the tags sort last, so a column that reduces to tags alone is a
    # dependency among the columns.  The combination is unique exactly when
    # the only dependency is the one the target column closes; one found
    # earlier has t = 0 and a second dimension of solutions.
    reducer = SpanReducer(lambda k: (k[0] == "tag", k))
    dependencies = []
    for j, column in enumerate(columns):
        column[("tag", j)] = 1
        red = reducer.reduce(column)
        if all(k[0] == "tag" for k in red):
            dependencies.append((j, red))
        else:
            reducer.insert(red)
    closing = [j for j, _ in dependencies]
    if closing != [len(columns) - 1]:
        raise AssertionError(
            f"expected a unique highest-weight syzygy combination: only the "
            f"target column {len(columns) - 1} may close a dependency, and "
            f"columns {closing} do"
        )
    coeffs = [0] * len(columns)
    for (_, j), v in dependencies[0][1].items():
        coeffs[j] = v
    g = gcd(*coeffs)  # the target's tag is positive, as `reduce` scales up
    *combo, t = (c // g for c in coeffs)
    return [(pair, c) for pair, c in zip(pairs, combo) if c], t


def syzygy_tensor_27(n: int, window: Window) -> LoopTensor:
    """The weight-2*theta syzygy, scaled by the t of `_q27_combination` to
    integer coefficients: the highest-weight pair combination at every mode
    degree."""
    combo, _ = _q27_combination()
    bound = window.annihilation_bound
    i_lo, i_hi = n - bound - _MARGIN, bound + _MARGIN
    terms = {((a, i), lab): c for i in range(i_lo, i_hi + 1) for (a, lab), c in combo}
    return LoopTensor(n, terms, i_lo, i_hi)


def syzygy_tensors(n: int, window: Window) -> dict[str, LoopTensor]:
    """The four highest-weight syzygies at degree n, named by the dimension
    of the module they generate (the two 35s by the lowering used).  A
    monomial of degree n has annihilation weight at least max(n, 0), so a
    window of smaller bound holds no term of any collapse at degree n; it
    raises `WindowError` rather than pass every check with nothing read."""
    bound = window.annihilation_bound
    if bound < max(n, 0):
        raise WindowError(
            f"window {bound} holds no monomial of degree {n}, which weighs at "
            f"least {max(n, 0)}"
        )
    above = syzygy_tensor_64(n + 1, window)
    return {
        "64": syzygy_tensor_64(n, window),
        "35": lowering_pair(1, above),
        "35u": lowering_pair(2, above),
        "27": syzygy_tensor_27(n, window),
    }


@cache
def _slot_body(label: RelationLabel, m: int, window: Window) -> EnvElement:
    """Y(v_L)_m on the window, the body of a syzygy slot."""
    return vertex_mode(r_basis()[label], m, window)


def collapse(t: LoopTensor, window: Window) -> EnvElement:
    """The two-sided multiplication image of a tensor: the slot ((a, i), L)
    is X_a(i) times its body Y(v_L)_{n-i}, from the left for a negative i
    and from the right otherwise.  Exact on the target window: only the
    mode degrees in [n - bound, bound] reach it (see `_MARGIN`), so the
    tensor must certify all of them, or `WindowError` is raised.  Each body
    is exact on the window (`vertex_mode`), and every product term is
    straightened into one sum, filtered once.  A creation mode on the left
    moves only past creation modes, so each product term keeps its body
    term's weight; an annihilation mode on the right moves only past higher
    annihilation modes, so each product term gains exactly i.  So filtering
    the sum once at the bound equals filtering each product at its own,
    wider bound."""
    bound = window.annihilation_bound
    lo, hi = t.n - bound, bound
    if t.i_lo > lo or t.i_hi < hi:
        raise WindowError(
            f"the tensor certifies mode degrees [{t.i_lo}, {t.i_hi}], and the "
            f"collapse on window {bound} reads [{lo}, {hi}]"
        )
    total: dict[tuple[Part, ...], Scalar] = {}
    for ((a, i), label), c in t.terms.items():
        if not lo <= i <= hi:
            continue  # collapses outside the window
        mode = ((a, i),)
        for w, b in _slot_body(label, t.n - i, window).terms.items():
            word = mode + w if i < 0 else w + mode
            add_scaled(total, straighten_word(word).items(), c * b)
    return EnvElement(total, Window(bound))


# --- the syzygy orbits --------------------------------------------------------


def _tensor_partition(key) -> tuple[Part, ...]:
    """The colored partition of a tensor key (mode, label): the label's
    partition with the mode added."""
    mode, label = key
    return sort_parts(label.partition() + (mode,))


@cache
def _tensor_column_key(key):
    (a, i), label = key
    pi = _tensor_partition(key)
    return (order_key(pi), i, a, order_key(label.partition()))


def orbit_basis(v: dict) -> list[dict]:
    """Reduced basis of the orbit U(g) . v of a highest-weight vector v of
    8 tensor R, keyed by pairs (a, L), the span of v under F1(0) and F2(0),
    closed over the pair indices (`_zero_mode_columns`).  v is certified
    first: E1(0) and E2(0) must kill it, and they generate n+ (E3 = [E1,
    E2]); and all its terms must have one weight, so U(h) . v = C v.  Else
    `AssertionError` names the raising mode and its least surviving term,
    or two differing weights.  By PBW, U(g) = U(n-) U(h) U(n+), so U(g) . v
    = U(n-) . v, and n- is generated by F1 and F2."""
    pairs, index = _pair_numbering()
    seed = {index[pair]: c for pair, c in v.items()}
    for name, color in (("E1", E1_COLOR), ("E2", E2_COLOR)):
        if raised := _apply_zero_mode(color, seed):
            survivors = {((pairs[k][0], 0), pairs[k][1]): c for k, c in raised.items()}
            (a, _), label = key = min(survivors, key=_tensor_column_key)
            raise AssertionError(
                f"{name}(0) does not kill the seed: X_{a}(0) tensor "
                f"{format_partition(label.partition())} survives with {survivors[key]}"
            )
    weights = {WEIGHT[a] + parts_weight(label.partition()) for a, label in v}
    if len(weights) > 1:
        w1, w2 = sorted(tuple(w) for w in weights)[:2]
        raise AssertionError(f"the seed is not a weight vector: it has weights {w1} and {w2}")
    reducer = SpanReducer(int)  # the pair index orders the columns
    reducer.close(seed, lambda vec: (_apply_zero_mode(c, vec) for c in (F1_COLOR, F2_COLOR)))
    return [{pairs[k]: c for k, c in row.items()} for row in reducer.rows.values()]


def reference_form(family: str, t: LoopTensor):
    """The syzygy tensor t as one vector v in 8 tensor R and an exact
    profile {i: p_i} over its nonzero slots: slot i (the terms of mode
    degree i) is p_i v.  v is the least slot made primitive and positive at
    its least key; a slot that is not a multiple of it raises
    `AssertionError` naming the family, n and the slot."""
    slots: dict[int, dict] = {}
    for ((a, i), lab), c in t.terms.items():
        slots.setdefault(i, {})[(a, lab)] = c
    if not slots:
        return {}, {}
    i0 = min(slots)
    least = slots[i0]
    g = gcd(*least.values()) if least[min(least)] > 0 else -gcd(*least.values())
    v = {key: c // g for key, c in least.items()}
    key = min(v)
    profile = {}
    for i, slot in sorted(slots.items()):
        p = exact_quotient(slot.get(key, 0), v[key])
        if add_scaled(dict(slot), v.items(), -p):
            raise AssertionError(
                f"{family} family at n={t.n}, slot i={i}: the slot is not a "
                f"multiple of the reference vector solved from slot i={i0}"
            )
        profile[i] = p
    return v, profile


@cache
def _orbit_dimension(v: frozenset) -> int:
    """The dimension of the orbit of v ((key, coefficient) pairs) in 8 tensor R."""
    return len(orbit_basis(dict(v)))


def syzygy_dimensions(n: int, window: Window) -> dict[str, int]:
    """The orbit dimension of each syzygy family at degree n.  A zero mode
    acts on every slot of a tensor by the same operator, the bracket on the
    mode and x(0) on R (`loop_action`), and keeps each slot's mode degree.
    So when `reference_form` certifies that slot i is p_i v, the map from
    the orbit of v to the family's is injective (p is not zero at the least
    slot) and commutes with the zero modes, and the orbit has the dimension
    of the orbit of v in 8 tensor R, closed once per distinct v under F1(0)
    and F2(0) from v on the numbered pairs (a, L) of 8 tensor R, with no
    tensor built (`orbit_basis`, which certifies v highest-weight)."""
    dims = {}
    for family, t in syzygy_tensors(n, window).items():
        v, _ = reference_form(family, t)
        dims[family] = _orbit_dimension(frozenset(v.items()))
    return dims


# --- Theorem A: the graded verification ---------------------------------------


@cache
def _parity_basis(m: int) -> dict[RelationLabel, dict]:
    """2 w_L for each label L of degree m = -2 or -3, where Y(w_L)_m . vac
    is the row of L (`_labelled_rows`): each Y(v)_m . vac, v in R, is tagged
    with 2 v, as `_q27_combination` tags its columns.  The pivots depend on
    m only through its parity (the lemma at `shift_matrix`), so
    Y(w_L)_m' . vac is the row of L at every m' <= -2 of that parity.  The
    even w_L is v_L, as Y(v)_-2 . vac = v; the odd pivots read 2 C_cc on a
    diagonal pair, so the odd w_L has halves, and 2 w_L is integral."""
    tagged = SpanReducer(lambda k: (1, k) if k[0] == "tag" else (0, order_key(k)))
    for v in r_basis().values():
        tags = ((("tag", parts), 2 * c) for parts, c in v.items())
        tagged.insert(add_scaled(_mode_terms(v, m, range(m + 1, 0)), tags))
    rows = _labelled_rows(tagged, f"the quadratics of degree {m}")
    return {lab: {k[1]: c for k, c in r.items() if k[0] == "tag"} for lab, r in rows.items()}


def relation_on_vacuum(label: RelationLabel) -> dict:
    """r . vac for the canonical relation r with this label, as a fresh
    dict, with no window.  A quadratic's is Y(w)_m . vac, 2 w from
    `_parity_basis`, over m < p < 0, the creation pairs of `vertex_mode`:
    halved exactly, so an integral coefficient stays an int.  A cubic's is
    its length-3 part, which holds its lead.  cubic_a is X_3(j-1)
    q(5,1,j) - q(3,5,j) X_1(j), and cubic_b q(8,5,j-1) X_6(j) - X_8(j-1)
    q(5,6,j).  On the vacuum r X(j) . vac = X(j) (r . vac) - [X(j), r] . vac,
    and the bracket has at most two modes, so the length-3 part is that of
    X(j) (q . vac) - X(j') (q' . vac).  No term has more than three parts,
    and `order_key` puts longer partitions first, so this part holds the
    lead."""
    j = label.j
    if len(label.colors) == 2:
        m = label.degree()
        row = _mode_terms(_parity_basis(-2 - m % 2)[label.translate(-1 - j)], m, range(m + 1, 0))
        return {k: exact_quotient(c, 2) for k, c in row.items()}
    if label.kind == CUBIC_A:
        out = apply_mode((3, j - 1), relation_on_vacuum(quad_same_label(5, 1, j)))
        minus = apply_mode((1, j), relation_on_vacuum(quad_adjacent_label(3, 5, j)))
    else:
        out = apply_mode((6, j), relation_on_vacuum(quad_same_label(8, 5, j - 1)))
        minus = apply_mode((8, j - 1), relation_on_vacuum(quad_adjacent_label(5, 6, j)))
    add_scaled(out, minus.items(), -1)
    return {parts: c for parts, c in out.items() if len(parts) == 3}


def leading_elsewhere(labels) -> list[RelationLabel]:
    """The labels, in order, whose r . vac (`relation_on_vacuum`) does not
    lead, under `order_key`, with the label's own partition."""
    lead = lambda x: min(relation_on_vacuum(x), key=order_key, default=None)
    return [x for x in labels if lead(x) != x.partition()]


def submodule_span_blocks(n: int, window: Window) -> dict[Weight, list[dict]]:
    """The spanning family of the depth-n piece of the maximal submodule
    (creation monomials applied to relation vectors), grouped by weight.
    Rows are sparse vectors over depth-n partitions.  No verdict reads it:
    the tests rank it against the triangular certificate, and the benchmark
    traces it."""
    blocks: dict[Weight, list[dict]] = {}
    for m in range(-2, -n - 1, -1):
        space = relation_space(m, window)
        for label in space.labels:
            v0 = relation_on_vacuum(label)
            if not v0:
                raise AssertionError(f"relation {label} vanished on the vacuum")
            base_weight = parts_weight(label.partition())
            for kappa in graded_basis(n + m):
                v = apply_word(kappa, v0)
                if v:
                    w = base_weight + parts_weight(kappa)
                    blocks.setdefault(w, []).append(v)
    return blocks


def _factor_witness(n: int) -> str | None:
    """The first forbidden factor rho of degree -n, all of whose modes
    create, with lt(r_rho . vac) != rho; None if there is none.  Lemma: for
    j < 0, X_a(j) . u(p) . vac = u(p + (a, j)) . vac plus terms with fewer
    parts, as [X_a(j), X_b(k)] has no central term when j, k < 0, and
    `order_key` puts longer partitions first and is multiplicative under
    union, so lt(u(kappa) . v) = kappa + lt(v).  So once every factor of
    degree -n..-2 leads with itself, each depth-n partition pi that a factor
    rho divides leads the vector u(pi / rho) . (r_rho . vac) of N (by
    `_premise_witness`), and these triangular vectors prove
    dim N_n >= pbw - ideal with no row built.  A count of factors other
    than 27, plus a cubic when n >= 4 and n % 3 != 0, is a witness too.
    A factor of k parts has offsets 0 or -1, one of them 0, so its anchor
    is -(n // k); cubic_b at j = 0 has degree -2 but a zero mode."""
    anchors = sorted({-(n // 2), -(n // 3)})
    factors = [rho for j in anchors if j < 0 for rho in relation_set(j, j) if rho.degree() == -n]
    if wrong := leading_elsewhere(factors):
        return format_partition(wrong[0].partition())
    expected = 27 + (n >= 4 and n % 3 != 0)
    if len(factors) != expected:
        return f"checked {len(factors)} factors of degree {-n}, expected {expected}"
    return None


def basis_counts_report(n_max: int, window: Window | None = None, progress=None):
    """Per-depth comparison: spanning-ideal count, induced-module dimension
    minus the rank of the maximal submodule N, and the lattice character
    oracle.  The rank pbw - ideal is a lower bound on dim N_n that
    `_factor_witness` proves at every depth up to n, on the premise
    `_premise_witness` checks once; ideal = oracle makes it exact, and the
    quotient is then the ideal count.  A row is ok when both hold and
    ideal = oracle; otherwise `witness` names what failed.  `window` is not
    read; perfbench/child.py passes one until the benchmark drops it."""
    if n_max < 0:
        raise ValueError(f"max_depth must be nonnegative, got {n_max}")
    oracle = character_oracle(n_max)
    pbw = colored_part_count_series(n_max, 8)
    ideal = ideal_count_series(n_max)
    premise = _premise_witness() if n_max >= 2 else None
    witness = None
    out = []
    for n in range(n_max + 1):
        if progress is not None:
            progress(f"basis check: depth {n}")
        if n >= 2 and witness is None:
            witness = premise or _factor_witness(n)
        rank = pbw[n] - ideal[n]
        out.append(
            {
                "n": n,
                "ideal": ideal[n],
                "module_dim": pbw[n],
                "rank": rank,
                "quotient": pbw[n] - rank,
                "oracle": oracle[n],
                "ok": witness is None and ideal[n] == oracle[n],
                "witness": witness,
            }
        )
    return out


# --- syzygy collapse (the annihilation checks) ----------------------------------


def collapse_report(n: int, window: Window) -> dict:
    """Collapse the four syzygies at degree n.  The first three must vanish
    identically on the certified window; the fourth, t times q27, collapses
    to t c(n) times the quadratic generator, and c(n) is returned."""
    tensors = syzygy_tensors(n, window)
    out: dict = {"n": n, "bound": window.annihilation_bound}
    for name in ("64", "35", "35u"):
        image = collapse(tensors[name], window)
        out[f"psi_{name}_zero"] = image.is_zero()
    image27 = collapse(tensors["27"], window)
    generator = vertex_mode(_GENERATOR, n, window)
    _, t = _q27_combination()
    scalar = _proportionality(image27, generator.scale(t))
    out["c"] = scalar
    out["psi_27_match"] = scalar is not None
    return out


def _proportionality(e: EnvElement, f: EnvElement) -> Scalar | None:
    """The scalar c with e = c f, or None; the two share one window, or
    `WindowError` is raised when they are combined."""
    if f.is_zero():
        return 0 if e.is_zero() else None
    witness = min(f.terms, key=order_key)
    c = exact_quotient(e.terms.get(witness, 0), f.terms[witness])
    return c if (e - f.scale(c)).is_zero() else None
