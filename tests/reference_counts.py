"""Direct searches for the tests, and the product side in its other form:
the three-color and specialized counts one partition at a time, the
specialization map on single modes, and prod over r not divisible by 3 of
1/(1 - q^r).  They were part of ``affbasis.qseries`` and are kept as they
were.  The searches build no transfer and share nothing with the packed
kernel ``_transfer`` or the compiled table ``_tricolor_table``, which they
check.  They do read the rule data those engines read: the window families
(``_local_part_ok``, ``_window_violation``), the specialized degrees
(``_PHI_OFFSET``) and the layer rule (``compatible_layers``).

``tricolor_table_reference`` is the three-color table's former route,
also kept as it was: the moves of every window at every phase (the 40 of
the 256 color choices with no two adjacent), compiled before ``_lump``
runs, where ``_tricolor_table`` compiles only the windows the lumping
reaches."""

import itertools

from affbasis.partitions import (
    INDEPENDENT_COLOR_SETS,
    Part,
    compatible_layers,
    sort_parts,
)
from affbasis.qseries import (
    _PHI_OFFSET,
    DUNDER,
    PLAIN,
    UNDER,
    Series,
    _local_part_ok,
    _lump,
    _multiply_geometric,
    _window_violation,
)


def nontriple_product_side(order: int) -> Series:
    """prod_{r not= 0 mod 3} (1 - q^r)^(-1)."""
    coeffs = [1] + [0] * order
    for r in range(1, order + 1):
        if r % 3 != 0:
            _multiply_geometric(coeffs, r)
    return Series(coeffs)


def tricolor_admissible(parts) -> bool:
    """Full condition check on a collection of (degree, color) parts."""
    parts = set(parts)
    degrees: dict[int, int] = {}
    for degree, color in parts:
        if degree < 1 or color not in (PLAIN, UNDER, DUNDER):
            raise ValueError(f"bad tricolor part {(degree, color)}")
        if not _local_part_ok(degree, color):
            return False
        if degree in degrees:
            return False  # same or unit-distance degrees may hold one part
        degrees[degree] = color
    if not degrees:
        return True
    # a violated family can have its top slot up to two above the largest
    # present part, so scan that far
    top = max(degrees) + 2
    for d in range(1, top + 1):
        window = tuple(degrees.get(d - off, 0) for off in range(4, -1, -1))
        if _window_violation(d, window):
            return False
    return True


def all_window_moves(d: int) -> dict:
    """The moves at degree d: each window (the colors at four consecutive
    degrees, no two adjacent) to its (places a part at d, next window)
    pairs."""
    moves = {}
    for window in itertools.product((0, PLAIN, UNDER, DUNDER), repeat=4):
        if any(a and b for a, b in zip(window, window[1:])):
            continue
        moves[window] = [
            (choice != 0, window[1:] + (choice,))
            for choice in (0, PLAIN, UNDER, DUNDER)
            if (not choice or _local_part_ok(d, choice))
            and not _window_violation(d, window + (choice,))
        ]
    return moves


def tricolor_table_reference() -> tuple:
    """``_tricolor_table`` by the former route: every window's moves at
    phases 1..8, then ``_lump`` from the empty window at phase 0, phase 8
    followed by phase 6."""
    phases = {p: all_window_moves(p) for p in range(1, 9)}

    def moves(node):
        phase, window = node
        following = 6 if phase == 8 else phase + 1
        return [(part, (following, dst)) for part, dst in phases[following][window]]

    return _lump((0, (0, 0, 0, 0)), moves)


def tricolor_partitions_bruteforce(order: int) -> list[frozenset]:
    """All admissible three-color partitions of total degree <= order,
    by direct search.  Exponential; meant for desk-scale cross-checks."""
    found: list[frozenset] = []

    def rec(d: int, budget: int, acc: list):
        found.append(frozenset(acc))
        for degree in range(d, budget + 1):
            for color in (PLAIN, UNDER, DUNDER):
                cand = acc + [(degree, color)]
                if tricolor_admissible(cand):
                    rec(degree + 1, budget - degree, cand)

    rec(1, order, [])
    return found


def tricolor_count_bruteforce(order: int) -> Series:
    counts = [0] * (order + 1)
    for f in tricolor_partitions_bruteforce(order):
        counts[sum(d for d, _ in f)] += 1
    return Series(counts)


_PHI_COLOR = {1: DUNDER, 2: PLAIN, 3: UNDER, 4: PLAIN, 5: UNDER, 6: UNDER, 7: PLAIN, 8: DUNDER}


def phi_part(color: int, i: int) -> tuple[int, int]:
    """Image of the mode X_color(-i), i >= 1, as a (degree, color) part."""
    if i < 1:
        raise ValueError("only strictly negative modes specialize")
    return (3 * i + _PHI_OFFSET[color], _PHI_COLOR[color])


def phi_image(p: tuple[Part, ...]) -> frozenset:
    return frozenset(phi_part(c, -d) for c, d in p)


def phi_degree(p: tuple[Part, ...]) -> int:
    return sum(3 * (-d) + _PHI_OFFSET[c] for c, d in p)


def specialized_ideal_partitions(order: int) -> list[tuple[Part, ...]]:
    """Difference-condition partitions of specialized degree <= order, by
    direct search over internal degrees."""
    found: list[tuple[Part, ...]] = []

    def rec(i: int, budget: int, prev: frozenset, acc: list):
        found.append(sort_parts(acc))
        for depth in range(i, (budget + 2) // 3 + 1):
            shallow = prev if depth == i else frozenset()
            for layer in INDEPENDENT_COLOR_SETS:
                if not layer:
                    continue
                cost = sum(3 * depth + _PHI_OFFSET[c] for c in layer)
                if cost > budget:
                    continue
                if not compatible_layers(layer, shallow):
                    continue
                rec(
                    depth + 1,
                    budget - cost,
                    layer,
                    acc + [(c, -depth) for c in layer],
                )

    rec(1, order, frozenset(), [])
    return found


def specialized_count_bruteforce(order: int) -> Series:
    counts = [0] * (order + 1)
    for p in specialized_ideal_partitions(order):
        counts[phi_degree(p)] += 1
    return Series(counts)
