"""Independent series engines for the tests: the list-transfer loops that
``affbasis.qseries`` used before its packed-integer kernel, kept as they
were.  Each state holds its truncated series as a list of ints and every
shift-and-add runs coefficient by coefficient, so these share no
arithmetic with the packed engines they check.

Six additions: the optional ``observe`` hook, called with the dict of
states after every step, so a test can read the intermediate coefficients
the packed engines must fit into their slots; ``transfer``, the packed
kernel's contract on coefficient lists, for tests on random step graphs
and on the steps an engine hands the kernel; ``product_side``, the
product by the list arithmetic it had before it was packed;
``a2_theta_series_plus``, the root-lattice theta series from the other
Gram form; ``ideal_count_series``, the ideal count by depth on the layer
graph as it is, unlumped; and ``character_oracle``, the theta series
convolved with two boson factors."""

import math
import operator

from affbasis.partitions import INDEPENDENT_COLOR_SETS, compatible_layers
from affbasis.qseries import (
    _PHI_OFFSET,
    DUNDER,
    PLAIN,
    UNDER,
    Series,
    _local_part_ok,
    _window_violation,
)


def tricolor_count_series(order: int, observe=None) -> Series:
    """Count of admissible three-color partitions by total degree, via a
    sliding-window transfer over the compiled constraint table."""
    start = (0, 0, 0, 0)
    states: dict[tuple[int, int, int, int], list[int]] = {
        start: [1] + [0] * order
    }
    for d in range(1, order + 1):
        new: dict[tuple[int, int, int, int], list[int]] = {}
        for state, series in states.items():
            for choice in (0, PLAIN, UNDER, DUNDER):
                if choice and not _local_part_ok(d, choice):
                    continue
                if _window_violation(d, state + (choice,)):
                    continue
                ns = state[1:] + (choice,)
                target = new.get(ns)
                if target is None:
                    target = [0] * (order + 1)
                    new[ns] = target
                if choice == 0:
                    for k, v in enumerate(series):
                        if v:
                            target[k] += v
                else:
                    for k in range(order - d + 1):
                        v = series[k]
                        if v:
                            target[k + d] += v
        states = new
        if observe is not None:
            observe(states)
    total = [0] * (order + 1)
    for series in states.values():
        for k, v in enumerate(series):
            total[k] += v
    return Series(total)


def specialized_count_series(order: int, observe=None) -> Series:
    """Count of difference-condition partitions graded by specialized
    degree, via a layer-transfer over per-degree color sets."""
    depth_max = (order + 2) // 3
    states: dict[frozenset, list[int]] = {frozenset(): [1] + [0] * order}
    for i in range(1, depth_max + 1):
        new: dict[frozenset, list[int]] = {}
        for layer in INDEPENDENT_COLOR_SETS:
            cost = sum(3 * i + _PHI_OFFSET[c] for c in layer)
            if cost > order:
                continue
            for prev, series in states.items():
                if not compatible_layers(layer, prev):
                    continue
                target = new.get(layer)
                if target is None:
                    target = [0] * (order + 1)
                    new[layer] = target
                if cost == 0:
                    for k, v in enumerate(series):
                        if v:
                            target[k] += v
                else:
                    for k in range(order - cost + 1):
                        v = series[k]
                        if v:
                            target[k + cost] += v
        states = new
        if observe is not None:
            observe(states)
    total = [0] * (order + 1)
    for series in states.values():
        for k, v in enumerate(series):
            total[k] += v
    return Series(total)


def ideal_count_series(order: int) -> Series:
    """Count of difference-condition partitions by depth, via a
    layer-transfer over the per-degree color sets as they are, unlumped: a
    layer at depth i costs i per color."""
    zero = [0] * (order + 1)
    states: dict[frozenset, list[int]] = {frozenset(): [1] + zero[1:]}
    for i in range(1, order + 1):
        new: dict[frozenset, list[int]] = {}
        for layer in INDEPENDENT_COLOR_SETS:
            cost = i * len(layer)
            if cost > order:
                continue
            below = [s for prev, s in states.items() if compatible_layers(layer, prev)]
            summed = list(map(sum, zip(zero, *below)))
            if any(summed):
                new[layer] = zero[:cost] + summed[: order + 1 - cost]
        states = new
    return Series(list(map(sum, zip(zero, *states.values()))))


def character_oracle(order: int) -> Series:
    """The root-lattice theta series (``a2_theta_series_plus``) times two
    free boson partitions, each prod 1/(1 - q^k) counted as the number of
    partitions p(n), multiplied by list convolution."""
    partitions = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            partitions[n] += partitions[n - part]
    series = a2_theta_series_plus(order).coeffs
    for _ in range(2):
        series = [
            sum(series[k] * partitions[n - k] for k in range(n + 1)) for n in range(order + 1)
        ]
    return Series(series)


def transfer(order: int, start, steps, observe=None) -> Series:
    """The contract of ``affbasis.qseries._transfer`` on coefficient lists:
    each target (dst, cost, sources) of a step adds to dst the sum of its
    sources' series, a source listed twice read twice, times q^cost, cut
    after q^order, and the result is the sum of the final states.  A state
    whose series is zero is left out, as an unreached state is."""
    states = {start: [1] + [0] * order}
    for targets in steps:
        new = {}
        for dst, cost, sources in targets:
            series = new.get(dst, [0] * (order + 1))
            for src in sources:
                for k, v in enumerate(states.get(src, [])):
                    if k + cost <= order:
                        series[k + cost] += v
            if any(series):
                new[dst] = series
        states = new
        if observe is not None:
            observe(states)
    return Series([sum(column) for column in zip([0] * (order + 1), *states.values())])


def product_side(order: int) -> Series:
    """prod_{r>=1} (1 + q^r + q^{2r}): parts repeat at most twice."""
    coeffs = [1] + [0] * order
    for r in range(1, order + 1):
        old = coeffs[:]
        coeffs[r:] = map(operator.add, coeffs[r:], old)
        coeffs[2 * r :] = map(operator.add, coeffs[2 * r :], old)
    return Series(coeffs)


def a2_theta_series_plus(order: int) -> Series:
    """Theta series of the hexagonal root lattice from the Gram matrix
    [[2, 1], [1, 2]]: (x, y) -> (x, -y) carries it to the library's
    [[2, -1], [-1, 2]], so the two series agree."""
    coeffs = [0] * (order + 1)
    # the norm form is at least (3/4) x^2 over integer points
    bound = math.isqrt(4 * order // 3) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            norm = x * x + x * y + y * y
            if norm <= order:
                coeffs[norm] += 1
    return Series(coeffs)
