"""Discrete Morse functions: validation, critical cells, gradient fields.

A function is accepted when every cell has at most one "wrong-order"
neighbour above and below.  The associated gradient field is the matching of
those exceptional pairs.  ``validate`` classifies every cell in one pass and
the function it returns owns its field, which ``gradient_field`` and
``critical_cells`` only read.  The field is acyclic for every valid function;
``validate`` re-checks that once as an internal tripwire.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Mapping

from .complexes import Simplex, SimplicialComplex, as_simplex
from .errors import (
    AcyclicityBug,
    ComplexMismatch,
    MissingValue,
    MorseConditionViolated,
    PreconditionViolated,
    SimplexNotInComplex,
)


@dataclass(frozen=True)
class MorseFunction:
    """A validated real value per simplex of a complex."""

    complex: SimplicialComplex
    values: Mapping[Simplex, float]
    # Derived from the values, so it takes no part in equality.
    field: GradientField = dataclass_field(compare=False, repr=False)

    def __call__(self, cell) -> float:
        try:
            return self.values[cell]
        except KeyError:
            raise SimplexNotInComplex(f"{cell!r} has no value") from None

    def is_injective(self) -> bool:
        return len(set(self.values.values())) == len(self.values)

    def sorted_distinct_values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.values.values())))

    def min_value_gap(self) -> float:
        vals = self.sorted_distinct_values()
        if len(vals) < 2:
            return 1.0
        return min(b - a for a, b in zip(vals, vals[1:]))


def upper_set(f: MorseFunction, cell) -> frozenset[Simplex]:
    """Immediate cofaces whose value does not exceed the cell's value."""
    cell = as_simplex(cell)
    return frozenset(c for c in f.complex.cofaces_of(cell) if f(c) <= f(cell))


def lower_set(f: MorseFunction, cell) -> frozenset[Simplex]:
    """Immediate faces whose value is at least the cell's value."""
    cell = as_simplex(cell)
    return frozenset(c for c in f.complex.faces_of(cell) if f(c) >= f(cell))


def validate(complex: SimplicialComplex, values: Mapping) -> MorseFunction:
    """Check finite, total values and the at-most-one-exception conditions.

    Raises ``MorseConditionViolated`` carrying the full list of offending
    simplices.  The same pass over the cells collects the exceptional pairs,
    whose gradient field the returned function carries.  Exclusivity and
    acyclicity hold for every valid function and are rechecked as tripwires.
    """
    norm: dict[Simplex, float] = {}
    for cell, val in values.items():
        cell = as_simplex(cell)
        if cell not in complex:
            raise SimplexNotInComplex(f"value given for {cell!r}, which is not in the complex")
        norm[cell] = float(val)
        if not math.isfinite(norm[cell]):
            raise PreconditionViolated(f"value {norm[cell]!r} for {cell!r} is not finite")
    for cell in complex:
        if cell not in norm:
            raise MissingValue(f"no value for {cell!r}")
    violations = []
    clashes = []
    pairs = []
    for cell in complex:
        val = norm[cell]
        ups = [c for c in complex.cofaces_of(cell) if norm[c] <= val]
        lows = [c for c in complex.faces_of(cell) if norm[c] >= val]
        if len(ups) > 1 or len(lows) > 1:
            violations.append((cell, len(ups), len(lows)))
        elif ups and lows:
            clashes.append(cell)
        elif ups:
            pairs.append((cell, ups[0]))
    if violations:
        raise MorseConditionViolated(violations)
    # Only after the violations: an invalid function may break exclusivity too.
    if clashes:
        raise AcyclicityBug(f"exclusivity failed at {clashes[0]!r}; this is a library bug")
    field = GradientField(complex, pairs)
    if has_closed_path(field):
        raise AcyclicityBug("gradient field of a validated function has a closed path")
    return MorseFunction(complex, norm, field)


def critical_cells(f: MorseFunction) -> frozenset[Simplex]:
    return f.field.critical


def critical_values(f: MorseFunction) -> list[float]:
    """Values at critical cells, ascending, duplicates retained."""
    return sorted(f(c) for c in critical_cells(f))


class GradientField:
    """A matching of codimension-1 pairs ``(lower, upper)`` on a complex.

    Cells in no pair are the critical ones.  The constructor checks the
    matching structure but not acyclicity, so arbitrary matchings can be
    built for oracle tests; ``validate`` adds the acyclicity tripwire.
    """

    __slots__ = ("complex", "pairs", "critical", "up", "down")

    def __init__(self, complex: SimplicialComplex, pairs: Iterable[tuple]):
        up: dict[Simplex, Simplex] = {}
        down: dict[Simplex, Simplex] = {}
        norm = []
        for lower, upper in pairs:
            lower = as_simplex(lower)
            upper = as_simplex(upper)
            if lower not in complex or upper not in complex:
                raise SimplexNotInComplex(f"pair ({lower!r}, {upper!r}) leaves the complex")
            if upper.dim != lower.dim + 1 or not set(lower) < set(upper):
                raise ValueError(f"{lower!r} is not a codimension-1 face of {upper!r}")
            norm.append((lower, upper))
        for lower, upper in norm:
            if lower in up or lower in down or upper in up or upper in down:
                raise ValueError("a simplex appears in more than one pair")
            up[lower] = upper
            down[upper] = lower
        self.complex = complex
        self.pairs = frozenset(norm)
        self.up = up
        self.down = down
        self.critical = frozenset(c for c in complex if c not in up and c not in down)

    def pair_of(self, cell) -> Simplex | None:
        return self.up.get(cell) or self.down.get(cell)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradientField)
            and self.complex == other.complex
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.complex, self.pairs))

    def __repr__(self) -> str:
        return f"GradientField({len(self.pairs)} pairs, {len(self.critical)} critical)"


def has_closed_path(field: GradientField) -> bool:
    """Cycle search on the matching-modified incidence digraph."""
    complex = field.complex
    succ: dict[Simplex, tuple[Simplex, ...]] = {}
    for lower, upper in field.pairs:
        succ[lower] = tuple(c for c in complex.faces_of(upper) if c != lower)
    state: dict[Simplex, int] = {}  # 1 = on stack, 2 = done
    for root in succ:
        if state.get(root):
            continue
        stack = [(root, iter(succ[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
                continue
            mark = state.get(nxt, 0)
            if mark == 1:
                return True
            if mark == 2:
                continue
            if nxt in succ:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
            else:
                state[nxt] = 2
    return False


def gradient_field(f: MorseFunction) -> GradientField:
    """The matching of exceptional pairs of a validated function."""
    return f.field


@dataclass(frozen=True)
class GradientPath:
    """Alternating lower/upper cell sequence walked along matched pairs."""

    cells: tuple[Simplex, ...]

    @property
    def is_trivial(self) -> bool:
        return len(self.cells) == 1

    @property
    def is_closed(self) -> bool:
        return len(self.cells) > 1 and self.cells[-1] == self.cells[0]


def gradient_paths_from(field: GradientField, start) -> list[GradientPath]:
    """Every maximal gradient path out of ``start``, in depth-first order.

    On an acyclic field each branch ends at an unmatched cell.  If a cycle is
    re-entered (possible only for raw matchings) the branch is truncated at
    the repeated cell, so the search always terminates.  Every branch is
    listed, so the output can be exponential in the size of the complex.
    """
    complex = field.complex
    start = as_simplex(start)
    if start not in complex:
        raise SimplexNotInComplex(f"{start!r} is not in the complex")
    out: list[GradientPath] = []
    # Walks still to extend, next one last; lowers is None once a branch is truncated.
    stack = [((start,), frozenset((start,)))]
    while stack:
        cells, lowers = stack.pop()
        upper = None if lowers is None else field.up.get(cells[-1])
        if upper is None:
            out.append(GradientPath(cells))
            continue
        for nxt in reversed(complex.faces_of(upper)):
            if nxt != cells[-1]:
                stack.append((cells + (upper, nxt), None if nxt in lowers else lowers | {nxt}))
    return out


def are_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Same strict order on every codimension-1 face relation."""
    if f.complex != g.complex:
        raise ComplexMismatch("the functions live on different complexes")
    for upper in f.complex:
        for lower in f.complex.faces_of(upper):
            if (f(lower) < f(upper)) != (g(lower) < g(upper)):
                return False
    return True


def _linear_extension(
    complex: SimplicialComplex,
    up: Mapping[Simplex, Simplex],
    key: Callable[[Simplex], object],
) -> list[Simplex]:
    """Topological order of the matching-modified face order, smallest key first.

    Non-pair face relations keep the face before the coface; matched pairs
    are reversed.  The order is acyclic exactly when the matching is.
    """
    succ: dict[Simplex, list[Simplex]] = {c: [] for c in complex}
    indeg: dict[Simplex, int] = {c: 0 for c in complex}
    for upper in complex:
        for lower in complex.faces_of(upper):
            if up.get(lower) == upper:
                a, b = upper, lower
            else:
                a, b = lower, upper
            succ[a].append(b)
            indeg[b] += 1
    heap = [(key(c), c) for c in complex if indeg[c] == 0]
    heapq.heapify(heap)
    order: list[Simplex] = []
    while heap:
        _, cell = heapq.heappop(heap)
        order.append(cell)
        for nxt in succ[cell]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (key(nxt), nxt))
    if len(order) != len(complex):
        raise AcyclicityBug("the matching-modified face order has a cycle")
    return order


def make_injective(f: MorseFunction) -> MorseFunction:
    """An injective function equivalent to ``f`` with the same gradient field.

    Cells are re-ranked 0, 1, 2, ... along a linear extension of the
    matching-modified face order, keyed by the original values so the
    ranking stays as close to ``f`` as any linear extension allows.
    """
    field = gradient_field(f)
    order = _linear_extension(
        f.complex, field.up, key=lambda c: (f(c), len(c), tuple(c))
    )
    return validate(f.complex, {cell: float(i) for i, cell in enumerate(order)})


def _would_cycle(
    complex: SimplicialComplex,
    up: Mapping[Simplex, Simplex],
    lower: Simplex,
    upper: Simplex,
) -> bool:
    """Would adding the pair close a gradient cycle?  New cycles must pass it."""
    stack = [c for c in complex.faces_of(upper) if c != lower]
    seen: set[Simplex] = set()
    while stack:
        x = stack.pop()
        if x == lower:
            return True
        if x in seen:
            continue
        seen.add(x)
        nxt = up.get(x)
        if nxt is not None:
            stack.extend(c for c in complex.faces_of(nxt) if c != x)
    return False


def random_morse(complex: SimplicialComplex, seed: int) -> MorseFunction:
    """Deterministic random injective Morse function on a complex.

    Grows a random acyclic matching by shuffling the codimension-1 incidences
    and rejecting any pair that would close a gradient cycle, then assigns
    0, 1, 2, ... along a randomly tie-broken linear extension.  The output
    always passes ``validate``.
    """
    rng = random.Random(seed)
    incidences = [(lower, upper) for upper in complex for lower in complex.faces_of(upper)]
    rng.shuffle(incidences)
    skip = rng.random() * 0.6
    up: dict[Simplex, Simplex] = {}
    matched: set[Simplex] = set()
    for lower, upper in incidences:
        if lower in matched or upper in matched:
            continue
        if rng.random() < skip:
            continue
        if _would_cycle(complex, up, lower, upper):
            continue
        up[lower] = upper
        matched.add(lower)
        matched.add(upper)
    priority = {cell: rng.random() for cell in complex}
    order = _linear_extension(complex, up, key=lambda c: priority[c])
    return validate(complex, {cell: float(i) for i, cell in enumerate(order)})
