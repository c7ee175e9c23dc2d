"""Discrete Morse functions: validation, critical cells, gradient fields.

A function is accepted when every cell has at most one "wrong-order"
neighbour above and below.  The associated gradient field is the matching of
those exceptional pairs, stored once as the maps ``up`` (lower to upper) and
``down`` (upper to lower); its ``pairs`` are derived from ``up`` when read.
``validate`` compares every face with each of its cofaces once, and the
function it returns owns its field, which ``gradient_field`` and
``critical_cells`` only read.  The field is acyclic for every valid
function; ``validate`` re-checks that once as an internal tripwire.

A function sorts its cells by value once, on first use
(``MorseFunction._view``), and keeps the result: the cells in its one
strict order, by value, ties in canonical order but a matched lower tied
with its upper just after that upper, and the same cells in entry order,
each cell where its level complex first holds it, a matched lower just
before its upper.  Every sublevel set and every level complex is a prefix
of one of the two orders (Forman's level-subcomplex structure).  Breaking
ties once is a symbolic perturbation in the sense of Edelsbrunner and
Mücke (1990): ranking the cells along the strict order is an injective
Morse function with the same field (``make_injective``), and every reader
that needs an injective order reads this one.  The same memo keeps the
level complexes built so far and the Betti table of the filtration; it
takes no part in equality, ``repr`` or ``dataclasses.replace``.
``critical_values`` and ``is_injective`` never build it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .complexes import Simplex, SimplicialComplex, as_simplex
from .errors import (
    AcyclicityBug,
    ComplexMismatch,
    MissingValue,
    MorseConditionViolated,
    PreconditionViolated,
    SimplexNotInComplex,
)


class _View:
    """A function's level filtration, built by one sort on first use and
    kept in the instance's ``__dict__`` as ``MorseFunction._view``, outside
    the dataclass fields.

    ``cells`` holds every cell in the function's strict order: by value,
    ties in canonical order, except that a matched lower tied with its
    upper comes right after that upper; ``values`` holds their values, so
    the sublevel set at ``a`` is the prefix ``cells[:bisect_right(values,
    a)]``.  Ranking the cells 0, 1, 2, ... along ``cells`` is an injective
    discrete Morse function with ``f``'s field.  Proof: an unmatched face
    is strictly below its coface, since every incidence with the face at
    least the coface is a matched pair, so it comes first, and a matched
    lower is at least its upper, so it comes after it, either by value or,
    when tied, by the move; the rank therefore has exactly ``f``'s
    exceptional pairs.  The move keeps the values in order, since it stays
    inside one value, and an injective function pays only one tie check.
    ``entered`` holds every
    cell in entry order: the cells of ``cells`` that are no matched lower,
    each matched upper preceded by its lower; ``entries`` holds each cell's
    entry ``f(up.get(c, c))``, non-decreasing, so the level complex at
    ``a`` is the prefix ``entered[:bisect_right(entries, a)]`` (see
    ``collapse.level_subcomplex``).  ``critical`` holds the critical values
    ascending, duplicates retained.  ``levels`` keeps the level complexes
    built so far by entry-prefix size, and ``betti`` the Betti vectors of
    ``collapse._betti_table``.
    """

    __slots__ = ("cells", "values", "entered", "entries", "critical", "levels", "betti")

    def __init__(self, f: MorseFunction):
        cells = sorted(f.complex, key=f.values.__getitem__)  # canonical ties
        self.values = values = list(map(f.values.__getitem__, cells))
        self.entered, self.entries, self.critical = entered, entries, critical = [], [], []
        up, down = f.field.up, f.field.down
        for c, v in zip(cells, values):
            if c in down:
                entered += down[c], c
                entries += v, v
            elif c not in up:
                entered.append(c)
                entries.append(v)
                critical.append(v)
        if len(set(values)) < len(values):  # each tied lower moves to just after its upper
            tied = {c: (c, low) for c, low in down.items() if f.values[low] == f.values[c]}
            cells = [x for c in cells if up.get(c) not in tied for x in tied.get(c, (c,))]
        self.cells = cells
        self.levels, self.betti = {}, None  # memos of the collapse module


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
        return tuple(dict.fromkeys(self._view.values))

    _view = cached_property(_View)


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
    simplices.  The same pass over the incidences collects the exceptional
    pairs, whose gradient field the returned function carries.  Exclusivity and
    acyclicity hold for every valid function and are rechecked as tripwires.
    A cell named twice, say as ``(0, 1)`` and ``(1, 0)``, raises
    ``PreconditionViolated``.  The returned values are keyed by the
    complex's own cells.
    """
    norm: dict[Simplex, float] = {}
    cells = complex.simplices
    for cell, val in values.items():
        if not isinstance(cell, Simplex):
            cell = Simplex(cell)
        if cell not in cells:
            raise SimplexNotInComplex(f"value given for {cell!r}, which is not in the complex")
        if cell in norm:
            raise PreconditionViolated(f"value given twice for {cell!r}")
        val = float(val)
        if not math.isfinite(val):
            raise PreconditionViolated(f"value {val!r} for {cell!r} is not finite")
        norm[cell] = val
    return _validated(complex, norm)


def _validated(complex: SimplicialComplex, norm: dict[Simplex, float]) -> MorseFunction:
    """``validate`` after its first loop: ``norm`` maps cells to finite floats."""
    try:  # keyed by the complex's own cells, and the first without a value named
        norm = {cell: norm[cell] for cell in complex}
    except KeyError as exc:
        raise MissingValue(f"no value for {exc.args[0]!r}") from None
    # Each codimension-1 incidence is compared once.  It is exceptional when
    # the face's value is at least the coface's: then the coface is in the
    # face's upper set and the face is in the coface's lower set.
    lowers: list[Simplex] = []
    uppers: list[Simplex] = []
    faces = complex._faces
    for upper in complex:
        val = norm[upper]
        for lower in faces[upper]:
            if norm[lower] >= val:
                lowers.append(lower)
                uppers.append(upper)
    up = dict(zip(lowers, uppers))
    down = dict(zip(uppers, lowers))
    if len(up) < len(lowers) or len(down) < len(uppers):
        # Some cell is at two exceptional incidences from the same end.
        n_up, n_low = Counter(lowers), Counter(uppers)
        raise MorseConditionViolated(
            [(c, n_up[c], n_low[c]) for c in complex if n_up[c] > 1 or n_low[c] > 1]
        )
    # Only after the violations: an invalid function may break exclusivity too.
    clashes = up.keys() & down.keys()
    if clashes:
        first = next(c for c in complex if c in clashes)
        raise AcyclicityBug(f"exclusivity failed at {first!r}; this is a library bug")
    field = GradientField._from_matching(complex, up, down)
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

    The matching is stored once, as ``up`` (lower to upper) and ``down``
    (upper to lower); ``pairs`` builds the set of pairs from ``up`` on each
    read, and two fields are equal when their complexes and ``up`` maps are.
    Cells in no pair are the critical ones.  The constructor checks the
    matching structure but not acyclicity, so arbitrary matchings can be
    built for oracle tests; ``validate`` adds the acyclicity tripwire.  It
    stores the complex's own cells, however the caller names them.
    """

    __slots__ = ("complex", "critical", "up", "down")

    def __init__(self, complex: SimplicialComplex, pairs: Iterable[tuple]):
        up: dict[Simplex, Simplex] = {}
        down: dict[Simplex, Simplex] = {}
        norm = []
        for lower, upper in pairs:
            lower, upper = as_simplex(lower), as_simplex(upper)
            if lower not in complex or upper not in complex:
                raise SimplexNotInComplex(f"pair ({lower!r}, {upper!r}) leaves the complex")
            if upper.dim != lower.dim + 1 or not set(lower) < set(upper):
                raise ValueError(f"{lower!r} is not a codimension-1 face of {upper!r}")
            norm.append((complex._own(lower), complex._own(upper)))
        for lower, upper in norm:
            if lower in up or lower in down or upper in up or upper in down:
                raise ValueError("a simplex appears in more than one pair")
            up[lower] = upper
            down[upper] = lower
        self._fill(complex, up, down)

    @classmethod
    def _from_matching(
        cls, complex: SimplicialComplex, up: dict[Simplex, Simplex], down: dict[Simplex, Simplex]
    ) -> "GradientField":
        """The field of a matching of codimension-1 pairs of cells of the
        complex, given as ``lower -> upper`` and ``upper -> lower``; unchecked."""
        field = object.__new__(cls)
        field._fill(complex, up, down)
        return field

    def _fill(self, complex, up, down) -> None:
        self.complex = complex
        self.up = up
        self.down = down
        self.critical = frozenset([c for c in complex if c not in up and c not in down])

    @property
    def pairs(self) -> frozenset[tuple[Simplex, Simplex]]:
        """The matching as ``(lower, upper)`` pairs, built from ``up`` on each read."""
        return frozenset(self.up.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradientField)
            and self.complex == other.complex
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.complex, self.pairs))

    def __repr__(self) -> str:
        return f"GradientField({len(self.up)} pairs, {len(self.critical)} critical)"


def has_closed_path(field: GradientField) -> bool:
    """Cycle search on the matching-modified incidence digraph.

    Only a matched lower cell has successors there (the other faces of its
    upper cell), so a cycle runs through lowers alone.  Kahn's algorithm on
    the lowers: a closed path exists exactly when some lower is never freed.
    """
    up = field.up
    faces = field.complex._faces
    indeg = dict.fromkeys(up, 0)
    for lower, upper in up.items():
        for t in faces[upper]:
            if t in indeg and t != lower:
                indeg[t] += 1
    free = [c for c, n in indeg.items() if not n]
    for lower in free:  # grows as lowers are freed
        for t in faces[up[lower]]:
            if t in indeg and t != lower:
                indeg[t] -= 1
                if not indeg[t]:
                    free.append(t)
    return len(free) < len(indeg)


def gradient_field(f: MorseFunction) -> GradientField:
    """The matching of exceptional pairs of a validated function."""
    return f.field


def _own_field(f: MorseFunction, field: GradientField | None) -> GradientField:
    """``f``'s field when ``field`` is ``None``; else ``field``, which must be
    ``f``'s field or equal to it, or ``ComplexMismatch`` is raised."""
    if field is None:
        return f.field
    if field is not f.field and field != f.field:
        raise ComplexMismatch("the field is not the gradient field of the function")
    return field


def _linear_extension(incidence, up: list[int], key: list) -> list[int]:
    """Topological order of the matching-modified face order, as positions,
    smallest ``(key[i], i)`` first.

    ``up[i]`` is the position of cell ``i``'s matched upper, or -1.  Non-pair
    face relations keep the face before the coface; matched pairs are
    reversed.  The order is acyclic exactly when the matching is.  A cell
    waits for its faces except its matched lower, and for its matched upper;
    once placed it frees its cofaces except its matched upper, and its
    matched lower.
    """
    faces, cofaces = incidence.faces, incidence.cofaces
    indeg = [len(ids) for ids in faces]
    down = [-1] * len(faces)
    for lower, upper in enumerate(up):
        if upper >= 0:
            indeg[lower] += 1
            indeg[upper] -= 1
            down[upper] = lower
    heap = [(key[i], i) for i, n in enumerate(indeg) if not n]
    heapify(heap)
    order: list[int] = []
    while heap:
        i = heappop(heap)[1]
        order.append(i)
        mate, low = up[i], down[i]
        for j in cofaces[i] if low < 0 else (low, *cofaces[i]):
            if j != mate:
                n = indeg[j] - 1
                indeg[j] = n
                if not n:
                    heappush(heap, (key[j], j))
    if len(order) != len(faces):
        raise AcyclicityBug("the matching-modified face order has a cycle")
    return order


def make_injective(f: MorseFunction) -> MorseFunction:
    """An injective function equivalent to ``f`` with the same gradient field.

    Cells are ranked 0, 1, 2, ... along ``f``'s strict order (``_View``):
    by value, ties in canonical order, each matched lower tied with its
    upper just after it.  That is the linear extension of the
    matching-modified face order keyed by ``(f(c), simplex_key(c))``, so
    the ranking stays as close to ``f`` as any linear extension allows; it
    reads no integer view of the complex.
    """
    return _validated(f.complex, {c: float(r) for r, c in enumerate(f._view.cells)})


def _would_cycle(faces: list[tuple[int, ...]], up: list[int], lower: int, upper: int) -> bool:
    """Would adding the pair of positions close a gradient cycle?  New cycles
    must pass it."""
    stack = [c for c in faces[upper] if c != lower]
    seen: set[int] = set()
    while stack:
        x = stack.pop()
        if x == lower:
            return True
        if x not in seen:
            seen.add(x)
            if up[x] >= 0:
                stack.extend(faces[up[x]])  # ``x`` is among them, and already seen
    return False


def random_morse(complex: SimplicialComplex, seed: int) -> MorseFunction:
    """Deterministic random injective Morse function on a complex.

    Grows a random acyclic matching by shuffling the codimension-1 incidences
    and rejecting any pair that would close a gradient cycle, then assigns
    0, 1, 2, ... along a linear extension keyed by a random priority per
    cell, ties by position.  It works on the complex's integer view,
    which the first call builds.  The output always passes ``validate``.
    """
    rng = random.Random(seed)
    faces = complex._incidence.faces
    incidences = [(lower, upper) for upper, ids in enumerate(faces) for lower in ids]
    rng.shuffle(incidences)
    skip = rng.random() * 0.6
    up = [-1] * len(faces)
    matched = bytearray(len(faces))
    for lower, upper in incidences:
        if matched[lower] or matched[upper] or rng.random() < skip:
            continue
        if not _would_cycle(faces, up, lower, upper):
            up[lower] = upper
            matched[lower] = matched[upper] = 1
    priority = [rng.random() for _ in faces]
    order, cells = _linear_extension(complex._incidence, up, priority), complex._order
    return _validated(complex, {cells[i]: float(r) for r, i in enumerate(order)})
