"""Level subcomplexes, elementary collapses, collapse search, and basins.

The verifiers here return replayable ``CollapseSequence`` witnesses rather
than bare booleans: a witness re-checks the free-face condition step by step
when replayed, so a passing verification is a machine-checked certificate.
The three gradient verifiers, the window verifier and ``basin`` here and
the flow verifier in ``flow``, build theirs in one place
(``_replayed_collapse``): the function's matched pairs between two
complexes, in decreasing value order, replayed once before the sequence is
returned.  Every search witness, ``collapses_to``'s and ``dgcat``'s, comes
from the search index's one depth-first search.

Replay is one pass that checks every step against the live cells, then
compares what is left with the recorded end once: a cell is free when
exactly one of its cofaces is live, so no coface counts are kept.  It reads
the face and coface maps the complex shares with its root, not the
complex's search index (``CellIndex``), so search witnesses are checked by
separate code.

A level subcomplex is the sublevel set plus the matched lower faces of its
cells (Forman's level-subcomplex structure), which holds for a function
from ``validate``.  Every level is a prefix of the function's entry order,
and every sublevel set a prefix of its value order, both sorted once per
function (``MorseFunction._view``), so a level is found by bisection with no
pass over the values.  Every verifier gets its levels from there, through
``_level``, which lists no sublevel set, and the function keeps each level
complex it builds, at most one per distinct value plus the empty one.
``verify_dmt_a`` finds the critical values in its window by bisecting the
function's sorted critical values.
``verify_dmt_b`` builds no level complex: it reads the function's Betti
table, the Betti vectors of every level from one reduction of the entry
order (``complexes._negative_cells``), which the function keeps beside its
level complexes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .complexes import (
    DEFAULT_ENUM_BOUND,
    Simplex,
    SimplicialComplex,
    _negative_cells,
    as_simplex,
    is_subcomplex,
    search_index,
    simplex_key,
)
from .errors import (
    ComplexMismatch,
    CriticalValueInWindow,
    NotACriticalVertex,
    NotFreeFace,
    PreconditionViolated,
    ProofFailure,
    SignatureMismatch,
    SimplexNotInComplex,
)
from .morse import GradientField, MorseFunction, _own_field, critical_cells


@dataclass(frozen=True)
class FiltrationLevel:
    """Sublevel set and its closure at one threshold."""

    threshold: float
    sublevel: frozenset[Simplex]
    complex: SimplicialComplex


def level_subcomplex(f: MorseFunction, threshold: float) -> FiltrationLevel:
    """Cells valued at most the threshold, together with their face closure.

    ``f`` must come from ``validate``.  Then the closure adds only the
    matched lower faces ``down[s]`` of sublevel cells ``s``: a face ``r`` of
    ``s`` with ``f(s) <= a < f(r)`` is ``down[s]`` if it has codimension 1,
    and otherwise lies in two codimension-1 faces of ``s``, at most one of
    them valued at least ``f(s)``, so the other is a sublevel cell that
    has ``r`` as a face of lower codimension.  So a cell enters the level
    complexes at ``f(up.get(c, c))``, and the level complex is a prefix of
    ``f``'s entry order and the sublevel set a prefix of its value order,
    each found by bisection.  ``f`` keeps each level complex it builds under
    its prefix size, at most one per distinct value plus the empty one, and
    thresholds in one value gap share one complex.
    A NaN threshold names no level and raises ``PreconditionViolated``;
    ``-inf`` names the empty level and ``inf`` the whole complex.
    """
    sublevel = f._view.cells[: bisect_right(f._view.values, threshold)]
    return FiltrationLevel(float(threshold), frozenset(sublevel), _level(f, threshold))


def _level(f: MorseFunction, threshold: float) -> SimplicialComplex:
    """``level_subcomplex(f, threshold).complex``, without listing the
    sublevel set, which the verifiers never read."""
    if math.isnan(threshold):
        raise PreconditionViolated("the threshold is NaN, which names no level")
    size = bisect_right(f._view.entries, threshold)
    if (level := f._view.levels.get(size)) is None:
        level = f._view.levels[size] = f.complex._sub(set(f._view.entered[:size]))
    return level


def _collapse_pairs(start: SimplicialComplex, pairs: Iterable[tuple]) -> set[Simplex]:
    """Remove the pairs from ``start`` in order, checking each step; the cells left.

    Every step must be an elementary collapse of the cells still live, with
    the errors and messages of ``elementary_collapse``.  Once both cells are
    live, the free cell is a codimension-1 face of the coface exactly when it
    is among the coface's faces, and free when it is its one live coface.
    """
    faces, cofaces = start._faces, start._cofaces
    live = set(start._cells)
    for free, coface in pairs:
        free, coface = as_simplex(free), as_simplex(coface)
        if free not in live or coface not in live:
            raise SimplexNotInComplex(
                f"({free!r}, {coface!r}) is not a pair of cells of the complex"
            )
        if free not in faces[coface]:
            raise NotFreeFace(
                free, coface, f"{coface!r} is not a codimension-1 coface of {free!r}"
            )
        if len(cofs := [c for c in cofaces[free] if c in live]) != 1:
            cofs = [tuple(c) for c in cofs]  # shown as plain tuples, not Simplex reprs
            raise NotFreeFace(free, coface, f"{free!r} has cofaces {cofs}, so it is not free")
        live.remove(free)
        live.remove(coface)
    return live


def elementary_collapse(complex: SimplicialComplex, free, coface) -> SimplicialComplex:
    """Remove a free face and its unique coface; raises ``NotFreeFace`` otherwise."""
    return complex._sub(_collapse_pairs(complex, [(free, coface)]))


@dataclass(frozen=True)
class CollapseSequence:
    """An ordered list of removed pairs, replayable as a certificate."""

    start: SimplicialComplex
    end: SimplicialComplex
    pairs: tuple[tuple[Simplex, Simplex], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def replay(self) -> SimplicialComplex:
        """Re-run every step, checking the free-face condition each time."""
        if _collapse_pairs(self.start, self.pairs) != self.end.simplices:
            raise ProofFailure("collapse replay did not reach the recorded end complex")
        return self.end


def collapses_to(
    complex: SimplicialComplex,
    target: SimplicialComplex,
    f: MorseFunction | None = None,
    max_enum: int = DEFAULT_ENUM_BOUND,
) -> CollapseSequence | None:
    """Exact collapse search with backtracking; ``None`` when impossible.

    Free pairs are tried in descending value order when a function is given
    (usually finding the witness without backtracking) and canonical order
    otherwise; decided states are memoised, so the decision is exact either way.
    """
    index = search_index(complex, max_enum)
    if not is_subcomplex(target, complex):
        raise ComplexMismatch("the target is not a subcomplex of the start complex")
    if (len(complex) - len(target)) % 2:
        return None
    goal = index.mask_of(target.simplices)
    cells = index.cells
    key = None if f is None else (lambda p: (-f(cells[p[0]]), -f(cells[p[1]]), p[0]))
    pairs = index.collapse_search(index.full, goal, key)
    if pairs is None:
        return None
    return CollapseSequence(complex, target, index.pairs_of(pairs))


def _replayed_collapse(
    f: MorseFunction, top: SimplicialComplex, end: SimplicialComplex
) -> CollapseSequence:
    """Collapse ``top`` onto ``end`` along ``f``'s matched pairs, replayed.

    The cells of ``top`` outside ``end`` must split into pairs of ``f``'s
    field, else ``ProofFailure``.  They are removed in decreasing value
    order, highest lower cell first (a matched lower is valued at least its
    upper), and the sequence is replayed before it is returned; a step that
    is not free when its turn comes raises ``ProofFailure``.
    """
    removable = top.simplices - end.simplices
    up, values = f.field.up, f.values
    pairs = [(c, up[c]) for c in removable if c in up]
    if {c for pair in pairs for c in pair} != removable:
        raise ProofFailure("the cells to remove do not split into matched pairs")
    pairs.sort(key=lambda p: (-values[p[0]], -values[p[1]], simplex_key(p[0])))
    sequence = CollapseSequence(top, end, tuple(pairs))
    try:
        sequence.replay()
    except NotFreeFace as exc:
        raise ProofFailure(
            f"pair ({exc.free!r}, {exc.coface!r}) was not free when its turn came"
        ) from exc
    return sequence


def verify_dmt_a(
    f: MorseFunction,
    a: float,
    b: float,
    field: GradientField | None = None,
) -> CollapseSequence:
    """Certified collapse of the level subcomplex at ``b`` onto the one at ``a``.

    Requires a critical-value-free window ``(a, b]``; the cells in between
    then split into matched pairs, removed in decreasing value order, and
    the sequence is replayed before it is returned.  A given ``field`` must
    be ``f``'s, else ``ComplexMismatch``.
    """
    if not a < b:
        raise PreconditionViolated(f"need a < b, got a={a}, b={b}")
    crit = f._view.critical
    if inside := crit[bisect_right(crit, a) : bisect_right(crit, b)]:
        raise CriticalValueInWindow(f"critical values {inside} lie in ({a}, {b}]")
    _own_field(f, field)
    return _replayed_collapse(f, _level(f, b), _level(f, a))


@dataclass(frozen=True)
class BettiDelta:
    """Mod-2 Betti vectors across one critical value, and the single change."""

    before: tuple[int, ...]
    after: tuple[int, ...]
    degree: int
    delta: int


def _betti_table(f: MorseFunction) -> list[tuple[int, ...]]:
    """``f``'s level filtration as a Betti table, built by one
    ``_negative_cells`` reduction on first use and kept by ``f``.

    The reduction runs over ``f``'s entry order, whose prefixes ending at an
    entry value are the level complexes.  The table holds the Betti vector
    after each prefix of that order, the empty one first, cut to the
    prefix's top dimension; at a level complex, the prefix ``entered[:i]``
    with ``i = bisect_right(entries, a)``, it is as long as
    ``betti_numbers_mod2`` gives it.  Only those prefixes are read.
    """
    if f._view.betti is None:
        layers = [[c for c in f._view.entered if len(c) == p] for p in range(1, f.complex.dim + 2)]
        negative = _negative_cells(layers, f.complex._faces)
        betti, top, vectors = [0] * len(layers), 0, [()]
        for c in f._view.entered:
            if c in negative:
                betti[len(c) - 2] -= 1
            else:
                betti[len(c) - 1] += 1
            top = max(top, len(c))
            vectors.append(tuple(betti[:top]))
        f._view.betti = vectors
    return f._view.betti


def verify_dmt_b(f: MorseFunction, cell, a: float, b: float) -> BettiDelta:
    """Check the cell-attachment signature across one critical value.

    Exactly one Betti number may move: +1 in the cell's dimension or -1 one
    dimension below.  Anything else raises ``SignatureMismatch``.  The
    vectors before and after, and the critical values in the window, are
    read off ``f``'s Betti table by bisection; no level complex is built.
    """
    cell = as_simplex(cell)
    crit = critical_cells(f)
    if cell not in crit:
        raise PreconditionViolated(f"{cell!r} is not a critical cell")
    if not (a < f(cell) <= b):
        raise PreconditionViolated(f"value {f(cell)} of {cell!r} is outside ({a}, {b}]")
    view, vectors = f._view, _betti_table(f)
    if bisect_right(view.critical, b) - bisect_right(view.critical, a) > 1:
        others = [c for c in crit if c != cell and a < f(c) <= b]
        raise PreconditionViolated(f"other critical cells {sorted(map(tuple, others))} in window")
    before, after = (vectors[bisect_right(view.entries, t)] for t in (a, b))
    width = max(len(before), len(after), cell.dim + 1)
    before, after = (v + (0,) * (width - len(v)) for v in (before, after))
    diffs = [(i, after[i] - before[i]) for i in range(width) if after[i] != before[i]]
    p = cell.dim
    if diffs == [(p, 1)] or (p >= 1 and diffs == [(p - 1, -1)]):
        degree, delta = diffs[0]
        return BettiDelta(before, after, degree, delta)
    raise SignatureMismatch(f"betti change {diffs} does not match attaching a {p}-cell")


@dataclass(frozen=True)
class Basin:
    """A minimum, the cells draining to it, and a collapse witness."""

    minimum: Simplex
    cells: SimplicialComplex
    witness: CollapseSequence


def basin(field: GradientField, f: MorseFunction, vertex) -> Basin:
    """Gradient basin of a critical vertex.

    Vertices whose (unique) gradient path ends at the minimum, together with
    the pairing edges along those paths.  The result is a tree, collapsed to
    the minimum by ``_replayed_collapse``, the window verifier's builder: its
    matched pairs in decreasing value order, replayed before they are
    returned.  That order is always a collapse of the tree: a child ``u`` of
    ``x`` along edge ``e`` is matched to ``e`` and ``x`` is not, so
    ``f(u) >= f(e) > f(x)``, and each vertex is removed after every vertex
    above it, when its edge toward the minimum is its one live coface.
    ``field`` must be ``f``'s, else ``ComplexMismatch``.  The minimum is the
    complex's own cell, however the caller names the vertex.

    The tree is walked uphill from the minimum: a coface edge of a member
    matched to its other end makes that end a member.  The walk reads each
    member's cofaces once, and the replay reads them again for every member
    but the minimum.  The tree is a subcomplex of the field's complex that
    sorts its own cells, so a basin costs its vertices and their cofaces,
    not a pass over the complex.
    """
    _own_field(f, field)
    v = as_simplex(vertex)
    if v not in field.complex or v.dim != 0 or v not in field.critical:
        raise NotACriticalVertex(f"{v!r} is not a critical vertex")
    v = field.complex._own(v)
    cofaces, down = field.complex._cofaces, field.down
    members, edges = [v], []
    for x in members:  # grows as the walk finds members, each once
        for edge in cofaces[x]:
            u = down.get(edge)
            if u is not None and u != x:
                members.append(u)
                edges.append(edge)
    # Canonical order without a pass over the complex: vertices, then edges.
    tree = field.complex._derived(tuple(sorted(members) + sorted(edges)))
    return Basin(v, tree, _replayed_collapse(f, tree, tree._derived((v,))))


def maximal_collapsible_to(
    complex: SimplicialComplex, vertex, max_enum: int = DEFAULT_ENUM_BOUND
) -> list[SimplicialComplex]:
    """Inclusion-maximal subcomplexes collapsing to the vertex, largest first.

    A subcomplex collapses onto a vertex exactly when it holds the vertex
    and is collapsible (the lemma in ``CellIndex``), and a collapsible
    superset of one holds the vertex too; so these are the inclusion-maximal
    collapsible subcomplexes that hold the vertex.  Read off the index's one
    walk over the collapsible subcomplexes, not the gradient: the oracle for
    comparing against ``basin``.
    """
    v = as_simplex(vertex)
    if v not in complex or v.dim != 0:
        raise NotACriticalVertex(f"{v!r} is not a vertex of the complex")
    index = search_index(complex, max_enum)
    bit = 1 << index.position[v]
    return [complex._sub(set(index.cells_of(m))) for m in index.maximal_collapsible() if m & bit]


@dataclass(frozen=True)
class BasinReport:
    """Gradient basin versus the brute-force maximal collapsing subcomplexes."""

    basin: Basin
    containers: tuple[SimplicialComplex, ...]
    contained: bool
    strictly_larger: bool


def basin_maximality_report(
    field: GradientField,
    f: MorseFunction,
    vertex,
    max_enum: int = DEFAULT_ENUM_BOUND,
) -> BasinReport:
    """Report (never fail) how the gradient basin compares to the oracle."""
    bas = basin(field, f, vertex)
    candidates = maximal_collapsible_to(field.complex, vertex, max_enum)
    containers = tuple(
        c for c in candidates if bas.cells.simplices <= c.simplices
    )
    strictly = any(c.simplices != bas.cells.simplices for c in containers)
    return BasinReport(bas, containers, bool(containers), strictly)
