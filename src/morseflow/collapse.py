"""Level subcomplexes, elementary collapses, collapse search, and basins.

The verifiers here return replayable ``CollapseSequence`` witnesses rather
than bare booleans: a witness re-checks the free-face condition step by step
when replayed, so a passing verification is a machine-checked certificate.

Replay is one pass that checks every step against the live cells and their
live-coface counts, then compares what is left with the recorded end once.
It reads the complex's own incidence, not the searches' ``CellIndex``, so
search witnesses are checked by separate code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import (
    DEFAULT_ENUM_BOUND,
    CellIndex,
    Simplex,
    SimplicialComplex,
    as_simplex,
    betti_numbers_mod2,
    check_enumerable,
    is_subcomplex,
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
from .morse import GradientField, MorseFunction, critical_cells, critical_values, gradient_field


@dataclass(frozen=True)
class FiltrationLevel:
    """Sublevel set and its closure at one threshold."""

    threshold: float
    sublevel: frozenset[Simplex]
    complex: SimplicialComplex


def level_subcomplex(f: MorseFunction, threshold: float) -> FiltrationLevel:
    """Cells valued at most the threshold, together with their face closure."""
    sub = frozenset(c for c in f.complex if f(c) <= threshold)
    return FiltrationLevel(float(threshold), sub, f.complex.closure_of(sub))


def _collapse_pairs(start: SimplicialComplex, pairs: Iterable[tuple]) -> set[Simplex]:
    """Remove the pairs from ``start`` in order, checking each step; the cells left.

    Every step must be an elementary collapse of the cells still live, with
    the errors and messages of ``elementary_collapse``.
    """
    live = set(start.simplices)
    live_cofaces: dict[Simplex, int] = {}
    for free, coface in pairs:
        free = as_simplex(free)
        coface = as_simplex(coface)
        if free not in live or coface not in live:
            raise SimplexNotInComplex(
                f"({free!r}, {coface!r}) is not a pair of cells of the complex"
            )
        if coface.dim != free.dim + 1 or not set(free) < set(coface):
            raise NotFreeFace(
                free, coface, f"{coface!r} is not a codimension-1 coface of {free!r}"
            )
        if live_cofaces.get(free, len(start.cofaces_of(free))) != 1:
            cofs = [tuple(c) for c in start.cofaces_of(free) if c in live]
            raise NotFreeFace(free, coface, f"{free!r} has cofaces {cofs}, so it is not free")
        for cell in (free, coface):
            live.remove(cell)
            for t in start.faces_of(cell):
                live_cofaces[t] = live_cofaces.get(t, len(start.cofaces_of(t))) - 1
    return live


def elementary_collapse(complex: SimplicialComplex, free, coface) -> SimplicialComplex:
    """Remove a free face and its unique coface; raises ``NotFreeFace`` otherwise."""
    return SimplicialComplex(_collapse_pairs(complex, [(free, coface)]))


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
    check_enumerable(complex, max_enum)
    if not is_subcomplex(target, complex):
        raise ComplexMismatch("the target is not a subcomplex of the start complex")
    if (len(complex) - len(target)) % 2:
        return None
    index = CellIndex(complex)
    goal = index.mask_of(target.simplices)
    cells = index.cells
    key = None if f is None else (lambda p: (-f(cells[p[0]]), -f(cells[p[1]]), p[0]))
    pairs = index.collapse_search(index.full, lambda mask: mask == goal, {}, goal, key)
    if pairs is None:
        return None
    return CollapseSequence(complex, target, index.pairs_of(pairs))


def pair_off_removable(field: GradientField, cells: Iterable[Simplex]) -> list:
    """Split a removable cell set into its matched pairs.

    Raises ``ProofFailure`` if some cell is unmatched or matched outside the
    set; valid inputs to the collapse verifiers never trigger this.
    """
    cells = frozenset(cells)
    pairs = []
    seen: set[Simplex] = set()
    for cell in sorted(cells, key=simplex_key):
        if cell in seen:
            continue
        partner = field.pair_of(cell)
        if partner is None:
            raise ProofFailure(f"{cell!r} is unmatched but should collapse away")
        if partner not in cells:
            raise ProofFailure(f"partner {partner!r} of {cell!r} is outside the removable set")
        lower, upper = (cell, partner) if cell.dim < partner.dim else (partner, cell)
        seen.add(lower)
        seen.add(upper)
        pairs.append((lower, upper))
    return pairs


def collapse_in_descending_order(
    start: SimplicialComplex,
    end: SimplicialComplex,
    pairs: Iterable[tuple[Simplex, Simplex]],
    f: MorseFunction,
) -> CollapseSequence:
    """Remove the pairs in decreasing value order, certifying each step."""
    ordered = sorted(
        pairs,
        key=lambda p: (-max(f(p[0]), f(p[1])), -min(f(p[0]), f(p[1])), simplex_key(p[0])),
    )
    try:
        remaining = _collapse_pairs(start, ordered)
    except NotFreeFace as exc:
        raise ProofFailure(
            f"pair ({exc.free!r}, {exc.coface!r}) was not free when its turn came"
        ) from exc
    if remaining != end.simplices:
        raise ProofFailure("descending pair removal did not reach the target complex")
    return CollapseSequence(start, end, tuple(ordered))


def verify_dmt_a(
    f: MorseFunction, a: float, b: float, field: GradientField | None = None
) -> CollapseSequence:
    """Certified collapse of the level subcomplex at ``b`` onto the one at ``a``.

    Requires a critical-value-free window ``(a, b]``; the cells in between
    then split into matched pairs, removed in decreasing value order.
    """
    if not a < b:
        raise PreconditionViolated(f"need a < b, got a={a}, b={b}")
    inside = [v for v in critical_values(f) if a < v <= b]
    if inside:
        raise CriticalValueInWindow(f"critical values {inside} lie in ({a}, {b}]")
    if field is None:
        field = gradient_field(f)
    top = level_subcomplex(f, b).complex
    bottom = level_subcomplex(f, a).complex
    pairs = pair_off_removable(field, top.simplices - bottom.simplices)
    return collapse_in_descending_order(top, bottom, pairs, f)


@dataclass(frozen=True)
class BettiDelta:
    """Mod-2 Betti vectors across one critical value, and the single change."""

    before: tuple[int, ...]
    after: tuple[int, ...]
    degree: int
    delta: int


def verify_dmt_b(f: MorseFunction, cell, a: float, b: float) -> BettiDelta:
    """Check the cell-attachment signature across one critical value.

    Exactly one Betti number may move: +1 in the cell's dimension or -1 one
    dimension below.  Anything else raises ``SignatureMismatch``.
    """
    cell = as_simplex(cell)
    crit = critical_cells(f)
    if cell not in crit:
        raise PreconditionViolated(f"{cell!r} is not a critical cell")
    if not (a < f(cell) <= b):
        raise PreconditionViolated(f"value {f(cell)} of {cell!r} is outside ({a}, {b}]")
    others = [c for c in crit if c != cell and a < f(c) <= b]
    if others:
        raise PreconditionViolated(f"other critical cells {sorted(map(tuple, others))} in window")
    before = betti_numbers_mod2(level_subcomplex(f, a).complex)
    after = betti_numbers_mod2(level_subcomplex(f, b).complex)
    width = max(len(before), len(after), cell.dim + 1)
    before = tuple(before) + (0,) * (width - len(before))
    after = tuple(after) + (0,) * (width - len(after))
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
    the minimum deepest-vertex-first; the witness is stored after replay.
    """
    v = as_simplex(vertex)
    if v not in field.complex or v.dim != 0 or v not in field.critical:
        raise NotACriticalVertex(f"{v!r} is not a critical vertex")
    complex = field.complex
    term: dict[Simplex, Simplex] = {}
    depth: dict[Simplex, int] = {}

    def settle(u: Simplex) -> Simplex:
        walk: list[Simplex] = []
        x = u
        while x not in term and x in field.up:
            walk.append(x)
            edge = field.up[x]
            x = Simplex((edge[0] if edge[1] == x[0] else edge[1],))
        if x not in term:
            term[x] = x
            depth[x] = 0
        end = term[x]
        d = depth[x]
        for y in reversed(walk):
            d += 1
            term[y] = end
            depth[y] = d
        return end

    members = [u for u in complex.cells_of_dim(0) if settle(u) == v]
    pairs = sorted(
        ((u, field.up[u]) for u in members if u != v),
        key=lambda p: (-depth[p[0]], simplex_key(p[0])),
    )
    cells = set(members) | {edge for _, edge in pairs}
    sub = SimplicialComplex(cells)
    target = SimplicialComplex([v])
    witness = CollapseSequence(sub, target, tuple(pairs))
    witness.replay()
    return Basin(v, sub, witness)


def maximal_collapsible_to(
    complex: SimplicialComplex, vertex, max_enum: int = DEFAULT_ENUM_BOUND
) -> list[SimplicialComplex]:
    """Inclusion-maximal subcomplexes collapsing to the vertex, by brute force.

    Explores every anti-collapse expansion from the single vertex, then keeps
    the inclusion-maximal states.  Oracle for comparing against ``basin``.
    """
    v = as_simplex(vertex)
    if v not in complex or v.dim != 0:
        raise NotACriticalVertex(f"{v!r} is not a vertex of the complex")
    check_enumerable(complex, max_enum)
    n = len(complex)
    index = CellIndex(complex)
    face_mask, coface_lists = index.face_mask, index.coface_lists
    start = 1 << index.position[v]
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for i in range(n):
            if cur >> i & 1:
                continue
            if face_mask[i] & ~cur:
                continue
            if any(cur >> k & 1 for k in coface_lists[i]):
                continue
            for j in coface_lists[i]:
                if face_mask[j] & ~(cur | 1 << i):
                    continue
                nxt = cur | 1 << i | 1 << j
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return [SimplicialComplex(index.cells_of(m)) for m in index.maximal(seen)]


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
