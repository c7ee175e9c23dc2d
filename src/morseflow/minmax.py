"""Min-max data, the mountain-pass construction, and discrete category.

``minmax_value`` evaluates min-over-family of max-over-member and insists
the answer is a critical value; ``check_minmax_data`` verifies exhaustively
that a family really is min-max data (closure under every map, and a
sublevel-shrinking map across every regular value).  The mountain-pass and
category machineries build concrete instances of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Mapping

from .collapse import CollapseSequence, basin, level_subcomplex
from .complexes import (
    DEFAULT_ENUM_BOUND,
    CellIndex,
    Simplex,
    SimplicialComplex,
    as_simplex,
    check_enumerable,
    is_subcomplex,
    simplex_key,
)
from .errors import (
    ClosureViolated,
    ComplexMismatch,
    DeformationViolated,
    EmptyFamily,
    NoPathExists,
    NotLocalMinima,
    PreconditionViolated,
    ProofFailure,
    ReassemblyFailure,
    TheoremViolation,
)
from .flow import FlowOperator, flow_image, flow_image_closure
from .morse import (
    GradientField,
    MorseFunction,
    critical_cells,
    critical_values,
    gradient_field,
    make_injective,
)

SetMap = Callable[[frozenset], frozenset]


@dataclass
class MinMaxInstance:
    """A function, named set maps, and a family of non-empty cell sets."""

    function: MorseFunction
    maps: Mapping[str, SetMap]
    family: list[frozenset[Simplex]]
    witness: "MinMaxReport | None" = dataclass_field(default=None, compare=False)


@dataclass(frozen=True)
class MinMaxReport:
    """Record of the checks run by ``check_minmax_data``."""

    closure_checked: int
    epsilon: float
    deformation: dict[float, str]


def minmax_value(instance: MinMaxInstance) -> tuple[float, frozenset[Simplex]]:
    """Min over the family of the max value, with a deterministic witness.

    Ties break toward the smaller member (by size, then canonical cell
    order).  Raises ``TheoremViolation`` if the value is not critical.
    """
    if not instance.family:
        raise EmptyFamily("the family has no members")
    f = instance.function
    best = None
    for member in instance.family:
        if not member:
            raise EmptyFamily("family members must be non-empty")
        top = max(f(c) for c in member)
        key = (top, len(member), tuple(sorted(member, key=simplex_key)))
        if best is None or key < best[0]:
            best = (key, member)
    value = best[0][0]
    if value not in set(critical_values(f)):
        raise TheoremViolation(f"min-max value {value} is not a critical value")
    return value, best[1]


def check_minmax_data(instance: MinMaxInstance) -> MinMaxReport:
    """Exhaustively verify both min-max conditions.

    Closure: every map sends every family member to a family member.
    Deformation: across every regular value ``a`` in the image, some map
    sends the sublevel set just above ``a`` inside the one just below, with
    epsilon realised as half the minimum gap between distinct values.
    """
    f = instance.function
    if not f.is_injective():
        raise PreconditionViolated("min-max data checks need an injective function")
    members = set(instance.family)
    checked = 0
    for name in sorted(instance.maps):
        h = instance.maps[name]
        for member in instance.family:
            if frozenset(h(member)) not in members:
                raise ClosureViolated(name, member)
            checked += 1
    eps = f.min_value_gap() / 2.0
    crit = set(critical_values(f))
    witnesses: dict[float, str] = {}
    for a in f.sorted_distinct_values():
        if a in crit:
            continue
        above = frozenset(c for c in f.complex if f(c) <= a + eps)
        below = frozenset(c for c in f.complex if f(c) <= a - eps)
        for name in sorted(instance.maps):
            if frozenset(instance.maps[name](above)) <= below:
                witnesses[a] = name
                break
        else:
            raise DeformationViolated(a)
    report = MinMaxReport(checked, eps, witnesses)
    instance.witness = report
    return report


@dataclass(frozen=True)
class EdgePath:
    """A simple edge path from a high critical vertex into a minimum's basin."""

    start: Simplex
    edges: tuple[Simplex, ...]
    low: Simplex

    def vertex_sequence(self) -> tuple[Simplex, ...]:
        verts = [self.start]
        cur = self.start[0]
        for e in self.edges:
            if cur not in e:
                raise ValueError(f"edge {tuple(e)} does not continue the path at {cur}")
            cur = e[0] if e[1] == cur else e[1]
            verts.append(Simplex((cur,)))
        return tuple(verts)

    def cells(self) -> frozenset[Simplex]:
        return frozenset((self.start, *self.edges))


def _admissible(
    path: EdgePath,
    f: MorseFunction,
    field: GradientField,
    basin_vertices: frozenset[Simplex],
    monotone_tail: bool = True,
    avoid_critical: bool = True,
) -> bool:
    try:
        verts = path.vertex_sequence()
    except ValueError:
        return False
    if not path.edges:
        return False
    if len(set(verts)) != len(verts):
        return False
    if verts[-1] not in basin_vertices:
        return False
    if avoid_critical:
        for u in verts[1:]:
            if u.dim == 0 and u in field.critical and u != path.low:
                return False
    if monotone_tail:
        values = [f(e) for e in path.edges]
        for j in range(1, len(verts)):
            if verts[j] in basin_vertices:
                tail = values[j - 1 :]
                if any(x <= y for x, y in zip(tail, tail[1:])):
                    return False
    return True


def enumerate_paths(
    f: MorseFunction,
    field: GradientField,
    high,
    low,
    *,
    monotone_tail: bool = True,
) -> list[EdgePath]:
    """All admissible edge paths from ``high`` ending in the basin of ``low``.

    Paths are vertex-simple and avoid every critical vertex other than the
    two endpoints, and once a path touches the basin its remaining edge
    values must strictly decrease.
    """
    v1 = as_simplex(high)
    v0 = as_simplex(low)
    complex = f.complex
    crit = field.critical
    if (
        v1 not in complex
        or v0 not in complex
        or v1.dim != 0
        or v0.dim != 0
        or v1 == v0
        or v1 not in crit
        or v0 not in crit
        or not f(v0) < f(v1)
    ):
        raise NotLocalMinima(
            f"need two distinct critical vertices with f({tuple(v0)}) < f({tuple(v1)})"
        )
    basin_vertices = frozenset(basin(field, f, v0).cells.cells_of_dim(0))
    critical_vertices = {c for c in crit if c.dim == 0}
    found: list[EdgePath] = []

    def walk(cur: Simplex, visited: frozenset, acc: tuple) -> None:
        for edge in complex.cofaces_of(cur):
            nxt = Simplex((edge[0] if edge[1] == cur[0] else edge[1],))
            if nxt in visited:
                continue
            if nxt in critical_vertices and nxt not in (v0, v1):
                continue
            extended = acc + (edge,)
            if nxt in basin_vertices:
                found.append(EdgePath(v1, extended, v0))
            walk(nxt, visited | {nxt}, extended)

    walk(v1, frozenset({v1}), ())
    result = [p for p in found if _admissible(p, f, field, basin_vertices, monotone_tail)]
    if not result:
        raise NoPathExists(
            f"no admissible edge path from {tuple(v1)} to the basin of {tuple(v0)}"
        )
    result.sort(key=lambda p: (len(p.edges), tuple(tuple(e) for e in p.edges)))
    return result


def flow_path(operator: FlowOperator, path: EdgePath) -> EdgePath:
    """Push a path through the flow's support map and reassemble it.

    The image must consist of the start vertex plus edges forming a single
    path that ends in the basin with a monotone tail; anything else raises
    ``ReassemblyFailure``.  Flowed paths may legitimately pass through other
    critical vertices (a diversion around a 2-simplex can land on one), so
    that constraint is not re-imposed here.
    """
    image = flow_image(operator, path.cells())
    verts = sorted((c for c in image if c.dim == 0), key=simplex_key)
    edges = {c for c in image if c.dim == 1}
    if len(verts) + len(edges) != len(image):
        raise ReassemblyFailure("flow image contains cells above dimension 1")
    if verts != [path.start]:
        raise ReassemblyFailure(f"flow image vertices {verts} are not just the start vertex")
    if not edges:
        raise ReassemblyFailure("flow image lost every edge of the path")
    seq: list[Simplex] = []
    cur = path.start[0]
    remaining = set(edges)
    while remaining:
        nxt = [e for e in remaining if cur in e]
        if len(nxt) != 1:
            raise ReassemblyFailure(f"image does not reassemble into one path at vertex {cur}")
        edge = nxt[0]
        seq.append(edge)
        remaining.remove(edge)
        cur = edge[0] if edge[1] == cur else edge[1]
    new_path = EdgePath(path.start, tuple(seq), path.low)
    f = operator.function
    basin_vertices = frozenset(
        basin(operator.field, f, path.low).cells.cells_of_dim(0)
    )
    if not _admissible(new_path, f, operator.field, basin_vertices, avoid_critical=False):
        raise ReassemblyFailure("flowed path violates the path invariants")
    return new_path


@dataclass(frozen=True)
class MountainPassResult:
    value: float
    edge: Simplex
    witness: EdgePath
    paths: tuple[EdgePath, ...]
    instance: MinMaxInstance


def _orbit_closure(
    operator: FlowOperator, seeds: Iterable[frozenset[Simplex]]
) -> list[frozenset[Simplex]]:
    """The seeds together with all their forward images under the flow map.

    The image map is deterministic, so each walk stops as soon as it meets a
    set already in the family; the result is closed under the flow map by
    construction.
    """
    family: set[frozenset[Simplex]] = set()
    image: dict[frozenset[Simplex], frozenset[Simplex]] = {}
    for seed in seeds:
        current = seed
        while current not in family:
            family.add(current)
            if current not in image:
                image[current] = flow_image(operator, current)
            current = image[current]
    return sorted(family, key=lambda m: (len(m), sorted(m, key=simplex_key)))


def mountain_pass(f: MorseFunction, high, low) -> MountainPassResult:
    """Lowest ridge crossing between two critical vertices.

    The min-max family is the flow-orbit closure of the admissible edge
    paths: paths alone are not closed under the flow map (a diverted path
    can fold onto a branching edge set), while the orbit closure is, so the
    min-max principle applies and the value is always a critical edge value
    strictly above the higher minimum.  The witness is the first enumerated
    path whose orbit attains the value.  Non-injective input is re-ranked
    first; the reported value is the original value of the ridge edge.
    """
    work = f if f.is_injective() else make_injective(f)
    field = gradient_field(work)
    paths = enumerate_paths(work, field, high, low)
    operator = FlowOperator(work, field)
    family = _orbit_closure(operator, [p.cells() for p in paths])
    instance = MinMaxInstance(
        work, {"flow": lambda cells: flow_image(operator, cells)}, family
    )
    value_work, witness_cells = minmax_value(instance)
    ridge = max(witness_cells, key=work)
    if ridge.dim != 1 or ridge not in field.critical:
        raise TheoremViolation(f"min-max cell {tuple(ridge)} is not a critical edge")
    if not value_work > work(as_simplex(high)):
        raise TheoremViolation("min-max value does not exceed the higher minimum")
    witness = None
    for path in paths:
        current = path.cells()
        seen = set()
        while current not in seen:
            if current == witness_cells:
                witness = path
                break
            seen.add(current)
            current = flow_image(operator, current)
        if witness is not None:
            break
    if witness is None:
        raise TheoremViolation("no enumerated path flows onto the achieving set")
    return MountainPassResult(f(ridge), ridge, witness, tuple(paths), instance)


class _CategoryEngine:
    """Exhaustive collapse-reachability, collapsibility and cover search.

    States are bitmasks over the canonical cell order of one ambient
    complex; every expensive answer is memoised so repeated category queries
    against the same complex stay cheap.
    """

    def __init__(self, complex: SimplicialComplex):
        self.index = CellIndex(complex)
        self._collapse_witness: dict[int, tuple | None] = {}
        self._reachable: dict[int, frozenset[int]] = {}
        self._precat: dict[int, int] = {}
        self._dgcat: dict[int, int] = {}
        self._maximal: list[int] | None = None

    def _is_vertex(self, mask: int) -> bool:
        return mask.bit_count() == 1 and self.index.cells[mask.bit_length() - 1].dim == 0

    def collapse_witness(self, mask: int) -> tuple | None:
        """Index pairs collapsing the state to a single vertex, or None."""
        return self.index.collapse_search(mask, self._is_vertex, self._collapse_witness)

    def reachable(self, mask: int) -> frozenset[int]:
        """Every state reachable from the mask by elementary collapses."""
        cached = self._reachable.get(mask)
        if cached is not None:
            return cached
        seen = {mask}
        stack = [mask]
        while stack:
            cur = stack.pop()
            for i, j in self.index.free_pairs(cur):
                nxt = cur & ~(1 << i | 1 << j)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out = frozenset(seen)
        self._reachable[mask] = out
        return out

    def collapse_path(self, start: int, goal: int) -> tuple:
        """One witness pair sequence from start to goal (both states)."""
        if start == goal:
            return ()
        parents: dict[int, tuple] = {start: ()}
        stack = [start]
        while stack:
            cur = stack.pop()
            for i, j in self.index.free_pairs(cur):
                nxt = cur & ~(1 << i | 1 << j)
                if nxt in parents:
                    continue
                parents[nxt] = parents[cur] + ((i, j),)
                if nxt == goal:
                    return parents[nxt]
                stack.append(nxt)
        raise ProofFailure("collapse goal is not reachable")

    def maximal_collapsible(self) -> list[int]:
        """Inclusion-maximal collapsible subcomplex masks (cover family)."""
        if self._maximal is not None:
            return self._maximal
        self._maximal = self.index.maximal(
            mask
            for mask in range(1, self.index.full + 1)
            if self.index.is_closed(mask) and self.collapse_witness(mask) is not None
        )
        return self._maximal

    def cover_witness(self, target: int, size: int) -> tuple[int, ...] | None:
        """At most ``size`` family masks covering the target, or None."""
        if target == 0:
            return ()
        if size == 0:
            return None
        pivot = (target & -target).bit_length() - 1
        for fam in self.maximal_collapsible():
            if fam >> pivot & 1:
                rest = self.cover_witness(target & ~fam, size - 1)
                if rest is not None:
                    return (fam,) + rest
        return None

    def precat(self, mask: int) -> int:
        """Fewest collapsible subcomplexes covering the state, minus one."""
        cached = self._precat.get(mask)
        if cached is not None:
            return cached
        size = 1
        while True:
            if self.cover_witness(mask, size) is not None:
                self._precat[mask] = size - 1
                return size - 1
            size += 1
            if size > len(self.index.cells) + 1:
                raise ProofFailure("cover search exceeded the family size")

    def dgcat_value(self, mask: int) -> int:
        cached = self._dgcat.get(mask)
        if cached is not None:
            return cached
        value = min(self.precat(m) for m in self.reachable(mask))
        self._dgcat[mask] = value
        return value


_ENGINES: dict[SimplicialComplex, _CategoryEngine] = {}


def _engine(complex: SimplicialComplex, max_enum: int) -> _CategoryEngine:
    check_enumerable(complex, max_enum)
    engine = _ENGINES.get(complex)
    if engine is None:
        if len(_ENGINES) > 16:
            _ENGINES.clear()
        engine = _CategoryEngine(complex)
        _ENGINES[complex] = engine
    return engine


@dataclass(frozen=True)
class CoverPiece:
    subcomplex: SimplicialComplex
    witness: CollapseSequence


@dataclass(frozen=True)
class CategoryResult:
    category: int
    collapsed_to: SimplicialComplex
    collapse_witness: CollapseSequence
    cover: tuple[CoverPiece, ...]


def dgcat(
    complex: SimplicialComplex,
    sub: SimplicialComplex | None = None,
    max_enum: int = DEFAULT_ENUM_BOUND,
) -> CategoryResult:
    """Exact discrete geometric category of ``sub`` inside ``complex``.

    Minimises, over every collapse of ``sub``, the size of an exact cover by
    subcomplexes of the ambient complex that are collapsible to a vertex.
    All witnesses are returned: the chosen collapse and the cover pieces
    with their collapse-to-vertex certificates.
    """
    target = complex if sub is None else sub
    if not is_subcomplex(target, complex):
        raise ComplexMismatch("the second complex is not a subcomplex of the first")
    engine = _engine(complex, max_enum)
    index = engine.index
    start = index.mask_of(target.simplices)
    best = None
    for m in sorted(engine.reachable(start)):
        key = (engine.precat(m), m.bit_count(), m)
        if best is None or key < best:
            best = key
    value, _, chosen = best
    pieces = []
    for fam in engine.cover_witness(chosen, value + 1):
        piece = SimplicialComplex(index.cells_of(fam))
        pairs = index.pairs_of(engine.collapse_witness(fam))
        vertex = SimplicialComplex(piece.simplices.difference(*pairs))
        pieces.append(CoverPiece(piece, CollapseSequence(piece, vertex, pairs)))
    chosen_complex = SimplicialComplex(index.cells_of(chosen))
    path = index.pairs_of(engine.collapse_path(start, chosen))
    return CategoryResult(
        value, chosen_complex, CollapseSequence(target, chosen_complex, path), tuple(pieces)
    )


def _level_masks(work: MorseFunction, engine: _CategoryEngine) -> list[int]:
    masks = []
    seen = set()
    for a in work.sorted_distinct_values():
        mask = engine.index.mask_of(level_subcomplex(work, a).complex.simplices)
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return masks


def _family_masks(work: MorseFunction, engine: _CategoryEngine, k: int) -> set[int]:
    members: set[int] = set()
    for mask in _level_masks(work, engine):
        if engine.dgcat_value(mask) >= k - 1:
            members |= engine.reachable(mask)
    return members


def ls_minmax(
    f: MorseFunction, max_enum: int = DEFAULT_ENUM_BOUND
) -> list[tuple[int, float]]:
    """Category-filtered min-max values, one per depth up to dgcat + 1.

    The depth-``k`` family holds every collapse of a level subcomplex whose
    ambient category is at least ``k - 1``; each returned value is asserted
    to be critical.
    """
    work = f if f.is_injective() else make_injective(f)
    engine = _engine(f.complex, max_enum)
    top = engine.dgcat_value(engine.index.full)
    crit = critical_cells(f)
    out: list[tuple[int, float]] = []
    max_cell_cache: dict[int, Simplex] = {}

    def max_cell(mask: int) -> Simplex:
        cached = max_cell_cache.get(mask)
        if cached is None:
            cached = max(engine.index.cells_of(mask), key=work)
            max_cell_cache[mask] = cached
        return cached

    for k in range(1, top + 2):
        members = _family_masks(work, engine, k)
        if not members:
            raise EmptyFamily(f"the depth-{k} family is empty")
        best = min((m for m in members), key=lambda m: (work(max_cell(m)), m.bit_count(), m))
        cell = max_cell(best)
        if cell not in crit:
            raise TheoremViolation(f"depth-{k} min-max value {f(cell)} is not critical")
        out.append((k, f(cell)))
    return out


def ls_bound_check(f: MorseFunction, max_enum: int = DEFAULT_ENUM_BOUND) -> bool:
    """Whether category + 1 is at most the number of critical cells."""
    engine = _engine(f.complex, max_enum)
    return engine.dgcat_value(engine.index.full) + 1 <= len(critical_cells(f))


def ls_instance(
    f: MorseFunction, k: int, max_enum: int = DEFAULT_ENUM_BOUND
) -> MinMaxInstance:
    """The depth-``k`` family paired with the flow-closure map."""
    work = f if f.is_injective() else make_injective(f)
    engine = _engine(f.complex, max_enum)
    members = _family_masks(work, engine, k)
    family = [frozenset(engine.index.cells_of(m)) for m in sorted(members)]
    operator = FlowOperator(work)
    maps = {
        "flow_closure": lambda cells: frozenset(
            flow_image_closure(operator, cells).simplices
        )
    }
    return MinMaxInstance(work, maps, family)
