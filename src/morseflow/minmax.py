"""Min-max data, the mountain-pass construction, and discrete category.

``minmax_value`` evaluates min-over-family of max-over-member and insists
the answer is a critical value; ``check_minmax_data`` verifies exhaustively
that a family really is min-max data (closure under every map, and a
sublevel-shrinking map across every regular value).  The mountain-pass and
category machineries build concrete instances of that shape.  The
Lusternik-Schnirelmann values of ``ls_minmax`` are ``minmax_value`` of the
same depth-k family that ``ls_instance`` returns.  The category searches run
on the complex's own ``CellIndex`` (see ``search_index``), so ``dgcat``
followed by ``ls_minmax`` on one complex shares every memo; ``dgcat`` of an
empty subcomplex raises ``EmptyInput``.
The mountain-pass family is built on position bitmasks: the path walk
numbers the complex's vertices and edges, the only cells a path or its flow
image holds, in order of value, without building the complex's integer
view.  It carries each path's cell mask and flow-image mask, the orbit
closure is keyed by masks, and cell sets are built once per member, only
for what the result returns.  The mountain pass walks an injective
function, so distinct cells have distinct bits in value order and a
member's highest bit is its top cell and its bit count its size: it finds
the members tied on the least (top value, size) from the masks alone, where
``minmax_value`` reads each member's values, and both hand their tied
members to ``_least_member``, which breaks the tie by canonical cell order
and checks that the value is critical.  Its ``"flow"`` map is a table from
each member to its image, the family's own object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import or_
from typing import Callable, Iterable, Mapping

from .collapse import CollapseSequence, basin
from .complexes import (
    DEFAULT_ENUM_BOUND,
    CellIndex,
    Simplex,
    SimplicialComplex,
    as_simplex,
    is_subcomplex,
    search_index,
    simplex_key,
)
from .errors import (
    ClosureViolated,
    ComplexMismatch,
    DeformationViolated,
    EmptyFamily,
    EmptyInput,
    NoPathExists,
    NotLocalMinima,
    PreconditionViolated,
    ReassemblyFailure,
    SimplexNotInComplex,
    TheoremViolation,
)
from .flow import FlowOperator, flow_image
from .morse import (
    GradientField,
    MorseFunction,
    _own_field,
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
    family, values, keys = instance.family, instance.function.values, []
    for member in family:
        if not member:
            raise EmptyFamily("family members must be non-empty")
        try:
            keys.append((max(map(values.__getitem__, member)), len(member)))
        except KeyError as exc:
            raise SimplexNotInComplex(f"{exc.args[0]!r} has no value") from None
    least = min(keys)
    return _least_member(instance.function, [m for m, key in zip(family, keys) if key == least])


def _least_member(f: MorseFunction, tied: list[frozenset]) -> tuple[float, frozenset]:
    """Of members tied on (top value, size), the first in canonical cell
    order, with its top value, which must be critical, else
    ``TheoremViolation``.  ``minmax_value`` and ``mountain_pass`` each find
    their own tied members: the first by reading each member's values, the
    second off the members' masks."""
    best = tied[0] if len(tied) == 1 else min(tied, key=lambda m: sorted(m, key=simplex_key))
    if (value := max(map(f.values.__getitem__, best))) not in set(critical_values(f)):
        raise TheoremViolation(f"min-max value {value} is not a critical value")
    return value, best


def check_minmax_data(instance: MinMaxInstance) -> MinMaxReport:
    """Exhaustively verify both min-max conditions.

    Closure: every map sends every family member to a family member.
    Deformation: across every regular value ``a`` in the image, some map
    sends the sublevel set just above ``a`` inside the one just below.  The
    report's epsilon is half the least gap between distinct values, rounded
    once; no value lies within it of ``a``, so the sets at ``a + epsilon``
    and ``a - epsilon`` are the cells valued at most ``a`` and below ``a``.
    They are built as prefixes of the cells in value order, one set per
    value, never from the float sums ``a + epsilon`` and ``a - epsilon``,
    which can round onto an adjacent value.
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
    crit = set(critical_values(f))
    witnesses: dict[float, str] = {}
    below: frozenset[Simplex] = frozenset()
    # Injective, so each value is one cell's, and the set above a value is
    # the set above the previous value plus that cell.
    for cell in sorted(f.complex, key=f.values.__getitem__):
        a = f.values[cell]
        above = below | {cell}
        if a not in crit:
            for name in sorted(instance.maps):
                if frozenset(instance.maps[name](above)) <= below:
                    witnesses[a] = name
                    break
            else:
                raise DeformationViolated(a)
        below = above
    # Half the least gap, rounded once from its exact value, so it is finite
    # even for two values more than the largest float apart: every float is
    # a whole number of 2**-1074 units, and integer division rounds once.
    ratios = [v.as_integer_ratio() for v in f.sorted_distinct_values()]
    units = [n << (1075 - d.bit_length()) for n, d in ratios]
    gap = min((b - a for a, b in zip(units, units[1:])), default=1 << 1074)
    return MinMaxReport(checked, gap / (1 << 1075), witnesses)


@dataclass(frozen=True, slots=True)
class EdgePath:
    """A simple edge path from a high critical vertex into a minimum's basin."""

    start: Simplex
    edges: tuple[Simplex, ...]
    low: Simplex

    def cells(self) -> frozenset[Simplex]:
        return frozenset((self.start, *self.edges))


def enumerate_paths(
    f: MorseFunction, field: GradientField, high, low
) -> list[EdgePath]:
    """All admissible edge paths from ``high`` ending in the basin of ``low``.

    Paths are vertex-simple and avoid every critical vertex other than the
    two endpoints, and once a path touches the basin its remaining edge
    values must strictly decrease.  One backtracking walk extends a single
    path (an edge list and a visited mask, both popped on the way back) and
    enforces all three rules as it extends, so no prefix that breaks one is
    ever extended: a broken tail stays broken, because the tail starts at
    the first basin vertex.  The number of admissible paths (and so the
    output) can still grow exponentially with the size of the complex.
    Cofaces are tried in canonical order, so paths are found in order of
    their edges, and a stable sort by length returns them sorted by length,
    then by their edges.  ``field`` must be ``f``'s, else ``ComplexMismatch``.
    Each path's ``start`` and ``low`` are the complex's own cells.  The
    walk is the one ``mountain_pass`` runs (see ``_admissible_walk``).
    """
    return [path for path, _, _ in _admissible_walk(f, field, *_minima(f, field, high, low))[2]]


def _minima(f: MorseFunction, field: GradientField, high, low) -> tuple[Simplex, Simplex]:
    """``high`` and ``low`` as the complex's own cells, after checking that
    ``field`` is ``f``'s and that they are two critical vertices with
    ``f(low) < f(high)``, else ``NotLocalMinima``."""
    _own_field(f, field)
    v1, v0 = as_simplex(high), as_simplex(low)
    # ``f``'s critical cells lie in its complex, and f(v0) < f(v1) keeps them apart.
    if v1.dim != 0 or v0.dim != 0 or not {v1, v0} <= field.critical or not f(v0) < f(v1):
        raise NotLocalMinima(
            f"need two distinct critical vertices with f({tuple(v0)}) < f({tuple(v1)})"
        )
    return f.complex._own(v1), f.complex._own(v0)


def _admissible_walk(
    f: MorseFunction, field: GradientField, v1: Simplex, v0: Simplex
) -> tuple[FlowOperator, dict[Simplex, int], list[tuple[EdgePath, int, int]]]:
    """The walk of ``enumerate_paths`` from ``v1`` to the basin of ``v0``
    (checked by ``_minima``), with each path's cells and flow image as
    position bitmasks: bit ``i`` stands for the ``i``-th of the complex's
    vertices and edges in order of ``f`` value, ties in canonical order.

    Under an injective ``f`` a set's top cell is then its highest bit, so
    ``mountain_pass`` reads each member's maximum off its mask.  Returns the
    flow operator of ``f`` and ``field``, each vertex's and edge's flow-row
    mask (the bits of its flow's support), and the admissible paths in
    ``enumerate_paths`` order, each with its cell mask and its flow-image
    mask.  A stack frame carries both masks of its path, each grown by one
    OR per step, since the flow image of a set is the union of its rows; the
    visited vertices are one mask of vertex bits.
    """
    complex = f.complex
    operator = FlowOperator(f, field)
    # A path and its flow image hold vertices and edges only, numbered in
    # value order; a row's cells are distinct, so its bits sum to its mask.
    low_cells = sorted(complex.vertices + complex.cells_of_dim(1), key=f.values.__getitem__)
    position = dict(zip(low_cells, range(len(low_cells))))
    rows = {c: sum(1 << position[s] for s in operator._flow[c]) for c in low_cells}
    basin_vertices = frozenset(basin(field, f, v0).cells.cells_of_dim(0))
    # Each vertex's steps, in canonical edge order: (edge, far end's steps,
    # far end's bit, far end in basin, edge value, edge bit, edge row mask).
    steps: dict[Simplex, list[tuple]] = {v: [] for v in complex.vertices}
    for edge in complex.cells_of_dim(1):
        (a, b), bit, row = complex.faces_of(edge), 1 << position[edge], rows[edge]
        for near, far in ((a, b), (b, a)):
            far_step = (steps[far], 1 << position[far], far in basin_vertices)
            steps[near].append((edge, *far_step, f.values[edge], bit, row))
    path, found = [], []
    # The critical vertices other than ``v0``, ``v1`` among them, count as
    # visited from the start, so no path enters one.
    visited = sum(1 << position[c] for c in field.critical if c.dim == 0 and c != v0)
    start = 1 << position[v1]
    # (steps left to try, bit of the vertex reached, last edge value once in
    # the basin, cell mask, flow-image mask)
    stack = [(iter(steps[v1]), start, None, start, rows[v1])]
    while stack:
        todo, _, tail, cells, image = stack[-1]
        for edge, far_steps, far_bit, in_basin, value, bit, row in todo:
            if visited & far_bit or (tail is not None and value >= tail):
                continue
            path.append(edge)
            visited |= far_bit
            cells, image = cells | bit, image | row
            if in_basin:
                found.append((EdgePath(v1, tuple(path), v0), cells, image))
            tail = value if in_basin or tail is not None else None
            stack.append((iter(far_steps), far_bit, tail, cells, image))
            break
        else:
            visited ^= stack.pop()[1]
            del path[-1:]  # empty when the start vertex's steps run out
    if not found:
        raise NoPathExists(
            f"no admissible edge path from {tuple(v1)} to the basin of {tuple(v0)}"
        )
    return operator, rows, sorted(found, key=lambda entry: len(entry[0].edges))


def flow_path(operator: FlowOperator, path: EdgePath) -> EdgePath:
    """Push a path through the flow's support map and reassemble it.

    The image must consist of the start vertex plus edges forming a single
    path that ends in the basin with a monotone tail; anything else raises
    ``ReassemblyFailure``.  Flowed paths may legitimately pass through other
    critical vertices (a diversion around a 2-simplex can land on one), so
    that constraint is not re-imposed here.

    The image is walked from the start vertex, taking the one unused edge at
    each vertex; the edges at a vertex are read from its cofaces, so the walk
    costs the degrees of the vertices it reaches, not a scan of the image
    per step.  A vertex reached twice would leave two unused edges at
    some step, so a walk that uses every edge proves the path contiguous and
    vertex-simple.  The vertices it reaches are then checked for the two
    rules left: the path ends in the basin, and edge values strictly
    decrease from the first basin vertex on.
    """
    image = flow_image(operator, path.cells())
    verts = sorted((c for c in image if c.dim == 0), key=simplex_key)
    remaining = {c for c in image if c.dim == 1}  # the edges, each used once
    if len(verts) + len(remaining) != len(image):
        raise ReassemblyFailure("flow image contains cells above dimension 1")
    if verts != [path.start]:
        raise ReassemblyFailure(f"flow image vertices {verts} are not just the start vertex")
    if not remaining:
        raise ReassemblyFailure("flow image lost every edge of the path")
    f = operator.function
    seq: list[Simplex] = []
    reached: list[int] = []
    cur = path.start[0]
    while remaining:
        nxt = [e for e in f.complex.cofaces_of((cur,)) if e in remaining]
        if len(nxt) != 1:
            raise ReassemblyFailure(f"image does not reassemble into one path at vertex {cur}")
        edge = nxt[0]
        seq.append(edge)
        remaining.remove(edge)
        cur = edge[0] if edge[1] == cur else edge[1]
        reached.append(cur)
    in_basin = {v[0] for v in basin(operator.field, f, path.low).cells.cells_of_dim(0)}
    entry = next((j for j, v in enumerate(reached) if v in in_basin), len(seq))
    tail = [f.values[e] for e in seq[entry:]]
    if cur not in in_basin or any(x <= y for x, y in zip(tail, tail[1:])):
        raise ReassemblyFailure("flowed path violates the path invariants")
    return EdgePath(path.start, tuple(seq), path.low)


@dataclass(frozen=True)
class MountainPassResult:
    value: float
    edge: Simplex
    witness: EdgePath
    paths: tuple[EdgePath, ...]
    instance: MinMaxInstance


def mountain_pass(f: MorseFunction, high, low) -> MountainPassResult:
    """Lowest ridge crossing between two critical vertices.

    The min-max family is the flow-orbit closure of the admissible edge
    paths of ``enumerate_paths``: paths alone are not closed under the flow
    map (a diverted path can fold onto a branching edge set), while the
    orbit closure is, so the min-max principle applies and the value is
    always a critical edge value strictly above the higher minimum.  The
    family lists the members in the order the closure's walk first reaches
    them: paths in ``enumerate_paths`` order, each followed by the new part
    of its forward orbit; its cells are the complex's own.  The answer does
    not depend on that order, since ties break by canonical cell order, as
    in ``minmax_value``.  The witness is the first enumerated path whose
    flow orbit reaches the member that attains the value.

    The closure runs on the position bitmasks of ``_admissible_walk``,
    which hands over each path's cell and flow-image masks: a path whose
    image is already a member needs no ``flow_image``, an image that is a
    new member calls it once, and each member's set is built once.  The
    instance's ``"flow"`` map is a table from each member to its image,
    which is the family's own object, so equal inputs in any iterable give
    the identical image and ``check_minmax_data`` computes no member's
    image again; any other set falls back to ``flow_image``.

    The walk runs on an injective function: ``f`` itself, or ``f``
    re-ranked when it has ties.  Its bits follow that function's values,
    which are distinct, so a member's top cell is its highest set bit, and
    the member with the least top value and then the least size is the one
    with the least ``bit_length()`` and then the least ``bit_count()``.  No
    member's cells are read to choose it; only a tie on both is broken by
    canonical cell order, in ``_least_member`` as for ``minmax_value``.
    The two minima are checked on ``f``'s own values before any
    re-ranking, so minima of equal value raise ``NotLocalMinima`` in either
    order, as in ``enumerate_paths``.  The reported value is ``f``'s value
    of the ridge edge.
    """
    v1, v0 = _minima(f, f.field, high, low)  # on the caller's values, not re-ranked ones
    work = f if f.is_injective() else make_injective(f)
    operator, rows, found = _admissible_walk(work, gradient_field(work), v1, v0)
    # members: cell mask -> member, in the order the walk reaches them;
    # seeds[j]: the first path whose orbit reaches member j; images: member -> its image.
    members, seeds, images = {}, [], {}
    for path, mask, image in found:
        if mask in members:
            continue  # an earlier path's orbit holds this path and all of its orbit
        member = members[mask] = path.cells()
        seeds.append(path)
        while image not in members:
            images[member] = flowed = members[image] = flow_image(operator, member)
            seeds.append(path)
            member, image = flowed, reduce(or_, map(rows.__getitem__, flowed), 0)
        images[member] = members[image]

    def flow(cells: Iterable) -> frozenset[Simplex]:
        image = images.get(cells := frozenset(cells))
        return flow_image(operator, cells) if image is None else image

    family = list(members.values())
    instance = MinMaxInstance(work, {"flow": flow}, family)
    # Bits follow ``work``'s values, which are distinct, so a member's highest
    # bit is its top cell and its bit count its size: the least (top value,
    # size) is the least (highest bit, bit count), and the least mask has the
    # least highest bit.
    below = 1 << min(members).bit_length()  # the masks below it share that top bit
    least = min(mask.bit_count() for mask in members if mask < below)
    tied = [m for mask, m in members.items() if mask < below and mask.bit_count() == least]
    value_work, witness_cells = _least_member(work, tied)
    ridge = max(witness_cells, key=work)
    if ridge.dim != 1 or ridge not in operator.field.critical:
        raise TheoremViolation(f"min-max cell {tuple(ridge)} is not a critical edge")
    if not value_work > work(v1):
        raise TheoremViolation("min-max value does not exceed the higher minimum")
    witness = seeds[family.index(witness_cells)]  # members are distinct sets
    return MountainPassResult(f(ridge), ridge, witness, tuple(p for p, _, _ in found), instance)


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
    if not target.simplices:
        raise EmptyInput("the discrete category of an empty complex is undefined")
    index = search_index(complex, max_enum)
    start = index.mask_of(target.simplices)
    value, _, chosen = index.category(start)
    pieces = []
    for fam in index.cover(chosen):
        piece = complex._sub(set(index.cells_of(fam)))
        pairs = index.pairs_of(index.collapse_witness(fam))
        vertex = piece._sub(piece.simplices.difference(*pairs))
        pieces.append(CoverPiece(piece, CollapseSequence(piece, vertex, pairs)))
    chosen_complex = complex._sub(set(index.cells_of(chosen)))
    path = index.pairs_of(index.collapse_path(start, chosen))
    return CategoryResult(
        value, chosen_complex, CollapseSequence(target, chosen_complex, path), tuple(pieces)
    )


def _level_masks(work: MorseFunction, index: CellIndex) -> list[int]:
    """The distinct level-subcomplex masks, one per distinct value, ascending.

    As ``level_subcomplex`` proves, the level subcomplex at ``a`` is the
    cells valued at most ``a`` together with their matched lower faces, so
    the masks grow by ORing those bits in value order; a mask equal to an
    earlier one equals the one just before it.
    """
    position, down, value = index.position, work.field.down, work.values.__getitem__
    masks: list[int] = []
    mask = 0
    for _, group in groupby(sorted(index.cells, key=value), key=value):
        for c in group:  # an unmatched cell ORs its own bit twice
            mask |= 1 << position[c] | 1 << position[down.get(c, c)]
        if not masks or masks[-1] != mask:
            masks.append(mask)
    return masks


def _ls_family(work: MorseFunction, index: CellIndex, k: int) -> list[frozenset[Simplex]]:
    """The depth-``k`` family: every collapse of a level subcomplex whose
    ambient category is at least ``k - 1``, as cell sets sorted by mask."""
    members: set[int] = set()
    for mask in _level_masks(work, index):
        if index.category(mask)[0] >= k - 1:
            members.update(index.reachable(mask))
    return [frozenset(index.cells_of(m)) for m in sorted(members)]


def ls_minmax(
    f: MorseFunction, max_enum: int = DEFAULT_ENUM_BOUND
) -> list[tuple[int, float]]:
    """Category-filtered min-max values, one per depth up to dgcat + 1.

    Each depth's value is ``minmax_value`` of the depth-``k`` family that
    ``ls_instance`` returns, so it is asserted to be critical; the reported
    value is ``f`` of the witness member's top cell, which keeps the original
    value on non-injective input.
    """
    work = f if f.is_injective() else make_injective(f)
    index = search_index(f.complex, max_enum)
    out: list[tuple[int, float]] = []
    for k in range(1, index.category(index.full)[0] + 2):
        _, member = minmax_value(MinMaxInstance(work, {}, _ls_family(work, index, k)))
        out.append((k, f(max(member, key=work))))
    return out


def ls_bound_check(f: MorseFunction, max_enum: int = DEFAULT_ENUM_BOUND) -> bool:
    """Whether category + 1 is at most the number of critical cells."""
    index = search_index(f.complex, max_enum)
    return index.category(index.full)[0] + 1 <= len(critical_cells(f))


def ls_instance(
    f: MorseFunction, k: int, max_enum: int = DEFAULT_ENUM_BOUND
) -> MinMaxInstance:
    """The depth-``k`` family paired with the flow-closure map."""
    work = f if f.is_injective() else make_injective(f)
    index = search_index(f.complex, max_enum)
    operator = FlowOperator(work)
    closure = work.complex._closure
    maps = {"flow_closure": lambda cells: frozenset(closure(flow_image(operator, cells)))}
    return MinMaxInstance(work, maps, _ls_family(work, index, k))
