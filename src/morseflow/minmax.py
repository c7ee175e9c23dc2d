"""Min-max data, the mountain-pass construction, and discrete category.

``minmax_value`` evaluates min-over-family of max-over-member and insists
the answer is a critical value; ``check_minmax_data`` verifies exhaustively
that a family really is min-max data (closure under every map, and a
sublevel-shrinking map across every regular value).  The mountain-pass and
category machineries build concrete instances of that shape.
``ls_instance`` closes the depth-k family under its flow-closure map, so it
is min-max data; the Lusternik-Schnirelmann values of ``ls_minmax`` are
``minmax_value`` of the depth-k family alone, on the caller's function, the
prefix of that closed family, whose value was the same on every input
tested.  The category
searches run on the complex's own ``CellIndex`` (see ``search_index``), so
``dgcat`` followed by ``ls_minmax`` on one complex shares every memo, and
every collapse witness of ``dgcat`` comes from its one depth-first search.
``dgcat`` of an empty subcomplex raises ``EmptyInput``, and so do
``ls_minmax``, ``ls_bound_check`` and ``ls_instance`` on the empty complex;
``ls_instance`` takes the depths 1 .. dgcat + 1 only, where the LS values
exist, and ``check_minmax_data`` refuses a family with no members or with
an empty member.
The path walk runs on a step table that holds only the steps into vertices
a path may enter, each with its tail successors (the far end's steps on a
strictly lower edge), so its inner loop tests only the visited mask; it
files each path in the bucket of its length and builds it through a
private ``EdgePath`` constructor.
The mountain-pass family is built on position bitmasks: the path walk
numbers the complex's vertices and edges, the only cells a path or its flow
image holds, in the function's one strict order (``MorseFunction._view``,
by value, ties broken once), without building the complex's integer view.
It carries each path's cell mask and flow-image mask, the orbit closure is
keyed by masks, and cell sets are built once per member, only
for what the result returns.  The strict order gives distinct cells
distinct bits, also on tied input, so a member's highest bit is its top
cell and its bit count its size: the mountain pass finds the members tied
on the least (top value, size) from the masks alone, where
``minmax_value`` reads each member's values, and both hand their tied
members to ``_least_member``, which breaks the tie by canonical cell order
and checks that the value is critical.  Its ``"flow"`` map is a table from
each member to its image, the family's own object.
Every reader here walks the caller's function; only an instance handed to
``check_minmax_data`` carries ``make_injective(f)``, ``f`` ranked along the
same strict order, since that check needs an injective function.  Every
other reader of values reads the same value sort: the deformation check
walks the value order, the LS family takes one level mask per cell of the
entry order that is no matched lower, and a min-max value is checked
against the sorted critical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
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
    if (value := max(map(f.values.__getitem__, best))) not in f._view.critical:
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

    A family with no members, or with an empty member, raises
    ``EmptyFamily``, as in ``minmax_value``: it could pass both checks and
    yet have no min-max value.  A member with a cell outside the complex
    raises ``SimplexNotInComplex``, as in ``minmax_value``, found by one
    union of the members.  Each map is checked on every member, so the
    report's ``closure_checked`` is the number of maps times the number of
    members.
    """
    if not instance.family:
        raise EmptyFamily("the family has no members")
    f = instance.function
    if not f.is_injective():
        raise PreconditionViolated("min-max data checks need an injective function")
    if not all(instance.family):
        raise EmptyFamily("family members must be non-empty")
    if outside := frozenset().union(*instance.family) - f.complex.simplices:
        raise SimplexNotInComplex(f"{min(outside, key=simplex_key)!r} has no value")
    members = set(instance.family)
    for name in sorted(instance.maps):
        h = instance.maps[name]
        for member in instance.family:
            if frozenset(h(member)) not in members:
                raise ClosureViolated(name, member)
    witnesses: dict[float, str] = {}
    below: frozenset[Simplex] = frozenset()
    # Injective, so each value is one cell's: it is regular when that cell
    # is, and the set above it is the set above the previous value plus that cell.
    for cell, a in zip(f._view.cells, f._view.values):
        above = below | {cell}
        if cell not in f.field.critical:
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
    return MinMaxReport(len(instance.maps) * len(instance.family), gap / (1 << 1075), witnesses)


@dataclass(frozen=True, slots=True)
class EdgePath:
    """A simple edge path from a high critical vertex into a minimum's basin.

    The walk of ``enumerate_paths`` builds its paths through the private
    ``_edge_path``, which sets the three slots directly; its paths are
    equal to, hash as and print as ``EdgePath(...)``'s, and stay frozen.
    """

    start: Simplex
    edges: tuple[Simplex, ...]
    low: Simplex

    def cells(self) -> frozenset[Simplex]:
        return frozenset((self.start, *self.edges))


# The walk's private constructor, for paths of cells it has checked: it sets
# the three slots through their descriptors, as ``_trusted`` builds a
# ``Simplex`` past its checks, and so skips the frozen dataclass's ``__init__``
# and its three ``object.__setattr__`` calls.  Its paths equal ``EdgePath(...)``'s.
_set_start, _set_edges, _set_low = (getattr(EdgePath, n).__set__ for n in EdgePath.__slots__)


def _edge_path(start: Simplex, edges: tuple[Simplex, ...], low: Simplex) -> EdgePath:
    path = object.__new__(EdgePath)
    _set_start(path, start)
    _set_edges(path, edges)
    _set_low(path, low)
    return path


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
    the first basin vertex.  Its step table holds only the vertices a path
    may enter, and a path in the basin tries only the tail successors of
    its last step, the far end's steps on a strictly lower edge; so each
    step tried tests only the visited mask.  The number of admissible paths
    (and so the output) can still grow exponentially with the size of the
    complex.  Cofaces are tried in canonical order, so paths are found in
    order of their edges, and filing each in the bucket of its length
    returns them sorted by length, then by their edges, with no sort.
    ``field`` must be ``f``'s, else ``ComplexMismatch``.
    Each path's ``start`` and ``low`` are the complex's own cells.  The
    walk is the one ``mountain_pass`` runs (see ``_admissible_walk``).
    """
    _own_field(f, field)
    return [path for path, _, _ in _admissible_walk(f, *_minima(f, high, low))[2]]


def _minima(f: MorseFunction, high, low) -> tuple[Simplex, Simplex]:
    """``high`` and ``low`` as the complex's own cells, after checking that
    they are two critical vertices of ``f`` with ``f(low) < f(high)``, else
    ``NotLocalMinima``."""
    v1, v0 = as_simplex(high), as_simplex(low)
    # ``f``'s critical cells lie in its complex, and f(v0) < f(v1) keeps them apart.
    if v1.dim != 0 or v0.dim != 0 or not {v1, v0} <= f.field.critical or not f(v0) < f(v1):
        raise NotLocalMinima(
            f"need two distinct critical vertices with f({tuple(v0)}) < f({tuple(v1)})"
        )
    return f.complex._own(v1), f.complex._own(v0)


def _admissible_walk(
    f: MorseFunction, v1: Simplex, v0: Simplex
) -> tuple[FlowOperator, dict[Simplex, int], list[tuple[EdgePath, int, int]]]:
    """The walk of ``enumerate_paths`` from ``v1`` to the basin of ``v0``
    (checked by ``_minima``), with each path's cells and flow image as
    position bitmasks: bit ``i`` stands for the ``i``-th of the complex's
    vertices and edges in ``f``'s strict order (``MorseFunction._view``).

    A set's top cell in that order is then its highest bit, so
    ``mountain_pass`` reads each member's maximum off its mask.  Returns the
    flow operator of ``f`` and its field, each vertex's and edge's flow-row
    mask (the bits of its flow's support), and the admissible paths in
    ``enumerate_paths`` order, each with its cell mask and its flow-image
    mask.  A stack frame carries both masks of its path, each grown by one
    OR per step, since the flow image of a set is the union of its rows; the
    visited vertices are one mask of vertex bits.

    The step table enforces the other two rules before the walk starts, so
    the inner loop tests only the visited mask.  It holds no step into a
    critical vertex other than ``v0`` (``v1`` among them), and each step
    carries its tail successors: the far end's steps on an edge valued
    strictly below its own, in canonical order.  A frame reached once the
    path is in the basin tries only the tail successors of the step that
    reached it, so its edge values strictly decrease.  Each path found goes
    into the bucket of its length, so the buckets concatenated list the
    paths by length, then in the order they were found.
    """
    complex = f.complex
    operator = FlowOperator(f)
    # A path and its flow image hold vertices and edges only, numbered in
    # value order; a row's cells are distinct, so its bits sum to its mask.
    low_cells = [c for c in f._view.cells if len(c) <= 2]
    position = dict(zip(low_cells, range(len(low_cells))))
    rows = {c: sum(1 << position[s] for s in operator._flow[c]) for c in low_cells}
    basin_vertices = frozenset(basin(f.field, f, v0).cells.cells_of_dim(0))
    blocked = {c for c in f.field.critical if c.dim == 0 and c != v0}
    # Each vertex's steps into the vertices a path may enter, in canonical
    # edge order: (edge, far end's steps, far end's bit, far end in basin,
    # edge bit, edge row mask, tail successors).
    steps: dict[Simplex, list[tuple]] = {v: [] for v in complex.vertices}
    for edge in complex.cells_of_dim(1):
        (a, b), bit, row = complex.faces_of(edge), 1 << position[edge], rows[edge]
        for near, far in ((a, b), (b, a)):
            if far not in blocked:
                far_step = (steps[far], 1 << position[far], far in basin_vertices)
                steps[near].append((edge, *far_step, bit, row, []))
    for near_steps in steps.values():
        for edge, far_steps, *_, tail_steps in near_steps:
            tail_steps.extend([s for s in far_steps if f.values[s[0]] < f.values[edge]])
    # A path is vertex-simple, so it has fewer edges than the complex has vertices.
    path, by_length, visited = [], [[] for _ in complex.vertices], 0
    # (steps left to try, bit of the vertex reached, in the basin's tail,
    # cell mask, flow-image mask); no step enters ``v1``, so its bit is 0.
    stack = [(iter(steps[v1]), 0, False, 1 << position[v1], rows[v1])]
    while stack:
        todo, _, tail, cells, image = stack[-1]
        for edge, far_steps, far_bit, in_basin, bit, row, tail_steps in todo:
            if visited & far_bit:
                continue
            path.append(edge)
            visited |= far_bit
            cells, image = cells | bit, image | row
            if in_basin:
                by_length[len(path)].append((_edge_path(v1, tuple(path), v0), cells, image))
            tail = tail or in_basin
            stack.append((iter(tail_steps if tail else far_steps), far_bit, tail, cells, image))
            break
        else:
            visited ^= stack.pop()[1]
            del path[-1:]  # empty when the start vertex's steps run out
    found = [entry for bucket in by_length for entry in bucket]
    if not found:
        raise NoPathExists(
            f"no admissible edge path from {tuple(v1)} to the basin of {tuple(v0)}"
        )
    return operator, rows, found


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
    flow orbit reaches the member that attains the value, read off a map
    from each member to that path.

    The closure runs on the position bitmasks of ``_admissible_walk``,
    which hands over each path's cell and flow-image masks: a path whose
    image is already a member needs no ``flow_image``, an image that is a
    new member calls it once, and each member's set is built once, a path's
    as ``frozenset((high, *edges))``.  The
    instance's ``"flow"`` map is a table from each member to its image,
    which is the family's own object, so equal inputs in any iterable give
    the identical image and ``check_minmax_data`` computes no member's
    image again; any other set falls back to ``flow_image``.

    The walk runs on ``f`` itself, so its paths are ``enumerate_paths``'
    on ``f``, also on tied input: a tail must strictly decrease in ``f``'s
    own values.  Its bits follow ``f``'s strict order, which ranks every
    cell apart, so a member's top cell is its highest set bit, and the
    member with the least top value and then the least size is the one
    with the least ``bit_length()`` and then the least ``bit_count()``.  No
    member's cells are read to choose it; only a tie on both is broken by
    canonical cell order, in ``_least_member`` as for ``minmax_value``.
    Minima of equal value raise ``NotLocalMinima`` in either order, as in
    ``enumerate_paths``.  The instance's function is ``f``, or on tied input
    ``make_injective(f)``, ``f`` ranked along the same strict order, since
    ``check_minmax_data`` needs an injective function; the reported value
    is ``f``'s value of the ridge edge.
    """
    v1, v0 = _minima(f, high, low)
    operator, rows, found = _admissible_walk(f, v1, v0)
    # members: cell mask -> member, in the order the walk reaches them;
    # seeds: member -> the first path whose orbit reaches it; images: member -> its image.
    members, seeds, images = {}, {}, {}
    for path, mask, image in found:
        if mask in members:
            continue  # an earlier path's orbit holds this path and all of its orbit
        member = members[mask] = frozenset((v1, *path.edges))
        seeds[member] = path
        while image not in members:
            images[member] = flowed = members[image] = flow_image(operator, member)
            seeds[flowed] = path
            member, image = flowed, reduce(or_, map(rows.__getitem__, flowed), 0)
        images[member] = members[image]

    def flow(cells: Iterable) -> frozenset[Simplex]:
        image = images.get(cells := frozenset(cells))
        return flow_image(operator, cells) if image is None else image

    family = list(members.values())
    # ``check_minmax_data`` needs an injective function: ``f`` ranked along its strict order.
    work = f if f.is_injective() else make_injective(f)
    instance = MinMaxInstance(work, {"flow": flow}, family)
    # Bits follow ``f``'s strict order, which is ``work``'s value order, so a
    # member's highest bit is its top cell and its bit count its size: the
    # least (top value, size) is the least (highest bit, bit count), and the
    # least mask has the least highest bit.
    below = 1 << min(members).bit_length()  # the masks below it share that top bit
    least = min(mask.bit_count() for mask in members if mask < below)
    tied = [m for mask, m in members.items() if mask < below and mask.bit_count() == least]
    value_work, witness_cells = _least_member(work, tied)
    ridge = max(witness_cells, key=work)
    if ridge.dim != 1 or ridge not in operator.field.critical:
        raise TheoremViolation(f"min-max cell {tuple(ridge)} is not a critical edge")
    if not value_work > work(v1):
        raise TheoremViolation("min-max value does not exceed the higher minimum")
    witness = seeds[witness_cells]
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
    with their collapse-to-vertex certificates, each the path of the
    index's one depth-first search (``collapse_search``).
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
    path = index.pairs_of(index.collapse_search(start, chosen))
    return CategoryResult(
        value, chosen_complex, CollapseSequence(target, chosen_complex, path), tuple(pieces)
    )


def _ls_family(f: MorseFunction, index: CellIndex, k: int) -> list[frozenset[Simplex]]:
    """The depth-``k`` family: every collapse of a level subcomplex of
    ``make_injective(f)`` whose ambient category is at least ``k - 1``, as
    cell sets sorted by mask.

    That function ranks the cells along ``f``'s strict order, which gives
    it ``f``'s entry order, and its only tied entries are a matched lower's
    and its upper's.  So its level complexes are the prefixes of ``f``'s
    entry order that end at a cell other than a matched lower (see
    ``level_subcomplex``): one mask grows along that order and each such
    cell keeps the mask after it, with no value read.
    """
    up, members = f.field.up, set()
    grown = accumulate((1 << index.position[c] for c in f._view.entered), or_)
    for c, mask in zip(f._view.entered, grown):
        if c not in up and index.category(mask)[0] >= k - 1:
            members.update(index.reachable(mask))
    return [frozenset(index.cells_of(m)) for m in sorted(members)]


def _category(f: MorseFunction, max_enum: int) -> tuple[CellIndex, int]:
    """The search index of ``f``'s complex and the complex's discrete
    category; ``EmptyInput`` on the empty complex, as in ``dgcat``."""
    if not len(f.complex):
        raise EmptyInput("the discrete category of an empty complex is undefined")
    index = search_index(f.complex, max_enum)
    return index, index.category(index.full)[0]


def ls_minmax(
    f: MorseFunction, max_enum: int = DEFAULT_ENUM_BOUND
) -> list[tuple[int, float]]:
    """Category-filtered min-max values, one per depth up to dgcat + 1.

    Each depth's value is ``minmax_value`` of the depth-``k`` family on
    ``f`` itself, so it is asserted to be critical.  The family is read off
    ``f``'s strict order (``_ls_family``), so no second function is
    validated, and the value is ``f`` of the top cell of
    ``make_injective(f)``'s min-max member, since that ranking refines
    ``f``.  The family is left unclosed here: ``ls_instance`` closes it
    under the flow-closure map, which computes every member's image, and
    the closed family's value equalled this one on every input tested (the
    tests sweep the desk fixtures and the boundary of a tetrahedron).  The
    empty complex has no category and raises ``EmptyInput``.
    """
    index, category = _category(f, max_enum)
    families = (_ls_family(f, index, k) for k in range(1, category + 2))
    return [(k, minmax_value(MinMaxInstance(f, {}, fam))[0]) for k, fam in enumerate(families, 1)]


def ls_bound_check(f: MorseFunction, max_enum: int = DEFAULT_ENUM_BOUND) -> bool:
    """Whether category + 1 is at most the number of critical cells;
    ``EmptyInput`` on the empty complex, which has no category."""
    return _category(f, max_enum)[1] + 1 <= len(critical_cells(f))


def ls_instance(
    f: MorseFunction, k: int, max_enum: int = DEFAULT_ENUM_BOUND
) -> MinMaxInstance:
    """The depth-``k`` family, closed under the flow-closure map, paired with it.

    The family of ``_ls_family`` comes first, in mask order; the images it
    lacks follow in the order one pass over the growing list first reaches
    them, so every member's image is a member.  The map builds no
    subcomplex, only the closure's cell set.

    The LS values exist at depths 1 .. dgcat + 1 only: another ``k`` raises
    ``PreconditionViolated``, and the empty complex, which has no category,
    raises ``EmptyInput``.
    """
    index, category = _category(f, max_enum)
    if not 1 <= k <= category + 1:
        raise PreconditionViolated(f"depth {k} is outside 1 .. {category + 1} (dgcat + 1)")
    operator = FlowOperator(f)
    closure = f.complex._closure

    def flow_closure(cells: Iterable) -> frozenset[Simplex]:
        return frozenset(closure(flow_image(operator, cells)))

    family = _ls_family(f, index, k)
    members = set(family)
    for member in family:  # grows as new images are appended, each once
        if (image := flow_closure(member)) not in members:
            members.add(image)
            family.append(image)
    # ``check_minmax_data`` needs an injective function: ``f`` ranked along its strict order.
    work = f if f.is_injective() else make_injective(f)
    return MinMaxInstance(work, {"flow_closure": flow_closure}, family)
