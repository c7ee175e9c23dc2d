"""Finite simplicial complexes, integer chains, and a mod-2 homology oracle.

A complex's cells never change after construction.  Each cell is one
object: every face tuple holds the complex's own cells, not copies of them.
A loaded complex (from ``build_complex``, ``parse_scx``, ``parse_off`` or
the checked constructor) is the root of every complex derived from it:
level subcomplexes, closures, collapses, basins and category pieces keep
only their cells in canonical order and a reference to the root, and share
its face map and its coface map.  The face map is built with the root, so
the face queries sitting in the inner loops of the Morse machinery are
dictionary lookups; the coface map is built from it on first use, by
whichever complex of the root's family reads it first, since most never do.
A cell's faces in a subcomplex are its faces in the root; its cofaces in a
subcomplex are its root cofaces that are members.
One integer view per complex, a ``CellIndex`` also built on first use,
gives each cell its position in canonical order and its face and coface
positions: ``random_morse`` works on it, while loading, validating,
``make_injective``, the mountain pass and homology stay on the face map, so
a complex that is only read never builds it.  The exhaustive searches
share the same object: ``search_index`` checks the enumeration bound and
adds the face and coface masks on first use, which take quadratic space
and so are never built for a large complex, and the view keeps the
answers its callers read again:
the cover family, each state's reachable set, least cover and category.
The set of all collapsible subcomplexes, read once to find the cover
family, is not kept.  None of these changes a result.
The index lists states with one walk, which follows collapses to list the
states a subcomplex collapses to and anti-collapses from all the vertices
to list every collapsible subcomplex; the cover family and every vertex's
maximal collapsible subcomplexes are read off the latter.  The walk lists
states only: every witness collapse, ``dgcat``'s onto its chosen state
included, is found by one plain depth-first search, and the cover that
fixes a state's category is kept, so ``dgcat`` reads it without a second
search.
The canonical orientation of every simplex is the increasing vertex order;
all boundary signs derive from it.
Mod-2 homology has one kernel, ``_negative_cells``: the column reduction of
a filtration's boundary matrices, top down with clearing, which names the
cells whose reduced column is non-zero.  ``betti_numbers_mod2`` runs it over
the canonical order, and a Morse function's Betti table (see
``collapse.verify_dmt_b``) over its level filtration.

The public constructors check their input: ``Simplex(...)``, ``Chain(...)``
and ``SimplicialComplex(...)`` raise on anything malformed.  Every chain,
the results of chain arithmetic and ``boundary`` included, is built through
``Chain(...)``, so every chain the library returns has passed its checks.
Other data derived from objects already checked is valid by construction,
so it is built through private constructors that skip the checks:
``_trusted`` for a face sliced out of a simplex or a vertex read from one,
``SimplicialComplex._sub`` for a face-closed subset of a complex
(``_derived`` when the subset comes in canonical order), and
``SimplicialComplex._from_cells`` for the face closure of distinct
``Simplex`` cells of fresh input: the simplices ``build_complex`` is given
and the lines of a ``.scx`` file that ``parse_scx`` has checked.  They are
used on such data only.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    EmptyInput,
    MalformedSimplex,
    ProofFailure,
    SimplexNotInComplex,
    TooLargeForEnumeration,
)

DEFAULT_ENUM_BOUND = 14


class Simplex(tuple):
    """A simplex stored as the strictly increasing tuple of its vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]) -> "Simplex":
        try:
            verts = tuple(sorted(vertices))
        except TypeError:  # not iterable, or vertices that do not compare
            raise MalformedSimplex(f"not integer vertex ids: {vertices!r}") from None
        if not verts:
            raise MalformedSimplex("a simplex needs at least one vertex")
        for v in verts:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise MalformedSimplex(f"vertex ids must be non-negative integers, got {v!r}")
        if len(set(verts)) != len(verts):
            raise MalformedSimplex(f"repeated vertex id in {verts}")
        return tuple.__new__(cls, verts)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def faces(self) -> tuple["Simplex", ...]:
        """The codimension-1 faces in canonical (increasing) order."""
        n = len(self)
        if n == 1:
            return ()
        return tuple(map(_trusted, itertools.combinations(self, n - 1)))

    def __repr__(self) -> str:
        return f"Simplex{tuple(self)!r}"


# A simplex from an increasing sequence of distinct vertex ids, unchecked.  A
# partial of the C constructor, so building a face makes no Python call.
_trusted = functools.partial(tuple.__new__, Simplex)


def simplex_key(s: Simplex) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: dimension first, then vertex order."""
    return (len(s), tuple(s))


def as_simplex(s) -> Simplex:
    return s if isinstance(s, Simplex) else Simplex(s)


def incidence_sign(coface: Simplex, face: Simplex) -> int:
    """Sign of ``face`` in the boundary of ``coface`` (increasing-vertex orientation).

    For simplices, ``face`` is a codimension-1 face exactly when it is
    ``coface`` without the vertex after their common prefix.
    """
    n = len(face)
    if len(coface) == n + 1:
        i = 0
        while i < n and coface[i] == face[i]:
            i += 1
        if coface[i + 1 :] == face[i:]:
            return -1 if i % 2 else 1
    raise ValueError(f"{face!r} is not a codimension-1 face of {coface!r}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimplicialComplex:
    """A finite face-closed set of simplices with two-way incidence indices."""

    __slots__ = ("_cells", "_order", "_faces", "_root", "_coface_tuples", "_ids")

    def __init__(self, simplices: Iterable[Iterable[int]]):
        cells = frozenset(as_simplex(s) for s in simplices)
        faces, order = _face_closure(cells)
        if len(order) > len(cells):  # the closure holds a face that is not listed
            missing = next(s for s in order if s not in cells)
            raise MalformedSimplex(f"not face-closed: the face {missing!r} is not listed")
        self._index(faces, order)

    @classmethod
    def _from_cells(cls, cells: Iterable[Simplex]) -> "SimplicialComplex":
        """The face closure of the given cells; unchecked."""
        complex = object.__new__(cls)
        complex._index(*_face_closure(cells))
        return complex

    def _index(self, faces: dict, order: tuple, root: SimplicialComplex | None = None) -> None:
        """Fill every slot from a face map, a canonical order and the root
        that owns the face map (``None`` when this complex is the root)."""
        # Built from the canonical order, so the set iterates alike however
        # the face map was filled.
        self._cells = frozenset(order)
        self._order = order
        self._faces = faces
        self._root = root
        self._coface_tuples = None
        self._ids = None

    def _sub(self, cells: set[Simplex]) -> "SimplicialComplex":
        """The subcomplex on a face-closed subset of the cells; unchecked.

        Shares this complex's face map and root, so costs one pass over this
        complex's cells.  A member's faces are members, so every reader of
        the shared face map, which indexes member cells only, reads the
        subcomplex's faces.
        """
        # Tuples from lists, not generators: ``tuple`` over-allocates a
        # generator's items and shrinks the result, which raised peak memory.
        return self._derived(tuple([s for s in self._order if s in cells]))

    def _derived(self, order: tuple[Simplex, ...]) -> "SimplicialComplex":
        """The subcomplex on face-closed cells given in canonical order; unchecked."""
        sub = object.__new__(SimplicialComplex)
        sub._index(self._faces, order, self if self._root is None else self._root)
        return sub

    @property
    def _cofaces(self) -> dict[Simplex, tuple[Simplex, ...]]:
        """The root's coface tuples, each in canonical order, built on first
        use by whichever complex of the root's family reads them first: most
        never do.  A subcomplex's cell may have cofaces outside it here."""
        root = self if self._root is None else self._root
        if root._coface_tuples is None:
            cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in root._order}
            for s in root._order:
                for t in root._faces[s]:
                    cofaces[t].append(s)
            root._coface_tuples = {s: tuple(c) for s, c in cofaces.items()}
        return root._coface_tuples

    @property
    def _incidence(self) -> "CellIndex":
        """The integer view, built on first use (see ``CellIndex``): only
        ``random_morse`` and ``search_index`` read it."""
        if self._ids is None:
            self._ids = CellIndex(self)
        return self._ids

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._cells

    @property
    def dim(self) -> int:
        return len(self._order[-1]) - 1 if self._order else -1

    @property
    def vertices(self) -> tuple[Simplex, ...]:
        return self.cells_of_dim(0)

    def cells_of_dim(self, p: int) -> tuple[Simplex, ...]:
        order = self._order  # sorted by dimension, so each dimension is one slice
        return order[bisect_left(order, p + 1, key=len) : bisect_right(order, p + 1, key=len)]

    def faces_of(self, s) -> tuple[Simplex, ...]:
        return self._faces[self._member(s)]

    def cofaces_of(self, s) -> tuple[Simplex, ...]:
        cells = self._cells
        return tuple([c for c in self._cofaces[self._member(s)] if c in cells])

    def _member(self, s) -> Simplex:
        """``s`` as a cell of the complex, in any vertex order; else ``SimplexNotInComplex``."""
        s = as_simplex(s)
        if s not in self._cells:
            raise SimplexNotInComplex(f"{s!r} is not in the complex")
        return s

    def _own(self, s: Simplex) -> Simplex:
        """The complex's own object for its cell ``s``, found by bisecting the
        canonical order: cells built by a caller are equal to it, not it."""
        return self._order[bisect_left(self._order, simplex_key(s), key=simplex_key)]

    def closure_of(self, cells: Iterable) -> "SimplicialComplex":
        """The subcomplex generated by the given member cells."""
        return self._sub(self._closure(cells))

    def _closure(self, cells: Iterable) -> set[Simplex]:
        """The cells of ``closure_of(cells)``, without building the subcomplex."""
        stack = list(map(self._member, cells))
        out: set[Simplex] = set()
        while stack:
            s = stack.pop()
            if s in out:
                continue
            out.add(s)
            stack.extend(self._faces[s])
        return out

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self._order)

    def __contains__(self, item) -> bool:
        return item in self._cells

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._cells == other._cells

    def __hash__(self) -> int:
        return hash(self._cells)  # a frozenset caches its own hash

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self._cells)} cells, dim {self.dim})"


def build_complex(simplices: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Face closure of the given simplices; idempotent on face-closed input."""
    cells = list(map(as_simplex, simplices))
    if not cells:
        raise EmptyInput("cannot build a complex from an empty list of simplices")
    return SimplicialComplex._from_cells(cells)


def _face_closure(cells: Iterable[Simplex]) -> tuple[dict, tuple[Simplex, ...]]:
    """The face map and canonical order of the face closure of the cells.

    The closure is taken one dimension at a time, top down, in one pass of
    vertex combinations per cell: each face is looked up first and becomes
    a new cell only on a miss, so every face tuple holds the complex's own
    cells.
    """
    own: dict[tuple, Simplex] = {}
    layers: dict[int, list[Simplex]] = {}
    for s in cells:
        if s not in own:
            own[s] = s
            layers.setdefault(len(s), []).append(s)
    faces: dict[Simplex, tuple[Simplex, ...]] = {}
    for k in range(max(layers, default=0), 1, -1):
        below = layers.setdefault(k - 1, [])
        for s in layers[k]:
            row = []
            for t in itertools.combinations(s, k - 1):
                if t not in own:
                    own[t] = _trusted(t)
                    below.append(own[t])
                row.append(own[t])
            faces[s] = tuple(row)
    faces.update(dict.fromkeys(layers.get(1, ()), ()))
    # Canonical order is by dimension, then vertex order.
    return faces, tuple(itertools.chain.from_iterable(sorted(layers[k]) for k in sorted(layers)))


def is_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    return sub.simplices <= ambient.simplices


class CellIndex:
    """A complex's cells as positions, and bitmask states over them: cell and
    bit ``i`` are the ``i``-th cell in canonical order.

    The complex's one integer view, built on first use (``_incidence``).
    ``cells`` is the complex's canonical order; ``position`` maps each cell
    to its position; ``faces[i]`` and ``cofaces[i]`` hold the positions of
    cell ``i``'s codimension-1 faces and cofaces, each in canonical order.
    Canonical order is ``simplex_key`` order, so comparing positions
    compares cells by dimension, then vertices.  ``face_mask``,
    ``coface_mask`` and ``full`` are ``None`` until ``search_index`` has
    checked the enumeration bound and built them, since they take space
    quadratic in the number of cells.

    The one search index of the exhaustive layer: collapse search, collapse
    reachability, the collapsible subcomplexes and the cover search behind
    discrete category.  Two loops walk the states: ``_states`` lists the
    set of states reached by pairs that flip two bits, for ``reachable`` (by
    collapses) and ``collapsible`` (by anti-collapses), and
    ``collapse_search`` is a plain depth-first search for one witness, the
    builder of every exhaustive collapse witness.
    The answers a caller reads again are kept: the cover family
    (``maximal_collapsible``), each state's reachable set (``reachable``),
    least cover (``cover``) and category (``category``), so repeated
    queries against one complex stay cheap, and the complex keeps its
    index (see ``search_index``).  ``collapsible`` is read once for the
    cover family and returns a fresh set, which is not kept: it holds every
    collapsible state.

    Each exhaustive question is asked once, by a lemma: a complex that
    collapses onto a vertex collapses onto each of its vertices.  By
    induction on the collapse: a first step whose free face is not a vertex
    keeps the vertices; a first step that removes a free vertex ``u`` with
    its edge ``ux`` leaves a complex that collapses onto each of its
    vertices, by steps that stay elementary with ``u`` and ``ux`` present
    (``ux`` is a coface of ``u`` and ``x`` only), so collapsing onto ``x``
    and then removing ``(x, ux)`` leaves ``u``.  So the subcomplexes that
    collapse onto a vertex are the collapsible ones holding it, and one walk
    (``collapsible``) serves the cover family and every vertex's maximal
    collapsible subcomplexes, which the basin oracle reads.
    """

    __slots__ = (
        "cells", "position", "faces", "cofaces", "face_mask", "coface_mask", "full",
        "_reachable", "_maximal", "_cover", "_category",
    )

    def __init__(self, complex: SimplicialComplex):
        self.cells = complex._order
        self.position = position = dict(zip(self.cells, itertools.count()))
        self.faces = [tuple(map(position.__getitem__, complex._faces[c])) for c in self.cells]
        self.cofaces = [[] for _ in self.faces]
        for i, ids in enumerate(self.faces):
            for j in ids:
                self.cofaces[j].append(i)
        self.face_mask = self.coface_mask = self.full = None  # see ``search_index``
        self._reachable: dict[int, set[int]] = {}
        self._maximal: list[int] | None = None
        self._cover: dict[int, tuple[int, ...]] = {}
        self._category: dict[int, tuple[int, int, int]] = {}

    def mask_of(self, cells: Iterable[Simplex]) -> int:
        mask = 0
        for c in cells:
            mask |= 1 << self.position[c]
        return mask

    def cells_of(self, mask: int) -> list[Simplex]:
        return [self.cells[i] for i in _bits(mask)]

    def pairs_of(self, index_pairs: Iterable[tuple[int, int]]) -> tuple:
        return tuple((self.cells[i], self.cells[j]) for i, j in index_pairs)

    @staticmethod
    def maximal(masks: Iterable[int]) -> list[int]:
        """The inclusion-maximal masks, largest first, then by value."""
        out: list[int] = []
        for m in sorted(masks, key=lambda m: (-m.bit_count(), m)):
            if not any(m & o == m for o in out):
                out.append(m)
        return out

    @staticmethod
    def _states(starts: Iterable[int], moves) -> set[int]:
        """Every state reached from the starts by the pairs ``moves(state)`` yields.

        One LIFO walk for collapses and anti-collapses alike: a pair flips its
        two bits, which a collapse holds and an anti-collapse lacks.  It lists
        states only; a witness comes from ``collapse_search``.
        """
        seen = set(starts)
        stack = list(seen)
        while stack:
            cur = stack.pop()
            for pair in moves(cur):
                nxt = cur ^ (1 << pair[0] | 1 << pair[1])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def collapsible(self) -> set[int]:
        """Every collapsible subcomplex, as masks, in a fresh set on each
        call: only ``maximal_collapsible`` reads it, and it keeps its family.

        One walk by elementary anti-collapses from all the vertices at once:
        the subcomplexes that collapse onto some vertex.  Every state reached
        is face-closed: a cell ``i`` outside it has no coface in it, and has
        all its faces in it once the other faces of the coface ``j`` are
        (they contain those faces).
        """
        face_mask, coface_mask = self.face_mask, self.coface_mask

        def expansions(cur: int) -> Iterator[tuple[int, int]]:
            for i in range(len(self.cells)):
                if not cur >> i & 1:
                    for j in _bits(coface_mask[i]):
                        if not face_mask[j] & ~(cur | 1 << i):
                            yield i, j

        vertices = [1 << i for i, c in enumerate(self.cells) if len(c) == 1]
        return self._states(vertices, expansions)

    def free_pairs(self, mask: int, keep: int = 0) -> list[tuple[int, int]]:
        """``(free, coface)`` pairs of the state avoiding ``keep``, by ascending free cell."""
        coface_mask = self.coface_mask
        out = []
        for i in _bits(mask & ~keep):
            cof = coface_mask[i] & mask
            # exactly one coface in the state, and not one to keep
            if cof and not cof & (cof - 1 | keep):
                out.append((i, cof.bit_length() - 1))
        return out

    def collapse_search(self, mask: int, goal: int, key=None) -> tuple | None:
        """Depth-first collapse from ``mask`` onto its substate ``goal``, which
        no step touches; ``None`` if none exists.

        Free pairs outside the goal are tried in ascending ``key`` order
        (canonical without one).  Each state is entered once: collapses only
        remove cells, so a state entered before and left is one from which
        the goal is out of reach, and the answer is exact.
        """
        entered = {mask}
        # (state, its untried pairs, the pair that entered it) per open state
        stack = [(mask, iter(sorted(self.free_pairs(mask, goal), key=key)), None)]
        while stack:
            state, pairs, _ = stack[-1]
            if state == goal:
                return tuple(pair for _, _, pair in stack[1:])
            for pair in pairs:
                nxt = state ^ (1 << pair[0] | 1 << pair[1])
                if nxt not in entered:
                    entered.add(nxt)
                    stack.append((nxt, iter(sorted(self.free_pairs(nxt, goal), key=key)), pair))
                    break
            else:
                stack.pop()
        return None

    def reachable(self, mask: int) -> set[int]:
        """Every state reachable from the mask by elementary collapses, the
        mask included; memoised, so callers must not change the set."""
        if mask not in self._reachable:
            self._reachable[mask] = self._states([mask], self.free_pairs)
        return self._reachable[mask]

    def maximal_collapsible(self) -> list[int]:
        """Inclusion-maximal collapsible subcomplex masks (cover family)."""
        if self._maximal is None:
            self._maximal = self.maximal(self.collapsible())
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

    def cover(self, mask: int) -> tuple[int, ...]:
        """The first cover of the state by fewest family masks, found by
        iterative deepening over ``cover_witness``; memoised."""
        found = self._cover.get(mask)
        if found is None:
            for size in range(1, len(self.cells) + 2):
                found = self.cover_witness(mask, size)
                if found is not None:
                    break
            else:
                raise ProofFailure("cover search exceeded the family size")
            self._cover[mask] = found
        return found

    def category(self, mask: int) -> tuple[int, int, int]:
        """The least ``(precat, cell count, state)`` over the states the mask
        collapses to, where a state's precat is the size of its ``cover``
        minus one; the first entry is the discrete category of the mask."""
        best = self._category.get(mask)
        if best is None:
            best = min((len(self.cover(m)) - 1, m.bit_count(), m) for m in self.reachable(mask))
            self._category[mask] = best
        return best


def search_index(complex: SimplicialComplex, max_enum: int) -> CellIndex:
    """The complex's integer view, with its masks built on first use.

    The guard of the exhaustive searches, at most ``max_enum`` cells, runs on
    every call, so a kept index never bypasses the bound, and the masks are
    only ever built for a complex within it.
    """
    if len(complex) > max_enum:
        raise TooLargeForEnumeration(len(complex), max_enum)
    index = complex._incidence
    if index.full is None:  # set last, so an interrupted build is redone
        index.face_mask = [sum(1 << j for j in ids) for ids in index.faces]
        index.coface_mask = [sum(1 << j for j in ids) for ids in index.cofaces]
        index.full = (1 << len(index.cells)) - 1
    return index


def euler_characteristic(complex: SimplicialComplex) -> int:
    return sum((-1) ** p * len(complex.cells_of_dim(p)) for p in range(complex.dim + 1))


def _negative_cells(layers: list, faces: Mapping) -> set[Simplex]:
    """The negative cells of a filtration: those whose boundary column, reduced
    left to right over the two-element field, is non-zero.

    ``layers[p]`` lists the ``p``-cells in filtration order, an order that
    puts every face before its cofaces; row ``i`` of a ``p``-column is the
    ``i``-th ``(p - 1)``-cell.  Dimensions are reduced top down with clearing
    (Chen–Kerber 2011): the lowest row of a reduced column is a cell whose
    own column reduces to zero, so it is skipped one dimension down.  A
    prefix of the order is a subcomplex whose Betti number in dimension ``p``
    is its positive ``p``-cells less its negative ``(p + 1)``-cells.
    """
    negative, cleared = set(), set()
    for p in range(len(layers) - 1, 0, -1):
        rows = layers[p - 1]
        row_index = dict(zip(rows, itertools.count()))
        pivots: dict[int, int] = {}
        for cell in layers[p]:
            if cell in cleared:
                continue
            vec = 0
            for face in faces[cell]:
                vec |= 1 << row_index[face]
            while vec:
                low = vec.bit_length() - 1
                if low in pivots:
                    vec ^= pivots[low]
                else:
                    pivots[low] = vec
                    negative.add(cell)
                    break
        cleared = {rows[i] for i in pivots}
    return negative


def betti_numbers_mod2(complex: SimplicialComplex) -> list[int]:
    """Betti numbers over the two-element field, one entry per dimension.

    One ``_negative_cells`` reduction over the canonical order: the rank of
    the ``p``-th boundary matrix is the number of negative ``p``-cells, so
    the result is exact.
    """
    layers = [complex.cells_of_dim(p) for p in range(complex.dim + 1)]
    negative = _negative_cells(layers, complex._faces)
    ranks = [len(negative.intersection(layer)) for layer in layers] + [0]
    return [len(layer) - ranks[p] - ranks[p + 1] for p, layer in enumerate(layers)]


def component_count(complex: SimplicialComplex) -> int:
    """Number of connected components of the underlying graph."""
    parent: dict[Simplex, Simplex] = {v: v for v in complex.cells_of_dim(0)}

    def find(x: Simplex) -> Simplex:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in complex.cells_of_dim(1):
        a = find(_trusted(edge[:1]))
        b = find(_trusted(edge[1:]))
        if a != b:
            parent[a] = b
    return len({find(v) for v in complex.cells_of_dim(0)})


def is_connected(complex: SimplicialComplex) -> bool:
    return component_count(complex) <= 1


@dataclass(frozen=True)
class Chain:
    """An integer chain: same-dimension simplices with non-zero coefficients.

    The zero chain is canonicalised to dimension -1 so that zero chains of
    any origin compare equal.
    """

    dim: int
    coeffs: Mapping[Simplex, int]

    def __post_init__(self):
        clean: dict[Simplex, int] = {}
        for s, c in self.coeffs.items():
            s = as_simplex(s)
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
            if c == 0:
                continue
            if s.dim != self.dim:
                raise ValueError(f"{s!r} has dimension {s.dim}, chain has dimension {self.dim}")
            clean[s] = c
        object.__setattr__(self, "coeffs", clean)
        if not clean:
            object.__setattr__(self, "dim", -1)

    @staticmethod
    def zero() -> "Chain":
        return Chain(-1, {})

    @staticmethod
    def unit(s) -> "Chain":
        s = as_simplex(s)
        return Chain(s.dim, {s: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> frozenset[Simplex]:
        return frozenset(self.coeffs)

    def scaled(self, k: int) -> "Chain":
        """The chain times ``k``, which must be an integer and not a bool, as
        a coefficient must, whatever the chain; else ``ValueError``."""
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"coefficients must be integers, got {k!r}")
        if k == 0 or not self.coeffs:
            return Chain.zero()
        if k == 1:
            return self
        return Chain(self.dim, {s: k * c for s, c in self.coeffs.items()})

    def __add__(self, other: "Chain") -> "Chain":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        if self.dim != other.dim:
            raise ValueError(f"cannot add chains of dimensions {self.dim} and {other.dim}")
        acc = dict(self.coeffs)
        for s, c in other.coeffs.items():
            acc[s] = acc.get(s, 0) + c
        return Chain(self.dim, acc)

    def __neg__(self) -> "Chain":
        return self.scaled(-1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)


def boundary(chain: Chain) -> Chain:
    """Alternating-sign simplicial boundary; zero on vertices and on zero."""
    if chain.is_zero or chain.dim == 0:
        return Chain.zero()
    acc: dict[Simplex, int] = {}
    for s, coef in chain.coeffs.items():
        sign = 1
        for i in range(len(s)):
            face = _trusted(s[:i] + s[i + 1 :])
            acc[face] = acc.get(face, 0) + coef * sign
            sign = -sign
    return Chain(chain.dim - 1, acc)
