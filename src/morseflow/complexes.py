"""Finite simplicial complexes, integer chains, and a mod-2 homology oracle.

A complex's cells never change after construction.  It precomputes its
codimension-1 incidence in both directions, so the face and coface queries
sitting in the inner loops of the Morse machinery are dictionary lookups.
The exhaustive searches share one ``CellIndex`` per complex, which
``search_index`` builds on first use and the complex keeps with its memos;
it changes no result.
The canonical orientation of every simplex is the increasing vertex order;
all boundary signs derive from it.

The public constructors check their input: ``Simplex(...)``, ``Chain(...)``
and ``SimplicialComplex(...)`` raise on anything malformed.  Data derived
from objects already checked is valid by construction, so it is built
through private constructors that skip the checks: ``_trusted`` for a face
sliced out of a simplex or a vertex read from one, ``Chain._make`` for the
results of chain arithmetic, ``SimplicialComplex._sub`` for a face-closed
subset of a complex, and ``SimplicialComplex._from_faces`` for the face
closure of a face map ``cell -> cell.faces()``.  Two face maps go there:
the one ``build_complex`` makes of its listed simplices, and the one
``parse_scx`` makes of the lines of a ``.scx`` file, which is also its
duplicate check.  They are used on such data only.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

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
        verts = tuple(sorted(vertices))
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

    __slots__ = ("_cells", "_order", "_faces", "_cofaces", "_by_dim", "_search")

    def __init__(self, simplices: Iterable[Iterable[int]]):
        cells = frozenset(as_simplex(s) for s in simplices)
        faces: dict[Simplex, tuple[Simplex, ...]] = {}
        for s in cells:
            fs = s.faces()
            for t in reversed(fs):  # the face without the lowest vertex first
                if t not in cells:
                    raise MalformedSimplex(
                        f"not face-closed: {t!r} (a face of {s!r}) is missing"
                    )
            faces[s] = fs
        self._index(faces)

    @classmethod
    def _from_faces(cls, faces: dict[Simplex, tuple[Simplex, ...]]) -> "SimplicialComplex":
        """The complex generated by the keys, each mapped to its ``faces()``; unchecked.

        One walk adds the missing faces to ``faces``, which the complex then
        keeps; on a face-closed map it adds nothing and calls no ``faces()``.
        """
        stack = [t for fs in faces.values() for t in fs if t not in faces]
        while stack:
            s = stack.pop()
            if s not in faces:
                faces[s] = fs = s.faces()
                stack.extend(fs)
        complex = object.__new__(cls)
        complex._index(faces)
        return complex

    def _index(self, faces: dict[Simplex, tuple[Simplex, ...]], order: tuple | None = None) -> None:
        """Fill every slot from a face map and, if known, its canonical order."""
        if order is None:
            # Canonical order is by dimension, then vertex order.
            order = tuple(sorted(sorted(faces), key=len))
        # Built from the canonical order, so the set iterates alike however
        # the face map was filled.
        self._cells = frozenset(order)
        self._order = order
        self._faces = faces
        self._cofaces = _coface_map(order, faces)
        self._by_dim = _group_by_dim(order)
        self._search = None

    def _sub(self, cells: set[Simplex]) -> "SimplicialComplex":
        """The subcomplex on a face-closed subset of the cells; unchecked.

        Reuses this complex's face tuples and canonical order, so costs one
        pass over this complex's cells and one over the subcomplex's faces.
        """
        sub = object.__new__(SimplicialComplex)
        # Tuples from lists, not generators: ``tuple`` over-allocates a
        # generator's items and shrinks the result, which raised peak memory.
        order = tuple([s for s in self._order if s in cells])
        sub._index({s: self._faces[s] for s in order}, order)
        return sub

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._cells

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    @property
    def vertices(self) -> tuple[Simplex, ...]:
        return self.cells_of_dim(0)

    def cells_of_dim(self, p: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(p, ())

    def faces_of(self, s) -> tuple[Simplex, ...]:
        try:
            return self._faces[s]
        except KeyError:
            raise SimplexNotInComplex(f"{s!r} is not in the complex") from None

    def cofaces_of(self, s) -> tuple[Simplex, ...]:
        try:
            return self._cofaces[s]
        except KeyError:
            raise SimplexNotInComplex(f"{s!r} is not in the complex") from None

    def closure_of(self, cells: Iterable) -> "SimplicialComplex":
        """The subcomplex generated by the given member cells."""
        return self._sub(self._closure(cells))

    def _closure(self, cells: Iterable) -> set[Simplex]:
        """The cells of ``closure_of(cells)``, without building the subcomplex."""
        stack = []
        for c in cells:
            c = as_simplex(c)
            if c not in self._cells:
                raise SimplexNotInComplex(f"{c!r} is not in the complex")
            stack.append(c)
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
    faces: dict[Simplex, tuple[Simplex, ...]] = {}
    for s in simplices:
        s = as_simplex(s)
        if s not in faces:
            faces[s] = s.faces()
    if not faces:
        raise EmptyInput("cannot build a complex from an empty list of simplices")
    return SimplicialComplex._from_faces(faces)


def _coface_map(
    order: tuple[Simplex, ...], faces: dict[Simplex, tuple[Simplex, ...]]
) -> dict[Simplex, tuple[Simplex, ...]]:
    """The coface tuples of a face map, each in canonical order as ``order`` is."""
    cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in order}
    for s in order:
        for t in faces[s]:
            cofaces[t].append(s)
    return {s: tuple(c) for s, c in cofaces.items()}


def _group_by_dim(order: tuple[Simplex, ...]) -> dict[int, tuple[Simplex, ...]]:
    """``order`` is sorted by dimension, so each dimension is one slice of it."""
    by_dim: dict[int, tuple[Simplex, ...]] = {}
    start = 0
    while start < len(order):
        size = len(order[start])
        end = bisect_right(order, size, start, key=len)
        by_dim[size - 1] = order[start:end]
        start = end
    return by_dim


def is_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    return sub.simplices <= ambient.simplices


class CellIndex:
    """Bitmask states over one complex: bit ``i`` is the ``i``-th cell in canonical order.

    The one search index of the exhaustive layer: collapse search,
    anti-collapse expansion, collapse reachability, collapsibility and the
    cover search behind discrete category.  Every expensive answer is
    memoised, so repeated queries against one complex stay cheap; the complex
    keeps its index (see ``search_index``).  The cover family is read off the
    anti-collapse walks from the vertices, which the basin oracle shares.
    """

    __slots__ = (
        "cells", "position", "face_mask", "coface_mask", "full",
        "_expansions", "_reachable", "_witness", "_maximal", "_precat", "_category",
    )

    def __init__(self, complex: SimplicialComplex):
        self.cells = list(complex)
        self.position = {c: i for i, c in enumerate(self.cells)}
        self.face_mask = [self.mask_of(complex.faces_of(c)) for c in self.cells]
        self.coface_mask = [self.mask_of(complex.cofaces_of(c)) for c in self.cells]
        self.full = (1 << len(self.cells)) - 1
        self._expansions: dict[int, set[int]] = {}
        self._reachable: dict[int, dict[int, tuple | None]] = {}
        self._witness: dict[int, tuple | None] = {}
        self._maximal: list[int] | None = None
        self._precat: dict[int, int] = {}
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

    def is_closed(self, mask: int) -> bool:
        """Whether the state is face-closed, i.e. a subcomplex."""
        return not any(self.face_mask[i] & ~mask for i in _bits(mask))

    @staticmethod
    def maximal(masks: Iterable[int]) -> list[int]:
        """The inclusion-maximal masks, largest first, then by value."""
        out: list[int] = []
        for m in sorted(masks, key=lambda m: (-m.bit_count(), m)):
            if not any(m & o == m for o in out):
                out.append(m)
        return out

    def closure_masks(self) -> list[int]:
        """Per cell, the mask of the subcomplex it generates."""
        closure: list[int] = []
        for i, faces in enumerate(self.face_mask):
            mask = 1 << i
            for j in _bits(faces):  # faces come first in canonical order
                mask |= closure[j]
            closure.append(mask)
        return closure

    def expansions(self, start: int) -> set[int]:
        """Every state reachable from the subcomplex ``start`` by elementary
        anti-collapses, i.e. the subcomplexes that collapse onto it; memoised,
        so callers must not change the set.

        ``start`` must be face-closed, so every state reached is too: a cell
        ``i`` outside it has no coface in it, and has all its faces in it once
        the other faces of the coface ``j`` are (they contain those faces).
        """
        seen = self._expansions.get(start)
        if seen is not None:
            return seen
        n = len(self.cells)
        face_mask, coface_mask = self.face_mask, self.coface_mask
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for i in range(n):
                if cur >> i & 1:
                    continue
                for j in _bits(coface_mask[i]):
                    if face_mask[j] & ~(cur | 1 << i):
                        continue
                    nxt = cur | 1 << i | 1 << j
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        self._expansions[start] = seen
        return seen

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

    def collapse_search(
        self, mask: int, is_goal: Callable[[int], bool], memo: dict, keep: int = 0, key=None
    ) -> tuple | None:
        """Depth-first collapse from ``mask`` to a goal state; ``None`` if none exists.

        Free pairs avoiding ``keep`` are tried in ascending ``key`` order
        (canonical without one).  ``memo`` maps decided states to answers and
        may be shared by searches with the same goal, ``keep`` and ``key``.
        """
        frames: list[list] = []  # [state, untried pairs, pair tried] per open state
        state = mask
        while True:
            if state in memo:
                answer = memo[state]
            elif is_goal(state):
                answer = memo[state] = ()
            else:
                pairs = self.free_pairs(state, keep)
                if key is not None:
                    pairs.sort(key=key)
                frames.append([state, iter(pairs), None])
                answer = None  # a fresh frame moves on to its first pair
            while frames:
                frame = frames[-1]
                if answer is None:
                    frame[2] = next(frame[1], None)
                    if frame[2] is not None:
                        state = frame[0] & ~(1 << frame[2][0] | 1 << frame[2][1])
                        break
                    memo[frame[0]] = None
                else:
                    answer = memo[frame[0]] = (frame[2],) + answer
                frames.pop()
            else:
                return answer

    def collapse_witness(self, mask: int) -> tuple | None:
        """Index pairs collapsing the state to a single vertex, or None."""
        cells = self.cells

        def is_vertex(state: int) -> bool:
            return state.bit_count() == 1 and len(cells[state.bit_length() - 1]) == 1

        return self.collapse_search(mask, is_vertex, self._witness)

    def reachable(self, mask: int) -> dict[int, tuple | None]:
        """Every state reachable from the mask by elementary collapses, mapped to
        ``(previous state, pair)`` of its first discovery (the mask to ``None``)."""
        parents = self._reachable.get(mask)
        if parents is not None:
            return parents
        parents = {mask: None}
        stack = [mask]
        while stack:
            cur = stack.pop()
            for pair in self.free_pairs(cur):
                nxt = cur & ~(1 << pair[0] | 1 << pair[1])
                if nxt not in parents:
                    parents[nxt] = (cur, pair)
                    stack.append(nxt)
        self._reachable[mask] = parents
        return parents

    def collapse_path(self, start: int, goal: int) -> tuple:
        """One witness pair sequence from start to goal (both states)."""
        parents = self.reachable(start)
        if goal not in parents:
            raise ProofFailure("collapse goal is not reachable")
        path = []
        while parents[goal] is not None:
            goal, pair = parents[goal]
            path.append(pair)
        return tuple(reversed(path))

    def maximal_collapsible(self) -> list[int]:
        """Inclusion-maximal collapsible subcomplex masks (cover family)."""
        if self._maximal is None:
            vertices = [1 << i for i, c in enumerate(self.cells) if len(c) == 1]
            self._maximal = self.maximal(set().union(*map(self.expansions, vertices)))
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
            if size > len(self.cells) + 1:
                raise ProofFailure("cover search exceeded the family size")

    def category(self, mask: int) -> tuple[int, int, int]:
        """The least ``(precat, cell count, state)`` over the states the mask
        collapses to; its first entry is the discrete category of the mask."""
        best = self._category.get(mask)
        if best is None:
            best = min((self.precat(m), m.bit_count(), m) for m in self.reachable(mask))
            self._category[mask] = best
        return best


def search_index(complex: SimplicialComplex, max_enum: int) -> CellIndex:
    """The complex's search index, built on first use.

    The guard of the exhaustive searches, at most ``max_enum`` cells, runs on
    every call, so a kept index never bypasses the bound.
    """
    if len(complex) > max_enum:
        raise TooLargeForEnumeration(len(complex), max_enum)
    if complex._search is None:
        complex._search = CellIndex(complex)
    return complex._search


def subcomplexes_of(
    complex: SimplicialComplex, max_enum: int = DEFAULT_ENUM_BOUND
) -> Iterator[SimplicialComplex]:
    """Every face-closed subset (the empty one included), in a fixed order.

    Brute-force enumeration over all subsets; guarded by ``max_enum``.
    """
    index = search_index(complex, max_enum)
    for mask in range(1 << len(complex)):
        if index.is_closed(mask):
            yield complex._sub(set(index.cells_of(mask)))


def euler_characteristic(complex: SimplicialComplex) -> int:
    return sum((-1) ** p * len(complex.cells_of_dim(p)) for p in range(complex.dim + 1))


def betti_numbers_mod2(complex: SimplicialComplex) -> list[int]:
    """Betti numbers over the two-element field, one entry per dimension.

    Ranks of the boundary matrices are computed by bitset elimination, so the
    result is exact.
    """
    if len(complex) == 0:
        return []
    top = complex.dim
    ranks = [0] * (top + 2)
    for p in range(1, top + 1):
        row_index = {s: i for i, s in enumerate(complex.cells_of_dim(p - 1))}
        pivots: dict[int, int] = {}
        for cell in complex.cells_of_dim(p):
            vec = 0
            for face in complex.faces_of(cell):
                vec |= 1 << row_index[face]
            while vec:
                low = vec.bit_length() - 1
                if low in pivots:
                    vec ^= pivots[low]
                else:
                    pivots[low] = vec
                    break
        ranks[p] = len(pivots)
    return [len(complex.cells_of_dim(p)) - ranks[p] - ranks[p + 1] for p in range(top + 1)]


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

    @classmethod
    def _make(cls, dim: int, coeffs: dict[Simplex, int]) -> "Chain":
        """A chain from ``Simplex`` keys of dimension ``dim`` and integer values, unchecked.

        Zero coefficients are dropped and the zero chain gets dimension -1,
        as in the checked constructor.
        """
        chain = object.__new__(cls)
        clean = {s: c for s, c in coeffs.items() if c}
        object.__setattr__(chain, "dim", dim if clean else -1)
        object.__setattr__(chain, "coeffs", clean)
        return chain

    @staticmethod
    def zero() -> "Chain":
        return Chain._make(-1, {})

    @staticmethod
    def unit(s) -> "Chain":
        s = as_simplex(s)
        return Chain._make(s.dim, {s: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> frozenset[Simplex]:
        return frozenset(self.coeffs)

    def scaled(self, k: int) -> "Chain":
        if k == 0 or not self.coeffs:
            return Chain.zero()
        if k == 1:
            return self
        if not isinstance(k, int):
            raise ValueError(f"coefficients must be integers, got {k!r}")
        return Chain._make(self.dim, {s: k * c for s, c in self.coeffs.items()})

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
        return Chain._make(self.dim, acc)

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
    return Chain._make(chain.dim - 1, acc)
