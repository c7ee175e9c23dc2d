"""Finite simplicial complexes, integer chains, and a mod-2 homology oracle.

Everything is immutable after construction.  A complex precomputes its
codimension-1 incidence in both directions, so the face and coface queries
sitting in the inner loops of the Morse machinery are dictionary lookups.
The canonical orientation of every simplex is the increasing vertex order;
all boundary signs derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    EmptyInput,
    MalformedSimplex,
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
        """The codimension-1 faces, one per omitted vertex."""
        if len(self) == 1:
            return ()
        return tuple(Simplex(self[:i] + self[i + 1 :]) for i in range(len(self)))

    def __repr__(self) -> str:
        return f"Simplex{tuple(self)!r}"


def simplex_key(s: Simplex) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: dimension first, then vertex order."""
    return (len(s), tuple(s))


def as_simplex(s) -> Simplex:
    return s if isinstance(s, Simplex) else Simplex(s)


def incidence_sign(coface: Simplex, face: Simplex) -> int:
    """Sign of ``face`` in the boundary of ``coface`` (increasing-vertex orientation)."""
    omitted = set(coface) - set(face)
    if len(coface) != len(face) + 1 or len(omitted) != 1:
        raise ValueError(f"{face!r} is not a codimension-1 face of {coface!r}")
    i = coface.index(next(iter(omitted)))
    return -1 if i % 2 else 1


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimplicialComplex:
    """A finite face-closed set of simplices with two-way incidence indices."""

    __slots__ = ("_cells", "_order", "_faces", "_cofaces", "_by_dim", "_hash")

    def __init__(self, simplices: Iterable[Iterable[int]]):
        cells = frozenset(as_simplex(s) for s in simplices)
        faces: dict[Simplex, tuple[Simplex, ...]] = {}
        cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in cells}
        for s in cells:
            fs = s.faces()
            for t in fs:
                if t not in cells:
                    raise MalformedSimplex(
                        f"not face-closed: {t!r} (a face of {s!r}) is missing"
                    )
            faces[s] = tuple(sorted(fs))
        for s in cells:
            for t in faces[s]:
                cofaces[t].append(s)
        self._cells = cells
        self._order = tuple(sorted(cells, key=simplex_key))
        self._faces = faces
        self._cofaces = {s: tuple(sorted(c)) for s, c in cofaces.items()}
        by_dim: dict[int, list[Simplex]] = {}
        for s in self._order:
            by_dim.setdefault(s.dim, []).append(s)
        self._by_dim = {d: tuple(v) for d, v in by_dim.items()}
        self._hash = hash(self._cells)

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
        return SimplicialComplex(out)

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self._order)

    def __contains__(self, item) -> bool:
        return item in self._cells

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._cells == other._cells

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self._cells)} cells, dim {self.dim})"


def build_complex(simplices: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Face closure of the given simplices; idempotent on face-closed input."""
    listed = [as_simplex(s) for s in simplices]
    if not listed:
        raise EmptyInput("cannot build a complex from an empty list of simplices")
    closed: set[Simplex] = set()
    stack = listed
    while stack:
        s = stack.pop()
        if s in closed:
            continue
        closed.add(s)
        stack.extend(s.faces())
    return SimplicialComplex(closed)


def is_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    return sub.simplices <= ambient.simplices


class CellIndex:
    """Bitmask states over one complex: bit ``i`` is the ``i``-th cell in canonical order."""

    __slots__ = ("cells", "position", "face_mask", "coface_lists", "full")

    def __init__(self, complex: SimplicialComplex):
        self.cells = list(complex)
        self.position = {c: i for i, c in enumerate(self.cells)}
        self.face_mask = [self.mask_of(complex.faces_of(c)) for c in self.cells]
        self.coface_lists = [[self.position[t] for t in complex.cofaces_of(c)] for c in self.cells]
        self.full = (1 << len(self.cells)) - 1

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

    def free_pairs(self, mask: int, keep: int = 0) -> list[tuple[int, int]]:
        """``(free, coface)`` pairs of the state avoiding ``keep``, by ascending free cell."""
        out = []
        for i in _bits(mask & ~keep):
            cof = [j for j in self.coface_lists[i] if mask >> j & 1]
            if len(cof) == 1 and not keep >> cof[0] & 1:
                out.append((i, cof[0]))
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


def check_enumerable(complex: SimplicialComplex, max_enum: int) -> None:
    """Guard of the exhaustive searches: at most ``max_enum`` cells."""
    if len(complex) > max_enum:
        raise TooLargeForEnumeration(len(complex), max_enum)


def subcomplexes_of(
    complex: SimplicialComplex, max_enum: int = DEFAULT_ENUM_BOUND
) -> Iterator[SimplicialComplex]:
    """Every face-closed subset (the empty one included), in a fixed order.

    Brute-force enumeration over all subsets; guarded by ``max_enum``.
    """
    check_enumerable(complex, max_enum)
    index = CellIndex(complex)
    for mask in range(1 << len(complex)):
        if index.is_closed(mask):
            yield SimplicialComplex(index.cells_of(mask))


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
        a = find(Simplex((edge[0],)))
        b = find(Simplex((edge[1],)))
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
        if k == 0 or self.is_zero:
            return Chain.zero()
        return Chain(self.dim, {s: k * c for s, c in self.coeffs.items()})

    def __add__(self, other: "Chain") -> "Chain":
        if self.is_zero:
            return other
        if other.is_zero:
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
            face = Simplex(s[:i] + s[i + 1 :])
            acc[face] = acc.get(face, 0) + coef * sign
            sign = -sign
    return Chain(chain.dim - 1, acc)
