"""Shared fixtures: small hand-verified complexes, random instance generators
and a reference ``.scx`` reader."""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter

import pytest

from morseflow import (
    Chain,
    MorseFunction,
    Simplex,
    SimplicialComplex,
    boundary,
    build_complex,
    random_morse,
    validate,
)
from morseflow.errors import AcyclicityBug, MalformedSimplex, ParseError


@pytest.fixture(scope="session")
def point() -> SimplicialComplex:
    return build_complex([(0,)])


@pytest.fixture(scope="session")
def edge() -> SimplicialComplex:
    return build_complex([(0, 1)])


@pytest.fixture(scope="session")
def p3() -> SimplicialComplex:
    """Path on vertices 1, 2, 3."""
    return build_complex([(1, 2), (2, 3)])


@pytest.fixture(scope="session")
def p3_function(p3) -> MorseFunction:
    """Critical cells: vertices 1 and 3 and the edge 23; pair (2, 12)."""
    return validate(p3, {(1,): 0, (2,): 3, (3,): 1, (1, 2): 2, (2, 3): 4})


@pytest.fixture(scope="session")
def triangle() -> SimplicialComplex:
    return build_complex([(0, 1, 2)])


@pytest.fixture(scope="session")
def triangle_function(triangle) -> MorseFunction:
    """Collapsible fixture: single critical vertex 0."""
    return validate(
        triangle,
        {(0,): 0, (1,): 2, (0, 1): 1, (2,): 3, (0, 2): 2.5, (1, 2): 4, (0, 1, 2): 3.5},
    )


@pytest.fixture(scope="session")
def circle() -> SimplicialComplex:
    return build_complex([(0, 1), (0, 2), (1, 2)])


@pytest.fixture(scope="session")
def circle_function(circle) -> MorseFunction:
    """Critical cells: vertex 0 and edge 12."""
    return validate(circle, {(0,): 0, (1,): 2, (0, 1): 1, (2,): 4, (0, 2): 3, (1, 2): 5})


@pytest.fixture(scope="session")
def two_triangles() -> SimplicialComplex:
    """Two triangles glued along the edge 12."""
    return build_complex([(0, 1, 2), (1, 2, 3)])


@pytest.fixture(scope="session")
def double_well(two_triangles) -> MorseFunction:
    """Minima at vertices 0 and 3, single ridge edge 13 (value 10)."""
    return validate(
        two_triangles,
        {
            (0,): 0,
            (3,): 1,
            (0, 1): 1.5,
            (1,): 2,
            (1, 2): 3,
            (2,): 4,
            (0, 1, 2): 5,
            (0, 2): 6,
            (1, 3): 10,
            (1, 2, 3): 11,
            (2, 3): 12,
        },
    )


RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]


@pytest.fixture(scope="session")
def rp2() -> SimplicialComplex:
    """The 6-vertex real projective plane: 10 triangles, 15 edges, Euler
    characteristic 1.  Its mod-2 Betti numbers are [1, 1, 1], while its
    rational ones are [1, 0, 0]."""
    return build_complex(RP2_TRIANGLES)


def random_complex(rng: random.Random, max_vertices: int = 8, max_cell: int = 4) -> SimplicialComplex:
    """A random complex: face closure of a few random cells of dim <= max_cell - 1."""
    n = rng.randint(1, max_vertices)
    cells = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, min(max_cell, n))
        cells.append(tuple(sorted(rng.sample(range(n), size))))
    return build_complex(cells)


def random_instance(seed: int, max_vertices: int = 8, max_cell: int = 4):
    """Deterministic (complex, Morse function) pair."""
    rng = random.Random(seed)
    complex = random_complex(rng, max_vertices, max_cell)
    return complex, random_morse(complex, rng.randrange(2**32))


def grid(n: int) -> SimplicialComplex:
    """The n x n vertex grid, each square cut along a diagonal."""
    triangles = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            triangles += [(a, a + n, a + n + 1), (a, a + 1, a + n + 1)]
    return build_complex(triangles)


def two_hole_grid() -> SimplicialComplex:
    """The 3 x 3 grid with two triangle interiors removed: 31 cells, chi = -1."""
    complex = grid(3)
    return complex._sub({c for c in complex if c not in {(0, 1, 4), (4, 7, 8)}})


def hung_triangles_grid() -> SimplicialComplex:
    """The 3 x 3 grid with hollow triangles 0-9-10 and 0-11-12 hung at vertex 0:
    43 cells, chi = -1, so it does not collapse though its cell count is odd."""
    loops = [(0, 9), (9, 10), (0, 10), (0, 11), (11, 12), (0, 12)]
    return build_complex(list(grid(3)) + loops)


def torus(m: int) -> SimplicialComplex:
    """The m x m grid on the torus, each square cut along a diagonal (m >= 3)."""
    triangles = []
    for i in range(m):
        for j in range(m):
            a, b = i * m + j, i * m + (j + 1) % m
            c, d = (i + 1) % m * m + j, (i + 1) % m * m + (j + 1) % m
            triangles += [(a, b, d), (a, c, d)]
    return build_complex(triangles)


def tied(f):
    """A Morse function with ties whose pairs are some of ``f``'s."""
    return validate(f.complex, {c: v // 3 + len(c) for c, v in f.values.items()})


# The Simplex-keyed heap that ``random_morse`` and ``make_injective`` once
# shared, kept as their oracle: a linear extension of the matching-modified
# face order over dicts of cells, smallest key first.


def reference_simplex_linear_extension(complex, up, down, key):
    faces, cofaces = complex._faces, complex._cofaces
    indeg = {c: len(faces[c]) - (c in down) + (c in up) for c in complex}
    heap = [(key(c), c) for c, n in indeg.items() if not n]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    order = []
    while heap:
        cell = pop(heap)[1]
        order.append(cell)
        mate, low = up.get(cell), down.get(cell)
        for nxt in cofaces[cell] if low is None else (low, *cofaces[cell]):
            if nxt != mate:
                n = indeg[nxt] - 1
                indeg[nxt] = n
                if not n:
                    push(heap, (key(nxt), nxt))
    if len(order) != len(complex):
        raise AcyclicityBug("the matching-modified face order has a cycle")
    return order


def reference_make_injective(f):
    """Oracle for ``make_injective``: ``f`` re-ranked along the heap-ordered
    linear extension keyed by ``(f(c), simplex_key(c))``."""
    order = reference_simplex_linear_extension(
        f.complex, f.field.up, f.field.down, key=lambda c: (f(c), len(c), tuple(c))
    )
    return validate(f.complex, {cell: float(i) for i, cell in enumerate(order)})


class CountingDict(dict):
    """A dict that counts the reads of each key."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


class CountingList(list):
    """A list that counts the reads of each index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, index):
        self.reads[index] += 1
        return super().__getitem__(index)


def flow_by_chain_algebra(operator, cell) -> Chain:
    """The flow of one cell as the chain sum s + boundary(V s) + V(boundary s)."""
    unit = Chain.unit(cell)
    return (
        unit + boundary(operator.apply_gradient(unit)) + operator.apply_gradient(boundary(unit))
    )


def elimination_betti(complex) -> list[int]:
    """Oracle for ``betti_numbers_mod2``: each boundary matrix eliminated in
    full over the two-element field, one dimension at a time in canonical
    order, with no clearing; the library's per-dimension elimination before
    its one filtration reduction."""
    top = complex.dim  # -1 on the empty complex, whose list is empty
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


def face_closure(cells) -> set[tuple[int, ...]]:
    """Face closure as plain tuples, written out independently of the library."""
    out = set()
    stack = [tuple(sorted(c)) for c in cells]
    while stack:
        s = stack.pop()
        if s not in out:
            out.add(s)
            if len(s) > 1:
                stack.extend(s[:i] + s[i + 1 :] for i in range(len(s)))
    return out


def reference_parse_scx(text: str):
    """Oracle for ``parse_scx``: the line-by-line reading through the public
    checked ``Simplex``, ``build_complex`` and ``validate``.

    Shares no code with ``morseflow.scxio``; the face closure of the listed
    simplices is taken with plain tuples before ``build_complex`` sees it.
    """
    listed: list[Simplex] = []
    seen: set[Simplex] = set()
    values: dict[Simplex, float] = {}
    any_value = any_bare = False
    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        if lineno < len(lines) and raw.endswith("\r"):
            raw = raw[:-1]  # a CR ends a line only before an LF
        data = raw.split("#", 1)[0]
        if any(ch == "_" or not (ch == "\t" or " " <= ch <= "~") for ch in data):
            raise ParseError(lineno, f"non-ASCII text, control character or '_' in {data!r}")
        line = data.strip()
        if not line:
            continue
        value = None
        if ":" in line:
            left, _, right = line.partition(":")
            try:
                value = float(right.strip())
            except ValueError:
                raise ParseError(lineno, f"bad value {right.strip()!r}") from None
            if not math.isfinite(value):
                raise ParseError(lineno, f"non-finite value {right.strip()!r}")
            any_value = True
        else:
            left = line
            any_bare = True
        try:
            verts = [int(tok) for tok in left.split()]
        except ValueError:
            raise ParseError(lineno, f"bad vertex id in {left.strip()!r}") from None
        try:
            simplex = Simplex(verts)
        except MalformedSimplex as exc:
            raise ParseError(lineno, str(exc)) from None
        if simplex in seen:
            raise ParseError(lineno, f"duplicate simplex {tuple(simplex)}")
        seen.add(simplex)
        listed.append(simplex)
        if value is not None:
            values[simplex] = value
    if not listed:
        raise ParseError(None, "no simplices in input")
    if any_value and any_bare:
        raise ParseError(None, "either every simplex carries a value or none does")
    complex = build_complex(sorted(face_closure(listed)))
    return complex, validate(complex, values) if any_value else None


# The loops ``CellIndex`` ran before its one state walk and its plain
# depth-first search, kept as oracles: each walk must list the same states,
# and the search give the same pairs in the same order, as the code that
# replaced it.


def frame_collapse_search(index, mask, goal, key=None):
    """``CellIndex.collapse_search`` as a frame machine with a memo of answers:
    ``[state, untried pairs, pair tried]`` per open state."""
    memo = {goal: ()}
    frames = []
    state = mask
    while True:
        if state in memo:
            answer = memo[state]
        else:
            pairs = index.free_pairs(state, goal)
            if key is not None:
                pairs.sort(key=key)
            frames.append([state, iter(pairs), None])
            answer = None
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


def stack_reachable(index, mask):
    """``CellIndex.reachable`` as its own stack walk by collapses."""
    seen = {mask}
    stack = [mask]
    while stack:
        cur = stack.pop()
        for pair in index.free_pairs(cur):
            nxt = cur & ~(1 << pair[0] | 1 << pair[1])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def stack_collapsible(index):
    """``CellIndex.collapsible`` as its own stack walk by anti-collapses."""
    n = len(index.cells)
    stack = [1 << i for i, c in enumerate(index.cells) if len(c) == 1]
    seen = set(stack)
    while stack:
        cur = stack.pop()
        for i in range(n):
            if cur >> i & 1:
                continue
            for j in range(n):
                if not index.coface_mask[i] >> j & 1 or index.face_mask[j] & ~(cur | 1 << i):
                    continue
                nxt = cur | 1 << i | 1 << j
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen
