"""Shared fixtures: small hand-verified complexes, random instance generators
and a reference ``.scx`` reader."""

from __future__ import annotations

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
from morseflow.errors import MalformedSimplex, ParseError


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


def torus(m: int) -> SimplicialComplex:
    """The m x m grid on the torus, each square cut along a diagonal (m >= 3)."""
    triangles = []
    for i in range(m):
        for j in range(m):
            a, b = i * m + j, i * m + (j + 1) % m
            c, d = (i + 1) % m * m + j, (i + 1) % m * m + (j + 1) % m
            triangles += [(a, b, d), (a, c, d)]
    return build_complex(triangles)


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
