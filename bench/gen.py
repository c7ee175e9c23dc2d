"""Seeded input generators and reference invariants for the benchmark.

Everything here is plain Python over vertex tuples and is independent of the
code under test: the benchmark hands the program only the complexes,
functions and ``.scx`` texts made here, and checks the program's answers
against the invariants computed here.
"""

from __future__ import annotations

import itertools
import random


def torus_triangles(m: int) -> list[tuple[int, ...]]:
    """Triangles of the standard m x m triangulated torus (6 m^2 cells, m >= 3)."""
    out = []
    for i in range(m):
        for j in range(m):
            a = i * m + j
            b = ((i + 1) % m) * m + j
            c = i * m + (j + 1) % m
            d = ((i + 1) % m) * m + (j + 1) % m
            out.append(tuple(sorted((a, b, d))))
            out.append(tuple(sorted((a, c, d))))
    return out


def grid_triangles(k: int) -> list[tuple[int, ...]]:
    """Triangles of a k x k vertex grid, each square cut along one diagonal."""
    out = []
    for i in range(k - 1):
        for j in range(k - 1):
            a = i * k + j
            b = a + k
            out.append((a, b, b + 1))
            out.append((a, a + 1, b + 1))
    return out


def closure(simplices) -> list[tuple[int, ...]]:
    """Face closure, in the canonical (dimension, vertices) order."""
    cells: set[tuple[int, ...]] = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            cells.update(itertools.combinations(s, k))
    return sorted(cells, key=lambda c: (len(c), c))


def random_cells(rng: random.Random, max_vertices: int = 8, max_cell: int = 4):
    """The acceptance corpus's random complex: a few random cells, closed later.

    Draws from ``rng`` in exactly the order the acceptance corpus does, so the
    same seeds give the same complexes.
    """
    n = rng.randint(1, max_vertices)
    cells = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, min(max_cell, n))
        cells.append(tuple(sorted(rng.sample(range(n), size))))
    return cells


def scx_text(values: dict) -> str:
    """A ``.scx`` file with one ``ids : value`` line per cell, canonical order."""
    lines = []
    for cell in sorted(values, key=lambda c: (len(c), tuple(c))):
        lines.append(" ".join(map(str, cell)) + " : " + repr(float(values[cell])))
    return "\n".join(lines) + "\n"


def bare_scx_text(simplices) -> str:
    return "".join(" ".join(map(str, s)) + "\n" for s in simplices)


class Reference:
    """Incidence of a cell list, and the invariants checked against the program."""

    def __init__(self, cells):
        self.cells = [tuple(c) for c in cells]
        present = set(self.cells)
        self.faces = {
            c: [c[:i] + c[i + 1:] for i in range(len(c))] if len(c) > 1 else []
            for c in self.cells
        }
        self.cofaces: dict[tuple, list[tuple]] = {c: [] for c in self.cells}
        for c in self.cells:
            for t in self.faces[c]:
                if t not in present:
                    raise ValueError(f"not face-closed at {t}")
                self.cofaces[t].append(c)

    def dim_counts(self) -> list[int]:
        top = max(len(c) for c in self.cells)
        counts = [0] * top
        for c in self.cells:
            counts[len(c) - 1] += 1
        return counts

    def euler(self) -> int:
        return sum((-1) ** p * n for p, n in enumerate(self.dim_counts()))

    def critical(self, values) -> set[tuple]:
        """Cells with no coface valued at most and no face valued at least them."""
        return {
            c
            for c in self.cells
            if all(values[u] > values[c] for u in self.cofaces[c])
            and all(values[t] < values[c] for t in self.faces[c])
        }

    def sublevel_closure(self, values, threshold) -> set[tuple]:
        return set(closure(c for c in self.cells if values[c] <= threshold))

    def reference_pass(self, values, times: int = 1) -> None:
        """The benchmark's unit of reference work: critical cells and a level.

        Timed right after each op, it measures how fast the machine runs this
        kind of Python code at that moment; it never touches morseflow.
        """
        middle = sorted(values.values())[len(values) // 2]
        for _ in range(times):
            self.critical(values)
            self.sublevel_closure(values, middle)


def values_of(f) -> dict[tuple, float]:
    """A Morse function's values keyed by plain vertex tuples."""
    return {tuple(c): v for c, v in f.values.items()}
