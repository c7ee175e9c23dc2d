"""Text formats: the ``.scx`` simplex list and a combinatorial OFF subset.

``.scx`` is one simplex per line as space-separated vertex ids, with an
optional `` : value`` suffix and ``#`` comments.  Values must be finite, and
total when present (the listed simplices must already be face-closed);
without values the face closure of the listed simplices is built.

The OFF reader keeps only the combinatorics: coordinates are parsed and
discarded, polygon faces are fan-triangulated.
"""

from __future__ import annotations

import math

from .complexes import Simplex, SimplicialComplex, build_complex
from .errors import MalformedSimplex, ParseError
from .morse import MorseFunction, validate


def parse_scx(text: str) -> tuple[SimplicialComplex, MorseFunction | None]:
    listed: list[Simplex] = []
    values: dict[Simplex, float] = {}
    seen: set[Simplex] = set()
    any_value = False
    any_bare = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            value = None
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
    complex = build_complex(listed)
    if not any_value:
        return complex, None
    return complex, validate(complex, values)


def emit_scx(complex: SimplicialComplex, f: MorseFunction | None = None) -> str:
    lines = []
    for cell in complex:
        ids = " ".join(str(v) for v in cell)
        if f is None:
            lines.append(ids)
        else:
            lines.append(f"{ids} : {float(f(cell))!r}")
    return "\n".join(lines) + "\n"


def parse_off(text: str) -> SimplicialComplex:
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    pos = 0

    def take(kind, what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(None, f"truncated file: expected {what}")
        tok = tokens[pos]
        pos += 1
        try:
            return kind(tok)
        except ValueError:
            raise ParseError(None, f"expected {what}, got {tok!r}") from None

    header = take(str, "OFF header")
    if header != "OFF":
        raise ParseError(None, f"not an OFF file (header {header!r})")
    n_vertices = take(int, "vertex count")
    n_faces = take(int, "face count")
    take(int, "edge count")
    if n_vertices <= 0:
        raise ParseError(None, "no vertices")
    for _ in range(3 * n_vertices):
        take(float, "coordinate")
    triangles: list[Simplex] = []
    for _ in range(n_faces):
        size = take(int, "face size")
        if size < 3:
            raise ParseError(None, f"face with {size} vertices is not a polygon")
        ids = [take(int, "face vertex") for _ in range(size)]
        for v in ids:
            if not 0 <= v < n_vertices:
                raise ParseError(None, f"vertex index {v} out of range")
        for i in range(1, size - 1):
            tri = (ids[0], ids[i], ids[i + 1])
            try:
                triangles.append(Simplex(tri))
            except MalformedSimplex as exc:
                raise ParseError(None, f"degenerate face {tri}: {exc}") from None
    if triangles:
        return build_complex(triangles)
    return build_complex([(v,) for v in range(n_vertices)])
