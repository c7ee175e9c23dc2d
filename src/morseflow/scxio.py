"""Text formats: the ``.scx`` simplex list and a combinatorial OFF subset.

``.scx`` is one simplex per line as space-separated vertex ids, with an
optional `` : value`` suffix and ``#`` comments.  Values must be finite, and
total when present (the listed simplices must already be face-closed);
without values the face closure of the listed simplices is built.

Both readers take plain ASCII numbers only.  Python's ``int`` and ``float``
also read ``_`` digit separators and non-ASCII digits, so ``0 1_2`` would be
the edge (0, 12); a ``_`` or a non-ASCII character outside a comment raises
``ParseError`` instead, in ``.scx`` with its line number.  Lines end at
``\\n`` only, after an optional ``\\r``, and outside a comment the only
control character either reader takes is tab (and, in OFF, ``\\r``):
``str.splitlines`` and ``str.split`` would also break at a form feed, an
information separator or a Unicode line separator and hide it.  Comments
may hold any text.

The OFF reader keeps only the combinatorics: coordinates are parsed and
discarded, polygon faces are fan-triangulated.  It raises ``ParseError`` for
a negative count, a face that lists a vertex twice and any token after the
last declared face.
"""

from __future__ import annotations

import math
import re

from .complexes import Simplex, SimplicialComplex, _trusted, build_complex
from .errors import MalformedSimplex, ParseError, SimplexNotInComplex
from .morse import MorseFunction, _validated


# Tab, newline, and printable ASCII but ``_``: what ``.scx`` takes outside comments.
_SCX_TEXT = bytes([9, 10, *range(0x20, 0x5F), *range(0x60, 0x7F)])


def _foreign(text: str) -> bool:
    """Whether ``text`` holds a character ``.scx`` refuses outside comments."""
    return not text.isascii() or bool(text.encode("ascii").translate(None, _SCX_TEXT))


def parse_scx(text: str) -> tuple[SimplicialComplex, MorseFunction | None]:
    """The complex of a ``.scx`` text, and its validated function if valued.

    Lines are checked in order and the first bad one raises ``ParseError``
    with its line number.  One map from each listed cell to its value is
    both the duplicate check and, once its face closure is the complex, the
    function's values.
    """
    listed: dict[Simplex, float | None] = {}
    plain = not _foreign(text)  # else each line's data is scanned
    for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        data = raw.partition("#")[0]
        if not plain and _foreign(data):
            raise ParseError(lineno, f"non-ASCII text, control character or '_' in {data!r}")
        left, colon, right = data.partition(":")
        if colon:
            try:
                value = float(right)
            except ValueError:
                raise ParseError(lineno, f"bad value {right.strip()!r}") from None
            if not math.isfinite(value):
                raise ParseError(lineno, f"non-finite value {right.strip()!r}")
        try:
            verts = sorted(map(int, left.split()))
        except ValueError:
            raise ParseError(lineno, f"bad vertex id in {left.strip()!r}") from None
        if not colon:
            if not verts:
                continue  # a blank or comment-only line
            value = None
        # ``int`` gives no bools, so a sorted non-empty list with no negative
        # and no repeated id is a simplex.  Otherwise the checked constructor
        # raises with the message for the fault.
        if verts and verts[0] >= 0 and len(set(verts)) == len(verts):
            simplex = _trusted(verts)
        else:
            try:
                simplex = Simplex(verts)
            except MalformedSimplex as exc:
                raise ParseError(lineno, str(exc)) from None
        if simplex in listed:
            raise ParseError(lineno, f"duplicate simplex {tuple(simplex)}")
        listed[simplex] = value
    if not listed:
        raise ParseError(None, "no simplices in input")
    bare = list(listed.values()).count(None)  # the simplices listed without a value
    if 0 < bare < len(listed):
        raise ParseError(None, "either every simplex carries a value or none does")
    complex = SimplicialComplex._from_cells(listed)
    if bare:
        return complex, None
    return complex, _validated(complex, listed)


def emit_scx(complex: SimplicialComplex, f: MorseFunction | None = None) -> str:
    if f is None:
        lines = [" ".join(map(str, cell)) for cell in complex]
    else:
        values = f.values
        try:
            lines = [
                f"{' '.join(map(str, cell))} : {float(values[cell])!r}" for cell in complex
            ]
        except KeyError as exc:
            raise SimplexNotInComplex(f"{exc.args[0]!r} has no value") from None
    return "\n".join(lines) + "\n"


def parse_off(text: str) -> SimplicialComplex:
    # Split at ASCII whitespace only, so a token keeps any other character.
    tokens = re.findall(r"[^ \t\r\n]+", re.sub(r"#[^\n]*", "", text))
    pos = 0

    def take(kind, what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(None, f"truncated file: expected {what}")
        tok = tokens[pos]
        pos += 1
        try:
            if _foreign(tok):
                raise ValueError  # ``int`` and ``float`` would read 1_0, ٣ or \x1c1
            return kind(tok)
        except ValueError:
            raise ParseError(None, f"expected {what}, got {tok!r}") from None

    header = take(str, "OFF header")
    if header != "OFF":
        raise ParseError(None, f"not an OFF file (header {header!r})")
    counts = [take(int, f"{what} count") for what in ("vertex", "face", "edge")]
    if min(counts) < 0:
        raise ParseError(None, f"negative count in {counts}")
    n_vertices, n_faces, _ = counts
    if n_vertices == 0:
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
        if len(set(ids)) < size:
            raise ParseError(None, f"degenerate face {ids}: a vertex is listed twice")
        # Distinct ids in range, so every fan triangle is a simplex.
        triangles += [Simplex((ids[0], ids[i], ids[i + 1])) for i in range(1, size - 1)]
    if pos < len(tokens):
        raise ParseError(None, f"unexpected token {tokens[pos]!r} after the last face")
    if triangles:
        return build_complex(triangles)
    return build_complex([(v,) for v in range(n_vertices)])
