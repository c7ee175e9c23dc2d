"""The chain-level gradient map, the discrete flow, and its set versions.

The flow of each basis cell is computed once from the complex's face map and
the matched pairs (identity plus boundary-of-gradient plus
gradient-of-boundary) and kept as a plain zero-free row ``{cell:
coefficient}`` whose keys are the complex's own cells.  The four chain maps,
``flow_of``, ``gradient_of``, ``apply_flow`` and ``apply_gradient``, run one
pass that adds coefficient times row over a chain's terms (a gradient row is
a cell's matched upper cell with the pair's coefficient, read from the one
table of pairs the flow rows are built from) and build one checked
``Chain`` per call.  ``flow_image`` unions the rows directly, so its
sets hold the complex's own cells too.  ``flow_matrix`` rebuilds the same data
by sparse matrix composition over ``faces_of``, with a gradient table built
from the field's pairs, not the operator's, and boundary signs read from face
positions; the two routes are cross-checked in ``check_flow_matrix``.
``verify_flow_collapse`` certifies the collapse of a level subcomplex onto
its flow-image closure with the collapse module's sequence builder, so its
witness comes back replayed.

Coefficients are Python integers, so arithmetic is exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .collapse import CollapseSequence, _level, _replayed_collapse
from .complexes import Chain, Simplex, SimplicialComplex, as_simplex, incidence_sign
from .errors import PropertyViolation, SimplexNotInComplex
from .morse import GradientField, MorseFunction, _own_field


class FlowOperator:
    """Chain maps attached to a Morse function and its gradient field.

    A given field must be the function's, else ``ComplexMismatch``.
    """

    __slots__ = ("function", "field", "complex", "_matched", "_flow")

    def __init__(self, function: MorseFunction, field: GradientField | None = None):
        self.function = function
        self.complex = function.complex
        self.field = _own_field(function, field)
        # Each matched lower's upper cell and the pair's coefficient, read
        # by the rows below and by ``_gradient_row``.
        self._matched = matched = {
            lower: (upper, -incidence_sign(upper, lower)) for lower, upper in self.field.up.items()
        }
        # Row of s: s + boundary(V s) + V(boundary s), in one dict; an unmatched
        # cell looks up no upper cell and sign 0.  The face map lists a cell's
        # faces omitting its last vertex first, so reversed, face i omits
        # vertex i and has sign (-1)**i, as in ``boundary``; every entry is
        # the complex's own cell.  Rows are kept as plain dicts without zero
        # entries; ``flow_of`` wraps one in a ``Chain``.
        faces = self.complex._faces
        self._flow: dict[Simplex, dict[Simplex, int]] = {}
        for cell in self.complex:
            row = {cell: 1}
            upper, sign = matched.get(cell, ((), 0))
            for i, face in enumerate(reversed(faces.get(upper, ()))):
                row[face] = row.get(face, 0) + (-sign if i % 2 else sign)
            for i, face in enumerate(reversed(faces[cell])):
                upper, sign = matched.get(face, ((), 0))
                if sign:
                    row[upper] = row.get(upper, 0) + (-sign if i % 2 else sign)
            self._flow[cell] = {s: c for s, c in row.items() if c}

    def gradient_of(self, cell) -> Chain:
        """The matched-pair image of a single cell; zero when unmatched."""
        return self._map({as_simplex(cell): 1}, self._gradient_row)

    def flow_of(self, cell) -> Chain:
        return self._map({as_simplex(cell): 1}, self._flow.__getitem__)

    def apply_gradient(self, chain: Chain) -> Chain:
        """Linear extension of the pair map over a chain."""
        return self._map(chain.coeffs, self._gradient_row)

    def apply_flow(self, chain: Chain) -> Chain:
        return self._map(chain.coeffs, self._flow.__getitem__)

    def _gradient_row(self, cell: Simplex) -> dict[Simplex, int]:
        """A cell's matched upper cell with the pair's coefficient; empty when unmatched."""
        pair = self._matched.get(cell)
        return {} if pair is None else dict([pair])

    def _map(self, terms: Mapping, row_of: Callable[[Simplex], Mapping]) -> Chain:
        """The sum of coefficient times row over the terms, as one checked ``Chain``.

        Each cell must be in the complex, else ``SimplexNotInComplex``; its
        row is ``row_of(cell)``.  The rows' keys are the complex's own cells.
        """
        cells = self.complex.simplices
        acc: dict[Simplex, int] = {}
        for cell, coef in terms.items():
            if cell not in cells:
                raise SimplexNotInComplex(f"{cell!r} is not in the complex")
            for s, c in row_of(cell).items():
                acc[s] = acc.get(s, 0) + coef * c
        # A chain's terms share one dimension, so do their rows' cells; an
        # empty sum is the zero chain, of dimension -1.
        return Chain(len(next(iter(acc), ())) - 1, acc)


def flow_matrix(operator: FlowOperator, p: int) -> dict[Simplex, dict[Simplex, int]]:
    """Rows of the dimension-``p`` flow, built by sparse matrix composition.

    ``rows[s][t]`` is the coefficient of ``t`` in the flowed ``s``; zero
    entries are dropped.  The gradient map on dimensions ``p - 1`` and ``p``
    is one table ``lower -> (upper, coefficient)`` from the field's pairs, and
    face ``j`` of an ``n``-vertex cell omits vertex ``n - 1 - j``, so its
    boundary sign is ``(-1)**(n - 1 - j)``.
    """
    complex = operator.complex
    if not 0 <= p <= complex.dim:
        raise ValueError(f"dimension {p} is outside 0..{complex.dim}")
    gradient = {
        lower: (upper, -incidence_sign(upper, lower))
        for lower, upper in operator.field.up.items()
        if p <= len(lower) <= p + 1
    }
    rows: dict[Simplex, dict[Simplex, int]] = {}
    for cell in complex.cells_of_dim(p):
        acc: dict[Simplex, int] = {cell: 1}
        if cell in gradient:
            upper, vc = gradient[cell]
            bc = 1 if len(upper) % 2 else -1  # face 0 omits the last vertex
            for target in complex.faces_of(upper):
                acc[target] = acc.get(target, 0) + vc * bc
                bc = -bc
        bc = 1 if len(cell) % 2 else -1
        for face in complex.faces_of(cell):
            if face in gradient:
                target, vc = gradient[face]
                acc[target] = acc.get(target, 0) + bc * vc
            bc = -bc
        rows[cell] = {s: c for s, c in acc.items() if c}
    return rows


@dataclass(frozen=True)
class FlowMatrixReport:
    dim: int
    cells: int
    ok: bool
    problems: tuple[str, ...]


def check_flow_matrix(operator: FlowOperator, p: int) -> FlowMatrixReport:
    """Cross-check the matrix against the chain route and its sign structure.

    Asserts the diagonal is 0/1 and marks exactly the critical cells, and
    that every off-diagonal entry points at a strictly smaller value.
    Raises ``PropertyViolation`` with the report when anything fails.  Once
    it passes, the operator's rows of dimension ``p`` equal the matrix rows.
    """
    rows = flow_matrix(operator, p)
    values, flows = operator.function.values, operator._flow
    problems: list[str] = []
    for cell, row in rows.items():
        if flows[cell] != row:
            problems.append(f"matrix/chain mismatch at {tuple(cell)}")
        diag = row.get(cell, 0)
        if diag not in (0, 1):
            problems.append(f"diagonal {diag} at {tuple(cell)}")
        elif (diag == 1) != (cell in operator.field.critical):
            problems.append(f"diagonal {diag} disagrees with criticality at {tuple(cell)}")
        value = values[cell]
        for other, coef in row.items():
            if other != cell and coef and not values[other] < value:
                problems.append(f"non-decreasing support {tuple(other)} in row {tuple(cell)}")
    report = FlowMatrixReport(p, len(rows), not problems, tuple(problems))
    if problems:
        raise PropertyViolation(report)
    return report


def flow_image(operator: FlowOperator, cells: Iterable) -> frozenset[Simplex]:
    """Union of the supports of the flowed cells; empty input gives empty.

    The cells are looked up as given, so they must be the complex's own
    cells or tuples in increasing vertex order; another vertex order raises
    ``SimplexNotInComplex``.  The mountain-pass walk calls it on every
    orbit step, so it converts nothing.
    """
    flows = operator._flow
    try:
        return frozenset().union(*[flows[c] for c in cells])
    except KeyError as exc:
        raise SimplexNotInComplex(f"{exc.args[0]!r} is not in the complex") from None


def flow_image_closure(operator: FlowOperator, cells: Iterable) -> SimplicialComplex:
    """The subcomplex generated by the flow image."""
    return operator.complex.closure_of(flow_image(operator, cells))


def verify_flow_collapse(
    f: MorseFunction, threshold: float, operator: FlowOperator | None = None
) -> CollapseSequence:
    """Certified collapse of a level subcomplex onto its flow-image closure.

    The cells dropped by the flow split into matched pairs, removed in
    decreasing value order and replayed by the window verifier's own
    builder, so the sequence returned has already been replayed.  A given
    operator must carry ``f``'s field, else ``ComplexMismatch``.
    """
    if operator is None:
        operator = FlowOperator(f)
    _own_field(f, operator.field)
    top = _level(f, threshold)
    return _replayed_collapse(f, top, flow_image_closure(operator, top.simplices))
