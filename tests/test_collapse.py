"""Level subcomplexes, collapses and their verifiers, basins."""

from __future__ import annotations

import dataclasses
import math
import random
from bisect import bisect_right
from functools import cached_property
from itertools import combinations, groupby, takewhile

import pytest

from morseflow import (
    BettiDelta,
    CollapseSequence,
    FlowOperator,
    GradientField,
    MorseFunction,
    Simplex,
    SimplicialComplex,
    basin,
    basin_maximality_report,
    build_complex,
    collapses_to,
    critical_cells,
    critical_values,
    dgcat,
    elementary_collapse,
    enumerate_paths,
    flow_image_closure,
    gradient_field,
    level_subcomplex,
    make_injective,
    maximal_collapsible_to,
    random_morse,
    validate,
    verify_dmt_a,
    verify_dmt_b,
    verify_flow_collapse,
)
from morseflow import collapse, minmax, morse
from morseflow.collapse import _betti_table, _collapse_pairs, _replayed_collapse
from morseflow.complexes import _negative_cells, as_simplex, search_index, simplex_key
from morseflow.errors import (
    ComplexMismatch,
    CriticalValueInWindow,
    MalformedSimplex,
    NotACriticalVertex,
    NotFreeFace,
    PreconditionViolated,
    ProofFailure,
    SignatureMismatch,
    SimplexNotInComplex,
)
from conftest import (
    CountingDict,
    elimination_betti,
    face_closure,
    random_instance,
    reference_make_injective,
    torus,
)


def reference_basin(f, field, v):
    """Oracle for ``basin``: settle every vertex by walking its gradient path
    down to its end, then keep the vertices that end at ``v``.

    Gives the members in canonical order, the witness pairs in decreasing
    value order (lower cell, then edge, then the lower cell's canonical
    order), and the cells of the basin.
    """
    term: dict[Simplex, Simplex] = {}

    def settle(u):
        walk = []
        x = u
        while x not in term and x in field.up:
            walk.append(x)
            x = Simplex([w for w in field.up[x] if w != x[0]])
        end = term.setdefault(x, x)
        for y in walk:
            term[y] = end
        return end

    members = [u for u in field.complex.cells_of_dim(0) if settle(u) == v]
    pairs = sorted(
        ((u, field.up[u]) for u in members if u != v),
        key=lambda p: (-f(p[0]), -f(p[1]), simplex_key(p[0])),
    )
    return members, pairs, set(members) | {edge for _, edge in pairs}


def check_basins_against_the_oracle(f):
    """Every minimum's basin equals the oracle's, its witness removes lower
    cells of non-increasing value, and the basins partition the vertices."""
    field = gradient_field(f)
    covered = []
    for v in sorted(c for c in field.critical if c.dim == 0):
        b = basin(field, f, v)
        members, pairs, cells = reference_basin(f, field, v)
        assert b.cells.cells_of_dim(0) == tuple(members)
        assert b.cells.simplices == cells
        assert b.witness.pairs == tuple(pairs)
        lows = [f(u) for u, _ in b.witness.pairs]
        assert all(x >= y for x, y in zip(lows, lows[1:]))
        covered += members
    assert sorted(covered) == sorted(f.complex.cells_of_dim(0))


class TestLevelSubcomplex:
    def test_p3_midway(self, p3_function):
        level = level_subcomplex(p3_function, 2.5)
        assert level.sublevel == {(1,), (3,), (1, 2)}
        assert level.complex.simplices == {(1,), (2,), (3,), (1, 2)}

    def test_below_min_is_empty(self, p3_function):
        assert len(level_subcomplex(p3_function, -1).complex) == 0

    def test_above_max_is_everything(self, p3_function, p3):
        level = level_subcomplex(p3_function, 100)
        assert level.complex == p3
        assert level.sublevel == p3.simplices

    def test_a_nan_threshold_is_refused_and_infinities_are_not(self, p3_function, p3):
        for name in (level_subcomplex, verify_flow_collapse):
            with pytest.raises(PreconditionViolated):
                name(p3_function, float("nan"))
        assert len(level_subcomplex(p3_function, float("-inf")).complex) == 0
        assert level_subcomplex(p3_function, float("inf")).complex == p3
        assert verify_flow_collapse(p3_function, float("-inf")).pairs == ()

    def test_monotone(self, circle_function):
        values = circle_function.sorted_distinct_values()
        previous = None
        for a in values:
            current = level_subcomplex(circle_function, a)
            if previous is not None:
                assert previous.sublevel <= current.sublevel
                assert previous.complex.simplices <= current.complex.simplices
            previous = current


class TestElementaryCollapse:
    def test_edge_to_point(self, edge):
        out = elementary_collapse(edge, (1,), (0, 1))
        assert out.simplices == {(0,)}

    def test_triangle_three_steps(self, triangle):
        k = elementary_collapse(triangle, (1, 2), (0, 1, 2))
        k = elementary_collapse(k, (1,), (0, 1))
        k = elementary_collapse(k, (2,), (0, 2))
        assert k.simplices == {(0,)}

    def test_circle_has_no_free_face(self, circle):
        for vertex in circle.cells_of_dim(0):
            for cof in circle.cofaces_of(vertex):
                with pytest.raises(NotFreeFace):
                    elementary_collapse(circle, vertex, cof)

    def test_non_coface_rejected(self, triangle):
        with pytest.raises(NotFreeFace):
            elementary_collapse(triangle, (0,), (1, 2))


class TestReplayMidSequence:
    """Every step of a replay is checked against the cells still live."""

    def test_removed_cell_reused_later(self, triangle, point):
        pairs = (((1, 2), (0, 1, 2)), ((2,), (1, 2)))
        with pytest.raises(SimplexNotInComplex, match="is not a pair of cells"):
            CollapseSequence(triangle, point, pairs).replay()

    def test_face_with_two_live_cofaces(self, triangle, point):
        pairs = (((1, 2), (0, 1, 2)), ((0,), (0, 1)))
        with pytest.raises(NotFreeFace, match=r"has cofaces \[\(0, 1\), \(0, 2\)\]"):
            CollapseSequence(triangle, point, pairs).replay()

    def test_descending_order_wraps_a_stuck_pair(self, triangle, point, triangle_function):
        # Not a gradient of these values: the highest lower cell, 2, still has
        # the live coface 12 when its pair's turn comes.
        field = GradientField(triangle, [((1,), (1, 2)), ((2,), (0, 2)), ((0, 1), (0, 1, 2))])
        f = MorseFunction(triangle, triangle_function.values, field)
        message = r"pair \(Simplex\(2,\), Simplex\(0, 2\)\) was not free when its turn came"
        with pytest.raises(ProofFailure, match=message):
            _replayed_collapse(f, triangle, point)

    def test_cells_outside_the_matching_are_a_proof_failure(
        self, triangle, point, triangle_function
    ):
        field = GradientField(triangle, [((1, 2), (0, 1, 2))])
        f = MorseFunction(triangle, triangle_function.values, field)
        with pytest.raises(ProofFailure, match="do not split into matched pairs"):
            _replayed_collapse(f, triangle, point)


class TestCollapsesTo:
    def test_triangle_to_vertex(self, triangle):
        seq = collapses_to(triangle, build_complex([(0,)]))
        assert seq is not None
        assert len(seq) == 3
        seq.replay()

    def test_circle_not_collapsible(self, circle):
        for vertex in circle.cells_of_dim(0):
            assert collapses_to(circle, SimplicialComplex([vertex])) is None

    def test_identity_collapse_is_empty(self, p3):
        seq = collapses_to(p3, p3)
        assert seq is not None and len(seq) == 0

    def test_greedy_order_uses_function(self, triangle, triangle_function):
        seq = collapses_to(triangle, build_complex([(0,)]), triangle_function)
        assert seq is not None
        seq.replay()


    def test_long_path_collapses_without_recursion(self):
        n = 1201
        path = build_complex([(i, i + 1) for i in range(n - 1)])
        seq = collapses_to(path, SimplicialComplex([(0,)]), max_enum=10**6)
        assert len(seq) == n - 1
        assert seq.replay() == SimplicialComplex([(0,)])


class TestVerifyDmtA:
    def test_p3_window(self, p3_function):
        seq = verify_dmt_a(p3_function, 1, 3)
        assert seq.pairs == (((2,), (1, 2)),)
        assert seq.end.simplices == {(1,), (3,)}
        seq.replay()

    def test_empty_window(self, p3_function):
        seq = verify_dmt_a(p3_function, 2.1, 2.9)
        assert len(seq) == 0

    def test_critical_value_in_window_rejected(self, p3_function):
        with pytest.raises(CriticalValueInWindow):
            verify_dmt_a(p3_function, 0.5, 1.5)

    def test_backwards_window_rejected(self, p3_function):
        with pytest.raises(PreconditionViolated):
            verify_dmt_a(p3_function, 3, 1)

    def test_random_instances_all_windows(self):
        from morseflow import critical_values

        for seed in range(40):
            _, f = random_instance(seed)
            cs = critical_values(f)
            values = f.sorted_distinct_values()
            for i, c in enumerate(cs):
                upper = cs[i + 1] if i + 1 < len(cs) else None
                between = [v for v in values if c < v and (upper is None or v < upper)]
                if between:
                    b = max(between)
                elif upper is not None:
                    b = (c + upper) / 2
                else:
                    continue
                verify_dmt_a(f, c, b).replay()


def reference_pair_off_removable(field, cells):
    """Oracle: the parent library's split of a removable cell set into its
    matched pairs, walking the cells in canonical order."""
    cells = frozenset(cells)
    pairs = []
    seen = set()
    for cell in sorted(cells, key=simplex_key):
        if cell in seen:
            continue
        partner = field.up.get(cell) or field.down.get(cell)
        if partner is None:
            raise ProofFailure(f"{cell!r} is unmatched but should collapse away")
        if partner not in cells:
            raise ProofFailure(f"partner {partner!r} of {cell!r} is outside the removable set")
        lower, upper = (cell, partner) if cell.dim < partner.dim else (partner, cell)
        seen.add(lower)
        seen.add(upper)
        pairs.append((lower, upper))
    return pairs


def reference_descending_pairs(f, top, end):
    """Oracle: the pairs of ``top`` minus ``end`` in the parent library's
    descending order, by the larger value, then the smaller, then the first cell."""
    pairs = reference_pair_off_removable(f.field, top.simplices - end.simplices)
    return tuple(
        sorted(
            pairs,
            key=lambda p: (-max(f(p[0]), f(p[1])), -min(f(p[0]), f(p[1])), simplex_key(p[0])),
        )
    )


def maximal_windows(f):
    """Each critical value ``c`` with the largest value below the next one, or
    the largest value when ``c`` is the last; windows holding no value are left out."""
    values = f.sorted_distinct_values()
    crit = critical_values(f)
    out = []
    for i, c in enumerate(crit):
        upper = crit[i + 1] if i + 1 < len(crit) else float("inf")
        between = [v for v in values if c < v < upper]
        if between:
            out.append((c, between[-1]))
    return out


class TestCertificatesAgainstTheParentOrder:
    """The verifiers' pairs equal the ones the separate pairing and sorting
    oracle gives, on every maximal window and at the median value."""

    def _check(self, f):
        for a, b in maximal_windows(f):
            seq = verify_dmt_a(f, a, b)
            top, end = level_subcomplex(f, b).complex, level_subcomplex(f, a).complex
            assert seq.start is top and seq.end is end
            assert seq.pairs == reference_descending_pairs(f, top, end)
        values = f.sorted_distinct_values()
        median = values[len(values) // 2]
        operator = FlowOperator(f)
        seq = verify_flow_collapse(f, median, operator)
        top = level_subcomplex(f, median).complex
        image = flow_image_closure(operator, top.simplices)
        assert seq.start is top and seq.end.simplices == image.simplices
        assert seq.pairs == reference_descending_pairs(f, top, image)
        return len(seq.pairs)

    def test_random_instances(self):
        moved = sum(self._check(random_instance(seed)[1]) for seed in range(300))
        assert moved > 0

    def test_tori(self):
        for m in range(3, 10):
            for seed in range(2):
                self._check(random_morse(torus(m), seed))

    def test_lower_cells_of_equal_value(self):
        # Both lower cells are valued 5, so the upper cells' values decide.
        k = build_complex([(0, 1), (2, 3)])
        f = validate(k, {(0,): 0, (2,): 0, (1,): 5, (0, 1): 3, (3,): 5, (2, 3): 4})
        self._check(f)
        assert verify_dmt_a(f, 0, 5).pairs == (((3,), (2, 3)), ((1,), (0, 1)))


class TestVerifyDmtB:
    def test_p3_edge(self, p3_function):
        delta = verify_dmt_b(p3_function, (2, 3), 3, 4)
        assert delta.before == (2, 0)
        assert delta.after == (1, 0)
        assert (delta.degree, delta.delta) == (0, -1)

    def test_circle_top_edge(self, circle_function):
        delta = verify_dmt_b(circle_function, (1, 2), 4, 5)
        assert (delta.degree, delta.delta) == (1, 1)

    def test_global_minimum(self, circle_function):
        delta = verify_dmt_b(circle_function, (0,), -1, 0)
        assert delta.before == (0,)
        assert (delta.degree, delta.delta) == (0, 1)

    def test_non_critical_cell_rejected(self, p3_function):
        with pytest.raises(PreconditionViolated):
            verify_dmt_b(p3_function, (2,), 2, 3)

    @pytest.mark.parametrize(
        "before, after",
        [((1, 0), (2, 0)), ((1, 0), (1, 0)), ((1, 1), (1, 0)), ((2, 0), (1, 1))],
        ids=["vertex-added", "no-change", "loop-removed", "two-changes"],
    )
    def test_a_wrong_signature_for_an_edge_is_refused(
        self, circle_function, monkeypatch, before, after
    ):
        # The top edge of the circle closes a loop, (1, 0) -> (1, 1); any
        # other change across its value is refused.  The table's levels at 4
        # and 5 carry the given vectors.
        entries = circle_function._view.entries
        table = [()] * (len(entries) + 1)
        table[bisect_right(entries, 4)], table[bisect_right(entries, 5)] = before, after
        monkeypatch.setattr(collapse, "_betti_table", lambda f: table)
        with pytest.raises(SignatureMismatch):
            verify_dmt_b(circle_function, (1, 2), 4, 5)

    def test_random_instances_every_critical_cell(self):
        from morseflow import critical_cells

        for seed in range(40):
            _, f = random_instance(seed)
            crit = sorted(critical_cells(f), key=lambda c: f(c))
            for i, cell in enumerate(crit):
                low = f(crit[i - 1]) if i else f(cell) - 1.0
                verify_dmt_b(f, cell, low, f(cell))


def verify_dmt_b_by_elimination(f, cell, a, b):
    """Oracle for ``verify_dmt_b``: the verifier before the Betti table, which
    lists the other critical cells in the window and eliminates the level
    complexes at ``a`` and ``b`` in full."""
    cell = as_simplex(cell)
    crit = critical_cells(f)
    if cell not in crit:
        raise PreconditionViolated(f"{cell!r} is not a critical cell")
    if not (a < f(cell) <= b):
        raise PreconditionViolated(f"value {f(cell)} of {cell!r} is outside ({a}, {b}]")
    others = [c for c in crit if c != cell and a < f(c) <= b]
    if others:
        raise PreconditionViolated(f"other critical cells {sorted(map(tuple, others))} in window")
    before = elimination_betti(level_subcomplex(f, a).complex)
    after = elimination_betti(level_subcomplex(f, b).complex)
    width = max(len(before), len(after), cell.dim + 1)
    before = tuple(before) + (0,) * (width - len(before))
    after = tuple(after) + (0,) * (width - len(after))
    diffs = [(i, after[i] - before[i]) for i in range(width) if after[i] != before[i]]
    p = cell.dim
    if diffs == [(p, 1)] or (p >= 1 and diffs == [(p - 1, -1)]):
        degree, delta = diffs[0]
        return BettiDelta(before, after, degree, delta)
    raise SignatureMismatch(f"betti change {diffs} does not match attaching a {p}-cell")


def dmt_b_outcome(verify, f, cell, a, b):
    try:
        return verify(f, cell, a, b)
    except (PreconditionViolated, SignatureMismatch) as exc:
        return type(exc), str(exc)


def dmt_b_windows(f, crit, i):
    """Windows around the ``i``-th critical cell: from the critical value
    before it, from its value less one and from -inf, each up to its value;
    wider ones that hold other critical cells; one that misses it; NaN."""
    v = f(crit[i])
    prev = f(crit[i - 1]) if i else v - 1.0
    return [
        (prev, v), (v - 1.0, v), (-math.inf, v), (prev, math.inf), (-math.inf, math.inf),
        (prev, (v + f(crit[i + 1])) / 2 if i + 1 < len(crit) else v + 0.5),
        (v, v + 1.0), (math.nan, v), (prev, math.nan),
    ]


def betti_inputs(rp2):
    """``level_inputs``, tori m=3..8 and the projective plane."""
    fs = level_inputs() + [random_morse(torus(m), m) for m in range(3, 9)]
    return fs + [random_morse(rp2, seed) for seed in range(30)]


class TestBettiTable:
    """``verify_dmt_b`` reads the function's Betti table; two full
    eliminations per call are the oracle."""

    def test_the_table_equals_the_elimination_at_every_level(self, rp2):
        checked = 0
        for f in betti_inputs(rp2):
            vectors, entries = _betti_table(f), f._view.entries
            assert _betti_table(f) is f._view.betti
            assert f._view.critical == critical_values(f)
            assert len(vectors) == len(entries) + 1 == len(f.complex) + 1
            for t in [-math.inf, *thresholds(f), math.inf]:
                level = level_subcomplex(f, t).complex
                assert vectors[bisect_right(entries, t)] == tuple(elimination_betti(level))
                checked += 1
            # One entry per cell, ascending; the distinct entries are the
            # values at which the level complex grows.
            assert entries == sorted(entries)
            distinct = list(dict.fromkeys(entries))
            sizes = [len(level_subcomplex(f, t).complex) for t in [-math.inf, *distinct]]
            assert all(x < y for x, y in zip(sizes, sizes[1:]))
            assert sizes[-1] == len(f.complex)
        assert checked > 8000
        assert _betti_table(random_morse(rp2, 0))[-1] == (1, 1, 1)

    def test_verify_dmt_b_equals_the_elimination_verifier(self, rp2):
        calls = refused = 0
        for f in betti_inputs(rp2):
            crit = sorted(critical_cells(f), key=lambda c: (f(c), simplex_key(c)))
            for i, cell in enumerate(crit):
                for a, b in dmt_b_windows(f, crit, i):
                    new = dmt_b_outcome(verify_dmt_b, f, cell, a, b)
                    assert new == dmt_b_outcome(verify_dmt_b_by_elimination, f, cell, a, b)
                    calls += 1
                    refused += isinstance(new, tuple)
            for regular in [c for c in f.complex if c not in crit][:1]:
                args = (f, regular, -math.inf, math.inf)
                assert dmt_b_outcome(verify_dmt_b, *args) == dmt_b_outcome(
                    verify_dmt_b_by_elimination, *args
                )
        assert calls > 12000 and 0 < refused < calls

    def test_a_whole_filtration_takes_one_reduction_and_no_level(self, monkeypatch):
        f = random_morse(torus(12), 1)
        reductions, subs = [], []
        kernel, sub = collapse._negative_cells, SimplicialComplex._sub
        monkeypatch.setattr(
            collapse, "_negative_cells", lambda *args: reductions.append(args) or kernel(*args)
        )
        monkeypatch.setattr(
            SimplicialComplex, "_sub", lambda self, cells: subs.append(cells) or sub(self, cells)
        )
        crit = sorted(critical_cells(f), key=f)
        for i, cell in enumerate(crit):
            verify_dmt_b(f, cell, f(crit[i - 1]) if i else -math.inf, f(cell))
        assert len(crit) == 210
        assert len(reductions) == 1 and subs == [] and f._view.levels == {}


class TestBasin:
    def test_p3_basin_of_vertex_1(self, p3_function):
        field = gradient_field(p3_function)
        b = basin(field, p3_function, (1,))
        assert b.cells.simplices == {(1,), (2,), (1, 2)}
        b.witness.replay()

    def test_p3_basin_of_vertex_3(self, p3_function):
        field = gradient_field(p3_function)
        b = basin(field, p3_function, (3,))
        assert b.cells.simplices == {(3,)}

    def test_single_point(self):
        k = build_complex([(0,)])
        f = validate(k, {(0,): 0})
        b = basin(gradient_field(f), f, (0,))
        assert b.cells.simplices == {(0,)}

    def test_non_critical_vertex_rejected(self, p3_function):
        field = gradient_field(p3_function)
        with pytest.raises(NotACriticalVertex):
            basin(field, p3_function, (2,))

    def test_basins_of_distinct_minima_are_disjoint(self, double_well):
        field = gradient_field(double_well)
        b0 = basin(field, double_well, (0,))
        b3 = basin(field, double_well, (3,))
        assert b0.cells.simplices == {(0,), (1,), (2,), (0, 1), (1, 2)}
        assert b3.cells.simplices == {(3,)}
        assert not (b0.cells.simplices & b3.cells.simplices)

    def test_disjointness_on_random_instances(self):
        from morseflow import critical_cells

        for seed in range(30):
            complex, f = random_instance(seed)
            f = make_injective(f)
            field = gradient_field(f)
            basins = [
                basin(field, f, v).cells.cells_of_dim(0)
                for v in field.critical
                if v.dim == 0
            ]
            for i, a in enumerate(basins):
                for b in basins[i + 1 :]:
                    assert not (set(a) & set(b))


    def test_matches_the_settle_every_vertex_oracle_on_random_instances(self):
        for seed in range(200):
            check_basins_against_the_oracle(random_instance(seed)[1])

    def test_matches_the_oracle_on_tori(self):
        for m in range(3, 9):
            for seed in range(3):
                check_basins_against_the_oracle(random_morse(torus(m), seed))

    def test_long_path_with_minima_at_both_ends_is_walked_without_recursion(self):
        n = 3000
        k = build_complex([(i, i + 1) for i in range(n - 1)])
        # Vertex i is valued by twice its distance to the nearer end, each edge
        # one less than its farther end, except the middle edge, which is critical.
        dist = [min(i, n - 1 - i) for i in range(n)]
        values = {(i,): 2 * d for i, d in enumerate(dist)}
        for i in range(n - 1):
            values[(i, i + 1)] = 2 * max(dist[i], dist[i + 1]) - 1
        values[(n // 2 - 1, n // 2)] = n
        f = validate(k, values)
        assert sorted(c for c in critical_cells(f) if c.dim == 0) == [(0,), (n - 1,)]
        check_basins_against_the_oracle(f)
        deepest = basin(gradient_field(f), f, (0,)).witness.pairs[0]
        assert deepest == ((n // 2 - 1,), (n // 2 - 2, n // 2 - 1))

    def test_reads_each_vertexs_cofaces_at_most_once_over_all_basins(self):
        """At most once per reader: the walk reads every vertex's cofaces, and
        the basin's replay, which shares the map, every vertex but the minimum's."""
        complex = torus(24)
        f = random_morse(complex, 2)
        field = gradient_field(f)
        # Cofaces are built on first use; count the reads of the built map.
        complex._coface_tuples = counted = CountingDict(complex._cofaces)
        minima = [c for c in field.critical if c.dim == 0]
        assert len(minima) > 1
        for v in minima:
            basin(field, f, v)
        # Every vertex drains to one minimum, so each lies in exactly one basin.
        assert counted.reads == {v: 1 if v in minima else 2 for v in complex.vertices}


class TestBasinOracle:
    def test_p3_basin_is_contained_in_a_maximal_collapser(self, p3_function):
        field = gradient_field(p3_function)
        report = basin_maximality_report(field, p3_function, (1,))
        assert report.contained

    def test_strictly_larger_only_when_a_container_is(self, triangle_function):
        # An edge with one minimum drains wholly into it: its basin is the
        # only maximal collapser.  The triangle's basin of 0 is its two edges
        # at 0, inside the whole collapsible triangle.
        edge_function = validate(build_complex([(0, 1)]), {(0,): 0, (1,): 2, (0, 1): 1})
        for f, larger in ((edge_function, False), (triangle_function, True)):
            report = basin_maximality_report(gradient_field(f), f, (0,))
            assert len(report.containers) == 1
            assert report.contained
            assert report.strictly_larger is larger

    def test_maximal_collapsible_to_circle_vertex(self, circle):
        # arcs through a fixed vertex are the maximal collapsing subcomplexes
        out = maximal_collapsible_to(circle, (0,))
        assert all((0,) in sub.simplices for sub in out)
        assert all(len(sub) == 5 for sub in out)

    @staticmethod
    def _maximal_collapsible_by_brute_force(complex, vertex):
        """Inclusion-maximal subcomplexes collapsing to the vertex, from subsets.

        Shares no search code with the library: subsets come from
        ``itertools`` and collapses are searched over frozensets of cells.
        """
        goal = frozenset([vertex])
        dead = set()

        def collapses(cells):
            if cells == goal:
                return True
            if cells in dead:
                return False
            for cell in cells:
                cofs = [c for c in complex.cofaces_of(cell) if c in cells]
                if len(cofs) == 1 and collapses(cells - {cell, cofs[0]}):
                    return True
            dead.add(cells)
            return False

        cells = list(complex)
        found = []
        for size in range(1, len(cells) + 1):
            for subset in combinations(cells, size):
                chosen = frozenset(subset)
                closed = all(set(complex.faces_of(c)) <= chosen for c in chosen)
                if vertex in chosen and closed and collapses(chosen):
                    found.append(chosen)
        return {s for s in found if not any(s < t for t in found)}

    def _check_against_brute_force(self, complex):
        for v in complex.cells_of_dim(0):
            out = maximal_collapsible_to(complex, v)
            assert len(out) == len({sub.simplices for sub in out})
            assert {sub.simplices for sub in out} == self._maximal_collapsible_by_brute_force(
                complex, v
            )

    def test_maximal_collapsible_to_matches_brute_force(self, circle):
        self._check_against_brute_force(circle)
        checked = 0
        for seed in range(200):
            complex, _ = random_instance(seed)
            if len(complex) <= 10:
                self._check_against_brute_force(complex)
                checked += 1
        assert checked > 100

    def test_reports_on_small_random_instances(self):
        for seed in range(25):
            complex, f = random_instance(seed, max_vertices=4, max_cell=3)
            field = gradient_field(f)
            for v in field.critical:
                if v.dim != 0:
                    continue
                report = basin_maximality_report(field, f, v, max_enum=14)
                assert report.contained


def anti_collapse_walk(complex, vertex):
    """Every subcomplex that collapses onto the vertex, as frozensets of cells.

    Oracle for ``CellIndex.collapsible`` and ``maximal_collapsible_to``: one
    walk per vertex by elementary anti-collapses, each read off ``faces_of``
    and ``cofaces_of`` (a cell outside the state joins with a coface whose
    other faces are in it), with no bitmask and no search index.
    """
    start = frozenset([vertex])
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for cell in complex:
            if cell in cur:
                continue
            for coface in complex.cofaces_of(cell):
                if set(complex.faces_of(coface)) <= cur | {cell}:
                    nxt = cur | {cell, coface}
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return seen


def small_complexes():
    """The complexes of ``random_instance`` seeds 0-299 with at most 14 cells."""
    return [k for k, _ in map(random_instance, range(300)) if len(k) <= 14]


class TestOneCollapsibleWalk:
    """One walk from all the vertices finds every collapsible subcomplex, and
    a complex collapses onto one vertex exactly when it does onto each."""

    def test_a_complex_collapses_onto_every_vertex_or_none(self):
        answers = set()
        for complex in small_complexes():
            found = [collapses_to(complex, SimplicialComplex([v])) for v in complex.vertices]
            assert len({seq is None for seq in found}) == 1
            answers.add(found[0] is None)
            for v, seq in zip(complex.vertices, found):
                assert seq is None or seq.replay().simplices == {v}
        assert answers == {True, False}

    def test_collapsible_is_the_union_of_the_per_vertex_walks(self, circle):
        for complex in [circle] + small_complexes():
            index = search_index(complex, 14)
            walked = set().union(*(anti_collapse_walk(complex, v) for v in complex.vertices))
            assert {frozenset(index.cells_of(m)) for m in index.collapsible()} == walked

    def test_maximal_collapsible_to_is_the_walks_maximal_states_in_order(self, circle):
        for complex in [circle] + small_complexes():
            position = {c: i for i, c in enumerate(complex)}
            for v in complex.vertices:
                states = anti_collapse_walk(complex, v)
                maximal = [s for s in states if not any(s < t for t in states)]
                maximal.sort(key=lambda s: (-len(s), sum(1 << position[c] for c in s)))
                assert [sub.simplices for sub in maximal_collapsible_to(complex, v)] == maximal


class TestNonInjectiveInputs:
    def test_dmt_a_with_tied_values(self):
        k = build_complex([(0, 1)])
        f = validate(k, {(0,): 0, (1,): 1, (0, 1): 1})
        seq = verify_dmt_a(f, 0, 1)
        assert seq.pairs == (((1,), (0, 1)),)
        assert seq.end.simplices == {(0,)}

    def test_replay_mismatch_is_a_proof_failure(self, triangle, point):
        bogus = CollapseSequence(triangle, point, (((1, 2), (0, 1, 2)),))
        with pytest.raises(ProofFailure):
            bogus.replay()


def tied_functions():
    """Valid functions with ties: each matched lower cell takes its upper's value.

    In the linear extension behind ``random_morse`` the lower cell comes after
    its upper and before its other cofaces, and its own faces come before the
    upper, so the tie keeps the function valid and its field unchanged.
    """
    out = []
    for seed in range(100):
        complex, f = random_instance(seed)
        values = dict(f.values)
        for lower, upper in f.field.pairs:
            values[lower] = values[upper]
        out.append(validate(complex, values))
    return out


def grid4_function(seed):
    triangles = []
    for a in (0, 1, 2, 4, 5, 6, 8, 9, 10):
        triangles += [(a, a + 4, a + 5), (a, a + 1, a + 5)]
    return random_morse(build_complex(triangles), seed)


def level_inputs():
    """Random instances, 4 x 4 grid and 6 x 6 torus functions, and tied functions."""
    fs = [random_instance(seed)[1] for seed in range(300)]
    fs += [grid4_function(seed) for seed in range(5)]
    fs += [random_morse(torus(6), seed) for seed in range(3)]
    return fs + tied_functions()


def thresholds(f):
    """Every distinct value, one below the minimum and one above the maximum."""
    values = f.sorted_distinct_values()
    return [values[0] - 1.0, *values, values[-1] + 1.0]


class TestLevelMemo:
    """Each function builds each of its level subcomplexes once, by matched faces."""

    def test_matched_face_closure_is_the_face_closure(self):
        levels = 0
        for f in level_inputs():
            for t in thresholds(f):
                level = level_subcomplex(f, t)
                assert level.threshold == t
                assert level.sublevel == {c for c, v in f.values.items() if v <= t}
                expected = f.complex.closure_of(level.sublevel)
                assert level.complex == expected
                assert list(level.complex) == list(expected)
                levels += 1
        assert levels > 3000

    def test_one_value_gap_gives_one_complex(self):
        for f in [random_instance(seed)[1] for seed in range(50)] + tied_functions()[:20]:
            values = f.sorted_distinct_values()
            below = level_subcomplex(f, values[0] - 2.0)
            assert level_subcomplex(f, values[0] - 1.0).complex is below.complex
            for a, b in zip(values, values[1:] + (values[-1] + 2.0,)):
                first = level_subcomplex(f, a)
                again = level_subcomplex(f, (a + b) / 2)
                assert again.complex is first.complex
                assert again.sublevel == first.sublevel
                assert again.threshold == (a + b) / 2

    def test_corpus_loop_builds_each_level_once(self, monkeypatch):
        """Windows, critical cells and one flow collapse per function, as the
        benchmark's corpus runs them: one ``_sub`` per distinct level that
        ``verify_dmt_a`` and ``verify_flow_collapse`` ask for, plus the flow
        image's closure; ``verify_dmt_b`` reads the Betti table and builds
        no level.  Two thresholds whose sublevel sets differ only by matched
        lowers name one level, which is built once."""
        built = []
        sub = SimplicialComplex._sub

        def counting_sub(self, cells):
            built.append(len(cells))
            return sub(self, cells)

        monkeypatch.setattr(SimplicialComplex, "_sub", counting_sub)
        for seed in range(60):
            _, f = random_instance(seed)
            field = gradient_field(f)
            values = f.sorted_distinct_values()
            crit = sorted(field.critical, key=lambda c: (f(c), simplex_key(c)))
            asked = []
            for i, c in enumerate(crit):
                upper = f(crit[i + 1]) if i + 1 < len(crit) else None
                between = [v for v in values if f(c) < v and (upper is None or v < upper)]
                if between:
                    verify_dmt_a(f, f(c), max(between), field)
                    asked += [f(c), max(between)]
            for i, cell in enumerate(crit):
                low = f(crit[i - 1]) if i else f(cell) - 1.0
                verify_dmt_b(f, cell, low, f(cell))
            median = values[len(values) // 2]
            verify_flow_collapse(f, median, FlowOperator(f, field))
            asked.append(median)
            distinct = {
                frozenset(face_closure([c for c, v in f.values.items() if v <= t])) for t in asked
            }
            assert len(built) == len(distinct) + 1, seed
            assert len(f._view.levels) == len(distinct)
            built.clear()

    def test_memo_is_invisible(self):
        for seed in range(20):
            complex, f = random_instance(seed)
            g = validate(complex, f.values)
            before = repr(f)
            for t in thresholds(f):
                level_subcomplex(f, t)
            assert f._view.levels and "_view" not in vars(g)
            for cell in critical_cells(f):
                verify_dmt_b(f, cell, f(cell) - 1.0, f(cell))
            assert f._view.betti is not None and "_view" not in vars(g)
            assert f == g and g == f
            assert repr(f) == before == repr(g)
            fresh = dataclasses.replace(f)
            assert fresh == f and "_view" not in vars(fresh)


# The routes the function's one value sort replaced, kept as oracles: each
# sorted or scanned the function's values on its own.


def level_by_scan(f, threshold):
    """``level_subcomplex`` before the value sort: the sublevel set listed by a
    scan of the values, closed by the matched lower faces of its cells."""
    sub = [c for c, value in f.values.items() if value <= threshold]
    down = f.field.down
    cells = set(sub)
    cells.update([down[c] for c in sub if c in down])
    return frozenset(sub), f.complex._sub(cells)


def betti_table_by_sort(f):
    """The Betti table before the value sort: the cells sorted by (entry,
    dimension), one reduction, and one Betti vector after each distinct
    entry; returns the distinct entries and the vectors."""
    entry = {c: f.values[f.field.up.get(c, c)] for c in f.complex}
    order = sorted(entry, key=lambda c: (entry[c], len(c)))
    layers = [[c for c in order if len(c) == p] for p in range(1, f.complex.dim + 2)]
    negative = _negative_cells(layers, f.complex._faces)
    betti, top = [0] * len(layers), 0
    entries, vectors = [], [()]
    for value, cells in groupby(order, entry.__getitem__):
        for c in cells:
            if c in negative:
                betti[len(c) - 2] -= 1
            else:
                betti[len(c) - 1] += 1
        top = max(top, len(c))  # a group's cells come by dimension
        entries.append(value)
        vectors.append(tuple(betti[:top]))
    return entries, vectors


def level_masks_by_value_order(work, index):
    """The distinct level masks of an injective function before the value
    sort: each cell's and its matched lower's bits ORed in value order, one
    mask per value, repeats dropped."""
    position, down = index.position, work.field.down
    masks = []
    mask = 0
    for c in sorted(index.cells, key=work.values.__getitem__):
        mask |= 1 << position[c] | 1 << position[down.get(c, c)]
        if not masks or masks[-1] != mask:
            masks.append(mask)
    return masks


def ls_family_by_masks(index, masks, k):
    members = set()
    for mask in masks:
        if index.category(mask)[0] >= k - 1:
            members.update(index.reachable(mask))
    return [frozenset(index.cells_of(m)) for m in sorted(members)]


class TestOneValueSort:
    """Each function sorts its cells by value once; every level, Betti vector
    and LS family read off that order equals the per-call route it replaced."""

    def test_the_orders_break_ties_canonically_and_put_faces_first(self, rp2):
        """The value order is the order of the heap-ordered linear extension
        keyed by (value, canonical order), which ``make_injective`` ranks
        along; the entry order puts every face before its cofaces, which
        ``_negative_cells`` needs, and each matched lower just before its
        upper."""
        for f in betti_inputs(rp2):
            view = f._view
            assert view.cells == sorted(f.complex, key=reference_make_injective(f))
            assert view.values == [f(c) for c in view.cells]
            assert view.entries == [f(f.field.up.get(c, c)) for c in view.entered]
            assert view.critical == critical_values(f)
            position = {c: i for i, c in enumerate(view.entered)}
            assert len(position) == len(view.entered) == len(f.complex)
            for c in f.complex:
                assert all(position[r] < position[c] for r in f.complex.faces_of(c))
            for lower, upper in f.field.up.items():
                assert position[upper] == position[lower] + 1

    def test_levels_and_betti_vectors_equal_the_per_call_routes(self, rp2):
        checked = 0
        for f in betti_inputs(rp2):
            entries, vectors = betti_table_by_sort(f)
            table = _betti_table(f)
            for t in [-math.inf, *thresholds(f), math.inf]:
                sublevel, complex = level_by_scan(f, t)
                level = level_subcomplex(f, t)
                assert level.sublevel == sublevel
                assert list(level.complex) == list(complex)
                assert table[bisect_right(f._view.entries, t)] == vectors[bisect_right(entries, t)]
                checked += 1
        assert checked > 8000

    def test_ls_families_equal_the_value_order_masks(self, rp2):
        families = 0
        for f in betti_inputs(rp2):
            if len(f.complex) > 14:
                continue
            work = f if f.is_injective() else make_injective(f)
            index = search_index(f.complex, 14)
            masks = level_masks_by_value_order(work, index)
            for k in range(1, index.category(index.full)[0] + 2):
                assert minmax._ls_family(f, index, k) == ls_family_by_masks(index, masks, k)
                families += 1
        assert families > 250

    def test_a_level_or_sorted_values_read_no_value_once_the_view_exists(self):
        for f in [random_morse(torus(6), 2), *tied_functions()[:20]]:
            f = MorseFunction(f.complex, CountingDict(f.values), f.field)
            f._view
            f.values.reads.clear()
            for t in [-math.inf, *thresholds(f), math.inf]:
                level_subcomplex(f, t)
            f.sorted_distinct_values()
            assert not f.values.reads

    def test_a_window_reads_only_the_values_of_the_pairs_it_removes(self):
        windows = 0
        for f in [random_morse(torus(6), 3), *tied_functions()]:
            f = MorseFunction(f.complex, CountingDict(f.values), f.field)
            for a, b in maximal_windows(f):
                f.values.reads.clear()
                seq = verify_dmt_a(f, a, b)
                assert set(f.values.reads) == {c for pair in seq.pairs for c in pair}
                windows += 1
        assert windows > 100

    def test_a_corpus_loop_sorts_each_function_once(self, monkeypatch):
        views = []

        class CountingView(morse._View):
            __slots__ = ()

            def __init__(self, f):
                views.append(f)
                super().__init__(f)

        counted = cached_property(CountingView)
        counted.__set_name__(MorseFunction, "_view")
        monkeypatch.setattr(MorseFunction, "_view", counted)
        for seed in range(40):
            _, f = random_instance(seed)
            field = gradient_field(f)
            for a, b in maximal_windows(f):
                verify_dmt_a(f, a, b, field)
            crit = sorted(field.critical, key=lambda c: (f(c), simplex_key(c)))
            for i, cell in enumerate(crit):
                verify_dmt_b(f, cell, f(crit[i - 1]) if i else -math.inf, f(cell))
            values = f.sorted_distinct_values()
            verify_flow_collapse(f, values[len(values) // 2], FlowOperator(f, field))
            assert views == [f], seed
            views.clear()

    def test_critical_values_and_injectivity_build_no_view(self):
        for seed in range(20):
            _, f = random_instance(seed)
            critical_values(f)
            f.is_injective()
            assert "_view" not in vars(f)

    def test_mutating_a_returned_list_changes_no_later_result(self):
        for seed in range(30):
            _, f = random_instance(seed)
            values, crit = f.sorted_distinct_values(), critical_values(f)
            windows = maximal_windows(f)
            pairs = [verify_dmt_a(f, a, b).pairs for a, b in windows]
            sublevels = [level_subcomplex(f, t).sublevel for t in thresholds(f)]
            returned = critical_values(f)
            returned.reverse()
            returned.append(math.inf)
            assert critical_values(f) == crit and f.sorted_distinct_values() == values
            assert [verify_dmt_a(f, a, b).pairs for a, b in windows] == pairs
            assert [level_subcomplex(f, t).sublevel for t in thresholds(f)] == sublevels


def _collapse_pairs_before(start, pairs):
    """Oracle: the replay kernel before it read the incidence maps directly,
    with set-based codimension-1 checks and ``as_simplex`` on every cell."""
    live = set(start.simplices)
    live_cofaces = {}
    for free, coface in pairs:
        free = as_simplex(free)
        coface = as_simplex(coface)
        if free not in live or coface not in live:
            raise SimplexNotInComplex(
                f"({free!r}, {coface!r}) is not a pair of cells of the complex"
            )
        if coface.dim != free.dim + 1 or not set(free) < set(coface):
            raise NotFreeFace(
                free, coface, f"{coface!r} is not a codimension-1 coface of {free!r}"
            )
        if live_cofaces.get(free, len(start.cofaces_of(free))) != 1:
            cofs = [tuple(c) for c in start.cofaces_of(free) if c in live]
            raise NotFreeFace(free, coface, f"{free!r} has cofaces {cofs}, so it is not free")
        for cell in (free, coface):
            live.remove(cell)
            for t in start.faces_of(cell):
                live_cofaces[t] = live_cofaces.get(t, len(start.cofaces_of(t))) - 1
    return live


def _replay_outcome(kernel, start, pairs):
    try:
        return "ok", kernel(start, pairs)
    except (SimplexNotInComplex, NotFreeFace, MalformedSimplex) as exc:
        return type(exc), str(exc), getattr(exc, "free", None), getattr(exc, "coface", None)


def _random_pairs(complex, rng, kind):
    """A random valid collapse sequence, then one step of the given kind."""
    live = set(complex)
    removed = []
    pairs = []
    for _ in range(rng.randint(0, 6)):
        free = [
            (a, b)
            for b in sorted(live, key=simplex_key)
            for a in complex.faces_of(b)
            if a in live and sum(c in live for c in complex.cofaces_of(a)) == 1
        ]
        if not free:
            break
        pair = rng.choice(free)
        pairs.append(pair)
        live -= set(pair)
        removed += pair
    cells = sorted(live, key=simplex_key)
    if kind == "not free":
        pairs += [
            (a, b) for a in cells for b in complex.cofaces_of(a)
            if b in live and sum(c in live for c in complex.cofaces_of(a)) > 1
        ][:1]
    elif kind == "not a coface" and cells:
        x, y = rng.choice(cells), rng.choice(cells)
        if x not in complex.faces_of(y):
            pairs.append((x, y))
    elif kind == "missing" and cells:
        gone = rng.choice(removed) if removed else Simplex((99,))
        pairs.append((gone, rng.choice(cells)) if rng.random() < 0.5 else (rng.choice(cells), gone))
    elif kind == "malformed":
        pairs.append(((1, 1), (1, 2)))
    # Plain tuples and lists are converted as before.
    return [tuple(p if rng.random() < 0.7 else list(p) for p in pair) for pair in pairs]


REPLAY_KINDS = ("valid", "not free", "not a coface", "missing", "malformed")


class TestReplayKernelAgainstTheOldOne:
    def test_random_pair_sequences(self):
        seen = set()
        for seed in range(200):
            complex, _ = random_instance(seed)
            rng = random.Random(seed)
            for kind in REPLAY_KINDS:
                pairs = _random_pairs(complex, rng, kind)
                new = _replay_outcome(_collapse_pairs, complex, pairs)
                assert new == _replay_outcome(_collapse_pairs_before, complex, pairs)
                seen.add(new[0])
        assert seen == {"ok", SimplexNotInComplex, NotFreeFace, MalformedSimplex}

    def test_random_pair_sequences_on_subcomplexes(self):
        """Levels and closures read their root's coface map, which lists
        cofaces outside them; the oracle replays on the checked rebuild,
        which has a map of its own."""
        seen = set()
        outside = 0  # steps whose free cell has a root coface outside the start
        for seed in range(150):
            complex, f = random_instance(seed)
            rng = random.Random(seed)
            starts = [level_subcomplex(f, t).complex for t in thresholds(f)]
            cells = list(complex)
            for _ in range(3):
                picked = rng.sample(cells, rng.randint(1, min(3, len(cells))))
                starts.append(complex.closure_of(picked))
            for start in dict.fromkeys(starts):  # each distinct start once
                rebuilt = SimplicialComplex(list(start))
                for kind in REPLAY_KINDS:
                    pairs = _random_pairs(start, rng, kind)
                    new = _replay_outcome(_collapse_pairs, start, pairs)
                    assert new == _replay_outcome(_collapse_pairs_before, rebuilt, pairs)
                    seen.add(new[0])
                    if new[0] == "ok":
                        outside += sum(
                            not set(complex.cofaces_of(a)) <= start.simplices for a, _ in pairs
                        )
        assert seen == {"ok", SimplexNotInComplex, NotFreeFace, MalformedSimplex}
        assert outside > 0


def assert_as_checked(complex):
    """A trusted build equals the checked constructor's, order and incidence
    too, as the public views show them."""
    checked = SimplicialComplex(list(complex))
    assert complex == checked
    assert list(complex) == list(checked)
    for c in complex:
        assert complex.faces_of(c) == checked.faces_of(c)
        assert complex.cofaces_of(c) == checked.cofaces_of(c)
    assert complex.dim == checked.dim
    for p in range(-1, complex.dim + 2):
        assert complex.cells_of_dim(p) == checked.cells_of_dim(p)


class TestTrustedBuilds:
    def test_basins(self):
        fs = [random_instance(seed)[1] for seed in range(100)]
        for f in fs + [random_morse(torus(6), seed) for seed in range(3)]:
            field = gradient_field(f)
            for v in field.critical:
                if v.dim == 0:
                    bas = basin(field, f, v)
                    assert_as_checked(bas.cells)
                    assert_as_checked(bas.witness.end)

    def test_exhaustive_searches(self):
        for seed in range(60):
            complex, f = random_instance(seed, max_vertices=5, max_cell=3)
            if len(complex) > 14:
                continue
            for v in complex.cells_of_dim(0):
                for sub in maximal_collapsible_to(complex, v):
                    assert_as_checked(sub)
            result = dgcat(complex)
            assert_as_checked(result.collapsed_to)
            for piece in result.cover:
                assert_as_checked(piece.subcomplex)
                assert_as_checked(piece.witness.end)

    def test_elementary_collapses(self):
        for seed in range(100):
            complex, _ = random_instance(seed)
            for b in complex:
                for a in complex.faces_of(b):
                    if len(complex.cofaces_of(a)) == 1:
                        assert_as_checked(elementary_collapse(complex, a, b))


def derived_complexes(complex, f):
    """Every kind of complex derived from ``complex``: levels, closures,
    elementary collapses, basin trees and ends, and on at most 14 cells the
    maximal collapsible subcomplexes and ``dgcat``'s pieces; then the same
    derived once more from a middle level."""
    out = [level_subcomplex(f, t).complex for t in thresholds(f)]
    for k in (complex, out[len(out) // 2]):
        out += [k.closure_of([c]) for c in k]
        out += [
            elementary_collapse(k, a, b)
            for b in k for a in k.faces_of(b) if len(k.cofaces_of(a)) == 1
        ]
        if len(k) <= 14:
            for v in k.vertices:
                out += maximal_collapsible_to(k, v)
            result = dgcat(k)
            out.append(result.collapsed_to)
            out += [x for piece in result.cover for x in (piece.subcomplex, piece.witness.end)]
    for v in f.field.critical:
        if v.dim == 0:
            bas = basin(f.field, f, v)
            out += [bas.cells, bas.witness.end]
    return out


class TestSharedIncidence:
    """A loaded complex owns the face and coface maps of every complex derived
    from it, and only it builds a coface map."""

    def test_derived_complexes_share_the_roots_face_map(self):
        proper = set()
        for seed in range(100):
            complex, f = random_instance(seed, max_vertices=5, max_cell=3)
            for sub in derived_complexes(complex, f):
                assert sub._root is complex and sub._faces is complex._faces
                assert sub._coface_tuples is None
                proper.add(len(sub) < len(complex))
            assert complex._coface_tuples is not None  # read by collapses and basins
        assert proper == {True, False}  # the top level is the whole complex

    def test_a_window_sweep_builds_a_coface_map_on_the_root_only(self):
        complex = torus(8)
        f = random_morse(complex, 3)
        values = f.sorted_distinct_values()
        crit = set(critical_values(f))
        swept = 0
        # Every value ``a`` with the largest ``b`` that keeps (a, b] free of critical values.
        for i, a in enumerate(values):
            regular = list(takewhile(lambda v: v not in crit, values[i + 1 :]))
            if regular:
                seq = verify_dmt_a(f, a, regular[-1])
                assert seq.start._faces is seq.end._faces is complex._faces
                swept += 1
        assert swept > len(values) // 2
        assert complex._coface_tuples is not None
        assert all(isinstance(level, SimplicialComplex) for level in f._view.levels.values())
        assert all(level._coface_tuples is None for level in f._view.levels.values())


class TestForeignField:
    """A field of another function is refused up front, not as a failed proof."""

    def test_field_of_another_function_on_the_same_complex(self, p3_function, p3):
        other = validate(p3, {(1,): 0, (2,): 1, (3,): 3, (1, 2): 2, (2, 3): 2.5})
        assert other.field != p3_function.field
        with pytest.raises(ComplexMismatch):
            verify_dmt_a(p3_function, 1, 3, other.field)

    def test_field_of_another_complex(self, p3_function, circle_function):
        with pytest.raises(ComplexMismatch):
            verify_dmt_a(p3_function, 1, 3, circle_function.field)

    def test_an_equal_field_is_accepted(self, p3_function, p3):
        twin = validate(p3, p3_function.values)
        assert twin.field is not p3_function.field
        assert verify_dmt_a(p3_function, 1, 3, twin.field).pairs

    def test_basins_and_paths_refuse_a_foreign_field(self):
        # On the path 0-1-2-3, f pairs (1) with (0, 1) and g pairs it with (1, 2).
        path = build_complex([(0, 1), (1, 2), (2, 3)])
        shared = {(0,): 0, (1,): 2, (2,): 1, (3,): 0.5, (2, 3): 4}
        f = validate(path, {**shared, (0, 1): 1.5, (1, 2): 3})
        g = validate(path, {**shared, (0, 1): 3, (1, 2): 1.5})
        assert f.field.pairs == {((1,), (0, 1))} and g.field.pairs == {((1,), (1, 2))}
        searches = [
            lambda field: basin(field, f, (0,)).cells,
            lambda field: basin_maximality_report(field, f, (0,)).basin.cells,
            lambda field: enumerate_paths(f, field, (2,), (0,)),
        ]
        twin = validate(path, f.values).field
        for search in searches:
            with pytest.raises(ComplexMismatch):
                search(g.field)
            assert search(twin) == search(f.field)
        assert basin(f.field, f, (0,)).cells.simplices == {(0,), (1,), (0, 1)}
        assert len(enumerate_paths(f, f.field, (2,), (0,))) == 2


class TestRareRefusals:
    """Refusals that only a caller's mistake reaches, each with its message."""

    def test_collapses_to_a_target_outside_the_complex(self, p3):
        with pytest.raises(ComplexMismatch) as info:
            collapses_to(p3, SimplicialComplex([(5,)]))
        assert str(info.value) == "the target is not a subcomplex of the start complex"

    def test_verify_dmt_b_with_the_cell_outside_its_window(self, p3_function):
        # The critical edge 23 is valued 4, outside (0, 3].
        with pytest.raises(PreconditionViolated) as info:
            verify_dmt_b(p3_function, (2, 3), 0, 3)
        assert str(info.value) == "value 4.0 of Simplex(2, 3) is outside (0, 3]"

    def test_verify_dmt_b_with_another_critical_cell_in_its_window(self, p3_function):
        # The critical vertex 3, valued 1, shares the window (-1, 4] with 23.
        with pytest.raises(PreconditionViolated) as info:
            verify_dmt_b(p3_function, (2, 3), -1, 4)
        assert str(info.value) == "other critical cells [(1,), (3,)] in window"
