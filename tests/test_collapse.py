"""Level subcomplexes, collapses and their verifiers, basins."""

from __future__ import annotations

from itertools import combinations

import pytest

from morseflow import (
    CollapseSequence,
    Simplex,
    SimplicialComplex,
    basin,
    basin_maximality_report,
    build_complex,
    collapses_to,
    critical_cells,
    elementary_collapse,
    gradient_field,
    level_subcomplex,
    make_injective,
    maximal_collapsible_to,
    random_morse,
    validate,
    verify_dmt_a,
    verify_dmt_b,
)
from morseflow.collapse import collapse_in_descending_order
from morseflow.complexes import simplex_key
from morseflow.errors import (
    CriticalValueInWindow,
    NotACriticalVertex,
    NotFreeFace,
    PreconditionViolated,
    ProofFailure,
    SimplexNotInComplex,
)
from conftest import CountingDict, random_instance, torus


def reference_basin(field, v):
    """Oracle for ``basin``: settle every vertex by walking its gradient path
    down to its end, then keep the vertices that end at ``v``.

    Gives the members in canonical order, the witness pairs deepest first,
    and the cells of the basin.
    """
    term: dict[Simplex, Simplex] = {}
    depth: dict[Simplex, int] = {}

    def settle(u):
        walk = []
        x = u
        while x not in term and x in field.up:
            walk.append(x)
            x = Simplex([w for w in field.up[x] if w != x[0]])
        if x not in term:
            term[x] = x
            depth[x] = 0
        end, d = term[x], depth[x]
        for y in reversed(walk):
            d += 1
            term[y] = end
            depth[y] = d
        return end

    members = [u for u in field.complex.cells_of_dim(0) if settle(u) == v]
    pairs = sorted(
        ((u, field.up[u]) for u in members if u != v),
        key=lambda p: (-depth[p[0]], simplex_key(p[0])),
    )
    return members, pairs, set(members) | {edge for _, edge in pairs}


def check_basins_against_the_oracle(f):
    """Every minimum's basin equals the oracle's, and the basins partition the vertices."""
    field = gradient_field(f)
    covered = []
    for v in sorted(c for c in field.critical if c.dim == 0):
        b = basin(field, f, v)
        members, pairs, cells = reference_basin(field, v)
        assert b.cells.cells_of_dim(0) == tuple(members)
        assert b.cells.simplices == cells
        assert b.witness.pairs == tuple(pairs)
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
        pairs = [(Simplex((0,)), Simplex((0, 1))), (Simplex((1, 2)), Simplex((0, 1, 2)))]
        message = r"pair \(Simplex\(0,\), Simplex\(0, 1\)\) was not free when its turn came"
        with pytest.raises(ProofFailure, match=message):
            collapse_in_descending_order(triangle, point, pairs, triangle_function)


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

    def test_random_instances_every_critical_cell(self):
        from morseflow import critical_cells

        for seed in range(40):
            _, f = random_instance(seed)
            crit = sorted(critical_cells(f), key=lambda c: f(c))
            for i, cell in enumerate(crit):
                low = f(crit[i - 1]) if i else f(cell) - 1.0
                verify_dmt_b(f, cell, low, f(cell))


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
        complex = torus(24)
        f = random_morse(complex, 2)
        field = gradient_field(f)
        complex._cofaces = counted = CountingDict(complex._cofaces)
        minima = [c for c in field.critical if c.dim == 0]
        assert len(minima) > 1
        for v in minima:
            basin(field, f, v)
        assert set(counted.reads) <= set(complex.cells_of_dim(0))
        assert max(counted.reads.values()) == 1


class TestBasinOracle:
    def test_p3_basin_is_contained_in_a_maximal_collapser(self, p3_function):
        field = gradient_field(p3_function)
        report = basin_maximality_report(field, p3_function, (1,))
        assert report.contained

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
