"""The min-max principle, mountain pass, and discrete category."""

from __future__ import annotations

from itertools import combinations

import pytest

from morseflow import (
    EdgePath,
    FlowOperator,
    MinMaxInstance,
    Simplex,
    SimplicialComplex,
    build_complex,
    check_minmax_data,
    critical_values,
    dgcat,
    enumerate_paths,
    flow_path,
    gradient_field,
    is_connected,
    level_subcomplex,
    component_count,
    ls_bound_check,
    ls_instance,
    ls_minmax,
    minmax_value,
    mountain_pass,
    validate,
)
from morseflow.errors import (
    DeformationViolated,
    EmptyFamily,
    NoPathExists,
    NotLocalMinima,
    TheoremViolation,
)


class TestMinMaxValue:
    def test_singleton_family(self, p3_function):
        instance = MinMaxInstance(
            p3_function, {"identity": lambda s: s}, [frozenset({Simplex((1,))})]
        )
        value, witness = minmax_value(instance)
        assert value == 0.0
        assert witness == {(1,)}

    def test_empty_family_rejected(self, p3_function):
        with pytest.raises(EmptyFamily):
            minmax_value(MinMaxInstance(p3_function, {}, []))
        with pytest.raises(EmptyFamily):
            minmax_value(MinMaxInstance(p3_function, {}, [frozenset()]))

    def test_non_critical_value_flagged(self, p3_function):
        instance = MinMaxInstance(
            p3_function, {}, [frozenset({Simplex((2,))})]
        )
        with pytest.raises(TheoremViolation):
            minmax_value(instance)


class TestCheckMinMaxData:
    def test_p3_path_instance_passes(self, p3_function):
        result = mountain_pass(p3_function, (3,), (1,))
        report = check_minmax_data(result.instance)
        assert report.closure_checked == len(result.instance.family)
        assert set(report.deformation) == {2.0, 3.0}

    def test_identity_map_fails_deformation(self, p3_function, p3):
        instance = MinMaxInstance(
            p3_function, {"identity": lambda s: s}, [frozenset(p3.simplices)]
        )
        with pytest.raises(DeformationViolated):
            check_minmax_data(instance)

    def test_ls_instance_passes(self, circle_function):
        for k in (1, 2):
            report = check_minmax_data(ls_instance(circle_function, k))
            assert report.closure_checked >= 1


class TestEnumeratePaths:
    def test_p3_two_paths(self, p3_function):
        field = gradient_field(p3_function)
        paths = enumerate_paths(p3_function, field, (3,), (1,))
        assert [[tuple(e) for e in p.edges] for p in paths] == [
            [(2, 3)],
            [(2, 3), (1, 2)],
        ]

    def test_single_edge_between_minima(self):
        k = build_complex([(0, 1)])
        f = validate(k, {(0,): 0, (1,): 1, (0, 1): 2})
        field = gradient_field(f)
        paths = enumerate_paths(f, field, (1,), (0,))
        assert [[tuple(e) for e in p.edges] for p in paths] == [[(0, 1)]]

    def test_disconnected_minima_have_no_path(self):
        k = build_complex([(0, 1), (2, 3)])
        f = validate(k, {(0,): 0, (1,): 2, (0, 1): 1, (2,): 3, (3,): 5, (2, 3): 4})
        field = gradient_field(f)
        with pytest.raises(NoPathExists):
            enumerate_paths(f, field, (2,), (0,))

    def test_non_minima_rejected(self, circle_function):
        field = gradient_field(circle_function)
        with pytest.raises(NotLocalMinima):
            enumerate_paths(circle_function, field, (2,), (0,))

    def test_double_well_has_eight_paths(self, double_well):
        field = gradient_field(double_well)
        paths = enumerate_paths(double_well, field, (3,), (0,))
        assert len(paths) == 8
        edge_lists = {tuple(tuple(e) for e in p.edges) for p in paths}
        assert ((1, 3),) in edge_lists
        assert ((2, 3), (0, 2), (0, 1)) in edge_lists

    def test_monotone_tail_filters(self, double_well):
        field = gradient_field(double_well)
        relaxed = enumerate_paths(
            double_well, field, (3,), (0,), monotone_tail=False
        )
        strict = enumerate_paths(double_well, field, (3,), (0,))
        assert len(relaxed) > len(strict)
        strict_sets = {p.cells() for p in strict}
        assert all(p.cells() in {q.cells() for q in relaxed} for p in strict)
        assert frozenset({Simplex((3,)), Simplex((1, 3)), Simplex((1, 2)), Simplex((0, 2))}) in {
            p.cells() for p in relaxed
        } - strict_sets


class TestFlowPath:
    def test_p3_short_path_flows_to_long_path(self, p3_function):
        operator = FlowOperator(p3_function)
        path = EdgePath(Simplex((3,)), (Simplex((2, 3)),), Simplex((1,)))
        flowed = flow_path(operator, path)
        assert [tuple(e) for e in flowed.edges] == [(2, 3), (1, 2)]

    def test_p3_long_path_is_fixed(self, p3_function):
        operator = FlowOperator(p3_function)
        path = EdgePath(Simplex((3,)), (Simplex((2, 3)), Simplex((1, 2))), Simplex((1,)))
        flowed = flow_path(operator, path)
        assert flowed == path

    def test_paired_edge_diverts_around_its_triangle(self):
        # v1=0, u=1, w=2; the path edge 01 is paired with the triangle and
        # the flow replaces it by the opposite edge 02.
        k = build_complex([(0, 1, 2)])
        f = validate(
            k, {(2,): 0, (0,): 1, (1, 2): 2, (1,): 3, (0, 2): 4, (0, 1, 2): 5, (0, 1): 6}
        )
        operator = FlowOperator(f)
        path = EdgePath(Simplex((0,)), (Simplex((0, 1)),), Simplex((2,)))
        flowed = flow_path(operator, path)
        assert flowed.cells() == {(0,), (0, 2)}

    def test_family_closed_under_flow(self, double_well):
        result = mountain_pass(double_well, (3,), (0,))
        operator = FlowOperator(result.instance.function)
        family = {p.cells() for p in result.paths}
        for p in result.paths:
            assert flow_path(operator, p).cells() in family


class TestMountainPass:
    def test_p3(self, p3_function):
        result = mountain_pass(p3_function, (3,), (1,))
        assert result.value == 4.0
        assert result.edge == (2, 3)
        assert len(result.witness.edges) == 1
        assert result.value > p3_function((3,))

    def test_circle_has_single_minimum(self, circle_function):
        with pytest.raises(NotLocalMinima):
            mountain_pass(circle_function, (2,), (0,))

    def test_double_well_ridge(self, double_well):
        result = mountain_pass(double_well, (3,), (0,))
        # oracle: recompute the min of maxes over the enumerated family
        oracle = min(
            max(double_well(c) for c in p.cells()) for p in result.paths
        )
        assert result.value == oracle == 10.0
        assert result.edge == (1, 3)

    def test_sublevel_below_higher_minimum_is_disconnected(self, double_well):
        level = level_subcomplex(double_well, double_well((3,)))
        assert component_count(level.complex) == 2
        assert is_connected(double_well.complex)


class TestCategory:
    def test_triangle_is_collapsible(self, triangle):
        result = dgcat(triangle)
        assert result.category == 0
        assert len(result.cover) == 1
        result.cover[0].witness.replay()

    def test_circle_needs_two_pieces(self, circle):
        result = dgcat(circle)
        assert result.category == 1
        assert len(result.cover) == 2
        covered = set()
        for piece in result.cover:
            piece.witness.replay()
            covered |= piece.subcomplex.simplices
        assert result.collapsed_to.simplices <= covered

    def test_single_vertex(self, point):
        assert dgcat(point).category == 0

    def test_collapse_witness_replays(self, two_triangles):
        result = dgcat(two_triangles)
        assert result.category == 0
        result.collapse_witness.replay()


class TestLsMinmax:
    def test_triangle(self, triangle_function):
        assert ls_minmax(triangle_function) == [(1, 0.0)]
        assert ls_bound_check(triangle_function)

    def test_circle(self, circle_function):
        assert ls_minmax(circle_function) == [(1, 0.0), (2, 5.0)]
        assert ls_bound_check(circle_function)

    def test_point(self):
        k = build_complex([(0,)])
        f = validate(k, {(0,): 2.5})
        assert ls_minmax(f) == [(1, 2.5)]
        assert ls_bound_check(f)

    def test_values_are_critical_and_monotone(self, double_well):
        values = ls_minmax(double_well)
        crit = set(critical_values(double_well))
        assert all(v in crit for _, v in values)
        raw = [v for _, v in values]
        assert raw == sorted(raw)

    def test_depth_one_value_is_the_global_minimum(self, double_well, circle_function):
        for f in (double_well, circle_function):
            assert ls_minmax(f)[0] == (1, min(f.values.values()))


class TestSquareCycle:
    """Two minima on a square boundary: ridge on the cheaper side."""

    @pytest.fixture()
    def square_function(self):
        k = build_complex([(0, 1), (1, 2), (2, 3), (0, 3)])
        return validate(
            k,
            {(0,): 0, (2,): 1, (1,): 3, (0, 1): 2, (3,): 4, (0, 3): 3.5, (1, 2): 5, (2, 3): 6},
        )

    def test_ridge_is_the_cheaper_crossing(self, square_function):
        result = mountain_pass(square_function, (2,), (0,))
        assert result.value == 5.0
        assert result.edge == (1, 2)


class TestCategoryAgainstBruteForce:
    """Recompute dgcat from first principles on the small fixtures.

    The oracle shares no search code with the library: it enumerates subsets
    with ``itertools`` and searches collapses over frozensets of cells.
    """

    @staticmethod
    def _subcomplexes(complex):
        cells = list(complex)
        for size in range(len(cells) + 1):
            for subset in combinations(cells, size):
                chosen = set(subset)
                if all(set(complex.faces_of(c)) <= chosen for c in chosen):
                    yield SimplicialComplex(chosen)

    @staticmethod
    def _collapses_to_a_vertex(complex):
        dead = set()

        def search(cells):
            if len(cells) == 1:
                return next(iter(cells)).dim == 0
            if cells in dead:
                return False
            for cell in cells:
                cofs = [c for c in complex.cofaces_of(cell) if c in cells]
                if len(cofs) == 1 and search(cells - {cell, cofs[0]}):
                    return True
            dead.add(cells)
            return False

        return search(complex.simplices)

    @staticmethod
    def _naive_dgcat(complex):
        oracle = TestCategoryAgainstBruteForce
        collapsible = [
            s
            for s in oracle._subcomplexes(complex)
            if len(s) > 0 and oracle._collapses_to_a_vertex(s)
        ]

        def precat(cells):
            if not cells:
                return 0
            for size in range(1, len(collapsible) + 1):
                if TestCategoryAgainstBruteForce._covers(cells, collapsible, size):
                    return size - 1
            raise AssertionError("no cover found")

        reachable = {complex.simplices}
        frontier = [complex]
        while frontier:
            current = frontier.pop()
            for cell in current:
                cofs = [c for c in current.cofaces_of(cell) if c in current]
                if len(cofs) == 1:
                    nxt = SimplicialComplex(current.simplices - {cell, cofs[0]})
                    if nxt.simplices not in reachable:
                        reachable.add(nxt.simplices)
                        frontier.append(nxt)
        return min(precat(cells) for cells in reachable)

    @staticmethod
    def _covers(cells, family, size):
        if not cells:
            return True
        if size == 0:
            return False
        pivot = next(iter(sorted(cells)))
        for piece in family:
            if pivot in piece.simplices:
                if TestCategoryAgainstBruteForce._covers(
                    cells - piece.simplices, family, size - 1
                ):
                    return True
        return False

    @pytest.mark.parametrize("maximal", [[(0,)], [(0, 1)], [(1, 2), (2, 3)], [(0, 1, 2)], [(0, 1), (0, 2), (1, 2)]])
    def test_engine_matches_naive(self, maximal):
        complex = build_complex(maximal)
        assert dgcat(complex).category == self._naive_dgcat(complex)
