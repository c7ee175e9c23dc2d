"""The min-max principle, mountain pass, and discrete category."""

from __future__ import annotations

import gc
import importlib
import math
import pkgutil
import random
import re
import struct
import sys
from itertools import combinations, groupby, permutations

import pytest

import morseflow
from morseflow import (
    EdgePath,
    FlowOperator,
    GradientField,
    MinMaxInstance,
    Simplex,
    SimplicialComplex,
    basin,
    basin_maximality_report,
    build_complex,
    check_minmax_data,
    collapses_to,
    critical_cells,
    critical_values,
    dgcat,
    enumerate_paths,
    flow_image,
    flow_path,
    gradient_field,
    is_connected,
    level_subcomplex,
    component_count,
    make_injective,
    ls_bound_check,
    ls_instance,
    ls_minmax,
    maximal_collapsible_to,
    minmax_value,
    mountain_pass,
    random_morse,
    simplex_key,
    validate,
)
from morseflow import collapse, minmax
from morseflow.complexes import CellIndex, search_index
from morseflow.errors import (
    ClosureViolated,
    ComplexMismatch,
    DeformationViolated,
    EmptyFamily,
    EmptyInput,
    NoPathExists,
    NotACriticalVertex,
    NotLocalMinima,
    PreconditionViolated,
    ReassemblyFailure,
    SimplexNotInComplex,
    TheoremViolation,
    TooLargeForEnumeration,
)
from conftest import (
    frame_collapse_search,
    grid,
    random_instance,
    stack_collapsible,
    stack_reachable,
    torus,
    two_hole_grid,
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

    def test_ties_break_toward_the_canonically_smaller_member(self, p3_function):
        # Top value 4 (the critical edge 23) and two cells each: a tie that
        # only the canonical cell order breaks.
        tied = [
            frozenset({Simplex((3,)), Simplex((2, 3))}),
            frozenset({Simplex((1,)), Simplex((2, 3))}),
            frozenset({Simplex((1, 2)), Simplex((2, 3))}),
        ]
        larger = frozenset({Simplex((1,)), Simplex((3,)), Simplex((2, 3))})
        for family in permutations(tied + [larger]):
            value, witness = minmax_value(MinMaxInstance(p3_function, {}, list(family)))
            assert (value, witness) == (4.0, tied[1])

    def test_foreign_cell_rejected(self, p3_function):
        for member in ({Simplex((9,))}, {Simplex((1,)), Simplex((1, 3))}):
            family = [frozenset({Simplex((1,))}), frozenset(member)]
            instance = MinMaxInstance(p3_function, {}, family)
            with pytest.raises(SimplexNotInComplex):
                minmax_value(instance)

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

    def test_a_map_that_leaves_the_family_is_named(self, p3_function):
        one, two, three = (Simplex((v,)) for v in (1, 2, 3))
        family = [frozenset({one}), frozenset({one, two}), frozenset({three})]
        # "grow" adds vertex 2: {1} and {1, 2} land in the family, {3} does not.
        maps = {"fixed": lambda s: s, "grow": lambda s: s | {two}}
        with pytest.raises(ClosureViolated) as caught:
            check_minmax_data(MinMaxInstance(p3_function, maps, family))
        assert caught.value.map_name == "grow"
        assert caught.value.member is family[2]
        assert str(caught.value) == "map 'grow' leaves the family on [(3,)]"

    def test_adjacent_float_values_keep_their_own_sublevel_sets(self):
        # h shrinks only the whole edge, so it fails at the regular value of
        # the edge: the set just above it is {0, 01}, which h fixes.  With
        # the edge at 1 - 2**-53, a +- eps rounds onto the neighbouring value.
        k = build_complex([(0, 1)])
        whole = frozenset(k.simplices)
        family = [frozenset(c) for n in range(4) for c in combinations(whole, n)]
        maps = {"h": lambda s: frozenset({Simplex((0,))}) if s == whole else s}
        for edge_value in (1 - 2**-53, 0.5):
            f = validate(k, {(0,): 0.0, (0, 1): edge_value, (1,): 1.0})
            with pytest.raises(DeformationViolated) as caught:
                check_minmax_data(MinMaxInstance(f, maps, family))
            assert caught.value.value == edge_value

    def test_epsilon_is_half_the_gap_without_overflow(self):
        # Values 2e308 apart: the gap overflows, half of it does not.  One and
        # two units of the least subnormal: half the gap rounds to even (0.0),
        # where halving each value first would give one unit.
        k = build_complex([(0,), (1,)])
        for low, high, epsilon in ((-1e308, 1e308, 1e308), (5e-324, 1e-323, 0.0)):
            f = validate(k, {(0,): low, (1,): high})
            assert check_minmax_data(ls_instance(f, 1)).epsilon == epsilon


class TestEpsilonAgainstTwoBranches:
    """The exact epsilon equals the float formula with its overflow branch,
    bit for bit."""

    @staticmethod
    def _epsilon(f):
        # Every set lands on the empty set, so closure and deformation hold
        # for any function, and only the epsilon is read.
        instance = MinMaxInstance(f, {"drop": lambda s: frozenset()}, [frozenset()])
        return check_minmax_data(instance).epsilon

    def _assert_same(self, f):
        assert self._epsilon(f).hex() == two_branch_epsilon(f).hex()

    def test_random_instances_and_the_corpus(self):
        # Seeds 0-23 are the corpus workload's golden inputs (the same draws);
        # the others are the first of its pool at run seed 1.
        rng = random.Random(1)
        for seed in [*range(300), *(rng.randrange(2**32) for _ in range(50))]:
            self._assert_same(random_instance(seed)[1])

    def test_value_sets_at_the_float_extremes(self):
        rng = random.Random(0)

        def finite_bits():
            while True:
                x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                if math.isfinite(x):
                    return x

        draws = [
            lambda: rng.randrange(1, 2**52) * 5e-324,  # subnormal
            lambda: rng.choice((-1, 1)) * rng.randrange(1, 8) * 5e-324,  # tiny subnormal
            finite_bits,
            lambda: float(rng.randrange(-10**6, 10**6)),
            lambda: rng.choice((-1e308, 1e308, -sys.float_info.max, sys.float_info.max)),
        ]
        sets = [[-1e308, 1e308], [5e-324, 1e-323], [0.0], [2.2250738585072014e-308, 2.225e-308]]
        for _ in range(1500):
            sets.append({rng.choice(draws)() for _ in range(rng.randint(1, 6))})
        for values in sets:
            values = list(values)
            k = build_complex([(v,) for v in range(len(values))])
            self._assert_same(validate(k, {(v,): x for v, x in enumerate(values)}))
        far = validate(build_complex([(0,), (1,)]), {(0,): -1e308, (1,): 1e308})
        assert self._epsilon(far) == 1e308


class TestOwnCells:
    """Cells named by plain vertex tuples come back as the complex's own
    objects, so a derived result holds one object per cell."""

    def test_basin_of_a_tuple_vertex(self):
        f = random_morse(torus(6), 2)
        own = {c: c for c in f.complex}
        for vertex in sorted(c for c in f.field.critical if c.dim == 0):
            found = basin(f.field, f, tuple(vertex))
            assert found.minimum is own[vertex]
            assert all(own[c] is c for c in found.cells)
            assert all(own[c] is c for c in found.witness.end)

    def test_paths_of_tuple_vertices(self, grid_functions):
        checked = 0
        for result in _grid_passes(grid_functions[:10]):
            own = {c: c for c in result.instance.function.complex}
            for path in (result.witness, *result.paths):
                assert own[path.start] is path.start and own[path.low] is path.low
                assert all(own[e] is e for e in path.edges)
                checked += 1
        assert checked > 10

    def test_flow_rows_and_mountain_pass_families(self):
        f = random_morse(torus(6), 2)
        own = {c: c for c in f.complex}
        rows = FlowOperator(f)._flow
        assert sum(map(len, rows.values())) == 371
        assert all(own[s] is s and all(own[t] is t for t in row) for s, row in rows.items())
        complex = grid(4)
        references = 0
        for result in _grid_passes([random_morse(complex, seed) for seed in range(40)]):
            own = {c: c for c in result.instance.function.complex}
            for member in result.instance.family:
                assert all(own[c] is c for c in member)
                references += len(member)
        assert references > 10**6

    def test_checked_field_of_tuple_pairs(self, triangle_function):
        complex = triangle_function.complex
        own = {c: c for c in complex}
        pairs = [(tuple(lower), tuple(upper)) for lower, upper in triangle_function.field.pairs]
        field = GradientField(complex, pairs)
        for lower, upper in field.up.items():
            assert own[lower] is lower and own[upper] is upper
            assert field.down[upper] is lower


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
        # 3 -> 1 -> 2 -> 0 is vertex-simple, ends in the basin of 0 and meets
        # no other critical vertex, but after entering the basin at 1 over
        # the ridge its edge values go 10, 3, 6: only the tail rule drops it.
        field = gradient_field(double_well)
        edges = (Simplex((1, 3)), Simplex((1, 2)), Simplex((0, 2)))
        assert _basin_by_descent(field, 0) == {0, 1, 2}
        assert _critical_vertices(field) == {0, 3}
        assert [double_well(e) for e in edges] == [10, 3, 6]
        paths = enumerate_paths(double_well, field, (3,), (0,))
        assert frozenset({Simplex((3,)), *edges}) not in {p.cells() for p in paths}


@pytest.fixture(scope="module")
def grid_functions():
    """``random_morse`` on the 3 x 3 vertex grid."""
    complex = grid(3)
    return [random_morse(complex, seed) for seed in range(40)]


def _tied(f):
    """A Morse function with ties whose pairs are some of ``f``'s."""
    return validate(f.complex, {c: v // 3 + len(c) for c, v in f.values.items()})


def _critical_vertices(field):
    return {c[0] for c in field.critical if c.dim == 0}


def _basin_by_descent(field, low):
    """Vertices whose descent along ``field.up`` ends at the vertex ``low``."""
    basin = set()
    for vertex in field.complex.cells_of_dim(0):
        cell = vertex
        while cell in field.up:
            a, b = field.up[cell]
            cell = Simplex((b if a == cell[0] else a,))
        if cell[0] == low:
            basin.add(vertex[0])
    return basin


def _paths_by_rules(f, field, high, low):
    """Admissible paths as edge tuples, from the three rules written out.

    Shares no code with ``enumerate_paths``: every vertex-simple edge path
    out of ``high`` is listed first, and then kept only if it ends in the
    basin of ``low``, meets no critical vertex other than ``low`` and has
    strictly decreasing edge values from its first basin vertex on.
    """
    neighbours = {}
    for edge in f.complex.cells_of_dim(1):
        a, b = edge
        neighbours.setdefault(a, []).append((b, edge))
        neighbours.setdefault(b, []).append((a, edge))
    simple = []
    stack = [((high,), ())]
    while stack:
        verts, edges = stack.pop()
        if edges:
            simple.append((verts, edges))
        for nxt, edge in neighbours.get(verts[-1], ()):
            if nxt not in verts:
                stack.append((verts + (nxt,), edges + (edge,)))
    basin = _basin_by_descent(field, low)
    others = _critical_vertices(field) - {low}
    kept = []
    for verts, edges in simple:
        if verts[-1] not in basin or others & set(verts[1:]):
            continue
        first = next(j for j in range(1, len(verts)) if verts[j] in basin)
        tail = [f(e) for e in edges[first - 1 :]]
        if all(x > y for x, y in zip(tail, tail[1:])):
            kept.append(tuple(tuple(e) for e in edges))
    return sorted(kept)


def _ordered_critical_pairs(f):
    vertices = sorted(_critical_vertices(gradient_field(f)))
    return [(high, low) for high in vertices for low in vertices if high != low]


def _grid_passes(grid_functions):
    """Mountain passes of every ordered critical pair of the grid functions that has one."""
    for f in grid_functions:
        for high, low in _ordered_critical_pairs(f):
            if not f((low,)) < f((high,)):
                continue
            try:
                yield mountain_pass(f, (high,), (low,))
            except NoPathExists:
                continue


class TestPathsAgainstRules:
    """``enumerate_paths`` against the brute-force listing filtered by the rules."""

    def _check(self, f, high, low):
        field = gradient_field(f)
        if not f((low,)) < f((high,)):
            with pytest.raises(NotLocalMinima):
                enumerate_paths(f, field, (high,), (low,))
            return 0
        expected = _paths_by_rules(f, field, high, low)
        if not expected:
            with pytest.raises(NoPathExists):
                enumerate_paths(f, field, (high,), (low,))
            return 0
        paths = enumerate_paths(f, field, (high,), (low,))
        assert sorted(tuple(tuple(e) for e in p.edges) for p in paths) == expected
        assert paths == sorted(paths, key=lambda p: (len(p.edges), tuple(map(tuple, p.edges))))
        return len(expected)

    def test_fixtures(self, p3_function, double_well):
        assert self._check(p3_function, 3, 1) == 2
        assert self._check(double_well, 3, 0) == 8
        # 1 -> 3 -> 2 ends in the basin of 3, but its tail values tie at 3
        tie = validate(
            build_complex([(1, 3), (2, 3)]),
            {(1,): 2, (2,): 4, (3,): 0, (1, 3): 3, (2, 3): 3},
        )
        assert self._check(tie, 1, 3) == 1

    def test_every_critical_pair_on_grids(self, grid_functions):
        # Each grid function, and the same function with ties: the tied
        # copies also pair minima of equal value, which are refused.
        checked = found = ties = 0
        for f in grid_functions + [_tied(g) for g in grid_functions]:
            for high, low in _ordered_critical_pairs(f):
                found += self._check(f, high, low)
                ties += f((low,)) == f((high,))
                checked += 1
        assert checked >= 200 and found > 0 and ties > 0


def _paths_by_stack_walk(f, field, high, low):
    """The enumerator before the backtracking walk, kept as its oracle.

    Every stack entry carries its own frozenset of visited vertices and its
    own edge tuple, and the paths are sorted by ``(len(edges), edges)`` at
    the end.
    """
    v1, v0 = Simplex(high), Simplex(low)
    complex, crit = f.complex, field.critical
    if (
        v1 not in complex
        or v0 not in complex
        or v1.dim != 0
        or v0.dim != 0
        or v1 == v0
        or v1 not in crit
        or v0 not in crit
        or not f(v0) < f(v1)
    ):
        raise NotLocalMinima(
            f"need two distinct critical vertices with f({tuple(v0)}) < f({tuple(v1)})"
        )
    basin_vertices = frozenset(basin(field, f, v0).cells.cells_of_dim(0))
    blocked = {c for c in crit if c.dim == 0 and c != v0}
    result = []
    stack = [(v1, frozenset({v1}), (), None)]
    while stack:
        cur, visited, edges, tail = stack.pop()
        for edge in complex.cofaces_of(cur):
            value = f.values[edge]
            if tail is not None and value >= tail:
                continue
            a, b = complex.faces_of(edge)
            nxt = b if a == cur else a
            if nxt in visited or nxt in blocked:
                continue
            extended = edges + (edge,)
            in_basin = nxt in basin_vertices
            if in_basin:
                result.append(EdgePath(v1, extended, v0))
            entered = tail is not None or in_basin
            stack.append((nxt, visited | {nxt}, extended, value if entered else None))
    if not result:
        raise NoPathExists(
            f"no admissible edge path from {tuple(v1)} to the basin of {tuple(v0)}"
        )
    result.sort(key=lambda p: (len(p.edges), p.edges))
    return result


def _outcome(walk, f, field, high, low):
    try:
        return walk(f, field, high, low)
    except (NoPathExists, NotLocalMinima) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def grid4_functions():
    """``random_morse`` on the 4 x 4 vertex grid."""
    complex = grid(4)
    return [random_morse(complex, seed) for seed in range(25)]


@pytest.fixture(scope="module")
def grid4_passes(grid4_functions):
    """The mountain passes of ``grid4_functions``, on the grid size of the
    benchmark's ``mountain`` workload."""
    return list(_grid_passes(grid4_functions))


class TestBacktrackingAgainstStackWalk:
    """``enumerate_paths`` against the stack walk it replaced: the same paths
    in the same order, and the same errors."""

    def _check(self, f):
        field = gradient_field(f)
        vertices = [v[0] for v in f.complex.vertices]
        counts = {list: 0, NoPathExists: 0, NotLocalMinima: 0}
        for high in vertices:
            for low in vertices:
                expected = _outcome(_paths_by_stack_walk, f, field, (high,), (low,))
                assert _outcome(enumerate_paths, f, field, (high,), (low,)) == expected
                counts[expected[0] if isinstance(expected, tuple) else list] += 1
        return counts

    def test_fixtures(self, p3_function, double_well):
        assert self._check(p3_function)[list] == 1
        assert self._check(double_well)[list] == 1

    def test_every_vertex_pair_on_grids(self, grid_functions, grid4_functions):
        totals = {list: 0, NoPathExists: 0, NotLocalMinima: 0}
        for f in grid_functions + grid4_functions:
            for kind, n in self._check(f).items():
                totals[kind] += n
        assert totals[list] >= 150 and totals[NoPathExists] > 0, totals


def _first_path_reaching(result, member):
    """The first path in ``result.paths`` whose flow orbit reaches ``member``."""
    operator = FlowOperator(result.instance.function)
    for path in result.paths:
        current, seen = path.cells(), set()
        while current not in seen:
            if current == member:
                return path
            seen.add(current)
            current = flow_image(operator, current)
    raise AssertionError("no path flows onto the member")


def _family_by_orbits(result):
    """The flow orbits of the paths, in the order a walk first reaches them."""
    operator = FlowOperator(result.instance.function)
    members = {}
    for path in result.paths:
        current = path.cells()
        while current not in members:
            members[current] = None
            current = flow_image(operator, current)
    return list(members)


class TestWitnessAgainstOrbits:
    """The witness and the family order against orbits walked in the test."""

    def test_fixtures(self, p3_function, double_well):
        for f, high, low in ((p3_function, 3, 1), (double_well, 3, 0)):
            result = mountain_pass(f, (high,), (low,))
            assert result.witness == _first_path_reaching(result, minmax_value(result.instance)[1])
            assert result.instance.family == _family_by_orbits(result)

    def test_every_critical_pair_on_grids(self, grid_functions, grid4_passes):
        checked = 0
        for result in [*_grid_passes(grid_functions), *grid4_passes]:
            assert result.witness == _first_path_reaching(result, minmax_value(result.instance)[1])
            assert result.instance.family == _family_by_orbits(result)
            checked += 1
        assert checked >= 150


def _least_member_of_the_family(result):
    """The min-max member of a mountain pass from its family alone: the least
    ``(max f, size, sorted cells)``, with no masks and no ``minmax_value``."""
    work = result.instance.function
    return min(
        result.instance.family,
        key=lambda member: (max(map(work, member)), len(member), sorted(member, key=simplex_key)),
    )


class TestMountainPassAgainstTheFamilyOracle:
    """The mountain pass reads each member's top cell off its mask; the
    oracle takes the least member of the returned family by value, size and
    canonical cells, and the value, edge and witness must follow from it."""

    @staticmethod
    def _check(f, result):
        member = _least_member_of_the_family(result)
        ridge = max(member, key=result.instance.function)
        assert result.edge == ridge
        assert result.value == f(ridge)  # the caller's value, also on tied input
        assert result.witness == _first_path_reaching(result, member)
        return member

    def test_fixtures(self, p3_function, double_well):
        for f, high, low in ((p3_function, 3, 1), (double_well, 3, 0)):
            self._check(f, mountain_pass(f, (high,), (low,)))

    def test_every_grid_pass(self, grid_functions, grid4_passes):
        checked = 0
        for result in [*_grid_passes(grid_functions), *grid4_passes]:
            self._check(result.instance.function, result)
            checked += 1
        assert checked >= 150

    def test_non_injective_functions(self, grid_functions, grid4_functions):
        checked = 0
        for f in map(_tied, grid_functions + grid4_functions):
            assert not f.is_injective()
            for result in _grid_passes([f]):
                assert result.instance.function is not f
                self._check(f, result)
                checked += 1
        assert checked >= 50

    def test_a_tie_on_top_cell_and_size(self):
        # Seed 5 of the 3 x 3 grid, from 6 to the basin of 8: two members share
        # the top edge (4, 7) and five cells.  The later one in family order comes
        # first in canonical cell order, so it is the member that attains the
        # value, and another path is the witness.
        f = random_morse(grid(3), 5)
        result = mountain_pass(f, (6,), (8,))
        family = result.instance.family
        first = frozenset(map(Simplex, [(6,), (3, 7), (4, 7), (4, 8), (6, 7)]))
        second = frozenset(map(Simplex, [(6,), (3, 6), (3, 7), (4, 7), (4, 8)]))

        def key(member):
            return max(map(f, member)), len(member)

        assert [m for m in family if key(m) == min(map(key, family))] == [first, second]
        assert self._check(f, result) == second
        assert (result.value, result.edge) == (15.0, (4, 7))
        assert result.witness != _first_path_reaching(result, first)


class TestFamilyOrder:
    """The min-max answer does not depend on the order of the family."""

    @staticmethod
    def _reordered(instance):
        rng = random.Random(len(instance.family))
        shuffled = list(instance.family)
        rng.shuffle(shuffled)
        for family in (shuffled, instance.family[::-1]):
            yield MinMaxInstance(instance.function, instance.maps, family)

    def test_grid_passes(self, grid_functions):
        checked = 0
        for result in _grid_passes(grid_functions):
            value = minmax_value(result.instance)
            report = check_minmax_data(result.instance)
            for instance in self._reordered(result.instance):
                assert minmax_value(instance) == value
                assert check_minmax_data(instance) == report
            checked += 1
        assert checked >= 50

    def test_ls_instances(self):
        # Only the value: these families may be unclosed, and which member a
        # closure failure names depends on the order.
        checked = 0
        for seed in range(60):
            complex, f = random_instance(seed)
            if len(complex) <= 14:
                for k, _ in ls_minmax(f):
                    instance = ls_instance(f, k)
                    value = minmax_value(instance)
                    for reordered in self._reordered(instance):
                        assert minmax_value(reordered) == value
                    checked += 1
        assert checked > 30


def reference_vertex_sequence(path):
    """Oracle: the parent library's ``EdgePath.vertex_sequence``."""
    verts = [path.start]
    cur = path.start[0]
    for e in path.edges:
        if cur not in e:
            raise ValueError(f"edge {tuple(e)} does not continue the path at {cur}")
        cur = e[0] if e[1] == cur else e[1]
        verts.append(Simplex((cur,)))
    return tuple(verts)


def reference_admissible(path, f, basin_vertices):
    """Oracle: the parent library's check of a reassembled path, which walks
    it again and re-checks the tail from every basin vertex."""
    try:
        verts = reference_vertex_sequence(path)
    except ValueError:
        return False
    if not path.edges:
        return False
    if len(set(verts)) != len(verts):
        return False
    if verts[-1] not in basin_vertices:
        return False
    values = [f(e) for e in path.edges]
    for j in range(1, len(verts)):
        if verts[j] in basin_vertices:
            tail = values[j - 1 :]
            if any(x <= y for x, y in zip(tail, tail[1:])):
                return False
    return True


def reference_reassemble(operator, path):
    """Oracle: the parent library's ``flow_path`` up to its reassembled path."""
    image = flow_image(operator, path.cells())
    verts = sorted((c for c in image if c.dim == 0), key=simplex_key)
    edges = {c for c in image if c.dim == 1}
    if len(verts) + len(edges) != len(image):
        raise ReassemblyFailure("flow image contains cells above dimension 1")
    if verts != [path.start]:
        raise ReassemblyFailure(f"flow image vertices {verts} are not just the start vertex")
    if not edges:
        raise ReassemblyFailure("flow image lost every edge of the path")
    seq = []
    cur = path.start[0]
    remaining = set(edges)
    while remaining:
        nxt = [e for e in remaining if cur in e]
        if len(nxt) != 1:
            raise ReassemblyFailure(f"image does not reassemble into one path at vertex {cur}")
        edge = nxt[0]
        seq.append(edge)
        remaining.remove(edge)
        cur = edge[0] if edge[1] == cur else edge[1]
    return EdgePath(path.start, tuple(seq), path.low)


def reference_flow_path(operator, path):
    """Oracle: the parent library's ``flow_path``."""
    new_path = reference_reassemble(operator, path)
    f = operator.function
    basin_vertices = frozenset(basin(operator.field, f, path.low).cells.cells_of_dim(0))
    if not reference_admissible(new_path, f, basin_vertices):
        raise ReassemblyFailure("flowed path violates the path invariants")
    return new_path


def _flow_path_outcome(flow, operator, path):
    try:
        return flow(operator, path)
    except ReassemblyFailure as exc:
        return str(exc)


def _path(f, high, low, edges):
    """An enumerated path of ``f`` from ``high`` to the basin of ``low``."""
    path = EdgePath(Simplex((high,)), tuple(map(Simplex, edges)), Simplex((low,)))
    assert path in enumerate_paths(f, f.field, (high,), (low,))
    return path


class TestFlowPathAgainstTheParentRules:
    """``flow_path`` against the parent's reassembly and its separate
    admissibility walk: the same path or the same error message."""

    INVARIANTS = "flowed path violates the path invariants"

    def test_every_enumerated_path_on_grids(self):
        kinds = {"path": 0, "walk": 0, "rules": 0}
        for n in (3, 4):
            complex = grid(n)
            for seed in range(50):
                f = random_morse(complex, seed)
                operator = FlowOperator(f)
                for high, low in _ordered_critical_pairs(f):
                    if not f((low,)) < f((high,)):
                        continue
                    try:
                        paths = enumerate_paths(f, f.field, (high,), (low,))
                    except NoPathExists:
                        continue
                    for path in paths:
                        expected = _flow_path_outcome(reference_flow_path, operator, path)
                        assert _flow_path_outcome(flow_path, operator, path) == expected
                        if isinstance(expected, EdgePath):
                            kinds["path"] += 1
                        else:
                            kinds["rules" if expected == self.INVARIANTS else "walk"] += 1
        assert min(kinds.values()) > 0, kinds

    def test_a_walked_path_that_ends_outside_the_basin_is_refused(self):
        f = random_morse(grid(3), 3)
        operator = FlowOperator(f)
        path = _path(f, 1, 3, [(0, 1), (0, 4), (3, 4)])
        verts = reference_vertex_sequence(reference_reassemble(operator, path))
        assert verts[-1] not in basin(f.field, f, (3,)).cells
        with pytest.raises(ReassemblyFailure, match=self.INVARIANTS):
            flow_path(operator, path)

    def test_a_walked_path_whose_tail_rises_is_refused(self):
        f = random_morse(grid(3), 0)
        operator = FlowOperator(f)
        path = _path(f, 0, 3, [(0, 4), (3, 4)])
        walked = reference_reassemble(operator, path)
        verts = reference_vertex_sequence(walked)
        basin_cells = basin(f.field, f, (3,)).cells
        assert verts[-1] in basin_cells
        first = next(j for j in range(1, len(verts)) if verts[j] in basin_cells)
        tail = [f(e) for e in walked.edges[first - 1 :]]
        assert any(x <= y for x, y in zip(tail, tail[1:]))
        with pytest.raises(ReassemblyFailure, match=self.INVARIANTS):
            flow_path(operator, path)


class TestFlowPath:
    def test_edge_path_has_slots(self):
        path = EdgePath(Simplex((3,)), (Simplex((2, 3)),), Simplex((1,)))
        assert not hasattr(path, "__dict__")

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

    def test_tied_minima_are_refused_in_both_orders(self):
        # Re-ranking breaks the tie one way; the caller's values decide.
        f = validate(build_complex([(0, 1)]), {(0,): 0, (1,): 0, (0, 1): 1})
        for high, low in (((1,), (0,)), ((0,), (1,))):
            message = f"need two distinct critical vertices with f({low}) < f({high})"
            with pytest.raises(NotLocalMinima, match=re.escape(message)):
                mountain_pass(f, high, low)
            with pytest.raises(NotLocalMinima, match=re.escape(message)):
                enumerate_paths(f, f.field, high, low)

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

    def test_empty_subcomplex_rejected(self):
        complex = build_complex([(0, 1), (1, 2)])
        # Before the enumeration bound too.
        for max_enum in (14, 1):
            with pytest.raises(EmptyInput):
                dgcat(complex, SimplicialComplex([]), max_enum=max_enum)


@pytest.mark.xfail(
    strict=True,
    raises=ClosureViolated,
    reason="ROADMAP item 4: the depth-k family is not closed under its own flow_closure map",
)
def test_ls_instance_is_min_max_data_on_the_two_triangles(two_triangles):
    """Every depth up to dgcat + 1 gives min-max data, for seeds 0-299: 99
    of them raise ``ClosureViolated`` until item 4 is fixed."""
    depth = dgcat(two_triangles).category + 1
    for seed in range(300):
        f = random_morse(two_triangles, seed)
        for k in range(1, depth + 1):
            check_minmax_data(ls_instance(f, k))


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


def _closure_level_masks(work, index):
    """The distinct level-subcomplex masks as they were built before
    ``minmax._level_masks`` read the matched lower faces: ORs of per-cell
    closure masks in value order, one per distinct value, without repeats."""
    closure = []
    for i, faces in enumerate(index.face_mask):
        mask = 1 << i
        for j in range(i):  # faces come first in canonical order
            if faces >> j & 1:
                mask |= closure[j]
        closure.append(mask)

    def value(i):
        return work.values[index.cells[i]]

    masks = []
    mask = 0
    for _, group in groupby(sorted(range(len(index.cells)), key=value), key=value):
        for i in group:
            mask |= closure[i]
        if not masks or masks[-1] != mask:
            masks.append(mask)
    return masks


def _ls_minmax_before_the_engine(f, max_enum=14):
    """``ls_minmax`` as it stood before it went through ``minmax_value``: its own
    minimum over the depth-k family's masks, with each mask's top cell cached."""
    work = f if f.is_injective() else make_injective(f)
    index = search_index(f.complex, max_enum)
    top = index.category(index.full)[0]
    crit = critical_cells(f)
    out = []
    max_cell_cache = {}

    def max_cell(mask):
        if mask not in max_cell_cache:
            max_cell_cache[mask] = max(index.cells_of(mask), key=work)
        return max_cell_cache[mask]

    for k in range(1, top + 2):
        members = set()
        for mask in _closure_level_masks(work, index):
            if index.category(mask)[0] >= k - 1:
                members.update(index.reachable(mask))
        if not members:
            raise EmptyFamily(f"the depth-{k} family is empty")
        best = min(members, key=lambda m: (work(max_cell(m)), m.bit_count(), m))
        cell = max_cell(best)
        if cell not in crit:
            raise TheoremViolation(f"depth-{k} min-max value {f(cell)} is not critical")
        out.append((k, f(cell)))
    return out


class TestLsThroughTheEngine:
    """The LS values are ``minmax_value`` of the family ``ls_instance`` returns."""

    def test_one_minmax_value_per_depth_on_the_ls_instance_family(
        self, monkeypatch, triangle_function, circle_function, double_well
    ):
        families = []
        evaluate = minmax.minmax_value

        def counting(instance):
            families.append(instance.family)
            return evaluate(instance)

        monkeypatch.setattr(minmax, "minmax_value", counting)
        for f in (triangle_function, circle_function, double_well):
            families.clear()
            values = ls_minmax(f)
            assert families == [ls_instance(f, k).family for k, _ in values]

    def test_matches_the_pre_change_version_on_random_instances(self):
        checked = 0
        for seed in range(300):
            complex, f = random_instance(seed)
            if len(complex) <= 14:
                assert ls_minmax(f) == _ls_minmax_before_the_engine(f)
                checked += 1
        assert checked > 150

    def test_matches_the_pre_change_version_on_non_injective_functions(self):
        tied = [validate(build_complex([(0, 1)]), {(0,): 0, (1,): 1, (0, 1): 1})]
        for seed in range(50):
            complex, f = random_instance(seed)
            if len(complex) <= 14:
                # Still a Morse function (its pairs are some of f's), with ties.
                tied.append(validate(complex, {c: v // 3 + len(c) for c, v in f.values.items()}))
        assert sum(not f.is_injective() for f in tied) > 20
        for f in tied:
            assert ls_minmax(f) == _ls_minmax_before_the_engine(f)

    def test_level_masks_and_families_match_the_closure_masks(
        self, triangle_function, circle_function, double_well
    ):
        fs = [triangle_function, circle_function, double_well]
        for seed in range(300):
            complex, f = random_instance(seed)
            if len(complex) <= 14:
                fs.append(f)
        for f in fs:
            work = f if f.is_injective() else make_injective(f)
            index = search_index(f.complex, 14)
            expected = _closure_level_masks(work, index)
            assert minmax._level_masks(work, index) == expected
            for k in range(1, index.category(index.full)[0] + 2):
                members = set()
                for mask in expected:
                    if index.category(mask)[0] >= k - 1:
                        members.update(index.reachable(mask))
                family = [frozenset(index.cells_of(m)) for m in sorted(members)]
                assert ls_instance(f, k).family == family

    def test_flow_closure_builds_no_complex_per_member(self, monkeypatch, double_well):
        calls = []
        sub = SimplicialComplex._sub

        def counting(complex, cells):
            calls.append(len(cells))
            return sub(complex, cells)

        monkeypatch.setattr(SimplicialComplex, "_sub", counting)
        report = check_minmax_data(ls_instance(double_well, 1))
        assert report.closure_checked > 0
        assert calls == []

    def test_checking_leaves_the_instance_as_it_was(self, circle_function):
        instance = ls_instance(circle_function, 1)
        before = dict(vars(instance))
        check_minmax_data(instance)
        assert vars(instance) == before


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


def _small_random_maximal_cells(count):
    """Maximal cells of the first ``count`` distinct random complexes with at most 10 cells."""
    out = []
    seed = 0
    while len(out) < count:
        complex, _ = random_instance(seed)
        maximal = [tuple(c) for c in complex if not complex.cofaces_of(c)]
        if len(complex) <= 10 and maximal not in out:
            out.append(maximal)
        seed += 1
    return out


class TestCategoryAgainstBruteForce:
    """Recompute dgcat from first principles on small fixtures and random complexes.

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
    def _collapsible(complex):
        oracle = TestCategoryAgainstBruteForce
        return [
            s
            for s in oracle._subcomplexes(complex)
            if len(s) > 0 and oracle._collapses_to_a_vertex(s)
        ]

    @staticmethod
    def _naive_dgcat(complex, collapsible):
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

    @pytest.mark.parametrize(
        "maximal",
        [[(0,)], [(0, 1)], [(1, 2), (2, 3)], [(0, 1, 2)], [(0, 1), (0, 2), (1, 2)]]
        + _small_random_maximal_cells(30),
    )
    def test_engine_matches_naive(self, maximal):
        complex = build_complex(maximal)
        collapsible = self._collapsible(complex)
        result = dgcat(complex)
        assert result.category == self._naive_dgcat(complex, collapsible)
        maximal_pieces = [
            s.simplices
            for s in collapsible
            if not any(s.simplices < t.simplices for t in collapsible)
        ]
        covered = set()
        for piece in result.cover:
            assert piece.subcomplex.simplices in maximal_pieces
            assert piece.witness.start == piece.subcomplex
            assert [c.dim for c in piece.witness.replay()] == [0]
            assert piece.witness.end == SimplicialComplex([piece.subcomplex.vertices[0]])
            covered |= piece.subcomplex.simplices
        assert result.collapsed_to.simplices <= covered
        assert result.collapse_witness.start == complex
        assert result.collapse_witness.replay() == result.collapsed_to


def dgcat_before_the_kept_cover(complex, sub, max_enum):
    """``dgcat``'s answer from the loops ``CellIndex`` ran before its one
    state walk (``conftest``), with the chosen state's cover searched a
    second time: ``(category, chosen mask, collapse pairs, pieces)``, each
    piece a mask with its pairs onto its first vertex, all in index terms."""
    index = search_index(complex, max_enum)
    family = CellIndex.maximal(stack_collapsible(index))

    def cover_witness(target, size):
        if target == 0:
            return ()
        if size == 0:
            return None
        pivot = (target & -target).bit_length() - 1
        for fam in family:
            if fam >> pivot & 1:
                rest = cover_witness(target & ~fam, size - 1)
                if rest is not None:
                    return (fam,) + rest
        return None

    def precat(mask):
        size = 1
        while cover_witness(mask, size) is None:
            size += 1
        return size - 1

    start = index.mask_of(sub.simplices)
    parents = stack_reachable(index, start)
    value, _, chosen = min((precat(m), m.bit_count(), m) for m in parents)
    path, state = [], chosen
    while parents[state] is not None:
        state, pair = parents[state]
        path.append(pair)
    pieces = tuple(
        (fam, frame_collapse_search(index, fam, fam & -fam))
        for fam in cover_witness(chosen, value + 1)
    )
    return value, chosen, tuple(reversed(path)), pieces


class TestDgcatAgainstTheLoopsItReplaced:
    def test_every_witness_matches(self):
        categories = set()
        for seed in range(300):
            complex, f = random_instance(seed)
            if len(complex) > 20:
                continue
            middle = sorted(f.values.values())[len(complex) // 2]
            for sub in (complex, level_subcomplex(f, middle).complex):
                self._assert_same(complex, sub, 20)
            categories.add(dgcat(complex, max_enum=20).category)
        holes = two_hole_grid()
        self._assert_same(holes, holes, 31)
        assert categories == {0, 1, 2, 3}

    @staticmethod
    def _assert_same(complex, sub, max_enum):
        index = search_index(complex, max_enum)
        value, chosen, path, pieces = dgcat_before_the_kept_cover(complex, sub, max_enum)
        result = dgcat(complex, sub, max_enum)
        assert result.category == value
        assert result.collapsed_to.simplices == set(index.cells_of(chosen))
        assert result.collapse_witness.pairs == index.pairs_of(path)
        assert [
            (piece.subcomplex.simplices, piece.witness.pairs, piece.witness.end.simplices)
            for piece in result.cover
        ] == [
            (set(index.cells_of(fam)), index.pairs_of(pairs), set(index.cells_of(fam & -fam)))
            for fam, pairs in pieces
        ]


class TestSearchIndex:
    """Each complex owns one search index, built on first exhaustive use."""

    @staticmethod
    def _two_triangles():
        complex = build_complex([(0, 1, 2), (1, 2, 3)])
        return complex, random_morse(complex, 5)

    def test_every_exhaustive_search_shares_one_index(self, monkeypatch):
        complex, f = self._two_triangles()
        # ``random_morse`` built the complex's integer view, without masks.
        view = complex._ids
        assert isinstance(view, CellIndex) and view.face_mask is None
        built = []
        init = CellIndex.__init__

        def counting_init(index, of):
            built.append(of)
            init(index, of)

        monkeypatch.setattr(CellIndex, "__init__", counting_init)
        searched, masks = [], []

        def recording_search_index(of, max_enum):
            searched.append(search_index(of, max_enum))
            masks.append(searched[-1].face_mask)
            return searched[-1]

        for module in (collapse, minmax):
            monkeypatch.setattr(module, "search_index", recording_search_index)
        field = gradient_field(f)
        for vertex in complex.vertices:
            if vertex in field.critical:
                assert basin_maximality_report(field, f, vertex).contained
        dgcat(complex)
        ls_minmax(f)
        ls_bound_check(f)
        ls_instance(f, 1)
        for vertex in complex.vertices:
            collapses_to(complex, SimplicialComplex([vertex]))
        assert built == [] and complex._ids is view
        # Every search read the one view, whose masks were built once.
        assert len(searched) > 5 and all(index is view for index in searched)
        assert view.face_mask is not None and all(m is view.face_mask for m in masks)

    def test_an_interrupted_mask_build_is_redone(self):
        complex, _ = self._two_triangles()
        view = complex._incidence
        view.face_mask = []  # as if the build stopped before the coface masks
        index = search_index(complex, 20)
        assert index is view and index.full == (1 << len(complex)) - 1
        assert len(index.face_mask) == len(index.coface_mask) == len(complex)

    def test_indexes_die_with_their_complexes(self):
        # Vertex ids from 1000 up mark the cells of the complexes made here.
        complexes = [
            build_complex([tuple(v + 1000 for v in c) for c in maximal])
            for maximal in _small_random_maximal_cells(40)
        ]
        for complex in complexes:
            dgcat(complex)
        del complexes, complex
        gc.collect()
        alive = [
            o for o in gc.get_objects()
            if isinstance(o, CellIndex) and any(c[0] >= 1000 for c in o.cells)
        ]
        assert alive == []

    def test_a_kept_index_never_bypasses_the_bound(self):
        complex, f = self._two_triangles()
        field = gradient_field(f)
        minimum = next(v for v in complex.vertices if v in field.critical)
        dgcat(complex, max_enum=20)
        small = len(complex) - 1
        searches = [
            lambda: dgcat(complex, max_enum=small),
            lambda: ls_minmax(f, max_enum=small),
            lambda: ls_bound_check(f, max_enum=small),
            lambda: ls_instance(f, 1, max_enum=small),
            lambda: collapses_to(complex, SimplicialComplex([(0,)]), max_enum=small),
            lambda: maximal_collapsible_to(complex, (0,), max_enum=small),
            lambda: basin_maximality_report(field, f, minimum, max_enum=small),
        ]
        for search in searches:
            with pytest.raises(TooLargeForEnumeration):
                search()
        # The argument checks still come before the bound.
        with pytest.raises(NotACriticalVertex):
            maximal_collapsible_to(complex, (0, 1), max_enum=small)
        with pytest.raises(ComplexMismatch):
            dgcat(complex, build_complex([(7,)]), max_enum=small)


def test_no_module_holds_global_state():
    """Caches live with the objects they describe, never in a module."""
    modules = [morseflow] + [
        importlib.import_module(f"morseflow.{m.name}")
        for m in pkgutil.iter_modules(morseflow.__path__)
    ]
    found = [
        (module.__name__, name)
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert found == []


def two_branch_epsilon(f):
    """``check_minmax_data``'s epsilon as it was computed in floats: half the
    least gap, or, when that gap overflows (two values only), half of each
    value's distance.  The oracle for its one exact formula."""
    values = f.sorted_distinct_values()
    gap = min((b - a for a, b in zip(values, values[1:])), default=1.0)
    if math.isinf(gap):
        low, high = values
        return high / 2 - low / 2
    return gap / 2.0


def _deformation_by_scan(instance):
    """Epsilon and the first shrinking map per regular value, each sublevel set a full scan."""
    f = instance.function
    values = sorted({f(c) for c in f.complex})
    eps = two_branch_epsilon(f)
    crit = {f(c) for c in gradient_field(f).critical}
    witnesses = {}
    for a in values:
        if a in crit:
            continue
        above = frozenset(c for c in f.complex if f(c) <= a + eps)
        below = frozenset(c for c in f.complex if f(c) <= a - eps)
        witnesses[a] = next(
            name for name in sorted(instance.maps) if instance.maps[name](above) <= below
        )
    return eps, witnesses


class TestDeformationAgainstScan:
    """``check_minmax_data`` against sublevel sets found by scanning every cell."""

    def _check(self, result):
        instance = result.instance
        # "fixed" is tried before "flow" and fails at every regular value, so
        # a sublevel set one cell too small would show as a different witness.
        maps = {**instance.maps, "fixed": lambda cells: cells}
        for checked in (instance, MinMaxInstance(instance.function, maps, instance.family)):
            report = check_minmax_data(checked)
            eps, witnesses = _deformation_by_scan(checked)
            assert report.epsilon == eps
            assert list(report.deformation.items()) == list(witnesses.items())
            assert report.closure_checked == len(checked.maps) * len(checked.family)

    def test_fixtures(self, p3_function, double_well):
        for f, high, low in ((p3_function, 3, 1), (double_well, 3, 0)):
            self._check(mountain_pass(f, (high,), (low,)))

    def test_every_critical_pair_on_grids(self, grid_functions):
        checked = 0
        for result in _grid_passes(grid_functions):
            self._check(result)
            checked += 1
        assert checked >= 50


def _regular_value_count(f):
    return len(set(f.sorted_distinct_values()) - set(critical_values(f)))


class TestFlowImageMap:
    """The mountain-pass instance's ``"flow"`` map: a table from each member to
    its image, the family's own object, and ``flow_image`` for any other set."""

    def test_checking_computes_no_member_image_again(
        self, monkeypatch, grid_functions, double_well
    ):
        results = [mountain_pass(double_well, (3,), (0,)), *_grid_passes(grid_functions)]
        calls = []
        real = minmax.flow_image

        def counting(operator, cells):
            calls.append(1)
            return real(operator, cells)

        monkeypatch.setattr(minmax, "flow_image", counting)
        for result in results:
            calls.clear()
            check_minmax_data(result.instance)
            assert len(calls) <= _regular_value_count(result.instance.function)

    def test_report_equals_the_report_without_the_cache(self, grid_functions):
        checked = 0
        for result in _grid_passes(grid_functions):
            instance = result.instance
            operator = FlowOperator(instance.function)
            plain = {"flow": lambda cells: flow_image(operator, cells)}
            uncached = MinMaxInstance(instance.function, plain, list(instance.family))
            assert check_minmax_data(instance) == check_minmax_data(uncached)
            checked += 1
        assert checked >= 50

    def test_images_are_flow_images_and_shared(self, grid_functions, grid4_passes, double_well):
        results = [
            mountain_pass(double_well, (3,), (0,)), *_grid_passes(grid_functions), *grid4_passes
        ]
        for result in results:
            flow, family = result.instance.maps["flow"], result.instance.family
            operator = FlowOperator(result.instance.function)
            members = {id(m) for m in family}
            for member in family:
                image = flow(member)
                assert image == flow_image(operator, member)
                # The image is the family's own member, and equal inputs,
                # in any iterable, give the identical object.
                assert id(image) in members
                assert flow(frozenset(list(member))) is image
                assert flow(sorted(member, key=simplex_key)) is image


class TestRareRefusals:
    """Refusals that only a caller's mistake reaches, each with its message."""

    def test_check_minmax_data_needs_an_injective_function(self):
        f = validate(build_complex([(0,), (1,)]), {(0,): 0, (1,): 0})
        instance = MinMaxInstance(f, {"fixed": lambda s: s}, [frozenset()])
        with pytest.raises(PreconditionViolated) as info:
            check_minmax_data(instance)
        assert str(info.value) == "min-max data checks need an injective function"

    def test_flow_path_of_a_path_holding_a_triangle(self, triangle):
        # Every cell critical: the triangle flows to itself.
        f = validate(
            triangle,
            {(0,): 0, (1,): 1, (2,): 2, (0, 1): 3, (0, 2): 4, (1, 2): 5, (0, 1, 2): 6},
        )
        path = EdgePath(Simplex((0,)), (Simplex((0, 1, 2)),), Simplex((1,)))
        with pytest.raises(ReassemblyFailure) as info:
            flow_path(FlowOperator(f), path)
        assert str(info.value) == "flow image contains cells above dimension 1"

    def test_flow_path_from_a_start_that_is_not_critical(self, double_well):
        # Vertex 1 is matched with the edge 01, so it flows to vertex 0.
        path = EdgePath(Simplex((1,)), (Simplex((0, 1)),), Simplex((0,)))
        with pytest.raises(ReassemblyFailure) as info:
            flow_path(FlowOperator(double_well), path)
        assert str(info.value) == "flow image vertices [Simplex(0,)] are not just the start vertex"

    def test_flow_path_that_loses_every_edge(self, double_well):
        for edges in ((), (Simplex((1, 2, 3)),)):  # the upper 123 of the pair (23, 123)
            path = EdgePath(Simplex((3,)), edges, Simplex((0,)))
            with pytest.raises(ReassemblyFailure) as info:
                flow_path(FlowOperator(double_well), path)
            assert str(info.value) == "flow image lost every edge of the path"
