"""Complex construction, boundary algebra, and the homology oracle."""

from __future__ import annotations

import random
import re

import pytest

from morseflow import (
    Chain,
    Simplex,
    SimplicialComplex,
    basin,
    betti_numbers_mod2,
    boundary,
    build_complex,
    component_count,
    critical_cells,
    emit_scx,
    euler_characteristic,
    incidence_sign,
    is_connected,
    is_subcomplex,
    level_subcomplex,
    mountain_pass,
    parse_scx,
    random_morse,
    validate,
)
from morseflow.errors import (
    EmptyInput,
    MalformedSimplex,
    MissingValue,
    SimplexNotInComplex,
    TooLargeForEnumeration,
)
from morseflow.complexes import CellIndex, _negative_cells, search_index
from conftest import (
    CountingDict,
    elimination_betti,
    frame_collapse_search,
    hung_triangles_grid,
    random_complex,
    random_instance,
    stack_collapsible,
    stack_reachable,
    torus,
    two_hole_grid,
)


def incidence_sign_by_sets(coface, face) -> int:
    """The set-based definition of the incidence sign, as a reference."""
    omitted = set(coface) - set(face)
    if len(coface) != len(face) + 1 or len(omitted) != 1:
        raise ValueError(f"{face!r} is not a codimension-1 face of {coface!r}")
    i = coface.index(next(iter(omitted)))
    return -1 if i % 2 else 1


def _outcome(sign, coface, face):
    try:
        return sign(coface, face)
    except ValueError as exc:
        return str(exc)


class TestSimplex:
    def test_canonical_order(self):
        assert tuple(Simplex((2, 0, 1))) == (0, 1, 2)
        assert Simplex((0, 1)).dim == 1

    def test_equality_with_plain_tuples(self):
        assert Simplex((1, 2)) == (1, 2)
        assert hash(Simplex((1, 2))) == hash((1, 2))

    def test_faces(self):
        assert set(Simplex((0, 1, 2)).faces()) == {(0, 1), (0, 2), (1, 2)}
        assert Simplex((5,)).faces() == ()

    def test_rejects_bad_input(self):
        with pytest.raises(MalformedSimplex):
            Simplex((0, 0))
        with pytest.raises(MalformedSimplex):
            Simplex((-1,))
        with pytest.raises(MalformedSimplex):
            Simplex(())
        with pytest.raises(MalformedSimplex):
            Simplex([2, 2])
        with pytest.raises(MalformedSimplex):
            Simplex([-1])

    # Inputs that cannot be sorted: not iterable, or vertices that do not compare.
    UNSORTABLE = [((1, "a"), "(1, 'a')"), ((None, 1), "(None, 1)"), (3, "3")]

    @pytest.mark.parametrize("vertices, shown", UNSORTABLE)
    def test_rejects_unsortable_input_as_malformed(self, vertices, shown, p3):
        message = f"not integer vertex ids: {shown}"
        f = random_morse(p3, 1)
        calls = [
            lambda: Simplex(vertices),
            lambda: build_complex([(0, 1), vertices]),
            lambda: validate(p3, {**{tuple(c): v for c, v in f.values.items()}, vertices: 9}),
            lambda: mountain_pass(f, vertices, (1,)),
        ]
        for call in calls:
            with pytest.raises(MalformedSimplex) as info:
                call()
            assert str(info.value) == message and info.value.__cause__ is None
            assert info.value.__suppress_context__

    def test_sortable_malformed_input_keeps_its_message(self):
        for vertices, message in [
            (["a"], "vertex ids must be non-negative integers, got 'a'"),
            ([None], "vertex ids must be non-negative integers, got None"),
            ([-1, -2], "vertex ids must be non-negative integers, got -2"),
            ([], "a simplex needs at least one vertex"),
            ([2, 2], "repeated vertex id in (2, 2)"),
        ]:
            with pytest.raises(MalformedSimplex, match=f"^{re.escape(message)}$"):
                Simplex(vertices)


class TestBuildComplex:
    def test_triangle_closure_has_seven_cells(self):
        assert len(build_complex([(0, 1, 2)])) == 7

    def test_point(self):
        assert len(build_complex([(0,)])) == 1

    def test_p3_closure_has_five_cells(self):
        assert len(build_complex([(0, 1), (1, 2)])) == 5

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_complex([])

    def test_idempotent_on_closed_input(self):
        k = build_complex([(0, 1, 2)])
        assert build_complex(k.simplices) == k

    def test_incidence_mutually_consistent(self):
        k = build_complex([(0, 1, 2), (2, 3)])
        for cell in k:
            for face in k.faces_of(cell):
                assert cell in k.cofaces_of(face)
            for cof in k.cofaces_of(cell):
                assert cell in k.faces_of(cof)

    def test_unknown_simplex_raises(self):
        k = build_complex([(0, 1)])
        with pytest.raises(SimplexNotInComplex):
            k.faces_of((5,))
        with pytest.raises(SimplexNotInComplex):
            k.closure_of([(7,)])

    def test_faces_and_cofaces_read_cells_in_any_vertex_order(self):
        # As closure_of and upper_set do, the incidence queries take a cell
        # as any sequence of its vertices.
        k = build_complex([(0, 1, 2)])
        for edge in ((1, 0), [0, 1], Simplex((1, 0))):
            assert k.faces_of(edge) == ((0,), (1,))
            assert k.cofaces_of(edge) == ((0, 1, 2),)
        assert k.faces_of([2, 0, 1]) == ((0, 1), (0, 2), (1, 2))
        assert k.cofaces_of([2]) == ((0, 2), (1, 2))
        assert k.closure_of([(1, 0)]) == k.closure_of([[0, 1]])
        with pytest.raises(SimplexNotInComplex, match=r"Simplex\(1, 3\) is not in"):
            k.faces_of((3, 1))
        with pytest.raises(MalformedSimplex):
            k.cofaces_of((1, 1))

    def test_a_subcomplex_answers_for_its_own_cells_only(self):
        k = build_complex([(0, 1, 2)])
        sub = k.closure_of([(0, 1)])
        assert sub.cofaces_of((1,)) == ((0, 1),)
        assert sub.faces_of((1, 0)) == ((0,), (1,))
        for query in (sub.faces_of, sub.cofaces_of):
            for outside in ((2,), (1, 2), (0, 1, 2)):
                with pytest.raises(SimplexNotInComplex):
                    query(outside)

    def test_not_closed_constructor_raises(self):
        # The message names the first unlisted face in canonical order.
        for cells, missing in [
            ([(0, 1)], "Simplex(0,)"),
            ([(1,), (0, 1)], "Simplex(0,)"),
            ([(0, 1, 2), (0,), (1,), (2,), (0, 1)], "Simplex(0, 2)"),
            ([(0, 1, 2), (1, 2), (0, 2), (0, 1), (1,), (2,)], "Simplex(0,)"),
        ]:
            message = f"not face-closed: the face {missing} is not listed"
            with pytest.raises(MalformedSimplex, match=f"^{re.escape(message)}$"):
                SimplicialComplex(cells)
        assert len(SimplicialComplex([(1,), (0, 1), (0,)])) == 3


class TestBoundary:
    def test_triangle_boundary(self):
        c = boundary(Chain.unit((0, 1, 2)))
        assert c.coeffs == {
            Simplex((1, 2)): 1,
            Simplex((0, 2)): -1,
            Simplex((0, 1)): 1,
        }

    def test_edge_boundary(self):
        c = boundary(Chain.unit((0, 1)))
        assert c.coeffs == {Simplex((1,)): 1, Simplex((0,)): -1}

    def test_boundary_squared_is_zero(self):
        assert boundary(boundary(Chain.unit((0, 1, 2)))).is_zero

    def test_vertex_boundary_is_zero(self):
        assert boundary(Chain.unit((7,))).is_zero

    def test_boundary_squared_on_random_chains(self):
        rng = random.Random(7)
        for _ in range(50):
            k = random_complex(rng)
            if k.dim < 1:
                continue
            p = rng.randint(1, k.dim)
            cells = k.cells_of_dim(p)
            chain = Chain(
                p, {c: rng.randint(-3, 3) for c in rng.sample(cells, min(3, len(cells)))}
            )
            assert boundary(boundary(chain)).is_zero

    def test_incidence_sign(self):
        assert incidence_sign(Simplex((1, 2)), Simplex((2,))) == 1
        assert incidence_sign(Simplex((1, 2)), Simplex((1,))) == -1
        assert incidence_sign(Simplex((0, 1, 2)), Simplex((0, 2))) == -1

    def test_incidence_sign_matches_set_definition(self):
        """Every pair of cells: the sign, or the same ``ValueError`` message."""
        complexes = [torus(5)] + [random_instance(seed)[0] for seed in range(60)]
        for k in complexes:
            for coface in k:
                for face in k:
                    if len(coface) - len(face) in (0, 1):
                        assert _outcome(incidence_sign, coface, face) == _outcome(
                            incidence_sign_by_sets, coface, face
                        )

    def test_face_position_gives_the_sign(self):
        """Face ``j`` of an ``n``-vertex cell has sign ``(-1)**(n - 1 - j)``,
        which ``flow_matrix`` reads from the face position alone."""
        built = [torus(4)] + [random_instance(seed)[0] for seed in range(40)]
        parsed = [parse_scx(emit_scx(k, f))[0] for k, f in map(random_instance, range(20))]
        subs = [k.closure_of(list(k)[len(k) // 2 :]) for k in built]
        for k in built + parsed + subs:
            for cell in k:
                for j, face in enumerate(k.faces_of(cell)):
                    assert incidence_sign(cell, face) == (-1) ** (len(cell) - 1 - j)

    @pytest.mark.parametrize(
        "coface, face",
        [
            ((0, 1, 2), (1,)),  # wrong dimension
            ((0, 1), (0, 1)),  # equal length
            ((0, 1, 2), (0, 3)),  # not a subset
            ((0, 2, 3), (1, 2)),  # not a subset, differs in the prefix
        ],
    )
    def test_incidence_sign_rejects_non_faces(self, coface, face):
        coface, face = Simplex(coface), Simplex(face)
        with pytest.raises(ValueError) as err:
            incidence_sign(coface, face)
        assert str(err.value) == f"{face!r} is not a codimension-1 face of {coface!r}"


class TestChainAlgebra:
    def test_zero_coefficients_dropped(self):
        assert Chain(1, {Simplex((0, 1)): 0}).is_zero

    def test_add_and_cancel(self):
        a = Chain.unit((0, 1))
        assert (a - a).is_zero
        assert (a + a).coeffs == {Simplex((0, 1)): 2}

    def test_zero_chains_compare_equal(self):
        assert Chain(3, {}) == Chain.zero()

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            Chain(1, {Simplex((0,)): 1})

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Chain(1, {(0, 1): 1.5})
        with pytest.raises(ValueError):
            Chain(1, {(0, 1): True})
        with pytest.raises(ValueError):
            Chain.unit((0, 1)).scaled(1.5)

    def test_scaled_checks_its_factor_before_its_shortcuts(self):
        # 0 and 1 return at once and a zero chain stays zero, but only for an
        # integer factor: the constructor's rule for a coefficient.
        unit = Chain.unit((0, 1))
        cases = [(unit, k) for k in (1.0, True, 0.0, False, 2.0)] + [(Chain.zero(), 2.5)]
        for chain, k in cases:
            with pytest.raises(ValueError) as caught:
                chain.scaled(k)
            assert str(caught.value) == f"coefficients must be integers, got {k!r}"
        assert unit.scaled(1) is unit
        assert unit.scaled(0) == Chain.zero() == Chain.zero().scaled(3)


class TestHomologyOracle:
    def test_euler(self, triangle, circle, point):
        assert euler_characteristic(triangle) == 1
        assert euler_characteristic(circle) == 0
        assert euler_characteristic(point) == 1

    def test_betti(self, triangle, circle):
        assert betti_numbers_mod2(circle) == [1, 1]
        assert betti_numbers_mod2(triangle) == [1, 0, 0]
        two_points = build_complex([(0,), (1,)])
        assert betti_numbers_mod2(two_points) == [2]

    def test_betti_sphere(self):
        sphere = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert len(sphere) == 14
        assert betti_numbers_mod2(sphere) == [1, 0, 1]

    def test_euler_poincare_on_random_complexes(self):
        rng = random.Random(11)
        for _ in range(100):
            k = random_complex(rng)
            betti = betti_numbers_mod2(k)
            assert sum((-1) ** p * b for p, b in enumerate(betti)) == euler_characteristic(k)

    def test_component_count(self, p3):
        assert component_count(p3) == 1
        assert is_connected(p3)
        two = build_complex([(0, 1), (2, 3)])
        assert component_count(two) == 2
        assert not is_connected(two)


class TestClearingReduction:
    """``betti_numbers_mod2`` is one clearing reduction over the canonical
    order; the full elimination in ``tests/conftest.py`` is its oracle."""

    def test_equals_the_elimination_on_every_level(self, rp2):
        fs = [random_instance(seed)[1] for seed in range(300)]
        fs += [random_morse(torus(m), m) for m in range(3, 9)]
        fs += [random_morse(rp2, seed) for seed in range(5)]
        levels = 0
        for f in fs:
            assert betti_numbers_mod2(f.complex) == elimination_betti(f.complex)
            for t in f.sorted_distinct_values():
                level = level_subcomplex(f, t).complex
                assert betti_numbers_mod2(level) == elimination_betti(level)
                levels += 1
        assert levels > 4000

    def test_rp2_has_mod2_homology_in_every_dimension(self, rp2):
        # Rationally RP2 is acyclic; over the two-element field its 1-cycle
        # and its 2-cycle (the sum of all triangles) survive.
        assert [len(rp2.cells_of_dim(p)) for p in range(3)] == [6, 15, 10]
        assert betti_numbers_mod2(rp2) == elimination_betti(rp2) == [1, 1, 1]
        assert euler_characteristic(rp2) == 1

    def test_a_cleared_column_is_never_read(self, rp2):
        """Each negative cell above dimension 1 clears its lowest row, a cell
        above the vertices whose column is then skipped: the reduction reads
        the faces of every other cell above the vertices once, and of a
        cleared cell never."""
        rng = random.Random(31)
        reads = []
        for complex in [torus(12), torus(3), rp2] + [random_complex(rng) for _ in range(50)]:
            faces = CountingDict(complex._faces)
            layers = [complex.cells_of_dim(p) for p in range(complex.dim + 1)]
            negative = _negative_cells(layers, faces)
            cleared = sum(len(c) > 2 for c in negative)
            reads.append(sum(faces.reads.values()))
            assert reads[-1] == len(complex) - len(layers[0]) - cleared
            assert set(faces.reads.values()) <= {1}
        # The m=12 torus: 288 triangles, all negative but one, clear 287 of
        # its 432 edges, so 288 + 145 columns are read.
        assert reads[0] == 433


class TestSubcomplexEnumeration:
    def test_is_subcomplex(self, p3, point):
        vertex = build_complex([(1,)])
        assert is_subcomplex(vertex, p3)
        assert not is_subcomplex(p3, vertex)

    def test_enumeration_bound(self):
        big = build_complex([(0, 1, 2, 3)])
        assert len(big) == 15
        with pytest.raises(TooLargeForEnumeration) as info:
            search_index(big, 14)
        assert (info.value.size, info.value.bound) == (15, 14)
        assert str(info.value) == "15 simplices exceeds the enumeration bound 14"
        assert list(search_index(big, max_enum=15).cells) == list(big)


def _free_pairs_by_lists(index, coface_lists, mask, keep):
    """``CellIndex.free_pairs`` as it read per-cell coface lists, before coface masks."""
    out = []
    for i in range(len(index.cells)):
        if not (mask & ~keep) >> i & 1:
            continue
        cof = [j for j in coface_lists[i] if mask >> j & 1]
        if len(cof) == 1 and not keep >> cof[0] & 1:
            out.append((i, cof[0]))
    return out


class TestCellIndex:
    def test_free_pairs_match_the_coface_list_version(self):
        rng = random.Random(11)
        states = 0
        for seed in range(200):
            complex, _ = random_instance(seed)
            if len(complex) > 14:
                continue
            index = search_index(complex, 14)
            coface_lists = [
                [index.position[t] for t in complex.cofaces_of(c)] for c in index.cells
            ]
            for mask in index.reachable(index.full):
                for keep in (0, rng.getrandbits(len(complex))):
                    expected = _free_pairs_by_lists(index, coface_lists, mask, keep)
                    assert index.free_pairs(mask, keep) == expected
                states += 1
        assert states > 500


def indexed_instances(limit=20):
    """``(index, f)`` for every ``random_instance`` of seeds 0-299 with at
    most ``limit`` cells, then the 31-cell grid that does not collapse (with
    no function)."""
    out = []
    for seed in range(300):
        complex, f = random_instance(seed)
        if len(complex) <= limit:
            out.append((search_index(complex, limit), f))
    return out + [(search_index(two_hole_grid(), 31), None)]


class TestCellIndexAgainstItsLoops:
    """The one state walk and the plain depth-first search give what the
    loops they replaced (``conftest``) gave: the search pair for pair, the
    walks state for state."""

    def test_collapse_search_matches_the_frame_machine(self):
        rng = random.Random(28)
        outcomes = set()
        for index, f in indexed_instances():
            cells = index.cells
            keys = [None]
            if f is not None:
                keys.append(lambda p: (-f(cells[p[0]]), -f(cells[p[1]]), p[0]))
            collapsible = sorted(index.collapsible())
            goals = {index.full & -index.full, index.full}
            goals.update(rng.sample(collapsible, min(3, len(collapsible))))
            searches = [(index.full, goal) for goal in sorted(goals)]
            # Bit sets that are not subcomplexes make the search back out of
            # dead ends before it succeeds, which no small subcomplex does.
            for _ in range(10):
                start, n = rng.getrandbits(len(cells)), len(cells)
                searches.append((start, start & rng.getrandbits(n) & rng.getrandbits(n)))
            for start, goal in searches:
                for key in keys:
                    found = index.collapse_search(start, goal, key)
                    assert found == frame_collapse_search(index, start, goal, key)
                    outcomes.add(found is None)
        assert outcomes == {True, False}

    def test_collapse_search_says_no_on_the_grids_as_the_frame_machine_does(self):
        for complex in (two_hole_grid(), hung_triangles_grid()):
            index = search_index(complex, 43)
            first = index.full & -index.full
            assert index.collapse_search(index.full, first) is None
            assert frame_collapse_search(index, index.full, first) is None

    def test_reachable_matches_the_stack_walk(self):
        for index, _ in indexed_instances() + [(search_index(hung_triangles_grid(), 43), None)]:
            assert index.reachable(index.full) == stack_reachable(index, index.full)

    def test_collapsible_matches_the_stack_walk(self):
        # ``collapsible`` keeps no set: each call walks again, and the cover
        # family is still the walk's maximal states.
        for index, _ in indexed_instances():
            walked = stack_collapsible(index)
            first, second = index.collapsible(), index.collapsible()
            assert first == walked and second == walked and second is not first
            assert index.maximal_collapsible() == CellIndex.maximal(walked)


class TestHomologyAgainstIndependentOracles:
    def test_betti_zero_equals_component_count(self):
        rng = random.Random(23)
        for _ in range(80):
            k = random_complex(rng)
            assert betti_numbers_mod2(k)[0] == component_count(k)

    def test_ranks_match_brute_force_span_enumeration(self):
        # mod-2 rank of each boundary matrix, recomputed by enumerating the
        # span of the columns; small complexes only.
        rng = random.Random(29)
        checked = 0
        while checked < 25:
            k = random_complex(rng, max_vertices=4, max_cell=3)
            if k.dim < 1:
                continue
            checked += 1
            ranks = [0] * (k.dim + 2)
            for p in range(1, k.dim + 1):
                rows = {s: i for i, s in enumerate(k.cells_of_dim(p - 1))}
                columns = []
                for cell in k.cells_of_dim(p):
                    vec = 0
                    for face in k.faces_of(cell):
                        vec |= 1 << rows[face]
                    columns.append(vec)
                span = {0}
                for vec in columns:
                    span |= {vec ^ other for other in span}
                rank = len(span).bit_length() - 1
                assert 2**rank == len(span)
                ranks[p] = rank
            expected = [
                len(k.cells_of_dim(p)) - ranks[p] - ranks[p + 1]
                for p in range(k.dim + 1)
            ]
            assert betti_numbers_mod2(k) == expected


def assert_cells_shared(complex):
    """Every face, coface and dimension-group entry is the complex's own cell."""
    own = {c: c for c in complex}
    assert all(c is own[c] for c in complex.simplices)
    for c in complex:
        assert all(t is own[t] for t in complex.faces_of(c))
        assert all(t is own[t] for t in complex.cofaces_of(c))
    for p in range(complex.dim + 1):
        assert all(c is own[c] for c in complex.cells_of_dim(p))


class TestOneObjectPerCell:
    def test_build_complex(self):
        rng = random.Random(5)
        for _ in range(100):
            assert_cells_shared(random_complex(rng))
        assert_cells_shared(torus(6))
        repeated = build_complex([(0, 1, 2), (1, 2), [2, 1, 0], (3,), (1, 2, 3)])
        assert_cells_shared(repeated)
        assert len(repeated) == 11

    def test_parse_scx(self):
        complex = torus(5)
        f = random_morse(complex, 4)
        canonical = emit_scx(complex, f)
        lines = canonical.splitlines()
        random.Random(1).shuffle(lines)
        tops = "".join(f"{' '.join(map(str, c))}\n" for c in complex.cells_of_dim(2))
        for text in (canonical, "\n".join(lines), emit_scx(complex), tops):
            parsed, g = parse_scx(text)
            assert parsed == complex
            assert_cells_shared(parsed)
            if g is not None:
                assert g == f
                own = {c: c for c in parsed}
                assert all(c is own[c] for c in g.values)

    def test_parse_scx_with_values_missing_faces(self, monkeypatch):
        built = []
        from_cells = SimplicialComplex._from_cells

        def spy(cells):
            built.append(from_cells(cells))
            return built[-1]

        monkeypatch.setattr(SimplicialComplex, "_from_cells", spy)
        with pytest.raises(MissingValue, match=r"no value for Simplex\(0,\)"):
            parse_scx("0 1 : 1\n1 2 : 2\n1 : 0\n")
        assert len(built) == 1 and len(built[0]) == 5
        assert_cells_shared(built[0])

    def test_checked_constructor(self):
        for complex in (torus(5), build_complex([(0, 1, 2), (2, 3)])):
            for cells in (list(complex), [tuple(c) for c in complex]):
                checked = SimplicialComplex(cells)
                assert checked == complex
                assert_cells_shared(checked)

    def test_validate(self):
        for complex in (build_complex([(0, 1, 2)]), torus(5)):
            f = random_morse(complex, 2)
            own = {c: c for c in complex}
            items = list(f.values.items())
            random.Random(3).shuffle(items)
            for values in ({tuple(c): v for c, v in items}, {Simplex(c): v for c, v in items}):
                g = validate(complex, values)
                assert g == f
                assert all(c is own[c] for c in g.values)

    def test_subcomplexes(self):
        for seed in range(60):
            complex, f = random_instance(seed)
            own = {c: c for c in complex}
            for value in f.sorted_distinct_values():
                sub = level_subcomplex(f, value).complex
                assert_cells_shared(sub)
                assert all(c is own[c] for c in sub)
            sub = complex.closure_of(complex.cells_of_dim(complex.dim))
            assert_cells_shared(sub)

    def test_basins(self):
        for complex in [random_instance(seed)[0] for seed in range(60)] + [torus(6)]:
            f = random_morse(complex, 3)
            for v in critical_cells(f):
                if v.dim == 0:
                    bas = basin(f.field, f, v)
                    assert_cells_shared(bas.cells)
                    assert_cells_shared(bas.witness.end)


def eager_coface_map(order, faces):
    """Oracle for the lazy coface map: the eager build of the map, as every
    complex made it at construction before cofaces were built on first use."""
    cofaces = {s: [] for s in order}
    for s in order:
        for t in faces[s]:
            cofaces[t].append(s)
    return {s: tuple(c) for s, c in cofaces.items()}


class TestLazyCofaces:
    def test_lazy_map_matches_the_eager_one(self):
        complexes = [random_instance(seed)[0] for seed in range(200)]
        complexes += [torus(m) for m in range(3, 9)]
        for complex in complexes:
            expected = eager_coface_map(complex._order, complex._faces)
            fresh = build_complex(list(complex))
            assert fresh._coface_tuples is None
            for k in (complex, fresh):
                assert list(k._cofaces.items()) == list(expected.items())
                assert k._cofaces is k._cofaces
                assert all(k.cofaces_of(c) == expected[c] for c in k)

    def test_lazy_map_of_a_subcomplex(self):
        # A level shares its root's map; its public cofaces are those of its
        # checked rebuild, which owns a map of its own.
        for seed in range(100):
            complex, f = random_instance(seed)
            for value in f.sorted_distinct_values():
                sub = level_subcomplex(f, value).complex
                rebuilt = SimplicialComplex(list(sub))
                expected = eager_coface_map(rebuilt._order, rebuilt._faces)
                assert [(c, sub.cofaces_of(c)) for c in sub] == list(expected.items())

    def test_parse_and_critical_cells_build_no_coface_map(self):
        complex = torus(12)
        parsed, f = parse_scx(emit_scx(complex, random_morse(complex, 7)))
        assert len(critical_cells(f)) > 0
        assert parsed._coface_tuples is None
        cofaces = parsed.cofaces_of((0,))
        assert parsed._coface_tuples[(0,)] == cofaces


class TestChainRefusals:
    def test_adding_chains_of_different_dimensions(self):
        with pytest.raises(ValueError) as info:
            Chain.unit((0,)) + Chain.unit((0, 1))
        assert str(info.value) == "cannot add chains of dimensions 0 and 1"
