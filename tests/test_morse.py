"""Morse function validation, gradient fields, paths, perturbation, generation."""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter

import pytest

from morseflow import (
    GradientField,
    Simplex,
    betti_numbers_mod2,
    build_complex,
    critical_cells,
    critical_values,
    euler_characteristic,
    gradient_field,
    has_closed_path,
    lower_set,
    make_injective,
    mountain_pass,
    random_morse,
    upper_set,
    validate,
)
from morseflow import morse
from morseflow.collapse import level_subcomplex
from morseflow.complexes import CellIndex, search_index, simplex_key
from morseflow.scxio import emit_scx, parse_scx
from morseflow.errors import (
    AcyclicityBug,
    ComplexMismatch,
    MissingValue,
    MorseConditionViolated,
    NoPathExists,
    NotLocalMinima,
    PreconditionViolated,
    SimplexNotInComplex,
    TooLargeForEnumeration,
)
from conftest import (
    CountingList,
    grid,
    random_complex,
    random_instance,
    reference_make_injective,
    reference_simplex_linear_extension,
    tied,
    torus,
)


def order_equivalent(f, g) -> bool:
    """Same strict order on every codimension-1 face relation."""
    if f.complex != g.complex:
        raise ComplexMismatch("the functions live on different complexes")
    for upper in f.complex:
        for lower in f.complex.faces_of(upper):
            if (f(lower) < f(upper)) != (g(lower) < g(upper)):
                return False
    return True


def reference_has_closed_path(field) -> bool:
    """Oracle for ``has_closed_path``: recursive three-colour DFS on every cell."""
    complex = field.complex

    def successors(cell):
        upper = field.up.get(cell)
        return [] if upper is None else [c for c in complex.faces_of(upper) if c != cell]

    state = {}

    def visit(cell) -> bool:
        state[cell] = 1
        for nxt in successors(cell):
            if state.get(nxt) == 1 or (nxt not in state and visit(nxt)):
                return True
        state[cell] = 2
        return False

    return any(cell not in state and visit(cell) for cell in complex)


def reference_linear_extension(incidence, up, key):
    """Oracle for ``morse._linear_extension``: a successor list per incidence and a heap."""
    succ = [[] for _ in incidence.faces]
    indeg = [0] * len(incidence.faces)
    for upper, ids in enumerate(incidence.faces):
        for lower in ids:
            a, b = (upper, lower) if up[lower] == upper else (lower, upper)
            succ[a].append(b)
            indeg[b] += 1
    heap = [(key[i], i) for i, n in enumerate(indeg) if n == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for nxt in succ[i]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (key[nxt], nxt))
    if len(order) != len(incidence.faces):
        raise AcyclicityBug("the matching-modified face order has a cycle")
    return order


# The Simplex-keyed generator that ``random_morse`` replaced, kept as its
# oracle: the same shuffle, matching, cycle test and heap order, over dicts
# of cells instead of the integer incidence.


def reference_would_cycle(complex, up, lower, upper):
    faces = complex._faces
    stack = [c for c in faces[upper] if c != lower]
    seen = set()
    while stack:
        x = stack.pop()
        if x == lower:
            return True
        if x in seen:
            continue
        seen.add(x)
        nxt = up.get(x)
        if nxt is not None:
            stack.extend(faces[nxt])
    return False


def reference_random_morse(complex, seed):
    rng = random.Random(seed)
    incidences = [(lower, upper) for upper in complex for lower in complex.faces_of(upper)]
    rng.shuffle(incidences)
    skip = rng.random() * 0.6
    up = {}
    matched = set()
    for lower, upper in incidences:
        if lower in matched or upper in matched:
            continue
        if rng.random() < skip:
            continue
        if reference_would_cycle(complex, up, lower, upper):
            continue
        up[lower] = upper
        matched.add(lower)
        matched.add(upper)
    priority = {cell: rng.random() for cell in complex}
    down = {upper: lower for lower, upper in up.items()}
    order = reference_simplex_linear_extension(complex, up, down, key=priority.__getitem__)
    return validate(complex, {cell: float(i) for i, cell in enumerate(order)})


def random_matching(complex, rng) -> GradientField:
    """A raw matching of codimension-1 pairs, acyclic or not."""
    incidences = [(lower, upper) for upper in complex for lower in complex.faces_of(upper)]
    rng.shuffle(incidences)
    used = set()
    pairs = []
    for lower, upper in incidences:
        if lower not in used and upper not in used and rng.random() < 0.7:
            used |= {lower, upper}
            pairs.append((lower, upper))
    return GradientField(complex, pairs)


class TestUpperLowerSets:
    def test_p3_upper_of_vertex_2(self, p3_function):
        assert upper_set(p3_function, (2,)) == {(1, 2)}

    def test_p3_lower_of_edge_23(self, p3_function):
        assert lower_set(p3_function, (2, 3)) == frozenset()

    def test_isolated_vertex(self):
        k = build_complex([(0,)])
        f = validate(k, {(0,): 7})
        assert upper_set(f, (0,)) == frozenset()

    def test_unknown_simplex(self, p3_function):
        with pytest.raises(SimplexNotInComplex):
            upper_set(p3_function, (9,))


class TestValidate:
    def test_p3_fixture_is_valid(self, p3_function):
        assert p3_function((2, 3)) == 4.0

    def test_flat_triangle_rejected(self, triangle):
        with pytest.raises(MorseConditionViolated) as info:
            validate(triangle, {s: 0 for s in triangle})
        offenders = {tuple(s) for s, _, _ in info.value.violations}
        assert {(0,), (1,), (2,)} <= offenders

    def test_single_vertex(self):
        k = build_complex([(0,)])
        f = validate(k, {(0,): 7})
        assert critical_cells(f) == {(0,)}

    def test_missing_value(self, p3):
        with pytest.raises(MissingValue):
            validate(p3, {(1,): 0})

    def test_missing_value_names_the_first_cell_in_canonical_order(self, p3):
        # (2,) is the first cell of p3 without a value; (1, 2) lacks one too.
        for values in ({(1,): 0}, {(1,): 0, (3,): 1, (2, 3): 4}, {(3,): 1, (2, 3): 4, (1,): 0}):
            with pytest.raises(MissingValue) as info:
                validate(p3, values)
            assert str(info.value) == "no value for Simplex(2,)"
            assert info.value.__cause__ is None and info.value.__suppress_context__
        with pytest.raises(MissingValue, match=r"^no value for Simplex\(2, 3\)$"):
            validate(p3, {(1,): 0, (2,): 3, (3,): 1, (1, 2): 2})

    def test_extra_value(self, p3):
        values = {(1,): 0, (2,): 3, (3,): 1, (1, 2): 2, (2, 3): 4, (9,): 0}
        with pytest.raises(SimplexNotInComplex):
            validate(p3, values)

    def test_a_cell_named_twice(self):
        # (1, 0) is the edge (0, 1) again; its second value must not win.
        values = {(0,): 0, (1,): 1, (0, 1): 2, (1, 0): 0.5}
        with pytest.raises(PreconditionViolated, match=r"twice for Simplex\(0, 1\)"):
            validate(build_complex([(0, 1)]), values)


class TestCriticalCells:
    def test_p3(self, p3_function):
        assert critical_cells(p3_function) == {(1,), (3,), (2, 3)}
        assert critical_values(p3_function) == [0.0, 1.0, 4.0]

    def test_collapsible_triangle(self, triangle_function):
        assert critical_cells(triangle_function) == {(0,)}

    def test_single_vertex(self):
        k = build_complex([(5,)])
        f = validate(k, {(5,): 1.5})
        assert critical_cells(f) == {(5,)}


class TestGradientField:
    def test_p3_pairs(self, p3_function):
        field = gradient_field(p3_function)
        assert field.pairs == {((2,), (1, 2))}
        assert field.critical == {(1,), (3,), (2, 3)}

    def test_collapsible_triangle_pairs(self, triangle_function):
        field = gradient_field(triangle_function)
        assert field.pairs == {
            ((1,), (0, 1)),
            ((2,), (0, 2)),
            ((1, 2), (0, 1, 2)),
        }

    def test_single_vertex_has_no_pairs(self):
        k = build_complex([(0,)])
        field = gradient_field(validate(k, {(0,): 0}))
        assert field.pairs == frozenset()

    def test_the_matching_is_stored_once(self, triangle_function):
        """``up`` and ``down`` hold the matching; ``pairs`` is read from ``up``."""
        field = gradient_field(triangle_function)
        assert "pairs" not in GradientField.__slots__ and not hasattr(field, "pair_of")
        assert field.pairs == frozenset(field.up.items())
        assert field.pairs == {(lower, upper) for upper, lower in field.down.items()}
        assert hash(field) == hash((field.complex, field.pairs))
        assert repr(field) == "GradientField(3 pairs, 1 critical)"
        reordered = GradientField(field.complex, sorted(field.pairs, reverse=True))
        assert reordered == field and hash(reordered) == hash(field)

    def test_validated_field_equals_checked_construction(self):
        """``validate`` builds its field unchecked; the checked constructor agrees."""
        functions = [random_morse(torus(m), seed) for m in (3, 5) for seed in range(4)]
        functions += [random_instance(seed)[1] for seed in range(300)]
        for f in functions:
            field = gradient_field(f)
            pairs = [(c, min(upper_set(f, c))) for c in f.complex if upper_set(f, c)]
            checked = GradientField(f.complex, pairs)
            assert field.pairs == checked.pairs
            assert field.up == checked.up
            assert field.down == checked.down
            assert field.critical == checked.critical

    def test_exclusivity_everywhere(self, p3_function, triangle_function, circle_function):
        for f in (p3_function, triangle_function, circle_function):
            for cell in f.complex:
                assert not (upper_set(f, cell) and lower_set(f, cell))


class TestGradientPaths:
    def test_cyclic_matching_detected(self, circle):
        cyclic = GradientField(
            circle, [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]
        )
        assert has_closed_path(cyclic)

    def test_valid_fields_have_no_closed_paths(self, p3_function, circle_function):
        for f in (p3_function, circle_function):
            assert not has_closed_path(gradient_field(f))

    def test_closed_path_search_agrees_with_a_dfs_on_raw_matchings(self):
        rng = random.Random(11)
        seen = Counter()
        complexes = [torus(3), build_complex([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])]
        for trial in range(600):
            complex = complexes[trial % 2] if trial % 5 == 0 else random_complex(rng, 6, 3)
            field = random_matching(complex, rng)
            expected = reference_has_closed_path(field)
            assert has_closed_path(field) == expected
            seen[expected] += 1
        assert seen[True] >= 50 and seen[False] >= 50

    def test_values_strictly_decrease_along_paths(self):
        # A V-path steps from a to another face c of a's pair b, so strict
        # decrease along every path is f(c) < f(a) at every such step.
        for seed in range(40):
            complex, f = random_instance(seed)
            for a, b in gradient_field(f).pairs:
                for c in complex.faces_of(b):
                    if c != a:
                        assert f(c) < f(a)


class TestEquivalence:
    """``order_equivalent`` is the oracle of ``TestMakeInjective``; these
    keep it from passing vacuously."""

    def test_reflexive(self, p3_function):
        assert order_equivalent(p3_function, p3_function)

    def test_affine_transform(self, p3_function, p3):
        g = validate(p3, {s: 2 * v + 1 for s, v in p3_function.values.items()})
        assert order_equivalent(p3_function, g)

    def test_order_flip_detected(self, p3_function, p3):
        g = validate(p3, {(1,): 0, (2,): 3, (3,): 1, (1, 2): 3.5, (2, 3): 4})
        assert not order_equivalent(p3_function, g)

    def test_different_complexes_rejected(self, p3_function, triangle_function):
        with pytest.raises(ComplexMismatch):
            order_equivalent(p3_function, triangle_function)


class TestMakeInjective:
    def test_already_injective_stays_equivalent(self, p3_function):
        g = make_injective(p3_function)
        assert g.is_injective()
        assert order_equivalent(p3_function, g)
        assert critical_cells(g) == critical_cells(p3_function)

    def test_single_vertex(self):
        k = build_complex([(0,)])
        g = make_injective(validate(k, {(0,): 0}))
        assert g((0,)) == 0.0

    def test_tied_pair_resolved_downward(self):
        k = build_complex([(0, 1)])
        f = validate(k, {(0,): 0, (1,): 1, (0, 1): 1})
        g = make_injective(f)
        assert g.is_injective()
        assert gradient_field(g).pairs == {((1,), (0, 1))}
        assert critical_cells(g) == {(0,)}
        assert order_equivalent(f, g)

    def test_random_instances(self):
        for seed in range(30):
            _, f = random_instance(seed)
            g = make_injective(f)
            assert g.is_injective()
            assert order_equivalent(f, g)
            assert critical_cells(g) == critical_cells(f)
            assert gradient_field(g) == gradient_field(f)


class TestRandomMorse:
    def test_point(self):
        k = build_complex([(0,)])
        for seed in (0, 1, 99):
            assert random_morse(k, seed)((0,)) == 0.0

    def test_deterministic_in_seed(self, p3):
        assert random_morse(p3, 5).values == random_morse(p3, 5).values

    def test_many_seeds_on_triangle(self, triangle):
        for seed in range(1000):
            f = random_morse(triangle, seed)
            assert f.is_injective()
            assert not has_closed_path(gradient_field(f))

    def test_euler_count_and_weak_inequalities(self):
        rng = random.Random(3)
        for seed in range(60):
            complex, f = random_instance(seed)
            crit = critical_cells(f)
            counts = {}
            for c in crit:
                counts[c.dim] = counts.get(c.dim, 0) + 1
            alternating = sum((-1) ** p * n for p, n in counts.items())
            assert alternating == euler_characteristic(complex)
            betti = betti_numbers_mod2(complex)
            for p, b in enumerate(betti):
                assert counts.get(p, 0) >= b


class TestLinearExtension:
    @staticmethod
    def _functions():
        """(complex, seed) pairs: tori, grids and small random complexes."""
        out = [(torus(m), seed) for m in range(3, 10) for seed in range(4)]
        out += [(grid(3), seed) for seed in range(40)]
        out += [(grid(4), seed) for seed in range(25)]
        out += [(random_instance(seed)[0], seed) for seed in range(300)]
        return out

    def test_random_morse_and_make_injective_match_the_simplex_oracle(self):
        for complex, seed in self._functions():
            f = random_morse(complex, seed)
            expected = reference_random_morse(complex, seed)
            assert list(f.values.items()) == list(expected.values.items())
            assert f.field == expected.field
            for g, h in ((f, expected), (tied(f), tied(expected))):
                got, want = make_injective(g), reference_make_injective(h)
                assert list(got.values.items()) == list(want.values.items())
                assert got.field == want.field

    def test_make_injective_matches_the_simplex_oracle_on_tori(self):
        """The rank along the view's strict order is the heap's linear
        extension, on tori m = 3 .. 12 and on their tied versions."""
        moved = 0
        for m in range(3, 13):
            f = random_morse(torus(m), m)
            for g in (f, tied(f)):
                got, want = make_injective(g), reference_make_injective(g)
                assert list(got.values.items()) == list(want.values.items())
                assert got.field == g.field
                moved += g._view.cells != sorted(g.complex, key=lambda c: (g(c), simplex_key(c)))
        assert moved >= 5  # ties between a matched pair move the lower

    def test_random_morse_and_make_injective_match_the_reference(self, monkeypatch):
        functions = self._functions()

        def run():
            out = []
            for complex, seed in functions:
                f = random_morse(complex, seed)
                for g in (f, make_injective(f), make_injective(tied(f))):
                    out.append(list(g.values.items()))
            return out

        got = run()
        monkeypatch.setattr(morse, "_linear_extension", reference_linear_extension)
        assert got == run()

    def test_cyclic_matching_raises(self, circle):
        cyclic = GradientField(circle, [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
        incidence = circle._incidence
        up = [-1] * len(circle)
        for lower, upper in cyclic.up.items():
            up[incidence.position[lower]] = incidence.position[upper]
        key = list(range(len(circle)))
        for extension in (morse._linear_extension, reference_linear_extension):
            with pytest.raises(AcyclicityBug):
                extension(incidence, up, key)
        with pytest.raises(AcyclicityBug):
            reference_simplex_linear_extension(circle, cyclic.up, cyclic.down, simplex_key)

    def test_reads_each_cells_cofaces_at_most_once(self):
        complex = torus(24)
        f = random_morse(complex, 5)
        incidence = complex._incidence
        position = incidence.position
        up = [-1] * len(complex)
        for lower, upper in f.field.up.items():
            up[position[lower]] = position[upper]
        key = [f(c) for c in complex]
        incidence.cofaces = counted = CountingList(incidence.cofaces)
        order = morse._linear_extension(incidence, up, key)
        assert order == sorted(range(len(complex)), key=key.__getitem__)
        assert counted.reads and max(counted.reads.values()) == 1


class TestIntegerIncidence:
    """Only the callers that need the integer incidence build it."""

    def test_loading_and_reading_build_no_incidence(self):
        complex = torus(12)
        parsed, f = parse_scx(emit_scx(complex, random_morse(complex, 7)))
        validate(parsed, {tuple(c): v for c, v in f.values.items()})
        assert len(critical_cells(f)) > 0
        assert gradient_field(f) is f.field
        for value in f.sorted_distinct_values()[::50]:
            level_subcomplex(f, value)
        assert parsed._ids is None

    def test_mountain_pass_builds_no_incidence(self):
        parsed, f = parse_scx(emit_scx(grid(4), random_morse(grid(4), 3)))
        passes = 0
        for g in (f, tied(f)):
            vertices = sorted((c for c in critical_cells(g) if c.dim == 0), key=g)
            for low, high in itertools.combinations(vertices, 2):
                try:
                    mountain_pass(g, high, low)
                except (NoPathExists, NotLocalMinima):
                    continue
                passes += 1
        assert not tied(f).is_injective()
        assert passes and parsed._ids is None

    def test_make_injective_builds_no_incidence(self):
        parsed, f = parse_scx(emit_scx(torus(6), random_morse(torus(6), 4)))
        for g in (f, tied(f)):
            assert make_injective(g).is_injective()
        assert not tied(f).is_injective() and parsed._ids is None

    def test_random_morse_builds_it_once(self, monkeypatch):
        complex = torus(5)
        built = []
        init = CellIndex.__init__

        def counting_init(incidence, of):
            built.append(of)
            init(incidence, of)

        monkeypatch.setattr(CellIndex, "__init__", counting_init)
        assert complex._ids is None
        random_morse(complex, 1)
        first = complex._ids
        random_morse(complex, 2)
        make_injective(random_morse(complex, 3))
        assert complex._ids is first and built == [complex]
        assert isinstance(first, CellIndex)

    def test_only_search_index_builds_the_masks(self):
        complex = build_complex([(0, 1, 2), (1, 2, 3)])
        random_morse(complex, 1)
        view = complex._incidence
        assert view.face_mask is None and view.coface_mask is None and view.full is None
        assert search_index(complex, 14) is view
        masks = view.face_mask, view.coface_mask
        assert view.full == (1 << len(complex)) - 1 and masks[0] is not None
        assert search_index(complex, 14) is view
        assert (view.face_mask, view.coface_mask) == masks and view.face_mask is masks[0]

    def test_a_large_complex_never_gets_masks(self):
        complex = torus(20)  # 2 400 cells: the masks would take 2 400**2 bits
        random_morse(complex, 1)
        with pytest.raises(TooLargeForEnumeration):
            search_index(complex, 14)
        assert complex._incidence.face_mask is None and complex._incidence.full is None

    def test_cell_index_masks_match_the_face_and_coface_queries(self):
        checked = 0
        for seed in range(300):
            complex, _ = random_instance(seed)
            if len(complex) > 14:
                continue
            index = search_index(complex, 14)
            cells = list(complex)

            def mask(of):
                return sum(1 << cells.index(t) for t in of)

            assert index.cells is complex._order and list(index.cells) == cells
            assert index is complex._incidence
            assert index.position == {c: i for i, c in enumerate(cells)}
            assert index.face_mask == [mask(complex.faces_of(c)) for c in cells]
            assert index.coface_mask == [mask(complex.cofaces_of(c)) for c in cells]
            checked += 1
        assert checked > 50


class TestRareRefusals:
    """Refusals that only a caller's mistake reaches, each with its message."""

    def test_calling_a_function_on_a_cell_without_a_value(self, p3_function):
        with pytest.raises(SimplexNotInComplex) as info:
            p3_function((9,))
        assert str(info.value) == "(9,) has no value"

    def test_a_pair_that_leaves_the_complex(self, p3):
        with pytest.raises(SimplexNotInComplex) as info:
            GradientField(p3, [((1,), (1, 9))])
        assert str(info.value) == "pair (Simplex(1,), Simplex(1, 9)) leaves the complex"

    def test_a_pair_that_is_not_a_face_and_coface(self, p3):
        for lower, upper in (((1,), (2, 3)), ((1, 2), (2,))):
            with pytest.raises(ValueError) as info:
                GradientField(p3, [(lower, upper)])
            message = f"{Simplex(lower)!r} is not a codimension-1 face of {Simplex(upper)!r}"
            assert str(info.value) == message

    def test_a_cell_in_two_pairs(self, p3):
        for pairs in (
            [((1,), (1, 2)), ((2,), (1, 2))],
            [((2,), (1, 2)), ((3,), (2, 3)), ((2,), (2, 3))],
        ):
            with pytest.raises(ValueError) as info:
                GradientField(p3, pairs)
            assert str(info.value) == "a simplex appears in more than one pair"
