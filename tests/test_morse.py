"""Morse function validation, gradient fields, paths, perturbation, generation."""

from __future__ import annotations

import random

import pytest

from morseflow import (
    GradientField,
    are_equivalent,
    betti_numbers_mod2,
    build_complex,
    critical_cells,
    critical_values,
    euler_characteristic,
    gradient_field,
    gradient_paths_from,
    has_closed_path,
    lower_set,
    make_injective,
    random_morse,
    upper_set,
    validate,
)
from morseflow.errors import (
    ComplexMismatch,
    MissingValue,
    MorseConditionViolated,
    SimplexNotInComplex,
)
from conftest import random_instance


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

    def test_extra_value(self, p3):
        values = {(1,): 0, (2,): 3, (3,): 1, (1, 2): 2, (2, 3): 4, (9,): 0}
        with pytest.raises(SimplexNotInComplex):
            validate(p3, values)


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

    def test_exclusivity_everywhere(self, p3_function, triangle_function, circle_function):
        for f in (p3_function, triangle_function, circle_function):
            for cell in f.complex:
                assert not (upper_set(f, cell) and lower_set(f, cell))


class TestGradientPaths:
    def test_p3_path_from_vertex_2(self, p3_function):
        field = gradient_field(p3_function)
        paths = gradient_paths_from(field, (2,))
        assert len(paths) == 1
        assert paths[0].cells == ((2,), (1, 2), (1,))

    def test_trivial_path_from_critical_cell(self, p3_function):
        field = gradient_field(p3_function)
        (path,) = gradient_paths_from(field, (1,))
        assert path.is_trivial
        assert not path.is_closed

    def test_long_path_is_walked_without_recursion(self):
        n = 3000
        k = build_complex([(i, i + 1) for i in range(n - 1)])
        field = GradientField(k, [((i + 1,), (i, i + 1)) for i in range(n - 1)])
        (path,) = gradient_paths_from(field, (n - 1,))
        assert len(path.cells) == 2 * n - 1
        assert path.cells[-1] == (0,)

    def test_cyclic_matching_detected(self, circle):
        cyclic = GradientField(
            circle, [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]
        )
        assert has_closed_path(cyclic)

    def test_valid_fields_have_no_closed_paths(self, p3_function, circle_function):
        for f in (p3_function, circle_function):
            assert not has_closed_path(gradient_field(f))

    def test_values_strictly_decrease_along_paths(self):
        for seed in range(40):
            complex, f = random_instance(seed)
            field = gradient_field(f)
            for start in complex:
                for path in gradient_paths_from(field, start):
                    lowers = path.cells[::2]
                    values = [f(c) for c in lowers]
                    assert all(a > b for a, b in zip(values, values[1:]))


class TestEquivalence:
    def test_reflexive(self, p3_function):
        assert are_equivalent(p3_function, p3_function)

    def test_affine_transform(self, p3_function, p3):
        g = validate(p3, {s: 2 * v + 1 for s, v in p3_function.values.items()})
        assert are_equivalent(p3_function, g)

    def test_order_flip_detected(self, p3_function, p3):
        g = validate(p3, {(1,): 0, (2,): 3, (3,): 1, (1, 2): 3.5, (2, 3): 4})
        assert not are_equivalent(p3_function, g)

    def test_different_complexes_rejected(self, p3_function, triangle_function):
        with pytest.raises(ComplexMismatch):
            are_equivalent(p3_function, triangle_function)


class TestMakeInjective:
    def test_already_injective_stays_equivalent(self, p3_function):
        g = make_injective(p3_function)
        assert g.is_injective()
        assert are_equivalent(p3_function, g)
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
        assert are_equivalent(f, g)

    def test_random_instances(self):
        for seed in range(30):
            _, f = random_instance(seed)
            g = make_injective(f)
            assert g.is_injective()
            assert are_equivalent(f, g)
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
