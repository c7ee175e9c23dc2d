"""The gradient chain map, the flow operator, and their set versions."""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from morseflow import (
    Chain,
    FlowOperator,
    Simplex,
    boundary,
    build_complex,
    check_flow_matrix,
    flow_image,
    flow_image_closure,
    flow_matrix,
    level_subcomplex,
    random_morse,
    validate,
    verify_flow_collapse,
)
from morseflow.errors import ComplexMismatch, PropertyViolation, SimplexNotInComplex
from conftest import flow_by_chain_algebra, random_instance, torus


@pytest.fixture(scope="module")
def p3_flow(p3_function):
    return FlowOperator(p3_function)


class TestGradientMap:
    def test_p3_gradient_of_vertex_2(self, p3_flow):
        assert p3_flow.gradient_of((2,)).coeffs == {Simplex((1, 2)): -1}

    def test_critical_cells_map_to_zero(self, p3_flow):
        assert p3_flow.gradient_of((1,)).is_zero
        assert p3_flow.gradient_of((2, 3)).is_zero

    def test_gradient_squared_is_zero(self, p3_flow):
        for cell in p3_flow.complex:
            image = p3_flow.gradient_of(cell)
            assert p3_flow.apply_gradient(image).is_zero


class TestFlow:
    def test_p3_vertex_2_flows_to_vertex_1(self, p3_flow):
        assert p3_flow.flow_of((2,)).coeffs == {Simplex((1,)): 1}

    def test_critical_vertex_is_fixed(self, p3_flow):
        assert p3_flow.flow_of((1,)).coeffs == {Simplex((1,)): 1}

    def test_p3_edge_23(self, p3_flow):
        assert p3_flow.flow_of((2, 3)).coeffs == {Simplex((2, 3)): 1, Simplex((1, 2)): 1}

    def test_matched_upper_edge_has_the_zero_row(self, p3_flow):
        assert p3_flow._flow[Simplex((1, 2))] == {}
        chain = p3_flow.flow_of((1, 2))
        assert chain == Chain.zero() and chain.is_zero and chain.dim == -1

    def test_flow_of_wraps_the_plain_row(self):
        complex = torus(4)
        operator = FlowOperator(random_morse(complex, 3))
        zero_rows = 0
        for cell in complex:
            row = operator._flow[cell]
            assert type(row) is dict and all(row.values())
            assert operator.flow_of(cell) == Chain(cell.dim, row)
            zero_rows += not row
        assert zero_rows

    def test_kernel_matches_chain_algebra_on_random_instances(self):
        for seed in range(60):
            complex, f = random_instance(seed)
            operator = FlowOperator(f)
            for cell in complex:
                assert operator.flow_of(cell) == flow_by_chain_algebra(operator, cell)

    def test_kernel_matches_chain_algebra_on_the_torus(self):
        complex = torus(5)
        for seed in range(4):
            operator = FlowOperator(random_morse(complex, seed))
            for cell in complex:
                assert operator.flow_of(cell) == flow_by_chain_algebra(operator, cell)

    def test_chain_map_identity_on_random_chains(self):
        rng = random.Random(13)
        for seed in range(30):
            complex, f = random_instance(seed)
            operator = FlowOperator(f)
            for _ in range(20):
                p = rng.randint(0, complex.dim)
                cells = complex.cells_of_dim(p)
                chain = Chain(
                    p,
                    {c: rng.randint(-3, 3) for c in rng.sample(cells, min(4, len(cells)))},
                )
                assert boundary(operator.apply_flow(chain)) == operator.apply_flow(
                    boundary(chain)
                )


class TestChainsOfThousandsOfTerms:
    """The chain maps on whole and random chains of the m = 12 and m = 24 tori."""

    @staticmethod
    def _summed(dim, chain, image_of):
        """The sum of coefficient times image over the chain's terms, by a counter."""
        total = Counter()
        for cell, coef in chain.coeffs.items():
            total.update({s: coef * c for s, c in image_of(cell).items()})
        return Chain(dim, dict(total))

    @pytest.mark.parametrize("m", [12, 24])
    def test_maps_match_the_matrix_rows_and_the_cell_images(self, m):
        complex = torus(m)
        rng = random.Random(m)
        for seed in range(3):
            operator = FlowOperator(random_morse(complex, seed))
            for p in range(complex.dim + 1):
                rows = flow_matrix(operator, p)
                cells = complex.cells_of_dim(p)
                picked = rng.sample(cells, len(cells) // 3)
                for chain in (
                    Chain(p, dict.fromkeys(cells, 1)),
                    Chain(p, {c: rng.choice((-2, -1, 1, 3)) for c in picked}),
                ):
                    flowed = operator.apply_flow(chain)
                    assert flowed == self._summed(p, chain, rows.__getitem__)
                    graded = operator.apply_gradient(chain)
                    assert graded == self._summed(
                        p + 1, chain, lambda c: operator.gradient_of(c).coeffs
                    )
                    for result in (flowed, graded):
                        assert all(complex._own(s) is s for s in result.coeffs)


class TestFlowMatrix:
    def test_p3_dim0(self, p3_flow):
        rows = flow_matrix(p3_flow, 0)
        assert rows[Simplex((1,))] == {Simplex((1,)): 1}
        assert rows[Simplex((2,))] == {Simplex((1,)): 1}
        assert rows[Simplex((3,))] == {Simplex((3,)): 1}

    def test_p3_dim1_diagonal(self, p3_flow):
        rows = flow_matrix(p3_flow, 1)
        assert rows[Simplex((2, 3))].get(Simplex((2, 3))) == 1
        assert Simplex((1, 2)) not in rows[Simplex((1, 2))]

    def test_single_vertex_matrix(self):
        k = build_complex([(0,)])
        operator = FlowOperator(validate(k, {(0,): 0}))
        assert flow_matrix(operator, 0) == {Simplex((0,)): {Simplex((0,)): 1}}

    def test_check_passes_on_fixtures(self, p3_flow):
        for p in range(p3_flow.complex.dim + 1):
            report = check_flow_matrix(p3_flow, p)
            assert report.ok

    def test_check_detects_tampering(self, p3_function):
        operator = FlowOperator(p3_function)
        operator._flow[Simplex((2,))] = {Simplex((3,)): 1}  # corrupt the chain route
        with pytest.raises(PropertyViolation):
            check_flow_matrix(operator, 0)


    def test_matrix_route_reads_only_function_field_and_complex(self):
        for seed in range(20):
            _, f = random_instance(seed)
            operator = FlowOperator(f)
            stripped = SimpleNamespace(
                function=operator.function, field=operator.field, complex=operator.complex
            )
            for p in range(f.complex.dim + 1):
                rows = flow_matrix(stripped, p)
                assert rows == flow_matrix(operator, p)
                assert rows == {c: operator.flow_of(c).coeffs for c in f.complex.cells_of_dim(p)}


class TestSupportMaps:
    def test_image_of_vertex_2(self, p3_flow):
        assert flow_image(p3_flow, [(2,)]) == {(1,)}

    def test_image_of_critical_vertex(self, p3_flow):
        assert flow_image(p3_flow, [(1,)]) == {(1,)}

    def test_image_of_edge_23(self, p3_flow):
        assert flow_image(p3_flow, [(2, 3)]) == {(2, 3), (1, 2)}

    def test_image_of_empty_set(self, p3_flow):
        assert flow_image(p3_flow, []) == frozenset()
        assert len(flow_image_closure(p3_flow, [])) == 0

    def test_closure_of_edge_23(self, p3_flow, p3):
        assert flow_image_closure(p3_flow, [(2, 3)]) == p3

    def test_closure_of_critical_vertex(self, p3_flow):
        assert flow_image_closure(p3_flow, [(1,)]).simplices == {(1,)}

    def test_image_is_the_union_of_the_flow_supports(self):
        rng = random.Random(5)
        for seed in range(30):
            complex, f = random_instance(seed)
            operator = FlowOperator(f)
            cells = list(complex)
            for _ in range(10):
                chosen = rng.sample(cells, rng.randint(0, len(cells)))
                expected = frozenset().union(*(operator.flow_of(c).support() for c in chosen))
                assert flow_image(operator, chosen) == expected
                assert flow_image(operator, iter(chosen)) == expected

    def test_sublevel_invariance(self):
        for seed in range(30):
            complex, f = random_instance(seed)
            operator = FlowOperator(f)
            for a in f.sorted_distinct_values():
                level = level_subcomplex(f, a)
                assert flow_image(operator, level.sublevel) <= level.sublevel
                assert flow_image(operator, level.complex.simplices) <= level.complex.simplices

    def test_iteration_stabilises_within_size(self):
        for seed in range(20):
            complex, f = random_instance(seed)
            operator = FlowOperator(f)
            current = frozenset(complex.simplices)
            for _ in range(len(complex)):
                current = flow_image(operator, current)
            assert flow_image(operator, current) == current


class TestFlowCollapse:
    def test_p3_at_top_is_trivial(self, p3_function):
        seq = verify_flow_collapse(p3_function, 4)
        assert len(seq) == 0

    def test_p3_at_3_removes_the_pair(self, p3_function):
        seq = verify_flow_collapse(p3_function, 3)
        assert seq.pairs == (((2,), (1, 2)),)
        assert seq.end.simplices == {(1,), (3,)}
        seq.replay()

    def test_below_min_is_empty(self, p3_function):
        seq = verify_flow_collapse(p3_function, -10)
        assert len(seq) == 0
        assert len(seq.end) == 0

    def test_every_level_of_random_instances(self):
        for seed in range(30):
            _, f = random_instance(seed)
            operator = FlowOperator(f)
            for a in f.sorted_distinct_values():
                verify_flow_collapse(f, a, operator).replay()

    def test_operator_of_another_function_on_the_same_complex(self, p3_function, p3):
        other = validate(p3, {(1,): 0, (2,): 1, (3,): 3, (1, 2): 2, (2, 3): 2.5})
        with pytest.raises(ComplexMismatch):
            verify_flow_collapse(p3_function, 4, FlowOperator(other))

    def test_operator_of_another_complex(self, p3_function, circle_function):
        with pytest.raises(ComplexMismatch):
            verify_flow_collapse(p3_function, 4, FlowOperator(circle_function))

    def test_operator_with_an_equal_field_is_accepted(self, p3_function, p3):
        twin = validate(p3, {c: 2 * v for c, v in p3_function.values.items()})
        assert twin.field == p3_function.field
        assert verify_flow_collapse(p3_function, 4, FlowOperator(twin)).replay()


class TestOperatorField:
    def test_a_foreign_field_is_refused(self):
        complex, f = random_instance(3)
        foreign = random_morse(complex, 12345).field
        assert foreign != f.field
        with pytest.raises(ComplexMismatch):
            FlowOperator(f, foreign)

    def test_a_field_of_another_complex_is_refused(self, p3_function, circle_function):
        with pytest.raises(ComplexMismatch):
            FlowOperator(p3_function, circle_function.field)

    def test_an_equal_field_is_accepted(self, p3_function, p3):
        twin = validate(p3, {c: 2 * v for c, v in p3_function.values.items()})
        assert twin.field is not p3_function.field
        operator = FlowOperator(p3_function, twin.field)
        assert operator.field is twin.field
        assert operator._flow == FlowOperator(p3_function)._flow
        for p in range(p3.dim + 1):
            check_flow_matrix(operator, p)


class TestMembership:
    def test_gradient_rejects_foreign_cells(self, p3_flow):
        with pytest.raises(SimplexNotInComplex):
            p3_flow.apply_gradient(Chain.unit((7, 8)))
        with pytest.raises(SimplexNotInComplex):
            p3_flow.flow_of((9,))

    def test_each_chain_map_names_the_foreign_cell(self, p3_flow):
        foreign = Simplex((7, 8))
        mixed = Chain(1, {(1, 2): 1, foreign: 2})  # a member first, then the foreign cell
        for call, arg, name in (
            (p3_flow.flow_of, (7, 8), "(7, 8)"),
            (p3_flow.gradient_of, foreign, "Simplex(7, 8)"),
            (p3_flow.apply_flow, mixed, "Simplex(7, 8)"),
            (p3_flow.apply_gradient, mixed, "Simplex(7, 8)"),
        ):
            with pytest.raises(SimplexNotInComplex) as exc:
                call(arg)
            assert str(exc.value) == f"{name} is not in the complex"

    def test_image_rejects_foreign_cells(self, p3_flow):
        with pytest.raises(SimplexNotInComplex):
            flow_image(p3_flow, [(9,)])
        with pytest.raises(SimplexNotInComplex):
            flow_image(p3_flow, (c for c in [(9,)]))
        with pytest.raises(SimplexNotInComplex):
            flow_image(p3_flow, [(1,), (1, 3)])
