"""Complex construction, boundary algebra, and the homology oracle."""

from __future__ import annotations

import random

import pytest

from morseflow import (
    Chain,
    Simplex,
    SimplicialComplex,
    betti_numbers_mod2,
    boundary,
    build_complex,
    component_count,
    euler_characteristic,
    incidence_sign,
    is_connected,
    is_subcomplex,
    subcomplexes_of,
)
from morseflow.errors import (
    EmptyInput,
    MalformedSimplex,
    SimplexNotInComplex,
    TooLargeForEnumeration,
)
from conftest import random_complex


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

    def test_not_closed_constructor_raises(self):
        with pytest.raises(MalformedSimplex):
            SimplicialComplex([(0, 1)])


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


class TestSubcomplexEnumeration:
    def test_point_has_two_subcomplexes(self, point):
        subs = list(subcomplexes_of(point))
        assert len(subs) == 2
        assert any(len(s) == 0 for s in subs)

    def test_edge_closure_has_five_subcomplexes(self, edge):
        assert len(list(subcomplexes_of(edge))) == 5

    def test_all_results_are_subcomplexes(self, triangle):
        for sub in subcomplexes_of(triangle):
            assert is_subcomplex(sub, triangle)

    def test_is_subcomplex(self, p3, point):
        vertex = build_complex([(1,)])
        assert is_subcomplex(vertex, p3)
        assert not is_subcomplex(p3, vertex)

    def test_enumeration_bound(self):
        big = build_complex([(0, 1, 2, 3)])
        assert len(big) == 15
        with pytest.raises(TooLargeForEnumeration) as info:
            list(subcomplexes_of(big))
        assert (info.value.size, info.value.bound) == (15, 14)
        assert str(info.value) == "15 simplices exceeds the enumeration bound 14"
        assert len(list(subcomplexes_of(big, max_enum=15))) > 0


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
