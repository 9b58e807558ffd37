import pytest
from hypothesis import given

from treeres.complexes import (
    EmptyComplex,
    SimplicialComplex,
    VoidComplex,
    full_simplex,
    induced,
)
from treeres.duality import (
    ZeroIdeal,
    alexander_dual,
    dual_facets,
    dual_generators,
    sr_complex,
    sr_ideal,
)
from treeres.monomial import Monomial, MonomialIdeal, VariableSet, parse_ideal

from helpers import (
    census_complexes,
    cx,
    hollow_triangle,
    six_var_ideal,
    star_ideal,
    sweep_alexander_dual,
    sweep_sr_complex,
    sweep_sr_ideal,
)
from strategies import complexes, squarefree_ideals

V5 = VariableSet(tuple([f"x{i}" for i in range(1, 6)]))


class TestStanleyReisnerIdeal:
    def test_two_points(self):
        I = sr_ideal(cx(["x1", "x2"], [("x1",), ("x2",)]))
        assert [str(g) for g in I.generators] == ["x1*x2"]

    def test_hollow_triangle(self):
        I = sr_ideal(hollow_triangle())
        assert [str(g) for g in I.generators] == ["a*b*c"]

    def test_full_simplex_gives_zero_ideal(self):
        V = VariableSet(("a", "b"))
        assert sr_ideal(full_simplex(V)) == ZeroIdeal(V)

    def test_empty_complex_gives_maximal_ideal(self):
        V = VariableSet(("a", "b"))
        I = sr_ideal(EmptyComplex(V))
        assert {str(g) for g in I.generators} == {"a", "b"}


class TestStanleyReisnerComplex:
    def test_principal_squarefree(self):
        D = sr_complex(parse_ideal("vars x1 x2\nx1*x2\n"))
        assert D == cx(["x1", "x2"], [("x1",), ("x2",)])

    def test_maximal_ideal_gives_empty_complex(self):
        D = sr_complex(parse_ideal("vars x1 x2\nx1\nx2\n"))
        assert D == EmptyComplex(VariableSet(("x1", "x2")))

    def test_round_trip_on_six_var_ideal(self):
        I = six_var_ideal()
        assert sr_ideal(sr_complex(I)).same_ideal(I)

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            sr_complex(parse_ideal("x^2\n"))

    def test_keeps_ambient_variable(self):
        # x1 is a generator, so it is not a vertex of the complex, but the
        # ambient universe remembers it and the round trip still closes.
        I = parse_ideal("vars x1 x2 x3\nx1\nx2*x3\n")
        D = sr_complex(I)
        assert set(D.vertices.names) == {"x1", "x2", "x3"}
        assert sr_ideal(D).same_ideal(I)

    @given(complexes(max_vertices=5))
    def test_round_trips(self, D):
        I = sr_ideal(D)
        if isinstance(I, ZeroIdeal):
            return
        assert sr_complex(I) == D

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_product_of_all_variables_gives_boundary(self, n):
        V = VariableSet(tuple([f"x{i}" for i in range(1, n + 1)]))
        D = sr_complex(MonomialIdeal(V, (Monomial(V, (1,) * n),)))
        assert D == cx(V.names, [set(V.names) - {v} for v in V.names])

    def test_single_variable_gives_empty_complex(self):
        V = VariableSet(("x1",))
        D = sr_complex(MonomialIdeal(V, (Monomial(V, (1,)),)))
        assert D == EmptyComplex(V)

    @given(squarefree_ideals(V5, max_gens=6))
    def test_matches_sweep_on_squarefree_ideals(self, I):
        D = sr_complex(I)
        assert _same_in_order(D, sweep_sr_complex(I))
        assert sr_ideal(D).same_ideal(I)


class TestAlexanderDual:
    def test_involution_on_samples(self):
        for D in (hollow_triangle(), dual_facets(six_var_ideal()),
                  cx("ab", [("a",), ("b",)])):
            assert alexander_dual(alexander_dual(D)) == D

    def test_hollow_triangle_dual_is_empty(self):
        assert alexander_dual(hollow_triangle()) == EmptyComplex(
            VariableSet(("a", "b", "c"))
        )

    def test_empty_complex_dual_is_boundary(self):
        V = VariableSet(("a", "b", "c"))
        D = alexander_dual(EmptyComplex(V))
        assert D == cx("abc", [("a", "b"), ("b", "c"), ("a", "c")])

    def test_full_simplex_dual_is_void(self):
        V = VariableSet(("a", "b"))
        assert alexander_dual(full_simplex(V)) == VoidComplex(V)
        assert alexander_dual(VoidComplex(V)) == full_simplex(V)

    @given(complexes(max_vertices=5))
    def test_involution(self, D):
        assert alexander_dual(alexander_dual(D)) == D


def _same_in_order(got, expected) -> bool:
    """Equal values, with generators and facets in the same order."""
    if type(got) is not type(expected) or got != expected:
        return False
    if isinstance(got, MonomialIdeal):
        return got.generators == expected.generators
    if isinstance(got, SimplicialComplex):
        return got.vertices == expected.vertices and got.facets == expected.facets
    return True


class TestSweepOracles:
    """The minimal-non-face routine against the face sweeps kept in
    helpers.py, in generator and facet order."""

    def test_every_complex_up_to_five_vertices(self):
        count = 0
        for D in census_complexes(5):
            assert _same_in_order(alexander_dual(D), sweep_alexander_dual(D)), D
            I = sr_ideal(D)
            assert _same_in_order(I, sweep_sr_ideal(D)), D
            if not isinstance(I, ZeroIdeal):
                assert _same_in_order(sr_complex(I), sweep_sr_complex(I)), I
            count += 1
        assert count == 7020

    @given(complexes(max_vertices=5, ambient=True))
    def test_complexes_with_unused_vertices(self, D):
        dual = alexander_dual(D)
        assert _same_in_order(dual, sweep_alexander_dual(D))
        for E in (D, dual):
            if isinstance(E, VoidComplex):
                continue
            I = sr_ideal(E)
            assert _same_in_order(I, sweep_sr_ideal(E))
            if not isinstance(I, ZeroIdeal):
                assert _same_in_order(sr_complex(I), sweep_sr_complex(I))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_empty_and_void(self, n):
        V = VariableSet(tuple([f"x{i}" for i in range(1, n + 1)]))
        for E in (EmptyComplex(V), VoidComplex(V)):
            assert _same_in_order(alexander_dual(E), sweep_alexander_dual(E))
        I = sr_ideal(EmptyComplex(V))
        assert _same_in_order(I, sweep_sr_ideal(EmptyComplex(V)))
        assert _same_in_order(sr_complex(I), sweep_sr_complex(I))


class TestComplementCorrespondence:
    def test_six_var_facets(self):
        D = dual_facets(six_var_ideal())
        assert [sorted(f) for f in D.facets] == [
            ["x2", "x4", "x5"],
            ["x2", "x3", "x5"],
            ["x3", "x5", "x6"],
            ["x1", "x2", "x3"],
        ]

    def test_star_facets(self):
        D = dual_facets(star_ideal())
        assert [sorted(f) for f in D.facets] == [
            ["x4", "x5"], ["x3", "x5"], ["x2", "x5"], ["x1", "x5"]
        ]

    def test_principal_with_ambient_universe(self):
        D = dual_facets(parse_ideal("vars x1 x2\nx1\n"))
        assert D.facets == (frozenset({"x2"}),)
        assert set(D.vertices.names) == {"x1", "x2"}

    def test_full_support_generator_errors(self):
        with pytest.raises(ValueError):
            dual_facets(parse_ideal("vars x1 x2\nx1*x2\n"))

    def test_star_generators_from_facets(self):
        D = dual_facets(star_ideal())
        I = dual_generators(D)
        assert [str(g) for g in I.generators] == [
            "x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4"
        ]

    def test_single_facet_generator(self):
        D = SimplicialComplex(VariableSet(("x1", "x2")), (frozenset({"x1"}),))
        assert [str(g) for g in dual_generators(D).generators] == ["x2"]

    def test_facet_equal_to_universe_errors(self):
        with pytest.raises(ValueError):
            dual_generators(full_simplex(VariableSet(("a", "b"))))

    def test_round_trip_on_six_var_ideal(self):
        I = six_var_ideal()
        assert dual_generators(dual_facets(I)) == I

    @given(complexes(max_vertices=5, ambient=True))
    def test_complement_agrees_with_dual_composite(self, D):
        if D.facets[0] == frozenset(D.vertices.names):
            return
        J = dual_generators(D)
        composite = sr_ideal(alexander_dual(D))
        assert not isinstance(composite, ZeroIdeal)
        assert composite.same_ideal(J)

    @given(complexes(max_vertices=5, ambient=True))
    def test_bijection(self, D):
        if D.facets[0] == frozenset(D.vertices.names):
            return
        assert dual_facets(dual_generators(D)) == D


class TestRestrictionCompatibility:
    def test_six_var_restriction_matches_induced_duals(self):
        I = six_var_ideal()
        D = dual_facets(I)
        W = ["x1", "x2", "x3", "x4"]
        # Facets of the dual restricted to W are the maximal F_i ∩ W.
        maximal = {
            f & frozenset(W)
            for f in D.facets
            if not any(
                (f & frozenset(W)) < (g & frozenset(W)) for g in D.facets
            )
        }
        assert set(induced(D, W).facets) == maximal
