import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from treeres.complexes import (
    SUBSET_GUARD,
    EmptyComplex,
    SimplicialComplex,
    all_leaf_orders,
    connected_components,
    f_vector,
    faces,
    full_simplex,
    induced,
    is_connected,
    is_leaf_order,
    is_quasi_forest_by_induced,
    is_simplicial_forest,
    leaf_order,
    complex_to_json,
    complex_from_json,
    _faces_by_dim,
    _has_leaf,
    _is_leaf,
    _joint_positions,
    _signed_boundary,
    _subcollections_have_leaves,
)
from treeres.duality import dual_facets
from treeres.homology import reduced_homology_dims
from treeres.monomial import VariableSet
from treeres.resolution import LabeledComplex, homogenize, is_minimal_support

from helpers import (
    census_complexes,
    cx,
    facet_pair_components,
    hollow_triangle,
    name_faces,
    six_var_ideal,
    star_ideal,
    tuple_faces_by_dim,
    tuple_signed_boundary,
    variables_ideal,
)
from strategies import complexes, graphs


def six_var_dual():
    return dual_facets(six_var_ideal())


def star_dual():
    return dual_facets(star_ideal())


class TestFaces:
    def test_single_edge(self):
        D = cx("ab", [("a", "b")])
        assert faces(D) == {
            frozenset("a"), frozenset("b"), frozenset("ab")
        }

    def test_two_points(self):
        D = cx("ab", [("a",), ("b",)])
        assert faces(D) == {frozenset("a"), frozenset("b")}

    @given(st.integers(1, 5))
    def test_simplex_face_count(self, r):
        names = tuple(f"x{i}" for i in range(r))
        D = full_simplex(VariableSet(names))
        assert len(faces(D)) == 2 ** r - 1


def _unmask(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class TestMaskFacePath:
    """Face buckets and boundary entries on bitmasks, mapped back to index
    tuples, equal those of the tuple path in helpers."""

    @given(complexes(max_vertices=6), st.randoms(use_true_random=False))
    def test_buckets_and_entries_equal_tuple_path(self, D, rng):
        index = D.vertices.index
        keys = sorted(tuple(sorted(map(index, f))) for f in faces(D))
        expected = tuple_faces_by_dim(keys)
        # Fed in lexicographic order, buckets and entries match exactly.
        by_dim = _faces_by_dim([sum(1 << i for i in key) for key in keys])
        assert [list(map(_unmask, bucket)) for bucket in by_dim] == expected
        for d in range(1, len(by_dim)):
            assert list(_signed_boundary(by_dim, d)) == tuple_signed_boundary(expected, d)
        # Fed in any order, they match up to that order.
        rng.shuffle(keys)
        by_dim = _faces_by_dim([sum(1 << i for i in key) for key in keys])
        assert [sorted(map(_unmask, bucket)) for bucket in by_dim] == expected
        for d in range(1, len(by_dim)):
            rows, cols = by_dim[d - 1], by_dim[d]
            assert {
                (_unmask(rows[r]), _unmask(cols[c]), sign)
                for r, c, sign in _signed_boundary(by_dim, d)
            } == {
                (expected[d - 1][r], expected[d][c], sign)
                for r, c, sign in tuple_signed_boundary(expected, d)
            }


class TestFVector:
    def test_tree_with_four_vertices(self):
        D = cx("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
        assert f_vector(D) == (4, 3)

    def test_single_vertex(self):
        assert f_vector(cx("a", [("a",)])) == (1,)

    def test_full_triangle(self):
        assert f_vector(full_simplex(VariableSet(("a", "b", "c")))) == (3, 3, 1)


class TestInduced:
    def test_six_var_dual_restriction(self):
        D = six_var_dual()
        sub = induced(D, ["x2", "x3", "x5"])
        assert sub == cx(["x2", "x3", "x5"], [("x2", "x3", "x5")])

    def test_full_universe_is_identity(self):
        D = six_var_dual()
        assert induced(D, D.vertices.names) == D

    def test_outside_universe_errors(self):
        with pytest.raises(ValueError):
            induced(cx("ab", [("a", "b")]), ["c"])

    def test_single_vertex_restriction(self):
        assert induced(cx("ab", [("a", "b")]), ["a"]) == cx("a", [("a",)])

    @given(complexes(), st.data())
    def test_nested_restriction(self, D, data):
        w1 = data.draw(
            st.sets(st.sampled_from(D.vertices.names), min_size=1), label="W1"
        )
        w2 = data.draw(st.sets(st.sampled_from(sorted(w1)), min_size=1), label="W2")
        inner = induced(D, w1)
        direct = induced(D, w2)
        if isinstance(inner, EmptyComplex):
            assert isinstance(direct, EmptyComplex)
            return
        w2_in = w2 & set(inner.vertices.names)
        # Vertices of W2 missing from the inner complex are in no face at all.
        if not w2_in:
            assert isinstance(direct, EmptyComplex)
            return
        assert induced(inner, w2_in) == direct


class TestSubcollection:
    def test_prefixes_support_leaf_orders(self):
        masks = six_var_dual()._facet_masks
        for i in range(len(masks)):
            assert _is_leaf(masks[: i + 1], i)


class TestJointsAndFreeVertices:
    """Leaves and joints on facet masks: facet j is a joint of facet i when
    it holds i's intersection with every other facet."""

    def test_six_var_dual_joints_of_last_facet(self):
        D = six_var_dual()  # facet 3 is {x1,x2,x3}
        assert _joint_positions(D._facet_masks, 3) == [1]  # only {x2,x3,x5}

    def test_single_facet_is_leaf_with_no_joints(self):
        masks = cx("abc", [("a", "b", "c")])._facet_masks
        assert _joint_positions(masks, 0) == []
        assert _is_leaf(masks, 0)

    def test_star_every_facet_joins_every_other(self):
        masks = star_dual()._facet_masks
        for i in range(len(masks)):
            assert _joint_positions(masks, i) == [j for j in range(len(masks)) if j != i]

    def test_isolated_facets_are_leaves_with_every_joint(self):
        # Empty intersections sit inside every facet, so the definition
        # makes disjoint facets leaves jointed by everything else.
        masks = cx("ab", [("a",), ("b",)])._facet_masks
        assert _is_leaf(masks, 0)
        assert _joint_positions(masks, 0) == [1]

    @given(complexes())
    def test_leaves_have_free_vertices(self, D):
        masks = D._facet_masks
        for i, m in enumerate(masks):
            if _is_leaf(masks, i):
                others = 0
                for j, other in enumerate(masks):
                    if j != i:
                        others |= other
                assert m & ~others or D.q == 1

    @given(complexes())
    def test_joint_contains_all_intersections(self, D):
        masks = D._facet_masks
        for i, m in enumerate(masks):
            for j in _joint_positions(masks, i):
                for k, h in enumerate(masks):
                    if k != i:
                        assert m & h & ~masks[j] == 0


def backtracking_order(masks):
    """Some leaf order by a standalone backtracking search; None if none.

    Peels a leaf of the active subcollection, smallest index first, and
    appends it after the order of the remainder; a subcollection from
    which no removal completes is never explored twice.
    """
    dead = set()

    def go(active):
        if not active:
            return []
        if active in dead:
            return None
        order = sorted(active)
        sub = [masks[i] for i in order]
        for p, idx in enumerate(order):
            if is_leaf_mask(sub, p):
                rest = go(active - {idx})
                if rest is not None:
                    return rest + [idx]
        dead.add(active)
        return None

    found = go(frozenset(range(len(masks))))
    return None if found is None else tuple(found)


def is_leaf_mask(masks, i):
    """Facet i is a leaf: alone, or some other facet holds its intersection
    with the union of the rest."""
    if len(masks) == 1:
        return True
    rest = 0
    for j, m in enumerate(masks):
        if j != i:
            rest |= m
    meet = masks[i] & rest
    return any(j != i and meet & ~m == 0 for j, m in enumerate(masks))


class TestLeafOrders:
    def test_six_var_dual_presentation_order_is_valid(self):
        D = six_var_dual()
        assert is_leaf_order(D, (0, 1, 2, 3))

    def test_both_modes_find_an_order(self):
        D = six_var_dual()
        for mode in ("greedy", "exhaustive"):
            order = leaf_order(D, mode)
            assert order is not None
            assert is_leaf_order(D, order)

    def test_star_all_orders_valid(self):
        D = star_dual()
        perms = list(itertools.permutations(range(4)))
        assert all(is_leaf_order(D, p) for p in perms)
        assert sorted(all_leaf_orders(D)) == sorted(perms)

    def test_hollow_triangle_has_none(self):
        D = hollow_triangle()
        assert leaf_order(D, "greedy") is None
        assert leaf_order(D, "exhaustive") is None
        assert list(all_leaf_orders(D)) == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            leaf_order(six_var_dual(), "fastest")

    @given(complexes())
    def test_every_enumerated_order_is_valid(self, D):
        for order in itertools.islice(all_leaf_orders(D), 30):
            assert is_leaf_order(D, order)

    @given(complexes())
    def test_exhaustive_matches_standalone_backtracking(self, D):
        assert leaf_order(D, "exhaustive") == backtracking_order(D._facet_masks)

    @given(complexes(max_vertices=6, max_facets=10))
    def test_a_leaf_order_needs_no_more_facets_than_vertices(self, D):
        # Each facet of a leaf order holds a vertex no earlier facet holds,
        # else it would lie inside its joint; the census's Betti-guard skip
        # rests on this bound.
        if leaf_order(D, "greedy") is not None:
            assert D.q <= len(frozenset().union(*D.facets))

    def test_greedy_takes_the_facet_that_meets_the_most_taken_vertices(self):
        # After {x1,x2}, facet {x1,x5} meets one taken vertex and {x3,x4}
        # none, so the search takes it second.
        D = cx(["x1", "x2", "x3", "x4", "x5"],
               [("x1", "x2"), ("x3", "x4"), ("x1", "x5")])
        assert leaf_order(D, "greedy") == (0, 2, 1)

    @given(complexes(max_vertices=8, max_facets=10))
    def test_greedy_agrees_with_exhaustive(self, D):
        order = leaf_order(D, "greedy")
        assert (order is None) == (leaf_order(D, "exhaustive") is None)
        assert order is None or is_leaf_order(D, order)


class TestQuasiForestRecognizers:
    def test_six_var_dual_is_quasi_forest(self):
        assert is_quasi_forest_by_induced(six_var_dual())

    def test_hollow_triangle_is_not(self):
        assert not is_quasi_forest_by_induced(hollow_triangle())

    def test_simplex_is(self):
        assert is_quasi_forest_by_induced(full_simplex(VariableSet(("a", "b", "c"))))

    @given(complexes(max_vertices=4))
    def test_recognizers_agree(self, D):
        assert (leaf_order(D, "exhaustive") is not None) == is_quasi_forest_by_induced(D)
        assert (leaf_order(D, "greedy") is not None) == is_quasi_forest_by_induced(D)


class TestSimplicialForest:
    def test_graph_tree(self):
        D = cx("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
        assert is_simplicial_forest(D)

    def test_hollow_triangle(self):
        assert not is_simplicial_forest(hollow_triangle())

    def test_single_facet(self):
        assert is_simplicial_forest(cx("ab", [("a", "b")]))

    def test_forest_implies_leaf_order(self):
        for D in (six_var_dual(), star_dual()):
            if is_simplicial_forest(D):
                assert leaf_order(D, "exhaustive") is not None

    def test_quasi_forest_strictly_weaker_on_six_vertices(self):
        # Three triangles pairwise glued at a vertex, patched by a fourth:
        # a leaf order exists but the outer three facets are a leafless
        # subcollection.  No such example exists on five or fewer vertices.
        D = cx("abcdef", [("a", "b", "d"), ("b", "c", "e"), ("a", "c", "f"),
                          ("a", "b", "c")])
        assert leaf_order(D, "exhaustive") is not None
        assert is_quasi_forest_by_induced(D)
        assert not is_simplicial_forest(D)
        assert not _has_leaf(D._facet_masks[:3])


class TestGraphForest:
    """Graphs are decided by acyclicity; the subcollection sweep is the oracle."""

    @given(graphs())
    def test_acyclicity_agrees_with_sweep(self, D):
        assert is_simplicial_forest(D) == _subcollections_have_leaves(D._facet_masks)

    def test_thirty_edge_path_needs_no_guard(self):
        names = [f"v{i}" for i in range(31)]
        assert is_simplicial_forest(cx(names, list(zip(names, names[1:]))))

    def test_twenty_five_edge_cycle(self):
        names = [f"v{i}" for i in range(25)]
        assert not is_simplicial_forest(cx(names, list(zip(names, names[1:] + names[:1]))))

    def test_dimension_two_keeps_the_subcollection_guard(self):
        # A fan of 21 triangles around one hub vertex.
        names = ["hub"] + [f"v{i}" for i in range(SUBSET_GUARD + 2)]
        fan = [("hub", a, b) for a, b in zip(names[1:], names[2:])]
        assert len(fan) == SUBSET_GUARD + 1
        with pytest.raises(ValueError, match="subcollection guard"):
            is_simplicial_forest(cx(names, fan))


class TestFaceGuard:
    def test_forty_vertex_path_has_seventy_nine_faces(self):
        names = [f"v{i}" for i in range(40)]
        assert len(faces(cx(names, list(zip(names, names[1:]))))) == 79

    def test_counts_facet_subsets(self):
        names = [f"v{i}" for i in range(SUBSET_GUARD + 1)]
        with pytest.raises(ValueError, match=r"2097152 facet subsets, limit 1048576"):
            faces(cx(names, [names]))

    @pytest.mark.parametrize(
        "entry",
        [
            faces,
            f_vector,
            reduced_homology_dims,
            lambda D: homogenize(_labeled_by_variables(D)),
            lambda D: is_minimal_support(homogenize(_labeled_by_variables(D))),
        ],
        ids=["faces", "f_vector", "reduced_homology_dims", "homogenize",
             "is_minimal_support"],
    )
    def test_every_sweep_entry_point_refuses(self, entry):
        names = [f"v{i}" for i in range(SUBSET_GUARD + 1)]
        with pytest.raises(ValueError, match="face enumeration guard exceeded"):
            entry(cx(names, [names]))


def _labeled_by_variables(D: SimplicialComplex) -> LabeledComplex:
    """D with vertex i labeled by the variable x_{i+1}."""
    return LabeledComplex(D, variables_ideal(D.n).generators)


class TestMaskOracles:
    """The mask faces and vertex union-find components against the
    name-based oracles kept in helpers.py, in component order."""

    def test_every_complex_up_to_five_vertices(self):
        count = 0
        for D in census_complexes(5):
            assert faces(D) == name_faces(D), D
            assert connected_components(D) == facet_pair_components(D), D
            count += 1
        assert count == 7020

    @given(complexes(max_vertices=6, ambient=True))
    def test_complexes_with_unused_vertices(self, D):
        assert faces(D) == name_faces(D)
        assert f_vector(D) == tuple(
            sum(1 for f in name_faces(D) if len(f) == k) for k in range(1, D.dim + 2)
        )
        assert connected_components(D) == facet_pair_components(D)


class TestConnectivity:
    def test_two_points_disconnected(self):
        D = cx("ab", [("a",), ("b",)])
        assert not is_connected(D)
        assert connected_components(D) == (frozenset("a"), frozenset("b"))

    def test_star_connected(self):
        assert is_connected(star_dual())

    def test_single_facet_connected(self):
        assert is_connected(cx("abc", [("a", "b", "c")]))

    def test_ambient_vertices_are_singletons(self):
        D = SimplicialComplex(VariableSet(("x1", "x2")), (frozenset({"x2"}),))
        assert connected_components(D) == (frozenset({"x1"}), frozenset({"x2"}))

    def test_ambient_vertices_do_not_disconnect(self):
        D = SimplicialComplex(
            VariableSet(tuple("abcd")), (frozenset("ab"), frozenset("bc"))
        )
        assert connected_components(D) == (frozenset("abc"), frozenset("d"))
        assert is_connected(D)
        assert not is_connected(
            SimplicialComplex(D.vertices, (frozenset("a"), frozenset("c")))
        )


class TestCanonicalForm:
    def test_presentation_order_ignored_by_equality(self):
        a = cx("abc", [("a", "b"), ("b", "c")])
        b = cx("abc", [("b", "c"), ("a", "b")])
        assert a == b
        assert hash(a) == hash(b)
        assert a.facets != b.facets

    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            cx("abc", [("a", "b"), ("a", "b", "c")])


class TestConstructors:
    """The name constructor and the mask constructor build one complex."""

    @given(complexes(ambient=True))
    def test_names_and_masks_give_the_same_complex(self, D):
        for E in (
            SimplicialComplex(D.vertices, D.facets),
            SimplicialComplex._of_masks(D.vertices, D._facet_masks),
        ):
            assert E._facet_masks == D._facet_masks
            assert E.facets == D.facets
            assert E == D
            assert hash(E) == hash(D)

    @pytest.mark.parametrize(
        "facets, message",
        [
            ([], "a complex needs at least one facet"),
            ([("a",), ()], "facets must be nonempty"),
            ([("b", "c"), ("c", "a", "b")],
             "facets are not an antichain: ['b', 'c'] within ['a', 'b', 'c']"),
        ],
        ids=["no-facets", "empty-facet", "nested-pair"],
    )
    def test_both_constructors_refuse_alike(self, facets, message):
        V = VariableSet(("a", "b", "c"))
        masks = [sum(1 << V.index(v) for v in f) for f in facets]
        with pytest.raises(ValueError) as by_names:
            SimplicialComplex(V, facets)
        with pytest.raises(ValueError) as by_masks:
            SimplicialComplex._of_masks(V, masks)
        assert str(by_names.value) == str(by_masks.value) == message

    def test_name_outside_the_universe(self):
        with pytest.raises(ValueError, match="facet vertex 'd' outside the universe"):
            SimplicialComplex(VariableSet(("a", "b")), [("a",), ("b", "d")])


class TestJson:
    def test_round_trip_preserves_facet_order(self):
        D = six_var_dual()
        back = complex_from_json(complex_to_json(D))
        assert back == D
        assert back.facets == D.facets

    def test_empty_complex_round_trip(self):
        E = EmptyComplex(VariableSet(("a", "b")))
        assert complex_from_json(complex_to_json(E)) == E

    @given(complexes())
    def test_round_trip(self, D):
        assert complex_from_json(complex_to_json(D)) == D
