import itertools
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from treeres.complexes import (
    SimplicialComplex,
    connected_components,
    faces,
    full_simplex,
    is_full_simplex,
    is_leaf_order,
    leaf_order,
    _joint_positions,
    _step_joints,
)
from treeres.duality import dual_facets, dual_generators
from treeres.monomial import (
    Monomial,
    VariableSet,
    exponent_masks,
    lcm_closure,
    mask_exponents,
    parse_ideal,
)
from treeres.resolution import (
    Frame,
    FreeComplex,
    LabeledComplex,
    _divisor_induced_connected,
    _tree_labeled,
    _tree_on,
    build_tree,
    enumerate_trees,
    floystad_tree,
    frame,
    frame_to_graph,
    free_complex_to_json,
    homogenize,
    is_minimal_support,
    labeled_complex_to_json,
    supports_resolution,
    taylor,
    tree_to_dot,
)

from helpers import (
    census_complexes,
    column_fingerprint,
    cx,
    face_label,
    facet_pair_components,
    frame_from_matrices,
    frame_matrices,
    graph_forests,
    hollow_triangle,
    induced_divisor_connected,
    mono,
    name_faces,
    pair_path_support,
    pairwise_lcm_closure,
    printed_matrix_fingerprint,
    read_free_complex,
    read_labeled_complex,
    six_var_ideal,
    star_ideal,
    three_variable_ideals,
    tuple_homogenize,
    variables_ideal,
)
from strategies import (
    complexes,
    ideals,
    labeled_forests,
    monomials,
    nonunit_monomials,
    squarefree_ideals,
)


PRINTED_SIX_VAR_MATRIX = [
    ("x1*x2*x4*x6", [("x1*x2*x4", "x6", 1), ("x1*x4*x6", "x2", -1)]),
    ("x1*x3*x4*x6", [("x1*x3*x6", "x4", 1), ("x1*x4*x6", "x3", -1)]),
    ("x1*x4*x5*x6", [("x1*x4*x6", "x5", 1), ("x4*x5*x6", "x1", -1)]),
]


class TestHomogenize:
    def test_six_var_tree_matches_printed_matrix(self):
        I = six_var_ideal()
        F = homogenize(build_tree(dual_facets(I)))
        assert F.ranks == (1, 4, 3)
        assert tuple(F.modules[1]) == I.generators
        assert column_fingerprint(F) == printed_matrix_fingerprint(
            I.vars, PRINTED_SIX_VAR_MATRIX
        )

    def test_single_labeled_vertex(self):
        V = VariableSet(("x", "y"))
        L = LabeledComplex(cx(["v1"], [("v1",)]), (mono(V, "x*y"),))
        F = homogenize(L)
        assert F.ranks == (1, 1)
        assert F.differentials == (((0, 0, 1),),)
        assert free_complex_to_json(F)["differentials"][0][0]["monomial"] == [1, 1]

    @given(st.lists(nonunit_monomials(), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_boundary_squares_to_zero_on_labeled_simplex(self, labels):
        D = full_simplex(VariableSet(("v1", "v2", "v3")))
        F = homogenize(LabeledComplex(D, tuple(labels)))
        assert F.boundary_squares_to_zero()

    def test_entry_monomials_are_quotients(self):
        F = homogenize(build_tree(dual_facets(six_var_ideal())))
        payload = free_complex_to_json(F)
        for i in range(1, F.length + 1):
            for e, stored in zip(F.differentials[i - 1], payload["differentials"][i - 1]):
                row, col, _ = e
                top = F.modules[i][col]
                bottom = F.modules[i - 1][row]
                assert min(stored["monomial"]) >= 0
                assert tuple(
                    a + b for a, b in zip(bottom.exponents, stored["monomial"])
                ) == top.exponents


class TestTaylor:
    def test_koszul(self):
        F = taylor(parse_ideal("vars x1 x2\nx1\nx2\n"))
        assert F.ranks == (1, 2, 1)
        assert [str(m) for m in F.modules[2]] == ["x1*x2"]
        signs = sorted(sign for _, _, sign in F.differentials[1])
        assert signs == [-1, 1]

    @given(squarefree_ideals(VariableSet(tuple(f"x{i}" for i in range(1, 6))),
                             max_gens=5))
    @settings(max_examples=30)
    def test_rank_vector_is_binomial(self, I):
        F = taylor(I)
        assert F.ranks == tuple(
            math.comb(I.q, i) for i in range(I.q + 1)
        )

    @given(ideals(max_gens=6))
    def test_frame_depends_on_q_only(self, I):
        # Every row label lcm(S - {v}) divides its column label lcm(S), so
        # taylor(I) has the frame of the (q-1)-simplex whatever the labels.
        F = taylor(I)
        simplex = frame(taylor(variables_ideal(I.q)))
        assert frame(F).dims == simplex.dims
        assert frame(F).differentials == simplex.differentials
        assert F.ranks == tuple([math.comb(I.q, i) for i in range(I.q + 1)])

    def test_frame_is_simplex_chain_complex(self):
        # Independent reconstruction of the augmented simplex boundary.
        I = parse_ideal("vars x1 x2 x3\nx1\nx2\nx3\n")
        fr = frame(taylor(I))
        by_dim = [
            sorted(itertools.combinations(range(3), k)) for k in range(1, 4)
        ]
        expected = []
        mat0 = [[1] * 3]
        expected.append(tuple(tuple(r) for r in mat0))
        for d in range(1, 3):
            rows, cols = by_dim[d - 1], by_dim[d]
            mat = [[0] * len(cols) for _ in rows]
            for c, face in enumerate(cols):
                for pos in range(len(face)):
                    sub = face[:pos] + face[pos + 1:]
                    mat[rows.index(sub)][c] = -1 if pos % 2 else 1
            expected.append(tuple(tuple(r) for r in mat))
        assert frame_matrices(fr) == tuple(expected)


def decoded_lcm_closure(monomials) -> frozenset[Monomial]:
    """The package's ``lcm_closure`` of the monomials' masks, decoded."""
    masks, levels = exponent_masks(monomials)
    vars = monomials[0].vars
    return frozenset(
        Monomial(vars, mask_exponents(m, levels)) for m in lcm_closure(masks)
    )


class TestLabeledComplex:
    def test_rejects_mixed_label_sets(self):
        # lcm_closure takes masks and cannot see variable sets; the
        # labels are checked here instead.
        V, W = VariableSet(("x1", "x2")), VariableSet(("y1", "y2"))
        edge = cx(["v1", "v2"], [("v1", "v2")])
        with pytest.raises(ValueError, match="mixed variable sets"):
            LabeledComplex(edge, (mono(V, "x1"), mono(W, "y1")))

    def test_labels_of_an_ideal_keep_the_masks_they_encode_to(self):
        # Ideals built from monomials (non-squarefree ones among them) and
        # from masks (the duals) hold what exponent_masks gives.
        ideals = three_variable_ideals() + [
            dual_generators(D) for D in census_complexes(4) if not is_full_simplex(D)
        ]
        for I in ideals:
            edges = [(0, 1)] if I.q > 1 else []
            L = _tree_labeled(I, edges)
            assert L._label_masks == tuple(exponent_masks(L.labels)[0]), I


class TestLcmLattice:
    def test_star_ideal(self):
        I = star_ideal()
        lattice = decoded_lcm_closure(I.generators)
        top = mono(I.vars, "x1*x2*x3*x4")
        assert lattice == frozenset(I.generators) | {top}
        assert lattice == pairwise_lcm_closure(I.generators)

    def test_principal(self):
        I = parse_ideal("x1*x2\n")
        lattice = decoded_lcm_closure(I.generators)
        assert lattice == frozenset(I.generators) == pairwise_lcm_closure(I.generators)

    def test_six_var_contains_edge_labels(self):
        I = six_var_ideal()
        lattice = decoded_lcm_closure(I.generators)
        assert lattice == pairwise_lcm_closure(I.generators)
        for text in ("x1*x2*x4*x6", "x1*x3*x4*x6", "x1*x4*x5*x6"):
            assert mono(I.vars, text) in lattice


class TestSupportsResolution:
    def test_six_var_star_tree(self):
        assert supports_resolution(build_tree(dual_facets(six_var_ideal())))

    def test_all_sixteen_star_trees(self):
        trees = list(enumerate_trees(dual_facets(star_ideal())))
        assert len(trees) == 16
        assert all(supports_resolution(t) for t in trees)

    def test_mislabeled_path_fails(self):
        V = VariableSet(("x1", "x2", "x3"))
        path = cx(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
        L = LabeledComplex(path, (mono(V, "x1"), mono(V, "x3"), mono(V, "x2")))
        assert not supports_resolution(L)

    def test_requires_simplicial_forest(self):
        V = VariableSet(("x1", "x2", "x3"))
        L = LabeledComplex(
            hollow_triangle(), (mono(V, "x1"), mono(V, "x2"), mono(V, "x3"))
        )
        with pytest.raises(ValueError, match="simplicial forest"):
            supports_resolution(L)


class TestDivisorOracle:
    """The mask divisor-induced check against the ``induced``-based oracle
    kept in helpers.py, with the tree faces and components against theirs."""

    def test_every_tree_of_the_census_quasi_forests(self):
        trees = failing = 0
        for D in census_complexes(5):
            if is_full_simplex(D) or leaf_order(D) is None:
                continue
            for T in enumerate_trees(D):
                E = T.complex
                assert faces(E) == name_faces(E)
                assert connected_components(E) == facet_pair_components(E)
                # Reversed labels make many trees that fail the criterion.
                for L in (T, LabeledComplex(E, T.labels[::-1])):
                    verdict = _divisor_induced_connected(L)
                    assert verdict == induced_divisor_connected(L), L
                    failing += not verdict
                trees += 1
        assert (trees, failing) == (2207, 877)

    @given(st.data())
    def test_complexes_with_unused_vertices(self, data):
        D = data.draw(complexes(max_vertices=5, ambient=True))
        labels = data.draw(st.lists(monomials(max_exp=2), min_size=D.n, max_size=D.n))
        L = LabeledComplex(D, labels)
        assert _divisor_induced_connected(L) == induced_divisor_connected(L)


class TestTreePathSupport:
    """Graph forests are decided by counting: the forest must be one tree,
    and for each label bit b the vertices whose labels lack b must induce
    a subtree, since an inner vertex of the a-b path fails to divide
    lcm(l_a, l_b) iff its label holds a bit that both end labels lack.  A
    vertex set C of a forest induces |C| - e(C) >= 1 components when it is
    nonempty, so the subtree test is one sum of popcounts over vertices
    less one over edges, against the number of bits some label lacks.  The
    oracles are the lattice sweep and the pairwise path walk of
    ``helpers.pair_path_support``."""

    @given(labeled_forests())
    def test_agrees_with_lattice_sweep(self, L):
        assert supports_resolution(L) == _divisor_induced_connected(L)

    @given(labeled_forests())
    def test_agrees_with_pair_path_walk(self, L):
        assert supports_resolution(L) == pair_path_support(L)

    def test_every_forest_on_the_census_duals(self):
        # Each census dual with q <= 4 generators labels every forest on
        # q vertices, disconnected ones included, in generator order and
        # reversed.
        forests = {q: graph_forests(q) for q in range(1, 5)}
        checked = failing = 0
        for D in census_complexes(5):
            if D.q > 4 or is_full_simplex(D):
                continue
            labels = dual_generators(D).generators
            for E in forests[D.q]:
                for L in (LabeledComplex(E, labels), LabeledComplex(E, labels[::-1])):
                    verdict = supports_resolution(L)
                    assert verdict == pair_path_support(L), L
                    checked += 1
                    failing += not verdict
        assert (checked, failing) == (158280, 154116)

    def test_every_spanning_tree_of_the_three_variable_ideals(self):
        trees = {
            q: [E for E in graph_forests(q)
                if sum([f.bit_count() == 2 for f in E._facet_masks]) == q - 1]
            for q in range(1, 5)
        }
        checked = failing = 0
        for I in three_variable_ideals():
            for E in trees.get(I.q, []):
                L = LabeledComplex(E, I.generators)
                verdict = supports_resolution(L)
                assert verdict == pair_path_support(L), L
                checked += 1
                failing += not verdict
        assert (checked, failing) == (6198, 5518)

    @pytest.mark.parametrize("swap", [False, True])
    def test_two_thousand_vertex_path(self, swap):
        # v_i carries x^(2000 - i) * y^(i + 1): the labels between two
        # vertices divide their lcm exactly, until two labels trade places.
        V = VariableSet(("x", "y"))
        exps = [(2000 - i, i + 1) for i in range(2000)]
        if swap:
            exps[700], exps[1300] = exps[1300], exps[700]
        names = [f"v{i + 1}" for i in range(2000)]
        L = LabeledComplex(
            cx(names, list(zip(names, names[1:]))),
            tuple(Monomial(V, e) for e in exps),
        )
        assert supports_resolution(L) is not swap

    def test_twenty_five_vertex_path_builds_no_lattice(self, monkeypatch):
        def no_lattice(masks):
            raise AssertionError("lcm lattice built on a graph")

        monkeypatch.setattr("treeres.resolution.lcm_closure", no_lattice)
        V = VariableSet(tuple(f"x{i + 1}" for i in range(25)))
        names = [f"v{i + 1}" for i in range(25)]
        path = cx(names, list(zip(names, names[1:])))
        labels = tuple(
            Monomial(V, tuple(int(j == i) for j in range(25))) for i in range(25)
        )
        # x2 lies on the path from v1 to v3 but does not divide x1*x3.
        assert not supports_resolution(LabeledComplex(path, labels))

    @pytest.mark.parametrize("swap", [False, True])
    def test_thirty_vertex_path_with_exponents_near_1e8(self, swap):
        # v_i carries x^(10^8 - i) * y^(i + 1): the lcm of two labels is
        # divided exactly by the labels between them, so the path supports
        # the resolution until two inner labels trade places.
        V = VariableSet(("x", "y"))
        exps = [(10**8 - i, i + 1) for i in range(30)]
        if swap:
            exps[10], exps[20] = exps[20], exps[10]
        names = [f"v{i + 1}" for i in range(30)]
        L = LabeledComplex(
            cx(names, list(zip(names, names[1:]))),
            tuple(Monomial(V, e) for e in exps),
        )
        verdict = supports_resolution(L)
        assert verdict == _divisor_induced_connected(L)
        assert verdict is not swap


class TestMinimalSupport:
    def test_six_var_star_tree(self):
        F = homogenize(build_tree(dual_facets(six_var_ideal())))
        assert is_minimal_support(F)

    def test_edge_with_nested_labels(self):
        V = VariableSet(("x1", "x2"))
        L = LabeledComplex(
            cx(["v1", "v2"], [("v1", "v2")]),
            (mono(V, "x1"), mono(V, "x1*x2")),
        )
        assert not is_minimal_support(homogenize(L))

    def test_every_built_tree_on_star(self):
        assert all(
            is_minimal_support(homogenize(t))
            for t in enumerate_trees(dual_facets(star_ideal()))
        )


def _labeled_simplex(I):
    """The generators of I on the full simplex: the complex taylor homogenizes."""
    verts = VariableSet(tuple(f"v{i + 1}" for i in range(I.q)))
    return LabeledComplex(full_simplex(verts), I.generators)


def _minimal_support_by_face_labels(L):
    """Direct definition: no face label equals that of a codimension-1
    subface, and no vertex is labeled 1."""
    index = L.complex.vertices.index
    names = L.complex.vertices.names
    for face in faces(L.complex):
        key = tuple(sorted(index(v) for v in face))
        big = face_label(L, [names[i] for i in key])
        if len(key) == 1:
            if big.is_one():
                return False
            continue
        for pos in range(len(key)):
            sub = key[:pos] + key[pos + 1:]
            if face_label(L, [names[i] for i in sub]) == big:
                return False
    return True


class TestFaceLabels:
    """homogenize labels each face by one lcm of a smaller face's label;
    helpers.face_label is the lcm over all its vertices."""

    @given(labeled_forests() | ideals().map(_labeled_simplex))
    def test_module_multidegrees_are_face_labels(self, L):
        names = L.complex.vertices.names
        index = L.complex.vertices.index
        # The empty face labels the degree-0 module with 1.
        keys = [()] + sorted(tuple(sorted(map(index, f))) for f in faces(L.complex))
        assert homogenize(L).modules == tuple(
            tuple(face_label(L, [names[i] for i in key]) for key in keys if len(key) == size)
            for size in range(max(map(len, keys)) + 1)
        )

    @given(ideals())
    def test_taylor_modules_are_face_labels(self, I):
        assert taylor(I) == homogenize(_labeled_simplex(I))

    @given(labeled_forests() | ideals().map(_labeled_simplex))
    def test_minimal_support_agrees_with_direct_definition(self, L):
        assert is_minimal_support(homogenize(L)) == _minimal_support_by_face_labels(L)


class TestMaskFacePath:
    """The mask face path builds the modules and differentials of the
    tuple path that sorted, sliced and compared index tuples."""

    @given(ideals())
    def test_taylor_equals_tuple_path(self, I):
        F = taylor(I)
        assert (F.modules, F.differentials) == tuple_homogenize(_labeled_simplex(I))

    @given(labeled_forests())
    def test_homogenize_equals_tuple_path(self, L):
        F = homogenize(L)
        assert (F.modules, F.differentials) == tuple_homogenize(L)


class TestBuildTree:
    def test_six_var_star_shape(self):
        I = six_var_ideal()
        T = build_tree(dual_facets(I))
        edges = {tuple(sorted(f)) for f in T.complex.facets}
        assert edges == {("v1", "v2"), ("v2", "v3"), ("v2", "v4")}
        assert T.labels == I.generators
        assert str(T.label_of("v2")) == "x1*x4*x6"

    def test_single_facet_complex(self):
        D = SimplicialComplex(VariableSet(("x1", "x2")), (frozenset({"x2"}),))
        T = build_tree(D)
        assert T.complex.facets == (frozenset({"v1"}),)
        assert [str(m) for m in T.labels] == ["x1"]

    def test_enumerate_all_star_trees(self):
        trees = list(enumerate_trees(dual_facets(star_ideal())))
        assert len(trees) == 16
        edge_sets = {
            frozenset(tuple(sorted(f)) for f in t.complex.facets) for t in trees
        }
        assert len(edge_sets) == 16

    def test_invalid_order_rejected(self):
        # {x2,x3,x5} is not a leaf of <{x2,x4,x5},{x3,x5,x6},{x2,x3,x5}>:
        # its intersections with the other two jointly cover all of it.
        D = dual_facets(six_var_ideal())
        assert not is_leaf_order(D, (0, 2, 1, 3))

    def test_edges_join_each_step_to_its_smallest_index_joint(self):
        # The tree follows the greedy order, each vertex joined to the
        # smallest-index joint of its facet in the prefix before it.
        for D in census_complexes(5):
            order = leaf_order(D, "greedy")
            if is_full_simplex(D) or order is None:
                continue
            tree = build_tree(D).complex
            names = tree.vertices.names
            steps = _step_joints(D._facet_masks, order)
            assert list(tree.facets) == [
                frozenset({names[min(joints)], names[order[i]]})
                for i, joints in enumerate(steps, start=1)
            ], D

    def test_not_quasi_forest_rejected(self):
        with pytest.raises(ValueError, match="quasi-forest"):
            build_tree(hollow_triangle())

    def test_tree_on_a_shuffled_path_finds_each_joint_once(self, monkeypatch):
        # The search certifies its order with one joint lookup per step.
        q = 200
        facets = [(f"x{i}", f"x{i + 1}") for i in range(q)]
        random.Random(1).shuffle(facets)
        D = cx([f"x{i}" for i in range(q + 1)], facets)
        calls = []

        def counting(masks, i):
            calls.append(i)
            return _joint_positions(masks, i)

        monkeypatch.setattr("treeres.complexes._joint_positions", counting)
        assert _tree_on(dual_generators(D)) is not None
        assert len(calls) == q - 1

    def test_disconnected_dual_still_yields_tree(self):
        # Two generators with complementary supports have a disconnected
        # dual; the construction still produces the (Koszul) edge.
        I = parse_ideal("vars x1 x2\nx1\nx2\n")
        T = build_tree(dual_facets(I))
        assert {tuple(sorted(f)) for f in T.complex.facets} == {("v1", "v2")}
        assert supports_resolution(T) and is_minimal_support(homogenize(T))


X5 = VariableSet(tuple(f"x{i}" for i in range(1, 6)))


class TestResolveFastPaths:
    """The shortcuts ``resolve --format json`` takes, against the general
    routes they replace; ``TestFrames`` checks its minimality shortcut."""

    @given(labeled_forests())
    def test_serialized_entry_monomials_are_quotients(self, L):
        # The reader checks each stored monomial against column / row.
        F = homogenize(L)
        assert read_free_complex(free_complex_to_json(F)) == F

    @given(squarefree_ideals(X5, max_gens=6))
    def test_tree_on_the_ideal_is_build_tree_on_the_dual(self, I):
        # A principal ideal whose generator uses every variable has no
        # dual complex, but still gets its single-vertex tree.
        found = _tree_on(I)
        if I.q == 1:
            assert found[0] == (0,)
            assert found[1].complex.facets == (frozenset({"v1"}),)
            assert found[1].labels == I.generators
            return
        try:
            want = build_tree(dual_facets(I))
        except ValueError:
            assert found is None
            return
        got = found[1]
        assert got.complex.vertices == want.complex.vertices
        assert got.complex.facets == want.complex.facets
        assert got.labels == want.labels


class TestFloystad:
    def test_six_var_ideal_edge_degrees(self):
        I = six_var_ideal()
        T = floystad_tree(I)
        degrees = sorted(
            face_label(T, f).degree() for f in T.complex.facets if len(f) == 2
        )
        assert degrees == [4, 4, 4]
        assert supports_resolution(T)
        assert is_minimal_support(homogenize(T))

    def test_principal(self):
        T = floystad_tree(parse_ideal("x1*x2\n"))
        assert T.complex.facets == (frozenset({"v1"}),)

    def test_star_ideal(self):
        T = floystad_tree(star_ideal())
        assert len(T.complex.facets) == 3  # a spanning tree of K4
        assert supports_resolution(T)

    def test_rejects_high_projective_dimension(self):
        I = parse_ideal("vars x1 x2 x3 x4\nx1*x2, x2*x3, x3*x4, x4*x1\n")
        with pytest.raises(ValueError):
            floystad_tree(I)


class TestFrames:
    def test_six_var_frame_columns(self):
        fr = frame(homogenize(build_tree(dual_facets(six_var_ideal()))))
        assert fr.dims == (1, 4, 3)
        for c in range(3):
            col = [frame_matrices(fr)[1][r][c] for r in range(4)]
            assert sorted(col) == [-1, 0, 0, 1]

    def test_koszul_frame(self):
        fr = frame(taylor(parse_ideal("vars x1 x2\nx1\nx2\n")))
        matrices = frame_matrices(fr)
        assert matrices[0] == ((1, 1),)
        assert sorted(matrices[1]) == [(-1,), (1,)]

    def test_frame_to_graph_star(self):
        fr = frame(homogenize(build_tree(dual_facets(six_var_ideal()))))
        edges = frame_to_graph(fr)
        assert edges is not None and len(edges) == 3
        degree = [0, 0, 0, 0]
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert sorted(degree) == [1, 1, 1, 3]
        assert degree[1] == 3  # center carries x1*x4*x6

    def test_frame_to_graph_koszul(self):
        edges = frame_to_graph(frame(taylor(parse_ideal("vars x1 x2\nx1\nx2\n"))))
        assert edges == ((0, 1),) or edges == ((1, 0),)

    def test_frame_to_graph_rejects_bad_shape(self):
        fr = frame_from_matrices((1, 2, 1), (((1, 1),), ((1,), (1,))))
        assert frame_to_graph(fr) is None
        long_frame = frame(taylor(parse_ideal("vars x1 x2 x3\nx1\nx2\nx3\n")))
        assert frame_to_graph(long_frame) is None

    def test_frame_keeps_the_free_complex_entries(self):
        F = taylor(parse_ideal("vars x1 x2 x3\nx1\nx2\nx3\n"))
        fr = frame(F)
        assert fr.dims == F.ranks
        assert fr.differentials is F.differentials

    @pytest.mark.parametrize(
        "dims, differentials",
        [
            ((1, 2), (((0, 2, 1),),)),
            ((1, 2), (((0, 0, 1), (-1, 1, 1)),)),
            ((1, 2), (((0, 0, 1), (0, 0, -1)),)),
            ((1, 2), (((0, 0, 1), (0, 1, 0)),)),
            ((1, 2, 1), (((0, 0, 1), (0, 1, 1)),)),
            ((1, 2), ()),
        ],
        ids=[
            "out-of-shape", "negative-row", "two-at-one-position",
            "zero-value", "missing-differential", "no-differential",
        ],
    )
    def test_sparse_frame_rejects_malformed_entries(self, dims, differentials):
        with pytest.raises(ValueError):
            Frame(dims, differentials)

    def test_frame_to_graph_rejects_a_column_holding_two(self):
        fr = Frame((1, 2, 1), (((0, 0, 1), (0, 1, 1)), ((0, 0, 2), (1, 0, -1))))
        assert frame_to_graph(fr) is None


class TestSerialization:
    def test_free_complex_round_trip(self):
        F = homogenize(build_tree(dual_facets(six_var_ideal())))
        assert read_free_complex(free_complex_to_json(F)) == F

    def test_duplicate_entry_rejected(self):
        # A second copy of one d_2 entry: the dense frame would keep only
        # one of the two, so it must not get past construction.
        F = taylor(parse_ideal("vars x1 x2\nx1\nx2\n"))
        d1, d2 = F.differentials
        with pytest.raises(ValueError, match="two entries"):
            FreeComplex(F.vars, F.modules, (d1, d2 + d2[:1]))

    def test_row_not_dividing_column_rejected(self):
        V = VariableSet(("x1", "x2"))
        one, x1, x2 = Monomial.one(V), mono(V, "x1"), mono(V, "x2")
        entry = (0, 0, 1)
        FreeComplex(V, ((one,), (x1,)), ((entry,),))
        with pytest.raises(ValueError, match="does not divide"):
            FreeComplex(V, ((one,), (x1,), (x2,)), ((entry,), (entry,)))

    def test_labeled_complex_round_trip(self):
        T = build_tree(dual_facets(six_var_ideal()))
        assert read_labeled_complex(labeled_complex_to_json(T)) == T

    def test_dot_output(self):
        T = build_tree(dual_facets(six_var_ideal()))
        dot = tree_to_dot(T)
        assert dot.startswith("graph tree {")
        assert 'v2 [label="x1*x4*x6"]' in dot
        assert "--" in dot and "x1*x2*x4*x6" in dot
