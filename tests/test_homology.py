from fractions import Fraction
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from treeres.complexes import (
    EmptyComplex,
    VoidComplex,
    _maximal,
    _submasks,
    _transpose,
    f_vector,
    is_full_simplex,
)
from treeres.duality import dual_facets, dual_generators
from treeres.homology import (
    _core,
    betti,
    betti_to_json,
    _mask_homology,
    is_exact_frame,
    rank_exact,
    reduced_homology_dims,
)
from treeres.monomial import Monomial, MonomialIdeal, VariableSet, parse_ideal
from treeres.resolution import (
    LabeledComplex,
    build_tree,
    frame,
    homogenize,
    supports_resolution,
    taylor,
)

from helpers import (
    census_complexes,
    cx,
    flipped_taylor,
    frame_from_matrices,
    hollow_triangle,
    monomial_betti_entries,
    mono,
    name_faces,
    read_betti,
    six_var_ideal,
    star_ideal,
    three_variable_ideals,
)
from strategies import _maximal as brute_maximal
from strategies import complexes, ideals, labeled_forests, squarefree_ideals


def naive_rank(rows) -> int:
    """Reference rank: plain Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in rows]
    if not M or not M[0]:
        return 0
    rank = 0
    cols = len(M[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(M)) if M[r][c] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][c] != 0:
                factor = M[r][c]
                M[r] = [x - factor * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)

# Pivots that are not units of the integers, rational entries, and
# matrices with no rows or no columns.
RATIONAL_ENTRIES = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))

rational_matrices = st.integers(0, 5).flatmap(
    lambda n: st.integers(0, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from(RATIONAL_ENTRIES), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestRank:
    def test_identity(self):
        assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_zero(self):
        assert rank_exact([[0, 0], [0, 0]]) == 0

    def test_star_frame_degree_two(self):
        # One +1 and one -1 per column, star pattern on four rows.
        mat = [
            [-1, 0, 0],
            [1, -1, -1],
            [0, 1, 0],
            [0, 0, 1],
        ]
        assert rank_exact(mat) == 3
        assert naive_rank(mat) == 3

    def test_fractions(self):
        mat = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        assert rank_exact(mat) == naive_rank(mat)

    @given(int_matrices)
    def test_matches_naive_elimination(self, rows):
        assert rank_exact(rows) == naive_rank(rows)

    @given(int_matrices)
    def test_transpose_invariant(self, rows):
        assert rank_exact(rows) == rank_exact([list(col) for col in zip(*rows)])

    @given(rational_matrices)
    def test_matches_naive_elimination_over_rationals(self, rows):
        assert rank_exact(rows) == naive_rank(rows)

    def test_non_unit_pivots(self):
        assert rank_exact([[2, 4], [-3, -6]]) == 1
        assert rank_exact([[2, 1], [-3, 1]]) == 2
        assert rank_exact([[0, 2, -3], [0, 4, -6], [Fraction(1, 2), 0, 0]]) == 2

    def test_no_rows_or_no_columns(self):
        assert rank_exact([]) == 0
        assert rank_exact([[], [], []]) == 0


def dense_homology_dims(face_sets) -> tuple[int, ...]:
    """Reduced homology from dense augmented boundary matrices, built per
    dimension with no shared helper; indexed from degree -1."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for f in {frozenset(f) for f in face_sets}:
        by_size.setdefault(len(f), []).append(tuple(sorted(f)))
    if not by_size:
        return (1,)
    buckets = [sorted(by_size[k]) for k in range(1, max(by_size) + 1)]
    ranks = [1]  # the augmentation: a row of ones
    for d in range(1, len(buckets)):
        rows, cols = buckets[d - 1], buckets[d]
        mat = [[0] * len(cols) for _ in rows]
        for c, face in enumerate(cols):
            for pos in range(len(face)):
                sub = face[:pos] + face[pos + 1:]
                mat[rows.index(sub)][c] = -1 if pos % 2 else 1
        ranks.append(rank_exact(mat))
    ranks.append(0)
    return (1 - ranks[0],) + tuple(
        len(bucket) - ranks[d] - ranks[d + 1] for d, bucket in enumerate(buckets)
    )


class TestReducedHomology:
    @given(complexes())
    def test_matches_dense_boundary_ranks(self, D):
        index = D.vertices.index
        face_sets = [frozenset(map(index, f)) for f in name_faces(D)]
        assert reduced_homology_dims(D) == dense_homology_dims(face_sets)

    def test_two_isolated_vertices(self):
        dims = reduced_homology_dims(cx("ab", [("a",), ("b",)]))
        assert dims == (0, 1)  # H~_{-1} = 0, H~_0 = 1

    def test_hollow_triangle_is_a_circle(self):
        assert reduced_homology_dims(hollow_triangle()) == (0, 0, 1)

    def test_trees_are_acyclic(self):
        for D in (
            cx("abcd", [("a", "b"), ("b", "c"), ("b", "d")]),
            cx("ab", [("a", "b")]),
            build_tree(dual_facets(six_var_ideal())).complex,
        ):
            assert not any(reduced_homology_dims(D))

    def test_empty_and_void_conventions(self):
        V = VariableSet(("a",))
        assert reduced_homology_dims(EmptyComplex(V)) == (1,)
        assert reduced_homology_dims(VoidComplex(V)) == ()
        assert _mask_homology([]) == (1,)

    def test_real_projective_plane_is_rationally_acyclic(self):
        # The six-vertex RP^2: H_1 = Z/2 vanishes over Q, so every reduced
        # dimension is 0; over GF(2) H_1 and H_2 would both be 1.
        facets = ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")
        D = cx("abcdef", [tuple("abcdef"[int(v) - 1] for v in f) for f in facets])
        assert reduced_homology_dims(D) == (0, 0, 0, 0)

    def test_two_spheres_worth_of_homology(self):
        # Boundary of the tetrahedron: a 2-sphere.
        D = cx("abcd", [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"),
                        ("b", "c", "d")])
        assert reduced_homology_dims(D) == (0, 0, 0, 1)


def facet_homology(rows) -> tuple[int, ...]:
    """Reduced homology of the complex with these facet masks, trailing
    zeros dropped: the degrees past a core's dimension read 0."""
    dims = list(_mask_homology(_submasks(rows)))
    while dims and not dims[-1]:
        dims.pop()
    return tuple(dims)


class TestCore:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=8))
    def test_core_and_its_nerve_keep_the_homology(self, rows):
        core = _core(rows)
        assert facet_homology(core) == facet_homology(rows)
        assert facet_homology(_transpose(core)) == facet_homology(rows)

    def test_empty_face_only(self):
        assert _core([0]) == [0]
        assert _transpose([0]) == []
        assert _mask_homology(_submasks([0])) == (1,)

    def test_cone_collapses_to_a_point(self):
        # Two edges on apex 0 and a triangle on apex 0: every vertex is
        # dominated by the apex.
        rows = [0b0011, 0b0101, 0b1001, 0b1011]
        core = _core(rows)
        assert len(core) == 1 and core[0].bit_count() == 1
        assert facet_homology(rows) == ()

    def test_hollow_triangle_is_its_own_core(self):
        rows = [0b011, 0b110, 0b101]
        core = _core(rows)
        assert sorted(core) == sorted(rows)
        assert sorted(_transpose(core)) == sorted(rows)
        assert _mask_homology(_submasks(core)) == (0, 0, 1)

    def test_two_disjoint_points(self):
        assert sorted(_core([0b01, 0b10])) == [0b01, 0b10]
        assert _mask_homology(_submasks(_core([0b01, 0b10]))) == (0, 1)

    def test_transpose(self):
        assert _transpose([0b101, 0b110]) == [0b01, 0b10, 0b11]
        assert _transpose(_transpose([0b101, 0b110])) == [0b101, 0b110]

    @given(st.lists(st.integers(0, 63), max_size=10))
    def test_maximal_matches_brute_force(self, masks):
        kept = _maximal(masks)
        assert sorted(kept) == brute_maximal(masks)
        assert len(kept) == len(set(kept))

    def test_maximal_with_zero_and_duplicates(self):
        assert _maximal([0, 0]) == [0]
        assert _maximal([0, 0b11, 0b11, 0b01, 0]) == [0b11]
        assert sorted(_maximal([0b110, 0b011, 0b010, 0b110])) == [0b011, 0b110]


class TestExactFrame:
    def test_six_var_tree_frame(self):
        F = homogenize(build_tree(dual_facets(six_var_ideal())))
        assert is_exact_frame(frame(F))

    def test_koszul_frame(self):
        F = taylor(parse_ideal("vars x1 x2\nx1\nx2\n"))
        assert is_exact_frame(frame(F))

    def test_taylor_frame_on_ten_variables(self):
        V = VariableSet(tuple(f"x{i}" for i in range(10)))
        I = MonomialIdeal(V, tuple(
            Monomial(V, tuple(int(j == i) for j in range(10))) for i in range(10)
        ))
        assert is_exact_frame(frame(taylor(I)))

    def test_composition_must_vanish(self):
        bad = frame_from_matrices((1, 2, 1), (((1, 1),), ((1,), (0,))))
        with pytest.raises(ValueError):
            is_exact_frame(bad)

    def test_flipped_sign_fails_both_composition_checks(self):
        # Taylor complex of two generators with one d_2 sign flipped: every
        # entry is still the multidegree quotient, but d_1 d_2 != 0.
        F = flipped_taylor()
        assert not F.boundary_squares_to_zero()
        with pytest.raises(ValueError):
            is_exact_frame(frame(F))

    def test_detects_failure_of_exactness(self):
        # d2 = 0 on a rank-2 kernel: homology survives in degree 1.
        fr = frame_from_matrices((1, 2, 1), (((1, -1),), ((0,), (0,))))
        assert not is_exact_frame(fr)

    @given(labeled_forests())
    def test_forest_frame_is_exact_iff_forest_is_acyclic(self, L):
        assert is_exact_frame(frame(homogenize(L))) == (
            not any(reduced_homology_dims(L.complex)[1:])
        )

    def test_frame_exactness_is_blind_to_labels(self):
        # A mislabeled path: the frame is exact (a path is contractible)
        # but the labeled complex does not support a resolution, which only
        # the graded criteria can see.
        I = parse_ideal("vars x1 x2 x3\nx1\nx2\nx3\n")
        path = cx(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
        L = LabeledComplex(
            path, (mono(I.vars, "x1"), mono(I.vars, "x3"), mono(I.vars, "x2"))
        )
        F = homogenize(L)
        assert is_exact_frame(frame(F))
        assert not supports_resolution(L)
        assert betti(I).totals() == (1, 3, 3, 1)
        assert betti(I).totals() != (1,) + f_vector(path)


class TestBettiOracle:
    def test_koszul_two_variables(self):
        I = parse_ideal("vars x1 x2\nx1\nx2\n")
        table = betti(I)
        assert table.totals() == (1, 2, 1)
        assert (1, mono(I.vars, "x1"), 1) in table.entries
        assert (1, mono(I.vars, "x2"), 1) in table.entries
        assert (2, mono(I.vars, "x1*x2"), 1) in table.entries

    def test_six_var_ideal_totals(self):
        assert betti(six_var_ideal()).totals() == (1, 4, 3)

    def test_star_ideal_totals(self):
        assert betti(star_ideal()).totals() == (1, 4, 3)

    def test_principal(self):
        assert betti(parse_ideal("x1*x2\n")).totals() == (1, 1)

    def test_four_cycle_edge_ideal(self):
        I = parse_ideal("vars x1 x2 x3 x4\nx1*x2, x2*x3, x3*x4, x4*x1\n")
        table = betti(I)
        # Hand check: at the top multidegree the strict-divisor complex is
        # the 4-cycle graph, so homological degree 3 survives.
        assert table.totals() == (1, 4, 4, 1)
        assert betti(I).pd_quotient() - 1 == 2
        assert betti(I).pd_quotient() == 3

    def test_first_betti_numbers_are_the_generators(self):
        I = six_var_ideal()
        table = betti(I)
        degree_one = {(m, b) for i, m, b in table.entries if i == 1}
        assert degree_one == {(g, 1) for g in I.generators}

    def test_graded_entry_of_six_var_ideal(self):
        I = six_var_ideal()
        table = betti(I)
        for text in ("x1*x2*x4*x6", "x1*x3*x4*x6", "x1*x4*x5*x6"):
            assert (2, mono(I.vars, text), 1) in table.entries

    def test_tree_f_vector_matches_totals(self):
        I = six_var_ideal()
        T = build_tree(dual_facets(I))
        assert betti(I).totals() == (1,) + f_vector(T.complex)

    def test_accepts_non_squarefree(self):
        V = VariableSet(("x",))
        I = parse_ideal("x^3\n")
        assert betti(I).totals() == (1, 1)
        assert betti(I).pd_quotient() - 1 == 0

    def test_non_squarefree_with_syzygy(self):
        # (x^2, xy): S/I resolved by 0 -> S(-x^2y) -> S^2 -> S -> 0.
        I = parse_ideal("x^2, x*y\n")
        table = betti(I)
        assert table.totals() == (1, 2, 1)
        assert (2, mono(I.vars, "x^2*y"), 1) in table.entries

    def test_guard(self):
        names = tuple(f"x{i}" for i in range(13))
        V = VariableSet(names)
        gens = tuple(
            Monomial(V, tuple(1 if j == i else 0 for j in range(13)))
            for i in range(13)
        )
        from treeres.monomial import MonomialIdeal

        with pytest.raises(ValueError):
            betti(MonomialIdeal(V, gens))


class TestBettiMatchesMonomialSweep:
    """The mask sweep against the lattice sweep on validated Monomials."""

    @given(ideals(max_exp=3))
    def test_any_exponents(self, I):
        assert betti(I).entries == monomial_betti_entries(I)

    @given(squarefree_ideals(VariableSet(tuple(f"x{i}" for i in range(5))), max_gens=6))
    def test_squarefree(self, I):
        assert betti(I).entries == monomial_betti_entries(I)

    def test_exponents_near_1e8(self):
        I = parse_ideal(
            "x1^100000000*x2, x1^99999999*x3, x1^99999998*x4*x5, x2*x3*x4, "
            "x5*x6, x6^90000000*x2\n"
        )
        assert betti(I).entries == monomial_betti_entries(I)


def dense_squarefree_ideal(rng: random.Random, q: int) -> MonomialIdeal:
    """q distinct antichain supports of size 2 or 3 on q variables."""
    supports: list[frozenset[int]] = []
    while len(supports) < q:
        cand = frozenset(rng.sample(range(q), rng.choice((2, 2, 3))))
        if not any(cand <= s or s <= cand for s in supports):
            supports.append(cand)
    V = VariableSet(tuple([f"x{i + 1}" for i in range(q)]))
    return MonomialIdeal(V, tuple([
        Monomial(V, tuple([int(i in s) for i in range(q)])) for s in supports
    ]))


class TestBettiOracleFixedInputs:
    """The core-reduced oracle against the lattice sweep on Monomials, on
    inputs that do not depend on a Hypothesis draw."""

    def test_every_census_dual_up_to_four_vertices(self):
        count = 0
        for D in census_complexes(4):
            if is_full_simplex(D):
                continue
            I = dual_generators(D)
            assert betti(I).entries == monomial_betti_entries(I), D
            count += 1
        assert count == 122

    def test_every_three_variable_ideal_with_exponents_at_most_two(self):
        # Multi-bit variable blocks: lower exponent levels are dominated
        # vertices of the complex that the core removes.
        ideals = three_variable_ideals()
        for I in ideals:
            assert betti(I).entries == monomial_betti_entries(I), str(I)
        assert (len(ideals), sum(not I.is_squarefree() for I in ideals)) == (978, 960)

    @pytest.mark.parametrize("q", [8, 10, 12])
    def test_dense_squarefree(self, q):
        rng = random.Random(q)
        for _ in range(2):
            I = dense_squarefree_ideal(rng, q)
            assert betti(I).entries == monomial_betti_entries(I)


class TestBettiTableJson:
    def test_round_trip(self):
        table = betti(six_var_ideal())
        assert read_betti(betti_to_json(table)) == table


class TestPolarizationPreservesPd:
    def test_cube(self):
        from treeres.monomial import polarize

        I = parse_ideal("x^3\n")
        P, _ = polarize(I)
        assert betti(I).pd_quotient() == betti(P).pd_quotient() == 1

    def test_mixed_example(self):
        from treeres.monomial import polarize

        I = parse_ideal("x^2*y, y^2\n")
        P, _ = polarize(I)
        assert betti(I).pd_quotient() == betti(P).pd_quotient()

    def test_exhaustive_three_variable_census(self):
        from treeres.monomial import polarize

        checked = 0
        for I in three_variable_ideals():
            if I.is_squarefree():
                continue
            checked += 1
            P, _ = polarize(I)
            assert betti(I).pd_quotient() == betti(P).pd_quotient(), str(I)
        assert checked == 960
