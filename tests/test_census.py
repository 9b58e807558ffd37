import pytest
from hypothesis import given

from treeres import census
from treeres.census import (
    antichain_covers,
    check_complex,
    complex_from_masks,
    iso_key,
    run_census,
)
from treeres.complexes import (
    is_connected,
    is_quasi_forest_by_induced,
    leaf_order,
)
from treeres.duality import dual_generators
from treeres.homology import BettiTable, betti, is_exact_frame
from treeres.monomial import Monomial
from treeres.resolution import frame, taylor

from helpers import census_complexes, flipped_taylor
from strategies import ideals


class TestEnumeration:
    def test_counts_by_vertex_count(self):
        # Facet antichains covering all vertices: 1, 2, and 9 complexes.
        assert sum(1 for _ in antichain_covers(1)) == 1
        assert sum(1 for _ in antichain_covers(2)) == 2
        assert sum(1 for _ in antichain_covers(3)) == 9

    def test_cumulative_counts(self):
        assert sum(1 for _ in census_complexes(3)) == 12
        assert sum(1 for _ in census_complexes(4)) == 126

    def test_every_enumerated_complex_covers_its_universe(self):
        for D in census_complexes(4):
            assert D.used_vertices == frozenset(D.vertices.names)

    def test_antichains_are_antichains(self):
        for masks in antichain_covers(4):
            for a in masks:
                for b in masks:
                    if a != b:
                        assert a & ~b != 0 and b & ~a != 0

    def test_iso_classes(self):
        seen = set()
        for n in range(1, 4):
            for masks in antichain_covers(n):
                seen.add((n, iso_key(n, masks)))
        assert len(seen) == 8

    def test_iso_key_invariant_under_relabeling(self):
        # The 4-cycle and a relabeling of it share a key.
        cycle = (0b0011, 0b0110, 0b1100, 0b1001)
        relabeled = (0b0101, 0b0110, 0b1010, 0b1001)
        assert iso_key(4, cycle) == iso_key(4, relabeled)


class TestInvariantBattery:
    def test_no_violations_up_to_four_vertices(self):
        result = run_census(4)
        assert result.violations == []
        assert result.total == 126

    def test_equivalence_counts_line_up(self):
        result = run_census(4)
        # Quasi-forests that are not full simplices are exactly the
        # instances with pd(ideal) <= 1.
        assert result.pd_le_1 == result.quasi_forests - result.full_simplices

    def test_quasi_tree_recount(self):
        count_via_orders = 0
        count_via_induced = 0
        for D in census_complexes(4):
            connected = is_connected(D)
            if connected and leaf_order(D, "exhaustive") is not None:
                count_via_orders += 1
            if connected and is_quasi_forest_by_induced(D):
                count_via_induced += 1
        assert count_via_orders == count_via_induced
        result = run_census(4)
        assert result.quasi_trees == count_via_orders

    def test_four_cycle_appears_as_negative_witness(self):
        cycle_key = iso_key(4, (0b0011, 0b0110, 0b1100, 0b1001))
        found = False
        for masks in antichain_covers(4):
            if iso_key(4, masks) == cycle_key:
                D = complex_from_masks(4, masks)
                assert leaf_order(D, "exhaustive") is None
                assert betti(dual_generators(D)).pd_quotient() - 1 == 2
                found = True
        assert found

    def test_workers_match_serial(self):
        serial = run_census(3, workers=1)
        parallel = run_census(3, workers=2)
        assert serial.total == parallel.total
        assert serial.quasi_forests == parallel.quasi_forests
        assert serial.violations == parallel.violations == []

    @pytest.mark.parametrize(
        "cpus, started", [(4, [4]), (None, [])], ids=["four-cpus", "unknown-cpus"]
    )
    def test_worker_pool_is_capped_at_the_cpu_count(self, monkeypatch, cpus, started):
        # A recording Pool runs the checks in this process: none is started.
        processes = []

        class RecordingPool:
            def __init__(self, n):
                processes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, chunksize=1):
                return [fn(p) for p in payloads]

        monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
        monkeypatch.setattr("treeres.census.os.cpu_count", lambda: cpus)
        assert run_census(3, workers=100_000).total == run_census(3).total
        assert processes == started

    def test_guard(self):
        with pytest.raises(ValueError):
            run_census(7)

    def test_check_complex_flags(self):
        rep = check_complex((3, (0b011, 0b110, 0b101)))  # hollow triangle
        assert not rep.quasi_forest
        assert rep.pd_ideal == 2
        assert rep.violations == []

    def test_census_at_five_vertices(self):
        # The summary `treeres census --max-vertices 5` prints.
        assert run_census(5).summary_lines() == [
            "complexes on <= 5 vertices: 7020 (208 up to relabeling)",
            "quasi-forests: 894 (quasi-trees: 582)",
            "simplicial forests: 894",
            "pd(ideal) <= 1 instances: 889",
            "full simplices (skipped by the equivalence): 5",
            "violations: 0",
        ]

    def test_six_vertex_quasi_forest_that_is_not_a_simplicial_forest(self):
        # <x1x2x3, x1x2x4, x1x3x5, x2x3x6> has the leaf order (3, 0, 2, 1),
        # but its three outer triangles are a leafless subcollection.  No
        # such complex exists on five vertices, so the witness line is new.
        rep = check_complex((6, (0b000111, 0b001011, 0b010101, 0b100110)))
        assert rep.violations == []
        assert rep.quasi_forest and not rep.simplicial_forest
        assert rep.pd_ideal == 1
        assert census._tally(6, [rep]).summary_lines()[-1] == (
            "quasi-forest but not simplicial forest witness: [['x1', 'x2', 'x3'], "
            "['x1', 'x2', 'x4'], ['x1', 'x3', 'x5'], ['x2', 'x3', 'x6']]"
        )

    def test_every_built_tree_up_to_five_vertices(self):
        # Every leaf order and every joint choice, for every quasi-forest
        # on at most five vertices: the resulting tree supports a minimal
        # resolution and its degree slices span the label-degree subgraphs.
        # The leaf-search tree is among them, so the census reads its verdict
        # off the enumeration.
        from treeres.census import _degree_filtration_is_spanning
        from treeres.complexes import is_full_simplex
        from treeres.resolution import (
            _tree_on,
            enumerate_trees,
            homogenize,
            is_minimal_support,
            supports_resolution,
        )

        duals_checked = trees_checked = 0
        for n in range(1, 6):
            for masks in antichain_covers(n):
                D = complex_from_masks(n, masks)
                if is_full_simplex(D) or leaf_order(D, "greedy") is None:
                    continue
                duals_checked += 1
                trees = list(enumerate_trees(D))
                assert _tree_on(dual_generators(D))[1] in trees, D
                for T in trees:
                    trees_checked += 1
                    assert supports_resolution(T)
                    assert is_minimal_support(homogenize(T))
                    assert _degree_filtration_is_spanning(T)
        assert duals_checked == 889
        assert trees_checked == 2207


def _flipped_taylor(I):
    return flipped_taylor()


def _failing_tree_on(I):
    return None


def _inflated_betti(I):
    # Ten extra degree-1 generators: beta_1 passes the Taylor rank C(q, 1).
    table = betti(I)
    return BettiTable(table.vars, table.entries + ((1, Monomial.one(table.vars), 10),))


@pytest.mark.parametrize(
    "name, replacement, masks, violation",
    [
        ("taylor", _flipped_taylor, (0b011, 0b110, 0b101),
         "taylor differential does not square to zero"),
        ("_tree_on", _failing_tree_on, (0b011, 0b110),
         "the leaf search built no tree on a quasi-forest"),
        ("betti", _inflated_betti, (0b011, 0b110, 0b101),
         "betti numbers exceed the taylor ranks"),
    ],
    ids=["taylor-squares-nonzero", "build-tree-fails", "betti-exceeds-taylor"],
)
def test_recorded_violation_does_not_crash(monkeypatch, name, replacement, masks, violation):
    monkeypatch.setattr("treeres.census._TAYLOR_VERDICTS", {})
    monkeypatch.setattr(f"treeres.census.{name}", replacement)
    rep = check_complex((3, masks))
    assert violation in rep.violations


@pytest.mark.parametrize(
    "name, replacement, violation",
    [
        ("_subcollections_have_leaves", lambda masks: False,
         "graph acyclicity disagrees with the subcollection sweep"),
        ("_divisor_induced_connected", lambda L: False,
         "tree-path support disagrees with the lcm-lattice sweep"),
    ],
    ids=["forest-oracle", "support-oracle"],
)
def test_oracle_disagreement_is_recorded(monkeypatch, name, replacement, violation):
    # A three-vertex path: a graph forest whose built tree supports a
    # resolution, so a lying oracle is the only source of disagreement.
    assert check_complex((3, (0b011, 0b110))).violations == []
    monkeypatch.setattr(f"treeres.census.{name}", replacement)
    assert violation in check_complex((3, (0b011, 0b110))).violations


def test_taylor_built_once_per_q(monkeypatch):
    built = []

    def counted(I):
        built.append(I.q)
        return taylor(I)

    monkeypatch.setattr("treeres.census._TAYLOR_VERDICTS", {})
    monkeypatch.setattr("treeres.census.taylor", counted)
    assert run_census(4).violations == []
    assert len(built) == len(set(built)) > 1
    assert set(built) == set(census._TAYLOR_VERDICTS)


@given(ideals(max_gens=6))
def test_taylor_verdict_equals_fresh_computation(I):
    # The verdict kept for q came from the first ideal with that q; every
    # other ideal with that q gets the verdict it would compute itself.
    F = taylor(I)
    fresh = (F.boundary_squares_to_zero(), is_exact_frame(frame(F)))
    assert census._taylor_verdict(I) == fresh == (True, True)
