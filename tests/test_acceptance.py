"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact; the stated runtime budgets are asserted too.
The census underlying criteria 3, 5, 7, and 8 is the set of all simplicial
complexes whose facets cover a universe of at most four vertices; criterion
4 extends to five vertices.
"""

import itertools
import json
import math
import random
import time

import pytest

from treeres.census import antichain_covers, complex_from_masks, iso_key
from treeres.complexes import (
    is_full_simplex,
    is_leaf_order,
    is_quasi_forest_by_induced,
    leaf_order,
)
from treeres.duality import dual_facets, dual_generators
from treeres.homology import betti, is_exact_frame
from treeres.monomial import polarize
from treeres.resolution import (
    build_tree,
    enumerate_trees,
    floystad_tree,
    frame,
    homogenize,
    is_minimal_support,
    supports_resolution,
    taylor,
)
from treeres.cli import main

from helpers import (
    SIX_VAR_IDEAL_TEXT,
    column_fingerprint,
    mono,
    printed_matrix_fingerprint,
    random_nonsquarefree_ideal,
    random_squarefree_ideal,
    read_free_complex,
    six_var_ideal,
    star_ideal,
)
from test_resolution import PRINTED_SIX_VAR_MATRIX


def report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {num}] {status}{suffix}")


@pytest.fixture(scope="module")
def census4():
    """All covering complexes on <= 4 vertices with their key facts."""
    out = []
    for n in range(1, 5):
        for masks in antichain_covers(n):
            D = complex_from_masks(n, masks)
            full = is_full_simplex(D)
            qf = leaf_order(D, "exhaustive") is not None
            pd = None if full else betti(dual_generators(D)).pd_quotient() - 1
            out.append((n, masks, D, full, qf, pd))
    return out


def test_criterion_1_six_var_example_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text(SIX_VAR_IDEAL_TEXT)

    assert main(["resolve", "--input", str(ideal_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    F = read_free_complex(payload["free_complex"])
    I = six_var_ideal()

    ok = F.ranks == (1, 4, 3)
    expected_columns = {
        mono(I.vars, t)
        for t in ("x1*x2*x4*x6", "x1*x3*x4*x6", "x1*x4*x5*x6")
    }
    ok = ok and set(F.modules[2]) == expected_columns
    ok = ok and column_fingerprint(F) == printed_matrix_fingerprint(
        I.vars, PRINTED_SIX_VAR_MATRIX
    )

    assert main(["pd", "--input", str(ideal_path)]) == 0
    ok = ok and capsys.readouterr().out.strip() == "1"

    D = dual_facets(I)
    ok = ok and [sorted(f) for f in D.facets] == [
        ["x2", "x4", "x5"],
        ["x2", "x3", "x5"],
        ["x3", "x5", "x6"],
        ["x1", "x2", "x3"],
    ]
    ok = ok and is_leaf_order(D, (0, 1, 2, 3))

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"resolve ranks {F.ranks}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_star_example(capsys):
    start = time.perf_counter()
    I = star_ideal()
    D = dual_facets(I)

    all_orders = all(
        is_leaf_order(D, perm) for perm in itertools.permutations(range(4))
    )
    trees = list(enumerate_trees(D))
    sixteen = len(trees) == 16
    all_pass = all(
        supports_resolution(t) and is_minimal_support(homogenize(t)) for t in trees
    )
    totals = betti(I).totals() == (1, 4, 3)

    elapsed = time.perf_counter() - start
    ok = all_orders and sixteen and all_pass and totals and elapsed < 5.0
    report(2, ok, f"16 trees, 24 orders, betti (1,4,3), {elapsed:.2f}s")
    assert ok


def test_criterion_3_three_way_equivalence_census(census4, capsys):
    start = time.perf_counter()
    discrepancies = []
    cycle_key = iso_key(4, (0b0011, 0b0110, 0b1100, 0b1001))
    cycle_witnessed = False

    for n, masks, D, full, qf, pd in census4:
        if full:
            continue
        pd_le_1 = pd <= 1
        tree_ok = False
        if qf:
            T = build_tree(D)
            tree_ok = supports_resolution(T) and is_minimal_support(homogenize(T))
        if not (pd_le_1 == qf == tree_ok):
            discrepancies.append((n, masks, pd_le_1, qf, tree_ok))
        if n == 4 and iso_key(4, masks) == cycle_key:
            if pd == 2 and not qf:
                cycle_witnessed = True

    elapsed = time.perf_counter() - start
    ok = not discrepancies and cycle_witnessed and elapsed < 120.0
    report(3, ok, f"{len(census4)} complexes, 0 discrepancies, {elapsed:.1f}s")
    assert ok, discrepancies[:3]


def test_criterion_4_leaf_order_equivalence_to_five_vertices(capsys):
    start = time.perf_counter()
    mismatches = []
    total = 0
    for n in range(1, 6):
        for masks in antichain_covers(n):
            total += 1
            D = complex_from_masks(n, masks)
            exhaustive = leaf_order(D, "exhaustive") is not None
            greedy = leaf_order(D, "greedy") is not None
            induced_qf = is_quasi_forest_by_induced(D)
            if not (exhaustive == greedy == induced_qf):
                mismatches.append((n, masks, exhaustive, greedy, induced_qf))

    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600.0
    report(4, ok, f"{total} complexes on <= 5 vertices, {elapsed:.1f}s")
    assert ok, mismatches[:3]


def test_criterion_5_minimality_of_every_built_tree(census4, capsys):
    bad = []
    checked = 0
    for n, masks, D, full, qf, pd in census4:
        if full or not qf or pd is None or pd > 1:
            continue
        for T in enumerate_trees(D):
            checked += 1
            if not is_minimal_support(homogenize(T)):
                bad.append((n, masks))

    ok = not bad and checked > 0
    report(5, ok, f"{checked} built trees, all entries non-unit")
    assert ok, bad[:3]


def test_criterion_6_taylor_sanity(capsys):
    start = time.perf_counter()
    rng = random.Random(60221023)
    failures = []
    for _ in range(100):
        I = random_squarefree_ideal(rng, max_vars=6, max_gens=5)
        F = taylor(I)
        if not is_exact_frame(frame(F)):
            failures.append(("frame", str(I)))
            continue
        # The f-vector of the Taylor simplex bounds the Betti numbers:
        # beta_i(S/I) <= C(q, i), the rank of the degree-i Taylor module.
        totals = betti(I).totals()
        if totals[0] != 1:
            failures.append(("beta0", str(I)))
        for i in range(1, len(totals)):
            if totals[i] > math.comb(I.q, i):
                failures.append(("beta", str(I)))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(6, ok, f"100 random ideals, {elapsed:.1f}s")
    assert ok, failures[:3]


def test_criterion_7_degree_filtration_and_spanning_tree(census4, capsys):
    from treeres.census import _degree_filtration_is_spanning

    bad = []
    checked_ideals = 0
    for n, masks, D, full, qf, pd in census4:
        if full or not qf or pd is None or pd > 1:
            continue
        checked_ideals += 1
        I = dual_generators(D)
        ft = floystad_tree(I)
        if not (supports_resolution(ft) and is_minimal_support(homogenize(ft))):
            bad.append(("floystad", n, masks))
        for T in enumerate_trees(D):
            if not _degree_filtration_is_spanning(T):
                bad.append(("filtration", n, masks))

    ok = not bad and checked_ideals > 0
    report(7, ok, f"{checked_ideals} ideals with pd <= 1")
    assert ok, bad[:3]


def test_criterion_8_duality_round_trips(census4, capsys):
    from treeres.duality import ZeroIdeal, alexander_dual, sr_complex, sr_ideal

    bad = []
    for n, masks, D, full, qf, pd in census4:
        I = sr_ideal(D)
        if isinstance(I, ZeroIdeal):
            if not full:
                bad.append(("zero-ideal", n, masks))
        elif sr_complex(I) != D:
            bad.append(("sr", n, masks))
        if alexander_dual(alexander_dual(D)) != D:
            bad.append(("dual-involution", n, masks))
        if not full:
            J = dual_generators(D)
            if dual_facets(J) != D or not dual_generators(dual_facets(J)).same_ideal(J):
                bad.append(("complement", n, masks))

    ok = not bad
    report(8, ok, f"{len(census4)} complexes round-tripped")
    assert ok, bad[:3]


def test_criterion_9_polarization_preserves_pd(capsys):
    start = time.perf_counter()
    rng = random.Random(1729)
    failures = []
    for _ in range(50):
        I = random_nonsquarefree_ideal(rng)
        P, _ = polarize(I)
        if betti(I).pd_quotient() != betti(P).pd_quotient():
            failures.append(str(I))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(9, ok, f"50 random non-squarefree ideals, {elapsed:.1f}s")
    assert ok, failures[:3]
