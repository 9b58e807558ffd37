"""Exhaustive small-complex census and the cross-verification battery.

A census instance is a simplicial complex whose universe is x1..xn and
whose facets cover every vertex; ranging n over 1..N captures all
complexes on at most N vertices.  Each instance is pushed through every
equivalence and round trip the package claims, with the homology oracle
as ground truth; any discrepancy is reported as a violation record that
the CLI turns into a reproducer file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

from .complexes import (
    SimplicialComplex,
    _forest_edges,
    _masks_by_size,
    _subcollections_have_leaves,
    _vertex_components,
    f_vector,
    is_connected,
    is_full_simplex,
    is_quasi_forest_by_induced,
    is_simplicial_forest,
    leaf_order,
    complex_to_json,
)
from .duality import (
    ZeroIdeal,
    alexander_dual,
    dual_facets,
    dual_generators,
    sr_complex,
    sr_ideal,
)
from .homology import BETTI_GUARD, betti, reduced_homology_dims
from .monomial import VariableSet, lcm
from .resolution import (
    FreeComplex,
    _divisor_induced_connected,
    _tree_on,
    enumerate_trees,
    floystad_tree,
    frame,
    frame_to_graph,
    homogenize,
    is_minimal_support,
    supports_resolution,
    taylor,
)
from .homology import is_exact_frame


def antichain_covers(n: int) -> Iterator[tuple[int, ...]]:
    """All antichains of nonempty subsets of an n-set whose union covers it.

    Facet masks come back sorted by (size, value).  Classic next-element
    enumeration: each antichain is visited exactly once.
    """
    subsets = _masks_by_size(n)
    full = (1 << n) - 1

    def compatible(m: int, chosen: list[int]) -> bool:
        return all(m & ~c != 0 and c & ~m != 0 for c in chosen)

    def go(start: int, chosen: list[int], union: int):
        if chosen and union == full:
            yield tuple(chosen)
        for k in range(start, len(subsets)):
            m = subsets[k]
            if compatible(m, chosen):
                chosen.append(m)
                yield from go(k + 1, chosen, union | m)
                chosen.pop()

    yield from go(0, [], 0)


def complex_from_masks(n: int, masks: tuple[int, ...]) -> SimplicialComplex:
    vars = VariableSet(tuple([f"x{i + 1}" for i in range(n)]))
    return SimplicialComplex._of_masks(vars, masks)


# n -> one table per permutation of range(n): the image of every mask.
_PERMUTED_MASKS: dict[int, list[list[int]]] = {}


def _permuted_masks(n: int) -> list[list[int]]:
    tables = _PERMUTED_MASKS.get(n)
    if tables is None:
        tables = _PERMUTED_MASKS[n] = []
        perms: list[list[int]] = [[]]
        for k in range(n):
            perms = [p[:i] + [k] + p[i:] for p in perms for i in range(k + 1)]
        for perm in perms:
            image = [0] * (1 << n)
            for m in range(1, 1 << n):
                low = m & -m
                image[m] = image[m ^ low] | 1 << perm[low.bit_length() - 1]
            tables.append(image)
    return tables


def iso_key(n: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form up to vertex relabeling: minimal facet encoding."""
    return min(
        tuple(sorted(map(image.__getitem__, masks))) for image in _permuted_masks(n)
    )


# ---------------------------------------------------------------------------
# Per-complex verification.
# ---------------------------------------------------------------------------

@dataclass
class ComplexReport:
    n: int
    masks: tuple[int, ...]
    quasi_forest: bool = False
    simplicial_forest: bool = False
    connected: bool = False
    full_simplex: bool = False
    pd_ideal: int | None = None
    violations: list[str] = field(default_factory=list)

    def facets_json(self):
        return complex_to_json(complex_from_masks(self.n, self.masks))


def _degree_filtration_is_spanning(tree_lc) -> bool:
    """Every label-degree slice of the tree spans the same-degree slice of
    the complete generator graph (equal component partitions)."""
    labels = tree_lc.labels
    q = len(labels)
    tree_edges = [m for m in tree_lc.complex._facet_masks if m.bit_count() == 2]
    # Edges as vertex-pair masks.  A pair's lcm degree is at least both
    # vertex degrees, so it alone decides whether the edge lies in a degree
    # slice, and a vertex outside the slice is a singleton of both
    # partitions: comparing partitions of every vertex at each pair degree
    # compares the slices.
    pair_degree = {
        1 << i | 1 << j: lcm(labels[i], labels[j]).degree()
        for i in range(q)
        for j in range(i + 1, q)
    }
    for d in sorted(set(pair_degree.values())):
        k_edges = [e for e, deg in pair_degree.items() if deg <= d]
        t_edges = [e for e in tree_edges if pair_degree[e] <= d]
        if _vertex_components(q, k_edges) != _vertex_components(q, t_edges):
            return False
    return True


def check_complex(payload) -> ComplexReport:
    """Run every invariant on one census complex."""
    n, masks = payload
    D = complex_from_masks(n, masks)
    rep = ComplexReport(n=n, masks=tuple(masks))
    rep.full_simplex = is_full_simplex(D)
    rep.connected = is_connected(D)

    # Leaf-order recognizers must agree with each other and with the
    # induced-subcomplex characterization.
    greedy = leaf_order(D, "greedy") is not None
    exhaustive = leaf_order(D, "exhaustive") is not None
    induced_qf = is_quasi_forest_by_induced(D)
    if not (greedy == exhaustive == induced_qf):
        rep.violations.append(
            f"quasi-forest recognizers disagree: greedy={greedy} "
            f"exhaustive={exhaustive} induced={induced_qf}"
        )
    rep.quasi_forest = exhaustive
    rep.simplicial_forest = is_simplicial_forest(D)
    if D.dim <= 1 and rep.simplicial_forest != _subcollections_have_leaves(
        D._facet_masks
    ):
        rep.violations.append("graph acyclicity disagrees with the subcollection sweep")
    if rep.simplicial_forest and not rep.quasi_forest:
        rep.violations.append("simplicial forest without a leaf order")

    # The complement generators, or None on the full simplex (skipped by
    # the equivalence).
    J = None if rep.full_simplex else dual_generators(D)
    _check_duality(D, J, rep)
    _check_euler(D, rep)
    if J is not None:
        _check_threeway(D, J, rep)
    return rep


def _check_duality(D: SimplicialComplex, J, rep: ComplexReport) -> None:
    I = sr_ideal(D)
    if isinstance(I, ZeroIdeal):
        if not rep.full_simplex:
            rep.violations.append("zero Stanley-Reisner ideal off the full simplex")
    else:
        back = sr_complex(I)
        if back != D:
            rep.violations.append("sr_complex(sr_ideal(D)) != D")
        again = sr_ideal(back)
        if not isinstance(again, ZeroIdeal) and not again.same_ideal(I):
            rep.violations.append("sr_ideal round trip unstable")

    dual = alexander_dual(D)
    if alexander_dual(dual) != D:
        rep.violations.append("alexander dual is not an involution")

    if J is not None:
        facets = dual_facets(J)
        if facets != D:
            rep.violations.append("dual_facets(dual_generators(D)) != D")
        if not dual_generators(facets).same_ideal(J):
            rep.violations.append("dual_generators round trip unstable")
        composite = sr_ideal(dual)
        if isinstance(composite, ZeroIdeal) or not composite.same_ideal(J):
            rep.violations.append(
                "complement generators disagree with sr_ideal of the dual"
            )


def _check_euler(D: SimplicialComplex, rep: ComplexReport) -> None:
    fv = f_vector(D)
    h = reduced_homology_dims(D)
    face_sum = -1 + sum(
        (1 if d % 2 == 0 else -1) * fv[d] for d in range(len(fv))
    )
    hom_sum = sum(
        (1 if (d - 1) % 2 == 0 else -1) * h[d] for d in range(len(h))
    )
    if face_sum != hom_sum:
        rep.violations.append(
            f"euler characteristic mismatch: faces {face_sum} vs homology {hom_sum}"
        )


def _frame_verdict(F: FreeComplex) -> tuple[bool, bool]:
    """Whether F's differentials square to zero, and whether its frame is
    exact (tested only once they do; False otherwise)."""
    squares = F.boundary_squares_to_zero()
    return squares, squares and is_exact_frame(frame(F))


# q -> the _frame_verdict of the Taylor complex on q generators.
_TAYLOR_VERDICTS: dict[int, tuple[bool, bool]] = {}


def _taylor_verdict(I) -> tuple[bool, bool]:
    """The frame verdict of taylor(I), computed for the first ideal of each q.

    A Taylor row label lcm(S - {v}) divides its column label lcm(S) for every
    ideal, so taylor(I) has the ranks C(q, i) and the (row, col, sign)
    entries of the augmented chain complex of the (q-1)-simplex, and both
    verdicts read nothing else.
    """
    verdict = _TAYLOR_VERDICTS.get(I.q)
    if verdict is None:
        verdict = _TAYLOR_VERDICTS[I.q] = _frame_verdict(taylor(I))
    return verdict


def _check_threeway(D: SimplicialComplex, I, rep: ComplexReport) -> None:
    if I.q > BETTI_GUARD:
        # The oracle leg is infeasible, and no quasi-forest gets here: each
        # facet of a leaf order holds a vertex no earlier facet holds (else
        # it would lie in its joint), so a quasi-forest has at most n <= 6
        # facets.
        return
    table = betti(I)
    rep.pd_ideal = table.pd_quotient() - 1

    # Taylor is always a resolution and bounds the Betti numbers by its
    # ranks C(q, i).
    squares, exact = _taylor_verdict(I)
    if not squares:
        rep.violations.append("taylor differential does not square to zero")
    elif not exact:
        rep.violations.append("taylor frame is not exact")
    if any(b > math.comb(I.q, i) for i, b in enumerate(table.totals())):
        rep.violations.append("betti numbers exceed the taylor ranks")

    pd_le_1 = rep.pd_ideal <= 1
    tree_route = rep.quasi_forest and _check_built_trees(D, I, table, rep)
    if not (pd_le_1 == rep.quasi_forest == tree_route):
        rep.violations.append(
            f"three-way equivalence broken: pd<=1 is {pd_le_1}, "
            f"quasi-forest is {rep.quasi_forest}, tree route is {tree_route}"
        )


def _check_built_trees(D, I, table, rep: ComplexReport) -> bool:
    """Judge every tree built on the quasi-forest D.  Returns whether the
    search tree ``_tree_on(I)`` supports a minimal resolution, read off its
    pass through ``enumerate_trees(D)``, which yields it: ``_step_joints``
    certifies its order as a leaf order, and its edges are a joint choice."""
    found = _tree_on(I)
    if found is None:
        rep.violations.append("the leaf search built no tree on a quasi-forest")
    first = None if found is None else found[1]
    verdict = False
    for T in enumerate_trees(D):
        F = homogenize(T)
        squares, exact = _frame_verdict(F)
        if not squares:
            rep.violations.append("homogenized tree differential squares nonzero")
        sup = supports_resolution(T)
        if not sup:
            rep.violations.append("built tree does not support a resolution")
        minimal = is_minimal_support(F)
        if not minimal:
            rep.violations.append("built tree fails the subface-label criterion")
        if T == first:
            verdict = sup and minimal
        if sup != _divisor_induced_connected(T):
            rep.violations.append("tree-path support disagrees with the lcm-lattice sweep")
        if not _degree_filtration_is_spanning(T):
            rep.violations.append("degree filtration is not a spanning forest chain")
        if squares and not exact:
            rep.violations.append("built tree frame is not exact")
        if F.length == 2:
            edges = frame_to_graph(frame(F))
            vertices = F.ranks[1]
            if edges is None or not (
                len(edges) == vertices - 1 == len(_forest_edges(vertices, edges))
            ):
                rep.violations.append("frame is not the chain complex of a tree")
        hdims = reduced_homology_dims(T.complex)
        if any(hdims[1:]):
            rep.violations.append("built tree has nonzero reduced homology")

    # Oracle totals agree with the f-vector ranks (1, f0, f1).
    if first is not None:
        expected = (1,) + f_vector(first.complex)
        if table.totals() != expected:
            rep.violations.append(
                f"betti totals {table.totals()} != (1, f-vector) {expected}"
            )

    # Degree-ordered spanning construction agrees with the criteria.
    ft = floystad_tree(I)
    if not (supports_resolution(ft) and is_minimal_support(homogenize(ft))):
        rep.violations.append("degree-ordered spanning tree fails the criteria")
    return verdict


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

@dataclass
class CensusResult:
    max_vertices: int
    total: int = 0
    iso_classes: int = 0
    quasi_forests: int = 0
    simplicial_forests: int = 0
    quasi_trees: int = 0
    pd_le_1: int = 0
    full_simplices: int = 0
    violations: list[dict] = field(default_factory=list)
    strictness_witness: dict | None = None

    def summary_lines(self) -> list[str]:
        lines = [
            f"complexes on <= {self.max_vertices} vertices: {self.total} "
            f"({self.iso_classes} up to relabeling)",
            f"quasi-forests: {self.quasi_forests} "
            f"(quasi-trees: {self.quasi_trees})",
            f"simplicial forests: {self.simplicial_forests}",
            f"pd(ideal) <= 1 instances: {self.pd_le_1}",
            f"full simplices (skipped by the equivalence): {self.full_simplices}",
            f"violations: {len(self.violations)}",
        ]
        if self.strictness_witness:
            lines.append(
                "quasi-forest but not simplicial forest witness: "
                f"{self.strictness_witness['facets']}"
            )
        return lines


def run_census(max_vertices: int, workers: int = 1) -> CensusResult:
    return _tally(max_vertices, _census_reports(max_vertices, workers))


def _census_reports(max_vertices: int, workers: int) -> list[ComplexReport]:
    """One report per census complex, in enumeration order."""
    if not 1 <= max_vertices <= 6:
        raise ValueError(f"census needs 1 <= max_vertices <= 6 (got {max_vertices})")
    if workers < 1:
        raise ValueError(f"census needs workers >= 1 (got {workers})")
    payloads = [
        (n, masks)
        for n in range(1, max_vertices + 1)
        for masks in antichain_covers(n)
    ]
    # More processes than CPUs buy nothing; the reports do not depend on it.
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: its pickle, socket and selectors imports would
        # otherwise load with every command.
        from multiprocessing import Pool

        with Pool(workers) as pool:
            return pool.map(check_complex, payloads, chunksize=64)
    return [check_complex(p) for p in payloads]


def _tally(max_vertices: int, reports: list[ComplexReport]) -> CensusResult:
    result = CensusResult(max_vertices=max_vertices)
    iso_seen: set[tuple] = set()
    for rep in reports:
        result.total += 1
        key = (rep.n, iso_key(rep.n, rep.masks))
        if key not in iso_seen:
            iso_seen.add(key)
        if rep.quasi_forest:
            result.quasi_forests += 1
            if rep.connected:
                result.quasi_trees += 1
        if rep.simplicial_forest:
            result.simplicial_forests += 1
        if rep.full_simplex:
            result.full_simplices += 1
        if rep.pd_ideal is not None and rep.pd_ideal <= 1:
            result.pd_le_1 += 1
        if rep.quasi_forest and not rep.simplicial_forest and result.strictness_witness is None:
            result.strictness_witness = rep.facets_json()
        for message in rep.violations:
            result.violations.append(
                {
                    "invariant": message,
                    "complex": rep.facets_json(),
                }
            )
    result.iso_classes = len(iso_seen)
    return result
