#!/usr/bin/env python3
"""Walk the six-variable worked example through every pipeline stage.

Usage:
    python3 scripts/worked_example.py
"""

from treeres.complexes import f_vector, is_leaf_order
from treeres.duality import dual_facets, dual_generators
from treeres.homology import betti, is_exact_frame
from treeres.monomial import lcm, parse_ideal
from treeres.resolution import (
    build_tree,
    enumerate_trees,
    floystad_tree,
    frame,
    frame_to_graph,
    homogenize,
    is_minimal_support,
    supports_resolution,
    tree_to_dot,
)

IDEAL = "vars x1 x2 x3 x4 x5 x6\nx1*x3*x6, x1*x4*x6, x1*x2*x4, x4*x5*x6\n"


def main():
    I = parse_ideal(IDEAL)
    print(f"ideal I = {I}")

    D = dual_facets(I)
    print("\ndual complex (one facet per generator):")
    for i, f in enumerate(D.facets):
        print(f"  F{i + 1} = {{{','.join(sorted(f, key=D.vertices.index))}}}")
    print(f"presentation order is a leaf order: {is_leaf_order(D, range(D.q))}")
    print(f"complement generators recover I: {dual_generators(D) == I}")

    T = build_tree(D)
    print("\nlabeled tree supporting the minimal resolution:")
    print(tree_to_dot(T))

    F = homogenize(T)
    print(f"resolution ranks: {F.ranks}")
    print(f"degree-2 multidegrees: {[str(m) for m in F.modules[2]]}")
    print(f"divisor-induced subcomplexes all connected: {supports_resolution(T)}")
    print(f"no face label repeats on a subface: {is_minimal_support(F)}")
    print(f"d.d = 0 symbolically: {F.boundary_squares_to_zero()}")
    print(f"frame exact: {is_exact_frame(frame(F))}")
    print(f"frame reads back as the tree: {frame_to_graph(frame(F))}")

    table = betti(I)
    print(f"\noracle Betti totals: {table.totals()}")
    print(f"equal to (1, f-vector of the tree): {(1,) + f_vector(T.complex)}")
    print(f"pd(I) = {table.pd_quotient() - 1}")

    alt = floystad_tree(I)
    edges = [f for f in alt.complex.facets if len(f) == 2]
    degrees = sorted(lcm(*map(alt.label_of, f)).degree() for f in edges)
    print(f"\ndegree-ordered spanning construction edge degrees: {degrees}")
    print(f"distinct trees over all leaf orders and joints: {len(list(enumerate_trees(D)))}")


if __name__ == "__main__":
    main()
