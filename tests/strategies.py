"""Hypothesis strategies for monomials, ideals, and small complexes."""

from __future__ import annotations

import itertools

import hypothesis.strategies as st

from treeres.complexes import SimplicialComplex
from treeres.monomial import Monomial, VariableSet, minimalize
from treeres.resolution import LabeledComplex

XYZ = VariableSet(("x", "y", "z"))


@st.composite
def monomials(draw, vars: VariableSet = XYZ, max_exp: int = 3) -> Monomial:
    exps = tuple(draw(st.integers(0, max_exp)) for _ in range(vars.n))
    return Monomial(vars, exps)


def nonunit_monomials(vars: VariableSet = XYZ, max_exp: int = 3):
    return monomials(vars, max_exp).filter(lambda m: not m.is_one())


def squarefree_monomials(vars: VariableSet = XYZ):
    return nonunit_monomials(vars, max_exp=1)


@st.composite
def ideals(draw, vars: VariableSet = XYZ, max_exp: int = 2, max_gens: int = 4):
    gens = draw(
        st.lists(nonunit_monomials(vars, max_exp), min_size=1, max_size=max_gens)
    )
    return minimalize(gens)


@st.composite
def squarefree_ideals(draw, vars: VariableSet = XYZ, max_gens: int = 4):
    gens = draw(
        st.lists(squarefree_monomials(vars), min_size=1, max_size=max_gens)
    )
    return minimalize(gens)


def _maximal(masks):
    distinct = set(masks)
    return sorted(
        m for m in distinct
        if not any(m != other and m & ~other == 0 for other in distinct)
    )


@st.composite
def complexes(draw, max_vertices: int = 5, max_facets: int = 4, ambient: bool = False):
    """Random small complex; ``ambient`` keeps unused universe vertices."""
    n = draw(st.integers(2, max_vertices))
    masks = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_facets)
    )
    facet_masks = _maximal(masks)
    names = tuple(f"x{i + 1}" for i in range(n))
    if not ambient:
        used = 0
        for m in facet_masks:
            used |= m
        names = tuple(names[i] for i in range(n) if used >> i & 1)
        facet_masks = [
            sum(1 << names.index(f"x{i + 1}") for i in range(n) if m >> i & 1)
            for m in facet_masks
        ]
    vars = VariableSet(names)
    facets = tuple(
        frozenset(names[i] for i in range(len(names)) if m >> i & 1)
        for m in facet_masks
    )
    return SimplicialComplex(vars, facets)


def _graph_complex(draw, n: int, edges) -> SimplicialComplex:
    """Edges plus a random share of the untouched vertices as vertex facets;
    the rest stay in the universe but in no facet."""
    touched = {v for e in edges for v in e}
    points = [v for v in range(n) if v not in touched and draw(st.booleans())]
    if not edges and not points:
        points = [0]
    names = tuple(f"v{i + 1}" for i in range(n))
    facets = [frozenset(names[v] for v in e) for e in edges]
    facets += [frozenset({names[v]}) for v in points]
    return SimplicialComplex(VariableSet(names), tuple(draw(st.permutations(facets))))


@st.composite
def graphs(draw, max_vertices: int = 8, max_edges: int = 9) -> SimplicialComplex:
    """Random graph complex, cycles allowed."""
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
    return _graph_complex(draw, n, edges)


@st.composite
def labeled_forests(draw, vars: VariableSet = XYZ, max_vertices: int = 7) -> LabeledComplex:
    """Random graph forest labeled by monomials, squarefree or not, 1 included."""
    n = draw(st.integers(1, max_vertices))
    perm = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))  # -1: v starts a new tree
        if parent >= 0:
            edges.append((perm[parent], perm[v]))
    labels = draw(
        st.lists(
            st.one_of(monomials(vars, max_exp=1), monomials(vars, max_exp=2)),
            min_size=n,
            max_size=n,
        )
    )
    return LabeledComplex(_graph_complex(draw, n, edges), tuple(labels))
