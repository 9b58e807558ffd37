"""Labeled complexes, homogenization into free complexes, the tree
constructions for projective-dimension-1 ideals, and frames.

Conventions: the vertices of a face are ordered by their universe index
and boundary signs alternate from that order, so signs are a basis choice.
Comparisons against externally printed matrices must therefore allow row
and column permutation and a global sign per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterator, Sequence

from .complexes import (
    SimplicialComplex,
    _face_masks,
    _facet_names,
    _faces_by_dim,
    _forest_edges,
    _leaf_search,
    _signed_boundary,
    _step_joints,
    _union,
    _vertex_components,
    full_simplex,
    is_simplicial_forest,
    all_leaf_orders,
)
from .duality import dual_generators
from .homology import Frame, _check_entries, _squares_to_zero
from .monomial import (
    Monomial,
    MonomialIdeal,
    VariableSet,
    divides,
    exponent_masks,
    lcm,
    lcm_closure,
)

_TREE_GUARD = 1 << 18  # enumerate_trees refuses past this many partial edge lists


@dataclass(frozen=True)
class LabeledComplex:
    """Simplicial complex with one monomial label per universe vertex."""

    complex: SimplicialComplex
    labels: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.complex.n:
            raise ValueError("need exactly one label per vertex")
        vars = self.labels[0].vars
        if any(m.vars != vars for m in self.labels):
            raise ValueError("labels over mixed variable sets")

    @property
    def label_vars(self) -> VariableSet:
        return self.labels[0].vars

    def label_of(self, vertex: str) -> Monomial:
        return self.labels[self.complex.vertices.index(vertex)]


@dataclass(frozen=True)
class FreeComplex:
    """Chain complex of multigraded free modules.

    ``modules[i]`` lists the multidegrees of the degree-i module
    (degree 0 is the single multidegree 1); ``differentials[i-1]`` is the
    sparse matrix of d_i with entries (row, col, sign).
    """

    vars: VariableSet
    modules: tuple[tuple[Monomial, ...], ...]
    differentials: tuple[tuple[tuple[int, int, int], ...], ...]

    def __post_init__(self):
        if not self.modules or self.modules[0] != (Monomial.one(self.vars),):
            raise ValueError("degree 0 must be the single multidegree 1")
        _check_entries(self.ranks, self.differentials)
        for i, entries in enumerate(self.differentials, start=1):
            for row, col, sign in entries:
                if sign not in (1, -1):
                    raise ValueError("entry signs must be +1 or -1")
                if not divides(self.modules[i - 1][row], self.modules[i][col]):
                    raise ValueError(
                        f"row multidegree does not divide column multidegree in d_{i}"
                    )

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple([len(m) for m in self.modules])

    def boundary_squares_to_zero(self) -> bool:
        """Symbolic check that consecutive differentials compose to zero.

        Every entry monomial is the column/row multidegree quotient, so all
        products landing on one (row, col) share a monomial and the signs
        alone decide.
        """
        return _squares_to_zero(self.differentials)


def homogenize(L: LabeledComplex) -> FreeComplex:
    """Free complex of the labeled complex.

    Degree i has one summand per (i-1)-face, of multidegree the face
    label; d_i carries the simplicial boundary signs, with d_1 the row of
    vertex labels.

    Each degree lists its faces in lexicographic order of their sorted
    vertex indices: the key spells bit i as character i, so of two faces
    of one size the one holding the lowest vertex they differ in sorts
    first.  A face's label is one lcm: the face without its highest
    vertex, one degree down and already labeled, with that vertex.
    """
    n = L.complex.n
    by_dim = _faces_by_dim(sorted(
        _face_masks(L.complex), key=lambda m: f"{m:0{n}b}"[::-1], reverse=True
    ))
    label = {0: Monomial.one(L.label_vars)}
    for face in by_dim[1]:
        label[face] = L.labels[face.bit_length() - 1]
    for bucket in by_dim[2:]:
        for face in bucket:
            top = face.bit_length() - 1
            label[face] = lcm(label[face ^ (1 << top)], L.labels[top])
    modules = tuple([tuple([label[face] for face in bucket]) for bucket in by_dim])
    diffs = tuple([
        tuple([*_signed_boundary(by_dim, d)])
        for d in range(1, len(by_dim))
    ])
    return FreeComplex(L.label_vars, modules, diffs)


def _generator_vertex_names(q: int) -> VariableSet:
    return VariableSet(tuple([f"v{i + 1}" for i in range(q)]))


def taylor(I: MonomialIdeal) -> FreeComplex:
    """Homogenization of the full simplex on the generators; its 2^q faces
    are refused past 20 generators by ``_face_masks``, as any complex is."""
    D = full_simplex(_generator_vertex_names(I.q))
    return homogenize(LabeledComplex(D, I.generators))


def supports_resolution(L: LabeledComplex) -> bool:
    """Divisor-induced connectivity over the whole lcm lattice of the labels.

    Requires the underlying complex to be a simplicial forest; checks that
    for every lattice element the subcomplex induced on vertices whose
    labels divide it is connected (empty or one vertex counts).  A graph
    forest is checked pair by pair along its paths; higher dimensions
    sweep the lattice.
    """
    if not is_simplicial_forest(L.complex):
        raise ValueError("not a simplicial forest")
    if L.complex.dim <= 1:
        return _paths_under_pair_lcms(L)
    return _divisor_induced_connected(L)


def _paths_under_pair_lcms(L: LabeledComplex) -> bool:
    """On a graph forest: every two vertices of the complex are joined by a
    path whose labels all divide the lcm of the two end labels.

    This is the lattice criterion pair by pair (Bayer-Peeva-Sturmfels):
    lcm(l_a, l_b) is a lattice element, a connected induced subforest
    holding a and b holds their path, and every lattice element divisible
    by l_a and l_b is divisible by their lcm.  One search per source
    carries the lcm of the interior labels as an ``exponent_masks`` mask,
    on which lcm is bitwise or and divisibility is inclusion: O(q^2) steps.
    """
    D = L.complex
    used = _union(D._facet_masks)
    adjacent: dict[int, list[int]] = {i: [] for i in range(D.n) if used >> i & 1}
    for f in D._facet_masks:
        if f.bit_count() == 2:
            a, b = (f & -f).bit_length() - 1, f.bit_length() - 1
            adjacent[a].append(b)
            adjacent[b].append(a)
    labels, _ = exponent_masks(L.labels)
    for source in adjacent:
        reached = 1
        stack = [(v, source, 0) for v in adjacent[source]]
        while stack:
            v, parent, interior = stack.pop()
            reached += 1
            if interior & ~(labels[source] | labels[v]):
                return False
            inner = interior | labels[v]
            stack.extend((w, v, inner) for w in adjacent[v] if w != parent)
        if reached < len(adjacent):
            return False
    return True


def _divisor_induced_connected(L: LabeledComplex) -> bool:
    """For each element m of the lcm lattice of the labels, the subcomplex
    induced on the vertices whose labels divide m is connected or empty.

    The lattice is the ``lcm_closure`` of the labels' ``exponent_masks``,
    so divisibility is mask inclusion.  The induced facets are the facet
    masks cut down to the dividing vertices that lie in a facet, and its
    components are the ``_vertex_components`` that meet those vertices.
    """
    D = L.complex
    used = _union(D._facet_masks)
    labels, _ = exponent_masks(L.labels)
    for top in lcm_closure(labels):
        W = used & sum([1 << v for v, lab in enumerate(labels) if lab & ~top == 0])
        components = _vertex_components(D.n, [f & W for f in D._facet_masks])
        if sum([1 for c in components if c & W]) > 1:
            return False
    return True


def is_minimal_support(F: FreeComplex) -> bool:
    """No entry of any d_i has equal row and column multidegrees.

    On ``homogenize(L)`` each entry pairs a face with a codimension-1
    subface, and d_1 pairs each vertex with the empty face's label 1.
    Labels grow along inclusions, so this says that no face label equals
    the label of a proper subface: L supports a minimal complex.
    """
    return all(
        rows[row] != cols[col]
        for rows, cols, entries in zip(F.modules, F.modules[1:], F.differentials)
        for row, col, _ in entries
    )


def _tree_complex(q: int, edges: Sequence[tuple[int, int]]) -> SimplicialComplex:
    """The graph on generator vertices v1..vq with one edge mask per edge,
    in edge order; no edges gives the single vertex v1."""
    masks = [(1 << a) | (1 << b) for a, b in edges] or [1]
    return SimplicialComplex._of_masks(_generator_vertex_names(q), masks)


def build_tree(D: SimplicialComplex) -> LabeledComplex:
    """Tree on one vertex per facet, labeled by the complement generators.

    Follows the greedy ``leaf_order``, the maximum cardinality search
    that ``_step_joints`` certifies, and joins each step's facet vertex
    to its smallest-index joint among the facets before it.
    ``enumerate_trees`` gives every tree across all leaf orders and joint
    choices.
    """
    found = _tree_on(dual_generators(D))
    if found is None:
        raise ValueError("not a quasi-forest: no leaf order exists")
    return found[1]


def _tree_on(I: MonomialIdeal) -> tuple[tuple[int, ...], LabeledComplex] | None:
    """The leaf order ``build_tree`` follows on the dual of the squarefree
    ideal I and the tree it builds, labeled by I's generators; None when
    the dual has no leaf order.

    The dual's facets are the complements of the generator supports, in
    generator order; ``_leaf_search`` orders them and ``_step_joints``
    certifies the order.  One facet gives ``((0,), [])`` even when it is
    empty, so a principal ideal gets its single-vertex tree.
    """
    full = (1 << I.vars.n) - 1
    found = _leaf_search([full ^ m for m in I._masks])
    if found is None:
        return None
    order, edges = found
    return order, LabeledComplex(_tree_complex(I.q, edges), I.generators)


def enumerate_trees(D: SimplicialComplex) -> Iterator[LabeledComplex]:
    """Every distinct labeled tree the construction can produce; refuses
    past _TREE_GUARD partial edge lists across all leaf orders."""
    labels = dual_generators(D).generators
    seen: set[frozenset[tuple[int, int]]] = set()
    walked = 0

    for order in all_leaf_orders(D):
        trees: list[tuple[tuple[int, int], ...]] = [()]  # edges of each tree
        for i, joints in enumerate(_step_joints(D._facet_masks, order), start=1):
            walked += len(trees) * len(joints)
            if walked > _TREE_GUARD:
                raise ValueError(f"tree enumeration guard exceeded (limit {_TREE_GUARD})")
            trees = [(*edges, (j, order[i])) for edges in trees for j in joints]
        for edges in trees:
            key = frozenset([tuple(sorted(e)) for e in edges])
            if key in seen:
                continue
            seen.add(key)
            yield LabeledComplex(_tree_complex(D.q, edges), labels)


def floystad_tree(I: MonomialIdeal) -> LabeledComplex:
    """Spanning tree of the complete generator graph, grown degree by degree.

    Candidate edges are taken in (lcm total degree, row, col) order and
    added when they keep the subgraph acyclic, so every degree slice is a
    spanning forest of the corresponding label-degree subgraph.  The dual
    must have a leaf order, which the search of ``_tree_on`` decides.
    """
    if not I.is_squarefree():
        raise ValueError("needs a squarefree ideal; polarize first")
    if _tree_on(I) is None:
        raise ValueError("projective dimension exceeds 1: no spanning construction")
    q, gens = I.q, I.generators
    candidates = sorted(
        ((lcm(gens[i], gens[j]).degree(), i, j)
         for i in range(q) for j in range(i + 1, q)),
    )
    edges = _forest_edges(q, [(i, j) for _, i, j in candidates])
    return LabeledComplex(_tree_complex(q, edges), gens)


# ---------------------------------------------------------------------------
# Frames: same shapes with every monomial set to 1.
# ---------------------------------------------------------------------------

def frame(F: FreeComplex) -> Frame:
    """Forget the monomials, keep the signs."""
    return Frame(F.ranks, F.differentials)


def frame_to_graph(fr: Frame):
    """Vertices from degree 1, one edge per degree-2 column.

    Needs a length-2 frame whose degree-2 columns each hold exactly one +1
    and one -1; returns None when that shape fails.
    """
    if len(fr.dims) != 3:
        return None
    columns: list[list[tuple[int, int]]] = [[] for _ in range(fr.dims[2])]
    for row, col, value in fr.differentials[1]:
        columns[col].append((value, row))
    edges = []
    for column in columns:
        column.sort()
        if [value for value, _ in column] != [-1, 1]:
            return None
        edges.append((column[0][1], column[1][1]))
    return tuple(edges)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def free_complex_to_json(F: FreeComplex) -> dict:
    """Each entry's monomial is its column exponents minus its row
    exponents, exact because ``FreeComplex`` has checked that the row
    divides the column."""
    exps = [[m.exponents for m in module] for module in F.modules]
    return {
        "vars": list(F.vars.names),
        "ranks": list(F.ranks),
        "multidegrees": [[list(m) for m in module] for module in exps],
        "differentials": [
            [
                {
                    "row": row,
                    "col": col,
                    "sign": sign,
                    "monomial": [*map(sub, cols[col], rows[row])],
                }
                for row, col, sign in entries
            ]
            for rows, cols, entries in zip(exps, exps[1:], F.differentials)
        ],
    }


def labeled_complex_to_json(L: LabeledComplex) -> dict:
    D = L.complex
    return {
        "vars": list(L.label_vars.names),
        "vertices": list(D.vertices.names),
        "facets": _facet_names(D),
        "labels": {
            v: str(m) for v, m in zip(D.vertices.names, L.labels)
        },
    }


def tree_to_dot(L: LabeledComplex) -> str:
    """DOT graph: vertices labeled by their monomials, edges by lcms."""
    D = L.complex
    lines = ["graph tree {"]
    for v in D.vertices.names:
        lines.append(f'  {v} [label="{L.label_of(v)}"];')
    for a, b in (f for f in _facet_names(D) if len(f) == 2):
        lines.append(f'  {a} -- {b} [label="{lcm(L.label_of(a), L.label_of(b))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
