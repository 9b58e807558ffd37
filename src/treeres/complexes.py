"""Simplicial complexes as facet antichains over an ambient vertex universe.

The `vertices` field is the ambient universe and may be larger than the
union of the facets, the vertices the complex itself uses (needed so
duality can invert complements).  Facet order is significant because leaf
orders are orders on the facet list; equality and hashing use the
canonical (sorted) form instead.

A complex stores its facets as vertex bitmasks, bit i being universe
vertex i, and faces, components and the leaf machinery run on them.  This
module alone turns bits into names: for the name constructor, the public
API's frozensets of vertex names, ``repr`` and the JSON form, and, through
``_facet_names``, for every other module that prints a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .monomial import VariableSet

SUBSET_GUARD = 20  # 2^n / 2^q enumerations refuse to run past this


@dataclass(frozen=True)
class EmptyComplex:
    """Distinguished outcome: no nonempty faces (only the empty face)."""

    vertices: VariableSet


@dataclass(frozen=True)
class VoidComplex:
    """Distinguished outcome: no faces at all; Alexander dual of the full simplex."""

    vertices: VariableSet


@dataclass(frozen=True, eq=False, init=False)
class SimplicialComplex:
    """A facet antichain over the universe ``vertices``, stored as facet
    masks in presentation order.  ``SimplicialComplex(vertices, facets)``
    takes facets as collections of names, package code that holds masks
    calls ``_of_masks``, and both run one antichain check on the masks;
    ``facets`` gives them back as name frozensets."""

    vertices: VariableSet
    _facet_masks: tuple[int, ...]

    def __init__(self, vertices: VariableSet, facets: Iterable[Iterable[str]]):
        facets = [frozenset(f) for f in facets]
        outside = frozenset().union(*facets).difference(vertices.names)
        if outside:
            raise ValueError(f"facet vertex {min(outside)!r} outside the universe")
        self._hold(vertices, [sum([1 << vertices.index(v) for v in f]) for f in facets])

    @classmethod
    def _of_masks(cls, vertices: VariableSet, masks: Sequence[int]) -> SimplicialComplex:
        D = cls.__new__(cls)
        D._hold(vertices, masks)
        return D

    def _hold(self, vertices: VariableSet, masks: Sequence[int]) -> None:
        """Store the universe and the masks once they pass the antichain check."""
        if not masks:
            raise ValueError("a complex needs at least one facet")
        if not all(masks):
            raise ValueError("facets must be nonempty")
        # A mask lies only in its equal or in a mask with more bits; the
        # sizes spare the big-integer test on the other pairs.
        sizes = [m.bit_count() for m in masks]
        for i, f in enumerate(masks):
            for j, g in enumerate(masks):
                if i != j and (f == g or sizes[i] < sizes[j] and f & ~g == 0):
                    f, g = (sorted(_mask_names(vertices.names, m)) for m in (f, g))
                    raise ValueError(f"facets are not an antichain: {f} within {g}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_facet_masks", tuple(masks))

    @cached_property
    def facets(self) -> tuple[frozenset[str], ...]:
        return tuple([frozenset(f) for f in _facet_names(self)])

    # Equality and hashing compare names, since equal complexes may list
    # their vertices in different orders; presentation order is available
    # via .facets for leaf-order semantics.
    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return set(self.vertices.names) == set(other.vertices.names) and set(
            self.facets
        ) == set(other.facets)

    def __hash__(self):
        return hash((frozenset(self.vertices.names), frozenset(self.facets)))

    @property
    def n(self) -> int:
        return self.vertices.n

    @property
    def q(self) -> int:
        return len(self._facet_masks)

    @property
    def dim(self) -> int:
        return max([m.bit_count() for m in self._facet_masks]) - 1

    def __repr__(self):
        facets = ", ".join("{" + ",".join(f) + "}" for f in _facet_names(self))
        return f"<{facets}> on {{{', '.join(self.vertices.names)}}}"


def full_simplex(vertices: VariableSet) -> SimplicialComplex:
    return SimplicialComplex._of_masks(vertices, [(1 << vertices.n) - 1])


def is_full_simplex(D: SimplicialComplex) -> bool:
    return D._facet_masks == ((1 << D.n) - 1,)


# ---------------------------------------------------------------------------
# Shared primitives: vertex bitmasks, union-find, the submask sweep, the
# transpose of a mask matrix, masks by size, and faces bucketed for
# boundary matrices.
# ---------------------------------------------------------------------------

def _mask_names(names: Sequence[str], mask: int) -> list[str]:
    """The names whose positions are set in mask, in order."""
    return [name for i, name in enumerate(names) if mask >> i & 1]


def _facet_names(D: SimplicialComplex) -> list[list[str]]:
    """Each facet's vertex names in vertex order, facets in presentation
    order: the one source of names for printing a complex."""
    return [_mask_names(D.vertices.names, m) for m in D._facet_masks]


def _name_sorted(vertices: VariableSet, masks: Iterable[int]) -> list[int]:
    """The masks ordered as ``sorted`` orders their name lists (x10 before x2)."""
    return sorted(masks, key=lambda m: _mask_names(vertices.names, m))


def _union(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


class _DisjointSets:
    """Union-find over range(n) with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def groups(self, items: Iterable[int]) -> list[list[int]]:
        """The given items grouped by set, groups in order of first item."""
        out: dict[int, list[int]] = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def _forest_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges, in order, that each join two components of the graph on
    range(n) built from the edges before them (Kruskal's picks)."""
    sets = _DisjointSets(n)
    return [(a, b) for a, b in edges if sets.union(a, b)]


def _vertex_components(n: int, facet_masks: Iterable[int]) -> list[int]:
    """Components of the complex with these facet masks over range(n), as
    vertex masks in order of smallest vertex; a vertex in no facet is a
    singleton.  Each facet joins its lowest vertex to its others."""
    sets = _DisjointSets(n)
    for f in facet_masks:
        first = (f & -f).bit_length() - 1
        rest = f & (f - 1)
        while rest:
            low = rest & -rest
            sets.union(first, low.bit_length() - 1)
            rest ^= low
    return [sum([1 << v for v in group]) for group in sets.groups(range(n))]


def _submasks(facet_masks: Iterable[int]) -> set[int]:
    """Every nonzero submask of the facet masks: the nonempty faces."""
    out: set[int] = set()
    for f in facet_masks:
        s = f
        while s:
            out.add(s)
            s = (s - 1) & f
    return out


def _transpose(masks: Sequence[int]) -> list[int]:
    """The columns of the 0/1 matrix whose row i is masks[i]: one mask of
    row positions per bit set in some row, in bit order."""
    union = _union(masks)
    columns = []
    while union:
        low = union & -union
        column, row = 0, 1
        for m in masks:
            if m & low:
                column |= row
            row <<= 1
        columns.append(column)
        union ^= low
    return columns


def _face_masks(D: SimplicialComplex) -> set[int]:
    """The nonempty faces of D as vertex bitmasks; refuses past
    2^SUBSET_GUARD facet subsets in total."""
    masks = D._facet_masks
    count, limit = sum([1 << m.bit_count() for m in masks]), 1 << SUBSET_GUARD
    if count > limit:
        raise ValueError(
            f"face enumeration guard exceeded ({count} facet subsets, limit {limit})"
        )
    return _submasks(masks)


# n -> the nonempty masks over n bits, sorted by (popcount, value).
_MASKS_BY_SIZE: dict[int, tuple[int, ...]] = {}


def _masks_by_size(n: int) -> tuple[int, ...]:
    """The nonempty masks over n bits, sorted by (popcount, value)."""
    masks = _MASKS_BY_SIZE.get(n)
    if masks is None:
        masks = _MASKS_BY_SIZE[n] = tuple(
            sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
        )
    return masks


def _faces_by_dim(face_masks: Iterable[int]) -> list[list[int]]:
    """Faces as vertex bitmasks, one bucket per size, each bucket in
    input order.

    Bucket k holds the faces of size k, so the empty face 0 comes first
    and the buckets index the augmented complex.
    """
    by_dim: list[list[int]] = [[0]]
    for mask in face_masks:
        size = mask.bit_count()
        while len(by_dim) <= size:
            by_dim.append([])
        by_dim[size].append(mask)
    return by_dim


def _signed_boundary(
    by_dim: Sequence[Sequence[int]], d: int
) -> Iterator[tuple[int, int, int]]:
    """(row, col, sign) entries of the simplicial boundary from bucket d to d-1.

    Each face drops one set bit at a time, lowest first; the sign
    alternates over the lower set bits, that is along the increasing
    vertex order of the face.
    """
    position = {face: p for p, face in enumerate(by_dim[d - 1])}
    for col, face in enumerate(by_dim[d]):
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            yield position[face ^ low], col, sign
            sign = -sign
            rest ^= low


# ---------------------------------------------------------------------------
# Mask-level leaf machinery.
# ---------------------------------------------------------------------------

def _joint_positions(masks: Sequence[int], i: int) -> list[int]:
    r = 0
    fi = masks[i]
    for j, m in enumerate(masks):
        if j != i:
            r |= fi & m
    return [j for j in range(len(masks)) if j != i and r & ~masks[j] == 0]


def _is_leaf(masks: Sequence[int], i: int) -> bool:
    return len(masks) == 1 or bool(_joint_positions(masks, i))


def _step_joints(
    masks: Sequence[int], order: Sequence[int]
) -> list[list[int]] | None:
    """For each step i >= 1 of the order, the facets (by index) that are
    joints of facet order[i] in the prefix, earliest in the order first;
    None at the first step whose facet has no joint there."""
    prefix = [masks[order[0]]]
    steps = []
    for i in range(1, len(order)):
        prefix.append(masks[order[i]])
        joints = _joint_positions(prefix, i)
        if not joints:
            return None
        steps.append([order[u] for u in joints])
    return steps


def _has_leaf(masks: Sequence[int]) -> bool:
    return any(_is_leaf(masks, i) for i in range(len(masks)))


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks that lie in no other mask, most bits first.

    A mask can lie only in a mask with at least as many bits, so one pass
    in order of falling popcount keeps each mask that no kept mask
    contains.
    """
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in kept:
            if m & ~k == 0:
                break
        else:
            kept.append(m)
    return kept


def _leaf_search(masks: Sequence[int]):
    """Maximum cardinality search (Tarjan-Yannakakis) for a leaf order.

    Takes next the facet meeting the union of those taken in the most
    vertices, smallest index on ties; ``_step_joints`` certifies the order.
    Returns ``(order, edges)``, each edge ``(joint, order[i])`` going to
    the step's smallest-index joint; None exactly when no leaf order exists.
    """
    left, order, seen = list(range(len(masks))), [], 0
    while left:
        i = max(left, key=lambda j: (masks[j] & seen).bit_count())
        left.remove(i)
        order.append(i)
        seen |= masks[i]
    steps = _step_joints(masks, order)
    if steps is None:
        return None
    return tuple(order), [(min(j), i) for j, i in zip(steps, order[1:])]


def _all_leaf_orders(masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every leaf order, found by peeling leaves in every removal order.

    The recursion peels a leaf of the active subcollection; a full removal
    list reversed is a leaf order (peeled-first comes last).  A
    subcollection whose removals yielded no order is recorded and never
    explored again, so a complex without a leaf order is rejected without
    trying every removal order.
    """
    dead: set[frozenset[int]] = set()

    def go(active: frozenset[int], acc: list[int]) -> Iterator[tuple[int, ...]]:
        if not active:
            yield tuple(reversed(acc))
            return
        if active in dead:
            return
        found = False
        order = sorted(active)
        sub = [masks[i] for i in order]
        for p, idx in enumerate(order):
            if _is_leaf(sub, p):
                acc.append(idx)
                for result in go(active - {idx}, acc):
                    found = True
                    yield result
                acc.pop()
        if not found:
            dead.add(active)

    yield from go(frozenset(range(len(masks))), [])


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def faces(D: SimplicialComplex) -> frozenset[frozenset[str]]:
    """All nonempty faces; refuses past 2^SUBSET_GUARD facet subsets in total."""
    names = D.vertices.names
    return frozenset([frozenset(_mask_names(names, m)) for m in _face_masks(D)])


def f_vector(D: SimplicialComplex) -> tuple[int, ...]:
    counts = [0] * (D.dim + 1)
    for m in _face_masks(D):
        counts[m.bit_count() - 1] += 1
    return tuple(counts)


def induced(D: SimplicialComplex, W: Iterable[str]):
    """Faces of D contained in W, in canonical facet form.

    The result's universe is the set of vertices actually present; if no
    face lands inside W the distinguished EmptyComplex comes back.
    """
    wset = frozenset(W)
    if not wset:
        raise ValueError("W must be nonempty")
    for v in wset:
        if v not in D.vertices:
            raise ValueError(f"W contains {v!r}, not a universe vertex")
    wmask = sum([1 << D.vertices.index(v) for v in wset])
    pieces = _maximal(m for m in (f & wmask for f in D._facet_masks) if m)
    if not pieces:
        sub_names = tuple([n for n in D.vertices.names if n in wset])
        return EmptyComplex(VariableSet(sub_names))
    names = D.vertices.names
    new_facets = sorted([_mask_names(names, m) for m in pieces])
    return SimplicialComplex(
        VariableSet(tuple(_mask_names(names, _union(pieces)))), new_facets
    )


def leaf_order(D: SimplicialComplex, mode: str = "greedy"):
    """A facet ordering where each facet is a leaf of the preceding prefix.

    None when no such order exists.  `greedy` is the order of the maximum
    cardinality search (`_leaf_search`), certified by `_step_joints`;
    `exhaustive` is the first of `all_leaf_orders`, found by backtracking
    over removal orders, and is the oracle the greedy search is tested
    against.
    """
    if mode == "greedy":
        found = _leaf_search(D._facet_masks)
        return None if found is None else found[0]
    if mode == "exhaustive":
        return next(_all_leaf_orders(D._facet_masks), None)
    raise ValueError(f"unknown mode {mode!r}")


def all_leaf_orders(D: SimplicialComplex) -> Iterator[tuple[int, ...]]:
    return _all_leaf_orders(D._facet_masks)


def is_leaf_order(D: SimplicialComplex, order: Sequence[int]) -> bool:
    order = list(order)
    return sorted(order) == list(range(D.q)) and (
        _step_joints(D._facet_masks, order) is not None
    )


def is_quasi_forest_by_induced(D: SimplicialComplex) -> bool:
    """Every nonempty W of universe vertices induces a subcomplex with a leaf.

    Subsets missing every face induce the empty complex, which counts
    vacuously.  Brute force over 2^n subsets.
    """
    if D.n > SUBSET_GUARD:
        raise ValueError(f"induced-subcomplex guard exceeded (n={D.n})")
    fmasks = D._facet_masks
    for w in range(1, 1 << D.n):
        pieces = _maximal(m for m in (f & w for f in fmasks) if m)
        if pieces and not _has_leaf(pieces):
            return False
    return True


def is_simplicial_forest(D: SimplicialComplex) -> bool:
    """Every nonempty subcollection has a leaf.

    On a graph (dim <= 1) this is acyclicity.  A vertex facet is always a
    leaf, and an edge is a leaf of a subcollection iff one of its endpoints
    has degree 1 there, so a leafless subcollection is a set of edges with
    every degree >= 2: a graph has one iff it has a cycle, that is iff it
    has more than n - c edges for its c components.  Higher dimensions
    sweep all 2^q subcollections.
    """
    if D.dim <= 1:
        edges = [f for f in D._facet_masks if f.bit_count() == 2]
        return len(edges) == D.n - len(_vertex_components(D.n, edges))
    return _subcollections_have_leaves(D._facet_masks)


def _subcollections_have_leaves(masks: Sequence[int]) -> bool:
    """Every nonempty subcollection of the facet masks has a leaf; brute force over 2^q."""
    q = len(masks)
    if q > SUBSET_GUARD:
        raise ValueError(f"subcollection guard exceeded (q={q})")
    for sel in range(1, 1 << q):
        sub = [masks[i] for i in range(q) if sel >> i & 1]
        if not _has_leaf(sub):
            return False
    return True


def connected_components(D: SimplicialComplex) -> tuple[frozenset[str], ...]:
    """Partition of the universe in order of smallest vertex; unused
    ambient vertices are singletons."""
    names = D.vertices.names
    return tuple([
        frozenset(_mask_names(names, c))
        for c in _vertex_components(D.n, D._facet_masks)
    ])


def is_connected(D: SimplicialComplex) -> bool:
    """One component holds every vertex that lies in a facet; ambient
    vertices in no facet do not count."""
    return _union(D._facet_masks) in _vertex_components(D.n, D._facet_masks)


# ---------------------------------------------------------------------------
# JSON form: {"vertices": [...], "facets": [[...], ...]}, facet order kept.
# ---------------------------------------------------------------------------

def complex_to_json(D) -> dict:
    if isinstance(D, EmptyComplex):
        return {"vertices": list(D.vertices.names), "facets": []}
    return {"vertices": list(D.vertices.names), "facets": _facet_names(D)}


def _is_name_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def complex_from_json(obj: dict):
    if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
        raise ValueError("complex JSON needs 'vertices' and 'facets'")
    if not _is_name_list(obj["vertices"]) or not (
        isinstance(obj["facets"], list) and all(map(_is_name_list, obj["facets"]))
    ):
        raise ValueError(
            "complex JSON needs 'vertices' as a list of names "
            "and 'facets' as a list of name lists"
        )
    vars = VariableSet(tuple(obj["vertices"]))
    if not obj["facets"]:
        return EmptyComplex(vars)
    return SimplicialComplex(vars, obj["facets"])
