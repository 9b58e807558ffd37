"""Seeded input generators whose answers are known by construction.

Complexes are lists of facets, each a frozenset of vertex indices.
Vertices and facets are shuffled before they are returned, so the
program has to find a leaf order itself rather than read one off the
input order.

* ``quasi_forest`` grows a complex by leaf attachment: every new facet is
  a proper subset of an existing facet plus at least one fresh vertex.
  The existing facet is a joint of the new one in the prefix, so the
  construction order is a leaf order and the complex is a quasi-forest.
* ``four_cycle_complex`` starts from the four edges of a 4-cycle on
  ``{0, 1, 2, 3}`` (each possibly widened by fresh vertices) and attaches
  further facets that meet ``{0, 1, 2, 3}`` in at most one vertex.  The
  subcomplex induced on those four vertices stays the 4-cycle, which has
  no leaf, so the complex is not a quasi-forest.
* ``dense_ideal`` draws q distinct antichain supports of size 2 or 3 over
  about q variables; its label comes from the program's exhaustive leaf
  order at set-up, not from construction.
"""

from __future__ import annotations

import random

SHAPES = ("random", "path", "star", "caterpillar")
CYCLE = frozenset(range(4))


def _proper_subset(rng: random.Random, parent: frozenset[int]) -> frozenset[int]:
    """A nonempty proper subset of ``parent`` (empty when |parent| = 1)."""
    items = sorted(parent)
    size = rng.randint(1, len(items) - 1) if len(items) > 1 else 0
    return frozenset(rng.sample(items, size))


def _shuffled(rng: random.Random, n: int, facets: list[frozenset[int]]):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [frozenset(perm[v] for v in f) for f in facets]
    rng.shuffle(out)
    return n, out


def quasi_forest(rng: random.Random, q: int, shape: str = "random"):
    """(n, facets) of a quasi-forest with q facets grown by leaf attachment.

    ``shape`` picks the facet each new one attaches to: ``path`` the
    previous one, ``star`` the first one, ``caterpillar`` the end of a
    spine or a random spine facet, ``random`` any earlier facet.
    """
    if q < 2:
        raise ValueError("need at least two facets")
    first = frozenset(range(rng.randint(2, 4)))
    facets = [first]
    spine = [first]
    n = len(first)
    for _ in range(q - 1):
        if shape == "path":
            parent = facets[-1]
        elif shape == "star":
            parent = first
        elif shape == "caterpillar":
            parent = spine[-1] if rng.random() < 0.5 else rng.choice(spine)
        elif shape == "random":
            parent = rng.choice(facets)
        else:
            raise ValueError(f"unknown shape {shape!r}")
        fresh = rng.randint(1, 2)
        new = _proper_subset(rng, parent) | frozenset(range(n, n + fresh))
        n += fresh
        facets.append(new)
        if shape == "caterpillar" and parent is spine[-1]:
            spine.append(new)
    return _shuffled(rng, n, facets)


def four_cycle_complex(rng: random.Random, q: int):
    """(n, facets) with q facets and an induced 4-cycle on four vertices."""
    if q < 4:
        raise ValueError("need at least four facets")
    n = 4
    facets = []
    for i in range(4):
        extra = rng.randint(0, 1)
        facets.append(
            frozenset({i, (i + 1) % 4}) | frozenset(range(n, n + extra))
        )
        n += extra
    for _ in range(q - 4):
        parent = rng.choice(facets)
        keep = _proper_subset(rng, parent)
        on_cycle = sorted(keep & CYCLE)
        if len(on_cycle) > 1:
            keep -= frozenset(on_cycle[1:])
        fresh = rng.randint(1, 2)
        facets.append(keep | frozenset(range(n, n + fresh)))
        n += fresh
    return _shuffled(rng, n, facets)


def dense_supports(rng: random.Random, q: int) -> tuple[int, list[frozenset[int]]]:
    """(n, supports): q distinct antichain supports of size 2-3 on n ~ q variables."""
    n = q
    supports: list[frozenset[int]] = []
    while len(supports) < q:
        cand = frozenset(rng.sample(range(n), rng.choice((2, 2, 3))))
        if any(cand <= s or s <= cand for s in supports):
            continue
        supports.append(cand)
    return n, supports
