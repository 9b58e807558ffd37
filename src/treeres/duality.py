"""Stanley-Reisner operators, Alexander duality, and the complement
correspondence between facets and squarefree generators.

Everything is computed relative to the complex's stored ambient universe.
The empty complex (only the empty face) and the void complex (no faces at
all) are honest values here so that the duality round trips close up:
full simplex <-> void, boundary-of-simplex <-> empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import (
    EmptyComplex,
    SimplicialComplex,
    SUBSET_GUARD,
    VoidComplex,
    _masks_by_size,
    _name_sorted,
    _submasks,
    full_simplex,
    is_full_simplex,
)
from .monomial import MonomialIdeal, VariableSet


@dataclass(frozen=True)
class ZeroIdeal:
    """Distinguished outcome: the full simplex has no non-faces."""

    vars: VariableSet


def _guard(n: int) -> None:
    if n > SUBSET_GUARD:
        raise ValueError(f"subset-lattice guard exceeded (n={n})")


def _minimal_nonfaces(n: int, facet_masks: Iterable[int]) -> list[int]:
    """Minimal non-faces of the complex with these facet masks over n
    vertices, in (size, value) order.

    The faces are the submasks of the facets, the empty face included; a
    non-face is minimal when dropping any one of its vertices leaves a face.
    """
    _guard(n)
    faces = _submasks(facet_masks) | {0}
    minimal: list[int] = []
    for mask in _masks_by_size(n):
        if mask in faces:
            continue
        rest = mask
        while rest:
            low = rest & -rest
            if (mask ^ low) not in faces:
                break
            rest ^= low
        else:
            minimal.append(mask)
    return minimal


def _complement_complex(vars: VariableSet, masks: list[int]):
    """Complex whose facet masks are the complements of these masks, in
    the order ``sorted`` gives their name lists; the full mask alone has
    the empty face as its complement, which gives the empty complex."""
    full = (1 << vars.n) - 1
    if masks == [full]:
        return EmptyComplex(vars)
    return SimplicialComplex._of_masks(
        vars, _name_sorted(vars, [full ^ m for m in masks])
    )


def sr_ideal(D):
    """Squarefree ideal generated by the minimal non-faces of D."""
    vars = D.vertices
    if isinstance(D, EmptyComplex):
        return MonomialIdeal._of_masks(vars, [1 << i for i in range(vars.n)])
    if is_full_simplex(D):
        return ZeroIdeal(vars)
    return MonomialIdeal._of_masks(vars, _minimal_nonfaces(vars.n, D._facet_masks))


def sr_complex(I: MonomialIdeal):
    """Complex of supports of squarefree monomials outside I.

    Its facets are the complements of the minimal non-faces of the complex
    whose facets are the complements of the generator supports: a mask
    avoids containing every support iff its complement meets every support.
    """
    if not I.is_squarefree():
        raise ValueError("Stanley-Reisner complex needs a squarefree ideal; polarize first")
    full = (1 << I.vars.n) - 1
    cofaces = [full ^ m for m in I._masks if m != full]
    return _complement_complex(I.vars, _minimal_nonfaces(I.vars.n, cofaces))


def alexander_dual(D):
    """Complements of non-faces over the stored universe; an involution.

    Its facets are the complements of the minimal non-faces of D.
    """
    if isinstance(D, VoidComplex):
        return full_simplex(D.vertices)
    if isinstance(D, EmptyComplex):
        n = D.vertices.n
        if n == 1:
            return EmptyComplex(D.vertices)
        full = (1 << n) - 1
        return SimplicialComplex._of_masks(
            D.vertices, [full ^ (1 << i) for i in range(n)]
        )
    if is_full_simplex(D):
        return VoidComplex(D.vertices)
    return _complement_complex(D.vertices, _minimal_nonfaces(D.n, D._facet_masks))


def dual_facets(I: MonomialIdeal) -> SimplicialComplex:
    """One facet mask per generator: the complement of its support mask.

    Facet order equals generator order; the ambient universe is the
    ideal's variable set.
    """
    if not I.is_squarefree():
        raise ValueError("dual facets need a squarefree ideal; polarize first")
    full = (1 << I.vars.n) - 1
    masks = [full ^ m for m in I._masks]
    if not all(masks):
        raise ValueError(f"generator {I.generators[masks.index(0)]} uses every variable")
    return SimplicialComplex._of_masks(I.vars, masks)


def dual_generators(D: SimplicialComplex) -> MonomialIdeal:
    """One generator per facet: the product over the facet's complement.

    Generator order equals facet order; complements of an antichain are an
    antichain, so the result is automatically minimal.
    """
    full = (1 << D.n) - 1
    if full in D._facet_masks:
        raise ValueError(
            f"facet {{{','.join(sorted(D.vertices.names))}}} equals the universe"
        )
    return MonomialIdeal._of_masks(D.vertices, [full ^ m for m in D._facet_masks])
