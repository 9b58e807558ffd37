"""Stanley-Reisner operators, Alexander duality, and the complement
correspondence between facets and squarefree generators.

Everything is computed relative to the complex's stored ambient universe.
The empty complex (only the empty face) and the void complex (no faces at
all) are honest values here so that the duality round trips close up:
full simplex <-> void, boundary-of-simplex <-> empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    EmptyComplex,
    SimplicialComplex,
    SUBSET_GUARD,
    VoidComplex,
    _masks_by_size,
    full_simplex,
    is_full_simplex,
)
from .monomial import Monomial, MonomialIdeal, VariableSet


@dataclass(frozen=True)
class ZeroIdeal:
    """Distinguished outcome: the full simplex has no non-faces."""

    vars: VariableSet


def _mask_monomial(vars: VariableSet, mask: int) -> Monomial:
    return Monomial(vars, tuple(1 if mask >> i & 1 else 0 for i in range(vars.n)))


def _guard(n: int) -> None:
    if n > SUBSET_GUARD:
        raise ValueError(f"subset-lattice guard exceeded (n={n})")


def _maximal_faces(vars: VariableSet, is_face):
    """Complex on vars whose faces are the nonempty masks passing is_face.

    is_face must be closed under taking subsets.  Masks are swept by
    descending size, so the first face not inside a recorded facet is a
    facet.
    """
    _guard(vars.n)
    n = vars.n
    facets: list[int] = []
    for mask in reversed(_masks_by_size(n)):
        if is_face(mask) and not any(mask & ~f == 0 for f in facets):
            facets.append(mask)
    if not facets:
        return EmptyComplex(vars)
    names = vars.names
    fsets = sorted(
        tuple(names[i] for i in range(n) if m >> i & 1) for m in facets
    )
    return SimplicialComplex(vars, tuple(frozenset(f) for f in fsets))


def sr_ideal(D):
    """Squarefree ideal generated by the minimal non-faces of D."""
    if isinstance(D, EmptyComplex):
        vars = D.vertices
        gens = tuple(_mask_monomial(vars, 1 << i) for i in range(vars.n))
        return MonomialIdeal(vars, gens)
    if is_full_simplex(D):
        return ZeroIdeal(D.vertices)
    _guard(D.n)
    fmasks = D._facet_masks
    minimal: list[int] = []
    # Size-ascending sweep; supersets of a recorded non-face are skipped.
    for mask in _masks_by_size(D.n):
        if any(mask & ~f == 0 for f in fmasks):
            continue  # a face
        if any(mask & mnf == mnf for mnf in minimal):
            continue  # contains a smaller non-face
        minimal.append(mask)
    gens = tuple(_mask_monomial(D.vertices, m) for m in minimal)
    return MonomialIdeal(D.vertices, gens)


def sr_complex(I: MonomialIdeal):
    """Complex of supports of squarefree monomials outside I."""
    if not I.is_squarefree():
        raise ValueError("Stanley-Reisner complex needs a squarefree ideal; polarize first")
    gmasks = [g.support_mask for g in I.generators]
    # A face: no generator's support lies inside the mask.
    return _maximal_faces(I.vars, lambda mask: all(g & ~mask for g in gmasks))


def alexander_dual(D):
    """Complements of non-faces over the stored universe; an involution."""
    if isinstance(D, VoidComplex):
        return full_simplex(D.vertices)
    if isinstance(D, EmptyComplex):
        n = D.vertices.n
        if n == 1:
            return EmptyComplex(D.vertices)
        names = D.vertices.names
        facets = tuple(
            frozenset(names[:i] + names[i + 1:]) for i in range(n)
        )
        return SimplicialComplex(D.vertices, facets)
    if is_full_simplex(D):
        return VoidComplex(D.vertices)
    full = (1 << D.n) - 1
    fmasks = D._facet_masks

    def is_face(mask: int) -> bool:
        # The empty face belongs to every complex here.
        return mask == 0 or any(mask & ~f == 0 for f in fmasks)

    return _maximal_faces(D.vertices, lambda mask: not is_face(full & ~mask))


def dual_facets(I: MonomialIdeal) -> SimplicialComplex:
    """One facet per generator: the complement of its support.

    Facet order equals generator order; the ambient universe is the
    ideal's variable set.
    """
    if not I.is_squarefree():
        raise ValueError("dual facets need a squarefree ideal; polarize first")
    names = I.vars.names
    facets = []
    for g in I.generators:
        support = g.support()
        comp = frozenset(n for n in names if n not in support)
        if not comp:
            raise ValueError(f"generator {g} uses every variable")
        facets.append(comp)
    return SimplicialComplex(I.vars, tuple(facets))


def dual_generators(D: SimplicialComplex) -> MonomialIdeal:
    """One generator per facet: the product over the facet's complement.

    Generator order equals facet order; complements of an antichain are an
    antichain, so the result is automatically minimal.
    """
    gens = []
    for f in D.facets:
        comp = {n: 1 for n in D.vertices.names if n not in f}
        if not comp:
            raise ValueError(
                f"facet {{{','.join(sorted(f))}}} equals the universe"
            )
        gens.append(Monomial.from_powers(D.vertices, comp))
    return MonomialIdeal(D.vertices, tuple(gens))
