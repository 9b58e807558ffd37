"""Exact linear algebra over the rationals and the homology oracles.

Everything here is independent of the tree constructions it is used to
check: ranks come from sparse row reduction over the rationals,
reduced homology from augmented boundary matrices, and the graded Betti
numbers from strict-divisor subcomplexes of the labeled full simplex on
the generators.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Sequence

from .complexes import (
    EmptyComplex,
    VoidComplex,
    _face_masks,
    _faces_by_dim,
    _is_name_list,
    _signed_boundary,
)
from .monomial import Monomial, MonomialIdeal, VariableSet, exponent_masks, lcm_closure
from .resolution import Frame, _squares_to_zero

FACE_GUARD = 1 << 16
BETTI_GUARD = 12


def _rank(nrows: int, entries: Iterable[tuple[int, int, object]]) -> int:
    """Rank over the rationals of the nrows-row matrix with the given
    (row, col, value) entries, by sparse row reduction.

    Each row is reduced by the stored pivot rows in order of its leading
    column; a row that survives is scaled to lead with 1 and stored.
    Scaling by -1 keeps integers, so a Fraction appears only under a
    leading value other than +1 or -1.
    """
    rows: list[dict[int, object]] = [{} for _ in range(nrows)]
    for row, col, value in entries:
        if value:
            rows[row][col] = value
    pivots: dict[int, dict[int, object]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                a = row[lead]
                if a == -1:
                    row = {col: -value for col, value in row.items()}
                elif a != 1:
                    row = {col: Fraction(value) / a for col, value in row.items()}
                pivots[lead] = row
                break
            factor = row[lead]
            for col, value in pivot.items():
                x = row.get(col, 0) - factor * value
                if x:
                    row[col] = x
                else:
                    del row[col]
    return len(pivots)


def rank_exact(M) -> int:
    """Rank over the rationals of a matrix given as a list of rows."""
    return _rank(
        len(M),
        ((r, c, value) for r, row in enumerate(M) for c, value in enumerate(row)),
    )


# ---------------------------------------------------------------------------
# Reduced simplicial homology over the rationals.
# ---------------------------------------------------------------------------

def _homology(
    dims: Sequence[int], differentials: Iterable[Iterable[tuple[int, int, int]]]
) -> tuple[int, ...]:
    """dims[i] - rank d_i - rank d_{i+1} in every degree i of a complex
    whose d_i (from degree i to i-1) has the (row, col, value) entries
    differentials[i-1].

    Each d_i goes to the sparse elimination as it is.
    """
    ranks = [0]
    for i, entries in enumerate(differentials, start=1):
        ranks.append(_rank(dims[i - 1], entries))
    ranks.append(0)
    return tuple([dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(dims)])


def _mask_homology(face_masks: Collection[int]) -> tuple[int, ...]:
    """Reduced homology dimensions, indexed from degree -1, of the complex
    whose nonempty faces are these distinct vertex bitmasks; no faces at all
    is the complex with only the empty face, a single 1 in degree -1."""
    if len(face_masks) > FACE_GUARD:
        raise ValueError(f"homology guard exceeded ({len(face_masks)} faces)")
    by_dim = _faces_by_dim(face_masks)
    return _homology(
        [len(bucket) for bucket in by_dim],
        (_signed_boundary(by_dim, d) for d in range(1, len(by_dim))),
    )


def reduced_homology_dims(D) -> tuple[int, ...]:
    """Reduced rational homology of a complex, degrees -1 through dim.

    The empty complex (only the empty face) has a single 1 in degree -1;
    the void complex has no homology at all and yields the empty tuple.
    """
    if isinstance(D, VoidComplex):
        return ()
    if isinstance(D, EmptyComplex):
        return (1,)
    return _mask_homology(_face_masks(D))


# ---------------------------------------------------------------------------
# Frame exactness.
# ---------------------------------------------------------------------------

def is_exact_frame(fr: Frame) -> bool:
    """Homology of the frame vanishes in every positive degree.

    Demands d.d = 0 over the integers up front and then compares ranks:
    dim ker d_i = rank d_{i+1} for i >= 1.
    """
    if not _squares_to_zero(fr.differentials):
        raise ValueError("frame differentials do not compose to zero")
    return not any(_homology(fr.dims, fr.differentials)[1:])


# ---------------------------------------------------------------------------
# Multigraded Betti numbers of S/I via strict-divisor subcomplexes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Map (homological degree, multidegree) -> count, plus derived totals."""

    vars: VariableSet
    entries: tuple[tuple[int, Monomial, int], ...]

    def __post_init__(self):
        for i, m, b in self.entries:
            if i < 0 or b <= 0:
                raise ValueError("entries must have i >= 0 and positive counts")
            if m.vars != self.vars:
                raise ValueError("multidegree over a different variable set")

    @cached_property
    def graded(self) -> dict[tuple[int, Monomial], int]:
        return {(i, m): b for i, m, b in self.entries}

    def beta(self, i: int, m: Monomial) -> int:
        return self.graded.get((i, m), 0)

    def totals(self) -> tuple[int, ...]:
        top = max(i for i, _, _ in self.entries)
        out = [0] * (top + 1)
        for i, _, b in self.entries:
            out[i] += b
        return tuple(out)

    def pd_quotient(self) -> int:
        return max(i for i, _, _ in self.entries)


def betti(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of S/I.

    For each lcm-lattice element m, beta_{i,m} is the reduced homology in
    degree i-2 of the faces of the labeled full simplex on the generators
    whose label strictly divides m; beta_0 is 1 at multidegree 1.  Valid
    for arbitrary (not only squarefree) monomial ideals.  The sweep runs on
    ``exponent_masks`` of the generators and the lattice, so a subset lcm
    is a bitwise or and divisibility is mask inclusion.
    """
    if I.q > BETTI_GUARD:
        raise ValueError(f"betti guard exceeded (q={I.q})")
    gens = I.generators
    lattice = tuple(lcm_closure(gens))
    masks, _ = exponent_masks(gens + lattice)
    gen_masks = masks[: len(gens)]
    entries: list[tuple[int, Monomial, int]] = [
        (0, Monomial.one(I.vars), 1)
    ]
    for m, top in zip(lattice, masks[len(gens):]):
        divisor_idx = [k for k, g in enumerate(gen_masks) if g & ~top == 0]
        k = len(divisor_idx)
        # lcm of each subset by peeling the lowest bit.
        sub_lcm = [0] * (1 << k)
        strict_faces: list[int] = []  # subsets of divisor_idx as bitmasks
        for mask in range(1, 1 << k):
            low = mask & -mask
            g = gen_masks[divisor_idx[low.bit_length() - 1]]
            sub_lcm[mask] = sub_lcm[mask ^ low] | g
            if sub_lcm[mask] != top:
                strict_faces.append(mask)
        dims = _mask_homology(strict_faces)
        for i in range(1, k + 2):
            pos = i - 1  # dims is indexed from degree -1
            if 0 <= pos < len(dims) and dims[pos] > 0:
                entries.append((i, m, dims[pos]))
    entries.sort(key=lambda t: (t[0], t[1].degree(), t[1].exponents))
    return BettiTable(I.vars, tuple(entries))


def pd_quotient(I: MonomialIdeal) -> int:
    """Projective dimension of S/I."""
    return betti(I).pd_quotient()


def pd_ideal(I: MonomialIdeal) -> int:
    """Projective dimension of the ideal itself: pd(S/I) - 1."""
    return pd_quotient(I) - 1


def betti_to_json(table: BettiTable) -> dict:
    return {
        "vars": list(table.vars.names),
        "total": list(table.totals()),
        "graded": [
            {"i": i, "multidegree": list(m.exponents), "beta": b}
            for i, m, b in table.entries
        ],
    }


def betti_from_json(obj: dict) -> BettiTable:
    if not isinstance(obj, dict) or not _is_name_list(obj.get("vars")):
        raise ValueError("betti JSON needs 'vars' as a list of names")
    vars = VariableSet(tuple(obj["vars"]))
    entries = tuple([
        (e["i"], Monomial(vars, tuple(e["multidegree"])), e["beta"])
        for e in obj["graded"]
    ])
    table = BettiTable(vars, entries)
    if list(table.totals()) != list(obj["total"]):
        raise ValueError("totals disagree with graded entries")
    return table
