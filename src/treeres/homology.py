"""Exact linear algebra over the rationals and the homology oracles.

Everything here is independent of the tree constructions it is used to
check, and imports none of them: frames are sparse (row, col, value)
matrices, ranks come from sparse row reduction over the rationals,
reduced homology from augmented boundary matrices, and the graded Betti
numbers from the upper Koszul complex of each lcm-lattice element
(Miller-Sturmfels, *Combinatorial Commutative Algebra*, Thm 1.34), on
the ideal's ``exponent_masks`` until an entry is decoded, cut to its
strong-collapse core (Barmak-Minian, *Strong homotopy types, nerves and
collapses*, 2012) before its homology is taken.  Removing a dominated
vertex and passing to the nerve of the facets both keep the homotopy
type, so the homology is that of the complex itself.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .complexes import (
    EmptyComplex,
    VoidComplex,
    _face_masks,
    _faces_by_dim,
    _maximal,
    _signed_boundary,
    _submasks,
    _transpose,
)
from .monomial import Monomial, MonomialIdeal, VariableSet, lcm_closure, mask_exponents

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
# Frames, the sparse (row, col, value) matrix format, and their exactness.
# ---------------------------------------------------------------------------

def _check_entries(
    dims: Sequence[int], differentials: Sequence[Sequence[tuple]]
) -> None:
    """One sparse differential per positive degree, each (row, col, value)
    entry inside its shape, and no two entries at one position."""
    if len(differentials) != len(dims) - 1:
        raise ValueError("need one differential per positive degree")
    for i, entries in enumerate(differentials, start=1):
        rows, cols = dims[i - 1], dims[i]
        if len({(row, col) for row, col, _ in entries}) != len(entries):
            raise ValueError(f"two entries at one position in d_{i}")
        for row, col, _ in entries:
            if not (0 <= row < rows and 0 <= col < cols):
                raise ValueError(f"entry out of shape in d_{i}")


def _squares_to_zero(differentials: Sequence[Sequence[tuple]]) -> bool:
    """Consecutive sparse matrices of (row, col, value) entries compose to zero."""
    for first, second in zip(differentials, differentials[1:]):
        by_col: dict[int, list[tuple[int, int]]] = {}
        for row, col, value in first:
            by_col.setdefault(col, []).append((row, value))
        acc: dict[tuple[int, int], int] = {}
        for mid, col, value in second:
            for row, v in by_col.get(mid, ()):
                acc[row, col] = acc.get((row, col), 0) + v * value
        if any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class Frame:
    """Ranks and, for each d_i, its sparse (row, col, value) entries:
    a free complex with every monomial set to 1."""

    dims: tuple[int, ...]
    differentials: tuple[tuple[tuple[int, int, int], ...], ...]

    def __post_init__(self):
        _check_entries(self.dims, self.differentials)
        if any(value == 0 for d in self.differentials for _, _, value in d):
            raise ValueError("frame entries must be nonzero")


def is_exact_frame(fr: Frame) -> bool:
    """Homology of the frame vanishes in every positive degree.

    Demands d.d = 0 over the integers up front and then compares ranks:
    dim ker d_i = rank d_{i+1} for i >= 1.
    """
    if not _squares_to_zero(fr.differentials):
        raise ValueError("frame differentials do not compose to zero")
    return not any(_homology(fr.dims, fr.differentials)[1:])


# ---------------------------------------------------------------------------
# Multigraded Betti numbers of S/I via upper Koszul complexes.
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

    def totals(self) -> tuple[int, ...]:
        top = max(i for i, _, _ in self.entries)
        out = [0] * (top + 1)
        for i, _, b in self.entries:
            out[i] += b
        return tuple(out)

    def pd_quotient(self) -> int:
        return max(i for i, _, _ in self.entries)


def _core(rows: Sequence[int]) -> list[int]:
    """The facets, as rows of vertex bitmasks, of the strong-collapse core
    of the complex whose facets are the given rows.

    Drops each row inside another row and each vertex whose column lies
    inside another column (a dominated vertex), until neither is left or
    a single row is.  Both steps keep the homotopy type (Barmak-Minian);
    vertex j of the result is the j-th column that survived.
    """
    rows = _maximal(rows)
    while len(rows) > 1:
        columns = _transpose(rows)
        kept = _maximal(columns)
        if len(kept) == len(columns):
            break
        rows = _maximal(_transpose(kept))
    return rows


def betti(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of S/I.

    For each lcm-lattice element m, beta_{i,m} is the reduced homology in
    degree i-2 of the upper Koszul complex K^m, the sets J of variables
    with m/x^J in I (Miller-Sturmfels, *Combinatorial Commutative
    Algebra*, Thm 1.34); beta_0 is 1 at multidegree 1.  Valid for
    arbitrary (not only squarefree) monomial ideals.  The lattice is the
    ``lcm_closure`` of the generators' ``exponent_masks``.  For a lattice
    mask ``top``, the rows ``top & ~g``, one per generator mask g inside
    ``top``, are the facets of K^m with each variable spread over its
    block of bits; a lower bit's column lies inside the column of its
    block's top bit, so that bit is a dominated vertex.  The rows are cut
    to their strong-collapse core (``_core``), and the homology is taken
    on the rows or on their columns, whichever has fewer vertices: the
    column complex is the nerve of the rows, the strict-divisor
    subcomplex of the Taylor simplex.
    """
    if I.q > BETTI_GUARD:
        raise ValueError(f"betti guard exceeded (q={I.q})")
    entries: list[tuple[int, Monomial, int]] = [(0, Monomial.one(I.vars), 1)]
    for top in lcm_closure(I._masks):
        rows = _core([top & ~g for g in I._masks if g & ~top == 0])
        columns = _transpose(rows)
        dims = _mask_homology(_submasks(columns if len(rows) < len(columns) else rows))
        if any(dims):
            m = Monomial(I.vars, mask_exponents(top, I._levels))
            for pos, b in enumerate(dims):  # dims is indexed from degree -1
                if b:
                    entries.append((pos + 1, m, b))
    entries.sort(key=lambda t: (t[0], t[1].degree(), t[1].exponents))
    return BettiTable(I.vars, tuple(entries))


def betti_to_json(table: BettiTable) -> dict:
    return {
        "vars": list(table.vars.names),
        "total": list(table.totals()),
        "graded": [
            {"i": i, "multidegree": list(m.exponents), "beta": b}
            for i, m, b in table.entries
        ],
    }
