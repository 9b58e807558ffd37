"""Exact monomial arithmetic over a named variable set.

Values are immutable and every operation is pure.  Generator order is
significant throughout the package: it fixes vertex indices in the tree
constructions downstream, so nothing here reorders a generating set
silently.  Equality of ideals as *sets* of generators is a separate
predicate (``MonomialIdeal.same_ideal``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import getitem, le
from typing import Iterable, NoReturn, Sequence


class ParseError(ValueError):
    """Rejected input text; the message names the line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(rf"{_NAME}\Z")


@dataclass(frozen=True)
class VariableSet:
    """Ordered list of distinct variable names; index order is significant."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("a variable set needs at least one name")
        seen = set()
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Monomial:
    """Dense exponent vector over a VariableSet."""

    vars: VariableSet
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = self.exponents
        if type(exps) is not tuple:
            # From a list: a generator-built tuple is shrunk, then fills another size's free list.
            exps = tuple([*exps])
            object.__setattr__(self, "exponents", exps)
        if len(exps) != self.vars.n:
            raise ValueError(
                f"exponent vector of length {len(exps)} over {self.vars.n} variables"
            )
        for e in exps:
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int")
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")

    @classmethod
    def one(cls, vars: VariableSet) -> "Monomial":
        return cls(vars, (0,) * vars.n)

    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __str__(self) -> str:
        factors = []
        for name, e in zip(self.vars.names, self.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"


def _check_same_vars(a: Monomial, b: Monomial) -> None:
    if a.vars != b.vars:
        raise ValueError(f"mismatched variable sets: {a.vars.names} vs {b.vars.names}")


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff every exponent of ``a`` is <= the matching exponent of ``b``."""
    _check_same_vars(a, b)
    return all(map(le, a.exponents, b.exponents))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise max of exponents."""
    _check_same_vars(a, b)
    return Monomial(a.vars, tuple([*map(max, a.exponents, b.exponents)]))


_BIT = ("0", "1")  # the block of a variable whose one level is 1, by exponent


def exponent_masks(
    monomials: Sequence[Monomial],
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Bit masks of the monomials on which lcm is ``|`` and divisibility
    is mask inclusion, and the levels that decode them.

    The levels of a variable are its distinct nonzero exponents among the
    inputs, sorted, or ``(1,)`` when no input uses it; x_i^e sets the
    first r bits of x_i's block, where e is the r-th level.  A block is as
    wide as its variable's number of levels, so the masks stay small
    whatever the exponents, and every variable has a bit: the masks of
    squarefree monomials are their support masks.  Exact for the inputs
    and every lcm of them.
    """
    columns = zip(*[m.exponents for m in monomials])
    levels = tuple([tuple(sorted(set(column) - {0})) or (1,) for column in columns])
    # Each block's bits by exponent, as binary text, last variable first.
    blocks = [
        _BIT if values == (1,) else
        {e: f"{(1 << r) - 1:0{len(values)}b}" for r, e in enumerate((0, *values))}
        for values in reversed(levels)
    ]
    masks = [int("".join(map(getitem, blocks, m.exponents[::-1])), 2) for m in monomials]
    return masks, levels


def mask_exponents(mask: int, levels: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The exponent vector that ``mask`` encodes under ``levels``."""
    exps = []
    for values in levels:
        r = (mask & ((1 << len(values)) - 1)).bit_length()
        exps.append(values[r - 1] if r else 0)
        mask >>= len(values)
    return tuple(exps)


def lcm_closure(gens: Sequence[int]) -> set[int]:
    """The closure under ``|`` of ``exponent_masks`` masks: the masks of
    the lcms of all nonempty subsets.  No masks give the empty set."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                v = m | g
                if v not in closed:
                    closed.add(v)
                    nxt.append(v)
        frontier = nxt
    return closed


def _holders(masks: Iterable[int]) -> set[int]:
    """The distinct masks that hold another of the distinct masks.  A mask
    holds only masks with fewer bits, so popcount buckets bound the pairs."""
    by_size: dict[int, list[int]] = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    holders, smaller = set(), []
    for size in sorted(by_size):
        holders.update([m for m in by_size[size] if any(s & m == s for s in smaller)])
        smaller += by_size[size]
    return holders


def _nested_pair(masks: Sequence[int]) -> tuple[int, int] | None:
    """The first (j, i), i outermost, of two positions with masks[j] inside
    masks[i]; None when the masks are an antichain."""
    if len(set(masks)) == len(masks) and not _holders(masks):
        return None
    return next(
        (j, i) for i, m in enumerate(masks) for j, s in enumerate(masks)
        if i != j and s & m == s
    )


@dataclass(frozen=True, init=False)
class MonomialIdeal:
    """Proper monomial ideal given by its ordered minimal generating set,
    held as the generators' ``exponent_masks`` and levels; ``_of_masks``
    builds a squarefree ideal from support masks, with no Monomial."""

    vars: VariableSet
    _masks: tuple[int, ...]
    _levels: tuple[tuple[int, ...], ...]

    def __init__(self, vars: VariableSet, generators: Sequence[Monomial]):
        generators = tuple(generators)
        for g in generators:
            if g.vars != vars:
                raise ValueError("generator over a different variable set")
            if g.is_one():
                raise ValueError("the unit monomial cannot be a generator")
        self._hold(vars, *exponent_masks(generators))
        # Fills the cached property: the given generators need no decoding.
        object.__setattr__(self, "generators", generators)

    @classmethod
    def _of_masks(cls, vars: VariableSet, masks: Sequence[int]) -> MonomialIdeal:
        I = cls.__new__(cls)
        I._hold(vars, masks, ((1,),) * vars.n)
        return I

    def _hold(self, vars: VariableSet, masks: Sequence[int], levels) -> None:
        if not masks:
            raise ValueError("an ideal needs at least one generator")
        found = _nested_pair(masks)
        if found:
            h, g = (Monomial(vars, mask_exponents(masks[k], levels)) for k in found)
            raise ValueError(f"not an antichain: {h} divides {g}; minimalize first")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_levels", levels)

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        levels = self._levels
        return tuple([Monomial(self.vars, mask_exponents(m, levels)) for m in self._masks])

    @property
    def q(self) -> int:
        return len(self._masks)

    def is_squarefree(self) -> bool:
        return all(values == (1,) for values in self._levels)

    def same_ideal(self, other: "MonomialIdeal") -> bool:
        """Order-insensitive equality of minimal generating sets (and so of levels)."""
        same = self.vars == other.vars and self._levels == other._levels
        return same and set(self._masks) == set(other._masks)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def minimalize(gens: Sequence[Monomial]) -> MonomialIdeal:
    """Keep the divisibility-minimal generators, first occurrence wins.

    Relative order of the survivors is preserved.
    """
    if not gens:
        raise ValueError("cannot minimalize an empty generator list")
    vars = gens[0].vars
    for g in gens:
        if g.vars != vars:
            raise ValueError("mixed variable sets in generator list")
        if g.is_one():
            raise ValueError("the unit monomial cannot be a generator")
    masks, _ = exponent_masks(gens)
    holders = _holders(masks)
    kept = dict.fromkeys([g for g, m in zip(gens, masks) if m not in holders])
    return MonomialIdeal(vars, tuple(kept))


POLARIZE_GUARD = 10_000  # polarize refuses past this sum of maximal exponents


def polarize(I: MonomialIdeal) -> tuple[MonomialIdeal, dict[str, tuple[str, int]]]:
    """Standard polarization: x^a becomes the product of the first a copies.

    Copy j of x is 1 in a new generator exactly when x^j divides the old
    one.  Variables with maximum exponent <= 1 keep their names, so a
    squarefree ideal comes back unchanged with the identity map.  Returns
    the new ideal and a map new-name -> (old-name, copy index).  Otherwise
    the new ring has about sum_i max_exp_i variables, and polarize refuses
    when that sum passes POLARIZE_GUARD.
    """
    if I.is_squarefree():
        return I, {name: (name, 1) for name in I.vars.names}
    max_exp = [max(column) for column in zip(*[g.exponents for g in I.generators])]
    if sum(max_exp) > POLARIZE_GUARD:
        raise ValueError(
            f"polarize guard exceeded (sum of maximal exponents {sum(max_exp)}, "
            f"limit {POLARIZE_GUARD})"
        )
    names = I.vars.names
    # One (variable index, copy index) slot per new variable, in order.
    slots = [(i, j) for i, top in enumerate(max_exp) for j in range(1, max(top, 1) + 1)]
    # VariableSet, not a dict, so a copy name equal to a kept name raises.
    new_vars = VariableSet(tuple([
        names[i] if max_exp[i] <= 1 else f"{names[i]}_{j}" for i, j in slots
    ]))
    gens = I.generators
    masks = [sum([1 << s for s, (i, j) in enumerate(slots) if g.exponents[i] >= j]) for g in gens]
    varmap = dict(zip(new_vars.names, [(names[i], j) for i, j in slots]))
    # Polarization preserves divisibility both ways, so minimality survives.
    return MonomialIdeal._of_masks(new_vars, masks), varmap


# ---------------------------------------------------------------------------
# Text format: optional "vars x1 x2 ..." header, then generators separated by
# newlines or commas, each a '*'-separated product of name or name^k factors.
# ---------------------------------------------------------------------------

# The blanks before '^' sit inside its optional group, so two runs of
# blanks never meet and a failing match cannot split a run 2^n ways.
_FACTOR_RE = re.compile(rf"\s*({_NAME})(?:\s*\^\s*(\d+))?\s*\Z")
_TERM = rf"\s*{_NAME}(?:\s*\^\s*\d+)?\s*"  # a factor, capturing nothing
_PRODUCT_RE = re.compile(rf"{_TERM}(?:\*{_TERM})*\Z")
_POWER_RE = re.compile(rf"({_NAME})\s*(?:\^\s*(\d+))?")


def _powers(gen_text: str, line_no: int, col: int) -> dict[str, int]:
    """Each name of a generator's text with its summed exponent, in order
    of first appearance.  One match checks the whole product."""
    if _PRODUCT_RE.match(gen_text):
        powers: dict[str, int] = {}
        try:
            for name, digits in _POWER_RE.findall(gen_text):
                powers[name] = powers.get(name, 0) + int(digits or 1)
            return powers
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    _raise_factor_error(gen_text, line_no, col)


def _raise_factor_error(gen_text: str, line_no: int, col: int) -> NoReturn:
    """Raise the error of the first factor that does not parse in a
    generator's text starting at column ``col``; ``_powers`` has found
    that one does not."""
    offset = col
    for piece in gen_text.split("*"):
        m = _FACTOR_RE.match(piece)
        if not m:
            # At its first non-blank character; an all-blank piece at its start.
            blank = len(piece) - len(piece.lstrip())
            at = offset + (blank if blank < len(piece) else 0)
            raise ParseError(f"bad factor {piece.strip()!r}", line_no, at)
        try:
            int(m.group(2) or 1)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("exponent too long", line_no, offset + m.start(1)) from None
        offset += len(piece) + 1


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal text format; infers variables when no header is given."""
    lines = text.splitlines()
    header: list[str] | None = None
    in_body = False  # set by the first line that is not blank, comment or header
    parsed: list[tuple[int, int, dict[str, int]]] = []  # line, column, powers
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None and not in_body and stripped.split()[0] == "vars":
            header = stripped.split()[1:]
            if not header:
                raise ParseError("empty vars header", line_no, 1)
            continue
        in_body = True
        chunk_col = 1
        for chunk in line.split(","):
            gen_text = chunk.strip()
            if gen_text:
                col = chunk_col + chunk.index(gen_text[0])
                parsed.append((line_no, col, _powers(gen_text, line_no, col)))
            chunk_col += len(chunk) + 1
    # An empty body, or one of commas and blanks only, reads no generator.
    if not parsed:
        raise ParseError("no generators found", len(lines) or 1, 1)

    if header is None:
        # A dict keeps first appearances in order with O(1) membership.
        vars = VariableSet(tuple(dict.fromkeys([n for _, _, p in parsed for n in p])))
    else:
        vars = VariableSet(tuple(header))
        declared = vars._index.keys()
        for line_no, col, powers in parsed:
            if not powers.keys() <= declared:
                name = next(n for n in powers if n not in declared)
                raise ParseError(f"variable {name!r} not declared", line_no, col)

    index, zeros = vars._index, [0] * vars.n
    gens = []
    for line_no, col, powers in parsed:
        if not any(powers.values()):
            raise ParseError("generator equal to 1", line_no, col)
        exps = zeros.copy()
        for name, e in powers.items():
            exps[index[name]] = e
        gens.append(Monomial(vars, tuple(exps)))
    try:
        return MonomialIdeal(vars, tuple(gens))
    except ValueError as exc:
        raise ValueError(f"not a minimal generating set: {exc}") from None


def format_ideal(I: MonomialIdeal) -> str:
    lines = ["vars " + " ".join(I.vars.names)]
    lines.extend(str(g) for g in I.generators)
    return "\n".join(lines) + "\n"
