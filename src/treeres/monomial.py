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
from typing import Mapping, Sequence


class ParseError(ValueError):
    """Rejected input text; the message names the line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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
        # support_mask and _squarefree are plain attributes, not fields, so
        # equality, hashing and repr read the exponents alone.
        mask = 0
        squarefree = True
        for i, e in enumerate(exps):
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int")
            if e:
                if e < 0:
                    raise ValueError(f"negative exponent in {exps}")
                mask |= 1 << i
                if e > 1:
                    squarefree = False
        object.__setattr__(self, "support_mask", mask)
        object.__setattr__(self, "_squarefree", squarefree)

    @classmethod
    def one(cls, vars: VariableSet) -> "Monomial":
        return cls(vars, (0,) * vars.n)

    @classmethod
    def from_powers(cls, vars: VariableSet, powers: Mapping[str, int]) -> "Monomial":
        exps = [0] * vars.n
        for name, e in powers.items():
            exps[vars.index(name)] += e
        return cls(vars, tuple(exps))

    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def is_squarefree(self) -> bool:
        return self._squarefree

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
    if a._squarefree and b._squarefree:
        return a.support_mask & ~b.support_mask == 0
    return all(x <= y for x, y in zip(a.exponents, b.exponents))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise max of exponents."""
    _check_same_vars(a, b)
    return Monomial(a.vars, tuple([*map(max, a.exponents, b.exponents)]))


def exponent_masks(
    monomials: Sequence[Monomial],
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Bit masks of the monomials on which lcm is ``|`` and divisibility
    is mask inclusion, and the levels that decode them.

    The levels of a variable are its distinct nonzero exponents among the
    inputs, sorted; x_i^e sets the first r bits of x_i's block, where e is
    the r-th level.  A block is as wide as its variable's number of levels,
    so the masks stay small whatever the exponents.  Exact for the inputs
    and every lcm of them.
    """
    columns = list(zip(*[m.exponents for m in monomials]))
    levels = tuple([tuple(sorted(set(column) - {0})) for column in columns])
    masks = [0] * len(monomials)
    offset = 0
    for column, values in zip(columns, levels):
        rank = {e: r for r, e in enumerate(values, start=1)}
        for k, e in enumerate(column):
            if e:
                masks[k] |= ((1 << rank[e]) - 1) << offset
        offset += len(values)
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


@dataclass(frozen=True)
class MonomialIdeal:
    """Proper monomial ideal given by its ordered minimal generating set."""

    vars: VariableSet
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("an ideal needs at least one generator")
        for g in self.generators:
            if g.vars != self.vars:
                raise ValueError("generator over a different variable set")
            if g.is_one():
                raise ValueError("the unit monomial cannot be a generator")
        # h | g needs supp(h) inside supp(g); only such pairs compare
        # exponents.  No divides call, so no variable check per pair.
        gens = self.generators
        masks = [g.support_mask for g in gens]
        for i, outside in enumerate([~m for m in masks]):
            for j, h in enumerate(masks):
                if h & outside == 0 and i != j and all(
                    x <= y for x, y in zip(gens[j].exponents, gens[i].exponents)
                ):
                    raise ValueError(
                        f"not an antichain: {gens[j]} divides {gens[i]}; "
                        "minimalize first"
                    )

    @property
    def q(self) -> int:
        return len(self.generators)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)

    def same_ideal(self, other: "MonomialIdeal") -> bool:
        """Order-insensitive equality of minimal generating sets."""
        return self.vars == other.vars and set(self.generators) == set(
            other.generators
        )

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
    keep = []
    for i, g in enumerate(gens):
        dominated = False
        for j, h in enumerate(gens):
            if i == j:
                continue
            if divides(h, g) and (h.exponents != g.exponents or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    return MonomialIdeal(vars, tuple(keep))


POLARIZE_GUARD = 10_000  # polarize refuses past this sum of maximal exponents


def polarize(I: MonomialIdeal) -> tuple[MonomialIdeal, dict[str, tuple[str, int]]]:
    """Standard polarization: x^a becomes the product of the first a copies.

    Variables with maximum exponent <= 1 keep their names, so a squarefree
    ideal comes back unchanged with the identity map.  Returns the new
    ideal and a map new-name -> (old-name, copy index).  Otherwise the new
    ring has about sum_i max_exp_i variables, and polarize refuses when
    that sum passes POLARIZE_GUARD.
    """
    max_exp = [0] * I.vars.n
    for g in I.generators:
        for i, e in enumerate(g.exponents):
            max_exp[i] = max(max_exp[i], e)
    if all(e <= 1 for e in max_exp):
        return I, {name: (name, 1) for name in I.vars.names}
    if sum(max_exp) > POLARIZE_GUARD:
        raise ValueError(
            f"polarize guard exceeded (sum of maximal exponents {sum(max_exp)}, "
            f"limit {POLARIZE_GUARD})"
        )

    new_names: list[str] = []
    copies: list[list[int]] = []  # per old index, positions of its copies
    varmap: dict[str, tuple[str, int]] = {}
    for i, name in enumerate(I.vars.names):
        if max_exp[i] <= 1:
            copies.append([len(new_names)])
            varmap[name] = (name, 1)
            new_names.append(name)
        else:
            slots = []
            for j in range(1, max_exp[i] + 1):
                copy = f"{name}_{j}"
                varmap[copy] = (name, j)
                slots.append(len(new_names))
                new_names.append(copy)
            copies.append(slots)
    new_vars = VariableSet(tuple(new_names))

    new_gens = []
    for g in I.generators:
        exps = [0] * new_vars.n
        for i, e in enumerate(g.exponents):
            for j in range(e):
                exps[copies[i][j]] = 1
        new_gens.append(Monomial(new_vars, tuple(exps)))
    # Polarization preserves divisibility both ways, so minimality survives.
    return MonomialIdeal(new_vars, tuple(new_gens)), varmap


# ---------------------------------------------------------------------------
# Text format: optional "vars x1 x2 ..." header, then generators separated by
# newlines or commas, each a '*'-separated product of name or name^k factors.
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\^\s*(\d+))?\s*\Z")


def _tokenize_generators(lines: list[tuple[int, str]]):
    """Yield (line_no, column, generator_text) for comma-separated chunks."""
    for line_no, line in lines:
        col = 0
        for chunk in line.split(","):
            stripped = chunk.strip()
            if stripped:
                yield line_no, col + chunk.index(stripped[0]) + 1, stripped
            col += len(chunk) + 1


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal text format; infers variables when no header is given."""
    raw_lines = text.splitlines()
    body: list[tuple[int, str]] = []
    header: list[str] | None = None
    for idx, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None and not body and stripped.split()[0] == "vars":
            header = stripped.split()[1:]
            if not header:
                raise ParseError("empty vars header", idx, 1)
            continue
        body.append((idx, line))

    # First pass: split into factors, remember positions for error messages.
    parsed: list[tuple[int, int, list[tuple[str, int]]]] = []
    for line_no, col, gen_text in _tokenize_generators(body):
        factors = []
        offset = col
        for piece in gen_text.split("*"):
            m = _FACTOR_RE.match(piece)
            if not m:
                raise ParseError(f"bad factor {piece.strip()!r}", line_no, offset)
            name, exp = m.group(1), int(m.group(2) or 1)
            factors.append((name, exp))
            offset += len(piece) + 1
        parsed.append((line_no, col, factors))
    # An empty body, or one of commas and blanks only, reads no generator.
    if not parsed:
        raise ParseError("no generators found", len(raw_lines) or 1, 1)

    if header is not None:
        vars = VariableSet(tuple(header))
        for line_no, col, factors in parsed:
            for name, _ in factors:
                if name not in vars:
                    raise ParseError(f"variable {name!r} not declared", line_no, col)
    else:
        # A dict keeps first appearances in order with O(1) membership.
        order = dict.fromkeys([name for _, _, fs in parsed for name, _ in fs])
        vars = VariableSet(tuple(order))

    gens = []
    for line_no, col, factors in parsed:
        powers: dict[str, int] = {}
        for name, exp in factors:
            powers[name] = powers.get(name, 0) + exp
        mon = Monomial.from_powers(vars, powers)
        if mon.is_one():
            raise ParseError("generator equal to 1", line_no, col)
        gens.append(mon)
    try:
        return MonomialIdeal(vars, tuple(gens))
    except ValueError as exc:
        raise ValueError(f"not a minimal generating set: {exc}") from None


def format_ideal(I: MonomialIdeal) -> str:
    lines = ["vars " + " ".join(I.vars.names)]
    lines.extend(str(g) for g in I.generators)
    return "\n".join(lines) + "\n"
