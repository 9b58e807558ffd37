"""Shared builders and the printed-matrix comparator used across tests."""

from __future__ import annotations

import itertools
import random

from treeres.monomial import (
    Monomial,
    MonomialIdeal,
    VariableSet,
    divides,
    lcm,
    minimalize,
    parse_ideal,
)
from treeres.complexes import (
    EmptyComplex,
    SimplicialComplex,
    VoidComplex,
    _DisjointSets,
    _masks_by_size,
    faces,
    full_simplex,
    induced,
    is_full_simplex,
)
from treeres.census import antichain_covers, complex_from_masks
from treeres.duality import ZeroIdeal
from treeres.homology import BettiTable, _mask_homology
from treeres.resolution import Frame, FreeComplex, LabeledComplex, taylor

SIX_VAR_IDEAL_TEXT = "vars x1 x2 x3 x4 x5 x6\nx1*x3*x6, x1*x4*x6, x1*x2*x4, x4*x5*x6\n"
STAR_IDEAL_TEXT = "vars x1 x2 x3 x4 x5\nx1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4\n"


def six_var_ideal() -> MonomialIdeal:
    return parse_ideal(SIX_VAR_IDEAL_TEXT)


def star_ideal() -> MonomialIdeal:
    return parse_ideal(STAR_IDEAL_TEXT)


def variables_ideal(q: int) -> MonomialIdeal:
    """The ideal (x1, ..., xq) of the variables."""
    names = [f"x{i}" for i in range(1, q + 1)]
    return parse_ideal("vars " + " ".join(names) + "\n" + "\n".join(names) + "\n")


def mono(vars: VariableSet, text: str) -> Monomial:
    """The monomial written as 1 or as a '*'-separated product of name
    and name^k factors."""
    powers: dict[str, int] = {}
    if text.strip() != "1":
        for factor in text.split("*"):
            name, _, exp = factor.strip().partition("^")
            powers[name] = powers.get(name, 0) + int(exp or 1)
    return Monomial.from_powers(vars, powers)


def exponents_over(top: Monomial, bottom: Monomial) -> tuple[int, ...]:
    """The exponents of top / bottom, one subtraction per variable."""
    return tuple(t - b for t, b in zip(top.exponents, bottom.exponents))


def cx(names, facets) -> SimplicialComplex:
    return SimplicialComplex(
        VariableSet(tuple(names)), tuple(frozenset(f) for f in facets)
    )


def hollow_triangle() -> SimplicialComplex:
    return cx("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def cycle_with_pendants(pendants: int = 8) -> SimplicialComplex:
    """A 4-cycle on a, b, c, d with pendant edges hung round it in turn:
    no leaf order, but many orders in which to peel the pendants."""
    cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    hang = [(cycle[k % 4][0], f"p{k}") for k in range(pendants)]
    return cx(["a", "b", "c", "d"] + [p for _, p in hang], cycle + hang)


def census_complexes(max_vertices: int):
    """Every complex whose facets cover x1..xn, n = 1..max_vertices, in
    census order: 12 on at most three vertices, 126 on at most four."""
    for n in range(1, max_vertices + 1):
        for masks in antichain_covers(n):
            yield complex_from_masks(n, masks)


def face_label(L, face) -> Monomial:
    """The lcm of the labels of the face's vertices (names), 1 on the empty
    face: one ``lcm`` per vertex, independent of ``resolution.homogenize``."""
    out = Monomial.one(L.label_vars)
    for v in face:
        out = lcm(out, L.label_of(v))
    return out


def column_fingerprint(F, degree: int = 2):
    """Degree-`degree` matrix of a FreeComplex, canonical up to row and
    column permutation and a global sign per column."""
    rows = F.modules[degree - 1]
    cols = F.modules[degree]
    per_col: dict[int, list] = {c: [] for c in range(len(cols))}
    for row, col, sign in F.differentials[degree - 1]:
        per_col[col].append(
            (rows[row].exponents, exponents_over(cols[col], rows[row]), sign)
        )
    out = []
    for c, entries in per_col.items():
        entries.sort()
        if entries and entries[0][2] == -1:
            entries = [(r, m, -s) for r, m, s in entries]
        out.append((cols[c].exponents, tuple(entries)))
    return tuple(sorted(out))


def flipped_taylor() -> FreeComplex:
    """The Taylor complex of x1, x2 with its first d_2 sign flipped: every
    row still divides its column, but d_1 d_2 != 0."""
    F = taylor(parse_ideal("vars x1 x2\nx1\nx2\n"))
    d1, ((row, col, sign), *rest) = F.differentials
    return FreeComplex(F.vars, F.modules, (d1, ((row, col, -sign), *rest)))


# ---------------------------------------------------------------------------
# Readers of the JSON that the encoders write and the CLI prints.
# ---------------------------------------------------------------------------

def read_free_complex(obj) -> FreeComplex:
    """The FreeComplex of ``free_complex_to_json`` output.  Construction
    checks the entries; each stored entry monomial must be its column
    exponents minus its row exponents, and the ranks the module sizes."""
    vars = VariableSet(tuple(obj["vars"]))
    modules = tuple(
        tuple(Monomial(vars, tuple(exps)) for exps in module)
        for module in obj["multidegrees"]
    )
    F = FreeComplex(vars, modules, tuple(
        tuple((e["row"], e["col"], e["sign"]) for e in entries)
        for entries in obj["differentials"]
    ))
    assert obj["ranks"] == list(F.ranks)
    for rows, cols, entries in zip(modules, modules[1:], obj["differentials"]):
        for e in entries:
            assert e["monomial"] == list(exponents_over(cols[e["col"]], rows[e["row"]]))
    return F


def read_labeled_complex(obj) -> LabeledComplex:
    """The LabeledComplex of ``labeled_complex_to_json`` output."""
    vars = VariableSet(tuple(obj["vars"]))
    labels = tuple(mono(vars, obj["labels"][v]) for v in obj["vertices"])
    return LabeledComplex(cx(obj["vertices"], obj["facets"]), labels)


def read_betti(obj) -> BettiTable:
    """The BettiTable of ``betti_to_json`` output; the totals must match."""
    vars = VariableSet(tuple(obj["vars"]))
    table = BettiTable(vars, tuple(
        (e["i"], Monomial(vars, tuple(e["multidegree"])), e["beta"])
        for e in obj["graded"]
    ))
    assert obj["total"] == list(table.totals())
    return table


def tuple_faces_by_dim(face_sets) -> list[list[tuple[int, ...]]]:
    """Faces as sorted index tuples, one lexicographically sorted bucket
    per size, the empty face () first."""
    by_dim: list[list[tuple[int, ...]]] = [[()]]
    for key in sorted(tuple(sorted(f)) for f in face_sets):
        while len(by_dim) <= len(key):
            by_dim.append([])
        by_dim[len(key)].append(key)
    return by_dim


def tuple_signed_boundary(by_dim, d: int) -> list[tuple[int, int, int]]:
    """(row, col, sign) entries of the boundary from bucket d to d-1 of
    tuple_faces_by_dim, dropping position pos of a face with sign (-1)^pos."""
    position = {face: p for p, face in enumerate(by_dim[d - 1])}
    return [
        (position[face[:pos] + face[pos + 1:]], col, -1 if pos % 2 else 1)
        for col, face in enumerate(by_dim[d])
        for pos in range(len(face))
    ]


def tuple_homogenize(L) -> tuple[tuple, tuple]:
    """Modules and differentials of ``homogenize(L)`` through the tuple face
    path, each face labeled by the lcm of its vertex labels."""
    index = L.complex.vertices.index
    names = L.complex.vertices.names
    by_dim = tuple_faces_by_dim([index(v) for v in f] for f in faces(L.complex))
    modules = tuple(
        tuple(face_label(L, [names[i] for i in face]) for face in bucket)
        for bucket in by_dim
    )
    diffs = tuple(
        tuple(tuple_signed_boundary(by_dim, d)) for d in range(1, len(by_dim))
    )
    return modules, diffs


def frame_from_matrices(dims, matrices) -> Frame:
    """A Frame given by dense matrices, one list of rows per positive degree."""
    return Frame(
        tuple(dims),
        tuple(
            tuple(
                (r, c, v) for r, row in enumerate(mat) for c, v in enumerate(row) if v
            )
            for mat in matrices
        ),
    )


def frame_matrices(fr: Frame) -> tuple:
    """The differentials of a Frame as dense tuples of row tuples."""
    out = []
    for i, entries in enumerate(fr.differentials, start=1):
        mat = [[0] * fr.dims[i] for _ in range(fr.dims[i - 1])]
        for r, c, v in entries:
            mat[r][c] = v
        out.append(tuple(map(tuple, mat)))
    return tuple(out)


def printed_matrix_fingerprint(vars: VariableSet, columns) -> tuple:
    """Fingerprint of an explicitly given degree-2 matrix.

    ``columns`` maps a column multidegree string to a list of
    (row multidegree string, entry monomial string, sign) triples.
    """
    out = []
    for col_text, entries in columns:
        col = mono(vars, col_text)
        triples = sorted(
            (mono(vars, row).exponents, mono(vars, m).exponents, s)
            for row, m, s in entries
        )
        if triples and triples[0][2] == -1:
            triples = [(r, m, -s) for r, m, s in triples]
        out.append((col.exponents, tuple(triples)))
    return tuple(sorted(out))


def random_squarefree_ideal(rng: random.Random, max_vars: int = 6, max_gens: int = 5):
    n = rng.randint(2, max_vars)
    vars = VariableSet(tuple(f"x{i + 1}" for i in range(n)))
    k = rng.randint(1, max_gens)
    gens = []
    for _ in range(k):
        mask = rng.randint(1, (1 << n) - 1)
        gens.append(
            Monomial(vars, tuple(1 if mask >> i & 1 else 0 for i in range(n)))
        )
    return minimalize(gens)


def random_nonsquarefree_ideal(rng: random.Random):
    vars = VariableSet(("x", "y", "z"))
    while True:
        k = rng.randint(1, 4)
        gens = []
        for _ in range(k):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            if any(exps):
                gens.append(Monomial(vars, exps))
        if not gens:
            continue
        I = minimalize(gens)
        if I.q <= 4 and not I.is_squarefree():
            return I


def divides_antichain_violation(gens) -> tuple[Monomial, Monomial] | None:
    """The first (h, g) with h | g at two distinct positions of ``gens``,
    g's position outermost, from a ``divides`` call per ordered pair;
    None for an antichain."""
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j and divides(h, g):
                return h, g
    return None


def divides_minimal(gens) -> list[Monomial]:
    """The generators that no generator at another position divides,
    save that of equal generators the first stays, in order, from a
    ``divides`` call per ordered pair."""
    return [
        g for i, g in enumerate(gens)
        if not any(
            i != j and divides(h, g) and (h != g or j < i) for j, h in enumerate(gens)
        )
    ]


def three_variable_ideals() -> list[MonomialIdeal]:
    """Every minimal generating set in x, y, z with exponents at most two:
    978 ideals, 960 of them non-squarefree."""
    V = VariableSet(("x", "y", "z"))
    order = sorted(
        (Monomial(V, e) for e in itertools.product(range(3), repeat=3) if any(e)),
        key=lambda m: (m.degree(), m.exponents),
    )
    out: list[MonomialIdeal] = []

    def go(start: int, chosen: list[Monomial]) -> None:
        if chosen:
            out.append(MonomialIdeal(V, tuple(chosen)))
        for k in range(start, len(order)):
            m = order[k]
            if all(not divides(m, c) and not divides(c, m) for c in chosen):
                chosen.append(m)
                go(k + 1, chosen)
                chosen.pop()

    go(0, [])
    return out


def pairwise_lcm_closure(monomials) -> frozenset[Monomial]:
    """Fixed point of pairwise ``lcm`` on validated Monomials."""
    closed: set[Monomial] = set(monomials)
    frontier = list(closed)
    while frontier:
        nxt = []
        for m in frontier:
            for g in monomials:
                v = lcm(m, g)
                if v not in closed:
                    closed.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(closed)


def monomial_betti_entries(I: MonomialIdeal) -> tuple:
    """Graded Betti entries of S/I from a lattice sweep on Monomials: each
    subset lcm is a componentwise max of exponent tuples, and each
    divisibility a ``divides`` call."""
    gens = I.generators
    entries = [(0, Monomial.one(I.vars), 1)]
    lattice = pairwise_lcm_closure(gens)
    for m in sorted(lattice, key=lambda x: (x.degree(), x.exponents)):
        divisor_idx = [k for k, g in enumerate(gens) if divides(g, m)]
        k = len(divisor_idx)
        # lcm of each subset by peeling the lowest bit.
        sub_lcm: list[tuple[int, ...] | None] = [None] * (1 << k)
        strict_faces: list[int] = []  # subsets of divisor_idx as bitmasks
        for mask in range(1, 1 << k):
            low = mask & -mask
            bit = low.bit_length() - 1
            rest = mask ^ low
            g = gens[divisor_idx[bit]].exponents
            if rest == 0:
                sub_lcm[mask] = g
            else:
                sub_lcm[mask] = tuple(map(max, sub_lcm[rest], g))
            if sub_lcm[mask] != m.exponents:
                strict_faces.append(mask)
        dims = _mask_homology(strict_faces)
        for i in range(1, k + 2):
            pos = i - 1  # dims is indexed from degree -1
            if 0 <= pos < len(dims) and dims[pos] > 0:
                entries.append((i, m, dims[pos]))
    entries.sort(key=lambda t: (t[0], t[1].degree(), t[1].exponents))
    return tuple(entries)


def _mask_monomial(vars: VariableSet, mask: int) -> Monomial:
    return Monomial(vars, tuple([mask >> i & 1 for i in range(vars.n)]))


def sweep_sr_ideal(D):
    """``sr_ideal`` as a size-ascending sweep: a mask is a minimal non-face
    when no facet contains it and no recorded non-face lies inside it."""
    vars = D.vertices
    if isinstance(D, EmptyComplex):
        return MonomialIdeal(vars, tuple([_mask_monomial(vars, 1 << i) for i in range(vars.n)]))
    if is_full_simplex(D):
        return ZeroIdeal(vars)
    fmasks = D._facet_masks
    minimal: list[int] = []
    for mask in _masks_by_size(D.n):
        if any(mask & ~f == 0 for f in fmasks):
            continue
        if any(mask & mnf == mnf for mnf in minimal):
            continue
        minimal.append(mask)
    return MonomialIdeal(vars, tuple([_mask_monomial(vars, m) for m in minimal]))


def maximal_faces(vars: VariableSet, is_face):
    """Complex on vars whose faces are the nonempty masks passing is_face
    (closed under subsets), from a size-descending sweep: the first face
    inside no recorded facet is a facet.  Facets sorted as name tuples."""
    n = vars.n
    facets: list[int] = []
    for mask in reversed(_masks_by_size(n)):
        if is_face(mask) and not any(mask & ~f == 0 for f in facets):
            facets.append(mask)
    if not facets:
        return EmptyComplex(vars)
    names = vars.names
    fsets = sorted([tuple([names[i] for i in range(n) if m >> i & 1]) for m in facets])
    return SimplicialComplex(vars, tuple([frozenset(f) for f in fsets]))


def sweep_sr_complex(I: MonomialIdeal):
    """``sr_complex`` by ``maximal_faces``: a face contains no generator support."""
    gmasks = [
        sum([1 << i for i, e in enumerate(g.exponents) if e]) for g in I.generators
    ]
    return maximal_faces(I.vars, lambda mask: all(g & ~mask for g in gmasks))


def sweep_alexander_dual(D):
    """``alexander_dual`` by ``maximal_faces``: a face is a mask whose
    complement is a non-face of D."""
    if isinstance(D, VoidComplex):
        return full_simplex(D.vertices)
    if isinstance(D, EmptyComplex):
        n = D.vertices.n
        if n == 1:
            return EmptyComplex(D.vertices)
        names = D.vertices.names
        return SimplicialComplex(
            D.vertices, tuple([frozenset(names[:i] + names[i + 1:]) for i in range(n)])
        )
    if is_full_simplex(D):
        return VoidComplex(D.vertices)
    full = (1 << D.n) - 1
    fmasks = D._facet_masks

    def is_face(mask: int) -> bool:
        return mask == 0 or any(mask & ~f == 0 for f in fmasks)

    return maximal_faces(D.vertices, lambda mask: not is_face(full & ~mask))


# ---------------------------------------------------------------------------
# Name-based oracles for the mask faces and components of complexes.py.
# ---------------------------------------------------------------------------

def name_faces(D: SimplicialComplex) -> frozenset[frozenset[str]]:
    """Every nonempty face, from vertex-name combinations of each facet."""
    out: set[frozenset[str]] = set()
    for f in D.facets:
        fl = sorted(f)
        for r in range(1, len(fl) + 1):
            out.update(frozenset(c) for c in itertools.combinations(fl, r))
    return frozenset(out)


def facet_pair_components(D: SimplicialComplex) -> tuple[frozenset[str], ...]:
    """Components from joining every two facets that meet, then adding the
    unused ambient vertices as singletons, in order of smallest vertex."""
    sets = _DisjointSets(D.q)
    for i in range(D.q):
        for j in range(i + 1, D.q):
            if D.facets[i] & D.facets[j]:
                sets.union(i, j)
    parts = [
        frozenset().union(*(D.facets[i] for i in group))
        for group in sets.groups(range(D.q))
    ]
    used = frozenset().union(*D.facets)
    for name in D.vertices.names:
        if name not in used:
            parts.append(frozenset({name}))
    parts.sort(key=lambda p: min(D.vertices.index(v) for v in p))
    return tuple(parts)


def induced_divisor_connected(L) -> bool:
    """For each m in the ``pairwise_lcm_closure`` of the labels, ``induced``
    on the vertices whose labels divide m is empty or has one facet-pair
    component."""
    names = L.complex.vertices.names
    for m in pairwise_lcm_closure(L.labels):
        W = [v for v, lab in zip(names, L.labels) if divides(lab, m)]
        if not W:
            continue
        sub = induced(L.complex, W)
        if isinstance(sub, SimplicialComplex) and len(facet_pair_components(sub)) > 1:
            return False
    return True
