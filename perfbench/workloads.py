"""The three workloads: how each builds its seeded inputs and runs one op.

A workload's inputs form one pass, a list of items fixed by the seed.
Each item carries the answer expected from it; ``run_op`` returns True
only when the program's output agrees.  Which items a pass holds is
explained in NOTES.md beside this file.

``tr`` is the imported treeres package; pass building and ops reach the
program only through its module attributes, so traced mode can patch
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass

from . import gen

# census: share of each five-vertex facet-count stratum in the pass.
# Strata of at most two complexes (1 and 10 facets) are taken whole: a
# seeded pick between the two 10-facet complexes, whose costs differ by
# about 1.5x, would swing the cost of a pass by 15%.
CENSUS_FRACTION = 0.05
CENSUS_WHOLE_STRATUM = 2

# verify: (kind, q, count).  Betti time on one ideal has a long tail that
# grows with q: quasi-forest duals reach 0.5 s at q = 10 and 10 s at
# q = 12, 4-cycle duals 0.4 s at q = 12, and dense ideals 2 to 3.5 s at
# q = 10.  The plan stops below those tails.  The 40 dense q = 8 ideals
# (0.05 to 0.14 s each) are a third of the pass and most of its time: p90
# falls inside their band, p50 among the cheap ones.
VERIFY_PLAN = (
    [("quasi_forest", q, 6) for q in range(4, 10)]
    + [("four_cycle", q, 4) for q in range(4, 12)]
    + [("dense", 6, 2), ("dense", 7, 2), ("dense", 8, 40)]
)

# large_q: (q, count).  Cost doubles with q, so the counts put p50 in the
# middle of the q = 15 band and p90 in the middle of the q = 17 band.  At
# one q the cost still varies by 1.7x with the tree, so the p50 band holds
# twelve ideals to steady its median.
LARGE_Q_PLAN = [(13, 6), (14, 6), (15, 12), (16, 6), (17, 8)]


@dataclass(frozen=True)
class CensusItem:
    n: int
    masks: tuple[int, ...]
    quasi_forest: bool


@dataclass(frozen=True)
class IdealItem:
    text: str
    q: int
    generators: tuple[str, ...]
    pd_le_1: bool


# ---------------------------------------------------------------------------
# Building items.
# ---------------------------------------------------------------------------

def complex_of(tr, n: int, facets):
    vs = tr.monomial.VariableSet(tuple(f"x{i + 1}" for i in range(n)))
    return tr.complexes.SimplicialComplex(
        vs, tuple(frozenset(vs.names[v] for v in f) for f in facets)
    )


def ideal_item(tr, I, pd_le_1: bool) -> IdealItem:
    return IdealItem(
        text=tr.monomial.format_ideal(I),
        q=I.q,
        generators=tuple(str(g) for g in I.generators),
        pd_le_1=pd_le_1,
    )


def dual_item(tr, n: int, facets, pd_le_1: bool) -> IdealItem:
    """Item for the ideal whose dual complex has these facets."""
    return ideal_item(tr, tr.duality.dual_generators(complex_of(tr, n, facets)), pd_le_1)


def dense_item(tr, rng: random.Random, q: int) -> IdealItem:
    n, supports = gen.dense_supports(rng, q)
    vs = tr.monomial.VariableSet(tuple(f"x{i + 1}" for i in range(n)))
    gens = tuple(
        tr.monomial.Monomial(vs, tuple(int(i in s) for i in range(n)))
        for s in supports
    )
    I = tr.monomial.MonomialIdeal(vs, gens)
    label = tr.complexes.leaf_order(tr.duality.dual_facets(I), "exhaustive") is not None
    return ideal_item(tr, I, label)


def census_item(tr, n: int, masks) -> CensusItem:
    D = tr.census.complex_from_masks(n, masks)
    return CensusItem(n, tuple(masks), tr.complexes.leaf_order(D, "exhaustive") is not None)


def build_census(tr, rng: random.Random) -> list[CensusItem]:
    """All complexes on <= 4 vertices plus a stratified five-vertex sample."""
    pairs = []
    strata: dict[int, list] = {}
    for n in range(1, 6):
        for masks in tr.census.antichain_covers(n):
            if n < 5:
                pairs.append((n, masks))
            else:
                strata.setdefault(len(masks), []).append(masks)
    for k in sorted(strata):
        pool = strata[k]
        if len(pool) <= CENSUS_WHOLE_STRATUM:
            take = len(pool)
        else:
            take = max(1, round(CENSUS_FRACTION * len(pool)))
        pairs.extend((5, masks) for masks in rng.sample(pool, take))
    rng.shuffle(pairs)
    return [census_item(tr, n, masks) for n, masks in pairs]


def build_verify(tr, rng: random.Random) -> list[IdealItem]:
    items = []
    for kind, q, count in VERIFY_PLAN:
        for j in range(count):
            if kind == "quasi_forest":
                shape = gen.SHAPES[(q + j) % len(gen.SHAPES)]
                items.append(dual_item(tr, *gen.quasi_forest(rng, q, shape), True))
            elif kind == "four_cycle":
                items.append(dual_item(tr, *gen.four_cycle_complex(rng, q), False))
            else:
                items.append(dense_item(tr, rng, q))
    rng.shuffle(items)
    return items


def build_large_q(tr, rng: random.Random) -> list[IdealItem]:
    items = []
    for q, count in LARGE_Q_PLAN:
        for j in range(count):
            shape = gen.SHAPES[(q + j) % len(gen.SHAPES)]
            items.append(dual_item(tr, *gen.quasi_forest(rng, q, shape), True))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "census": build_census,
    "verify": build_verify,
    "large_q": build_large_q,
}


# ---------------------------------------------------------------------------
# Running one op.
# ---------------------------------------------------------------------------

def call_cli(tr, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """``treeres.cli.main`` in-process on text fed as stdin; (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tr.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def resolve_ok(tr, item: IdealItem) -> bool:
    """``resolve --format json`` gives the tree on the generators, ranks 1, q, q-1."""
    code, out = call_cli(tr, ["resolve", "--format", "json"], item.text)
    if code != 0:
        return False
    payload = json.loads(out)
    return (
        payload["supports_resolution"] is True
        and payload["minimal"] is True
        and payload["free_complex"]["ranks"] == [1, item.q, item.q - 1]
        and sorted(payload["tree"]["labels"].values()) == sorted(item.generators)
    )


def verify_ok(tr, item: IdealItem) -> bool:
    code, out = call_cli(tr, ["verify"], item.text)
    if item.pd_le_1:
        return (
            code == 0
            and out.startswith("pd(I)=1;")
            and "tree supports minimal resolution" in out
            and resolve_ok(tr, item)
        )
    return code == 1 and "dual is not a quasi-forest" in out


def census_ok(tr, item: CensusItem) -> bool:
    rep = tr.census.check_complex((item.n, item.masks))
    return not rep.violations and rep.quasi_forest == item.quasi_forest


OPS = {
    "census": census_ok,
    "verify": verify_ok,
    "large_q": resolve_ok,
}


def run_op(tr, workload: str, item) -> bool:
    """One op; any exception, exit or wrong answer is a failure.

    An exception's traceback goes to stderr so that a failing run says why.
    """
    try:
        return bool(OPS[workload](tr, item))
    except (Exception, SystemExit):
        traceback.print_exc()
        return False
