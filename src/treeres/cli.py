"""Command-line surface.

Exit codes: 0 for success (or a true predicate), 1 for a false predicate,
2 for any error.  A disagreement between the oracle and the combinatorial
recognizers is never swallowed: it aborts with a reproducer file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .census import run_census
from .complexes import (
    EmptyComplex,
    _facet_names,
    complex_from_json,
    complex_to_json,
    is_connected,
    is_quasi_forest_by_induced,
    leaf_order,
)
from .duality import ZeroIdeal, dual_facets, sr_complex, sr_ideal
from .homology import betti, betti_to_json
from .monomial import (
    MonomialIdeal,
    ParseError,
    format_ideal,
    lcm,
    parse_ideal,
    polarize,
)
from .resolution import (
    LabeledComplex,
    _tree_on,
    build_tree,
    enumerate_trees,
    floystad_tree,
    free_complex_to_json,
    homogenize,
    is_minimal_support,
    labeled_complex_to_json,
    supports_resolution,
    taylor,
    tree_to_dot,
)

REPRODUCER = "treeres-reproducer.json"


def _read_text(args) -> str:
    if args.input and args.input != "-":
        return Path(args.input).read_text()
    return sys.stdin.read()


def _emit(args, text: str) -> None:
    if args.output and args.output != "-":
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_ideal(args) -> MonomialIdeal:
    return parse_ideal(_read_text(args))


def _load_complex(args):
    return complex_from_json(json.loads(_read_text(args)))


def _dump_json(obj) -> str:
    """One line with sorted keys.  An ``indent`` would make ``json`` fall
    back from its C encoder to the pure-Python one."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_dot(args, *trees: LabeledComplex) -> None:
    """Write the trees' DOT graphs to the ``--dot`` file, one after another."""
    if args.dot:
        Path(args.dot).write_text("".join(map(tree_to_dot, trees)))


def _order_label(order) -> str:
    return ",".join(f"F{i + 1}" for i in order)


def _tree_text(tree: LabeledComplex) -> str:
    D = tree.complex
    lines = [f"{v} [{tree.label_of(v)}]" for v in D.vertices.names]
    for a, b in (f for f in _facet_names(D) if len(f) == 2):
        lines.append(f"{a} -- {b} [{lcm(tree.label_of(a), tree.label_of(b))}]")
    return "\n".join(lines) + "\n"


def _facets_text(D) -> str:
    return "".join(
        f"F{i + 1} = {{{','.join(f)}}}\n" for i, f in enumerate(_facet_names(D))
    )


def _emit_tree(args, tree: LabeledComplex) -> None:
    _write_dot(args, tree)
    if args.format == "json":
        _emit(args, _dump_json(labeled_complex_to_json(tree)))
    else:
        _emit(args, _tree_text(tree))


# ---------------------------------------------------------------------------
# Command handlers.
# ---------------------------------------------------------------------------

def cmd_dual(args) -> int:
    D = dual_facets(_load_ideal(args))
    if args.format == "json":
        _emit(args, _dump_json(complex_to_json(D)))
    else:
        _emit(args, _facets_text(D))
    return 0


def cmd_sr(args) -> int:
    text = _read_text(args)
    if text.lstrip().startswith("{"):
        D = complex_from_json(json.loads(text))
        I = sr_ideal(D)
        if isinstance(I, ZeroIdeal):
            _emit(args, "zero ideal (the complex is the full simplex)\n")
            return 0
        _emit(args, format_ideal(I))
        return 0
    D = sr_complex(parse_ideal(text))
    if args.format == "json" or isinstance(D, EmptyComplex):
        _emit(args, _dump_json(complex_to_json(D)))
    else:
        _emit(args, _facets_text(D))
    return 0


def cmd_quasiforest(args) -> int:
    D = _load_complex(args)
    if isinstance(D, EmptyComplex):
        _emit(args, "quasi-forest: yes (no facets)\n")
        return 0
    # The guarded sweep runs first: the exhaustive search has no guard.
    induced_ok = is_quasi_forest_by_induced(D)
    greedy = leaf_order(D, "greedy")
    exhaustive = leaf_order(D, "exhaustive")
    ok = exhaustive is not None
    lines = [f"quasi-forest: {'yes' if ok else 'no'}"]
    if ok:
        lines.append(f"leaf order: {_order_label(exhaustive)}")
    else:
        lines.append("no leaf order")
    lines.append(
        "recognizers: greedy={} exhaustive={} induced={}".format(
            "yes" if greedy is not None else "no",
            "yes" if exhaustive is not None else "no",
            "yes" if induced_ok else "no",
        )
    )
    if ok:
        lines.append(
            "connected: {}".format(
                "yes (quasi-tree)" if is_connected(D) else "no (quasi-forest)"
            )
        )
    _emit(args, "\n".join(lines) + "\n")
    if (greedy is not None) != (exhaustive is not None) or ok != induced_ok:
        return _abort_with_reproducer(
            "quasi-forest recognizers disagree", {"complex": complex_to_json(D)}
        )
    return 0 if ok else 1


def _emit_trees(args, trees: list[LabeledComplex]) -> None:
    _write_dot(args, *trees)
    if args.format == "json":
        _emit(args, _dump_json([labeled_complex_to_json(t) for t in trees]))
    else:
        chunks = [_tree_text(t) for t in trees]
        _emit(args, f"{len(trees)} tree(s)\n" + "\n".join(chunks))


def cmd_tree(args) -> int:
    D = _load_complex(args)
    if isinstance(D, EmptyComplex):
        raise ValueError("cannot build a tree from an empty complex")
    if args.joint == "all":
        trees = list(enumerate_trees(D))
        if not trees:
            raise ValueError("not a quasi-forest: no leaf order exists")
        _emit_trees(args, trees)
        return 0
    _emit_tree(args, build_tree(D))
    return 0


def cmd_floystad(args) -> int:
    _emit_tree(args, floystad_tree(_load_ideal(args)))
    return 0


def cmd_resolve(args) -> int:
    I = _load_ideal(args)
    if not I.is_squarefree():
        raise ValueError("resolve needs a squarefree ideal; run polarize first")
    found = _tree_on(I)
    if found is None:
        raise ValueError("not a quasi-forest: no leaf order exists")
    tree = found[1]
    F = homogenize(tree)
    supports = supports_resolution(tree)
    minimal = is_minimal_support(F)
    if not (supports and minimal):
        return _abort_with_reproducer(
            "built tree failed the resolution criteria",
            {"ideal": format_ideal(I)},
        )
    _write_dot(args, tree)
    if args.format == "json":
        payload = {
            "tree": labeled_complex_to_json(tree),
            "free_complex": free_complex_to_json(F),
            "supports_resolution": supports,
            "minimal": minimal,
        }
        _emit(args, _dump_json(payload))
    else:
        lines = [
            "ranks: " + " ".join(str(r) for r in F.ranks),
        ]
        for i in range(1, F.length + 1):
            lines.append(
                f"degree {i} multidegrees: "
                + " ".join(str(m) for m in F.modules[i])
            )
        lines.append("supports resolution: yes")
        lines.append("minimal: yes")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_taylor(args) -> int:
    F = taylor(_load_ideal(args))
    if args.format == "json":
        _emit(args, _dump_json(free_complex_to_json(F)))
    else:
        _emit(args, "ranks: " + " ".join(str(r) for r in F.ranks) + "\n")
    return 0


def cmd_betti(args) -> int:
    table = betti(_load_ideal(args))
    if args.format == "json":
        _emit(args, _dump_json(betti_to_json(table)))
    else:
        lines = ["total: " + " ".join(str(b) for b in table.totals())]
        lines.extend(
            f"beta[{i}, {m}] = {b}" for i, m, b in table.entries
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_pd(args) -> int:
    table = betti(_load_ideal(args))
    _emit(args, f"{table.pd_quotient() - 1}\n")
    return 0


def cmd_polarize(args) -> int:
    I = _load_ideal(args)
    P, varmap = polarize(I)
    if args.format == "json":
        payload = {
            "ideal": format_ideal(P),
            "map": {new: list(old) for new, old in varmap.items()},
        }
        _emit(args, _dump_json(payload))
    else:
        mapping = " ".join(
            f"{new}={old}.{j}" for new, (old, j) in varmap.items()
        )
        _emit(args, format_ideal(P) + f"# map: {mapping}\n")
    return 0


def _abort_with_reproducer(message: str, payload: dict) -> int:
    path = Path(REPRODUCER)
    payload = dict(payload)
    payload["failure"] = message
    path.write_text(_dump_json(payload))
    print(f"error: {message}; reproducer written to {path}", file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    I = _load_ideal(args)
    if not I.is_squarefree():
        raise ValueError("verify needs a squarefree ideal; run polarize first")
    table = betti(I)
    pd_i = table.pd_quotient() - 1
    pd_le_1 = pd_i <= 1

    if I.q == 1:
        # Principal: the dual may degenerate, but the single-vertex tree
        # always supports the minimal resolution.
        line = (
            f"pd(I)={pd_i}; principal ideal; "
            "tree supports minimal resolution (single vertex)"
        )
        _emit(args, line + "\n")
        return 0

    found = _tree_on(I)
    qf = found is not None

    tree_ok = False
    if qf:
        order, tree = found
        tree_ok = supports_resolution(tree) and is_minimal_support(homogenize(tree))

    if not (pd_le_1 == qf == tree_ok):
        return _abort_with_reproducer(
            f"one-sided equivalence: pd<=1 {pd_le_1}, quasi-forest {qf}, tree {tree_ok}",
            {"ideal": format_ideal(I)},
        )

    if qf:
        kind = "quasi-tree" if is_connected(dual_facets(I)) else "quasi-forest"
        line = (
            f"pd(I)={pd_i}; dual is {kind} (leaf order {_order_label(order)}); "
            "tree supports minimal resolution"
        )
    else:
        line = (
            f"pd(I)={pd_i}; dual is not a quasi-forest; "
            "no tree-supported minimal resolution"
        )
    _emit(args, line + "\n")
    return 0 if pd_le_1 else 1


def cmd_census(args) -> int:
    result = run_census(args.max_vertices, workers=args.workers)
    _emit(args, "\n".join(result.summary_lines()) + "\n")
    if result.violations:
        return _abort_with_reproducer(
            f"{len(result.violations)} invariant violations",
            {"violations": result.violations[:20]},
        )
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

_FLAGS = {
    "--input": {"default": "-", "help": "input file (default stdin)"},
    "--output": {"default": "-", "help": "output file (default stdout)"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--dot": {"default": None, "help": "write the tree as DOT"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeres",
        description=(
            "Decide projective dimension <= 1 for squarefree monomial ideals "
            "and build the tree-supported minimal free resolution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = ("--input", "--output")
    formatted = io + ("--format",)
    dotted = formatted + ("--dot",)
    specs = [
        ("dual", cmd_dual, "facets of the dual complex, one per generator", formatted),
        ("sr", cmd_sr, "Stanley-Reisner transform (auto-detects direction)", formatted),
        ("quasiforest", cmd_quasiforest, "leaf-order recognizers (exit 1 when none)", io),
        ("tree", cmd_tree, "build the labeled tree from a quasi-forest", dotted),
        ("floystad", cmd_floystad, "degree-ordered spanning tree construction", dotted),
        ("resolve", cmd_resolve, "tree, homogenization, and criteria for an ideal", dotted),
        ("taylor", cmd_taylor, "homogenized full simplex on the generators", formatted),
        ("betti", cmd_betti, "graded Betti numbers of S/I (exact oracle)", formatted),
        ("pd", cmd_pd, "projective dimension of the ideal", io),
        ("verify", cmd_verify, "three-way equivalence for one ideal", io),
        ("polarize", cmd_polarize, "squarefree polarization with variable map", formatted),
    ]
    for name, handler, help_text, flags in specs:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if name == "tree":
            p.add_argument("--joint", choices=("smallest", "all"), default="smallest")
        p.set_defaults(handler=handler)

    c = sub.add_parser("census", help="enumerate small complexes and verify all invariants")
    c.add_argument("--output", **_FLAGS["--output"])
    c.add_argument("--max-vertices", type=int, required=True)
    c.add_argument("--workers", type=int, default=1)
    c.set_defaults(handler=cmd_census)
    return parser


# The process's one parser, built by the first ``main`` call.  Parsing
# leaves it unchanged, and building one per call costs more than most
# commands.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, KeyError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
