"""Traced mode: spans around the public functions of every treeres layer.

The tracer replaces each named function in every ``treeres`` module
namespace that holds it, and patches the named methods on their classes.
Spans are kept in memory with parent links and written out by ``dump``.
Generator functions are timed one resumption at a time, so the consumer's
loop body between two items is not charged to the generator.
``Monomial.__post_init__`` is only counted: it runs millions of times and
a span each would swamp the rest of the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# Span record fields.
NAME, PARENT, START, END, SIZE = range(5)


def _cells(args, kwargs, result):
    M = args[0]
    if hasattr(M, "rows"):
        return M.rows * M.cols
    rows = len(M)
    return rows * len(M[0]) if rows else 0


def _entries(args, kwargs, result):
    return sum(len(d) for d in result.differentials)


def _elements(args, kwargs, result):
    return len(result)


def _betti_entries(args, kwargs, result):
    return len(result.entries) - 1  # beta_0 at multidegree 1 is not found work


def _leaf_order_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "greedy")
    return f"complexes.leaf_order.{mode}"


# (module, function, size counter or None); sizes are summed per span name.
FUNCTIONS = (
    ("homology", "rank_exact", _cells),
    ("homology", "is_exact_frame", None),
    ("homology", "betti", _betti_entries),
    ("homology", "reduced_homology_dims", None),
    ("resolution", "taylor", None),
    ("resolution", "homogenize", _entries),
    ("resolution", "frame", None),
    ("resolution", "supports_resolution", None),
    ("resolution", "is_minimal_support", None),
    ("resolution", "build_tree", None),
    ("resolution", "floystad_tree", None),
    ("complexes", "leaf_order", None),
    ("complexes", "is_quasi_forest_by_induced", None),
    ("complexes", "is_simplicial_forest", None),
    ("complexes", "faces", None),
    ("complexes", "induced", None),
    ("complexes", "connected_components", None),
    ("duality", "sr_ideal", None),
    ("duality", "sr_complex", None),
    ("duality", "alexander_dual", None),
    ("duality", "dual_generators", None),
    ("duality", "dual_facets", None),
    ("monomial", "lcm_closure", _elements),
    ("monomial", "parse_ideal", None),
    ("census", "check_complex", None),
    ("cli", "main", None),
)
GENERATORS = (
    ("resolution", "enumerate_trees"),
    ("complexes", "all_leaf_orders"),
)
METHODS = (("resolution", "FreeComplex", "boundary_squares_to_zero"),)


class Tracer:
    """In-memory span recorder; ``install`` patches treeres, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.constructed = 0
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1], time.perf_counter(), None, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _function(self, name, fn, size=None, name_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if size is not None:
                self.spans[idx][SIZE] = size(args, kwargs, result)
            return result

        return wrapper

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._resumptions(name, fn(*args, **kwargs))

        return wrapper

    def _resumptions(self, name, iterable):
        it = iter(iterable)
        while True:
            idx = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.spans[idx][SIZE] = 1
            yield item

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "treeres" or mod_name.startswith("treeres.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        def module(short):
            return importlib.import_module(f"treeres.{short}")

        for short, fname, size in FUNCTIONS:
            fn = getattr(module(short), fname)
            name_of = _leaf_order_name if fname == "leaf_order" else None
            self._replace_everywhere(
                fn, self._function(f"{short}.{fname}", fn, size, name_of)
            )
        for short, fname in GENERATORS:
            fn = getattr(module(short), fname)
            self._replace_everywhere(fn, self._generator(f"{short}.{fname}", fn))
        for short, cls_name, meth in METHODS:
            cls = getattr(module(short), cls_name)
            fn = vars(cls)[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._function(f"{short}.{cls_name}.{meth}", fn))

        mono_cls = module("monomial").Monomial
        post_init = vars(mono_cls)["__post_init__"]

        def counted(obj):
            self.constructed += 1
            post_init(obj)

        self._undo.append((mono_cls, "__post_init__", post_init))
        mono_cls.__post_init__ = counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time and summed size."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            row = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "size": 0})
            row["calls"] += 1
            row["self_s"] += span[END] - span[START] - child_time[i]
            row["size"] += span[SIZE]
        return out

    def child_size(self, parent_name: str, child_name: str) -> int:
        """Summed size of ``child_name`` spans opened directly under ``parent_name``."""
        total = 0
        for span in self.spans:
            p = span[PARENT]
            if span[NAME] == child_name and p >= 0 and self.spans[p][NAME] == parent_name:
                total += span[SIZE]
        return total

    def dump(self, path: Path, meta: dict) -> None:
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [code[s[NAME]], s[PARENT], round(s[START] - t0, 9), round(s[END] - t0, 9), s[SIZE]]
            for s in self.spans
        ]
        payload = {
            "meta": meta,
            "fields": ["name", "parent", "start_s", "end_s", "size"],
            "names": names,
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
