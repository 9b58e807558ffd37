"""treeres benchmark: one seeded workload per run, correctness checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Untraced (``--trace 0``): set up the workload's inputs several times and
report the median set-up time, then run its pass of ops as a serial
closed loop (the next op starts when the last one ends).  It runs whole
passes until less than half a pass of the ``--seconds`` is left and at
least ``MIN_SAMPLES`` latencies are in.  Whole passes keep the op mix the
same whatever the speed.

Traced (``--trace 1``): run the pass once untraced and once with the
spans of ``tracer.py`` installed, and report the per-layer split of the
traced pass.  Spans go to ``perfbench/out/trace_<workload>.json``.

The last line of stdout is the JSON result; the lines before it, marked
``#``, give the machine, the seed and every metric with its unit.
Exit code 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))  # run as a script: make ``perfbench`` importable

from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, run_op

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPS = 5
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
TREERES_MODULES = (
    "monomial", "complexes", "duality", "resolution", "homology", "census", "cli",
)

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run, in BENCHMARK.json order.
PER_LAYER = (
    "homology.rank_exact.calls",
    "homology.rank_exact.self_s",
    "homology.rank_exact.cells",
    "homology.is_exact_frame.calls",
    "homology.is_exact_frame.self_s",
    "homology.betti.calls",
    "homology.betti.self_s",
    "homology.betti.useful_ratio",
    "homology.reduced_homology_dims.calls",
    "homology.reduced_homology_dims.self_s",
    "resolution.taylor.calls",
    "resolution.taylor.self_s",
    "resolution.homogenize.calls",
    "resolution.homogenize.self_s",
    "resolution.homogenize.entries",
    "resolution.FreeComplex.boundary_squares_to_zero.self_s",
    "resolution.frame.self_s",
    "resolution.supports_resolution.calls",
    "resolution.supports_resolution.self_s",
    "resolution.is_minimal_support.self_s",
    "resolution.build_tree.self_s",
    "resolution.enumerate_trees.self_s",
    "resolution.enumerate_trees.trees",
    "resolution.floystad_tree.self_s",
    "complexes.leaf_order.greedy.self_s",
    "complexes.leaf_order.exhaustive.self_s",
    "complexes.is_quasi_forest_by_induced.self_s",
    "complexes.is_simplicial_forest.calls",
    "complexes.is_simplicial_forest.self_s",
    "complexes.faces.calls",
    "complexes.faces.self_s",
    "complexes.induced.calls",
    "complexes.induced.self_s",
    "complexes.connected_components.self_s",
    "duality.sr_ideal.self_s",
    "duality.sr_complex.self_s",
    "duality.alexander_dual.self_s",
    "duality.dual_generators.self_s",
    "duality.dual_facets.self_s",
    "monomial.lcm_closure.calls",
    "monomial.lcm_closure.self_s",
    "monomial.lcm_closure.elements",
    "monomial.parse_ideal.self_s",
    "monomial.Monomial.constructed",
    "census.check_complex.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
)
SIZE_FIELDS = {"cells", "entries", "elements", "trees"}


def layer_unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    return "ratio" if field == "useful_ratio" else "count"


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------

def import_treeres():
    """Fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "treeres" or m.startswith("treeres.")]:
        del sys.modules[name]
    tr = importlib.import_module("treeres")
    if Path(tr.__file__).resolve().parent != (SRC / "treeres").resolve():
        raise RuntimeError(f"treeres imported from {tr.__file__}, not from {SRC}")
    for short in TREERES_MODULES:
        importlib.import_module(f"treeres.{short}")
    return tr


def setup(workload: str, seed: int):
    """(median set-up seconds, treeres package, items) over ``SETUP_REPS`` set-ups."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        tr = import_treeres()
        items = WORKLOADS[workload](tr, random.Random(seed))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), tr, items


# ---------------------------------------------------------------------------
# Measuring.
# ---------------------------------------------------------------------------

def measure(tr, workload: str, items, seconds: float):
    """Closed loop over whole passes; (latencies in s, failed ops, wall s)."""
    latencies: list[float] = []
    failed = passes = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        for item in items:
            t0 = time.perf_counter()
            ok = run_op(tr, workload, item)
            latencies.append(time.perf_counter() - t0)
            failed += not ok
        passes += 1
        wall = time.perf_counter() - start
        # Stop when less than half a pass of time is left.
        if wall + wall / passes / 2 >= seconds and len(latencies) >= MIN_SAMPLES:
            return latencies, failed, wall


def end_to_end(latencies, failed: int, wall: float, setup_s: float) -> dict[str, float]:
    """Every end-to-end metric; ``error_rate`` is printed, not in the JSON."""
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "throughput_ops_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / len(latencies),
    }


def traced_pass(tr, workload: str, items):
    """(per-layer metrics, attempted, failed, tracer) of one untraced and one traced pass."""
    failed = 0
    gc.collect()
    t0 = time.perf_counter()
    for item in items:
        failed += not run_op(tr, workload, item)
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    gc.collect()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for item in items:
            failed += not run_op(tr, workload, item)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, traced_wall - untraced_wall), 2 * len(items), failed, tracer


def layer_metrics(tracer, overhead_s: float) -> dict[str, float]:
    summary = tracer.summary()
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        row = summary.get(span, {"calls": 0, "self_s": 0.0, "size": 0})
        if metric == "trace.overhead_s":
            out[metric] = overhead_s
        elif metric == "monomial.Monomial.constructed":
            out[metric] = tracer.constructed
        elif metric == "homology.betti.useful_ratio":
            examined = tracer.child_size("homology.betti", "monomial.lcm_closure")
            out[metric] = row["size"] / examined if examined else 0.0
        elif field in SIZE_FIELDS:
            out[metric] = row["size"]
        else:
            out[metric] = row[field]
    return out


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def machine(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout's git metadata, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(meta: dict, metrics: dict[str, float], units: dict[str, str], attempted: int, failed: int) -> dict:
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"# metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name != "error_rate"
        },
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treeres" / "__init__.py").is_file():
        print(f"error: no treeres sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meta = machine(args.workload, args.seed, args.seconds, args.trace)
    setup_s, tr, items = setup(args.workload, args.seed)
    meta["items_per_pass"] = len(items)

    if args.trace:
        metrics, attempted, failed, tracer = traced_pass(tr, args.workload, items)
        tracer.dump(OUT / f"trace_{args.workload}.json", meta)
        units = {m: layer_unit(m) for m in PER_LAYER}
    else:
        latencies, failed, wall = measure(tr, args.workload, items, args.seconds)
        attempted = len(latencies)
        meta["samples"] = attempted
        meta["wall_s"] = wall
        metrics = end_to_end(latencies, failed, wall, setup_s)
        units = dict(END_TO_END_UNITS, error_rate="ratio")
    report(meta, metrics, units, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
