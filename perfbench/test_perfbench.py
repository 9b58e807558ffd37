"""Tests of the benchmark itself: labels, output, error counting, tracing.

They run tiny passes built with the same item constructors as the real
workloads, so they take seconds, not a full benchmark run.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import gen, run, workloads

ROOT = Path(__file__).resolve().parents[1]
COUNT_FIELDS = ("calls", "cells", "entries", "elements", "trees", "constructed")


@pytest.fixture(scope="module")
def tr():
    package = importlib.import_module("treeres")
    for short in run.TREERES_MODULES:
        importlib.import_module(f"treeres.{short}")
    return package


def tiny_items(tr, workload: str) -> list:
    rng = random.Random(7)
    if workload == "census":
        return [
            workloads.census_item(tr, n, masks)
            for n in (2, 3)
            for masks in tr.census.antichain_covers(n)
        ][:12]
    if workload == "verify":
        return [
            workloads.dual_item(tr, *gen.quasi_forest(rng, 4, "path"), True),
            workloads.dual_item(tr, *gen.quasi_forest(rng, 5, "star"), True),
            workloads.dual_item(tr, *gen.four_cycle_complex(rng, 5), False),
            workloads.dense_item(tr, rng, 5),
        ]
    return [
        workloads.dual_item(tr, *gen.quasi_forest(rng, q, shape), True)
        for q, shape in ((4, "caterpillar"), (5, "random"))
    ]


def printed_metrics(text: str) -> dict[str, str]:
    """name -> unit from the ``# metric`` lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith("# metric "):
            name, rest = line[len("# metric "):].split(" = ")
            out[name] = rest.split()[-1]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_generated_labels_hold(tr, seed):
    rng = random.Random(seed)
    cases = [(gen.quasi_forest(rng, q, shape), True) for q in (3, 5, 7) for shape in gen.SHAPES]
    cases += [(gen.four_cycle_complex(rng, q), False) for q in (4, 6, 8)]
    for (n, facets), quasi_forest in cases:
        D = workloads.complex_of(tr, n, facets)
        assert (tr.complexes.leaf_order(D, "exhaustive") is not None) == quasi_forest
        if n <= 20:
            assert tr.complexes.is_quasi_forest_by_induced(D) == quasi_forest


def test_passes_are_seeded(tr):
    a = workloads.build_large_q(tr, random.Random(5))
    b = workloads.build_large_q(tr, random.Random(5))
    assert a == b and a != workloads.build_large_q(tr, random.Random(6))
    assert all(item.pd_le_1 and 13 <= item.q <= 17 for item in a)


@pytest.mark.parametrize("workload", ["census", "verify", "large_q"])
def test_tiny_run_prints_every_end_to_end_metric(tr, workload, capsys):
    latencies, failed, wall = run.measure(tr, workload, tiny_items(tr, workload), seconds=0)
    metrics = run.end_to_end(latencies, failed, wall, setup_s=0.1)
    units = dict(run.END_TO_END_UNITS, error_rate="ratio")
    result = run.report({"workload": workload}, metrics, units, len(latencies), failed)
    out = capsys.readouterr().out
    assert printed_metrics(out) == units
    assert json.loads(out.splitlines()[-1]) == result
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert len(latencies) >= run.MIN_SAMPLES


def test_flipped_label_counts_as_error(tr):
    items = tiny_items(tr, "verify")
    items[0] = dataclasses.replace(items[0], pd_le_1=not items[0].pd_le_1)
    latencies, failed, wall = run.measure(tr, "verify", items, seconds=0)
    assert run.end_to_end(latencies, failed, wall, setup_s=0.1)["error_rate"] > 0


@pytest.mark.parametrize("workload", ["census", "verify", "large_q"])
def test_traced_runs_repeat_counts_and_print_every_layer(tr, workload, capsys):
    items = tiny_items(tr, workload)
    first, attempted, failed, _ = run.traced_pass(tr, workload, items)
    second, _, _, _ = run.traced_pass(tr, workload, items)
    assert failed == 0 and attempted == 2 * len(items)
    counts = [m for m in run.PER_LAYER if m.rsplit(".", 1)[1] in COUNT_FIELDS]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["monomial.Monomial.constructed"] > 0
    units = {m: run.layer_unit(m) for m in run.PER_LAYER}
    run.report({"workload": workload}, first, units, attempted, failed)
    assert printed_metrics(capsys.readouterr().out) == units
    # Uninstalling leaves no wrapper behind.
    for module in (tr.monomial, tr.complexes, tr.duality, tr.resolution, tr.homology, tr.census, tr.cli):
        assert not any(hasattr(v, "__wrapped__") for v in vars(module).values())


def test_generator_spans_cover_consumption_only(tr):
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        D = workloads.complex_of(tr, 5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
        trees = 0
        for _ in tr.resolution.enumerate_trees(D):
            trees += 1
            time.sleep(0.02)  # the consumer's time, not the generator's
    finally:
        tracer.uninstall()
    row = tracer.summary()["resolution.enumerate_trees"]
    assert row["size"] == trees > 0
    # One span per item plus the resumption that ends the generator.
    assert row["calls"] == trees + 1
    assert row["self_s"] < 0.01 * trees


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["census", "verify", "large_q"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
