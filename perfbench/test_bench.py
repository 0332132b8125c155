"""Checks on the benchmark itself. Run from the root of the checkout:

    python3 -m pytest perfbench/test_bench.py

Exact layer counts must repeat across two traced runs with one seed,
because count-based claims about the program rest on them.
"""
import json
import time
from pathlib import Path

import pytest

from run import (E2E_UNITS, RUN_BUDGET_S, TABLE_ONLY, TRACE_UNITS, BenchError,
                 _phase)
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "B")
NAMED_COUNTS = ("fit.residual_evals", "fit.lm_iterations", "models.pulse_evals",
                "lcwt.passes", "lcwt.refits", "infotheory.windows")
OPS = {"corn": 3, "corn_cwt": 3, "long": 1, "events": 1, "mc_adf": 2}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    out = ROOT / ".bench_out" / f"test-counts-{name}"
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for attempt in range(2):
        try:
            result = _phase(ROOT, out / "traced.json",
                            time.monotonic() + RUN_BUDGET_S, "deck",
                            "--workload", name, "--seed", "0",
                            "--work", str(out / "work"), "--ops", str(OPS[name]),
                            "--trace", "1", "--spans", str(out / "spans.npz"))
        except BenchError as exc:
            pytest.fail(str(exc))
        runs.append({k: v for k, (v, unit) in result["layers"].items()
                     if unit in EXACT_UNITS})
    first, second = runs
    assert set(NAMED_COUNTS) <= set(first)
    assert first == second
    assert any(first.values()), f"{name}: no layer counted any work"


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    layers = {k: u for k, (v, u) in layer_metrics(Tracer(), 1).items()
              if k not in TABLE_ONLY}
    layers.update(TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
