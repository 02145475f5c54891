"""Smoke check of the benchmark harness: every workload once, tiny, traced.

    python3 perfbench/smoke.py

Runs each workload at tiny sizes through the same parent/worker path as a
real run, with tracing on, and fails unless every end-to-end and per-layer
metric named in BENCHMARK.json is emitted with its unit and every check
passed. Takes a few seconds.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e_units == run.END_TO_END, "end_to_end names or units drifted"
    assert layer_units == run.PER_LAYER, "per_layer names or units drifted"
    start = time.perf_counter()
    for workload in run.WORKLOADS:
        report = run.run(workload, seed=0, seconds=0.2, trace=True, size="tiny")
        result = report["result"]
        assert result["correct"] and result["failed"] == 0, result
        assert set(report["end_to_end"]) == set(e2e_units), report["end_to_end"]
        assert all(math.isfinite(v) for v in report["end_to_end"].values())
        emitted = result["metrics"]
        assert set(emitted) == set(layer_units), set(emitted) ^ set(layer_units)
        for name, entry in emitted.items():
            assert entry["unit"] == layer_units[name] and math.isfinite(entry["value"]), name
    print(f"smoke ok: {len(run.WORKLOADS)} workloads, {len(e2e_units)} end-to-end and "
          f"{len(layer_units)} per-layer metrics, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
