"""Benchmark self-test: work counts repeat exactly across runs of one seed.

    python3 -m pytest -q bench/test_determinism.py

Two traced runs of each workload with the same seed must report identical
work counts and exactly the per-layer metrics BENCHMARK.json lists, and the
layers each workload exists to exercise must do work.  About three minutes
on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
EXERCISED = {"cca_verdict": ("colourauts.sets_checked",
                             "colourauts.stab1_elements"),
             "triple_certify": ("cayley.build_vertices",
                                "triples.crosscheck_stab1_checked")}
SEED = 12345


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_work_counts_repeat(workload):
    first, second = traced_run(workload), traced_run(workload)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] == "count"} for r in (first, second)]
    assert len(counts[0]) == 7
    assert counts[0] == counts[1]
    assert all(counts[0][name] > 0 for name in EXERCISED[workload])
