"""The benchmark's own tests: two traced runs with one seed give identical
work counters, MSE and log-det gaps, and every per-layer metric is
measured by at least one workload.

    python3 -m pytest perfbench        # about two minutes
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk", "nearest-5k", "alloc-sweep")

# Per-layer metrics that are counts or quality figures, not timings.
DETERMINISTIC = ("_per_call", ".kappa_evals_per_table",
                 ".level_prob_evals_per_step", ".newton_iters_mean",
                 ".backtracks_per_solve", ".bits_mean", ".bits_std",
                 ".reports_per_step", ".ess_ratio_p50", ".degenerate_steps",
                 ".mse_tavg", ".logdet_gap", ".oracle_hit_rate")


def traced_run(workload: str, seed: int) -> tuple:
    """Run one traced, minimum-length benchmark; return (last-line
    result, detailed result file)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace1.json")
    with open(path) as fh:
        return last, json.load(fh)


def test_traced_runs_repeat_and_cover_every_layer_metric():
    exercised = set()
    for workload in WORKLOADS:
        first, detail = traced_run(workload, 7)
        second, _ = traced_run(workload, 7)
        assert first["correct"] and second["correct"], detail["failure_reasons"]
        assert first["attempted"] == second["attempted"]
        counts = [n for n in first["metrics"] if n.endswith(DETERMINISTIC)
                  and n not in detail["not_exercised"]]
        assert counts, workload
        for name in counts:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), (workload, name)
        exercised |= set(first["metrics"]) - set(detail["not_exercised"])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == exercised, sorted(declared ^ exercised)
