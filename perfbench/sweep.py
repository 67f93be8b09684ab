"""The `alloc-sweep` workload: the `bittrack bench-alloc` recipe over a
grid of problem sizes, with no tracking.

Every instance is a `cli.random_fim_table` at one (N, R) cell.  Each
sweep puts one instance of every cell through `adp`, `gbfos`, `greedy`
and `convex` (`feasible_start` + `newton_solve` + `round_transmission`),
and through `exhaustive` on the oracle cells.  Traced, each instance is
run untraced first (the overhead baseline) and then again with spans.
"""

from __future__ import annotations

import time

import numpy as np

from bittrack import allocators, cli, convex
from bittrack.fisher import logdet, total_fim

from common import (Failures, Tracer, mean_or_zero, repeat_timed, throughput,
                    timing_stats, wrapped)

SIZES = (4, 9, 16, 25, 36)
BUDGETS = tuple(range(2, 9))
CELLS = tuple((n, r) for n in SIZES for r in BUDGETS)
POLICIES = ("exhaustive", "convex", "adp", "gbfos", "greedy")

# exhaustive gathers a (count, N, 4, 4) float64 array: 118 755 candidates
# at N=25 is ~0.4 GB and ~0.5 GB peak RSS; N=36, R=5 (658 008) would need
# ~3 GB, far below DEFAULT_ENUM_CAP.  Cells above this count run every
# policy but exhaustive, and report no oracle gap.
ORACLE_LIMIT = 118_755

# Instance sets generated in set-up; sweeps cycle through them.
INSTANCE_SETS = 24
MIN_SWEEPS = 5
GAP_TOL = 1e-9


def oracle_cell(n: int, r: int) -> bool:
    return allocators.enumerate_count(n, r) <= ORACLE_LIMIT


def not_attempted() -> list:
    return [{"cell": f"N{n}R{r}", "policy": "exhaustive",
             "candidates": allocators.enumerate_count(n, r),
             "reason": "C(N+R-1, N-1) > 118755: the (count, N, 4, 4) gather "
                       "would need GBs of memory"}
            for n, r in CELLS if not oracle_cell(n, r)]


def generate_instances(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [[cli.random_fim_table(n, r, rng) for n, r in CELLS]
            for _ in range(INSTANCE_SETS)]


def time_setup(seed: int):
    """Generate the instances repeatedly (see `repeat_timed`); return
    (instances, per-call seconds of each sample)."""
    instances, samples, _calls = repeat_timed(lambda: generate_instances(seed))
    return instances, samples


def _call(policy, table, n, r, tr, ident):
    """One allocation call; returns (rates, outcome or None, extras)."""
    if policy == "exhaustive":
        out = allocators.exhaustive(table, n, r)
    elif policy == "adp":
        out = allocators.adp(table, n, r)
    elif policy == "gbfos":
        out = allocators.gbfos(table, n, r)
    elif policy == "greedy":
        out = allocators.greedy(table, n, r)
    else:
        return _convex_call(table, n, r, tr, ident)
    return out.alloc, out, {}


def _convex_call(table, n, r, tr, ident):
    sys_c = convex.constraint_system(n, r)
    if tr is None:
        q_star, diag = convex.newton_solve(table, sys_c,
                                           convex.default_settings(n, r),
                                           convex.feasible_start(n, r))
        rates = convex.round_transmission(q_star, r)
        return rates, None, {"q_star": q_star, "diag": diag}
    with tr.span("convex.warm_start", ident):
        q0 = convex.feasible_start(n, r)
    values_before = tr.snapshot("convex.barrier_value")[1]
    with tr.span("convex.newton", ident):
        q_star, diag = convex.newton_solve(table, sys_c,
                                           convex.default_settings(n, r), q0)
    values = tr.snapshot("convex.barrier_value")[1] - values_before
    with tr.span("convex.sample", ident):
        rates = convex.round_transmission(q_star, r)
    return rates, None, {"q_star": q_star, "diag": diag,
                         "backtracks": values - diag.iterations}


def check_call(policy, n, r, rates, out, extras) -> list:
    problems = []
    rates = np.asarray(rates)
    if np.any(rates < 0) or np.any(rates > r):
        problems.append("rate outside 0..R")
    if policy == "convex":
        if rates.sum() > r:
            problems.append("rounded convex rates exceed R")
        try:
            extras["q_star"].validate(row_tol=1e-6, budget=r, budget_tol=1e-6)
        except ValueError as exc:
            problems.append(f"relaxed solution infeasible: {exc}")
        if extras["diag"].max_constraint_residual > 1e-8:
            problems.append("Newton constraint residual above 1e-8")
        return problems
    if rates.sum() != r:
        problems.append("exact policy did not spend exactly R bits")
    if policy == "exhaustive" and out.candidates_examined != \
            allocators.enumerate_count(n, r):
        problems.append("exhaustive candidate count != C(N+R-1, N-1)")
    if policy == "adp" and out.matrix_sums != 2 * r + (n - 2) * r * (r + 1) // 2:
        problems.append("adp matrix_sums != 2R + (N-2)R(R+1)/2")
    if policy == "gbfos" and out.matrix_sums > n + 2 * n * (n - 1) * r:
        problems.append("gbfos matrix_sums above N + 2N(N-1)R")
    if policy == "greedy" and out.matrix_sums > n * (2 * r - 1):
        problems.append("greedy matrix_sums above N(2R-1)")
    return problems


def run_instance(table, n, r, failures: Failures, label: str,
                 tr: Tracer | None = None, ident=None) -> list:
    """Every applicable policy on one instance; returns one dict per
    call with its time, log-det, counters, rates and gap to exhaustive."""
    calls = []
    for policy in POLICIES:
        if policy == "exhaustive" and not oracle_cell(n, r):
            continue
        t0 = time.perf_counter()
        try:
            if tr is None:
                rates, out, extras = _call(policy, table, n, r, None, ident)
            else:
                with tr.span(f"allocators.{policy}", ident):
                    rates, out, extras = _call(policy, table, n, r, tr, ident)
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.record([f"{type(exc).__name__}: {exc}"], f"{label} {policy}")
            continue
        seconds = time.perf_counter() - t0
        problems = check_call(policy, n, r, rates, out, extras)
        value = (out.logdet_value if out is not None
                 else logdet(total_fim(rates, table)))
        if not np.isfinite(value):
            problems.append("non-finite log-det")
        calls.append({"policy": policy, "seconds": seconds, "logdet": value,
                      "matrix_sums": out.matrix_sums if out is not None else 0,
                      "candidates": (out.candidates_examined if out is not None
                                     else extras["diag"].iterations),
                      "rates": np.asarray(rates), "extras": extras,
                      "problems": problems})
    ref = next((c["logdet"] for c in calls if c["policy"] == "exhaustive"), None)
    for c in calls:
        c["gap"] = None if ref is None else ref - c["logdet"]
        if c["gap"] is not None and c["gap"] < -GAP_TOL:
            c["problems"].append(f"beats exhaustive by {-c['gap']:.3g}")
        failures.record(c["problems"], f"{label} {c['policy']}")
    return calls


def warm_up(instances) -> None:
    """One untimed sweep: fills the composition-matrix cache and the
    solver's lazy imports before timing starts."""
    scratch = Failures()
    for (n, r), table in zip(CELLS, instances[0]):
        run_instance(table, n, r, scratch, "warm-up")


def run(instances, seconds: float, failures: Failures,
        tr: Tracer | None) -> dict:
    """Sweeps until `seconds` have passed (at least MIN_SWEEPS).

    Untraced, a sweep's rate is cells / summed call time.  Traced, each
    instance also runs with spans; only the untraced calls give rates.
    """
    sweep_rates, records = [], []
    untraced_s = traced_s = 0.0
    started = time.perf_counter()
    sweep = 0
    while sweep < MIN_SWEEPS or time.perf_counter() - started < seconds:
        index = sweep % INSTANCE_SETS
        busy = 0.0
        for (n, r), table in zip(CELLS, instances[index]):
            label = f"N{n}R{r} set {index}"
            calls = run_instance(table, n, r, failures, label)
            busy += sum(c["seconds"] for c in calls)
            if tr is not None:
                ident = ("alloc-sweep", f"N{n}R{r}", index, -1)
                with wrapped(tr, [(convex, "barrier_value",
                                   "convex.barrier_value")]):
                    traced = run_instance(table, n, r, failures,
                                          label + " (traced)", tr, ident)
                traced_s += sum(c["seconds"] for c in traced)
                calls = traced
            for c in calls:
                c.update(n=n, r=r, prefix=sweep < MIN_SWEEPS)
            records.extend(calls)
        untraced_s += busy
        if busy > 0:
            sweep_rates.append(len(CELLS) / busy)
        sweep += 1
    return {"sweeps": sweep, "sweep_rates": sweep_rates,
            "trials_per_s": throughput(sweep_rates) if sweep_rates else 0.0,
            "records": records,
            "untraced_s": untraced_s, "traced_s": traced_s}


def policy_report(records) -> dict:
    """allocs_per_s (all sweeps) and mean logdet_gap (first MIN_SWEEPS
    sweeps, oracle cells) per policy."""
    out = {}
    for policy in POLICIES:
        mine = [c for c in records if c["policy"] == policy]
        out[f"allocs_per_s.{policy}"] = (len(mine) / sum(c["seconds"] for c in mine)
                                         if mine else 0.0)
        if policy != "exhaustive":
            gaps = [c["gap"] for c in mine if c["prefix"] and c["gap"] is not None]
            out[f"logdet_gap.{policy}"] = mean_or_zero(gaps)
    return out


def layer_metrics(tr: Tracer, run_out: dict, setup_reps) -> tuple:
    """Per-layer metrics of a traced sweep; counts and gaps use only the
    first MIN_SWEEPS sweeps, so they are fixed for a seed."""
    records = run_out["records"]
    prefix = [c for c in records if c["prefix"]]
    m, tails = {}, {}

    def timing(name, samples, tail_name=None):
        stats = timing_stats(samples)
        m[name] = stats["p50"]
        if tail_name:
            m[tail_name] = stats["tail"]
            tails[tail_name] = stats

    for policy in POLICIES:
        key = f"allocators.{policy}"
        spans = tr.durations(key)
        timing(f"{key}.call_ms_p50", spans, f"{key}.call_ms_tail")
        m[f"{key}.allocs_per_s"] = len(spans) / sum(spans)
        mine = [c for c in prefix if c["policy"] == policy]
        m[f"{key}.candidates_per_call"] = mean_or_zero([c["candidates"] for c in mine])
        if policy != "convex":
            m[f"{key}.matrix_sums_per_call"] = mean_or_zero(
                [c["matrix_sums"] for c in mine])
            msums = sum(c["matrix_sums"] for c in records if c["policy"] == policy)
            m[f"{key}.us_per_matrix_sum"] = sum(spans) * 1e6 / msums
        if policy != "exhaustive":
            gaps = [c["gap"] for c in mine if c["gap"] is not None]
            m[f"{key}.oracle_hit_rate"] = sum(g <= GAP_TOL for g in gaps) / len(gaps)
            m[f"{key}.logdet_gap"] = mean_or_zero(gaps)

    timing("convex.newton_ms_p50", tr.durations("convex.newton"),
           "convex.newton_ms_tail")
    timing("convex.warm_start_ms", tr.durations("convex.warm_start"))
    timing("convex.sample_ms", tr.durations("convex.sample"))
    cvx = [c for c in prefix if c["policy"] == "convex"]
    m["convex.newton_iters_mean"] = mean_or_zero([c["candidates"] for c in cvx])
    m["convex.backtracks_per_solve"] = mean_or_zero(
        [c["extras"]["backtracks"] for c in cvx])
    bits = [float(c["rates"].sum()) for c in cvx]
    m["convex.bits_mean"] = mean_or_zero(bits)
    m["convex.bits_std"] = float(np.std(bits))

    m["harness.trace_overhead"] = run_out["traced_s"] / run_out["untraced_s"] - 1.0
    tables = INSTANCE_SETS * len(CELLS)
    m["cli.random_table_ms"] = float(np.median(setup_reps)) * 1e3 / tables
    return m, tails
