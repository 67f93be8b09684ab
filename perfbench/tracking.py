"""The tracking workloads, `desk` and `nearest-5k`.

Untraced, each round runs every configuration through
`harness.run_experiment` + `harness.write_outputs`, exactly as
`bittrack simulate` does.  Traced, each round runs the same
configurations untraced once more (the reference records and the
overhead baseline) and then replays every trial's step loop from this
file with a span around each call into `tracker`, `fisher`,
`allocators` and `convex`.  The replay must reproduce `run_trial`'s
allocations and estimates bit for bit.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from bittrack import allocators, convex, fisher, harness, quantizer, tracker

from common import (Failures, Tracer, mean_or_zero, repeat_timed, throughput,
                    timing_stats, wrapped)

HERE = os.path.dirname(os.path.abspath(__file__))
BANK_FILE = os.path.join(HERE, "bank_r5.json")

RHOS = (2.5e-3, 0.1)
TABLE_POLICIES = ("exhaustive", "convex", "adp", "gbfos", "greedy")
EXACT_POLICIES = ("exhaustive", "adp", "gbfos", "greedy", "nearest")
NUMERIC_ERRORS = (np.linalg.LinAlgError, ValueError, FloatingPointError)


@dataclass(frozen=True)
class TrackingSpec:
    """One tracking workload: its (label, config) pairs, its set-up, and
    how many rounds always run.  Those first `min_rounds` rounds alone
    feed the seed-deterministic outputs (MSE, work counters), so those
    do not depend on how many rounds fit into the measuring time."""

    name: str
    configs: list
    setup: Callable
    min_rounds: int


def _design_bank(cfg):
    """Threshold design as `harness._Shared` does without a bank file."""
    return quantizer.build_bank(cfg.budget, cfg.area_side, cfg.grid_params,
                                sample_count=cfg.bank_samples,
                                seed=cfg.bank_seed)


def _load_bank(_cfg):
    return quantizer.load_bank(BANK_FILE)


def desk_spec() -> TrackingSpec:
    base = harness.ExperimentConfig(trials=1)
    configs = [(f"{policy}-rho{rho:g}", replace(base, policy=policy, rho=rho))
               for rho in RHOS for policy in harness.POLICIES]
    return TrackingSpec("desk", configs, _design_bank, min_rounds=3)


def nearest5k_spec() -> TrackingSpec:
    cfg = harness.ExperimentConfig(particles=5000, policy="nearest",
                                   rho=2.5e-3, trials=10)
    return TrackingSpec("nearest-5k", [("nearest-5k", cfg)], _load_bank,
                        min_rounds=5)


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of one round: distinct trials every round."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def check_record(rec, cfg) -> list:
    """Output checks on one TrialRecord; returns the problems found."""
    n, budget = cfg.n_sensors, cfg.budget
    problems = []
    if not (np.all(np.isfinite(rec.estimates)) and np.all(np.isfinite(rec.truth))):
        problems.append("non-finite estimate")
    if np.any(rec.allocs < 0) or np.any(rec.allocs > budget):
        problems.append("rate outside 0..R")
    if cfg.policy in EXACT_POLICIES and np.any(rec.allocs.sum(axis=1) != budget):
        problems.append("exact policy did not spend exactly R bits")
    if cfg.policy == "exhaustive" and np.any(
            rec.candidates != allocators.enumerate_count(n, budget)):
        problems.append("exhaustive candidate count != C(N+R-1, N-1)")
    if cfg.policy == "adp" and np.any(
            rec.matrix_sums != 2 * budget + (n - 2) * budget * (budget + 1) // 2):
        problems.append("adp matrix_sums != 2R + (N-2)R(R+1)/2")
    if cfg.policy == "gbfos" and np.any(
            rec.matrix_sums > n + 2 * n * (n - 1) * budget):
        problems.append("gbfos matrix_sums above N + 2N(N-1)R")
    if cfg.policy == "greedy" and np.any(rec.matrix_sums > n * (2 * budget - 1)):
        problems.append("greedy matrix_sums above N(2R-1)")
    if cfg.policy == "convex" and (
            np.any(rec.newton_iters < 1)
            or np.any(rec.newton_decrement > cfg.epsilon)
            or np.any(rec.newton_residual > 1e-8)):
        problems.append("Newton stopped outside its tolerances")
    return problems


def check_convex_bits(bits, budget, failures: Failures) -> None:
    """Sampled convex rates meet the budget in expectation: the mean
    transmitted total lies within 5 standard errors of R."""
    bits = np.asarray(bits, dtype=float)
    if bits.size < 2:
        return
    se = bits.std(ddof=1) / math.sqrt(bits.size)
    problems = []
    if abs(bits.mean() - budget) > 5.0 * se:
        problems.append(f"convex bits_mean {bits.mean():.4f} not within "
                        f"5 SE ({se:.4f}) of R={budget}")
    failures.record(problems, "convex bits_mean")


def time_setup(spec: TrackingSpec, tracer: Tracer | None):
    """Repeat the set-up (see `repeat_timed`); return (bank, per-call
    seconds of each sample, mean design seconds by rate when traced)."""
    cfg = spec.configs[0][1]
    targets = []
    if tracer is not None:
        targets = [(quantizer, "optimize_thresholds",
                    lambda m: f"quantizer.design.r{m}")]
    with wrapped(tracer, targets):
        bank, samples, calls = repeat_timed(lambda: spec.setup(cfg))
    if bank.r_max < max(c.budget for _, c in spec.configs):
        raise ValueError("quantizer bank does not cover the bit budget")
    design = {}
    if tracer is not None:
        design = {m: seconds / calls for m in range(1, 6)
                  for seconds, n in [tracer.snapshot(f"quantizer.design.r{m}")]
                  if n}
    return bank, samples, design


def warm_up(spec: TrackingSpec, bank, seed: int) -> None:
    """Two-step trials of every configuration, untimed, so lazy imports
    and caches are in place before timing starts."""
    for _label, cfg in spec.configs:
        harness.run_experiment(replace(cfg, steps=2, trials=1, seed=seed),
                               bank=bank)


def round_dir(out_dir: str, rounds: int) -> str:
    """Fresh output directory for this round, with the previous round's
    removed.  Overwriting existing CSVs can make the file system flush on
    truncation, which would time the disk instead of the program."""
    if rounds == 0:
        shutil.rmtree(out_dir, ignore_errors=True)
    else:
        shutil.rmtree(os.path.join(out_dir, f"round{rounds - 1}"))
    return os.path.join(out_dir, f"round{rounds}")


def run_untraced(spec: TrackingSpec, bank, seed: int, seconds: float,
                 out_dir: str, failures: Failures) -> dict:
    rates, mse_records, bits = [], {}, []
    started = time.perf_counter()
    rounds = 0
    while rounds < spec.min_rounds or time.perf_counter() - started < seconds:
        rs = round_seed(seed, rounds)
        out_round = round_dir(out_dir, rounds)
        busy, trials = 0.0, 0
        for label, cfg in spec.configs:
            c = replace(cfg, seed=rs)
            t0 = time.perf_counter()
            try:
                records, series, summary = harness.run_experiment(c, bank=bank)
                harness.write_outputs(records, series,
                                      os.path.join(out_round, label), c, summary)
            except NUMERIC_ERRORS as exc:
                for _ in range(c.trials):
                    failures.record([f"{type(exc).__name__}: {exc}"], label)
                continue
            busy += time.perf_counter() - t0
            trials += c.trials
            for trial, rec in enumerate(records):
                failures.record(check_record(rec, c), f"{label} {rs}/{trial}")
            if rounds < spec.min_rounds:
                mse_records.setdefault(label, []).extend(records)
                if c.policy == "convex":
                    bits.extend(int(s) for r in records
                                for s in r.allocs.sum(axis=1))
        if busy > 0:
            rates.append(trials / busy)
        rounds += 1
    budget = spec.configs[0][1].budget
    check_convex_bits(bits, budget, failures)
    return {"rounds": rounds, "round_rates": rates,
            "trials_per_s": throughput(rates) if rates else 0.0,
            "mse_tavg": mse_tavg(mse_records)}


def mse_tavg(mse_records: dict) -> float:
    """Time-averaged position MSE per configuration, averaged over the
    configurations (the quantity criterion 8 ranks)."""
    values = [float(np.mean(harness.aggregate_series(recs).mse))
              for recs in mse_records.values()]
    return float(np.mean(values)) if values else 0.0


def replay_trial(cfg, trial: int, sh, tr: Tracer, ident: tuple) -> dict:
    """`harness.run_trial`'s step loop with a span around every call.

    Same functions, same arguments, same RNG substreams consumed in the
    same order, so the result must equal run_trial's record bit for bit.
    Returns the trajectory plus per-step work counters.
    """
    rngs = harness.trial_streams(cfg.seed, trial)
    n, budget, t_steps = cfg.n_sensors, cfg.budget, cfg.steps
    policy = cfg.policy

    cov0 = np.diag(cfg.sigma0_diag)
    mu0 = np.asarray(cfg.mu0, dtype=float)
    truth = mu0 + tracker.psd_factor(cov0) @ rngs["truth"].standard_normal(4)
    q_factor = tracker.psd_factor(sh.motion.Q)
    cloud = tracker.init_particles(mu0, cov0, cfg.particles, rngs["init"])

    out = {key: [] for key in ("truth", "estimates", "allocs", "matrix_sums",
                               "candidates", "newton_iters", "backtracks",
                               "kappa_calls", "reports", "ess_ratio",
                               "degenerate")}
    for t in range(t_steps):
        sid = ident + (t,)
        kappa_before = tr.snapshot("fisher.kappa")[1]
        with tr.span("harness.step", sid):
            truth = sh.motion.F @ truth + q_factor @ rngs["truth"].standard_normal(4)
            with tr.span("tracker.predict", sid):
                predicted = tracker.predict(cloud, sh.motion, rngs["predict"])

            with tr.span("harness.decide", sid):
                if policy == "nearest":
                    with tr.span("allocators.nearest", sid):
                        pred_mean = tracker.estimate(predicted)
                        outcome = allocators.nearest_neighbor(
                            sh.grid, pred_mean[:2], n, budget)
                    iters = backtracks = -1
                else:
                    with tr.span("fisher.table", sid):
                        table = fisher.build_fim_table(sh.grid, predicted,
                                                       budget, sh.bank)
                    with tr.span(f"allocators.{policy}", sid):
                        outcome, iters, backtracks = _allocate(
                            cfg, table, sh, rngs, tr, sid)

            noise = rngs["measurement"].standard_normal(n)
            with tr.span("tracker.reports", sid):
                reports = tracker.generate_reports(sh.grid, sh.bank,
                                                   outcome.alloc, truth[:2],
                                                   noise)
            with tr.span("tracker.update", sid):
                updated = tracker.update_weights(predicted, reports, sh.grid,
                                                 sh.bank)
            with tr.span("tracker.estimate", sid):
                est = tracker.estimate(updated)
            with tr.span("tracker.resample", sid):
                cloud = tracker.resample(updated, rngs["resample"])

        w = updated.weights
        out["truth"].append(truth)
        out["estimates"].append(est)
        out["allocs"].append(np.asarray(outcome.alloc))
        out["matrix_sums"].append(outcome.matrix_sums)
        out["candidates"].append(outcome.candidates_examined)
        out["newton_iters"].append(iters)
        out["backtracks"].append(backtracks)
        out["kappa_calls"].append(tr.snapshot("fisher.kappa")[1] - kappa_before)
        out["reports"].append(len(reports))
        out["ess_ratio"].append(1.0 / float(w @ w) / w.size)
        out["degenerate"].append(bool(updated.degenerate))
    return out


def _allocate(cfg, table, sh, rngs, tr: Tracer, sid):
    """The table-policy branch of run_trial; returns (outcome, Newton
    iterations or -1, line-search backtracks or -1)."""
    n, budget = cfg.n_sensors, cfg.budget
    if cfg.policy == "exhaustive":
        out = allocators.exhaustive(table, n, budget, cap=cfg.exhaustive_cap)
    elif cfg.policy == "adp":
        out = allocators.adp(table, n, budget)
    elif cfg.policy == "gbfos":
        out = allocators.gbfos(table, n, budget)
    elif cfg.policy == "greedy":
        out = allocators.greedy(table, n, budget)
    else:
        with tr.span("convex.warm_start", sid):
            q0 = sh.warm_start(table)
        values_before = tr.snapshot("convex.barrier_value")[1]
        with tr.span("convex.newton", sid):
            q_star, diag = convex.newton_solve(table, sh.constraints,
                                               sh.settings, q0)
        values = tr.snapshot("convex.barrier_value")[1] - values_before
        with tr.span("convex.sample", sid):
            if cfg.convex_decode == "round":
                rates = convex.round_transmission(q_star, budget)
            else:
                rates = convex.sample_transmission(q_star, rngs["transmit"])
        out = allocators.AllocOutcome(alloc=rates, logdet_value=float("nan"),
                                      matrix_sums=0,
                                      candidates_examined=diag.iterations)
        # One barrier evaluation at the start plus one per line-search
        # trial; every accepted step is one trial, the rest backtracks.
        return out, diag.iterations, values - diag.iterations
    return out, -1, -1


def compare_replay(rep: dict, rec) -> list:
    problems = []
    for key, ref in (("allocs", rec.allocs), ("estimates", rec.estimates),
                     ("truth", rec.truth), ("matrix_sums", rec.matrix_sums),
                     ("candidates", rec.candidates),
                     ("newton_iters", rec.newton_iters)):
        if not np.array_equal(np.asarray(rep[key]), ref):
            problems.append(f"replayed {key} differ from run_trial")
    return problems


TRACE_TARGETS = [
    (fisher, "kappa", "fisher.kappa"),
    (fisher, "prior_fim", "fisher.prior_fim"),
    (tracker, "level_probabilities", "quantizer.level_probabilities"),
    (convex, "barrier_value", "convex.barrier_value"),
]


def run_traced(spec: TrackingSpec, bank, seed: int, seconds: float,
               out_dir: str, failures: Failures, tr: Tracer) -> dict:
    policy_of = {label: cfg.policy for label, cfg in spec.configs}
    steps, mse_records = [], {}
    untraced_s = traced_s = 0.0
    write_s = []
    started = time.perf_counter()
    rounds = 0
    while rounds < spec.min_rounds or time.perf_counter() - started < seconds:
        rs = round_seed(seed, rounds)
        out_round = round_dir(out_dir, rounds)
        for label, cfg in spec.configs:
            c = replace(cfg, seed=rs)
            try:
                t0 = time.perf_counter()
                records, series, summary = harness.run_experiment(c, bank=bank)
                t1 = time.perf_counter()
                harness.write_outputs(records, series,
                                      os.path.join(out_round, label), c, summary)
                write_s.append(time.perf_counter() - t1)
                shared = harness._Shared(c, bank=bank)
            except NUMERIC_ERRORS as exc:
                for _ in range(c.trials):
                    failures.record([f"{type(exc).__name__}: {exc}"], label)
                continue
            untraced_s += t1 - t0
            if rounds < spec.min_rounds:
                mse_records.setdefault(label, []).extend(records)
            for trial, rec in enumerate(records):
                ident = (spec.name, label, rs, trial)
                problems = check_record(rec, c)
                try:
                    with wrapped(tr, TRACE_TARGETS):
                        t0 = time.perf_counter()
                        with tr.span("harness.trial", ident + (-1,)):
                            rep = replay_trial(c, trial, shared, tr, ident)
                        traced_s += time.perf_counter() - t0
                except NUMERIC_ERRORS as exc:
                    problems.append(f"replay raised {type(exc).__name__}: {exc}")
                else:
                    problems += compare_replay(rep, rec)
                    for t in range(c.steps):
                        steps.append({"policy": policy_of[label],
                                      "prefix": rounds < spec.min_rounds,
                                      **{k: v[t] for k, v in rep.items()}})
                failures.record(problems, f"{label} {rs}/{trial} (traced)")
        rounds += 1
    bits = [int(np.sum(s["allocs"])) for s in steps
            if s["policy"] == "convex" and s["prefix"]]
    check_convex_bits(bits, spec.configs[0][1].budget, failures)
    return {"rounds": rounds, "steps": steps, "untraced_s": untraced_s,
            "traced_s": traced_s, "write_s": write_s,
            "mse_tavg": mse_tavg(mse_records)}


def layer_metrics(spec: TrackingSpec, tr: Tracer, run: dict, setup_reps,
                  design) -> tuple:
    """Per-layer metrics of a traced tracking run, and the tail details.

    Timings pool every traced round; counts and quality use only the
    first `min_rounds` rounds, so they are fixed for a seed.  A metric
    of a layer this workload never calls is left out.
    """
    steps = run["steps"]
    prefix = [s for s in steps if s["prefix"]]
    m, tails = {}, {}

    def timing(name, samples, tail_name=None):
        if samples:
            stats = timing_stats(samples)
            m[name] = stats["p50"]
            if tail_name:
                m[tail_name] = stats["tail"]
                tails[tail_name] = stats

    def per_step(name, seconds):
        if steps:
            m[name] = seconds * 1e3 / len(steps)

    def mean(name, values):
        if values:
            m[name] = mean_or_zero(values)

    table_s = tr.durations("fisher.table")
    timing("fisher.table_ms_p50", table_s, "fisher.table_ms_tail")
    if table_s:
        kappa_s = tr.snapshot("fisher.kappa")[0]
        m["fisher.kappa_ms_per_table"] = kappa_s * 1e3 / len(table_s)
        m["fisher.kappa_share"] = kappa_s / sum(table_s)
        prior_s, prior_n = tr.snapshot("fisher.prior_fim")
        m["fisher.prior_ms"] = prior_s * 1e3 / prior_n
    mean("fisher.kappa_evals_per_table",
         [s["kappa_calls"] for s in prefix if s["policy"] != "nearest"])

    for rate, seconds in design.items():
        m[f"quantizer.design_s.r{rate}"] = seconds
    if spec.setup is _load_bank:
        m["quantizer.load_ms"] = float(np.median(setup_reps)) * 1e3
    per_step("quantizer.level_prob_ms_per_step",
             tr.snapshot("quantizer.level_probabilities")[0])
    mean("quantizer.level_prob_evals_per_step", [s["reports"] for s in prefix])

    for policy in TABLE_POLICIES:
        key = f"allocators.{policy}"
        calls = tr.durations(key)
        if not calls:
            continue
        timing(f"{key}.call_ms_p50", calls, f"{key}.call_ms_tail")
        m[f"{key}.allocs_per_s"] = len(calls) / sum(calls)
        mine = [s for s in prefix if s["policy"] == policy]
        mean(f"{key}.candidates_per_call", [s["candidates"] for s in mine])
        if policy != "convex":
            mean(f"{key}.matrix_sums_per_call", [s["matrix_sums"] for s in mine])
            msums = sum(s["matrix_sums"] for s in steps if s["policy"] == policy)
            m[f"{key}.us_per_matrix_sum"] = sum(calls) * 1e6 / msums
    timing("allocators.nearest.call_ms_p50", tr.durations("allocators.nearest"))

    timing("convex.newton_ms_p50", tr.durations("convex.newton"),
           "convex.newton_ms_tail")
    timing("convex.warm_start_ms", tr.durations("convex.warm_start"))
    timing("convex.sample_ms", tr.durations("convex.sample"))
    cvx = [s for s in prefix if s["policy"] == "convex"]
    mean("convex.newton_iters_mean", [s["newton_iters"] for s in cvx])
    mean("convex.backtracks_per_solve", [s["backtracks"] for s in cvx])
    bits = [float(np.sum(s["allocs"])) for s in cvx]
    mean("convex.bits_mean", bits)
    if bits:
        m["convex.bits_std"] = float(np.std(bits))

    for layer in ("predict", "update", "resample", "reports", "estimate"):
        per_step(f"tracker.{layer}_ms", sum(tr.durations(f"tracker.{layer}")))
    mean("tracker.reports_per_step", [s["reports"] for s in prefix])
    if prefix:
        m["tracker.ess_ratio_p50"] = float(np.median([s["ess_ratio"] for s in prefix]))
        m["tracker.degenerate_steps"] = float(sum(s["degenerate"] for s in prefix))

    policy_of = {label: cfg.policy for label, cfg in spec.configs}
    for policy in harness.POLICIES:
        for kind in ("step", "decide"):
            timing(f"harness.{kind}_ms_p50.{policy}",
                   [s[2] - s[1] for s in tr.spans if s[0] == f"harness.{kind}"
                    and policy_of[s[4][1]] == policy],
                   f"harness.{kind}_ms_tail.{policy}")
    child = {}
    for s in tr.spans:
        if s[3] >= 0:
            child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
    mean("harness.self_ms_per_step",
         [(s[2] - s[1] - child.get(i, 0.0)) * 1e3
          for i, s in enumerate(tr.spans) if s[0] == "harness.step"])
    timing("harness.write_ms", run["write_s"])
    if run["untraced_s"] > 0:
        m["harness.trace_overhead"] = run["traced_s"] / run["untraced_s"] - 1.0
    m["harness.mse_tavg"] = run["mse_tavg"]
    return m, tails
