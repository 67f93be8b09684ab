"""Command-line front end: run simulations, build threshold banks, and
benchmark the allocation policies on random instances.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import allocators, convex
from .fisher import FimTable, logdet, total_fim
from .harness import (POLICIES, ConfigError, check_bank, load_config,
                      run_experiment, write_outputs)
from .quantizer import build_bank, load_bank, save_bank


def _parse_rates(spec: str):
    """Accept '1..5', '1-5', or a comma list like '1,2,3'."""
    spec = spec.strip()
    for sep in ("..", "-"):
        if sep in spec and not spec.startswith("-"):
            lo, hi = spec.split(sep, 1)
            return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def random_fim_table(n_sensors: int, r_max: int,
                     rng: np.random.Generator) -> FimTable:
    """Random instance: rank-1 position-block atoms that grow with the
    rate, plus a random SPD prior."""
    atoms = np.zeros((n_sensors, r_max + 1, 4, 4))
    for i in range(n_sensors):
        v = rng.normal(size=2)
        scales = np.cumsum(rng.uniform(0.1, 1.0, size=r_max))
        atoms[i, 1:, :2, :2] = scales[:, None, None] * np.outer(v, v)
    g = rng.normal(size=(4, 4))
    prior = g @ g.T + 0.5 * np.eye(4)
    return FimTable(atoms=atoms, prior=prior)


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {k: getattr(args, k) for k in ("policy", "seed", "trials")
                     if getattr(args, k) is not None}
        if overrides:
            cfg = replace(cfg, **overrides)
        bank = load_bank(cfg.bank_file) if cfg.bank_file else None
        if bank is not None:
            check_bank(cfg, bank)
    except (ConfigError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        records, series, summary = run_experiment(cfg, bank=bank)
        write_outputs(records, series, args.out, cfg, summary)
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        # Config and bank are checked above, so a ValueError here is a
        # run-time numerical one (a non-interior Newton start, say).
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"policy={summary['policy']} mean_bits={summary['mean_bits']:.4f} "
          f"std_bits={summary['std_bits']:.4f} "
          f"time_avg_mse={float(np.mean(series.mse)):.4f}")
    print(f"outputs written to {args.out}")
    return 0


def cmd_thresholds(args) -> int:
    try:
        rates = _parse_rates(args.rates)
        if not rates or rates != list(range(1, max(rates) + 1)):
            raise ValueError("rates must cover 1..R contiguously")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        bank = build_bank(max(rates), args.area_side,
                          (args.p0, args.alpha, args.n_exp, args.sigma),
                          sample_count=args.samples, seed=args.seed)
        save_bank(bank, args.out)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for m in range(1, bank.r_max + 1):
        print(f"rate {m}: objective {bank.objectives[m]:.6f}, "
              f"{bank[m].interior.size} thresholds")
    print(f"bank written to {args.out}")
    return 0


def cmd_bench_alloc(args) -> int:
    if args.n < 1 or args.r < 1:
        print("config error: need --n >= 1 and --r >= 1", file=sys.stderr)
        return 2
    # Every instance runs exhaustive, so the enumeration must fit its cap.
    count = allocators.enumerate_count(args.n, args.r)
    if count > allocators.DEFAULT_ENUM_CAP:
        print(f"config error: {count} allocations to enumerate exceed the "
              f"cap {allocators.DEFAULT_ENUM_CAP}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    sys_c = convex.constraint_system(args.n, args.r)
    settings = convex.default_settings(args.n, args.r)
    start = convex.feasible_start(args.n, args.r)
    print("instance,policy,logdet,gap_to_exhaustive,matrix_sums,candidates")
    try:
        for inst in range(args.instances):
            table = random_fim_table(args.n, args.r, rng)
            ref = allocators.exhaustive(table, args.n, args.r)
            outcomes = {
                "exhaustive": ref,
                "adp": allocators.adp(table, args.n, args.r),
                "gbfos": allocators.gbfos(table, args.n, args.r),
                "greedy": allocators.greedy(table, args.n, args.r),
            }
            q_star, diag = convex.newton_solve(table, sys_c, settings, start)
            rates = convex.round_transmission(q_star, args.r)
            outcomes["convex_rounded"] = allocators.AllocOutcome(
                alloc=rates, logdet_value=logdet(total_fim(rates, table)),
                matrix_sums=0, candidates_examined=diag.iterations)
            for name, out in outcomes.items():
                gap = ref.logdet_value - out.logdet_value
                print(f"{inst},{name},{out.logdet_value:.12g},{gap:.12g},"
                      f"{out.matrix_sums},{out.candidates_examined}")
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bittrack",
        description="Quantized-measurement target tracking with dynamic "
                    "bit allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--policy", choices=POLICIES)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--out", default="out")
    p_sim.set_defaults(func=cmd_simulate)

    p_thr = sub.add_parser("thresholds", help="build a quantizer bank file")
    p_thr.add_argument("--rates", required=True,
                       help="rate range, e.g. 1..5")
    p_thr.add_argument("--out", required=True)
    p_thr.add_argument("--area-side", type=float, default=20.0)
    p_thr.add_argument("--p0", type=float, default=1000.0)
    p_thr.add_argument("--alpha", type=float, default=1.0)
    p_thr.add_argument("--n-exp", type=float, default=2.0)
    p_thr.add_argument("--sigma", type=float, default=1.0)
    p_thr.add_argument("--samples", type=int, default=4000)
    p_thr.add_argument("--seed", type=int, default=0)
    p_thr.set_defaults(func=cmd_thresholds)

    p_bench = sub.add_parser("bench-alloc",
                             help="compare policies on random instances")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--r", type=int, required=True)
    p_bench.add_argument("--instances", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench_alloc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
