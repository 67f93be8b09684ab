"""Layered benchmark of bittrack.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`.  Workloads: `desk`, `nearest-5k`, `alloc-sweep` (see README.md
beside this file).  `--trace 0` measures the end-to-end metrics,
`--trace 1` replays the work with spans and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  Everything
up to the last line of standard output is a human-readable report; the
last line is one JSON object with the keys correct, attempted, failed
and metrics.  A detailed result (environment, tail percentiles, failure
reasons) and, when traced, the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("desk", "nearest-5k", "alloc-sweep")
# Workload-specific end-to-end figures printed beside the gated metrics.
REPORT_UNITS = {"mse_tavg": "m2", "allocs_per_s": "calls/s", "logdet_gap": "nats"}
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc for this process only.  Runs before
    numpy is imported, because the pools size themselves once."""
    for var in BLAS_ENV_VARS:
        raw = os.environ.get(var, "")
        if not raw.isdigit() or not 1 <= int(raw) <= nproc:
            os.environ[var] = str(nproc)


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cpu_model": cpu,
            "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in BLAS_ENV_VARS}}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def run_tracking(workload, seed, seconds, trace):
    import tracking
    from common import Failures, Tracer, peak_rss_mb

    spec = tracking.desk_spec() if workload == "desk" else tracking.nearest5k_spec()
    out_dir = os.path.join(OUT, workload)
    failures = Failures()
    tracer = Tracer() if trace else None
    bank, setup_reps, design = tracking.time_setup(spec, tracer)
    tracking.warm_up(spec, bank, seed)
    details = {"setup_reps_s": setup_reps}
    if not trace:
        run = tracking.run_untraced(spec, bank, seed, seconds, out_dir, failures)
        metrics = {"setup_s": statistics.median(setup_reps),
                   "trials_per_s": run["trials_per_s"],
                   "peak_rss_mb": peak_rss_mb()}
        report = {"mse_tavg": run["mse_tavg"]}
        details.update(rounds=run["rounds"], round_rates=run["round_rates"])
    else:
        run = tracking.run_traced(spec, bank, seed, seconds, out_dir, failures,
                                  tracer)
        metrics, details["tails"] = tracking.layer_metrics(spec, tracer, run,
                                                           setup_reps, design)
        report = {}
        details["rounds"] = run["rounds"]
    return metrics, report, details, failures, tracer


def run_sweep(seed, seconds, trace):
    import sweep
    from common import Failures, Tracer, peak_rss_mb

    failures = Failures()
    tracer = Tracer() if trace else None
    instances, setup_reps = sweep.time_setup(seed)
    sweep.warm_up(instances)
    run = sweep.run(instances, seconds, failures, tracer)
    details = {"setup_reps_s": setup_reps, "sweeps": run["sweeps"],
               "not_attempted": sweep.not_attempted()}
    if not trace:
        metrics = {"setup_s": statistics.median(setup_reps),
                   "trials_per_s": run["trials_per_s"],
                   "peak_rss_mb": peak_rss_mb()}
        report = sweep.policy_report(run["records"])
        details["sweep_rates"] = run["sweep_rates"]
    else:
        metrics, details["tails"] = sweep.layer_metrics(tracer, run, setup_reps)
        report = {}
    return metrics, report, details, failures, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    if not os.path.isfile(os.path.join(SRC, "bittrack", "__init__.py")):
        print(f"no bittrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bittrack
    if os.path.dirname(os.path.abspath(bittrack.__file__)) != os.path.join(SRC, "bittrack"):
        print(f"bittrack imported from {bittrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    os.makedirs(OUT, exist_ok=True)

    started = time.perf_counter()
    if args.workload == "alloc-sweep":
        metrics, report, details, failures, tracer = run_sweep(
            args.seed, args.seconds, args.trace)
    else:
        metrics, report, details, failures, tracer = run_tracking(
            args.workload, args.seed, args.seconds, args.trace)

    declared = per_layer if args.trace else end_to_end
    names = {d["name"] for d in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        print(f"metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    # A layer the workload never calls reads 0 (as cache hits read 0 on
    # a workload that bypasses the cache); the names are listed.
    not_exercised = [d["name"] for d in declared if d["name"] not in metrics]
    if not args.trace and not_exercised:
        print(f"end-to-end metrics not measured: {not_exercised}", file=sys.stderr)
        return 2
    result = {d["name"]: {"value": float(metrics.get(d["name"], 0.0)),
                          "unit": d["unit"]} for d in declared}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(nproc)
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "environment": env,
            "wall_s": time.perf_counter() - started, "metrics": result,
            "report": report, "not_exercised": not_exercised,
            "attempted": failures.attempted, "failed": failures.failed,
            "failure_reasons": failures.reasons, "details": details}
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{stem}.jsonl"))

    print(f"# bittrack benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {nproc}, cpu {env['cpu_model']}, blas {env['blas']}, "
          f"threads {env['thread_env']}")
    for name, entry in list(result.items()) + [
            (k, {"value": v, "unit": REPORT_UNITS[k.split(".")[0]]})
            for k, v in report.items()]:
        note = " (not exercised)" if name in not_exercised else ""
        tail = details.get("tails", {}).get(name)
        if tail:
            note += f" (p{tail['tail_pct']:g} of n={tail['n']})"
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{note}")
    for item in details.get("not_attempted", []):
        print(f"not attempted: {item['policy']} at {item['cell']} "
              f"({item['candidates']} candidates): {item['reason']}")
    print(f"attempted {failures.attempted}, failed {failures.failed}")
    for reason in failures.reasons:
        print(f"failure: {reason}")
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
