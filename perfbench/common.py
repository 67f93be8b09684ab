"""Shared pieces of the benchmark: percentile statistics, the in-memory
span tracer, module-attribute wrappers for inner calls and failure
bookkeeping."""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager

import numpy as np

# Candidate tail percentiles, highest first; the tail reported is the
# highest one with at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int):
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples above it,
    or the median when the sample is too small for any tail."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def timing_stats(samples_s) -> dict:
    """Median and tail of durations given in seconds, reported in ms."""
    x = np.asarray(samples_s, dtype=float) * 1e3
    if x.size == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": None, "n": 0}
    pct = tail_percentile(x.size)
    return {"p50": float(np.median(x)), "tail": float(np.percentile(x, pct)),
            "tail_pct": pct, "n": int(x.size)}


def throughput(round_rates) -> float:
    """Rate of the fastest tenth of rounds (90th percentile of per-round
    rates).  Other tenants of the machine only ever slow a round down,
    and here they do so for tens of seconds at a time; the fast rounds
    track the program's own speed far more steadily than the median.
    Round-to-round differences in work are about 1% on every workload."""
    return float(np.percentile(round_rates, 90))


def mean_or_zero(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.mean()) if values.size else 0.0


def repeat_timed(fn, min_samples=3, min_total_s=0.5, min_sample_s=0.02,
                 max_samples=50):
    """Time fn() repeatedly: each sample repeats it until >= min_sample_s
    has passed and records the time per call.  Takes >= min_samples
    samples and keeps sampling until min_total_s (or max_samples).
    Returns (last result, per-call seconds of each sample, total calls)."""
    samples, calls, total = [], 0, 0.0
    while len(samples) < min_samples or (total < min_total_s
                                         and len(samples) < max_samples):
        reps = 0
        t0 = time.perf_counter()
        while True:
            result = fn()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_sample_s:
                break
        samples.append(elapsed / reps)
        calls += reps
        total += elapsed
    return result, samples, calls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Failures:
    """Attempted/failed operation counts plus the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems, label: str) -> None:
        """Count one operation; `problems` lists what was wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, ident).

    `ident` is the (workload, config, trial, step) tuple of the work the
    span belongs to.  Inner calls wrapped with `wrapped` add their time and
    call count to per-name accumulators instead of emitting spans, which
    keeps the per-call cost of the hottest kernels low.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.acc = {}

    @contextmanager
    def span(self, name: str, ident: tuple):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, ident])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, seconds: float) -> None:
        entry = self.acc.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    def snapshot(self, name: str):
        """(seconds, calls) accumulated so far under `name`."""
        return tuple(self.acc.get(name, (0.0, 0)))

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, ident in self.spans:
                fh.write(json.dumps([name, start, end, parent, list(ident)]))
                fh.write("\n")


@contextmanager
def wrapped(tracer: Tracer, targets):
    """Temporarily replace module attributes by timing/counting wrappers.

    `targets` is a list of (module, attribute, accumulator name); the
    name may be a function of the call's first argument.  The program
    looks these names up in its module globals at call time, so the
    wrappers see every call without any change to the program.
    """
    saved = []
    for module, attr, acc_name in targets:
        original = getattr(module, attr)

        def wrapper(*args, _f=original, _n=acc_name, **kwargs):
            t0 = time.perf_counter()
            try:
                return _f(*args, **kwargs)
            finally:
                name = _n(args[0]) if callable(_n) else _n
                tracer.add(name, time.perf_counter() - t0)

        saved.append((module, attr, original))
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
