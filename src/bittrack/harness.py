"""Experiment orchestration: configured Monte Carlo tracking runs with a
chosen allocation policy, per-step MSE aggregation, and CSV outputs.

Every stochastic source (truth process noise, measurement noise,
particle init, prediction noise, resampling, transmission sampling)
draws from its own named substream fanned out from the master seed, and
each stream is consumed at a policy-independent rate.  Swapping the
allocation policy therefore leaves the truth trajectory and the
measurement noise realization untouched, which makes the per-policy MSE
curves directly comparable.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import allocators, convex, quantizer, tracker
from .fisher import build_fim_table
from .model import build_grid, build_motion
from .quantizer import QuantizerBank, build_bank, load_bank

POLICIES = ("exhaustive", "convex", "adp", "gbfos", "greedy", "nearest")

# Substream ids, in spawn order, for the per-trial RNG fan-out.
_STREAMS = ("truth", "measurement", "init", "predict", "resample", "transmit")

# Built banks keyed by their defining parameters; threshold design is
# deterministic, so reuse across runs in one process is safe.
_BANK_CACHE: dict = {}


@dataclass(frozen=True)
class ExperimentConfig:
    grid_side_count: int = 3
    area_side: float = 20.0
    p0: float = 1000.0
    alpha: float = 1.0
    n_exp: float = 2.0
    sigma: float = 1.0
    dt: float = 0.5
    rho: float = 2.5e-3
    steps: int = 20
    particles: int = 1000
    budget: int = 5
    trials: int = 100
    policy: str = "convex"
    convex_decode: str = "sample"  # or "round": sort-and-round decode
    mu0: tuple = (-8.0, -8.0, 2.0, 2.0)
    sigma0_diag: tuple = ((2.0 / 3.0) ** 2, (2.0 / 3.0) ** 2, 0.01, 0.01)
    seed: int = 0
    tau_scale: float = convex.TAU_SCALE
    epsilon: float = 1e-8
    max_iters: int = 100
    exhaustive_cap: int = allocators.DEFAULT_ENUM_CAP
    bank_file: str = ""
    bank_samples: int = 4000
    bank_seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.convex_decode not in ("sample", "round"):
            raise ValueError("convex_decode must be 'sample' or 'round'")
        for name in ("grid_side_count", "area_side", "p0", "alpha", "n_exp",
                     "sigma", "dt", "steps", "particles", "budget", "trials"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if not (self.rho >= 0 and math.isfinite(self.rho)):
            raise ValueError("rho must be non-negative and finite")
        # The prior FIM inverts the cloud's sample covariance.
        if self.particles < 5:
            raise ValueError("particles must be at least 5")
        # The convex policy's interior start point needs N >= 2 and
        # clears the box only up to convex.MAX_UNKNOWNS unknowns.
        if self.policy == "convex" and self.n_sensors < 2:
            raise ValueError("the convex policy needs at least 2 sensors")
        unknowns = self.n_sensors * (self.budget + 1)
        if self.policy == "convex" and unknowns > convex.MAX_UNKNOWNS:
            raise ValueError(f"the convex policy needs N(R+1) <= "
                             f"{convex.MAX_UNKNOWNS}, not {unknowns}")
        # Table policies tabulate kappa on a grid that grows as sqrt(p0)/sigma.
        segments = quantizer.kernel_segments(self.sigma, math.sqrt(self.p0))
        if self.policy != "nearest" and segments > quantizer.MAX_KERNEL_SEGMENTS:
            raise ValueError(f"a kernel table of {segments:.3g} segments "
                             f"exceeds {quantizer.MAX_KERNEL_SEGMENTS}")
        count = allocators.enumerate_count(self.n_sensors, self.budget)
        if self.policy == "exhaustive" and count > self.exhaustive_cap:
            raise ValueError(f"exhaustive_cap {self.exhaustive_cap} is below "
                             f"the {count} allocations to enumerate")
        for name in ("mu0", "sigma0_diag"):
            vec = tuple(float(x) for x in getattr(self, name))
            object.__setattr__(self, name, vec)
            if len(vec) != 4 or not all(math.isfinite(x) for x in vec):
                raise ValueError(f"{name} must hold 4 finite entries")
        if min(self.sigma0_diag) < 0:
            raise ValueError("sigma0_diag must be non-negative")

    @property
    def n_sensors(self) -> int:
        return self.grid_side_count**2

    @property
    def grid_params(self) -> tuple:
        return (self.p0, self.alpha, self.n_exp, self.sigma)


@dataclass(frozen=True)
class TrialRecord:
    """Per-step trajectory of one Monte Carlo trial."""

    truth: np.ndarray = field(repr=False)      # (T, 4)
    estimates: np.ndarray = field(repr=False)  # (T, 4)
    allocs: np.ndarray = field(repr=False)     # (T, N)
    matrix_sums: np.ndarray = field(repr=False)
    candidates: np.ndarray = field(repr=False)
    alloc_runtime: np.ndarray = field(repr=False)  # s, table build excluded
    newton_iters: np.ndarray = field(repr=False)      # -1 where not applicable
    newton_decrement: np.ndarray = field(repr=False)  # nan where not applicable
    newton_residual: np.ndarray = field(repr=False)
    degenerate: bool


@dataclass(frozen=True)
class MseSeries:
    """Per-step position MSE over trials plus mean active-sensor count."""

    mse: np.ndarray = field(repr=False)
    active_sensors: np.ndarray = field(repr=False)


def check_bank(cfg: ExperimentConfig, bank: QuantizerBank) -> None:
    """Raise ValueError unless the bank covers the budget and was designed
    for the configured area and sensor model."""
    if bank.r_max < cfg.budget:
        raise ValueError(f"quantizer bank covers rates 0..{bank.r_max}, "
                         f"not the budget {cfg.budget}")
    if bank.area_side != cfg.area_side or bank.grid_params != cfg.grid_params:
        raise ValueError(
            f"quantizer bank was designed for area_side {bank.area_side} and "
            f"(p0, alpha, n_exp, sigma) {bank.grid_params}, not "
            f"{cfg.area_side} and {cfg.grid_params}")


class _Shared:
    """Per-configuration objects reused across trials."""

    def __init__(self, cfg: ExperimentConfig, bank: QuantizerBank | None = None):
        self.grid = build_grid(cfg.grid_side_count, cfg.area_side,
                               p0=cfg.p0, alpha=cfg.alpha, n_exp=cfg.n_exp,
                               sigma=cfg.sigma)
        self.motion = build_motion(cfg.dt, cfg.rho)
        if bank is not None:
            self.bank = bank
        elif cfg.bank_file:
            self.bank = load_bank(cfg.bank_file)
        else:
            key = (cfg.budget, cfg.area_side, cfg.grid_params,
                   cfg.bank_samples, cfg.bank_seed)
            if key not in _BANK_CACHE:
                _BANK_CACHE[key] = build_bank(
                    cfg.budget, cfg.area_side, cfg.grid_params,
                    sample_count=cfg.bank_samples, seed=cfg.bank_seed)
            self.bank = _BANK_CACHE[key]
        check_bank(cfg, self.bank)
        self.cfg = cfg

    # The convex objects are dense in N(R+1), so only convex steps build them.
    @cached_property
    def constraints(self) -> convex.ConstraintSystem:
        return convex.constraint_system(self.cfg.n_sensors, self.cfg.budget)

    @cached_property
    def settings(self) -> convex.BarrierSettings:
        return convex.default_settings(
            self.cfg.n_sensors, self.cfg.budget, self.cfg.tau_scale,
            epsilon=self.cfg.epsilon, max_iters=self.cfg.max_iters)

    @cached_property
    def q_mixture(self) -> np.ndarray:
        return convex.feasible_start(self.cfg.n_sensors, self.cfg.budget).q

    def warm_start(self, table) -> convex.TransmissionProbabilities:
        """Blend of the trellis policy's vertex with the interior mixture:
        cheap, strictly interior, and close to the small-tau optimum."""
        alloc = allocators.adp(table, self.grid.n_sensors,
                               self.constraints.r_max).alloc
        vertex = np.zeros_like(self.q_mixture)
        vertex[np.arange(vertex.shape[0]), alloc] = 1.0
        return convex.TransmissionProbabilities(
            0.9 * vertex + 0.1 * self.q_mixture)


def trial_streams(master_seed: int, trial: int) -> dict:
    """Named, independent RNG substreams for one trial."""
    children = np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(trial,)).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child)
            for name, child in zip(_STREAMS, children)}


def run_trial(cfg: ExperimentConfig, trial_seed: int,
              shared: _Shared | None = None) -> TrialRecord:
    """One tracked trajectory under the configured allocation policy.

    `trial_seed` is the trial index hashed against the master seed; the
    same (cfg, trial_seed) always reproduces the same record.
    """
    sh = shared if shared is not None else _Shared(cfg)
    rngs = trial_streams(cfg.seed, trial_seed)
    n, budget, t_steps = cfg.n_sensors, cfg.budget, cfg.steps

    cov0 = np.diag(cfg.sigma0_diag)
    mu0 = np.asarray(cfg.mu0, dtype=float)
    truth = mu0 + tracker.psd_factor(cov0) @ rngs["truth"].standard_normal(4)
    q_factor = tracker.psd_factor(sh.motion.Q)
    cloud = tracker.init_particles(mu0, cov0, cfg.particles, rngs["init"])

    truth_hist = np.zeros((t_steps, 4))
    est_hist = np.zeros((t_steps, 4))
    alloc_hist = np.zeros((t_steps, n), dtype=np.int64)
    msums = np.zeros(t_steps, dtype=np.int64)
    cands = np.zeros(t_steps, dtype=np.int64)
    runtimes = np.zeros(t_steps)
    ni = np.full(t_steps, -1, dtype=np.int64)
    ndec = np.full(t_steps, np.nan)
    nres = np.full(t_steps, np.nan)
    degenerate = False

    for t in range(t_steps):
        truth = sh.motion.F @ truth + q_factor @ rngs["truth"].standard_normal(4)
        predicted = tracker.predict(cloud, sh.motion, rngs["predict"])

        if cfg.policy != "nearest":
            table = build_fim_table(sh.grid, predicted, budget, sh.bank)
        tic = time.perf_counter()
        if cfg.policy == "nearest":
            pred_mean = tracker.estimate(predicted)
            outcome = allocators.nearest_neighbor(sh.grid, pred_mean[:2], n, budget)
        elif cfg.policy == "exhaustive":
            outcome = allocators.exhaustive(table, n, budget,
                                            cap=cfg.exhaustive_cap)
        elif cfg.policy == "adp":
            outcome = allocators.adp(table, n, budget)
        elif cfg.policy == "gbfos":
            outcome = allocators.gbfos(table, n, budget)
        elif cfg.policy == "greedy":
            outcome = allocators.greedy(table, n, budget)
        else:  # convex
            q_star, diag = convex.newton_solve(table, sh.constraints,
                                               sh.settings,
                                               sh.warm_start(table))
            if cfg.convex_decode == "round":
                rates = convex.round_transmission(q_star, budget)
            else:
                rates = convex.sample_transmission(q_star, rngs["transmit"])
            outcome = allocators.AllocOutcome(
                alloc=rates, logdet_value=float("nan"),
                matrix_sums=0, candidates_examined=diag.iterations)
            ni[t] = diag.iterations
            ndec[t] = diag.decrement_half_sq
            nres[t] = diag.max_constraint_residual
        runtimes[t] = time.perf_counter() - tic

        noise = rngs["measurement"].standard_normal(n)
        reports = tracker.generate_reports(sh.grid, sh.bank, outcome.alloc,
                                           truth[:2], noise)
        updated = tracker.update_weights(predicted, reports, sh.grid, sh.bank)
        degenerate = degenerate or updated.degenerate
        est_hist[t] = tracker.estimate(updated)
        cloud = tracker.resample(updated, rngs["resample"])

        truth_hist[t] = truth
        alloc_hist[t] = outcome.alloc
        msums[t] = outcome.matrix_sums
        cands[t] = outcome.candidates_examined

    return TrialRecord(truth=truth_hist, estimates=est_hist, allocs=alloc_hist,
                       matrix_sums=msums, candidates=cands,
                       alloc_runtime=runtimes, newton_iters=ni,
                       newton_decrement=ndec, newton_residual=nres,
                       degenerate=degenerate)


def aggregate_series(records) -> MseSeries:
    """Per-step squared position error and active-sensor count, averaged
    over trials in index order (fixed-order reduction)."""
    steps = records[0].truth.shape[0]
    sq_err = np.zeros(steps)
    active = np.zeros(steps)
    for rec in records:
        delta = rec.truth[:, :2] - rec.estimates[:, :2]
        sq_err += np.sum(delta * delta, axis=1)
        active += np.sum(rec.allocs >= 1, axis=1)
    return MseSeries(mse=sq_err / len(records),
                     active_sensors=active / len(records))


def run_experiment(cfg: ExperimentConfig, bank: QuantizerBank | None = None):
    """All trials for one configuration.

    Returns (records, MseSeries, summary dict).  The per-step MSE is the
    trial average of squared position error; trials reduce in index
    order so the result is bit-reproducible.
    """
    shared = _Shared(cfg, bank=bank)
    records = [run_trial(cfg, t, shared) for t in range(cfg.trials)]
    series = aggregate_series(records)

    bits = np.concatenate([rec.allocs.sum(axis=1) for rec in records])
    iters = np.concatenate([rec.newton_iters for rec in records])
    iters = iters[iters >= 0]
    summary = {
        "policy": cfg.policy,
        "mean_bits": float(bits.mean()),
        "std_bits": float(bits.std()),
        "mean_runtime": float(np.mean([rec.alloc_runtime.mean()
                                       for rec in records])),
        "mean_matrix_sums": float(np.mean([rec.matrix_sums.mean()
                                           for rec in records])),
        "mean_candidates": float(np.mean([rec.candidates.mean()
                                          for rec in records])),
        "mean_newton_iters": float(iters.mean()) if iters.size else float("nan"),
        "degenerate_trials": int(sum(rec.degenerate for rec in records)),
    }
    return records, series, summary


# --- configuration file handling -------------------------------------------

_REQUIRED_KEYS = ("grid_side_count", "area_side", "p0", "sigma", "dt", "rho",
                  "steps", "particles", "budget", "trials", "policy", "seed")

_INT_KEYS = {"grid_side_count", "steps", "particles", "budget", "trials",
             "seed", "max_iters", "exhaustive_cap", "bank_samples", "bank_seed"}
_FLOAT_KEYS = {"area_side", "p0", "alpha", "n_exp", "sigma", "dt", "rho",
               "tau_scale", "epsilon"}
_VEC_KEYS = {"mu0", "sigma0_diag"}
_STR_KEYS = {"policy", "convex_decode", "bank_file"}


class ConfigError(ValueError):
    pass


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _VEC_KEYS:
            return tuple(float(x) for x in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}': {raw!r}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse a flat key=value config file; unknown keys are errors."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            values[key] = _parse_value(key, raw)
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key '{key}'")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(_g17(x) for x in value)
    if isinstance(value, float):
        return _g17(value)
    return str(value)


def write_config(cfg: ExperimentConfig, path) -> None:
    """Serialize every field so load(write(cfg)) round-trips exactly."""
    with open(path, "w") as fh:
        for f in fields(ExperimentConfig):
            fh.write(f"{f.name} = {_format_value(getattr(cfg, f.name))}\n")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def write_outputs(records, series: MseSeries, out_dir, cfg: ExperimentConfig,
                  summary: dict) -> None:
    """Write mse.csv, trials.csv, summary.csv (one column per summary
    key) and, for the convex policy, newton.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "mse.csv"), "w") as fh:
        fh.write("step,mse,active_sensors\n")
        for t in range(series.mse.shape[0]):
            fh.write(f"{t + 1},{_g17(series.mse[t])},"
                     f"{_g17(series.active_sensors[t])}\n")

    with open(os.path.join(out_dir, "trials.csv"), "w") as fh:
        fh.write("trial,step,truth_x,truth_y,est_x,est_y,alloc\n")
        for v, rec in enumerate(records):
            for t in range(rec.truth.shape[0]):
                alloc = "-".join(str(int(r)) for r in rec.allocs[t])
                fh.write(f"{v},{t + 1},{_g17(rec.truth[t, 0])},"
                         f"{_g17(rec.truth[t, 1])},{_g17(rec.estimates[t, 0])},"
                         f"{_g17(rec.estimates[t, 1])},{alloc}\n")

    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(",".join(summary) + "\n")
        fh.write(",".join(_format_value(v) for v in summary.values()) + "\n")

    if cfg.policy == "convex":
        with open(os.path.join(out_dir, "newton.csv"), "w") as fh:
            fh.write("trial,step,iterations,decrement_half_sq,max_residual\n")
            for v, rec in enumerate(records):
                for t in range(rec.newton_iters.shape[0]):
                    fh.write(f"{v},{t + 1},{int(rec.newton_iters[t])},"
                             f"{_g17(rec.newton_decrement[t])},"
                             f"{_g17(rec.newton_residual[t])}\n")
