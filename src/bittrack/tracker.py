"""Sequential importance resampling filter over quantized sensor reports.

The filter keeps a weighted particle cloud over the 4-state target
vector.  One tracking step propagates the particles through the motion
model, multiplies the weights by the quantized-measurement likelihood
of every received report (sensors report independently, so the joint
likelihood factorizes), extracts the weighted-mean estimate, and
resamples systematically.  Weight math runs in the log domain so many
simultaneous reports cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import MotionModel, SensorGrid, amplitude, STATE_DIM
from .quantizer import QuantizerBank, level_probabilities, quantize


@dataclass(frozen=True)
class ParticleSet:
    """Particle states (N_s, 4) with normalized weights (N_s,)."""

    states: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    degenerate: bool = False

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if states.ndim != 2 or states.shape[1] != STATE_DIM or states.shape[0] < 1:
            raise ValueError("states must be (N_s, 4) with N_s >= 1")
        if weights.shape != (states.shape[0],):
            raise ValueError("weights must match the particle count")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class SensorReport:
    """One sensor's quantized output: which sensor, at what rate, which level."""

    sensor_index: int
    rate: int
    level: int

    def __post_init__(self):
        if self.rate < 1:
            raise ValueError("silent sensors produce no report")
        if not 0 <= self.level < 2**self.rate:
            raise ValueError("level out of range for the rate")


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix via eigendecomposition (tolerates
    exactly singular covariances, unlike Cholesky)."""
    cov = np.asarray(cov, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = -1e-9 * max(float(vals.max()), 1.0)
    if vals.min() < floor:
        raise ValueError("covariance is not positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def init_particles(mean, cov, n_particles: int,
                   rng: np.random.Generator) -> ParticleSet:
    """Gaussian cloud around `mean` with uniform weights."""
    factor = psd_factor(cov)
    draws = rng.standard_normal((n_particles, STATE_DIM))
    states = np.asarray(mean, dtype=float) + draws @ factor.T
    return ParticleSet(states, np.full(n_particles, 1.0 / n_particles))


def predict(p: ParticleSet, model: MotionModel,
            rng: np.random.Generator) -> ParticleSet:
    """Propagate every particle with an independent process-noise draw;
    the predicted cloud is equally weighted."""
    factor = psd_factor(model.Q)
    noise = rng.standard_normal((p.size, STATE_DIM)) @ factor.T
    states = p.states @ model.F.T + noise
    return ParticleSet(states, np.full(p.size, 1.0 / p.size))


def update_weights(p: ParticleSet, reports, grid: SensorGrid,
                   bank: QuantizerBank) -> ParticleSet:
    """Multiply weights by the joint report likelihood and renormalize.

    If every particle's likelihood underflows to zero the weights reset
    to uniform and the returned set is flagged degenerate.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(p.weights)
        for rep in reports:
            amp = amplitude(grid, rep.sensor_index, p.states[:, :2])
            log_w = log_w + np.log(level_probabilities(
                amp, grid.sigma, bank[rep.rate], level=rep.level))
    peak = np.max(log_w)
    if not np.isfinite(peak):
        return ParticleSet(p.states, np.full(p.size, 1.0 / p.size),
                           degenerate=True)
    w = np.exp(log_w - peak)
    return ParticleSet(p.states, w / w.sum(), degenerate=p.degenerate)


def estimate(p: ParticleSet) -> np.ndarray:
    """Weighted mean state."""
    return p.weights @ p.states


def resample(p: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Systematic resampling: one uniform draw, stratified comb of
    positions, so each particle's multiplicity is within 1 of N_s * w."""
    positions = (np.arange(p.size) + rng.random()) / p.size
    cumsum = np.cumsum(p.weights)
    cumsum[-1] = 1.0  # guard against round-off at the top
    idx = np.searchsorted(cumsum, positions, side="right")
    return ParticleSet(p.states[idx], np.full(p.size, 1.0 / p.size),
                       degenerate=p.degenerate)


def generate_reports(grid: SensorGrid, bank: QuantizerBank, alloc,
                     truth_pos, noise: np.ndarray):
    """Quantized reports of all sensors with a nonzero rate.

    `noise` holds one pre-drawn standard normal per sensor (drawn for
    every sensor regardless of rate, so the realization is independent
    of the allocation policy).
    """
    alloc = np.asarray(alloc, dtype=int)
    reports = []
    for i in np.flatnonzero(alloc >= 1):
        m = int(alloc[i])
        z = amplitude(grid, i, truth_pos) + grid.sigma * noise[i]
        reports.append(SensorReport(i, m, quantize(z, bank[m])))
    return reports


def track_step(p: ParticleSet, alloc, truth, grid: SensorGrid,
               bank: QuantizerBank, model: MotionModel,
               rng: np.random.Generator):
    """One full filter step with a pre-decided allocation.

    Predicts the cloud, generates the true quantized reports at `truth`
    per the allocation, updates weights, extracts the estimate, then
    resamples.  Returns (resampled cloud, estimate, reports).
    """
    predicted = predict(p, model, rng)
    noise = rng.standard_normal(grid.n_sensors)
    reports = generate_reports(grid, bank, alloc, np.asarray(truth)[:2], noise)
    updated = update_weights(predicted, reports, grid, bank)
    est = estimate(updated)
    return resample(updated, rng), est, reports
