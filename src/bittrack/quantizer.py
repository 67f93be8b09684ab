"""Quantization of sensor readings and the information content of the result.

An m-bit quantizer maps the real-valued reading onto 2^m levels using
2^m - 1 finite interior thresholds (boundaries are padded with +-inf).
`kappa` is the scalar information kernel of a quantized report: 4*kappa
equals the Fisher information about the received amplitude carried by
the discrete output.  Thresholds for each rate are designed offline by
maximizing a Monte Carlo estimate of that information, averaged over
sensor/target geometry, and stored in a bank file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import erfc

# Levels with mass below this floor contribute nothing to kappa; their
# numerator vanishes at least as fast, so the 0/0 limit is 0.
P_FLOOR = 1e-12

# Minimum spacing kept between interior thresholds during optimization.
_MIN_GAP = 1e-6


def gaussian_upper_tail(x):
    """P(Z > x) for standard normal Z, stable in both tails."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@dataclass(frozen=True)
class ThresholdVector:
    """Interior thresholds of an m-bit quantizer (strictly increasing)."""

    rate: int
    interior: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        interior = np.asarray(self.interior, dtype=float).reshape(-1)
        expected = 2**self.rate - 1 if self.rate >= 1 else 0
        if interior.size != expected:
            raise ValueError(
                f"rate {self.rate} needs {expected} interior thresholds, "
                f"got {interior.size}")
        if interior.size > 1 and not np.all(np.diff(interior) > 0):
            raise ValueError("interior thresholds must be strictly increasing")
        object.__setattr__(self, "interior", interior)

    @property
    def n_levels(self) -> int:
        return 2**self.rate

    @property
    def boundaries(self) -> np.ndarray:
        """Full boundary vector [-inf, interior..., +inf]."""
        return np.concatenate(([-np.inf], self.interior, [np.inf]))


def quantize(z: float, thr: ThresholdVector) -> int:
    """Level index l with boundary_l <= z < boundary_{l+1}.

    Rate-0 sensors transmit nothing, so quantizing with an empty
    threshold vector is a caller error.
    """
    if thr.rate < 1:
        raise ValueError("cannot quantize at rate 0 (sensor is silent)")
    return int(np.searchsorted(thr.interior, z, side="right"))


def level_probabilities(a, sigma: float, thr: ThresholdVector) -> np.ndarray:
    """Probability of every level given amplitude a (a may be an array).

    Returns shape a.shape + (2^m,).  For rate 0 the single "no report"
    outcome has probability 1.
    """
    a = np.asarray(a, dtype=float)
    if thr.rate == 0:
        return np.ones(a.shape + (1,))
    t = (thr.boundaries - a[..., None]) / sigma
    q = gaussian_upper_tail(t)
    return q[..., :-1] - q[..., 1:]


def level_probability(l: int, a, sigma: float, thr: ThresholdVector):
    """Probability that the quantizer outputs level l at amplitude a."""
    if thr.rate == 0:
        # Silent sensor: the (empty) report is certain.
        return np.ones(np.shape(a)) if np.ndim(a) else 1.0
    if not 0 <= l < thr.n_levels:
        raise ValueError(f"level {l} out of range for rate {thr.rate}")
    p = level_probabilities(a, sigma, thr)[..., l]
    return p if p.ndim else float(p)


# Thresholds beyond this many sigmas from every amplitude contribute
# exp(-z^2/2) factors below 1e-15; dropping them merges the affected
# levels, which changes kappa by less than double-precision noise.
_WINDOW_SIGMAS = 8.5


def kappa(m: int, a, sigma: float, thr: ThresholdVector):
    """Information kernel of an m-bit report at amplitude a (vectorized).

    4*kappa is the Fisher information about a contained in the quantized
    output.  Levels whose probability falls below P_FLOOR are dropped,
    and thresholds far outside the amplitude range are merged away (a
    lossless cut at double precision).
    """
    a = np.asarray(a, dtype=float)
    if m == 0:
        out = np.zeros(a.shape)
        return out if out.ndim else 0.0
    if thr.rate != m:
        raise ValueError("threshold vector rate does not match m")
    interior = thr.interior
    if interior.size > 3:
        j0 = np.searchsorted(interior, a.min() - _WINDOW_SIGMAS * sigma)
        j1 = np.searchsorted(interior, a.max() + _WINDOW_SIGMAS * sigma)
        interior = interior[j0:j1]
    bounds = np.concatenate(([-np.inf], interior, [np.inf]))
    t = (bounds - a[..., None]) / sigma
    e = np.exp(-0.5 * t * t)  # 0 at the +-inf boundaries
    diff = e[..., :-1] - e[..., 1:]
    q = gaussian_upper_tail(t)
    p = q[..., :-1] - q[..., 1:]
    terms = np.where(p >= P_FLOOR, diff * diff / np.where(p >= P_FLOOR, p, 1.0), 0.0)
    out = terms.sum(axis=-1) / (8.0 * np.pi * sigma**2)
    return out if out.ndim else float(out)


# Spline nodes per sigma of amplitude.  kappa varies on the scale of
# sigma, so the cubic's O(h^4) error stays below 1e-10 of the kernel's
# peak at this spacing.
_TABLE_NODES_PER_SIGMA = 128
# Nodes added beyond each end of [0, a_max].  The error of the natural
# end condition shrinks by 2 - sqrt(3) per node, so it has died out
# long before the tabulated range begins.
_TABLE_PAD = 16
# Nodes per exact-kernel call while tabulating, which bounds the size
# of kappa's (nodes, levels) temporaries.
_TABLE_CHUNK = 512


@dataclass(frozen=True)
class KernelTable:
    """kappa(m, .) as a C^2 cubic spline through exact values on a uniform
    amplitude grid over [0, a_max].

    On segment k, kappa at fraction f of the segment is
    coef[0, k] + f*(coef[1, k] + f*(coef[2, k] + f*coef[3, k])).
    """

    step: float
    coef: np.ndarray = field(repr=False)  # (4, segments)

    def locate(self, a):
        """Segment index and in-segment fraction of amplitudes 0 <= a <= a_max."""
        t = np.asarray(a, dtype=float) / self.step
        seg = np.minimum(t.astype(np.intp), self.coef.shape[1] - 1)
        return seg, t - seg

    def evaluate(self, seg, frac):
        """Kernel values at located amplitudes (see `locate`)."""
        c0, c1, c2, c3 = np.take(self.coef, seg, axis=1)
        # The spline rings to about 1e-11 of the peak where kappa is 0.
        return np.maximum(c0 + frac * (c1 + frac * (c2 + frac * c3)), 0.0)


def kernel_table(thr: ThresholdVector, sigma: float,
                 a_max: float) -> KernelTable:
    """Tabulated kappa(thr.rate, ., sigma, thr) on [0, a_max], built on
    first use.

    The node spacing depends only on (sigma, a_max), so every rate's
    table for one sensor model shares a grid and one `locate` serves
    them all.  Tables are cached on the threshold values, not on the
    bank object, so a bank designed or loaded again reuses them.
    """
    return _kernel_table(thr.interior.tobytes(), thr.rate, float(sigma),
                         float(a_max))


@lru_cache(maxsize=64)
def _kernel_table(interior: bytes, m: int, sigma: float,
                  a_max: float) -> KernelTable:
    thr = ThresholdVector(m, np.frombuffer(interior))
    segments = math.ceil(a_max * _TABLE_NODES_PER_SIGMA / sigma)
    h = a_max / segments
    x = h * np.arange(-_TABLE_PAD, segments + _TABLE_PAD + 1)
    y = np.concatenate([kappa(m, x[j:j + _TABLE_CHUNK], sigma, thr)
                        for j in range(0, x.size, _TABLE_CHUNK)])
    # Natural spline: second derivatives M (times h^2) solve
    # M[j-1] + 4 M[j] + M[j+1] = 6 (y[j-1] - 2 y[j] + y[j+1]), M = 0 at the ends.
    bands = np.repeat([[1.0], [4.0], [1.0]], x.size - 2, axis=1)
    mh2 = np.zeros(x.size)
    mh2[1:-1] = solve_banded((1, 1), bands, 6.0 * np.diff(y, 2))
    lo = slice(_TABLE_PAD, _TABLE_PAD + segments)
    hi = slice(_TABLE_PAD + 1, _TABLE_PAD + segments + 1)
    coef = np.stack([y[lo],
                     y[hi] - y[lo] - (2.0 * mh2[lo] + mh2[hi]) / 6.0,
                     mh2[lo] / 2.0,
                     (mh2[hi] - mh2[lo]) / 6.0])
    coef.flags.writeable = False
    return KernelTable(h, coef)


def amplitude_samples(area_side: float, grid_params, sample_count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of random sensor/target pairs, both uniform on the area.

    Sensor and target positions are drawn i.i.d. uniform on the square
    [-b/2, b/2]^2; the squared distance u = d^2 is mapped through the
    attenuation law.  This Monte Carlo sample stands in for the analytic
    density of u when averaging the design objective.
    """
    p0, alpha, n_exp, _sigma = grid_params
    half = area_side / 2.0
    sensor = rng.uniform(-half, half, size=(sample_count, 2))
    target = rng.uniform(-half, half, size=(sample_count, 2))
    u = np.sum((sensor - target) ** 2, axis=1)
    return np.sqrt(p0 / (1.0 + alpha * u ** (n_exp / 2.0)))


def design_objective(m: int, thr: ThresholdVector, amplitudes: np.ndarray,
                     sigma: float) -> float:
    """Monte Carlo estimate of E[4*kappa] over the amplitude sample."""
    return float(np.mean(4.0 * kappa(m, amplitudes, sigma, thr)))


class _CoordinateObjective:
    """Incremental evaluator of the design objective for one moving
    threshold.

    Moving interior threshold j only perturbs the two adjacent levels
    j and j+1, so per-sample boundary terms are cached and a candidate
    evaluation touches O(samples) numbers instead of O(samples * 2^m).
    """

    def __init__(self, m: int, interior: np.ndarray, amps: np.ndarray,
                 sigma: float):
        self.m = m
        self.amps = amps
        self.sigma = sigma
        bounds = np.concatenate(([-np.inf], interior, [np.inf]))
        t = (bounds - amps[:, None]) / sigma
        self.exps = np.exp(-0.5 * t * t)   # (n, 2^m + 1)
        self.tails = gaussian_upper_tail(t)
        self.terms = self._terms_from(self.exps, self.tails)  # (n, 2^m)
        self.total = self.terms.sum(axis=1)

    @staticmethod
    def _terms_from(exps, tails):
        diff = exps[..., :-1] - exps[..., 1:]
        p = tails[..., :-1] - tails[..., 1:]
        return np.where(p >= P_FLOOR,
                        diff * diff / np.where(p >= P_FLOOR, p, 1.0), 0.0)

    def _column(self, x: float):
        t = (x - self.amps) / self.sigma
        return np.exp(-0.5 * t * t), gaussian_upper_tail(t)

    def _pair_terms(self, j: int, e_col, q_col):
        b = j + 1  # boundary index of interior threshold j
        e_lo, e_hi = self.exps[:, b - 1], self.exps[:, b + 1]
        q_lo, q_hi = self.tails[:, b - 1], self.tails[:, b + 1]
        terms = np.zeros((self.amps.size, 2))
        for col, (ea, eb, qa, qb) in enumerate(
                [(e_lo, e_col, q_lo, q_col), (e_col, e_hi, q_col, q_hi)]):
            diff = ea - eb
            p = qa - qb
            terms[:, col] = np.where(
                p >= P_FLOOR, diff * diff / np.where(p >= P_FLOOR, p, 1.0), 0.0)
        return terms

    def evaluate(self, j: int, x: float) -> float:
        """Objective E[4*kappa] with interior threshold j moved to x."""
        e_col, q_col = self._column(x)
        terms = self._pair_terms(j, e_col, q_col)
        b = j + 1
        total = self.total - self.terms[:, b - 1] - self.terms[:, b] \
            + terms[:, 0] + terms[:, 1]
        return float(np.mean(total)) / (2.0 * np.pi * self.sigma**2)

    def commit(self, j: int, x: float) -> None:
        e_col, q_col = self._column(x)
        terms = self._pair_terms(j, e_col, q_col)
        b = j + 1
        self.total = self.total - self.terms[:, b - 1] - self.terms[:, b] \
            + terms[:, 0] + terms[:, 1]
        self.exps[:, b] = e_col
        self.tails[:, b] = q_col
        self.terms[:, b - 1] = terms[:, 0]
        self.terms[:, b] = terms[:, 1]

    def current(self) -> float:
        return float(np.mean(self.total)) / (2.0 * np.pi * self.sigma**2)


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-5,
                coarse: int = 17) -> float:
    """Maximize fun on [lo, hi]: coarse scan, then golden-section refine.

    The coarse scan guards against multimodal objectives that a pure
    golden section would mishandle.
    """
    xs = np.linspace(lo, hi, coarse)
    vals = [fun(x) for x in xs]
    k = int(np.argmax(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return c if fc > fd else d


def optimize_thresholds(m: int, area_side: float, grid_params,
                        sample_count: int = 4000,
                        rng_seed: int = 0) -> ThresholdVector:
    """Design the m-bit interior thresholds maximizing E[4*kappa].

    Coordinate ascent over the interior thresholds with a golden-section
    line search per coordinate, initialized at equiprobable thresholds
    under the empirical amplitude distribution.  Updates that fail to
    improve the objective are rejected, so the returned design is never
    worse than the initializer, and the bracket construction keeps the
    thresholds strictly increasing.
    """
    if m < 1:
        raise ValueError("threshold design needs m >= 1")
    if sample_count < 1000:
        raise ValueError("sample_count too small for a stable estimate")
    sigma = grid_params[3]
    rng = np.random.default_rng(rng_seed)
    amps = amplitude_samples(area_side, grid_params, sample_count, rng)

    n_int = 2**m - 1
    # Equiprobable under the empirical amplitude distribution.
    qs = np.quantile(amps, np.arange(1, n_int + 1) / (n_int + 1))
    interior = np.asarray(qs, dtype=float)
    # Enforce strict ordering in case of quantile ties.
    for j in range(1, n_int):
        if interior[j] <= interior[j - 1] + _MIN_GAP:
            interior[j] = interior[j - 1] + _MIN_GAP

    z_lo = float(amps.min() - 6.0 * sigma)
    z_hi = float(amps.max() + 6.0 * sigma)

    state = _CoordinateObjective(m, interior, amps, sigma)
    best = state.current()
    for _sweep in range(30):
        sweep_start = best
        for j in range(n_int):
            lo = z_lo if j == 0 else interior[j - 1] + _MIN_GAP
            hi = z_hi if j == n_int - 1 else interior[j + 1] - _MIN_GAP
            if hi <= lo:
                continue
            x_star = _golden_max(lambda x: state.evaluate(j, x), lo, hi)
            val = state.evaluate(j, x_star)
            if val > best:
                state.commit(j, x_star)
                interior[j] = x_star
                best = val
        if best <= sweep_start * (1.0 + 1e-6):
            break
    return ThresholdVector(m, interior)


@dataclass(frozen=True)
class QuantizerBank:
    """Per-rate threshold vectors for m = 0..r_max, shared by all sensors."""

    thresholds: tuple
    objectives: tuple
    area_side: float
    grid_params: tuple
    sample_count: int
    seed: int

    def __post_init__(self):
        for m, thr in enumerate(self.thresholds):
            if thr.rate != m:
                raise ValueError("bank must hold one entry per rate 0..r_max")

    @property
    def r_max(self) -> int:
        return len(self.thresholds) - 1

    def __getitem__(self, m: int) -> ThresholdVector:
        return self.thresholds[m]


def build_bank(r_max: int, area_side: float, grid_params,
               sample_count: int = 4000, seed: int = 0) -> QuantizerBank:
    """Optimize thresholds for every rate 1..r_max (rate 0 is empty)."""
    sigma = grid_params[3]
    thresholds = [ThresholdVector(0, np.empty(0))]
    objectives = [0.0]
    for m in range(1, r_max + 1):
        thr = optimize_thresholds(m, area_side, grid_params,
                                  sample_count=sample_count, rng_seed=seed)
        rng = np.random.default_rng(seed)
        amps = amplitude_samples(area_side, grid_params, sample_count, rng)
        thresholds.append(thr)
        objectives.append(design_objective(m, thr, amps, sigma))
    return QuantizerBank(tuple(thresholds), tuple(objectives), area_side,
                         tuple(float(g) for g in grid_params), sample_count, seed)


def save_bank(bank: QuantizerBank, path) -> None:
    """Write the bank as JSON; floats round-trip exactly via repr."""
    doc = {
        "area_side": bank.area_side,
        "grid_params": {
            "p0": bank.grid_params[0],
            "alpha": bank.grid_params[1],
            "n_exp": bank.grid_params[2],
            "sigma": bank.grid_params[3],
        },
        "sample_count": bank.sample_count,
        "seed": bank.seed,
        "rates": [
            {
                "rate": m,
                "interior_thresholds": [float(x) for x in bank[m].interior],
                "objective_estimate": bank.objectives[m],
            }
            for m in range(bank.r_max + 1)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_bank(path) -> QuantizerBank:
    with open(path) as fh:
        doc = json.load(fh)
    rates = sorted(doc["rates"], key=lambda r: r["rate"])
    if [r["rate"] for r in rates] != list(range(len(rates))):
        raise ValueError("bank file must cover rates 0..r_max contiguously")
    gp = doc["grid_params"]
    thresholds = tuple(
        ThresholdVector(r["rate"], np.asarray(r["interior_thresholds"], dtype=float))
        for r in rates)
    objectives = tuple(float(r["objective_estimate"]) for r in rates)
    return QuantizerBank(thresholds, objectives, float(doc["area_side"]),
                         (gp["p0"], gp["alpha"], gp["n_exp"], gp["sigma"]),
                         int(doc["sample_count"]), int(doc["seed"]))
