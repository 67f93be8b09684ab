"""Fisher information matrices for quantized sensor reports.

A sensor reporting at rate m contributes a rank-1 position-block FIM
whose magnitude is set by the information kernel `kappa`; expected
contributions are particle averages over the predicted cloud, which
read the kernel from its cached spline table, and the table keeps only
their 2x2 position blocks (`FimTable`).  The prior FIM comes from a
Gaussian approximation of the cloud.  Totals are ranked by determinant
(D-optimality), on the position block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import SensorGrid, STATE_DIM, attenuation
from .quantizer import QuantizerBank, kappa, kernel_table

# Relative ridge added to a near-singular particle covariance before
# inversion; resampling can collapse the cloud onto few support points.
COV_RIDGE = 1e-9


@dataclass(frozen=True)
class FimTable:
    """Expected per-sensor, per-rate position blocks plus the prior FIM.

    blocks[i, m] = (a00, a01, a11) is the 2x2 position block of sensor
    i's expected rate-m information, which is zero outside that block;
    blocks[:, 0] are all zero.  prior is the 4x4 prior FIM.  So
    det(prior + A) = det(P_vv) det(J + A), with J = `schur` and A a sum
    of blocks.
    """

    blocks: np.ndarray = field(repr=False)
    prior: np.ndarray = field(repr=False)

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        prior = np.asarray(self.prior, dtype=float)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError("blocks must be (N, R+1, 3)")
        if prior.shape != (STATE_DIM, STATE_DIM):
            raise ValueError("prior must be 4x4")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "prior", prior)

    @property
    def n_sensors(self) -> int:
        return self.blocks.shape[0]

    @property
    def r_max(self) -> int:
        return self.blocks.shape[1] - 1

    @cached_property
    def schur(self) -> np.ndarray:
        """J = P_pp - P_pv P_vv^-1 P_vp as (j00, j01, j11); P_vv must be PD."""
        p = self.prior
        half = np.linalg.solve(np.linalg.cholesky(p[2:, 2:]), p[2:, :2])
        j = p[:2, :2] - half.T @ half
        return np.array([j[0, 0], 0.5 * (j[0, 1] + j[1, 0]), j[1, 1]])


def _geometry(grid: SensorGrid, sensors: np.ndarray, pos: np.ndarray):
    """Sensor-to-target offsets, amplitude and attenuation factor.

    sensors is (..., 2) and pos is (..., 2), broadcast against each
    other.  Returns (dx, dy, a, base), where the rank-1 conditional FIM
    of a rate-m report has scalar weight kappa(m, a) * base.
    """
    pos = np.asarray(pos, dtype=float)
    dx = sensors[..., 0] - pos[..., 0]
    dy = sensors[..., 1] - pos[..., 1]
    d2 = dx * dx + dy * dy
    n = grid.n_exp
    a2, denom = attenuation(d2, grid.p0, grid.alpha, n)
    # d^(2n-4) = (d^2)^(n-2); guarded at d = 0 where the outer product
    # vanishes anyway (avoids 0**negative for n < 2).
    with np.errstate(divide="ignore", invalid="ignore"):
        dpow = np.where(d2 > 0.0, d2 ** (n - 2.0), 0.0)
    base = n * n * a2 * grid.alpha**2 * dpow / (denom * denom)
    return dx, dy, np.sqrt(a2), base


def _conditional_coef(grid: SensorGrid, i: int, pos: np.ndarray, m: int,
                      bank: QuantizerBank):
    """Scalar weight and position offsets of the rank-1 conditional FIM,
    with the exact kernel.

    Vectorized over target positions: pos is (..., 2), returns
    (coef, dx, dy) each of shape (...,).
    """
    dx, dy, a, base = _geometry(grid, grid.positions[i], pos)
    return kappa(m, a, grid.sigma, bank[m]) * base, dx, dy


def sensor_fim_conditional(grid: SensorGrid, i: int, state, m: int,
                           bank: QuantizerBank) -> np.ndarray:
    """FIM of sensor i's rate-m report conditioned on the target state:
    rank 1 and zero outside the position block."""
    state = np.asarray(state, dtype=float)
    coef, dx, dy = _conditional_coef(grid, i, state[:2], m, bank)
    out = np.zeros(np.shape(coef) + (STATE_DIM, STATE_DIM))
    out[..., 0, 0] = coef * dx * dx
    out[..., 0, 1] = out[..., 1, 0] = coef * dx * dy
    out[..., 1, 1] = coef * dy * dy
    return out


def prior_fim(particles) -> np.ndarray:
    """Prior FIM as the inverse sample covariance of the predicted cloud.

    The covariance gets a small relative ridge before inversion; a cloud
    so degenerate that even the ridge leaves it non-invertible is a hard
    error.
    """
    states = np.asarray(particles.states, dtype=float)
    if states.shape[0] < 5:
        raise ValueError("need at least 5 particles for a prior FIM")
    mu = states.mean(axis=0)
    centered = states - mu
    cov = centered.T @ centered / states.shape[0]
    tr = float(np.trace(cov))
    ridge = COV_RIDGE * (tr / STATE_DIM if tr > 0 else 1.0)
    cov_reg = cov + ridge * np.eye(STATE_DIM)
    try:
        out = np.linalg.inv(cov_reg)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "particle covariance not invertible after regularization") from exc
    return 0.5 * (out + out.T)


def build_fim_table(grid: SensorGrid, particles, r_max: int,
                    bank: QuantizerBank) -> FimTable:
    """Expected position blocks for every (sensor, rate) pair plus the
    prior FIM.

    The (sensor, particle) geometry and the kernel-table lookup are
    shared across rates; each rate evaluates its tabulated kernel (see
    `quantizer.kernel_table`) and averages three distinct entries.
    """
    states = np.asarray(particles.states, dtype=float)
    dx, dy, a, base = _geometry(grid, grid.positions[:, None, :],
                                states[None, :, :2])
    moments = np.stack([base * dx * dx, base * dx * dy, base * dy * dy])
    a_max = np.sqrt(grid.p0)
    blocks = np.zeros((grid.n_sensors, r_max + 1, 3))
    for m in range(1, r_max + 1):
        tab = kernel_table(bank[m], grid.sigma, a_max)
        if m == 1:  # every rate's table shares one amplitude grid
            seg, frac = tab.locate(a)
        blocks[:, m] = np.mean(moments * tab.evaluate(seg, frac), axis=-1).T
    return FimTable(blocks=blocks, prior=prior_fim(particles))


def total_fim(alloc, table: FimTable) -> np.ndarray:
    """Prior plus the allocated sensors' blocks, as a 4x4 matrix."""
    alloc = np.asarray(alloc, dtype=int)
    if alloc.shape != (table.n_sensors,):
        raise ValueError("allocation length must match the sensor count")
    if np.any(alloc < 0) or np.any(alloc > table.r_max):
        raise ValueError("rate out of table range")
    a00, a01, a11 = table.blocks[np.arange(table.n_sensors), alloc].sum(axis=0)
    w = table.prior.copy()
    w[:2, :2] += [[a00, a01], [a01, a11]]
    return w


def logdet(f: np.ndarray) -> float:
    """log det of a symmetric PSD matrix; -inf sentinel when singular.

    Uses a Cholesky factorization, so only symmetric positive definite
    inputs produce a finite value.
    """
    f = np.asarray(f, dtype=float)
    ft = f.T
    # np.allclose(f, ft, atol=...) written out, with the same outcome for
    # NaN and +-inf; exactly symmetric input, the usual case, skips it.
    if not (f == ft).all():
        atol = 1e-10 * max(np.max(np.abs(f)), 1.0)
        with np.errstate(invalid="ignore"):
            close = (np.abs(f - ft) <= atol + 1e-5 * np.abs(ft)) & np.isfinite(ft)
        if not (close | (f == ft)).all():
            raise ValueError("logdet requires a symmetric matrix")
    try:
        chol = np.linalg.cholesky(f)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
