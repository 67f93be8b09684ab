"""Target kinematics, sensor geometry, and the attenuation law.

The target follows a white-noise-acceleration model over the 4-state
vector [x, y, vx, vy].  Sensors see a range-attenuated signal amplitude
plus additive Gaussian noise.  All randomness is injected by the caller
(explicit noise vectors or a seeded numpy Generator), so every trial is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 4


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity dynamics x' = F x + v, v ~ N(0, Q)."""

    dt: float
    rho: float
    F: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SensorGrid:
    """Sensor positions plus the shared signal/noise parameters.

    positions : (N, 2) array of sensor coordinates in meters
    p0        : source signal power at zero distance
    alpha     : attenuation scaling
    n_exp     : attenuation decay exponent
    sigma     : measurement noise standard deviation
    """

    positions: np.ndarray = field(repr=False)
    p0: float = 1000.0
    alpha: float = 1.0
    n_exp: float = 2.0
    sigma: float = 1.0

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape[0] == 0:
            raise ValueError("sensor grid needs at least one sensor")
        if pos.shape[1] != 2:
            raise ValueError("sensor positions must be (N, 2)")
        uniq = {(float(x), float(y)) for x, y in pos}
        if len(uniq) != pos.shape[0]:
            raise ValueError("sensor positions must be pairwise distinct")
        for name in ("p0", "alpha", "n_exp", "sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "positions", pos)

    @property
    def n_sensors(self) -> int:
        return self.positions.shape[0]


def build_motion(dt: float, rho: float) -> MotionModel:
    """White-noise-acceleration model with step dt and noise intensity rho."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    F = np.array([
        [1.0, 0.0, dt, 0.0],
        [0.0, 1.0, 0.0, dt],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    d3, d2 = dt**3 / 3.0, dt**2 / 2.0
    Q = rho * np.array([
        [d3, 0.0, d2, 0.0],
        [0.0, d3, 0.0, d2],
        [d2, 0.0, dt, 0.0],
        [0.0, d2, 0.0, dt],
    ])
    return MotionModel(dt=dt, rho=rho, F=F, Q=Q)


def attenuation(d2, p0: float, alpha: float, n_exp: float):
    """The attenuation law at squared distance d2: (a2, denom), where
    denom = 1 + alpha * d^n and a2 = p0 / denom is the received power.
    The amplitude sqrt(a2) is regular at d = 0 (it saturates at sqrt(p0)).
    """
    denom = 1.0 + alpha * d2 ** (n_exp / 2.0)
    return p0 / denom, denom


def amplitude(grid: SensorGrid, i: int, pos) -> float:
    """Noise-free signal amplitude a = sqrt(p0 / (1 + alpha * d^n)) at sensor i.

    `pos` may also be an (M, 2) array of target positions, in which
    case an (M,) amplitude vector is returned.
    """
    pos = np.asarray(pos, dtype=float)
    delta = pos[..., :2] - grid.positions[i]
    d2 = np.sum(delta * delta, axis=-1)
    return np.sqrt(attenuation(d2, grid.p0, grid.alpha, grid.n_exp)[0])


def build_grid(count_per_side: int, area_side: float, **params) -> SensorGrid:
    """Uniform square grid of count_per_side^2 sensors with corners at
    +-area_side/2.  Extra keyword arguments set the signal parameters."""
    if count_per_side < 1:
        raise ValueError("count_per_side must be at least 1")
    if count_per_side == 1:
        coords = np.array([0.0])
    else:
        coords = np.linspace(-area_side / 2.0, area_side / 2.0, count_per_side)
    xx, yy = np.meshgrid(coords, coords)
    positions = np.column_stack([xx.ravel(), yy.ravel()])
    return SensorGrid(positions=positions, **params)
