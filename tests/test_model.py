import numpy as np
import pytest

from bittrack import model


def propagate(state, mm, noise):
    """One dynamics step F @ state + noise, as `tracker.predict` applies it."""
    return mm.F @ np.asarray(state, dtype=float) + np.asarray(noise, dtype=float)


def test_motion_matrices_unit_step():
    mm = model.build_motion(1.0, 1.0)
    expected_q = np.array([
        [1 / 3, 0, 1 / 2, 0],
        [0, 1 / 3, 0, 1 / 2],
        [1 / 2, 0, 1, 0],
        [0, 1 / 2, 0, 1],
    ])
    assert np.allclose(mm.Q, expected_q, atol=1e-15)
    assert np.array_equal(mm.Q, mm.Q.T)
    assert mm.F[0, 2] == 1.0 and mm.F[1, 3] == 1.0


def test_motion_zero_noise_and_scaling():
    assert np.all(model.build_motion(0.5, 0.0).Q == 0.0)
    mm = model.build_motion(0.5, 0.1)
    assert mm.Q[0, 0] == pytest.approx(0.1 * 0.5**3 / 3, rel=1e-12)


@pytest.mark.parametrize("dt,rho", [(0.1, 0.0), (0.5, 2.5e-3), (1.7, 3.2)])
def test_motion_q_psd(dt, rho):
    mm = model.build_motion(dt, rho)
    assert np.allclose(mm.Q, mm.Q.T)
    assert np.linalg.eigvalsh(mm.Q).min() >= -1e-12


def test_motion_rejects_bad_args():
    with pytest.raises(ValueError):
        model.build_motion(0.0, 1.0)
    with pytest.raises(ValueError):
        model.build_motion(1.0, -0.1)


def test_propagate_moves_with_velocity():
    mm = model.build_motion(0.5, 0.0)
    out = propagate(np.array([0.0, 0.0, 2.0, 2.0]), mm, np.zeros(4))
    assert np.allclose(out, [1.0, 1.0, 2.0, 2.0])
    out = propagate(np.array([-8.0, -8.0, 2.0, 2.0]), mm, np.zeros(4))
    assert np.allclose(out, [-7.0, -7.0, 2.0, 2.0])


def test_propagate_noise_additive_and_linear():
    mm = model.build_motion(0.5, 0.0)
    noise = np.array([0.1, 0.0, 0.0, 0.0])
    assert np.allclose(propagate(np.zeros(4), mm, noise), noise)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=4), rng.normal(size=4)
    a, b = 1.7, -0.3
    lhs = propagate(a * x + b * y, mm, np.zeros(4))
    rhs = a * propagate(x, mm, np.zeros(4)) + b * propagate(y, mm, np.zeros(4))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_amplitude_values():
    single = model.SensorGrid(positions=[(0.0, 0.0)])
    assert model.amplitude(single, 0, (0.0, 0.0)) == pytest.approx(np.sqrt(1000.0))
    # alpha * d^n = 999 makes the denominator 1000
    g999 = model.SensorGrid(positions=[(0.0, 0.0)], alpha=999.0, n_exp=2.0)
    assert model.amplitude(g999, 0, (1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    grid = model.build_grid(3, 20.0)
    assert model.amplitude(grid, 0, (-8.0, -8.0)) == pytest.approx(
        np.sqrt(1000.0 / 9.0), rel=1e-12)


def test_amplitude_monotone_and_power_identity():
    grid = model.SensorGrid(positions=[(0.0, 0.0)], p0=500.0, alpha=0.7, n_exp=2.3)
    ds = np.linspace(0.0, 30.0, 200)
    amps = np.array([model.amplitude(grid, 0, (d, 0.0)) for d in ds])
    assert np.all(np.diff(amps) < 0)
    for d, a in zip(ds, amps):
        assert a**2 * (1 + grid.alpha * d**grid.n_exp) == pytest.approx(
            grid.p0, rel=1e-12)


def test_attenuation_law():
    grid = model.SensorGrid(positions=[(0.0, 0.0)])
    a2, denom = model.attenuation(25.0, grid.p0, grid.alpha, grid.n_exp)
    assert denom == 26.0
    assert np.sqrt(a2) == model.amplitude(grid, 0, (3.0, 4.0))
    assert np.sqrt(a2) == pytest.approx(np.sqrt(1000.0 / 26.0), rel=1e-15)
    # alpha * d^n = 999 at d = 1: unit amplitude, so a reading with
    # noise -0.5 is 0.5.
    a2, _ = model.attenuation(1.0, 1000.0, 999.0, 2.0)
    assert np.sqrt(a2) - 0.5 == pytest.approx(0.5)
    # Saturates at sqrt(p0) at d = 0; vectorized and deterministic.
    d2 = np.random.default_rng(7).uniform(0.0, 400.0, 5)
    d2[0] = 0.0
    a2, denom = model.attenuation(d2, 1000.0, 1.0, 2.0)
    assert a2[0] == 1000.0
    assert np.array_equal(a2, model.attenuation(d2, 1000.0, 1.0, 2.0)[0])
    assert np.array_equal(denom, 1.0 + d2)
    # model.amplitude evaluates the law exactly as written out.
    g = model.SensorGrid(positions=[(1.0, -2.0)], p0=500.0, alpha=0.7,
                         n_exp=2.3)
    pos = np.random.default_rng(8).uniform(-15.0, 15.0, (50, 2))
    u = np.sum((pos - g.positions[0]) ** 2, axis=1)
    assert np.array_equal(model.amplitude(g, 0, pos),
                          np.sqrt(g.p0 / (1.0 + g.alpha * u ** (g.n_exp / 2.0))))


def test_build_grid_layouts():
    g = model.build_grid(3, 20.0)
    assert g.n_sensors == 9
    assert any(np.allclose(p, (-10.0, -10.0)) for p in g.positions)
    g1 = model.build_grid(1, 20.0)
    assert g1.n_sensors == 1 and np.allclose(g1.positions[0], (0.0, 0.0))
    g5 = model.build_grid(5, 20.0)
    assert g5.n_sensors == 25
    xs = np.unique(g5.positions[:, 0])
    assert np.allclose(np.diff(xs), 5.0)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        model.build_grid(0, 20.0)
    with pytest.raises(ValueError):
        model.SensorGrid(positions=np.empty((0, 2)))
    with pytest.raises(ValueError):
        model.SensorGrid(positions=[(0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        model.SensorGrid(positions=[(0.0, 0.0)], sigma=0.0)
