import numpy as np
import pytest

from bittrack import fisher, model, quantizer as qz, tracker
from bittrack.tracker import ParticleSet

from conftest import fd_amplitude_fisher


def sensor_fim_expected(grid, i, particles, m, bank):
    """Oracle: unweighted particle average of the conditional FIM with the
    exact kernel (predicted cloud particles carry equal weight)."""
    states = np.asarray(particles.states, dtype=float)
    if states.shape[0] == 0:
        raise ValueError("empty particle set")
    coef, dx, dy = fisher._conditional_coef(grid, i, states[:, :2], m, bank)
    out = np.zeros((4, 4))
    out[0, 0] = np.mean(coef * dx * dx)
    out[0, 1] = out[1, 0] = np.mean(coef * dx * dy)
    out[1, 1] = np.mean(coef * dy * dy)
    return out


def fd_position_fim_entries(grid, i, pos, m, bank, h=1e-5):
    """Independent oracle: (1,1), (2,2), (1,2) FIM entries via central
    differences of the level probabilities over the target position."""
    def probs(x, y):
        a = model.amplitude(grid, i, (x, y))
        return qz.level_probabilities(a, grid.sigma, bank[m])

    x, y = pos
    p = probs(x, y)
    dpx = (probs(x + h, y) - probs(x - h, y)) / (2 * h)
    dpy = (probs(x, y + h) - probs(x, y - h)) / (2 * h)
    mask = p > 1e-12
    return (np.sum(dpx[mask] ** 2 / p[mask]),
            np.sum(dpy[mask] ** 2 / p[mask]),
            np.sum(dpx[mask] * dpy[mask] / p[mask]))


def closed_form_fim_entries(grid, i, pos, m, bank):
    """The same entries assembled directly from the kernel identity:
    kappa times the attenuation factor times the position outer product."""
    dx = grid.positions[i, 0] - pos[0]
    dy = grid.positions[i, 1] - pos[1]
    d2 = dx * dx + dy * dy
    n = grid.n_exp
    denom = 1.0 + grid.alpha * d2 ** (n / 2.0)
    a2 = grid.p0 / denom
    k = qz.kappa(m, np.sqrt(a2), grid.sigma, bank[m])
    coef = n**2 * k * a2 * grid.alpha**2 * d2 ** (n - 2.0) / denom**2
    return coef * dx * dx, coef * dy * dy, coef * dx * dy


def uniform_set(states):
    states = np.asarray(states, dtype=float)
    return ParticleSet(states, np.full(states.shape[0], 1.0 / states.shape[0]))


def test_conditional_zero_cases(grid9, bank3):
    state = np.array([-8.0, -8.0, 2.0, 2.0])
    assert np.all(fisher.sensor_fim_conditional(grid9, 0, state, 0, bank3) == 0.0)
    colocated = np.array([-10.0, -10.0, 1.0, 1.0])
    assert np.all(fisher.sensor_fim_conditional(grid9, 0, colocated, 2, bank3) == 0.0)


def test_conditional_matches_fd_oracle(grid9, bank3):
    state = np.array([-8.0, -8.0, 2.0, 2.0])
    got = fisher.sensor_fim_conditional(grid9, 0, state, 3, bank3)
    o11, o22, o12 = fd_position_fim_entries(grid9, 0, state[:2], 3, bank3)
    assert got[0, 0] == pytest.approx(o11, rel=1e-5)
    assert got[1, 1] == pytest.approx(o22, rel=1e-5)
    assert got[0, 1] == pytest.approx(o12, rel=1e-5)


def test_conditional_random_geometries(grid9, bank3):
    rng = np.random.default_rng(11)
    for _ in range(50):
        i = int(rng.integers(0, 9))
        m = int(rng.integers(1, 4))
        pos = rng.uniform(-10.0, 10.0, size=2)
        if np.hypot(*(grid9.positions[i] - pos)) < 0.5:
            continue
        got = fisher.sensor_fim_conditional(
            grid9, i, np.r_[pos, 0.0, 0.0], m, bank3)
        if np.trace(got) < 1e-6:
            # below the finite-difference oracle's resolution
            continue
        o11, o22, o12 = fd_position_fim_entries(grid9, i, pos, m, bank3)
        c11, c22, c12 = closed_form_fim_entries(grid9, i, pos, m, bank3)
        assert got[0, 0] == pytest.approx(o11, rel=1e-5)
        assert got[1, 1] == pytest.approx(o22, rel=1e-5)
        assert got[0, 1] == pytest.approx(o12, rel=1e-5)
        assert got[0, 0] == pytest.approx(c11, rel=1e-12)
        assert got[1, 1] == pytest.approx(c22, rel=1e-12)
        assert got[0, 1] == pytest.approx(c12, rel=1e-12)
        # structure: zero velocity block, rank-1 position block, PSD
        assert np.all(got[2:, :] == 0.0) and np.all(got[:, 2:] == 0.0)
        assert abs(np.linalg.det(got[:2, :2])) <= 1e-12 * max(got[0, 0], 1.0) ** 2
        assert np.linalg.eigvalsh(got).min() >= -1e-12


def test_conditional_consistent_with_amplitude_fisher(grid9, bank3):
    # The kernel times 4 must equal the categorical Fisher info about a.
    pos = np.array([-6.0, -7.0])
    m = 2
    a = model.amplitude(grid9, 0, pos)
    assert 4 * qz.kappa(m, a, grid9.sigma, bank3[m]) == pytest.approx(
        fd_amplitude_fisher(m, a, grid9.sigma, bank3[m]), rel=1e-6)


def test_expected_fim_degenerate_average(grid9, bank3):
    state = np.array([-8.0, -8.0, 2.0, 2.0])
    particles = uniform_set(np.tile(state, (25, 1)))
    got = sensor_fim_expected(grid9, 0, particles, 2, bank3)
    want = fisher.sensor_fim_conditional(grid9, 0, state, 2, bank3)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.all(sensor_fim_expected(grid9, 0, particles, 0, bank3) == 0.0)


def test_expected_fim_mirror_symmetry_cancels_cross_term(bank3):
    # Sensor at the origin, particles mirrored across the y-axis: the
    # two conditional cross terms are equal and opposite by hand.
    grid = model.SensorGrid(positions=[(0.0, 0.0)])
    s1 = np.array([3.0, 4.0, 0.0, 0.0])
    s2 = np.array([-3.0, 4.0, 0.0, 0.0])
    j1 = fisher.sensor_fim_conditional(grid, 0, s1, 2, bank3)
    j2 = fisher.sensor_fim_conditional(grid, 0, s2, 2, bank3)
    assert j1[0, 1] == pytest.approx(-j2[0, 1], rel=1e-12)
    got = sensor_fim_expected(grid, 0, uniform_set([s1, s2]), 2, bank3)
    assert np.allclose(got, 0.5 * (j1 + j2), rtol=1e-12)
    assert got[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_expected_fim_rejects_empty(grid9, bank3):
    empty = ParticleSet.__new__(ParticleSet)
    object.__setattr__(empty, "states", np.empty((0, 4)))
    object.__setattr__(empty, "weights", np.empty(0))
    with pytest.raises(ValueError):
        sensor_fim_expected(grid9, 0, empty, 1, bank3)


def _cloud(kind, grid):
    rng = np.random.default_rng(13)
    cov0 = np.diag([0.25, 0.25, 0.01, 0.01])
    cloud = tracker.init_particles([-3.0, -4.0, 1.0, 1.0], cov0, 1000, rng)
    if kind == "wide":
        motion = model.build_motion(0.5, 0.1)
        for _ in range(20):
            cloud = tracker.predict(cloud, motion, rng)
    states = cloud.states.copy()
    if kind == "on_sensor":
        # d = 0 puts the amplitude at sqrt(p0), the table's last node.
        states[0, :2] = grid.positions[4]
    return uniform_set(states)


@pytest.mark.parametrize("kind", ["tight", "wide", "on_sensor"])
def test_table_matches_exact_kernel_oracle(grid9, bank5, kind):
    particles = _cloud(kind, grid9)
    table = fisher.build_fim_table(grid9, particles, 5, bank5)
    assert np.all(table.atoms[:, 0] == 0.0)
    for m in range(1, 6):
        want = np.array([sensor_fim_expected(grid9, i, particles, m, bank5)
                         for i in range(grid9.n_sensors)])
        assert np.allclose(table.atoms[:, m], want, rtol=0.0,
                           atol=1e-8 * np.abs(want).max()), m


def test_prior_fim_identity_and_scaling():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(400, 4))
    raw -= raw.mean(axis=0)
    cov = raw.T @ raw / raw.shape[0]
    white = raw @ np.linalg.inv(np.linalg.cholesky(cov)).T
    jp = fisher.prior_fim(uniform_set(white))
    assert np.allclose(jp, np.eye(4), atol=1e-6)
    jp_scaled = fisher.prior_fim(uniform_set(3.0 * white))
    assert np.allclose(jp_scaled, jp / 9.0, rtol=1e-9)


def test_prior_fim_degenerate_cloud_regularized():
    particles = uniform_set(np.tile([1.0, 2.0, 0.5, 0.5], (50, 1)))
    jp = fisher.prior_fim(particles)
    # Zero covariance collapses to the ridge: inverse is a huge multiple
    # of the identity.
    assert np.allclose(jp, jp[0, 0] * np.eye(4), rtol=1e-6)
    assert jp[0, 0] > 1e8


def test_prior_fim_needs_enough_particles():
    with pytest.raises(ValueError):
        fisher.prior_fim(uniform_set(np.zeros((3, 4))))


def test_total_fim(grid9, bank3):
    rng = np.random.default_rng(5)
    states = rng.normal([-4, -4, 2, 2], [2, 2, 0.3, 0.3], size=(100, 4))
    table = fisher.build_fim_table(grid9, uniform_set(states), 3, bank3)
    assert np.allclose(fisher.total_fim(np.zeros(9, dtype=int), table),
                       table.prior)
    # additivity at N=2 slice: difference of single-bit allocations
    a10 = fisher.total_fim([1, 0, 0, 0, 0, 0, 0, 0, 0], table)
    a01 = fisher.total_fim([0, 1, 0, 0, 0, 0, 0, 0, 0], table)
    assert np.allclose(a10 - a01, table.atoms[0, 1] - table.atoms[1, 1],
                       atol=1e-15)
    with pytest.raises(ValueError):
        fisher.total_fim([4, 0, 0, 0, 0, 0, 0, 0, 0], table)
    with pytest.raises(ValueError):
        fisher.total_fim([1, 0], table)


def test_total_fim_permutation_invariant_with_identical_atoms(bank3, grid9):
    rng = np.random.default_rng(6)
    states = rng.normal([0, 0, 0, 0], [3, 3, 0.3, 0.3], size=(60, 4))
    table = fisher.build_fim_table(grid9, uniform_set(states), 3, bank3)
    atoms = table.atoms.copy()
    atoms[1] = atoms[0]  # force two sensors to share identical atoms
    table2 = fisher.FimTable(atoms=atoms, prior=table.prior)
    w1 = fisher.total_fim([1, 0, 2, 0, 0, 0, 0, 0, 0], table2)
    w2 = fisher.total_fim([0, 1, 2, 0, 0, 0, 0, 0, 0], table2)
    assert np.array_equal(w1, w2)


def test_logdet_values():
    assert fisher.logdet(np.eye(4)) == 0.0
    assert fisher.logdet(np.diag([2.0, 2.0, 2.0, 2.0])) == pytest.approx(
        4 * np.log(2.0), rel=1e-14)
    assert fisher.logdet(np.diag([1.0, 0.0, 1.0, 1.0])) == -np.inf
    with pytest.raises(ValueError):
        fisher.logdet(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_logdet_matrix_determinant_lemma():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = rng.normal(size=(4, 4))
        x = g @ g.T + 0.1 * np.eye(4)
        v = rng.normal(size=4)
        a = np.outer(v, v)
        lhs = fisher.logdet(x + a)
        sign, middle = np.linalg.slogdet(np.eye(4) + np.linalg.inv(x) @ a)
        assert sign > 0
        assert lhs == pytest.approx(fisher.logdet(x) + middle, rel=1e-10)


def _spd4():
    f = np.diag([2.0, 3.0, 4.0, 5.0])
    f[0, 1] = f[1, 0] = 0.5
    return f


def test_logdet_symmetry_tolerance():
    # Tolerance: |f - f.T| <= 1e-10 * max(max|f|, 1) + 1e-5 * |f.T|.
    for (i, j), delta, accepted in [((0, 1), 1e-6, True),
                                    ((0, 1), 1e-3, False),
                                    ((2, 3), 4e-10, True),
                                    ((2, 3), 6e-10, False)]:
        f = _spd4()
        f[i, j] += delta
        if accepted:
            # Cholesky reads the lower triangle, which is unchanged.
            assert fisher.logdet(f) == fisher.logdet(_spd4())
        else:
            with pytest.raises(ValueError):
                fisher.logdet(f)


def _non_finite_case(value, where):
    f = _spd4()
    if where == "diag":
        f[2, 2] = value
    elif where == "pair":
        f[0, 1] = f[1, 0] = value
    elif where == "upper":
        f[0, 1] = value
    elif where == "diag+asym":
        f[2, 2] = value
        f[0, 1] = 0.6
    elif where == "opposite":
        f[0, 1], f[1, 0] = value, -value
    else:  # "huge": an infinite entry against a finite one
        f[0, 1], f[1, 0] = value, 1e308
    return f


# Outcomes of the np.allclose symmetry check this one replaced: a NaN
# anywhere is rejected; an infinite entry makes the absolute tolerance
# infinite, so finite pairs always pass, while an infinite entry passes
# only against an equal one.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value, where, expected", [
    (np.nan, "diag", ValueError),
    (np.nan, "pair", ValueError),
    (np.nan, "upper", ValueError),
    (np.nan, "diag+asym", ValueError),
    (np.inf, "diag", np.inf),
    (np.inf, "pair", -np.inf),
    (np.inf, "upper", ValueError),
    (np.inf, "diag+asym", np.inf),
    (np.inf, "opposite", ValueError),
    (np.inf, "huge", ValueError),
    (-np.inf, "diag", -np.inf),
    (-np.inf, "pair", -np.inf),
    (-np.inf, "upper", ValueError),
])
def test_logdet_non_finite_inputs(value, where, expected):
    f = _non_finite_case(value, where)
    if expected is ValueError:
        with pytest.raises(ValueError):
            fisher.logdet(f)
    else:
        assert fisher.logdet(f) == expected
