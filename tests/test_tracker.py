import numpy as np
import pytest

from bittrack import model, quantizer as qz, tracker
from bittrack.tracker import ParticleSet, SensorReport


def full_array_update_weights(p, reports, grid, bank):
    """Oracle: the weight update through the full (N_s, 2^m) array of
    level probabilities, keeping the reported level's column."""
    with np.errstate(divide="ignore"):
        log_w = np.log(p.weights)
        for rep in reports:
            amp = model.amplitude(grid, rep.sensor_index, p.states[:, :2])
            probs = qz.level_probabilities(amp, grid.sigma, bank[rep.rate])
            log_w = log_w + np.log(probs[:, rep.level])
    peak = np.max(log_w)
    if not np.isfinite(peak):
        return ParticleSet(p.states, np.full(p.size, 1.0 / p.size),
                           degenerate=True)
    w = np.exp(log_w - peak)
    return ParticleSet(p.states, w / w.sum(), degenerate=p.degenerate)


def test_sensor_report_validation():
    SensorReport(0, 2, 3)
    with pytest.raises(ValueError):
        SensorReport(0, 0, 0)  # silent sensors report nothing
    with pytest.raises(ValueError):
        SensorReport(0, 1, 2)  # level out of range


def test_init_particles_zero_cov_and_weights():
    rng = np.random.default_rng(0)
    mean = np.array([-8.0, -8.0, 2.0, 2.0])
    p = tracker.init_particles(mean, np.zeros((4, 4)), 50, rng)
    assert np.allclose(p.states, mean)
    assert np.allclose(p.weights, 1 / 50)


def test_init_particles_clt_mean():
    rng = np.random.default_rng(1)
    sigma_theta = 2.0 / 3.0
    cov = np.diag([sigma_theta**2, sigma_theta**2, 0.01, 0.01])
    mean = np.array([-8.0, -8.0, 2.0, 2.0])
    n = 4000
    p = tracker.init_particles(mean, cov, n, rng)
    stds = np.sqrt(np.diag(cov))
    assert np.all(np.abs(p.states.mean(axis=0) - mean) <= 4 * stds / np.sqrt(n))
    assert np.allclose(p.states.std(axis=0), stds, rtol=0.1)


def test_init_particles_rejects_non_psd():
    cov = np.diag([1.0, 1.0, 1.0, -0.5])
    with pytest.raises(ValueError):
        tracker.init_particles(np.zeros(4), cov, 10, np.random.default_rng(0))


def test_predict_deterministic_without_noise():
    mm = model.build_motion(0.5, 0.0)
    rng = np.random.default_rng(2)
    states = rng.normal(size=(30, 4))
    p = ParticleSet(states, np.full(30, 1 / 30))
    out = tracker.predict(p, mm, rng)
    assert np.allclose(out.states, states @ mm.F.T)
    assert np.allclose(out.weights, 1 / 30)


def test_predict_noise_covariance_matches_model():
    mm = model.build_motion(0.5, 0.8)
    rng = np.random.default_rng(3)
    n = 60_000
    p = ParticleSet(np.zeros((n, 4)), np.full(n, 1 / n))
    out = tracker.predict(p, mm, rng)
    emp = out.states.T @ out.states / n
    assert np.allclose(emp, mm.Q, atol=0.02 * np.max(mm.Q))


def test_update_weights_no_reports_identity(grid9, bank3):
    rng = np.random.default_rng(4)
    states = rng.normal(size=(40, 4))
    w = rng.dirichlet(np.ones(40))
    p = ParticleSet(states, w)
    out = tracker.update_weights(p, [], grid9, bank3)
    assert np.allclose(out.weights, w)
    assert not out.degenerate


def test_update_weights_constant_likelihood_invariant(grid9, bank3):
    # All particles at the same position: every report likelihood is
    # constant across particles, so weights are untouched.
    states = np.tile([-6.0, -6.0, 1.0, 1.0], (20, 1))
    w = np.random.default_rng(5).dirichlet(np.ones(20))
    p = ParticleSet(states, w)
    out = tracker.update_weights(p, [SensorReport(0, 2, 1)], grid9, bank3)
    assert np.allclose(out.weights, w, atol=1e-12)


def test_update_weights_factorizes_over_sensors(grid9, bank3):
    rng = np.random.default_rng(6)
    states = rng.normal([-5, -5, 0, 0], [3, 3, 1, 1], size=(10, 4))
    p = ParticleSet(states, np.full(10, 0.1))
    reports = [SensorReport(0, 2, 1), SensorReport(4, 1, 0)]
    joint = tracker.update_weights(p, reports, grid9, bank3)
    seq = tracker.update_weights(
        tracker.update_weights(p, reports[:1], grid9, bank3),
        reports[1:], grid9, bank3)
    assert np.allclose(joint.weights, seq.weights, atol=1e-12)


def test_update_weights_underflow_resets_uniform(grid9, bank3):
    # Every particle sits on top of sensor 0 (amplitude ~ 31.6), yet the
    # report claims the bottom level: zero likelihood for all particles.
    states = np.tile([-10.0, -10.0, 0.0, 0.0], (15, 1))
    p = ParticleSet(states, np.full(15, 1 / 15))
    out = tracker.update_weights(p, [SensorReport(0, 3, 0)], grid9, bank3)
    assert out.degenerate
    assert np.allclose(out.weights, 1 / 15)


def test_update_weights_equals_full_array_oracle(grid9, bank5):
    rng = np.random.default_rng(14)
    n = 1000
    allocs = [[5, 0, 0, 0, 0, 0, 0, 0, 0], [2, 1, 0, 2, 0, 0, 0, 0, 0],
              [1, 1, 1, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 3, 0, 0, 1, 1]]
    for step, alloc in enumerate(allocs):
        truth = rng.uniform(-10.0, 10.0, 2)
        states = np.column_stack([truth + rng.normal(0.0, 2.0, (n, 2)),
                                  rng.normal(0.0, 1.0, (n, 2))])
        p = ParticleSet(states, rng.dirichlet(np.ones(n)))
        reports = tracker.generate_reports(grid9, bank5, alloc, truth,
                                           rng.standard_normal(9))
        got = tracker.update_weights(p, reports, grid9, bank5)
        want = full_array_update_weights(p, reports, grid9, bank5)
        assert len(reports) >= 1
        assert np.array_equal(got.weights, want.weights), step
        assert got.degenerate == want.degenerate
    # Every particle on top of sensor 0 while it reports the bottom level
    # of rate 5: every likelihood underflows.
    states = np.tile([-10.0, -10.0, 0.0, 0.0], (n, 1))
    states[:, :2] += rng.normal(0.0, 1e-3, (n, 2))
    p = ParticleSet(states, np.full(n, 1.0 / n))
    reports = [SensorReport(0, 5, 0), SensorReport(4, 2, 1)]
    got = tracker.update_weights(p, reports, grid9, bank5)
    want = full_array_update_weights(p, reports, grid9, bank5)
    assert got.degenerate and want.degenerate
    assert np.array_equal(got.weights, want.weights)


def test_estimate():
    states = np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0]])
    p = ParticleSet(states, np.array([0.5, 0.5]))
    assert np.allclose(tracker.estimate(p), [2.0, 0, 0, 0])
    p = ParticleSet(states, np.array([1.0, 0.0]))
    assert np.allclose(tracker.estimate(p), states[0])
    rng = np.random.default_rng(7)
    states = rng.normal(size=(25, 4))
    w = rng.dirichlet(np.ones(25))
    p = ParticleSet(states, w)
    brute = sum(wi * si for wi, si in zip(w, states))
    assert np.allclose(tracker.estimate(p), brute, atol=1e-12)


def test_resample_degenerate_weight():
    states = np.arange(20.0).reshape(5, 4)
    w = np.zeros(5)
    w[3] = 1.0
    out = tracker.resample(ParticleSet(states, w), np.random.default_rng(8))
    assert np.allclose(out.states, states[3])
    assert np.allclose(out.weights, 0.2)


def test_resample_multiplicities_within_one():
    rng = np.random.default_rng(9)
    n = 200
    states = rng.normal(size=(n, 4))
    w = rng.dirichlet(np.ones(n))
    out = tracker.resample(ParticleSet(states, w), rng)
    assert out.size == n
    # systematic resampling: multiplicity in {floor(n w), ceil(n w)}
    for s in range(n):
        count = int(np.sum(np.all(out.states == states[s], axis=1)))
        assert np.floor(n * w[s]) <= count <= np.ceil(n * w[s])


def test_track_step_no_data_returns_predicted_mean(grid9, bank3):
    mm = model.build_motion(0.5, 2.5e-3)
    init = tracker.init_particles(np.array([-8.0, -8.0, 2.0, 2.0]),
                                  np.diag([0.4, 0.4, 0.01, 0.01]), 300,
                                  np.random.default_rng(10))
    # replay the same prediction stream to know the predicted cloud
    predicted = tracker.predict(init, mm, np.random.default_rng(11))
    _, est, reports = tracker.track_step(
        init, np.zeros(9, dtype=int), np.array([-7.0, -7.0, 2.0, 2.0]),
        grid9, bank3, mm, np.random.default_rng(11))
    assert reports == []
    assert np.allclose(est, tracker.estimate(predicted))


def test_track_step_deterministic_under_seed(grid9, bank3):
    mm = model.build_motion(0.5, 2.5e-3)
    init = tracker.init_particles(np.array([-8.0, -8.0, 2.0, 2.0]),
                                  np.diag([0.4, 0.4, 0.01, 0.01]), 200,
                                  np.random.default_rng(12))
    alloc = np.array([3, 0, 0, 0, 0, 0, 0, 0, 0])
    truth = np.array([-7.5, -7.5, 2.0, 2.0])
    run = lambda: tracker.track_step(init, alloc, truth, grid9, bank3, mm,
                                     np.random.default_rng(13))
    p1, e1, r1 = run()
    p2, e2, r2 = run()
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(e1, e2)
    assert r1 == r2


def test_track_step_data_shrinks_posterior_spread(grid9, bank3):
    # A high-rate report from the nearest sensor should reduce the
    # position spread relative to the prior cloud, on average.
    mm = model.build_motion(0.5, 2.5e-3)
    alloc = np.array([3, 0, 0, 0, 0, 0, 0, 0, 0])
    truth = np.array([-8.0, -8.0, 2.0, 2.0])
    shrunk = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        init = tracker.init_particles(truth, np.diag([1.0, 1.0, 0.04, 0.04]),
                                      400, rng)
        predicted = tracker.predict(init, mm, np.random.default_rng(2000 + seed))
        noise = np.random.default_rng(3000 + seed).standard_normal(9)
        reports = tracker.generate_reports(grid9, bank3, alloc, truth[:2], noise)
        updated = tracker.update_weights(predicted, reports, grid9, bank3)
        prior_spread = np.trace(np.cov(predicted.states[:, :2].T))
        mu = tracker.estimate(updated)[:2]
        post_cov = (updated.weights[:, None] * (updated.states[:, :2] - mu)).T \
            @ (updated.states[:, :2] - mu)
        if np.trace(post_cov) < prior_spread:
            shrunk += 1
    assert shrunk >= 40


def test_generate_reports_only_active_sensors(grid9, bank3):
    alloc = np.array([2, 0, 0, 1, 0, 0, 0, 0, 3])
    noise = np.zeros(9)
    reports = tracker.generate_reports(grid9, bank3, alloc, (-8.0, -8.0), noise)
    assert [r.sensor_index for r in reports] == [0, 3, 8]
    assert [r.rate for r in reports] == [2, 1, 3]
    for r in reports:
        assert 0 <= r.level < 2**r.rate
