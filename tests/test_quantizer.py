import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bittrack import quantizer as qz

from conftest import AREA_SIDE, BANK_FILE, PAPER_GRID_PARAMS, fd_amplitude_fisher


def bernoulli_fisher(a, sigma, eta):
    """Closed-form Fisher information about a of a one-threshold
    quantizer: phi((eta-a)/sigma)^2 / (sigma^2 p0 p1)."""
    x = (eta - a) / sigma
    phi = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    p1 = qz.gaussian_upper_tail(x)
    return phi**2 / (sigma**2 * p1 * (1 - p1))


def test_gaussian_upper_tail():
    assert qz.gaussian_upper_tail(0.0) == pytest.approx(0.5)
    assert qz.gaussian_upper_tail(np.inf) == 0.0
    assert qz.gaussian_upper_tail(-np.inf) == 1.0
    assert qz.gaussian_upper_tail(1.959964) == pytest.approx(0.025, abs=1e-6)


def test_threshold_vector_validation():
    qz.ThresholdVector(0, np.empty(0))
    qz.ThresholdVector(2, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        qz.ThresholdVector(2, np.array([0.0, 1.0]))  # wrong count
    with pytest.raises(ValueError):
        qz.ThresholdVector(2, np.array([0.0, 2.0, 1.0]))  # not increasing


def test_quantize_levels():
    thr = qz.ThresholdVector(2, np.array([1.0, 2.0, 3.0]))
    assert qz.quantize(0.5, thr) == 0
    assert qz.quantize(3.5, thr) == 3
    t1 = qz.ThresholdVector(1, np.array([2.0]))
    assert qz.quantize(2.0 - 1e-9, t1) == 0
    assert qz.quantize(2.0 + 1e-9, t1) == 1
    with pytest.raises(ValueError):
        qz.quantize(1.0, qz.ThresholdVector(0, np.empty(0)))


def test_level_probability_basics():
    t1 = qz.ThresholdVector(1, np.array([3.0]))
    assert qz.level_probabilities(3.0, 1.0, t1, level=0) == pytest.approx(0.5)
    assert qz.level_probabilities(3.0, 1.0, t1, level=1) == pytest.approx(0.5)
    t0 = qz.ThresholdVector(0, np.empty(0))
    assert qz.level_probabilities(5.0, 1.0, t0, level=0) == 1.0
    assert np.array_equal(qz.level_probabilities([5.0, -2.0], 1.0, t0, level=0),
                          [1.0, 1.0])
    for bad in (2, -1):
        with pytest.raises(ValueError):
            qz.level_probabilities(3.0, 1.0, t1, level=bad)
    with pytest.raises(ValueError):
        qz.level_probabilities(5.0, 1.0, t0, level=1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_level_probabilities_normalize(m, bank5):
    rng = np.random.default_rng(m)
    for _ in range(20):
        a = rng.uniform(0.0, 32.0)
        sigma = rng.uniform(0.3, 3.0)
        p = qz.level_probabilities(a, sigma, bank5[m])
        assert p.shape == (2**m,)
        assert abs(p.sum() - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(amps=st.lists(st.floats(-40.0, 80.0), min_size=1, max_size=16),
       sigma=st.floats(1e-3, 5.0))
@example(amps=[-40.0, 0.0, 15.0, 31.6, 80.0], sigma=1e-3)
def test_reported_level_equals_full_column(bank5, amps, sigma):
    # Amplitudes span beyond [0, sqrt(p0)] and sigma reaches 1e-3, so
    # many levels underflow to exactly 0; those must match too.
    a = np.asarray(amps)
    for m in range(1, bank5.r_max + 1):
        full = qz.level_probabilities(a, sigma, bank5[m])
        for l in range(2**m):
            one = qz.level_probabilities(a, sigma, bank5[m], level=l)
            assert one.shape == a.shape
            assert np.array_equal(one, full[:, l]), (m, l)


def test_quantize_consistent_with_mass():
    thr = qz.ThresholdVector(2, np.array([1.0, 2.0, 3.0]))
    for z in (0.2, 1.5, 2.5, 3.8):
        l = qz.quantize(z, thr)
        assert qz.level_probabilities(z, 1e-4, thr, level=l) == pytest.approx(
            1.0, abs=1e-9)


def test_kappa_zero_rate():
    thr = qz.ThresholdVector(0, np.empty(0))
    assert qz.kappa(0, 5.0, 1.0, thr) == 0.0


def test_kappa_symmetric_binary_value():
    # One threshold placed exactly at the amplitude, sigma = 1.
    thr = qz.ThresholdVector(1, np.array([5.0]))
    assert 4 * qz.kappa(1, 5.0, 1.0, thr) == pytest.approx(2 / np.pi, rel=1e-12)


def test_kappa_matches_bernoulli_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(0.5, 20.0)
        sigma = rng.uniform(0.3, 3.0)
        eta = a + rng.uniform(-4.0, 4.0) * sigma
        thr = qz.ThresholdVector(1, np.array([eta]))
        got = 4 * qz.kappa(1, a, sigma, thr)
        want = bernoulli_fisher(a, sigma, eta)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("m", [2, 3])
def test_kappa_matches_fd_categorical_oracle(m, bank3):
    rng = np.random.default_rng(m)
    for _ in range(25):
        a = rng.uniform(1.0, 8.0)
        got = 4 * qz.kappa(m, a, 1.0, bank3[m])
        want = fd_amplitude_fisher(m, a, 1.0, bank3[m])
        assert got == pytest.approx(want, rel=1e-6)


def test_kappa_translation_invariant():
    thr = qz.ThresholdVector(2, np.array([1.0, 2.0, 3.5]))
    for shift in (-3.0, 0.7, 12.0):
        shifted = qz.ThresholdVector(2, thr.interior + shift)
        assert qz.kappa(2, 2.2 + shift, 0.8, shifted) == pytest.approx(
            qz.kappa(2, 2.2, 0.8, thr), rel=1e-12)


def test_kappa_vanishing_level_is_clamped():
    # Clustered thresholds leave the middle level nearly massless; the
    # kernel must stay finite and non-negative.
    thr = qz.ThresholdVector(2, np.array([-30.0, -30.0 + 1e-13, 30.0]))
    val = qz.kappa(2, 0.0, 1.0, thr)
    assert np.isfinite(val) and val >= 0.0


def test_optimize_thresholds_matches_grid_search():
    rng = np.random.default_rng(0)
    amps = qz.amplitude_samples(AREA_SIDE, PAPER_GRID_PARAMS, 4000, rng)
    thr = qz.optimize_thresholds(1, AREA_SIDE, PAPER_GRID_PARAMS,
                                 sample_count=4000, rng_seed=0)
    obj = qz.design_objective(1, thr, amps, PAPER_GRID_PARAMS[3])
    grid_pts = np.linspace(0.0, np.sqrt(PAPER_GRID_PARAMS[0]), 10000)[1:-1]
    grid_best = max(
        qz.design_objective(1, qz.ThresholdVector(1, np.array([g])), amps,
                            PAPER_GRID_PARAMS[3])
        for g in grid_pts)
    assert obj >= grid_best * 0.99


@pytest.mark.parametrize("m", [1, 2, 3])
def test_optimize_thresholds_local_optimality(m, bank3):
    rng = np.random.default_rng(0)
    amps = qz.amplitude_samples(AREA_SIDE, PAPER_GRID_PARAMS, 2000, rng)
    sigma = PAPER_GRID_PARAMS[3]
    thr = bank3[m]
    base = qz.design_objective(m, thr, amps, sigma)
    assert np.isfinite(base) and base > 0
    assert np.all(np.diff(thr.boundaries) > 0)
    for scale in (0.9, 1.1):
        pert = qz.ThresholdVector(m, thr.interior * scale)
        assert qz.design_objective(m, pert, amps, sigma) <= base + 1e-4


@pytest.mark.parametrize("sigma, p0", [(PAPER_GRID_PARAMS[3], PAPER_GRID_PARAMS[0]),
                                       (0.5, 4000.0)])
def test_kernel_table_matches_exact_kappa(bank5, sigma, p0):
    # Random amplitudes fall off the spline's nodes, where its error peaks.
    a_max = np.sqrt(p0)
    a = np.random.default_rng(7).uniform(0.0, a_max, 100_000)
    for m in range(1, bank5.r_max + 1):
        table = qz.kernel_table(bank5[m], sigma, a_max)
        got = table.evaluate(*table.locate(a))
        want = np.concatenate([qz.kappa(m, chunk, sigma, bank5[m])
                               for chunk in np.array_split(a, 20)])
        assert np.all(got >= 0.0), m
        assert np.max(np.abs(got - want)) <= 1e-9 * want.max(), m
        # Cached on the threshold values, not on the bank object.
        copy = qz.ThresholdVector(m, bank5[m].interior.copy())
        assert qz.kernel_table(copy, sigma, a_max) is table


def test_optimize_improves_on_equiprobable_init():
    rng = np.random.default_rng(0)
    amps = qz.amplitude_samples(AREA_SIDE, PAPER_GRID_PARAMS, 2000, rng)
    sigma = PAPER_GRID_PARAMS[3]
    m = 2
    init = np.quantile(amps, np.arange(1, 2**m) / 2**m)
    init_obj = qz.design_objective(m, qz.ThresholdVector(m, init), amps, sigma)
    thr = qz.optimize_thresholds(m, AREA_SIDE, PAPER_GRID_PARAMS,
                                 sample_count=2000, rng_seed=0)
    assert qz.design_objective(m, thr, amps, sigma) >= init_obj


def test_optimize_rejects_bad_args():
    with pytest.raises(ValueError):
        qz.optimize_thresholds(0, AREA_SIDE, PAPER_GRID_PARAMS)
    with pytest.raises(ValueError):
        qz.optimize_thresholds(1, AREA_SIDE, PAPER_GRID_PARAMS, sample_count=10)


def test_bank_roundtrip_bit_identical(tmp_path, bank3):
    path = tmp_path / "bank.json"
    qz.save_bank(bank3, path)
    again = qz.load_bank(path)
    assert again.r_max == bank3.r_max
    assert again.seed == bank3.seed
    assert again.grid_params == bank3.grid_params
    for m in range(bank3.r_max + 1):
        assert np.array_equal(again[m].interior, bank3[m].interior)
    assert again.objectives == bank3.objectives


def test_bank5_matches_committed_bank_file(tmp_path, bank5):
    # Same design parameters as the committed file: same bytes.
    path = tmp_path / "bank.json"
    qz.save_bank(bank5, path)
    with open(BANK_FILE, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_bank_file_rejects_gaps(tmp_path, bank3):
    import json
    path = tmp_path / "bank.json"
    qz.save_bank(bank3, path)
    doc = json.loads(path.read_text())
    doc["rates"] = [r for r in doc["rates"] if r["rate"] != 1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        qz.load_bank(path)
