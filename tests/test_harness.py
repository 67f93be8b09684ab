import filecmp
import time
from dataclasses import replace

import numpy as np
import pytest

from bittrack import cli, convex, harness, quantizer
from bittrack.harness import ConfigError, ExperimentConfig

from conftest import BANK_FILE


@pytest.fixture(scope="module")
def tiny_cfg():
    """Small but complete configuration for fast end-to-end runs."""
    return ExperimentConfig(grid_side_count=2, steps=4, particles=150,
                            budget=2, trials=3, policy="gbfos",
                            bank_samples=1500)


@pytest.fixture(scope="module")
def tiny_bank(tiny_cfg):
    from bittrack.quantizer import build_bank
    return build_bank(tiny_cfg.budget, tiny_cfg.area_side,
                      tiny_cfg.grid_params, sample_count=tiny_cfg.bank_samples,
                      seed=tiny_cfg.bank_seed)


def test_default_config_matches_reference_parameters():
    cfg = ExperimentConfig()
    assert cfg.area_side == 20.0
    assert cfg.p0 == 1000.0
    assert cfg.sigma == 1.0
    assert cfg.dt == 0.5
    assert cfg.steps == 20
    assert cfg.budget == 5
    assert cfg.grid_side_count == 3
    assert cfg.mu0 == (-8.0, -8.0, 2.0, 2.0)
    assert cfg.sigma0_diag[0] == pytest.approx((2.0 / 3.0) ** 2)
    assert cfg.sigma0_diag[2] == 0.01


def test_config_rejects_unknown_policy():
    with pytest.raises(ValueError):
        ExperimentConfig(policy="magic")


def test_config_roundtrip_identical(tmp_path):
    cfg = ExperimentConfig(rho=0.1, trials=7, policy="adp", seed=123,
                           tau_scale=3e-6)
    path = tmp_path / "run.cfg"
    harness.write_config(cfg, path)
    again = harness.load_config(path)
    assert again == cfg
    harness.write_config(again, tmp_path / "run2.cfg")
    assert (tmp_path / "run.cfg").read_text() == (tmp_path / "run2.cfg").read_text()


def test_config_missing_required_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_side_count = 3\narea_side = 20\n")
    with pytest.raises(ConfigError, match="missing required key 'p0'"):
        harness.load_config(path)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_side_count = 3\nwat = 1\n")
    with pytest.raises(ConfigError, match="line|unknown"):
        harness.load_config(path)


def test_config_parse_diagnostics(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_side_count = 3\nnot a key value line\n")
    with pytest.raises(ConfigError, match=":2"):
        harness.load_config(path)
    path.write_text("steps = soon\n")
    with pytest.raises(ConfigError, match="steps"):
        harness.load_config(path)


def test_trial_streams_independent_and_reproducible():
    s1 = harness.trial_streams(42, 0)
    s2 = harness.trial_streams(42, 0)
    for name in s1:
        assert s1[name].random() == s2[name].random()
    s3 = harness.trial_streams(42, 1)
    draws0 = harness.trial_streams(42, 0)["truth"].random(8)
    draws1 = s3["truth"].random(8)
    assert not np.allclose(draws0, draws1)


def test_run_trial_bit_identical(tiny_cfg, tiny_bank):
    sh = harness._Shared(tiny_cfg, bank=tiny_bank)
    a = harness.run_trial(tiny_cfg, 5, sh)
    b = harness.run_trial(tiny_cfg, 5, sh)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.allocs, b.allocs)


def test_truth_and_measurements_shared_across_policies(tiny_cfg, tiny_bank):
    truths = {}
    for policy in ("gbfos", "greedy", "nearest"):
        cfg = replace(tiny_cfg, policy=policy)
        sh = harness._Shared(cfg, bank=tiny_bank)
        truths[policy] = harness.run_trial(cfg, 2, sh).truth
    assert np.array_equal(truths["gbfos"], truths["greedy"])
    assert np.array_equal(truths["gbfos"], truths["nearest"])


def test_allocations_feasible_every_step(tiny_cfg, tiny_bank):
    for policy in ("exhaustive", "adp", "gbfos", "greedy", "nearest"):
        cfg = replace(tiny_cfg, policy=policy)
        sh = harness._Shared(cfg, bank=tiny_bank)
        rec = harness.run_trial(cfg, 0, sh)
        assert np.all(rec.allocs.sum(axis=1) == cfg.budget)
        assert np.all(rec.allocs >= 0)


def test_nearest_policy_activates_single_sensor(tiny_cfg, tiny_bank):
    cfg = replace(tiny_cfg, policy="nearest")
    records, series, _ = harness.run_experiment(cfg, bank=tiny_bank)
    assert np.allclose(series.active_sensors, 1.0)


def test_nearest_policy_follows_deterministic_track(tiny_bank):
    # With no process noise and a pinpoint initial cloud the predicted
    # track is deterministic, so the chosen sensor is computable.
    cfg = ExperimentConfig(grid_side_count=2, steps=4, particles=100,
                           budget=2, trials=1, policy="nearest", rho=0.0,
                           sigma0_diag=(1e-18, 1e-18, 1e-18, 1e-18),
                           bank_samples=1500)
    sh = harness._Shared(cfg, bank=tiny_bank)
    rec = harness.run_trial(cfg, 0, sh)
    from bittrack.model import build_motion
    mm = build_motion(cfg.dt, 0.0)
    state = np.asarray(cfg.mu0)
    for t in range(cfg.steps):
        state = mm.F @ state
        d2 = np.sum((sh.grid.positions - state[:2]) ** 2, axis=1)
        assert rec.allocs[t, int(np.argmin(d2))] == cfg.budget


def test_alloc_runtime_excludes_table_build(tiny_cfg, tiny_bank, monkeypatch):
    build = harness.build_fim_table

    def slow_build(*args):
        time.sleep(0.02)
        return build(*args)

    monkeypatch.setattr(harness, "build_fim_table", slow_build)
    cfg = replace(tiny_cfg, policy="adp", steps=2)
    rec = harness.run_trial(cfg, 0, harness._Shared(cfg, bank=tiny_bank))
    assert np.all(rec.alloc_runtime < 0.02)


def test_table_policy_builds_no_convex_objects(tiny_cfg, tiny_bank,
                                               monkeypatch):
    def no_convex(*args, **kwargs):
        raise AssertionError("convex objects built for a table policy")

    for name in ("constraint_system", "default_settings", "feasible_start"):
        monkeypatch.setattr(convex, name, no_convex)
    cfg = replace(tiny_cfg, policy="adp", steps=2)
    rec = harness.run_trial(cfg, 0, harness._Shared(cfg, bank=tiny_bank))
    assert np.all(rec.allocs.sum(axis=1) == cfg.budget)


def test_aggregate_series_perfect_estimates(tiny_cfg, tiny_bank):
    sh = harness._Shared(tiny_cfg, bank=tiny_bank)
    rec = harness.run_trial(tiny_cfg, 0, sh)
    perfect = harness.TrialRecord(
        truth=rec.truth, estimates=rec.truth.copy(), allocs=rec.allocs,
        matrix_sums=rec.matrix_sums, candidates=rec.candidates,
        alloc_runtime=rec.alloc_runtime, newton_iters=rec.newton_iters,
        newton_decrement=rec.newton_decrement,
        newton_residual=rec.newton_residual, degenerate=False)
    series = harness.aggregate_series([perfect])
    assert np.allclose(series.mse, 0.0)
    # single trial: MSE equals that trial's squared position error
    series1 = harness.aggregate_series([rec])
    delta = rec.truth[:, :2] - rec.estimates[:, :2]
    assert np.allclose(series1.mse, np.sum(delta * delta, axis=1))


def test_outputs_roundtrip_and_determinism(tmp_path, tiny_cfg, tiny_bank):
    records, series, summary = harness.run_experiment(tiny_cfg, bank=tiny_bank)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    harness.write_outputs(records, series, out1, tiny_cfg, summary)
    records2, series2, summary2 = harness.run_experiment(tiny_cfg,
                                                         bank=tiny_bank)
    harness.write_outputs(records2, series2, out2, tiny_cfg, summary2)
    for name in ("mse.csv", "trials.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False)
    # re-read mse.csv and compare to the in-memory series
    rows = (out1 / "mse.csv").read_text().strip().splitlines()[1:]
    got = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
    assert np.allclose(got[:, 0], series.mse, rtol=1e-12, atol=1e-15)
    assert np.allclose(got[:, 1], series.active_sensors, rtol=1e-12)


def test_summary_fields(tiny_cfg, tiny_bank):
    _, _, summary = harness.run_experiment(tiny_cfg, bank=tiny_bank)
    assert summary["policy"] == "gbfos"
    assert summary["mean_bits"] == tiny_cfg.budget  # strict-budget policy
    assert summary["std_bits"] == 0.0
    assert summary["mean_runtime"] > 0.0


def test_convex_round_decode_respects_budget(tiny_cfg, tiny_bank):
    cfg = replace(tiny_cfg, policy="convex", convex_decode="round", trials=2)
    records, _, _ = harness.run_experiment(cfg, bank=tiny_bank)
    for rec in records:
        assert np.all(rec.allocs.sum(axis=1) <= cfg.budget)
    with pytest.raises(ValueError):
        replace(tiny_cfg, convex_decode="coin-flip")


def test_convex_policy_runs_and_reports_diagnostics(tiny_cfg, tiny_bank,
                                                    tmp_path):
    cfg = replace(tiny_cfg, policy="convex", trials=2)
    records, series, summary = harness.run_experiment(cfg, bank=tiny_bank)
    assert np.isfinite(summary["mean_newton_iters"])
    for rec in records:
        assert np.all(rec.newton_iters >= 1)
        assert np.all(rec.newton_decrement <= cfg.epsilon)
        assert np.all(rec.newton_residual <= 1e-8)
    harness.write_outputs(records, series, tmp_path / "conv", cfg, summary)
    assert (tmp_path / "conv" / "newton.csv").exists()


# --- CLI ---------------------------------------------------------------


def write_tiny_config(path, **overrides):
    params = dict(grid_side_count=2, steps=3, particles=100, budget=2,
                  trials=2, policy="greedy", bank_samples=1500)
    cfg = ExperimentConfig(**{**params, **overrides})
    harness.write_config(cfg, path)
    return cfg


def test_cli_simulate_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_tiny_config(cfg_path)
    out_dir = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(cfg_path),
                   "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "mse.csv").exists()
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "summary.csv").exists()

    rc = cli.main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(out_dir)])
    assert rc == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(out_dir)])
    assert rc == 2
    capsys.readouterr()


def test_config_rejects_convex_past_interior_margin():
    # N(R+1) = 3600 * 6 = 21,600 unknowns: the closed-form start would sit
    # closer than INTERIOR_MARGIN to the box.  Checked at load, never run.
    with pytest.raises(ValueError, match="N\\(R\\+1\\)"):
        ExperimentConfig(grid_side_count=60, budget=5, policy="convex")
    ExperimentConfig(grid_side_count=60, budget=4, policy="convex")  # 18,000
    ExperimentConfig(grid_side_count=60, budget=5, policy="adp")


def test_config_rejects_kernel_grid_past_limit():
    # ceil(128 sqrt(p0)/sigma) spline segments: 1.28e8, 4.0e9 and an
    # overflow (inf) here, against 4,048 at the defaults.  Checked at
    # load, never run.
    for bad in ({"p0": 1e12}, {"sigma": 1e-6}, {"sigma": 1e-320}):
        with pytest.raises(ValueError, match="kernel table"):
            ExperimentConfig(policy="adp", **bad)
        ExperimentConfig(policy="nearest", **bad)  # builds no table
    limit = quantizer.MAX_KERNEL_SEGMENTS
    assert quantizer.kernel_segments(1.0, 8192.0) == limit
    ExperimentConfig(policy="exhaustive", p0=8192.0**2)
    with pytest.raises(ValueError, match="kernel table"):
        ExperimentConfig(policy="exhaustive", p0=8192.0**2, sigma=0.999)


@pytest.mark.parametrize("bad", [
    {"particles": "3"},
    {"p0": "nan"},
    {"rho": "inf"},
    {"mu0": "-8,-8,2"},
    {"sigma0_diag": "0.4,0.4,0.01"},
    {"mu0": "-8,nan,2,2"},
    {"sigma0_diag": "0.4,-0.4,0.01,0.01"},
    {"grid_side_count": "1", "policy": "convex"},
    {"grid_side_count": "60", "budget": "5", "policy": "convex"},
    {"p0": "1e12"},
    {"sigma": "1e-6"},
])
def test_cli_simulate_rejects_bad_config_before_design(tmp_path, capsys,
                                                      monkeypatch, bad):
    def no_design(*args, **kwargs):
        raise AssertionError("bank designed for a bad config")

    monkeypatch.setattr(harness, "build_bank", no_design)
    cfg_path = tmp_path / "run.cfg"
    write_tiny_config(cfg_path)
    lines = [line for line in cfg_path.read_text().splitlines()
             if line.split(" = ")[0] not in bad]
    lines += [f"{key} = {raw}" for key, raw in bad.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, argv, bank_text", [
    # 10 allocations to enumerate; the policy comes from the command line.
    ({"exhaustive_cap": 5}, ["--policy", "exhaustive"], None),
    ({"budget": 6, "bank_file": BANK_FILE}, [], None),  # rates 0..5 only
    ({}, [], "missing"),
    ({}, [], '{"rates": []}'),       # readable JSON without the bank keys
    ({}, [], "[]"),                  # JSON, but not an object
    ({}, [], "not json"),
], ids=["exhaustive-cap", "budget-above-bank", "missing-bank",
        "bank-lacks-keys", "bank-not-object", "bank-not-json"])
def test_cli_simulate_bank_and_cap_errors_exit_2(tmp_path, capsys, monkeypatch,
                                                 overrides, argv, bank_text):
    def no_design(*args, **kwargs):
        raise AssertionError("bank designed for a bad config")

    monkeypatch.setattr(quantizer, "build_bank", no_design)
    monkeypatch.setattr(harness, "build_bank", no_design)
    if bank_text is not None:
        path = tmp_path / "bank.json"
        if bank_text != "missing":
            path.write_text(bank_text)
        overrides = dict(overrides, bank_file=str(path))
    cfg_path = tmp_path / "run.cfg"
    write_tiny_config(cfg_path, **overrides)
    rc = cli.main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")] + argv)
    assert rc == 2
    assert not (tmp_path / "out").exists()
    assert "config error" in capsys.readouterr().err


def test_cli_simulate_policy_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_tiny_config(cfg_path)
    out_dir = tmp_path / "out_nearest"
    rc = cli.main(["simulate", "--config", str(cfg_path), "--policy",
                   "nearest", "--trials", "1", "--out", str(out_dir)])
    assert rc == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[1].startswith("nearest,")
    capsys.readouterr()


def test_cli_thresholds_builds_bank(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    rc = cli.main(["thresholds", "--rates", "1..2", "--out", str(bank_path),
                   "--samples", "1500"])
    assert rc == 0
    from bittrack.quantizer import load_bank
    bank = load_bank(bank_path)
    assert bank.r_max == 2
    capsys.readouterr()


def test_cli_thresholds_bad_rates(tmp_path, capsys):
    rc = cli.main(["thresholds", "--rates", "2..1",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2
    capsys.readouterr()


def test_cli_bench_alloc(capsys):
    rc = cli.main(["bench-alloc", "--n", "3", "--r", "2",
                   "--instances", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("instance,policy,logdet")
    assert len(out) == 1 + 2 * 5  # header + instances x policies
    for line in out[1:]:
        policy = line.split(",")[1]
        gap = float(line.split(",")[3])
        if policy != "convex_rounded":
            assert gap >= -1e-9


@pytest.mark.parametrize("n, r", [("0", "5"), ("3", "0"), ("36", "8")])
def test_cli_bench_alloc_bad_sizes_exit_2(capsys, n, r):
    # (36, 8) has 145,008,513 allocations, above the enumeration cap.
    rc = cli.main(["bench-alloc", "--n", n, "--r", r, "--instances", "1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_simulate_uses_bank_file(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    rc = cli.main(["thresholds", "--rates", "1..2", "--out", str(bank_path),
                   "--samples", "1500"])
    assert rc == 0
    cfg_path = tmp_path / "run.cfg"
    write_tiny_config(cfg_path, bank_file=str(bank_path))
    rc = cli.main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()
