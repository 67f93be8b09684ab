"""Acceptance gate: one test per criterion, each printing a PASS line,
and a check of every desk trial's outputs against committed digests.

The desk-scale Monte Carlo runs (100 trials, N=9, R=5, 1000 particles)
are executed once per (policy, process-noise) pair and shared by the
criteria that consume them.
"""

import filecmp
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from bittrack import allocators as al, convex as cx, fisher, harness, model
from bittrack import quantizer as qz, tracker
from bittrack.cli import random_fim_table

from conftest import fd_amplitude_fisher

DESK = harness.ExperimentConfig()  # N=9, R=5, N_s=1000, 100 trials, seed 0


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS ({text})")


@pytest.fixture(scope="module")
def desk_runs(bank5):
    """Time-averaged MSE and summaries for all policies at both process
    noise levels, with shared noise streams (same master seed)."""
    out = {}
    for rho in (2.5e-3, 0.1):
        for policy in harness.POLICIES:
            cfg = replace(DESK, policy=policy, rho=rho)
            records, series, summary = harness.run_experiment(cfg, bank=bank5)
            out[(policy, rho)] = {
                "tavg_mse": float(np.mean(series.mse)),
                "records": records,
                "series": series,
                "summary": summary,
            }
    return out


def test_criterion_01_suboptimality_witness():
    _, _, _, dets = al.suboptimality_witness()
    assert dets["det_sum_first"] == pytest.approx(3.99, abs=1e-12)
    assert dets["det_sum_second"] == pytest.approx(4.00, abs=1e-12)
    assert dets["det_j_first"] == pytest.approx(1.0, abs=1e-12)
    assert dets["det_j_second"] == pytest.approx(0.99, abs=1e-12)
    assert dets["det_j_first"] > dets["det_j_second"]
    assert dets["det_sum_first"] < dets["det_sum_second"]
    report(1, "witness determinants 3.99 / 4.00 / 1 / 0.99 exact")


def test_criterion_02_counter_exactness():
    rng = np.random.default_rng(0)
    for n in range(2, 21):
        table = random_fim_table(n, 8, rng)
        for r in range(1, 9):
            got = al.adp(table, n, r).matrix_sums
            assert got == 2 * r + (n - 2) * r * (r + 1) // 2, (n, r)
    table63 = random_fim_table(6, 3, rng)
    assert al.adp(table63, 6, 3).matrix_sums == 30
    for n in (2, 5, 9, 20):
        for r in (1, 5, 8):
            table = random_fim_table(n, 8, rng)
            assert al.gbfos(table, n, r).matrix_sums <= n + 2 * n * (n - 1) * r
            assert al.greedy(table, n, r).matrix_sums <= n * (2 * r - 1)
    report(2, "A-DP counter exact on [2,20]x[1,8]; bounds hold; N=6,R=3 -> 30")


def test_criterion_03_oracle_dominance_and_gap_ordering():
    rng = np.random.default_rng(1)
    gaps = {"adp": [], "gbfos": [], "greedy": []}
    for _ in range(200):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, 5))
        table = random_fim_table(n, r, rng)
        ex = al.exhaustive(table, n, r)
        for name, fn in (("adp", al.adp), ("gbfos", al.gbfos),
                         ("greedy", al.greedy)):
            out = fn(table, n, r)
            assert out.logdet_value <= ex.logdet_value + 1e-9
            gaps[name].append(ex.logdet_value - out.logdet_value)
    assert np.mean(gaps["adp"]) <= np.mean(gaps["greedy"])
    assert np.mean(gaps["gbfos"]) <= np.mean(gaps["greedy"])
    report(3, "dominance on 200 instances; mean gaps adp/gbfos <= greedy "
              f"({np.mean(gaps['adp']):.2e}/{np.mean(gaps['gbfos']):.2e}"
              f" vs {np.mean(gaps['greedy']):.2e})")


def test_criterion_04_kappa_identities(bank5):
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.uniform(0.5, 20.0)
        sigma = rng.uniform(0.3, 3.0)
        eta = a + rng.uniform(-4.0, 4.0) * sigma
        thr = qz.ThresholdVector(1, np.array([eta]))
        x = (eta - a) / sigma
        phi = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        p1 = qz.gaussian_upper_tail(x)
        want = phi**2 / (sigma**2 * p1 * (1 - p1))
        assert 4 * qz.kappa(1, a, sigma, thr) == pytest.approx(want, rel=1e-10)
    for m in (2, 3):
        for _ in range(30):
            # stay within the quantizer's informative amplitude span;
            # far above the top threshold kappa sits below the central-
            # difference oracle's cancellation noise
            a = rng.uniform(1.0, 8.0)
            got = 4 * qz.kappa(m, a, 1.0, bank5[m])
            want = fd_amplitude_fisher(m, a, 1.0, bank5[m])
            assert got == pytest.approx(want, rel=1e-6)
    report(4, "m=1 closed form at 1e-10; m in {2,3} FD oracle at 1e-6")


def test_criterion_05_fim_entry_cross_check(grid9, bank5):
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 50:
        i = int(rng.integers(0, 9))
        m = int(rng.integers(1, 6))
        pos = rng.uniform(-10.0, 10.0, size=2)
        if np.hypot(*(grid9.positions[i] - pos)) < 0.5:
            continue
        got = fisher.sensor_fim_conditional(grid9, i, np.r_[pos, 0, 0],
                                            m, bank5)
        if np.trace(got) < 1e-6:
            # keep geometries the finite-difference oracle can resolve
            continue

        def probs(x, y):
            a = model.amplitude(grid9, i, (x, y))
            return qz.level_probabilities(a, grid9.sigma, bank5[m])

        h = 1e-5
        p = probs(*pos)
        dpx = (probs(pos[0] + h, pos[1]) - probs(pos[0] - h, pos[1])) / (2 * h)
        dpy = (probs(pos[0], pos[1] + h) - probs(pos[0], pos[1] - h)) / (2 * h)
        mask = p > 1e-12
        o11 = np.sum(dpx[mask] ** 2 / p[mask])
        o22 = np.sum(dpy[mask] ** 2 / p[mask])
        o12 = np.sum(dpx[mask] * dpy[mask] / p[mask])
        assert got[0, 0] == pytest.approx(o11, rel=1e-5)
        assert got[1, 1] == pytest.approx(o22, rel=1e-5)
        assert got[0, 1] == pytest.approx(o12, rel=1e-5)

        # independent appendix-form assembly from the scalar kernel
        dx, dy = grid9.positions[i] - pos
        d2 = dx * dx + dy * dy
        n_exp = grid9.n_exp
        denom = 1.0 + grid9.alpha * d2 ** (n_exp / 2)
        a2 = grid9.p0 / denom
        k = qz.kappa(m, np.sqrt(a2), grid9.sigma, bank5[m])
        coef = n_exp**2 * k * a2 * grid9.alpha**2 * d2 ** (n_exp - 2) / denom**2
        assert got[0, 0] == pytest.approx(coef * dx * dx, rel=1e-12)
        assert got[1, 1] == pytest.approx(coef * dy * dy, rel=1e-12)
        assert got[0, 1] == pytest.approx(coef * dx * dy, rel=1e-12)
        checked += 1
    report(5, "50 random geometries match FD of the likelihood at 1e-5")


def test_criterion_06_convex_solver_paper_configuration(grid9, bank5):
    # Scenario: initial cloud propagated one step, as the tracker sees it.
    streams = harness.trial_streams(DESK.seed, 0)
    cloud = tracker.init_particles(np.asarray(DESK.mu0),
                                   np.diag(DESK.sigma0_diag),
                                   DESK.particles, streams["init"])
    motion = model.build_motion(DESK.dt, DESK.rho)
    predicted = tracker.predict(cloud, motion, streams["predict"])
    table = fisher.build_fim_table(grid9, predicted, DESK.budget, bank5)

    sh = harness._Shared(DESK, bank=bank5)
    q_star, diag = cx.newton_solve(table, sh.constraints, sh.settings,
                                   sh.warm_start(table))
    assert diag.iterations <= 20
    assert diag.decrement_half_sq <= sh.settings.epsilon
    assert diag.max_constraint_residual <= 1e-8

    tau = sh.settings.tau
    flat = q_star.flat()
    g = cx.barrier_gradient(flat, table, tau)
    h = 1e-6
    for j in range(0, flat.size, 5):
        e = np.zeros_like(flat)
        e[j] = h
        fd = (cx.barrier_value(flat + e, table, tau)
              - cx.barrier_value(flat - e, table, tau)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
    hess = cx.barrier_hessian(flat, table, tau)
    for j in range(0, flat.size, 9):
        e = np.zeros_like(flat)
        e[j] = h
        fd = (cx.barrier_gradient(flat + e, table, tau)
              - cx.barrier_gradient(flat - e, table, tau)) / (2 * h)
        assert np.allclose(hess[:, j], fd, rtol=1e-4, atol=1e-4)
    report(6, f"Newton converged in {diag.iterations} iterations; "
              f"residual {diag.max_constraint_residual:.1e}; FD checks hold")


def test_criterion_07_transmitted_bits_statistics(desk_runs):
    summary = desk_runs[("convex", 2.5e-3)]["summary"]
    assert 4.8 <= summary["mean_bits"] <= 5.2
    assert 1.0 <= summary["std_bits"] <= 2.5
    report(7, f"convex mean bits {summary['mean_bits']:.4f} in [4.8, 5.2]; "
              f"std {summary['std_bits']:.4f} in [1.0, 2.5]")


def test_criterion_08_mse_ordering(desk_runs):
    lines = []
    for rho in (2.5e-3, 0.1):
        ex = desk_runs[("exhaustive", rho)]["tavg_mse"]
        excess = {p: desk_runs[(p, rho)]["tavg_mse"] / ex - 1.0
                  for p in harness.POLICIES}
        near_optimal = max(excess["convex"], excess["adp"], excess["gbfos"])
        assert near_optimal <= 0.25, (rho, excess)
        assert excess["greedy"] > near_optimal, (rho, excess)
        assert excess["nearest"] > near_optimal, (rho, excess)
        lines.append(f"rho={rho}: near-opt max {near_optimal:+.1%}, "
                     f"greedy {excess['greedy']:+.1%}, "
                     f"nearest {excess['nearest']:+.1%}")
    report(8, "; ".join(lines))


def test_criterion_09_enumeration_count(desk_runs):
    for rho in (2.5e-3, 0.1):
        for rec in desk_runs[("exhaustive", rho)]["records"]:
            assert np.all(rec.candidates == 1287)
    assert al.enumerate_count(9, 5) == 1287
    report(9, "exhaustive examines 1287 candidates per step at N=9, R=5")


def test_criterion_10_deterministic_outputs(tmp_path, desk_runs, bank5):
    cfg = replace(DESK, policy="convex")
    first = desk_runs[("convex", 2.5e-3)]
    records, series, summary = harness.run_experiment(cfg, bank=bank5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    harness.write_outputs(first["records"], first["series"], dir_a, cfg,
                          first["summary"])
    harness.write_outputs(records, series, dir_b, cfg, summary)
    for name in ("mse.csv", "trials.csv", "newton.csv"):
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name
    # summary.csv is identical except the wall-clock column
    rows = []
    for d in (dir_a, dir_b):
        head, data = (d / "summary.csv").read_text().splitlines()
        cols = dict(zip(head.split(","), data.split(",")))
        cols.pop("mean_runtime")
        rows.append(cols)
    assert rows[0] == rows[1]
    report(10, "re-run CSVs byte-identical (timing column exempt)")


# Per-trial record fields hashed together.  The Newton roundoff figures
# sit in their own group, so a solver change that keeps every iterate's
# path can show that only their low digits moved.
DIGEST_GROUPS = {
    "truth": ("truth",),
    "estimates": ("estimates",),
    "allocs": ("allocs",),
    "counters": ("matrix_sums", "candidates", "newton_iters", "degenerate"),
    "newton": ("newton_decrement", "newton_residual"),
}
DIGEST_FILE = os.path.join(os.path.dirname(__file__), "desk_digests.json")


def record_digest(rec, names):
    h = hashlib.sha256()
    for name in names:
        arr = np.ascontiguousarray(getattr(rec, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def desk_digests(desk_runs):
    """{"<policy> rho=<rho>": {group: [sha256 per trial]}} of the desk runs."""
    return {f"{policy} rho={rho:g}": {
                group: [record_digest(rec, names) for rec in run["records"]]
                for group, names in DIGEST_GROUPS.items()}
            for (policy, rho), run in desk_runs.items()}


def test_desk_output_digests(desk_runs, request):
    """Every desk trial's outputs match the committed digests.  Regenerate
    with `PYTHONPATH=src python -m pytest tests/test_acceptance.py -k
    digests --update-digests` and say in CHANGES.md which groups moved."""
    got = desk_digests(desk_runs)
    if request.config.getoption("--update-digests"):
        with open(DIGEST_FILE, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(DIGEST_FILE) as fh:
        want = json.load(fh)
    moved = [f"{config} trial {trial} {group}"
             for config, groups in want.items() if config in got
             for group, digests in groups.items()
             for trial, pair in enumerate(zip(digests, got[config][group]))
             if pair[0] != pair[1]]
    assert not moved, f"{len(moved)} digests moved, first: {moved[:5]}"
    assert got == want  # the same configs, groups and trial counts
