import os
import subprocess
import sys

import numpy as np
import pytest

from bittrack import convex as cx
from bittrack.cli import random_fim_table
from bittrack.fisher import FimTable, logdet


def zero_table(n, r):
    return FimTable(atoms=np.zeros((n, r + 1, 4, 4)), prior=np.eye(4))


def test_constraint_system_small():
    sys1 = cx.constraint_system(1, 1)
    assert sys1.A.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    assert sys1.b.tolist() == [1.0, 1.0]


def test_constraint_system_row_structure():
    for n, r in [(2, 1), (4, 3), (9, 5)]:
        sysc = cx.constraint_system(n, r)
        uniform = np.full((n, r + 1), 1.0 / (r + 1))
        res = sysc.A @ uniform.T.ravel()
        assert np.allclose(res[:n], 1.0)
        assert np.linalg.matrix_rank(sysc.A) == n + 1


def test_feasible_start_degenerate_single_sensor():
    q = cx.feasible_start(1, 2)
    row = q.q[0]
    assert row[0] == pytest.approx(cx.INTERIOR_MARGIN)
    assert row[1] == pytest.approx(cx.INTERIOR_MARGIN)
    assert row[2] == pytest.approx(1.0 - 2 * cx.INTERIOR_MARGIN)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 2), (9, 5), (25, 5), (36, 8),
                                 (100, 5)])
def test_feasible_start_interior_and_feasible(n, r):
    sysc = cx.constraint_system(n, r)
    q = cx.feasible_start(n, r)
    assert np.max(np.abs(sysc.A @ q.flat() - sysc.b)) <= 1e-8
    assert q.q.min() >= cx.INTERIOR_MARGIN
    assert q.q.max() <= 1.0 - cx.INTERIOR_MARGIN
    assert q.expected_bits() == pytest.approx(r, abs=1e-8)
    # The closed-form mixture: one shared row whose smallest entry is
    # 2/(N(R+1)).
    assert q.q.min() == pytest.approx(2.0 / (n * (r + 1)), rel=1e-12)
    assert np.all(q.q == q.q[0])


def test_import_does_not_load_scipy_optimize():
    code = "import bittrack.cli, sys; assert 'scipy.optimize' not in sys.modules"
    src = os.path.dirname(os.path.dirname(cx.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_barrier_value_closed_form_at_half():
    n, r = 3, 2
    table = zero_table(n, r)
    q = np.full((n, r + 1), 0.5)
    # logdet(I) = 0; each entry contributes 2 log 2 through the barrier
    assert cx.barrier_value(q, table, 1.0) == pytest.approx(
        2 * n * (r + 1) * np.log(2.0), rel=1e-12)
    # tau = 0 leaves only the negative log-determinant
    assert cx.barrier_value(q, table, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert cx.barrier_value(np.full((n, r + 1), 1.5), table, 1.0) == np.inf


def test_barrier_value_convexity_probes():
    rng = np.random.default_rng(0)
    table = random_fim_table(3, 2, rng)
    tau = 0.37
    for _ in range(25):
        q1 = rng.uniform(0.05, 0.95, size=(3, 3))
        q2 = rng.uniform(0.05, 0.95, size=(3, 3))
        mid = 0.5 * (q1 + q2)
        assert cx.barrier_value(mid, table, tau) <= \
            0.5 * cx.barrier_value(q1, table, tau) \
            + 0.5 * cx.barrier_value(q2, table, tau) + 1e-10


def test_gradient_zero_atoms_symmetric_point():
    table = zero_table(2, 2)
    q = np.full((2, 3), 0.5)
    assert np.allclose(cx.barrier_gradient(q, table, 1.0), 0.0, atol=1e-14)
    # an entry with a zero atom sees only the box-barrier force
    q2 = q.copy()
    q2[1, 0] = 0.25
    g = cx.barrier_gradient(q2, table, 0.8)
    assert g[1] == pytest.approx(-0.8 / 0.25 + 0.8 / 0.75, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(8):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 4))
        table = random_fim_table(n, r, rng)
        tau = float(rng.uniform(0.01, 1.0))
        flat = rng.uniform(0.2, 0.8, size=n * (r + 1))
        g = cx.barrier_gradient(flat, table, tau)
        for j in range(flat.size):
            e = np.zeros_like(flat)
            e[j] = h
            fd = (cx.barrier_value(flat + e, table, tau)
                  - cx.barrier_value(flat - e, table, tau)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_hessian_zero_atoms_diagonal():
    table = zero_table(2, 1)
    q = np.full((2, 2), 0.5)
    h = cx.barrier_hessian(q, table, 1.0)
    assert np.allclose(h, 8.0 * np.eye(4), atol=1e-12)


def test_hessian_symmetric_and_matches_fd():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(5):
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        table = random_fim_table(n, r, rng)
        tau = float(rng.uniform(0.05, 0.5))
        flat = rng.uniform(0.25, 0.75, size=n * (r + 1))
        hess = cx.barrier_hessian(flat, table, tau)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12 * max(1.0, np.max(np.abs(hess)))
        for j in range(flat.size):
            e = np.zeros_like(flat)
            e[j] = h
            fd = (cx.barrier_gradient(flat + e, table, tau)
                  - cx.barrier_gradient(flat - e, table, tau)) / (2 * h)
            assert np.allclose(hess[:, j], fd, rtol=1e-4, atol=1e-5)


def dense_gradient(q, table, tau):
    """Oracle: -tr(W^-1 atom[i, m]) - tau/q + tau/(1-q) on the 4x4 W."""
    qm = cx._as_q_matrix(q, table.n_sensors, table.r_max)
    w_inv = np.linalg.inv(cx._information_matrix(qm, table))
    grad = (-np.einsum("ab,imab->im", w_inv, table.atoms)
            - tau / qm + tau / (1.0 - qm))
    return grad.T.ravel()


def dense_value(q, table, tau):
    """Oracle: the barrier objective with log det of the 4x4 W."""
    qm = cx._as_q_matrix(q, table.n_sensors, table.r_max)
    if np.any(qm <= 0.0) or np.any(qm >= 1.0):
        return np.inf
    ld = logdet(cx._information_matrix(qm, table))
    if not np.isfinite(ld):
        return np.inf
    return -(ld + tau * float(np.sum(np.log(qm) + np.log1p(-qm))))


def dense_step(q, table, vectors, tau, sysc):
    grad = dense_gradient(q, table, tau)
    step, _dual = cx.solve_kkt(cx.barrier_hessian(q, table, tau), sysc, grad)
    return grad, step


def desk_tables(grid9, bank5):
    """FIM tables the desk tracker sees: the initial cloud propagated one
    step at both process noise levels, from the start and from a cloud
    off-centre."""
    from bittrack import fisher, model, tracker
    rng = np.random.default_rng(20)
    cov0 = np.diag([(2 / 3) ** 2, (2 / 3) ** 2, 0.01, 0.01])
    tables = []
    for mu in ((-8.0, -8.0, 2.0, 2.0), (1.0, -3.0, -1.0, 2.0)):
        for rho in (2.5e-3, 0.1):
            cloud = tracker.init_particles(np.array(mu), cov0, 1000, rng)
            motion = model.build_motion(0.5, rho)
            predicted = tracker.predict(cloud, motion, rng)
            tables.append(fisher.build_fim_table(grid9, predicted, 5, bank5))
    return tables


def oracle_instances(grid9, bank5):
    """(table, flat interior q) pairs: random tables up to N=36, R=8 and
    desk tables, each at random interior points and the interior start."""
    rng = np.random.default_rng(21)
    tables = [random_fim_table(n, r, rng)
              for n, r in [(2, 1), (2, 8), (3, 2), (4, 3), (9, 5), (16, 4),
                           (25, 5), (36, 8)] for _ in range(2)]
    tables += desk_tables(grid9, bank5)
    for table in tables:
        n, r = table.n_sensors, table.r_max
        yield table, cx.feasible_start(n, r).flat()
        for lo in (0.2, 0.01):
            yield table, rng.uniform(lo, 1.0 - lo, size=n * (r + 1))


def test_structured_step_matches_dense_kkt(grid9, bank5):
    for table, q in oracle_instances(grid9, bank5):
        n, r = table.n_sensors, table.r_max
        sysc = cx.constraint_system(n, r)
        tau = cx.default_settings(n, r).tau
        vectors = table.blocks.transpose(1, 0, 2).reshape(-1, 3)
        grad, step = cx._newton_step(q, table, vectors, tau, sysc)
        want_grad, want_step = dense_step(q, table, vectors, tau, sysc)
        assert np.linalg.norm(grad - want_grad) <= \
            1e-10 * np.linalg.norm(want_grad)
        assert np.linalg.norm(cx.barrier_gradient(q, table, tau) - want_grad) \
            <= 1e-10 * np.linalg.norm(want_grad)
        assert np.linalg.norm(step - want_step) <= \
            1e-10 * np.linalg.norm(want_step), (n, r)


def test_newton_solve_matches_dense_path(grid9, bank5, monkeypatch):
    from bittrack import harness
    rng = np.random.default_rng(22)
    cases = [(random_fim_table(n, r, rng), None)
             for n, r in [(2, 3), (4, 2), (9, 5), (16, 6), (25, 4), (36, 8)]]
    desk = harness._Shared(harness.ExperimentConfig(), bank=bank5)
    cases += [(t, desk.warm_start(t)) for t in desk_tables(grid9, bank5)]
    for table, q0 in cases:
        n, r = table.n_sensors, table.r_max
        args = (table, cx.constraint_system(n, r), cx.default_settings(n, r),
                q0 or cx.feasible_start(n, r))
        q_new, diag_new = cx.newton_solve(*args)
        with monkeypatch.context() as mp:
            mp.setattr(cx, "_newton_step", dense_step)
            mp.setattr(cx, "barrier_value", dense_value)
            q_old, diag_old = cx.newton_solve(*args)
        assert diag_new.iterations == diag_old.iterations
        assert diag_new.backtracks == diag_old.backtracks
        assert np.max(np.abs(q_new.q - q_old.q)) <= 1e-9


def test_backtracks_count_rejected_line_search_trials(monkeypatch):
    # perfbench derives backtracks as barrier_value calls minus
    # iterations: one call at the start, one per line-search trial.
    calls = []
    value = cx.barrier_value

    def counting(*args):
        calls.append(1)
        return value(*args)

    monkeypatch.setattr(cx, "barrier_value", counting)
    rng = np.random.default_rng(23)
    total = 0
    for n, r in [(2, 1), (3, 2), (9, 5), (16, 3), (25, 8)]:
        table = random_fim_table(n, r, rng)
        calls.clear()
        _, diag = cx.newton_solve(table, cx.constraint_system(n, r),
                                  cx.default_settings(n, r),
                                  cx.feasible_start(n, r))
        assert len(calls) - diag.iterations == diag.backtracks
        total += diag.backtracks
    assert total > 0


def test_solve_kkt_zero_gradient_and_residuals():
    rng = np.random.default_rng(3)
    sysc = cx.constraint_system(3, 2)
    g = rng.normal(size=(9, 9))
    hess = g @ g.T + 9 * np.eye(9)
    step, dual = cx.solve_kkt(hess, sysc, np.zeros(9))
    assert np.allclose(step, 0.0, atol=1e-12)
    assert np.allclose(dual, 0.0, atol=1e-12)
    for _ in range(10):
        grad = rng.normal(size=9)
        step, dual = cx.solve_kkt(hess, sysc, grad)
        tol = 1e-8 * (1 + np.linalg.norm(grad))
        assert np.linalg.norm(hess @ step + sysc.A.T @ dual + grad) <= tol
        assert np.linalg.norm(sysc.A @ step) <= tol


def test_newton_restart_from_optimum_stops_immediately():
    rng = np.random.default_rng(4)
    table = random_fim_table(3, 2, rng)
    sysc = cx.constraint_system(3, 2)
    settings = cx.default_settings(3, 2)
    q0 = cx.feasible_start(3, 2)
    q_star, diag1 = cx.newton_solve(table, sysc, settings, q0)
    _, diag2 = cx.newton_solve(table, sysc, settings, q_star)
    assert diag2.iterations <= 2


def test_newton_monotone_descent_and_feasibility():
    rng = np.random.default_rng(5)
    table = random_fim_table(4, 3, rng)
    sysc = cx.constraint_system(4, 3)
    q_star, diag = cx.newton_solve(table, sysc, cx.default_settings(4, 3),
                                   cx.feasible_start(4, 3))
    assert diag.decrement_half_sq <= cx.default_settings(4, 3).epsilon
    assert diag.max_constraint_residual <= 1e-8
    phis = np.array(diag.phi_values)
    assert np.all(np.diff(phis) < 0.0)
    q_star.validate(row_tol=1e-6, budget=3, budget_tol=1e-6)
    assert np.all(q_star.q > 0.0) and np.all(q_star.q < 1.0)


def test_newton_rejects_exterior_start():
    rng = np.random.default_rng(6)
    table = random_fim_table(2, 1, rng)
    sysc = cx.constraint_system(2, 1)
    bad = cx.TransmissionProbabilities(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cx.newton_solve(table, sysc, cx.default_settings(2, 1), bad)


def test_newton_relaxation_upper_bounds_integer_optimum():
    # The relaxed optimum (tiny tau) cannot be worse than the best
    # integer allocation of the same budget.
    from bittrack import allocators as al
    rng = np.random.default_rng(7)
    for _ in range(5):
        table = random_fim_table(3, 2, rng)
        sysc = cx.constraint_system(3, 2)
        settings = cx.BarrierSettings(tau=1e-7, epsilon=1e-9, max_iters=400)
        q_star, _ = cx.newton_solve(table, sysc, settings,
                                    cx.feasible_start(3, 2))
        w = table.prior + np.tensordot(q_star.q, table.atoms,
                                       axes=([0, 1], [0, 1]))
        assert logdet(w) >= al.exhaustive(table, 3, 2).logdet_value - 1e-4


def test_concentrated_scenario_transmission_pattern(grid9, bank5):
    # Target starting near the corner sensor, cloud propagated one step:
    # that sensor must carry the largest probability mass at the top
    # rate, and every other sensor's most likely action is silence.
    from bittrack import fisher, model, tracker
    rng = np.random.default_rng(7)
    cloud = tracker.init_particles(
        np.array([-8.0, -8.0, 2.0, 2.0]),
        np.diag([(2 / 3) ** 2, (2 / 3) ** 2, 0.01, 0.01]), 1000, rng)
    predicted = tracker.predict(cloud, model.build_motion(0.5, 2.5e-3), rng)
    table = fisher.build_fim_table(grid9, predicted, 5, bank5)
    sysc = cx.constraint_system(9, 5)
    q_star, _ = cx.newton_solve(table, sysc, cx.default_settings(9, 5),
                                cx.feasible_start(9, 5))
    top_rate_col = q_star.q[:, 5]
    assert int(np.argmax(top_rate_col)) == 0  # corner sensor
    for i in range(1, 9):
        assert int(np.argmax(q_star.q[i])) == 0  # silence most likely


def test_sample_transmission_degenerate_rows():
    q = cx.TransmissionProbabilities(np.array([
        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    rng = np.random.default_rng(8)
    for _ in range(5):
        assert cx.sample_transmission(q, rng).tolist() == [1, 2, 0]


def test_sample_transmission_mean_matches_budget():
    rng_build = np.random.default_rng(9)
    rows = rng_build.dirichlet(np.ones(4), size=6)
    q = cx.TransmissionProbabilities(rows)
    expected = q.expected_bits()
    rng = np.random.default_rng(10)
    draws = np.array([cx.sample_transmission(q, rng).sum()
                      for _ in range(100_000)])
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - expected) <= 3 * se


def test_sample_transmission_rejects_unnormalized():
    q = cx.TransmissionProbabilities(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        cx.sample_transmission(q, np.random.default_rng(0))


def test_sampling_reproducible_under_seed():
    rng_build = np.random.default_rng(11)
    q = cx.TransmissionProbabilities(rng_build.dirichlet(np.ones(5), size=4))
    a = [cx.sample_transmission(q, np.random.default_rng(3)).tolist()
         for _ in range(3)]
    b = [cx.sample_transmission(q, np.random.default_rng(3)).tolist()
         for _ in range(3)]
    assert a == b


def test_round_transmission_respects_budget():
    rng_build = np.random.default_rng(12)
    for _ in range(10):
        q = cx.TransmissionProbabilities(rng_build.dirichlet(np.ones(5), size=4))
        rates = cx.round_transmission(q, 4)
        assert rates.sum() <= 4
        assert np.all(rates >= 0)
