"""Relaxed bit allocation: maximize log det of the total FIM over
per-sensor rate probabilities instead of integer rates.

Each sensor i carries a row q[i, :] of probabilities over the rates
0..R; the equality constraints force each row to sum to 1 and the
expected total rate to equal the budget R.  The [0, 1] box is folded
into the objective as a log barrier, and the resulting equality-
constrained convex problem is solved by a feasible-start Newton method
with KKT block elimination.  Decoding is probabilistic: each sensor
samples its rate from its row, so the budget holds in expectation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fisher import FimTable, logdet

# Smallest distance to the [0, 1] box boundary required of a barrier
# starting point.
INTERIOR_MARGIN = 1e-4

# Largest N(R+1) for which feasible_start's smallest entry, 2/(N(R+1)),
# still clears INTERIOR_MARGIN.
MAX_UNKNOWNS = 20_000

# Default barrier weight per unknown; see default_settings.
TAU_SCALE = 1e-5


@dataclass(frozen=True)
class TransmissionProbabilities:
    """Row-stochastic (N, R+1) matrix of per-sensor rate probabilities.

    The flattened vector ordering is rate-major: entry (i, m) sits at
    flat position m*N + i.
    """

    q: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))

    @property
    def n_sensors(self) -> int:
        return self.q.shape[0]

    @property
    def r_max(self) -> int:
        return self.q.shape[1] - 1

    def flat(self) -> np.ndarray:
        return self.q.T.ravel()

    def expected_bits(self) -> float:
        return float(np.sum(self.q * np.arange(self.q.shape[1])))

    def validate(self, row_tol: float = 1e-6, budget: float | None = None,
                 budget_tol: float = 1e-6) -> None:
        rows = self.q.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > row_tol:
            raise ValueError("rows must sum to 1")
        if budget is not None:
            if abs(self.expected_bits() - budget) > budget_tol:
                raise ValueError("expected bit total does not match the budget")


def _as_q_matrix(q, n_sensors: int, r_max: int) -> np.ndarray:
    if isinstance(q, TransmissionProbabilities):
        return q.q
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        return q.reshape(r_max + 1, n_sensors).T
    return q


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality constraints A q_flat = b of the relaxed problem."""

    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    n_sensors: int
    r_max: int


@dataclass(frozen=True)
class BarrierSettings:
    tau: float
    epsilon: float = 1e-8
    max_iters: int = 100
    alpha_ls: float = 0.25
    beta_ls: float = 0.5

    def __post_init__(self):
        if self.tau <= 0 or self.epsilon <= 0:
            raise ValueError("tau and epsilon must be positive")
        if not 0 < self.alpha_ls < 0.5 or not 0 < self.beta_ls < 1:
            raise ValueError("line search parameters out of range")


def default_settings(n_sensors: int, r_max: int, tau_scale: float = TAU_SCALE,
                     **solver) -> BarrierSettings:
    """Barrier weight tau = tau_scale * N(R+1), scaled with the problem
    size; the default scale is calibrated so the box barrier perturbs the
    log-det objective by less than the typical determinant gap between
    neighboring allocations.  Other BarrierSettings fields pass through."""
    return BarrierSettings(tau=tau_scale * n_sensors * (r_max + 1), **solver)


@dataclass(frozen=True)
class NewtonDiagnostics:
    iterations: int
    decrement_half_sq: float
    max_constraint_residual: float
    phi_values: tuple = ()  # barrier objective after each accepted step


def constraint_system(n_sensors: int, r_max: int) -> ConstraintSystem:
    """First N rows: each sensor's probabilities sum to 1; last row: the
    expected number of transmitted bits equals the budget."""
    if n_sensors < 1 or r_max < 1:
        raise ValueError("need n_sensors >= 1 and r_max >= 1")
    n_vars = n_sensors * (r_max + 1)
    A = np.zeros((n_sensors + 1, n_vars))
    for i in range(n_sensors):
        A[i, i::n_sensors] = 1.0
    for m in range(r_max + 1):
        A[n_sensors, m * n_sensors:(m + 1) * n_sensors] = float(m)
    b = np.concatenate([np.ones(n_sensors), [float(r_max)]])
    return ConstraintSystem(A=A, b=b, n_sensors=n_sensors, r_max=r_max)


def feasible_start(n_sensors: int, r_max: int) -> TransmissionProbabilities:
    """Strictly interior feasible starting point for the barrier solve.

    Every sensor gets the same row: a uniform distribution mixed with
    extra mass at rate 0 so that the mean rate is exactly R/N, hence
    Aq = b.  The smallest entry is 2/(N(R+1)), so the point clears the
    box by INTERIOR_MARGIN exactly when N(R+1) <= MAX_UNKNOWNS (20,000).

    With a single sensor the constraints pin q to the boundary point
    (0,..,0,1); the returned point is then nudged inside the box at the
    cost of a small budget-row residual.
    """
    if n_sensors < 1 or r_max < 1:
        raise ValueError("need n_sensors >= 1 and r_max >= 1")
    if n_sensors == 1:
        q = np.full(r_max + 1, INTERIOR_MARGIN)
        q[-1] = 1.0 - r_max * INTERIOR_MARGIN
        return TransmissionProbabilities(q[None, :])
    lam = 1.0 - 2.0 / n_sensors
    row = np.full(r_max + 1, (1.0 - lam) / (r_max + 1))
    row[0] += lam
    return TransmissionProbabilities(np.tile(row, (n_sensors, 1)))


def _information_matrix(qm: np.ndarray, table: FimTable) -> np.ndarray:
    return table.prior + np.tensordot(qm, table.atoms, axes=([0, 1], [0, 1]))


def barrier_value(q, table: FimTable, tau: float) -> float:
    """Barrier objective: -(log det W(q) + tau * sum(log q + log(1-q))).

    +inf outside the open box or when W is not positive definite, which
    lets the backtracking line search enforce the domain.
    """
    qm = _as_q_matrix(q, table.n_sensors, table.r_max)
    if np.any(qm <= 0.0) or np.any(qm >= 1.0):
        return np.inf
    ld = logdet(_information_matrix(qm, table))
    if not np.isfinite(ld):
        return np.inf
    return -(ld + tau * float(np.sum(np.log(qm) + np.log1p(-qm))))


def barrier_gradient(q, table: FimTable, tau: float) -> np.ndarray:
    """Flat gradient: -(tr(W^-1 atom[i,m])) - tau/q + tau/(1-q)."""
    qm = _as_q_matrix(q, table.n_sensors, table.r_max)
    w_inv = np.linalg.inv(_information_matrix(qm, table))
    trace_terms = np.einsum("ab,imab->im", w_inv, table.atoms)
    grad = -trace_terms - tau / qm + tau / (1.0 - qm)
    return grad.T.ravel()


def barrier_hessian(q, table: FimTable, tau: float) -> np.ndarray:
    """Flat Hessian: Gram matrix of W^-1-weighted atoms plus the barrier
    diagonal tau * (1/q^2 + 1/(1-q)^2)."""
    n, r1 = table.n_sensors, table.r_max + 1
    qm = _as_q_matrix(q, n, r1 - 1)
    w_inv = np.linalg.inv(_information_matrix(qm, table))
    weighted = np.einsum("ab,imbc->imac", w_inv, table.atoms)
    flat = weighted.transpose(1, 0, 2, 3).reshape(n * r1, 4, 4)
    gram = np.einsum("pab,qba->pq", flat, flat)
    diag = tau * (1.0 / qm**2 + 1.0 / (1.0 - qm) ** 2)
    return gram + np.diag(diag.T.ravel())


def solve_kkt(hessian: np.ndarray, sys: ConstraintSystem, grad: np.ndarray):
    """Newton step and dual via block elimination of the KKT system.

    Solves H step + A^T dual = -grad with A step = 0 using a Cholesky
    factor of H and the Schur complement S = -A H^-1 A^T.
    """
    factor = scipy.linalg.cho_factor(hessian)
    h_inv_at = scipy.linalg.cho_solve(factor, sys.A.T)
    h_inv_g = scipy.linalg.cho_solve(factor, grad)
    schur = -sys.A @ h_inv_at
    try:
        dual = scipy.linalg.solve(schur, sys.A @ h_inv_g)
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("singular Schur complement") from exc
    step = -(h_inv_g + h_inv_at @ dual)
    return step, dual


def newton_solve(table: FimTable, sys: ConstraintSystem,
                 settings: BarrierSettings,
                 q0: TransmissionProbabilities):
    """Feasible-start Newton on the barrier objective.

    Stops when the Newton decrement satisfies lambda^2/2 <= epsilon, at
    which point the current (not yet stepped) iterate is returned, so
    the reported point itself meets the stopping criterion.  Returns
    (TransmissionProbabilities, NewtonDiagnostics).
    """
    q = _as_q_matrix(q0, sys.n_sensors, sys.r_max).T.ravel().copy()
    value = barrier_value(q, table, settings.tau)
    if not np.isfinite(value):
        raise ValueError("starting point is not strictly interior/feasible")
    max_resid = float(np.max(np.abs(sys.A @ q - sys.b)))
    values = [value]

    for iteration in range(1, settings.max_iters + 1):
        grad = barrier_gradient(q, table, settings.tau)
        hess = barrier_hessian(q, table, settings.tau)
        step, _dual = solve_kkt(hess, sys, grad)
        lam_sq = max(float(-grad @ step), 0.0)
        if lam_sq / 2.0 <= settings.epsilon:
            qm = q.reshape(sys.r_max + 1, sys.n_sensors).T
            diag = NewtonDiagnostics(iterations=iteration,
                                     decrement_half_sq=lam_sq / 2.0,
                                     max_constraint_residual=max_resid,
                                     phi_values=tuple(values))
            return TransmissionProbabilities(qm), diag

        t = 1.0
        g_dot_step = float(grad @ step)
        for _ in range(80):
            candidate = barrier_value(q + t * step, table, settings.tau)
            if candidate <= value + settings.alpha_ls * t * g_dot_step:
                break
            t *= settings.beta_ls
        else:
            raise np.linalg.LinAlgError("backtracking line search failed")
        q = q + t * step
        value = candidate
        values.append(value)
        max_resid = max(max_resid, float(np.max(np.abs(sys.A @ q - sys.b))))

    raise np.linalg.LinAlgError(
        f"Newton did not converge in {settings.max_iters} iterations")


def sample_transmission(q: TransmissionProbabilities,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw each sensor's rate independently from its probability row.

    The total is random; the equality constraint makes its expectation
    equal the budget.
    """
    q.validate(row_tol=1e-6)
    cum = np.cumsum(q.q, axis=1)
    u = rng.random(q.n_sensors)
    rates = np.empty(q.n_sensors, dtype=np.int64)
    for i in range(q.n_sensors):
        rates[i] = int(np.searchsorted(cum[i], u[i] * cum[i, -1], side="right"))
    return np.minimum(rates, q.r_max)


def round_transmission(q: TransmissionProbabilities, budget: int) -> np.ndarray:
    """Deterministic decode: walk entries by descending probability and
    fix each sensor's rate the first time it appears, provided the bits
    still fit.  Alternative to probabilistic sampling; budget holds as
    an upper bound."""
    order = np.dstack(np.meshgrid(np.arange(q.n_sensors),
                                  np.arange(q.r_max + 1),
                                  indexing="ij")).reshape(-1, 2)
    ranked = sorted(
        ((float(q.q[i, m]), i, m) for i, m in order),
        key=lambda t: (-t[0], t[1], t[2]))
    rates = np.full(q.n_sensors, -1, dtype=np.int64)
    used = 0
    for _p, i, m in ranked:
        if rates[i] >= 0:
            continue
        if used + m <= budget:
            rates[i] = m
            used += m
        if np.all(rates >= 0):
            break
    rates[rates < 0] = 0
    return rates
