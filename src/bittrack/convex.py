"""Relaxed bit allocation: maximize log det of the total FIM over
per-sensor rate probabilities instead of integer rates.

Each sensor i carries a row q[i, :] of probabilities over the rates
0..R; the equality constraints force each row to sum to 1 and the
expected total rate to equal the budget R.  The [0, 1] box is folded
into the objective as a log barrier, and the resulting equality-
constrained convex problem is solved by a feasible-start Newton method
with KKT block elimination.  The table holds 2x2 position blocks
(`fisher.FimTable`), so the Hessian is diagonal plus rank 3 and each
step costs O(N(R+1)) plus one (N+1)x(N+1) solve.  Decoding is
probabilistic: each sensor samples its rate from its row, so the budget
holds in expectation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fisher import FimTable

# Smallest distance to the [0, 1] box boundary required of a barrier
# starting point.
INTERIOR_MARGIN = 1e-4

# Largest N(R+1) for which feasible_start's smallest entry, 2/(N(R+1)),
# still clears INTERIOR_MARGIN.
MAX_UNKNOWNS = 20_000

# Default barrier weight per unknown; see default_settings.
TAU_SCALE = 1e-5

# Backtracking line search: sufficient-decrease fraction, step shrink factor.
ALPHA_LS, BETA_LS = 0.25, 0.5


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

    def __post_init__(self):
        if not (self.tau > 0 and self.epsilon > 0):
            raise ValueError("tau and epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
    backtracks: int = 0  # rejected line-search trials


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


def _logdet2(k00: float, k01: float, k11: float) -> float:
    """log det of a symmetric 2x2; -inf unless positive definite."""
    det = k00 * k11 - k01 * k01
    return math.log(det) if k00 > 0.0 and det > 0.0 else -math.inf


def _position_sum(qm: np.ndarray, table: FimTable) -> np.ndarray:
    """J + A(q) as (k00, k01, k11), A(q) = sum q[i, m] blocks[i, m]."""
    return table.schur + np.einsum("im,imk->k", qm, table.blocks)


def _flat_blocks(table: FimTable) -> np.ndarray:
    """The position blocks as (N(R+1), 3) rows in flat (rate-major) order."""
    return table.blocks.transpose(1, 0, 2).reshape(-1, 3)


def _gradient(q: np.ndarray, table: FimTable, vectors: np.ndarray,
              tau: float):
    """Flat gradient at the flat point q, and S = (J + A(q))^-1 as
    (s00, s01, s11)."""
    qm = q.reshape(table.r_max + 1, table.n_sensors).T
    k00, k01, k11 = _position_sum(qm, table)
    det = k00 * k11 - k01 * k01
    s00, s01, s11 = k11 / det, -k01 / det, k00 / det
    grad = (-(vectors @ np.array([s00, 2.0 * s01, s11]))
            - tau / q + tau / (1.0 - q))
    return grad, (s00, s01, s11)


def barrier_value(q, table: FimTable, tau: float) -> float:
    """Barrier objective: -(log det W(q) + tau * sum(log q + log(1-q))),
    with log det W = log det P_vv + log det2(J + A(q)) on the position
    block (see `fisher.FimTable`).

    +inf outside the open box or when J + A is not positive definite,
    which lets the backtracking line search enforce the domain.
    """
    qm = _as_q_matrix(q, table.n_sensors, table.r_max)
    if np.any(qm <= 0.0) or np.any(qm >= 1.0):
        return np.inf
    p = table.prior
    ld = (_logdet2(p[2, 2], p[2, 3], p[3, 3])
          + _logdet2(*_position_sum(qm, table)))
    if not np.isfinite(ld):
        return np.inf
    return -(ld + tau * float(np.sum(np.log(qm) + np.log1p(-qm))))


def barrier_gradient(q, table: FimTable, tau: float) -> np.ndarray:
    """Flat gradient: -V w - tau/q + tau/(1-q), where the rows of V are
    the position blocks (a00, a01, a11) and w = (s00, 2 s01, s11) with
    S = (J + A(q))^-1, so that V w = tr(S X) for each block X."""
    flat = _as_q_matrix(q, table.n_sensors, table.r_max).T.ravel()
    return _gradient(flat, table, _flat_blocks(table), tau)[0]


def barrier_hessian(q, table: FimTable, tau: float) -> np.ndarray:
    """Flat Hessian: the Gram matrix tr(S X_p S X_q) of the 2x2 position
    blocks, S = (J + A(q))^-1, plus the barrier diagonal
    tau * (1/q^2 + 1/(1-q)^2).  Dense reference for the structured step
    that `newton_solve` takes."""
    qm = _as_q_matrix(q, table.n_sensors, table.r_max)
    k00, k01, k11 = _position_sum(qm, table)
    s = np.linalg.inv([[k00, k01], [k01, k11]])
    weighted = s @ _flat_blocks(table)[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    gram = np.einsum("pab,qba->pq", weighted, weighted)
    diag = tau * (1.0 / qm**2 + 1.0 / (1.0 - qm) ** 2)
    return gram + np.diag(diag.T.ravel())


def _newton_step(q: np.ndarray, table: FimTable, vectors: np.ndarray,
                 tau: float, sys: ConstraintSystem):
    """Gradient and Newton step at the flat point q.

    The Hessian is D + V M V^T: D the barrier diagonal, V = `vectors`
    the (N(R+1), 3) flat position blocks, and M = T^T (S (x) S) T the
    3x3 form of tr(S X S Y) on (x00, x01, x11) vectors.  With M = L L^T
    and U = D^-1/2 V L, Woodbury gives
    H^-1 = D^-1/2 (I - U (I + U^T U)^-1 U^T) D^-1/2; this scaled form
    keeps the step as accurate as a Cholesky solve of H when D is small
    against V M V^T.  The (N+1)x(N+1) Schur complement A H^-1 A^T of the
    constraints then gives the dual (KKT block elimination).
    """
    grad, (s00, s01, s11) = _gradient(q, table, vectors, tau)
    m = np.array([[s00 * s00, 2.0 * s00 * s01, s01 * s01],
                  [2.0 * s00 * s01, 2.0 * (s00 * s11 + s01 * s01),
                   2.0 * s01 * s11],
                  [s01 * s01, 2.0 * s01 * s11, s11 * s11]])
    scale = 1.0 / np.sqrt(tau * (1.0 / q**2 + 1.0 / (1.0 - q) ** 2))
    u = scale[:, None] * (vectors @ np.linalg.cholesky(m))
    # H^-1 applied to the columns of A^T and to the gradient at once.
    x = np.column_stack([sys.A.T, grad]) * scale[:, None]
    x -= u @ np.linalg.solve(np.eye(3) + u.T @ u, u.T @ x)
    x *= scale[:, None]
    h_inv_at, h_inv_g = x[:, :-1], x[:, -1]
    dual = np.linalg.solve(sys.A @ h_inv_at, -(sys.A @ h_inv_g))
    return grad, -(h_inv_g + h_inv_at @ dual)


def newton_solve(table: FimTable, sys: ConstraintSystem,
                 settings: BarrierSettings,
                 q0: TransmissionProbabilities):
    """Feasible-start Newton on the barrier objective.

    Stops when the Newton decrement satisfies lambda^2/2 <= epsilon, at
    which point the current (not yet stepped) iterate is returned, so
    the reported point itself meets the stopping criterion.  The module's
    `barrier_value` is called once at the start and once per line-search
    trial.  Returns (TransmissionProbabilities, NewtonDiagnostics).
    """
    q = _as_q_matrix(q0, sys.n_sensors, sys.r_max).T.ravel().copy()
    value = barrier_value(q, table, settings.tau)
    if not np.isfinite(value):
        raise ValueError("starting point is not strictly interior/feasible")
    max_resid = float(np.max(np.abs(sys.A @ q - sys.b)))
    values = [value]
    vectors = _flat_blocks(table)
    backtracks = 0

    for iteration in range(1, settings.max_iters + 1):
        grad, step = _newton_step(q, table, vectors, settings.tau, sys)
        lam_sq = max(float(-grad @ step), 0.0)
        if lam_sq / 2.0 <= settings.epsilon:
            qm = q.reshape(sys.r_max + 1, sys.n_sensors).T
            diag = NewtonDiagnostics(iterations=iteration,
                                     decrement_half_sq=lam_sq / 2.0,
                                     max_constraint_residual=max_resid,
                                     phi_values=tuple(values),
                                     backtracks=backtracks)
            return TransmissionProbabilities(qm), diag

        t = 1.0
        g_dot_step = float(grad @ step)
        for _ in range(80):
            candidate = barrier_value(q + t * step, table, settings.tau)
            if candidate <= value + ALPHA_LS * t * g_dot_step:
                break
            t *= BETA_LS
            backtracks += 1
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
