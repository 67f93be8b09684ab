"""Bit-allocation policies: distribute R bits over N sensors to maximize
the determinant of the total Fisher information matrix.

Policies: exhaustive enumeration (the oracle), one-bit-at-a-time greedy,
bit-reduction (start at full rate, remove the least harmful bit), a
stage-per-sensor dynamic-programming trellis, and nearest-neighbor (all
bits to the closest sensor).  The table policies rank candidates by
det(J + A) on the 2x2 position block (see `fisher.FimTable`), in the 4x4
det W's order.  Every policy is deterministic: ties break to the lowest
sensor index / smallest bit count, and `matrix_sums` counts the paper's
4x4 matrix additions (the complexity unit used to compare the schemes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fisher import FimTable, logdet, total_fim
from .model import SensorGrid

DEFAULT_ENUM_CAP = 10**7


@dataclass(frozen=True)
class AllocOutcome:
    """A feasible allocation plus its objective value and work counters."""

    alloc: np.ndarray = field(repr=False)
    logdet_value: float
    matrix_sums: int
    candidates_examined: int


def enumerate_count(n_sensors: int, budget: int) -> int:
    """Number of ways to split `budget` bits over `n_sensors` channels."""
    if n_sensors < 1 or budget < 0:
        raise ValueError("need n_sensors >= 1 and budget >= 0")
    return math.comb(n_sensors + budget - 1, n_sensors - 1)


def _check_budget(table: FimTable, n_sensors: int, budget: int) -> None:
    if n_sensors != table.n_sensors:
        raise ValueError("n_sensors does not match the table")
    if budget > table.r_max:
        raise ValueError("budget exceeds the table's maximum rate")


def _outcome(table: FimTable, alloc: np.ndarray, matrix_sums: int,
             candidates: int) -> AllocOutcome:
    alloc = np.asarray(alloc, dtype=np.int64)
    return AllocOutcome(alloc=alloc,
                        logdet_value=logdet(total_fim(alloc, table)),
                        matrix_sums=matrix_sums,
                        candidates_examined=candidates)


def _det2(m: np.ndarray) -> np.ndarray:
    """det of symmetric 2x2s (..., 3) = (m00, m01, m11); -inf if not PD."""
    det = m[..., 0] * m[..., 2] - m[..., 1] * m[..., 1]
    return np.where((m[..., 0] > 0) & (det > 0), det, -np.inf)


def _unrank(index: int, n_sensors: int, budget: int) -> np.ndarray:
    """The split at position `index` of all splits in lexicographic order."""
    rates, left = [], budget
    for i in range(n_sensors - 1):
        k = 0
        # `below` splits of the later sensors follow sensor i taking k bits.
        while index >= (below := enumerate_count(n_sensors - i - 1, left - k)):
            index -= below
            k += 1
        rates.append(k)
        left -= k
    return np.array(rates + [left])


def exhaustive(table: FimTable, n_sensors: int, budget: int,
               cap: int = DEFAULT_ENUM_CAP) -> AllocOutcome:
    """Enumerate every split and keep the best determinant.

    An unpruned sensor-per-stage trellis keeps each partial split's
    position block and bits spent, in lexicographic order, so ties go to
    the lexicographically smallest allocation.  `cap` may only lower
    DEFAULT_ENUM_CAP."""
    _check_budget(table, n_sensors, budget)
    count = enumerate_count(n_sensors, budget)
    cap = min(cap, DEFAULT_ENUM_CAP)
    if count > cap:
        raise ValueError(f"enumeration of {count} candidates exceeds cap {cap}")
    total = table.schur[None, :].copy()  # summed in place below
    spent = np.zeros(1, dtype=np.int64)
    for i in range(n_sensors - 1):
        fanout = budget + 1 - spent
        ends = np.cumsum(fanout)
        bits = np.arange(ends[-1]) - np.repeat(ends - fanout, fanout)
        total = np.repeat(total, fanout, axis=0)
        total += table.blocks[i].take(bits, axis=0)
        spent = np.repeat(spent, fanout) + bits
    total += table.blocks[-1].take(budget - spent, axis=0)
    best = int(np.argmax(_det2(total)))
    return _outcome(table, _unrank(best, n_sensors, budget),
                    matrix_sums=n_sensors * count, candidates=count)


def greedy(table: FimTable, n_sensors: int, budget: int) -> AllocOutcome:
    """Add one bit at a time to the sensor giving the largest determinant."""
    _check_budget(table, n_sensors, budget)
    blocks = table.blocks
    sensors = np.arange(n_sensors)
    rates = np.zeros(n_sensors, dtype=np.int64)
    current = table.schur
    msums = 0
    for _ in range(budget):
        # An addition per sensor, a subtraction per sensor holding bits.
        msums += n_sensors + int(np.count_nonzero(rates))
        cand = current + blocks[sensors, rates + 1] - blocks[sensors, rates]
        k = int(np.argmax(_det2(cand)))
        rates[k] += 1
        current = cand[k]
    return _outcome(table, rates, msums, n_sensors * budget)


def gbfos(table: FimTable, n_sensors: int, budget: int) -> AllocOutcome:
    """Start every sensor at the full rate and withdraw the least harmful
    bit until the budget holds ((N-1)*R single-bit reductions)."""
    _check_budget(table, n_sensors, budget)
    blocks = table.blocks
    rates = np.full(n_sensors, budget, dtype=np.int64)
    current = table.schur + blocks[:, budget].sum(axis=0)
    msums = n_sensors
    candidates = 0
    for _ in range((n_sensors - 1) * budget):
        active = np.flatnonzero(rates)
        # A subtraction per active sensor, an addition per one keeping bits.
        msums += active.size + int(np.count_nonzero(rates[active] > 1))
        candidates += active.size
        cand = (current - blocks[active, rates[active]]
                + blocks[active, rates[active] - 1])
        j = int(np.argmax(_det2(cand)))
        rates[active[j]] -= 1
        current = cand[j]
    return _outcome(table, rates, msums, candidates)


def adp(table: FimTable, n_sensors: int, budget: int) -> AllocOutcome:
    """Sensor-per-stage trellis; exact counter 2R + (N-2)R(R+1)/2 for N >= 2.

    State r after stage i is the number of bits spent by sensors 0..i.
    Each state keeps only its best path's position block, which is what
    makes the scheme approximate (see `suboptimality_witness`).  Every
    candidate that gives a sensor k >= 1 bits counts one matrix sum.
    """
    _check_budget(table, n_sensors, budget)
    if n_sensors == 1:
        return _outcome(table, np.array([budget]), matrix_sums=0, candidates=1)
    n_states = budget + 1
    blocks = table.blocks[:, :n_states]
    # Candidate (r, k) extends the previous stage's state r - k by k bits;
    # a negative r - k wraps around and is masked out.
    spent = np.arange(n_states)
    prev = spent[:, None] - spent
    feasible = prev >= 0
    states = table.schur + blocks[0]  # stage 0 reaches state r with k = r
    chosen = np.zeros((n_sensors, n_states), dtype=np.int64)
    chosen[0] = spent
    sums = budget
    for i in range(1, n_sensors):
        rows = spent if i < n_sensors - 1 else spent[-1:]
        sums += int(np.count_nonzero(feasible[rows, 1:]))
        cand = states[prev[rows]] + blocks[i]
        value = np.where(feasible[rows], _det2(cand), -np.inf)
        best = np.argmax(value, axis=1)
        chosen[i, rows] = best
        states = cand[np.arange(rows.size), best]

    rates = np.zeros(n_sensors, dtype=np.int64)
    state = budget
    for i in range(n_sensors - 1, -1, -1):
        rates[i] = chosen[i, state]
        state -= rates[i]
    return _outcome(table, rates, sums, sums)


def nearest_neighbor(grid: SensorGrid, predicted_pos, n_sensors: int,
                     budget: int) -> AllocOutcome:
    """All bits to the sensor closest to the predicted target position."""
    if n_sensors != grid.n_sensors:
        raise ValueError("n_sensors does not match the grid")
    pos = np.asarray(predicted_pos, dtype=float)[:2]
    d2 = np.sum((grid.positions - pos) ** 2, axis=1)
    rates = np.zeros(n_sensors, dtype=np.int64)
    rates[int(np.argmin(d2))] = budget  # argmin takes the lowest index on ties
    return AllocOutcome(alloc=rates, logdet_value=float("nan"), matrix_sums=0,
                        candidates_examined=n_sensors)


def suboptimality_witness():
    """2x2 counterexample showing determinant order is not preserved by
    matrix addition (why keeping only the per-state determinant argmax
    is approximate).

    Returns (j_first, j_second, addend, dets) with
    det(j_first) > det(j_second) but det(addend + j_first) <
    det(addend + j_second).
    """
    j_first = np.eye(2)
    j_second = np.array([[1.0, -0.1], [-0.1, 1.0]])
    addend = np.array([[1.0, 0.1], [0.1, 1.0]])
    dets = {
        "det_j_first": float(np.linalg.det(j_first)),
        "det_j_second": float(np.linalg.det(j_second)),
        "det_sum_first": float(np.linalg.det(addend + j_first)),
        "det_sum_second": float(np.linalg.det(addend + j_second)),
    }
    assert dets["det_j_first"] > dets["det_j_second"]
    assert dets["det_sum_first"] < dets["det_sum_second"]
    return j_first, j_second, addend, dets
