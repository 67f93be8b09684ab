import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from bittrack import allocators as al, model, tracker
from bittrack.cli import random_fim_table
from bittrack.fisher import FimTable, build_fim_table, logdet, total_fim

from conftest import atoms_4x4


def brute_force_4x4(table, n, r):
    """Oracle: every split in lexicographic order, ranked by the 4x4
    slogdet; the first maximum wins."""
    atoms = atoms_4x4(table)
    best, best_value = None, -np.inf
    for alloc in itertools.product(range(r + 1), repeat=n):
        if sum(alloc) != r:
            continue
        w = table.prior.copy()
        for i, m in enumerate(alloc):
            w = w + atoms[i, m]
        sign, value = np.linalg.slogdet(w)
        if sign > 0 and value > best_value:
            best, best_value = alloc, value
    return list(best)


def test_enumerate_count():
    assert al.enumerate_count(3, 2) == 6
    assert al.enumerate_count(9, 5) == 1287
    assert al.enumerate_count(1, 7) == 1
    with pytest.raises(ValueError):
        al.enumerate_count(0, 3)


def composition_matrix(n_sensors, budget):
    """Oracle: all bit splits as a (count, n_sensors) int array, colex order.

    Stars and bars: each split is the gaps between N-1 bar positions
    among R+N-1 slots, read right to left."""
    count = al.enumerate_count(n_sensors, budget)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(budget + n_sensors - 1), n_sensors - 1)), dtype=np.int64,
        count=count * (n_sensors - 1)).reshape(count, n_sensors - 1)
    gaps = np.diff(bars, axis=1, prepend=-1, append=budget + n_sensors - 1)
    return gaps[:, ::-1] - 1


def test_composition_matrix_colex_order():
    comps = composition_matrix(3, 2)
    expected = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert [tuple(c) for c in comps] == expected
    assert comps.shape[0] == al.enumerate_count(3, 2)
    for n, r in [(4, 3), (5, 2), (2, 6), (1, 4)]:
        comps = composition_matrix(n, r)
        assert comps.shape[0] == al.enumerate_count(n, r)
        assert np.all(comps.sum(axis=1) == r)
        assert len({tuple(c) for c in comps}) == comps.shape[0]


def test_exhaustive_matches_split_matrix_oracle():
    # Every split summed in sensor order from the Schur complement, ranked
    # by det of the 2x2 position block; ties go to the smallest split.
    rng = np.random.default_rng(23)
    for trial in range(240):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, 7))
        table = random_fim_table(n, r, rng)
        if trial % 3 == 0:
            blocks = table.blocks.copy()
            for i in range(1, n):
                blocks[i] = blocks[int(rng.integers(0, i))]
            if trial % 6 == 0:
                blocks[:] = 0.0  # every split ties
            table = FimTable(blocks=blocks, prior=table.prior)
        comps = composition_matrix(n, r)
        total = np.tile(table.schur, (comps.shape[0], 1))
        for i in range(n):
            total += table.blocks[i, comps[:, i]]
        det = total[:, 0] * total[:, 2] - total[:, 1] ** 2
        value = np.where((total[:, 0] > 0) & (det > 0), det, -np.inf)
        want = min(tuple(comps[j]) for j in np.flatnonzero(value == value.max()))
        out = al.exhaustive(table, n, r)
        assert out.alloc.tolist() == list(want)
        assert out.logdet_value == logdet(total_fim(np.array(want), table))
        assert out.candidates_examined == comps.shape[0]
        assert out.matrix_sums == n * comps.shape[0]


def test_exhaustive_memory_grows_with_split_count():
    # N=25, R=6: 593,775 splits.  A (count, N) int64 split matrix alone
    # is 119 MB; the trellis keeps about 100 B per split.
    code = """if True:
        import resource, sys
        import numpy as np
        from bittrack import allocators
        from bittrack.cli import random_fim_table
        table = random_fim_table(25, 6, np.random.default_rng(0))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        allocators.exhaustive(table, 25, 6)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss units
        print((after - before) * unit)
    """
    src = os.path.dirname(os.path.dirname(al.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                          capture_output=True, text=True)
    assert int(done.stdout) < 150 * 10**6


def test_exhaustive_single_sensor():
    rng = np.random.default_rng(0)
    table = random_fim_table(1, 4, rng)
    out = al.exhaustive(table, 1, 4)
    assert out.alloc.tolist() == [4]
    assert out.candidates_examined == 1


def test_exhaustive_two_sensor_comparison():
    rng = np.random.default_rng(1)
    table = random_fim_table(2, 1, rng)
    out = al.exhaustive(table, 2, 1)
    atoms = atoms_4x4(table)
    d0 = np.linalg.det(table.prior + atoms[0, 1])
    d1 = np.linalg.det(table.prior + atoms[1, 1])
    want = [1, 0] if d0 >= d1 else [0, 1]
    assert out.alloc.tolist() == want
    assert out.candidates_examined == 2


def test_exhaustive_counts_and_cap():
    rng = np.random.default_rng(2)
    table = random_fim_table(4, 3, rng)
    out = al.exhaustive(table, 4, 3)
    assert out.candidates_examined == al.enumerate_count(4, 3)
    with pytest.raises(ValueError):
        al.exhaustive(table, 4, 3, cap=5)
    # 18,721,125 splits: refused before any is made, whatever `cap` says.
    big = random_fim_table(144, 4, rng)
    with pytest.raises(ValueError, match="exceeds cap 10000000"):
        al.exhaustive(big, 144, 4, cap=10**9)


def test_exhaustive_tie_breaks_lexicographically():
    # Two sensors with bitwise-identical blocks: (1, 0) and (0, 1) tie.
    rng = np.random.default_rng(3)
    table = random_fim_table(2, 1, rng)
    blocks = table.blocks.copy()
    blocks[1] = blocks[0]
    tied = FimTable(blocks=blocks, prior=table.prior)
    assert al.exhaustive(tied, 2, 1).alloc.tolist() == [0, 1]  # lex smaller
    assert brute_force_4x4(tied, 2, 1) == [0, 1]
    # Three identical sensors at R=2: six splits, three pairwise ties.
    blocks = random_fim_table(3, 2, rng).blocks
    blocks[1] = blocks[2] = blocks[0]
    tied3 = FimTable(blocks=blocks, prior=table.prior)
    assert al.exhaustive(tied3, 3, 2).alloc.tolist() == \
        brute_force_4x4(tied3, 3, 2)


def test_exhaustive_matches_4x4_oracle():
    rng = np.random.default_rng(13)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        table = random_fim_table(n, r + int(rng.integers(0, 2)), rng)
        assert al.exhaustive(table, n, r).alloc.tolist() == \
            brute_force_4x4(table, n, r)


def _tracker_tables(grid, bank):
    rng = np.random.default_rng(14)
    for mean in ([-8.0, -8.0, 2.0, 2.0], [0.5, 3.0, -1.0, 0.0]):
        cloud = tracker.init_particles(np.array(mean),
                                       np.diag([0.5, 0.5, 0.01, 0.01]),
                                       300, rng)
        yield build_fim_table(grid, cloud, bank.r_max, bank)


def test_position_block_identity(grid9, bank3):
    # logdet W = logdet P_vv + log det2(J + A) for every allocation.
    rng = np.random.default_rng(15)
    tables = [random_fim_table(int(rng.integers(1, 7)), 3, rng)
              for _ in range(20)]
    tables += list(_tracker_tables(grid9, bank3))
    for table in tables:
        n = table.n_sensors
        j = table.schur
        ld_vv = logdet(table.prior[2:, 2:])
        for _ in range(10):
            alloc = rng.integers(0, table.r_max + 1, size=n)
            a = j + table.blocks[np.arange(n), alloc].sum(axis=0)
            det2 = a[0] * a[2] - a[1] ** 2
            assert ld_vv + np.log(det2) == pytest.approx(
                logdet(total_fim(alloc, table)), abs=1e-12)


def test_schur_needs_positive_definite_velocity_block():
    table = random_fim_table(2, 2, np.random.default_rng(17))
    prior = table.prior.copy()
    prior[2:, :] = prior[:, 2:] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        FimTable(blocks=table.blocks, prior=prior).schur


def _value_4x4(w):
    sign, value = np.linalg.slogdet(w)
    return value if sign > 0 else -np.inf


def greedy_4x4(table, n, r):
    """Reference loop: add the bit whose 4x4 total ranks first."""
    atoms = atoms_4x4(table)
    rates, current, msums = [0] * n, table.prior, 0
    for _ in range(r):
        cands = [current + atoms[k, rates[k] + 1] - atoms[k, rates[k]]
                 for k in range(n)]
        msums += n + sum(m > 0 for m in rates)
        k = int(np.argmax([_value_4x4(w) for w in cands]))
        rates[k] += 1
        current = cands[k]
    return rates, msums, n * r


def gbfos_4x4(table, n, r):
    """Reference loop: from full rate, drop the bit whose removal leaves
    the 4x4 total ranked first."""
    atoms = atoms_4x4(table)
    rates = [r] * n
    current = table.prior + atoms[:, r].sum(axis=0)
    msums, candidates = n, 0
    for _ in range((n - 1) * r):
        active = [k for k in range(n) if rates[k] > 0]
        cands = [current - atoms[k, rates[k]] + atoms[k, rates[k] - 1]
                 for k in active]
        msums += len(active) + sum(rates[k] > 1 for k in active)
        candidates += len(active)
        j = int(np.argmax([_value_4x4(w) for w in cands]))
        rates[active[j]] -= 1
        current = cands[j]
    return rates, msums, candidates


def adp_4x4(table, n, r):
    """Reference loop: the stage-per-sensor trellis keeping each state's
    best 4x4 total and path."""
    atoms = atoms_4x4(table)
    states = [(table.prior + atoms[0, s], [s]) for s in range(r + 1)]
    msums = r
    for i in range(1, n):
        targets = range(r + 1) if i < n - 1 else [r]
        nxt = {}
        for s in targets:
            cands = [(states[s - k][0] + atoms[i, k], states[s - k][1] + [k])
                     for k in range(s + 1)]
            msums += s
            nxt[s] = cands[int(np.argmax([_value_4x4(w) for w, _ in cands]))]
        states = nxt
    return states[r][1], msums, msums


def test_table_policies_match_4x4_loops(grid9, bank3):
    rng = np.random.default_rng(18)
    cases = [(random_fim_table(n, r, rng), r)
             for n, r in rng.integers(2, 6, size=(60, 2))]
    cases += [(table, 3) for table in _tracker_tables(grid9, bank3)]
    # Identical sensors with integer entries: every sum is exact, so the
    # ties are exact and must go to the first maximum.
    blocks = np.zeros((3, 4, 3))
    blocks[:, 1:] = np.arange(1, 4)[:, None] * [1.0, 2.0, 5.0]
    cases += [(FimTable(blocks=blocks, prior=np.eye(4)), r) for r in (2, 3)]
    for table, r in cases:
        n = table.n_sensors
        for policy, ref in ((al.greedy, greedy_4x4), (al.gbfos, gbfos_4x4),
                            (al.adp, adp_4x4)):
            out = policy(table, n, r)
            assert (out.alloc.tolist(), out.matrix_sums,
                    out.candidates_examined) == ref(table, n, r)


def test_greedy_basics():
    rng = np.random.default_rng(4)
    table = random_fim_table(1, 3, rng)
    out = al.greedy(table, 1, 3)
    assert out.alloc.tolist() == [3]
    assert out.matrix_sums <= 1 * (2 * 3 - 1)
    table4 = random_fim_table(4, 2, rng)
    assert al.greedy(table4, 4, 0).alloc.tolist() == [0, 0, 0, 0]
    assert al.greedy(table4, 4, 0).matrix_sums == 0


def test_gbfos_basics():
    rng = np.random.default_rng(5)
    table = random_fim_table(1, 3, rng)
    out = al.gbfos(table, 1, 3)
    assert out.alloc.tolist() == [3]
    assert out.candidates_examined == 0  # (N-1)*R = 0 reductions
    table2 = random_fim_table(2, 1, rng)
    assert al.gbfos(table2, 2, 1).alloc.tolist() == \
        al.exhaustive(table2, 2, 1).alloc.tolist()


def test_counter_bounds_paper_configuration():
    rng = np.random.default_rng(6)
    table = random_fim_table(9, 5, rng)
    assert al.gbfos(table, 9, 5).matrix_sums <= 9 + 2 * 9 * 8 * 5  # = 729
    assert al.greedy(table, 9, 5).matrix_sums <= 9 * (2 * 5 - 1)


def test_adp_counter_exact():
    rng = np.random.default_rng(7)
    table = random_fim_table(6, 3, rng)
    assert al.adp(table, 6, 3).matrix_sums == 30
    for n in (2, 3, 7, 12):
        for r in (1, 3, 5):
            t = random_fim_table(n, r, rng)
            assert al.adp(t, n, r).matrix_sums == 2 * r + (n - 2) * r * (r + 1) // 2


def test_adp_single_sensor_convention():
    rng = np.random.default_rng(8)
    table = random_fim_table(1, 4, rng)
    out = al.adp(table, 1, 4)
    assert out.alloc.tolist() == [4]
    assert out.matrix_sums == 0


def test_policies_dominated_by_exhaustive():
    # Mean-gap ordering between policies is asserted over the larger
    # acceptance sweep; here every policy must stay feasible and below
    # the enumeration oracle.
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, 5))
        table = random_fim_table(n, r, rng)
        ex = al.exhaustive(table, n, r)
        for fn in (al.adp, al.gbfos, al.greedy):
            out = fn(table, n, r)
            assert out.alloc.sum() == r
            assert np.all(out.alloc >= 0) and np.all(out.alloc <= r)
            assert out.logdet_value <= ex.logdet_value + 1e-9


def test_policies_deterministic():
    rng = np.random.default_rng(11)
    table = random_fim_table(5, 3, rng)
    for fn in (al.exhaustive, al.adp, al.gbfos, al.greedy):
        a = fn(table, 5, 3)
        b = fn(table, 5, 3)
        assert np.array_equal(a.alloc, b.alloc)
        assert a.logdet_value == b.logdet_value


def test_outcome_logdet_recomputed_independently():
    rng = np.random.default_rng(12)
    table = random_fim_table(4, 2, rng)
    for fn in (al.exhaustive, al.adp, al.gbfos, al.greedy):
        out = fn(table, 4, 2)
        assert out.logdet_value == pytest.approx(
            logdet(total_fim(out.alloc, table)), abs=1e-12)


def test_nearest_neighbor():
    grid = model.build_grid(3, 20.0)
    out = al.nearest_neighbor(grid, (-10.0, -10.0), 9, 5)
    assert out.alloc[0] == 5 and out.alloc.sum() == 5
    # center of the grid: center sensor (index 4) takes all bits
    out = al.nearest_neighbor(grid, (0.1, 0.1), 9, 5)
    assert out.alloc[4] == 5
    # equidistant tie between indices 2 and 7 resolves to the lower one
    tie_grid = model.SensorGrid(positions=[
        (5.0, 0.0), (6.0, 0.0), (0.0, 1.0), (7.0, 0.0),
        (8.0, 0.0), (9.0, 0.0), (10.0, 0.0), (0.0, -1.0)])
    out = al.nearest_neighbor(tie_grid, (0.0, 0.0), 8, 3)
    assert out.alloc[2] == 3 and out.alloc[7] == 0


def test_suboptimality_witness_paper_values():
    j1, j2, a, dets = al.suboptimality_witness()
    assert dets["det_j_first"] == pytest.approx(1.0, abs=1e-12)
    assert dets["det_j_second"] == pytest.approx(0.99, abs=1e-12)
    assert dets["det_sum_first"] == pytest.approx(3.99, abs=1e-12)
    assert dets["det_sum_second"] == pytest.approx(4.0, abs=1e-12)
    assert dets["det_j_first"] > dets["det_j_second"]
    assert dets["det_sum_first"] < dets["det_sum_second"]
