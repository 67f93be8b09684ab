import os

import numpy as np
import pytest

from bittrack import model, quantizer

PAPER_GRID_PARAMS = (1000.0, 1.0, 2.0, 1.0)
AREA_SIDE = 20.0
# Bank written by `bittrack thresholds --rates 1..5` with the defaults.
BANK_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "bank_r5.json")


def pytest_addoption(parser):
    parser.addoption("--update-digests", action="store_true",
                     help="rewrite tests/desk_digests.json from the desk runs "
                          "instead of checking against it")


@pytest.fixture(scope="session")
def bank5():
    """Full-size quantizer bank matching the harness defaults."""
    return quantizer.build_bank(5, AREA_SIDE, PAPER_GRID_PARAMS,
                                sample_count=4000, seed=0)


@pytest.fixture(scope="session")
def bank3():
    """Cheaper bank for unit tests that only need rates up to 3."""
    return quantizer.build_bank(3, AREA_SIDE, PAPER_GRID_PARAMS,
                                sample_count=2000, seed=0)


@pytest.fixture(scope="session")
def grid9():
    return model.build_grid(3, AREA_SIDE)


def fd_amplitude_fisher(m, a, sigma, thr, h=1e-5):
    """Categorical Fisher information about the amplitude via central
    differences of the level probabilities (independent oracle)."""
    p = quantizer.level_probabilities(a, sigma, thr)
    dp = (quantizer.level_probabilities(a + h, sigma, thr)
          - quantizer.level_probabilities(a - h, sigma, thr)) / (2 * h)
    mask = p > 1e-12
    return float(np.sum(dp[mask] ** 2 / p[mask]))
