import math
import os
from pathlib import Path

import numpy as np
import pytest

import invlab
from invlab import TimeGrid, make_flat_pi, make_optimal_noise, make_transitionless

# transitionless example parameters used throughout (Omega0*T, delta0*T)
EX_OMEGA0 = (5.57 / 4.3) * math.pi
EX_DELTA0 = (5.57 / 4.3) ** 2 * math.pi


def src_env() -> dict:
    """This environment with the tested package's source directory first on PYTHONPATH,
    so a CLI subprocess imports the same invlab as the tests."""
    env = dict(os.environ)
    src = str(Path(invlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def located_min(result) -> tuple[tuple[float, ...], float]:
    """Coordinates and value of a SweepResult's smallest finite cell."""
    flat = np.where(np.isfinite(result.values), result.values, np.inf)
    idx = np.unravel_index(int(np.argmin(flat)), result.values.shape)
    return tuple(float(a.values[i]) for a, i in zip(result.axes, idx)), float(result.values[idx])


@pytest.fixture(scope="session")
def grid():
    return TimeGrid(2001)


@pytest.fixture(scope="session")
def flat_field(grid):
    return make_flat_pi(0.0, grid)


@pytest.fixture(scope="session")
def transitionless_example(grid):
    return make_transitionless(EX_OMEGA0, EX_DELTA0, grid)


@pytest.fixture(scope="session")
def optimal_noise_field(grid):
    return make_optimal_noise(7, grid)
