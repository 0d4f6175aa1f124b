import numpy as np
import pytest

from nullstate import checks

KAPPA_GRID = checks.KAPPA_GRID
KAPPA_MODERATE = (2.0, 10.0 / 3.0, 4.0, 16.0 / 3.0, 6.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
