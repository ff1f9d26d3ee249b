import numpy as np
import pytest

#: Seed of the ``rng`` fixture; ``tools/acceptance.py`` seeds its criteria with it too.
RNG_SEED = 20240817


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)
