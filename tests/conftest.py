import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ramac.channels import Dmc, InputLaws, RateTable, RateVectorIndex
from ramac.exponents import OptimizerConfig

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")

# Shared small optimizer config: the monotonicity/equality properties under
# test hold at any grid geometry as long as both sides share it.
FAST_OPT = OptimizerConfig(rho_grid_size=12, s_grid_size=12,
                           refinement_rounds=1)


def uniform_laws(table, input_size):
    """Every user's law at every rate class uniform over input_size letters."""
    vec = np.full(input_size, 1.0 / input_size)
    return InputLaws({
        (u, i): vec
        for u in range(1, table.num_users + 1)
        for i in range(1, table.num_classes + 1)
    })


def bsc(p):
    return Dmc(1, 2, 2, np.array([[1.0 - p, p], [p, 1.0 - p]]))


@pytest.fixture
def single_user_system():
    table = RateTable(((0.1,),))
    laws = uniform_laws(table, 2)
    rvi = RateVectorIndex((1,))
    return table, laws, rvi


def random_dmc(rng, k, a, b, floor=0.0):
    raw = rng.random((a,) * k + (b,)) + floor
    raw /= raw.sum(axis=-1, keepdims=True)
    return Dmc(k, a, b, raw)


def random_laws(rng, table, a):
    entries = {}
    for u in range(1, table.num_users + 1):
        for i in range(1, table.num_classes + 1):
            v = rng.random(a) + 0.05
            entries[(u, i)] = v / v.sum()
    return InputLaws(entries)
