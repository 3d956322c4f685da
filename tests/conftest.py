import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ramac.channels import (CompoundSet, Dmc, InputLaws, RateTable,
                            RateVectorIndex)
from ramac.exponents import OptimizerConfig
from ramac.regions import OperationRegion

# derandomize: every run draws the same examples, so the suite's outcome and
# wall time repeat; each test keeps its max_examples.
settings.register_profile(
    "suite", deadline=None, derandomize=True,
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


def split_k3_system():
    """(region, compound set, laws, table) of three binary users on one
    channel with four outputs 2 * y1 + y2: y1 is x1 through a BSC of
    crossover 0.02 when x2 = 0 and 0.2 when x2 = 1, and y2 is x2 xor x3
    through a BSC of 0.1. Rates are (0.02, 0.06) per user, laws uniform, and
    the region is (1,1,1) (2,1,1) (1,2,1). At n = 60 the best partition for
    user 1 decodes {1, 2, 3} on the first two members and {1} on the third,
    and greedy search scores higher."""
    probs = np.empty((2, 2, 2, 4))
    for x1, x2, x3, y1, y2 in itertools.product(range(2), repeat=5):
        p1 = 0.02 if x2 == 0 else 0.2
        probs[x1, x2, x3, 2 * y1 + y2] = (1 - p1 if y1 == x1 else p1) * (
            0.9 if y2 == x2 ^ x3 else 0.1)
    table = RateTable(((0.02, 0.06),) * 3)
    region = OperationRegion(tuple((RateVectorIndex(i), "c") for i in (
        (1, 1, 1), (2, 1, 1), (1, 2, 1))))
    return (region, CompoundSet((Dmc(3, 2, 4, probs),), ("c",)),
            uniform_laws(table, 2), table)


def random_laws(rng, table, a):
    entries = {}
    for u in range(1, table.num_users + 1):
        for i in range(1, table.num_classes + 1):
            v = rng.random(a) + 0.05
            entries[(u, i)] = v / v.sum()
    return InputLaws(entries)
