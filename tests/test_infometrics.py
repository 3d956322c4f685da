import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import bsc, random_dmc, random_laws, uniform_laws
from oracles import conditional_mi_chain, mi_conditional
from ramac.channels import Dmc, RateTable, RateVectorIndex
from ramac.infometrics import conditional_mi


def _mi(channel, laws, subset, k):
    """conditional_mi with every user at rate index 1."""
    return conditional_mi(channel, laws, RateVectorIndex((1,) * k),
                          frozenset(subset))


def test_noiseless_binary_capacity():
    ch = Dmc(1, 2, 2, np.eye(2))
    table = RateTable(((0.0,),))
    laws = uniform_laws(table, 2)
    assert abs(_mi(ch, laws, (), 1) - math.log(2)) < 1e-12


def test_useless_channel_zero():
    ch = bsc(0.5)
    table = RateTable(((0.0,),))
    laws = uniform_laws(table, 2)
    assert abs(_mi(ch, laws, (), 1)) < 1e-12


def test_xor_channel_conditioned():
    probs = np.zeros((2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, x1 ^ x2] = 1.0
    ch = Dmc(2, 2, 2, probs)
    table = RateTable(((0.0,), (0.0,)))
    laws = uniform_laws(table, 2)
    assert abs(_mi(ch, laws, (1,), 2) - math.log(2)) < 1e-12
    # unconditioned, Y is an unbiased coin independent of X1 alone
    assert abs(_mi(ch, laws, (), 2) - math.log(2)) < 1e-12


def test_full_subset_is_exactly_zero():
    rng = np.random.default_rng(5)
    ch = random_dmc(rng, 2, 2, 3)
    table = RateTable(((0.1,), (0.1,)))
    laws = random_laws(rng, table, 2)
    assert _mi(ch, laws, (1, 2), 2) == 0.0


@given(st.integers(min_value=0, max_value=20_000))
def test_mi_bounds_and_dual_paths(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    a = int(rng.integers(2, 4))
    b = int(rng.integers(2, 5))
    # occasional hard zeros in the channel tensor
    floor = 0.0 if seed % 3 else -0.3
    raw = np.maximum(rng.random((a,) * k + (b,)) + floor, 0.0)
    raw[..., 0] += 1e-9  # keep rows normalizable
    raw /= raw.sum(axis=-1, keepdims=True)
    ch = Dmc(k, a, b, raw)
    table = RateTable(tuple((0.1,) for _ in range(k)))
    laws = random_laws(rng, table, a)
    subset = tuple(int(u) for u in
                   rng.choice(np.arange(1, k + 1),
                              size=int(rng.integers(0, k + 1)), replace=False))
    direct = _mi(ch, laws, subset, k)
    chained = conditional_mi_chain(ch.probs,
                                   [laws.law(u, 1) for u in range(1, k + 1)],
                                   [u - 1 for u in subset])
    sbar = k - len(subset)
    assert -1e-12 <= direct <= math.log(min(a ** sbar, b)) + 1e-12
    assert abs(direct - chained) < 1e-10


@given(st.integers(min_value=0, max_value=20_000))
def test_mi_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    ch = random_dmc(rng, k, 2, 3)
    table = RateTable(tuple((0.1,) for _ in range(k)))
    laws = random_laws(rng, table, 2)
    subset = () if k == 1 else (1,)
    got = _mi(ch, laws, subset, k)
    want = mi_conditional(ch.probs, [laws.law(u, 1) for u in range(1, k + 1)],
                          [u - 1 for u in subset])
    assert abs(got - want) < 1e-10
