"""Channel models: validation, envelopes, rate plumbing, marginalization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ramac
from conftest import bsc, random_dmc, random_laws
from oracles import effective_rows
from ramac.channels import (CompoundSet, Dmc, InputLaws, RateTable,
                            RateVectorIndex, effective_channel, validate_dmc)
from ramac.errors import ValidationError


def test_validate_dmc_rejects_bad_shapes():
    with pytest.raises(ValidationError, match="raw tensor shape"):
        validate_dmc(np.ones((2, 3)) / 3, 1, 2, 2)
    with pytest.raises(ValidationError, match="negative entry"):
        validate_dmc(np.array([[1.1, -0.1], [0.5, 0.5]]), 1, 2, 2)
    with pytest.raises(ValidationError, match="outside tolerance"):
        validate_dmc(np.array([[0.6, 0.6], [0.5, 0.5]]), 1, 2, 2)


def test_validate_dmc_idempotent():
    raw = np.array([[0.3, 0.7], [0.9, 0.1]])
    raw[0] += 1e-13  # inside tolerance, triggers renormalization
    once = validate_dmc(raw, 1, 2, 2)
    twice = validate_dmc(once.probs, 1, 2, 2)
    assert np.array_equal(once.probs, twice.probs)


def test_dmc_probs_frozen():
    ch = bsc(0.1)
    with pytest.raises(ValueError):
        ch.probs[0, 0] = 0.5


def test_compound_set_lookup():
    comp = CompoundSet((bsc(0.1), bsc(0.2)), ("a", "b"))
    assert comp.by_id("b").probs[0, 1] == 0.2
    with pytest.raises(ValidationError):
        comp.by_id("c")


def test_envelope_sandwich_exact():
    members = (bsc(0.1), bsc(0.2), bsc(0.15))
    env = ramac.build_envelope(members, member_ids=("a", "b", "c"))
    for ch in members:
        assert np.all(env.pmin <= ch.probs)
        assert np.all(ch.probs <= env.pmax)
    assert np.array_equal(env.pmax, np.maximum.reduce([c.probs for c in members]))
    assert np.array_equal(env.pmin, np.minimum.reduce([c.probs for c in members]))


def test_envelope_rejects_zero_min_with_positive_max():
    ch1 = Dmc(1, 2, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    ch2 = bsc(0.3)
    with pytest.raises(ValidationError, match="lower envelope vanishes"):
        ramac.build_envelope((ch1, ch2), member_ids=("a", "b"))


def test_envelope_needs_one_member_id_per_channel():
    # an id per channel: too few used to leave a channel unnamed, and the
    # schedule then labelled it out of class
    a, b = bsc(0.1), bsc(0.2)
    for ids in (("a",), ("a", "b", "c")):
        with pytest.raises(ValidationError, match="members for 2"):
            ramac.build_envelope((a, b), member_ids=ids)
    with pytest.raises(TypeError):
        ramac.build_envelope((a, b))


def test_rate_table_contract():
    table = RateTable(((0.1, 0.2), (0.05, 0.3)))
    assert table.num_users == 2
    assert table.num_classes == 2
    assert table.rate(2, 1) == 0.05
    with pytest.raises(ValidationError):
        RateTable(((0.2, 0.1),))  # not increasing
    with pytest.raises(ValidationError):
        RateTable(((-0.1, 0.2),))


def test_rate_vector_index_checks():
    table = RateTable(((0.1, 0.2),))
    rvi = RateVectorIndex((2,))
    rvi.check_against(table)
    with pytest.raises(ValidationError):
        RateVectorIndex((3,)).check_against(table)
    with pytest.raises(ValidationError):
        RateVectorIndex((0,))


def test_rate_vector_agrees_on():
    a = RateVectorIndex((1, 2, 1))
    b = RateVectorIndex((1, 1, 1))
    assert a.agrees_on(b, frozenset({1, 3}))
    assert not a.agrees_on(b, frozenset({2}))
    assert a.agrees_on(b, frozenset())


def test_input_laws_restriction_renumbers():
    laws = InputLaws({(1, 1): np.array([0.5, 0.5]),
                      (2, 1): np.array([0.6, 0.4]),
                      (3, 1): np.array([0.7, 0.3])})
    sub = laws.restrict((1, 3))
    assert np.array_equal(sub.law(1, 1), laws.law(1, 1))
    assert np.array_equal(sub.law(2, 1), laws.law(3, 1))


def test_missing_law_raises():
    laws = InputLaws({(1, 1): np.array([0.5, 0.5])})
    with pytest.raises(ValidationError, match="no input law"):
        laws.law(1, 2)


@given(st.integers(min_value=0, max_value=10_000))
def test_effective_channel_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    a = int(rng.integers(2, 4))
    b = int(rng.integers(2, 4))
    ch = random_dmc(rng, k, a, b)
    table = RateTable(tuple((0.1,) for _ in range(k)))
    laws = random_laws(rng, table, a)
    keep = sorted(rng.choice(np.arange(1, k + 1), size=int(rng.integers(1, k)),
                             replace=False).tolist())
    comp_rates = {u: 1 for u in range(1, k + 1) if u not in keep}
    eff = effective_channel(ch, tuple(keep), comp_rates, laws)
    flat = eff.probs.reshape(-1, b)
    assert np.all(np.abs(flat.sum(axis=1) - 1.0) <= 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_effective_channel_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    a, b = 2, 3
    ch = random_dmc(rng, k, a, b)
    table = RateTable(tuple((0.1,) for _ in range(k)))
    laws = random_laws(rng, table, a)
    keep = sorted(rng.choice(np.arange(1, k + 1), size=int(rng.integers(1, k)),
                             replace=False).tolist())
    comp_rates = {u: 1 for u in range(1, k + 1) if u not in keep}
    eff = effective_channel(ch, tuple(keep), comp_rates, laws)
    law_list = [laws.law(u, 1) for u in range(1, k + 1)]
    expect = effective_rows(ch.probs, law_list, [u - 1 for u in keep])
    assert np.max(np.abs(eff.probs - expect)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_effective_channel_composes(seed):
    """Marginalizing in two steps equals marginalizing once over the union."""
    rng = np.random.default_rng(seed)
    k, a, b = 3, 2, 2
    ch = random_dmc(rng, k, a, b)
    table = RateTable(tuple((0.1,) for _ in range(k)))
    laws = random_laws(rng, table, a)
    step1 = effective_channel(ch, (1, 2), {3: 1}, laws)
    sub_laws = laws.restrict((1, 2))
    step2 = effective_channel(step1, (1,), {2: 1}, sub_laws)
    direct = effective_channel(ch, (1,), {2: 1, 3: 1}, laws)
    assert np.max(np.abs(step2.probs - direct.probs)) < 1e-12
