"""Pairwise exponents: anchors, oracle agreement, monotonicity, variants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramac
from conftest import FAST_OPT, bsc, random_dmc, random_laws
from oracles import ei_objective_direct, em_objective_direct, gallager_exponent_sweep

TINY_OPT = ramac.OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                                 refinement_rounds=0)


def _self_query(channel, rate):
    table = ramac.RateTable(((rate,),))
    laws = ramac.uniform_laws(table, channel.input_size)
    rvi = ramac.RateVectorIndex((1,))
    return ramac.ExponentQuery(frozenset(), rvi, channel, rvi, channel,
                               laws, table), table, laws


def test_noiseless_binary_em_is_log2():
    ch = ramac.Dmc(1, 2, 2, np.eye(2))
    q, _, _ = _self_query(ch, 0.0)
    res = ramac.em_exponent(q)
    assert abs(res.value - math.log(2)) < 1e-9


def test_optimizer_config_validation():
    with pytest.raises(ramac.ValidationError):
        ramac.OptimizerConfig(rho_grid_size=1)
    with pytest.raises(ramac.ValidationError):
        ramac.OptimizerConfig(epsilon=0.7)
    with pytest.raises(ramac.ValidationError):
        ramac.OptimizerConfig(refinement_shrink=1.0)


def test_result_within_constraint_set():
    q, _, _ = _self_query(bsc(0.08), 0.12)
    em = ramac.em_exponent(q)
    assert 1e-6 <= em.rho_star <= 1.0
    assert 1e-6 <= em.s_star <= 1.0
    ei = ramac.ei_exponent(q)
    assert 1e-6 <= ei.rho_star <= 1.0 - 1e-6
    assert 1e-6 <= ei.s_star <= 1.0 - ei.rho_star
    assert em.kind == "em" and ei.kind == "ei"


def test_mismatched_subset_rates_rejected():
    table = ramac.RateTable(((0.1, 0.2), (0.1, 0.2)))
    laws = ramac.uniform_laws(table, 2)
    rng = np.random.default_rng(0)
    ch = random_dmc(rng, 2, 2, 2)
    t = ramac.RateVectorIndex((1, 1))
    c = ramac.RateVectorIndex((2, 1))
    with pytest.raises(ramac.ConstraintViolation):
        ramac.ExponentQuery(frozenset({1}), t, ch, c, ch, laws, table)
    # agreement outside the subset is not required
    ramac.ExponentQuery(frozenset({2}), t, ch, c, ch, laws, table)


def test_gallager_reduction_tight():
    for rate in (0.05, 0.1, 0.2):
        q, _, _ = _self_query(bsc(0.1), rate)
        em = ramac.em_exponent(q)
        ref = gallager_exponent_sweep([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], rate)
        assert em.value >= ref - 1e-9
        assert abs(em.value - ref) < 1e-6


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_em_value_reproduced_by_direct_objective(seed):
    """Re-evaluating the printed formula at (rho*, s*) returns the value."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    a, b = 2, 2
    ch = random_dmc(rng, k, a, b, floor=0.02)
    table = ramac.RateTable(
        tuple(tuple(sorted(rng.random(2) * 0.3)) for _ in range(k)))
    laws = random_laws(rng, table, a)
    t_idx = tuple(int(v) for v in rng.integers(1, 3, size=k))
    subset = frozenset(
        int(u) for u in rng.choice(np.arange(1, k + 1),
                                   size=int(rng.integers(0, k)), replace=False))
    c_idx = tuple(t_idx[u - 1] if u in subset else int(rng.integers(1, 3))
                  for u in range(1, k + 1))
    t = ramac.RateVectorIndex(t_idx)
    c = ramac.RateVectorIndex(c_idx)
    q = ramac.ExponentQuery(subset, t, ch, c, ch, laws, table)
    em = ramac.em_exponent(q, TINY_OPT)
    law_map = {(u, i): laws.law(u, i) for u in range(1, k + 1) for i in (1, 2)}
    direct = em_objective_direct(subset, t_idx, c_idx, ch.probs, ch.probs,
                                 law_map, table.rates, em.rho_star, em.s_star,
                                 k, a)
    assert abs(em.value - direct) < 1e-12
    ei = ramac.ei_exponent(q, TINY_OPT)
    direct_i = ei_objective_direct(subset, t_idx, c_idx, ch.probs, ch.probs,
                                   law_map, table.rates, ei.rho_star,
                                   ei.s_star, k, a)
    assert abs(ei.value - direct_i) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@example(130)  # a probe at rho ~ 4.5e-4 once underflowed the direct oracle
@settings(max_examples=40)
def test_grid_max_dominates_probes(seed):
    rng = np.random.default_rng(seed)
    ch = random_dmc(rng, 1, 2, 3, floor=0.05)
    q, table, laws = _self_query(ch, float(rng.random() * 0.2))
    em = ramac.em_exponent(q, TINY_OPT)
    law_map = {(1, 1): laws.law(1, 1)}
    for _ in range(5):
        rho = float(rng.uniform(1e-6, 1.0))
        s = float(rng.uniform(1e-6, 1.0))
        probe = em_objective_direct(frozenset(), (1,), (1,), ch.probs,
                                    ch.probs, law_map, table.rates, rho, s,
                                    1, 2)
        # coarse grid: the max can only miss by the grid's resolution
        assert em.value >= probe - 0.05


def test_singleton_class_equals_finite():
    rng = np.random.default_rng(42)
    for _ in range(20):
        ch = random_dmc(rng, 1, 2, 2, floor=0.05)
        env = ramac.build_envelope((ch,))
        rate = float(rng.random() * 0.3)
        table = ramac.RateTable(((rate,),))
        laws = ramac.uniform_laws(table, 2)
        rvi = ramac.RateVectorIndex((1,))
        qf = ramac.ExponentQuery(frozenset(), rvi, ch, rvi, ch, laws, table)
        qc = ramac.ExponentQuery(frozenset(), rvi, env, rvi, env, laws, table)
        assert abs(ramac.em_exponent(qf, TINY_OPT).value
                   - ramac.em_class_exponent(qc, TINY_OPT).value) < 1e-12
        assert abs(ramac.ei_exponent(qf, TINY_OPT).value
                   - ramac.ei_class_exponent(qc, TINY_OPT).value) < 1e-12


def test_mixing_envelope_and_dmc_rejected():
    ch = bsc(0.1)
    env = ramac.build_envelope((ch,))
    table = ramac.RateTable(((0.1,),))
    laws = ramac.uniform_laws(table, 2)
    rvi = ramac.RateVectorIndex((1,))
    with pytest.raises(ramac.ValidationError):
        ramac.ExponentQuery(frozenset(), rvi, ch, rvi, env, laws, table)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_em_monotone_in_competing_rate(seed):
    rng = np.random.default_rng(seed)
    ch = random_dmc(rng, 1, 2, 2, floor=0.02)
    lo, hi = sorted(rng.random(2) * 0.4 + 0.01)
    table = ramac.RateTable(((lo, lo + hi + 0.01),))
    laws_vec = rng.random(2) + 0.1
    laws_vec /= laws_vec.sum()
    laws = ramac.InputLaws({(1, 1): laws_vec, (1, 2): laws_vec})
    t = ramac.RateVectorIndex((1,))
    q_lo = ramac.ExponentQuery(frozenset(), t, ch, ramac.RateVectorIndex((1,)),
                               ch, laws, table)
    q_hi = ramac.ExponentQuery(frozenset(), t, ch, ramac.RateVectorIndex((2,)),
                               ch, laws, table)
    assert ramac.em_exponent(q_hi, FAST_OPT).value <= \
        ramac.em_exponent(q_lo, FAST_OPT).value + 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_ei_monotone_in_true_rate(seed):
    rng = np.random.default_rng(seed)
    ch = random_dmc(rng, 1, 2, 2, floor=0.02)
    lo, hi = sorted(rng.random(2) * 0.4 + 0.01)
    table = ramac.RateTable(((lo, lo + hi + 0.01),))
    laws_vec = rng.random(2) + 0.1
    laws_vec /= laws_vec.sum()
    laws = ramac.InputLaws({(1, 1): laws_vec, (1, 2): laws_vec})
    comp = ramac.RateVectorIndex((1,))
    q_lo = ramac.ExponentQuery(frozenset(), ramac.RateVectorIndex((1,)), ch,
                               comp, ch, laws, table)
    q_hi = ramac.ExponentQuery(frozenset(), ramac.RateVectorIndex((2,)), ch,
                               comp, ch, laws, table)
    assert ramac.ei_exponent(q_hi, FAST_OPT).value <= \
        ramac.ei_exponent(q_lo, FAST_OPT).value + 1e-12


def test_objectives_finite_on_larger_alphabets():
    rng = np.random.default_rng(9)
    ch = random_dmc(rng, 2, 5, 16)
    table = ramac.RateTable(((0.2,), (0.3,)))
    laws = random_laws(rng, table, 5)
    rvi = ramac.RateVectorIndex((1, 1))
    q = ramac.ExponentQuery(frozenset(), rvi, ch, rvi, ch, laws, table)
    em = ramac.em_exponent(q, TINY_OPT)
    ei = ramac.ei_exponent(q, TINY_OPT)
    assert math.isfinite(em.value)
    assert math.isfinite(ei.value)


def test_ledger_full_decoded_set_reduces_to_full_query():
    """Decoding every user leaves the channel untouched."""
    rng = np.random.default_rng(3)
    ch = random_dmc(rng, 2, 2, 2, floor=0.05)
    table = ramac.RateTable(((0.1, 0.2), (0.1, 0.2)))
    laws = ramac.uniform_laws(table, 2)
    t = ramac.RateVectorIndex((1, 2))
    c = ramac.RateVectorIndex((2, 2))
    full = ramac.ExponentQuery(frozenset(), t, ch, c, ch, laws, table)
    want = ramac.em_exponent(full, TINY_OPT)
    ledger = ramac.ExponentLedger({"c": ch}, laws, table, TINY_OPT,
                                  users_d={1, 2})
    got = ledger.get("em", frozenset(), (t, "c"), (c, "c"))
    assert got == want


# Exact (value, rho_star, s_star, evaluations) of the per-point scalar grid
# search, recorded before the optimiser evaluated each refinement round as one
# batch: the batch must keep the probe order and the strictly-better tie rule.
PIN_OPT = ramac.OptimizerConfig(rho_grid_size=16, s_grid_size=16,
                                refinement_rounds=3)


def _pin_k2_query():
    ch = ramac.Dmc(2, 2, 3, np.array([[[0.7, 0.3, 0.0], [0.2, 0.5, 0.3]],
                                      [[0.1, 0.1, 0.8], [0.0, 0.4, 0.6]]]))
    table = ramac.RateTable(((0.01, 0.05), (0.02, 0.08)))
    laws = ramac.InputLaws({(1, 1): np.array([0.5, 0.5]),
                            (1, 2): np.array([0.3, 0.7]),
                            (2, 1): np.array([0.6, 0.4]),
                            (2, 2): np.array([0.5, 0.5])})
    rvi = ramac.RateVectorIndex((2, 2))
    return ramac.ExponentQuery(frozenset({1}), rvi, ch, rvi, ch, laws, table)


def _pin_envelope_query():
    env = ramac.build_envelope((bsc(0.05), bsc(0.15)))
    return _self_query(env, 0.02)[0]


@pytest.mark.parametrize("solve, make_query, cfg, want", [
    (ramac.em_exponent,
     lambda: _self_query(ramac.Dmc(1, 2, 2, np.eye(2)), 0.0)[0],
     ramac.OptimizerConfig(),
     (0.6931471805599453, 1.0, 1e-06, 8319)),
    (ramac.ei_exponent, lambda: _self_query(bsc(0.1), 0.1)[0],
     ramac.OptimizerConfig(),
     (0.06371771498978279, 0.42857157142857144, 0.5714284285714286, 8192)),
    (ramac.em_class_exponent, _pin_envelope_query, PIN_OPT,
     (-0.06862146241803133, 0.95111116, 0.208000792, 1087)),
    (ramac.ei_class_exponent, _pin_envelope_query, PIN_OPT,
     (-0.09487527049201365, 0.029867606933333332, 0.9701323930666667, 1024)),
    (ramac.em_exponent, _pin_k2_query, PIN_OPT,
     (0.006968260461058327, 0.39013394319999994, 0.2806448580788815, 1087)),
    (ramac.ei_exponent, _pin_k2_query, PIN_OPT,
     (0.005483543308400139, 0.2666671333333333, 0.7333328666666667, 512)),
], ids=["em-noiseless", "ei-finite", "em-class", "ei-class", "em-k2-subset",
        "ei-k2-subset"])
def test_optimizer_decisions_pinned(solve, make_query, cfg, want):
    res = solve(make_query(), cfg)
    assert (res.value, res.rho_star, res.s_star, res.evaluations) == want
