"""Acceptance gate: ten end-to-end checks with stated tolerances and budgets.

Each test prints one summary line with the measured values; the pytest verdict
per test is the pass/fail line of the corresponding criterion.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import ramac
from conftest import bsc, random_dmc, split_k3_system, uniform_laws
from oracles import (gallager_exponent_sweep, pairwise_tail, tau_by_bisection,
                     taus, two_codeword_ml_error)
from ramac import config as cfgmod
from ramac.bounds import pes_bound_ddecoder, pes_bound_single_user
from ramac.channels import (CompoundSet, Dmc, RateTable, RateVectorIndex,
                            validate_dmc)
from ramac.exponents import ExponentQuery, OptimizerConfig
from ramac.logdomain import logsumexp
from ramac.regions import OperationRegion, subsets_containing
from ramac.sim import CodebookSet, build_threshold_tables

SMALL_OPT = OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                            refinement_rounds=0)


@pytest.fixture(scope="module")
def scenario4():
    """Criterion-4 system: K=1, {BSC(0.05), BSC(0.15)}, r=0.1, both pairs."""
    comp = CompoundSet((bsc(0.05), bsc(0.15)), ("clean", "noisy"))
    table = RateTable(((0.1,),))
    laws = uniform_laws(table, 2)
    rvi = RateVectorIndex((1,))
    region = OperationRegion(((rvi, "clean"), (rvi, "noisy")), "finite")
    ledger = ramac.ExponentLedger(comp, laws, table, OptimizerConfig())
    state = {"comp": comp, "table": table, "laws": laws, "region": region,
             "ledger": ledger, "cache": {}}

    def bound(n):
        if n not in state["cache"]:
            state["cache"][n] = ramac.pes_bound_finite(region, ledger, n)
        return state["cache"][n]

    state["bound"] = bound
    return state


def test_criterion_01_noiseless_em_is_log2():
    ch = validate_dmc([[1.0, 0.0], [0.0, 1.0]], 1, 2, 2)
    table = RateTable(((0.0,),))
    laws = uniform_laws(table, 2)
    rvi = RateVectorIndex((1,))
    start = time.perf_counter()
    res = ramac.em_exponent(
        ExponentQuery(frozenset(), rvi, ch, rvi, ch, laws, table))
    elapsed = time.perf_counter() - start
    err = abs(res.value - math.log(2))
    print(f"criterion 01: em={res.value:.12f}, |err|={err:.3g}, "
          f"{elapsed:.2f}s")
    assert err <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_gallager_reduction():
    ch = bsc(0.1)
    law = np.array([0.5, 0.5])
    start = time.perf_counter()
    worst = 0.0
    for rate in (0.05, 0.1, 0.2):
        table = RateTable(((rate,),))
        laws = uniform_laws(table, 2)
        rvi = RateVectorIndex((1,))
        em = ramac.em_exponent(
            ExponentQuery(frozenset(), rvi, ch, rvi, ch, laws, table))
        ref = gallager_exponent_sweep(ch.probs.tolist(), law.tolist(), rate)
        worst = max(worst, abs(em.value - ref))
    elapsed = time.perf_counter() - start
    print(f"criterion 02: worst |em - gallager| = {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_03_envelopes_and_singleton_classes():
    env = ramac.build_envelope((bsc(0.1), bsc(0.2)), class_id="pool",
                               member_ids=("a", "b"))
    stack = np.stack([bsc(0.1).probs, bsc(0.2).probs])
    assert np.array_equal(env.pmax, np.max(stack, axis=0))
    assert np.array_equal(env.pmin, np.min(stack, axis=0))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 3))
        ch = random_dmc(rng, k, 2, 2, floor=0.05)
        single = ramac.build_envelope((ch,), class_id="one", member_ids=("c",))
        r1 = float(rng.uniform(0.01, 0.08))
        r2 = r1 + float(rng.uniform(0.01, 0.1))
        table = RateTable(tuple((r1, r2) for _ in range(k)))
        laws = uniform_laws(table, 2)
        t = RateVectorIndex(tuple(int(v) for v in
                                  rng.integers(1, 3, size=k)))
        c = RateVectorIndex(tuple(int(v) for v in
                                  rng.integers(1, 3, size=k)))
        qf = ExponentQuery(frozenset(), t, ch, c, ch, laws, table)
        qc = ExponentQuery(frozenset(), t, single, c, single, laws, table)
        worst = max(worst, abs(ramac.em_exponent(qf, SMALL_OPT).value
                               - ramac.em_exponent(qc, SMALL_OPT).value))
        worst = max(worst, abs(ramac.ei_exponent(qf, SMALL_OPT).value
                               - ramac.ei_exponent(qc, SMALL_OPT).value))
    print(f"criterion 03: extrema exact, worst singleton gap = {worst:.3g} "
          f"over 100 instances")
    assert worst <= 1e-12


def test_criterion_04_bound_dominates_simulation(scenario4):
    start = time.perf_counter()
    bound = scenario4["bound"](16).clamped_bound
    report = ramac.estimate_errors(
        scenario4["region"], scenario4["comp"], scenario4["ledger"], 16,
        100000, 2024, bound=bound)
    elapsed = time.perf_counter() - start
    print(f"criterion 04: empirical={report.system_error_rate:.6g} "
          f"(case {report.system_case}), bound={bound:.6g}, "
          f"3sigma={3 * report.system_std:.2g}, {elapsed:.1f}s")
    assert report.bound_holds
    assert elapsed < 300.0
    scenario4["sim_report"] = report


def test_criterion_05_bound_slope_matches_exponent(scenario4):
    n = 100000
    report = scenario4["bound"](n)
    se = ramac.system_exponent(scenario4["region"], scenario4["ledger"])
    gap = abs(-report.log_bound / n - se.value)
    print(f"criterion 05: -log_bound/N = {-report.log_bound / n:.9g}, "
          f"system exponent = {se.value:.9g}, gap = {gap:.3g}")
    assert gap <= 1e-3


def test_criterion_06_partition_search_is_optimal():
    def channel(p_low, p_high):
        probs = np.empty((2, 2, 2))
        for x1, x2 in itertools.product(range(2), range(2)):
            p = p_low if x2 == 0 else p_high
            probs[x1, x2, 1 - x1] = p
            probs[x1, x2, x1] = 1 - p
        return Dmc(2, 2, 2, probs)

    table = RateTable(((0.02, 0.05), (0.02, 0.05)))
    r11, r21 = RateVectorIndex((1, 1)), RateVectorIndex((2, 1))
    n = 60
    # one channel; two, the region naming both and leaving (2,1):d out; and
    # three users, whose best partition splits the region
    k3_region, k3_comp, _, k3_table = split_k3_system()
    cases = {
        "one channel": (OperationRegion(((r11, "c"), (r21, "c")),
                                        "finite"),
                        CompoundSet((channel(0.05, 0.2),), ("c",)), table),
        "two channels": (OperationRegion(((r11, "c"), (r21, "c"),
                                          (r11, "d")), "finite"),
                         CompoundSet((channel(0.05, 0.2),
                                      channel(0.1, 0.25)), ("c", "d")), table),
        "three users": (k3_region, k3_comp, k3_table),
    }
    for label, (region, comp, table) in cases.items():
        laws = uniform_laws(table, 2)
        choices = subsets_containing(1, table.num_users)
        ledger = ramac.ExponentLedger(comp, laws, table, SMALL_OPT)
        exhaustive = pes_bound_single_user(1, region, ledger, n,
                                           search="exhaustive")
        greedy = pes_bound_single_user(1, region, ledger, n,
                                       search="greedy")
        best = math.inf
        for assign in itertools.product(choices, repeat=len(region.members)):
            blocks = {}
            for member, users_d in zip(region.members, assign):
                blocks.setdefault(users_d, []).append(member)
            logs = [pes_bound_ddecoder(
                        OperationRegion(block), ramac.ExponentLedger(
                            comp, laws, table, SMALL_OPT, users_d), n).log_bound
                    for users_d, block in blocks.items()]
            best = min(best, logsumexp(logs))
        print(f"criterion 06 ({label}): exhaustive={exhaustive.log_bound:.9g}, "
              f"greedy={greedy.log_bound:.9g}, brute={best:.9g}")
        assert exhaustive.log_bound <= greedy.log_bound
        assert exhaustive.log_bound == best


def test_criterion_07_threshold_closed_form_vs_bisection():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = int(rng.integers(2, 4))
        b = int(rng.integers(2, 5))
        probs = rng.uniform(0.05, 1.0, size=(a, b))
        probs /= probs.sum(axis=1, keepdims=True)
        ch = validate_dmc(probs, 1, a, b)
        r1 = float(rng.uniform(0.01, 0.2))
        table = RateTable(((r1, r1 + 0.1),))
        laws = uniform_laws(table, a)
        rho = float(rng.uniform(0.15, 1.0))
        s2 = rho * float(rng.uniform(0.05, 0.95))
        y = rng.integers(0, b, size=int(rng.integers(4, 30)))
        tables = build_threshold_tables(
            RateVectorIndex((1,)), ch, frozenset(), laws, table, rho, s2,
            RateVectorIndex((2,)), ch)
        counts = np.bincount(y, minlength=b).astype(float)
        tau = float(taus(tables, counts[None], len(y))[0])
        direct = tau_by_bisection(y, tables, len(y))
        worst = max(worst, abs(direct - tau) / max(1.0, abs(tau)))
    print(f"criterion 07: worst relative tau gap = {worst:.3g} "
          f"over 1000 instances")
    assert worst <= 1e-9


@pytest.fixture(scope="module")
def scenario8():
    """Criterion-8 system: BSC(0.1), two fixed codewords at distance 4, N=8."""
    p, n = 0.1, 8
    comp = CompoundSet((bsc(p),), ("bsc",))
    table = RateTable(((math.log(2) / n,),))
    laws = uniform_laws(table, 2)
    region = OperationRegion(((RateVectorIndex((1,)), "bsc"),),
                             "finite")
    cw = np.array([[0] * n, [1, 1, 1, 1, 0, 0, 0, 0]])
    books = CodebookSet({(1, 1): cw})
    return {"p": p, "n": n, "comp": comp, "table": table, "laws": laws,
            "region": region, "cw": cw, "books": books}


def _small_ledger(s):
    return ramac.ExponentLedger(s["comp"], s["laws"], s["table"], SMALL_OPT)


def test_criterion_08_exact_matches_tail_and_monte_carlo(scenario8):
    s = scenario8
    exact = ramac.exact_conditional_errors(
        s["region"], s["laws"], s["table"], s["n"], compound=s["comp"],
        codebooks=s["books"], cfg=SMALL_OPT)
    truth = exact.cases[0].probability
    tail = pairwise_tail(s["p"], 4)
    brute = 0.5 * (two_codeword_ml_error(s["p"], s["cw"][0], s["cw"][1])
                   + two_codeword_ml_error(s["p"], s["cw"][1], s["cw"][0]))
    mc = ramac.estimate_errors(
        s["region"], s["comp"], _small_ledger(s), s["n"], 100000, 77,
        codebooks=s["books"])
    sigma = math.sqrt(truth * (1 - truth) / 100000)
    gap = abs(mc.cases[0].rate - truth)
    print(f"criterion 08: exact={truth:.9g}, tail={tail:.9g}, "
          f"brute={brute:.9g}, mc={mc.cases[0].rate:.6g}, "
          f"|mc-exact|={gap:.3g} vs 3sigma={3 * sigma:.3g}")
    assert abs(truth - tail) <= 1e-12
    assert abs(truth - brute) <= 1e-12
    assert gap <= 3 * sigma


def test_criterion_09_monotonicity_suite(scenario4):
    rng = np.random.default_rng(31)
    tol = 1e-12
    for i in range(200):
        k = 1 if i % 2 == 0 else 2
        ch = random_dmc(rng, k, 2, 2, floor=0.05)
        r1 = float(rng.uniform(0.005, 0.05))
        r2 = r1 + float(rng.uniform(0.01, 0.15))
        table = RateTable(tuple((r1, r2) for _ in range(k)))
        laws = uniform_laws(table, 2)
        lo = RateVectorIndex((1,) * k)
        hi = RateVectorIndex((2,) * k)
        em_lo = ramac.em_exponent(ExponentQuery(
            frozenset(), lo, ch, lo, ch, laws, table), SMALL_OPT).value
        em_hi = ramac.em_exponent(ExponentQuery(
            frozenset(), lo, ch, hi, ch, laws, table), SMALL_OPT).value
        assert em_hi <= em_lo + tol
        ei_lo = ramac.ei_exponent(ExponentQuery(
            frozenset(), lo, ch, hi, ch, laws, table), SMALL_OPT).value
        ei_hi = ramac.ei_exponent(ExponentQuery(
            frozenset(), hi, ch, hi, ch, laws, table), SMALL_OPT).value
        assert ei_hi <= ei_lo + tol
    se = ramac.system_exponent(scenario4["region"], scenario4["ledger"])
    assert se.value > 0
    bounds = [scenario4["bound"](n).raw_bound for n in (10, 100, 1000)]
    print(f"criterion 09: 200 instances monotone; raw bounds at "
          f"N=10/100/1000: {bounds[0]:.3g} >= {bounds[1]:.3g} >= "
          f"{bounds[2]:.3g}")
    assert bounds[0] >= bounds[1] >= bounds[2]


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path, scenario4,
                                                       scenario8):
    paths = []
    for tag in ("one", "two"):
        sim = ramac.estimate_errors(
            scenario4["region"], scenario4["comp"], scenario4["ledger"], 16,
            100000, 2024, bound=scenario4["bound"](16).clamped_bound)
        s = scenario8
        exact = ramac.exact_conditional_errors(
            s["region"], s["laws"], s["table"], s["n"], compound=s["comp"],
            codebooks=s["books"], cfg=SMALL_OPT)
        mc = ramac.estimate_errors(
            s["region"], s["comp"], _small_ledger(s), s["n"], 100000, 77,
            codebooks=s["books"])
        path = str(tmp_path / f"runs_{tag}.json")
        cfgmod.write_record(path, {"criterion4": sim,
                                   "criterion8_exact": exact,
                                   "criterion8_mc": mc})
        paths.append(path)
    same = Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()
    print(f"criterion 10: records byte-identical = {same}")
    assert same
