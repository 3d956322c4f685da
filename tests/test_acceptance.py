"""Acceptance gate: ten end-to-end checks with stated tolerances and budgets.

Each test prints one summary line with the measured values; the pytest verdict
per test is the pass/fail line of the corresponding criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

import ramac
from ramac import config as cfgmod
from ramac.logdomain import logsumexp_list
from conftest import bsc, random_dmc
from oracles import (gallager_exponent_sweep, pairwise_tail, tau_by_bisection,
                     two_codeword_ml_error)

SMALL_OPT = ramac.OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                                  refinement_rounds=0)


@pytest.fixture(scope="module")
def scenario4():
    """Criterion-4 system: K=1, {BSC(0.05), BSC(0.15)}, r=0.1, both pairs."""
    comp = ramac.CompoundSet((bsc(0.05), bsc(0.15)), ("clean", "noisy"))
    table = ramac.RateTable(((0.1,),))
    laws = ramac.uniform_laws(table, 2)
    rvi = ramac.RateVectorIndex((1,))
    region = ramac.OperationRegion(((rvi, "clean"), (rvi, "noisy")), "finite")
    cfg = ramac.OptimizerConfig()
    state = {"comp": comp, "table": table, "laws": laws, "region": region,
             "cfg": cfg, "cache": {}}

    def bound(n):
        if n not in state["cache"]:
            state["cache"][n] = ramac.pes_bound_finite(
                region, comp, laws, table, n, cfg)
        return state["cache"][n]

    state["bound"] = bound
    return state


def test_criterion_01_noiseless_em_is_log2():
    ch = ramac.validate_dmc([[1.0, 0.0], [0.0, 1.0]], 1, 2, 2)
    table = ramac.RateTable(((0.0,),))
    laws = ramac.uniform_laws(table, 2)
    rvi = ramac.RateVectorIndex((1,))
    start = time.perf_counter()
    res = ramac.em_exponent(
        ramac.ExponentQuery(frozenset(), rvi, ch, rvi, ch, laws, table))
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
        table = ramac.RateTable(((rate,),))
        laws = ramac.uniform_laws(table, 2)
        rvi = ramac.RateVectorIndex((1,))
        em = ramac.em_exponent(
            ramac.ExponentQuery(frozenset(), rvi, ch, rvi, ch, laws, table))
        ref = gallager_exponent_sweep(ch.probs.tolist(), law.tolist(), rate)
        worst = max(worst, abs(em.value - ref))
    elapsed = time.perf_counter() - start
    print(f"criterion 02: worst |em - gallager| = {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_03_envelopes_and_singleton_classes():
    env = ramac.build_envelope((bsc(0.1), bsc(0.2)), class_id="pool")
    stack = np.stack([bsc(0.1).probs, bsc(0.2).probs])
    assert np.array_equal(env.pmax, np.max(stack, axis=0))
    assert np.array_equal(env.pmin, np.min(stack, axis=0))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 3))
        ch = random_dmc(rng, k, 2, 2, floor=0.05)
        single = ramac.build_envelope((ch,), class_id="one")
        r1 = float(rng.uniform(0.01, 0.08))
        r2 = r1 + float(rng.uniform(0.01, 0.1))
        table = ramac.RateTable(tuple((r1, r2) for _ in range(k)))
        laws = ramac.uniform_laws(table, 2)
        t = ramac.RateVectorIndex(tuple(int(v) for v in
                                        rng.integers(1, 3, size=k)))
        c = ramac.RateVectorIndex(tuple(int(v) for v in
                                        rng.integers(1, 3, size=k)))
        qf = ramac.ExponentQuery(frozenset(), t, ch, c, ch, laws, table)
        qc = ramac.ExponentQuery(frozenset(), t, single, c, single, laws, table)
        worst = max(worst, abs(ramac.em_exponent(qf, SMALL_OPT).value
                               - ramac.em_class_exponent(qc, SMALL_OPT).value))
        worst = max(worst, abs(ramac.ei_exponent(qf, SMALL_OPT).value
                               - ramac.ei_class_exponent(qc, SMALL_OPT).value))
    print(f"criterion 03: extrema exact, worst singleton gap = {worst:.3g} "
          f"over 100 instances")
    assert worst <= 1e-12


def test_criterion_04_bound_dominates_simulation(scenario4):
    start = time.perf_counter()
    bound = scenario4["bound"](16).clamped_bound
    report = ramac.estimate_errors(
        scenario4["region"], scenario4["laws"], scenario4["table"], 16,
        100000, 2024, compound=scenario4["comp"], cfg=scenario4["cfg"],
        bound=bound)
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
    se = ramac.system_exponent(scenario4["region"], scenario4["comp"],
                               scenario4["laws"], scenario4["table"],
                               scenario4["cfg"])
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
        return ramac.Dmc(2, 2, 2, probs)

    table = ramac.RateTable(((0.02, 0.05), (0.02, 0.05)))
    laws = ramac.uniform_laws(table, 2)
    r11, r21 = ramac.RateVectorIndex((1, 1)), ramac.RateVectorIndex((2, 1))
    n = 60
    # one channel; and two, the region naming both and leaving (2,1):d out
    cases = {
        "one channel": (ramac.OperationRegion(((r11, "c"), (r21, "c")),
                                              "finite"),
                        ramac.CompoundSet((channel(0.05, 0.2),), ("c",))),
        "two channels": (ramac.OperationRegion(((r11, "c"), (r21, "c"),
                                                (r11, "d")), "finite"),
                         ramac.CompoundSet((channel(0.05, 0.2),
                                            channel(0.1, 0.25)), ("c", "d"))),
    }
    choices = ramac.subsets_containing(1, 2)
    for label, (region, comp) in cases.items():
        exhaustive = ramac.pes_bound_single_user(
            1, region, comp, laws, table, n, search="exhaustive", cfg=SMALL_OPT)
        greedy = ramac.pes_bound_single_user(
            1, region, comp, laws, table, n, search="greedy", cfg=SMALL_OPT)
        best = math.inf
        for assign in itertools.product(choices, repeat=len(region.members)):
            blocks = {}
            for member, users_d in zip(region.members, assign):
                blocks.setdefault(users_d, []).append(member)
            logs = [ramac.pes_bound_ddecoder(
                        users_d, ramac.OperationRegion(block), comp, laws,
                        table, n, SMALL_OPT).log_bound
                    for users_d, block in blocks.items()]
            best = min(best, logsumexp_list(logs))
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
        ch = ramac.validate_dmc(probs, 1, a, b)
        r1 = float(rng.uniform(0.01, 0.2))
        table = ramac.RateTable(((r1, r1 + 0.1),))
        laws = ramac.uniform_laws(table, a)
        rho = float(rng.uniform(0.15, 1.0))
        s2 = rho * float(rng.uniform(0.05, 0.95))
        y = rng.integers(0, b, size=int(rng.integers(4, 30)))
        tables = ramac.build_threshold_tables(
            ramac.RateVectorIndex((1,)), ch, frozenset(), laws, table, rho, s2,
            ramac.RateVectorIndex((2,)), ch)
        counts = np.bincount(y, minlength=b).astype(float)
        tau = float(tables.taus(counts[None], len(y))[0])
        direct = tau_by_bisection(y, tables, len(y))
        worst = max(worst, abs(direct - tau) / max(1.0, abs(tau)))
    print(f"criterion 07: worst relative tau gap = {worst:.3g} "
          f"over 1000 instances")
    assert worst <= 1e-9


@pytest.fixture(scope="module")
def scenario8():
    """Criterion-8 system: BSC(0.1), two fixed codewords at distance 4, N=8."""
    p, n = 0.1, 8
    comp = ramac.CompoundSet((bsc(p),), ("bsc",))
    table = ramac.RateTable(((math.log(2) / n,),))
    laws = ramac.uniform_laws(table, 2)
    region = ramac.OperationRegion(((ramac.RateVectorIndex((1,)), "bsc"),),
                                   "finite")
    cw = np.array([[0] * n, [1, 1, 1, 1, 0, 0, 0, 0]])
    books = ramac.CodebookSet(seed=0, n=n, entries={(1, 1): cw})
    return {"p": p, "n": n, "comp": comp, "table": table, "laws": laws,
            "region": region, "cw": cw, "books": books}


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
        s["region"], s["laws"], s["table"], s["n"], 100000, 77,
        compound=s["comp"], cfg=SMALL_OPT, codebooks=s["books"])
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
        table = ramac.RateTable(tuple((r1, r2) for _ in range(k)))
        laws = ramac.uniform_laws(table, 2)
        lo = ramac.RateVectorIndex((1,) * k)
        hi = ramac.RateVectorIndex((2,) * k)
        em_lo = ramac.em_exponent(ramac.ExponentQuery(
            frozenset(), lo, ch, lo, ch, laws, table), SMALL_OPT).value
        em_hi = ramac.em_exponent(ramac.ExponentQuery(
            frozenset(), lo, ch, hi, ch, laws, table), SMALL_OPT).value
        assert em_hi <= em_lo + tol
        ei_lo = ramac.ei_exponent(ramac.ExponentQuery(
            frozenset(), lo, ch, hi, ch, laws, table), SMALL_OPT).value
        ei_hi = ramac.ei_exponent(ramac.ExponentQuery(
            frozenset(), hi, ch, hi, ch, laws, table), SMALL_OPT).value
        assert ei_hi <= ei_lo + tol
    se = ramac.system_exponent(scenario4["region"], scenario4["comp"],
                               scenario4["laws"], scenario4["table"],
                               scenario4["cfg"])
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
            scenario4["region"], scenario4["laws"], scenario4["table"], 16,
            100000, 2024, compound=scenario4["comp"], cfg=scenario4["cfg"],
            bound=scenario4["bound"](16).clamped_bound)
        s = scenario8
        exact = ramac.exact_conditional_errors(
            s["region"], s["laws"], s["table"], s["n"], compound=s["comp"],
            codebooks=s["books"], cfg=SMALL_OPT)
        mc = ramac.estimate_errors(
            s["region"], s["laws"], s["table"], s["n"], 100000, 77,
            compound=s["comp"], cfg=SMALL_OPT, codebooks=s["books"])
        path = str(tmp_path / f"runs_{tag}.json")
        cfgmod.write_record(path, {"criterion4": sim,
                                   "criterion8_exact": exact,
                                   "criterion8_mc": mc})
        paths.append(path)
    same = open(paths[0], "rb").read() == open(paths[1], "rb").read()
    print(f"criterion 10: records byte-identical = {same}")
    assert same
