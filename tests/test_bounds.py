"""Slot bound assembly: ledger consistency, branch structure, partitions."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import ramac
from conftest import FAST_OPT, bsc, random_dmc
from ramac import config as cfgmod
from ramac.logdomain import logsumexp_list

TINY_OPT = ramac.OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                                 refinement_rounds=0)


def _pair_scenario():
    comp = ramac.CompoundSet((bsc(0.05), bsc(0.15)), ("a", "b"))
    table = ramac.RateTable(((0.1,),))
    laws = ramac.uniform_laws(table, 2)
    rvi = ramac.RateVectorIndex((1,))
    region = ramac.OperationRegion(((rvi, "a"), (rvi, "b")), "finite")
    return comp, table, laws, region


def _rich_scenario():
    """Two rate classes so the region has a nonempty complement."""
    comp = ramac.CompoundSet((bsc(0.05), bsc(0.2)), ("a", "b"))
    table = ramac.RateTable(((0.05, 0.3),))
    laws = ramac.uniform_laws(table, 2)
    r1, r2 = ramac.RateVectorIndex((1,)), ramac.RateVectorIndex((2,))
    region = ramac.OperationRegion(((r1, "a"), (r1, "b"), (r2, "a")), "finite")
    return comp, table, laws, region


def test_ledger_reproduces_branch_totals():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, comp, laws, table, 40, TINY_OPT)
    for branch, want in (("decode", report.decode_log),
                         ("collision", report.collision_log)):
        per_pair = {}
        for t in report.terms:
            if t.branch != branch or not t.attained:
                continue
            per_pair.setdefault(t.true_pair, []).append(t.log_weight)
        if per_pair:
            best = max(logsumexp_list(v) for v in per_pair.values())
            assert abs(best - want) < 1e-10 * max(1.0, abs(want))
        else:
            assert want == -math.inf


def test_pair_totals_match_terms():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, comp, laws, table, 25, TINY_OPT)
    for branch, pair, total in report.pair_totals:
        logs = [t.log_weight for t in report.terms
                if t.branch == branch and t.true_pair == pair and t.attained]
        assert abs(logsumexp_list(logs) - total) < 1e-10


def test_bound_branch_max_structure():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, comp, laws, table, 30, TINY_OPT)
    assert report.log_bound == max(report.decode_log, report.collision_log)
    assert report.raw_bound == math.exp(report.log_bound)
    assert report.clamped_bound == min(1.0, report.raw_bound)


def test_empty_complement_kills_collision_branch():
    comp, table, laws, region = _pair_scenario()
    report = ramac.pes_bound_finite(region, comp, laws, table, 30, TINY_OPT)
    assert report.collision_log == -math.inf
    assert report.branch == "decode"
    assert all(t.branch == "decode" for t in report.terms)
    assert all(t.kind == "em" for t in report.terms if t.attained)


def test_infeasible_region_rejected():
    comp = ramac.CompoundSet((bsc(0.5),), ("c",))
    table = ramac.RateTable(((0.3,),))
    laws = ramac.uniform_laws(table, 2)
    region = ramac.OperationRegion(((ramac.RateVectorIndex((1,)), "c"),),
                                   "finite")
    with pytest.raises(ramac.InfeasibleRegion):
        ramac.pes_bound_finite(region, comp, laws, table, 10, TINY_OPT)


def test_bound_monotone_in_n():
    comp, table, laws, region = _pair_scenario()
    se = ramac.system_exponent(region, comp, laws, table, TINY_OPT)
    assert se.value > 0
    values = [ramac.pes_bound_finite(region, comp, laws, table, n, TINY_OPT).raw_bound
              for n in (10, 100, 1000)]
    assert values[0] >= values[1] >= values[2]


def test_region_growth_inflates_em_sum():
    comp, table, laws, _ = _rich_scenario()
    r1 = ramac.RateVectorIndex((1,))
    small = ramac.OperationRegion(((r1, "a"),), "finite")
    grown = ramac.OperationRegion(((r1, "a"), (r1, "b")), "finite")

    def em_sum(region):
        report = ramac.pes_bound_finite(region, comp, laws, table, 20, TINY_OPT)
        logs = [t.log_weight for t in report.terms
                if t.branch == "decode" and t.kind == "em"
                and t.true_pair == ((1,), "a") and t.attained]
        return logsumexp_list(logs)

    assert em_sum(grown) >= em_sum(small)


def test_system_exponent_matches_min_term():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, comp, laws, table, 17, TINY_OPT)
    se = ramac.system_exponent(region, comp, laws, table, TINY_OPT)
    finite_exps = [t.exponent for t in report.terms
                   if t.branch == "decode" and math.isfinite(t.exponent)]
    assert abs(se.value - min(finite_exps)) < 1e-12


def test_singleton_classes_equal_finite_bound():
    comp, table, laws, region = _rich_scenario()
    envs = tuple(ramac.build_envelope((comp.by_id(cid),), class_id=cid)
                 for cid in comp.ids)
    class_region = ramac.OperationRegion(region.members, "class")
    finite = ramac.pes_bound_finite(region, comp, laws, table, 33, TINY_OPT)
    classy = ramac.pes_bound_classes(class_region, envs, laws, table, 33,
                                     TINY_OPT)
    assert abs(finite.log_bound - classy.log_bound) < 1e-9


def test_class_bound_requires_class_region():
    comp, table, laws, region = _rich_scenario()
    envs = (ramac.build_envelope(comp.channels, class_id="k"),)
    with pytest.raises(ramac.C1Violation):
        ramac.pes_bound_classes(region, envs, laws, table, 10, TINY_OPT)


def test_ddecoder_full_set_matches_plain_bound():
    """Decoding every user is the plain decoder, out-of-region channels
    included: a one-channel K=2 system, and a two-channel K=1 compound whose
    region names one channel (the shape of examples_cfg/bsc_gate.cfg)."""
    rng = np.random.default_rng(11)
    ch = random_dmc(rng, 2, 2, 2, floor=0.1)
    table2 = ramac.RateTable(((0.02, 0.08), (0.02, 0.08)))
    members = (ramac.RateVectorIndex((1, 1)), ramac.RateVectorIndex((1, 2)))
    cases = [
        (ramac.CompoundSet((ch,), ("c",)), table2,
         ramac.OperationRegion(tuple((m, "c") for m in members), "finite")),
        (ramac.CompoundSet((bsc(0.05), bsc(0.3)), ("good", "bad")),
         ramac.RateTable(((0.1,),)),
         ramac.OperationRegion(((ramac.RateVectorIndex((1,)), "good"),),
                               "finite")),
    ]
    for comp, table, region in cases:
        laws = ramac.uniform_laws(table, 2)
        plain = ramac.pes_bound_finite(region, comp, laws, table, 21, TINY_OPT)
        users = frozenset(range(1, table.num_users + 1))
        viad = ramac.pes_bound_ddecoder(users, region, comp, laws, table, 21,
                                        TINY_OPT)
        assert viad.log_bound == plain.log_bound
        assert viad.terms == plain.terms


def _record_optimisations(monkeypatch) -> list:
    """Results of every em/ei optimisation the bounds make from now on."""
    results = []

    def recorded(fn):
        def wrapper(query, cfg):
            results.append(fn(query, cfg))
            return results[-1]
        return wrapper

    for attr in ("em_exponent", "ei_exponent"):
        monkeypatch.setattr(ramac.bounds, attr,
                            recorded(getattr(ramac.bounds, attr)))
    return results


def test_partition_exhaustive_beats_greedy_and_every_assignment(monkeypatch):
    """On one channel, and on the mac2.cfg region {(1,1):good, (1,2):bad}
    whose members name two channels of the compound set."""
    rng = np.random.default_rng(23)
    ch = random_dmc(rng, 2, 2, 2, floor=0.1)
    table = ramac.RateTable(((0.02, 0.06), (0.02, 0.06)))
    members = (ramac.RateVectorIndex((1, 1)), ramac.RateVectorIndex((2, 1)))
    system = cfgmod.build_system(cfgmod.load_config(
        str(Path(__file__).resolve().parents[1] / "examples_cfg" / "mac2.cfg")))
    mixed = ramac.OperationRegion(((ramac.RateVectorIndex((1, 1)), "good"),
                                   (ramac.RateVectorIndex((1, 2)), "bad")),
                                  "finite")
    cases = [
        (ramac.OperationRegion(tuple((m, "c") for m in members), "finite"),
         ramac.CompoundSet((ch,), ("c",)), ramac.uniform_laws(table, 2), table,
         19),
        (mixed, system.compound, system.laws, system.table, 16),
    ]
    optimised = _record_optimisations(monkeypatch)
    for region, comp, laws, table, n in cases:
        optimised.clear()
        exhaustive = ramac.pes_bound_single_user(
            1, region, comp, laws, table, n, search="exhaustive", cfg=TINY_OPT)
        searched = list(optimised)
        greedy = ramac.pes_bound_single_user(1, region, comp, laws, table, n,
                                             search="greedy", cfg=TINY_OPT)
        assert math.isfinite(exhaustive.log_bound)
        assert exhaustive.log_bound <= greedy.log_bound + 1e-12
        # every enumerated assignment is at least the exhaustive optimum
        keys = set()
        for part in ramac.enumerate_partitions(region, 1, 2):
            total = 0.0
            for users_d, block in part.blocks().items():
                rep = ramac.pes_bound_ddecoder(
                    users_d, ramac.OperationRegion(block), comp, laws, table,
                    n, TINY_OPT)
                total += rep.raw_bound
                keys |= {(users_d, t.kind, t.subset, t.true_pair, t.comp_pair)
                         for t in rep.terms if t.branch == "decode"}
            assert exhaustive.raw_bound <= total + 1e-12
        # the search optimises each (D, kind, subset, true, competing) once
        # and reports the evaluations it made
        assert len(searched) == len(keys)
        assert exhaustive.exponent_evaluations == sum(r.evaluations
                                                      for r in searched)


def test_assembly_deterministic():
    """A bound is the same from a fresh ledger and from one already holding
    entries the bound reads and entries it does not."""
    comp, table, laws, region = _rich_scenario()
    a = ramac.pes_bound_finite(region, comp, laws, table, 12, TINY_OPT)
    ledger = ramac.ExponentLedger(ramac.channel_map(comp), laws, table, TINY_OPT)
    small = ramac.OperationRegion(region.members[:1], "finite")
    ramac.pes_bound_finite(small, comp, laws, table, 30, TINY_OPT, ledger=ledger)
    ramac.pes_bound_finite(region, comp, laws, table, 50, TINY_OPT, ledger=ledger)
    b = ramac.pes_bound_finite(region, comp, laws, table, 12, TINY_OPT,
                               ledger=ledger)
    assert a.log_bound == b.log_bound
    assert a.exponent_evaluations == b.exponent_evaluations > 0
    assert a.terms == b.terms
    assert ledger.evaluations() > a.exponent_evaluations


def test_ledger_from_other_inputs_rejected(monkeypatch):
    comp, table, laws, region = _rich_scenario()
    optimised = _record_optimisations(monkeypatch)
    channels = ramac.channel_map(comp)
    for ledger in (ramac.ExponentLedger(channels, laws, table, FAST_OPT),
                   ramac.ExponentLedger(channels, ramac.uniform_laws(table, 2),
                                        table, TINY_OPT)):
        with pytest.raises(ramac.ValidationError):
            ramac.pes_bound_finite(region, comp, laws, table, 12, TINY_OPT,
                                   ledger=ledger)
        with pytest.raises(ramac.ValidationError):
            ramac.SlotDecoder(region, laws, table, 12, compound=comp,
                              cfg=TINY_OPT, ledger=ledger)
    assert optimised == []
