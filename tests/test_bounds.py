"""Slot bound assembly: ledger consistency, branch structure, partitions."""

import math
from pathlib import Path

import numpy as np
import pytest

import ramac
from conftest import bsc, random_dmc, uniform_laws
from ramac import config as cfgmod
from ramac.bounds import pes_bound_ddecoder, pes_bound_single_user
from ramac.channels import CompoundSet, RateTable, RateVectorIndex
from ramac.errors import C1Violation, InfeasibleRegion, ValidationError
from ramac.exponents import OptimizerConfig
from ramac.logdomain import logsumexp_list
from ramac.regions import OperationRegion, enumerate_partitions

TINY_OPT = OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                           refinement_rounds=0)


def _ledger(channels, laws, table, users_d=None):
    return ramac.ExponentLedger(channels, laws, table, TINY_OPT, users_d)


def _pair_scenario():
    comp = CompoundSet((bsc(0.05), bsc(0.15)), ("a", "b"))
    table = RateTable(((0.1,),))
    laws = uniform_laws(table, 2)
    rvi = RateVectorIndex((1,))
    region = OperationRegion(((rvi, "a"), (rvi, "b")), "finite")
    return comp, table, laws, region


def _rich_scenario():
    """Two rate classes so the region has a nonempty complement."""
    comp = CompoundSet((bsc(0.05), bsc(0.2)), ("a", "b"))
    table = RateTable(((0.05, 0.3),))
    laws = uniform_laws(table, 2)
    r1, r2 = RateVectorIndex((1,)), RateVectorIndex((2,))
    region = OperationRegion(((r1, "a"), (r1, "b"), (r2, "a")), "finite")
    return comp, table, laws, region


def test_ledger_reproduces_branch_totals():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 40)
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
    report = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 25)
    for branch, pair, total in report.pair_totals:
        logs = [t.log_weight for t in report.terms
                if t.branch == branch and t.true_pair == pair and t.attained]
        assert abs(logsumexp_list(logs) - total) < 1e-10


def test_bound_branch_max_structure():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 30)
    assert report.log_bound == max(report.decode_log, report.collision_log)
    assert report.raw_bound == math.exp(report.log_bound)
    assert report.clamped_bound == min(1.0, report.raw_bound)


def test_empty_complement_kills_collision_branch():
    comp, table, laws, region = _pair_scenario()
    report = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 30)
    assert report.collision_log == -math.inf
    assert report.branch == "decode"
    assert all(t.branch == "decode" for t in report.terms)
    assert all(t.kind == "em" for t in report.terms if t.attained)


def test_infeasible_region_rejected():
    comp = CompoundSet((bsc(0.5),), ("c",))
    table = RateTable(((0.3,),))
    laws = uniform_laws(table, 2)
    region = OperationRegion(((RateVectorIndex((1,)), "c"),),
                             "finite")
    with pytest.raises(InfeasibleRegion):
        ramac.pes_bound_finite(region, _ledger(comp, laws, table), 10)


def test_bound_monotone_in_n():
    comp, table, laws, region = _pair_scenario()
    se = ramac.system_exponent(region, _ledger(comp, laws, table))
    assert se.value > 0
    values = [ramac.pes_bound_finite(region, _ledger(comp, laws, table), n).raw_bound
              for n in (10, 100, 1000)]
    assert values[0] >= values[1] >= values[2]


def test_region_growth_inflates_em_sum():
    comp, table, laws, _ = _rich_scenario()
    r1 = RateVectorIndex((1,))
    small = OperationRegion(((r1, "a"),), "finite")
    grown = OperationRegion(((r1, "a"), (r1, "b")), "finite")

    def em_sum(region):
        report = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 20)
        logs = [t.log_weight for t in report.terms
                if t.branch == "decode" and t.kind == "em"
                and t.true_pair == ((1,), "a") and t.attained]
        return logsumexp_list(logs)

    assert em_sum(grown) >= em_sum(small)


def test_system_exponent_matches_min_term():
    comp, table, laws, region = _rich_scenario()
    report = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 17)
    se = ramac.system_exponent(region, _ledger(comp, laws, table))
    finite_exps = [t.exponent for t in report.terms
                   if t.branch == "decode" and math.isfinite(t.exponent)]
    assert abs(se.value - min(finite_exps)) < 1e-12


def test_singleton_classes_equal_finite_bound():
    comp, table, laws, region = _rich_scenario()
    envs = tuple(ramac.build_envelope((comp.by_id(cid),), class_id=cid,
                                      member_ids=(cid,))
                 for cid in comp.ids)
    class_region = OperationRegion(region.members, "class")
    finite = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 33)
    classy = ramac.pes_bound_classes(class_region, _ledger(envs, laws, table),
                                     33)
    assert abs(finite.log_bound - classy.log_bound) < 1e-9


def test_class_bound_requires_class_region():
    comp, table, laws, region = _rich_scenario()
    envs = (ramac.build_envelope(comp.channels, class_id="k",
                                 member_ids=comp.ids),)
    with pytest.raises(C1Violation):
        ramac.pes_bound_classes(region, _ledger(envs, laws, table), 10)


def test_ddecoder_full_set_matches_plain_bound():
    """Decoding every user is the plain decoder, out-of-region channels
    included: a one-channel K=2 system, and a two-channel K=1 compound whose
    region names one channel (the shape of examples_cfg/bsc_gate.cfg)."""
    rng = np.random.default_rng(11)
    ch = random_dmc(rng, 2, 2, 2, floor=0.1)
    table2 = RateTable(((0.02, 0.08), (0.02, 0.08)))
    members = (RateVectorIndex((1, 1)), RateVectorIndex((1, 2)))
    cases = [
        (CompoundSet((ch,), ("c",)), table2,
         OperationRegion(tuple((m, "c") for m in members), "finite")),
        (CompoundSet((bsc(0.05), bsc(0.3)), ("good", "bad")),
         RateTable(((0.1,),)),
         OperationRegion(((RateVectorIndex((1,)), "good"),),
                         "finite")),
    ]
    for comp, table, region in cases:
        laws = uniform_laws(table, 2)
        plain = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 21)
        users = frozenset(range(1, table.num_users + 1))
        viad = pes_bound_ddecoder(
            region, _ledger(comp, laws, table, users), 21)
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
    table = RateTable(((0.02, 0.06), (0.02, 0.06)))
    members = (RateVectorIndex((1, 1)), RateVectorIndex((2, 1)))
    system = cfgmod.build_system(cfgmod.load_config(
        str(Path(__file__).resolve().parents[1] / "examples_cfg" / "mac2.cfg")))
    mixed = OperationRegion(((RateVectorIndex((1, 1)), "good"),
                             (RateVectorIndex((1, 2)), "bad")),
                            "finite")
    cases = [
        (OperationRegion(tuple((m, "c") for m in members), "finite"),
         CompoundSet((ch,), ("c",)), uniform_laws(table, 2), table,
         19),
        (mixed, system.compound, system.laws, system.table, 16),
    ]
    optimised = _record_optimisations(monkeypatch)
    for region, comp, laws, table, n in cases:
        optimised.clear()
        ledger = _ledger(comp, laws, table)
        exhaustive = pes_bound_single_user(1, region, ledger, n,
                                           search="exhaustive")
        searched = list(optimised)
        greedy = pes_bound_single_user(1, region, ledger, n,
                                       search="greedy")
        assert math.isfinite(exhaustive.log_bound)
        assert exhaustive.log_bound <= greedy.log_bound + 1e-12
        # every enumerated assignment is at least the exhaustive optimum
        keys = set()
        for part in enumerate_partitions(region, 1, 2):
            total = 0.0
            for users_d, block in part.blocks().items():
                rep = pes_bound_ddecoder(
                    OperationRegion(block),
                    _ledger(comp, laws, table, users_d), n)
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
    a = ramac.pes_bound_finite(region, _ledger(comp, laws, table), 12)
    ledger = _ledger(comp, laws, table)
    small = OperationRegion(region.members[:1], "finite")
    ramac.pes_bound_finite(small, ledger, 30)
    ramac.pes_bound_finite(region, ledger, 50)
    b = ramac.pes_bound_finite(region, ledger, 12)
    assert a.log_bound == b.log_bound
    assert a.exponent_evaluations == b.exponent_evaluations > 0
    assert a.terms == b.terms
    assert ledger.evaluations() > a.exponent_evaluations


def test_wrong_kind_of_ledger_rejected_before_work(monkeypatch):
    """Each entry raises before any optimisation when its ledger is of the
    wrong kind: a decoded-set ledger where every user is decoded, a ledger
    without one in pes_bound_ddecoder, class envelopes in pes_bound_finite,
    a finite ledger over other ids in estimate_errors, and a region of the
    other kind than its ledger, such as a class region over channel ids."""
    comp, table, laws, region = _rich_scenario()
    optimised = _record_optimisations(monkeypatch)
    full, decoded = _ledger(comp, laws, table), _ledger(comp, laws, table, {1})
    envs = (ramac.build_envelope(comp.channels, class_id="k",
                                 member_ids=comp.ids),)
    classes = _ledger(envs, laws, table)
    class_region = OperationRegion(
        ((RateVectorIndex((1,)), "k"),), "class")
    renamed = CompoundSet(comp.channels, ("x", "y"))
    channel_classes = OperationRegion(
        ((RateVectorIndex((1,)), "a"),), "class")
    for call, match in (
            (lambda: ramac.pes_bound_finite(region, decoded, 12), "decoded set"),
            (lambda: ramac.pes_bound_classes(class_region, decoded, 12),
             "decoded set"),
            (lambda: ramac.system_exponent(region, decoded), "decoded set"),
            (lambda: pes_bound_single_user(1, region, decoded, 12),
             "decoded set"),
            (lambda: ramac.SlotDecoder(region, decoded, 12), "decoded set"),
            (lambda: ramac.estimate_errors(region, comp, decoded, 12, 10, 1),
             "decoded set"),
            (lambda: pes_bound_ddecoder(region, full, 12), "decoded set"),
            (lambda: ramac.pes_bound_finite(region, classes, 12), "compound set"),
            (lambda: ramac.system_exponent(region, classes), "compound set"),
            (lambda: ramac.estimate_errors(region, renamed, full, 12, 10, 1),
             "ids"),
            (lambda: ramac.pes_bound_classes(channel_classes, full, 12),
             "class envelopes"),
            (lambda: ramac.SlotDecoder(channel_classes, full, 12),
             "class envelopes"),
            (lambda: ramac.estimate_errors(channel_classes, comp, full, 12, 10,
                                           1), "class envelopes"),
            (lambda: ramac.SlotDecoder(region, classes, 12), "compound set")):
        with pytest.raises(ValidationError, match=match):
            call()
    assert optimised == []
