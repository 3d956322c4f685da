"""Slot bound assembly: ledger consistency, branch structure, partitions."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramac
from conftest import bsc, random_dmc, uniform_laws
from ramac import config as cfgmod
from ramac.bounds import pes_bound_ddecoder, pes_bound_single_user
from ramac.channels import (CompoundSet, InputLaws, RateTable,
                            RateVectorIndex, effective_channel)
from ramac.errors import C1Violation, InfeasibleRegion, ValidationError
from ramac.exponents import (ExponentQuery, OptimizerConfig, ei_exponent,
                             em_exponent)
from ramac.logdomain import logsumexp_list
from ramac.regions import (OperationRegion, enumerate_partitions,
                           pair_universe, proper_subsets)

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
    """(query, result) of every em/ei optimisation the bounds make from now
    on, through the names the benchmark tracer wraps."""
    calls = []

    def recorded(fn):
        def wrapper(query, cfg):
            calls.append((query, fn(query, cfg)))
            return calls[-1][1]
        return wrapper

    for attr in ("em_exponent", "ei_exponent"):
        monkeypatch.setattr(ramac.bounds, attr,
                            recorded(getattr(ramac.bounds, attr)))
    return calls


def _query_objective(query, kind) -> tuple:
    """What an optimisation of query reads: its subset, its two channel
    objects, every user's law at the true rates, the outside users' laws at
    the competing rates, and the governing rate sum."""
    users = range(1, query.num_users + 1)
    outside = [u for u in users if u not in query.subset]
    rates = query.comp_rates if kind == "em" else query.true_rates
    return (kind, query.subset, id(query.true_channel), id(query.comp_channel),
            tuple(query.laws.law(u, query.true_rates.index(u)).tobytes()
                  for u in users),
            tuple(query.laws.law(u, query.comp_rates.index(u)).tobytes()
                  for u in outside),
            sum(query.rate_table.rate(u, rates.index(u)) for u in outside))


def _term_objective(users_d, kind, subset, true_pair, comp_pair, laws,
                    table) -> tuple:
    """The same inputs for a decode term of a decoded-set block, named from
    its pairs: a pair's channel is its id and the bytes of the laws of the
    users outside D at the pair's rates, which fix the averaged channel."""
    inside = sorted(users_d)
    outside = [u for u in inside if u not in subset]
    (ti, tid), (ci, cid) = true_pair, comp_pair
    rates = ci if kind == "em" else ti

    def channel(indices, cid):
        return cid, tuple(laws.law(u, i).tobytes()
                          for u, i in enumerate(indices, 1) if u not in users_d)

    return (users_d, kind, subset, channel(ti, tid), channel(ci, cid),
            tuple(laws.law(u, ti[u - 1]).tobytes() for u in inside),
            tuple(laws.law(u, ci[u - 1]).tobytes() for u in outside),
            sum(table.rate(u, rates[u - 1]) for u in outside))


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
        ledgers = {}
        for part in enumerate_partitions(region, 1, 2):
            total = 0.0
            for users_d, block in part.blocks().items():
                if users_d not in ledgers:
                    ledgers[users_d] = _ledger(comp, laws, table, users_d)
                rep = pes_bound_ddecoder(OperationRegion(block),
                                         ledgers[users_d], n)
                total += rep.raw_bound
                keys |= {(users_d, t.kind, t.subset, t.true_pair, t.comp_pair)
                         for t in rep.terms if t.branch == "decode"}
            assert exhaustive.raw_bound <= total + 1e-12
        # the search optimises each distinct objective it reads once: the
        # queries it optimised read pairwise distinct inputs, as many as
        # the decode terms of its blocks read
        optimised_objectives = {_query_objective(q, r.kind)
                                for q, r in searched}
        assert len(optimised_objectives) == len(searched)
        assert len(searched) == len({_term_objective(*key, laws, table)
                                     for key in keys})
        # and reports the evaluations behind every entry its blocks read
        assert exhaustive.exponent_evaluations == sum(
            ledgers[d].get(kind, subset, (RateVectorIndex(ti), tid),
                           (RateVectorIndex(ci), cid)).evaluations
            for d, kind, subset, (ti, tid), (ci, cid) in keys)


def test_mac2_optimises_each_distinct_objective_once(monkeypatch):
    """The benchmark's mac2 scenario: its bound reads 80 ledger entries of 30
    distinct objectives and its decoder's thresholds 29 of 10, and each
    objective is optimised once, through the names the tracer wraps. The
    exhaustive partition search of part_k2 reads 30 entries of 14 objectives:
    its uniform laws make the averaged channels of both outside rates equal."""
    scenarios = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
    system = cfgmod.build_system(cfgmod.load_config(str(scenarios / "mac2.cfg")))
    optimised = _record_optimisations(monkeypatch)

    def ledger():
        return ramac.ExponentLedger(system.channels, system.laws,
                                    system.table, system.cfg.optimizer)

    report = ramac.pes_bound_finite(system.region, ledger(), 16)
    assert len({(t.kind, t.subset, t.true_pair, t.comp_pair)
                for t in report.terms if t.branch == "decode"}) == 80
    assert len(optimised) == 30
    optimised.clear()
    decoder = ramac.SlotDecoder(system.region, ledger(), 16)
    assert sum(o[0].agrees_on(t[0], subset) for t in system.region.members
               for subset in decoder.subsets for o in decoder.out_pairs) == 29
    assert len(optimised) == 10
    part = cfgmod.build_system(cfgmod.load_config(str(scenarios / "part_k2.cfg")))
    entries = set()
    get = ramac.ExponentLedger.get

    def read(ledger, kind, subset, t, c):
        entries.add((ledger.users_d, kind, subset, t, c))
        return get(ledger, kind, subset, t, c)

    monkeypatch.setattr(ramac.ExponentLedger, "get", read)
    optimised.clear()
    pes_bound_single_user(1, part.region, ramac.ExponentLedger(
        part.channels, part.laws, part.table, part.cfg.optimizer), 40,
        search="exhaustive")
    assert len(entries) == 30
    assert len(optimised) == 14


ORACLE_OPT = OptimizerConfig(rho_grid_size=3, s_grid_size=3,
                             refinement_rounds=0)
MENUS = ((0.02, 0.05), (0.05, 0.1))  # shared menus repeat rate sums at K = 2


def _fresh_exponent(kind, subset, t, c, channels, laws, table, users_d):
    """The kind exponent of one ledger key from a query built afresh; with a
    decoded set D each pair's channel is averaged anew over the users
    outside D."""
    if users_d is None:
        q = ExponentQuery(subset, t[0], channels[t[1]], c[0], channels[c[1]],
                          laws, table)
    else:
        d = sorted(users_d)

        def channel(pair):
            outside = {u: pair[0].index(u)
                       for u in range(1, table.num_users + 1)
                       if u not in users_d}
            return effective_channel(channels[pair[1]], d, outside, laws)

        q = ExponentQuery(frozenset(d.index(u) + 1 for u in subset),
                          t[0].restrict(d), channel(t), c[0].restrict(d),
                          channel(c), laws.restrict(d), table.restrict(d))
    return (em_exponent if kind == "em" else ei_exponent)(q, ORACLE_OPT)


@settings(max_examples=12)
@given(k=st.sampled_from((1, 2)), seed=st.integers(0, 10_000),
       menus=st.lists(st.sampled_from(MENUS), min_size=2, max_size=2),
       law_picks=st.lists(st.integers(0, 1), min_size=4, max_size=4),
       variant=st.sampled_from(("full", "class", (1,), (2,), (1, 2))))
# em keys (1, a) and (2, a) against (1, b) differ only in user 1's true law
@example(1, 0, [MENUS[0]] * 2, [0, 1, 0, 0], "full")
# one law everywhere: (1, a) against (1, a) and (2, a) differ only in R,
# and against (1, a) and (1, b) only in the channel
@example(1, 0, [MENUS[0]] * 2, [0, 0, 0, 0], "full")
@example(1, 0, [MENUS[0]] * 2, [0, 0, 0, 0], "class")
# D = {1}: ((1, 1), a) and ((1, 2), a) differ only in their averaged channel
@example(2, 0, [MENUS[0]] * 2, [0, 0, 0, 1], (1,))
def test_ledger_entries_equal_fresh_optimisations(k, seed, menus, law_picks,
                                                  variant):
    """Every entry of a ledger equals, evaluations included, a fresh
    optimisation of its own query, whatever entries share an optimisation.
    Random K = 1, 2 systems draw non-uniform laws from two vectors and rate
    menus from two; the ledger is over the compound set ("full"), over two
    class envelopes ("class"), or serves a decoded set (users past K
    dropped)."""
    rng = np.random.default_rng(seed)
    pool = [v / v.sum() for v in rng.random((2, 2)) + 0.05]
    table = RateTable(tuple(menus[:k]))
    laws = InputLaws({(u, i): pool[law_picks[2 * u + i - 3]]
                      for u in range(1, k + 1) for i in (1, 2)})
    ch = tuple(random_dmc(rng, k, 2, 3, floor=0.1) for _ in range(2))
    if variant == "class":
        channels = (ramac.build_envelope(ch, "ab", member_ids=("a", "b")),
                    ramac.build_envelope(ch[1:], "b", member_ids=("b",)))
    else:
        channels = CompoundSet(ch, ("a", "b"))
    users_d = None if isinstance(variant, str) else \
        {u for u in variant if u <= k} or {1}
    ledger = ramac.ExponentLedger(channels, laws, table, ORACLE_OPT, users_d)
    universe = pair_universe(table, tuple(ledger.channels))
    for subset in proper_subsets(sorted(ledger.users_d or range(1, k + 1))):
        for t in universe:
            for c in universe:
                if not c[0].agrees_on(t[0], subset):
                    continue
                for kind in ("em", "ei"):
                    assert ledger.get(kind, subset, t, c) == _fresh_exponent(
                        kind, subset, t, c, ledger.channels, laws, table,
                        ledger.users_d)


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
