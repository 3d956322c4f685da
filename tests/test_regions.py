import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramac
from conftest import bsc, random_dmc, uniform_laws
from oracles import partition_count
from ramac.channels import CompoundSet, RateTable, RateVectorIndex
from ramac.errors import GuardExceeded, ValidationError
from ramac.regions import (OperationRegion, Partition, enumerate_partitions,
                           feasibility_check, maximal_feasible_region,
                           pair_universe, proper_subsets, require_c1)
from ramac.sim import build_schedule


def _two_user_setup(seed=0):
    rng = np.random.default_rng(seed)
    ch = random_dmc(rng, 2, 2, 2, floor=0.05)
    comp = CompoundSet((ch,), ("c",))
    table = RateTable(((0.05, 0.4), (0.05, 0.4)))
    laws = uniform_laws(table, 2)
    return comp, table, laws


def test_region_dedup_and_membership():
    rvi = RateVectorIndex((1,))
    with pytest.raises(ValidationError):
        OperationRegion(((rvi, "a"), (rvi, "a")), "finite")
    region = OperationRegion(((rvi, "a"),), "finite")
    assert (rvi, "a") in region
    assert (rvi, "b") not in region
    assert len(region) == 1


def test_pair_universe_order_and_size():
    table = RateTable(((0.1, 0.2), (0.1, 0.2)))
    uni = pair_universe(table, ("a", "b"))
    assert len(uni) == 4 * 2
    assert [u[0].indices for u in uni[:2]] == [(1, 1), (1, 1)]
    assert [u[1] for u in uni[:2]] == ["a", "b"]


def test_proper_subsets_count():
    subs = proper_subsets(range(1, 4))
    assert len(subs) == 7  # all but the full set
    assert frozenset() in subs
    assert frozenset({1, 2, 3}) not in subs
    # a decoded set D = {1, 3}: the subsets of D by size, then in order
    assert proper_subsets((1, 3)) == (frozenset(), frozenset({1}),
                                      frozenset({3}))


def test_feasibility_flags_oversized_rate():
    comp = CompoundSet((bsc(0.5),), ("c",))  # zero-capacity channel
    table = RateTable(((0.2,),))
    laws = uniform_laws(table, 2)
    region = OperationRegion(((RateVectorIndex((1,)), "c"),), "finite")
    report = feasibility_check(region, comp, laws, table)
    assert not report.passed
    assert report.violations
    # slack convention: mi minus rate sum
    assert min(m[-1] for m in report.margins) < 0


def test_maximal_region_is_feasible_and_tight():
    comp, table, laws = _two_user_setup(7)
    maximal = maximal_feasible_region(comp, laws, table)
    report = feasibility_check(maximal, comp, laws, table)
    assert report.passed
    universe = pair_universe(table, comp.ids)
    for pair in maximal.complement(universe):
        grown = OperationRegion(maximal.members + (pair,), "finite")
        assert not feasibility_check(grown, comp, laws, table).passed


def _class_k(*member_ids):
    """One class k over BSCs named member_ids."""
    chans = tuple(bsc(0.05 * (i + 1)) for i in range(len(member_ids)))
    return (ramac.build_envelope(chans, class_id="k", member_ids=member_ids),)


def test_c1_split_class_detected():
    table = RateTable(((0.1,),))
    rvi = RateVectorIndex((1,))
    envelopes = _class_k("a", "b")
    split = OperationRegion(((rvi, "a"),), "finite")
    report = ramac.c1_check(split, envelopes)
    assert not report.passed
    whole = OperationRegion(((rvi, "a"), (rvi, "b")), "finite")
    report2 = ramac.c1_check(whole, envelopes)
    assert report2.passed
    assert report2.converted.mode == "class"
    assert (rvi, "k") in report2.converted
    with pytest.raises(ValidationError, match="split by the region"):
        require_c1(split, envelopes)


def test_c1_conversion_idempotent():
    table = RateTable(((0.1,),))
    rvi = RateVectorIndex((1,))
    envelopes = _class_k("a", "b")
    whole = OperationRegion(((rvi, "a"), (rvi, "b")), "finite")
    converted = require_c1(whole, envelopes)
    again = ramac.c1_check(converted, envelopes)
    assert again.passed
    assert again.converted.members == converted.members


def test_channel_in_two_envelopes_rejected_alike():
    """c1_check and build_schedule read membership through one map, so a
    channel listed by two envelopes raises the same error from both."""
    table = RateTable(((0.1,),))
    rvi = RateVectorIndex((1,))
    twice = _class_k("a", "b") + (ramac.build_envelope(
        (bsc(0.1),), class_id="j", member_ids=("b",)),)
    region = OperationRegion(((rvi, "a"), (rvi, "b")), "finite")
    errors = []
    for call in (lambda: ramac.c1_check(region, twice),
                 lambda: build_schedule(region, table, ("a", "b"), twice)):
        with pytest.raises(ValidationError,
                           match="'b' appears in two classes") as info:
            call()
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=25)
def test_partition_enumeration_count_and_invariants(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    table = RateTable(tuple((0.1, 0.2) for _ in range(k)))
    size = int(rng.integers(1, 4))
    universe = [RateVectorIndex(tuple(int(v) for v in idx))
                for idx in rng.integers(1, 3, size=(8, k))]
    members = []
    seen = set()
    for rvi in universe:
        if rvi.indices not in seen:
            seen.add(rvi.indices)
            members.append((rvi, "c"))
        if len(members) == size:
            break
    region = OperationRegion(tuple(members), "finite")
    user = int(rng.integers(1, k + 1))
    parts = list(enumerate_partitions(region, user, k))
    assert len(parts) == partition_count(k, len(region))
    for part in parts:
        blocks = part.blocks()
        covered = [m for mem in blocks.values() for m in mem]
        assert len(covered) == len(region)
        for users_d in blocks:
            assert user in users_d


def test_partition_guard_raises_before_iterating():
    table = RateTable(tuple((0.1, 0.2) for _ in range(4)))
    members = tuple(
        (RateVectorIndex(idx), "c")
        for idx in [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1),
                    (1, 1, 2, 1), (2, 1, 2, 1), (1, 2, 2, 1), (2, 2, 2, 1)])
    region = OperationRegion(members, "finite")
    # 8^8 = 16.7M assignments exceed the default guard
    with pytest.raises(GuardExceeded, match="exceed the enumeration guard"):
        enumerate_partitions(region, 1, 4)


def test_partition_entries_must_be_decoded_sets():
    region = OperationRegion(
        ((RateVectorIndex((1, 1)), "c"),
         (RateVectorIndex((2, 2)), "c")), "finite")
    part = Partition(region, 1, ({1}, frozenset({1, 2})))
    assert part.assignment == (frozenset({1}), frozenset({1, 2}))
    for entry, match in ((None, "not a set"), ((1,), "not a set"),
                         ({2}, "target user"), ({1, 7}, "outside 1..2"),
                         ({1, "a"}, "outside 1..2")):
        with pytest.raises(ValidationError, match=match):
            Partition(region, 1, ({1}, entry))
