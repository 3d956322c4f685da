"""Slot simulation: codebooks, thresholds, the threshold decoder, estimators."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramac
from conftest import bsc, uniform_laws
from oracles import (exact_errors_by_chunks, pairwise_tail, scalar_decode,
                     symbols_by_searchsorted, tau_by_bisection)
from ramac import config as cfgmod
from ramac.channels import (CompoundSet, Dmc, InputLaws, RateTable,
                            RateVectorIndex, validate_dmc)
from ramac.errors import EnumerationTooLarge, TooManyCodewords, ValidationError
from ramac.exponents import OptimizerConfig
from ramac.regions import OperationRegion
from ramac.sim import (Z99, CodebookSet, build_schedule,
                       build_threshold_tables, generate_codebooks,
                       message_count)

TINY_OPT = OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                           refinement_rounds=0)
NOISELESS = validate_dmc([[1.0, 0.0], [0.0, 1.0]], 1, 2, 2)


def _ledger(channels, laws, table):
    return ramac.ExponentLedger(channels, laws, table, TINY_OPT)


def _k1(p, rates, region_idx=(1,), ids=("c",)):
    comp = CompoundSet(tuple(bsc(q) for q in p), ids)
    table = RateTable((tuple(rates),))
    laws = uniform_laws(table, 2)
    members = tuple((RateVectorIndex((i,)), cid)
                    for i in region_idx for cid in ids)
    region = OperationRegion(members, "finite")
    return comp, table, laws, region


def _closed_form_tau(y, tables):
    counts = np.bincount(y, minlength=tables.log_a.shape[0]).astype(float)
    return float(tables.taus(counts[None], len(y))[0])


def test_message_count_examples():
    assert message_count(10, 0.0) == 1
    assert message_count(4, math.log(2)) == 16
    assert message_count(8, math.log(2) / 8) == 2
    assert message_count(5, 0.1) == 1  # floor(e^0.5) = 1


def test_codebooks_deterministic_and_addressable():
    table = RateTable(((0.0, math.log(2) / 4), (0.0, math.log(3) / 4)))
    laws = uniform_laws(table, 3)
    a = generate_codebooks(table, laws, 3, 4, seed=99)
    b = generate_codebooks(table, laws, 3, 4, seed=99)
    for key in a.entries:
        assert a.entries[key].dtype == np.uint8
        assert np.array_equal(a.entries[key], b.entries[key])
    assert a.entries[(1, 2)].shape[0] == 2
    assert a.entries[(2, 2)].shape[0] == 3
    # single entries regenerate from their own stream, independent of the rest
    cum = np.cumsum(laws.law(2, 2))
    ss = np.random.SeedSequence(entropy=99, spawn_key=(2, 2, 1))
    gen = np.random.Generator(np.random.Philox(ss))
    idx = np.searchsorted(cum, gen.random(4), side="right")
    want = np.minimum(idx, 2)
    assert np.array_equal(a.codeword(2, 2, 1), want)
    c = generate_codebooks(table, laws, 3, 4, seed=100)
    assert not all(np.array_equal(a.entries[k], c.entries[k]) for k in a.entries)


def test_symbol_map_matches_searchsorted():
    # raw Philox words T - 2**11, T - 1 and T at the first word T that fires
    # each cumulative entry, for the codebook map (u >= c) and the channel map
    # (u > c), against the uniforms Generator.random makes of the same words:
    # repeated entries (a zero-probability letter first, inside and last),
    # entries of 1.0 that never fire, and a cumulative law whose last entry
    # rounds below 1
    rounded = np.cumsum(np.full(10, 0.1))
    assert rounded[-1] < 1.0
    laws = [(1.0,), (0.5, 0.5), (0.3, 0.0, 0.7), (0.0, 0.4, 0.6),
            (0.5, 0.5, 0.0), (0.2, 0.0, 0.0, 0.8), (0.2, 0.8, 0.0, 0.0),
            np.full(3, 1 / 3), np.full(10, 0.1)]
    bits = np.random.Philox(12)
    for law in laws:
        cum = np.cumsum(law)
        for strict in (False, True):
            first = [math.floor(c * 2 ** 53) + 1 if strict
                     else math.ceil(c * 2 ** 53) for c in cum]
            words = {w for t in first
                     for w in ((t << 11) - 2 ** 11, (t << 11) - 1, t << 11)
                     if 0 <= w < 2 ** 64}
            raw = np.concatenate([np.array(sorted(words | {0, 2 ** 64 - 1}),
                                           dtype=np.uint64),
                                  bits.random_raw(997)])
            u = (raw >> np.uint64(11)) * 2.0 ** -53
            if strict:
                edges = ramac.sim._raw_edges(cum, strict=True)
                want, base = np.searchsorted(cum[:-1], u, side="left"), 0
            else:
                edges, base = ramac.sim._letter_edges(cum)
                want = symbols_by_searchsorted(cum, u)
            dtype = ramac.sim._symbol_dtype(len(cum))
            assert dtype == np.uint8
            for shape in ((raw.size,), (1, raw.size, 1)):
                got = ramac.sim._symbols_from_raw(raw.reshape(shape), edges, base,
                                                  np.empty(shape, dtype))
                assert np.array_equal(got, want.reshape(shape)), (law, strict)
    top = [int(v * 2 ** 53) << 11 for v in (rounded[-1], np.nextafter(1.0, 0.0))]
    assert np.array_equal(ramac.sim._symbols_from_raw(
        np.array(top, dtype=np.uint64), *ramac.sim._letter_edges(rounded),
        np.empty(2, np.uint8)), [9, 9])


def test_random_is_shifted_raw_philox_words():
    # the symbol maps compare raw words where Generator.random would give
    # (w >> 11) * 2**-53; a numpy whose Philox uniforms differ must fail here
    # rather than move symbols. Checked from the start of a stream, after
    # advance, and after a partial counter step of 1 to 3 of its 4 words.
    key = np.random.SeedSequence(entropy=4, spawn_key=(0, 1, 2))
    for steps, partial in ((0, 0), (5, 0), (5, 1), (6, 2), (7, 3)):
        gen, bits = np.random.Generator(np.random.Philox(key)), np.random.Philox(key)
        gen.bit_generator.advance(steps)
        bits.advance(steps)
        gen.random(partial)
        bits.random_raw(partial)
        for size in (1, 6, (3, 5)):
            want = gen.random(size)
            words = bits.random_raw(size)
            assert np.array_equal(want, (words >> np.uint64(11)) * 2.0 ** -53), (
                steps, partial, size)


def test_codebook_guard():
    table = RateTable(((math.log(2e6),),))
    laws = uniform_laws(table, 2)
    with pytest.raises(TooManyCodewords):
        generate_codebooks(table, laws, 2, 1, seed=0)


def test_codebook_guard_before_overflow():
    # exp(n * rate) overflows a float past n * rate = 709.78; the guard must
    # trip first (N = 10000 at rate 0.1 used to raise OverflowError)
    table = RateTable(((0.05, 0.1),))
    laws = uniform_laws(table, 2)
    comp, _, _, region = _k1([0.1], (0.05, 0.1))
    for n in (140, 10000, 10 ** 9):
        with pytest.raises(TooManyCodewords):
            generate_codebooks(table, laws, 2, n, seed=0)
        with pytest.raises(TooManyCodewords):
            ramac.estimate_errors(region, comp, _ledger(comp, laws, table), n,
                                  10, 0)


@pytest.mark.parametrize("name", ["bsc_pair.cfg", "bsc_gate.cfg"])
def test_guards_trip_before_any_exponent(name, monkeypatch):
    """The decoder's codeword guard and exact enumeration's output guard
    raise before any exponent is optimised (bsc_gate's thresholds need ei
    exponents); N = 10000 used to end in OverflowError from message_count
    in both."""
    path = Path(__file__).resolve().parents[1] / "examples_cfg" / name
    system = cfgmod.build_system(cfgmod.load_config(str(path)))

    def optimised(*args):
        raise AssertionError("an exponent was optimised")

    for attr in ("em_exponent", "ei_exponent"):  # what the ledger calls
        monkeypatch.setattr(ramac.bounds, attr, optimised)
    ledger = ramac.ExponentLedger(system.channels, system.laws, system.table,
                                  system.cfg.optimizer)
    with pytest.raises(TooManyCodewords):
        ramac.SlotDecoder(system.region, ledger, 10000)
    for n in (40, 10000, 10 ** 12):
        with pytest.raises(EnumerationTooLarge):
            ramac.exact_conditional_errors(system.region, system.laws,
                                           system.table, n,
                                           compound=system.compound)


def test_frozen_codebooks_of_another_block_length_rejected():
    """Books made at n = 16 fed to a decoder at n = 12 raise ValidationError;
    they used to end in a raw ValueError from np.broadcast_to."""
    path = Path(__file__).resolve().parents[1] / "examples_cfg" / "bsc_pair.cfg"
    system = cfgmod.build_system(cfgmod.load_config(str(path)))
    books = generate_codebooks(system.table, system.laws, 2, 16, seed=4)
    ledger = _ledger(system.channels, system.laws, system.table)
    with pytest.raises(ValidationError, match="block length 16"):
        ramac.estimate_errors(system.region, system.compound, ledger, 12, 10,
                              0, codebooks=books)
    with pytest.raises(ValidationError, match="block length 16"):
        ramac.exact_conditional_errors(system.region, system.laws,
                                       system.table, 12,
                                       compound=system.compound,
                                       cfg=TINY_OPT, codebooks=books)


def test_negative_seed_and_no_codebook_samples_rejected_before_exponents(
        monkeypatch):
    """A negative seed used to reach SeedSequence's ValueError, and
    codebook_samples < 1 a ZeroDivisionError, both after the decoder's ei
    thresholds were optimised; a sample count other than 1 with given
    codebooks was ignored."""
    path = Path(__file__).resolve().parents[1] / "examples_cfg" / "bsc_gate.cfg"
    system = cfgmod.build_system(cfgmod.load_config(str(path)))

    def optimised(*args):
        raise AssertionError("an exponent was optimised")

    for attr in ("em_exponent", "ei_exponent"):  # what the ledger calls
        monkeypatch.setattr(ramac.bounds, attr, optimised)
    ledger = _ledger(system.channels, system.laws, system.table)
    with pytest.raises(ValidationError, match="seed"):
        ramac.estimate_errors(system.region, system.compound, ledger, 8, 10, -1)
    with pytest.raises(ValidationError, match="seed"):
        generate_codebooks(system.table, system.laws, 2, 8, seed=-1)
    books = generate_codebooks(system.table, system.laws, 2, 8, seed=4)
    for kwargs in ({"seed": -1}, {"codebook_samples": 0},
                   {"codebook_samples": -1},
                   {"codebook_samples": 3, "codebooks": books}):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            ramac.exact_conditional_errors(system.region, system.laws,
                                           system.table, 8,
                                           compound=system.compound, **kwargs)


def test_threshold_params_validation():
    ramac.ThresholdParams()  # from_ei defaults are fine
    ramac.ThresholdParams(rho_tilde=0.5, s2=0.2, source="manual")
    with pytest.raises(ValidationError):
        ramac.ThresholdParams(source="manual")
    with pytest.raises(ValidationError):
        ramac.ThresholdParams(rho_tilde=0.5, s2=0.5, source="manual")
    with pytest.raises(ValidationError):
        ramac.ThresholdParams(rho_tilde=1.5, s2=0.2, source="manual")
    with pytest.raises(ValidationError):
        ramac.ThresholdParams(s2=0.2)
    # tilts are for manual thresholds only; from_ei sets them itself
    with pytest.raises(ValidationError):
        ramac.ThresholdParams(rho_tilde=1.0, s2=0.95)
    with pytest.raises(ValidationError):
        ramac.ThresholdParams(rho_tilde=0.5)


def test_threshold_matches_hand_formula():
    p = 0.1
    comp, table, laws, _ = _k1([p], (0.05, 0.4), region_idx=(1,))
    y = [0, 1, 0, 0, 1, 0]
    tables = build_threshold_tables(
        RateVectorIndex((1,)), comp.by_id("c"), frozenset(), laws, table,
        0.5, 0.25, RateVectorIndex((2,)), comp.by_id("c"))
    tau = _closed_form_tau(y, tables)
    n = len(y)
    s1, s2, rho = 0.5, 0.25, 0.5
    log_a = math.log(0.5)  # same for both symbols
    g = math.log(0.5 * (p ** 0.5 + (1 - p) ** 0.5))
    want = (-(n * log_a + rho * n * g - n * g) / (n * (s1 + s2))
            - rho * 0.05 / (s1 + s2))
    assert abs(tau - want) < 1e-12
    assert abs(tau_by_bisection(y, tables, n) - tau) <= 1e-9 * max(1.0, abs(tau))


def test_threshold_bisection_agrees_randomly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        probs = rng.uniform(0.05, 1.0, size=(3, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        ch = validate_dmc(probs, 1, 3, 4)
        table = RateTable(((0.03, 0.2),))
        laws = uniform_laws(table, 3)
        rho = float(rng.uniform(0.2, 1.0))
        s2 = float(rng.uniform(0.05, 0.95)) * rho
        y = rng.integers(0, 4, size=12)
        tables = build_threshold_tables(RateVectorIndex((1,)), ch,
                                        frozenset(), laws, table, rho, s2)
        tau = _closed_form_tau(y, tables)
        direct = tau_by_bisection(y, tables, 12)
        assert abs(direct - tau) <= 1e-9 * max(1.0, abs(tau))


def test_degenerate_expectation_rejects_every_tuple():
    # the dead channel never outputs 1, so seeing it makes tau -inf: the
    # threshold -n * tau is +inf and no candidate clears it
    dead = validate_dmc([[1.0, 0.0], [1.0, 0.0]], 1, 2, 2)
    table = RateTable(((0.05,),))
    laws = uniform_laws(table, 2)
    tables = build_threshold_tables(RateVectorIndex((1,)), dead,
                                    frozenset(), laws, table, 0.5, 0.25)
    assert _closed_form_tau([0, 1], tables) == -math.inf


def test_noiseless_single_codeword_decoding():
    comp = CompoundSet((NOISELESS,), ("id",))
    table = RateTable(((0.0,),))
    laws = uniform_laws(table, 2)
    region = OperationRegion(((RateVectorIndex((1,)), "id"),),
                             "finite")
    n = 3
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), n)
    cb = generate_codebooks(table, laws, 2, n, seed=3)
    cw = cb.codeword(1, 1, 0)
    for bits in np.ndindex(2, 2, 2):
        d = decoder.decode(np.array(bits), cb)
        if np.array_equal(np.array(bits), cw):
            assert d.outcome == "decoded"
            assert d.messages == (0,)
            assert d.channel_id == "id"
        else:
            # zero likelihood never wins, even with tau = +inf
            assert d.outcome == "collision"
    exact = ramac.exact_conditional_errors(region, laws, table, n,
                                           compound=comp, codebooks=cb,
                                           cfg=TINY_OPT)
    assert exact.cases[0].probability == 0.0


def test_score_tie_collides_and_perturbation_decodes():
    comp, table, laws, region = _k1([0.1], (math.log(2) / 4,))
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), 4)
    y = np.zeros(4, dtype=np.int64)
    tied = CodebookSet(seed=0, n=4, entries={
        (1, 1): np.array([[0, 0, 1, 1], [1, 1, 0, 0]])})
    assert decoder.decode(y, tied).outcome == "collision"
    split = CodebookSet(seed=0, n=4, entries={
        (1, 1): np.array([[0, 0, 1, 1], [1, 1, 0, 1]])})
    d = decoder.decode(y, split)
    assert d.outcome == "decoded"
    assert d.messages == (0,)


def test_empty_region_always_collides():
    comp, table, laws, _ = _k1([0.1], (0.05,))
    region = OperationRegion((), "finite")
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), 4)
    cb = generate_codebooks(table, laws, 2, 4, seed=1)
    for bits in np.ndindex(2, 2, 2, 2):
        assert decoder.decode(np.array(bits), cb).outcome == "collision"


def test_schedule_covers_universe_with_labels():
    comp, table, laws, region = _k1([0.05, 0.15], (0.05, 0.3),
                                    region_idx=(1,), ids=("a", "b"))
    sched = build_schedule(region, table, comp.ids)
    assert len(sched) == 4
    assert [s[2] for s in sched] == [True, True, False, False]
    # envelopes: realizations stay channel-level, membership turns class-level
    class_region = OperationRegion(
        ((RateVectorIndex((1,)), "k"),), "class")
    env = ramac.build_envelope(tuple(comp.by_id(c) for c in comp.ids),
                               class_id="k", member_ids=comp.ids)
    sched2 = build_schedule(class_region, table, comp.ids, (env,))
    assert [s[2] for s in sched2] == [True, True, False, False]


def test_class_membership_read_off_the_envelopes():
    # class_k1 commits to class clean = {b05, b10}; the envelopes alone must
    # put both channels in region (without them every case reads out of
    # region: system error 0.018, b10 exact 0.003028)
    cfg = Path(__file__).resolve().parents[1] / "perfbench/scenarios/class_k1.cfg"
    system = cfgmod.build_system(cfgmod.load_config(str(cfg)))
    ledger = ramac.ExponentLedger(system.envelopes, system.laws, system.table,
                                  system.cfg.optimizer)
    rep = ramac.estimate_errors(system.region, system.compound, ledger, 24,
                                2000, 7, params=system.cfg.thresholds)
    assert [(c.channel_id, c.in_region, c.rate) for c in rep.cases] == [
        ("b05", True, 0.0025), ("b10", True, 0.0415), ("b30", False, 0.018)]
    assert rep.system_error_rate == 0.0415
    exact = ramac.exact_conditional_errors(
        system.region, system.laws, system.table, 10,
        compound=system.compound, envelopes=system.envelopes,
        params=system.cfg.thresholds, cfg=system.cfg.optimizer, seed=3,
        codebook_samples=2)
    assert [(c.channel_id, c.in_region) for c in exact.cases] == [
        ("b05", True), ("b10", True), ("b30", False)]
    assert abs(exact.cases[1].probability - 0.0701908264) < 1e-12


def test_envelope_members_must_be_compound_ids():
    comp, table, laws, region = _k1([0.05, 0.15], (0.05, 0.3),
                                    region_idx=(1,), ids=("a", "b"))
    class_region = OperationRegion(
        ((RateVectorIndex((1,)), "k"),), "class")
    chans = (comp.by_id("a"), comp.by_id("b"))
    strangers = ramac.build_envelope(chans, class_id="k", member_ids=("0", "1"))
    twice = (ramac.build_envelope(chans, class_id="k", member_ids=("a", "b")),
             ramac.build_envelope(chans[1:], class_id="j", member_ids=("b",)))
    for envelopes in ((strangers,), twice):
        with pytest.raises(ValidationError):
            build_schedule(class_region, table, comp.ids, envelopes)
    with pytest.raises(ValidationError, match="not a realizable"):
        ramac.estimate_errors(class_region, comp,
                              _ledger((strangers,), laws, table), 8, 10, 1)


def _mac(diag):
    """Two binary users, output 2*x1 + x2 with probability diag."""
    rows = np.full((4, 4), (1.0 - diag) / 3)
    np.fill_diagonal(rows, diag)
    return Dmc(2, 2, 4, rows.reshape(2, 2, 4))


MAC_GOOD = _mac(0.8)
MAC_BAD = _mac(0.55)


def _mixed(ch, other, w):
    return Dmc(ch.num_users, ch.input_size, ch.output_size,
               (1 - w) * ch.probs + w * other.probs)


def _decoder_system(k, mode, n):
    """A K-user system with two rates per user whose region leaves out pairs
    that agree with members on every conditioning subset, so every subset
    has finite thresholds. Finite mode at K=1 has `twin`, a copy of `a`, so
    equal scores under two channel hypotheses go to the channel-id
    tie-break. Class mode decodes envelope classes `lo` and `hi`.
    Returns (compound, table, laws, region, envelopes).
    """
    if k == 1:
        chans = {"a": bsc(0.05), "twin": bsc(0.05), "b": bsc(0.2),
                 "a2": bsc(0.2)}
        inside = {"a": ((1,), (2,)), "twin": ((1,),), "b": ((1,),)}
        classes = {"lo": ("a", "a2"), "hi": ("b",)}
        class_inside = {"lo": ((1,), (2,)), "hi": ((1,),)}
    else:
        chans = {"good": MAC_GOOD, "bad": MAC_BAD,
                 "good2": _mixed(MAC_GOOD, MAC_BAD, 0.6),
                 "bad2": _mixed(MAC_BAD, MAC_GOOD, 0.6)}
        inside = {"good": ((1, 1), (1, 2), (2, 1), (2, 2)), "bad": ((1, 1),)}
        classes = {"lo": ("good", "good2"), "hi": ("bad", "bad2")}
        class_inside = {"lo": inside["good"], "hi": inside["bad"]}
    table = RateTable(((math.log(2) / n, math.log(3) / n),) * k)
    laws = uniform_laws(table, 2)
    envelopes = None
    if mode == "class":
        ids = tuple(c for members in classes.values() for c in members)
        envelopes = tuple(ramac.build_envelope(
            tuple(chans[c] for c in members), class_id=cls, member_ids=members)
            for cls, members in classes.items())
        inside = class_inside
    else:
        ids = tuple(inside)
    comp = CompoundSet(tuple(chans[c] for c in ids), ids)
    members = tuple((RateVectorIndex(r), cid)
                    for cid, rates in inside.items() for r in rates)
    region = OperationRegion(members, mode)
    return comp, table, laws, region, envelopes


def _send(rng, comp, decoder, books, trials):
    """Received words of `trials` slots, each sending random messages at a
    random universe rate vector over a random realizable channel."""
    k = decoder.num_users
    ys = np.empty((trials, decoder.n), dtype=np.int64)
    for t in range(trials):
        rvi = RateVectorIndex(tuple(
            int(i) for i in rng.integers(1, 3, size=k)))
        ch = comp.channels[int(rng.integers(len(comp.channels)))]
        xs = tuple(books[(u, rvi.index(u))][t, int(rng.integers(
            decoder.message_counts[(u, rvi.index(u))]))]
            for u in range(1, k + 1))
        cum = np.cumsum(ch.probs, axis=-1)[xs]  # (n, b)
        ys[t] = (rng.random(decoder.n)[:, None] > cum[:, :-1]).sum(axis=1)
    return ys


def test_batched_decisions_match_scalar_decode():
    """decide() equals the scalar oracle trial for trial: decoded group
    (messages and rate vector) and channel id, at K=1 and K=2, finite and
    class mode, with a fresh codebook per trial and one frozen codebook. On
    the frozen codebook decode(), decide() on one word, equals it too."""
    rng = np.random.default_rng(8)
    n = 6
    for k, mode in itertools.product((1, 2), ("finite", "class")):
        comp, table, laws, region, envs = _decoder_system(k, mode, n)
        decoder = ramac.SlotDecoder(region, _ledger(envs or comp, laws, table),
                                    n)
        for subset in decoder.subsets:
            assert any(decoder.thresholds[((rvi.indices, cid), subset)]
                       is not None for rvi, cid in region.members)
        trials = 150 if k == 1 else 60
        frozen = generate_codebooks(table, laws, 2, n, seed=k)
        for fresh in (True, False):
            books = {key: (rng.integers(0, 2, size=(trials, m, n)) if fresh
                           else np.broadcast_to(frozen.entries[key],
                                                (trials, m, n)))
                     for key, m in decoder.message_counts.items()}
            ys = _send(rng, comp, decoder, books, trials)
            group, channel = decoder.decide(ys, books)
            label = f"K={k} {mode} {'fresh' if fresh else 'frozen'}"
            rates_decoded = set()
            for t in range(trials):
                cb = CodebookSet(0, n, {key: v[t] for key, v in books.items()})
                oracle = scalar_decode(decoder, ys[t], cb)
                want = (-1, -1)
                if oracle is not None:
                    msgs, rvi, cid = oracle
                    rates_decoded.add(rvi.indices)
                    want = (decoder.group_ids(rvi, np.array([msgs]))[0],
                            decoder.ids.index(cid))
                assert (group[t], channel[t]) == want, (label, t)
                if not fresh:
                    d = decoder.decode(ys[t], cb)
                    got = None if d.outcome == "collision" else (
                        d.messages, d.rates, d.channel_id)
                    assert got == oracle, (label, t)
            assert len(rates_decoded) > 1 and (group < 0).any(), label


def _count_system(k, a, b, n):
    """K users with a inputs and b outputs, two rates per user (2 and 3
    messages at every n). Each user's rate-1 law gives letter 1 probability
    zero when a > 2; channel `good` has a zero in every input row, so its
    score tables have dead cells. The region holds every rate vector on
    `good` and the all-ones vector on `bad`. Returns (compound, table, laws,
    region)."""
    rng = np.random.default_rng(100 * k + a + b)
    good = rng.random((a,) * k + (b,)) + 0.2
    good.reshape(-1, b)[np.arange(a ** k), np.arange(a ** k) % b] = 0.0
    good /= good.sum(axis=-1, keepdims=True)
    bad = np.full((a,) * k + (b,), 1.0 / b)
    chans = (validate_dmc(good, k, a, b), validate_dmc(bad, k, a, b))
    comp = CompoundSet(chans, ("good", "bad"))
    table = RateTable(((math.log(2) / n, math.log(3) / n),) * k)
    zero = np.full(a, 1.0)
    if a > 2:
        zero[1] = 0.0
    zero /= zero.sum()
    laws = InputLaws({
        (u, i): zero if i == 1 else np.full(a, 1.0 / a)
        for u in range(1, k + 1) for i in (1, 2)})
    members = tuple((RateVectorIndex(r), "good")
                    for r in itertools.product((1, 2), repeat=k))
    region = OperationRegion(
        members + ((RateVectorIndex((1,) * k), "bad"),), "finite")
    return comp, table, laws, region


@pytest.mark.parametrize("k, a, b, n", [
    (1, 3, 3, 1), (1, 3, 3, 7), (1, 3, 3, 8), (1, 3, 3, 9), (1, 3, 3, 17),
    (1, 2, 2, 9), (1, 2, 2, 257), (2, 2, 4, 8), (2, 3, 9, 7), (2, 3, 9, 9),
    (1, 17, 17, 9),
])
def test_cell_counts_match_the_scalar_oracle(k, a, b, n, monkeypatch):
    """decide() against the scalar oracle, which counts cells with its own
    bincount, across the cell-count kernel's edge cases: words of 1, 7, 8, 9,
    17 and 257 symbols; a three-letter input alphabet whose rate-1 laws never
    send letter 1 and a channel with dead cells; K=2 systems of 16 and 81
    cells; 289 cells of 17-letter alphabets, whose uint16 codes start from
    uint8 symbols; int64 and uint8 symbols; and slices of one trial, whose
    decisions equal those under the default budget."""
    rng = np.random.default_rng(n)
    comp, table, laws, region = _count_system(k, a, b, n)
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), n)
    assert decoder.cells == a ** k * b
    trials = 40 if k == 1 else 12
    books = {key: rng.choice(a, size=(trials, m, n), p=laws.law(*key))
             for key, m in decoder.message_counts.items()}
    ys = _send(rng, comp, decoder, books, trials)
    want = []
    for t in range(trials):
        cb = CodebookSet(0, n, {key: v[t] for key, v in books.items()})
        oracle = scalar_decode(decoder, ys[t], cb)
        want.append((-1, -1) if oracle is None else (
            decoder.group_ids(oracle[1], np.array([oracle[0]]))[0],
            decoder.ids.index(oracle[2])))
    want = tuple(np.array(w) for w in zip(*want))
    assert (want[0] >= 0).any() and (want[0] < 0).any()
    narrow = ({key: v.astype(np.uint8) for key, v in books.items()},
              ys.astype(np.uint8))
    for label, (bk, words) in {"int64": (books, ys), "uint8": narrow}.items():
        got = decoder.decide(words, bk)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), label
    monkeypatch.setattr(ramac.sim, "_DECIDE_BYTES", 1)
    got = decoder.decide(ys, books)
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), "1-trial slices"


def _oracle_decisions(decoder, ys, books):
    """scalar_decode on every trial, as decide() reports it: (group, channel)
    arrays, -1 on a collision."""
    want = []
    for t in range(len(ys)):
        cb = CodebookSet(0, decoder.n, {key: v[t] for key, v in books.items()})
        oracle = scalar_decode(decoder, ys[t], cb)
        want.append((-1, -1) if oracle is None else (
            decoder.group_ids(oracle[1], np.array([oracle[0]]))[0],
            decoder.ids.index(oracle[2])))
    return tuple(np.array(w) for w in zip(*want))


def _system(chans, classes, rates, k, n):
    """A K-user system over chans (id -> Dmc) with rates (message counts per
    user) in every rate class. The region holds every rate vector on the
    first id and the all-ones vector on the second; with classes (class id
    -> member ids) it is a class region over them, else a finite one.
    Returns (compound, table, laws, region, envelopes)."""
    table = RateTable((tuple(math.log(m) / n for m in rates),) * k)
    laws = uniform_laws(table, next(iter(chans.values())).input_size)
    envelopes = None
    if classes:
        envelopes = tuple(ramac.build_envelope(
            tuple(chans[c] for c in members), class_id=cls, member_ids=members)
            for cls, members in classes.items())
    ids = tuple(classes or chans)
    vectors = itertools.product(range(1, len(rates) + 1), repeat=k)
    members = tuple((RateVectorIndex(r), ids[0]) for r in vectors)
    region = OperationRegion(
        members + ((RateVectorIndex((1,) * k), ids[1]),),
        "class" if classes else "finite")
    comp = CompoundSet(tuple(chans.values()), tuple(chans))
    return comp, table, laws, region, envelopes


@pytest.mark.parametrize("n, ulps, seed", [(6, 1, 0), (6, 3, 1), (23, 1, 2)])
def test_class_decisions_where_tested_beats_rival(n, ulps, seed):
    """Class mode over a BSC(0.1) and a copy whose first row moves a few
    ulps of mass between its cells: pmin and pmax then differ by ulps in
    two cells, the tested (pmin) table groups cell (0, 0) with (1, 1) and
    the rival (pmax) table does not, so their ordered sums round apart and
    some tested scores beat their rival scores. decide() must still equal
    the scalar oracle, which judges every candidate."""
    base = np.array([[0.9, 0.1], [0.1, 0.9]])
    near = base.copy()
    near[0] += np.array([1, -1]) * ulps * np.spacing(0.9)
    chans = {"a": Dmc(1, 2, 2, base), "a2": Dmc(1, 2, 2, near),
             "b": bsc(0.3)}
    comp, table, laws, region, envs = _system(
        chans, {"lo": ("a", "a2"), "hi": ("b",)}, (2, 3), 1, n)
    env = envs[0]
    assert (env.pmin != env.pmax).sum() == 2
    assert 0 < np.abs(env.pmax - env.pmin).max() <= 4 * ulps * np.spacing(0.9)
    decoder = ramac.SlotDecoder(region, _ledger(envs, laws, table), n)
    rng = np.random.default_rng(seed)
    trials = 300
    books = {key: rng.integers(0, 2, size=(trials, m, n))
             for key, m in decoder.message_counts.items()}
    ys = _send(rng, comp, decoder, books, trials)
    tested, rival = decoder._scores(ys, books)
    assert (tested > rival).any()
    want = _oracle_decisions(decoder, ys, books)
    got = decoder.decide(ys, books)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert (want[0] >= 0).any() and (want[0] < 0).any()


def test_class_top_tie_lifted_by_rounding_collides():
    """Two groups tie at the top rival score and rounding lifts both of
    their tested scores past it, so both dominate and the slot collides. A
    pass that judged only the first group with the top would decode it.
    (pmin and pmax differ by 2 ulps in two cells of a 3-output channel.)"""
    n = 10
    base = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    near = base.copy()
    near[0, [0, 2]] += np.array([2, -2]) * np.spacing(0.7)
    env = ramac.build_envelope((Dmc(1, 2, 3, base), Dmc(1, 2, 3, near)),
                               class_id="lo", member_ids=("a", "a2"))
    table = RateTable(((math.log(4) / n,),))
    region = OperationRegion(((RateVectorIndex((1,)), "lo"),), "class")
    decoder = ramac.SlotDecoder(
        region, _ledger((env,), uniform_laws(table, 2), table), n)
    rows = np.array([[int(c) for c in word] for word in
                     ("1101111100", "1101111111", "1001100000", "1110001101")])
    y = np.array([int(c) for c in "2200112001"])
    tested, rival = decoder._scores(y[None], {(1, 1): rows[None]})
    top = rival.max()
    assert list(np.flatnonzero(rival[:, 0] == top)) == [0, 3]
    assert (tested[[0, 3], 0] > top).all()
    cb = CodebookSet(0, n, {(1, 1): rows})
    assert scalar_decode(decoder, y, cb) is None
    assert decoder.decode(y, cb).outcome == "collision"


@given(st.integers(1, 2), st.integers(2, 5), st.integers(2, 5),
       st.integers(1, 70), st.booleans(), st.integers(0, 2 ** 16))
@settings(max_examples=60)
def test_decisions_match_scalar_decode_property(k, a, b, n, classy, seed):
    """decide() equals the scalar oracle on random systems: K = 1 or 2,
    alphabets of 2 to 5 letters, any n up to 70 (rows of one to five 16-bit
    words), finite or class mode, channels with dead cells on odd seeds, and
    uint8 or int64 symbols."""
    rng = np.random.default_rng(seed)
    dead = rng.integers(b, size=a ** k)  # one in every input row, odd seeds
    chans = {}
    for cid in ("c0", "c1", "c2"):
        probs = rng.random((a,) * k + (b,)) + 0.05
        if seed % 2:
            probs.reshape(-1, b)[np.arange(a ** k), dead] = 0
        chans[cid] = Dmc(k, a, b, probs / probs.sum(axis=-1, keepdims=True))
    classes = {"lo": ("c0", "c1"), "hi": ("c2",)} if classy else None
    comp, table, laws, region, envs = _system(chans, classes, (2, 3), k, n)
    decoder = ramac.SlotDecoder(region, _ledger(envs or comp, laws, table), n)
    trials = 12
    books = {key: rng.integers(0, a, size=(trials, m, n))
             for key, m in decoder.message_counts.items()}
    ys = _send(rng, comp, decoder, books, trials)
    if seed % 3 == 0:
        books = {key: v.astype(np.uint8) for key, v in books.items()}
        ys = ys.astype(np.uint8)
    want = _oracle_decisions(decoder, ys, books)
    got = decoder.decide(ys, books)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_one_output_channel_simulates():
    """A channel with one output letter has no edges to draw it with: every
    received word is all zeros, and two messages always collide."""
    comp = CompoundSet((validate_dmc(np.ones((2, 1)), 1, 2, 1),), ("c",))
    table = RateTable(((math.log(2) / 8,),))
    region = OperationRegion(((RateVectorIndex((1,)), "c"),), "finite")
    rep = ramac.estimate_errors(
        region, comp, _ledger(comp, uniform_laws(table, 2), table), 8, 50, 3)
    assert [(c.decoded_correct, c.decoded_wrong, c.collision)
            for c in rep.cases] == [(0, 0, 50)]


def test_outcome_counts_split_every_trial():
    comp, table, laws, region, envs = _decoder_system(2, "class", 6)
    rep = ramac.estimate_errors(region, comp, _ledger(envs, laws, table), 6,
                                40, 3)
    for c in rep.cases:
        assert c.decoded_correct + c.decoded_wrong + c.collision == c.trials
        want = c.decoded_wrong + (c.collision if c.in_region else 0)
        assert c.errors == want
    assert any(c.collision for c in rep.cases)
    assert any(c.decoded_correct for c in rep.cases)


def test_k2_exact_matches_scalar_enumeration(monkeypatch):
    n = 4
    comp, table, laws, region, _ = _decoder_system(2, "finite", n)
    cb = generate_codebooks(table, laws, 2, n, seed=21)
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), n)
    # decide's slices of 37 words split the 256 words
    monkeypatch.setattr(ramac.sim, "_DECIDE_BYTES", 8 * decoder._group_of.size * 37)
    rep = ramac.exact_conditional_errors(region, laws, table, n, compound=comp,
                                         cfg=TINY_OPT, codebooks=cb)
    words = list(itertools.product(range(4), repeat=n))
    outcome = {}
    for y in words:
        d = scalar_decode(decoder, np.array(y), cb)
        outcome[y] = None if d is None else (d[0], d[1].indices)
    schedule = build_schedule(region, table, comp.ids)
    for case, (rvi, cid, in_region) in zip(rep.cases, schedule):
        probs = comp.by_id(cid).probs
        tuples = list(itertools.product(
            *(range(decoder.message_counts[(u, rvi.index(u))])
              for u in (1, 2))))
        total = 0.0
        for msgs in tuples:
            xs = [cb.codeword(u, rvi.index(u), msgs[u - 1]) for u in (1, 2)]
            for y in words:
                out = outcome[y]
                if out == (msgs, rvi.indices) or (out is None and not in_region):
                    continue
                p = 1.0
                for j in range(n):
                    p *= probs[xs[0][j], xs[1][j], y[j]]
                total += p
        assert abs(case.probability - total / len(tuples)) < 1e-12
    assert any(0 < case.probability < 1 for case in rep.cases)


@pytest.mark.parametrize("k, classy", [(1, False), (1, True), (2, False),
                                      (2, True)])
def test_exact_matches_chunked_reference(k, classy):
    """Exact enumeration equals, by ==, the chunked per-symbol loop on
    random systems with 2 inputs and 3 outputs and the same dead cell in
    every input row of each channel: K = 1 at n = 9 (19683 words) and K = 2
    at n = 8 (6561 words), so the reference's 4096-word chunks split them."""
    a, b, n = 2, 3, 10 - k
    rng = np.random.default_rng(40 + 2 * k + classy)
    dead = rng.integers(b, size=a ** k)
    chans = {}
    for cid in ("c0", "c1", "c2"):
        probs = rng.random((a,) * k + (b,)) + 0.05
        probs.reshape(-1, b)[np.arange(a ** k), dead] = 0
        chans[cid] = Dmc(k, a, b, probs / probs.sum(axis=-1, keepdims=True))
    classes = {"lo": ("c0", "c1"), "hi": ("c2",)} if classy else None
    comp, table, laws, region, envs = _system(chans, classes, (2, 3), k, n)
    cb = generate_codebooks(table, laws, a, n, seed=k)
    rep = ramac.exact_conditional_errors(region, laws, table, n, compound=comp,
                                         envelopes=envs, cfg=TINY_OPT,
                                         codebooks=cb)
    decoder = ramac.SlotDecoder(region, _ledger(envs or comp, laws, table), n)
    want = exact_errors_by_chunks(
        decoder, build_schedule(region, table, comp.ids, envs or ()),
        {cid: ch.probs for cid, ch in chans.items()}, cb)
    assert [c.probability for c in rep.cases] == want
    assert [c.probability for c in rep.per_sample[0]] == want
    assert any(0 < p < 1 for p in want)


def test_singleton_class_mode_matches_finite_decisions():
    comp, table, laws, region = _k1([0.08], (0.1,))
    env = ramac.build_envelope((comp.by_id("c"),), class_id="c",
                               member_ids=("c",))
    class_region = OperationRegion(region.members, "class")
    finite = ramac.estimate_errors(region, comp, _ledger(comp, laws, table),
                                   8, 300, 11)
    classy = ramac.estimate_errors(class_region, comp,
                                   _ledger((env,), laws, table), 8, 300, 11)
    assert [c.errors for c in finite.cases] == [c.errors for c in classy.cases]


def test_simulation_reports_are_deterministic():
    comp, table, laws, region = _k1([0.1], (0.1,))
    a = ramac.estimate_errors(region, comp, _ledger(comp, laws, table), 8,
                              150, 23, bound=0.9)
    b = ramac.estimate_errors(region, comp, _ledger(comp, laws, table), 8,
                              150, 23, bound=0.9)
    assert a == b
    assert a.bound_holds in (True, False)
    assert a.system_case is not None
    assert a.system_half_width99 == Z99 * a.system_std


def test_batch_size_does_not_change_results(monkeypatch):
    # the trials a batch holds come from the _DRAW_UNIFORMS budget; a small
    # budget splits every block into batches, which must not move a decision
    comp, table, laws, region = _k1([0.1], (0.1,))
    comp2, table2, laws2, region2, _ = _decoder_system(2, "finite", 6)

    def runs():
        # K=1: more trials than one block of draws, so blocks split too
        yield ramac.estimate_errors(region, comp, _ledger(comp, laws, table),
                                    8, 5000, 5)
        for books in (None, generate_codebooks(table2, laws2, 2, 6, 5)):
            yield ramac.estimate_errors(region2, comp2,
                                        _ledger(comp2, laws2, table2), 6, 30,
                                        5, codebooks=books)

    default = list(runs())
    # 16 uniforms a K=1 trial and 60 a K=2 trial: batches of 3 and of 1
    monkeypatch.setattr(ramac.sim, "_DRAW_UNIFORMS", 48)
    for a, b in zip(default, runs()):
        assert a.cases == b.cases


def test_batch_size_bounds_draw_memory(monkeypatch):
    # 256 codewords of 8 symbols a trial: a batch under the default budget
    # holds 512 trials, 1 MiB of uint8 codebooks; under a budget of 2**15
    # uniforms it holds 16, 32 KiB. The peaks differ by at least the
    # codebook bytes the two batches hold; decide()'s arrays, which shrink
    # with the batch too, only widen the gap. A first run loads what the
    # simulator imports on first use, which neither peak may count.
    comp, table, laws, region = _k1([0.1], (math.log(2),))
    ramac.estimate_errors(region, comp, _ledger(comp, laws, table), 8, 1, 2)
    peaks, reports = [], []
    budgets = (ramac.sim._DRAW_UNIFORMS, 2 ** 15)
    for budget in budgets:
        monkeypatch.setattr(ramac.sim, "_DRAW_UNIFORMS", budget)
        tracemalloc.start()
        reports.append(ramac.estimate_errors(
            region, comp, _ledger(comp, laws, table), 8, 600, 2))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    held = [min(600, budget // (256 * 8)) * 256 * 8 for budget in budgets]
    assert held == [2 ** 20, 2 ** 15]
    assert peaks[0] - peaks[1] >= held[0] - held[1], (peaks, held)
    assert reports[0].cases == reports[1].cases


def test_block_draws_read_one_codebook_stream():
    # however a block is split, its codebooks are one Philox stream read key
    # by key in sorted order, then trial, message and symbol; 9 trials at n=5
    # start the four keys at every offset mod 4. Each call's books reuse the
    # block's buffers, so the parts are copied before the next call.
    n = 5
    comp, table, laws, region, _ = _decoder_system(2, "finite", n)
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), n)
    true_rvi = region.members[0][0]
    books_of, _, _ = ramac.sim._draw_block(
        4, 1, 2, 9, decoder, true_rvi, None,
        ramac.sim._book_buffers(decoder, true_rvi, 9))
    parts = [{key: v.copy() for key, v in books_of(count).items()}
             for count in (2, 7)]
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=4, spawn_key=(0, 1, 2))))
    for key, m in sorted(decoder.message_counts.items()):
        cum = np.cumsum(laws.law(*key))
        want = np.minimum(np.searchsorted(cum, gen.random((9, m, n)),
                                          side="right"), len(cum) - 1)
        assert np.array_equal(np.concatenate([p[key] for p in parts]), want), key


def _ternary_system():
    """K=1 with three inputs and three outputs; rate 1's input law gives its
    middle letter probability zero."""
    table = RateTable(((math.log(2) / 7, math.log(5) / 7),))
    laws = InputLaws({(1, 1): (0.5, 0.0, 0.5), (1, 2): (0.2, 0.3, 0.5)})
    good = validate_dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                         [0.1, 0.1, 0.8]], 1, 3, 3)
    bad = validate_dmc([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2],
                        [0.1, 0.3, 0.6]], 1, 3, 3)
    comp = CompoundSet((good, bad), ("good", "bad"))
    rvi = RateVectorIndex
    region = OperationRegion(((rvi((1,)), "good"), (rvi((2,)), "good"),
                              (rvi((1,)), "bad")), "finite")
    return comp, table, laws, region


def _outcomes(report):
    return [(c.decoded_correct, c.decoded_wrong, c.collision)
            for c in report.cases]


def test_monte_carlo_outcomes_pinned():
    # per-case (decoded_correct, decoded_wrong, collision), pinned: a rewrite
    # of the symbol map, the channel draw or the cell counts must keep every
    # decision, not just the error rates
    comp, table, laws, region = _ternary_system()
    rep = ramac.estimate_errors(region, comp, _ledger(comp, laws, table), 7,
                                5000, 17)
    assert _outcomes(rep) == [(4012, 299, 689), (3004, 554, 1442),
                              (3415, 379, 1206), (1312, 910, 2778)]
    comp, table, laws, region, _ = _decoder_system(2, "finite", 6)
    want = {
        False: [(191, 32, 77), (112, 76, 112), (171, 42, 87), (46, 102, 152),
                (161, 47, 92), (57, 91, 152), (138, 41, 121), (35, 86, 179)],
        True: [(219, 40, 41), (123, 104, 73), (184, 37, 79), (53, 105, 142),
               (193, 55, 52), (74, 130, 96), (167, 36, 97), (34, 93, 173)],
    }
    for freeze, counts in want.items():
        books = generate_codebooks(table, laws, 2, 6, 29) if freeze else None
        rep = ramac.estimate_errors(region, comp, _ledger(comp, laws, table),
                                    6, 300, 29, codebooks=books)
        assert _outcomes(rep) == counts, freeze


def test_saturated_thresholds_pinned():
    # rate 1's input law ends in a zero, so its codebook entry of 1.0 never
    # fires; both channels' rows for input 0 end in a zero, so their entry of
    # 1.0 never fires either. 5000 trials make two blocks of draws that reuse
    # one set of buffers. The counts were recorded before the symbol maps
    # moved to raw Philox words.
    table = RateTable(((math.log(2) / 7, math.log(5) / 7),))
    laws = InputLaws({(1, 1): (0.5, 0.5, 0.0), (1, 2): (0.2, 0.3, 0.5)})
    good = validate_dmc([[0.8, 0.2, 0.0], [0.1, 0.8, 0.1],
                         [0.1, 0.1, 0.8]], 1, 3, 3)
    bad = validate_dmc([[0.6, 0.4, 0.0], [0.2, 0.6, 0.2],
                        [0.1, 0.3, 0.6]], 1, 3, 3)
    comp = CompoundSet((good, bad), ("good", "bad"))
    rvi = RateVectorIndex
    region = OperationRegion(((rvi((1,)), "good"), (rvi((2,)), "good"),
                              (rvi((1,)), "bad")), "finite")
    rep = ramac.estimate_errors(region, comp, _ledger(comp, laws, table), 7,
                                5000, 31)
    assert _outcomes(rep) == [(4409, 311, 280), (3411, 835, 754),
                              (3715, 314, 971), (1486, 950, 2564)]
    books = generate_codebooks(table, laws, 3, 7, 31)
    assert books.entries[(1, 1)].tolist() == [[1, 0, 1, 0, 0, 0, 1],
                                              [0, 0, 1, 0, 1, 0, 0]]


def test_unused_codebook_keys_are_not_drawn():
    # the region reads only rate 2; a case sent at rate 2 never reads rate
    # 1's codebook, whose uniforms the rate-2 stream still skips (one
    # codeword of 7 symbols a trial: the 905-trial last block skips 6335).
    # The counts were recorded when every key was drawn.
    n = 7
    comp, table, laws, region = _k1([0.1], (0.05, 0.4), region_idx=(2,))
    decoder = ramac.SlotDecoder(region, _ledger(comp, laws, table), n)
    assert decoder.message_counts == {(1, 1): 1, (1, 2): 16}
    for true, keys in (((2,), {(1, 2)}), ((1,), {(1, 1), (1, 2)})):
        true_rvi = RateVectorIndex(true)
        books_of, _, _ = ramac.sim._draw_block(
            13, 0, 0, 5, decoder, true_rvi, None,
            ramac.sim._book_buffers(decoder, true_rvi, 5))
        assert set(books_of(5)) == keys, true
    rep = ramac.estimate_errors(region, comp, _ledger(comp, laws, table), n,
                                5001, 13)
    assert [(c.rate_indices, c.in_region, c.errors) for c in rep.cases] == [
        ((1,), False, 2190), ((2,), True, 2147)]
    assert _outcomes(rep) == [(0, 2190, 2811), (2854, 475, 1672)]


def test_exact_enumeration_guard():
    comp, table, laws, region = _k1([0.1], (0.0,))
    with pytest.raises(EnumerationTooLarge):
        ramac.exact_conditional_errors(region, laws, table, 21, compound=comp,
                                       cfg=TINY_OPT)


def test_exact_two_codeword_case_matches_binomial_tail():
    p = 0.1
    n = 8
    comp, table, laws, region = _k1([p], (math.log(2) / n,))
    cb = CodebookSet(seed=0, n=n, entries={
        (1, 1): np.array([[0] * n, [1, 1, 1, 1, 0, 0, 0, 0]])})
    exact = ramac.exact_conditional_errors(region, laws, table, n,
                                           compound=comp, codebooks=cb,
                                           cfg=TINY_OPT)
    # distance-4 pair: ML pairwise error with ties resolved against the sender
    assert abs(exact.cases[0].probability - pairwise_tail(p, 4)) < 1e-12


def test_exact_ensemble_averages_over_codebooks():
    comp, table, laws, region = _k1([0.1], (math.log(2) / 6,))
    rep = ramac.exact_conditional_errors(region, laws, table, 6, compound=comp,
                                         cfg=TINY_OPT, seed=4,
                                         codebook_samples=3)
    assert rep.samples == 3
    assert len(rep.per_sample) == 3
    mean = sum(s[0].probability for s in rep.per_sample) / 3
    assert abs(rep.cases[0].probability - mean) < 1e-15
