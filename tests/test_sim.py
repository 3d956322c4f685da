"""Slot simulation: codebooks, thresholds, the threshold decoder, estimators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ramac
from conftest import FAST_OPT, bsc
from oracles import (pairwise_tail, scalar_decode, symbols_by_searchsorted,
                     tau_by_bisection)

TINY_OPT = ramac.OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                                 refinement_rounds=0)
NOISELESS = ramac.validate_dmc([[1.0, 0.0], [0.0, 1.0]], 1, 2, 2)


def _k1(p, rates, region_idx=(1,), ids=("c",)):
    comp = ramac.CompoundSet(tuple(bsc(q) for q in p), ids)
    table = ramac.RateTable((tuple(rates),))
    laws = ramac.uniform_laws(table, 2)
    members = tuple((ramac.RateVectorIndex((i,)), cid)
                    for i in region_idx for cid in ids)
    region = ramac.OperationRegion(members, "finite")
    return comp, table, laws, region


def _closed_form_tau(y, tables):
    counts = np.bincount(y, minlength=tables.log_a.shape[0]).astype(float)
    return float(tables.taus(counts[None], len(y))[0])


def test_message_count_examples():
    assert ramac.message_count(10, 0.0) == 1
    assert ramac.message_count(4, math.log(2)) == 16
    assert ramac.message_count(8, math.log(2) / 8) == 2
    assert ramac.message_count(5, 0.1) == 1  # floor(e^0.5) = 1


def test_codebooks_deterministic_and_addressable():
    table = ramac.RateTable(((0.0, math.log(2) / 4), (0.0, math.log(3) / 4)))
    laws = ramac.uniform_laws(table, 3)
    a = ramac.generate_codebooks(table, laws, 3, 4, seed=99)
    b = ramac.generate_codebooks(table, laws, 3, 4, seed=99)
    for key in a.entries:
        assert np.array_equal(a.entries[key], b.entries[key])
    assert a.counts()[(1, 2)] == 2
    assert a.counts()[(2, 2)] == 3
    # single entries regenerate from their own stream, independent of the rest
    cum = np.cumsum(laws.law(2, 2))
    ss = np.random.SeedSequence(entropy=99, spawn_key=(2, 2, 1))
    gen = np.random.Generator(np.random.Philox(ss))
    idx = np.searchsorted(cum, gen.random(4), side="right")
    want = np.minimum(idx, 2)
    assert np.array_equal(a.codeword(2, 2, 1), want)
    c = ramac.generate_codebooks(table, laws, 3, 4, seed=100)
    assert not all(np.array_equal(a.entries[k], c.entries[k]) for k in a.entries)


def test_symbol_map_matches_searchsorted():
    # uniforms on and next to every cumulative entry, repeated entries (a
    # zero-probability letter first, inside and last), a cumulative law whose
    # last entry rounds below 1, and uniforms at or above that entry
    rounded = np.cumsum(np.full(10, 0.1))
    assert rounded[-1] < 1.0
    laws = [(1.0,), (0.5, 0.5), (0.3, 0.0, 0.7), (0.0, 0.4, 0.6),
            (0.5, 0.5, 0.0), (0.2, 0.0, 0.0, 0.8), np.full(3, 1 / 3),
            np.full(10, 0.1)]
    rng = np.random.default_rng(12)
    for law in laws:
        cum = np.cumsum(law)
        edges = np.concatenate([cum, np.nextafter(cum, 0.0),
                                np.nextafter(cum, 2.0)])
        u = np.concatenate([edges[edges < 1.0], [0.0, np.nextafter(1.0, 0.0)],
                            rng.random(997)])
        for shape in ((u.size,), (1, u.size, 1)):
            got = ramac.sim._symbols_from_uniform(cum, u.reshape(shape))
            assert got.dtype == np.int64 and got.shape == shape
            want = symbols_by_searchsorted(cum, u.reshape(shape))
            assert np.array_equal(got, want), law
    top = ramac.sim._symbols_from_uniform(
        rounded, np.array([rounded[-1], np.nextafter(1.0, 0.0)]))
    assert np.array_equal(top, [9, 9])


def test_codebook_guard():
    table = ramac.RateTable(((math.log(2e6),),))
    laws = ramac.uniform_laws(table, 2)
    with pytest.raises(ramac.TooManyCodewords):
        ramac.generate_codebooks(table, laws, 2, 1, seed=0)


def test_threshold_params_validation():
    ramac.ThresholdParams()  # from_ei defaults are fine
    ramac.ThresholdParams(rho_tilde=0.5, s2=0.2, source="manual")
    with pytest.raises(ramac.ValidationError):
        ramac.ThresholdParams(source="manual")
    with pytest.raises(ramac.ValidationError):
        ramac.ThresholdParams(rho_tilde=0.5, s2=0.5, source="manual")
    with pytest.raises(ramac.ValidationError):
        ramac.ThresholdParams(rho_tilde=1.5, s2=0.2, source="manual")
    with pytest.raises(ramac.ValidationError):
        ramac.ThresholdParams(s2=0.2)
    # tilts are for manual thresholds only; from_ei sets them itself
    with pytest.raises(ramac.ValidationError):
        ramac.ThresholdParams(rho_tilde=1.0, s2=0.95)
    with pytest.raises(ramac.ValidationError):
        ramac.ThresholdParams(rho_tilde=0.5)


def test_threshold_matches_hand_formula():
    p = 0.1
    comp, table, laws, _ = _k1([p], (0.05, 0.4), region_idx=(1,))
    y = [0, 1, 0, 0, 1, 0]
    tables = ramac.build_threshold_tables(
        ramac.RateVectorIndex((1,)), comp.by_id("c"), frozenset(), laws, table,
        0.5, 0.25, ramac.RateVectorIndex((2,)), comp.by_id("c"))
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
        ch = ramac.validate_dmc(probs, 1, 3, 4)
        table = ramac.RateTable(((0.03, 0.2),))
        laws = ramac.uniform_laws(table, 3)
        rho = float(rng.uniform(0.2, 1.0))
        s2 = float(rng.uniform(0.05, 0.95)) * rho
        y = rng.integers(0, 4, size=12)
        tables = ramac.build_threshold_tables(ramac.RateVectorIndex((1,)), ch,
                                              frozenset(), laws, table, rho, s2)
        tau = _closed_form_tau(y, tables)
        direct = tau_by_bisection(y, tables, 12)
        assert abs(direct - tau) <= 1e-9 * max(1.0, abs(tau))


def test_degenerate_expectation_rejects_every_tuple():
    # the dead channel never outputs 1, so seeing it makes tau -inf: the
    # threshold -n * tau is +inf and no candidate clears it
    dead = ramac.validate_dmc([[1.0, 0.0], [1.0, 0.0]], 1, 2, 2)
    table = ramac.RateTable(((0.05,),))
    laws = ramac.uniform_laws(table, 2)
    tables = ramac.build_threshold_tables(ramac.RateVectorIndex((1,)), dead,
                                          frozenset(), laws, table, 0.5, 0.25)
    assert _closed_form_tau([0, 1], tables) == -math.inf


def test_noiseless_single_codeword_decoding():
    comp = ramac.CompoundSet((NOISELESS,), ("id",))
    table = ramac.RateTable(((0.0,),))
    laws = ramac.uniform_laws(table, 2)
    region = ramac.OperationRegion(((ramac.RateVectorIndex((1,)), "id"),),
                                   "finite")
    n = 3
    decoder = ramac.SlotDecoder(region, laws, table, n, compound=comp,
                                cfg=TINY_OPT)
    cb = ramac.generate_codebooks(table, laws, 2, n, seed=3)
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
    decoder = ramac.SlotDecoder(region, laws, table, 4, compound=comp,
                                cfg=TINY_OPT)
    y = np.zeros(4, dtype=np.int64)
    tied = ramac.CodebookSet(seed=0, n=4, entries={
        (1, 1): np.array([[0, 0, 1, 1], [1, 1, 0, 0]])})
    assert decoder.decode(y, tied).outcome == "collision"
    split = ramac.CodebookSet(seed=0, n=4, entries={
        (1, 1): np.array([[0, 0, 1, 1], [1, 1, 0, 1]])})
    d = decoder.decode(y, split)
    assert d.outcome == "decoded"
    assert d.messages == (0,)


def test_empty_region_always_collides():
    comp, table, laws, _ = _k1([0.1], (0.05,))
    region = ramac.OperationRegion((), "finite")
    decoder = ramac.SlotDecoder(region, laws, table, 4, compound=comp,
                                cfg=TINY_OPT)
    cb = ramac.generate_codebooks(table, laws, 2, 4, seed=1)
    for bits in np.ndindex(2, 2, 2, 2):
        assert decoder.decode(np.array(bits), cb).outcome == "collision"


def test_schedule_covers_universe_with_labels():
    comp, table, laws, region = _k1([0.05, 0.15], (0.05, 0.3),
                                    region_idx=(1,), ids=("a", "b"))
    sched = ramac.build_schedule(region, table, comp.ids)
    assert len(sched) == 4
    assert [s[2] for s in sched] == [True, True, False, False]
    # class map: realizations stay channel-level, membership turns class-level
    class_region = ramac.OperationRegion(
        ((ramac.RateVectorIndex((1,)), "k"),), "class")
    sched2 = ramac.build_schedule(class_region, table, comp.ids,
                                  class_map={"k": ("a", "b")})
    assert [s[2] for s in sched2] == [True, True, False, False]


def _mac(diag):
    """Two binary users, output 2*x1 + x2 with probability diag."""
    rows = np.full((4, 4), (1.0 - diag) / 3)
    np.fill_diagonal(rows, diag)
    return ramac.Dmc(2, 2, 4, rows.reshape(2, 2, 4))


MAC_GOOD = _mac(0.8)
MAC_BAD = _mac(0.55)


def _mixed(ch, other, w):
    return ramac.Dmc(ch.num_users, ch.input_size, ch.output_size,
                     (1 - w) * ch.probs + w * other.probs)


def _decoder_system(k, mode, n):
    """A K-user system with two rates per user whose region leaves out pairs
    that agree with members on every conditioning subset, so every subset
    has finite thresholds. Finite mode at K=1 has `twin`, a copy of `a`, so
    equal scores under two channel hypotheses go to the channel-id
    tie-break. Class mode decodes envelope classes `lo` and `hi`.
    Returns (compound, table, laws, region, envelopes, class_map).
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
    table = ramac.RateTable(((math.log(2) / n, math.log(3) / n),) * k)
    laws = ramac.uniform_laws(table, 2)
    envelopes = class_map = None
    if mode == "class":
        ids = tuple(c for members in classes.values() for c in members)
        envelopes = tuple(ramac.build_envelope(
            tuple(chans[c] for c in members), class_id=cls)
            for cls, members in classes.items())
        inside, class_map = class_inside, classes
    else:
        ids = tuple(inside)
    comp = ramac.CompoundSet(tuple(chans[c] for c in ids), ids)
    members = tuple((ramac.RateVectorIndex(r), cid)
                    for cid, rates in inside.items() for r in rates)
    region = ramac.OperationRegion(members, mode)
    return comp, table, laws, region, envelopes, class_map


def _send(rng, comp, decoder, books, trials):
    """Received words of `trials` slots, each sending random messages at a
    random universe rate vector over a random realizable channel."""
    k = decoder.num_users
    ys = np.empty((trials, decoder.n), dtype=np.int64)
    for t in range(trials):
        rvi = ramac.RateVectorIndex(tuple(
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
        comp, table, laws, region, envs, _ = _decoder_system(k, mode, n)
        decoder = ramac.SlotDecoder(region, laws, table, n, compound=comp,
                                    envelopes=envs, cfg=TINY_OPT)
        for subset in decoder.subsets:
            assert any(decoder.thresholds[((rvi.indices, cid), subset)]
                       is not None for rvi, cid in region.members)
        trials = 150 if k == 1 else 60
        frozen = ramac.generate_codebooks(table, laws, 2, n, seed=k)
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
                cb = ramac.CodebookSet(0, n, {key: v[t] for key, v in books.items()})
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


def test_outcome_counts_split_every_trial():
    comp, table, laws, region, envs, cmap = _decoder_system(2, "class", 6)
    rep = ramac.estimate_errors(region, laws, table, 6, 40, 3, compound=comp,
                                envelopes=envs, class_map=cmap, cfg=TINY_OPT)
    for c in rep.cases:
        assert c.decoded_correct + c.decoded_wrong + c.collision == c.trials
        want = c.decoded_wrong + (c.collision if c.in_region else 0)
        assert c.errors == want
    assert any(c.collision for c in rep.cases)
    assert any(c.decoded_correct for c in rep.cases)


def test_k2_exact_matches_scalar_enumeration(monkeypatch):
    n = 4
    comp, table, laws, region, _, _ = _decoder_system(2, "finite", n)
    cb = ramac.generate_codebooks(table, laws, 2, n, seed=21)
    monkeypatch.setattr(ramac.sim, "_WORD_BLOCK", 37)  # chunks split the 256 words
    rep = ramac.exact_conditional_errors(region, laws, table, n, compound=comp,
                                         cfg=TINY_OPT, codebooks=cb)
    decoder = ramac.SlotDecoder(region, laws, table, n, compound=comp,
                                cfg=TINY_OPT)
    words = list(itertools.product(range(4), repeat=n))
    outcome = {}
    for y in words:
        d = scalar_decode(decoder, np.array(y), cb)
        outcome[y] = None if d is None else (d[0], d[1].indices)
    schedule = ramac.build_schedule(region, table, comp.ids)
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


def test_singleton_class_mode_matches_finite_decisions():
    comp, table, laws, region = _k1([0.08], (0.1,))
    env = ramac.build_envelope((comp.by_id("c"),), class_id="c")
    class_region = ramac.OperationRegion(region.members, "class")
    finite = ramac.estimate_errors(region, laws, table, 8, 300, 11,
                                   compound=comp, cfg=TINY_OPT)
    classy = ramac.estimate_errors(class_region, laws, table, 8, 300, 11,
                                   compound=comp, envelopes=(env,),
                                   class_map={"c": ("c",)}, cfg=TINY_OPT)
    assert [c.errors for c in finite.cases] == [c.errors for c in classy.cases]


def test_simulation_reports_are_deterministic():
    comp, table, laws, region = _k1([0.1], (0.1,))
    a = ramac.estimate_errors(region, laws, table, 8, 150, 23, compound=comp,
                              cfg=TINY_OPT, bound=0.9)
    b = ramac.estimate_errors(region, laws, table, 8, 150, 23, compound=comp,
                              cfg=TINY_OPT, bound=0.9)
    assert a == b
    assert a.bound_holds in (True, False)
    assert a.system_case is not None
    assert a.system_half_width99 == ramac.Z99 * a.system_std


def test_batch_size_does_not_change_results(monkeypatch):
    # the trials a batch holds come from the _DRAW_UNIFORMS budget; a small
    # budget splits every block into batches, which must not move a decision
    comp, table, laws, region = _k1([0.1], (0.1,))
    comp2, table2, laws2, region2, _, _ = _decoder_system(2, "finite", 6)

    def runs():
        # K=1: more trials than one block of draws, so blocks split too
        yield ramac.estimate_errors(region, laws, table, 8, 5000, 5,
                                    compound=comp, cfg=TINY_OPT)
        for books in (None, ramac.generate_codebooks(table2, laws2, 2, 6, 5)):
            yield ramac.estimate_errors(region2, laws2, table2, 6, 30, 5,
                                        compound=comp2, cfg=TINY_OPT,
                                        codebooks=books)

    default = list(runs())
    # 16 uniforms a K=1 trial and 60 a K=2 trial: batches of 3 and of 1
    monkeypatch.setattr(ramac.sim, "_DRAW_UNIFORMS", 48)
    for a, b in zip(default, runs()):
        assert a.cases == b.cases


def test_batch_size_bounds_draw_memory(monkeypatch):
    # 256 codewords of 8 symbols a trial: a batch under the default budget
    # holds 512 trials; under a budget of 2**15 uniforms it holds 16
    comp, table, laws, region = _k1([0.1], (math.log(2),))
    peaks, reports = [], []
    for budget in (ramac.sim._DRAW_UNIFORMS, 2 ** 15):
        monkeypatch.setattr(ramac.sim, "_DRAW_UNIFORMS", budget)
        tracemalloc.start()
        reports.append(ramac.estimate_errors(region, laws, table, 8, 600, 2,
                                             compound=comp, cfg=TINY_OPT))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] * 4 < peaks[0], peaks
    assert reports[0].cases == reports[1].cases


def test_block_draws_read_one_codebook_stream():
    # however a block is split, its codebooks are one Philox stream read key
    # by key in sorted order, then trial, message and symbol; 9 trials at n=5
    # start the four keys at every offset mod 4
    n = 5
    comp, table, laws, region, _, _ = _decoder_system(2, "finite", n)
    decoder = ramac.SlotDecoder(region, laws, table, n, compound=comp,
                                cfg=TINY_OPT)
    books_of, _, _ = ramac.sim._draw_block(4, 1, 2, 9, decoder,
                                           region.members[0][0], None)
    parts = [books_of(count) for count in (2, 7)]
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
    table = ramac.RateTable(((math.log(2) / 7, math.log(5) / 7),))
    laws = ramac.InputLaws({(1, 1): (0.5, 0.0, 0.5), (1, 2): (0.2, 0.3, 0.5)})
    good = ramac.validate_dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                               [0.1, 0.1, 0.8]], 1, 3, 3)
    bad = ramac.validate_dmc([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2],
                              [0.1, 0.3, 0.6]], 1, 3, 3)
    comp = ramac.CompoundSet((good, bad), ("good", "bad"))
    rvi = ramac.RateVectorIndex
    region = ramac.OperationRegion(((rvi((1,)), "good"), (rvi((2,)), "good"),
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
    rep = ramac.estimate_errors(region, laws, table, 7, 5000, 17,
                                compound=comp, cfg=TINY_OPT)
    assert _outcomes(rep) == [(4012, 299, 689), (3004, 554, 1442),
                              (3415, 379, 1206), (1312, 910, 2778)]
    comp, table, laws, region, _, _ = _decoder_system(2, "finite", 6)
    want = {
        False: [(191, 32, 77), (112, 76, 112), (171, 42, 87), (46, 102, 152),
                (161, 47, 92), (57, 91, 152), (138, 41, 121), (35, 86, 179)],
        True: [(219, 40, 41), (123, 104, 73), (184, 37, 79), (53, 105, 142),
               (193, 55, 52), (74, 130, 96), (167, 36, 97), (34, 93, 173)],
    }
    for freeze, counts in want.items():
        books = ramac.generate_codebooks(table, laws, 2, 6, 29) if freeze else None
        rep = ramac.estimate_errors(region, laws, table, 6, 300, 29,
                                    compound=comp, cfg=TINY_OPT, codebooks=books)
        assert _outcomes(rep) == counts, freeze


def test_unused_codebook_keys_are_not_drawn():
    # the region reads only rate 2; a case sent at rate 2 never reads rate
    # 1's codebook, whose uniforms the rate-2 stream still skips (one
    # codeword of 7 symbols a trial: the 905-trial last block skips 6335).
    # The counts were recorded when every key was drawn.
    n = 7
    comp, table, laws, region = _k1([0.1], (0.05, 0.4), region_idx=(2,))
    decoder = ramac.SlotDecoder(region, laws, table, n, compound=comp,
                                cfg=TINY_OPT)
    assert decoder.message_counts == {(1, 1): 1, (1, 2): 16}
    for true, keys in (((2,), {(1, 2)}), ((1,), {(1, 1), (1, 2)})):
        books_of, _, _ = ramac.sim._draw_block(
            13, 0, 0, 5, decoder, ramac.RateVectorIndex(true), None)
        assert set(books_of(5)) == keys, true
    rep = ramac.estimate_errors(region, laws, table, n, 5001, 13,
                                compound=comp, cfg=TINY_OPT)
    assert [(c.rate_indices, c.in_region, c.errors) for c in rep.cases] == [
        ((1,), False, 2190), ((2,), True, 2147)]
    assert _outcomes(rep) == [(0, 2190, 2811), (2854, 475, 1672)]


def test_exact_enumeration_guard():
    comp, table, laws, region = _k1([0.1], (0.0,))
    with pytest.raises(ramac.EnumerationTooLarge):
        ramac.exact_conditional_errors(region, laws, table, 21, compound=comp,
                                       cfg=TINY_OPT)


def test_exact_two_codeword_case_matches_binomial_tail():
    p = 0.1
    n = 8
    comp, table, laws, region = _k1([p], (math.log(2) / n,))
    cb = ramac.CodebookSet(seed=0, n=n, entries={
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
