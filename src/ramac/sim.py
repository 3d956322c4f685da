"""Slot-level Monte Carlo and exact evaluation of the threshold decoder.

The decoder under test works per conditioning subset S: a codeword tuple is
admitted when its log likelihood clears a per-(rate vector, channel, S)
threshold, the subset estimate is the admitted tuple of maximum likelihood
(class mode: the tuple whose lower-envelope likelihood strictly beats every
rival's upper-envelope likelihood), and the slot decodes only when every
subset produces the same estimate; anything else is reported as a collision.
SlotDecoder.decide is the one implementation of this rule, which Monte Carlo,
exact enumeration and SlotDecoder.decode all run. Its one context is an
ExponentLedger, whose compound set or class envelopes give the mode and the
channels and whose crossing exponents give every threshold; estimate_errors
takes the ledger of the system's bound, plus the realizable channels. Score
and threshold tables take their log tables from exponents._channel_logs and
_true_factor, where alone finite and class differ.

Likelihoods are joint (input, output) cell counts dotted with a log-propensity
table in a fixed flat order, so tuples with identical transition counts have
bit-identical scores and analytic ties, which become collisions, compare equal.
decide() counts a block's cells from bit planes, one a letter of every
codeword and received word (see _Block), so counts are exact. It
scores a slice of trials, then decides it in one pass that looks at the
candidates of the dominating group alone (see _subset_decisions). Every array
of either stage holds at most _DECIDE_BYTES and is kept from call to call.

All randomness is counter-based: every (role, case, block) triple names a
Philox stream derived from the master seed, and codebooks regenerate
bit-identically from per-(user, rate, message) keys. Symbols are read off raw
Philox words with integer edges (see _raw_edges) that make exactly the
letters Generator.random's uniforms would, in the alphabet's narrowest
unsigned dtype; Monte Carlo writes them into buffers made once per case.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from ._record import record
from .bounds import ExponentLedger
from .channels import (
    ChannelClassEnvelope,
    CompoundSet,
    Dmc,
    InputLaws,
    RateTable,
    RateVectorIndex,
)
from .errors import GuardExceeded, ValidationError
from .exponents import (
    OptimizerConfig,
    ThresholdParams,
    _batched_power,
    _channel_logs,
    _true_factor,
    law_block,
)
from .logdomain import NEG_INF, logsumexp, safe_log
from .regions import OperationRegion, class_owner, pair_universe, proper_subsets

CODEWORD_GUARD = 10 ** 6
OUTPUT_ENUM_GUARD = 2 ** 20
# Trials per block of Monte Carlo draws: block b of case c draws from the
# Philox streams keyed (role, c, b), however many trials a batch holds.
_STREAM_BLOCK = 4096
# Cap on the raw codebook words a batch of Monte Carlo trials draws at once.
_DRAW_UNIFORMS = 2 ** 20
# Cap on the raw words one read of a codebook stream holds (one trial's at
# least); reads follow the stream, so their size never moves a symbol.
_RAW_WORDS = 2 ** 16
# statistics.NormalDist().inv_cdf(0.995), the two-sided 99% normal quantile,
# as a literal: importing statistics costs every process a few ms.
Z99 = 2.5758293035489
# Cap on the bytes of any one array of decide()'s stages (see decide).
_DECIDE_BYTES = 2 ** 18
# the number of set bits of every 16-bit value, from those of its two bytes
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8)
_POPCOUNT = (_BYTE_BITS[:, None] + _BYTE_BITS).ravel()
# Generator.random on Philox turns the raw word w into (w >> 11) * 2**-53:
# 2**53 uniforms, each the value of 2**11 consecutive raw words.
_UNIFORM_BITS = 53
_LOW_WORDS = np.uint64(2 ** (64 - _UNIFORM_BITS) - 1)
_NEVER = np.uint64(2 ** 64 - 1)  # the edge of an entry that never fires

# Stream roles for counter-based randomness.
_ROLE_CODEBOOK = 0
_ROLE_MESSAGE = 1
_ROLE_NOISE = 2
_ROLE_ENSEMBLE = 3


def message_count(n: int, rate: float) -> int:
    """max(1, floor(exp(n * rate))), guarded against float round-off so that
    analytically integral counts (rate = log(m) / n) survive exactly."""
    return max(1, math.floor(math.exp(n * rate) + 1e-9))


def _symbol_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the letters of a size-letter
    alphabet."""
    return np.min_scalar_type(size - 1)


def _raw_edges(cum: np.ndarray, strict: bool) -> np.ndarray:
    """Integer edges of the symbol map of the cumulative laws cum
    (..., letters) on raw Philox words: the letter of a uniform u is the
    number of entries c of cum[..., :-1] that it fires, u >= c for a codebook
    letter or, with strict, u > c for a channel output.

    Either test fires exactly when w >> 11 reaches a first index,
    ceil(c * 2**53), or floor(c * 2**53) + 1 with strict: when w exceeds the
    edge, the largest word whose w >> 11 is below the first index. Edges are
    a uint64 array, so no comparison falls back to float64, and 2**64 - 1
    where the entry never fires. An entry c <= 0 without strict fires on
    every word and has no edge; _letter_edges counts it apart."""
    scaled = np.ldexp(cum[..., :-1], _UNIFORM_BITS)
    first = np.floor(scaled) + 1 if strict else np.ceil(scaled)
    last = np.clip(first, 1, 2.0 ** _UNIFORM_BITS).astype(np.uint64) - np.uint64(1)
    return (last << np.uint64(64 - _UNIFORM_BITS)) | _LOW_WORDS


def _letter_edges(cum: np.ndarray) -> tuple:
    """(edges, base) of a codebook law: the edges of the entries that can
    fire, and the number of entries that always do."""
    edges, always = _raw_edges(cum, strict=False), cum[:-1] <= 0
    return edges[~always & (edges != _NEVER)], int(always.sum())


def _symbols_from_raw(raw: np.ndarray, edges: Sequence, base: int,
                      out: np.ndarray) -> np.ndarray:
    """out, set to the letter of each raw word: base plus the number of
    edges (uint64 scalars or arrays that broadcast against raw) strictly
    below it."""
    if not len(edges):
        out.fill(base)
        return out
    np.greater(raw, edges[0], out=out)
    for e in edges[1:]:
        out += raw > e
    if base:
        out += base
    return out


def _ordered_dot(terms, weights, out: Optional[np.ndarray] = None,
                 product: Optional[np.ndarray] = None) -> np.ndarray:
    """The sum of each term times its weight, added from the left (into out
    and product if given), not by BLAS, whose blocks follow the batch shape:
    so equal rows get one value in any batch."""
    terms, weights = iter(terms), iter(weights)
    out = np.multiply(next(terms), next(weights), out=out)
    for term, w in zip(terms, weights):
        out += np.multiply(term, w, out=product)
    return out


@record(eq=False)
class CodebookSet:
    """Frozen codebooks, one (messages, n) symbol array per (user, rate index).

    Every codeword is addressable: generate_codebooks draws codeword m of
    (user, rate) from the Philox stream keyed SeedSequence(seed,
    spawn_key=(user, rate, m)), so any single entry regenerates
    bit-identically without the rest. It stores the symbols in the narrowest
    unsigned dtype of the input alphabet.
    """

    entries: Mapping

    def codeword(self, user: int, rate_idx: int, message: int) -> np.ndarray:
        return self.entries[(user, rate_idx)][message]


def _guard_codewords(table: RateTable, n: int) -> None:
    rates = [table.rate(u, i) for u in range(1, table.num_users + 1)
             for i in range(1, table.num_classes + 1)]
    # one count past the guard alone trips it, before exp can overflow
    if n * max(rates) > math.log(CODEWORD_GUARD + 1):
        raise GuardExceeded(f"exp({n} * {max(rates):.9g}) codewords exceed "
                            f"the guard {CODEWORD_GUARD}")
    total = sum(message_count(n, rate) for rate in rates)
    if total > CODEWORD_GUARD:
        raise GuardExceeded(f"{total} codewords exceed the guard {CODEWORD_GUARD}")


def _check_seed(seed: int) -> None:
    """Philox streams are keyed by SeedSequence, which takes no negative
    entropy."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def generate_codebooks(table: RateTable, laws: InputLaws, input_size: int,
                       n: int, seed: int) -> CodebookSet:
    if n < 1:
        raise ValidationError("block length must be >= 1")
    _check_seed(seed)
    _guard_codewords(table, n)
    entries = {}
    for u in range(1, table.num_users + 1):
        for i in range(1, table.num_classes + 1):
            cum = np.cumsum(laws.law(u, i))
            if cum.shape != (input_size,):
                raise ValidationError("law length differs from the input alphabet")
            edges, base = _letter_edges(cum)
            m = message_count(n, table.rate(u, i))
            rows = np.empty((m, n), dtype=_symbol_dtype(input_size))
            for msg in range(m):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(u, i, msg))
                _symbols_from_raw(np.random.Philox(ss).random_raw(n), edges,
                                  base, rows[msg])
            rows.flags.writeable = False
            entries[(u, i)] = rows
    return CodebookSet(entries)


@record
class ThresholdTables:
    """Per-output-symbol log factors of one (pair, subset) threshold.

    tau(y) = (counts(y) . coeff) / n + const, where counts(y) are the output
    symbol counts. A coeff entry may be +inf (the competing pair cannot
    produce the symbol: the test never rejects such outputs) or -inf (the
    tested pair cannot produce it: always rejected, matching the vanishing
    likelihood of every admissible codeword).
    """

    log_a: np.ndarray  # competing-pair expectation per symbol
    log_b: np.ndarray  # tested-pair self expectation per symbol
    log_c: np.ndarray  # tested-pair mixed expectation per symbol
    rho_tilde: float
    s1: float
    s2: float
    rate_sum: float

    @functools.cached_property
    def coeff(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            raw = -(self.log_a + self.rho_tilde * self.log_b - self.log_c)
        raw = np.where(np.isneginf(self.log_a), math.inf, raw)
        bad = np.isneginf(self.log_b) | np.isneginf(self.log_c)
        raw = np.where(bad, NEG_INF, raw)
        return raw / (self.s1 + self.s2)

    @property
    def const(self) -> float:
        return -self.rho_tilde * self.rate_sum / (self.s1 + self.s2)


def _stacked_taus(coeff: np.ndarray, const: np.ndarray, y_counts: np.ndarray,
                  n: int) -> np.ndarray:
    """tau of k threshold tables at once, given their (k, output_size)
    coefficients and (k,) constants, for each row of (T, output_size) symbol
    counts, as (k, T): -inf where an observed symbol has a -inf coefficient,
    else +inf where one has a +inf coefficient, else the closed form."""
    finite = np.where(np.isfinite(coeff), coeff, 0.0)
    tau = _ordered_dot(y_counts.T[:, None], finite.T[:, :, None]) / n + const[:, None]
    for value in (math.inf, NEG_INF):  # -inf last: it overrides +inf
        symbols = coeff == value
        if symbols.any():
            seen = symbols.astype(float) @ (y_counts > 0).T  # exact small counts
            tau = np.where(seen > 0, value, tau)
    return tau


def build_threshold_tables(true_rates: RateVectorIndex, true_channel,
                           subset: frozenset, laws: InputLaws, table: RateTable,
                           rho_tilde: float, s2: float,
                           comp_rates: RateVectorIndex,
                           comp_channel) -> ThresholdTables:
    """Per-symbol expectation tables of the threshold balance equation.

    The subset users' symbols are averaged under their input laws, so the
    threshold depends on the output word alone.
    """
    k = true_channel.num_users
    a = true_channel.input_size
    if not 0 < rho_tilde <= 1 or not 0 < s2 < rho_tilde:
        raise ValidationError("threshold tilts need 0 < s2 < rho_tilde <= 1")
    s1 = 1.0 - s2 / rho_tilde
    # tested pair: self expectation at (lower likelihood)^(s2 / rho_tilde),
    # mixed at p^(1 - s1) (class: pmax * pmin^(-s1)); competing pair: its
    # upper likelihood
    true_logs = _channel_logs(true_channel)
    f_self = _batched_power(true_logs[1], np.array([s2 / rho_tilde]))[0]
    f_mixed = _true_factor(true_channel, true_logs, np.array([1.0 - s1]),
                           np.array([s1]))[0]
    f_comp = _channel_logs(comp_channel)[0]
    users = range(1, k + 1)
    w_true = law_block(laws, users, true_rates, k, a)
    w_comp = law_block(laws, users, RateVectorIndex(tuple(
        (true_rates if u in subset else comp_rates).index(u) for u in users)),
        k, a)
    all_axes = tuple(range(k))
    log_a = np.atleast_1d(logsumexp(w_comp + f_comp, axis=all_axes))
    log_b = np.atleast_1d(logsumexp(w_true + f_self, axis=all_axes))
    log_c = np.atleast_1d(logsumexp(w_true + f_mixed, axis=all_axes))
    rate_sum = sum(table.rate(u, true_rates.index(u))
                   for u in users if u not in subset)
    return ThresholdTables(log_a, log_b, log_c, rho_tilde, s1, s2, rate_sum)


class _ScoreContext:
    """Cell scores under each of a few log-propensity tables, grouped by
    distinct table value.

    Summing integer cell counts per distinct table value before the dot
    product makes analytically equal likelihoods compare bit-equal even when
    channel symmetries give different cells the same value; vanishing-
    probability cells short to -inf instead of polluting the dot with 0*inf.
    """

    def __init__(self, tables: np.ndarray):
        """tables: (tables, cells) flat log-propensities."""
        self.tables = tables
        count, cells = tables.shape
        groups = [np.unique(row, return_inverse=True) for row in tables]
        width = max(np.count_nonzero(~np.isneginf(vals)) for vals, _ in groups)
        self.dead = bool(np.isneginf(tables).any())
        # one-hot value groups <- cells: row j * tables + t is table t's j-th
        # live value in ascending order (zero-padded to width), then one dead
        # row per table if any table has dead cells
        self.live_values = np.zeros((count, width))
        self.onehot = np.zeros((count * (width + self.dead), cells))
        for t, (vals, inverse) in enumerate(groups):
            dead = np.isneginf(vals)
            self.live_values[t, :vals.size - dead.sum()] = vals[~dead]
            row = np.where(dead, count * width + t,
                           (np.arange(vals.size) - dead.sum()) * count + t)
            self.onehot[row[inverse], np.arange(cells)] = 1.0

    def score_counts(self, counts: np.ndarray, onehot: np.ndarray, scratch,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores of (cells, rows) counts as (tables, rows), into out if given:
        each table's counts summed per value group by onehot (self.onehot, or
        its columns of the cells counted), integer sums, so any grouping of
        equal-valued cells gives the same floats. scratch(name, shape, dtype
        = float64) gives the other arrays."""
        count, width = self.live_values.shape
        shape = (count, counts.shape[1])
        grouped = np.matmul(onehot, counts, out=scratch("grouped", (
            len(onehot), shape[1]), np.result_type(onehot, counts))).reshape(-1, *shape)
        # zero padding adds +0.0, which leaves every sum as it was
        out = _ordered_dot(grouped[:width], self.live_values.T[:, :, None],
                           scratch("score", shape) if out is None else out,
                           scratch("product", shape))
        if self.dead:
            out[grouped[width] > 0] = NEG_INF
        return out


class _Block:
    """One region block: a region rate vector's message tuples (its groups,
    numbered from group) under its region channels ids, whose candidates are
    numbered id-major from cand and threshold pairs (one an id) from pair;
    and how decide() counts and scores their cells.

    A score class is a set of cells with one value in every score table of
    the block (a symmetric channel has few), so scores need only its count.
    The largest class is counted as n minus the rest, any other in a (tuple,
    trial) row as the popcount of the OR of its cells' ANDs of their K + 1
    letters' planes. A letter's plane of a row of symbols (a codeword or a
    received word) sets a symbol's bit where it is the letter, in zero-padded
    16-bit words: the AND of the row's bit-sliced planes, one a bit of the
    symbols, each complemented where the letter's bit is 0.
    """

    def __init__(self, rvi: RateVectorIndex, ids: tuple, group: int, cand: int,
                 pair: int, message_counts: Mapping, letters: tuple, n: int,
                 contexts: tuple):
        self.rvi, self.ids, self.contexts = rvi, ids, contexts
        self.group, self.cand, self.pair = group, cand, pair
        self.keys = tuple(enumerate(rvi.indices, start=1))  # (user, rate index)
        self.dims = tuple(message_counts[key] for key in self.keys)
        self.tuples = math.prod(self.dims)
        of = np.unique(np.concatenate([ctx.tables for ctx in contexts]), axis=1,
                       return_inverse=True)[1].reshape(-1)
        sizes = np.bincount(of)  # (a plain np.unique would import numpy.ma)
        classes = [np.flatnonzero(of == c) for c in range(len(sizes)) if c != sizes.argmax()]
        # each context's one-hot columns: each counted class's, the largest's
        reps = [c[0] for c in classes] + [np.flatnonzero(of == sizes.argmax())[0]]
        self.onehots = tuple(ctx.onehot[:, reps].astype(np.float32) for ctx in contexts)
        # the K + 1 letters of each counted class's cells, (classes, most
        # cells, K + 1), a class's cells repeated where it has fewer
        most = max(map(len, classes), default=1)
        self.cells = np.array([np.unravel_index(np.resize(c, most), letters)
                               for c in classes], dtype=np.intp).reshape(
                                   -1, len(letters), most).transpose(0, 2, 1)
        # the letters of each term's planes (a binary alphabet's both) as rows
        # of their bits, which the cells' letters then index
        self.letters = []
        for t, size in enumerate(letters):
            kept = np.arange(2) if size == 2 else np.flatnonzero(
                np.bincount(self.cells[..., t].ravel(), minlength=size))
            self.cells[..., t] = np.searchsorted(kept, self.cells[..., t])
            self.letters.append(kept[:, None] >> np.arange((size - 1).bit_length() or 1) & 1)
        self.words = -(-n // 16)
        self.ones = np.packbits(np.arange(16 * self.words) < n).view(np.uint16)
        # trials a count slice holds: each of its arrays within _DECIDE_BYTES
        self.slice = max(1, int(_DECIDE_BYTES // self.tuples // max(
            4 * max(len(classes) + 1, *map(len, self.onehots)), 8 * len(ids),
            *(16 * self.words * max(v.shape[1], len(v) / 8) for v in self.letters))))


class SlotDecoder:
    """Precomputed decoding context for one region: log-propensity tables,
    candidate enumeration, and per-(pair, subset) thresholds.

    In class mode each candidate carries two scores, the lower-envelope
    likelihood when tested and the upper-envelope likelihood when rivaling
    (sums over differently grouped cells, so by rounding the tested one can
    be the higher); finite mode uses one score for both roles. The ledger is
    the decoder's context: its channels or class envelopes (which set the
    mode), laws and rate table, each pair's channel (ExponentLedger.channel,
    the map the bounds read) and the crossing exponents of the thresholds,
    which the bound of the same system may already have filled.
    """

    def __init__(self, region: OperationRegion, ledger: ExponentLedger, n: int,
                 params: ThresholdParams = ThresholdParams()):
        if n < 1:
            raise ValidationError("block length must be >= 1")
        _guard_codewords(ledger.table, n)
        ledger.require_full("SlotDecoder")
        ledger.check_region(region)
        self.ids = tuple(ledger.channels)
        self.mode, self.region, self.laws, self.params = region.mode, region, ledger.laws, params
        table = self.table = ledger.table
        self.n = int(n)
        universe = pair_universe(table, self.ids)
        ref = ledger.channel(universe[0])
        self.num_users, self.input_size, self.output_size = (
            ref.num_users, ref.input_size, ref.output_size)
        self.subsets = proper_subsets(range(1, self.num_users + 1))
        self.out_pairs = region.complement(universe)
        self.message_counts = {(u, i): message_count(self.n, table.rate(u, i))
                               for u in range(1, self.num_users + 1)
                               for i in range(1, table.num_classes + 1)}
        self._scratch = {}  # decide()'s arrays, by name (see _buffer)
        self._lay_out_candidates(ledger)
        self.thresholds = self._build_thresholds(ledger)
        self._tables = []  # per subset: (pair indices, coefficients, constants)
        for subset in self.subsets:  # of the pairs whose test can reject
            tables = [(p, self.thresholds[(pair, subset)])
                      for p, pair in enumerate(self._pairs)
                      if self.thresholds[(pair, subset)] is not None]
            self._tables.append((
                np.array([p for p, _ in tables], dtype=np.int64),
                np.array([t.coeff for _, t in tables]).reshape(-1, self.output_size),
                np.array([t.const for _, t in tables])))

    def _lay_out_candidates(self, ledger: ExponentLedger):
        """Candidate order of decide(): region rate vectors in first-member
        order, each vector's region channels in id order, and under each its
        message tuples in itertools.product order. A group (message tuple,
        rate vector) is numbered in this order; its candidates are a block's
        groups apart."""
        by_rates = {}
        for rvi, cid in self.region.members:
            by_rates.setdefault(rvi.indices, (rvi, []))[1].append(cid)
        self._blocks = {}  # rate indices -> _Block, in candidate order
        self._pairs = []  # threshold keys (rate indices, id) of the candidates' pairs
        cands = []  # (group, id index, pair index) per candidate
        groups = 0
        for rvi, cids in by_rates.values():
            cids = tuple(sorted(cids, key=self.ids.index))
            # tested scores read the lower log tables, class rivals the upper
            logs = [_channel_logs(ledger.channel((rvi, cid))) for cid in cids]
            block = self._blocks[rvi.indices] = _Block(
                rvi, cids, groups, len(cands), len(self._pairs), self.message_counts,
                (self.input_size,) * self.num_users + (self.output_size,), self.n,
                tuple(_ScoreContext(np.stack([log[side].ravel() for log in logs]))
                      for side in ((1, 0) if self.mode == "class" else (1,))))
            cands += [(g, self.ids.index(cid), block.pair + j)
                      for j, cid in enumerate(cids)
                      for g in range(groups, groups + block.tuples)]
            self._pairs += [(rvi.indices, cid) for cid in cids]
            groups += block.tuples
        self._group_of, self._cid_of, self._pair_of = np.array(
            cands, dtype=np.int64).reshape(-1, 3).T
        # (most candidates, groups): each group's candidates down a column,
        # its last repeated where it has fewer
        _, lead, run = np.unique(self._group_of, return_index=True, return_counts=True)
        sizes = [block.tuples for block in self._blocks.values()]
        self._members = lead + np.repeat(sizes, sizes) * np.minimum(
            np.arange(run.max(initial=1))[:, None], run - 1)

    def _build_thresholds(self, ledger: ExponentLedger) -> dict:
        """For each (in pair, subset): pick the matching out pair minimizing
        the crossing exponent and build its balance tables; no matching out
        pair means the test never rejects (tau = +inf, stored as None)."""
        out = {}
        for t in self.region.members:
            for subset in self.subsets:
                key = ((t[0].indices, t[1]), subset)
                best = ledger.best_ei(subset, t, self.out_pairs)
                if best is None:
                    out[key] = None
                    continue
                o_star, res = best
                if self.params.rho_tilde is not None:
                    rho_tilde, s2 = self.params.rho_tilde, self.params.s2
                else:
                    rho_tilde, s2 = res.rho_star, res.rho_star / 2.0
                out[key] = build_threshold_tables(
                    t[0], ledger.channel(t), subset, self.laws, self.table,
                    rho_tilde, s2, o_star[0], ledger.channel(o_star))
        return out

    def decode(self, y, codebooks: CodebookSet) -> Optional[tuple]:
        """decide() on one received word y against one codebook set: the
        decoded group's (message tuple, rate vector, channel id), or None on
        a collision."""
        group, channel = self.decide(np.asarray(y, dtype=np.int64)[None, :],
                                     _shared_books(codebooks, self, 1))
        for block in self._blocks.values():
            if block.group <= group[0] < block.group + block.tuples:
                msgs = np.unravel_index(group[0] - block.group, block.dims)
                return (tuple(int(m) for m in msgs), block.rvi,
                        self.ids[channel[0]])
        return None

    def group_ids(self, rvi: RateVectorIndex, messages: np.ndarray) -> np.ndarray:
        """Group id of each row of (T, K) message tuples sent at rvi: what
        decide() reports when it decodes them, -1 if rvi is not in the region."""
        messages = np.asarray(messages, dtype=np.int64)
        block = self._blocks.get(rvi.indices)
        if block is None:
            return np.full(messages.shape[0], -1, dtype=np.int64)
        return block.group + np.ravel_multi_index(tuple(messages.T), block.dims)

    def decide(self, ys: np.ndarray, books: Mapping) -> tuple:
        """The threshold decoder's decisions for a batch of received words.

        ys is (T, n); books maps (user, rate index) to (T, m, n) codewords,
        one codebook per trial (a broadcast view shares one); symbols are of
        any integer dtype. Returns two (T,) arrays: the decoded group id (see
        group_ids) and the decoded channel's index in ids, both -1 where the
        slot is a collision. Per decision slice of trials, the scores of every
        candidate go block by block in count slices into (candidates, trials)
        arrays, then one pass decides the slice. Every array holds at most
        _DECIDE_BYTES, or one trial's worth, and is kept (see _buffer); no
        slice size changes a decision.
        """
        ys = np.asarray(ys)
        if ys.ndim != 2 or ys.shape[1] != self.n:
            raise ValidationError(f"received words must have length {self.n}")
        size = ys.shape[0]
        group, channel = np.full((2, size), -1, dtype=np.int64)
        if not self._pairs:
            return group, channel
        step = max(1, _DECIDE_BYTES // (8 * self._group_of.size))
        for lo in range(0, size, step):
            part = slice(lo, lo + step)
            words = ys[part]
            tested, rival = self._scores(
                words, {key: v[part] for key, v in books.items()})
            group[part], channel[part] = self._decisions(words, tested, rival)
        return group, channel

    def _buffer(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of shape and dtype over the decoder's bytes
        kept under name, grown when too small; its values are left over
        (zeros when grown)."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if name not in self._scratch or self._scratch[name].size < size:
            self._scratch[name] = np.zeros(size, dtype=np.uint8)
        return self._scratch[name][:size].view(dtype).reshape(shape)

    def _scores(self, ys, books) -> tuple:
        """Tested and rival scores (one array in finite mode) of every
        candidate against every word, block by block in count slices. Scores
        are candidate-major, (candidates, T), so every reduction over
        a group's candidates runs along whole rows."""
        size = ys.shape[0]
        kinds = [self._buffer(name, (self._group_of.size, size))
                 for name in ("tested", "rival")[:2 if self.mode == "class" else 1]]
        for block in self._blocks.values():
            ids = len(block.ids)
            rows = slice(block.cand, block.cand + block.tuples * ids)
            whole = block.slice >= size  # one count slice: score straight into out
            for lo in range(0, size, block.slice):
                part = slice(lo, lo + block.slice)
                counts = self._cell_counts(block, ys, books, part)
                for out, ctx, onehot in zip(kinds, block.contexts, block.onehots):
                    score = ctx.score_counts(counts, onehot, self._buffer, out[rows].reshape(
                        ids, -1) if whole else None)
                    if not whole:
                        np.copyto(out[rows, part].reshape(ids, block.tuples, -1),
                                  score.reshape(ids, block.tuples, -1))
        return kinds[0], kinds[-1]

    def _cell_counts(self, block: _Block, ys, books, part) -> np.ndarray:
        """Counts of the block's counted classes, then of its largest, in the
        (tuple, trial) rows of the words ys[part] against books, (classes + 1,
        tuples * trials) float32 (exact below 2**24), as many classes at once
        as _DECIDE_BYTES holds (one at least)."""
        ys = ys[part]
        size = ys.shape[0]
        planes = [self._planes(block, term, symbols) for term, symbols in enumerate(
            (*(books[key][part] for key in block.keys), ys[:, None]))]
        counts = self._buffer("counts", (len(block.cells) + 1, block.tuples * size),
                              np.float32)
        step = max(1, _DECIDE_BYTES // (2 * block.tuples * size * block.words))
        for lo in range(0, len(block.cells), step):
            cells = block.cells[lo:lo + step]
            shape = (len(cells), *block.dims, size, block.words)
            bits = self._buffer("bits", shape, np.uint16)
            for i in range(cells.shape[1]):  # OR in each class's i-th cell
                out = self._buffer("part", shape, np.uint16) if i else bits
                for term, plane in enumerate(planes[1:], 1):
                    np.bitwise_and(planes[0][cells[:, i, 0]] if term == 1 else out,
                                   plane[cells[:, i, term]], out=out)
                if i:
                    bits |= out
            pop = np.take(_POPCOUNT, bits, out=self._buffer("pop", shape, np.uint8))
            out = counts[lo:lo + len(cells)].reshape(shape[:-1])
            np.copyto(out, pop[..., 0])
            for word in range(1, block.words):  # (a sum along words is slower)
                out += pop[..., word]
        rest = counts[0] if len(counts) == 2 else counts[:-1].sum(axis=0, out=counts[-1])
        np.subtract(self.n, rest, out=counts[-1])
        return counts

    def _planes(self, block: _Block, term: int, symbols) -> np.ndarray:
        """The planes of term's letters in block.letters of (trials, rows, n)
        symbols (a shared codebook: one trial's), as (letters, ..., trials,
        words) with the rows along term's message axis of the count rows."""
        if symbols.shape[0] > 1 and symbols.strides[0] == 0:
            symbols = symbols[:1]
        trials, rows = symbols.shape[:2]
        value = block.letters[term]
        bits, width = value.shape[1], 16 * block.words
        if bits == 1 and symbols.dtype == np.uint8 and width == self.n:
            packed = np.packbits(symbols)  # binary symbols are their own bit plane
        else:
            # rows of width bytes from the buffer's start, whose last width - n
            # are only ever the zeros it was grown with
            padded = self._buffer("padded", (bits, trials, rows, width), np.uint8)
            shifts = np.arange(bits, dtype=symbols.dtype)[:, None, None, None]
            np.bitwise_and(symbols >> shifts, 1, out=padded[..., :self.n],
                           casting="unsafe")
            packed = np.packbits(padded)
        # the plane of each bit of the symbols, and of its complement
        sliced = self._buffer(f"sliced{term}", (2, bits, rows, trials, block.words),
                              np.uint16)
        np.copyto(sliced[1], packed.view(np.uint16).reshape(
            bits, trials, rows, -1).transpose(0, 2, 1, 3))
        np.bitwise_xor(sliced[1], block.ones, out=sliced[0])
        # (one bit: the letters are 0 and 1, or 0 alone, so no copy is needed)
        planes = sliced[:, 0] if bits == 1 else sliced[value[:, 0], 0]
        for bit in range(1, bits):
            planes &= sliced[value[:, bit], bit]
        axes = [rows if u == term else 1 for u in range(self.num_users)]
        return planes.reshape(len(planes), *axes, trials, block.words)

    def _decisions(self, ys, tested, rival) -> tuple:
        """decide() on scored words: each conditioning subset's estimates
        (see _subset_decisions), -1 wherever two subsets disagree."""
        size, b = ys.shape[0], self.output_size
        y_counts = group = channel = None
        for pairs, coeff, const in self._tables:
            thr = None  # -n * tau per pair, (pairs, T); None: no test rejects
            if pairs.size:
                if y_counts is None:
                    y_counts = np.bincount(
                        (np.arange(size)[:, None] * b + ys).ravel(),
                        minlength=size * b).reshape(size, b).astype(float)
                thr = np.full((len(self._pairs), size), NEG_INF)
                thr[pairs] = -self.n * _stacked_taus(coeff, const, y_counts, self.n)
            g, c = self._subset_decisions(thr, tested, rival)
            if group is None:
                group, channel = g, c
                continue
            agree = (g == group) & (c == channel)
            group, channel = np.where(agree, group, -1), np.where(agree, channel, -1)
        return group, channel

    def _subset_decisions(self, thr, tested, rival) -> tuple:
        """(group, channel) estimates of one conditioning subset, -1 unless
        exactly one group strictly dominates. A candidate is typical when its
        rival score clears its threshold; it dominates when its tested score
        clears its threshold and the best typical rival score of every other
        group. In the dominating group the highest tested score wins, the
        earliest id on ties. thr is -n * tau per pair, (pairs, T), or None
        when no pair's test rejects (tau = +inf).

        A group dominates when its highest admitted (threshold-clearing)
        tested score beats every other group's best: the top best, or for g1,
        the first group holding the top, the second best. In finite mode only
        g1 can; in class mode a tested score can beat its rival score, so all
        groups are judged. Only the dominating group's candidates are then
        looked at."""
        size, cols = tested.shape[1], np.arange(tested.shape[1])
        best = self._per_group("best", rival, thr)
        top, g1 = _first_max(best)
        at = g1 * size + cols  # g1's flat index in each trial
        best.reshape(-1)[at] = NEG_INF
        second = best.max(axis=0)  # the best of every group but g1
        group, high = g1, top
        if tested is rival:
            unique = top > second
        else:
            highs = self._per_group("high", tested, thr)
            above = highs > top  # g1's row: whether it beats the second
            above.reshape(-1)[at] = highs.reshape(-1)[at] > second
            unique = above.sum(axis=0) == 1
            group = _first_max(above)[1]
            high = highs.reshape(-1)[group * size + cols]
        # the group's first candidate of its highest admitted tested score
        cands = self._members.take(group, axis=1)
        scores = tested.take(cands * size + cols)
        hit = scores == high
        if thr is not None:
            hit &= scores > thr.take(self._pair_of.take(cands) * size + cols)
        channel = self._cid_of.take(cands.take(_first_max(hit)[1] * size + cols))
        np.putmask(group, ~unique, -1)  # group and channel are fresh arrays
        np.putmask(channel, ~unique, -1)
        return group, channel

    def _per_group(self, name: str, scores, thr) -> np.ndarray:
        """The highest score of each group's candidates that clears its
        threshold (-inf if none), (groups, T), kept under name."""
        out = self._buffer(name, (self._members.shape[1], scores.shape[1]))
        for block in self._blocks.values():
            ids = len(block.ids)
            cands = scores[block.cand:][:block.tuples * ids].reshape(ids, block.tuples, -1)
            if thr is not None:  # else every score clears -inf, -inf included
                cands = np.where(cands > thr[block.pair:][:ids, None], cands, NEG_INF)
            np.maximum.reduce(cands, axis=0, out=out[block.group:][:block.tuples])
        return out


def _first_max(values: np.ndarray) -> tuple:
    """values' maximum along axis 0 and its first row (argmax would copy)."""
    top = values.max(axis=0)
    rank = np.arange(len(values), 0, -1, dtype=np.min_scalar_type(len(values)))
    return top, len(values) - ((values == top) * rank[:, None]).max(axis=0).astype(np.intp)


@record
class CaseReport:
    rate_indices: tuple
    channel_id: str
    in_region: bool
    trials: int
    errors: int
    decoded_correct: int
    decoded_wrong: int
    collision: int
    rate: float
    std: float
    half_width99: float


@record
class SimReport:
    n: int
    trials: int
    seed: int
    mode: str
    frozen_codebooks: bool
    decode_error_rate: float
    collision_miss_rate: float
    system_error_rate: float
    system_case: Optional[tuple]
    system_std: float
    system_half_width99: float
    bound: Optional[float]
    bound_holds: Optional[bool]
    cases: tuple


def build_schedule(region: OperationRegion, table: RateTable, ids: Sequence[str],
                   envelopes: Sequence[ChannelClassEnvelope] = ()) -> tuple:
    """The realization schedule: every (rate vector, channel) case in
    universe order, labeled in/out of region. For a class-mode region,
    realizations stay member channels while membership is judged at class
    level: a channel belongs to the class whose envelope lists it in
    member_ids (see class_owner). Every envelope member must be one of
    ids."""
    owner = class_owner(envelopes)
    for cid, class_id in owner.items():
        if cid not in ids:
            raise ValidationError(f"class {class_id!r} member {cid!r} is not a "
                                  "realizable channel id")
    by_class = region.mode == "class"
    cases = []
    for rvi, cid in pair_universe(table, tuple(ids)):
        region_id = owner.get(cid, cid) if by_class else cid
        cases.append((rvi, cid, (rvi, region_id) in region))
    return tuple(cases)


def _shared_books(frozen: CodebookSet, decoder: SlotDecoder, size: int) -> dict:
    """One fixed codebook seen by `size` trials, as (size, m, n) views."""
    books = {}
    for key, m in decoder.message_counts.items():
        arr = frozen.entries.get(key)
        if arr is None or arr.shape[0] < m:
            raise ValidationError(f"frozen codebooks lack entries for {key}")
        if arr.shape[1] != decoder.n:
            raise ValidationError(f"frozen codebooks for {key} have block length "
                                  f"{arr.shape[1]}, not the decoder's {decoder.n}")
        books[key] = np.broadcast_to(arr[:m], (size, m, decoder.n))
    return books


def _read_keys(decoder: SlotDecoder, true_rvi: RateVectorIndex) -> set:
    """The (user, rate index) codebooks a case sent at true_rvi reads: those
    of the region blocks and of the sent codewords."""
    return {(u, i) for rates in (*decoder._blocks, true_rvi.indices)
            for u, i in enumerate(rates, start=1)}


def _book_buffers(decoder: SlotDecoder, true_rvi: RateVectorIndex,
                  count: int) -> dict:
    """Symbol buffers for count trials of fresh codebooks, (count, m, n) in
    the input alphabet's narrowest dtype, for each key that a case sent at
    true_rvi reads."""
    dtype = _symbol_dtype(decoder.input_size)
    return {key: np.empty((count, decoder.message_counts[key], decoder.n), dtype)
            for key in _read_keys(decoder, true_rvi)}


def _draw_block(seed: int, case_idx: int, block_idx: int, size: int,
                decoder: SlotDecoder, true_rvi: RateVectorIndex,
                frozen: Optional[CodebookSet],
                buffers: Optional[Mapping]) -> tuple:
    """One block of counter-based draws for a case: (books, messages, noise);
    books(count) returns the codebooks of the block's next count trials and
    noise holds the raw Philox words of the channel draw, (size, n).

    Streams are derived as SeedSequence(seed, spawn_key=(role, case, block));
    within a stream, draws happen in a fixed order (codebooks by sorted
    (user, rate), then trial, message and symbol; messages user by user), so
    a block regenerates alone, however books() splits it. Fresh books hold
    only the keys a region block or the sent codewords read, though the
    stream reserves every key's words, written into buffers (see
    _book_buffers; None with frozen codebooks) from raw words read at most
    _RAW_WORDS at a time: a call's books hold until the next call.
    """
    def stream(role):
        return np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=(role, case_idx, block_idx)))

    gen = np.random.Generator(stream(_ROLE_MESSAGE))
    messages = np.stack([gen.integers(
        0, decoder.message_counts[(u, true_rvi.index(u))], size=size)
        for u in range(1, decoder.num_users + 1)], axis=1)
    noise = stream(_ROLE_NOISE).random_raw((size, decoder.n))
    if frozen is not None:
        return (lambda count: _shared_books(frozen, decoder, count)), messages, noise
    readers, skip = {}, 0
    for key, m in sorted(decoder.message_counts.items()):
        if key in buffers:
            # a codebook stream per key, moved past the earlier keys' words
            # (Philox makes four per counter step)
            bits = stream(_ROLE_CODEBOOK)
            bits.advance(skip // 4)
            bits.random_raw(skip % 4)
            readers[key] = (bits, *_letter_edges(np.cumsum(decoder.laws.law(*key))),
                            buffers[key])
        skip += size * m * decoder.n

    def books(count):
        for bits, edges, base, buf in readers.values():
            step = max(1, _RAW_WORDS // buf[0].size)  # trials a read holds
            for lo in range(0, count, step):
                part = buf[lo:min(lo + step, count)]
                _symbols_from_raw(bits.random_raw(part.shape), edges, base, part)
        return {key: reader[3][:count] for key, reader in readers.items()}

    return books, messages, noise


def _simulate_case(decoder: SlotDecoder, case_idx: int,
                   true_rvi: RateVectorIndex, true_channel: Dmc, trials: int,
                   seed: int, frozen: Optional[CodebookSet]) -> tuple:
    """(decoded_correct, decoded_wrong, collision) trial counts of one case,
    drawn in blocks of _STREAM_BLOCK trials and sent and decided in batches
    whose codebooks hold at most _DRAW_UNIFORMS symbols (at least one trial).
    The batch's codebook symbols and received words live in buffers made
    once per case, in the alphabets' narrowest dtypes. A decode is correct
    when it names the sent messages and rate vector; the channel id it names
    is not judged."""
    per_trial = decoder.n * sum(decoder.message_counts[key]
                                for key in _read_keys(decoder, true_rvi))
    batch = max(1, min(_STREAM_BLOCK, trials, _DRAW_UNIFORMS // per_trial))
    buffers = None if frozen is not None else _book_buffers(decoder, true_rvi, batch)
    received = np.empty((batch, decoder.n), _symbol_dtype(decoder.output_size))
    # output symbol: the number of cumulative entries of the sent inputs' row
    # that the uniform strictly exceeds, one edge table per entry over the
    # inputs' flat index, drawn in pieces of at most _RAW_WORDS // 8 words
    edges = _raw_edges(np.cumsum(true_channel.probs, axis=-1), strict=True)
    edges = edges.reshape(decoder.input_size ** decoder.num_users, -1).T
    piece = max(1, min(batch, _RAW_WORDS // 8 // decoder.n))
    inputs = np.empty((piece, decoder.n), np.intp)
    correct = decoded = 0
    for block_idx, start in enumerate(range(0, trials, _STREAM_BLOCK)):
        size = min(_STREAM_BLOCK, trials - start)
        books_of, messages, noise = _draw_block(seed, case_idx, block_idx, size,
                                                decoder, true_rvi, frozen, buffers)
        truth = decoder.group_ids(true_rvi, messages)
        for lo in range(0, size, batch):
            part = slice(lo, min(lo + batch, size))
            count = part.stop - lo
            books = books_of(count)
            for first in range(0, count, piece):
                stop = min(first + piece, count)
                x = inputs[:stop - first]
                for u in range(1, decoder.num_users + 1):
                    sent = books[(u, true_rvi.index(u))][
                        np.arange(first, stop), messages[lo + first:lo + stop, u - 1]]
                    if u == 1:
                        np.copyto(x, sent)
                    else:
                        x *= decoder.input_size
                        x += sent
                _symbols_from_raw(noise[lo + first:lo + stop],
                                  [np.take(e, x) for e in edges], 0,
                                  received[first:stop])
            group, _ = decoder.decide(received[:count], books)
            decoded += int(np.count_nonzero(group >= 0))
            correct += int(np.count_nonzero((group >= 0) & (group == truth[part])))
    return correct, decoded - correct, trials - decoded


def estimate_errors(region: OperationRegion, compound: CompoundSet,
                    ledger: ExponentLedger, n: int, trials: int, seed: int,
                    params: ThresholdParams = ThresholdParams(),
                    bound: Optional[float] = None,
                    codebooks: Optional[CodebookSet] = None) -> SimReport:
    """Per-case Monte Carlo error estimation over the realization schedule
    of build_schedule (never a sampled prior); the system error is the worst
    case.

    In-region cases count every outcome other than a correct (message, rate)
    decode as an error; out-of-region cases count only wrong decodes, since
    reporting the collision is the intended behavior there. Every trial
    draws a fresh codebook unless codebooks pins one. Each case also reports
    its split into correct decodes, wrong decodes and collisions. Trials come
    in stream blocks of _STREAM_BLOCK, drawn, sent and decided in batches
    sized from the _DRAW_UNIFORMS budget, which bounds the memory of the
    draws and never changes results. compound holds the realizable channels;
    the decoder runs on ledger (see SlotDecoder), which the bound of the same
    system may share. A finite ledger must map compound's ids; a class
    ledger's envelopes say which class each realizable channel belongs to.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    _check_seed(seed)
    if ledger.compound is not None and ledger.compound.ids != compound.ids:
        raise ValidationError("the ledger's channel ids are not the compound "
                              "set's")
    schedule = build_schedule(region, ledger.table, compound.ids,
                              ledger.envelopes)
    decoder = SlotDecoder(region, ledger, n, params)
    cases = []
    for case_idx, (rvi, cid, in_region) in enumerate(schedule):
        correct, wrong, collision = _simulate_case(
            decoder, case_idx, rvi, compound.by_id(cid), trials, seed,
            codebooks)
        errs = wrong + collision if in_region else wrong
        rate = errs / trials
        std = math.sqrt(rate * (1.0 - rate) / trials)
        cases.append(CaseReport(rvi.indices, cid, in_region, trials, errs,
                                correct, wrong, collision, rate, std,
                                Z99 * std))
    decode_error = max((c.rate for c in cases if c.in_region), default=0.0)
    miss = max((c.rate for c in cases if not c.in_region), default=0.0)
    worst = max(cases, key=lambda c: c.rate, default=None)  # first of the worst
    system = worst.rate if worst else 0.0
    system_case = (worst.rate_indices, worst.channel_id) if worst else None
    system_std = worst.std if worst else 0.0
    bound_holds = None
    if bound is not None:
        bound_holds = system <= bound + 3.0 * system_std
    return SimReport(
        n=n, trials=trials, seed=seed, mode=region.mode,
        frozen_codebooks=codebooks is not None,
        decode_error_rate=decode_error, collision_miss_rate=miss,
        system_error_rate=system, system_case=system_case,
        system_std=system_std, system_half_width99=Z99 * system_std,
        bound=bound, bound_holds=bound_holds, cases=tuple(cases),
    )


@record
class ExactCase:
    rate_indices: tuple
    channel_id: str
    in_region: bool
    probability: float


@record
class ExactReport:
    n: int
    samples: int
    cases: tuple  # ensemble-averaged ExactCase entries
    per_sample: tuple  # per-codebook tuples of ExactCase


def exact_conditional_errors(region: OperationRegion, laws: InputLaws,
                             table: RateTable, n: int,
                             compound: Optional[CompoundSet] = None,
                             envelopes: Optional[Sequence[ChannelClassEnvelope]] = None,
                             params: ThresholdParams = ThresholdParams(),
                             cfg: OptimizerConfig = OptimizerConfig(),
                             codebooks: Optional[CodebookSet] = None,
                             seed: int = 0,
                             codebook_samples: int = 1) -> ExactReport:
    """Exact conditional error probabilities by output-space enumeration.

    Conditions on a fixed codebook (given, or drawn from derived seeds for a
    small ensemble average) and a uniform message tuple; sums the channel law
    over every output word, in lexicographic order. Each codebook decides
    every word in one decide() call; each message tuple's log-likelihoods of
    all words are an outer sum over symbols, added in symbol order. Guarded
    to output_size ** n <= 2 ** 20. Cases are those of build_schedule, so a
    class-mode region judges each channel by the envelope listing it.
    """
    if compound is None:
        raise ValidationError("exact evaluation needs the realizable channels")
    if codebook_samples < 1:
        raise ValidationError("codebook_samples must be >= 1")
    if codebooks is not None and codebook_samples != 1:
        raise ValidationError("codebook_samples must be 1 with given codebooks")
    _check_seed(seed)
    b = compound.output_size
    # b ** n > OUTPUT_ENUM_GUARD without building b ** n for a huge n: for
    # b >= 2 any power past the guard's bit length exceeds it
    if b ** min(n, OUTPUT_ENUM_GUARD.bit_length()) > OUTPUT_ENUM_GUARD:
        raise GuardExceeded(f"{b}^{n} output words exceed {OUTPUT_ENUM_GUARD}")
    envelopes = envelopes or ()
    schedule = build_schedule(region, table, compound.ids, envelopes)
    ledger = ExponentLedger(compound if region.mode == "finite" else envelopes,
                            laws, table, cfg)
    decoder = SlotDecoder(region, ledger, n, params)
    books = [codebooks] if codebooks is not None else [generate_codebooks(
        table, laws, decoder.input_size, n, int(np.random.SeedSequence(
            entropy=seed, spawn_key=(_ROLE_ENSEMBLE, i)).generate_state(1)[0]))
        for i in range(codebook_samples)]
    users = range(1, decoder.num_users + 1)
    # every output word in lexicographic order: symbol j repeats each letter
    # b ** (n - 1 - j) times
    words = np.empty((b ** n, n), _symbol_dtype(b))
    for j in range(n):
        words[:, j] = np.tile(np.repeat(np.arange(b, dtype=words.dtype),
                                        b ** (n - 1 - j)), b ** j)
    per_sample = []
    for cb in books:
        group = decoder.decide(words, _shared_books(cb, decoder, len(words)))[0]
        sample_cases = []
        for rvi, cid, in_region in schedule:
            log_p = safe_log(compound.by_id(cid).probs)
            tuples = list(itertools.product(*(
                range(decoder.message_counts[(u, rvi.index(u))]) for u in users)))
            total = 0.0
            for msgs, key in zip(tuples, decoder.group_ids(rvi, np.array(tuples))):
                rows = [cb.codeword(u, rvi.index(u), msgs[u - 1]) for u in users]
                # every word's log-likelihood in word order, an outer sum that
                # adds each word's symbols in j order
                lp = np.zeros(1)
                for x in zip(*rows):
                    lp = (lp[:, None] + log_p[x]).ravel()
                wrong = group != key if in_region else (group >= 0) & (group != key)
                total = np.add.accumulate(np.append(total, np.exp(lp[wrong])))[-1]
            sample_cases.append(ExactCase(rvi.indices, cid, in_region,
                                          float(total) / len(tuples)))
        per_sample.append(tuple(sample_cases))
    averaged = [ExactCase(rvi.indices, cid, in_region, sum(
        s[i].probability for s in per_sample) / len(per_sample))
        for i, (rvi, cid, in_region) in enumerate(schedule)]
    return ExactReport(n=n, samples=len(books), cases=tuple(averaged),
                       per_sample=tuple(per_sample))
