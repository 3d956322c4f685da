"""Slot-level Monte Carlo and exact evaluation of the threshold decoder.

The decoder under test works per conditioning subset S: a codeword tuple is
admitted when its log likelihood clears a per-(rate vector, channel, S)
threshold, the subset estimate is the admitted tuple of maximum likelihood
(class mode: the tuple whose lower-envelope likelihood strictly beats every
rival's upper-envelope likelihood), and the slot decodes only when every
subset produces the same estimate; anything else is reported as a collision.
SlotDecoder.decide is the one implementation of this rule: Monte Carlo, exact
enumeration and the single-slot SlotDecoder.decode all run it. The
decoder's one context is an ExponentLedger: its compound set or class
envelopes give the mode and the channels, and its crossing exponents give
every threshold. estimate_errors takes the same ledger as the bound of its
system, plus the compound set of realizable channels.

Likelihoods are joint (input, output) cell counts dotted with a log-propensity
table in a fixed flat order, so tuples with identical transition counts have
bit-identical scores and analytic ties really compare equal; ties then
propagate to a collision rather than an arbitrary winner.

All randomness is counter-based: every (role, case, block) triple names a
Philox stream derived from the master seed, and codebooks regenerate
bit-identically from per-(user, rate, message) keys. Symbols are read off raw
Philox words with integer edges (see _raw_edges) that make exactly the
letters Generator.random's uniforms would, and are kept in the alphabet's
narrowest unsigned dtype; Monte Carlo writes them into buffers made once per
case.
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
from .errors import EnumerationTooLarge, TooManyCodewords, ValidationError
from .exponents import (
    OptimizerConfig,
    _batched_power,
    _envelope_true_factor,
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
# Output words per chunk of exact enumeration.
_WORD_BLOCK = 4096
# statistics.NormalDist().inv_cdf(0.995), the two-sided 99% normal quantile,
# as a literal: importing statistics costs every process a few ms.
Z99 = 2.5758293035489
# Cap on the (trial, candidate, symbol or cell) entries decide() holds at once.
_DECIDE_ELEMENTS = 2 ** 16
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
    ceil(c * 2**53), or floor(c * 2**53) + 1 with strict; so it fires exactly
    when w exceeds the edge, the largest word whose w >> 11 is below the first
    index. The edges are uint64 (an array, so
    that no comparison falls back to float64): 2**64 - 1 where the first
    index reaches 2**53 and the entry never fires. An entry c <= 0 without
    strict fires on every word and has no edge; _letter_edges counts it
    apart."""
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


def _ordered_dot(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows @ weights over the last axis, summed term by term from the left.

    A BLAS product rounds by blocks laid out by batch shape, so equal rows can
    differ in the last bit; this sum gives a row one value in any batch.
    """
    out = np.zeros(rows.shape[:-1])
    for j, w in enumerate(weights):
        out += rows[..., j] * w
    return out


@record(eq=False)
class CodebookSet:
    """Frozen codebooks, one (messages, n) symbol array per (user, rate index).

    Every codeword is addressable: codeword m of (user, rate) is drawn from
    the Philox stream keyed SeedSequence(seed, spawn_key=(user, rate, m)), so
    any single entry regenerates bit-identically without the rest.
    generate_codebooks stores the symbols in the narrowest unsigned dtype of
    the input alphabet.
    """

    seed: int
    n: int
    entries: Mapping

    def codeword(self, user: int, rate_idx: int, message: int) -> np.ndarray:
        return self.entries[(user, rate_idx)][message]


def _guard_codewords(table: RateTable, n: int) -> None:
    total = sum(message_count(n, table.rate(u, i))
                for u in range(1, table.num_users + 1)
                for i in range(1, table.num_classes + 1))
    if total > CODEWORD_GUARD:
        raise TooManyCodewords(f"{total} codewords exceed the guard {CODEWORD_GUARD}")


def generate_codebooks(table: RateTable, laws: InputLaws, input_size: int,
                       n: int, seed: int) -> CodebookSet:
    if n < 1:
        raise ValidationError("block length must be >= 1")
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
    return CodebookSet(seed=seed, n=n, entries=entries)


@record
class ThresholdParams:
    """Tilt parameters of the typicality thresholds.

    source "manual" takes rho_tilde and s2 as given; "from_ei" reads rho_tilde
    off the crossing-exponent argmax against the selected competing pair and
    sets s2 = rho_tilde / 2, so it takes neither. s1 is always
    1 - s2 / rho_tilde.
    """

    rho_tilde: Optional[float] = None
    s2: Optional[float] = None
    source: str = "from_ei"

    def __post_init__(self):
        if self.source not in ("manual", "from_ei"):
            raise ValidationError(f"source must be 'manual' or 'from_ei', got {self.source!r}")
        if self.source == "from_ei":
            if self.rho_tilde is not None or self.s2 is not None:
                raise ValidationError(
                    "rho_tilde and s2 need threshold_source = manual")
            return
        if self.rho_tilde is None or self.s2 is None:
            raise ValidationError("manual thresholds need rho_tilde and s2")
        if not 0 < self.rho_tilde <= 1:
            raise ValidationError("rho_tilde must lie in (0, 1]")
        if not 0 < self.s2 < self.rho_tilde:
            raise ValidationError("s2 must lie in (0, rho_tilde)")


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
    comp_pair: Optional[tuple]

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

    def taus(self, y_counts: np.ndarray, n: int) -> np.ndarray:
        """tau for each row of (T, output_size) symbol counts (see
        _stacked_taus)."""
        return _stacked_taus(self.coeff[None], np.array([self.const]), y_counts, n)[0]


def _stacked_taus(coeff: np.ndarray, const: np.ndarray, y_counts: np.ndarray,
                  n: int) -> np.ndarray:
    """tau of k threshold tables at once, given their (k, output_size)
    coefficients and (k,) constants, for each row of (T, output_size) symbol
    counts, as (k, T): -inf where an observed symbol has a -inf coefficient,
    else +inf where one has a +inf coefficient, else the closed form."""
    finite = np.where(np.isfinite(coeff), coeff, 0.0)
    tau = _ordered_dot(np.broadcast_to(y_counts, (len(coeff),) + y_counts.shape),
                       finite.T[:, :, None]) / n + const[:, None]
    for value in (math.inf, NEG_INF):  # -inf last: it overrides +inf
        symbols = coeff == value
        if symbols.any():
            seen = symbols.astype(float) @ (y_counts > 0).T  # exact small counts
            tau = np.where(seen > 0, value, tau)
    return tau


def build_threshold_tables(true_rates: RateVectorIndex, true_channel,
                           subset: frozenset, laws: InputLaws, table: RateTable,
                           rho_tilde: float, s2: float,
                           comp_rates: Optional[RateVectorIndex] = None,
                           comp_channel=None,
                           comp_key: Optional[tuple] = None) -> ThresholdTables:
    """Per-symbol expectation tables of the threshold balance equation.

    The subset users' symbols are averaged under their input laws, so the
    threshold depends on the output word alone.
    """
    k = true_channel.num_users
    a = true_channel.input_size
    if comp_rates is None:
        comp_rates = true_rates
    if comp_channel is None:
        comp_channel = true_channel
    if not 0 < rho_tilde <= 1 or not 0 < s2 < rho_tilde:
        raise ValidationError("threshold tilts need 0 < s2 < rho_tilde <= 1")
    s1 = 1.0 - s2 / rho_tilde
    # tested pair: self expectation at p^(s2 / rho_tilde) (class: lower
    # envelope), mixed at p^(1 - s1) (class: pmax * pmin^(-s1))
    self_power = np.array([s2 / rho_tilde])
    if isinstance(true_channel, Dmc):
        log_p = safe_log(true_channel.probs)
        f_self = _batched_power(log_p, self_power)[0]
        f_mixed = _batched_power(log_p, np.array([1.0 - s1]))[0]
        f_comp = safe_log(comp_channel.probs)
    else:
        log_pmin = safe_log(true_channel.pmin)
        f_self = _batched_power(log_pmin, self_power)[0]
        f_mixed = _envelope_true_factor(safe_log(true_channel.pmax), log_pmin,
                                        np.array([s1]))[0]
        f_comp = safe_log(comp_channel.pmax)
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
    return ThresholdTables(log_a, log_b, log_c, rho_tilde, s1, s2, rate_sum,
                           comp_key)


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
        count, cells = tables.shape
        groups = [np.unique(row, return_inverse=True) for row in tables]
        width = max(np.count_nonzero(~np.isneginf(vals)) for vals, _ in groups)
        self.dead = bool(np.isneginf(tables).any())
        # one-hot value groups <- cells, for batched matmul grouping: row
        # j * tables + t is table t's j-th live value in ascending order
        # (zero-padded to width), then one dead row per table if any table
        # has dead cells
        self.live_values = np.zeros((count, width))
        self.onehot = np.zeros((count * (width + self.dead), cells))
        for t, (vals, inverse) in enumerate(groups):
            dead = np.isneginf(vals)
            self.live_values[t, :vals.size - dead.sum()] = vals[~dead]
            row = np.where(dead, count * width + t,
                           (np.arange(vals.size) - dead.sum()) * count + t)
            self.onehot[row[inverse], np.arange(cells)] = 1.0

    def score_rows(self, flat_counts: np.ndarray) -> np.ndarray:
        """Scores of (rows, cells) counts, (tables, rows)."""
        count, width = self.live_values.shape
        grouped = self.onehot @ flat_counts.T  # integer sums: exact in any order
        # zero padding adds +0.0, which leaves every sum as it was
        live = grouped[:count * width].reshape(width, count, -1).transpose(1, 2, 0)
        out = _ordered_dot(live, self.live_values.T[:, :, None])
        if self.dead:
            out[grouped[count * width:] > 0] = NEG_INF
        return out


@record
class Decision:
    outcome: str  # decoded | collision
    messages: Optional[tuple]
    rates: Optional[RateVectorIndex]
    channel_id: Optional[str]


class SlotDecoder:
    """Precomputed decoding context for one region: log-propensity tables,
    candidate enumeration, and per-(pair, subset) thresholds.

    In class mode each candidate carries two scores: the lower-envelope
    likelihood when tested and the upper-envelope likelihood when rivaling;
    finite mode uses one score for both roles. Rounding is monotone, so the
    tested score never exceeds the rival score and at most one message/rate
    tuple can strictly dominate.

    The ledger is the decoder's context: its channels or class envelopes
    (which set the mode), laws and rate table, and the crossing exponents of
    the thresholds, which the bound of the same system may already have
    filled.
    """

    def __init__(self, region: OperationRegion, ledger: ExponentLedger, n: int,
                 params: ThresholdParams = ThresholdParams()):
        if n < 1:
            raise ValidationError("block length must be >= 1")
        ledger.require_full("SlotDecoder")
        ledger.check_region(region)
        self.channels = ledger.channels
        self.ids = tuple(self.channels)
        ref = next(iter(self.channels.values()))
        self.mode = region.mode
        self.region = region
        self.laws = ledger.laws
        self.table = table = ledger.table
        self.n = int(n)
        self.params = params
        self.num_users = ref.num_users
        self.input_size = ref.input_size
        self.output_size = ref.output_size
        self.cells = self.input_size ** self.num_users * self.output_size
        self.subsets = proper_subsets(range(1, self.num_users + 1))
        self.out_pairs = region.complement(pair_universe(table, self.ids))
        # flat log-propensities per id: tested, and (class mode) rival
        self.log_tested, self.log_rival = {}, {}
        for cid, ch in self.channels.items():
            if isinstance(ch, Dmc):
                self.log_tested[cid] = self.log_rival[cid] = safe_log(ch.probs).ravel()
            else:
                self.log_tested[cid] = safe_log(ch.pmin).ravel()
                self.log_rival[cid] = safe_log(ch.pmax).ravel()
        self.message_counts = {}
        for u in range(1, self.num_users + 1):
            for i in range(1, table.num_classes + 1):
                self.message_counts[(u, i)] = message_count(self.n, table.rate(u, i))
        self._lay_out_candidates()
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

    def _lay_out_candidates(self):
        """Candidate order of decide(): region rate vectors in first-member
        order, their message tuples in itertools.product order, each under the
        vector's region channels in id order. A group (message tuple, rate
        vector) is a run of candidates; groups are numbered in this order."""
        by_rates = {}
        for rvi, cid in self.region.members:
            by_rates.setdefault(rvi.indices, (rvi, []))[1].append(cid)
        self._blocks = {}  # rate indices -> (rvi, message counts, first group, ids)
        self._pairs = []  # threshold keys (rate indices, id) of the candidates' pairs
        self._runs = []  # (first candidate, groups, candidates a group) per block
        self._scorers = []  # per block: its ids' tested (class: and rival) scores
        cands = []  # (group, id index, pair index) per candidate
        groups = 0
        for rvi, cids in by_rates.values():
            cids = tuple(sorted(cids, key=self.ids.index))
            dims = tuple(self.message_counts[(u, rvi.index(u))]
                         for u in range(1, self.num_users + 1))
            self._blocks[rvi.indices] = (rvi, dims, groups, cids)
            self._runs.append((len(cands), math.prod(dims), len(cids)))
            self._scorers.append(tuple(
                _ScoreContext(np.stack([logs[cid] for cid in cids]))
                for logs in ((self.log_tested, self.log_rival) if self.mode == "class"
                             else (self.log_tested,))))
            cands += [(g, self.ids.index(cid), len(self._pairs) + j)
                      for g in range(groups, groups + math.prod(dims))
                      for j, cid in enumerate(cids)]
            self._pairs += [(rvi.indices, cid) for cid in cids]
            groups += math.prod(dims)
        self._group_of, self._cid_of, self._pair_of = np.array(
            cands, dtype=np.int64).reshape(-1, 3).T

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
                if self.params.source == "manual":
                    rho_tilde, s2 = self.params.rho_tilde, self.params.s2
                else:
                    rho_tilde, s2 = res.rho_star, res.rho_star / 2.0
                out[key] = build_threshold_tables(
                    t[0], self.channels[t[1]], subset, self.laws, self.table,
                    rho_tilde, s2, o_star[0], self.channels[o_star[1]],
                    (o_star[0].indices, o_star[1]))
        return out

    def decode(self, y, codebooks: CodebookSet) -> Decision:
        """decide() on one received word y against one codebook set: the
        decoded group as its message tuple and rate vector, and the decoded
        channel's id; all None on a collision."""
        group, channel = self.decide(np.asarray(y, dtype=np.int64)[None, :],
                                     _shared_books(codebooks, self, 1))
        for rvi, dims, first, _ in self._blocks.values():
            if first <= group[0] < first + math.prod(dims):
                msgs = np.unravel_index(group[0] - first, dims)
                return Decision("decoded", tuple(int(m) for m in msgs), rvi,
                                self.ids[channel[0]])
        return Decision("collision", None, None, None)

    def group_ids(self, rvi: RateVectorIndex, messages: np.ndarray) -> np.ndarray:
        """Group id of each row of (T, K) message tuples sent at rvi: what
        decide() reports when it decodes them, -1 if rvi is not in the region."""
        messages = np.asarray(messages, dtype=np.int64)
        if rvi.indices not in self._blocks:
            return np.full(messages.shape[0], -1, dtype=np.int64)
        _, dims, first, _ = self._blocks[rvi.indices]
        return first + np.ravel_multi_index(tuple(messages.T), dims)

    def decide(self, ys: np.ndarray, books: Mapping) -> tuple:
        """The threshold decoder's decisions for a batch of received words.

        ys is (T, n); books maps (user, rate index) to (T, m, n) codewords,
        one codebook per trial (a broadcast view shares one). Symbols may
        have any integer dtype: the cell codes promote them to int64. Returns
        two (T,) arrays: the decoded group id (see group_ids) and the decoded
        channel's index in ids, both -1 where the slot is a collision.
        """
        ys = np.asarray(ys)
        if ys.ndim != 2 or ys.shape[1] != self.n:
            raise ValidationError(f"received words must have length {self.n}")
        size = ys.shape[0]
        group = np.full(size, -1, dtype=np.int64)
        channel = np.full(size, -1, dtype=np.int64)
        if not self._pairs:
            return group, channel
        step = max(1, _DECIDE_ELEMENTS // (self._group_of.size * max(self.n, self.cells)))
        for lo in range(0, size, step):
            part = slice(lo, lo + step)
            group[part], channel[part] = self._decide_chunk(
                ys[part], {key: v[part] for key, v in books.items()})
        return group, channel

    def _decide_chunk(self, ys, books) -> tuple:
        """decide() on at most _DECIDE_ELEMENTS entries. Scores are
        candidate-major, (candidates, T), so every reduction over a group's
        candidates runs along whole rows."""
        size, b = ys.shape[0], self.output_size
        y_counts = None
        thr = []  # -n * tau per subset, (pairs, T); no tables: the test never rejects
        for pairs, coeff, const in self._tables:
            thr.append(np.full((len(self._pairs), size), NEG_INF))
            if pairs.size:
                if y_counts is None:
                    y_counts = np.bincount(
                        (np.arange(size)[:, None] * b + ys).ravel(),
                        minlength=size * b).reshape(size, b).astype(float)
                thr[-1][pairs] = -self.n * _stacked_taus(coeff, const, y_counts, self.n)
        blocks = []
        for (rvi, dims, _, cids), scorers in zip(self._blocks.values(), self._scorers):
            counts = self._cell_counts_batch(rvi, dims, ys, books)
            # (ids, tuples * T) in (tuple, trial) order -> (tuples * ids, T)
            blocks.append([ctx.score_rows(counts).reshape(len(cids), -1, size).transpose(
                1, 0, 2).reshape(-1, size) for ctx in scorers])
        scores = [np.concatenate(kind) for kind in zip(*blocks)]
        tested, rival = scores[0], scores[-1]
        group, channel = self._subset_decisions(thr[0], tested, rival)
        for t in thr[1:]:
            g, c = self._subset_decisions(t, tested, rival)
            agree = (g == group) & (c == channel)
            group, channel = np.where(agree, group, -1), np.where(agree, channel, -1)
        return group, channel

    def _per_group(self, ufunc, values) -> np.ndarray:
        """ufunc reduced over each group's run of candidates: (candidates, T)
        to (groups, T). A block's groups are runs of equal length."""
        return np.concatenate([
            ufunc.reduce(values[lo:lo + groups * run].reshape(groups, run, -1), axis=1)
            for lo, groups, run in self._runs])

    def _subset_decisions(self, thr, tested, rival) -> tuple:
        """(group, channel) estimates of one conditioning subset, -1 unless
        exactly one group strictly dominates. A candidate is typical when its
        rival score clears its threshold; it dominates when its tested score
        clears its threshold and the best typical rival score of every other
        group. In the dominating group the highest tested score wins, the
        earliest id on ties. thr is -n * tau per pair, (pairs, T)."""
        thr = thr[self._pair_of]
        best = self._per_group(np.maximum, np.where(rival > thr, rival, NEG_INF))
        top = best.max(axis=0)
        first = best == top
        second = np.where(first, NEG_INF, best).max(axis=0)
        # every other group's best: the top one, unless this group alone has it
        others = np.where(first & (first.sum(axis=0) == 1), second, top)
        dom = (tested > thr) & (tested > others[self._group_of])
        unique = self._per_group(np.logical_or, dom).sum(axis=0) == 1
        win = np.where(dom, tested, NEG_INF).argmax(axis=0)
        return (np.where(unique, self._group_of[win], -1),
                np.where(unique, self._cid_of[win], -1))

    def _cell_counts_batch(self, rvi, dims, ys, books) -> np.ndarray:
        """Joint (inputs, output) cell counts of every message tuple at rvi
        against every word, (tuples * T, cells) in (tuple, trial) order, from
        one bincount over row * cells + cell code. Each user's term carries
        its stride and its messages' row offsets, the last user's also the
        trial offsets; the terms are summed from the last user's, which takes
        the output word in place, so every full-size array is written once.
        The terms are int64 whatever the symbols' dtype."""
        size, cells = ys.shape[0], self.cells
        code, offset = ys, (np.arange(size) * cells)[:, None]  # trial offsets
        stride, row = self.output_size, size * cells
        for u in range(self.num_users, 0, -1):
            m = dims[u - 1]
            term = np.multiply(books[(u, rvi.index(u))][:, :m].transpose(1, 0, 2),
                               stride, dtype=np.int64, order="C")
            term += (np.arange(m) * row)[:, None, None] + offset
            term = term.reshape((m,) + (1,) * (code.ndim - 2) + (size, self.n))
            code = np.add(term, code, out=term if code is ys else None)
            stride, row, offset = stride * self.input_size, row * m, 0
        del term  # K > 1: the first user's term, before bincount allocates
        return np.bincount(code.ravel(), minlength=row).reshape(-1, cells)


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
    within a stream, draws happen in a fixed documented order (codebooks by
    sorted (user, rate), then trial, message and symbol; messages user by
    user), so a block regenerates alone, however books() splits it. Fresh
    books hold only the keys that a region block or the sent codewords read;
    the stream still reserves the words of every key. They are written into
    buffers (see _book_buffers; None with frozen codebooks), so a call's
    books hold only until the next call.
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
    return (lambda count: {
        key: _symbols_from_raw(bits.random_raw((count, *buf.shape[1:])), edges,
                               base, buf[:count])
        for key, (bits, edges, base, buf) in readers.items()}, messages, noise)


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
    # that the uniform strictly exceeds, one edge table per entry
    edges = np.moveaxis(_raw_edges(np.cumsum(true_channel.probs, axis=-1),
                                   strict=True), -1, 0)
    correct = decoded = 0
    for block_idx, start in enumerate(range(0, trials, _STREAM_BLOCK)):
        size = min(_STREAM_BLOCK, trials - start)
        books_of, messages, noise = _draw_block(seed, case_idx, block_idx, size,
                                                decoder, true_rvi, frozen, buffers)
        truth = decoder.group_ids(true_rvi, messages)
        for lo in range(0, size, batch):
            part = slice(lo, min(lo + batch, size))
            books = books_of(part.stop - lo)
            sent = tuple(books[(u, true_rvi.index(u))][
                np.arange(part.stop - lo), messages[part, u - 1]]
                for u in range(1, decoder.num_users + 1))  # (trials, n) each
            ys = _symbols_from_raw(noise[part], [e[sent] for e in edges], 0,
                                   received[:part.stop - lo])
            group, _ = decoder.decide(ys, books)
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
    draws a fresh codebook unless codebooks pins one across all trials. Each
    case also reports its split into correct decodes, wrong decodes and
    collisions. Trials come in stream blocks of _STREAM_BLOCK, drawn, sent and
    decided in batches sized from the _DRAW_UNIFORMS budget, which bounds the
    memory of the draws and never changes results. compound holds the
    realizable channels; the decoder runs on ledger (see SlotDecoder), which
    a caller may share with the bound of the same system. A finite ledger
    must map compound's ids; a class ledger's envelopes say which class each
    realizable channel belongs to.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if ledger.compound is not None and ledger.compound.ids != compound.ids:
        raise ValidationError("the ledger's channel ids are not the compound "
                              "set's")
    _guard_codewords(ledger.table, n)
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
    over every output word. Output words are decided _WORD_BLOCK at a time,
    in lexicographic order. Guarded to output_size ** n <= 2 ** 20. Cases
    are those of build_schedule, so a class-mode region judges each channel
    by the envelope listing it.
    """
    if compound is None:
        raise ValidationError("exact evaluation needs the realizable channels")
    envelopes = envelopes or ()
    schedule = build_schedule(region, table, compound.ids, envelopes)
    ledger = ExponentLedger(compound if region.mode == "finite" else envelopes,
                            laws, table, cfg)
    decoder = SlotDecoder(region, ledger, n, params)
    b = decoder.output_size
    if b ** n > OUTPUT_ENUM_GUARD:
        raise EnumerationTooLarge(f"{b}^{n} output words exceed {OUTPUT_ENUM_GUARD}")
    if codebooks is not None:
        books = [codebooks]
    else:
        books = []
        for i in range(codebook_samples):
            child = np.random.SeedSequence(entropy=seed,
                                           spawn_key=(_ROLE_ENSEMBLE, i))
            books.append(generate_codebooks(table, laws, decoder.input_size, n,
                                            int(child.generate_state(1)[0])))
    users = range(1, decoder.num_users + 1)
    place = b ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def chunks():  # (first index, words): all output words in lexicographic order
        for start in range(0, b ** n, _WORD_BLOCK):
            words = np.arange(start, min(start + _WORD_BLOCK, b ** n))
            yield start, words[:, None] // place % b

    per_sample = []
    for cb in books:
        group = np.concatenate([decoder.decide(ys, _shared_books(cb, decoder, len(ys)))[0]
                                for _, ys in chunks()])
        sample_cases = []
        for rvi, cid, in_region in schedule:
            log_p = safe_log(compound.by_id(cid).probs)
            tuples = list(itertools.product(*(
                range(decoder.message_counts[(u, rvi.index(u))]) for u in users)))
            total = 0.0
            for msgs, key in zip(tuples, decoder.group_ids(rvi, np.array(tuples))):
                rows = [cb.codeword(u, rvi.index(u), msgs[u - 1]) for u in users]
                wrong = ((group != key) | (group < 0) if in_region
                         else (group >= 0) & (group != key))
                for start, ys in chunks():
                    lp = np.zeros(len(ys))
                    for j in range(n):
                        lp += log_p[tuple(r[j] for r in rows)][ys[:, j]]
                    # word by word in word order, so the sum does not depend
                    # on _WORD_BLOCK
                    p_err = np.exp(lp[wrong[start:start + len(ys)]])
                    total = np.add.accumulate(np.append(total, p_err))[-1]
            sample_cases.append(ExactCase(rvi.indices, cid, in_region,
                                          float(total) / len(tuples)))
        per_sample.append(tuple(sample_cases))
    averaged = []
    for i, (rvi, cid, in_region) in enumerate(schedule):
        mean = sum(s[i].probability for s in per_sample) / len(per_sample)
        averaged.append(ExactCase(rvi.indices, cid, in_region, mean))
    return ExactReport(n=n, samples=len(books), cases=tuple(averaged),
                       per_sample=tuple(per_sample))
