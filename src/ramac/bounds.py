"""Slot error bounds assembled from exponent terms.

Every bound here has the two-branch shape: a decode branch (worst in-region
realization: confusion sums plus the worst matching atypicality term) and a
collision branch (worst out-of-region realization: for each matching in-region
pair, the worst atypicality term again). The bound is the larger branch;
raw values are exp of log-domain totals and are additionally clamped at 1.

Exponents do not depend on the block length, so they live in an
ExponentLedger that optimises each distinct exponent objective once and that
one system's bounds, asymptotic slope and decoder thresholds share; a report
at any N reads the ledger and sums e^(-N E) terms. The ledger is every
bound's one context: it holds the compound set or the class envelopes, the
input laws, the rate table, the optimizer settings and the decoded set, so
each entry takes a region, a ledger and a block length.
"""

from __future__ import annotations

import math
from typing import Optional

from ._record import record
from .channels import CompoundSet, InputLaws, RateTable, effective_channel
from .errors import C1Violation, InfeasibleRegion, ValidationError
from .exponents import (
    ExponentQuery,
    ExponentResult,
    OptimizerConfig,
    ei_exponent,
    em_exponent,
)
from .logdomain import NEG_INF, logsumexp_list
from .regions import (
    OperationRegion,
    Partition,
    enumerate_partitions,
    feasibility_check,
    pair_universe,
    proper_subsets,
    subsets_containing,
)


@record
class BoundTerm:
    branch: str  # decode | collision
    true_pair: tuple  # (rate indices, id)
    subset: frozenset
    kind: str  # em | ei
    comp_pair: Optional[tuple]
    exponent: float
    log_weight: float  # -N * exponent
    aggregation: str  # sum | max
    attained: bool


@record
class BoundReport:
    n: int
    mode: str  # finite | class | subset
    raw_bound: float
    clamped_bound: float
    log_bound: float
    branch: str  # branch attaining the bound (decode on ties)
    decode_log: float
    collision_log: float
    pair_totals: tuple  # (branch, pair, log total) per realization
    terms: tuple
    exponent_evaluations: int


@record
class SystemExponentResult:
    value: float
    kind: Optional[str]
    subset: Optional[frozenset]
    true_pair: Optional[tuple]
    comp_pair: Optional[tuple]
    evaluations: int


def _pair_key(pair) -> tuple:
    rvi, cid = pair
    return (rvi.indices, str(cid))


def _matches(a, b, subset) -> bool:
    return a[0].agrees_on(b[0], subset)


def _channel_map(source) -> dict:
    """id -> channel of a CompoundSet, or class id -> envelope of a sequence
    of class envelopes."""
    if isinstance(source, CompoundSet):
        return {cid: source.by_id(cid) for cid in source.ids}
    out = {}
    for env in source:
        if env.class_id in out:
            raise ValidationError(f"duplicate class id {env.class_id!r}")
        out[env.class_id] = env
    return out


def _objective_key(kind: str, q: ExponentQuery) -> tuple:
    """Everything q's kind objective reads: the subset, the two channels by
    identity (a ledger keeps the objects it maps, effective ones included),
    every user's law at the true rates, the outside users' laws at the
    competing rates, and R, summed in user order like the optimiser's."""
    users = range(1, q.num_users + 1)
    outside = [u for u in users if u not in q.subset]
    rates = q.comp_rates if kind == "em" else q.true_rates
    return (kind, q.subset, id(q.true_channel), id(q.comp_channel),
            tuple(q.laws.law(u, q.true_rates.index(u)).tobytes() for u in users),
            tuple(q.laws.law(u, q.comp_rates.index(u)).tobytes()
                  for u in outside),
            sum(q.rate_table.rate(u, rates.index(u)) for u in outside))


class ExponentLedger:
    """Every em/ei exponent of one system, each distinct objective optimised
    once, and the context of every bound and of the slot decoder of that
    system.

    Exponents do not depend on the block length, so one ledger serves every
    bound, the asymptotic slope and the decoder thresholds of a system.
    channels is what the region's ids name: a CompoundSet (kept as
    compound) or a sequence of class envelopes (kept as envelopes), and the
    finite or class variant is read off it. Entries are keyed by (kind,
    subset, true pair, competing pair); a pair is (rate vector, id) and the
    id names a channel or class envelope. Entries whose queries share an
    objective (_objective_key) share one optimisation and one result, so the
    ledger optimises each distinct objective once; evaluations() still sums
    over entries. With users_d the ledger serves the decoder of the users in
    D: a pair's channel is its channel averaged over the pair's rates of the
    users outside D, and subsets are subsets of D. D must be a nonempty set
    of users 1..K over a compound set.
    """

    def __init__(self, channels, laws: InputLaws, table: RateTable,
                 cfg: OptimizerConfig = OptimizerConfig(), users_d=None):
        finite = isinstance(channels, CompoundSet)
        self.compound = channels if finite else None
        self.envelopes = () if finite else tuple(channels)
        if not (finite or self.envelopes):
            raise ValidationError("class mode needs envelopes")
        self.channels = _channel_map(self.compound or self.envelopes)
        self.laws, self.table, self.cfg = laws, table, cfg
        self.users_d = None if users_d is None else frozenset(users_d)
        self._entries = {}
        self._optimised = {}  # _objective_key -> its one ExponentResult
        if self.users_d is not None:
            if not self.users_d:
                raise ValidationError("the decoded set must be nonempty")
            for u in self.users_d:
                if not 1 <= u <= table.num_users:
                    raise ValidationError(
                        f"decoded user {u} outside 1..{table.num_users}")
            if not finite:
                raise ValidationError("a decoded set needs finite channels, "
                                      "not class envelopes")
            self._d = sorted(self.users_d)
            self._reduced = (laws.restrict(self._d), table.restrict(self._d))
            self._effective = {}

    def check_region(self, region: OperationRegion):
        """Raise unless region is of this ledger's variant and each member
        pairs a rate vector of the table with one of the ledger's ids."""
        need = "a compound set" if region.mode == "finite" else "class envelopes"
        if (region.mode == "finite") != (self.compound is not None):
            raise ValidationError(f"a {region.mode} region needs a ledger over "
                                  f"{need}")
        for rvi, cid in region.members:
            rvi.check_against(self.table)
            if cid not in self.channels:
                raise ValidationError(f"region references unknown id {cid!r}")

    def require_full(self, entry: str):
        """Raise unless this ledger serves the decoder of every user."""
        if self.users_d is not None:
            raise ValidationError(f"{entry} needs a ledger without a decoded "
                                  "set")

    def _channel(self, pair):
        channel = self.channels[pair[1]]
        if self.users_d is None:
            return channel
        outside = {u: pair[0].index(u) for u in range(1, channel.num_users + 1)
                   if u not in self.users_d}
        # what the average reads: equal outside laws give one channel object
        key = (pair[1], tuple(self.laws.law(u, i).tobytes()
                              for u, i in outside.items()))
        if key not in self._effective:
            self._effective[key] = effective_channel(channel, self._d, outside,
                                                     self.laws)
        return self._effective[key]

    def get(self, kind: str, subset, t, c) -> ExponentResult:
        """The kind exponent of true pair t against competing pair c, which
        agree on subset."""
        key = (kind, subset, _pair_key(t), _pair_key(c))
        if key not in self._entries:
            if self.users_d is not None and not subset <= self.users_d:
                raise ValidationError(f"subset {sorted(subset)} is not inside "
                                      f"the decoded set {self._d}")
            true_ch, comp_ch = self._channel(t), self._channel(c)
            if self.users_d is None:
                q = ExponentQuery(subset, t[0], true_ch, c[0], comp_ch,
                                  self.laws, self.table)
            else:
                d = self._d
                q = ExponentQuery(frozenset(d.index(u) + 1 for u in subset),
                                  t[0].restrict(d), true_ch, c[0].restrict(d),
                                  comp_ch, *self._reduced)
            objective = _objective_key(kind, q)
            if objective not in self._optimised:
                fn = em_exponent if kind == "em" else ei_exponent
                self._optimised[objective] = fn(q, self.cfg)
            self._entries[key] = self._optimised[objective]
        return self._entries[key]

    def best_ei(self, subset, t, out_pairs):
        """(out pair, result) of the smallest ei exponent of t over the out
        pairs agreeing with t on subset, the first on ties; None when no out
        pair agrees."""
        best = None
        for o in out_pairs:
            if _matches(o, t, subset):
                res = self.get("ei", subset, t, o)
                if best is None or res.value < best[1].value:
                    best = (o, res)
        return best

    def evaluations(self, keys=None) -> int:
        """Objective evaluations behind the entries keyed (kind, subset, true
        pair key, competing pair key); all entries when keys is None."""
        return sum(self._entries[k].evaluations
                   for k in (self._entries if keys is None else keys))


def _assemble(in_pairs, out_pairs, subsets, ledger: ExponentLedger, n: int,
              mode: str) -> BoundReport:
    terms = []
    pair_totals = []
    decode_entries = []
    for t in in_pairs:
        logs_t = []
        for subset in subsets:
            for c in in_pairs:
                if not _matches(c, t, subset):
                    continue
                res = ledger.get("em", subset, t, c)
                lw = -n * res.value
                terms.append(BoundTerm("decode", _pair_key(t), subset, "em",
                                       _pair_key(c), res.value, lw, "sum", True))
                logs_t.append(lw)
            best = ledger.best_ei(subset, t, out_pairs)
            for o in out_pairs:
                if not _matches(o, t, subset):
                    continue
                res = ledger.get("ei", subset, t, o)
                terms.append(BoundTerm("decode", _pair_key(t), subset, "ei",
                                       _pair_key(o), res.value, -n * res.value,
                                       "max", o is best[0]))
            if best is not None:
                logs_t.append(-n * best[1].value)
        total = logsumexp_list(logs_t)
        pair_totals.append(("decode", _pair_key(t), total))
        decode_entries.append((total, _pair_key(t)))

    collision_entries = []
    for o_true in out_pairs:
        logs_o = []
        for subset in subsets:
            for t in in_pairs:
                if not _matches(t, o_true, subset):
                    continue
                # t matches o_true on the subset, so t has at least one
                # matching out pair (o_true itself).
                o_star, res = ledger.best_ei(subset, t, out_pairs)
                lw = -n * res.value
                terms.append(BoundTerm("collision", _pair_key(o_true), subset,
                                       "ei", _pair_key(o_star), res.value, lw,
                                       "max", True))
                logs_o.append(lw)
        if logs_o:
            total = logsumexp_list(logs_o)
            pair_totals.append(("collision", _pair_key(o_true), total))
            collision_entries.append((total, _pair_key(o_true)))

    decode_log = max((e[0] for e in decode_entries), default=NEG_INF)
    collision_log = max((e[0] for e in collision_entries), default=NEG_INF)
    log_bound = max(decode_log, collision_log)
    branch = "decode" if decode_log >= collision_log else "collision"
    raw = math.exp(log_bound) if log_bound > NEG_INF else 0.0
    # Every exponent the report reads is a decode-branch term.
    read = {(t.kind, t.subset, t.true_pair, t.comp_pair)
            for t in terms if t.branch == "decode"}
    return BoundReport(
        n=n, mode=mode, raw_bound=raw, clamped_bound=min(raw, 1.0),
        log_bound=log_bound, branch=branch, decode_log=decode_log,
        collision_log=collision_log, pair_totals=tuple(pair_totals),
        terms=tuple(terms), exponent_evaluations=ledger.evaluations(read),
    )


def _require_feasible(region: OperationRegion, compound: CompoundSet,
                      laws: InputLaws, table: RateTable):
    report = feasibility_check(region, compound, laws, table)
    if not report.passed:
        first = report.violations[0]
        raise InfeasibleRegion(
            f"{len(report.violations)} feasibility violations; first: rate vector "
            f"{first[0].indices}, channel {first[1]!r}, subset {sorted(first[2])}, "
            f"sum rate {first[3]:.6g} > mi {first[4]:.6g}"
        )


def _check_n(n: int):
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"block length must be an integer >= 1, got {n!r}")


def _bound(region: OperationRegion, ledger: ExponentLedger,
           n: int) -> BoundReport:
    """The bound of the ledger's decoder, resolving every user or the users
    in its decoded set D, over every channel or class envelope it maps.

    In pairs are the region's members, out pairs the rest of the pair
    universe over the ledger's ids, and conditioning subsets the proper
    subsets of the decoded users. The mode is the region's (finite or
    class), or subset with a D. check_region vets the region; a finite one
    decoded for every user must pass the feasibility check too.
    """
    ledger.check_region(region)
    table = ledger.table
    d = ledger.users_d
    if ledger.compound is not None and d is None:
        _require_feasible(region, ledger.compound, ledger.laws, table)
    _check_n(n)
    users = range(1, table.num_users + 1) if d is None else sorted(d)
    out_pairs = region.complement(pair_universe(table, tuple(ledger.channels)))
    return _assemble(region.members, out_pairs, proper_subsets(users), ledger,
                     n, region.mode if d is None else "subset")


def pes_bound_finite(region: OperationRegion, ledger: ExponentLedger,
                     n: int) -> BoundReport:
    """Slot error bound for a channel-level operation region at block length
    n, over the ledger's compound set."""
    if region.mode != "finite":
        raise ValidationError("pes_bound_finite expects a channel-level region")
    ledger.require_full("pes_bound_finite")
    return _bound(region, ledger, n)


def pes_bound_classes(region: OperationRegion, ledger: ExponentLedger,
                      n: int) -> BoundReport:
    """Class-level bound over the ledger's class envelopes; the region must
    already be class-mode (run c1_check first on channel-level input), and
    feasibility is the caller's channel-level responsibility."""
    if region.mode != "class":
        raise C1Violation(
            "pes_bound_classes needs a class-mode region; convert channel-level "
            "regions through c1_check first"
        )
    ledger.require_full("pes_bound_classes")
    return _bound(region, ledger, n)


def pes_bound_ddecoder(region: OperationRegion, ledger: ExponentLedger,
                       n: int) -> BoundReport:
    """Bound for a decoder resolving only the users in the ledger's decoded
    set D over its compound set.

    The region is channel-level; its complement is taken inside the pair
    universe over every channel of the compound set. Conditioning subsets
    range over proper subsets of D, and users outside D are averaged into
    each pair's channel under the pair's rates. With D = every user this is
    pes_bound_finite's bound, without its feasibility check.
    """
    if ledger.users_d is None:
        raise ValidationError("pes_bound_ddecoder needs a ledger with a "
                              "decoded set")
    return _bound(region, ledger, n)


def system_exponent(region: OperationRegion,
                    ledger: ExponentLedger) -> SystemExponentResult:
    """Asymptotic slope of the finite bound: the smallest exponent among the
    decode-branch terms, the first in term order on ties.

    The collision branch introduces no additional exponent values: its inner
    maximization runs over the same matched atypicality terms that already
    appear in some decode-branch entry (the out-region realization itself is
    always an admissible competing pair), so the minimum over decode-branch
    terms is the system exponent.
    """
    report = pes_bound_finite(region, ledger, 1)
    decode = [t for t in report.terms if t.branch == "decode"]
    if not decode:
        return SystemExponentResult(float("inf"), None, None, None, None,
                                    report.exponent_evaluations)
    best = min(decode, key=lambda t: t.exponent)
    return SystemExponentResult(best.exponent, best.kind, best.subset,
                                best.true_pair, best.comp_pair,
                                report.exponent_evaluations)


@record
class PartitionBoundResult:
    raw_bound: float
    clamped_bound: float
    log_bound: float
    partition: Partition
    block_reports: tuple  # (decoded set, BoundReport) in first-use order
    search: str
    partitions_considered: int
    exponent_evaluations: int


def pes_bound_single_user(user: int, region: OperationRegion,
                          ledger: ExponentLedger, n: int,
                          search: str = "exhaustive") -> PartitionBoundResult:
    """Best split of the region into per-decoded-set blocks covering `user`.

    Each block is bounded by pes_bound_ddecoder over the whole compound set
    of ledger, so members may name any of its channels. The per-decoded-set
    ledgers are built from ledger's inputs; ledger itself is never filled.
    Exhaustive search enumerates every assignment of members to decoded sets
    containing the user and returns the smallest total. Greedy assigns each
    member independently to the decoded set minimizing its singleton-block
    bound, then scores the resulting merged partition; it is never below the
    exhaustive optimum.
    """
    _check_n(n)
    if search not in ("exhaustive", "greedy"):
        raise ValidationError(f"search must be 'exhaustive' or 'greedy', got {search!r}")
    if region.mode != "finite":
        raise ValidationError("partition search expects a channel-level region")
    ledger.require_full("pes_bound_single_user")
    k = ledger.table.num_users
    ledgers = {}  # decoded set -> its exponent ledger

    def block_bound(users_d, members) -> BoundReport:
        if users_d not in ledgers:
            ledgers[users_d] = ExponentLedger(
                ledger.compound or ledger.envelopes, ledger.laws, ledger.table,
                ledger.cfg, users_d)
        return pes_bound_ddecoder(OperationRegion(members), ledgers[users_d], n)

    def score(partition):
        reports = tuple((users_d, block_bound(users_d, members))
                        for users_d, members in partition.blocks().items())
        return logsumexp_list([r.log_bound for _, r in reports]), reports

    if search == "greedy":
        choices = subsets_containing(user, k)
        assignment = []
        for member in region.members:
            best = None
            for users_d in choices:
                report = block_bound(users_d, (member,))
                if best is None or report.log_bound < best[0]:
                    best = (report.log_bound, users_d)
            assignment.append(best[1])
        best_partition = Partition(region, user, tuple(assignment))
        best_total, best_reports = score(best_partition)
        considered = 1
    else:
        best_total, best_partition, best_reports = None, None, None
        considered = 0
        for partition in enumerate_partitions(region, user, k):
            total, reports = score(partition)
            considered += 1
            if best_total is None or total < best_total:
                best_total, best_partition, best_reports = total, partition, reports
    raw = math.exp(best_total) if best_total > NEG_INF else 0.0
    return PartitionBoundResult(
        raw_bound=raw, clamped_bound=min(raw, 1.0), log_bound=best_total,
        partition=best_partition, block_reports=best_reports, search=search,
        partitions_considered=considered,
        exponent_evaluations=sum(led.evaluations() for led in ledgers.values()),
    )
