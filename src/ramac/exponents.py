"""Random-coding error exponents for partial-decode and crossing events.

Two kinds of exponent govern the slot error bounds:

* em: the event that a competing in-operation codeword tuple, agreeing with the
  transmitted one exactly on a user subset S, beats it at the decoder;
* ei: the event that the received word looks typical for an out-of-operation
  rate/channel pair agreeing on S.

Each is a max over (rho, s) of a rate-penalty term minus a log-moment term; the
moment is a law-weighted sum over input tuples and outputs, evaluated entirely
in the log domain. em_exponent and ei_exponent take a query of either
variant, and the query's channels decide which: Dmc pairs give the finite
exponent, ChannelClassEnvelope pairs the class one. The split lives in
_channel_logs and _true_factor alone, which the objective and sim's tables
share: a channel is fed as its own upper and lower envelope, true-tuple
factors pair the upper envelope with a negative power of the lower one,
competing factors use the upper envelope alone. A singleton class
(pmax = pmin) makes every class formula collapse to its finite counterpart,
which the tests assert to 1e-12.

Optimization is a deterministic grid search with shrinking refinement: the
incumbent is only ever replaced by a strictly better value, so the returned
value is exactly the objective at the returned (rho_star, s_star). Each
refinement round's probes, in (rho ascending, s ascending) order, are two
flat rho and s arrays built by array operations, and one broadcast over
(probes, input tuples, outputs) evaluates each chunk of them. The variants
(finite or class, em or ei) differ only in the factor tensors they build. A
chunk's first argmax replaces the incumbent only if strictly better, so probe
order, tie rule and evaluation count are those of probing point by point.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ._record import record
from .channels import (
    ChannelClassEnvelope,
    Dmc,
    InputLaws,
    RateTable,
    RateVectorIndex,
    effective_channel,  # only the perfbench tracer reads it, until ROADMAP item 0
)
from .errors import ValidationError
from .logdomain import NEG_INF, logsumexp, safe_log

ChannelLike = Union[Dmc, ChannelClassEnvelope]

REFINEMENT_SHRINK = 0.2  # each refinement box over the previous one
EPSILON = 1e-6  # the smallest rho and s probed, and ei's gap below rho = 1
OBJECTIVE_TOLERANCE = 1e-8  # a round gaining at most this, relatively, ends
GRID_POINTS = 2 ** 20  # most (rho, s) grid points of one optimisation's rounds


@record
class OptimizerConfig:
    rho_grid_size: int = 64
    s_grid_size: int = 64
    refinement_rounds: int = 3

    def __post_init__(self):
        if self.rho_grid_size < 2 or self.s_grid_size < 2:
            raise ValidationError("grid sizes must be >= 2")
        if self.refinement_rounds < 0:
            raise ValidationError("refinement_rounds must be >= 0")
        points = self.rho_grid_size * self.s_grid_size * (self.refinement_rounds + 1)
        if points > GRID_POINTS:
            raise ValidationError(
                f"rho_grid * s_grid * (refinement_rounds + 1) = {points} "
                f"exceeds {GRID_POINTS} probes an optimisation")


@record
class ThresholdParams:
    """Tilt parameters of the decoder's typicality thresholds.

    Given neither tilt, rho_tilde is read off the crossing-exponent argmax
    against the selected competing pair and s2 = rho_tilde / 2; given both,
    they set the thresholds by hand. s1 is always 1 - s2 / rho_tilde.
    """

    rho_tilde: Optional[float] = None
    s2: Optional[float] = None

    def __post_init__(self):
        if self.rho_tilde is None and self.s2 is None:
            return
        if self.rho_tilde is None or self.s2 is None:
            raise ValidationError("manual thresholds need rho_tilde and s2")
        if not 0 < self.rho_tilde <= 1:
            raise ValidationError("rho_tilde must lie in (0, 1]")
        if not 0 < self.s2 < self.rho_tilde:
            raise ValidationError("s2 must lie in (0, rho_tilde)")


@record
class ExponentResult:
    value: float
    rho_star: float
    s_star: float
    evaluations: int
    variant: str  # finite | class
    kind: str  # em | ei


@record
class ExponentQuery:
    """One (subset, true pair, competing pair) exponent instance.

    The competing rate vector must agree with the true one on S; both vectors
    index the same rate table. Channels may be Dmc or ChannelClassEnvelope,
    but one query never mixes the two.
    """

    subset: frozenset
    true_rates: RateVectorIndex
    true_channel: ChannelLike
    comp_rates: RateVectorIndex
    comp_channel: ChannelLike
    laws: InputLaws
    rate_table: RateTable

    def __post_init__(self):
        k = self.true_channel.num_users
        if self.comp_channel.num_users != k:
            raise ValidationError("true and competing channels differ in user count")
        if self.true_channel.input_size != self.comp_channel.input_size or \
                self.true_channel.output_size != self.comp_channel.output_size:
            raise ValidationError("true and competing channels differ in alphabet size")
        if self.rate_table.num_users != k:
            raise ValidationError("rate table user count differs from channel")
        self.true_rates.check_against(self.rate_table)
        self.comp_rates.check_against(self.rate_table)
        for u in self.subset:
            if not 1 <= u <= k:
                raise ValidationError(f"subset user {u} outside 1..{k}")
        if len(self.subset) >= k:
            raise ValidationError("subset must be a proper subset of the users")
        if not self.comp_rates.agrees_on(self.true_rates, self.subset):
            raise ValidationError(
                "competing rate vector must match the true one on the subset"
            )
        if isinstance(self.true_channel, Dmc) != isinstance(self.comp_channel, Dmc):
            raise ValidationError("cannot mix a channel with a class envelope in one query")

    @property
    def num_users(self) -> int:
        return self.true_channel.num_users


def law_block(laws: InputLaws, users, rates: RateVectorIndex, k: int,
              a: int) -> np.ndarray:
    """Sum of the users' log input laws at their rate indices, in user order,
    on the full input product: shape (a,)*k + (1,), constant along the axes
    of the other users."""
    w = np.zeros((a,) * k + (1,))
    for u in users:
        vec = safe_log(laws.law(u, rates.index(u)))
        if vec.shape != (a,):
            raise ValidationError(
                f"law for user {u} has length {vec.shape[0]}, expected {a}"
            )
        shape = [1] * (k + 1)
        shape[u - 1] = a
        w = w + vec.reshape(shape)
    return w


class _QueryTensors:
    """Per-query constants shared by every objective evaluation."""

    def __init__(self, q: ExponentQuery):
        k = q.num_users
        a = q.true_channel.input_size
        self.sbar_axes = tuple(u - 1 for u in range(1, k + 1) if u not in q.subset)
        self.s_users = sorted(q.subset)
        sbar_users = [u for u in range(1, k + 1) if u not in q.subset]
        self.w_true = law_block(q.laws, sbar_users, q.true_rates, k, a)
        self.w_comp = law_block(q.laws, sbar_users, q.comp_rates, k, a)
        # Subset-user laws on the reduced shape left over after the sbar axes
        # are summed out (subset axes in increasing user order, then output).
        self.w_subset = law_block(q.laws, self.s_users, q.true_rates, k, a)[
            tuple(0 if ax in self.sbar_axes else slice(None) for ax in range(k))]
        self.rate_sum_true = sum(
            q.rate_table.rate(u, q.true_rates.index(u)) for u in sbar_users
        )
        self.rate_sum_comp = sum(
            q.rate_table.rate(u, q.comp_rates.index(u)) for u in sbar_users
        )

    def reduce(self, tensor: np.ndarray) -> np.ndarray:
        """Sum the sbar axes out of a batch of tensors (batch axis first);
        ExponentQuery admits only proper subsets, so there is at least one."""
        return logsumexp(tensor, axis=tuple(ax + 1 for ax in self.sbar_axes))

    def collect(self, log_true_factor: np.ndarray, outer_true,
                log_comp_factor: np.ndarray, outer_comp) -> np.ndarray:
        """log of sum over (x_S, y) of subset laws times the two reduced factors.

        Factors carry a leading probe axis (length G, or 1 when shared by every
        probe); outer powers are scalars or length-G vectors. Returns the G
        log-moments.
        """
        t1 = self.reduce(self.w_true + log_true_factor)
        t2 = self.reduce(self.w_comp + log_comp_factor)
        column = (-1,) + (1,) * (t1.ndim - 1)
        with np.errstate(invalid="ignore"):
            inner = (self.w_subset + np.reshape(outer_true, column) * t1
                     + np.reshape(outer_comp, column) * t2)
        # 0 * -inf from a vanished factor with a zero outer power cannot occur:
        # outer powers are strictly positive for every admissible (rho, s).
        return logsumexp(inner, axis=tuple(range(1, inner.ndim)))


def _batched_power(logp: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """log(p^e) from log(p) for each e in exponents, stacked on a new axis 0.

    Entries with logp = -inf stay -inf for every exponent, 0 and negative ones
    included, where IEEE arithmetic would give nan or +inf: the factors arise
    as limits of p * p^(-s), so a p = 0 entry contributes nothing.
    """
    e = np.reshape(exponents, (-1,) + (1,) * logp.ndim)
    with np.errstate(invalid="ignore"):
        out = e * logp
    return np.where(np.isneginf(logp), NEG_INF, out)


def _channel_logs(channel: ChannelLike) -> tuple:
    """(log upper, log lower) tables: an envelope's pmax and pmin, a
    channel's own log p twice (one array)."""
    if isinstance(channel, Dmc):
        log_p = safe_log(channel.probs)
        return log_p, log_p
    return safe_log(channel.pmax), safe_log(channel.pmin)


def _true_factor(channel: ChannelLike, logs: tuple, power,
                 neg_power) -> np.ndarray:
    """power * log p for a channel, log pmax - neg_power * log pmin for an
    envelope (-inf where pmax vanishes), per power, stacked on axis 0; logs
    is _channel_logs(channel). Both powers are passed, as each variant
    computes its own, since deriving one from the other would move bits."""
    log_upper, log_lower = logs
    if isinstance(channel, Dmc):
        return _batched_power(log_upper, power)
    e = np.reshape(neg_power, (-1,) + (1,) * log_upper.ndim)
    with np.errstate(invalid="ignore"):
        out = log_upper - e * log_lower
    return np.where(np.isneginf(log_upper), NEG_INF, out)


Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _objective(q: ExponentQuery, t: _QueryTensors, kind: str) -> Objective:
    """The em or ei objective -rho * R - log phi at flat (rho, s) probes; R
    sums the competing (em) or true (ei) rates of the users outside S."""
    true_logs = _channel_logs(q.true_channel)
    log_pc = _channel_logs(q.comp_channel)[0]
    em = kind == "em"
    rate_sum = t.rate_sum_comp if em else t.rate_sum_true

    def objective(rho: np.ndarray, s: np.ndarray) -> np.ndarray:
        if em:
            f_true = _true_factor(q.true_channel, true_logs, 1.0 - s, s)
            log_phi = t.collect(f_true, 1.0, _batched_power(log_pc, s / rho), rho)
        else:
            total = s + rho
            f_true = _true_factor(q.true_channel, true_logs, s / total, rho / total)
            log_phi = t.collect(f_true, total, log_pc[None], 1.0 - s)
        return -rho * rate_sum - log_phi

    return objective


# Cap on probes x tensor entries evaluated in one chunk (at least one probe).
_BATCH_ELEMENTS = 1 << 18


def _probes(rho: np.ndarray, s_window: tuple, s_grid: int, s_hi_of_rho,
            gallager_points: bool):
    """One round's flat (rho, s) probes, in (rho ascending, s ascending) order.

    Each rho row with an s limit >= EPSILON probes s_grid points over the
    window clipped to [EPSILON, limit], by np.linspace's scalar arithmetic
    (array endpoints would switch every row to (i / div) * delta once one
    row's step is zero). With gallager_points, a row also probes
    rho / (1 + rho) if it lies in [EPSILON, limit], and drops its duplicates.
    """
    s_hi = s_hi_of_rho(rho)
    rows = s_hi >= EPSILON
    rho, s_hi = rho[rows], s_hi[rows]
    s_lo = np.minimum(np.maximum(s_window[0], EPSILON), s_hi)
    s_top = np.maximum(np.minimum(s_window[1], s_hi), s_lo)
    step = (s_top - s_lo) / (s_grid - 1)
    s = np.empty((rho.size, s_grid + 1))
    s[:, :-1] = np.arange(s_grid) * step[:, None] + s_lo[:, None]
    s[:, -2] = s_top
    sg = rho / (1.0 + rho)
    extra = (EPSILON <= sg) & (sg <= s_hi) & gallager_points
    s[:, -1] = np.where(extra, sg, np.inf)
    s[extra] = np.sort(s[extra], axis=1)
    keep = np.isfinite(s)
    keep[extra, 1:] = s[extra, 1:] != s[extra, :-1]
    return np.broadcast_to(rho[:, None], s.shape)[keep], s[keep]


def _maximize_2d(objective: Objective, cfg: OptimizerConfig, probe_size: int,
                 rho_hi: float, s_hi_of_rho, gallager_points: bool):
    """Deterministic grid max with shrinking refinement boxes.

    Probes in (rho ascending, s ascending) order; only a strictly larger value
    replaces the incumbent, so ties resolve to the first point probed. Each
    refinement round's probes are built as two flat arrays (_probes) and
    evaluated in chunks of at most _BATCH_ELEMENTS // probe_size probes: the
    first argmax of a chunk replaces the incumbent only if strictly larger,
    which is the same decision as probing point by point, wherever the chunks
    split. The returned value is the objective at the returned (rho, s).
    """
    best_v, best_rho, best_s = NEG_INF, EPSILON, EPSILON
    evals = 0
    s_width0 = float(np.max(s_hi_of_rho(np.array([EPSILON, rho_hi])))) - EPSILON
    chunk = max(1, _BATCH_ELEMENTS // probe_size)
    rho_lo, rho_top, s_window = EPSILON, rho_hi, (-np.inf, np.inf)

    for rnd in range(cfg.refinement_rounds + 1):
        if rnd > 0:
            shrink = REFINEMENT_SHRINK ** rnd
            rw = (rho_hi - EPSILON) * shrink
            rho_lo = min(max(best_rho - rw / 2, EPSILON), rho_hi)
            rho_top = max(min(best_rho + rw / 2, rho_hi), EPSILON)
            sw = s_width0 * shrink
            s_window = (best_s - sw / 2, best_s + sw / 2)
        rho, s = _probes(np.linspace(rho_lo, rho_top, cfg.rho_grid_size),
                         s_window, cfg.s_grid_size, s_hi_of_rho, gallager_points)
        prev_best = best_v
        for lo in range(0, rho.size, chunk):
            v = objective(rho[lo:lo + chunk], s[lo:lo + chunk])
            evals += v.size
            i = int(np.argmax(v))
            if v[i] > best_v:
                best_v, best_rho, best_s = float(v[i]), float(rho[lo + i]), float(s[lo + i])
        if rnd > 0 and best_v - prev_best <= OBJECTIVE_TOLERANCE * max(1.0, abs(prev_best)):
            break
    return best_v, best_rho, best_s, evals


# Per kind: rho's upper limit, s's upper limit at each rho of an array, and
# whether each rho row also probes Gallager's s = rho / (1 + rho).
_LIMITS = {
    "em": (1.0, np.ones_like, True),
    "ei": (1.0 - EPSILON, lambda rho: 1.0 - rho, False),
}


def _optimize(query: ExponentQuery, kind: str,
              cfg: OptimizerConfig) -> ExponentResult:
    probe_size = query.true_channel.input_size ** query.num_users * \
        query.true_channel.output_size
    v, rho, s, evals = _maximize_2d(_objective(query, _QueryTensors(query), kind),
                                    cfg, probe_size, *_LIMITS[kind])
    variant = "finite" if isinstance(query.true_channel, Dmc) else "class"
    return ExponentResult(v, rho, s, evals, variant, kind)


def em_exponent(query: ExponentQuery, cfg: OptimizerConfig = OptimizerConfig()) -> ExponentResult:
    """Exponent of the in-operation confusion event, for a channel pair or a
    class-envelope pair."""
    return _optimize(query, "em", cfg)


def ei_exponent(query: ExponentQuery, cfg: OptimizerConfig = OptimizerConfig()) -> ExponentResult:
    """Exponent of the out-of-operation typicality event, for a channel pair
    or a class-envelope pair."""
    return _optimize(query, "ei", cfg)
