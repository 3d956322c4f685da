"""Random-coding error exponents for partial-decode and crossing events.

Two kinds of exponent govern the slot error bounds:

* em: the event that a competing in-operation codeword tuple, agreeing with the
  transmitted one exactly on a user subset S, beats it at the decoder;
* ei: the event that the received word looks typical for an out-of-operation
  rate/channel pair agreeing on S.

Each is a max over (rho, s) of a rate-penalty term minus a log-moment term; the
moment is a law-weighted sum over input tuples and outputs, evaluated entirely
in the log domain. Class variants replace channel probabilities by the class
envelopes: true-tuple factors pair the upper envelope with a negative power of
the lower one, competing factors use the upper envelope alone. A singleton
class (pmax = pmin) makes every class formula collapse to its finite
counterpart, which the tests assert to 1e-12.

Optimization is a deterministic grid search with shrinking refinement: the
incumbent is only ever replaced by a strictly better value, so the returned
value is exactly the objective at the returned (rho_star, s_star). Each
refinement round is evaluated as one batch: its probes, in (rho ascending,
s ascending) order, are flat rho and s arrays, and one broadcast over
(probes, input tuples, outputs) evaluates them all. The variants (finite or
class, em or ei) differ only in the factor tensors they build. The batch's
first argmax replaces the incumbent only if strictly better, so probe order,
tie rule and evaluation count are those of probing point by point.
"""

from __future__ import annotations

from typing import Callable, Union

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
from .errors import ConstraintViolation, DimensionMismatch, ValidationError
from .logdomain import NEG_INF, logsumexp, safe_log

ChannelLike = Union[Dmc, ChannelClassEnvelope]


@record
class OptimizerConfig:
    rho_grid_size: int = 64
    s_grid_size: int = 64
    refinement_rounds: int = 3
    refinement_shrink: float = 0.2
    epsilon: float = 1e-6
    objective_tolerance: float = 1e-8
    include_gallager_point: bool = True

    def __post_init__(self):
        if self.rho_grid_size < 2 or self.s_grid_size < 2:
            raise ValidationError("grid sizes must be >= 2")
        if not 0 < self.refinement_shrink < 1:
            raise ValidationError("refinement_shrink must be in (0, 1)")
        if not 0 < self.epsilon < 0.5:
            raise ValidationError("epsilon must be in (0, 0.5)")
        if self.refinement_rounds < 0:
            raise ValidationError("refinement_rounds must be >= 0")


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
            raise DimensionMismatch("true and competing channels differ in user count")
        if self.true_channel.input_size != self.comp_channel.input_size or \
                self.true_channel.output_size != self.comp_channel.output_size:
            raise DimensionMismatch("true and competing channels differ in alphabet size")
        if self.rate_table.num_users != k:
            raise DimensionMismatch("rate table user count differs from channel")
        self.true_rates.check_against(self.rate_table)
        self.comp_rates.check_against(self.rate_table)
        for u in self.subset:
            if not 1 <= u <= k:
                raise ValidationError(f"subset user {u} outside 1..{k}")
        if len(self.subset) >= k:
            raise ValidationError("subset must be a proper subset of the users")
        if not self.comp_rates.agrees_on(self.true_rates, self.subset):
            raise ConstraintViolation(
                "competing rate vector must match the true one on the subset"
            )
        if isinstance(self.true_channel, Dmc) != isinstance(self.comp_channel, Dmc):
            raise ValidationError("cannot mix a channel with a class envelope in one query")

    @property
    def num_users(self) -> int:
        return self.true_channel.num_users


class _QueryTensors:
    """Per-query constants shared by every objective evaluation."""

    def __init__(self, q: ExponentQuery):
        k = q.num_users
        a = q.true_channel.input_size
        self.sbar_axes = tuple(u - 1 for u in range(1, k + 1) if u not in q.subset)
        self.s_users = sorted(q.subset)
        full = (a,) * k + (1,)

        def law_block(users, rates: RateVectorIndex):
            w = np.zeros(full)
            for u in users:
                vec = safe_log(q.laws.law(u, rates.index(u)))
                if vec.shape != (a,):
                    raise DimensionMismatch(
                        f"law for user {u} has length {vec.shape[0]}, expected {a}"
                    )
                shape = [1] * (k + 1)
                shape[u - 1] = a
                w = w + vec.reshape(shape)
            return w

        sbar_users = [u for u in range(1, k + 1) if u not in q.subset]
        self.w_true = law_block(sbar_users, q.true_rates)
        self.w_comp = law_block(sbar_users, q.comp_rates)
        # Subset-user laws on the reduced shape left over after the sbar axes
        # are summed out (subset axes in increasing user order, then output).
        reduced = (a,) * len(self.s_users) + (1,)
        ws = np.zeros(reduced)
        for pos, u in enumerate(self.s_users):
            vec = safe_log(q.laws.law(u, q.true_rates.index(u)))
            shape = [1] * len(reduced)
            shape[pos] = a
            ws = ws + vec.reshape(shape)
        self.w_subset = ws
        self.rate_sum_true = sum(
            q.rate_table.rate(u, q.true_rates.index(u)) for u in sbar_users
        )
        self.rate_sum_comp = sum(
            q.rate_table.rate(u, q.comp_rates.index(u)) for u in sbar_users
        )

    def reduce(self, tensor: np.ndarray) -> np.ndarray:
        """Sum the sbar axes out of a batch of tensors (batch axis first)."""
        if not self.sbar_axes:
            return tensor
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
    """scaled_power(logp, e) for each e in exponents, stacked on a new axis 0."""
    e = np.reshape(exponents, (-1,) + (1,) * logp.ndim)
    with np.errstate(invalid="ignore"):
        out = e * logp
    return np.where(np.isneginf(logp), NEG_INF, out)


def _envelope_true_factor(log_pmax: np.ndarray, log_pmin: np.ndarray,
                          neg_powers: np.ndarray) -> np.ndarray:
    """log of pmax * pmin^(-neg_power) for each neg_power, stacked on axis 0;
    -inf wherever pmax vanishes."""
    e = np.reshape(neg_powers, (-1,) + (1,) * log_pmax.ndim)
    with np.errstate(invalid="ignore"):
        out = log_pmax - e * log_pmin
    return np.where(np.isneginf(log_pmax), NEG_INF, out)


Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _em_objective(q: ExponentQuery, t: _QueryTensors) -> Objective:
    if isinstance(q.true_channel, Dmc):
        log_p = safe_log(q.true_channel.probs)
        log_pc = safe_log(q.comp_channel.probs)

        def true_factor(rho, s):
            return _batched_power(log_p, 1.0 - s)

    else:
        log_pmax = safe_log(q.true_channel.pmax)
        log_pmin = safe_log(q.true_channel.pmin)
        log_pc = safe_log(q.comp_channel.pmax)

        def true_factor(rho, s):
            return _envelope_true_factor(log_pmax, log_pmin, s)

    def objective(rho: np.ndarray, s: np.ndarray) -> np.ndarray:
        f_comp = _batched_power(log_pc, s / rho)
        log_phi = t.collect(true_factor(rho, s), 1.0, f_comp, rho)
        return -rho * t.rate_sum_comp - log_phi

    return objective


def _ei_objective(q: ExponentQuery, t: _QueryTensors) -> Objective:
    if isinstance(q.true_channel, Dmc):
        log_p = safe_log(q.true_channel.probs)
        f_comp = safe_log(q.comp_channel.probs)[None]

        def true_factor(rho, s):
            return _batched_power(log_p, s / (s + rho))

    else:
        log_pmax = safe_log(q.true_channel.pmax)
        log_pmin = safe_log(q.true_channel.pmin)
        f_comp = safe_log(q.comp_channel.pmax)[None]

        def true_factor(rho, s):
            return _envelope_true_factor(log_pmax, log_pmin, rho / (s + rho))

    def objective(rho: np.ndarray, s: np.ndarray) -> np.ndarray:
        log_phi = t.collect(true_factor(rho, s), s + rho, f_comp, 1.0 - s)
        return -rho * t.rate_sum_true - log_phi

    return objective


# Cap on probes x tensor entries evaluated in one batch; whole rho rows are
# kept together, so a single row may exceed it.
_BATCH_ELEMENTS = 1 << 18


def _batches(rows, probe_size: int):
    """Group consecutive (rho, s_values) rows into flat (rho, s) probe arrays."""
    batch, size = [], 0
    for rho, s_vals in rows:
        n = len(s_vals) * probe_size
        if batch and size + n > _BATCH_ELEMENTS:
            yield _flatten(batch)
            batch, size = [], 0
        batch.append((rho, s_vals))
        size += n
    if batch:
        yield _flatten(batch)


def _flatten(rows):
    rho = np.concatenate([np.full(len(s_vals), rho) for rho, s_vals in rows])
    s = np.concatenate([np.asarray(s_vals, dtype=float) for _, s_vals in rows])
    return rho, s


def _maximize_2d(objective: Objective, cfg: OptimizerConfig, *, probe_size: int,
                 rho_hi: float, s_hi_of_rho, gallager_points: bool):
    """Deterministic grid max with shrinking refinement boxes.

    Probes in (rho ascending, s ascending) order; only a strictly larger value
    replaces the incumbent, so ties resolve to the first point probed. Each
    refinement round is evaluated as one batch (split into chunks of whole rho
    rows when large): the first argmax of the batch replaces the incumbent only
    if strictly larger, which is the same decision as probing point by point.
    The returned value is the objective at the returned (rho, s).
    """
    eps = cfg.epsilon
    best_v, best_rho, best_s = NEG_INF, eps, eps
    evals = 0
    rho_lo0 = eps
    s_width0 = max(s_hi_of_rho(rho) for rho in (rho_lo0, rho_hi)) - eps

    for rnd in range(cfg.refinement_rounds + 1):
        if rnd == 0:
            rho_vals = np.linspace(rho_lo0, rho_hi, cfg.rho_grid_size)
            s_window = None
        else:
            shrink = cfg.refinement_shrink ** rnd
            rw = (rho_hi - rho_lo0) * shrink
            lo = min(max(best_rho - rw / 2, rho_lo0), rho_hi)
            hi = max(min(best_rho + rw / 2, rho_hi), rho_lo0)
            rho_vals = np.linspace(lo, hi, cfg.rho_grid_size)
            sw = s_width0 * shrink
            s_window = (best_s - sw / 2, best_s + sw / 2)
        rows = []
        for rho in rho_vals:
            rho = float(rho)
            s_hi = s_hi_of_rho(rho)
            if s_hi < eps:
                continue
            if s_window is None:
                s_lo, s_top = eps, s_hi
            else:
                s_lo = min(max(s_window[0], eps), s_hi)
                s_top = max(min(s_window[1], s_hi), s_lo)
            s_vals = list(np.linspace(s_lo, s_top, cfg.s_grid_size))
            if gallager_points and cfg.include_gallager_point:
                sg = rho / (1.0 + rho)
                if eps <= sg <= s_hi:
                    s_vals = sorted(set(s_vals) | {sg})
            rows.append((rho, s_vals))
        prev_best = best_v
        for rho_b, s_b in _batches(rows, probe_size):
            v = objective(rho_b, s_b)
            evals += v.size
            i = int(np.argmax(v))
            if v[i] > best_v:
                best_v, best_rho, best_s = float(v[i]), float(rho_b[i]), float(s_b[i])
        if rnd > 0 and best_v - prev_best <= cfg.objective_tolerance * max(1.0, abs(prev_best)):
            break
    return best_v, best_rho, best_s, evals


def _optimize(query: ExponentQuery, kind: str, variant: str,
              cfg: OptimizerConfig) -> ExponentResult:
    t = _QueryTensors(query)
    probe_size = query.true_channel.input_size ** query.num_users * \
        query.true_channel.output_size
    if kind == "em":
        v, rho, s, evals = _maximize_2d(
            _em_objective(query, t), cfg, probe_size=probe_size, rho_hi=1.0,
            s_hi_of_rho=lambda _: 1.0, gallager_points=True,
        )
    else:
        v, rho, s, evals = _maximize_2d(
            _ei_objective(query, t), cfg, probe_size=probe_size,
            rho_hi=1.0 - cfg.epsilon, s_hi_of_rho=lambda rho: 1.0 - rho,
            gallager_points=False,
        )
    return ExponentResult(v, rho, s, evals, variant, kind)


def em_exponent(query: ExponentQuery, cfg: OptimizerConfig = OptimizerConfig()) -> ExponentResult:
    """Exponent of the in-operation confusion event, finite channel pair."""
    if not isinstance(query.true_channel, Dmc):
        raise ValidationError("em_exponent takes channel pairs; use em_class_exponent")
    return _optimize(query, "em", "finite", cfg)


def ei_exponent(query: ExponentQuery, cfg: OptimizerConfig = OptimizerConfig()) -> ExponentResult:
    """Exponent of the out-of-operation typicality event, finite channel pair."""
    if not isinstance(query.true_channel, Dmc):
        raise ValidationError("ei_exponent takes channel pairs; use ei_class_exponent")
    return _optimize(query, "ei", "finite", cfg)


def em_class_exponent(query: ExponentQuery, cfg: OptimizerConfig = OptimizerConfig()) -> ExponentResult:
    if not isinstance(query.true_channel, ChannelClassEnvelope):
        raise ValidationError("em_class_exponent takes class envelopes")
    return _optimize(query, "em", "class", cfg)


def ei_class_exponent(query: ExponentQuery, cfg: OptimizerConfig = OptimizerConfig()) -> ExponentResult:
    if not isinstance(query.true_channel, ChannelClassEnvelope):
        raise ValidationError("ei_class_exponent takes class envelopes")
    return _optimize(query, "ei", "class", cfg)

