"""Conditional mutual information for feasibility checks.

conditional_mi computes I(X_Sc; Y | X_S) in nats for a channel driven by
independent per-user input laws, where S is the conditioning user set and Sc
its complement, as a direct joint expectation. The test suite holds it to
1e-10 of two loop-based oracles in tests/oracles.py: direct summation and the
chain rule H(Y | X_S) - H(Y | X).
"""

from __future__ import annotations


import numpy as np

from ._record import record
from .channels import Dmc, InputLaws, RateVectorIndex
from .errors import ValidationError
from .logdomain import safe_log


@record
class MiQuery:
    channel: Dmc
    laws: InputLaws
    rate_vector: RateVectorIndex
    subset: frozenset

    def __post_init__(self):
        if len(self.rate_vector.indices) != self.channel.num_users:
            raise ValidationError("rate vector length differs from channel user count")
        for u in self.subset:
            if not 1 <= u <= self.channel.num_users:
                raise ValidationError(f"subset user {u} outside 1..{self.channel.num_users}")


def _joint(q: MiQuery) -> np.ndarray:
    """Joint law over (x_1 .. x_K, y) under independent inputs."""
    ch = q.channel
    joint = np.array(ch.probs)
    for u in range(1, ch.num_users + 1):
        vec = q.laws.law(u, q.rate_vector.index(u))
        shape = [1] * joint.ndim
        shape[u - 1] = ch.input_size
        joint = joint * vec.reshape(shape)
    return joint


def conditional_mi(q: MiQuery) -> float:
    """I(X_Sc; Y | X_S) by direct joint evaluation.

    Sum over (x, y) of p(x, y) * [log p(y | x) - log p(y | x_S)], with the
    0 log 0 terms dropped. Nonnegative up to float rounding; clamped at 0.
    """
    ch = q.channel
    sc_axes = tuple(u - 1 for u in range(1, ch.num_users + 1) if u not in q.subset)
    if not sc_axes:  # conditioning on everything leaves nothing to learn
        return 0.0
    joint = _joint(q)
    # p(x_S, y): marginalize the complement users out of the joint.
    cond_marg = joint.sum(axis=sc_axes, keepdims=True)
    denom = cond_marg.sum(axis=-1, keepdims=True)  # p(x_S)
    with np.errstate(invalid="ignore"):
        log_cond = safe_log(cond_marg) - safe_log(denom)  # log p(y | x_S)
        log_full = safe_log(ch.probs)  # log p(y | x)
        terms = np.where(joint > 0, joint * (log_full - log_cond), 0.0)
    return max(0.0, float(terms.sum()))
