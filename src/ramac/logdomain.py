"""Log-domain arithmetic helpers.

All probability accumulation in this package happens in the log domain; these
wrappers centralize the conventions:

* ``log(0) = -inf`` without warnings,
* ``0^a = 0`` for a >= 0, including a = 0 where a masked entry must stay
  impossible (the factors we exponentiate arise as p * p^(-s) limits, so the
  p = 0 entry contributes nothing for every admissible exponent),
* sums of exponentials by the max-shift logsumexp, which returns -inf on
  empty or all-masked input.

``logsumexp`` is plain numpy: it ports ``scipy.special.logsumexp`` (scipy
1.17, real input, no weights) step for step, with the same reductions over
the same axes, so its results are bit-identical to scipy's. Importing scipy
would cost more than most runs of the package spend computing.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def safe_log(p: np.ndarray) -> np.ndarray:
    """Elementwise log with log(0) = -inf and no RuntimeWarning."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, NEG_INF)
    np.log(p, out=out, where=p > 0)
    return out


def scaled_power(logp: np.ndarray, exponent: float) -> np.ndarray:
    """log(p^exponent) from log(p), with the 0^a = 0 convention.

    Entries with logp = -inf stay -inf for every exponent (including 0 and
    negative values, where IEEE arithmetic would produce nan or +inf).
    """
    logp = np.asarray(logp, dtype=float)
    mask = np.isneginf(logp)
    with np.errstate(invalid="ignore"):
        out = exponent * logp
    out[mask] = NEG_INF
    return out


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over `axis` (int, tuple or None for all axes).

    Empty and all--inf inputs give -inf. The maximum of each slice is taken
    out of the sum, with ties counted: log1p(s / m) + log(m) + max, where m
    entries equal the maximum and s sums exp(a - max) over the rest. Slices
    where that is not finite (all -inf, +inf entries, nan) fall back to
    log(sum(exp(a))), as in scipy.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        if axis is None:
            return NEG_INF
        shape = list(a.shape)
        if isinstance(axis, tuple):
            for ax in sorted((x % a.ndim for x in axis), reverse=True):
                del shape[ax]
        else:
            del shape[axis % a.ndim]
        return np.full(shape, NEG_INF)
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        tied = a == a_max
        # tie counts are exact in float64, so summing the mask equals
        # scipy's sum of the mask cast to float
        m = tied.sum(axis=axis, keepdims=True, dtype=float)
        rest = np.where(tied, NEG_INF, a)
        rest -= a_max
        np.exp(rest, out=rest)
        # scipy divides only where s != 0; s == 0 implies m >= 1 (m is 0
        # only under a nan maximum, which makes s nan), so 0 / m is 0 anyway
        s = rest.sum(axis=axis, keepdims=True) / m
        out = np.log1p(s)
        out += np.log(m)
        out += a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def logsumexp_list(values) -> float:
    """logsumexp of a python iterable of floats; empty -> -inf."""
    vals = [v for v in values]
    if not vals:
        return NEG_INF
    return float(logsumexp(np.asarray(vals, dtype=float)))
