import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ramac
from ramac.logdomain import NEG_INF, logsumexp, logsumexp_list, safe_log, scaled_power


def test_safe_log_zero_is_neg_inf():
    out = safe_log(np.array([0.0, 1.0, math.e]))
    assert out[0] == NEG_INF
    assert out[1] == 0.0
    assert abs(out[2] - 1.0) < 1e-15


def test_scaled_power_preserves_zero_mass():
    """0^a must stay zero mass for every exponent, including a <= 0."""
    logp = np.array([NEG_INF, math.log(0.5)])
    for a in (-1.5, -1.0, 0.0, 0.5, 2.0):
        out = scaled_power(logp, a)
        assert out[0] == NEG_INF
        assert math.isfinite(out[1])
    assert abs(scaled_power(logp, 2.0)[1] - 2 * math.log(0.5)) < 1e-15


def test_logsumexp_empty_is_neg_inf():
    assert logsumexp(np.array([])) == NEG_INF
    assert logsumexp_list([]) == NEG_INF
    assert logsumexp(np.full(3, NEG_INF)) == NEG_INF


def test_logsumexp_axis_tuple():
    x = np.log(np.arange(1.0, 9.0).reshape(2, 2, 2))
    full = logsumexp(x, axis=(0, 1, 2))
    assert abs(full - math.log(36.0)) < 1e-12
    partial = logsumexp(x, axis=(0, 2))
    assert partial.shape == (2,)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_logsumexp_matches_direct_sum(vals):
    direct = math.log(sum(math.exp(v) for v in vals))
    assert abs(logsumexp_list(vals) - direct) < 1e-9


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
       st.floats(min_value=-3, max_value=3))
def test_scaled_power_matches_float_pow(probs, a):
    logs = safe_log(np.array(probs))
    out = scaled_power(logs, a)
    for p, o in zip(probs, out):
        assert abs(o - a * math.log(p)) < 1e-9


@st.composite
def _arrays_and_axes(draw):
    """1-4-dimensional arrays (sides 0-4) of large-magnitude floats, with
    repeated values for ties and +-inf, plus an axis: None, an int (possibly
    negative) or a tuple of distinct, possibly negative, axes."""
    elements = st.one_of(
        st.floats(min_value=-1e308, max_value=1e308),
        st.sampled_from([0.0, 1.0, -700.0, 710.0, NEG_INF, math.inf]))
    a = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4,
                                                     min_side=0, max_side=4),
                        elements=elements))
    if draw(st.booleans()):
        a = a.T  # a non-contiguous layout changes numpy's summation order
    kind = draw(st.sampled_from(["none", "int", "tuple"]))
    if kind == "none":
        return a, None
    if kind == "int":
        return a, draw(st.integers(min_value=-a.ndim, max_value=a.ndim - 1))
    axes = draw(st.lists(st.integers(min_value=0, max_value=a.ndim - 1),
                         min_size=1, max_size=a.ndim, unique=True))
    return a, tuple(ax - a.ndim if draw(st.booleans()) else ax for ax in axes)


@given(_arrays_and_axes())
@example((np.array([[1.0, 1.0, 0.5], [2.0, -3.0, 2.0]]), 1))  # tied maxima
@example((np.array([[1.0, 1.0], [1.0, 1.0]]), None))
@example((np.array([[NEG_INF, NEG_INF], [0.0, NEG_INF]]), 1))  # all--inf slice
@example((np.array([math.inf, NEG_INF, 3.0]), None))  # +inf entry
@example((np.array([[math.inf, 0.0], [math.inf, NEG_INF]]), (0, -1)))
@example((np.array([]), None))  # empty input
@example((np.zeros((2, 0, 3)), (-2,)))
@example((np.array([1e308, 1e308, -1e308]), 0))
def test_logsumexp_bit_identical_to_scipy(case):
    """The numpy port returns scipy's bits: values, shapes, ties, +-inf.

    Empty input is held to the -inf convention instead, because scipy 1.17
    raises on an empty array reduced over two or more axes."""
    scipy_lse = pytest.importorskip("scipy.special").logsumexp
    a, axis = case
    if a.size == 0:
        want = np.full(np.sum(a, axis=axis).shape, NEG_INF)
    else:
        with np.errstate(all="ignore"):
            want = np.asarray(scipy_lse(a, axis=axis))
    got = np.asarray(logsumexp(a, axis=axis))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_package_imports_without_scipy():
    """Importing the package and its CLI loads no scipy module: scipy costs a
    quarter of a second per process and the package does not need it."""
    src = str(Path(ramac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, ramac, ramac.cli, ramac.config; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
