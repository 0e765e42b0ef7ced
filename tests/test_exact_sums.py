"""The two-way residual's sums against exact rational arithmetic.

Every slope and denominator here is a sum over period differences of the
two-way residuals of ``y`` and ``x``.  ``oracles.exact_two_way`` and
``oracles.exact_pair_sums`` form those sums in ``fractions``, so the only
error on the reference side is the final rounding.  The library's values
must agree to 1e-14 relative on panels that cost naive centring digits:
unit offsets 1e4 times the within-unit variation (with t(2) tails, and at
N=2 and T=2), plus random walks, which need no offset to be hard.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import oracles
from helpers import make_panel
from twfekit import (
    GapRange,
    causal_weights,
    fd,
    fd_decomposition,
    gap_restricted,
    pairwise_decomposition,
    twfe,
)
from twfekit.estimators import _pair_sums, two_way_residual

TOL = 1e-14
KINDS = ("offsets", "random walk", "N=2", "T=2")
CASES = [(kind, seed) for kind in KINDS for seed in range(3)]


def _panel(kind, seed):
    """A panel of at most 30 x 8 with ``y = 1.5 x + noise``."""
    rng = np.random.default_rng([seed, len(kind)])
    n, t = {"T=2": (9, 2), "N=2": (2, 6)}.get(kind, (30, 8))

    def draw():
        if kind == "random walk":
            return np.cumsum(rng.normal(size=(n, t)), axis=1)
        return rng.standard_t(2, size=(n, t))

    x = draw()
    series = {"x": x, "y": 1.5 * x + draw()}
    if kind != "random walk":
        for name in series:
            series[name] = series[name] + 1e4 * rng.normal(size=(n, 1))
    return make_panel(series)


@lru_cache(maxsize=None)
def _case(kind, seed):
    """The panel and its exact pair sums ``(xy, xx, yy)``."""
    panel = _panel(kind, seed)
    rx, ry = (oracles.exact_two_way(panel.values(v)) for v in ("x", "y"))
    pairs = ((rx, ry), (rx, rx), (ry, ry))
    return panel, tuple(oracles.exact_pair_sums(a, b) for a, b in pairs)


def _slope(sums, pairs):
    """The exact pooled slope over the period index pairs ``pairs``."""
    xy, xx, _ = sums
    return sum(xy[p] for p in pairs) / sum(xx[p] for p in pairs)


def _rel(got, want, scale=None):
    """``|got - want| / scale`` (``|want|`` by default), exactly."""
    scale = abs(want) if scale is None else scale
    return float(abs(Fraction(got) - want) / scale)


@pytest.mark.parametrize("kind,seed", CASES)
def test_pair_sums(kind, seed):
    panel, (xy, xx, yy) = _case(kind, seed)
    (got_xy, _), (got_xx, _) = _pair_sums(
        two_way_residual(panel, "x"), two_way_residual(panel, "y")
    )
    for t, s in xx:
        assert _rel(got_xx[t, s], xx[t, s]) <= TOL, (t, s)
        # a cross sum may cancel: judge it against its Cauchy-Schwarz bound
        bound = Fraction(float(xx[t, s] * yy[t, s]) ** 0.5)
        assert _rel(got_xy[t, s], xy[t, s], bound) <= TOL, (t, s)


@pytest.mark.parametrize("kind,seed", CASES)
def test_twfe(kind, seed):
    panel, sums = _case(kind, seed)
    assert _rel(twfe(panel, "y", "x").beta, _slope(sums, sums[1])) <= TOL


@pytest.mark.parametrize("kind,seed", CASES)
def test_fd_every_gap(kind, seed):
    panel, sums = _case(kind, seed)
    for k in range(1, panel.n_periods):
        want = _slope(sums, [(t, s) for t, s in sums[1] if s - t == k])
        assert _rel(fd(panel, "y", "x", k).beta, want) <= TOL, k


@pytest.mark.parametrize("kind,seed", CASES)
def test_gap_restricted(kind, seed):
    panel, sums = _case(kind, seed)
    k_max = min(2, panel.n_periods - 1)
    want = _slope(sums, [(t, s) for t, s in sums[1] if s - t <= k_max])
    got = gap_restricted(panel, "y", "x", GapRange(1, k_max)).beta
    assert _rel(got, want) <= TOL


@pytest.mark.parametrize("kind,seed", CASES)
def test_decomposition_aggregates(kind, seed):
    panel, sums = _case(kind, seed)
    beta = _slope(sums, sums[1])
    by_gap = fd_decomposition(panel, "y", "x")
    assert not np.isnan(by_gap.beta).any()
    assert _rel(by_gap.aggregate, beta) <= TOL
    by_pair = pairwise_decomposition(panel, "y", "x")
    live = ~np.isnan(by_pair.beta)
    if kind != "N=2":
        assert live.all()
    # with two units and large offsets, the degeneracy rule (relative to the
    # raw variation) drops real pairs: the reference keeps the same ones
    pairs = [p for p, keep in zip(sums[1], live.tolist()) if keep]
    assert _rel(by_pair.aggregate, _slope(sums, pairs)) <= TOL


@pytest.mark.parametrize("kind,seed", CASES)
def test_causal_weights_denominator(kind, seed):
    # raw x changes times residual changes: the residual's changes sum to
    # zero across units in every pair, so this is the sum of their squares
    panel, (_, xx, _) = _case(kind, seed)
    got = causal_weights(panel, "y", "x").denominator
    assert _rel(got, sum(xx.values())) <= TOL
