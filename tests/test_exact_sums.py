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
    generalized_twfe,
    pairwise_decomposition,
    twfe,
)
from twfekit.estimators import two_way_residual
from twfekit.numerics import pair_moments

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
    (got_xy, got_xx), _ = pair_moments(
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
    # from gap 1, from gap 2, and the last gap alone
    last = panel.n_periods - 1
    ranges = {(1, min(2, last)), (min(2, last), last), (last, last)}
    for k_min, k_max in sorted(ranges):
        pairs = [(t, s) for t, s in sums[1] if k_min <= s - t <= k_max]
        got = gap_restricted(panel, "y", "x", GapRange(k_min, k_max)).beta
        want = _slope(sums, pairs)
        assert _rel(got, want) <= TOL, (k_min, k_max)


@pytest.mark.parametrize("kind,seed", CASES)
def test_decomposition_aggregates(kind, seed):
    # every component is live, at N=2 with large offsets too: a component
    # is judged by its share of the two-way variation, which has no offsets
    panel, sums = _case(kind, seed)
    beta = _slope(sums, sums[1])
    decomps = (
        fd_decomposition(panel, "y", "x"),
        pairwise_decomposition(panel, "y", "x"),
        generalized_twfe(panel, "y", "x").decomposition,
    )
    for decomp in decomps:
        assert not np.isnan(decomp.beta).any()
        assert _rel(decomp.aggregate, beta) <= TOL


@pytest.mark.parametrize("kind,seed", CASES)
def test_causal_weights_denominator(kind, seed):
    # raw x changes times residual changes: the residual's changes sum to
    # zero across units in every pair, so this is the sum of their squares
    panel, (_, xx, _) = _case(kind, seed)
    got = causal_weights(panel, "y", "x").denominator
    assert _rel(got, sum(xx.values())) <= TOL
