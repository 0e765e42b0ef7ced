"""Exact decompositions of the two-way fixed-effects estimate.

The two-way slope is an exact convex combination of simpler estimators, and
both decompositions here reproduce it to floating-point accuracy:

- by *gap*: one component per difference length ``k``, whose estimate is the
  pooled gap-``k`` difference estimator and whose weight is the share of
  squared gap-``k`` treatment variation;
- by *period pair*: one component per pair ``s > t``, whose estimate is the
  two-way estimator on the periods ``t`` and ``s`` alone and whose weight is
  that pair's share of squared treatment differences.

Both read the period differences of the two-way residuals of ``y`` and
``x`` (:func:`~twfekit.estimators.two_way_residual`), the arrays the two-way
slope itself is a ratio of sums over; unit means cancel in the differences,
so these are the differences of the period-demeaned series.

Weights are nonnegative by construction and sum to one.  A component whose
share of the two-way treatment variation is numerically zero (the rule of
:mod:`twfekit.estimators`) gets weight ``0.0`` and a NaN ``beta`` (``None``
in its component object): it cannot move the aggregate, and its own
estimate is undefined.  The total denominator, the weights and the
aggregate are all taken over the live components, by the one read-out that
the covariate-adjusted estimator of ``generalized`` shares.

Both results hold their components as column arrays, one entry per gap or
pair; the per-component objects of ``.components`` are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .estimators import _live, _twfe_fit

# bound here as well: bench/bench_checks.py checks that the benchmark's
# tracer patches and restores ``decomposition.twfe``
from .estimators import twfe  # noqa: F401
from .numerics import pair_moments
from .panel import BalancedPanel, _integer


@dataclass(frozen=True)
class FdComponent:
    """One gap's contribution: pooled difference estimate and variance share."""

    gap: int
    beta: float | None
    weight: float
    n_obs: int


@dataclass(frozen=True)
class PairComponent:
    """One period pair's contribution.

    ``n_controls`` and ``dropped_controls`` are only populated by the
    covariate-adjusted estimator: ``n_controls`` is its specification's
    control count, the same for every pair and counting the controls the
    pair dropped as collinear, which ``dropped_controls`` names in control
    order.
    """

    first: int
    second: int
    beta: float | None
    weight: float
    n_obs: int
    n_controls: int | None = None
    dropped_controls: tuple[str, ...] = ()


def _values(column) -> list:
    """``column`` as Python scalars, ``None`` for NaN (a degenerate beta)."""
    return [None if v != v else v for v in column.tolist()]


@dataclass(eq=False)
class FdDecomposition:
    """The by-gap decomposition, held as columns with one entry per gap.

    ``beta`` is NaN and ``weight`` 0.0 for a degenerate gap; ``n_obs`` is
    the gap's count of differenced observations.  ``components``, one
    :class:`FdComponent` per gap (``beta=None`` where degenerate), is derived
    from the columns on first access.
    """

    gap: np.ndarray
    beta: np.ndarray
    weight: np.ndarray
    n_obs: np.ndarray
    aggregate: float
    total_denominator: float

    def __post_init__(self):
        self.gap = np.asarray(self.gap)
        self.beta = np.asarray(self.beta, dtype=float)
        self.weight = np.asarray(self.weight, dtype=float)
        self.n_obs = np.asarray(self.n_obs)

    @cached_property
    def components(self) -> list[FdComponent]:
        return list(
            map(
                FdComponent,
                self.gap.tolist(),
                _values(self.beta),
                self.weight.tolist(),
                self.n_obs.tolist(),
            )
        )


@dataclass(eq=False)
class PairwiseDecomposition:
    """The by-pair decomposition, held as columns with one entry per pair.

    ``first`` and ``second`` are the pair's period labels; ``beta``,
    ``weight`` and ``n_obs`` are as in :class:`FdDecomposition`.  Only the
    covariate-adjusted estimator fills ``n_controls`` (an integer column:
    its specification's control count, the same in every pair, dropped
    controls included) and ``dropped_controls`` (one tuple of names per
    pair); elsewhere they are ``None``.  ``components``, one
    :class:`PairComponent` per pair, is derived from the columns on first
    access.
    """

    first: np.ndarray
    second: np.ndarray
    beta: np.ndarray
    weight: np.ndarray
    n_obs: np.ndarray
    aggregate: float
    total_denominator: float
    n_controls: np.ndarray | None = None
    dropped_controls: list[tuple[str, ...]] | None = None

    def __post_init__(self):
        self.first = np.asarray(self.first)
        self.second = np.asarray(self.second)
        self.beta = np.asarray(self.beta, dtype=float)
        self.weight = np.asarray(self.weight, dtype=float)
        self.n_obs = np.asarray(self.n_obs)
        if self.n_controls is not None:
            self.n_controls = np.asarray(self.n_controls)

    @cached_property
    def components(self) -> list[PairComponent]:
        count = self.beta.size
        n_controls = (
            repeat(None, count)
            if self.n_controls is None
            else self.n_controls.tolist()
        )
        return list(
            map(
                PairComponent,
                self.first.tolist(),
                self.second.tolist(),
                _values(self.beta),
                self.weight.tolist(),
                self.n_obs.tolist(),
                n_controls,
                self.dropped_controls or repeat((), count),
            )
        )


@dataclass
class WeightedSummary:
    """Weighted moments and quantiles of a decomposition's estimates.

    Quantiles use the left-continuous inverse CDF: the smallest component
    estimate whose cumulative weight reaches the requested level.
    """

    mean: float
    sd: float
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    n_components: int


@dataclass
class EquivalenceReport:
    """Three routes to the same number, and how far apart they landed."""

    twfe_beta: float
    fd_aggregate: float
    pairwise_aggregate: float
    max_rel_gap: float


def _slopes(nums, dens) -> np.ndarray:
    """Component estimates ``nums / dens``, NaN where a component's ``dens``
    is not a live share of their sum, the two-way variation."""
    live = _live(dens, dens.sum())
    return np.divide(nums, dens, out=np.full(dens.shape, np.nan), where=live)


def _read_out(beta, basis) -> dict:
    """The columns of components with estimates ``beta`` (NaN where
    degenerate) and weight bases ``basis``, all taken over the live ones: the
    total sums their bases, a degenerate one weighs 0.0, and the aggregate is
    the left-to-right sum of ``weight * beta``, as a loop over them forms it.
    """
    live = ~np.isnan(beta)
    total = float(basis[live].sum())
    weight = np.divide(basis, total, out=np.zeros(basis.shape), where=live)
    aggregate = float(sum((weight[live] * beta[live]).tolist()))
    return dict(beta=beta, weight=weight, aggregate=aggregate,
                total_denominator=total)


def _by_gap(moments) -> FdDecomposition:
    """The by-gap decomposition read off a full ``pair_moments`` sweep."""
    _, (xy, xx) = moments
    dens = xx.sum(axis=0)
    n, gaps = xx.shape
    gap = np.arange(1, gaps + 1)
    return FdDecomposition(
        gap=gap,
        n_obs=n * (gaps + 1 - gap),
        **_read_out(_slopes(xy.sum(axis=0), dens), dens),
    )


def _pair_decomposition(panel, first, second, beta, basis, **columns):
    """The by-pair decomposition of the pairs of period indices ``first``
    and ``second``; ``columns`` are the covariate-adjusted estimator's."""
    labels = np.asarray(panel.periods)
    return PairwiseDecomposition(
        first=labels[first], second=labels[second],
        n_obs=np.full(beta.shape, panel.n_units),
        **_read_out(beta, basis),
        **columns,
    )


def _by_pair(moments, panel: BalancedPanel) -> PairwiseDecomposition:
    """The by-pair decomposition read off a full ``pair_moments`` sweep."""
    first, second = np.triu_indices(panel.n_periods, k=1)
    xy, dens = moments[0][:, first, second]
    beta = _slopes(xy, dens)
    return _pair_decomposition(panel, first, second, beta, dens)


def fd_decomposition(panel: BalancedPanel, y: str, x: str) -> FdDecomposition:
    """Split the two-way estimate into pooled difference estimators by gap."""
    rx, ry, _, _ = _twfe_fit(panel, y, x)
    return _by_gap(pair_moments(rx, ry))


def pairwise_decomposition(
    panel: BalancedPanel, y: str, x: str
) -> PairwiseDecomposition:
    """Split the two-way estimate into two-period estimators by period pair.

    Pairs are ordered lexicographically by (first, second) period label.
    """
    rx, ry, _, _ = _twfe_fit(panel, y, x)
    return _by_pair(pair_moments(rx, ry), panel)


def count_pairs(n_periods: int, k_min: int = 1, k_max: int | None = None) -> int:
    """Number of period pairs whose gap lies in ``[k_min, k_max]``.

    With the defaults this is ``n_periods * (n_periods - 1) / 2``, the total
    pair count.
    """
    t = _integer(n_periods, "n_periods")
    if t < 2:
        raise ValueError(f"need at least 2 periods, got {t}")
    if k_max is None:
        k_max = t - 1
    k_min, k_max = _integer(k_min, "k_min"), _integer(k_max, "k_max")
    if not 1 <= k_min <= k_max <= t - 1:
        raise ValueError(
            f"need 1 <= k_min <= k_max <= {t - 1}, got [{k_min}, {k_max}]"
        )
    return sum(t - k for k in range(k_min, k_max + 1))


def weighted_summary(decomposition) -> WeightedSummary:
    """Weighted mean, spread, and quantiles of a decomposition's estimates.

    Accepts either decomposition flavour and reads its ``beta`` and
    ``weight`` columns; components with zero weight (and hence undefined
    estimates) are excluded.  The weighted mean reproduces
    the decomposition's aggregate.
    """
    keep = (decomposition.weight > 0.0) & ~np.isnan(decomposition.beta)
    if not keep.any():
        raise ValueError("no components with positive weight to summarize")
    betas = decomposition.beta[keep]
    weights = decomposition.weight[keep]
    total = float(weights.sum())
    mean = float(weights @ betas) / total
    var = float(weights @ (betas - mean) ** 2) / total
    sd = float(np.sqrt(max(var, 0.0)))

    order = np.argsort(betas, kind="stable")
    sorted_betas = betas[order]
    cum = np.cumsum(weights[order])

    def quantile(q: float) -> float:
        idx = int(np.searchsorted(cum, q * total, side="left"))
        idx = min(idx, len(sorted_betas) - 1)
        return float(sorted_betas[idx])

    return WeightedSummary(
        mean=mean,
        sd=sd,
        p5=quantile(0.05),
        p25=quantile(0.25),
        median=quantile(0.50),
        p75=quantile(0.75),
        p95=quantile(0.95),
        n_components=int(keep.sum()),
    )


def verify_equivalence(panel: BalancedPanel, y: str, x: str) -> EquivalenceReport:
    """Compute the two-way estimate three ways and report the largest gap.

    All three read one pair of two-way residuals of ``x`` and ``y``.
    The gap is relative to the natural cancellation scale of the weighted
    averages — the larger of the estimate's magnitude and the weighted mean
    of absolute component estimates — so it stays meaningful when the
    estimate itself is near zero.
    """
    rx, ry, _, beta = _twfe_fit(panel, y, x)
    moments = pair_moments(rx, ry)
    by_gap = _by_gap(moments)
    by_pair = _by_pair(moments, panel)
    scales = [abs(beta)]
    for decomp in (by_gap, by_pair):
        live = ~np.isnan(decomp.beta)
        terms = decomp.weight[live] * np.abs(decomp.beta[live])
        scales.append(sum(terms.tolist()))
    scale = max(max(scales), 1e-300)
    gap = max(
        abs(beta - by_gap.aggregate), abs(beta - by_pair.aggregate)
    ) / scale
    return EquivalenceReport(
        twfe_beta=beta,
        fd_aggregate=by_gap.aggregate,
        pairwise_aggregate=by_pair.aggregate,
        max_rel_gap=gap,
    )
