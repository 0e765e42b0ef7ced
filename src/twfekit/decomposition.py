"""Exact decompositions of the two-way fixed-effects estimate.

The two-way slope is an exact convex combination of simpler estimators, and
both decompositions here reproduce it to floating-point accuracy:

- by *gap*: one component per difference length ``k``, whose estimate is the
  pooled gap-``k`` difference estimator and whose weight is the share of
  squared demeaned gap-``k`` treatment variation;
- by *period pair*: one component per pair ``s > t``, whose estimate is the
  two-period estimator on ``(t, s)`` and whose weight is that pair's share
  of squared demeaned treatment differences.

Weights are nonnegative by construction and sum to one.  A component with
(numerically) zero treatment variation gets weight ``0.0`` and ``beta=None``:
it cannot move the aggregate, and its own estimate is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import DEGENERACY_TOL, _check_two_way, _demeaned_pair, twfe
from .panel import BalancedPanel


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
    covariate-adjusted estimator, where each pair carries its own control
    count and the names of the controls it dropped as collinear, in control
    order.
    """

    first: int
    second: int
    beta: float | None
    weight: float
    n_obs: int
    n_controls: int | None = None
    dropped_controls: tuple[str, ...] = ()


@dataclass
class FdDecomposition:
    components: list[FdComponent]
    aggregate: float
    total_denominator: float


@dataclass
class PairwiseDecomposition:
    components: list[PairComponent]
    aggregate: float
    total_denominator: float


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


def _read_out(nums, dens, panel: BalancedPanel, x: str):
    """Component estimates ``nums / dens``, their weights, the aggregate and
    the total denominator; degenerate components get ``None`` and ``0.0``."""
    total = float(dens.sum())
    live = dens > DEGENERACY_TOL * _check_two_way(total, panel, x)
    betas = [
        float(nu / de) if ok else None for nu, de, ok in zip(nums, dens, live)
    ]
    weights = [float(de / total) if ok else 0.0 for de, ok in zip(dens, live)]
    aggregate = sum(w * b for w, b in zip(weights, betas) if b is not None)
    return betas, weights, float(aggregate), total


def fd_decomposition(panel: BalancedPanel, y: str, x: str) -> FdDecomposition:
    """Split the two-way estimate into pooled difference estimators by gap."""
    (_, xy), (_, xx) = _demeaned_pair(panel, y, x)
    n, t = panel.n_units, panel.n_periods
    betas, weights, aggregate, total = _read_out(
        xy.sum(axis=0), xx.sum(axis=0), panel, x
    )
    components = [
        FdComponent(gap=k, beta=beta, weight=weight, n_obs=n * (t - k))
        for k, beta, weight in zip(range(1, t), betas, weights)
    ]
    return FdDecomposition(
        components=components, aggregate=aggregate, total_denominator=total
    )


def pairwise_decomposition(
    panel: BalancedPanel, y: str, x: str
) -> PairwiseDecomposition:
    """Split the two-way estimate into two-period estimators by period pair.

    Components are ordered lexicographically by (first, second) period label.
    """
    (xy, _), (xx, _) = _demeaned_pair(panel, y, x)
    first, second = np.triu_indices(panel.n_periods, k=1)
    betas, weights, aggregate, total = _read_out(
        xy[first, second], xx[first, second], panel, x
    )
    labels = panel.periods
    components = [
        PairComponent(
            first=labels[ti],
            second=labels[si],
            beta=beta,
            weight=weight,
            n_obs=panel.n_units,
        )
        for ti, si, beta, weight in zip(first, second, betas, weights)
    ]
    return PairwiseDecomposition(
        components=components, aggregate=aggregate, total_denominator=total
    )


def count_pairs(n_periods: int, k_min: int = 1, k_max: int | None = None) -> int:
    """Number of period pairs whose gap lies in ``[k_min, k_max]``.

    With the defaults this is ``n_periods * (n_periods - 1) / 2``, the total
    pair count.
    """
    t = int(n_periods)
    if t < 2:
        raise ValueError(f"need at least 2 periods, got {t}")
    if k_max is None:
        k_max = t - 1
    k_min, k_max = int(k_min), int(k_max)
    if not 1 <= k_min <= k_max <= t - 1:
        raise ValueError(
            f"need 1 <= k_min <= k_max <= {t - 1}, got [{k_min}, {k_max}]"
        )
    return sum(t - k for k in range(k_min, k_max + 1))


def weighted_summary(decomposition) -> WeightedSummary:
    """Weighted mean, spread, and quantiles of a decomposition's estimates.

    Accepts either decomposition flavour; components with zero weight (and
    hence undefined estimates) are excluded.  The weighted mean reproduces
    the decomposition's aggregate.
    """
    points = [
        (c.beta, c.weight)
        for c in decomposition.components
        if c.weight > 0.0 and c.beta is not None
    ]
    if not points:
        raise ValueError("no components with positive weight to summarize")
    betas = np.array([b for b, _ in points])
    weights = np.array([w for _, w in points])
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
        n_components=len(points),
    )


def verify_equivalence(panel: BalancedPanel, y: str, x: str) -> EquivalenceReport:
    """Compute the two-way estimate three ways and report the largest gap.

    The gap is relative to the natural cancellation scale of the weighted
    averages — the larger of the estimate's magnitude and the weighted mean
    of absolute component estimates — so it stays meaningful when the
    estimate itself is near zero.
    """
    beta = twfe(panel, y, x).beta
    by_gap = fd_decomposition(panel, y, x)
    by_pair = pairwise_decomposition(panel, y, x)
    scales = [abs(beta)]
    for decomp in (by_gap, by_pair):
        scales.append(
            sum(
                c.weight * abs(c.beta)
                for c in decomp.components
                if c.beta is not None
            )
        )
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
