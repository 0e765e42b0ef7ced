"""Gap-restricted and covariate-adjusted generalizations of the two-way slope.

Two ways to move beyond the plain estimator while keeping its exact
weighted-average structure:

``gap_restricted``
    keep only difference lengths in a chosen range ``[k_min, k_max]``.  The
    full range reproduces the two-way estimate; a single gap reproduces the
    pooled difference estimator at that gap.
``generalized_twfe``
    additionally adjust each period pair for pair-level controls —
    time-invariant variables, contemporaneous differences of other series,
    and pre-period trend slopes — by residualizing the outcome and treatment
    differences on those controls before forming each pair's slope.

For the covariate-adjusted estimator each pair's weight is, by default, its
share of residual treatment variation after adjustment (``"ssr"``); the
``"raw"`` scheme instead reuses the unadjusted demeaned-difference weights
of the plain pairwise decomposition.  Either way, weights are nonnegative,
are normalized within the restricted pair set, and a degenerate pair (its
controls absorb all treatment variation) gets weight ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import PairComponent, PairwiseDecomposition
from .errors import NoIdentifyingVariation, PanelError
from .estimators import (
    DEGENERACY_TOL,
    Estimate,
    _demeaned_pair,
    _variation_scale,
)
from .inference import cluster_robust_se
from .numerics import fwl_residualize, pair_moments
from .panel import BalancedPanel, demean

WEIGHT_SCHEMES = ("ssr", "raw")


@dataclass(frozen=True)
class GapRange:
    """Closed range of difference lengths ``[k_min, k_max]``."""

    k_min: int
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "k_min", int(self.k_min))
        object.__setattr__(self, "k_max", int(self.k_max))
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(
                f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]"
            )


@dataclass(frozen=True)
class PretrendConfig:
    """Pre-period trend slope of ``variable`` as a pair-level control.

    For a pair whose earlier period is ``t``, each unit contributes the OLS
    slope of ``variable`` on the calendar period over the window
    ``[t + window_start_offset, t + window_end_offset]`` (both offsets
    negative, so the window lies strictly before ``t``).  Window periods may
    come from the panel itself or from an earlier ``presample`` panel.

    ``min_points``: how many window periods must be available (panels are
    balanced, so the count is the same for every unit); ``None`` requires
    the full window.
    """

    variable: str
    window_start_offset: int = -12
    window_end_offset: int = -3
    min_points: int | None = None

    def __post_init__(self):
        start = int(self.window_start_offset)
        end = int(self.window_end_offset)
        object.__setattr__(self, "window_start_offset", start)
        object.__setattr__(self, "window_end_offset", end)
        if not start < end <= -1:
            raise ValueError(
                f"window offsets must satisfy start < end <= -1, got "
                f"[{start}, {end}]"
            )
        if self.min_points is not None:
            points = int(self.min_points)
            object.__setattr__(self, "min_points", points)
            if points < 2:
                raise ValueError(
                    f"min_points must be at least 2, got {points}"
                )
            if points > end - start + 1:
                raise ValueError(
                    f"min_points={points} exceeds the window length "
                    f"{end - start + 1}"
                )

    @property
    def window_length(self) -> int:
        return self.window_end_offset - self.window_start_offset + 1


@dataclass(frozen=True)
class CovariateSpec:
    """Pair-level controls for the covariate-adjusted estimator.

    ``time_invariant``
        series that must be constant within each unit; the unit's value
        enters every pair's control set.
    ``differenced``
        series whose within-pair change (value at the later period minus
        value at the earlier period) enters each pair's control set.
    ``pre_period``
        pre-period trend-slope controls, one per :class:`PretrendConfig`.
    """

    time_invariant: tuple[str, ...] = ()
    differenced: tuple[str, ...] = ()
    pre_period: tuple[PretrendConfig, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "time_invariant", tuple(self.time_invariant))
        object.__setattr__(self, "differenced", tuple(self.differenced))
        object.__setattr__(self, "pre_period", tuple(self.pre_period))

    @property
    def is_empty(self) -> bool:
        return not (self.time_invariant or self.differenced or self.pre_period)

    @property
    def n_controls(self) -> int:
        """Number of control columns per pair (the intercept is not counted)."""
        return (
            len(self.time_invariant)
            + len(self.differenced)
            + len(self.pre_period)
        )


@dataclass
class GeneralizedResult:
    """Aggregate estimate plus its per-pair decomposition."""

    estimate: Estimate
    decomposition: PairwiseDecomposition


def gap_restricted(
    panel: BalancedPanel,
    y: str,
    x: str,
    gap_range: GapRange,
    se: bool = False,
) -> Estimate:
    """Two-way estimator restricted to difference lengths in ``gap_range``.

    ``GapRange(1, T - 1)`` reproduces the plain two-way estimate;
    ``GapRange(k, k)`` reproduces the pooled gap-``k`` difference estimator.
    """
    t = panel.n_periods
    if gap_range.k_max > t - 1:
        raise ValueError(
            f"gap range [{gap_range.k_min}, {gap_range.k_max}] exceeds the "
            f"largest available gap {t - 1}"
        )
    gaps = slice(gap_range.k_min - 1, gap_range.k_max)
    (_, cross), (_, sq) = _demeaned_pair(panel, y, x)
    cross, sq = cross[:, gaps].sum(axis=1), sq[:, gaps].sum(axis=1)
    num, den = float(cross.sum()), float(sq.sum())
    scale = _variation_scale(panel, x)
    if scale == 0.0 or den <= DEGENERACY_TOL * scale:
        raise NoIdentifyingVariation(
            f"no identifying variation in '{x}' for gaps "
            f"{gap_range.k_min}-{gap_range.k_max}"
        )
    se_value = cluster_robust_se(cross, sq, panel.cluster_id) if se else None
    return Estimate(
        beta=num / den,
        se=se_value,
        n_units=panel.n_units,
        periods_used=f"gaps {gap_range.k_min}-{gap_range.k_max}",
        denominator=den,
    )


def _presample_rows(panel: BalancedPanel, presample: BalancedPanel) -> np.ndarray:
    """Validate ``presample`` and return the row of each panel unit in it."""
    if presample.periods[-1] >= panel.periods[0]:
        raise PanelError(
            f"presample must end before the panel starts; presample ends in "
            f"{presample.periods[-1]}, panel starts in {panel.periods[0]}"
        )
    row = {u: i for i, u in enumerate(presample.units)}
    missing = [u for u in panel.units if u not in row]
    if missing:
        raise PanelError(
            f"presample is missing {len(missing)} panel units, "
            f"first: '{missing[0]}'"
        )
    return np.array([row[u] for u in panel.units])


def pretrend_covariate(
    panel: BalancedPanel,
    config: PretrendConfig,
    t: int,
    presample: BalancedPanel | None = None,
) -> np.ndarray:
    """Per-unit pre-period trend slopes of ``config.variable`` before period ``t``.

    Returns one slope per panel unit, aligned with ``panel.units``.  Window
    values are taken from the panel where its range covers them and from
    ``presample`` otherwise.  Both panels are balanced, so the window periods
    found are the same for every unit: the slopes are one product of the
    row-centred units x window block with the centred window periods.
    Raises :class:`PanelError` when fewer window periods are available than
    ``config.min_points`` (default: the full window).
    """
    t = int(t)
    panel.period_index(t)  # validates the anchor period
    name = config.variable
    if name not in panel.series and (
        presample is None or name not in presample.series
    ):
        raise PanelError(
            f"pre-trend variable '{name}' is in neither the panel nor the "
            f"pre-sample"
        )
    window = range(
        t + config.window_start_offset, t + config.window_end_offset + 1
    )
    # the presample ends before the panel starts, so its periods come first
    found: list[int] = []
    blocks: list[np.ndarray] = []
    if presample is not None:
        rows = _presample_rows(panel, presample)
        cols = [j for j, p in enumerate(presample.periods) if p in window]
        blocks.append(presample.values(name)[np.ix_(rows, cols)])
        found.extend(presample.periods[j] for j in cols)
    if name in panel.series:
        cols = [j for j, p in enumerate(panel.periods) if p in window]
        blocks.append(panel.values(name)[:, cols])
        found.extend(panel.periods[j] for j in cols)
    needed = config.min_points or config.window_length
    if len(found) < needed:
        raise PanelError(
            f"pre-trend window before period {t}: only {len(found)} of "
            f"{needed} required periods available"
        )
    values = np.hstack(blocks)
    pc = np.array(found, dtype=float)
    pc -= pc.mean()
    return (values - values.mean(axis=1, keepdims=True)) @ pc / float(pc @ pc)


def _time_invariant_column(panel: BalancedPanel, name: str) -> np.ndarray:
    values = panel.values(name)
    spread = values.max(axis=1) - values.min(axis=1)
    bad = np.nonzero(spread > 0.0)[0]
    if bad.size:
        raise PanelError(
            f"series '{name}' is not time-invariant: unit "
            f"'{panel.units[bad[0]]}' varies over periods"
        )
    return values[:, 0].copy()


def generalized_twfe(
    panel: BalancedPanel,
    y: str,
    x: str,
    spec: CovariateSpec = CovariateSpec(),
    gap_range: GapRange | None = None,
    weight_scheme: str = "ssr",
    presample: BalancedPanel | None = None,
    se: bool = False,
) -> GeneralizedResult:
    """Covariate-adjusted, gap-restricted weighted average of pair slopes.

    For each period pair ``(t, s)`` with gap in ``gap_range``, the pair's
    outcome change and treatment change are residualized, in one fit, on an
    intercept plus the controls from ``spec``; the pair estimate is the
    slope of the residualized changes, and pair weights follow
    ``weight_scheme`` (see module docstring).  With an empty spec and the
    full gap range this reproduces the plain two-way estimate.
    """
    if weight_scheme not in WEIGHT_SCHEMES:
        raise ValueError(
            f"weight_scheme must be one of {WEIGHT_SCHEMES}, "
            f"got '{weight_scheme}'"
        )
    t_count = panel.n_periods
    rng = gap_range or GapRange(1, t_count - 1)
    if rng.k_max > t_count - 1:
        raise ValueError(
            f"gap range [{rng.k_min}, {rng.k_max}] exceeds the largest "
            f"available gap {t_count - 1}"
        )

    yv = panel.values(y)
    xv = panel.values(x)
    xt = demean(panel, x)
    raw_by_pair, _ = pair_moments(xt, xt)
    n = panel.n_units
    labels = panel.periods
    # panel-wide centred treatment variation: the scale against which a
    # pair's difference variation counts as numerically zero
    x_scale = _variation_scale(panel, x)

    # column order (intercept, time-invariant, differenced, pre-trend) sets
    # which member of a collinear group the left-to-right sweep drops
    fixed_cols = [np.ones(n)] + [
        _time_invariant_column(panel, name) for name in spec.time_invariant
    ]
    diff_sources = [panel.values(name) for name in spec.differenced]

    components: list[PairComponent] = []
    raw_dens: list[float] = []
    ssrs: list[float] = []
    # per-unit sums of v*u and v^2 over the live pairs, for the SE
    unit_cross = np.zeros(n)
    unit_sq = np.zeros(n)

    # anchors with at least one pair whose gap is in range
    for ti in range(t_count - rng.k_min):
        pretrend_cols = [
            pretrend_covariate(panel, cfg, labels[ti], presample)
            for cfg in spec.pre_period
        ]
        for si in range(ti + rng.k_min, min(ti + rng.k_max, t_count - 1) + 1):
            diff_cols = [src[:, si] - src[:, ti] for src in diff_sources]
            controls = np.column_stack(fixed_cols + diff_cols + pretrend_cols)
            changes = np.column_stack(
                [xv[:, si] - xv[:, ti], yv[:, si] - yv[:, ti]]
            )
            rx, ry = fwl_residualize(changes, controls).T
            ssr = float(rx @ rx)
            raw_den = float(raw_by_pair[ti, si])
            raw_dens.append(raw_den)
            ssrs.append(ssr)
            degenerate = (
                x_scale == 0.0
                or raw_den <= DEGENERACY_TOL * x_scale
                or ssr <= DEGENERACY_TOL * raw_den
            )
            beta = None if degenerate else float(rx @ ry) / ssr
            if not degenerate:
                # the raw scheme rescales a pair's residuals by
                # sqrt(raw_den / ssr), so its products scale by the square
                f2 = raw_den / ssr if weight_scheme == "raw" else 1.0
                unit_cross += f2 * (rx * ry)
                unit_sq += f2 * (rx * rx)
            components.append(
                PairComponent(
                    first=labels[ti],
                    second=labels[si],
                    beta=beta,
                    weight=0.0,
                    n_obs=n,
                    n_controls=spec.n_controls,
                )
            )

    weight_basis = ssrs if weight_scheme == "ssr" else raw_dens
    live = [i for i, c in enumerate(components) if c.beta is not None]
    if not live:
        raise NoIdentifyingVariation(
            f"no identifying variation in '{x}' for any pair with gaps "
            f"{rng.k_min}-{rng.k_max}"
        )
    total = float(sum(weight_basis[i] for i in live))
    if total <= 0.0:
        raise NoIdentifyingVariation(
            f"controls absorb all treatment variation in '{x}' for gaps "
            f"{rng.k_min}-{rng.k_max}"
        )
    aggregate = 0.0
    for i in live:
        weight = weight_basis[i] / total
        c = components[i]
        components[i] = PairComponent(
            first=c.first,
            second=c.second,
            beta=c.beta,
            weight=weight,
            n_obs=c.n_obs,
            n_controls=c.n_controls,
        )
        aggregate += weight * components[i].beta

    se_value = (
        cluster_robust_se(unit_cross, unit_sq, panel.cluster_id) if se else None
    )

    estimate = Estimate(
        beta=aggregate,
        se=se_value,
        n_units=n,
        periods_used=(
            f"gaps {rng.k_min}-{rng.k_max} ({len(components)} pairs, "
            f"{weight_scheme} weights)"
        ),
        denominator=total,
    )
    decomposition = PairwiseDecomposition(
        components=components, aggregate=aggregate, total_denominator=total
    )
    return GeneralizedResult(estimate=estimate, decomposition=decomposition)
