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

    ``min_points``: how many window periods must be available per unit;
    ``None`` requires the full window.
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


def _check_presample(panel: BalancedPanel, presample: BalancedPanel) -> None:
    if presample.periods[-1] >= panel.periods[0]:
        raise PanelError(
            f"presample must end before the panel starts; presample ends in "
            f"{presample.periods[-1]}, panel starts in {panel.periods[0]}"
        )
    missing = [u for u in panel.units if u not in set(presample.units)]
    if missing:
        raise PanelError(
            f"presample is missing {len(missing)} panel units, "
            f"first: '{missing[0]}'"
        )


def pretrend_covariate(
    panel: BalancedPanel,
    config: PretrendConfig,
    t: int,
    presample: BalancedPanel | None = None,
) -> np.ndarray:
    """Per-unit pre-period trend slopes of ``config.variable`` before period ``t``.

    Returns one slope per panel unit, aligned with ``panel.units``.  Window
    values are taken from the panel where its range covers them and from
    ``presample`` otherwise.  Raises :class:`PanelError` when a unit has
    fewer available window periods than ``config.min_points`` (default: the
    full window).
    """
    t = int(t)
    panel.period_index(t)  # validates the anchor period
    main = main_col = None
    if config.variable in panel.series:
        main = panel.values(config.variable)
        main_col = {p: j for j, p in enumerate(panel.periods)}
    elif presample is None or config.variable not in presample.series:
        raise PanelError(
            f"pre-trend variable '{config.variable}' is in neither the panel "
            f"nor the pre-sample"
        )
    pre_values = pre_row = pre_col = None
    if presample is not None:
        _check_presample(panel, presample)
        pre_values = presample.values(config.variable)
        pre_row = {u: i for i, u in enumerate(presample.units)}
        pre_col = {p: j for j, p in enumerate(presample.periods)}

    window = range(
        t + config.window_start_offset, t + config.window_end_offset + 1
    )
    needed = config.min_points or config.window_length

    slopes = np.empty(panel.n_units)
    for i, unit in enumerate(panel.units):
        periods_found = []
        values_found = []
        for period in window:
            if main_col is not None and period in main_col:
                periods_found.append(period)
                values_found.append(main[i, main_col[period]])
            elif pre_col is not None and period in pre_col:
                periods_found.append(period)
                values_found.append(pre_values[pre_row[unit], pre_col[period]])
        if len(periods_found) < max(needed, 2):
            raise PanelError(
                f"pre-trend window before period {t} for unit '{unit}': "
                f"only {len(periods_found)} of {needed} required periods "
                f"available"
            )
        p = np.array(periods_found, dtype=float)
        v = np.array(values_found, dtype=float)
        pc = p - p.mean()
        vc = v - v.mean()
        slopes[i] = float(pc @ vc) / float(pc @ pc)
    return slopes


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
    outcome change and treatment change are separately residualized on an
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

    invariant_cols = [
        _time_invariant_column(panel, name) for name in spec.time_invariant
    ]
    diff_sources = {name: panel.values(name) for name in spec.differenced}
    pretrend_cache: dict[tuple[int, int], np.ndarray] = {}

    def pretrend_at(cfg_idx: int, t_label: int) -> np.ndarray:
        key = (cfg_idx, t_label)
        if key not in pretrend_cache:
            pretrend_cache[key] = pretrend_covariate(
                panel, spec.pre_period[cfg_idx], t_label, presample
            )
        return pretrend_cache[key]

    intercept = np.ones(n)
    components: list[PairComponent] = []
    raw_dens: list[float] = []
    ssrs: list[float] = []
    # per-unit sums of v*u and v^2 over the live pairs, for the SE
    unit_cross = np.zeros(n)
    unit_sq = np.zeros(n)

    for ti in range(t_count - 1):
        for si in range(ti + 1, t_count):
            k = si - ti
            if not rng.k_min <= k <= rng.k_max:
                continue
            dy = yv[:, si] - yv[:, ti]
            dx = xv[:, si] - xv[:, ti]
            cols = [intercept]
            cols.extend(invariant_cols)
            for name in spec.differenced:
                src = diff_sources[name]
                cols.append(src[:, si] - src[:, ti])
            for cfg_idx in range(len(spec.pre_period)):
                cols.append(pretrend_at(cfg_idx, labels[ti]))
            controls = np.column_stack(cols)
            rx = fwl_residualize(dx, controls)
            ry = fwl_residualize(dy, controls)
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

    if not components:
        raise NoIdentifyingVariation(
            f"no period pairs with gaps {rng.k_min}-{rng.k_max}"
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
