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
    and pre-period trend slopes — by residualizing the pair's changes of the
    two-way residuals of the outcome and treatment on those controls before
    forming its slope.

For the covariate-adjusted estimator each pair's weight is, by default, its
share of residual treatment variation after adjustment (``"ssr"``); the
``"raw"`` scheme instead reuses the unadjusted weights of the plain pairwise
decomposition.  Either way, weights are nonnegative, are normalized within
the restricted pair set, and a degenerate pair gets weight ``0.0``: its
share of the two-way treatment variation is numerically zero, or its
controls absorb that variation (see :mod:`twfekit.estimators`).

A pair's controls come in the order intercept, time-invariant, differenced,
pre-trend, so the rank rule of ``numerics`` drops the later member of a
collinear group; each component names the controls its pair dropped.  The
pairs of one gap are residualized together by one
``numerics.project_cells`` call, which sweeps the intercept and the
time-invariant columns, the same in every pair, only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .decomposition import PairwiseDecomposition, _pair_decomposition
from .errors import NoIdentifyingVariation, PanelError
from .estimators import (
    Estimate, _live, _pooled_gaps, _require_variation, two_way_residual,
)
from .inference import cluster_robust_se
from .numerics import project_cells
from .panel import BalancedPanel, _integer

WEIGHT_SCHEMES = ("ssr", "raw")


@dataclass(frozen=True)
class GapRange:
    """Closed range of difference lengths ``[k_min, k_max]``."""

    k_min: int
    k_max: int

    def __post_init__(self):
        for name in ("k_min", "k_max"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        start = _integer(self.window_start_offset, "window_start_offset")
        end = _integer(self.window_end_offset, "window_end_offset")
        object.__setattr__(self, "window_start_offset", start)
        object.__setattr__(self, "window_end_offset", end)
        if not start < end <= -1:
            raise ValueError(
                f"window offsets must satisfy start < end <= -1, got "
                f"[{start}, {end}]"
            )
        if self.min_points is not None:
            points = _integer(self.min_points, "min_points")
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
    def n_controls(self) -> int:
        """Number of control columns per pair (the intercept is not counted)."""
        return (
            len(self.time_invariant)
            + len(self.differenced)
            + len(self.pre_period)
        )


@dataclass
class GeneralizedResult:
    """Aggregate estimate plus its per-pair decomposition.

    ``n_degenerate`` counts the degenerate pairs (see the module docstring),
    whose ``beta`` is NaN and weight ``0.0``.
    """

    estimate: Estimate
    decomposition: PairwiseDecomposition
    n_degenerate: int


def _check_gaps(rng: GapRange, t_count: int) -> None:
    if rng.k_max > t_count - 1:
        raise ValueError(
            f"gap range [{rng.k_min}, {rng.k_max}] exceeds the largest "
            f"available gap {t_count - 1}"
        )


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
    _check_gaps(gap_range, panel.n_periods)
    k_min, k_max = gap_range.k_min, gap_range.k_max
    return _pooled_gaps(
        panel, y, x, range(k_min, k_max + 1), se, f"for gaps {k_min}-{k_max}",
        f"gaps {k_min}-{k_max}",
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


def _pretrend_slopes(
    panel: BalancedPanel,
    configs,
    anchors,
    presample: BalancedPanel | None,
) -> np.ndarray:
    """``(len(configs), len(anchors), N)`` pre-trend slopes before each anchor.

    The presample is validated once, and each variable's values are gathered
    once (the presample's, then the panel's), so each window is one mask
    over the calendar.
    """
    rows = None
    slopes = np.empty((len(configs), len(anchors), panel.n_units))
    for c, config in enumerate(configs):
        name = config.variable
        if name not in panel.series and (
            presample is None or name not in presample.series
        ):
            raise PanelError(
                f"pre-trend variable '{name}' is in neither the panel nor the "
                f"pre-sample"
            )
        calendar: list[int] = []
        blocks: list[np.ndarray] = []
        if presample is not None:
            if rows is None:
                rows = _presample_rows(panel, presample)
            blocks.append(presample.values(name)[rows])
            calendar.extend(presample.periods)
        if name in panel.series:
            blocks.append(panel.values(name))
            calendar.extend(panel.periods)
        periods, values = np.array(calendar), np.hstack(blocks)
        needed = config.min_points or config.window_length
        for a, t in enumerate(anchors):
            cols = (periods >= t + config.window_start_offset) & (
                periods <= t + config.window_end_offset
            )
            if cols.sum() < needed:
                raise PanelError(
                    f"pre-trend window before period {t}: only {cols.sum()} "
                    f"of {needed} required periods available"
                )
            window = values[:, cols]
            pc = periods[cols].astype(float)
            pc -= pc.mean()
            slopes[c, a] = (
                (window - window.mean(axis=1, keepdims=True)) @ pc
                / float(pc @ pc)
            )
    return slopes


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
    t = _integer(t, "t", PanelError)
    panel.period_index(t)  # validates the anchor period
    return _pretrend_slopes(panel, (config,), [t], presample)[0, 0]


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
    outcome change and treatment change are residualized on an intercept
    plus the controls from ``spec``; the pair estimate is the slope of the
    residualized changes, and pair weights follow ``weight_scheme`` (see
    module docstring).  With an empty spec and the full gap range this
    reproduces the plain two-way estimate.  The decomposition's
    ``dropped_controls`` column holds, per pair, the names of the controls
    it dropped as collinear (``"intercept"``, a series name, or
    ``"variable:start:end"`` for a pre-trend control).  Extra memory is
    O(N·T) per gap, never per pair.
    """
    if weight_scheme not in WEIGHT_SCHEMES:
        raise ValueError(
            f"weight_scheme must be one of {WEIGHT_SCHEMES}, "
            f"got '{weight_scheme}'"
        )
    t_count = panel.n_periods
    rng = gap_range or GapRange(1, t_count - 1)
    _check_gaps(rng, t_count)

    n = panel.n_units
    # the intercept and time-invariant columns are the same in every pair
    names = ("intercept",) + spec.time_invariant + spec.differenced + tuple(
        f"{c.variable}:{c.window_start_offset}:{c.window_end_offset}"
        for c in spec.pre_period
    )
    shared = np.column_stack([np.ones(n)] + [
        _time_invariant_column(panel, name) for name in spec.time_invariant
    ])
    # period-major two-way residuals of x and y, as every estimator reads
    # them, then the raw differenced controls: a gap's changes are
    # contiguous (start, unit) blocks
    series = np.stack(
        [two_way_residual(panel, name).T for name in (x, y)]
        + [panel.values(name).T for name in spec.differenced]
    )
    # the x residual's squared changes summed over all pairs (full-range
    # lemma): the two-way variation of which each pair's is a share
    total = t_count * float(np.sum(series[0] * series[0]))
    where = f"for any pair with gaps {rng.k_min}-{rng.k_max}"
    _require_variation(total, panel, x, where)
    # the anchors with a pair in range
    anchors = panel.periods[: t_count - rng.k_min]
    pretrend = _pretrend_slopes(panel, spec.pre_period, anchors, presample)

    # per-unit sums of v*u and v^2 over the live pairs, for the SE
    unit_cross = np.zeros(n)
    unit_sq = np.zeros(n)
    # per gap: start and end period indices, beta (NaN where degenerate)
    # and weight basis
    columns: list[tuple] = []
    dropped: list[tuple[str, ...]] = []
    for k in range(rng.k_min, rng.k_max + 1):
        # the pairs of gap k, one per start period, form one stack of cells
        changes = series[:, k:] - series[:, :-k]
        starts = t_count - k
        (rx, ry), retained = project_cells(
            np.concatenate([changes[2:], pretrend[:, :starts]]),
            changes[:2],
            shared,
        )
        ssr = np.einsum("sn,sn->s", rx, rx)
        # the plain pairwise decomposition's basis: the pair's changes of
        # the x residual
        raw_den = np.einsum("sn,sn->s", changes[0], changes[0])
        live = _live(raw_den, total) & _live(ssr, raw_den)
        # the raw scheme rescales a pair's residuals by sqrt(raw_den / ssr),
        # so its products scale by the square
        f2 = live.astype(float)
        if weight_scheme == "raw":
            f2 = np.divide(raw_den, ssr, out=np.zeros(starts), where=live)
        unit_cross += f2 @ (rx * ry)
        unit_sq += f2 @ (rx * rx)
        beta = np.divide(
            np.einsum("sn,sn->s", rx, ry), ssr,
            out=np.full(starts, np.nan), where=live,
        )
        basis = ssr if weight_scheme == "ssr" else raw_den
        columns.append((np.arange(starts), np.arange(k, t_count), beta, basis))
        dropped += [tuple(compress(names, ~kept)) for kept in retained]
    first, second, beta, basis = map(np.concatenate, zip(*columns))
    order = np.lexsort((second, first))  # anchor-major, as pairwise
    beta = beta[order]
    n_degenerate = int(np.isnan(beta).sum())
    if n_degenerate == beta.size:
        raise NoIdentifyingVariation(f"no identifying variation in '{x}' {where}")
    decomposition = _pair_decomposition(
        panel, first[order], second[order], beta, basis[order],
        n_controls=np.full(beta.size, spec.n_controls),
        dropped_controls=[dropped[i] for i in order.tolist()],
    )
    estimate = Estimate(
        beta=decomposition.aggregate,
        se=cluster_robust_se(unit_cross, unit_sq, panel.cluster_id)
        if se else None,
        n_units=n,
        periods_used=(
            f"gaps {rng.k_min}-{rng.k_max} ({beta.size} pairs, "
            f"{weight_scheme} weights)"
        ),
        denominator=decomposition.total_denominator,
    )
    return GeneralizedResult(estimate, decomposition, n_degenerate)
