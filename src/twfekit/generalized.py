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
intercept and the time-invariant columns, the same in every pair, are swept
once per call and, projection being linear, taken out of the period levels
rather than out of every pair's changes, up to the first that pairs decide
differently.  The pairs of one gap are then residualized on the rest
together, by one call of ``numerics._project_in_place``, on a stack in the
call's one workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import prod

import numpy as np

from .decomposition import PairwiseDecomposition, _pair_decomposition
from .errors import NoIdentifyingVariation, PanelError
from .estimators import Estimate, _live, _names, _pooled_gaps, _twfe_fit
from .inference import cluster_robust_se
from .numerics import RANK_TOL, _project_in_place, _sweep
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
    negative, so the window lies strictly before ``t``).  The first pair
    starts in the panel's first period, so its window lies wholly before
    the panel: ``variable`` must be in a ``presample`` panel that holds at
    least ``min_points`` of that window's periods.  The panel itself can
    supply the windows of later pairs only.

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
    def label(self) -> str:
        """``variable:start:end``: the control's name in ``dropped_controls``
        and, with ``min_points``, in a CLI report's parameters."""
        return (
            f"{self.variable}:{self.window_start_offset}:"
            f"{self.window_end_offset}"
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

    A field given as a bare string, or ``pre_period`` given as anything but
    a sequence of :class:`PretrendConfig`, raises :class:`TypeError`.
    """

    time_invariant: tuple[str, ...] = ()
    differenced: tuple[str, ...] = ()
    pre_period: tuple[PretrendConfig, ...] = ()

    def __post_init__(self):
        for name in ("time_invariant", "differenced"):
            object.__setattr__(self, name, _names(getattr(self, name), name))
        configs = self.pre_period
        if not isinstance(configs, (str, PretrendConfig)):
            configs = tuple(configs)
        if not isinstance(configs, tuple) or not all(
            isinstance(config, PretrendConfig) for config in configs
        ):
            raise TypeError(
                f"pre_period must be a sequence of PretrendConfig, got "
                f"{self.pre_period!r}"
            )
        object.__setattr__(self, "pre_period", configs)

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
    once from the sources that hold it (the presample's, then the panel's)
    and unit-demeaned, so that unit offsets cancel first.  Every anchor's
    slopes then come from one product with a calendar x anchors matrix of
    the window periods, centred and scaled per anchor, zero outside the
    window.
    """
    rows = None
    anchors = np.asarray(anchors)
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
            if name in presample.series:
                blocks.append(presample.values(name)[rows])
                calendar.extend(presample.periods)
        if name in panel.series:
            blocks.append(panel.values(name))
            calendar.extend(panel.periods)
        periods, values = np.array(calendar)[:, None], np.hstack(blocks)
        needed = config.min_points or config.window_length
        window = (periods >= anchors + config.window_start_offset) & (
            periods <= anchors + config.window_end_offset
        )
        counts = window.sum(axis=0)
        short = np.flatnonzero(counts < needed)
        if short.size:
            a = short[0]
            raise PanelError(
                f"pre-trend window before period {anchors[a]}: only "
                f"{counts[a]} of {needed} required periods available"
            )
        mean = (window * periods).sum(axis=0) / counts
        pc = np.where(window, periods - mean, 0.0)
        slopes[c] = (
            (values - values.mean(axis=1, keepdims=True))
            @ (pc / np.einsum("ca,ca->a", pc, pc))
        ).T
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


def _raw_tolerances(rx, controls, pretrend, shared_max, gaps):
    """Per gap of ``gaps``, from the raw changes, formed in one buffer:
    each pair's drop tolerance, relative to its largest control column, and
    the plain pairwise decomposition's basis, the pair's squared changes of
    the (period, unit) x residual ``rx``."""
    raw = np.array([rx] + [v.T for v in controls], order="C")
    t_count, n = rx.shape
    buffer = np.empty(len(raw) * (t_count - gaps[0]) * n)
    pretrend_norms = np.sqrt(np.einsum("pan,pan->ap", pretrend, pretrend))
    tols, raw_dens = [], []
    for k in gaps:
        changes = np.subtract(
            raw[:, k:], raw[:, :-k],
            out=_leading(buffer, (len(raw), t_count - k, n)),
        )
        norms = np.sqrt(np.einsum("msn,msn->sm", changes[1:], changes[1:]))
        norms = np.hstack([norms, pretrend_norms[: t_count - k]])
        tols.append(RANK_TOL * norms.max(axis=1, initial=shared_max))
        raw_dens.append(np.einsum("sn,sn->s", changes[0], changes[0]))
    return tols, raw_dens


def _leading(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The first values of the flat ``buffer``, as a C-contiguous ``shape``
    array."""
    return buffer[: prod(shape)].reshape(shape)


def _row_medians(v: np.ndarray) -> np.ndarray:
    """``np.median(v, axis=1, keepdims=True)`` by its own steps, the mean of
    the one or two middle values, without its NaN check, which imports
    ``numpy.ma`` on a process's first call: panel values are finite."""
    t = v.shape[1]
    half = t // 2
    lo = half if t % 2 else half - 1
    middle = np.partition(v, [half - 1, half], axis=1)[:, lo : half + 1]
    return middle.mean(axis=1, keepdims=True)


def _pair_fits(resid, controls, pretrend, shared, gaps, weight_scheme, total):
    """Each pair's covariate-adjusted fit, gap by gap, in one workspace.

    ``resid`` holds the (period, unit) two-way residuals of x and y,
    ``controls`` the (unit, period) values of the differenced controls,
    ``pretrend`` the ``(p, A, N)`` pre-trend slopes at the ``A`` anchors,
    which it overwrites with their projection on the shared columns,
    ``shared`` the ``(N, c)`` columns of every pair and ``total`` the two-way
    variation that a pair's is a share of.  Returns, over the pairs of
    ``gaps`` in gap order, their start and end period indices, beta (NaN
    where degenerate) and weight basis; the mask of the controls each
    retains; and the per-unit sums of v*u and v^2 over the live pairs, for
    the SE.
    """
    t_count, n = resid[0].shape
    tols, raw_dens = _raw_tolerances(
        resid[0], controls, pretrend,
        float(np.sqrt(np.einsum("ij,ij->j", shared, shared)).max()), gaps,
    )
    # the shared columns, swept once for every pair up to the first that
    # pairs decide differently (usually none): projection is linear, so
    # their basis is taken out of the period levels, held [series, period,
    # unit], rather than out of each pair's changes, once for the x and y
    # residuals, twice for the control columns, as in the sweep.  A
    # control's levels are first centred on the unit's median value, so
    # that unit offsets cancel and one outlying period does not leave its
    # scale in every level.  Rows are projected one at a time through a
    # (period, unit) scratch, so that no level-sized temporary is allocated
    q, kept, rest = _sweep(shared, np.concatenate(tols))
    medians = [_row_medians(v) for v in controls]
    levels = np.array(
        resid + [(v - m).T for v, m in zip(controls, medians)], order="C"
    )
    scratch = np.empty(t_count * n)
    for part, passes in ((levels[:2], 1), (levels[2:], 2), (pretrend, 2)):
        for row in part:
            for _ in range(passes):
                row -= np.matmul(row @ q, q.T, out=_leading(scratch, row.shape))
    # one workspace serves every gap: room for the stack of the widest gap,
    # whose changes of the x and y residuals lead, then the other shared
    # columns, which the projection decides per pair, the differenced
    # controls' changes, each a contiguous (start, unit) block, and the
    # pre-trend columns
    split = 2 + rest.shape[1]
    end = split + len(controls)
    rows = end + len(pretrend)
    workspace = np.empty(rows * pretrend.shape[1] * n)

    unit_cross = np.zeros(n)
    unit_sq = np.zeros(n)
    # per gap: start and end period indices, beta and weight basis
    columns = []
    retained = []
    for k, tol, raw_den in zip(gaps, tols, raw_dens):
        # the pairs of gap k, one per start period, form one stack of cells
        starts = t_count - k
        stack = _leading(workspace, (rows, starts, n))
        np.subtract(levels[:2, k:], levels[:2, :starts], out=stack[:2])
        stack[2:split] = rest.T[:, None]
        np.subtract(levels[2:, k:], levels[2:, :starts], out=stack[split:end])
        stack[end:] = pretrend[:, :starts]
        products = _leading(scratch, (starts, n))
        retained.append(
            _project_in_place(stack[2:], stack[:2], tol, products)
        )
        rx, ry = stack[:2]
        ssr = np.einsum("sn,sn->s", rx, rx)
        live = _live(raw_den, total) & _live(ssr, raw_den)
        basis = ssr if weight_scheme == "ssr" else raw_den
        # a live pair's residuals are rescaled by sqrt(basis / ssr), exactly
        # 1 under ssr, so its products scale by the square
        f2 = np.divide(basis, ssr, out=np.zeros(starts), where=live)
        unit_cross += f2 @ np.multiply(rx, ry, out=products)
        unit_sq += f2 @ np.multiply(rx, rx, out=products)
        beta = np.divide(
            np.einsum("sn,sn->s", rx, ry), ssr,
            out=np.full(starts, np.nan), where=live,
        )
        columns.append((np.arange(starts), np.arange(k, t_count), beta, basis))
    retained = np.concatenate(retained)
    retained = np.hstack([np.tile(kept, (len(retained), 1)), retained])
    pairs = [np.concatenate(column) for column in zip(*columns)]
    return pairs, retained, (unit_cross, unit_sq)


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
    changes of the two-way residuals of the outcome and the treatment are
    residualized on an intercept plus the controls from ``spec``; the pair
    estimate is the slope of the residualized changes, and pair weights
    follow ``weight_scheme`` (see module docstring).  Those changes are
    centred across units in every period, so a pair that drops the
    intercept (by the relative ``RANK_TOL`` rule, when its other controls
    dwarf it) fits them on its kept controls alone, not the raw changes of
    ``y`` and ``x``.  With an empty spec and the full gap range this
    reproduces the plain two-way estimate.  The decomposition's
    ``dropped_controls`` column holds, per pair, the names of the controls
    it dropped as collinear (``"intercept"``, a series name, or
    ``"variable:start:end"`` for a pre-trend control).  The intercept and
    time-invariant columns are taken out of the period levels once, as far
    as every pair decides them alike, and each gap differences the
    projected levels, held period-major so that a gap's changes are
    C-contiguous (start, unit) blocks.

    Memory: with ``m`` differenced and pre-trend controls, ``d`` shared
    columns from the first that pairs decide differently (usually none) and
    ``A = T - k_min`` start periods of the shortest gap, every gap works in
    one workspace of ``(m + d + 2)·A·N`` floats, allocated once per call,
    and one ``T·N`` scratch; besides them the call holds the two-way
    residuals, the pre-trend slopes and one copy of the projected levels:
    O((m + d + 2)·N·T) in all, never anything per pair.

    Each pre-trend variable in ``spec.pre_period`` must be in ``presample``,
    which must hold at least ``min_points`` (default: all) of the periods of
    the first pair's window, before the panel's first period; the panel can
    supply the windows of later pairs only.
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
        c.label for c in spec.pre_period
    )
    shared = np.column_stack([np.ones(n)] + [
        _time_invariant_column(panel, name) for name in spec.time_invariant
    ])
    where = f"for any pair with gaps {rng.k_min}-{rng.k_max}"
    rx, ry, den, _ = _twfe_fit(panel, y, x, where=where)
    controls = [panel.values(name) for name in spec.differenced]
    # the x residual's squared changes summed over all pairs (full-range
    # lemma): the two-way variation of which each pair's is a share
    total = t_count * den
    # the anchors with a pair in range
    anchors = panel.periods[: t_count - rng.k_min]
    pretrend = _pretrend_slopes(panel, spec.pre_period, anchors, presample)

    pairs, retained, unit_sums = _pair_fits(
        [rx.T, ry.T], controls, pretrend, shared,
        range(rng.k_min, rng.k_max + 1), weight_scheme, total,
    )
    first, second, beta, basis = pairs
    order = np.lexsort((second, first))  # anchor-major, as pairwise
    beta = beta[order]
    n_degenerate = int(np.isnan(beta).sum())
    if n_degenerate == beta.size:
        raise NoIdentifyingVariation(f"no identifying variation in '{x}' {where}")
    # one names tuple per distinct retained pattern, each row read as one
    # opaque value
    _, rows, which = np.unique(
        retained.view(np.dtype((np.void, retained.shape[1]))).ravel(),
        return_index=True, return_inverse=True,
    )
    dropped = [tuple(compress(names, ~retained[i])) for i in rows]
    decomposition = _pair_decomposition(
        panel, first[order], second[order], beta, basis[order],
        n_controls=np.full(beta.size, spec.n_controls),
        dropped_controls=[dropped[i] for i in which[order].tolist()],
    )
    estimate = Estimate(
        beta=decomposition.aggregate,
        se=cluster_robust_se(*unit_sums, panel.cluster_id)
        if se else None,
        n_units=n,
        periods_used=(
            f"gaps {rng.k_min}-{rng.k_max} ({beta.size} pairs, "
            f"{weight_scheme} weights)"
        ),
        denominator=decomposition.total_denominator,
    )
    return GeneralizedResult(estimate, decomposition, n_degenerate)
