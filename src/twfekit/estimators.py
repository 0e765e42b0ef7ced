"""Panel estimators in closed two-way-residual form.

Every estimator here reads one transform, :func:`two_way_residual`: each
series less its unit and period means, which on a balanced panel is the
residual from regressing it on unit and period indicators.  The two-way
fixed-effects slope is a plain ratio of sums over that residual, and the
pair-difference estimators are ratios of sums over its period differences,
in which the unit means cancel; no dummy variables are ever materialized.

``twfe``
    slope on ``x`` from least squares of ``y`` on ``x`` plus unit and period
    effects (optionally after partialling out covariates observation-wise).
``fd``
    pooled gap-``k`` difference estimator with per-start-period intercepts:
    the one-gap case of the pooled-gap slope, whose gap range
    ``generalized.gap_restricted`` widens.
``twfe_multivariate``
    several regressors at once, solved from pairwise-difference normal
    equations.
``twfe_iv``
    instrumental-variable analogue: ratio of instrument cross moments.

A single period pair's slope is a column of
:func:`~twfekit.decomposition.pairwise_decomposition`.

Every estimator raises :class:`NoIdentifyingVariation` instead of dividing
by a degenerate denominator; "degenerate" means at most ``1e-12`` times the
natural squared scale of the treatment series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoIdentifyingVariation
from .inference import cluster_robust_se
from .numerics import pair_moments, project_cells
from .panel import BalancedPanel

#: An estimator's denominator below this multiple of the treatment's squared
#: scale is treated as zero identifying variation.
DEGENERACY_TOL = 1e-12


@dataclass
class Estimate:
    """A point estimate together with the variation that identifies it.

    Attributes
    ----------
    beta : float or ndarray
        Point estimate (vector only for the multivariate estimator).
    se : float or None
        Cluster-robust standard error when requested, else ``None``.
    n_units : int
    periods_used : str
        Human-readable description of the differences entering the estimate.
    denominator : float
        Denominator of the ratio that produced ``beta`` (for the
        multivariate estimator: smallest eigenvalue of the normal-equation
        matrix).  Reported so callers can judge how thin the identifying
        variation is.
    """

    beta: float | np.ndarray
    se: float | None
    n_units: int
    periods_used: str
    denominator: float


def _two_way(values: np.ndarray) -> np.ndarray:
    """``values`` less its unit (row) and period (column) means.

    Unit means go first, so that offsets far larger than the within-unit
    variation leave before any period mean is taken, whose roundoff would
    otherwise scale with them.  The last pass clears the roundoff that the
    period pass leaves in the row sums.
    """
    w = values - values.mean(axis=1, keepdims=True)
    w -= w.mean(axis=0)
    w -= w.mean(axis=1, keepdims=True)
    return w


def _variation_scale(panel: BalancedPanel, var: str) -> float:
    v = panel.values(var)
    centered = v - v.mean()
    return float(np.sum(centered * centered))


def _pair_sums(rx: np.ndarray, ry: np.ndarray):
    """Pair moments of the two-way residual ``rx`` with ``ry`` and with
    itself, each a ``(by_pair, by_unit)`` tuple of :func:`pair_moments`.

    Unit means cancel in every period difference, so these are the sums of
    the period-demeaned series' differences, without the unit offsets.
    """
    return pair_moments(rx, ry), pair_moments(rx, rx)


def two_way_residual(
    panel: BalancedPanel, var: str, covariates: Sequence[str] | None = None
) -> np.ndarray:
    """Residual of ``var`` after the two-way projection, as a units x periods array.

    With no covariates this is the series less its unit means, then its
    period means, then its unit means again (:func:`_two_way`), which on a
    balanced panel equals the residual from regressing ``var`` on unit and
    period indicators.  Covariates, when given, are transformed the same way
    and then partialled out observation-wise, a covariate collinear with
    earlier ones dropped (see :mod:`twfekit.numerics`).
    """
    within = _two_way(panel.values(var))
    if not covariates:
        return within
    # one projection cell: the covariates vary, the within series is the target
    controls = np.stack([_two_way(panel.values(c)).ravel() for c in covariates])
    (residual,), _ = project_cells(controls[:, None], within.reshape(1, 1, -1))
    return residual.reshape(within.shape)


def _residual_sums(panel: BalancedPanel, y: str, x: str):
    """:func:`_pair_sums` of the two-way residuals of ``x`` and ``y``."""
    return _pair_sums(two_way_residual(panel, x), two_way_residual(panel, y))


def _all_periods(panel: BalancedPanel) -> str:
    """``periods_used`` of an estimator over every period pair."""
    t = panel.n_periods
    return f"all periods, gaps 1-{t - 1}" if t > 2 else "all periods, gap 1"


def _check_denominator(den: float, scale: float, message: str) -> None:
    if scale == 0.0 or den <= DEGENERACY_TOL * scale:
        raise NoIdentifyingVariation(message)


def _check_two_way(den: float, panel: BalancedPanel, x: str) -> float:
    """Raise unless ``den`` is live against ``x``'s centred variation, the
    scale returned."""
    scale = _variation_scale(panel, x)
    _check_denominator(
        den,
        scale,
        f"no identifying variation in '{x}' after the two-way transformation",
    )
    return scale


def _twfe_fit(panel: BalancedPanel, y: str, x: str, covariates=None):
    """``(rx, ry, den, beta)``: the two-way residuals of ``x`` and ``y``, the
    slope's denominator (checked against degeneracy) and the slope."""
    rx = two_way_residual(panel, x, covariates)
    ry = two_way_residual(panel, y, covariates)
    den = float(np.sum(rx * rx))
    _check_two_way(den, panel, x)
    return rx, ry, den, float(np.sum(rx * ry)) / den


def twfe(
    panel: BalancedPanel,
    y: str,
    x: str,
    covariates: Sequence[str] | None = None,
    se: bool = False,
) -> Estimate:
    """Two-way fixed-effects slope on ``x``.

    Equals the coefficient on ``x`` from least squares of ``y`` on ``x``,
    unit indicators, and period indicators (plus ``covariates`` if given),
    but is computed in closed form from the two-way residuals.
    """
    rx, ry, den, beta = _twfe_fit(panel, y, x, covariates)
    se_value = None
    if se:
        # the full-range lemma, unit by unit: a unit's pair-difference sums
        # are T times its sums of double-demeaned products
        t = panel.n_periods
        cross, sq = (t * np.einsum("it,it->i", rx, r) for r in (ry, rx))
        se_value = cluster_robust_se(cross, sq, panel.cluster_id)
    return Estimate(
        beta=beta,
        se=se_value,
        n_units=panel.n_units,
        periods_used=_all_periods(panel),
        denominator=den,
    )


def _pooled_gaps(panel, y, x, k_min, k_max, se, where, periods_used):
    """The pooled slope over gaps ``k_min`` to ``k_max``, read off the gap
    differences of the two-way residuals of ``y`` and ``x``; ``where`` ends
    the no-variation message."""
    (_, cross), (_, sq) = _residual_sums(panel, y, x)
    cross, sq = (m[:, k_min - 1 : k_max].sum(axis=1) for m in (cross, sq))
    den = float(sq.sum())
    message = f"no identifying variation in '{x}' {where}"
    _check_denominator(den, _variation_scale(panel, x), message)
    return Estimate(
        beta=float(cross.sum()) / den,
        se=cluster_robust_se(cross, sq, panel.cluster_id) if se else None,
        n_units=panel.n_units,
        periods_used=periods_used,
        denominator=den,
    )


def fd(
    panel: BalancedPanel, y: str, x: str, k: int, se: bool = False
) -> Estimate:
    """Pooled gap-``k`` difference estimator with per-start-period intercepts.

    Differencing the period-demeaned series (here, the two-way residual,
    whose unit means cancel in the differences) is exactly equivalent to
    giving every start period its own intercept in a stacked difference
    regression.  A gap outside ``1..T-1`` raises :class:`ValueError`.
    """
    k = int(k)
    if not 1 <= k <= panel.n_periods - 1:
        raise ValueError(
            f"gap must satisfy 1 <= k <= {panel.n_periods - 1}, got {k}"
        )
    return _pooled_gaps(
        panel, y, x, k, k, se, f"at gap {k}",
        f"gap {k} ({panel.n_periods - k} start periods)",
    )


def twfe_multivariate(
    panel: BalancedPanel, y: str, xs: Sequence[str]
) -> Estimate:
    """Two-way fixed-effects coefficients on several regressors at once.

    Solves the normal equations of all period-pair differences, formed as
    ``T`` times the double-demeaned cross products; on a balanced panel
    this matches the dummy-variable regression of ``y`` on all of ``xs``
    plus unit and period indicators.  ``beta`` is a vector aligned with ``xs``;
    ``denominator`` reports the smallest eigenvalue of the normal-equation
    matrix.
    """
    names = list(xs)
    if not names:
        raise ValueError("need at least one regressor")
    n, t = panel.n_units, panel.n_periods
    design = np.column_stack(
        [two_way_residual(panel, name).ravel() for name in names]
    )
    # each regressor's own variation, judged as twfe judges it: the drop
    # rule below is relative to the largest column, so it keeps a lone
    # column of roundoff
    for name, column in zip(names, design.T):
        _check_two_way(float(column @ column), panel, name)
    # the drop rule alone, as one projection cell with no targets
    _, (kept,) = project_cells(design.T[:, None], np.empty((0, 1, n * t)))
    if not kept.all():
        bad = ", ".join(f"'{names[j]}'" for j in np.flatnonzero(~kept))
        raise NoIdentifyingVariation(
            f"collinear regressors after the two-way transformation: {bad}"
        )

    # Full-range lemma: summed over all period pairs, products of
    # differences equal T times products of double-demeaned values.
    a = t * (design.T @ design)
    b = t * (design.T @ two_way_residual(panel, y).ravel())
    beta = np.linalg.solve(a, b)
    smallest = float(np.linalg.eigvalsh(a)[0])
    return Estimate(
        beta=beta,
        se=None,
        n_units=n,
        periods_used=_all_periods(panel),
        denominator=smallest,
    )


def twfe_iv(panel: BalancedPanel, y: str, x: str, z: str) -> Estimate:
    """Instrumental-variable two-way estimator with instrument ``z``.

    Ratio of pairwise instrument cross moments: the sum over period pairs of
    demeaned instrument differences times outcome differences, over the same
    with treatment differences.  Matches two-stage least squares with unit
    and period indicators in both stages.
    """
    xw = two_way_residual(panel, x)
    zw = two_way_residual(panel, z)
    t = panel.n_periods
    # Full-range lemma: each pair-difference sum is T times the sum of
    # products of double-demeaned values.
    num = t * float(np.sum(zw * two_way_residual(panel, y)))
    den = t * float(np.sum(zw * xw))
    xvar = t * float(np.sum(xw * xw))
    zvar = t * float(np.sum(zw * zw))
    # Guard the difference sums against the raw variation of each series
    # before forming their Cauchy-Schwarz product: a purely additive series
    # leaves only roundoff in the differences, which would otherwise shrink
    # the comparison scale along with the denominator.
    _check_denominator(
        xvar,
        t * _variation_scale(panel, x),
        f"no identifying variation in '{x}' after the two-way transformation",
    )
    _check_denominator(
        zvar,
        t * _variation_scale(panel, z),
        f"instrument '{z}' is irrelevant for '{x}' under the two-way "
        f"transformation",
    )
    scale = float(np.sqrt(xvar * zvar))
    if abs(den) <= DEGENERACY_TOL * scale:
        raise NoIdentifyingVariation(
            f"instrument '{z}' is irrelevant for '{x}' under the two-way "
            f"transformation"
        )
    return Estimate(
        beta=num / den,
        se=None,
        n_units=panel.n_units,
        periods_used=_all_periods(panel),
        denominator=den,
    )
