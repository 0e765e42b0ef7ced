"""Panel estimators in closed demeaned-difference form.

After cross-sectionally demeaning each series (``demean``), the two-way
fixed-effects slope on a balanced panel is a plain ratio of sums over
differenced observations; no dummy variables are ever materialized.  All
estimators here share that structure:

``twfe``
    slope on ``x`` from least squares of ``y`` on ``x`` plus unit and period
    effects, computed from double-demeaned arrays (optionally after
    partialling out covariates observation-wise).
``fd``
    pooled gap-``k`` difference estimator with per-start-period intercepts:
    the one-gap case of the pooled-gap slope, whose gap range
    ``generalized.gap_restricted`` widens.
``twfe_two_period``
    two-way estimator restricted to a single pair of periods.
``twfe_multivariate``
    several regressors at once, solved from pairwise-difference normal
    equations.
``twfe_iv``
    instrumental-variable analogue: ratio of instrument cross moments.

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
from .panel import BalancedPanel, demean

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


def _within(values: np.ndarray) -> np.ndarray:
    """Remove per-unit (row) means; second pass tightens the row sums."""
    w = values - values.mean(axis=1, keepdims=True)
    w -= w.mean(axis=1, keepdims=True)
    return w


def _variation_scale(panel: BalancedPanel, var: str) -> float:
    v = panel.values(var)
    centered = v - v.mean()
    return float(np.sum(centered * centered))


def _demeaned_pair(panel: BalancedPanel, y: str, x: str):
    """Pair moments of cross-sectionally demeaned ``x`` with ``y`` and with
    itself, each a ``(by_pair, by_unit)`` tuple of :func:`pair_moments`."""
    xt = demean(panel, x)
    return pair_moments(xt, demean(panel, y)), pair_moments(xt, xt)


def two_way_residual(
    panel: BalancedPanel, var: str, covariates: Sequence[str] | None = None
) -> np.ndarray:
    """Residual of ``var`` after the two-way projection, as a units x periods array.

    With no covariates this is the double-demeaned series (cross-sectional
    demeaning followed by removal of unit means), which on a balanced panel
    equals the residual from regressing ``var`` on unit and period
    indicators.  Covariates, when given, are themselves double-demeaned and
    then partialled out observation-wise, a covariate collinear with earlier
    ones dropped (see :mod:`twfekit.numerics`).
    """
    within = _within(demean(panel, var))
    if not covariates:
        return within
    # one projection cell: the covariates vary, the within series is the target
    controls = np.stack([_within(demean(panel, c)).ravel() for c in covariates])
    (residual,), _ = project_cells(controls[:, None], within.reshape(1, 1, -1))
    return residual.reshape(within.shape)


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
    but is computed in closed form from demeaned arrays.
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
    """The pooled slope over gaps ``k_min`` to ``k_max`` of cross-sectionally
    demeaned ``y`` and ``x``; ``where`` ends the no-variation message."""
    (_, cross), (_, sq) = _demeaned_pair(panel, y, x)
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

    Demeaning each series cross-sectionally before differencing is exactly
    equivalent to giving every start period its own intercept in a stacked
    difference regression.
    """
    k = int(k)
    if not 1 <= k <= panel.n_periods - 1:
        raise NoIdentifyingVariation(
            f"gap must satisfy 1 <= k <= {panel.n_periods - 1}, got {k}"
        )
    return _pooled_gaps(
        panel, y, x, k, k, se, f"at gap {k}",
        f"gap {k} ({panel.n_periods - k} start periods)",
    )


def twfe_two_period(
    panel: BalancedPanel, y: str, x: str, t: int, s: int
) -> Estimate:
    """Two-way estimator using only the period pair ``(t, s)`` with ``s > t``."""
    if not s > t:
        raise ValueError(f"need s > t, got pair ({t}, {s})")
    ti = panel.period_index(t)
    si = panel.period_index(s)
    xt = demean(panel, x)
    yt = demean(panel, y)
    dx = xt[:, si] - xt[:, ti]
    dy = yt[:, si] - yt[:, ti]
    den = float(dx @ dx)
    scale = float(xt[:, ti] @ xt[:, ti] + xt[:, si] @ xt[:, si])
    _check_denominator(
        den,
        scale,
        f"no identifying variation in '{x}' for period pair ({t}, {s})",
    )
    beta = float(dx @ dy) / den
    return Estimate(
        beta=beta,
        se=None,
        n_units=panel.n_units,
        periods_used=f"pair ({t}, {s})",
        denominator=den,
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
