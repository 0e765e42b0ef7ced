"""Panel estimators in closed two-way-residual form.

Every estimator here reads one transform, the two-way residual: each
series less its unit and period means, which on a balanced panel is the
residual from regressing it on unit and period indicators.  An estimate
reads those of all its series as one stack from :func:`_residuals`, and
:func:`_partial_out` is the one place where covariates are projected out.
The two-way slope is a plain ratio of sums over that residual, and the
pair-difference estimators are ratios of sums over its period differences,
in which the unit means cancel.

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

One degeneracy rule, with tolerance ``DEGENERACY_TOL``, serves the package.
Rule 1, applied once per estimate by :func:`_twfe_fit`: the treatment's
two-way variation ``sum(rx**2)`` must exceed the tolerance times its
variation about the grand mean, the raw scale that exposes a purely
additive series, or :class:`NoIdentifyingVariation` is raised
(:func:`_require_variation`).  Rule 2: a gap (of ``fd`` or a
decomposition), gap range (of ``gap_restricted``) or pair is live when its
sum of squared residual changes exceeds the tolerance times that sum over
all pairs, ``T * sum(rx**2)`` from the same fit: a share with no unit
offsets in it (:func:`_live`).  Rule 3: a covariate-adjusted pair is also
dead when its controls leave at most the tolerance times its treatment
variation.

The fit is made once per panel and key (:func:`_fit`, :func:`_kept`):
every estimate of ``y`` on ``x`` under the same covariates reads the same
read-only residuals, and rule 1's raw scale, from the panel's memo, and
the by-gap, by-pair and equivalence reads of a covariate-free fit share
one full ``pair_moments`` sweep.  A fit under covariates starts from the
covariate-free fit of the same ``y`` and ``x``, computed and kept first if
the panel lacks it, and projects a copy of its residuals.  A panel keeps
at most ``_KEPT`` entries, dropping the oldest first, and only arrays a
call returns or keeps.  Each key is always computed by the same code, so
a result never depends on which estimates ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoIdentifyingVariation
from .inference import cluster_robust_se
from .numerics import _default_tol, _project_in_place, pair_moments
from .panel import BalancedPanel, _integer

#: A variation at most this multiple of its reference (see above) is zero.
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


def _names(names, argument: str) -> tuple[str, ...]:
    """``names``, a sequence of series names or ``None``, as a tuple; a
    bare string, which would read as its characters, raises
    :class:`TypeError` naming ``argument``."""
    if isinstance(names, str):
        raise TypeError(
            f"{argument} must be a sequence of series names, not the string "
            f"{names!r}; pass [{names!r}]"
        )
    return tuple(names or ())


def _residuals(panel: BalancedPanel, names, covariates=None) -> np.ndarray:
    """Two-way residuals of the series ``names``, as one ``(m, N, T)`` stack,
    each series through :func:`_two_way` once and the stack partialled out
    of ``covariates`` by :func:`_partial_out`."""
    covariates = _names(covariates, "covariates")
    stack = np.stack([_two_way(panel.values(name)) for name in names])
    return _partial_out(panel, stack, covariates) if covariates else stack


def _partial_out(panel: BalancedPanel, stack: np.ndarray, covariates) -> np.ndarray:
    """``stack``, an ``(m, N, T)`` stack of two-way residuals the caller
    owns, partialled out of the two-way residuals of ``covariates`` in
    place and returned.  Every series is projected in one cell: the drop
    decision depends only on the covariates, so it is the same for all."""
    controls = np.stack([_two_way(panel.values(c)).ravel() for c in covariates])
    controls = controls[:, None]
    _project_in_place(
        controls, stack.reshape(len(stack), 1, -1), _default_tol(controls),
        np.empty(controls.shape[1:]),
    )
    return stack


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
    return _residuals(panel, [var], covariates)[0]


def _all_periods(panel: BalancedPanel) -> str:
    """``periods_used`` of an estimator over every period pair."""
    t = panel.n_periods
    return f"all periods, gaps 1-{t - 1}" if t > 2 else "all periods, gap 1"


def _live(dens, total):
    """Whether each variation in ``dens`` exceeds ``DEGENERACY_TOL`` times
    ``total``, the variation it is a share of."""
    return dens > DEGENERACY_TOL * total


def _grand_variation(panel: BalancedPanel, x: str) -> float:
    """``x``'s sum of squares about its grand mean: rule 1's raw scale."""
    v = panel.values(x)
    return float(np.sum((v - v.mean()) ** 2))


def _require_variation(
    den: float,
    scale: float,
    x: str,
    where: str = "after the two-way transformation",
) -> None:
    """Raise :class:`NoIdentifyingVariation` unless ``den``, a two-way
    variation of ``x``, is live against ``scale``, ``x``'s variation about
    its grand mean (:func:`_grand_variation`); ``where`` ends the message."""
    if not (scale > 0.0 and _live(den, scale)):
        raise NoIdentifyingVariation(f"no identifying variation in '{x}' {where}")


#: Most entries a panel's memo keeps; see :func:`_kept`.
_KEPT = 4


def _kept(panel: BalancedPanel, key, compute):
    """``compute()``, a tuple, kept on ``panel`` under ``key`` with its
    arrays made read-only; a panel keeps at most ``_KEPT`` entries and
    drops the oldest first."""
    memo = panel._memo
    if key not in memo:
        value = compute()
        for part in value:
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        if len(memo) >= _KEPT:
            del memo[next(iter(memo))]
        memo[key] = value
    return memo[key]


def _fit(panel: BalancedPanel, x: str, y: str, covariates: tuple = ()):
    """``(stack, den, scale)``: the ``(2, N, T)`` two-way residuals of ``x``
    and ``y`` under ``covariates``, ``sum(rx**2)`` and ``x``'s variation
    about its grand mean, kept on the panel under ``(x, y, covariates)``.
    A fit under covariates projects a copy of the covariate-free fit's
    residuals, which it keeps too, and reads its ``scale``."""

    def fit():
        if covariates:
            free, _, scale = _fit(panel, x, y)
            stack = _partial_out(panel, free.copy(), covariates)
        else:
            stack = _residuals(panel, (x, y))
            scale = _grand_variation(panel, x)
        return stack, float(np.sum(stack[0] * stack[0])), scale

    return _kept(panel, ("fit", (x, y), covariates), fit)


def _twfe_fit(
    panel: BalancedPanel, y: str, x: str, covariates=None,
    where: str = "after the two-way transformation",
):
    """``(rx, ry, den, beta)``: the two-way residuals of ``x`` and ``y``, the
    slope's denominator ``sum(rx**2)`` and the slope, from the fit kept by
    :func:`_fit`.  The one rule-1 check (see the module docstring) is made
    here; ``where`` ends its message."""
    stack, den, scale = _fit(panel, x, y, _names(covariates, "covariates"))
    _require_variation(den, scale, x, where)
    rx, ry = stack
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


def _pooled_gaps(panel, y, x, gaps, se, where, periods_used):
    """The pooled slope over the gaps ``gaps``, read off one sweep of the
    gap differences of the two-way residuals of ``x`` and ``y``, whose
    share of the fit's ``T * sum(rx**2)`` must be live (rule 2); ``where``
    ends the no-variation message."""
    rx, ry, fit_den, _ = _twfe_fit(panel, y, x, where=where)
    _, by_unit = pair_moments(rx, ry, gaps, sums=("unit",))
    cross, sq = by_unit.sum(axis=2)
    den = float(sq.sum())
    if not _live(den, panel.n_periods * fit_den):
        raise NoIdentifyingVariation(f"no identifying variation in '{x}' {where}")
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
    k = _integer(k, "k")
    if not 1 <= k <= panel.n_periods - 1:
        raise ValueError(
            f"gap must satisfy 1 <= k <= {panel.n_periods - 1}, got {k}"
        )
    return _pooled_gaps(
        panel, y, x, [k], se, f"at gap {k}",
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
    names = list(_names(xs, "xs"))
    if not names:
        raise ValueError("need at least one regressor")
    n, t = panel.n_units, panel.n_periods
    rows = _residuals(panel, names + [y]).reshape(len(names) + 1, n * t)
    # one C-contiguous column per regressor, a copy: the products' roundoff
    # depends on the layout, and the drop check below overwrites the rows
    design, target = rows[:-1].T.copy(), rows[-1]
    # each regressor's own variation, judged as twfe judges it: the drop
    # rule below is relative to the largest column, so it keeps a lone
    # column of roundoff
    for name, column in zip(names, design.T):
        _require_variation(
            float(column @ column), _grand_variation(panel, name), name
        )
    # the drop rule alone, as one projection cell with no targets, on the
    # regressors' rows, which nothing reads again
    columns = rows[:-1, None]
    (kept,) = _project_in_place(
        columns, np.empty((0, 1, n * t)), _default_tol(columns),
        np.empty((1, n * t)),
    )
    if not kept.all():
        bad = ", ".join(f"'{names[j]}'" for j in np.flatnonzero(~kept))
        raise NoIdentifyingVariation(
            f"collinear regressors after the two-way transformation: {bad}"
        )

    # Full-range lemma: summed over all period pairs, products of
    # differences equal T times products of double-demeaned values.
    a = t * (design.T @ design)
    b = t * (design.T @ target)
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
    xw, zw, yw = _residuals(panel, [x, z, y])
    cross = float(np.sum(zw * xw))
    xvar = float(np.sum(xw * xw))
    zvar = float(np.sum(zw * zw))
    # Guard each residual against the raw variation of its series before
    # forming their Cauchy-Schwarz product: a purely additive series leaves
    # only roundoff in its residual, which would otherwise shrink the
    # comparison scale along with the cross moment.
    irrelevant = f"instrument '{z}' is irrelevant for '{x}'"
    _require_variation(xvar, _grand_variation(panel, x), x)
    _require_variation(
        zvar, _grand_variation(panel, z), z, f"({irrelevant})"
    )
    if not _live(abs(cross), np.sqrt(xvar * zvar)):
        raise NoIdentifyingVariation(
            f"{irrelevant} under the two-way transformation"
        )
    # Full-range lemma: each pair-difference sum is T times the sum of
    # products of double-demeaned values.
    t = panel.n_periods
    num = t * float(np.sum(zw * yw))
    den = t * cross
    return Estimate(
        beta=num / den,
        se=None,
        n_units=panel.n_units,
        periods_used=_all_periods(panel),
        denominator=den,
    )
