"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the package's closed-form paths:
designs are materialized with explicit unit and period indicator columns
and solved with numpy's lstsq, so agreement with the library's demeaned-sum
formulas is a genuine two-route check, not a tautology.  The exceptions
are ``audit_loop`` and ``generalized_loop``, which keep the library's former
per-cell and per-pair ``ols`` loops as the references for the batched
audit and the batched covariate-adjusted estimator,
``causal_weights_loop``, which keeps the library's former index-array build
of the causal weights, and ``simulate_loop``, which keeps the former
period-by-period build of a simulated panel.  ``project_cells_shared`` and
``generalized_gap_loop`` keep the former shared-block kernel, with its group
sweep ``_sweep``, and the per-gap loop over it as the references for
``generalized_twfe``, which takes the shared columns out of period levels,
and ``pretrend_slopes_loop`` the former per-window pre-trend slopes.
``ols``, ``fwl_residualize`` and ``independent_columns`` are the library's
former dense least-squares path, a standalone Gram-Schmidt sweep plus
lstsq, kept as the reference for the library's projection, which
``project_cells`` calls on copies of its inputs, as the library's former
public wrapper did.  ``load_panel_loop`` and ``write_weights_csv`` keep the
former row-by-row CSV loader and ``csv.writer`` weights rows as the
references for the CSV loader and the weights writer.
``demean`` is the package's former public cross-sectional transform.
``exact_two_way`` and ``exact_pair_sums`` are the two-way residual and its
pair-difference sums in exact rational arithmetic (``fractions``), and
``exact_audit_sums`` the audit's three totals as a rational pair loop: the
references against which the library's floating-point sums are judged.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, repeat

import numpy as np

from twfekit import (
    BalancedPanel,
    NoIdentifyingVariation,
    PanelError,
    cluster_robust_se,
    twfe,
    twfe_multivariate,
)
from twfekit.diagnostics import SimulatedPanel
from twfekit.estimators import DEGENERACY_TOL, two_way_residual
from twfekit.generalized import _time_invariant_column
from twfekit.numerics import (
    RANK_TOL, _default_tol, _project_in_place, pair_moments,
)
from twfekit.panel import PanelSchema


# ---------------------------------------------------------------------------
# dense least squares: one Gram-Schmidt drop decision, then lstsq


@dataclass
class LeastSquaresFit:
    """Solution of a least-squares problem on the retained design columns.

    ``coefficients[j]`` belongs to original column ``retained_columns[j]``;
    dropped columns have no coefficient.  For an ``(n, m)`` response,
    ``coefficients`` and ``residuals`` carry a trailing axis of length ``m``
    and ``sum_sq_residuals`` is an array of ``m`` sums.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    sum_sq_residuals: float | np.ndarray
    retained_columns: list[int]
    dropped_columns: list[int]

    def coefficient(self, column: int) -> float:
        """Coefficient on design column ``column`` (0.0 if dropped); 1-D fits."""
        if column in self.dropped_columns:
            return 0.0
        return float(self.coefficients[self.retained_columns.index(column)])


def independent_columns(design):
    """Split column indices into (retained, dropped) by the left-to-right sweep.

    Modified Gram-Schmidt, re-orthogonalized once; a column whose residual
    norm is at most ``RANK_TOL`` times the largest column norm is dropped.
    Raises :class:`NoIdentifyingVariation` if the design is entirely zero.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    if n == 0 or p == 0:
        raise ValueError("design must have at least one row and one column")
    col_norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    scale = float(col_norms.max())
    if scale == 0.0 or not np.isfinite(scale):
        raise NoIdentifyingVariation(
            "no identifying variation: design matrix is zero"
        )
    tol = RANK_TOL * scale
    basis = []
    retained = []
    dropped = []
    for j in range(p):
        v = x[:, j].copy()
        if basis:
            q = np.column_stack(basis)
            # "Twice is enough": one re-orthogonalization pass recovers the
            # digits plain Gram-Schmidt loses on near-dependent columns.
            v -= q @ (q.T @ v)
            v -= q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > tol:
            retained.append(j)
            basis.append(v / norm)
        else:
            dropped.append(j)
    return retained, dropped


def ols(design, response):
    """Least squares of ``response`` on the columns of ``design``.

    Dependent columns are dropped by :func:`independent_columns` before
    solving.  ``response`` is ``(n,)`` or ``(n, m)``; an ``(n, m)`` response
    fits its ``m`` columns on the one retained design, so the drop decision
    is made once, ``coefficients`` and ``residuals`` gain a trailing axis of
    length ``m`` and ``sum_sq_residuals`` holds one sum per column.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = _response(response)
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {x.shape[0]} rows but response has {y.shape[0]}"
        )
    retained, dropped = independent_columns(x)
    kept = x[:, retained]
    coef, _, _, _ = np.linalg.lstsq(kept, y, rcond=None)
    residuals = y - kept @ coef
    if y.ndim == 1:
        ssr = float(residuals @ residuals)
    else:
        ssr = np.einsum("ij,ij->j", residuals, residuals)
    return LeastSquaresFit(
        coefficients=coef,
        residuals=residuals,
        sum_sq_residuals=ssr,
        retained_columns=retained,
        dropped_columns=dropped,
    )


def fwl_residualize(target, controls):
    """Residual of ``target`` after projecting out ``controls``.

    ``target`` is ``(n,)`` or ``(n, m)``; the residual has its shape, and
    the ``m`` columns share one fit (one drop decision) on ``controls``.
    ``controls`` may be ``None`` or have zero columns (target returned
    unchanged).  An all-zero control block projects out nothing.
    """
    y = _response(target)
    if controls is None:
        return y.copy()
    c = np.asarray(controls, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[1] == 0:
        return y.copy()
    if c.shape[0] != y.shape[0]:
        raise ValueError(
            f"controls have {c.shape[0]} rows but target has {y.shape[0]}"
        )
    try:
        fit = ols(c, y)
    except NoIdentifyingVariation:
        return y.copy()
    return fit.residuals


def _response(values):
    y = np.asarray(values, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"response must be (n,) or (n, m), got shape {y.shape}")
    return y


def demean(panel, var):
    """Cross-sectionally demean ``var``: subtract each period's mean over
    units, twice, so that column sums are zero to roundoff even for badly
    centred data.  Unit offsets stay in the result."""
    v = panel.values(var)
    centered = v - v.mean(axis=0)
    centered -= centered.mean(axis=0)
    return centered


def _two_way_dummies(n, t):
    rows = n * t
    unit = np.zeros((rows, n))
    time = np.zeros((rows, t - 1))
    for i in range(n):
        for j in range(t):
            r = i * t + j
            unit[r, i] = 1.0
            if j < t - 1:
                time[r, j] = 1.0
    return unit, time


def dummy_twfe(panel, y, x, covariates=()):
    """Coefficient on x from explicit dummy-variable least squares."""
    yv = panel.values(y).ravel()
    cols = [panel.values(x).ravel()]
    cols.extend(panel.values(c).ravel() for c in covariates)
    unit, time = _two_way_dummies(panel.n_units, panel.n_periods)
    design = np.column_stack(cols + [unit, time])
    coef, _, _, _ = np.linalg.lstsq(design, yv, rcond=None)
    return float(coef[0])


def dummy_twfe_multivariate(panel, y, xs):
    yv = panel.values(y).ravel()
    cols = [panel.values(name).ravel() for name in xs]
    unit, time = _two_way_dummies(panel.n_units, panel.n_periods)
    design = np.column_stack(cols + [unit, time])
    coef, _, _, _ = np.linalg.lstsq(design, yv, rcond=None)
    return np.array(coef[: len(xs)], dtype=float)


def dummy_fd(panel, y, x, k):
    """Stacked gap-k differences on treatment change + start-period dummies."""
    yv, xv = panel.values(y), panel.values(x)
    dy = (yv[:, k:] - yv[:, :-k]).ravel()
    dx = (xv[:, k:] - xv[:, :-k]).ravel()
    m = panel.n_periods - k
    n = panel.n_units
    period = np.zeros((n * m, m))
    for i in range(n):
        for j in range(m):
            period[i * m + j, j] = 1.0
    design = np.column_stack([dx, period])
    coef, _, _, _ = np.linalg.lstsq(design, dy, rcond=None)
    return float(coef[0])


def dummy_two_period(panel, y, x, t_label, s_label):
    """Least squares on the two periods with unit and late-period dummies.

    Each unit's mean over the two periods is subtracted first: the unit
    dummies absorb it, so lstsq loses no digits to unit offsets.
    """
    ti = panel.period_index(t_label)
    si = panel.period_index(s_label)
    n = panel.n_units

    def centred(name):
        v = panel.values(name)[:, [ti, si]]
        return (v - v.mean(axis=1, keepdims=True)).ravel()

    yv, xv = centred(y), centred(x)
    unit = np.zeros((2 * n, n))
    late = np.zeros((2 * n, 1))
    for i in range(n):
        unit[2 * i, i] = unit[2 * i + 1, i] = 1.0
        late[2 * i + 1, 0] = 1.0
    design = np.column_stack([xv, unit, late])
    coef, _, _, _ = np.linalg.lstsq(design, yv, rcond=None)
    return float(coef[0])


def dummy_2sls(panel, y, x, z):
    """Explicit two-stage least squares with unit and period dummies."""
    n, t = panel.n_units, panel.n_periods
    unit, time = _two_way_dummies(n, t)
    first = np.column_stack([panel.values(z).ravel(), unit, time])
    c1, _, _, _ = np.linalg.lstsq(first, panel.values(x).ravel(), rcond=None)
    xhat = first @ c1
    second = np.column_stack([xhat, unit, time])
    c2, _, _, _ = np.linalg.lstsq(second, panel.values(y).ravel(), rcond=None)
    return float(c2[0])


def dummy_gap_restricted(panel, y, x, k_min, k_max):
    """Stacked differences over a gap range with per-(gap, start) intercepts."""
    yv, xv = panel.values(y), panel.values(x)
    t = panel.n_periods
    rows_y, rows_x, cell_idx = [], [], []
    cell = 0
    for k in range(k_min, k_max + 1):
        dy = yv[:, k:] - yv[:, :-k]
        dx = xv[:, k:] - xv[:, :-k]
        for start in range(t - k):
            rows_y.append(dy[:, start])
            rows_x.append(dx[:, start])
            cell_idx.append(np.full(panel.n_units, cell))
            cell += 1
    ys = np.concatenate(rows_y)
    xs = np.concatenate(rows_x)
    cells = np.concatenate(cell_idx)
    dummies = np.zeros((ys.size, cell))
    dummies[np.arange(ys.size), cells] = 1.0
    design = np.column_stack([xs, dummies])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coef[0])


def pair_adjusted_slope(dy, dx, control_cols):
    """Two-step residualized pair slope; returns (beta, ssr_x)."""
    c = np.column_stack([np.ones(dy.shape[0])] + list(control_cols))
    bx, _, _, _ = np.linalg.lstsq(c, dx, rcond=None)
    rx = dx - c @ bx
    by, _, _, _ = np.linalg.lstsq(c, dy, rcond=None)
    ry = dy - c @ by
    ssr = float(rx @ rx)
    return float(rx @ ry) / ssr, ssr


def window_slope(periods, values):
    """Plain least-squares slope of values on calendar periods."""
    p = np.asarray(periods, dtype=float)
    design = np.column_stack([p, np.ones(p.size)])
    coef, _, _, _ = np.linalg.lstsq(design, np.asarray(values, float), rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# exact references: every sum in rational arithmetic, rounded once at the end


def exact_two_way(values):
    """Two-way residual of a units x periods array, as rows of Fractions.

    Each entry is the value less its unit mean and its period mean plus the
    grand mean, all exact, so the result does not depend on the order in
    which the means are removed.
    """
    rows = [[Fraction(v) for v in row] for row in np.asarray(values).tolist()]
    n, t = len(rows), len(rows[0])
    unit = [sum(row) / t for row in rows]
    period = [sum(row[j] for row in rows) / n for j in range(t)]
    grand = sum(unit) / n
    return [
        [v - unit[i] - period[j] + grand for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def exact_pair_sums(a, b):
    """``{(t, s): sum_i (a[i][s] - a[i][t]) * (b[i][s] - b[i][t])}`` over the
    period index pairs ``t < s`` of two exact units x periods arrays."""
    t_count = len(a[0])
    return {
        (t, s): sum(
            (ra[s] - ra[t]) * (rb[s] - rb[t]) for ra, rb in zip(a, b)
        )
        for t in range(t_count - 1)
        for s in range(t + 1, t_count)
    }


def exact_audit_sums(x, r, slope, base):
    """``(den, tau_sum, trend_sum)`` of ``theorem2_audit``, exactly: over
    every unit and period pair ``t < s``, the sums of ``dx·dr``,
    ``slope_s·dx·dr`` and ``((slope_s − slope_t)·x_t + base_s − base_t)·dr``,
    ``d`` the change from ``t`` to ``s``, with each float of the four
    units x periods arrays read as the rational it is."""
    den = tau_sum = trend_sum = Fraction(0)
    rows = (np.asarray(v).tolist() for v in (x, r, slope, base))
    for unit in zip(*rows):
        xi, ri, ci, bi = ([Fraction(v) for v in row] for row in unit)
        for s in range(len(xi)):
            for t in range(s):
                dr = ri[s] - ri[t]
                dxdr = (xi[s] - xi[t]) * dr
                den += dxdr
                tau_sum += ci[s] * dxdr
                trend_sum += ((ci[s] - ci[t]) * xi[t] + bi[s] - bi[t]) * dr
    return den, tau_sum, trend_sum


# ---------------------------------------------------------------------------
# stacked-row inference reference: every differenced observation is one row


class StackedRegression:
    """Single-regressor regression rows with a cluster label per row."""

    def __init__(self, response, regressor, cluster):
        self.response = np.asarray(response, dtype=float).ravel()
        self.regressor = np.asarray(regressor, dtype=float).ravel()
        self.cluster = np.asarray(cluster).ravel()
        n = self.response.shape[0]
        if self.regressor.shape[0] != n or self.cluster.shape[0] != n:
            raise ValueError(
                f"row count mismatch: response {n}, regressor "
                f"{self.regressor.shape[0]}, cluster {self.cluster.shape[0]}"
            )
        if n == 0:
            raise ValueError("stacked regression has no rows")


def stack_differences(response_matrix, regressor_matrix, cluster_ids, gaps):
    """Stack gap-difference rows of two (units x periods) matrices.

    For each gap ``k`` in ``gaps`` and each start period, one row per unit is
    emitted (gap-major, then start period, then unit), each carrying its
    unit's cluster label.
    """
    ry = np.asarray(response_matrix, dtype=float)
    rx = np.asarray(regressor_matrix, dtype=float)
    if ry.shape != rx.shape:
        raise ValueError(f"matrix shape mismatch: {ry.shape} vs {rx.shape}")
    cluster = np.asarray(cluster_ids)
    if cluster.shape[0] != ry.shape[0]:
        raise ValueError("one cluster label per unit is required")
    t = ry.shape[1]
    resp, reg, clu = [], [], []
    for k in gaps:
        if not 1 <= k <= t - 1:
            raise ValueError(f"gap {k} invalid for {t} periods")
        for start in range(t - k):
            resp.append(ry[:, start + k] - ry[:, start])
            reg.append(rx[:, start + k] - rx[:, start])
            clu.append(cluster)
    if not resp:
        raise ValueError("no gaps supplied")
    return StackedRegression(
        response=np.concatenate(resp),
        regressor=np.concatenate(reg),
        cluster=np.concatenate(clu),
    )


def stacked_se(stacked):
    """Cluster-robust SE of the pooled slope, looping over cluster labels."""
    u, v = stacked.response, stacked.regressor
    den = float(v @ v)
    e = u - float(u @ v) / den * v
    labels = sorted(set(stacked.cluster.tolist()))
    meat = 0.0
    for lab in labels:
        mask = stacked.cluster == lab
        meat += float(np.sum(v[mask] * e[mask])) ** 2
    g = len(labels)
    return float(np.sqrt(meat / den**2 * g / (g - 1.0)))


def generalized_stack(panel, y, x, control_cols_at, k_min, k_max, scheme):
    """Stacked residualized pair rows of the covariate-adjusted estimator.

    ``control_cols_at(t, s)`` gives the control columns (intercept excluded)
    of the column-index pair ``(t, s)``; every pair is assumed live.  Under
    the ``raw`` scheme each pair's rows are rescaled so their treatment
    variation equals the pair's demeaned-difference variation.
    """
    yv, xv = panel.values(y), panel.values(x)
    xt = xv - xv.mean(axis=0)
    resp, reg, clu = [], [], []
    for t in range(panel.n_periods - 1):
        for s in range(t + 1, panel.n_periods):
            if not k_min <= s - t <= k_max:
                continue
            c = np.column_stack(
                [np.ones(panel.n_units)] + list(control_cols_at(t, s))
            )
            changes = np.column_stack(
                [yv[:, s] - yv[:, t], xv[:, s] - xv[:, t]]
            )
            coef, _, _, _ = np.linalg.lstsq(c, changes, rcond=None)
            ry, rx = (changes - c @ coef).T
            if scheme == "raw":
                d = xt[:, s] - xt[:, t]
                factor = np.sqrt(float(d @ d) / float(rx @ rx))
                ry, rx = ry * factor, rx * factor
            resp.append(ry)
            reg.append(rx)
            clu.append(np.asarray(panel.cluster_id))
    return StackedRegression(
        response=np.concatenate(resp),
        regressor=np.concatenate(reg),
        cluster=np.concatenate(clu),
    )


# ---------------------------------------------------------------------------
# decomposition references: one explicit loop per gap or per period pair


def loop_fd_components(panel, y, x):
    """(gap, beta, weight) by looping over gaps of the demeaned arrays."""
    xv, yv = panel.values(x), panel.values(y)
    xt, yt = xv - xv.mean(axis=0), yv - yv.mean(axis=0)
    sums = []
    for k in range(1, panel.n_periods):
        dx = xt[:, k:] - xt[:, :-k]
        dy = yt[:, k:] - yt[:, :-k]
        sums.append((k, float(np.sum(dx * dy)), float(np.sum(dx * dx))))
    total = sum(den for _, _, den in sums)
    return [(k, num / den, den / total) for k, num, den in sums]


def loop_pair_components(panel, y, x):
    """(first, second, beta, weight) by looping over period pairs."""
    xv, yv = panel.values(x), panel.values(y)
    xt, yt = xv - xv.mean(axis=0), yv - yv.mean(axis=0)
    sums = []
    for t in range(panel.n_periods - 1):
        for s in range(t + 1, panel.n_periods):
            dx = xt[:, s] - xt[:, t]
            dy = yt[:, s] - yt[:, t]
            labels = panel.periods[t], panel.periods[s]
            sums.append((*labels, float(dx @ dy), float(dx @ dx)))
    total = sum(den for _, _, _, den in sums)
    return [(a, b, num / den, den / total) for a, b, num, den in sums]


def causal_weights_loop(panel, x, covariates=None):
    """``causal_weights`` fields with every index array spelled out.

    The library's former build: per gap, the unit, gap and start period of
    each entry by ``repeat``, ``full`` and ``tile``, joined with the
    weights by ``concatenate``.  The denominator ``T * sum(r**2)``, the
    weights and their masses, summed gap by gap, are formed as the library
    forms them, so every field is expected to match bit for bit.
    """
    r = two_way_residual(panel, x, covariates)
    xv = panel.values(x)
    den = panel.n_periods * float(np.sum(r * r))
    units, gaps, starts, weights = [], [], [], []
    total = negative = 0.0
    for k in range(1, panel.n_periods):
        w = (xv[:, k:] - xv[:, :-k]) * (r[:, k:] - r[:, :-k]) / den
        n, m = w.shape
        units.append(np.repeat(np.arange(n), m))
        gaps.append(np.full(n * m, k))
        starts.append(np.tile(np.array(panel.periods[:m]), n))
        weights.append(w.ravel())
        total += float(w.sum())
        negative += float(w[w < 0.0].sum())
    return {
        "unit_index": np.concatenate(units),
        "gap": np.concatenate(gaps),
        "start_period": np.concatenate(starts),
        "weight": np.concatenate(weights),
        "total_mass": total,
        "negative_mass": negative,
    }


# ---------------------------------------------------------------------------
# simulation reference: the panel built one period at a time


def simulate_loop(config):
    """``simulate(config)`` built one period at a time, the library's
    former loop, from the same draws in the same order."""
    rng = np.random.default_rng(config.seed)
    n, t = config.n_units, config.n_periods

    alpha = rng.normal(0.0, 1.0, n)
    gamma = rng.normal(0.0, 1.0, t)
    tau_dev = rng.normal(0.0, config.tau_unit_sd, n)
    a = rng.normal(0.0, 1.0, n)
    g = rng.normal(0.0, 1.0, t)
    w_start = rng.normal(0.0, 1.0, n)
    w_steps = rng.normal(0.0, 1.0, (n, t - 1))
    eps_draw = rng.normal(0.0, config.noise_sd, (n, t))
    nu = rng.normal(0.0, config.treatment_noise_sd, (n, t))

    slope = np.repeat((config.tau + tau_dev)[:, None], t, axis=1)

    if config.covariate_mode == "factor":
        # Unit loading times a rising deterministic profile: the covariate's
        # cross-sectional variation is one-dimensional, so each (gap, start)
        # cell's treatment-on-covariate slope is sharply defined.
        w = np.outer(w_start, np.linspace(1.0, 2.0, t))
    else:
        w = np.cumsum(np.column_stack([w_start, w_steps]), axis=1)
    c = np.linspace(config.delta_start, config.delta_end, t)
    lam = config.covariate_loading + config.loading_drift * np.linspace(
        0.0, 1.0, t
    )

    eps = np.cumsum(eps_draw, axis=1) if config.noise_walk else eps_draw

    x = np.empty((n, t))
    base = np.empty((n, t))
    y = np.empty((n, t))
    for j in range(t):
        if j == 0 or config.feedback == 0.0:
            x[:, j] = a + g[j] + nu[:, j]
            if config.uses_covariate:
                x[:, j] += c[j] * w[:, j]
        else:
            # Treatment growth responds (negatively) to the most recent
            # realized outcome change; no response exists yet at j == 1.
            adjust = (
                config.feedback * (y[:, j - 1] - y[:, j - 2]) if j >= 2 else 0.0
            )
            x[:, j] = x[:, j - 1] + nu[:, j] - adjust
        base[:, j] = alpha + gamma[j] + eps[:, j]
        if config.uses_covariate:
            base[:, j] += lam[j] * w[:, j]
        if config.effect_lag != 0.0 and j > 0:
            base[:, j] += config.effect_lag * x[:, j - 1]
        y[:, j] = base[:, j] + slope[:, j] * x[:, j]

    width = len(str(n - 1))
    units = tuple(f"u{i:0{width}d}" for i in range(n))
    series = {"y": y, "x": x}
    if config.uses_covariate:
        series["w"] = w
    panel = BalancedPanel(
        units=units, periods=tuple(range(1, t + 1)), series=series
    )
    return SimulatedPanel(
        panel=panel, config=config, baseline=base, effect_slope=slope
    )


# ---------------------------------------------------------------------------
# causal-accounting reference: one dense fit per (gap, start) cell


def audit_loop(sim, covariates=()):
    """``theorem2_audit`` fields computed with one ``ols`` call per cell.

    The totals are gap-by-gap sums over every pair's changes, the library's
    former loop; the library reads them off per-unit running sums, so they
    agree to roundoff.  ``estimate`` is the same fit's and matches bit for
    bit.
    """
    panel = sim.panel
    cov_list = list(covariates)
    fitted = twfe(panel, "y", "x", cov_list or None)
    r = two_way_residual(panel, "x", cov_list or None)
    xv = panel.values("x")
    slope, base, t = sim.effect_slope, sim.baseline, panel.n_periods
    den = tau_sum = trend_sum = 0.0
    trend_by_gap = []
    for k in range(1, t):
        dx = xv[:, k:] - xv[:, :-k]
        dr = r[:, k:] - r[:, :-k]
        den += float(np.sum(dx * dr))
        tau_sum += float(np.sum(slope[:, k:] * dx * dr))
        trend = (base[:, k:] - base[:, :-k]) + xv[:, :-k] * (
            slope[:, k:] - slope[:, :-k]
        )
        trend_sum += float(np.sum(trend * dr))
        trend_by_gap.append(trend)
    bias_sum = 0.0
    if cov_list:
        wt = np.stack([demean(panel, name) for name in cov_list], axis=-1)
        if len(cov_list) == 1:
            pooled = np.array([twfe(panel, "x", cov_list[0]).beta])
        else:
            pooled = np.asarray(twfe_multivariate(panel, "x", cov_list).beta)
        pooled_fit = wt @ pooled
        xt = demean(panel, "x")
        for k in range(1, t):
            dwt = wt[:, k:, :] - wt[:, :-k, :]
            dxt = xt[:, k:] - xt[:, :-k]
            dpooled = pooled_fit[:, k:] - pooled_fit[:, :-k]
            for start in range(dxt.shape[1]):
                try:
                    fit = ols(dwt[:, start, :], dxt[:, start])
                    projected = dxt[:, start] - fit.residuals
                except NoIdentifyingVariation:
                    projected = np.zeros(panel.n_units)
                bias_sum += float(
                    trend_by_gap[k - 1][:, start]
                    @ (projected - dpooled[:, start])
                )
    return {
        "estimate": fitted.beta,
        "tau_weighted_sum": tau_sum / den,
        "trend_term": trend_sum / den,
        "delta_bias_term": bias_sum / den,
        "identity_gap": fitted.beta - tau_sum / den - trend_sum / den,
        "denominator": den,
    }


# ---------------------------------------------------------------------------
# covariate-adjusted reference: one dense fit per period pair


def _pretrend_column(panel, cfg, t, presample):
    """``window_slope`` of each unit over ``cfg``'s window before period
    ``t``, its values looked up one period at a time in the presample and
    then the panel."""
    window = range(t + cfg.window_start_offset, t + cfg.window_end_offset + 1)
    column = []
    for unit in panel.units:
        found = []
        for source in (presample, panel):
            if source is None or cfg.variable not in source.series:
                continue
            row = source.values(cfg.variable)[source.units.index(unit)]
            found += [(p, v) for p, v in zip(source.periods, row) if p in window]
        periods, values = zip(*found)
        column.append(window_slope(periods, values))
    return np.array(column)


def generalized_loop(panel, y, x, spec, k_min, k_max, scheme, presample=None):
    """``generalized_twfe`` computed with one ``ols`` call per pair.

    Returns ``(components, estimate, se, n_degenerate)``; each component is
    ``(first, second, beta, weight, dropped_controls)``, in the library's
    anchor-major order, and the SE is cluster-robust by ``panel.cluster_id``.
    The pre-trend controls are per-unit ``window_slope`` fits, not the
    library's batched slopes.
    """
    yv, xv = panel.values(y), panel.values(x)
    xt = demean(panel, x)
    (_, raw_by_pair), _ = pair_moments(xt, xt)
    # a pair is dead when its share of the treatment variation summed over
    # all pairs is numerically zero, or its controls absorb that variation
    total = float(raw_by_pair.sum())
    n, t_count, labels = panel.n_units, panel.n_periods, panel.periods
    names = ["intercept", *spec.time_invariant, *spec.differenced] + [
        f"{c.variable}:{c.window_start_offset}:{c.window_end_offset}"
        for c in spec.pre_period
    ]
    fixed = [np.ones(n)] + [
        _time_invariant_column(panel, name) for name in spec.time_invariant
    ]
    pairs = []
    unit_cross, unit_sq = np.zeros(n), np.zeros(n)
    for ti in range(t_count - k_min):
        pretrend = [
            _pretrend_column(panel, cfg, labels[ti], presample)
            for cfg in spec.pre_period
        ]
        for si in range(ti + k_min, min(ti + k_max, t_count - 1) + 1):
            diffs = [
                panel.values(name)[:, si] - panel.values(name)[:, ti]
                for name in spec.differenced
            ]
            controls = np.column_stack(fixed + diffs + pretrend)
            changes = np.column_stack(
                [xv[:, si] - xv[:, ti], yv[:, si] - yv[:, ti]]
            )
            try:
                fit = ols(controls, changes)
                rx, ry = fit.residuals.T
                dropped = tuple(names[j] for j in fit.dropped_columns)
            except NoIdentifyingVariation:
                rx, ry = changes.T
                dropped = tuple(names)
            ssr = float(rx @ rx)
            raw_den = float(raw_by_pair[ti, si])
            degenerate = (
                raw_den <= DEGENERACY_TOL * total
                or ssr <= DEGENERACY_TOL * raw_den
            )
            beta = None if degenerate else float(rx @ ry) / ssr
            if not degenerate:
                f2 = raw_den / ssr if scheme == "raw" else 1.0
                unit_cross += f2 * (rx * ry)
                unit_sq += f2 * (rx * rx)
            basis = ssr if scheme == "ssr" else raw_den
            pairs.append((labels[ti], labels[si], beta, basis, dropped))
    total = sum(basis for _, _, beta, basis, _ in pairs if beta is not None)
    components = [
        (first, second, beta, 0.0 if beta is None else basis / total, dropped)
        for first, second, beta, basis, dropped in pairs
    ]
    estimate = sum(c[2] * c[3] for c in components if c[2] is not None)
    se = cluster_robust_se(unit_cross, unit_sq, panel.cluster_id)
    n_degenerate = sum(c[2] is None for c in components)
    return components, estimate, se, n_degenerate


def project_cells(varying, targets, tol=None):
    """The library's former ``numerics.project_cells``: its projection on
    copies of the inputs, which it leaves unchanged.

    Cell ``s`` of ``S`` has the design ``varying[:, s]``, with ``varying``
    ``(m, S, n)``, column-major; ``targets`` is ``(r, S, n)``.  A column is
    dropped when its residual norm is at most ``tol[s]``, by default
    ``RANK_TOL`` times the cell's largest column norm.  Returns the
    ``(r, S, n)`` residuals and the ``(S, m)`` mask of the columns each
    cell retains.
    """
    v, y = np.asarray(varying, dtype=float), np.asarray(targets, dtype=float)
    if v.ndim != 3 or y.ndim != 3 or y.shape[1:] != v.shape[1:] or (
        tol is not None and np.shape(tol) != v.shape[1:2]
    ):
        raise ValueError(
            f"need varying (m, S, n), targets (r, S, n) and tol (S,), got "
            f"shapes {v.shape}, {y.shape} and {np.shape(tol)}"
        )
    if tol is None:
        tol = _default_tol(v)
    residuals = y.copy()
    retained = _project_in_place(
        v.copy(), residuals, tol, np.empty(v.shape[1:])
    )
    return residuals, retained


def _sweep(design: np.ndarray, tol: np.ndarray) -> list:
    """The left-to-right sweep of ``design``'s columns under tolerances ``tol``.

    A residual norm between two tolerances splits them, so the result is a
    list of ``(indices into tol, (n, k) orthonormal basis, keep flags)``.
    """
    groups = [(np.arange(tol.size), design[:, :0], [])]
    for j in range(design.shape[1]):
        split = []
        for cells, q, kept in groups:
            col = design[:, j].copy()
            # "Twice is enough": one re-orthogonalization pass recovers the
            # digits plain Gram-Schmidt loses on near-dependent columns.
            for _ in range(2 if q.shape[1] else 0):
                col -= q @ (q.T @ col)
            norm = float(np.linalg.norm(col))
            keep = norm > tol[cells]
            if keep.any():
                basis = np.column_stack([q, col / norm])
                split.append((cells[keep], basis, kept + [True]))
            if not keep.all():
                split.append((cells[~keep], q, kept + [False]))
        groups = split
    return groups


def project_cells_shared(varying, targets, shared=None):
    """The library's former ``numerics.project_cells``, whose cells share the
    leading design block ``shared``.

    Cell ``s`` of ``S`` has the design ``[shared, *varying[:, s]]``: the
    ``(n, p0)`` block ``shared`` (or none) is common to every cell, and
    ``varying`` is ``(m, S, n)``, column-major.  ``targets`` is ``(r, S, n)``.
    Returns the ``(r, S, n)`` residuals (the targets themselves in an
    all-zero cell) and the ``(S, p0 + m)`` mask of the design columns each
    cell retains.  The shared block is swept once, by the library's former
    ``numerics._sweep``, which splits the cells into groups that keep the
    same shared columns, and taken out of each group by one product; the
    reference for ``generalized_twfe``, which takes one basis out of period
    levels, of the shared columns every cell decides alike, and leaves the
    rest to each cell's own sweep.
    """
    v, y = np.asarray(varying, dtype=float), np.asarray(targets, dtype=float)
    c = np.empty((v.shape[-1], 0)) if shared is None else np.asarray(shared, float)
    if v.ndim != 3 or y.ndim != 3 or y.shape[1:] != v.shape[1:] or (
        c.ndim != 2 or c.shape[:1] != v.shape[2:]
    ):
        raise ValueError(
            f"need varying (m, S, n), targets (r, S, n) and shared (n, p0), "
            f"got shapes {v.shape}, {y.shape} and {c.shape}"
        )
    (m, s_count, _), p0 = v.shape, c.shape[1]
    # each cell's largest column norm, the shared ones included
    shared_max = float(np.sqrt(np.einsum("ij,ij->j", c, c)).max()) if p0 else 0.0
    norms = np.sqrt(np.einsum("msn,msn->sm", v, v))
    tol = RANK_TOL * norms.max(axis=1, initial=shared_max)
    basis = v.copy()
    residuals = y.copy()
    retained = np.zeros((s_count, p0 + m), dtype=bool)
    for cells, q, kept in _sweep(c, tol) if p0 else ():
        retained[cells, :p0] = kept
        outside = np.ones(s_count, dtype=bool)
        outside[cells] = False
        # Frisch-Waugh-Lovell: one product takes the shared basis out of
        # the group's cells, twice for the columns as in the sweep; zeroed
        # coefficients leave the other cells as they are, without copies
        for block, passes in ((basis, 2), (residuals, 1)):
            for _ in range(passes):
                coef = block @ q
                coef[:, outside] = 0.0
                block -= coef @ q.T
    # the varying columns, swept per cell and vectorized across cells; each
    # column becomes its cell's next basis vector (zero when dropped)
    for j in range(m):
        col, earlier = basis[j], basis[:j]
        for _ in range(2 if j else 0):
            col -= np.einsum(
                "ls,lsn->sn", np.einsum("lsn,sn->ls", earlier, col), earlier
            )
        norm = np.sqrt(np.einsum("sn,sn->s", col, col))
        retained[:, p0 + j] = keep = norm > tol
        col *= np.divide(1.0, norm, out=np.zeros_like(norm), where=keep)[:, None]
        residuals -= np.einsum("rsn,sn->rs", residuals, col)[:, :, None] * col
    return residuals, retained


def pretrend_slopes_loop(panel, configs, anchors, presample):
    """The library's former ``generalized._pretrend_slopes``: each anchor's
    window masked out of the calendar and row-centred on its own, then one
    product per anchor.  The reference for the one-product slopes."""
    rows = None
    slopes = np.empty((len(configs), len(anchors), panel.n_units))
    for c, config in enumerate(configs):
        name = config.variable
        calendar, blocks = [], []
        if presample is not None and name in presample.series:
            if rows is None:
                rows = [presample.units.index(u) for u in panel.units]
            blocks.append(presample.values(name)[rows])
            calendar.extend(presample.periods)
        if name in panel.series:
            blocks.append(panel.values(name))
            calendar.extend(panel.periods)
        periods, values = np.array(calendar), np.hstack(blocks)
        for a, t in enumerate(anchors):
            cols = (periods >= t + config.window_start_offset) & (
                periods <= t + config.window_end_offset
            )
            window = values[:, cols]
            pc = periods[cols].astype(float)
            pc -= pc.mean()
            slopes[c, a] = (
                (window - window.mean(axis=1, keepdims=True)) @ pc
                / float(pc @ pc)
            )
    return slopes


def generalized_gap_loop(panel, y, x, spec, k_min, k_max, presample=None):
    """``generalized_twfe``'s pair slopes and drops by its former gap loop.

    Each gap's changes of the two-way residuals and of the raw differenced
    controls, with the ``pretrend_slopes_loop`` slopes, go to
    ``project_cells_shared`` with the intercept and time-invariant columns
    as the shared block.  Returns ``{(first, second): (beta,
    dropped_controls)}`` by period labels, ``beta`` NaN where the library
    calls the pair degenerate.
    """
    t_count, labels, n = panel.n_periods, panel.periods, panel.n_units
    names = ("intercept",) + spec.time_invariant + spec.differenced + tuple(
        f"{c.variable}:{c.window_start_offset}:{c.window_end_offset}"
        for c in spec.pre_period
    )
    shared = np.column_stack([np.ones(n)] + [
        _time_invariant_column(panel, name) for name in spec.time_invariant
    ])
    series = np.stack(
        [two_way_residual(panel, x).T, two_way_residual(panel, y).T]
        + [panel.values(name).T for name in spec.differenced]
    )
    total = t_count * float(np.sum(series[0] * series[0]))
    pretrend = pretrend_slopes_loop(
        panel, spec.pre_period, labels[: t_count - k_min], presample
    )
    pairs = {}
    for k in range(k_min, k_max + 1):
        changes = series[:, k:] - series[:, :-k]
        starts = t_count - k
        (rx, ry), retained = project_cells_shared(
            np.concatenate([changes[2:], pretrend[:, :starts]]),
            changes[:2],
            shared,
        )
        for s in range(starts):
            ssr, raw_den = rx[s] @ rx[s], changes[0, s] @ changes[0, s]
            live = raw_den > DEGENERACY_TOL * total and (
                ssr > DEGENERACY_TOL * raw_den
            )
            pairs[labels[s], labels[s + k]] = (
                rx[s] @ ry[s] / ssr if live else np.nan,
                tuple(name for name, kept in zip(names, retained[s])
                      if not kept),
            )
    return pairs


# ---------------------------------------------------------------------------
# I/O references: the former row-by-row CSV loader and weights-CSV rows


def _parse_time(cell, line_num):
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise PanelError(
            f"line {line_num}: time label '{cell}' is not an integer"
        ) from None
    if not value.is_integer():
        raise PanelError(
            f"line {line_num}: time label '{cell}' is not an integer"
        )
    return int(value)


def _parse_value(cell, column, line_num):
    try:
        value = float(cell)
    except ValueError:
        raise PanelError(
            f"line {line_num}: non-numeric value '{cell}' in column '{column}'"
        ) from None
    if not math.isfinite(value):
        raise PanelError(
            f"line {line_num}: non-finite value '{cell}' in column '{column}'"
        )
    return value


def load_panel_loop(
    path,
    schema: PanelSchema,
    delimiter: str = ",",
    balance: str = "error",
) -> BalancedPanel:
    """The library's former ``load_panel``: every row parsed on its own into
    a dict of cells, then an ``n_units * n_periods`` fill loop.  Kept as the
    reference for the CSV loader; same errors, same warning."""
    if balance not in ("error", "drop-units"):
        raise ValueError(
            f"balance must be 'error' or 'drop-units', got '{balance}'"
        )
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        for idx, name in enumerate(header):
            if name in positions:
                raise PanelError(f"duplicate column '{name}' in header")
            positions[name] = idx

        def column(name: str) -> int:
            if name not in positions:
                raise PanelError(
                    f"column '{name}' not found in header {header}"
                )
            return positions[name]

        unit_col = column(schema.unit)
        time_col = column(schema.time)
        cluster_col = column(schema.cluster) if schema.cluster else None
        if schema.series is None:
            reserved = {unit_col, time_col}
            if cluster_col is not None:
                reserved.add(cluster_col)
            series_names = [h for i, h in enumerate(header) if i not in reserved]
        else:
            series_names = list(schema.series)
        if not series_names:
            raise PanelError("no series columns to load")
        series_cols = [column(name) for name in series_names]

        cells: dict[tuple[str, int], list[float]] = {}
        cluster_of: dict[str, str] = {}
        for row in reader:
            line_num = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise PanelError(
                    f"line {line_num}: expected {len(header)} fields, got {len(row)}"
                )
            unit = row[unit_col].strip()
            if not unit:
                raise PanelError(f"line {line_num}: empty unit label")
            period = _parse_time(row[time_col], line_num)
            key = (unit, period)
            if key in cells:
                raise PanelError(
                    f"line {line_num}: duplicate observation for unit "
                    f"'{unit}' in period {period}"
                )
            cells[key] = [
                _parse_value(row[col], name, line_num)
                for name, col in zip(series_names, series_cols)
            ]
            if cluster_col is not None:
                label = row[cluster_col].strip()
                seen = cluster_of.setdefault(unit, label)
                if seen != label:
                    raise PanelError(
                        f"line {line_num}: cluster label for unit '{unit}' "
                        f"changed from '{seen}' to '{label}'"
                    )

    if not cells:
        raise PanelError(f"{path}: no data rows")
    all_units = sorted({u for u, _ in cells})
    observed = sorted({p for _, p in cells})
    periods = list(range(observed[0], observed[-1] + 1))
    missing_labels = sorted(set(periods) - set(observed))
    if missing_labels:
        raise PanelError(
            f"time labels must be consecutive integers; no observations "
            f"in period {missing_labels[0]}"
        )

    complete = []
    for unit in all_units:
        holes = [p for p in periods if (unit, p) not in cells]
        if not holes:
            complete.append(unit)
        elif balance == "error":
            raise PanelError(
                f"unbalanced panel: unit '{unit}' has no observation in "
                f"period {holes[0]} (use balance='drop-units' to drop "
                f"incomplete units)"
            )
    dropped = len(all_units) - len(complete)
    if dropped:
        warnings.warn(
            f"dropped {dropped} of {len(all_units)} units with incomplete "
            f"records",
            stacklevel=2,
        )
    if len(complete) < 2:
        raise PanelError(
            f"only {len(complete)} complete units remain; need at least 2"
        )

    data = {
        name: np.empty((len(complete), len(periods)))
        for name in series_names
    }
    for i, unit in enumerate(complete):
        for t, period in enumerate(periods):
            row_values = cells[(unit, period)]
            for name, value in zip(series_names, row_values):
                data[name][i, t] = value
    cluster = tuple(cluster_of[u] for u in complete) if schema.cluster else ()
    return BalancedPanel(
        units=tuple(complete),
        periods=tuple(periods),
        series=data,
        cluster_id=cluster,
    )


def write_weights_csv(path, units, report):
    """The weights CSV as the CLI formerly wrote it: ``csv.writer`` rows of
    (unit, gap, start period, weight), built per gap from ``chain``,
    ``cycle`` and ``repeat``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("unit", "gap", "start_period", "weight"))
        for k, block in report.gap_blocks():
            starts = block.shape[1]
            writer.writerows(
                zip(
                    chain.from_iterable(map(repeat, units, repeat(starts))),
                    repeat(k),
                    cycle(report.periods[:starts]),
                    block.ravel().tolist(),
                )
            )
