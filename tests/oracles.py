"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the package's closed-form paths:
designs are materialized with explicit unit and period indicator columns
and solved with numpy's lstsq, so agreement with the library's demeaned-sum
formulas is a genuine two-route check, not a tautology.  The exception is
``audit_loop``, which keeps the library's former per-cell ``ols`` loop as
the reference for the batched audit.
"""

import numpy as np

from twfekit import NoIdentifyingVariation, ols, twfe, twfe_multivariate
from twfekit.estimators import two_way_residual
from twfekit.panel import demean


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
    ti = panel.period_index(t_label)
    si = panel.period_index(s_label)
    n = panel.n_units
    yv = panel.values(y)[:, [ti, si]].ravel()
    xv = panel.values(x)[:, [ti, si]].ravel()
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


# ---------------------------------------------------------------------------
# causal-accounting reference: one dense fit per (gap, start) cell


def audit_loop(sim, covariates=()):
    """``theorem2_audit`` fields computed with one ``ols`` call per cell.

    The gap sums are formed exactly as the library forms them, so every
    field but ``delta_bias_term`` (and ``residual_gap``, which depends on
    it) is expected to match bit for bit.
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
