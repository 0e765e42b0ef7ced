"""Panel construction helpers shared across test modules."""

import numpy as np

from twfekit import BalancedPanel


def make_panel(series, first_period=1, cluster=None):
    """Build a BalancedPanel from a dict of (n, t) arrays."""
    arrays = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    n, t = next(iter(arrays.values())).shape
    return BalancedPanel(
        units=tuple(f"u{i:03d}" for i in range(n)),
        periods=tuple(range(first_period, first_period + t)),
        series=arrays,
        cluster_id=tuple(cluster) if cluster is not None else (),
    )


def random_panel(rng, n, t, dist="normal", extra_series=(), first_period=1):
    """Random panel with series 'y', 'x', and any extra names requested."""

    def draw():
        if dist == "normal":
            return rng.normal(size=(n, t))
        if dist == "uniform":
            return rng.uniform(-2.0, 2.0, size=(n, t))
        if dist == "heavy":
            return rng.standard_t(2, size=(n, t))
        raise ValueError(f"unknown dist '{dist}'")

    series = {"y": draw(), "x": draw()}
    for name in extra_series:
        series[name] = draw()
    return make_panel(series, first_period=first_period)


def write_panel_csv(path, panel, unit_col="unit", time_col="year", order=None):
    """Write a panel to long CSV; ``order`` permutes the data rows."""
    names = list(panel.series)
    rows = []
    for i, unit in enumerate(panel.units):
        for j, period in enumerate(panel.periods):
            rows.append(
                [unit, str(period)]
                + [repr(float(panel.series[name][i, j])) for name in names]
            )
    if order is not None:
        rows = [rows[k] for k in order]
    with open(path, "w") as handle:
        handle.write(",".join([unit_col, time_col] + names) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
    return path


ADVERSARIAL_KINDS = ("unit offsets", "t(2) tails", "random walk", "T=2", "N=2")


def adversarial_panel(kind, seed=7):
    """Panel with series y, x, w of one of ``ADVERSARIAL_KINDS``."""
    rng = np.random.default_rng([seed, len(kind)])
    n, t = {"T=2": (9, 2), "N=2": (2, 6)}.get(kind, (25, 7))

    def draw():
        if kind == "t(2) tails":
            return rng.standard_t(2, size=(n, t))
        if kind == "random walk":
            return np.cumsum(rng.normal(size=(n, t)), axis=1)
        return rng.normal(size=(n, t))

    series = {"y": draw(), "x": draw(), "w": draw()}
    if kind == "unit offsets":
        # unit effects 1e4 times the within-unit variation
        for name in series:
            series[name] = series[name] + 1e4 * rng.normal(size=(n, 1))
    return make_panel(series)
