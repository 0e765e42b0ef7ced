"""Simulation scenarios with known effects, and causal-weight accounting.

The estimand question behind the two-way estimator is *whose* treatment
changes it averages, and with what sample weights.  This module provides:

``causal_weights``
    the observation-level weights ``w_ikt`` attached to each realized
    gap-``k`` treatment change, computed from the residualized treatment;
    they sum to one by construction but need not be nonnegative.
``simulate`` / ``scenario_preset``
    a configurable data-generating process with per-observation effect
    slopes, so every simulated panel knows its own potential outcomes.
``theorem2_audit``
    an exact accounting that splits the fitted estimate into the
    causal-weighted sum of realized effects plus an untreated-trend term,
    and (with covariates) a further slope-heterogeneity bias component.

Scenario presets
----------------
``parallel_trends``      constant effect, independent noise: the benchmark
                         where the estimator is consistent for the effect.
``heterogeneous_tau``    unit-specific effect sizes; the estimate becomes a
                         weighted average of them.
``time_varying_delta``   treatment loads on a covariate with a time-varying
                         coefficient, so adjusting with a single pooled
                         coefficient leaves a bias the audit isolates.
``reverse_causality``    treatment growth responds to lagged outcome
                         changes while untreated noise is persistent;
                         short-gap comparisons stay clean, long gaps drift.
``dynamic_effects``      outcomes also load on last period's treatment,
                         breaking the static-effect accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NoIdentifyingVariation
from .estimators import (
    DEGENERACY_TOL,
    _variation_scale,
    twfe,
    twfe_multivariate,
    two_way_residual,
)
from .numerics import project_cells
from .panel import BalancedPanel, demean


@dataclass(frozen=True)
class DgpConfig:
    """Knobs of the simulated data-generating process.

    The outcome is ``y_it = base_it + slope_it * x_it`` where ``base`` is the
    untreated outcome and ``slope`` the per-observation effect of current
    treatment.  Defaults give the parallel-trends benchmark: additive unit
    and period effects on both sides, constant effect ``tau``, independent
    Gaussian noise everywhere.
    """

    n_units: int = 200
    n_periods: int = 5
    tau: float = 2.0
    tau_unit_sd: float = 0.0
    tau_time_drift: float = 0.0
    unit_effect_sd: float = 1.0
    time_effect_sd: float = 1.0
    treatment_noise_sd: float = 1.0
    noise_sd: float = 1.0
    noise_walk: bool = False
    covariate_mode: str = "walk"
    covariate_loading: float = 0.0
    loading_drift: float = 0.0
    delta_start: float = 0.0
    delta_end: float = 0.0
    feedback: float = 0.0
    effect_lag: float = 0.0
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.n_units < 2:
            raise ValueError(f"n_units must be at least 2, got {self.n_units}")
        if self.n_periods < 2:
            raise ValueError(
                f"n_periods must be at least 2, got {self.n_periods}"
            )
        if self.covariate_mode not in ("walk", "factor"):
            raise ValueError(
                f"covariate_mode must be 'walk' or 'factor', got "
                f"'{self.covariate_mode}'"
            )
        for name in (
            "tau_unit_sd",
            "unit_effect_sd",
            "time_effect_sd",
            "treatment_noise_sd",
            "noise_sd",
        ):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    @property
    def uses_covariate(self) -> bool:
        return (
            self.covariate_loading != 0.0
            or self.loading_drift != 0.0
            or self.delta_start != 0.0
            or self.delta_end != 0.0
        )


SCENARIOS = {
    "parallel_trends": {},
    "heterogeneous_tau": {"tau_unit_sd": 1.0},
    "time_varying_delta": {
        "covariate_mode": "factor",
        "covariate_loading": 1.0,
        "loading_drift": 1.5,
        "delta_start": 0.5,
        "delta_end": 2.5,
    },
    "reverse_causality": {
        "feedback": 0.3,
        "noise_walk": True,
        "treatment_noise_sd": 0.5,
        "n_periods": 6,
    },
    "dynamic_effects": {"effect_lag": 1.0},
}


def scenario_preset(name: str, **overrides) -> DgpConfig:
    """Named scenario configuration, with keyword overrides applied on top."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario '{name}'; choose from {sorted(SCENARIOS)}"
        )
    settings = dict(SCENARIOS[name])
    settings.update(overrides)
    return DgpConfig(**settings)


@dataclass(frozen=True)
class SimulatedPanel:
    """A simulated panel that knows its own potential outcomes.

    ``baseline[i, t]`` is the untreated outcome (current treatment set to
    zero, everything else — including any realized lagged-treatment term —
    held at its realized value); ``effect_slope[i, t]`` is the effect of
    current treatment, so ``y = baseline + effect_slope * x``.
    """

    panel: BalancedPanel
    config: DgpConfig
    baseline: np.ndarray
    effect_slope: np.ndarray

    def potential_outcome(self, treatment: np.ndarray) -> np.ndarray:
        """Outcome matrix had current treatment been ``treatment`` everywhere."""
        return self.baseline + self.effect_slope * np.asarray(treatment, dtype=float)


def simulate(config: DgpConfig) -> SimulatedPanel:
    """Draw one panel from the configured process.

    All randomness is drawn up front from a single generator seeded with
    ``config.seed``, then the panel is assembled deterministically, so a
    fixed seed gives bit-identical output.
    """
    rng = np.random.default_rng(config.seed)
    n, t = config.n_units, config.n_periods

    alpha = rng.normal(0.0, config.unit_effect_sd, n)
    gamma = rng.normal(0.0, config.time_effect_sd, t)
    tau_dev = rng.normal(0.0, config.tau_unit_sd, n)
    a = rng.normal(0.0, 1.0, n)
    g = rng.normal(0.0, 1.0, t)
    w_start = rng.normal(0.0, 1.0, n)
    w_steps = rng.normal(0.0, 1.0, (n, t - 1))
    eps_draw = rng.normal(0.0, config.noise_sd, (n, t))
    nu = rng.normal(0.0, config.treatment_noise_sd, (n, t))

    drift = (
        config.tau_time_drift * np.linspace(0.0, 1.0, t)
        if t > 1
        else np.zeros(t)
    )
    slope = (config.tau + tau_dev)[:, None] + drift[None, :]

    if config.covariate_mode == "factor":
        # Unit loading times a rising deterministic profile: the covariate's
        # cross-sectional variation is one-dimensional, so each (gap, start)
        # cell's treatment-on-covariate slope is sharply defined.
        w = np.outer(w_start, np.linspace(1.0, 2.0, t))
    else:
        w = np.empty((n, t))
        w[:, 0] = w_start
        for j in range(1, t):
            w[:, j] = w[:, j - 1] + w_steps[:, j - 1]
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


def simulate_replication(config: DgpConfig, index: int) -> SimulatedPanel:
    """Replication ``index`` of a study: an independent stream derived from
    ``(config.seed, index)``, so replications never share draws."""
    base_seed = config.seed if isinstance(config.seed, tuple) else (config.seed,)
    return simulate(replace(config, seed=base_seed + (int(index),)))


@dataclass
class CausalWeightReport:
    """Observation-level weights on realized treatment changes.

    Entry ``j`` says: the gap-``gap[j]`` treatment change of unit
    ``unit_index[j]`` starting in period ``start_period[j]`` receives weight
    ``weight[j]`` in the estimate's causal accounting.  ``total_mass`` is
    their sum (one up to roundoff); ``negative_mass`` is the summed weight
    below zero, reported as-is — a large magnitude warns that the estimate
    places substantial negative weight on some realized changes.
    """

    unit_index: np.ndarray
    gap: np.ndarray
    start_period: np.ndarray
    weight: np.ndarray
    total_mass: float
    negative_mass: float
    denominator: float


def causal_weights(
    panel: BalancedPanel,
    y: str,
    x: str,
    covariates: Sequence[str] | None = None,
) -> CausalWeightReport:
    """Weights the two-way estimate places on each realized treatment change.

    The weight of observation ``(i, k, t)`` is the product of the raw
    gap-``k`` treatment change and the same change of the *residualized*
    treatment, normalized by the total over all observations.  ``y`` is
    accepted for interface symmetry but does not enter the weights.
    """
    del y  # weights depend only on the treatment design
    r = two_way_residual(panel, x, covariates)
    xv = panel.values(x)
    t = panel.n_periods
    units, gaps, starts, products = [], [], [], []
    for k in range(1, t):
        dx = xv[:, k:] - xv[:, :-k]
        dr = r[:, k:] - r[:, :-k]
        prod = dx * dr
        n, m = prod.shape
        units.append(np.repeat(np.arange(n), m))
        gaps.append(np.full(n * m, k))
        starts.append(np.tile(np.array(panel.periods[:m]), n))
        products.append(prod.ravel())
    flat = np.concatenate(products)
    den = float(flat.sum())
    scale = _variation_scale(panel, x)
    if scale == 0.0 or den <= DEGENERACY_TOL * scale:
        raise NoIdentifyingVariation(
            f"no identifying variation in '{x}' after the two-way "
            f"transformation"
        )
    weights = flat / den
    return CausalWeightReport(
        unit_index=np.concatenate(units),
        gap=np.concatenate(gaps),
        start_period=np.concatenate(starts),
        weight=weights,
        total_mass=float(weights.sum()),
        negative_mass=float(weights[weights < 0.0].sum()),
        denominator=den,
    )


@dataclass
class Theorem2Audit:
    """Exact accounting of a fitted estimate against simulated ground truth.

    ``estimate = tau_weighted_sum + trend_term`` holds to roundoff
    (``identity_gap`` reports the discrepancy).  With covariates,
    ``trend_term`` is further split into ``delta_bias_term`` — the part
    attributable to gap-specific treatment-covariate slopes differing from
    the pooled slope — and ``residual_gap``, the remainder.
    """

    estimate: float
    tau_weighted_sum: float
    trend_term: float
    delta_bias_term: float
    residual_gap: float
    identity_gap: float
    denominator: float


def theorem2_audit(
    sim: SimulatedPanel, covariates: Sequence[str] | None = None
) -> Theorem2Audit:
    """Split the fitted two-way estimate into causal and bias components.

    Needs simulated data: the decomposition evaluates potential outcomes,
    which real panels do not carry.

    One loop over gaps accumulates every term.  With covariates, each gap
    projects the treatment change of all its (gap, start) cells onto their
    covariate changes in one :func:`~twfekit.numerics.project_cells` sweep,
    under the same left-to-right drop rule as ``numerics.ols``, so extra
    memory stays O(N·T·m) for ``m`` covariates.
    """
    if not isinstance(sim, SimulatedPanel):
        raise TypeError(
            "theorem2_audit needs a SimulatedPanel (ground truth required); "
            "got a bare panel"
        )
    panel = sim.panel
    cov_list = list(covariates) if covariates else []
    fitted = twfe(panel, "y", "x", cov_list or None)
    r = two_way_residual(panel, "x", cov_list or None)
    xv = panel.values("x")
    slope = sim.effect_slope
    base = sim.baseline
    t = panel.n_periods

    if cov_list:
        wt = np.stack([demean(panel, name) for name in cov_list], axis=-1)
        if len(cov_list) == 1:
            pooled = np.array([twfe(panel, "x", cov_list[0]).beta])
        else:
            pooled = np.asarray(twfe_multivariate(panel, "x", cov_list).beta)
        pooled_fit = wt @ pooled
        xt = demean(panel, "x")

    den = 0.0
    tau_sum = 0.0
    trend_sum = 0.0
    bias_sum = 0.0
    for k in range(1, t):
        dx = xv[:, k:] - xv[:, :-k]
        dr = r[:, k:] - r[:, :-k]
        den += float(np.sum(dx * dr))
        tau_sum += float(np.sum(slope[:, k:] * dx * dr))
        # Untreated drift of the observation pair: how the potential outcome
        # at the start-period treatment level moves from t to t+k.
        trend = (base[:, k:] - base[:, :-k]) + xv[:, :-k] * (
            slope[:, k:] - slope[:, :-k]
        )
        trend_sum += float(np.sum(trend * dr))
        if cov_list:
            # Split the trend term: every (gap, start) cell's
            # treatment-on-covariate projection is compared with the pooled
            # (two-way) projection; cells whose projection drifts from the
            # pooled one load the untreated trend onto the estimate.
            projected, _ = project_cells(
                wt[:, k:, :] - wt[:, :-k, :], xt[:, k:] - xt[:, :-k]
            )
            dpooled = pooled_fit[:, k:] - pooled_fit[:, :-k]
            bias_sum += float(np.sum(trend * (projected - dpooled)))
    scale = _variation_scale(panel, "x")
    if scale == 0.0 or den <= DEGENERACY_TOL * scale:
        raise NoIdentifyingVariation(
            "no identifying variation in 'x' after the two-way transformation"
        )

    tau_weighted_sum = tau_sum / den
    trend_term = trend_sum / den
    identity_gap = fitted.beta - tau_weighted_sum - trend_term
    delta_bias = bias_sum / den

    return Theorem2Audit(
        estimate=fitted.beta,
        tau_weighted_sum=tau_weighted_sum,
        trend_term=trend_term,
        delta_bias_term=delta_bias,
        residual_gap=trend_term - delta_bias,
        identity_gap=identity_gap,
        denominator=den,
    )
