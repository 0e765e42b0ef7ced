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
from functools import cached_property
from typing import Sequence

import numpy as np

from .estimators import _require_variation, _twfe_fit, two_way_residual
from .numerics import project_cells
from .panel import BalancedPanel, _integer


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
        for name in ("tau_unit_sd", "treatment_noise_sd", "noise_sd"):
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


def simulate(config: DgpConfig) -> SimulatedPanel:
    """Draw one panel from the configured process.

    All randomness is drawn up front from a single generator seeded with
    ``config.seed``, then the panel is assembled deterministically, so a
    fixed seed gives bit-identical output.
    """
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
    index = _integer(index, "index")
    return simulate(replace(config, seed=base_seed + (index,)))


def _gap_blocks(flat: np.ndarray, n: int, t: int):
    """``(k, block)`` per gap ``k``: the ``(n, T - k)`` views of ``flat``
    when it holds its entries gap by gap, then unit by unit, then start by
    start."""
    offset = 0
    for k in range(1, t):
        size = n * (t - k)
        yield k, flat[offset : offset + size].reshape(n, t - k)
        offset += size


@dataclass(eq=False)
class CausalWeightReport:
    """Observation-level weights on realized treatment changes.

    Entry ``j`` says: the gap-``gap[j]`` treatment change of unit
    ``unit_index[j]`` starting in period ``start_period[j]`` receives weight
    ``weight[j]`` in the estimate's causal accounting.  Entries run gap by
    gap, then unit by unit, then start by start.  ``total_mass`` is their
    sum (one up to roundoff); ``negative_mass`` is the summed weight below
    zero, reported as-is — a large magnitude warns that the estimate places
    substantial negative weight on some realized changes.

    Only ``weight`` is stored: ``unit_index``, ``gap`` and ``start_period``
    follow from the panel's shape (``n_units`` and ``periods``), and are
    computed on first access.
    """

    weight: np.ndarray
    total_mass: float
    negative_mass: float
    denominator: float
    n_units: int
    periods: tuple[int, ...]

    def gap_blocks(self):
        """``(k, block)`` per gap, where ``block`` is the ``(n_units, T - k)``
        view of ``weight`` with ``block[i, j]`` the weight of unit ``i``'s
        gap-``k`` change starting in ``periods[j]``."""
        return _gap_blocks(self.weight, self.n_units, len(self.periods))

    @cached_property
    def gap(self) -> np.ndarray:
        return np.repeat(*self._gap_sizes())

    @property
    def unit_index(self) -> np.ndarray:
        return self._unit_and_start[0]

    @property
    def start_period(self) -> np.ndarray:
        return self._unit_and_start[1]

    def _gap_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """The gaps ``1..T-1`` and their entry counts ``n_units * (T - k)``."""
        t = len(self.periods)
        gaps = np.arange(1, t)
        return gaps, self.n_units * (t - gaps)

    @cached_property
    def _unit_and_start(self) -> tuple[np.ndarray, np.ndarray]:
        # each entry's offset in its gap block is (unit row, start column)
        _, sizes = self._gap_sizes()
        offset = np.arange(self.weight.size) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        unit, start = np.divmod(offset, len(self.periods) - self.gap)
        return unit, np.asarray(self.periods)[start]


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
    n, t = xv.shape
    # each gap's dx * dr, written in place into its block of the flat array
    flat = np.empty(n * t * (t - 1) // 2)
    for k, block in _gap_blocks(flat, n, t):
        np.subtract(xv[:, k:], xv[:, :-k], out=block)
        block *= r[:, k:] - r[:, :-k]
    den = float(flat.sum())
    _require_variation(den, panel, x)
    flat /= den
    return CausalWeightReport(
        weight=flat,
        total_mass=float(flat.sum()),
        negative_mass=float(flat[flat < 0.0].sum()),
        denominator=den,
        n_units=n,
        periods=panel.periods,
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
    which drops a covariate collinear with earlier ones in a cell, so extra
    memory stays O(N·T·m) for ``m`` covariates.
    """
    if not isinstance(sim, SimulatedPanel):
        raise TypeError(
            "theorem2_audit needs a SimulatedPanel (ground truth required); "
            "got a bare panel"
        )
    panel = sim.panel
    cov_list = list(covariates) if covariates else []
    # twfe(panel, "y", "x", covariates), whose x residual the accounting uses
    r, _, _, estimate = _twfe_fit(panel, "y", "x", cov_list or None)
    xv = panel.values("x")
    slope = sim.effect_slope
    base = sim.baseline
    t = panel.n_periods

    if cov_list:
        # period-major two-way residuals of x and the covariates: each
        # gap's cells are contiguous (S, n) blocks for project_cells, and
        # their changes are the period-demeaned changes, unit means cancelling
        cells = np.stack(
            [two_way_residual(panel, name).T for name in ["x"] + cov_list]
        )

    den = 0.0
    tau_sum = 0.0
    trend_sum = 0.0
    bias_sum = 0.0
    for k in range(1, t):
        dr = r[:, k:] - r[:, :-k]
        # one gap-sized buffer, which keeps the peak memory down, holds dx,
        # then slope * dx * dr, then the trend
        gap = xv[:, k:] - xv[:, :-k]
        den += float(np.sum(gap * dr))
        gap *= slope[:, k:]
        gap *= dr
        tau_sum += float(gap.sum())
        # Untreated drift of the observation pair: how the potential outcome
        # at the start-period treatment level moves from t to t+k.
        trend = np.subtract(slope[:, k:], slope[:, :-k], out=gap)
        trend *= xv[:, :-k]
        trend += base[:, k:] - base[:, :-k]
        trend_sum += float(np.sum(trend * dr))
        if cov_list:
            # Split the trend term: every (gap, start) cell's
            # treatment-on-covariate projection is compared with the pooled
            # (two-way) projection; cells whose projection drifts from the
            # pooled one load the untreated trend onto the estimate.
            changes = cells[:, k:] - cells[:, :-k]
            (drift,), _ = project_cells(changes[1:], changes[:1])
            # projected minus pooled change: (change - drift) - (change - dr),
            # since the pooled projection of x is x less its residual r, up
            # to unit means, which cancel in period differences
            np.subtract(dr.T, drift, out=drift)
            bias_sum += float(np.einsum("is,si->", trend, drift))
    _require_variation(den, panel, "x")

    tau_weighted_sum = tau_sum / den
    trend_term = trend_sum / den
    identity_gap = estimate - tau_weighted_sum - trend_term
    delta_bias = bias_sum / den

    return Theorem2Audit(
        estimate=estimate,
        tau_weighted_sum=tau_weighted_sum,
        trend_term=trend_term,
        delta_bias_term=delta_bias,
        residual_gap=trend_term - delta_bias,
        identity_gap=identity_gap,
        denominator=den,
    )
