"""Simulation scenarios with known effects, and causal-weight accounting.

The estimand question behind the two-way estimator is *whose* treatment
changes it averages, and with what sample weights.  This module provides:

``causal_weights``
    the observation-level weights ``w_ikt`` attached to each realized
    gap-``k`` treatment change; the report stores the treatment and its
    two-way residual, and forms the weights gap by gap when they are read.
    They sum to one by construction but need not be nonnegative.
``simulate`` / ``scenario_preset``
    a configurable data-generating process with per-observation effect
    slopes, so every simulated panel knows its own potential outcomes.
``theorem2_audit``
    an exact accounting that splits the fitted estimate into the
    causal-weighted sum of realized effects plus an untreated-trend term,
    and (with covariates) a further slope-heterogeneity bias component.
    Its totals are read off per-unit running sums in O(N·T); only the
    covariate bias split loops over gaps.

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

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .estimators import _residuals, _twfe_fit
from .numerics import _default_tol, _project_in_place
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
        for name in ("n_units", "n_periods"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        many = isinstance(self.seed, tuple)
        seeds = tuple(_integer(s, "seed") for s in (self.seed if many else [self.seed]))
        if any(s < 0 for s in seeds):
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        object.__setattr__(self, "seed", seeds if many else seeds[0])
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        w = np.cumsum(np.column_stack([w_start, w_steps]), axis=1)
    c = np.linspace(config.delta_start, config.delta_end, t)
    lam = config.covariate_loading + config.loading_drift * np.linspace(
        0.0, 1.0, t
    )

    eps = np.cumsum(eps_draw, axis=1) if config.noise_walk else eps_draw

    # whole-array terms, each element formed by the same operations in the
    # same order as a period-by-period build
    x = a[:, None] + g + nu
    base = alpha[:, None] + gamma + eps
    if config.uses_covariate:
        x += c * w
        base += lam * w
    if config.feedback == 0.0:
        if config.effect_lag != 0.0:
            base[:, 1:] += config.effect_lag * x[:, :-1]
        y = base + slope * x
    else:
        # Treatment growth responds (negatively) to the most recent realized
        # outcome change, so periods after the first are built in order; no
        # response exists yet at j == 1.
        y = np.empty((n, t))
        y[:, 0] = base[:, 0] + slope[:, 0] * x[:, 0]
        for j in range(1, t):
            adjust = (
                config.feedback * (y[:, j - 1] - y[:, j - 2]) if j >= 2 else 0.0
            )
            x[:, j] = x[:, j - 1] + nu[:, j] - adjust
            if config.effect_lag != 0.0:
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
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return simulate(replace(config, seed=base_seed + (index,)))


@dataclass(eq=False)
class CausalWeightReport:
    """Observation-level weights on realized treatment changes.

    Only the treatment ``x``, its two-way residual ``r`` (both read-only
    ``(n_units, T)`` arrays, the panel's own) and the ``denominator`` are
    stored; :meth:`gap_blocks` forms each gap's weights when it reaches
    that gap.  Read as flat arrays,
    entry ``j`` says: the gap-``gap[j]`` change of unit ``unit_index[j]``
    starting in period ``start_period[j]`` receives weight ``weight[j]``,
    entries running gap by gap, then unit by unit, then start by start; the
    four are built on first read and then kept.  ``total_mass`` is the
    weights' sum (one up to roundoff); ``negative_mass`` is the summed weight
    below zero, reported as-is — a large magnitude warns that the estimate
    places substantial negative weight on some realized changes.  Both come
    from one pass over the blocks.
    """

    x: np.ndarray
    r: np.ndarray
    denominator: float
    periods: tuple[int, ...]

    n_units = property(lambda self: self.x.shape[0])

    def gap_blocks(self):
        """``(k, block)`` per gap: ``block[i, j]``, of ``(n_units, T - k)``,
        is ``(x[i, j + k] - x[i, j]) * (r[i, j + k] - r[i, j]) / denominator``,
        the weight of unit ``i``'s gap-``k`` change starting in
        ``periods[j]``; each call forms the blocks anew."""
        x, r, den = self.x, self.r, self.denominator
        for k in range(1, len(self.periods)):
            yield k, (x[:, k:] - x[:, :-k]) * (r[:, k:] - r[:, :-k]) / den

    @cached_property
    def weight(self) -> np.ndarray:
        return np.concatenate([block.ravel() for _, block in self.gap_blocks()])

    @cached_property
    def _layout(self) -> list[np.ndarray]:
        # the (gap, unit row, start period) of each entry, gap by gap
        periods, units = np.asarray(self.periods), np.arange(self.n_units)[:, None]
        blocks = [
            np.broadcast_arrays(k, units, periods[:-k]) for k in range(1, len(periods))
        ]
        return [np.concatenate([a.ravel() for a in col]) for col in zip(*blocks)]

    gap = property(lambda self: self._layout[0])
    unit_index = property(lambda self: self._layout[1])
    start_period = property(lambda self: self._layout[2])

    @cached_property
    def _masses(self) -> tuple[float, float]:
        total = negative = 0.0
        for _, block in self.gap_blocks():
            total += float(block.sum())
            negative += float(block[block < 0.0].sum())
        return total, negative

    total_mass = property(lambda self: self._masses[0])
    negative_mass = property(lambda self: self._masses[1])


def causal_weights(
    panel: BalancedPanel,
    y: str,
    x: str,
    covariates: Sequence[str] | None = None,
) -> CausalWeightReport:
    """Weights the two-way estimate places on each realized treatment change.

    The weight of observation ``(i, k, t)`` is the product of the raw
    gap-``k`` treatment change and the same change of the *residualized*
    treatment ``r``, normalized by the total over all observations, which is
    ``T * sum(r**2)``: each unit's residuals sum to zero over its periods, so
    its changes give ``T`` times its ``sum(x * r)``, and ``x - r`` is
    orthogonal to ``r``.  The report keeps ``x`` and ``r`` and forms the
    weights when they are read.  ``r`` is the ``x`` residual of the two-way
    fit of ``y`` on ``x`` that :func:`~twfekit.estimators.twfe` reads, so
    ``y`` is fitted with ``x`` and checked, as by every estimate, though it
    does not enter the weights.
    """
    r, _, den, _ = _twfe_fit(panel, y, x, covariates)
    return CausalWeightReport(
        x=panel.values(x), r=r, denominator=panel.n_periods * den,
        periods=panel.periods,
    )


#: Most values per array in one projection of ``theorem2_audit``'s bias
#: split: the cells of consecutive gaps are projected together up to this
#: many (cells times units), and a gap with more cells alone.  At most twice
#: numpy's 8192-value iterator buffer, so grouped cells have at most 8192
#: units each, where their residuals match a call of their own to the bit;
#: at 200 units x 29 periods, 16384 was slower than 8192.
AUDIT_PROJECTION_VALUES = 8192


def _projected_drifts(cells: np.ndarray):
    """Yield, for gaps ``k = 1, ..., T - 1`` in turn, ``k`` and the
    ``(T - k, N)`` residuals of each gap-``k`` cell's treatment change on
    its covariate changes, from the period-major ``cells`` (x first).  It
    decides the groups: consecutive gaps share one projection, made when
    the first is reached, as long as their cells fit
    :data:`AUDIT_PROJECTION_VALUES` together; a gap with more has its own.
    Each group's stack of changes is built for its projection alone, so
    ``numerics._project_in_place`` sweeps it in place, under
    ``numerics._default_tol``'s tolerances, and is released before the next
    group's is built, once the caller drops the residuals it was handed."""
    n_periods, n = cells.shape[1:]
    k = 1
    while k < n_periods:
        stop, width = k + 1, n_periods - k
        while stop < n_periods and (
            (width + n_periods - stop) * n <= AUDIT_PROJECTION_VALUES
        ):
            width += n_periods - stop
            stop += 1
        changes = np.empty((len(cells), width, n))
        lo = 0
        for g in range(k, stop):
            hi = lo + n_periods - g
            np.subtract(cells[:, g:], cells[:, :-g], out=changes[:, lo:hi])
            lo = hi
        _project_in_place(
            changes[1:], changes[:1], _default_tol(changes[1:]),
            np.empty(changes.shape[1:]),
        )
        drift = changes[0]
        lo = 0
        for g in range(k, stop):
            yield g, drift[lo : lo + n_periods - g]
            lo += n_periods - g
        # freed before the next group's stack is built
        del changes, drift
        k = stop


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


def _before(values: np.ndarray) -> np.ndarray:
    """Exclusive running sums down the periods of a period-major array:
    row ``s`` is the sum of rows ``t < s``, and row 0 is zero."""
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(values[:-1], axis=0, out=out[1:])
    return out


def _audit_totals(x, r, slope, base) -> tuple[float, float, float]:
    """``(den, tau_sum, trend_sum)``: the audit's three sums over every
    pair ``t < s`` of each unit, of ``dx·dr``, ``slope_s·dx·dr`` and
    ``((slope_s − slope_t)·x_t + base_s − base_t)·dr``, ``d`` the change
    from ``t`` to ``s``, from period-major ``(T, N)`` arrays in O(N·T).

    With ``a`` the unit-demeaned ``x``, whose changes are those of ``x``,
    and exclusive running sums ``A``, ``R`` and ``P`` of ``a``, ``r`` and
    ``a·r``, a unit's pairs ending at ``s`` sum ``da·dr`` to
    ``s·a_s·r_s − a_s·R_s − r_s·A_s + P_s``.  Over all of a unit's pairs,
    ``Σ du·dr = T·Σ u·r − Σu·Σr``, and each unit's residuals sum to zero:
    ``den`` and the baseline part of the trend are ``T·Σ ũ·r``, ``ũ`` the
    unit-demeaned ``u``, which keeps unit offsets out of the products.  The
    effect-drift part is that sum for ``u = c·x``, ``c`` the unit-demeaned
    slope, less ``Σ c_s·da·dr``, since
    ``(c_s − c_t)·x_t = c_s·x_s − c_t·x_t − c_s·(x_s − x_t)``.
    """
    t = len(x)
    a = x - x.mean(axis=0)
    ar = a * r
    den = t * float(ar.sum())
    # Σ_{t<s} da·dr, unit by unit, at each period s
    pair = _before(ar)
    pair -= a * _before(r)
    pair -= r * _before(a)
    ar *= np.arange(t, dtype=float)[:, None]
    pair += ar
    # products summed by np.sum, pairwise, not as a dot: the baseline part
    # sums period effects against residuals that cancel across units
    tau_sum = float((slope * pair).sum())
    c = slope - slope.mean(axis=0)
    drift = t * float((c * x * r).sum()) - float((c * pair).sum())
    trend_sum = drift + t * float(((base - base.mean(axis=0)) * r).sum())
    return den, tau_sum, trend_sum


def theorem2_audit(
    sim: SimulatedPanel, covariates: Sequence[str] | None = None
) -> Theorem2Audit:
    """Split the fitted two-way estimate into causal and bias components.

    Needs simulated data: the decomposition evaluates potential outcomes,
    which real panels do not carry.

    The denominator and the tau and trend sums, each over every unit's
    period pairs, are read off per-unit running sums in O(N·T)
    (:func:`_audit_totals`).  A loop over gaps serves only the bias split.
    With covariates, the treatment change of every (gap, start) cell is
    projected onto its covariate changes by the sweep of the package's one
    projection, ``numerics._project_in_place``, which drops a covariate
    collinear with earlier ones in a cell.  The loop reads each gap's
    residuals from :func:`_projected_drifts`, which decides the
    groups: the cells of consecutive gaps share one call, made when the
    group's first gap is reached, up to :data:`AUDIT_PROJECTION_VALUES`
    values per array; a gap with more cells than that has a call of its
    own.  So extra memory stays O(N·T·m) for ``m`` covariates, and a
    group's cells have at most half that many units, below the 8192-value
    buffer of numpy's iterator, where each cell's residuals are the same to
    the bit as from a call of their own.
    """
    if not isinstance(sim, SimulatedPanel):
        raise TypeError(
            "theorem2_audit needs a SimulatedPanel (ground truth required); "
            "got a bare panel"
        )
    panel = sim.panel
    # twfe(panel, "y", "x", covariates)'s fit, whose x residual the
    # accounting uses
    r, _, _, estimate = _twfe_fit(panel, "y", "x", covariates)
    # period-major copies: each gap's changes below are contiguous blocks
    xT, rT, slopeT, baseT = (
        np.ascontiguousarray(v.T)
        for v in (panel.values("x"), r, sim.effect_slope, sim.baseline)
    )
    den, tau_sum, trend_sum = _audit_totals(xT, rT, slopeT, baseT)

    bias_sum = 0.0
    if covariates:
        # period-major two-way residuals of x and the covariates: each
        # gap's cells are contiguous (S, n) blocks for the projection, and
        # their changes are the period-demeaned changes, unit means cancelling
        cells = np.ascontiguousarray(
            _residuals(panel, ["x", *covariates]).transpose(0, 2, 1)
        )
        for k, drift in _projected_drifts(cells):
            # Split the trend term: every (gap, start) cell's
            # treatment-on-covariate projection is compared with the pooled
            # (two-way) projection; cells whose projection drifts from the
            # pooled one load the untreated trend onto the estimate.
            # projected minus pooled change: (change - drift) - (change - dr),
            # since the pooled projection of x is x less its residual r, up
            # to unit means, which cancel in period differences
            dr = rT[k:] - rT[:-k]
            np.subtract(dr, drift, out=drift)
            # Untreated drift of the observation pair: how the potential
            # outcome at the start-period treatment level moves from t to
            # t+k.  Each change is formed before it is added, since the
            # baseline may carry large unit offsets.
            trend = slopeT[k:] - slopeT[:-k]
            trend *= xT[:-k]
            np.subtract(baseT[k:], baseT[:-k], out=dr)
            trend += dr
            bias_sum += float(np.vdot(trend, drift))
            # freed before the next group's projection builds its stack
            del dr, trend, drift

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
