import numpy as np
import pytest

from twfekit import (
    DgpConfig,
    GapRange,
    NoIdentifyingVariation,
    SCENARIOS,
    causal_weights,
    fd_decomposition,
    gap_restricted,
    scenario_preset,
    simulate,
    simulate_replication,
    theorem2_audit,
    twfe,
)
from twfekit import numerics
from helpers import make_panel


class TestDgpConfig:
    def test_defaults(self):
        cfg = DgpConfig()
        assert cfg.n_units == 200
        assert cfg.n_periods == 5
        assert cfg.tau == 2.0
        assert not cfg.uses_covariate

    def test_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(n_units=1)
        with pytest.raises(ValueError):
            DgpConfig(n_periods=1)
        with pytest.raises(ValueError):
            DgpConfig(noise_sd=-0.5)
        with pytest.raises(ValueError):
            DgpConfig(covariate_mode="sine")

    def test_uses_covariate(self):
        assert DgpConfig(covariate_loading=1.0).uses_covariate
        assert DgpConfig(delta_start=0.5, delta_end=0.5).uses_covariate
        assert DgpConfig(loading_drift=1.0).uses_covariate

    def test_scenario_names(self):
        assert set(SCENARIOS) == {
            "parallel_trends",
            "heterogeneous_tau",
            "time_varying_delta",
            "reverse_causality",
            "dynamic_effects",
        }

    def test_preset_overrides(self):
        cfg = scenario_preset("heterogeneous_tau", n_units=50, seed=9)
        assert cfg.tau_unit_sd == 1.0
        assert cfg.n_units == 50
        assert cfg.seed == 9
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_preset("placebo")


class TestSimulate:
    def test_deterministic(self):
        cfg = scenario_preset("parallel_trends", n_units=30, seed=7)
        a = simulate(cfg)
        b = simulate(cfg)
        for name in a.panel.series:
            np.testing.assert_array_equal(
                a.panel.values(name), b.panel.values(name)
            )
        np.testing.assert_array_equal(a.baseline, b.baseline)
        np.testing.assert_array_equal(a.effect_slope, b.effect_slope)

    def test_replication_streams(self):
        cfg = scenario_preset("parallel_trends", n_units=20, seed=3)
        r0 = simulate_replication(cfg, 0)
        r0_again = simulate_replication(cfg, 0)
        r1 = simulate_replication(cfg, 1)
        np.testing.assert_array_equal(
            r0.panel.values("y"), r0_again.panel.values("y")
        )
        assert not np.array_equal(
            r0.panel.values("y"), r1.panel.values("y")
        )

    def test_panel_shape_and_labels(self):
        sim = simulate(DgpConfig(n_units=12, n_periods=4, seed=1))
        assert sim.panel.n_units == 12
        assert sim.panel.periods == (1, 2, 3, 4)
        assert sim.panel.units[0] == "u00"
        assert set(sim.panel.series) >= {"y", "x"}

    def test_outcome_identity(self):
        # y is exactly baseline + slope * x, by construction
        sim = simulate(scenario_preset("heterogeneous_tau", n_units=25, seed=4))
        y = sim.panel.values("y")
        x = sim.panel.values("x")
        np.testing.assert_allclose(
            y, sim.baseline + sim.effect_slope * x, rtol=0, atol=1e-12
        )

    def test_zero_noise_recovers_tau_exactly(self):
        cfg = DgpConfig(n_units=40, n_periods=5, noise_sd=0.0, seed=11)
        sim = simulate(cfg)
        beta = twfe(sim.panel, "y", "x").beta
        assert abs(beta - cfg.tau) < 1e-10

    def test_constant_tau_slope(self):
        sim = simulate(DgpConfig(n_units=10, seed=2))
        assert np.all(sim.effect_slope == 2.0)
        het = simulate(scenario_preset("heterogeneous_tau", n_units=10, seed=2))
        assert het.effect_slope.std() > 0

    def test_covariate_present_only_when_used(self):
        plain = simulate(DgpConfig(n_units=5, seed=0))
        assert "w" not in plain.panel.series
        cov = simulate(
            DgpConfig(n_units=5, covariate_loading=1.0, seed=0)
        )
        assert "w" in cov.panel.series


class TestCausalWeights:
    def test_mass_normalizes_to_one(self, rng):
        for seed in range(5):
            sim = simulate(DgpConfig(n_units=30, n_periods=4, seed=seed))
            report = causal_weights(sim.panel, "y", "x")
            assert abs(report.total_mass - 1.0) < 1e-12
            assert abs(report.weight.sum() - 1.0) < 1e-12

    def test_negative_mass_consistent(self):
        sim = simulate(DgpConfig(n_units=50, n_periods=5, seed=8))
        report = causal_weights(sim.panel, "y", "x")
        want = float(report.weight[report.weight < 0].sum())
        assert report.negative_mass == pytest.approx(want, abs=1e-15)
        assert report.negative_mass <= 0.0

    def test_row_indexing(self):
        n, t = 7, 4
        sim = simulate(DgpConfig(n_units=n, n_periods=t, seed=5))
        report = causal_weights(sim.panel, "y", "x")
        # one row per (unit, gap, start) combination
        expected = n * sum(t - k for k in range(1, t))
        assert report.weight.shape[0] == expected
        assert report.unit_index.min() == 0
        assert report.unit_index.max() == n - 1
        assert set(report.gap) == {1, 2, 3}
        assert report.start_period.min() == 1

    def test_weights_ignore_outcome(self):
        sim = simulate(DgpConfig(n_units=20, n_periods=4, seed=6))
        x = sim.panel.values("x")
        rng = np.random.default_rng(0)
        a = make_panel({"y": rng.normal(size=x.shape), "x": x})
        b = make_panel({"y": rng.normal(size=x.shape), "x": x})
        ra = causal_weights(a, "y", "x")
        rb = causal_weights(b, "y", "x")
        np.testing.assert_array_equal(ra.weight, rb.weight)

    def test_degenerate_treatment(self, rng):
        n, t = 6, 3
        additive = rng.normal(size=(n, 1)) + rng.normal(size=(1, t))
        panel = make_panel({"y": rng.normal(size=(n, t)), "x": additive})
        with pytest.raises(NoIdentifyingVariation):
            causal_weights(panel, "y", "x")


class TestTheorem2Audit:
    def test_requires_simulated_panel(self, rng):
        panel = make_panel({"y": rng.normal(size=(4, 3)),
                            "x": rng.normal(size=(4, 3))})
        with pytest.raises(TypeError, match="SimulatedPanel"):
            theorem2_audit(panel)

    def test_identity_exact_per_replication(self):
        cfg = scenario_preset("parallel_trends", n_units=100)
        for r in range(10):
            sim = simulate_replication(cfg, r)
            audit = theorem2_audit(sim)
            scale = max(1.0, abs(audit.estimate))
            assert abs(audit.identity_gap) < 1e-12 * scale
            recomposed = audit.tau_weighted_sum + audit.trend_term
            assert abs(audit.estimate - recomposed) < 1e-12 * scale

    def test_trend_split_adds_up(self):
        cfg = scenario_preset("time_varying_delta", n_units=200)
        sim = simulate(cfg)
        audit = theorem2_audit(sim, covariates=["w"])
        assert audit.trend_term == pytest.approx(
            audit.delta_bias_term + audit.residual_gap, abs=1e-12
        )

    def test_rank_sweeps_do_not_grow_with_periods(self, monkeypatch):
        # every ols fit runs one rank sweep; the covariate split must not
        # add one fit per (gap, start) cell
        sweep = numerics.independent_columns
        counts = []

        def counted(design):
            counts[-1] += 1
            return sweep(design)

        monkeypatch.setattr(numerics, "independent_columns", counted)
        per_audit = []
        for t in (4, 12, 29):
            cfg = scenario_preset("time_varying_delta", n_units=50,
                                  n_periods=t)
            sim = simulate(cfg)
            counts.append(0)
            theorem2_audit(sim, covariates=["w"])
            per_audit.append(counts[-1])
        assert per_audit[0] > 0
        assert per_audit == [per_audit[0]] * 3

    def test_constant_tau_sum_is_exact(self):
        # with a constant effect slope, the weighted tau sum collapses to
        # tau times the total weight mass, which is 1
        cfg = scenario_preset("parallel_trends", n_units=80)
        sim = simulate_replication(cfg, 3)
        audit = theorem2_audit(sim)
        assert abs(audit.tau_weighted_sum - cfg.tau) < 1e-10

    def test_noise_free_estimate_is_tau_sum(self):
        cfg = DgpConfig(n_units=60, n_periods=5, noise_sd=0.0,
                        tau_unit_sd=1.0, seed=13)
        sim = simulate(cfg)
        audit = theorem2_audit(sim)
        assert abs(audit.estimate - audit.tau_weighted_sum) < 1e-10
        assert abs(audit.trend_term) < 1e-10


class TestScenarioBehaviour:
    """Monte Carlo checks that each preset produces its designed failure.

    Thresholds leave a margin of several Monte Carlo standard errors around
    values measured at much larger replication counts.
    """

    def test_parallel_trends_unbiased(self):
        cfg = scenario_preset("parallel_trends", n_units=400)
        betas = [
            twfe(simulate_replication(cfg, r).panel, "y", "x").beta
            for r in range(40)
        ]
        assert abs(np.mean(betas) - cfg.tau) < 0.02

    def test_time_varying_delta_bias_accounted(self):
        cfg = scenario_preset("time_varying_delta", n_units=1000)
        trend, bias, resid = [], [], []
        for r in range(40):
            audit = theorem2_audit(
                simulate_replication(cfg, r), covariates=["w"]
            )
            trend.append(audit.trend_term)
            bias.append(audit.delta_bias_term)
            resid.append(audit.residual_gap)
            assert abs(audit.identity_gap) < 1e-12
        # measured at R=40: trend 0.038 (se 0.0025), bias 0.039 (se 0.0008),
        # residual -0.001 (se 0.0024)
        assert np.mean(trend) > 0.02
        assert np.mean(bias) > 0.02
        assert abs(np.mean(resid)) < 0.015

    def test_constant_delta_shows_no_bias_term(self):
        cfg = DgpConfig(
            n_units=1000, covariate_mode="factor", covariate_loading=1.0,
            loading_drift=1.5, delta_start=1.5, delta_end=1.5, seed=0,
        )
        bias = [
            theorem2_audit(
                simulate_replication(cfg, r), covariates=["w"]
            ).delta_bias_term
            for r in range(40)
        ]
        # measured: mean 0.0008 (se 0.0004)
        assert abs(np.mean(bias)) < 0.005

    def test_reverse_causality_short_gaps_win(self):
        cfg = scenario_preset("reverse_causality")
        t = cfg.n_periods
        wins = 0
        short_err, long_err = [], []
        for r in range(40):
            panel = simulate_replication(cfg, r).panel
            short = gap_restricted(panel, "y", "x", GapRange(1, 2)).beta
            long = gap_restricted(panel, "y", "x", GapRange(t - 2, t - 1)).beta
            es, el = abs(short - cfg.tau), abs(long - cfg.tau)
            wins += es < el
            short_err.append(es)
            long_err.append(el)
        # measured: 40/40 wins, mean errors 0.31 vs 0.96
        assert wins >= 35
        assert np.mean(short_err) < np.mean(long_err)

    def test_dynamic_effects_gap_profile(self):
        # with an iid treatment and a one-period lagged effect, the gap-1
        # difference slope is tau - lag/2 while longer gaps estimate tau
        cfg = scenario_preset("dynamic_effects", n_units=400)
        profile = {k: [] for k in range(1, cfg.n_periods)}
        for r in range(30):
            dec = fd_decomposition(
                simulate_replication(cfg, r).panel, "y", "x"
            )
            for comp in dec.components:
                profile[comp.gap].append(comp.beta)
        assert abs(np.mean(profile[1]) - 1.5) < 0.1
        for k in (2, 3, 4):
            assert abs(np.mean(profile[k]) - 2.0) < 0.1
