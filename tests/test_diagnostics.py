import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twfekit import (
    BalancedPanel,
    DgpConfig,
    GapRange,
    NoIdentifyingVariation,
    PanelError,
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
from twfekit import diagnostics, estimators, numerics
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
        for name in ("tau", "noise_sd", "feedback", "delta_end"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    DgpConfig(**{name: value})

    def test_seed_validation(self):
        for seed in (-1, (3, -2)):
            with pytest.raises(ValueError, match="^seed must be non-negative"):
                DgpConfig(seed=seed)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            DgpConfig(seed=(3, 2.5))
        # integers by the package rule, as n_units and n_periods
        assert DgpConfig(seed=2.0).seed == 2
        assert DgpConfig(seed=(3, np.int64(4))).seed == (3, 4)
        with pytest.raises(ValueError, match="^index must be non-negative"):
            simulate_replication(DgpConfig(), -1)

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

    def test_unknown_outcome_raises(self, rng):
        # y does not enter the weights, but is read as by every estimate
        panel = make_panel({"y": rng.normal(size=(6, 3)),
                            "x": rng.normal(size=(6, 3))})
        with pytest.raises(PanelError, match="unknown series 'z'"):
            causal_weights(panel, "z", "x")


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
        # the covariate split projects the cells of consecutive gaps
        # together, up to AUDIT_PROJECTION_VALUES values per array, never
        # one fit per (gap, start) cell; the two-way residuals of x and y
        # add a fixed number of calls outside the gap loop
        calls = []

        def counted_in(module, name):
            kernel = getattr(numerics, name)

            def counted(varying, targets, *args):
                calls.append((module, np.shape(varying)[1]))
                return kernel(varying, targets, *args)
            return counted

        for module, name in ((diagnostics, "_project_in_place"),
                             (estimators, "_project_in_place")):
            monkeypatch.setattr(module, name, counted_in(module, name))
        budget = diagnostics.AUDIT_PROJECTION_VALUES
        n = 50
        other_calls = []
        for t in (4, 12, 29):
            cfg = scenario_preset("time_varying_delta", n_units=n,
                                  n_periods=t)
            sim = simulate(cfg)
            calls.clear()
            theorem2_audit(sim, covariates=["w"])
            widths = [w for module, w in calls if module is diagnostics]
            other_calls.append(len(calls) - len(widths))
            # every cell once, in calls of whole consecutive gaps (gap k has
            # T - k cells), each within the budget unless a gap alone is not
            assert sum(widths) == t * (t - 1) // 2
            gaps = iter(range(1, t))
            groups = []
            for width in widths:
                group = [t - next(gaps)]
                while sum(group) < width:
                    group.append(t - next(gaps))
                assert sum(group) == width
                assert width * n <= budget or len(group) == 1
                groups.append(group)
            # a group ends only where the next gap would pass the budget
            for group, after in zip(groups, groups[1:]):
                assert (sum(group) + after[0]) * n > budget
            assert len(widths) < t - 1
        assert other_calls[0] > 0
        assert other_calls == [other_calls[0]] * 3

    @pytest.mark.parametrize("n, t", [(50, 29), (3, 40), (4096, 3), (9000, 3)])
    def test_grouping_keeps_every_bit(self, monkeypatch, n, t):
        # each cell's projection is the same to the bit however the gaps
        # are grouped: one call per gap, the default budget, or as many
        # gaps as fit a large one
        cfg = scenario_preset("time_varying_delta", n_units=n, n_periods=t,
                              seed=5)
        sim = simulate(cfg)
        panel = sim.panel
        series = dict(panel.series, v=panel.series["w"] ** 2 + sim.baseline)
        sim = replace(sim, panel=BalancedPanel(
            units=panel.units, periods=panel.periods, series=series))
        audits = []
        for budget in (0, diagnostics.AUDIT_PROJECTION_VALUES, 8192 * 2):
            monkeypatch.setattr(diagnostics, "AUDIT_PROJECTION_VALUES", budget)
            audits.append(theorem2_audit(sim, covariates=["w", "v"]))
        assert audits[0] == audits[1] == audits[2]

    def test_later_projections_start_no_higher(self, monkeypatch):
        # each group's stack of changes is released before the next group's
        # is built, so no later projection of the bias split starts with
        # more traced memory than the first, whose stack is the widest (the
        # 29 cells of gap 1 against at most 16 per later group)
        cfg = scenario_preset("time_varying_delta", n_units=500,
                              n_periods=30, seed=1)
        sim = simulate(cfg)
        kernel = diagnostics._project_in_place
        starts = []

        def recording(*args):
            starts.append(tracemalloc.get_traced_memory()[0])
            return kernel(*args)

        monkeypatch.setattr(diagnostics, "_project_in_place", recording)
        tracemalloc.start()
        try:
            theorem2_audit(sim, covariates=["w"])
        finally:
            tracemalloc.stop()
        assert len(starts) > 2
        assert max(starts[1:]) <= starts[0]

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
