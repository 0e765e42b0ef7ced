import numpy as np
import pytest

import oracles
import twfekit.generalized
import twfekit.numerics
from helpers import make_panel, random_panel
from twfekit import (
    BalancedPanel,
    CovariateSpec,
    GapRange,
    NoIdentifyingVariation,
    PanelError,
    PretrendConfig,
    fd,
    gap_restricted,
    generalized_twfe,
    pretrend_covariate,
    twfe,
)


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestGapRestricted:
    def test_full_range_equals_twfe(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            t = int(rng.integers(2, 10))
            panel = random_panel(rng, n, t)
            got = gap_restricted(panel, "y", "x", GapRange(1, t - 1)).beta
            want = twfe(panel, "y", "x").beta
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_single_gap_equals_fd(self, rng):
        for _ in range(8):
            t = int(rng.integers(3, 9))
            panel = random_panel(rng, int(rng.integers(3, 20)), t)
            for k in range(1, t):
                got = gap_restricted(panel, "y", "x", GapRange(k, k)).beta
                want = fd(panel, "y", "x", k).beta
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_matches_dummy_oracle(self, rng):
        for _ in range(8):
            t = int(rng.integers(4, 9))
            panel = random_panel(rng, int(rng.integers(4, 20)), t)
            k_min = int(rng.integers(1, t - 1))
            k_max = int(rng.integers(k_min, t))
            got = gap_restricted(panel, "y", "x", GapRange(k_min, k_max)).beta
            want = oracles.dummy_gap_restricted(panel, "y", "x", k_min, k_max)
            assert rel_gap(got, want) < 1e-8

    def test_range_validation(self, rng):
        panel = random_panel(rng, 5, 4)
        with pytest.raises(ValueError, match="exceeds"):
            gap_restricted(panel, "y", "x", GapRange(1, 4))
        with pytest.raises(ValueError):
            GapRange(0, 2)
        with pytest.raises(ValueError):
            GapRange(3, 2)

    def test_se_available(self, rng):
        panel = random_panel(rng, 20, 6)
        est = gap_restricted(panel, "y", "x", GapRange(2, 4), se=True)
        assert est.se > 0


class TestPretrendCovariate:
    def _presample(self, rng, panel, periods):
        values = rng.normal(size=(panel.n_units, len(periods)))
        return make_panel(
            {"w": values}, first_period=periods[0]
        )

    def test_slope_matches_window_fit(self, rng):
        n, t = 6, 5
        panel = random_panel(rng, n, t, first_period=2000,
                             extra_series=("w",))
        presample = make_panel(
            {"w": rng.normal(size=(n, 20))}, first_period=1980
        )
        config = PretrendConfig(
            variable="w", window_start_offset=-10, window_end_offset=-3
        )

        def lookup(i, p):
            # window values come from the panel when inside its range,
            # otherwise from the pre-sample
            if p >= 2000:
                return panel.values("w")[i, p - 2000]
            return presample.values("w")[i, p - 1980]

        for t_label in panel.periods:
            column = pretrend_covariate(panel, config, t_label, presample)
            window = [t_label + off for off in range(-10, -2)]
            for i in range(n):
                vals = [lookup(i, p) for p in window]
                want = oracles.window_slope(window, vals)
                assert abs(column[i] - want) < 1e-10 * max(1.0, abs(want))

    def test_presample_units_shuffled_superset(self, rng):
        n = 6
        panel = random_panel(rng, n, 4, first_period=2000,
                             extra_series=("w",))
        extra = ("v000", "v001", "v002")
        pre_units = list(panel.units + extra)
        rng.shuffle(pre_units)
        presample = BalancedPanel(
            units=tuple(pre_units),
            periods=tuple(range(1988, 2000)),
            series={"w": rng.normal(size=(len(pre_units), 12))},
        )
        pre_row = {u: i for i, u in enumerate(presample.units)}
        config = PretrendConfig(
            variable="w", window_start_offset=-7, window_end_offset=-2
        )
        for t_label in panel.periods:
            column = pretrend_covariate(panel, config, t_label, presample)
            window = list(range(t_label - 7, t_label - 1))
            for i, unit in enumerate(panel.units):
                vals = [
                    panel.values("w")[i, p - 2000] if p >= 2000
                    else presample.values("w")[pre_row[unit], p - 1988]
                    for p in window
                ]
                want = oracles.window_slope(window, vals)
                assert abs(column[i] - want) < 1e-10 * max(1.0, abs(want))

    def test_partial_window_under_min_points(self, rng):
        n = 5
        panel = random_panel(rng, n, 4, first_period=2000,
                             extra_series=("w",))
        presample = make_panel(
            {"w": rng.normal(size=(n, 4))}, first_period=1996
        )
        config = PretrendConfig(
            variable="w", window_start_offset=-8, window_end_offset=-3,
            min_points=4,
        )
        # window 1995..2000: 1995 is missing, 1996..1999 from the
        # presample and 2000 from the panel
        column = pretrend_covariate(panel, config, 2003, presample)
        found = list(range(1996, 2001))
        for i in range(n):
            vals = list(presample.values("w")[i]) + [panel.values("w")[i, 0]]
            want = oracles.window_slope(found, vals)
            assert abs(column[i] - want) < 1e-10 * max(1.0, abs(want))
        # window 1993..1998 holds only 1996..1998
        with pytest.raises(PanelError, match="only 3 of 4 required periods"):
            pretrend_covariate(panel, config, 2001, presample)

    def test_short_window_error(self, rng):
        n = 4
        panel = random_panel(rng, n, 3, first_period=2000)
        presample = make_panel(
            {"w": rng.normal(size=(n, 4))}, first_period=1996
        )
        config = PretrendConfig(
            variable="w", window_start_offset=-8, window_end_offset=-3
        )
        with pytest.raises(PanelError, match="only 2 of 6 required periods"):
            pretrend_covariate(panel, config, 2000, presample)

    def test_min_points_relaxes_requirement(self, rng):
        n = 4
        panel = random_panel(rng, n, 3, first_period=2000)
        presample = make_panel(
            {"w": rng.normal(size=(n, 4))}, first_period=1996
        )
        config = PretrendConfig(
            variable="w",
            window_start_offset=-8,
            window_end_offset=-3,
            min_points=2,
        )
        column = pretrend_covariate(panel, config, 2000, presample)
        assert column.shape == (n,)
        assert np.isfinite(column).all()

    def test_variable_only_in_panel(self, rng):
        # a presample that lacks the variable: its window is the panel's
        n = 5
        panel = random_panel(rng, n, 8, first_period=2000,
                             extra_series=("z",))
        presample = make_panel(
            {"w": rng.normal(size=(n, 10))}, first_period=1990
        )
        config = PretrendConfig("z", -4, -2)
        np.testing.assert_array_equal(
            pretrend_covariate(panel, config, 2006, presample),
            pretrend_covariate(panel, config, 2006),
        )
        # next to a presample-backed control, whose windows before the
        # anchors 2000 and 2001 are whole, the panel-only one is judged by
        # its window, which the pairs anchored at the first period lack
        spec = CovariateSpec(pre_period=(PretrendConfig("w", -6, -2), config))
        with pytest.raises(
            PanelError,
            match="pre-trend window before period 2000: only 0 of 3",
        ):
            generalized_twfe(
                panel, "y", "x", spec, GapRange(6, 7), presample=presample
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PretrendConfig(variable="w", window_start_offset=-2,
                           window_end_offset=-5)
        with pytest.raises(ValueError):
            PretrendConfig(variable="w", window_start_offset=-5,
                           window_end_offset=0)
        with pytest.raises(ValueError):
            PretrendConfig(variable="w", window_start_offset=-5,
                           window_end_offset=-3, min_points=1)
        with pytest.raises(ValueError):
            PretrendConfig(variable="w", window_start_offset=-5,
                           window_end_offset=-3, min_points=9)
        cfg = PretrendConfig(variable="w")
        assert cfg.window_length == 10


class TestGeneralizedTwfe:
    @pytest.mark.parametrize("field", ["time_invariant", "differenced"])
    def test_spec_rejects_a_bare_string(self, field):
        # a string would be read as its characters, one control each
        with pytest.raises(TypeError, match=f"^{field} .*'emp'"):
            CovariateSpec(**{field: "emp"})
        assert getattr(CovariateSpec(**{field: ["emp"]}), field) == ("emp",)

    @pytest.mark.parametrize(
        "pre_period",
        ["w:-4:-2", PretrendConfig("w", -4, -2), ["w:-4:-2"],
         (PretrendConfig("w", -4, -2), ("w", -4, -2))],
        ids=["string", "lone config", "string entry", "tuple entry"],
    )
    def test_spec_rejects_pre_period_that_is_not_configs(self, pre_period):
        # a string would be read as one entry per character, and a lone
        # config is not a sequence of them
        with pytest.raises(TypeError, match="^pre_period "):
            CovariateSpec(pre_period=pre_period)

    def test_spec_keeps_pre_period_configs(self):
        configs = [PretrendConfig("w", -4, -2), PretrendConfig("v")]
        assert CovariateSpec(pre_period=configs).pre_period == tuple(configs)
        assert CovariateSpec().pre_period == ()

    def test_empty_spec_reduces_to_twfe(self, rng):
        for scheme in ("ssr", "raw"):
            for _ in range(6):
                t = int(rng.integers(2, 8))
                panel = random_panel(rng, int(rng.integers(3, 20)), t)
                result = generalized_twfe(
                    panel, "y", "x",
                    gap_range=GapRange(1, t - 1),
                    spec=CovariateSpec(),
                    weight_scheme=scheme,
                )
                want = twfe(panel, "y", "x").beta
                got = result.estimate.beta
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_restricted_empty_spec_matches_gap_restricted(self, rng):
        panel = random_panel(rng, 15, 7)
        result = generalized_twfe(
            panel, "y", "x", gap_range=GapRange(2, 4),
            spec=CovariateSpec(), weight_scheme="raw",
        )
        want = gap_restricted(panel, "y", "x", GapRange(2, 4)).beta
        assert abs(result.estimate.beta - want) < 1e-10 * max(1.0, abs(want))

    def test_pair_slopes_match_residualized_oracle(self, rng):
        n, t = 25, 5
        panel = random_panel(rng, n, t, extra_series=("v",))
        w = np.broadcast_to(rng.normal(size=(n, 1)), (n, t)).copy()
        series = {name: panel.values(name) for name in ("y", "x", "v")}
        series["w"] = w
        panel = make_panel(series)
        spec = CovariateSpec(time_invariant=("w",), differenced=("v",))
        result = generalized_twfe(
            panel, "y", "x", gap_range=GapRange(1, t - 1), spec=spec,
        )
        w0 = panel.values("w")[:, 0]
        for comp in result.decomposition.components:
            ti = panel.period_index(comp.first)
            si = panel.period_index(comp.second)
            dy = panel.values("y")[:, si] - panel.values("y")[:, ti]
            dx = panel.values("x")[:, si] - panel.values("x")[:, ti]
            dv = panel.values("v")[:, si] - panel.values("v")[:, ti]
            want_beta, want_ssr = oracles.pair_adjusted_slope(
                dy, dx, [w0, dv]
            )
            assert rel_gap(comp.beta, want_beta) < 1e-8
            assert comp.n_controls == 2

    def test_ssr_weights_match_oracle_aggregation(self, rng):
        n, t = 30, 4
        panel = random_panel(rng, n, t, extra_series=("v",))
        spec = CovariateSpec(differenced=("v",))
        result = generalized_twfe(
            panel, "y", "x", gap_range=GapRange(1, 3), spec=spec,
            weight_scheme="ssr",
        )
        ssrs = []
        betas = []
        for comp in result.decomposition.components:
            ti = panel.period_index(comp.first)
            si = panel.period_index(comp.second)
            dy = panel.values("y")[:, si] - panel.values("y")[:, ti]
            dx = panel.values("x")[:, si] - panel.values("x")[:, ti]
            dv = panel.values("v")[:, si] - panel.values("v")[:, ti]
            beta, ssr = oracles.pair_adjusted_slope(dy, dx, [dv])
            ssrs.append(ssr)
            betas.append(beta)
        ssrs = np.array(ssrs)
        betas = np.array(betas)
        want = float((ssrs / ssrs.sum()) @ betas)
        got = result.estimate.beta
        assert rel_gap(got, want) < 1e-8
        weights = np.array([c.weight for c in result.decomposition.components])
        assert np.abs(weights - ssrs / ssrs.sum()).max() < 1e-8

    def test_weights_sum_to_one_both_schemes(self, rng):
        n, t = 12, 6
        base = random_panel(rng, n, t)
        series = {
            "y": base.values("y"),
            "x": base.values("x"),
            "w": np.broadcast_to(rng.normal(size=(n, 1)), (n, t)).copy(),
        }
        panel = make_panel(series)
        for scheme in ("ssr", "raw"):
            result = generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 5),
                spec=CovariateSpec(time_invariant=("w",)),
                weight_scheme=scheme,
            )
            weights = np.array(
                [c.weight for c in result.decomposition.components]
            )
            assert (weights >= 0).all()
            assert abs(weights.sum() - 1.0) < 1e-12
            blended = sum(
                c.weight * c.beta
                for c in result.decomposition.components
                if c.beta is not None
            )
            assert rel_gap(blended, result.estimate.beta) < 1e-10

    def test_pretrend_covariate_adjustment(self, rng):
        n, t = 20, 4
        panel = random_panel(rng, n, t, first_period=2000)
        presample = make_panel(
            {"w": rng.normal(size=(n, 15))}, first_period=1985
        )
        ptc = PretrendConfig(
            variable="w", window_start_offset=-9, window_end_offset=-3
        )
        spec = CovariateSpec(pre_period=(ptc,))
        result = generalized_twfe(
            panel, "y", "x", gap_range=GapRange(1, 3), spec=spec,
            presample=presample,
        )
        # oracle: residualize each pair on intercept + the slope column
        # evaluated at the earlier period of the pair
        for comp in result.decomposition.components:
            ti = panel.period_index(comp.first)
            si = panel.period_index(comp.second)
            dy = panel.values("y")[:, si] - panel.values("y")[:, ti]
            dx = panel.values("x")[:, si] - panel.values("x")[:, ti]
            slope_col = pretrend_covariate(panel, ptc, comp.first, presample)
            want, _ = oracles.pair_adjusted_slope(dy, dx, [slope_col])
            assert rel_gap(comp.beta, want) < 1e-8
            assert comp.n_controls == 1

    def test_one_kernel_call_per_gap(self, rng, monkeypatch):
        n, t = 15, 6
        base = random_panel(rng, n, t, first_period=2000,
                            extra_series=("v",))
        series = {name: base.values(name) for name in ("y", "x", "v")}
        series["w"] = np.broadcast_to(rng.normal(size=(n, 1)), (n, t)).copy()
        panel = make_panel(series, first_period=2000)
        presample = make_panel(
            {"v": rng.normal(size=(n, 10))}, first_period=1990
        )
        spec = CovariateSpec(
            time_invariant=("w",),
            differenced=("v",),
            pre_period=(PretrendConfig("v", -6, -2),),
        )
        original = twfekit.generalized._project_in_place
        sweep = twfekit.generalized._sweep
        stacks = []
        sweeps = []
        layouts = []
        arrays = []

        def counting_kernel(varying, targets, tol, scratch):
            stacks.append((varying.shape, targets.shape, np.shape(tol)))
            layouts.append(
                (varying.flags.c_contiguous, targets.flags.c_contiguous)
            )
            arrays.extend((varying, targets))
            return original(varying, targets, tol, scratch)

        def counting_sweep(design, tol):
            sweeps.append((design.shape, tol.shape))
            return sweep(design, tol)

        monkeypatch.setattr(twfekit.generalized, "_project_in_place",
                            counting_kernel)
        monkeypatch.setattr(twfekit.generalized, "_sweep", counting_sweep)
        result = generalized_twfe(
            panel, "y", "x", spec=spec, gap_range=GapRange(2, 4),
            presample=presample,
        )
        assert len(result.decomposition.components) == 9
        # one stack per gap: all its start periods, the differenced and
        # pre-trend columns varying, one tolerance per pair, no shared block
        assert stacks == [
            ((2, t - k, n), (2, t - k, n), (t - k,)) for k in (2, 3, 4)
        ]
        # the intercept and w, swept once for all nine pairs
        assert sweeps == [((n, 2), (9,))]
        # each gap's stacks are period-major: contiguous (start, unit) blocks
        assert layouts == [(True, True)] * 3
        # ... and views of one workspace, reused by every gap
        assert all(np.shares_memory(a, arrays[0].base) for a in arrays)

    def test_collinear_control_reported_per_pair(self, rng):
        n, t = 20, 5
        base = random_panel(rng, n, t, extra_series=("v",))
        series = {name: base.values(name) for name in ("y", "x", "v")}
        rural = (rng.random((n, 1)) < 0.4).astype(float)
        series["rural"] = np.broadcast_to(rural, (n, t)).copy()
        series["urban"] = 1.0 - series["rural"]
        panel = make_panel(series)
        spec = CovariateSpec(
            time_invariant=("rural", "urban"), differenced=("v",)
        )
        result = generalized_twfe(panel, "y", "x", spec=spec)
        comps = result.decomposition.components
        assert len(comps) == t * (t - 1) // 2
        assert all(c.dropped_controls == ("urban",) for c in comps)
        assert result.n_degenerate == 0

    def test_pretrend_variable_missing_everywhere(self, rng):
        panel = random_panel(rng, 6, 3)
        spec = CovariateSpec(
            pre_period=(PretrendConfig(variable="w"),)
        )
        with pytest.raises(PanelError, match="neither the panel nor"):
            generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 2), spec=spec,
            )

    def test_presample_unit_coverage(self, rng):
        panel = random_panel(rng, 6, 3, first_period=2000)
        partial = make_panel({"w": rng.normal(size=(5, 12))},
                             first_period=1988)
        spec = CovariateSpec(pre_period=(PretrendConfig(variable="w"),))
        with pytest.raises(PanelError, match="first: 'u005'"):
            generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 2), spec=spec,
                presample=partial,
            )

    def test_presample_must_end_before_panel(self, rng):
        panel = random_panel(rng, 5, 3, first_period=2000)
        overlapping = make_panel({"w": rng.normal(size=(5, 12))},
                                 first_period=1995)
        spec = CovariateSpec(pre_period=(PretrendConfig(variable="w"),))
        with pytest.raises(PanelError, match="before"):
            generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 2), spec=spec,
                presample=overlapping,
            )

    def test_time_invariant_violation_named(self, rng):
        n, t = 5, 3
        w = rng.normal(size=(n, t))  # genuinely time varying
        panel = make_panel(
            {"y": rng.normal(size=(n, t)), "x": rng.normal(size=(n, t)),
             "w": w}
        )
        spec = CovariateSpec(time_invariant=("w",))
        with pytest.raises(PanelError, match="'w'.*varies"):
            generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 2), spec=spec,
            )

    def test_degenerate_pair_dropped(self, rng):
        n, t = 10, 3
        x = rng.normal(size=(n, t))
        x[:, 2] = x[:, 0] - 0.7  # pair (1, 3) has constant treatment change
        panel = make_panel({"y": rng.normal(size=(n, t)), "x": x})
        result = generalized_twfe(
            panel, "y", "x", gap_range=GapRange(1, 2),
            spec=CovariateSpec(),
        )
        by_label = {
            (c.first, c.second): c for c in result.decomposition.components
        }
        assert by_label[(1, 3)].weight == 0.0
        assert by_label[(1, 3)].beta is None
        assert result.n_degenerate == 1
        live = [c.weight for c in result.decomposition.components]
        assert abs(sum(live) - 1.0) < 1e-12

    def test_all_pairs_degenerate_raises(self, rng):
        n, t = 6, 3
        x = np.broadcast_to(rng.normal(size=(n, 1)), (n, t)).copy()
        panel = make_panel({"y": rng.normal(size=(n, t)), "x": x})
        with pytest.raises(NoIdentifyingVariation):
            generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 2),
                spec=CovariateSpec(),
            )

    def test_every_pair_absorbed_by_a_control_raises(self, rng):
        panel = random_panel(rng, 8, 5)
        panel = make_panel({
            "y": panel.values("y"), "x": panel.values("x"),
            "w": panel.values("x"),
        })
        with pytest.raises(
            NoIdentifyingVariation,
            match="^no identifying variation in 'x' for any pair with gaps 1-4$",
        ):
            generalized_twfe(
                panel, "y", "x", spec=CovariateSpec(differenced=("w",))
            )

    def test_unknown_scheme(self, rng):
        panel = random_panel(rng, 5, 3)
        with pytest.raises(ValueError, match="weight_scheme must be one of"):
            generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 2),
                spec=CovariateSpec(), weight_scheme="equal",
            )

    def test_se_both_schemes(self, rng):
        panel = random_panel(rng, 25, 5, extra_series=("v",))
        spec = CovariateSpec(differenced=("v",))
        for scheme in ("ssr", "raw"):
            result = generalized_twfe(
                panel, "y", "x", gap_range=GapRange(1, 4), spec=spec,
                weight_scheme=scheme, se=True,
            )
            assert result.estimate.se > 0
