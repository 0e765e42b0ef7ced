import numpy as np
import pytest

import oracles
import twfekit.estimators
from helpers import ADVERSARIAL_KINDS, adversarial_panel, make_panel, random_panel
from twfekit import (
    NoIdentifyingVariation,
    causal_weights,
    fd,
    pairwise_decomposition,
    scenario_preset,
    simulate,
    theorem2_audit,
    twfe,
    twfe_iv,
    twfe_multivariate,
    two_way_residual,
)


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestTwfe:
    def test_matches_dummy_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 31))
            t = int(rng.integers(3, 9))
            panel = random_panel(rng, n, t)
            assert rel_gap(twfe(panel, "y", "x").beta,
                           oracles.dummy_twfe(panel, "y", "x")) < 1e-8

    def test_covariates_match_dummy_oracle(self, rng):
        for _ in range(6):
            panel = random_panel(rng, 12, 6, extra_series=("w1", "w2"))
            got = twfe(panel, "y", "x", covariates=["w1", "w2"]).beta
            want = oracles.dummy_twfe(panel, "y", "x", covariates=("w1", "w2"))
            assert rel_gap(got, want) < 1e-8

    def test_two_period_panel_equals_fd1(self, rng):
        for _ in range(20):
            panel = random_panel(rng, int(rng.integers(2, 30)), 2)
            beta_fe = twfe(panel, "y", "x").beta
            beta_fd = fd(panel, "y", "x", 1).beta
            assert abs(beta_fe - beta_fd) < 1e-12 * max(1.0, abs(beta_fe))

    def test_pure_two_way_outcome_gives_zero(self, rng):
        n, t = 15, 6
        alpha = rng.normal(size=(n, 1))
        gamma = rng.normal(size=(1, t))
        panel = make_panel(
            {"y": np.broadcast_to(alpha + gamma, (n, t)).copy(),
             "x": rng.normal(size=(n, t))}
        )
        assert abs(twfe(panel, "y", "x").beta) < 1e-10

    def test_exact_slope_recovered(self, rng):
        n, t = 10, 5
        x = rng.normal(size=(n, t))
        alpha = rng.normal(size=(n, 1))
        gamma = rng.normal(size=(1, t))
        panel = make_panel({"y": 1.7 * x + alpha + gamma, "x": x})
        assert abs(twfe(panel, "y", "x").beta - 1.7) < 1e-10

    def test_degenerate_treatment_raises(self, rng):
        n, t = 6, 4
        additive = rng.normal(size=(n, 1)) + rng.normal(size=(1, t))
        panel = make_panel({"y": rng.normal(size=(n, t)), "x": additive})
        with pytest.raises(NoIdentifyingVariation, match="'x'"):
            twfe(panel, "y", "x")
        constant = make_panel(
            {"y": rng.normal(size=(n, t)), "x": np.full((n, t), 3.0)}
        )
        with pytest.raises(NoIdentifyingVariation):
            twfe(constant, "y", "x")

    def test_estimate_metadata(self, rng):
        panel = random_panel(rng, 7, 5)
        est = twfe(panel, "y", "x")
        assert est.n_units == 7
        assert est.denominator > 0
        assert "gaps 1-4" in est.periods_used
        assert est.se is None
        with_se = twfe(panel, "y", "x", se=True)
        assert with_se.se > 0

    def test_all_period_estimators_describe_periods_alike(self, rng):
        for t, want in ((2, "all periods, gap 1"), (5, "all periods, gaps 1-4")):
            panel = random_panel(rng, 9, t, extra_series=("z",))
            assert twfe(panel, "y", "x").periods_used == want
            assert twfe_iv(panel, "y", "x", "z").periods_used == want
            assert twfe_multivariate(panel, "y", ["x", "z"]).periods_used == want

    def test_two_way_residual_orthogonality(self, rng):
        panel = random_panel(rng, 8, 5, extra_series=("w",))
        r = two_way_residual(panel, "x", ["w"])
        # residual has zero unit means, zero period means, and is orthogonal
        # to the double-demeaned covariate
        assert np.abs(r.mean(axis=0)).max() < 1e-12
        assert np.abs(r.mean(axis=1)).max() < 1e-12
        ww = two_way_residual(panel, "w")
        assert abs(float((r * ww).sum())) < 1e-10

    def test_one_projection_for_both_series(self, rng, monkeypatch):
        # x and y are partialled out of the covariates in one whole-panel
        # cell, so the covariates' drop decision is made once
        panel = random_panel(rng, 8, 5, extra_series=("w",))
        original = twfekit.estimators._project_in_place
        targets = []

        def counted(basis, residuals, *args):
            targets.append(residuals.shape)
            return original(basis, residuals, *args)

        monkeypatch.setattr(twfekit.estimators, "_project_in_place", counted)
        twfe(panel, "y", "x", ["w"])
        assert targets == [(2, 1, 40)]


class TestKeptFits:
    def test_one_fit_per_key(self, rng, monkeypatch):
        # every estimate of y on x under one covariate set, causal_weights
        # included, reads one fit kept on the panel
        panel = random_panel(rng, 8, 5, extra_series=("w",))
        original = twfekit.estimators._residuals
        fits = []

        def counted(panel, names, covariates=None):
            fits.append((tuple(names), tuple(covariates or ())))
            return original(panel, names, covariates)

        monkeypatch.setattr(twfekit.estimators, "_residuals", counted)
        for _ in range(2):
            twfe(panel, "y", "x", se=True)
            twfe(panel, "y", "x", [])
            fd(panel, "y", "x", 2)
            pairwise_decomposition(panel, "y", "x")
            twfe(panel, "y", "x", ["w"])
            causal_weights(panel, "y", "x", ["w"])
        assert fits == [(("x", "y"), ()), (("x", "y"), ("w",))]

    def test_at_most_four_kept_oldest_dropped_first(self, rng):
        panel = random_panel(rng, 8, 5, extra_series=tuple("abcde"))
        for name in "abcde":
            twfe(panel, "y", "x", [name])
        assert [key[-1] for key in panel._memo] == [("b",), ("c",), ("d",), ("e",)]

    def test_kept_arrays_are_read_only(self, rng):
        panel = random_panel(rng, 8, 5, extra_series=("w",))
        pairwise_decomposition(panel, "y", "x")
        report = causal_weights(panel, "y", "x", ["w"])
        with pytest.raises(ValueError, match="read-only"):
            report.r[0, 0] = 1.0
        kept = [part for value in panel._memo.values() for part in value
                if isinstance(part, np.ndarray)]
        assert len(kept) == 4
        assert not any(part.flags.writeable for part in kept)


class TestSeriesNameLists:
    # a bare string would be read as its characters, one series each
    @pytest.mark.parametrize("call, argument", [
        (lambda p: twfe(p, "y", "x", "emp"), "covariates"),
        (lambda p: twfe(p, "y", "x", covariates="emp", se=True), "covariates"),
        (lambda p: two_way_residual(p, "x", "emp"), "covariates"),
        (lambda p: causal_weights(p, "y", "x", "emp"), "covariates"),
        (lambda p: twfe_multivariate(p, "y", "emp"), "xs"),
    ], ids=["twfe", "twfe-se", "two_way_residual", "causal_weights",
            "twfe_multivariate"])
    def test_bare_string_raises(self, rng, call, argument):
        panel = random_panel(rng, 6, 4, extra_series=("emp", "e", "m", "p"))
        with pytest.raises(TypeError, match=f"^{argument} .*'emp'"):
            call(panel)
        assert not panel._memo

    def test_one_character_string_raises_in_the_audit(self):
        sim = simulate(scenario_preset("time_varying_delta", n_units=10,
                                       n_periods=4))
        with pytest.raises(TypeError, match="^covariates .*'w'"):
            theorem2_audit(sim, "w")
        assert theorem2_audit(sim, ["w"]) == theorem2_audit(sim, ("w",))

    def test_sequences_and_none_are_accepted(self, rng):
        panel = random_panel(rng, 6, 4, extra_series=("w",))
        assert twfe(panel, "y", "x", ("w",)) == twfe(panel, "y", "x", ["w"])
        assert twfe(panel, "y", "x", None) == twfe(panel, "y", "x", [])
        assert twfe_multivariate(panel, "y", ("x",)).beta == pytest.approx(
            twfe_multivariate(panel, "y", ["x"]).beta, abs=0.0)


class TestFd:
    def test_matches_stacked_dummy_oracle(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 25))
            t = int(rng.integers(3, 9))
            panel = random_panel(rng, n, t)
            for k in range(1, t):
                got = fd(panel, "y", "x", k).beta
                want = oracles.dummy_fd(panel, "y", "x", k)
                assert rel_gap(got, want) < 1e-8

    def test_metadata(self, rng):
        panel = random_panel(rng, 6, 7)
        est = fd(panel, "y", "x", 3)
        assert est.periods_used == "gap 3 (4 start periods)"

    def test_bad_gap(self, rng):
        # an argument error, not a degenerate denominator
        panel = random_panel(rng, 4, 4)
        for bad in (0, 4, -1):
            with pytest.raises(ValueError, match="gap must satisfy") as info:
                fd(panel, "y", "x", bad)
            assert not isinstance(info.value, NoIdentifyingVariation)

    def test_constant_change_degenerate(self, rng):
        n = 8
        x1 = rng.normal(size=n)
        x = np.column_stack([x1, x1 + 2.0])
        panel = make_panel({"y": rng.normal(size=(n, 2)), "x": x})
        with pytest.raises(NoIdentifyingVariation, match="gap 1"):
            fd(panel, "y", "x", 1)


class TestTwoPeriod:
    def test_matches_dummy_oracle(self):
        # a period pair's own two-way slope is its pairwise_decomposition
        # column
        for kind in ADVERSARIAL_KINDS:
            panel = adversarial_panel(kind)
            dec = pairwise_decomposition(panel, "y", "x")
            for first, second, beta in zip(dec.first, dec.second, dec.beta):
                if np.isnan(beta):
                    continue
                want = oracles.dummy_two_period(panel, "y", "x", first, second)
                assert rel_gap(beta, want) < 1e-8, (kind, first, second)


class TestMultivariate:
    def test_matches_dummy_oracle(self, rng):
        for _ in range(6):
            n = int(rng.integers(4, 25))
            t = int(rng.integers(3, 8))
            panel = random_panel(rng, n, t, extra_series=("x2", "x3"))
            got = twfe_multivariate(panel, "y", ["x", "x2", "x3"]).beta
            want = oracles.dummy_twfe_multivariate(panel, "y", ["x", "x2", "x3"])
            assert np.abs(got - want).max() < 1e-8 * max(
                1.0, np.abs(want).max()
            )

    def test_single_regressor_equals_twfe(self, rng):
        panel = random_panel(rng, 9, 5)
        vec = twfe_multivariate(panel, "y", ["x"]).beta
        assert abs(float(vec[0]) - twfe(panel, "y", "x").beta) < 1e-10

    def test_collinear_regressors_named(self, rng):
        n, t = 8, 5
        x = rng.normal(size=(n, t))
        panel = make_panel(
            {"y": rng.normal(size=(n, t)), "x": x, "x_copy": 2.0 * x}
        )
        with pytest.raises(NoIdentifyingVariation, match="'x_copy'"):
            twfe_multivariate(panel, "y", ["x", "x_copy"])

    def test_purely_additive_regressor_raises(self, rng):
        # the two-way transformation leaves only roundoff of a unit plus a
        # period effect; as a lone column it would pass the collinearity
        # check, which is relative to the largest column
        n, t = 8, 5
        additive = rng.normal(size=(n, 1)) + rng.normal(size=(1, t))
        panel = make_panel({"y": rng.normal(size=(n, t)), "a": additive})
        with pytest.raises(NoIdentifyingVariation, match="'a'"):
            twfe(panel, "y", "a")
        with pytest.raises(NoIdentifyingVariation, match="'a'"):
            twfe_multivariate(panel, "y", ["a"])

    def test_empty_regressor_list(self, rng):
        panel = random_panel(rng, 4, 3)
        with pytest.raises(ValueError, match="at least one"):
            twfe_multivariate(panel, "y", [])

    def test_denominator_is_smallest_eigenvalue(self, rng):
        panel = random_panel(rng, 10, 5, extra_series=("x2",))
        est = twfe_multivariate(panel, "y", ["x", "x2"])
        assert est.denominator > 0
        assert est.se is None


class TestIv:
    def test_matches_dummy_2sls(self, rng):
        for _ in range(8):
            n = int(rng.integers(4, 25))
            t = int(rng.integers(3, 8))
            # instrument correlated with treatment so the design is relevant
            panel = random_panel(rng, n, t)
            z = 0.8 * panel.values("x") + 0.6 * rng.normal(size=(n, t))
            panel = make_panel(
                {"y": panel.values("y"), "x": panel.values("x"), "z": z}
            )
            got = twfe_iv(panel, "y", "x", "z").beta
            want = oracles.dummy_2sls(panel, "y", "x", "z")
            assert rel_gap(got, want) < 1e-8

    def test_irrelevant_instrument(self, rng):
        n, t = 10, 4
        additive = rng.normal(size=(n, 1)) + rng.normal(size=(1, t))
        panel = make_panel(
            {
                "y": rng.normal(size=(n, t)),
                "x": rng.normal(size=(n, t)),
                "z": additive,
            }
        )
        with pytest.raises(NoIdentifyingVariation, match="irrelevant"):
            twfe_iv(panel, "y", "x", "z")

    def test_instrument_orthogonal_to_treatment(self, rng):
        # z varies under the two-way transformation, but its residual is
        # orthogonal to x's
        n, t = 10, 4
        panel = random_panel(rng, n, t, extra_series=("z",))
        xw = two_way_residual(panel, "x")
        zw = two_way_residual(panel, "z")
        z = zw - (np.sum(zw * xw) / np.sum(xw * xw)) * xw
        panel = make_panel(
            {"y": panel.values("y"), "x": panel.values("x"), "z": z}
        )
        with pytest.raises(
            NoIdentifyingVariation,
            match="^instrument 'z' is irrelevant for 'x' under the two-way "
            "transformation$",
        ):
            twfe_iv(panel, "y", "x", "z")

    def test_self_instrument_reduces_to_twfe(self, rng):
        panel = random_panel(rng, 8, 5)
        beta_iv = twfe_iv(panel, "y", "x", "x").beta
        assert abs(beta_iv - twfe(panel, "y", "x").beta) < 1e-10
