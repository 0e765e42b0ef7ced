import numpy as np
import pytest

import oracles
from helpers import ADVERSARIAL_KINDS, adversarial_panel, make_panel, random_panel
from twfekit import (
    NoIdentifyingVariation,
    fd,
    pairwise_decomposition,
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

    def test_self_instrument_reduces_to_twfe(self, rng):
        panel = random_panel(rng, 8, 5)
        beta_iv = twfe_iv(panel, "y", "x", "x").beta
        assert abs(beta_iv - twfe(panel, "y", "x").beta) < 1e-10
