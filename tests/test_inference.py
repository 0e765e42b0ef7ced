import numpy as np
import pytest

from helpers import make_panel, random_panel
from oracles import stack_differences, stacked_se
from twfekit import NoIdentifyingVariation, cluster_robust_se, twfe
from twfekit.estimators import two_way_residual


def hc_singleton_oracle(u, v):
    """Sandwich variance with one observation per cluster."""
    n = u.shape[0]
    den = float(v @ v)
    slope = float(u @ v) / den
    e = u - slope * v
    meat = float(np.sum((v * e) ** 2))
    return np.sqrt(meat / den**2 * n / (n - 1.0))


def grouped_oracle(u, v, cluster):
    den = float(v @ v)
    slope = float(u @ v) / den
    e = u - slope * v
    labels = sorted(set(cluster))
    meat = 0.0
    for lab in labels:
        mask = np.array([c == lab for c in cluster])
        meat += float(np.sum(v[mask] * e[mask])) ** 2
    g = len(labels)
    return np.sqrt(meat / den**2 * g / (g - 1.0))


class TestClusterRobustSe:
    # With one differenced observation per unit, a unit's sums are that
    # observation's own products: cross = v * u and sq = v^2.
    def test_singleton_clusters_match_direct_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 100))
            v = rng.normal(size=n)
            u = 0.5 * v + rng.normal(size=n)
            got = cluster_robust_se(v * u, v * v, np.arange(n))
            want = hc_singleton_oracle(u, v)
            assert abs(got - want) < 1e-10 * max(1.0, want)

    def test_grouped_clusters_match_oracle(self, rng):
        n = 60
        v = rng.normal(size=n)
        u = -0.3 * v + rng.normal(size=n)
        cluster = [f"g{i % 7}" for i in range(n)]
        got = cluster_robust_se(v * u, v * v, cluster)
        want = grouped_oracle(u, v, cluster)
        assert abs(got - want) < 1e-10 * max(1.0, want)

    def test_relabel_and_reorder_invariance(self, rng):
        n = 40
        cross = rng.normal(size=n)
        sq = rng.uniform(0.1, 2.0, size=n)
        cluster = np.array([f"c{i % 5}" for i in range(n)])
        base = cluster_robust_se(cross, sq, cluster)
        renamed = np.array([f"zzz_{c}" for c in cluster])
        assert cluster_robust_se(cross, sq, renamed) == pytest.approx(
            base, rel=1e-14
        )
        order = rng.permutation(n)
        shuffled = cluster_robust_se(cross[order], sq[order], cluster[order])
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_perfect_fit_gives_zero(self, rng):
        v = rng.normal(size=30)
        assert cluster_robust_se(2.0 * v * v, v * v, np.arange(30) % 6) == 0.0

    def test_too_few_clusters(self, rng):
        v = rng.normal(size=10)
        with pytest.raises(ValueError, match="at least 2 clusters"):
            cluster_robust_se(v * rng.normal(size=10), v * v, np.zeros(10))

    def test_zero_regressor(self):
        with pytest.raises(NoIdentifyingVariation, match="zero regressor"):
            cluster_robust_se(np.zeros(4), np.zeros(4), np.arange(4))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cluster_robust_se(np.arange(3.0), np.arange(4.0), np.arange(3))
        with pytest.raises(ValueError, match="length mismatch"):
            cluster_robust_se(np.arange(3.0), np.arange(3.0), np.arange(4))


class TestStackDifferences:
    """The stacked-row reference in ``oracles`` that the SE tests use."""

    def test_pooled_slope_reproduces_twfe(self, rng):
        panel = random_panel(rng, 15, 6)
        ry = two_way_residual(panel, "y")
        rx = two_way_residual(panel, "x")
        stacked = stack_differences(
            ry, rx, panel.cluster_id, range(1, panel.n_periods)
        )
        slope = float(stacked.response @ stacked.regressor) / float(
            stacked.regressor @ stacked.regressor
        )
        beta = twfe(panel, "y", "x").beta
        assert abs(slope - beta) < 1e-10 * max(1.0, abs(beta))

    def test_row_layout(self, rng):
        panel = random_panel(rng, 3, 3)
        ry = two_way_residual(panel, "y")
        rx = two_way_residual(panel, "x")
        stacked = stack_differences(ry, rx, panel.cluster_id, [1, 2])
        # gap 1 start 1, gap 1 start 2, gap 2 start 1 -> 3 blocks of 3 units
        assert stacked.response.shape[0] == 9
        np.testing.assert_allclose(
            stacked.regressor[:3], rx[:, 1] - rx[:, 0]
        )
        np.testing.assert_allclose(
            stacked.regressor[3:6], rx[:, 2] - rx[:, 1]
        )
        np.testing.assert_allclose(
            stacked.regressor[6:9], rx[:, 2] - rx[:, 0]
        )
        assert list(stacked.cluster[:3]) == list(panel.cluster_id)

    def test_invalid_gap(self, rng):
        panel = random_panel(rng, 4, 3)
        ry = two_way_residual(panel, "y")
        rx = two_way_residual(panel, "x")
        with pytest.raises(ValueError, match="gap 3 invalid"):
            stack_differences(ry, rx, panel.cluster_id, [3])
        with pytest.raises(ValueError, match="no gaps"):
            stack_differences(ry, rx, panel.cluster_id, [])

    def test_shape_mismatch(self, rng):
        panel = random_panel(rng, 4, 3)
        ry = two_way_residual(panel, "y")
        with pytest.raises(ValueError, match="shape mismatch"):
            stack_differences(ry, ry[:, :2], panel.cluster_id, [1])


class TestTwfeStandardError:
    def test_equals_conventional_unit_clustered_sandwich(self, rng):
        # The difference-based SE for the plain two-way estimator equals
        # the usual unit-clustered sandwich from the levels regression: per
        # unit, the sum of pair-difference cross products is the panel length
        # times the double-demeaned cross product, and the common factor
        # cancels from bread and meat.
        for _ in range(6):
            n = int(rng.integers(5, 40))
            t = int(rng.integers(2, 8))
            panel = random_panel(rng, n, t)
            est = twfe(panel, "y", "x", se=True)

            ry = two_way_residual(panel, "y")
            rx = two_way_residual(panel, "x")
            # double demean: the two-way residual already has zero period
            # means; remove unit means to get the levels-regression design
            xdd = rx - rx.mean(axis=1, keepdims=True)
            ydd = ry - ry.mean(axis=1, keepdims=True)
            den = float(np.sum(xdd * xdd))
            beta = float(np.sum(xdd * ydd)) / den
            resid = ydd - beta * xdd
            scores = np.sum(xdd * resid, axis=1)
            want = np.sqrt(
                float(scores @ scores) / den**2 * n / (n - 1.0)
            )
            assert abs(est.se - want) < 1e-10 * max(1.0, want)

    def test_custom_cluster_groups(self, rng):
        n, t = 20, 4
        panel = random_panel(rng, n, t)
        # two units per cluster
        cluster = tuple(f"state{i // 2}" for i in range(n))
        grouped = make_panel(
            {"y": panel.values("y"), "x": panel.values("x")}, cluster=cluster
        )
        est_unit = twfe(panel, "y", "x", se=True)
        est_grp = twfe(grouped, "y", "x", se=True)
        assert est_grp.beta == est_unit.beta
        assert est_grp.se != est_unit.se
        # oracle on the stacked rows with the grouped labels
        ry = two_way_residual(grouped, "y")
        rx = two_way_residual(grouped, "x")
        stacked = stack_differences(ry, rx, grouped.cluster_id, range(1, t))
        want = stacked_se(stacked)
        assert abs(est_grp.se - want) < 1e-10 * max(1.0, want)
