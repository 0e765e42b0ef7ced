import dataclasses

import numpy as np
import pytest

import oracles
from helpers import make_panel, random_panel
from twfekit import (
    CovariateSpec,
    FdDecomposition,
    GapRange,
    PairwiseDecomposition,
    count_pairs,
    decomposition,
    estimators,
    fd,
    fd_decomposition,
    gap_restricted,
    generalized,
    generalized_twfe,
    pairwise_decomposition,
    twfe,
    verify_equivalence,
    weighted_summary,
)
from twfekit.numerics import pair_moments


class TestFdDecomposition:
    def test_weights_nonnegative_sum_to_one(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 40))
            t = int(rng.integers(2, 12))
            panel = random_panel(rng, n, t)
            dec = fd_decomposition(panel, "y", "x")
            weights = np.array([c.weight for c in dec.components])
            assert (weights >= 0).all()
            assert abs(weights.sum() - 1.0) < 1e-12

    def test_aggregate_equals_twfe(self, rng):
        for dist in ("normal", "uniform", "heavy"):
            for _ in range(10):
                n = int(rng.integers(2, 40))
                t = int(rng.integers(2, 12))
                panel = random_panel(rng, n, t, dist=dist)
                dec = fd_decomposition(panel, "y", "x")
                beta = twfe(panel, "y", "x").beta
                assert abs(dec.aggregate - beta) < 1e-10 * max(1.0, abs(beta))

    def test_components_match_fd_estimates(self, rng):
        panel = random_panel(rng, 10, 6)
        dec = fd_decomposition(panel, "y", "x")
        assert [c.gap for c in dec.components] == [1, 2, 3, 4, 5]
        for comp in dec.components:
            est = fd(panel, "y", "x", comp.gap)
            assert abs(comp.beta - est.beta) < 1e-10 * max(1.0, abs(est.beta))
            assert comp.n_obs == panel.n_units * (6 - comp.gap)

    def test_manual_two_component_check(self):
        # T=3: hand-check that the aggregate is the weight-blended FD slopes
        x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        y = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0], [2.0, 1.0, 1.0]])
        panel = make_panel({"y": y, "x": x})
        dec = fd_decomposition(panel, "y", "x")
        blended = sum(c.weight * c.beta for c in dec.components)
        assert abs(blended - dec.aggregate) < 1e-12
        assert abs(dec.aggregate - twfe(panel, "y", "x").beta) < 1e-12


class TestPairwiseDecomposition:
    def test_weights_and_aggregate(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            t = int(rng.integers(2, 9))
            panel = random_panel(rng, n, t)
            dec = pairwise_decomposition(panel, "y", "x")
            weights = np.array([c.weight for c in dec.components])
            assert (weights >= 0).all()
            assert abs(weights.sum() - 1.0) < 1e-12
            beta = twfe(panel, "y", "x").beta
            assert abs(dec.aggregate - beta) < 1e-10 * max(1.0, abs(beta))

    def test_component_labels_and_betas(self, rng):
        panel = random_panel(rng, 8, 4, first_period=1990)
        dec = pairwise_decomposition(panel, "y", "x")
        labels = [(c.first, c.second) for c in dec.components]
        assert labels == [
            (1990, 1991), (1990, 1992), (1990, 1993),
            (1991, 1992), (1991, 1993), (1992, 1993),
        ]
        for comp in dec.components:
            want = oracles.dummy_two_period(
                panel, "y", "x", comp.first, comp.second
            )
            assert abs(comp.beta - want) < 1e-10 * max(1.0, abs(want))
            # one differenced observation per unit for each pair
            assert comp.n_obs == panel.n_units

    def test_degenerate_pair_gets_zero_weight(self, rng):
        n, t = 9, 4
        # periods 1 and 3 differ by a constant shift, which unit offsets
        # keep: the pair's share of the two-way variation stays roundoff
        for offset in (0.0, 1e4):
            x = rng.normal(size=(n, t))
            x[:, 2] = x[:, 0] + 1.5
            panel = make_panel({
                "y": rng.normal(size=(n, t)),
                "x": x + offset * rng.normal(size=(n, 1)),
            })
            dec = pairwise_decomposition(panel, "y", "x")
            dead = {(c.first, c.second): c for c in dec.components}[(1, 3)]
            assert dead.weight == 0.0
            assert dead.beta is None
            live = [c.weight for c in dec.components if c.beta is not None]
            assert abs(sum(live) - 1.0) < 1e-12
            beta = twfe(panel, "y", "x").beta
            assert abs(dec.aggregate - beta) < 1e-10 * max(1.0, abs(beta))


class TestCountPairs:
    def test_known_table(self):
        # 29 periods: every pair, then each four-gap band plus the long tail
        assert count_pairs(29) == 406
        assert count_pairs(29, 1, 4) == 106
        assert count_pairs(29, 5, 8) == 90
        assert count_pairs(29, 9, 12) == 74
        assert count_pairs(29, 13, 16) == 58
        assert count_pairs(29, 17, 20) == 42
        assert count_pairs(29, 21, 28) == 36

    def test_single_gap(self):
        assert count_pairs(5, 2, 2) == 3
        assert count_pairs(2) == 1

    def test_matches_enumeration(self, rng):
        for _ in range(20):
            t = int(rng.integers(2, 30))
            k_min = int(rng.integers(1, t))
            k_max = int(rng.integers(k_min, t))
            want = sum(
                1
                for a in range(t)
                for b in range(a + 1, t)
                if k_min <= b - a <= k_max
            )
            assert count_pairs(t, k_min, k_max) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            count_pairs(5, 0, 2)
        with pytest.raises(ValueError):
            count_pairs(5, 3, 2)
        with pytest.raises(ValueError):
            count_pairs(5, 1, 5)
        with pytest.raises(ValueError, match="need at least 2 periods, got 1"):
            count_pairs(1)


class TestWeightedSummary:
    def test_mean_equals_aggregate(self, rng):
        panel = random_panel(rng, 12, 7)
        dec = pairwise_decomposition(panel, "y", "x")
        summary = weighted_summary(dec)
        assert abs(summary.mean - dec.aggregate) < 1e-10 * max(
            1.0, abs(dec.aggregate)
        )
        assert summary.n_components == len(dec.components)
        assert summary.p5 <= summary.p25 <= summary.median
        assert summary.median <= summary.p75 <= summary.p95

    def test_two_equal_weight_components(self):
        # Synthetic decomposition with known values
        from twfekit.decomposition import FdDecomposition

        dec = FdDecomposition(
            gap=[1, 2],
            beta=[0.0, 1.0],
            weight=[0.5, 0.5],
            n_obs=[10, 10],
            aggregate=0.5,
            total_denominator=1.0,
        )
        s = weighted_summary(dec)
        assert s.mean == 0.5
        # left-continuous inverse CDF: the 0.25 and 0.50 points sit in the
        # first component, the 0.75 point in the second
        assert s.p25 == 0.0
        assert s.median == 0.0
        assert s.p75 == 1.0
        assert s.sd == 0.5

    def test_single_component(self):
        from twfekit.decomposition import PairwiseDecomposition

        dec = PairwiseDecomposition(
            first=[1],
            second=[2],
            beta=[3.0],
            weight=[1.0],
            n_obs=[4],
            aggregate=3.0,
            total_denominator=1.0,
        )
        s = weighted_summary(dec)
        assert s.mean == 3.0
        assert s.sd == 0.0
        assert s.p5 == s.p95 == 3.0
        assert s.n_components == 1

    def test_zero_weight_components_excluded(self):
        from twfekit.decomposition import FdDecomposition

        dec = FdDecomposition(
            gap=[1, 2],
            beta=[2.0, np.nan],
            weight=[1.0, 0.0],
            n_obs=[10, 10],
            aggregate=2.0,
            total_denominator=1.0,
        )
        s = weighted_summary(dec)
        assert s.n_components == 1
        assert s.mean == 2.0

    def test_all_degenerate_raises(self):
        from twfekit.decomposition import FdDecomposition

        dec = FdDecomposition(
            gap=[1],
            beta=[np.nan],
            weight=[0.0],
            n_obs=[0],
            aggregate=0.0,
            total_denominator=0.0,
        )
        with pytest.raises(ValueError, match="no components"):
            weighted_summary(dec)


# what a component reads where its column is left unset
UNSET = {"n_controls": None, "dropped_controls": ()}


def assert_components_read_columns(dec):
    """Each component's fields are its entries of the same-named columns,
    as Python scalars with ``None`` for NaN; an unset column reads as
    ``UNSET`` says."""
    comps = dec.components
    assert len(comps) == dec.beta.size
    for f in dataclasses.fields(type(comps[0])):
        column = getattr(dec, f.name)
        got = [getattr(c, f.name) for c in comps]
        if column is None:
            assert got == [UNSET[f.name]] * len(comps), f.name
            continue
        if isinstance(column, np.ndarray):
            column = column.tolist()
        want = [None if v != v else v for v in column]
        assert got == want, f.name
        assert [type(v) for v in got] == [type(v) for v in want], f.name


class TestComponentsReadColumns:
    @pytest.fixture
    def panel(self, rng):
        # periods 1 and 3 differ by a shift, so gap 2 and the pair (1, 3)
        # are degenerate; urban = 1 - rural is dropped in every pair
        n, t = 9, 3
        x = rng.normal(size=(n, t))
        x[:, 2] = x[:, 0] + 1.5
        rural = np.repeat((np.arange(n) % 3 == 0)[:, None], t, axis=1)
        return make_panel({
            "y": rng.normal(size=(n, t)), "x": x,
            "w": rng.normal(size=(n, t)),
            "rural": rural, "urban": 1.0 - rural,
        })

    def test_fd_decomposition(self, panel):
        dec = fd_decomposition(panel, "y", "x")
        assert [c.beta is None for c in dec.components] == [False, True]
        assert_components_read_columns(dec)

    def test_pairwise_decomposition(self, panel):
        dec = pairwise_decomposition(panel, "y", "x")
        assert dec.n_controls is None and dec.dropped_controls is None
        assert [c.beta is None for c in dec.components] == [
            False, True, False
        ]
        assert_components_read_columns(dec)

    def test_generalized_twfe(self, panel):
        spec = CovariateSpec(
            time_invariant=("rural", "urban"), differenced=("w",)
        )
        dec = generalized_twfe(panel, "y", "x", spec=spec).decomposition
        assert [c.beta is None for c in dec.components] == [
            False, True, False
        ]
        assert all(c.n_controls == 3 for c in dec.components)
        assert all(c.dropped_controls == ("urban",) for c in dec.components)
        assert_components_read_columns(dec)

    def test_built_from_lists(self):
        by_gap = FdDecomposition(
            gap=[1, 2], beta=[np.nan, 2.0], weight=[0.0, 1.0],
            n_obs=[6, 3], aggregate=2.0, total_denominator=1.0,
        )
        assert by_gap.beta.dtype == by_gap.weight.dtype == float
        assert by_gap.components == [
            decomposition.FdComponent(1, None, 0.0, 6),
            decomposition.FdComponent(2, 2.0, 1.0, 3),
        ]
        assert_components_read_columns(by_gap)
        by_pair = PairwiseDecomposition(
            first=[1, 1], second=[2, 3], beta=[1, np.nan], weight=[1, 0],
            n_obs=[4, 4], aggregate=1.0, total_denominator=2.0,
            n_controls=[1, 1], dropped_controls=[(), ("g",)],
        )
        assert by_pair.beta.dtype == by_pair.weight.dtype == float
        assert by_pair.components == [
            decomposition.PairComponent(1, 2, 1.0, 1.0, 4, 1, ()),
            decomposition.PairComponent(1, 3, None, 0.0, 4, 1, ("g",)),
        ]
        assert_components_read_columns(by_pair)


class TestVerifyEquivalence:
    def test_report_fields(self, rng):
        panel = random_panel(rng, 20, 6)
        report = verify_equivalence(panel, "y", "x")
        assert report.max_rel_gap < 1e-12
        beta = twfe(panel, "y", "x").beta
        assert report.twfe_beta == beta
        assert abs(report.fd_aggregate - beta) < 1e-10 * max(1.0, abs(beta))
        assert abs(report.pairwise_aggregate - beta) < 1e-10 * max(
            1.0, abs(beta)
        )

    def test_tiny_panel(self, rng):
        panel = random_panel(rng, 2, 2)
        report = verify_equivalence(panel, "y", "x")
        assert report.max_rel_gap < 1e-12

    def test_one_moment_sweep_same_numbers(self, rng, monkeypatch):
        panel = random_panel(rng, 30, 9, dist="heavy")
        calls = _count_sweeps(monkeypatch)
        by_gap = fd_decomposition(panel, "y", "x")
        by_pair = pairwise_decomposition(panel, "y", "x")
        report = verify_equivalence(panel, "y", "x")
        # one sweep of the residuals (x·y and x·x), kept on the panel, forms
        # the by-unit and the by-pair sums, which feed both decompositions
        # and the check
        assert calls == [(None, ["pair", "unit"])]
        assert report.fd_aggregate == by_gap.aggregate
        assert report.pairwise_aggregate == by_pair.aggregate
        beta = twfe(panel, "y", "x").beta
        scales = [abs(beta)]
        for decomp in (by_gap, by_pair):
            live = ~np.isnan(decomp.beta)
            terms = decomp.weight[live] * np.abs(decomp.beta[live])
            scales.append(sum(terms.tolist()))
        gap = max(abs(beta - by_gap.aggregate), abs(beta - by_pair.aggregate))
        assert report.max_rel_gap == gap / max(scales)


def _count_sweeps(monkeypatch) -> list:
    """Patch every ``pair_moments`` binding to record the ``gaps`` of each
    call (``None`` for a full sweep) and the sums it forms; returns the
    record."""
    calls = []

    def counted(x, y, gaps=None, sums=("pair", "unit")):
        calls.append((None if gaps is None else list(gaps), sorted(sums)))
        return pair_moments(x, y, gaps, sums)

    for module in (estimators, decomposition):
        monkeypatch.setattr(module, "pair_moments", counted)
    return calls


def test_pair_moment_sweeps_per_estimator(rng, monkeypatch):
    # the full-range lemma leaves twfe and generalized_twfe no pair sweep;
    # the two decompositions and the equivalence check share one full
    # sweep, kept on the panel, whichever runs first; fd and gap_restricted
    # sweep only the gaps they read, forming only the by-unit sums, on
    # every call
    calls = _count_sweeps(monkeypatch)
    assert not hasattr(generalized, "pair_moments")
    full = [(None, ["pair", "unit"])]
    decompositions = (
        lambda panel: fd_decomposition(panel, "y", "x"),
        lambda panel: pairwise_decomposition(panel, "y", "x"),
        lambda panel: verify_equivalence(panel, "y", "x"),
    )
    for first in range(len(decompositions)):
        panel = random_panel(rng, 30, 9, dist="heavy")
        for decompose in decompositions[first:] + decompositions[:first]:
            calls.clear()
            decompose(panel)
            assert calls == (full if decompose is decompositions[first] else [])
        for call, sweeps in (
            (lambda: twfe(panel, "y", "x", se=True), []),
            (lambda: generalized_twfe(panel, "y", "x", se=True), []),
            (lambda: fd(panel, "y", "x", 2, se=True), [([2], ["unit"])]),
            (lambda: fd(panel, "y", "x", 2), [([2], ["unit"])]),
            (lambda: fd(panel, "y", "x", 8), [([8], ["unit"])]),
            (lambda: gap_restricted(panel, "y", "x", GapRange(1, 3), se=True),
             [([1, 2, 3], ["unit"])]),
            (lambda: gap_restricted(panel, "y", "x", GapRange(4, 8)),
             [([4, 5, 6, 7, 8], ["unit"])]),
        ):
            calls.clear()
            call()
            assert calls == sweeps
