import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twfekit
from oracles import fwl_residualize, independent_columns, ols
from twfekit import NoIdentifyingVariation, pairwise_cross_moment
from twfekit.numerics import pair_moments, project_cells

def test_public_names():
    for name in twfekit.__all__:
        assert hasattr(twfekit, name), name
    # the dense least-squares path left the library for ``oracles``
    for name in ("ols", "fwl_residualize", "LeastSquaresFit",
                 "independent_columns"):
        assert not hasattr(twfekit, name)
        assert not hasattr(twfekit.numerics, name)


# TestOls, TestFwlResidualize and TestMultiColumnResponse check the dense
# least-squares references in ``oracles`` that TestProjectCells relies on.


class TestOls:
    def test_matches_lstsq_on_full_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            p = int(rng.integers(1, min(n, 8)))
            design = rng.normal(size=(n, p))
            response = rng.normal(size=n)
            fit = ols(design, response)
            expected, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
            assert fit.dropped_columns == []
            assert fit.retained_columns == list(range(p))
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(fit.coefficients - expected).max() < 1e-10 * scale

    def test_duplicate_column_dropped_same_fit(self, rng):
        design = rng.normal(size=(30, 3))
        response = rng.normal(size=30)
        base = ols(design, response)
        widened = np.column_stack([design, design[:, 1]])
        fit = ols(widened, response)
        assert fit.dropped_columns == [3]
        assert fit.retained_columns == [0, 1, 2]
        assert np.allclose(fit.coefficients, base.coefficients, atol=1e-10)
        assert np.allclose(fit.residuals, base.residuals, atol=1e-10)

    def test_later_indexed_collinear_column_dropped(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        design = np.column_stack([a, b, a + b, rng.normal(size=40)])
        fit = ols(design, rng.normal(size=40))
        assert fit.dropped_columns == [2]

    def test_zero_design_raises(self):
        with pytest.raises(NoIdentifyingVariation, match="no identifying"):
            ols(np.zeros((10, 2)), np.ones(10))

    def test_residual_orthogonality(self, rng):
        design = rng.normal(size=(80, 5)) * 100.0
        response = rng.normal(size=80) * 100.0
        fit = ols(design, response)
        scale = np.abs(design).max() * np.abs(response).max() * 80
        for j in fit.retained_columns:
            assert abs(design[:, j] @ fit.residuals) < 1e-8 * scale

    def test_row_permutation_invariance(self, rng):
        design = rng.normal(size=(25, 4))
        response = rng.normal(size=25)
        fit = ols(design, response)
        perm = rng.permutation(25)
        permuted = ols(design[perm], response[perm])
        assert np.abs(fit.coefficients - permuted.coefficients).max() < 1e-12

    def test_coefficient_accessor(self, rng):
        a = rng.normal(size=20)
        design = np.column_stack([a, 2.0 * a])
        fit = ols(design, rng.normal(size=20))
        assert fit.dropped_columns == [1]
        assert fit.coefficient(1) == 0.0
        assert fit.coefficient(0) == float(fit.coefficients[0])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            ols(np.ones((4, 1)), np.ones(5))

    def test_near_dependence_threshold(self, rng):
        a = rng.normal(size=200)
        clearly_independent = a + 1e-5 * rng.normal(size=200)
        numerically_dependent = a * (1.0 + 1e-13)
        kept, _ = independent_columns(np.column_stack([a, clearly_independent]))
        assert kept == [0, 1]
        _, dropped = independent_columns(
            np.column_stack([a, numerically_dependent])
        )
        assert dropped == [1]

    def test_one_dimensional_design_accepted(self, rng):
        x = rng.normal(size=15)
        y = 3.0 * x
        fit = ols(x, y)
        assert abs(fit.coefficients[0] - 3.0) < 1e-12


class TestFwlResidualize:
    def test_matches_projection(self, rng):
        controls = rng.normal(size=(40, 3))
        target = rng.normal(size=40)
        resid = fwl_residualize(target, controls)
        beta, _, _, _ = np.linalg.lstsq(controls, target, rcond=None)
        assert np.allclose(resid, target - controls @ beta, atol=1e-10)

    def test_none_and_empty_controls(self, rng):
        target = rng.normal(size=10)
        assert np.array_equal(fwl_residualize(target, None), target)
        empty = np.empty((10, 0))
        assert np.array_equal(fwl_residualize(target, empty), target)

    def test_zero_controls_leave_target(self, rng):
        target = rng.normal(size=12)
        out = fwl_residualize(target, np.zeros((12, 2)))
        assert np.array_equal(out, target)

    def test_fwl_theorem(self, rng):
        """Joint-regression coefficient equals residual-on-residual slope."""
        n = 60
        x = rng.normal(size=n)
        controls = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        design = np.column_stack([x, controls])
        joint, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        rx = fwl_residualize(x, controls)
        ry = fwl_residualize(y, controls)
        assert abs(float(rx @ ry) / float(rx @ rx) - joint[0]) < 1e-10

    def test_row_mismatch(self, rng):
        with pytest.raises(ValueError, match="rows"):
            fwl_residualize(np.ones(5), np.ones((4, 1)))


class TestMultiColumnResponse:
    """An (n, m) response is m fits sharing one drop decision."""

    def _design(self, rng, n):
        a = rng.normal(size=n)
        return np.column_stack([np.ones(n), a, 2.0 * a, rng.normal(size=n)])

    def test_ols_matches_column_fits(self, rng):
        design = self._design(rng, 50)
        response = rng.normal(size=(50, 3))
        fit = ols(design, response)
        assert fit.coefficients.shape == (3, 3)
        assert fit.residuals.shape == (50, 3)
        for j in range(3):
            single = ols(design, response[:, j])
            assert fit.dropped_columns == single.dropped_columns == [2]
            assert fit.retained_columns == single.retained_columns
            assert np.abs(fit.residuals[:, j] - single.residuals).max() < 1e-12
            assert (
                np.abs(fit.coefficients[:, j] - single.coefficients).max()
                < 1e-12
            )
            assert abs(
                fit.sum_sq_residuals[j] - single.sum_sq_residuals
            ) < 1e-12 * single.sum_sq_residuals

    def test_fwl_matches_column_fits(self, rng):
        controls = self._design(rng, 40)
        target = rng.normal(size=(40, 2))
        out = fwl_residualize(target, controls)
        assert out.shape == (40, 2)
        for j in range(2):
            single = fwl_residualize(target[:, j], controls)
            assert np.abs(out[:, j] - single).max() < 1e-12
        assert np.array_equal(fwl_residualize(target, None), target)
        assert np.array_equal(
            fwl_residualize(target, np.zeros((40, 2))), target
        )

    def test_other_shapes_rejected(self):
        with pytest.raises(ValueError, match="response"):
            ols(np.ones((4, 1)), np.ones((4, 1, 1)))
        with pytest.raises(ValueError, match="response"):
            ols(np.ones((1, 1)), np.float64(1.0))
        with pytest.raises(ValueError, match="response"):
            fwl_residualize(np.ones((4, 2, 1)), np.ones((4, 1)))


class TestProjectCells:
    """The batched sweep against one ``oracles.ols`` fit per cell."""

    def _cells(self, rng, n=30):
        a, b, c = rng.normal(size=(3, n))
        e = rng.normal(size=n)
        cells = [
            np.column_stack([a, b, c]),  # full rank
            np.column_stack([a, b, a]),  # exact duplicate
            np.column_stack([np.zeros(n), b, c]),  # zero first column
            np.zeros((n, 3)),  # all-zero cell
            # 1e-11 off collinearity: below RANK_TOL, so dropped
            np.column_stack([a, 2.0 * a + 1e-11 * e, c]),
            np.column_stack([1e4 * a, b, 1e4 * a - 3.0 * b]),  # badly scaled
        ]
        # column-major: (m, S, n) columns and (r, S, n) targets
        varying = np.stack(cells, axis=1).transpose(2, 1, 0)
        return varying, rng.normal(size=(2, len(cells), n))

    def _check(self, varying, targets, shared=None):
        residuals, retained = project_cells(varying, targets, shared)
        assert residuals.shape == targets.shape
        assert retained.shape[0] == varying.shape[1]
        for s in range(varying.shape[1]):
            design = varying[:, s].T
            if shared is not None:
                design = np.column_stack([shared, design])
            try:
                fit = ols(design, targets[:, s].T)
            except NoIdentifyingVariation:
                assert not retained[s].any()
                assert np.array_equal(residuals[:, s], targets[:, s])
                continue
            assert np.flatnonzero(retained[s]).tolist() == fit.retained_columns
            want = fit.residuals
            if shared is not None:
                # the shared columns differ in scale by 1e6, which costs the
                # SVD inside ols digits; unit-norm columns span the same
                # space with a better-conditioned lstsq
                kept = design[:, fit.retained_columns]
                kept = kept / np.linalg.norm(kept, axis=0)
                y = targets[:, s].T
                want = y - kept @ np.linalg.lstsq(kept, y, rcond=None)[0]
            scale = np.linalg.norm(targets[:, s])
            assert np.abs(residuals[:, s] - want.T).max() < 1e-12 * scale
        return retained

    def test_matches_cell_fits(self, rng):
        varying, targets = self._cells(rng)
        retained = self._check(varying, targets)
        assert retained.tolist() == [
            [True, True, True],
            [True, True, False],
            [False, True, True],
            [False, False, False],
            [True, False, True],
            [True, True, False],
        ]

    def test_shared_block_matches_cell_fits(self, rng):
        n = 30
        varying, targets = self._cells(rng, n)
        small = 1e-6 * rng.normal(size=n)
        # the last shared column repeats the first; ``small`` clears the
        # tolerance of a cell whose largest column is the intercept, but
        # not that of the badly scaled cell (1e4 larger columns)
        shared = np.column_stack([np.ones(n), small, np.ones(n)])
        retained = self._check(varying, targets, shared)
        assert retained[:, 0].all() and not retained[:, 2].any()
        assert retained[:, 1].tolist() == [True] * 5 + [False]

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="need varying"):
            project_cells(np.zeros((4, 3)), np.zeros((1, 4, 3)))
        with pytest.raises(ValueError, match="need varying"):
            project_cells(np.zeros((2, 4, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="need varying"):
            project_cells(np.zeros((2, 4, 3)), np.zeros((1, 4, 3)),
                          np.zeros((4, 1)))


class TestPairMoments:
    def test_matches_explicit_loop(self, rng):
        for n, t in ((2, 2), (6, 2), (5, 3), (7, 6)):
            a = rng.normal(size=(n, t))
            b = rng.normal(size=(n, t))
            want_pair = np.zeros((2, t, t))
            want_unit = np.zeros((2, n, t - 1))
            for i in range(n):
                for first in range(t):
                    for second in range(first + 1, t):
                        da = a[i, second] - a[i, first]
                        db = b[i, second] - b[i, first]
                        for m, prod in enumerate((da * db, da * da)):
                            want_pair[m, first, second] += prod
                            want_unit[m, i, second - first - 1] += prod
            # every gap, the last alone, those above gap 1, and out of order
            subsets = [None, [t - 1], [t - 1, 1]] + [list(range(2, t))] * (t > 2)
            gap = np.arange(t)[None, :] - np.arange(t)[:, None]
            for gaps in subsets:
                by_pair, by_unit = pair_moments(a, b, gaps)
                swept = list(range(1, t)) if gaps is None else gaps
                # the pairs of gaps not swept stay zero
                np.testing.assert_allclose(
                    by_pair, want_pair * np.isin(gap, swept), atol=1e-12
                )
                np.testing.assert_allclose(
                    by_unit, want_unit[:, :, np.subtract(swept, 1)],
                    atol=1e-12,
                )

    def test_full_range_lemma(self, rng):
        # summed over all pairs, a unit's products equal T times its
        # centred cross moment (see pairwise_cross_moment)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5))
        _, (by_unit, _) = pair_moments(a, b)
        ac = a - a.mean(axis=1, keepdims=True)
        bc = b - b.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(
            by_unit.sum(axis=1), 5 * np.sum(ac * bc, axis=1), rtol=1e-12
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape mismatch"):
            pair_moments(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_gaps_outside_range(self):
        for gaps in ([0], [4], [1, -1]):
            with pytest.raises(ValueError, match=r"gaps must lie in 1\.\.3"):
                pair_moments(np.zeros((3, 4)), np.zeros((3, 4)), gaps)


class TestPairwiseCrossMoment:
    def test_hand_checked_case(self):
        # x = (0, 1), y = (0, 1): centred cross moment is 0.5;
        # single pair contributes 1*1 and T = 2.
        lhs, rhs = pairwise_cross_moment([0.0, 1.0], [0.0, 1.0])
        assert lhs == pytest.approx(0.5, abs=1e-15)
        assert rhs == pytest.approx(0.5, abs=1e-15)

    def test_three_point_case(self):
        # x = (1, 2, 4), y = (0, 1, 5): moments computed by hand.
        x = [1.0, 2.0, 4.0]
        y = [0.0, 1.0, 5.0]
        lhs, rhs = pairwise_cross_moment(x, y)
        # x-centred (-4/3, -1/3, 5/3) against y-centred (-2, -1, 3) gives 8;
        # pairwise route: (1 + 15 + 8) / 3 = 8.
        assert lhs == pytest.approx(8.0, rel=1e-14)
        assert rhs == pytest.approx(8.0, rel=1e-13)

    def test_random_sequences(self, rng):
        for _ in range(200):
            t = int(rng.integers(2, 41))
            x = rng.normal(size=t)
            y = rng.normal(size=t)
            lhs, rhs = pairwise_cross_moment(x, y)
            xc = x - x.mean()
            yc = y - y.mean()
            scale = max(
                abs(lhs),
                abs(rhs),
                float(np.sqrt((xc @ xc) * (yc @ yc))),
            )
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 40).flatmap(
            lambda t: st.tuples(
                st.lists(
                    st.floats(
                        -1e8, 1e8, allow_nan=False, allow_infinity=False
                    ),
                    min_size=t,
                    max_size=t,
                ),
                st.lists(
                    st.floats(
                        -1e8, 1e8, allow_nan=False, allow_infinity=False
                    ),
                    min_size=t,
                    max_size=t,
                ),
            )
        )
    )
    def test_identity_property(self, pair):
        """Both routes agree relative to the moment's Cauchy-Schwarz bound."""
        x = np.array(pair[0])
        y = np.array(pair[1])
        lhs, rhs = pairwise_cross_moment(x, y)
        xc = x - x.mean()
        yc = y - y.mean()
        bound = float(np.sqrt((xc @ xc) * (yc @ yc)))
        scale = max(abs(lhs), abs(rhs), bound, 1e-300)
        assert abs(lhs - rhs) <= 1e-11 * scale

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pairwise_cross_moment([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="two observations"):
            pairwise_cross_moment([1.0], [1.0])
