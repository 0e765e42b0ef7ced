"""Decompositions and standard errors against the loop and stacked-row
references in ``oracles``, on panels chosen to stress the arithmetic."""

import re
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import twfekit.generalized
from helpers import ADVERSARIAL_KINDS, adversarial_panel, make_panel
from twfekit import (
    CovariateSpec,
    DgpConfig,
    GapRange,
    NoIdentifyingVariation,
    PairComponent,
    PretrendConfig,
    SCENARIOS,
    SimulatedPanel,
    causal_weights,
    fd,
    fd_decomposition,
    gap_restricted,
    generalized_twfe,
    pairwise_decomposition,
    scenario_preset,
    simulate,
    simulate_replication,
    theorem2_audit,
    twfe,
    twfe_multivariate,
    two_way_residual,
    verify_equivalence,
)
from twfekit.generalized import _pretrend_slopes


def _close(got, want):
    return abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _clusters(panel, grouped):
    if not grouped:
        return panel
    labels = [f"g{i % 3}" for i in range(panel.n_units)]
    return make_panel(
        {name: panel.values(name) for name in panel.series}, cluster=labels
    )


def _double_demean(values):
    a = values - values.mean(axis=0)
    return a - a.mean(axis=1, keepdims=True)


def _adversarial_sim(kind, collinear=False):
    """``_adversarial`` panel as a simulation with heterogeneous effects.

    With ``collinear``, a second covariate ``w2`` equals ``2 w`` except in
    one period, so the two covariate changes are collinear in every
    (gap, start) cell that does not touch that period.
    """
    panel = adversarial_panel(kind)
    rng = np.random.default_rng([11, len(kind)])
    series = {name: panel.values(name) for name in panel.series}
    base = series["y"]
    slope = 2.0 + rng.normal(size=base.shape)
    series["y"] = base + slope * series["x"]
    if collinear:
        w2 = 2.0 * series["w"]
        w2[:, -1] += rng.normal(size=base.shape[0])
        series["w2"] = w2
    return SimulatedPanel(make_panel(series), DgpConfig(), base, slope)


def _check_audit(sim, covariates):
    audit = theorem2_audit(sim, covariates)
    want = oracles.audit_loop(sim, covariates)
    # the same fit; the totals from per-unit running sums, not the loop's
    # gap sums, so they agree to roundoff rather than to the bit
    assert audit.estimate == want["estimate"]
    for name in ("tau_weighted_sum", "trend_term", "denominator"):
        got = getattr(audit, name)
        assert abs(got - want[name]) <= 1e-12 * abs(want[name]), name
    scale = max(1.0, abs(audit.estimate))
    assert abs(audit.identity_gap - want["identity_gap"]) <= 1e-12 * scale
    # relative to the trend term it splits: at T=2 the single cell is the
    # pooled fit, so the bias is zero up to roundoff on either route
    bias = want["delta_bias_term"]
    scale = max(abs(bias), abs(want["trend_term"]))
    assert abs(audit.delta_bias_term - bias) <= 1e-10 * scale
    assert audit.residual_gap == audit.trend_term - audit.delta_bias_term


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_audit_matches_cell_loop(kind):
    _check_audit(_adversarial_sim(kind), ["w"])


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_audit_matches_cell_loop_without_covariates(kind):
    _check_audit(_adversarial_sim(kind), [])


@pytest.mark.parametrize("name, covariates", [
    *((name, []) for name in sorted(SCENARIOS)),
    *((name, ["w"]) for name in sorted(SCENARIOS)
      if scenario_preset(name).uses_covariate),
], ids=str)
def test_audit_matches_cell_loop_on_presets(name, covariates):
    cfg = scenario_preset(name, n_units=40, n_periods=7)
    for rep in range(3):
        _check_audit(simulate_replication(cfg, rep), covariates)


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_audit_drops_near_collinear_covariate(kind):
    # w3 is 1e-11 off 3 w, below RANK_TOL: twfe drops it, and so does the
    # audit, whose pooled split is read off the same x residual
    sim = _adversarial_sim(kind)
    series = {name: sim.panel.values(name) for name in sim.panel.series}
    rng = np.random.default_rng([19, len(kind)])
    w = series["w"]
    series["w3"] = 3.0 * w + 1e-11 * rng.normal(size=w.shape)
    got = theorem2_audit(replace(sim, panel=make_panel(series)), ["w", "w3"])
    want = theorem2_audit(sim, ["w"])
    for name in ("estimate", "tau_weighted_sum", "trend_term",
                 "delta_bias_term", "residual_gap", "identity_gap",
                 "denominator"):
        assert _close(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("order", (["w", "w2"], ["w2", "w"]), ids="-".join)
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_audit_matches_cell_loop_collinear_covariates(kind, order):
    _check_audit(_adversarial_sim(kind, collinear=True), order)


def _check_generalized(panel, spec, scheme, k_min, k_max, presample=None):
    result = generalized_twfe(
        panel, "y", "x", spec=spec, gap_range=GapRange(k_min, k_max),
        weight_scheme=scheme, presample=presample, se=True,
    )
    comps, estimate, se, n_degenerate = oracles.generalized_loop(
        panel, "y", "x", spec, k_min, k_max, scheme, presample
    )
    got = result.decomposition.components
    # the same pairs, the same live pairs, the same dropped controls
    assert [(c.first, c.second, c.beta is None, c.dropped_controls)
            for c in got] == [(a, b, beta is None, dropped)
                              for a, b, beta, _, dropped in comps]
    for c, (_, _, beta, weight, _) in zip(got, comps):
        if beta is not None:
            assert _close(c.beta, beta)
        assert abs(c.weight - weight) <= 1e-10
    assert _close(result.estimate.beta, estimate)
    assert _close(result.estimate.se, se)
    assert result.n_degenerate == n_degenerate
    return got


def _covariate_panel(kind):
    """``_adversarial`` panel with a time-invariant ``g``, near-collinear
    controls and a three-period presample of ``w``."""
    panel = adversarial_panel(kind)
    n, t = panel.n_units, panel.n_periods
    rng = np.random.default_rng([13, len(kind)])
    series = {name: panel.values(name) for name in panel.series}
    series["g"] = np.repeat(rng.normal(size=(n, 1)), t, axis=1)
    # w2 is collinear with w in every pair that does not touch the last
    # period; w3 is 1e-11 off collinear (below RANK_TOL) in every pair
    series["w2"] = 2.0 * series["w"]
    series["w2"][:, -1] += rng.normal(size=n)
    series["w3"] = 3.0 * series["w"] + 1e-11 * rng.normal(size=(n, t))
    # 1e-3 off collinear: kept, and still well enough conditioned to agree
    series["w4"] = series["w"] + 1e-3 * rng.normal(size=(n, t))
    presample = make_panel({"w": rng.normal(size=(n, 3))}, first_period=-2)
    return make_panel(series), presample


def _covariate_spec(panel):
    """Every kind of control of ``_covariate_panel``, or none when the panel
    has too few units to leave treatment variation behind them."""
    spec = CovariateSpec(
        time_invariant=("g",),
        differenced=("w", "w2", "w3", "w4"),
        pre_period=(PretrendConfig("w", -3, -1, min_points=2),),
    )
    return spec if panel.n_units > spec.n_controls + 2 else CovariateSpec()


def _gap_ranges(t):
    """The full gap range and a short one."""
    short = min(2, t - 1)
    return {(1, t - 1), (short, max(short, t // 2))}


@pytest.mark.parametrize("scheme", ("ssr", "raw"))
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_generalized_matches_pair_loop(kind, scheme):
    panel, presample = _covariate_panel(kind)
    spec = _covariate_spec(panel)
    for k_min, k_max in _gap_ranges(panel.n_periods):
        _check_generalized(panel, spec, scheme, k_min, k_max, presample)


# whole-panel covariate sets of ``_covariate_panel``, each in both orders:
# w2 is not collinear with w over the whole panel, w3 always is
COVARIATE_SETS = (["w", "w2"], ["w2", "w"], ["w", "w3"], ["w3", "w"])


def _design(panel, names):
    return np.column_stack(
        [_double_demean(panel.values(name)).ravel() for name in names]
    )


@pytest.mark.parametrize("covariates", COVARIATE_SETS, ids="-".join)
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_two_way_residual_matches_fwl(kind, covariates):
    panel, _ = _covariate_panel(kind)
    controls = _design(panel, covariates)
    for var in ("y", "x"):
        within = _double_demean(panel.values(var))
        want = oracles.fwl_residualize(within.ravel(), controls)
        got = two_way_residual(panel, var, covariates)
        assert got.shape == within.shape
        scale = np.abs(within).max()
        assert np.abs(got.ravel() - want).max() <= 1e-10 * scale


@pytest.mark.parametrize(
    "covariates", [c for c in COVARIATE_SETS if "w3" not in c], ids="-".join
)
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_twfe_covariates_match_dummy(kind, covariates):
    # w3 is left out: the dummy lstsq does not resolve a 1e-11 dependency
    panel, _ = _covariate_panel(kind)
    got = twfe(panel, "y", "x", covariates).beta
    want = oracles.dummy_twfe(panel, "y", "x", covariates)
    assert abs(got - want) <= 1e-8 * max(abs(want), 1e-12)


@pytest.mark.parametrize("covariates", COVARIATE_SETS, ids="-".join)
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_multivariate_dependent_names_match_sweep(kind, covariates):
    panel, _ = _covariate_panel(kind)
    names = ["x", *covariates]
    _, dropped = oracles.independent_columns(_design(panel, names))
    assert bool(dropped) == ("w3" in covariates)
    if not dropped:
        assert twfe_multivariate(panel, "y", names).beta.shape == (3,)
        return
    bad = ", ".join(f"'{names[j]}'" for j in dropped)
    with pytest.raises(NoIdentifyingVariation,
                       match=f"collinear regressors .*: {re.escape(bad)}$"):
        twfe_multivariate(panel, "y", names)


def _shared_block_disagreement():
    """A panel and spec whose pairs disagree on a time-invariant control.

    g's residual norm, about 1e-6 sqrt(n), clears the tolerance of pairs
    whose largest column is of order sqrt(n), but not that of pairs
    touching the last period, where the differenced v is 1e6 larger.
    """
    rng = np.random.default_rng(17)
    n, t = 30, 6
    v = rng.normal(size=(n, t))
    v[:, -1] *= 1e6
    panel = make_panel({
        "y": rng.normal(size=(n, t)),
        "x": rng.normal(size=(n, t)),
        "v": v,
        "g": np.repeat(1e-6 * rng.normal(size=(n, 1)), t, axis=1),
    })
    return panel, CovariateSpec(time_invariant=("g",), differenced=("v",))


def _intercept_disagreement():
    """A panel and spec whose pairs disagree on the intercept.

    The differenced v is 1e12 larger in the last period, so a pair touching
    it has a tolerance of order 1e2 sqrt(n), above the intercept's norm
    sqrt(n), and drops the intercept; every other pair keeps it.
    """
    rng = np.random.default_rng(23)
    n, t = 30, 6
    v = rng.normal(size=(n, t))
    v[:, -1] *= 1e12
    panel = make_panel({
        "y": rng.normal(size=(n, t)),
        "x": rng.normal(size=(n, t)),
        "v": v,
    })
    return panel, CovariateSpec(differenced=("v",))


SHARED_DISAGREEMENTS = {
    "shared disagreement": _shared_block_disagreement,
    "intercept disagreement": _intercept_disagreement,
}


@pytest.mark.parametrize("scheme", ("ssr", "raw"))
def test_generalized_cells_disagree_on_shared_block(scheme):
    panel, spec = _shared_block_disagreement()
    t = panel.n_periods
    got = _check_generalized(panel, spec, scheme, 1, t - 1)
    for c in got:
        assert c.dropped_controls == (("g",) if c.second == t else ())


def test_intercept_dropping_pairs_fit_residual_changes():
    # a pair that drops the intercept fits the changes of the two-way
    # residuals, centred across units in every period, on its kept
    # controls, not the raw changes that oracles.generalized_loop fits
    panel, spec = _intercept_disagreement()
    d = generalized_twfe(panel, "y", "x", spec).decomposition
    rx, ry = (two_way_residual(panel, name) for name in ("x", "y"))
    v = panel.values("v")
    index = {label: j for j, label in enumerate(panel.periods)}
    dropping = 0
    for c in d.components:
        if c.dropped_controls != ("intercept",):
            assert c.dropped_controls == ()
            continue
        dropping += 1
        t, s = index[c.first], index[c.second]
        kept = (v[:, s] - v[:, t])[:, None]
        changes = np.column_stack([rx[:, s] - rx[:, t], ry[:, s] - ry[:, t]])
        resid = changes - kept @ np.linalg.lstsq(kept, changes, rcond=None)[0]
        want = float(resid[:, 0] @ resid[:, 1]) / float(resid[:, 0] @ resid[:, 0])
        assert abs(c.beta - want) <= 1e-8 * max(1.0, abs(want)), (c, want)
    # the pairs that touch the last period
    assert dropping == panel.n_periods - 1


def test_generalized_split_cells_are_contiguous(monkeypatch):
    # a shared column that pairs disagree on joins each gap's stack, which
    # the kernel receives C-contiguous, in the one workspace
    panel, spec = _shared_block_disagreement()
    original = twfekit.generalized._project_in_place
    layouts = []
    arrays = []

    def recording_kernel(varying, targets, tol, scratch):
        layouts.append(
            (varying.flags.c_contiguous, targets.flags.c_contiguous)
        )
        arrays.extend((varying, targets))
        return original(varying, targets, tol, scratch)

    monkeypatch.setattr(twfekit.generalized, "_project_in_place",
                        recording_kernel)
    got = generalized_twfe(panel, "y", "x", spec).decomposition
    assert {c.dropped_controls for c in got.components} == {(), ("g",)}
    assert layouts == [(True, True)] * (panel.n_periods - 1)
    assert all(np.shares_memory(a, arrays[0].base) for a in arrays)


def _bits(result):
    d = result.decomposition
    return (
        d.beta.tobytes(), d.weight.tobytes(), d.dropped_controls,
        repr((result.estimate.beta, result.estimate.se, result.n_degenerate)),
    )


@pytest.mark.parametrize(
    "kind", ADVERSARIAL_KINDS + tuple(SHARED_DISAGREEMENTS) + ("two and two",)
)
def test_generalized_in_place_matches_copies(kind, monkeypatch):
    # the in-place core reads no array that it or another gap overwrites:
    # a core that works on copies of its stacks gives the same bits
    if kind in SHARED_DISAGREEMENTS:
        (panel, spec), presample = SHARED_DISAGREEMENTS[kind](), None
    elif kind == "two and two":
        panel, presample = _covariate_panel("unit offsets")
        spec = CovariateSpec(
            differenced=("w", "w4"),
            pre_period=(PretrendConfig("w", -3, -1, min_points=2),
                        PretrendConfig("w", -2, -1)),
        )
    else:
        panel, presample = _covariate_panel(kind)
        spec = _covariate_spec(panel)
    calls = [
        (GapRange(k_min, k_max), scheme)
        for k_min, k_max in _gap_ranges(panel.n_periods)
        for scheme in ("ssr", "raw")
    ]

    def results():
        return [
            _bits(generalized_twfe(panel, "y", "x", spec, gap_range, scheme,
                                   presample=presample, se=True))
            for gap_range, scheme in calls
        ]

    in_place = results()
    original = twfekit.generalized._project_in_place

    def on_copies(varying, targets, tol, scratch):
        basis, residuals = varying.copy(), targets.copy()
        kept = original(basis, residuals, tol, np.empty_like(scratch))
        varying[...], targets[...] = basis, residuals
        return kept

    monkeypatch.setattr(twfekit.generalized, "_project_in_place", on_copies)
    assert results() == in_place


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_pretrend_slopes_match_window_loop(kind):
    # windows that lie in the presample, straddle it and the panel (whose
    # unit offsets the presample lacks), and lie in the panel
    panel, presample = _covariate_panel(kind)
    configs = (PretrendConfig("w", -3, -1, min_points=2),)
    got = _pretrend_slopes(panel, configs, panel.periods, presample)
    want = oracles.pretrend_slopes_loop(panel, configs, panel.periods, presample)
    assert got.shape == want.shape == (1, panel.n_periods, panel.n_units)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS + tuple(SHARED_DISAGREEMENTS))
def test_generalized_matches_gap_loop(kind):
    # the shared columns taken out of period levels, against the former
    # per-gap projection of pair changes and its group sweep
    if kind in SHARED_DISAGREEMENTS:
        (panel, spec), presample = SHARED_DISAGREEMENTS[kind](), None
    else:
        panel, presample = _covariate_panel(kind)
        spec = _covariate_spec(panel)
    for k_min, k_max in _gap_ranges(panel.n_periods):
        got = generalized_twfe(
            panel, "y", "x", spec, GapRange(k_min, k_max), presample=presample,
        ).decomposition
        want = oracles.generalized_gap_loop(
            panel, "y", "x", spec, k_min, k_max, presample
        )
        assert len(want) == got.beta.size
        if kind in SHARED_DISAGREEMENTS:
            # pairs that keep the shared column and pairs that drop it
            assert len(set(got.dropped_controls)) == 2
        for first, second, beta, dropped in zip(
            got.first.tolist(), got.second.tolist(), got.beta,
            got.dropped_controls,
        ):
            want_beta, want_dropped = want[first, second]
            assert dropped == want_dropped
            assert np.isnan(beta) == np.isnan(want_beta)
            # on the scale of _close: a pair slope near zero moves by up to
            # 1e-12 of itself when its inputs move by 1e-16
            if not np.isnan(beta):
                assert abs(beta - want_beta) <= 1e-12 * max(1.0, abs(want_beta))


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_decompositions_match_loops(kind):
    panel = adversarial_panel(kind)
    by_gap = fd_decomposition(panel, "y", "x")
    want = oracles.loop_fd_components(panel, "y", "x")
    assert len(by_gap.components) == len(want)
    for comp, (gap, beta, weight) in zip(by_gap.components, want):
        assert comp.gap == gap
        assert _close(comp.beta, beta)
        assert abs(comp.weight - weight) <= 1e-10 * max(1.0, abs(beta))
        assert type(comp.beta) is float and type(comp.weight) is float

    by_pair = pairwise_decomposition(panel, "y", "x")
    want = oracles.loop_pair_components(panel, "y", "x")
    assert len(by_pair.components) == len(want)
    for comp, (first, second, beta, weight) in zip(by_pair.components, want):
        assert (comp.first, comp.second) == (first, second)
        assert _close(comp.beta, beta)
        assert abs(comp.weight - weight) <= 1e-10 * max(1.0, abs(beta))
        assert type(comp.beta) is float and type(comp.weight) is float


def _with_degenerate_pair(panel):
    """``panel`` with x in the third period a shift of the first, so the
    pair of periods 1 and 3 carries no treatment variation."""
    series = {name: panel.values(name).copy() for name in panel.series}
    series["x"][:, 2] = series["x"][:, 0] + 1.5
    return make_panel(series)


def _check_columns(decomp, fields):
    """``decomp.components`` is built once and agrees with the columns
    field for field, a NaN beta being a ``None`` one."""
    comps = decomp.components
    assert comps is decomp.components
    assert len(comps) == decomp.beta.size
    for name in fields:
        column = getattr(decomp, name)
        values = [getattr(c, name) for c in comps]
        if column is None:  # only the covariate-adjusted estimator fills it
            assert all(v == PairComponent.__dataclass_fields__[name].default
                       for v in values), name
        elif name == "dropped_controls":
            assert values == list(column)
        elif name == "beta":
            assert [v is None for v in values] == np.isnan(column).tolist()
            assert [v for v in values if v is not None] == (
                column[~np.isnan(column)].tolist()
            )
        else:
            assert values == column.tolist(), name
            assert all(type(v) is type(w)
                       for v, w in zip(values, column.tolist())), name


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_decomposition_columns_match_components(kind):
    panel = adversarial_panel(kind)
    pair_fields = ("first", "second", "beta", "weight", "n_obs",
                   "n_controls", "dropped_controls")
    spec = CovariateSpec(differenced=("w",) if panel.n_units >= 5 else ())
    # with a third period, also a panel with one degenerate pair
    variants = [(panel, 0)]
    if panel.n_periods >= 3:
        variants.append((_with_degenerate_pair(panel), 1))
    for panel, n_degenerate in variants:
        by_gap = fd_decomposition(panel, "y", "x")
        _check_columns(by_gap, ("gap", "beta", "weight", "n_obs"))
        by_pair = pairwise_decomposition(panel, "y", "x")
        assert np.isnan(by_pair.beta).sum() == n_degenerate
        _check_columns(by_pair, pair_fields)
        for scheme in ("ssr", "raw"):
            result = generalized_twfe(panel, "y", "x", spec=spec,
                                      weight_scheme=scheme)
            assert np.isnan(result.decomposition.beta).sum() == (
                result.n_degenerate
            )
            assert result.n_degenerate >= n_degenerate
            _check_columns(result.decomposition, pair_fields)


@pytest.mark.parametrize("scheme", ("ssr", "raw"))
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_generalized_without_controls_is_pairwise(kind, scheme):
    # the two share one read-out, so they agree column by column, the
    # degenerate pair included
    panel = adversarial_panel(kind)
    variants = [panel]
    if panel.n_periods >= 3:
        variants.append(_with_degenerate_pair(panel))
    for panel in variants:
        want = pairwise_decomposition(panel, "y", "x")
        got = generalized_twfe(panel, "y", "x", weight_scheme=scheme)
        got = got.decomposition
        for name in ("first", "second", "n_obs"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        dead = np.isnan(want.beta)
        np.testing.assert_array_equal(np.isnan(got.beta), dead)
        for a, b in zip(got.beta[~dead], want.beta[~dead]):
            assert _close(a, b)
        assert np.abs(got.weight - want.weight).max() <= 1e-12
        assert _close(got.aggregate, want.aggregate)


@pytest.mark.parametrize("covariates", (None, ["w"]), ids=("plain", "w"))
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_causal_weights_match_index_build(kind, covariates):
    panel = adversarial_panel(kind)
    report = causal_weights(panel, "y", "x", covariates)
    want = oracles.causal_weights_loop(panel, "x", covariates)
    for name in ("unit_index", "gap", "start_period", "weight"):
        got = getattr(report, name)
        assert got.dtype == want[name].dtype, name
        np.testing.assert_array_equal(got, want[name], err_msg=name)
        # derived on first access, then the same array
        assert getattr(report, name) is got, name
    assert report.total_mass == want["total_mass"]
    assert report.negative_mass == want["negative_mass"]


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_causal_weight_mass_by_gap(kind, seed):
    # without covariates each gap's causal-weight mass is its fd weight,
    # and with them the gap masses still add up to the total mass
    panel = adversarial_panel(kind, seed)
    report = causal_weights(panel, "y", "x")
    masses = [float(block.sum()) for _, block in report.gap_blocks()]
    fd_weights = fd_decomposition(panel, "y", "x").weight
    assert np.abs(np.array(masses) - fd_weights).max() <= 1e-12
    report = causal_weights(panel, "y", "x", ["w"])
    masses = [float(block.sum()) for _, block in report.gap_blocks()]
    assert abs(sum(masses) - report.total_mass) <= 1e-12


_SIMULATE_OVERRIDES = {
    "as is": {},
    "feedback": {"feedback": 0.4},
    "effect_lag": {"effect_lag": 0.7},
    "feedback, lag, covariate": {
        "feedback": -0.25, "effect_lag": 0.5, "covariate_loading": 0.3,
    },
    "walk covariate": {
        "covariate_mode": "walk", "covariate_loading": 1.0, "delta_end": 1.5,
    },
    "T=2": {"n_periods": 2},
    "N=2": {"n_units": 2},
}


@pytest.mark.parametrize("overrides", _SIMULATE_OVERRIDES.values(),
                         ids=_SIMULATE_OVERRIDES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulate_matches_period_loop(scenario, overrides):
    # the whole-array build forms every element as the loop does
    for seed in (0, 1, 7, (3, 2)):
        config = scenario_preset(scenario, seed=seed, **overrides)
        got, want = simulate(config), oracles.simulate_loop(config)
        assert got.panel.units == want.panel.units
        assert got.panel.periods == want.panel.periods
        assert list(got.panel.series) == list(want.panel.series)
        for name in want.panel.series:
            assert np.array_equal(got.panel.values(name),
                                  want.panel.values(name)), name
        assert np.array_equal(got.baseline, want.baseline)
        assert np.array_equal(got.effect_slope, want.effect_slope)


@pytest.mark.parametrize("grouped", (False, True), ids=("unit", "grouped"))
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_standard_errors_match_stacked_rows(kind, grouped):
    panel = _clusters(adversarial_panel(kind), grouped)
    cluster = panel.cluster_id
    t = panel.n_periods
    yv, xv = panel.values("y"), panel.values("x")
    yt, xt = yv - yv.mean(axis=0), xv - xv.mean(axis=0)

    def check(estimate, stacked):
        want = oracles.stacked_se(stacked)
        assert abs(estimate.se - want) <= 1e-10 * max(1.0, want)

    check(
        twfe(panel, "y", "x", se=True),
        oracles.stack_differences(
            _double_demean(yv), _double_demean(xv), cluster, range(1, t)
        ),
    )
    if panel.n_units >= 5:
        # the full-range lemma under a covariate projection
        w = _double_demean(panel.values("w")).ravel()
        ry, rx = (
            oracles.fwl_residualize(_double_demean(v).ravel(), w).reshape(v.shape)
            for v in (yv, xv)
        )
        check(
            twfe(panel, "y", "x", ["w"], se=True),
            oracles.stack_differences(ry, rx, cluster, range(1, t)),
        )
    for k in sorted({1, t - 1}):
        check(
            fd(panel, "y", "x", k, se=True),
            oracles.stack_differences(yt, xt, cluster, [k]),
        )
    k_max = max(1, t // 2)
    # restricted sweeps from gap 1, from gap 2, and of the last gap alone
    last = t - 1
    for lo, hi in sorted({(1, k_max), (min(2, last), last), (last, last)}):
        check(
            gap_restricted(panel, "y", "x", GapRange(lo, hi), se=True),
            oracles.stack_differences(yt, xt, cluster, range(lo, hi + 1)),
        )

    # a differenced control needs enough units to leave variation behind
    with_control = panel.n_units >= 5
    spec = CovariateSpec(differenced=("w",) if with_control else ())
    wv = panel.values("w")

    def controls_at(a, b):
        return [wv[:, b] - wv[:, a]] if with_control else []

    for scheme in ("ssr", "raw"):
        result = generalized_twfe(
            panel, "y", "x", spec=spec, gap_range=GapRange(1, k_max),
            weight_scheme=scheme, se=True,
        )
        assert all(c.beta is not None for c in result.decomposition.components)
        check(
            result.estimate,
            oracles.generalized_stack(
                panel, "y", "x", controls_at, 1, k_max, scheme
            ),
        )


def _masses(report):
    return report.total_mass, report.negative_mass


def _traced_peak(call, arg):
    """The peak of ``call(arg)``'s traced allocations, in bytes."""
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_units_by_pairs_allocation():
    # Neither the kernel, the SE path, the audit nor the causal weights'
    # masses may build an array with one entry per unit and period pair
    # (or per stacked row).  Each call gets its own panel and simulation,
    # so that none reads a fit or sweep an earlier call left on a panel.
    n, t = 500, 60

    def inputs():
        rng = np.random.default_rng(3)
        panel = make_panel(
            {
                "y": rng.normal(size=(n, t)),
                "x": rng.normal(size=(n, t)),
                "w": rng.normal(size=(n, t)),
                "g": np.repeat(rng.normal(size=(n, 1)), t, axis=1),
            },
            cluster=[f"state{i % 50}" for i in range(n)],
        )
        presample = make_panel({"w": rng.normal(size=(n, 12))},
                               first_period=-11)
        sim = simulate(scenario_preset("time_varying_delta", n_units=n,
                                       n_periods=t))
        return SimpleNamespace(panel=panel, presample=presample, sim=sim)

    spec = CovariateSpec(
        time_invariant=("g",),
        differenced=("w",),
        pre_period=(PretrendConfig("w", -12, -3),),
    )
    units_by_pairs = n * t * (t - 1) // 2 * 8

    def pairwise(a):
        return pairwise_decomposition(a.sim.panel, "y", "x")

    def weights(a):
        return _masses(causal_weights(a.sim.panel, "y", "x", ["w"]))

    calls = (
        lambda a: theorem2_audit(a.sim, ["w"]),
        lambda a: generalized_twfe(a.panel, "y", "x", se=True),
        lambda a: generalized_twfe(a.panel, "y", "x", spec,
                                   presample=a.presample, se=True),
        lambda a: twfe(a.panel, "y", "x", se=True),
        lambda a: fd(a.panel, "y", "x", 1, se=True),
        lambda a: gap_restricted(a.panel, "y", "x", GapRange(1, t - 1),
                                 se=True),
        lambda a: fd_decomposition(a.panel, "y", "x"),
        lambda a: pairwise_decomposition(a.panel, "y", "x"),
        lambda a: _masses(causal_weights(a.panel, "y", "x")),
        weights,
    )
    for call in calls:
        assert _traced_peak(call, inputs()) < units_by_pairs / 2
    # after a cold by-gap decomposition and audit, the by-pair
    # decomposition reads the fit and sweep the panel kept, and a repeated
    # causal_weights its own fit: both peak below their cold calls
    cold, warm = inputs(), inputs()
    fd_decomposition(warm.sim.panel, "y", "x")
    theorem2_audit(warm.sim, ["w"])
    weights(warm)
    for call in (pairwise, weights):
        assert _traced_peak(call, warm) < _traced_peak(call, cold)


def _bits(value):
    """``value`` as a comparable tuple of exact bits, field by field."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    return repr(value)


def _memo_reads(covariates):
    """One call per estimate that reads a panel's kept fits and sweeps,
    each taking a simulation and returning its result's bits (or its
    error's text)."""
    spec = CovariateSpec(differenced=tuple(covariates or ()))

    def weights(panel):
        report = causal_weights(panel, "y", "x", covariates)
        return report.r, report.total_mass, report.negative_mass

    reads = {
        "twfe": lambda p: twfe(p, "y", "x", covariates, se=True),
        "fd": lambda p: fd(p, "y", "x", 1, se=True),
        "gap_restricted": lambda p: gap_restricted(
            p, "y", "x", GapRange(1, p.n_periods - 1), se=True),
        "fd_decomposition": lambda p: fd_decomposition(p, "y", "x"),
        "pairwise_decomposition": lambda p: pairwise_decomposition(p, "y", "x"),
        "verify_equivalence": lambda p: verify_equivalence(p, "y", "x"),
        "generalized_twfe": lambda p: generalized_twfe(p, "y", "x", spec,
                                                       se=True),
        "causal_weights": weights,
    }

    def guarded(call):
        def read(sim):
            try:
                return _bits(call(sim))
            except NoIdentifyingVariation as exc:
                return str(exc)
        return read

    calls = {name: guarded(lambda sim, call=call: call(sim.panel))
             for name, call in reads.items()}
    calls["theorem2_audit"] = guarded(
        lambda sim: theorem2_audit(sim, covariates))
    return calls


@pytest.mark.parametrize("covariates", [None, ["w"]])
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_memo_leaves_no_trace_of_call_order(kind, covariates):
    # every estimate on a panel that every other estimate has already read
    # is, to the bit, the same estimate on a panel of its own, whichever
    # order the others ran in
    calls = _memo_reads(covariates)
    fresh = {name: call(_adversarial_sim(kind)) for name, call in calls.items()}
    for order in (list(calls), list(calls)[::-1]):
        sim = _adversarial_sim(kind)
        for name in order:
            calls[name](sim)
        for name in order:
            assert calls[name](sim) == fresh[name], name


def _near_additive(scale):
    """50 x 10 panel whose x is additive in unit and period effects up to a
    ``scale`` multiple of noise: rule 1 flips near ``scale`` 1.5e-6."""
    rng = np.random.default_rng(11)
    n, t = 50, 10
    x = rng.normal(size=(n, 1)) + rng.normal(size=(1, t))
    x = x + scale * rng.normal(size=(n, t))
    return make_panel({"y": rng.normal(size=(n, t)), "x": x})


def _thin_gap():
    """40 x 6 panel with unit offsets 1e4 times the within variation, whose
    x repeats every three periods up to 1e-3 noise: gap 3 holds a share of
    about 1e-7 of the two-way variation, live under rule 2, far below
    rule 1's raw scale."""
    rng = np.random.default_rng(12)
    n, t = 40, 6
    x = 1e4 * rng.normal(size=(n, 1)) + np.tile(rng.normal(size=(n, 3)), 2)
    x = x + 1e-3 * rng.normal(size=(n, t))
    return make_panel({"y": x + rng.normal(size=(n, t)), "x": x})


# every estimate of the full two-way variation, which rule 1 alone judges
_FULL_RANGE = {
    "twfe": lambda p: twfe(p, "y", "x"),
    "gap_restricted": lambda p: gap_restricted(
        p, "y", "x", GapRange(1, p.n_periods - 1)
    ),
    "generalized_twfe": lambda p: generalized_twfe(p, "y", "x"),
    "causal_weights": lambda p: causal_weights(p, "y", "x"),
    "fd_decomposition": lambda p: fd_decomposition(p, "y", "x"),
    "verify_equivalence": lambda p: verify_equivalence(p, "y", "x"),
}


def _identified(call) -> bool:
    try:
        call()
    except NoIdentifyingVariation:
        return False
    return True


def _check_one_rule(panel) -> bool:
    """Every full-range estimate raises or every one returns, and each
    ``fd(k)`` raises exactly when ``fd_decomposition`` gives gap ``k`` a
    NaN beta, matching its beta otherwise; returns whether they return."""
    identified = {
        name: _identified(lambda: call(panel))
        for name, call in _FULL_RANGE.items()
    }
    assert len(set(identified.values())) == 1, identified
    if not identified["twfe"]:
        for k in range(1, panel.n_periods):
            with pytest.raises(NoIdentifyingVariation, match=f"at gap {k}$"):
                fd(panel, "y", "x", k)
        return False
    by_gap = fd_decomposition(panel, "y", "x")
    for k, want in zip(by_gap.gap.tolist(), by_gap.beta.tolist()):
        if np.isnan(want):
            with pytest.raises(NoIdentifyingVariation, match=f"at gap {k}$"):
                fd(panel, "y", "x", k)
        else:
            got = fd(panel, "y", "x", k).beta
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), k
    return True


def test_one_identification_rule_across_the_band():
    # the sweep crosses rule 1's tolerance, where a full-range sum of pair
    # changes (T times the two-way variation) held to rule 1 would pass
    # while twfe's own variation fails
    scales = np.logspace(-8, -4, 33)
    identified = [_check_one_rule(_near_additive(s)) for s in scales]
    assert identified[0] is False and identified[-1] is True


def _offset_panel(seed):
    """Random panel of 2-299 units and 3-20 periods, whose x has unit
    offsets 1e4 times its within variation."""
    rng = np.random.default_rng([13, seed])
    n, t = int(rng.integers(2, 300)), int(rng.integers(3, 21))
    x = rng.normal(size=(n, t)) + 1e4 * rng.normal(size=(n, 1))
    return make_panel({"y": x + rng.normal(size=(n, t)), "x": x})


@pytest.mark.parametrize(
    "kind",
    ADVERSARIAL_KINDS + ("thin gap",) + tuple(f"offsets {s}" for s in range(20)),
)
def test_fd_is_its_gap_of_the_decomposition(kind):
    # fd(k) and fd_decomposition's gap k add the same per-unit sums in the
    # same order: one verdict and the same bits
    if kind.startswith("offsets"):
        panel = _offset_panel(int(kind.split()[1]))
    else:
        panel = _thin_gap() if kind == "thin gap" else adversarial_panel(kind)
    by_gap = fd_decomposition(panel, "y", "x")
    for k, want in zip(by_gap.gap.tolist(), by_gap.beta.tolist()):
        try:
            got = fd(panel, "y", "x", k).beta
        except NoIdentifyingVariation:
            got = float("nan")
        assert got == want or np.isnan(got) and np.isnan(want), (k, got, want)


@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS + ("thin gap",))
def test_one_identification_rule(kind):
    panel = _thin_gap() if kind == "thin gap" else adversarial_panel(kind)
    assert _check_one_rule(panel)
    if kind == "thin gap":
        by_gap = fd_decomposition(panel, "y", "x")
        assert 0.0 < by_gap.weight[2] < 1e-6
