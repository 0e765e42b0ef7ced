"""Decompositions and standard errors against the loop and stacked-row
references in ``oracles``, on panels chosen to stress the arithmetic."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from helpers import ADVERSARIAL_KINDS, adversarial_panel, make_panel
from twfekit import (
    CovariateSpec,
    DgpConfig,
    GapRange,
    NoIdentifyingVariation,
    PairComponent,
    PretrendConfig,
    SimulatedPanel,
    causal_weights,
    fd,
    fd_decomposition,
    gap_restricted,
    generalized_twfe,
    pairwise_decomposition,
    scenario_preset,
    simulate,
    theorem2_audit,
    twfe,
    twfe_multivariate,
    two_way_residual,
)


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
    for name in ("estimate", "tau_weighted_sum", "trend_term",
                 "identity_gap", "denominator"):
        assert getattr(audit, name) == want[name], name
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


@pytest.mark.parametrize("scheme", ("ssr", "raw"))
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
def test_generalized_matches_pair_loop(kind, scheme):
    panel, presample = _covariate_panel(kind)
    t = panel.n_periods
    spec = CovariateSpec(
        time_invariant=("g",),
        differenced=("w", "w2", "w3", "w4"),
        pre_period=(PretrendConfig("w", -3, -1, min_points=2),),
    )
    if panel.n_units <= spec.n_controls + 2:
        # too few units to leave treatment variation behind the controls
        spec = CovariateSpec()
    short = min(2, t - 1)
    for k_min, k_max in {(1, t - 1), (short, max(short, t // 2))}:
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


@pytest.mark.parametrize("scheme", ("ssr", "raw"))
def test_generalized_cells_disagree_on_shared_block(scheme):
    # g's residual norm, about 1e-6 sqrt(n), clears the tolerance of pairs
    # whose largest column is of order sqrt(n), but not that of pairs
    # touching the last period, where the differenced v is 1e6 larger
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
    spec = CovariateSpec(time_invariant=("g",), differenced=("v",))
    got = _check_generalized(panel, spec, scheme, 1, t - 1)
    for c in got:
        assert c.dropped_controls == (("g",) if c.second == t else ())


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


def test_no_units_by_pairs_allocation():
    # Neither the kernel, the SE path nor the audit may build an array
    # with one entry per unit and period pair (or per stacked row).
    rng = np.random.default_rng(3)
    n, t = 500, 60
    panel = make_panel(
        {"y": rng.normal(size=(n, t)), "x": rng.normal(size=(n, t))},
        cluster=[f"state{i % 50}" for i in range(n)],
    )
    sim = simulate(scenario_preset("time_varying_delta", n_units=n,
                                   n_periods=t))
    units_by_pairs = n * t * (t - 1) // 2 * 8
    calls = (
        lambda: theorem2_audit(sim, ["w"]),
        lambda: generalized_twfe(panel, "y", "x", se=True),
        lambda: twfe(panel, "y", "x", se=True),
        lambda: fd(panel, "y", "x", 1, se=True),
        lambda: gap_restricted(panel, "y", "x", GapRange(1, t - 1), se=True),
        lambda: fd_decomposition(panel, "y", "x"),
        lambda: pairwise_decomposition(panel, "y", "x"),
    )
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < units_by_pairs / 2
