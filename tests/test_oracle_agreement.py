"""Decompositions and standard errors against the loop and stacked-row
references in ``oracles``, on panels chosen to stress the arithmetic."""

import tracemalloc

import numpy as np
import pytest

import oracles
from helpers import make_panel
from twfekit import (
    CovariateSpec,
    GapRange,
    fd,
    fd_decomposition,
    gap_restricted,
    generalized_twfe,
    pairwise_decomposition,
    twfe,
)


def _adversarial(kind, seed=7):
    """Panel with series y, x, w of one adversarial kind."""
    rng = np.random.default_rng([seed, len(kind)])
    n, t = {"T=2": (9, 2), "N=2": (2, 6)}.get(kind, (25, 7))

    def draw():
        if kind == "t(2) tails":
            return rng.standard_t(2, size=(n, t))
        if kind == "random walk":
            return np.cumsum(rng.normal(size=(n, t)), axis=1)
        return rng.normal(size=(n, t))

    series = {"y": draw(), "x": draw(), "w": draw()}
    if kind == "unit offsets":
        # unit effects 1e4 times the within-unit variation
        for name in series:
            series[name] = series[name] + 1e4 * rng.normal(size=(n, 1))
    return make_panel(series)


KINDS = ("unit offsets", "t(2) tails", "random walk", "T=2", "N=2")


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


@pytest.mark.parametrize("kind", KINDS)
def test_decompositions_match_loops(kind):
    panel = _adversarial(kind)
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


@pytest.mark.parametrize("grouped", (False, True), ids=("unit", "grouped"))
@pytest.mark.parametrize("kind", KINDS)
def test_standard_errors_match_stacked_rows(kind, grouped):
    panel = _clusters(_adversarial(kind), grouped)
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
    for k in sorted({1, t - 1}):
        check(
            fd(panel, "y", "x", k, se=True),
            oracles.stack_differences(yt, xt, cluster, [k]),
        )
    k_max = max(1, t // 2)
    check(
        gap_restricted(panel, "y", "x", GapRange(1, k_max), se=True),
        oracles.stack_differences(yt, xt, cluster, range(1, k_max + 1)),
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
    # Neither the kernel nor the SE path may build an array with one entry
    # per unit and period pair (or per stacked row).
    rng = np.random.default_rng(3)
    n, t = 500, 60
    panel = make_panel(
        {"y": rng.normal(size=(n, t)), "x": rng.normal(size=(n, t))},
        cluster=[f"state{i % 50}" for i in range(n)],
    )
    units_by_pairs = n * t * (t - 1) // 2 * 8
    calls = (
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
