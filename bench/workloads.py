"""Workload passes and the correctness checks on their outputs.

The library workloads (``covariate-adjust``, ``montecarlo``) receive the
imported ``twfekit`` module rather than importing it here, so the worker can
time the package import as part of set-up.  Each operation is timed around
the program's calls only; its checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import inputs

REL_TOL = 1e-10  # decomposition identities and standard errors
LSTSQ_TOL = 1e-8  # pair slopes against the benchmark's own least squares
MIN_PASSES = 3  # untraced passes per run, so wall_s is a median

# Output files the cli-county checks read.
COUNTY_ARTIFACTS = (
    "headline_estimate.json",
    "firstdiff_estimate.json",
    "shortgaps_estimate.json",
    "adjusted_estimate.json",
    "bygap_estimate.json",
    "bypair_estimate.json",
    "equiv_report.json",
    "weights_report.json",
)


@dataclass
class Operation:
    """Outcome of one timed operation: raw seconds, and seconds scaled to the
    reference host speed (see ``hostspeed``)."""

    seconds: float
    errors: list[str] = field(default_factory=list)
    scaled: float = 0.0


def more_passes(walls: list, elapsed: float, seconds: float, minimum: int) -> bool:
    """Whether to start another pass: until ``minimum`` passes are done, then
    while one more pass of the median length still fits in ``seconds``."""
    if len(walls) < minimum:
        return True
    return elapsed + statistics.median(walls) <= seconds


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------------
# benchmark-side reference computations (plain numpy, no twfekit)


def _double_demean(a: np.ndarray) -> np.ndarray:
    a = a - a.mean(axis=0)
    return a - a.mean(axis=1, keepdims=True)


def reference_twfe(y: np.ndarray, x: np.ndarray, w: np.ndarray | None = None) -> float:
    """Two-way slope by double demeaning, optionally partialling out ``w``."""
    ry, rx = _double_demean(y), _double_demean(x)
    if w is not None:
        rw = _double_demean(w).ravel()
        rx = rx.ravel() - rw * (rw @ rx.ravel()) / (rw @ rw)
    rx, ry = rx.ravel(), ry.ravel()
    return float(rx @ ry) / float(rx @ rx)


def reference_cluster_se(blocks, codes: np.ndarray) -> float:
    """Cluster-robust SE of the pooled slope over stacked row blocks.

    ``blocks`` holds (response, regressor) pairs of per-unit vectors and
    ``codes`` each unit's cluster index.  Residuals at the pooled slope are
    multiplied by the regressor, summed per cluster and squared, with the
    ``G / (G - 1)`` small-sample factor.
    """
    u = np.concatenate([b[0] for b in blocks])
    v = np.concatenate([b[1] for b in blocks])
    den = float(v @ v)
    residuals = u - (float(u @ v) / den) * v
    scores = np.bincount(np.tile(codes, len(blocks)), weights=v * residuals)
    g = len(np.unique(codes))
    return math.sqrt(float(scores @ scores) / (den * den) * g / (g - 1.0))


def gap_blocks(ry: np.ndarray, rx: np.ndarray, gaps) -> list:
    """Gap-difference row blocks, one per gap and start period."""
    return [
        (ry[:, s + k] - ry[:, s], rx[:, s + k] - rx[:, s])
        for k in gaps
        for s in range(ry.shape[1] - k)
    ]


def pair_blocks(y, x, controls_at, kmax: int, raw_x=None) -> dict:
    """Residualized pair changes of a covariate-adjusted estimate.

    For each period pair ``(t, s)`` with ``s - t <= kmax``, the outcome and
    treatment changes are residualized on ``controls_at(t, s)`` with
    ``np.linalg.lstsq``.  Given ``raw_x`` (the cross-sectionally demeaned
    treatment), each pair is rescaled so that its treatment variation is the
    raw pair variation, as the ``raw`` weight scheme does.  Returns
    ``{(t, s): (ry, rx)}`` keyed by column index.
    """
    blocks = {}
    periods = y.shape[1]
    for t in range(periods - 1):
        for s in range(t + 1, min(t + kmax, periods - 1) + 1):
            controls = controls_at(t, s)
            changes = np.column_stack([y[:, s] - y[:, t], x[:, s] - x[:, t]])
            coef = np.linalg.lstsq(controls, changes, rcond=None)[0]
            ry, rx = (changes - controls @ coef).T
            if raw_x is not None:
                raw = raw_x[:, s] - raw_x[:, t]
                factor = math.sqrt(float(raw @ raw) / float(rx @ rx))
                ry, rx = ry * factor, rx * factor
            blocks[(t, s)] = (ry, rx)
    return blocks


def reference_pretrend(values: np.ndarray, calendar: np.ndarray, first: int, last: int):
    """Per-unit OLS slope of ``values`` on the calendar period over [first, last]."""
    cols = (calendar >= first) & (calendar <= last)
    p = calendar[cols].astype(float)
    v = values[:, cols]
    pc = p - p.mean()
    return (v - v.mean(axis=1, keepdims=True)) @ pc / float(pc @ pc)


# ---------------------------------------------------------------------------
# covariate-adjust


class CovariateAdjust:
    """Two ``generalized_twfe`` calls on a units x 60 panel with a presample.

    (a) time-invariant + differenced + pre-trend controls over the full gap
    range with ``ssr`` weights; (b) the same controls over gaps 1 to
    ``SHORT_KMAX`` with ``raw`` weights.  Both with cluster-robust SE.
    """

    def __init__(self, tk, seed: int, sizes: inputs.Sizes):
        self.tk = tk
        self.sizes = sizes
        self.arrays = inputs.covariate_arrays(seed, sizes)
        start = time.perf_counter()
        self.panel = tk.BalancedPanel(
            units=self.arrays.units,
            periods=self.arrays.periods,
            series=self.arrays.panel,
        )
        self.presample = tk.BalancedPanel(
            units=self.arrays.units,
            periods=self.arrays.pre_periods,
            series=self.arrays.presample,
        )
        self.build_seconds = time.perf_counter() - start
        # The first anchor's window starts at the presample's first period.
        self.pretrend = tk.PretrendConfig("y", -inputs.PRESAMPLE, -3)
        self.spec = tk.CovariateSpec(
            time_invariant=("rural", "urban"),
            differenced=("w",),
            pre_period=(self.pretrend,),
        )
        self.calls = (
            ("full-ssr", None, "ssr"),
            ("short-raw", tk.GapRange(1, inputs.SHORT_KMAX), "raw"),
        )
        # label -> (pair slopes keyed by period labels, SE); built on first use
        self.references: dict[str, tuple[dict, float]] = {}

    def run_pass(self, calibrate: bool = True) -> list[Operation]:
        """One pass; ``calibrate=False`` keeps calibration out of the calls,
        for traced passes."""
        every_s = hostspeed.EVERY_S if calibrate else 0.0
        ops = []
        for label, gap_range, scheme in self.calls:
            try:
                # A call takes seconds: calibrate inside it.
                with hostspeed.Interleaved(every_s) as clock:
                    result = self.tk.generalized_twfe(
                        self.panel,
                        "y",
                        "x",
                        spec=self.spec,
                        gap_range=gap_range,
                        weight_scheme=scheme,
                        presample=self.presample,
                        se=True,
                    )
            except Exception as exc:  # a raising call is a failed operation
                ops.append(Operation(0.0, [f"{label}: {exc!r}"]))
                continue
            ops.append(Operation(clock.seconds, self.check(label, result), clock.scaled))
        return ops

    def check(self, label: str, result) -> list[str]:
        errors = []
        comps = result.decomposition.components
        live = [c for c in comps if c.beta is not None]
        if not live:
            return [f"{label}: no live pairs"]
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > REL_TOL:
            errors.append(f"{label}: weights sum to {total!r}")
        weighted = sum(c.weight * c.beta for c in live)
        agg = result.decomposition.aggregate
        if not _close(weighted, agg, REL_TOL):
            errors.append(f"{label}: aggregate {agg!r} != sum w*beta {weighted!r}")
        if not _close(result.estimate.beta, agg, REL_TOL):
            errors.append(f"{label}: estimate {result.estimate.beta!r} != aggregate")
        if label not in self.references:
            self.references[label] = self.reference(label)
        slopes, se = self.references[label]
        # No pair of these inputs is degenerate, so every pair must be live.
        if len(live) != len(slopes):
            errors.append(f"{label}: {len(live)} live pairs, expected {len(slopes)}")
        for comp in live:
            expected = slopes.get((comp.first, comp.second))
            if expected is None or abs(comp.beta - expected) > LSTSQ_TOL * max(1.0, abs(expected)):
                errors.append(
                    f"{label}: pair ({comp.first}, {comp.second}) slope "
                    f"{comp.beta!r} != lstsq {expected!r}"
                )
                break
        got = result.estimate.se
        if got is None or not _close(got, se, REL_TOL):
            errors.append(f"{label}: se {got!r} != reference {se!r}")
        return errors

    def reference(self, label: str) -> tuple[dict, float]:
        """Pair slopes and SE of call ``label`` from ``np.linalg.lstsq`` fits."""
        a = self.arrays
        y, x, w = a.panel["y"], a.panel["x"], a.panel["w"]
        n, periods = y.shape
        calendar = np.array(a.pre_periods + a.periods)
        y_all = np.concatenate([a.presample["y"], y], axis=1)
        slopes = [
            reference_pretrend(
                y_all,
                calendar,
                a.periods[t] + self.pretrend.window_start_offset,
                a.periods[t] + self.pretrend.window_end_offset,
            )
            for t in range(periods - 1)
        ]
        fixed = [np.ones(n), a.panel["rural"][:, 0], a.panel["urban"][:, 0]]

        def controls_at(t, s):
            return np.column_stack(fixed + [w[:, s] - w[:, t], slopes[t]])

        if label == "full-ssr":
            blocks = pair_blocks(y, x, controls_at, periods - 1)
        else:
            blocks = pair_blocks(y, x, controls_at, inputs.SHORT_KMAX, x - x.mean(axis=0))
        betas = {
            (a.periods[t], a.periods[s]): float(rx @ ry) / float(rx @ rx)
            for (t, s), (ry, rx) in blocks.items()
        }
        return betas, reference_cluster_se(list(blocks.values()), np.arange(n))


# ---------------------------------------------------------------------------
# montecarlo


class MonteCarlo:
    """Closed loop of simulation replications, each audited and decomposed."""

    def __init__(self, tk, seed: int, sizes: inputs.Sizes):
        self.tk = tk
        self.sizes = sizes
        start = time.perf_counter()
        self.config = tk.scenario_preset(
            "time_varying_delta",
            n_units=sizes.mc_units,
            n_periods=sizes.mc_periods,
            seed=seed,
        )
        self.build_seconds = time.perf_counter() - start
        # A replication is too short to interrupt: calibrate between them.
        self.gauge = hostspeed.Gauge()

    def run_pass(self, calibrate: bool = True) -> list[Operation]:
        """One pass; calibration runs between replications either way."""
        ops = []
        for r in range(self.sizes.mc_reps):
            ops.append(self.replication(r))
            self.gauge.add(ops[-1])
        self.gauge.finish()
        return ops

    def replication(self, index: int) -> Operation:
        tk = self.tk

        def body():
            sim = tk.simulate_replication(self.config, index)
            audit = tk.theorem2_audit(sim, ["w"])
            by_gap = tk.fd_decomposition(sim.panel, "y", "x")
            by_pair = tk.pairwise_decomposition(sim.panel, "y", "x")
            weights = tk.causal_weights(sim.panel, "y", "x", ["w"])
            return sim, audit, by_gap, by_pair, weights

        try:
            seconds, (sim, audit, by_gap, by_pair, weights) = _timed(body)
        except Exception as exc:
            return Operation(0.0, [f"replication {index}: {exc!r}"])
        errors = []
        if abs(audit.identity_gap) > REL_TOL * abs(audit.estimate):
            errors.append(f"identity_gap {audit.identity_gap!r}")
        panel = sim.panel
        y, x, w = panel.values("y"), panel.values("x"), panel.values("w")
        plain = reference_twfe(y, x)
        for name, agg in (("fd", by_gap.aggregate), ("pairwise", by_pair.aggregate)):
            if not _close(agg, plain, REL_TOL):
                errors.append(f"{name} aggregate {agg!r} != twfe {plain!r}")
        adjusted = reference_twfe(y, x, w)
        if not _close(audit.estimate, adjusted, REL_TOL):
            errors.append(f"audit estimate {audit.estimate!r} != twfe {adjusted!r}")
        if abs(weights.total_mass - 1.0) > REL_TOL:
            errors.append(f"causal weight mass {weights.total_mass!r}")
        return Operation(seconds, [f"replication {index}: {e}" for e in errors])


LIBRARY_WORKLOADS = {"covariate-adjust": CovariateAdjust, "montecarlo": MonteCarlo}


# ---------------------------------------------------------------------------
# cli-county artifacts


def artifact_digest(outdir: str) -> tuple[str, int]:
    """sha256 over the sorted (file name, bytes) set, and the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        digest.update(data)
        total += len(data)
    return digest.hexdigest(), total


def county_reference_se(a: inputs.CountyArrays) -> dict[str, float]:
    """The SE each ``se = true`` analysis of ``county_config`` should report,
    keyed by its artifact."""
    yt = a.emp - a.emp.mean(axis=0)
    xt = a.minwage - a.minwage.mean(axis=0)
    ry = yt - yt.mean(axis=1, keepdims=True)
    rx = xt - xt.mean(axis=1, keepdims=True)
    fixed = [np.ones(a.emp.shape[0]), a.region.astype(float)]

    def controls_at(t, s):
        return np.column_stack(fixed + [a.log_pop[:, s] - a.log_pop[:, t]])

    adjusted = pair_blocks(a.emp, a.minwage, controls_at, inputs.SHORT_KMAX)
    short = range(1, inputs.SHORT_KMAX + 1)
    return {
        "headline_estimate.json": reference_cluster_se(gap_blocks(ry, rx, range(1, ry.shape[1])), a.state),
        "firstdiff_estimate.json": reference_cluster_se(gap_blocks(yt, xt, [1]), a.state),
        "shortgaps_estimate.json": reference_cluster_se(gap_blocks(yt, xt, short), a.state),
        "adjusted_estimate.json": reference_cluster_se(list(adjusted.values()), a.state),
    }


def check_county_artifacts(outdir: str, reference_se: dict[str, float]) -> list[str]:
    """Identity and SE checks on one ``twfekit run`` output directory."""
    try:
        report = {}
        for name in COUNTY_ARTIFACTS:
            with open(os.path.join(outdir, name)) as handle:
                report[name] = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc!r}"]
    errors = []
    beta = report["headline_estimate.json"]["beta"]
    for name in ("bygap_estimate.json", "bypair_estimate.json"):
        agg = report[name]["aggregate"]
        if not _close(agg, beta, REL_TOL):
            errors.append(f"{name} aggregate {agg!r} != headline beta {beta!r}")
    for name, expected in reference_se.items():
        se = report[name]["se"]
        if not isinstance(se, float) or not _close(se, expected, REL_TOL):
            errors.append(f"{name} se {se!r} != reference {expected!r}")
    gap = report["equiv_report.json"]["max_rel_gap"]
    if not gap < REL_TOL:
        errors.append(f"equivalence max_rel_gap {gap!r}")
    mass = report["weights_report.json"]["total_mass"]
    if abs(mass - 1.0) > REL_TOL:
        errors.append(f"causal weight total_mass {mass!r}")
    return errors
