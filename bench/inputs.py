"""Seeded input generators for the benchmark.

Everything here draws from the benchmark's own ``numpy.random.default_rng``
and never imports twfekit: the program under test receives only the arrays,
CSV and config these functions produce.  The same seed gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads."""

    county_units: int
    county_periods: int
    county_clusters: int
    county_sim_reps: int
    county_sim_units: int
    cov_units: int
    cov_periods: int
    mc_reps: int
    mc_units: int
    mc_periods: int


FULL = Sizes(
    county_units=3000,
    county_periods=29,
    county_clusters=50,
    county_sim_reps=50,
    county_sim_units=200,
    cov_units=1000,
    cov_periods=60,
    mc_reps=200,
    mc_units=200,
    mc_periods=29,
)

# Small enough that every workload and its checks finish in a few seconds.
SMOKE = Sizes(
    county_units=60,
    county_periods=10,
    county_clusters=8,
    county_sim_reps=3,
    county_sim_units=30,
    cov_units=40,
    cov_periods=14,
    mc_reps=6,
    mc_units=30,
    mc_periods=8,
)

FIRST_YEAR = 1990

# Periods before the covariate panel's first period; the pre-trend window of
# the first anchor reaches back over all of them.
PRESAMPLE = 12

# Largest gap of the short-gap analyses in both library and CLI workloads.
SHORT_KMAX = 4


def _cell(v) -> str:
    # repr of a numpy scalar is "np.float64(...)" under numpy 2, which the
    # CSV loader rejects; a Python float gives the shortest round-trip text.
    return repr(float(v))


@dataclass
class CountyArrays:
    """County-by-year series (units x periods) and each county's state index."""

    emp: np.ndarray
    minwage: np.ndarray
    log_pop: np.ndarray
    region: np.ndarray
    state: np.ndarray


def county_arrays(seed: int, sizes: Sizes) -> CountyArrays:
    """The series behind the county CSV.

    County levels sit far above their year-to-year movement (employment
    offsets with sd 1e4 against within-county noise of about 1), as real
    county levels do, so identity checks on the output would expose a
    computation route that cancels catastrophically.
    """
    rng = np.random.default_rng(seed)
    n, t, s = sizes.county_units, sizes.county_periods, sizes.county_clusters
    state = np.arange(n) % s
    rng.shuffle(state)
    state_mw = rng.normal(2.0, 0.1, s)[:, None] + np.cumsum(
        rng.normal(0.0, 0.05, (s, t)), axis=1
    )
    minwage = (
        rng.normal(0.0, 50.0, n)[:, None]
        + state_mw[state]
        + rng.normal(0.0, 0.02, (n, t))
    )
    log_pop = rng.normal(10.0, 1.5, n)[:, None] + np.cumsum(
        rng.normal(0.01, 0.01, (n, t)), axis=1
    )
    emp = (
        rng.normal(0.0, 1e4, n)[:, None]
        + rng.normal(0.0, 1.0, t)[None, :]
        + 0.7 * minwage
        + 2.0 * log_pop
        + rng.normal(0.0, 0.5, (n, t))
    )
    region = (state * 5) // s
    return CountyArrays(emp=emp, minwage=minwage, log_pop=log_pop, region=region, state=state)


def county_csv(path, seed: int, sizes: Sizes) -> None:
    """Long county-year CSV of ``county_arrays``: county, year, state, emp,
    minwage, log_pop, region_code."""
    a = county_arrays(seed, sizes)
    lines = ["county,year,state,emp,minwage,log_pop,region_code"]
    for i in range(sizes.county_units):
        county = f"c{i:05d}"
        st = f"s{a.state[i]:02d}"
        rc = _cell(a.region[i])
        for j in range(sizes.county_periods):
            lines.append(
                f"{county},{FIRST_YEAR + j},{st},{_cell(a.emp[i, j])},"
                f"{_cell(a.minwage[i, j])},{_cell(a.log_pop[i, j])},{rc}"
            )
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


def county_config(csv_path, output_dir, seed: int, sizes: Sizes) -> str:
    """INI config using every analysis kind; no inline comments."""
    return f"""[run]
input = {csv_path}
output_dir = {output_dir}
formats = csv json
seed = {seed}

[schema]
unit = county
time = year
cluster = state
series = emp minwage log_pop region_code

[analysis:headline]
kind = twfe
y = emp
x = minwage
se = true

[analysis:firstdiff]
kind = fd
y = emp
x = minwage
gap = 1
se = true

[analysis:shortgaps]
kind = gap_restricted
y = emp
x = minwage
k_min = 1
k_max = {SHORT_KMAX}
se = true

[analysis:adjusted]
kind = generalized
y = emp
x = minwage
k_min = 1
k_max = {SHORT_KMAX}
time_invariant = region_code
differenced = log_pop
weight_scheme = ssr
se = true
summary = yes

[analysis:bygap]
kind = fd_decomposition
y = emp
x = minwage
figure = yes
summary = yes

[analysis:bypair]
kind = pairwise_decomposition
y = emp
x = minwage
summary = yes

[analysis:equiv]
kind = equivalence
y = emp
x = minwage

[analysis:weights]
kind = causal_weights
y = emp
x = minwage

[analysis:mc]
kind = simulation
scenario = parallel_trends
replications = {sizes.county_sim_reps}
n_units = {sizes.county_sim_units}
"""


@dataclass
class CovariateArrays:
    """Arrays for the covariate-adjusted workload.

    ``panel`` holds periods ``1..cov_periods``; ``presample`` holds the
    ``PRESAMPLE`` periods before them (``y`` only).  ``urban`` equals
    ``1 - rural``, so it is collinear with the intercept and ``rural`` and
    is dropped in every pair fit.
    """

    units: tuple[str, ...]
    periods: tuple[int, ...]
    pre_periods: tuple[int, ...]
    panel: dict[str, np.ndarray]
    presample: dict[str, np.ndarray]


def covariate_arrays(seed: int, sizes: Sizes) -> CovariateArrays:
    rng = np.random.default_rng(seed)
    n, t, p = sizes.cov_units, sizes.cov_periods, PRESAMPLE
    total = p + t
    calendar = np.arange(1 - p, t + 1, dtype=float)
    w = rng.normal(0.0, 1.0, n)[:, None] + np.cumsum(
        rng.normal(0.0, 0.3, (n, total)), axis=1
    )
    trend = rng.normal(0.0, 0.05, n)[:, None] * calendar[None, :]
    x = (
        rng.normal(0.0, 2.0, n)[:, None]
        + rng.normal(0.0, 1.0, total)[None, :]
        + 0.5 * w
        + 3.0 * trend
        + rng.normal(0.0, 1.0, (n, total))
    )
    y = (
        rng.normal(0.0, 5.0, n)[:, None]
        + rng.normal(0.0, 1.0, total)[None, :]
        + trend
        + 1.5 * x
        + 0.8 * w
        + rng.normal(0.0, 1.0, (n, total))
    )
    rural = rng.uniform(0.0, 1.0, n)
    width = len(str(n - 1))
    units = tuple(f"u{i:0{width}d}" for i in range(n))
    main = slice(p, total)
    return CovariateArrays(
        units=units,
        periods=tuple(range(1, t + 1)),
        pre_periods=tuple(range(1 - p, 1)),
        panel={
            "y": y[:, main],
            "x": x[:, main],
            "w": w[:, main],
            "rural": np.repeat(rural[:, None], t, axis=1),
            "urban": np.repeat(1.0 - rural[:, None], t, axis=1),
        },
        presample={"y": y[:, :p]},
    )
