"""Cluster-robust standard errors for difference-based panel estimators.

Convention
----------
Every point estimator in this package is a pooled slope over *differenced*
observations (gap differences or period-pair differences): with regressor
differences ``v`` and response differences ``u``, the slope is
``sum(v u) / sum(v^2)``.  Its variance is the one-regressor cluster-robust
sandwich of those differenced observations, built from per-unit sums alone.
With ``cross_i = sum v u`` and ``sq_i = sum v^2`` over unit ``i``'s
differenced observations, unit ``i``'s score at the pooled slope ``b`` is
``cross_i - b * sq_i``, and

    Var = den^-2 * sum_g (sum_{i in g} (cross_i - b * sq_i))^2 * G / (G - 1)

with ``den = sum_i sq_i``, clusters ``g`` (one per sampling unit by default),
and the usual small-sample factor ``G/(G-1)``.  Confidence intervals use
normal critical values.

Summing scores per unit first gives exactly the sandwich of the long
regression that stacks every differenced observation as a row, without
building those rows.  This is a reporting convention, chosen so that one
formula serves the plain, gap-restricted, and covariate-adjusted estimators
alike; it is not the only defensible variance for these estimators.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NoIdentifyingVariation


def cluster_robust_se(
    cross: np.ndarray, sq: np.ndarray, cluster_id: Sequence[str]
) -> float:
    """Cluster-robust standard error of the pooled slope ``sum(cross) / sum(sq)``.

    ``cross[i]`` and ``sq[i]`` are unit ``i``'s sums of ``v u`` and ``v^2``
    over its differenced observations, and ``cluster_id[i]`` its cluster.
    Scores are summed within each cluster before squaring, so the result is
    invariant to relabelling or reordering clusters.  Requires at least two
    clusters and a regressor with positive variation.
    """
    cross = np.asarray(cross, dtype=float).ravel()
    sq = np.asarray(sq, dtype=float).ravel()
    labels = np.asarray(cluster_id).ravel()
    n = cross.shape[0]
    if sq.shape[0] != n or labels.shape[0] != n:
        raise ValueError(
            f"length mismatch: cross {n}, sq {sq.shape[0]}, "
            f"cluster_id {labels.shape[0]}"
        )
    den = float(sq.sum())
    if den <= 0.0:
        raise NoIdentifyingVariation("zero regressor variation")
    groups, codes = np.unique(labels, return_inverse=True)
    n_clusters = groups.shape[0]
    if n_clusters < 2:
        raise ValueError(
            f"cluster-robust inference needs at least 2 clusters, got {n_clusters}"
        )
    slope = float(cross.sum()) / den
    scores = np.bincount(
        codes.ravel(), weights=cross - slope * sq, minlength=n_clusters
    )
    meat = float(scores @ scores)
    variance = meat / (den * den) * (n_clusters / (n_clusters - 1.0))
    return math.sqrt(variance)
