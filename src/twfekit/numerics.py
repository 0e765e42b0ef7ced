"""Dense least-squares primitives shared by the estimators.

Rank handling is the one delicate piece.  Pair-level regressions generate
many small, often badly scaled designs, so ``ols`` never forms normal
equations.  Columns are orthogonalized in index order (modified Gram-Schmidt,
re-orthogonalized once); a column whose residual norm falls below
``RANK_TOL`` times the largest column norm is declared dependent and dropped.
Because the sweep runs left to right, the *later*-indexed member of a
collinear group is always the one removed, which keeps drop decisions
deterministic and lets callers order columns by priority.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoIdentifyingVariation

#: Relative tolerance for declaring a design column linearly dependent.
RANK_TOL = 1e-10


@dataclass
class LeastSquaresFit:
    """Solution of a least-squares problem on the retained design columns.

    ``coefficients[j]`` belongs to original column ``retained_columns[j]``;
    dropped columns have no coefficient.  For an ``(n, m)`` response,
    ``coefficients`` and ``residuals`` carry a trailing axis of length ``m``
    and ``sum_sq_residuals`` is an array of ``m`` sums.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    sum_sq_residuals: float | np.ndarray
    retained_columns: list[int]
    dropped_columns: list[int]

    def coefficient(self, column: int) -> float:
        """Coefficient on design column ``column`` (0.0 if dropped); 1-D fits."""
        if column in self.dropped_columns:
            return 0.0
        return float(self.coefficients[self.retained_columns.index(column)])


def independent_columns(design: np.ndarray) -> tuple[list[int], list[int]]:
    """Split column indices into (retained, dropped) by the left-to-right sweep.

    Raises :class:`NoIdentifyingVariation` if the design is entirely zero.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    if n == 0 or p == 0:
        raise ValueError("design must have at least one row and one column")
    col_norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    scale = float(col_norms.max())
    if scale == 0.0 or not np.isfinite(scale):
        raise NoIdentifyingVariation(
            "no identifying variation: design matrix is zero"
        )
    tol = RANK_TOL * scale
    basis: list[np.ndarray] = []
    retained: list[int] = []
    dropped: list[int] = []
    for j in range(p):
        v = x[:, j].copy()
        if basis:
            q = np.column_stack(basis)
            # "Twice is enough": one re-orthogonalization pass recovers the
            # digits plain Gram-Schmidt loses on near-dependent columns.
            v -= q @ (q.T @ v)
            v -= q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > tol:
            retained.append(j)
            basis.append(v / norm)
        else:
            dropped.append(j)
    return retained, dropped


def ols(design: np.ndarray, response: np.ndarray) -> LeastSquaresFit:
    """Least squares of ``response`` on the columns of ``design``.

    Dependent columns are dropped (see module docstring) before solving, so
    the returned coefficients are always those of a full-rank subproblem.
    ``response`` is ``(n,)`` or ``(n, m)``; an ``(n, m)`` response fits its
    ``m`` columns on the one retained design, so the drop decision is made
    once, ``coefficients`` and ``residuals`` gain a trailing axis of length
    ``m`` and ``sum_sq_residuals`` holds one sum per column.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = _response(response)
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {x.shape[0]} rows but response has {y.shape[0]}"
        )
    retained, dropped = independent_columns(x)
    kept = x[:, retained]
    coef, _, _, _ = np.linalg.lstsq(kept, y, rcond=None)
    residuals = y - kept @ coef
    if y.ndim == 1:
        ssr = float(residuals @ residuals)
    else:
        ssr = np.einsum("ij,ij->j", residuals, residuals)
    return LeastSquaresFit(
        coefficients=coef,
        residuals=residuals,
        sum_sq_residuals=ssr,
        retained_columns=retained,
        dropped_columns=dropped,
    )


def fwl_residualize(target: np.ndarray, controls: np.ndarray | None) -> np.ndarray:
    """Residual of ``target`` after projecting out ``controls``.

    ``target`` is ``(n,)`` or ``(n, m)``; the residual has its shape, and
    the ``m`` columns share one fit (one drop decision) on ``controls``.
    ``controls`` may be ``None`` or have zero columns (target returned
    unchanged).  An all-zero control block projects out nothing.
    """
    y = _response(target)
    if controls is None:
        return y.copy()
    c = np.asarray(controls, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[1] == 0:
        return y.copy()
    if c.shape[0] != y.shape[0]:
        raise ValueError(
            f"controls have {c.shape[0]} rows but target has {y.shape[0]}"
        )
    try:
        fit = ols(c, y)
    except NoIdentifyingVariation:
        return y.copy()
    return fit.residuals


def _response(values) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"response must be (n,) or (n, m), got shape {y.shape}")
    return y


def pair_moments(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of period-pair difference products of two units x periods arrays.

    For every pair of periods ``t < s`` and unit ``i`` the product
    ``(a[i, s] - a[i, t]) * (b[i, s] - b[i, t])`` is formed from the exact
    differences, one gap ``k = s - t`` at a time, so unit offsets cancel
    before any product is taken and no units x pairs array is built.
    Returns

    ``by_pair``
        ``(T, T)`` array; ``by_pair[t, s]`` is the product summed over units
        for ``t < s`` and zero on and below the diagonal;
    ``by_unit``
        ``(N, T - 1)`` array; ``by_unit[i, k - 1]`` is unit ``i``'s product
        summed over the start periods of gap ``k``.

    Every estimator in the package is a ratio of sums of these moments.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # period-major copies keep each gap's slices contiguous
    at = np.ascontiguousarray(a.T)
    bt = np.ascontiguousarray(b.T)
    t, n = at.shape
    by_pair = np.zeros((t, t))
    by_unit = np.empty((n, t - 1))
    for k in range(1, t):
        prod = at[k:] - at[:-k]
        prod *= bt[k:] - bt[:-k]
        starts = np.arange(t - k)
        by_pair[starts, starts + k] = prod.sum(axis=1)
        by_unit[:, k - 1] = prod.sum(axis=0)
    return by_pair, by_unit


def pairwise_cross_moment(x_seq, y_seq) -> tuple[float, float]:
    """Both sides of the centred-moment / pairwise-difference identity.

    For length-``T`` vectors the centred cross moment
    ``sum_t (x_t - xbar)(y_t - ybar)`` equals ``(1/T)`` times the sum of
    ``(x_s - x_t)(y_s - y_t)`` over the ``T(T-1)/2`` ordered pairs ``s > t``.
    The two sides are computed by entirely separate routes and returned as
    ``(lhs, rhs)`` so callers can check the identity numerically.
    """
    x = np.asarray(x_seq, dtype=float).ravel()
    y = np.asarray(y_seq, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    t = x.shape[0]
    if t < 2:
        raise ValueError("need at least two observations")
    xc = x - x.mean()
    xc -= xc.mean()
    yc = y - y.mean()
    yc -= yc.mean()
    lhs = float(xc @ yc)
    ti, si = np.triu_indices(t, k=1)
    rhs = float(np.sum((x[si] - x[ti]) * (y[si] - y[ti]))) / t
    return lhs, rhs
