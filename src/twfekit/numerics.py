"""Dense least-squares primitives shared by the estimators.

Every covariate fit in the package is a projection by ``project_cells``:
one call residualizes the targets of a stack of designs, such as the whole
panel (one cell) or the period pairs of one gap (one cell per pair).

Rank handling is the one delicate piece.  Pair-level regressions generate
many small, often badly scaled designs, so ``project_cells`` never forms
normal equations.  Each design's columns are orthogonalized in index order
(modified Gram-Schmidt, re-orthogonalized once); a column whose residual
norm is at most ``RANK_TOL`` times the design's largest column norm is
declared dependent and dropped.  Because the sweep runs left to right, the
*later*-indexed member of a collinear group is always the one removed, which
keeps drop decisions deterministic and lets callers order columns by
priority.

Designs with common leading columns share one sweep of that block, which is
then taken out of the rest by one product (Frisch-Waugh-Lovell); only the
other columns are swept per design, vectorized across designs.  Designs
that disagree on a common column, since each takes ``RANK_TOL`` relative to
its own largest column norm, are grouped by the ones they keep.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for declaring a design column linearly dependent.
RANK_TOL = 1e-10


def project_cells(
    varying: np.ndarray,
    targets: np.ndarray,
    shared: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of each cell's targets on that cell's retained columns.

    Cell ``s`` of ``S`` has the design ``[shared, *varying[:, s]]``: the
    ``(n, p0)`` block ``shared`` (or none) is common to every cell, and
    ``varying`` is ``(m, S, n)``, column-major.  ``targets`` is ``(r, S, n)``.
    Returns the ``(r, S, n)`` residuals (the targets themselves in an
    all-zero cell) and the ``(S, p0 + m)`` mask of the design columns each
    cell retains by the drop rule of the module docstring.
    """
    v, y = np.asarray(varying, dtype=float), np.asarray(targets, dtype=float)
    c = np.empty((v.shape[-1], 0)) if shared is None else np.asarray(shared, float)
    if v.ndim != 3 or y.ndim != 3 or y.shape[1:] != v.shape[1:] or (
        c.ndim != 2 or c.shape[:1] != v.shape[2:]
    ):
        raise ValueError(
            f"need varying (m, S, n), targets (r, S, n) and shared (n, p0), "
            f"got shapes {v.shape}, {y.shape} and {c.shape}"
        )
    (m, s_count, _), p0 = v.shape, c.shape[1]
    # each cell's largest column norm, the shared ones included
    shared_max = float(np.sqrt(np.einsum("ij,ij->j", c, c)).max()) if p0 else 0.0
    norms = np.sqrt(np.einsum("msn,msn->sm", v, v))
    tol = RANK_TOL * norms.max(axis=1, initial=shared_max)
    basis = v.copy()
    residuals = y.copy()
    retained = np.zeros((s_count, p0 + m), dtype=bool)
    for cells, q, kept in _sweep(c, tol) if p0 else ():
        retained[cells, :p0] = kept
        outside = np.ones(s_count, dtype=bool)
        outside[cells] = False
        # Frisch-Waugh-Lovell: one product takes the shared basis out of
        # the group's cells, twice for the columns as in the sweep; zeroed
        # coefficients leave the other cells as they are, without copies
        for block, passes in ((basis, 2), (residuals, 1)):
            for _ in range(passes):
                coef = block @ q
                coef[:, outside] = 0.0
                block -= coef @ q.T
    # the varying columns, swept per cell and vectorized across cells; each
    # column becomes its cell's next basis vector (zero when dropped)
    for j in range(m):
        col, earlier = basis[j], basis[:j]
        for _ in range(2 if j else 0):
            col -= np.einsum(
                "ls,lsn->sn", np.einsum("lsn,sn->ls", earlier, col), earlier
            )
        norm = np.sqrt(np.einsum("sn,sn->s", col, col))
        retained[:, p0 + j] = keep = norm > tol
        col *= np.divide(1.0, norm, out=np.zeros_like(norm), where=keep)[:, None]
        residuals -= np.einsum("rsn,sn->rs", residuals, col)[:, :, None] * col
    return residuals, retained


def _sweep(design: np.ndarray, tol: np.ndarray) -> list:
    """The left-to-right sweep of ``design``'s columns under tolerances ``tol``.

    A residual norm between two tolerances splits them, so the result is a
    list of ``(indices into tol, (n, k) orthonormal basis, keep flags)``.
    """
    groups = [(np.arange(tol.size), design[:, :0], [])]
    for j in range(design.shape[1]):
        split = []
        for cells, q, kept in groups:
            col = design[:, j].copy()
            # "Twice is enough": one re-orthogonalization pass recovers the
            # digits plain Gram-Schmidt loses on near-dependent columns.
            for _ in range(2 if q.shape[1] else 0):
                col -= q @ (q.T @ col)
            norm = float(np.linalg.norm(col))
            keep = norm > tol[cells]
            if keep.any():
                basis = np.column_stack([q, col / norm])
                split.append((cells[keep], basis, kept + [True]))
            if not keep.all():
                split.append((cells[~keep], q, kept + [False]))
        groups = split
    return groups


def pair_moments(x: np.ndarray, y: np.ndarray, gaps=None):
    """Sums of period-pair difference products of two units x periods arrays.

    For every pair of periods ``t < s`` whose gap ``k = s - t`` is in
    ``gaps`` (default: every gap ``1..T-1``) and every unit ``i``, the
    changes ``dx = x[i, s] - x[i, t]`` and ``dy = y[i, s] - y[i, t]`` are
    formed once, one gap at a time, so unit offsets cancel before any
    product is taken and no units x pairs array is built.  Returns

    ``by_pair``
        ``(2, T, T)`` array; ``by_pair[:, t, s]`` holds ``dx * dy`` and
        ``dx * dx`` summed over units, zero for pairs not swept and on and
        below the diagonal;
    ``by_unit``
        ``(2, N, len(gaps))`` array; ``by_unit[:, i, j]`` holds unit ``i``'s
        ``dx * dy`` and ``dx * dx`` summed over the start periods of
        ``gaps[j]``.

    Every estimator in the package is a ratio of sums of these moments.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    # period-major copies keep each gap's slices contiguous
    xt = np.ascontiguousarray(x.T)
    yt = np.ascontiguousarray(y.T)
    t, n = xt.shape
    gaps = range(1, t) if gaps is None else list(gaps)
    if not all(1 <= k <= t - 1 for k in gaps):
        raise ValueError(f"gaps must lie in 1..{t - 1}, got {list(gaps)}")
    by_pair = np.zeros((2, t, t))
    by_unit = np.empty((2, n, len(gaps)))
    for j, k in enumerate(gaps):
        dx = xt[k:] - xt[:-k]
        starts = np.arange(t - k)
        for m, prod in enumerate(((yt[k:] - yt[:-k]) * dx, dx * dx)):
            by_pair[m, starts, starts + k] = prod.sum(axis=1)
            by_unit[m, :, j] = prod.sum(axis=0)
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
