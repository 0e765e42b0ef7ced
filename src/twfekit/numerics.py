"""Dense least-squares primitives shared by the estimators.

Every covariate fit in the package is a projection by ``_project_in_place``:
one call residualizes the targets of a stack of designs, such as the whole
panel (one cell) or the period pairs of one gap (one cell per pair).

Rank handling is the one delicate piece.  Pair-level regressions generate
many small, often badly scaled designs, so the projection never forms
normal equations.  Each design's columns are orthogonalized in index order
(modified Gram-Schmidt, re-orthogonalized once); a column whose residual
norm is at most ``RANK_TOL`` times the design's largest column norm is
declared dependent and dropped.  Because the sweep runs left to right, the
*later*-indexed member of a collinear group is always the one removed, which
keeps drop decisions deterministic and lets callers order columns by
priority.

``_project_in_place`` sweeps every column per design, vectorized across
designs.  Columns common to many designs are swept once by ``_sweep`` as
far as every design takes the same decision; the caller takes that one
basis out of its data by one product (Frisch-Waugh-Lovell) and hands the
projection the other columns, with each design's tolerance.  Since each
design takes ``RANK_TOL`` relative to its own largest column norm, designs
can disagree on a common column: from the first such column on, the common
columns join the projection's, which decides them per design.

The projection overwrites the two stacks it is handed and takes every
product through one caller-supplied scratch, so every caller owns its
stacks: built for the call and read by nothing else until the sweep
returns.  Each target's coefficients are its own product with the column,
so a target's residual has the same bits whatever other targets share
its call.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for declaring a design column linearly dependent.
RANK_TOL = 1e-10


def _default_tol(varying: np.ndarray) -> np.ndarray:
    """Each cell's default drop tolerance: ``RANK_TOL`` times the largest
    norm of its columns in the ``(m, S, n)`` ``varying``."""
    norms = np.sqrt(np.einsum("msn,msn->sm", varying, varying))
    return RANK_TOL * norms.max(axis=1, initial=0.0)


def _project_in_place(
    basis: np.ndarray,
    residuals: np.ndarray,
    tol: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Residuals of each cell's targets on that cell's retained columns,
    formed in place on stacks the caller owns.

    ``basis`` ``(m, S, n)`` is the cells' design on entry, column-major,
    and their orthonormalized columns (zero where dropped) on return;
    ``residuals`` ``(r, S, n)`` holds the targets on entry and their
    residuals on return (the targets themselves in an all-zero cell); both
    are C-contiguous.  Cell ``s`` drops a column whose residual norm is at
    most ``tol[s]``; ``_default_tol`` gives the rule of the module
    docstring.  The ``(S, n)`` ``scratch`` takes every product, so the
    sweep allocates nothing of that size.  Returns the ``(S, m)`` mask of
    the columns each cell retains.
    """
    m, s_count, _ = basis.shape
    retained = np.zeros((s_count, m), dtype=bool)
    # swept per cell and vectorized across cells; each column becomes its
    # cell's next basis vector (zero when dropped)
    for j in range(m):
        col, earlier = basis[j], basis[:j]
        for _ in range(2 if j else 0):
            np.einsum(
                "ls,lsn->sn", np.einsum("lsn,sn->ls", earlier, col), earlier,
                out=scratch,
            )
            col -= scratch
        norm = np.sqrt(np.einsum("sn,sn->s", col, col))
        retained[:, j] = keep = norm > tol
        col *= np.divide(1.0, norm, out=np.zeros_like(norm), where=keep)[:, None]
        for target in residuals:
            d = np.einsum("sn,sn->s", target, col)
            target -= np.multiply(d[:, None], col, out=scratch)
    return retained


def _sweep(design: np.ndarray, tol: np.ndarray) -> tuple:
    """The left-to-right sweep of ``design``'s columns as far as every
    tolerance of ``tol`` takes the same decision.

    Returns ``(q, kept, rest)``: the ``(n, k)`` orthonormal basis of the
    columns kept before the first column whose residual norm lies between
    two tolerances, the keep flags of those columns, and the columns from
    that one on, with ``q`` taken out twice as in the sweep (none when every
    tolerance agrees on every column).
    """
    q, kept = design[:, :0], []
    for j in range(design.shape[1]):
        col = design[:, j].copy()
        # "Twice is enough": one re-orthogonalization pass recovers the
        # digits plain Gram-Schmidt loses on near-dependent columns.
        for _ in range(2 if q.shape[1] else 0):
            col -= q @ (q.T @ col)
        norm = float(np.linalg.norm(col))
        keep = norm > tol
        if keep.all():
            q = np.column_stack([q, col / norm])
        elif keep.any():
            break
        kept.append(bool(keep[0]))
    rest = design[:, len(kept):].copy()
    for _ in range(2 if q.shape[1] else 0):
        rest -= q @ (q.T @ rest)
    return q, np.array(kept, dtype=bool), rest


def pair_moments(
    x: np.ndarray, y: np.ndarray, gaps=None, sums=("pair", "unit")
):
    """Sums of period-pair difference products of two units x periods arrays.

    For every pair of periods ``t < s`` whose gap ``k = s - t`` is in
    ``gaps`` (default: every gap ``1..T-1``) and every unit ``i``, the
    changes ``dx = x[i, s] - x[i, t]`` and ``dy = y[i, s] - y[i, t]`` are
    formed once, one gap at a time, so unit offsets cancel before any
    product is taken and no units x pairs array is built.  Returns
    ``(by_pair, by_unit)``, each formed only if ``sums`` names it (``"pair"``
    or ``"unit"``) and ``None`` otherwise:

    ``by_pair``
        ``(2, T, T)`` array; ``by_pair[:, t, s]`` holds ``dx * dy`` and
        ``dx * dx`` summed over units, zero for pairs not swept and on and
        below the diagonal;
    ``by_unit``
        ``(2, N, len(gaps))`` array; ``by_unit[:, i, j]`` holds unit ``i``'s
        ``dx * dy`` and ``dx * dx`` summed over the start periods of
        ``gaps[j]``.

    Every estimator in the package is a ratio of sums of these moments: the
    by-gap and pooled-gap estimates read ``by_unit``, the by-pair
    decomposition ``by_pair``, and the equivalence check both, from one
    sweep.  A sum is the same to the bit whichever others are formed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    names = set(sums)
    if not names or not names <= {"pair", "unit"}:
        raise ValueError(f"sums must name 'pair' and/or 'unit', got {sums!r}")
    # period-major copies keep each gap's slices contiguous
    xt = np.ascontiguousarray(x.T)
    yt = np.ascontiguousarray(y.T)
    t, n = xt.shape
    gaps = range(1, t) if gaps is None else list(gaps)
    if not all(1 <= k <= t - 1 for k in gaps):
        raise ValueError(f"gaps must lie in 1..{t - 1}, got {list(gaps)}")
    # each gap's per-pair sums side by side, placed once the gap loop's
    # buffers are freed, which bounds the peak
    rows = np.empty((2, sum(t - k for k in gaps))) if "pair" in names else None
    by_unit = np.empty((2, n, len(gaps))) if "unit" in names else None
    _gap_sums(xt, yt, gaps, rows, by_unit)
    by_pair = None
    if rows is not None:
        by_pair = np.zeros((2, t, t))
        by_pair.reshape(2, t * t)[:, _pair_cells(t, gaps)] = rows
    return by_pair, by_unit


def _pair_cells(t: int, gaps) -> np.ndarray:
    """The flat index ``start * (T + 1) + k`` into a ``(T, T)`` array of
    each pair of the gaps ``gaps``, gap by gap in the order given, repeats
    included, then start by start: the order of ``_gap_sums``' rows."""
    gaps = np.asarray(gaps, dtype=np.intp)
    counts = t - gaps
    # each pair's gap, and its start: its place less its gap's first place
    gap = np.repeat(gaps, counts)
    start = np.arange(gap.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return start * (t + 1) + gap


def _gap_sums(xt, yt, gaps, rows, by_unit) -> None:
    """``pair_moments``' gap loop over the period-major ``xt`` and ``yt``:
    writes each gap's per-pair sums into the next ``T - k`` columns of
    ``rows`` and its per-unit sums into column ``j`` of ``by_unit``, either
    skipped when ``None``.  Every gap's changes, then their products, are
    formed in two buffers sized for the shortest gap."""
    t, n = xt.shape
    buffers = np.empty((2, (t - min(gaps, default=t)) * n))
    end = 0
    for j, k in enumerate(gaps):
        dx, dy = (b[: (t - k) * n].reshape(t - k, n) for b in buffers)
        np.subtract(xt[k:], xt[:-k], out=dx)
        np.subtract(yt[k:], yt[:-k], out=dy)
        products = np.multiply(dy, dx, out=dy), np.multiply(dx, dx, out=dx)
        for m, prod in enumerate(products):
            if rows is not None:
                rows[m, end : end + t - k] = prod.sum(axis=1)
            if by_unit is not None:
                by_unit[m, :, j] = prod.sum(axis=0)
        end += t - k


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
