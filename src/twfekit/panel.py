"""Balanced-panel container, CSV ingestion, and the two core array transforms.

A :class:`BalancedPanel` is rectangular by construction: every unit is observed
in every period, periods are consecutive integers, and every stored series is a
finite ``float64`` array of shape ``(n_units, n_periods)``.  Estimation code in
the rest of the package relies on those guarantees and never re-checks them, so
all validation lives here.

The two transforms every estimator is built from:

``demean``
    removes the cross-sectional (per-period) mean from a series, i.e. maps
    ``v_it`` to ``v_it - mean_j(v_jt)``.
``k_difference``
    forms the gap-``k`` forward difference ``v_i,t+k - v_it`` for every start
    period ``t``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import PanelError


@dataclass(frozen=True)
class PanelSchema:
    """Column roles used by :func:`load_panel`.

    ``series`` lists the value columns to load (outcome, treatment, controls,
    ...).  When ``None``, every column other than the unit, time, and cluster
    columns is loaded as a series.
    """

    unit: str
    time: str
    series: tuple[str, ...] | None = None
    cluster: str | None = None


@dataclass(frozen=True, eq=False)
class BalancedPanel:
    """Rectangular panel: ``units`` x ``periods`` with named value series.

    Attributes
    ----------
    units : tuple of str
        Unit labels, sorted; row ``i`` of every series belongs to ``units[i]``.
    periods : tuple of int
        Consecutive integer time labels; column ``t`` of every series belongs
        to ``periods[t]``.
    series : dict mapping name -> ndarray of shape (n_units, n_periods)
        Finite float64 arrays, stored read-only.
    cluster_id : tuple of str
        One cluster label per unit, used by cluster-robust inference.
        Defaults to the unit labels themselves.
    """

    units: tuple[str, ...]
    periods: tuple[int, ...]
    series: dict[str, np.ndarray]
    cluster_id: tuple[str, ...] = field(default=())

    def __post_init__(self):
        units = tuple(str(u) for u in self.units)
        periods = tuple(int(p) for p in self.periods)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "periods", periods)
        n, t = len(units), len(periods)
        if n < 2:
            raise PanelError(f"panel needs at least 2 units, got {n}")
        if t < 2:
            raise PanelError(f"panel needs at least 2 periods, got {t}")
        if len(set(units)) != n:
            raise PanelError("duplicate unit labels")
        for a, b in zip(periods, periods[1:]):
            if b != a + 1:
                raise PanelError(
                    f"time labels must be consecutive integers; gap between {a} and {b}"
                )
        clean: dict[str, np.ndarray] = {}
        for name, values in self.series.items():
            arr = np.ascontiguousarray(values, dtype=float)
            if arr.shape != (n, t):
                raise PanelError(
                    f"series '{name}' has shape {arr.shape}, expected ({n}, {t})"
                )
            if not np.all(np.isfinite(arr)):
                i, j = np.argwhere(~np.isfinite(arr))[0]
                raise PanelError(
                    f"series '{name}' is not finite for unit '{units[i]}' "
                    f"in period {periods[j]}"
                )
            arr.flags.writeable = False
            clean[name] = arr
        object.__setattr__(self, "series", clean)
        cluster = self.cluster_id if self.cluster_id else units
        cluster = tuple(str(c) for c in cluster)
        if len(cluster) != n:
            raise PanelError(
                f"cluster_id has {len(cluster)} entries for {n} units"
            )
        object.__setattr__(self, "cluster_id", cluster)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def values(self, name: str) -> np.ndarray:
        """Return the (read-only) array for series ``name``."""
        try:
            return self.series[name]
        except KeyError:
            raise PanelError(
                f"unknown series '{name}'; panel has {sorted(self.series)}"
            ) from None

    def period_index(self, label: int) -> int:
        """Column index of time label ``label``."""
        first = self.periods[0]
        idx = int(label) - first
        if not 0 <= idx < self.n_periods:
            raise PanelError(
                f"period {label} outside panel range "
                f"{first}..{self.periods[-1]}"
            )
        return idx


def demean(panel: BalancedPanel, var: str) -> np.ndarray:
    """Cross-sectionally demean ``var``: subtract each period's mean over units.

    Returns a (n_units, n_periods) array whose columns sum to zero.  Two
    passes of mean removal are used so column sums are zero to roundoff even
    for badly centred data.
    """
    v = panel.values(var)
    centered = v - v.mean(axis=0)
    centered -= centered.mean(axis=0)
    return centered


def k_difference(panel: BalancedPanel, var: str, k: int) -> np.ndarray:
    """Forward difference ``v[i, t+k] - v[i, t]`` over all start periods.

    Returns a (n_units, n_periods - k) array; column ``t`` holds the
    difference starting in period ``periods[t]``.
    """
    k = int(k)
    if not 1 <= k <= panel.n_periods - 1:
        raise PanelError(
            f"gap must satisfy 1 <= k <= {panel.n_periods - 1}, got {k}"
        )
    v = panel.values(var)
    return v[:, k:] - v[:, :-k]


def _parse_time(cell: str, line_num: int) -> int:
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise PanelError(
            f"line {line_num}: time label '{cell}' is not an integer"
        ) from None
    if not value.is_integer():
        raise PanelError(
            f"line {line_num}: time label '{cell}' is not an integer"
        )
    return int(value)


def _parse_value(cell: str, column: str, line_num: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise PanelError(
            f"line {line_num}: non-numeric value '{cell}' in column '{column}'"
        ) from None
    if not math.isfinite(value):
        raise PanelError(
            f"line {line_num}: non-finite value '{cell}' in column '{column}'"
        )
    return value


def load_panel(
    path,
    schema: PanelSchema,
    delimiter: str = ",",
    balance: str = "error",
) -> BalancedPanel:
    """Read a long-format delimited file into a :class:`BalancedPanel`.

    Every (unit, period) cell must appear exactly once.  The panel's period
    range is the set of distinct time labels observed anywhere in the file;
    `balance` controls what happens to units that do not cover that range:

    - ``"error"`` (default): raise :class:`PanelError` naming the first
      missing (unit, period) cell;
    - ``"drop-units"``: silently-but-audibly drop incomplete units (a
      ``UserWarning`` reports how many were dropped).

    The result is invariant to the physical row order of the file: units and
    periods are sorted, so shuffled copies of a file load identically.
    """
    if balance not in ("error", "drop-units"):
        raise ValueError(
            f"balance must be 'error' or 'drop-units', got '{balance}'"
        )
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        for idx, name in enumerate(header):
            if name in positions:
                raise PanelError(f"duplicate column '{name}' in header")
            positions[name] = idx

        def column(name: str) -> int:
            if name not in positions:
                raise PanelError(
                    f"column '{name}' not found in header {header}"
                )
            return positions[name]

        unit_col = column(schema.unit)
        time_col = column(schema.time)
        cluster_col = column(schema.cluster) if schema.cluster else None
        if schema.series is None:
            reserved = {unit_col, time_col}
            if cluster_col is not None:
                reserved.add(cluster_col)
            series_names = [h for i, h in enumerate(header) if i not in reserved]
        else:
            series_names = list(schema.series)
        if not series_names:
            raise PanelError("no series columns to load")
        series_cols = [column(name) for name in series_names]

        cells: dict[tuple[str, int], list[float]] = {}
        cluster_of: dict[str, str] = {}
        for row in reader:
            line_num = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise PanelError(
                    f"line {line_num}: expected {len(header)} fields, got {len(row)}"
                )
            unit = row[unit_col].strip()
            if not unit:
                raise PanelError(f"line {line_num}: empty unit label")
            period = _parse_time(row[time_col], line_num)
            key = (unit, period)
            if key in cells:
                raise PanelError(
                    f"line {line_num}: duplicate observation for unit "
                    f"'{unit}' in period {period}"
                )
            cells[key] = [
                _parse_value(row[col], name, line_num)
                for name, col in zip(series_names, series_cols)
            ]
            if cluster_col is not None:
                label = row[cluster_col].strip()
                seen = cluster_of.setdefault(unit, label)
                if seen != label:
                    raise PanelError(
                        f"line {line_num}: cluster label for unit '{unit}' "
                        f"changed from '{seen}' to '{label}'"
                    )

    if not cells:
        raise PanelError(f"{path}: no data rows")
    all_units = sorted({u for u, _ in cells})
    observed = sorted({p for _, p in cells})
    periods = list(range(observed[0], observed[-1] + 1))
    missing_labels = sorted(set(periods) - set(observed))
    if missing_labels:
        raise PanelError(
            f"time labels must be consecutive integers; no observations "
            f"in period {missing_labels[0]}"
        )

    complete = []
    for unit in all_units:
        holes = [p for p in periods if (unit, p) not in cells]
        if not holes:
            complete.append(unit)
        elif balance == "error":
            raise PanelError(
                f"unbalanced panel: unit '{unit}' has no observation in "
                f"period {holes[0]} (use balance='drop-units' to drop "
                f"incomplete units)"
            )
    dropped = len(all_units) - len(complete)
    if dropped:
        warnings.warn(
            f"dropped {dropped} of {len(all_units)} units with incomplete "
            f"records",
            stacklevel=2,
        )
    if len(complete) < 2:
        raise PanelError(
            f"only {len(complete)} complete units remain; need at least 2"
        )

    data = {
        name: np.empty((len(complete), len(periods)))
        for name in series_names
    }
    for i, unit in enumerate(complete):
        for t, period in enumerate(periods):
            row_values = cells[(unit, period)]
            for name, value in zip(series_names, row_values):
                data[name][i, t] = value
    cluster = tuple(cluster_of[u] for u in complete) if schema.cluster else ()
    return BalancedPanel(
        units=tuple(complete),
        periods=tuple(periods),
        series=data,
        cluster_id=cluster,
    )
