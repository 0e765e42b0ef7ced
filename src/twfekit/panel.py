"""Balanced-panel container, CSV ingestion, and a cross-sectional transform.

A :class:`BalancedPanel` is rectangular by construction: every unit is observed
in every period, periods are consecutive integers, and every stored series is a
finite ``float64`` array of shape ``(n_units, n_periods)``.  Estimation code in
the rest of the package relies on those guarantees and never re-checks them, so
all validation lives here.

``demean``
    removes the cross-sectional (per-period) mean from a series, i.e. maps
    ``v_it`` to ``v_it - mean_j(v_jt)``: a public convenience for inspecting
    a series.  No estimator calls it; they all read
    :func:`~twfekit.estimators.two_way_residual`, whose period differences
    equal this series' differences.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import count, islice
from typing import NamedTuple, NoReturn

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
        periods = tuple(
            _integer(p, "each entry of periods", PanelError)
            for p in self.periods
        )
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
        idx = _integer(label, "label", PanelError) - first
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
    for badly centred data.  Unit offsets stay in the result; the
    estimators centre through :func:`~twfekit.estimators.two_way_residual`,
    which removes them first.
    """
    v = panel.values(var)
    centered = v - v.mean(axis=0)
    centered -= centered.mean(axis=0)
    return centered


#: Data rows read and converted at a time.  Bounds the transient row strings
#: of a load: holding every row at once would double its peak memory.
_CHUNK_ROWS = 8192


class _Layout(NamedTuple):
    """Where a file's fields live: the header width and column positions."""

    width: int
    unit: int
    time: int
    cluster: int | None
    names: list[str]
    columns: list[int]


def _read_layout(reader, schema: PanelSchema, path) -> _Layout:
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
            raise PanelError(f"column '{name}' not found in header {header}")
        return positions[name]

    unit_col = column(schema.unit)
    time_col = column(schema.time)
    cluster_col = column(schema.cluster) if schema.cluster else None
    if schema.series is None:
        reserved = {unit_col, time_col, cluster_col}
        names = [h for i, h in enumerate(header) if i not in reserved]
    else:
        names = list(schema.series)
    if not names:
        raise PanelError("no series columns to load")
    return _Layout(
        len(header), unit_col, time_col, cluster_col, names,
        [column(name) for name in names],
    )


def _time_label(value) -> int:
    """``value`` as an integer: an integer (numpy's too), or a number or a
    numeric string whose value is integral, such as ``1990.0``; raises
    ``ValueError`` (or ``TypeError``, for a non-number) otherwise."""
    if isinstance(value, str):
        value = value.strip()
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        number = float(value)
    if not number.is_integer():
        raise ValueError(value)
    return int(number)


def _integer(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an integer by the rule of :func:`_time_label`, which the
    CSV loader applies to time labels; raises ``error`` naming the argument
    ``name`` otherwise."""
    try:
        return _time_label(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be an integer, got {value!r}") from None


def _parse_time(cell: str, line_num: int) -> int:
    try:
        return _time_label(cell)
    except ValueError:
        raise PanelError(
            f"line {line_num}: time label '{cell}' is not an integer"
        ) from None


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


def _is_blank(row: list[str]) -> bool:
    return not any(map(str.strip, row))


def _regular_columns(rows, layout: _Layout):
    """The columns of ``rows`` with the unit column stripped, or ``None``
    when a row has the wrong width or no unit label."""
    if not set(map(len, rows)) <= {layout.width}:
        return None
    columns = list(zip(*rows)) or [()] * layout.width
    columns[layout.unit] = list(map(str.strip, columns[layout.unit]))
    return None if "" in columns[layout.unit] else columns


def _chunk_columns(rows, layout: _Layout):
    """:func:`_regular_columns` of ``rows`` with blank rows skipped."""
    columns = _regular_columns(rows, layout)
    if columns is None:
        columns = _regular_columns(
            [row for row in rows if not _is_blank(row)], layout
        )
        if columns is None:
            raise ValueError("irregular rows")
    return columns


def _encode(codes: dict[str, int], labels) -> map:
    """Integer codes of ``labels``, adding unseen labels to ``codes``."""
    labels = list(labels)
    codes.update(zip(set(labels).difference(codes), count(len(codes))))
    return map(codes.__getitem__, labels)


def _time_labels(cells) -> list[int]:
    try:
        return list(map(int, cells))
    except ValueError:
        return list(map(_time_label, cells))


def _read_columns(reader, layout: _Layout):
    """Every data row, read and converted :data:`_CHUNK_ROWS` rows at a time.

    Returns the unit labels in code order, the cluster labels in code order,
    and the per-row unit codes, periods, cluster codes (empty without a
    cluster column) and one ``float64`` array per series.  Raises
    ``ValueError`` or ``OverflowError`` on a row that
    :func:`_raise_row_error` must name.
    """
    units: dict[str, int] = {}
    clusters: dict[str, int] = {}
    unit, period, cluster = array("q"), array("q"), array("q")
    values = [array("d") for _ in layout.columns]
    while rows := list(islice(reader, _CHUNK_ROWS)):
        columns = _chunk_columns(rows, layout)
        unit.extend(_encode(units, columns[layout.unit]))
        period.extend(_time_labels(columns[layout.time]))
        for out, col in zip(values, layout.columns):
            out.extend(map(float, columns[col]))
        if layout.cluster is not None:
            labels = map(str.strip, columns[layout.cluster])
            cluster.extend(_encode(clusters, labels))
    arrays = [np.asarray(a) for a in (unit, period, cluster, *values)]
    return list(units), list(clusters), *arrays


def _raise_row_error(path, delimiter: str, layout: _Layout) -> NoReturn:
    """Re-read ``path`` row by row and raise the error of its first bad row."""
    seen: set[tuple[str, int]] = set()
    cluster_of: dict[str, str] = {}
    with open(path, newline="") as handle:
        if handle.read(1) != "\ufeff":  # a byte-order mark is no header text
            handle.seek(0)
        reader = csv.reader(handle, delimiter=delimiter)
        next(reader)
        for row in reader:
            line_num = reader.line_num
            if _is_blank(row):
                continue
            if len(row) != layout.width:
                raise PanelError(
                    f"line {line_num}: expected {layout.width} fields, "
                    f"got {len(row)}"
                )
            unit = row[layout.unit].strip()
            if not unit:
                raise PanelError(f"line {line_num}: empty unit label")
            period = _parse_time(row[layout.time], line_num)
            if (unit, period) in seen:
                raise PanelError(
                    f"line {line_num}: duplicate observation for unit "
                    f"'{unit}' in period {period}"
                )
            seen.add((unit, period))
            for name, col in zip(layout.names, layout.columns):
                _parse_value(row[col], name, line_num)
            if layout.cluster is not None:
                label = row[layout.cluster].strip()
                first = cluster_of.setdefault(unit, label)
                if first != label:
                    raise PanelError(
                        f"line {line_num}: cluster label for unit '{unit}' "
                        f"changed from '{first}' to '{label}'"
                    )
    # every row is valid, so the fast read failed on a time label that does
    # not fit in 64 bits
    raise PanelError(f"{path}: time labels must fit in a 64-bit integer")


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
    Values parse with Python ``float()``; a bad row is reported with its line
    number.
    """
    if balance not in ("error", "drop-units"):
        raise ValueError(
            f"balance must be 'error' or 'drop-units', got '{balance}'"
        )
    with open(path, newline="") as handle:
        if handle.read(1) != "\ufeff":  # a byte-order mark is no header text
            handle.seek(0)
        reader = csv.reader(handle, delimiter=delimiter)
        layout = _read_layout(reader, schema, path)
        try:
            units, clusters, unit, period, cluster, *values = _read_columns(
                reader, layout
            )
        except (ValueError, OverflowError):
            _raise_row_error(path, delimiter, layout)
    if not unit.size:
        raise PanelError(f"{path}: no data rows")

    # units in label order: ``unit`` becomes each row's sorted position
    order = sorted(range(len(units)), key=units.__getitem__)
    position = np.empty(len(units), dtype=np.int64)
    position[order] = np.arange(len(units))
    unit = position[unit]
    labels = [units[code] for code in order]
    # cells by period, then unit: a repeated cell is a zero step in both;
    # a period step read unsigned is exact even where the signed one wraps
    by_cell = np.lexsort((unit, period))
    observed = period[by_cell]
    steps = np.diff(observed).view(np.uint64)
    first, last = int(observed[0]), int(observed[-1])
    span = last - first + 1
    # each unit's cluster code, in unit order; its rows must all agree
    unit_cluster = np.empty(len(labels), dtype=np.int64)
    if clusters:
        unit_cluster[unit] = cluster
    if (
        not all(np.isfinite(v).all() for v in values)
        or ((steps == 0) & (np.diff(unit[by_cell]) == 0)).any()
        or (clusters and (unit_cluster[unit] != cluster).any())
    ):
        _raise_row_error(path, delimiter, layout)

    # as many distinct periods as the span, or a step above one skips one
    if np.count_nonzero(steps) + 1 != span:
        missing = observed[np.flatnonzero(steps > 1)[0]] + 1
        raise PanelError(
            f"time labels must be consecutive integers; no observations "
            f"in period {missing}"
        )

    complete = np.bincount(unit, minlength=len(labels)) == span
    incomplete = np.flatnonzero(~complete)
    if incomplete.size and balance == "error":
        hole = np.ones(span, dtype=bool)
        hole[period[unit == incomplete[0]] - first] = False
        raise PanelError(
            f"unbalanced panel: unit '{labels[incomplete[0]]}' has no "
            f"observation in period {first + int(np.argmax(hole))} (use "
            f"balance='drop-units' to drop incomplete units)"
        )
    if incomplete.size:
        warnings.warn(
            f"dropped {incomplete.size} of {len(labels)} units with "
            f"incomplete records",
            stacklevel=2,
        )
    kept = int(complete.sum())
    if kept < 2:
        raise PanelError(f"only {kept} complete units remain; need at least 2")

    # one scatter per series into the complete units' rows
    row = np.cumsum(complete) - 1
    keep = complete[unit]
    cell = row[unit[keep]] * span + (period[keep] - first)
    data = {}
    for name, column in zip(layout.names, values):
        data[name] = np.empty(kept * span)
        data[name][cell] = column[keep]
    kept_units = np.flatnonzero(complete).tolist()
    cluster_id = ()
    if clusters:
        code = unit_cluster.tolist()
        cluster_id = tuple(clusters[code[i]] for i in kept_units)
    return BalancedPanel(
        units=tuple(labels[i] for i in kept_units),
        periods=tuple(range(first, last + 1)),
        series={name: v.reshape(kept, span) for name, v in data.items()},
        cluster_id=cluster_id,
    )
