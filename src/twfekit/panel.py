"""Balanced-panel container and CSV ingestion.

A :class:`BalancedPanel` is rectangular by construction: every unit is observed
in every period, periods are consecutive integers, and every stored series is a
finite ``float64`` array of shape ``(n_units, n_periods)``.  Estimation code in
the rest of the package relies on those guarantees and never re-checks them, so
all validation lives here.
"""

from __future__ import annotations

import csv
import math
import operator
import os
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
        Unit labels, in the order given (:func:`load_panel` sorts them, the
        constructor does not); row ``i`` of every series is ``units[i]``'s.
    periods : tuple of int
        Consecutive integer time labels; column ``t`` of every series belongs
        to ``periods[t]``.
    series : read-only mapping name -> ndarray of shape (n_units, n_periods)
        Finite float64 arrays, stored as read-only copies of those given;
        assigning to it raises ``TypeError``.
    cluster_id : tuple of str
        One cluster label per unit, used by cluster-robust inference.
        Defaults to the unit labels themselves.

    A panel cannot be changed after construction, so it keeps what its
    estimates share in a private memo: the two-way fit of a treatment and
    an outcome under a set of covariates (their two-way residuals and the
    treatment's sum of squares) and the full period-pair sweep of a
    covariate-free fit (see :mod:`twfekit.estimators`).  The kept arrays
    are read-only, and at most four entries are kept, the oldest dropped
    first.  Each entry is always computed the same way, so no result
    depends on which estimates ran before.  A pickled or copied panel is
    built again through the constructor, with an empty memo.
    """

    units: tuple[str, ...]
    periods: tuple[int, ...]
    series: Mapping[str, np.ndarray]
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
            arr = np.array(values, dtype=float, order="C")
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
        object.__setattr__(self, "series", MappingProxyType(clean))
        cluster = self.cluster_id if self.cluster_id else units
        cluster = tuple(str(c) for c in cluster)
        if len(cluster) != n:
            raise PanelError(
                f"cluster_id has {len(cluster)} entries for {n} units"
            )
        object.__setattr__(self, "cluster_id", cluster)
        # the fits and sweeps the estimates share; see estimators._kept
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        return type(self), (
            self.units, self.periods, dict(self.series), self.cluster_id
        )

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
    except csv.Error as exc:  # a field over csv's size limit, say
        raise PanelError(f"line {reader.line_num}: {exc}") from None
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


def _codes(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct stripped ``labels`` and each label's index among them."""
    labels = [label.strip() for label in labels]
    # copies, so that the names do not pin the heap of the cells they came from
    names = sorted(label.encode().decode() for label in set(labels))
    code = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(code.__getitem__, labels), np.int64, len(labels))


def _line_lengths(handle, path) -> np.ndarray:
    """The length in bytes of each line of text file ``handle``, which its
    encoding must decode; lines end where csv ends them."""
    data = handle.buffer.read()
    try:
        data.decode(handle.encoding)
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise PanelError(
            f"{path}: line {line}: not valid {handle.encoding} text "
            f"(byte 0x{data[exc.start]:02x})"
        ) from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)
    return np.diff(ends, prepend=-1, append=len(data)) - 1


def _reader(handle, delimiter: str):
    """A csv reader of ``handle`` from its start."""
    handle.seek(0)
    if handle.read(1) != "\ufeff":  # a byte-order mark is no header text
        handle.seek(0)
    return csv.reader(handle, delimiter=delimiter)


def _read_columns(handle, lines: np.ndarray, header_lines: int, delimiter: str, layout):
    """The columns of :func:`_read_rows` as numpy's C reader reads them, or
    ``None`` where they could differ: numpy raises or warns, a row spans
    lines (numpy reads a quoted ``\\r`` as ``\\n``), a line is longer in
    bytes (``lines``) than csv's field size limit (numpy has none), a unit
    label is empty, or a column has two roles that need different types."""
    labels = [col for col in (layout.unit, layout.cluster) if col is not None]
    roles = [(col, np.float64) for col in layout.columns] + [(layout.time, np.int64)]
    roles += [(col, object) for col in labels]  # a Python str keeps trailing NULs
    kinds = dict(roles)
    if any(kinds[col] is not kind for col, kind in roles):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = np.loadtxt(  # an absolute path, which numpy never takes for a URL
                os.path.abspath(handle.name), delimiter=delimiter,
                comments=None, quotechar='"', skiprows=header_lines,
                encoding=handle.encoding, ndmin=1,
                # every column, so that numpy checks each row's width
                dtype=[(f"f{c}", kinds.get(c, "U1")) for c in range(layout.width)],
            )
    except (ValueError, TypeError, OverflowError, Warning):
        return None
    codes = [_codes(cells[f"f{col}"].tolist()) for col in labels]
    for col in labels:  # frees the strings, which the views of cells would keep
        cells[f"f{col}"] = None
    # the clusters are the units where there is no cluster column
    (units, unit), (clusters, cluster) = codes[0], codes[-1]
    lines = lines[header_lines:]
    if (
        units[0] == ""
        or np.count_nonzero(lines) != len(cells)
        or lines.max() > csv.field_size_limit()
    ):
        return None
    values = [cells[f"f{col}"] for col in layout.columns]
    return units, clusters, unit, cells[f"f{layout.time}"], cluster, values


def _read_rows(handle, delimiter: str, layout: _Layout, path):
    """The data rows as csv reads them, one at a time: the exact reader.
    Returns the sorted unit and cluster labels (the units without a cluster
    column), each row's codes into them and period, and one ``float64``
    array per series; raises the error of the first bad row."""
    seen: set[tuple[str, int]] = set()
    cluster_of: dict[str, str] = {}
    units, periods, clusters, values = [], [], [], []
    reader = _reader(handle, delimiter)
    next(reader)
    try:
        for row in reader:
            line_num = reader.line_num
            if not any(map(str.strip, row)):
                continue
            if len(row) != layout.width:
                raise PanelError(
                    f"line {line_num}: expected {layout.width} fields, got {len(row)}"
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
            values.append([
                _parse_value(row[col], name, line_num)
                for name, col in zip(layout.names, layout.columns)
            ])
            if layout.cluster is not None:
                label = row[layout.cluster].strip()
                first = cluster_of.setdefault(unit, label)
                if first != label:
                    raise PanelError(
                        f"line {line_num}: cluster label for unit '{unit}' "
                        f"changed from '{first}' to '{label}'"
                    )
                clusters.append(label)
            units.append(unit)
            periods.append(period)
    except csv.Error as exc:
        raise PanelError(f"line {reader.line_num}: {exc}") from None
    if not units:
        raise PanelError(f"{path}: no data rows")
    try:
        period = np.array(periods, dtype=np.int64)
    except OverflowError:
        raise PanelError(f"{path}: time labels must fit in a 64-bit integer") from None
    units, unit = _codes(units)
    clusters, cluster = _codes(clusters) if clusters else (units, unit)
    return units, clusters, unit, period, cluster, list(np.array(values).T)


def _by_cell(units, clusters, unit, period, cluster, values):
    """The rows' periods in period-then-unit order and each unit's cluster
    code, or ``None`` where a value is not finite, a cell repeats or a unit's
    cluster label changes: errors that only :func:`_read_rows` names."""
    by_cell = np.lexsort((unit, period))
    # a repeated cell is a zero step in both
    repeats = (np.diff(period[by_cell]) == 0) & (np.diff(unit[by_cell]) == 0)
    unit_cluster = np.empty(len(units), dtype=np.int64)
    unit_cluster[unit] = cluster
    if (
        repeats.any()
        or not all(np.isfinite(v).all() for v in values)
        or (unit_cluster[unit] != cluster).any()
    ):
        return None
    return period[by_cell], unit_cluster


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
    Fields split as Python's ``csv`` splits them and values parse with Python
    ``float()``; a bad row, or a byte the encoding cannot decode, is reported
    with its line number.  numpy's C reader takes most files and a row-by-row
    reader the rest; the result does not depend on which reader took a file.
    """
    if balance not in ("error", "drop-units"):
        raise ValueError(
            f"balance must be 'error' or 'drop-units', got '{balance}'"
        )
    with open(path, newline="") as handle:
        lines = _line_lengths(handle, path)
        reader = _reader(handle, delimiter)
        layout = _read_layout(reader, schema, path)
        rows = _read_columns(handle, lines, reader.line_num, delimiter, layout)
        order = None if rows is None else _by_cell(*rows)
        if order is None:
            # raises the first bad row's error, so its rows pass every check
            rows = _read_rows(handle, delimiter, layout, path)
            order = _by_cell(*rows)
    labels, clusters, unit, period, cluster, values = rows
    observed, unit_cluster = order
    # a period step read unsigned is exact even where the signed one wraps
    steps = np.diff(observed).view(np.uint64)
    first, last = int(observed[0]), int(observed[-1])
    span = last - first + 1

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
    return BalancedPanel(
        units=tuple(labels[i] for i in np.flatnonzero(complete).tolist()),
        periods=tuple(range(first, last + 1)),
        series={name: v.reshape(kept, span) for name, v in data.items()},
        cluster_id=tuple(clusters[c] for c in unit_cluster[complete].tolist()),
    )
