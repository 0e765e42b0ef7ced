"""Command-line front end.

Two subcommands:

``twfekit run --config FILE``
    execute the analyses declared in an INI-style config against a panel
    CSV, writing one set of artifacts per analysis into the output
    directory.
``twfekit selfcheck``
    generate random panels and verify that the decomposition identities
    reproduce the two-way estimate; exits 0 only if the worst relative gap
    is below tolerance.

Config layout::

    [run]
    input = panel.csv        ; omit if every analysis is a simulation
    output_dir = out
    formats = csv json       ; formats for scalar reports (tables are CSV)
    seed = 0                 ; base seed for simulation analyses

    [schema]
    unit = state
    time = year
    series = emp minwage     ; optional, default: all non-key columns
    cluster = region         ; optional
    delimiter = ,            ; optional, one character, or \\t for a tab
    balance = error          ; or drop-units

    [analysis:NAME]
    kind = twfe | fd | gap_restricted | generalized | fd_decomposition |
           pairwise_decomposition | equivalence | causal_weights | simulation
    ... kind-specific options (see README), each read by its reader in
    OPTIONS when the config loads

``;`` and ``#`` start an inline comment when preceded by whitespace, so a
``;`` or ``#`` delimiter is written without a space before it:
``delimiter=;``.

All floating-point output uses shortest round-trip decimals, and nothing
time- or host-dependent is ever written, so reruns with the same config and
input are byte-identical.  The one large artifact, ``{name}_weights.csv``, is
written by one process, which forms the text of each block of rows as a
numpy byte matrix (see :func:`_write_weights`).  It is written under
``{name}_weights.csv.tmp`` and renamed once whole, so a failed write never
leaves a truncated ``{name}_weights.csv``; a run that is killed may leave
the ``.tmp`` file.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial

import csv
import json

import numpy as np

from .decomposition import (
    fd_decomposition,
    pairwise_decomposition,
    verify_equivalence,
    weighted_summary,
)
from .diagnostics import (
    causal_weights,
    scenario_preset,
    simulate_replication,
    theorem2_audit,
)
from .estimators import fd, twfe
from .generalized import (
    CovariateSpec,
    GapRange,
    PretrendConfig,
    gap_restricted,
    generalized_twfe,
)
from .panel import BalancedPanel, PanelSchema, _integer, _time_label, load_panel

FORMATS = ("csv", "json")
ANALYSIS_PREFIX = "analysis:"
# the keys of the [run] and [schema] sections
SECTION_KEYS = {
    "run": {"input", "output_dir", "formats", "seed"},
    "schema": {"unit", "time", "series", "cluster", "delimiter", "balance"},
}
# the section whose keys reach every section that reads them
DEFAULT = "DEFAULT"
# each analysis kind and the options its branch reads, besides ``kind``
KINDS = {
    "twfe": {"y", "x", "covariates", "se"},
    "fd": {"y", "x", "gap", "se"},
    "gap_restricted": {"y", "x", "k_min", "k_max", "se"},
    "generalized": {
        "y", "x", "time_invariant", "differenced", "pretrend", "presample",
        "weight_scheme", "k_min", "k_max", "se", "summary",
    },
    "fd_decomposition": {"y", "x", "figure", "summary"},
    "pairwise_decomposition": {"y", "x", "summary"},
    "equivalence": {"y", "x"},
    "causal_weights": {"y", "x", "covariates"},
    "simulation": {
        "scenario", "replications", "n_units", "n_periods", "tau",
        "noise_sd", "tau_unit_sd", "feedback", "covariates",
    },
}
# rows of the weights CSV formatted per write; bounds the writer's transient
# arrays whatever the panel's size
WEIGHT_ROWS_PER_WRITE = 8192
# per-replication columns of a simulation, after the replication number
AUDIT_FIELDS = (
    "estimate", "tau_weighted_sum", "trend_term", "delta_bias_term",
    "identity_gap",
)


@dataclass
class AnalysisConfig:
    name: str
    kind: str
    options: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    input_path: str | None
    output_dir: str
    formats: tuple[str, ...]
    seed: int
    schema: PanelSchema | None
    delimiter: str
    balance: str
    analyses: list[AnalysisConfig]

    def read_panel(self, path: str) -> BalancedPanel:
        """The panel in ``path``, read with this run's schema and options."""
        return load_panel(
            path, self.schema, delimiter=self.delimiter, balance=self.balance
        )


def _split(text: str) -> list[str]:
    return [tok for tok in text.replace(",", " ").split() if tok]


def _boolean(key: str, text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"option '{key}' must be a boolean, got '{text}'")


def _whole(key: str, text: str) -> int:
    return _integer(text, f"option '{key}'")


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"option '{key}' must be a number, got '{text}'"
        ) from None


def _names(key: str, text: str) -> list[str]:
    return _split(text)


def _text(key: str, text: str) -> str:
    return text.strip()


def _pretrend(key: str, text: str) -> tuple[PretrendConfig, ...]:
    configs = []
    for token in _split(text):
        parts = token.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"pretrend spec '{token}' must look like "
                f"'variable:start_offset:end_offset[:min_points]'"
            )
        numbers = []
        for part in parts[1:]:
            try:
                numbers.append(_time_label(part))
            except ValueError:
                raise ValueError(
                    f"pretrend spec '{token}': '{part}' is not an integer"
                ) from None
        configs.append(PretrendConfig(parts[0], *numbers))
    return tuple(configs)


# The reader of each analysis option: ``OPTIONS[key](key, text)`` is the
# value of the option's text, or a ValueError naming ``key``.  Integers,
# pretrend offsets included, follow the package rule of ``panel._integer``,
# so ``gap = 2.0`` reads as 2.  Every key of every ``KINDS`` set is here.
OPTIONS = {
    **dict.fromkeys(("se", "figure", "summary"), _boolean),
    **dict.fromkeys(
        ("gap", "k_min", "k_max", "replications", "n_units", "n_periods"),
        _whole,
    ),
    **dict.fromkeys(("tau", "noise_sd", "tau_unit_sd", "feedback"), _number),
    **dict.fromkeys(("covariates", "time_invariant", "differenced"), _names),
    **dict.fromkeys(
        ("y", "x", "scenario", "weight_scheme", "presample"), _text
    ),
    "pretrend": _pretrend,
}


def _require(options: dict, key: str):
    if options.get(key, "") == "":
        raise ValueError(f"missing required option '{key}'")
    return options[key]


def _read(label, own, defaults, keys) -> dict:
    """The options of the section ``label`` names: its ``own``, each one of
    ``keys``, then those of ``keys`` that only ``defaults``, the [DEFAULT]
    section, sets."""
    for key in own:
        if key not in keys:
            raise ValueError(f"{label}: unknown option '{key}'")
    return {**own, **{
        key: value for key, value in defaults.items()
        if key in keys and key not in own
    }}


def load_run_config(path: str) -> RunConfig:
    """Parse an INI config file into a :class:`RunConfig`.

    Every analysis's kind, options, option values and need for a panel are
    checked here, before the panel is loaded or any analysis runs.
    """
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    # [DEFAULT] is read as an ordinary section, so that a key another
    # section sets itself is checked there; no header can hold a line end
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None,
        default_section="\n",
    )
    try:
        # ``read`` would skip a path it cannot open without a word
        with open(path) as handle:
            parser.read_file(handle)
    except configparser.MissingSectionHeaderError as exc:
        # configparser's own text spans three lines
        raise ValueError(
            f"{path}: malformed config: no section header before line "
            f"{exc.lineno}"
        ) from None
    except configparser.Error as exc:  # a repeated section or key, say
        raise ValueError(f"{path}: malformed config: {exc}") from None
    if "run" not in parser:
        raise ValueError(f"{path}: missing [run] section")
    for section in parser.sections():
        if (
            section not in SECTION_KEYS and section != DEFAULT
            and not section.startswith(ANALYSIS_PREFIX)
        ):
            raise ValueError(f"{path}: unknown section [{section}]")
    defaults = parser[DEFAULT] if DEFAULT in parser else {}
    # every unknown key of [run] and [schema] precedes any value's error
    run, sec = (
        _read(f"[{section}]", parser[section], defaults, keys)
        if section in parser else None
        for section, keys in SECTION_KEYS.items()
    )
    formats = tuple(_split(run.get("formats", "csv json")))
    if not formats:
        raise ValueError(
            f"option 'formats' is empty; choose from {list(FORMATS)}"
        )
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(
                f"unknown format '{fmt}'; choose from {list(FORMATS)}"
            )
    schema = None
    delimiter = ","
    balance = "error"
    if sec is not None:
        if "unit" not in sec or "time" not in sec:
            raise ValueError("[schema] section needs 'unit' and 'time' keys")
        series = tuple(_split(sec["series"])) if "series" in sec else None
        schema = PanelSchema(
            unit=sec["unit"].strip(),
            time=sec["time"].strip(),
            series=series,
            cluster=sec.get("cluster", "").strip() or None,
        )
        delimiter = sec.get("delimiter", ",")
        if delimiter == r"\t":  # configparser strips a literal tab
            delimiter = "\t"
        if len(delimiter) != 1:
            raise ValueError(
                f"option 'delimiter' must be exactly one character, got "
                f"'{delimiter}'"
            )
        balance = sec.get("balance", "error").strip()
    seed = _whole("seed", run["seed"]) if "seed" in run else 0
    if seed < 0:
        raise ValueError(f"option 'seed' must be non-negative, got {seed}")
    input_path = run.get("input", "").strip() or None
    analyses = []
    sections = {}  # the section of each analysis name, which names its files
    for section in parser.sections():
        if not section.startswith(ANALYSIS_PREFIX):
            continue
        name = section[len(ANALYSIS_PREFIX):].strip()
        if not name:
            raise ValueError("analysis section needs a name: [analysis:NAME]")
        if name in sections:
            raise ValueError(
                f"analysis name '{name}' is repeated: [{sections[name]}] "
                f"and [{section}]"
            )
        sections[name] = section
        kind = parser[section].get("kind", defaults.get("kind", "")).strip()
        if not kind:
            raise ValueError(f"analysis '{name}': missing 'kind' option")
        if kind not in KINDS:
            raise ValueError(f"analysis '{name}': unknown kind '{kind}'")
        # a [DEFAULT] key reaches only the kinds that read it
        keys = KINDS[kind] | {"kind"}
        options = _read(f"analysis '{name}'", parser[section], defaults, keys)
        options.pop("kind")
        if kind != "simulation" and input_path is None:
            raise ValueError(
                f"analysis '{name}' needs an input panel; set 'input' in [run]"
            )
        values = {k: OPTIONS[k](k, v) for k, v in options.items()}
        if values.get("presample") and not values.get("pretrend"):
            raise ValueError(f"analysis '{name}': 'presample' is set but "
                             "no 'pretrend' reads it")
        analyses.append(AnalysisConfig(name=name, kind=kind, options=values))
    if not analyses:
        raise ValueError(f"{path}: no [analysis:NAME] sections")
    # a [DEFAULT] key must reach some section or analysis that reads it
    read = {"kind"}.union(
        *(keys for section, keys in SECTION_KEYS.items() if section in parser),
        *(KINDS[analysis.kind] for analysis in analyses),
    )
    for key in defaults:
        if key not in read:
            raise ValueError(f"[DEFAULT]: unknown option '{key}'")
    if input_path is not None and schema is None:
        raise ValueError("an input panel needs a [schema] section")
    return RunConfig(
        input_path=input_path,
        output_dir=run.get("output_dir", ".").strip(),
        formats=formats,
        seed=seed,
        schema=schema,
        delimiter=delimiter,
        balance=balance,
        analyses=analyses,
    )


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write_report(outdir, name, suffix, payload, formats) -> None:
    base = os.path.join(outdir, f"{name}_{suffix}")
    if "json" in formats:
        _write_json(base + ".json", payload)
    if "csv" in formats:
        rows = []
        for key, value in payload.items():
            if isinstance(value, dict):
                rows.extend((f"{key}.{k}", v) for k, v in value.items())
            else:
                rows.append((key, value))
        _write_csv(base + ".csv", ("field", "value"), rows)


def _write_columns(outdir, name, suffix, decomposition, header=None) -> None:
    """A decomposition's ``header`` columns (by default its components
    table), one row per component; a degenerate beta is an empty cell."""
    _write_csv(
        os.path.join(outdir, f"{name}_{suffix}.csv"),
        *decomposition._table(header),
    )


class _Echo:
    """A file stand-in whose ``write`` returns its text, so that
    ``csv.writer(_Echo()).writerow`` returns the row as ``csv`` formats it."""

    def write(self, text: str) -> str:
        return text


def _padded(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """``texts`` as the left-aligned rows of a ``uint8`` matrix as wide as
    the longest, and the mask of each row's own bytes."""
    lengths = np.array([len(text) for text in texts], np.int64)
    keep = np.arange(lengths.max(initial=0), dtype=np.int64) < lengths[:, None]
    matrix = np.zeros(keep.shape, np.uint8)
    matrix[keep] = np.frombuffer(b"".join(texts), np.uint8)
    return matrix, keep


def _weight_tiles(report):
    """The weights as ``(block, units, starts)`` tiles in file order, each
    of at most :data:`WEIGHT_ROWS_PER_WRITE` weights: ``block`` is a view
    of one gap's weights for the ``units`` slice of units (rows) and the
    ``starts`` slice of the report's (gap, start period) pairs, gap by gap
    (columns)."""
    first = 0  # the pair of each gap's first start period
    for _, block in report.gap_blocks():
        n, t = block.shape
        step = max(1, WEIGHT_ROWS_PER_WRITE // t)  # units
        width = min(t, WEIGHT_ROWS_PER_WRITE)  # start periods
        for lo in range(0, n, step):
            for s0 in range(0, t, width):
                tile = block[lo : lo + step, s0 : s0 + width]
                yield (
                    tile,
                    slice(lo, lo + tile.shape[0]),
                    slice(first + s0, first + s0 + tile.shape[1]),
                )
        first += t


def _write_weights(path: str, units, report) -> None:
    """The weights CSV, ordered by gap, then unit, then start period.

    Its bytes are those ``csv.writer`` writes in text mode for the rows
    (unit, gap, start period, weight): each unit label is quoted once by
    ``csv`` itself (as the first of two fields, so an empty label stays
    empty) and encoded as text mode encodes it, and each weight is its
    ``repr``.

    One process forms the rows, at most :data:`WEIGHT_ROWS_PER_WRITE` per
    write, as the rows of a ``uint8`` matrix with fixed columns: the label,
    ``,gap,start,``, the weight's text from :func:`_floattext.layout` and
    ``\r\n``.  The bytes of a row's text are those a mask marks in its
    label, which may hold a NUL, then every nonzero byte after the label.

    The file is written under ``{path}.tmp``, which is renamed to ``path``
    only once every row is in it and removed if any write fails, so
    ``path`` is never partial (a file of that name from an earlier run is
    then left as it was).
    """
    # imported on first use: compiling it would slow every start that
    # caches no bytecode, and most runs write no weights
    from . import _floattext

    echo = csv.writer(_Echo())
    temp = f"{path}.tmp"
    try:
        with open(temp, "w", newline="") as handle:
            encoding = handle.encoding  # the one text mode writes
            labels, label_keep = _padded([
                echo.writerow((unit, None))[: -len(",\r\n")].encode(encoding)
                for unit in units
            ])
            prefixes, _ = _padded([
                f",{k},{p},".encode(encoding)
                for k in range(1, len(report.periods))
                for p in report.periods[:-k]
            ])
            # the columns of the label, the prefix and the weight, which
            # starts at a multiple of eight after a gap of zeros, since it is
            # written in eight-byte words; \r\n follows its text's last slot
            lw, pw = labels.shape[1], prefixes.shape[1]
            at = -(-(lw + pw) // 8) * 8
            end = at + _floattext.TEXT_WIDTH
            crlf = at + _floattext.TEXT_END
            rows = np.zeros((WEIGHT_ROWS_PER_WRITE, end), np.uint8)
            keep = np.zeros(rows.shape, bool)
            out = handle.buffer
            header = echo.writerow(("unit", "gap", "start_period", "weight"))
            out.write(header.encode(encoding))
            for tile, unit, start in _weight_tiles(report):
                size = tile.size
                grid = rows[:size].reshape(tile.shape + (-1,))
                mask = keep[:size].reshape(grid.shape)
                grid[:, :, :lw] = labels[unit, None]
                mask[:, :, :lw] = label_keep[unit, None]
                grid[:, :, lw : lw + pw] = prefixes[start]
                text = rows[:size, at:end]
                _floattext.layout(tile.ravel(), text)
                rows[:size, crlf : crlf + 2] = np.frombuffer(b"\r\n", np.uint8)
                np.not_equal(rows[:size, lw:], 0, out=keep[:size, lw:])
                out.write(rows[:size][keep[:size]])
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def _write_summary_table(outdir: str, name: str, decomposition) -> None:
    summary = asdict(weighted_summary(decomposition))
    _write_csv(
        os.path.join(outdir, f"{name}_summary_table.csv"),
        summary.keys(),
        [summary.values()],
    )


# ---------------------------------------------------------------------------
# analysis runners


def _run_analysis(
    analysis: AnalysisConfig,
    panel: BalancedPanel | None,
    config: RunConfig,
) -> None:
    """Compute one analysis and write its artifacts.

    Each kind sets its report's suffix, ``params`` and ``fields``, and
    ``decomp`` when it has a decomposition; the report, then the
    decomposition's tables, are written after the chain.
    """
    opts, kind, name = analysis.options, analysis.kind, analysis.name
    outdir = config.output_dir
    suffix, decomp, se = "estimate", None, opts.get("se", False)
    if kind != "simulation":
        y, x = _require(opts, "y"), _require(opts, "x")
        params: dict = {"y": y, "x": x}
    # required by gap_restricted, optional for generalized
    gap_range = None
    if kind == "gap_restricted" or "k_min" in opts or "k_max" in opts:
        gap_range = GapRange(_require(opts, "k_min"), _require(opts, "k_max"))

    if kind == "twfe":
        params["covariates"] = opts.get("covariates", [])
        fields = asdict(twfe(panel, y, x, params["covariates"], se=se))
    elif kind == "fd":
        params["gap"] = opts.get("gap", 1)
        fields = asdict(fd(panel, y, x, params["gap"], se=se))
    elif kind == "gap_restricted":
        fields = asdict(gap_restricted(panel, y, x, gap_range, se=se))
        params.update(k_min=gap_range.k_min, k_max=gap_range.k_max)
    elif kind == "generalized":
        spec = CovariateSpec(
            time_invariant=opts.get("time_invariant", ()),
            differenced=opts.get("differenced", ()),
            pre_period=opts.get("pretrend", ()),
        )
        presample = None
        if opts.get("presample"):
            presample = config.read_panel(opts["presample"])
        scheme = opts.get("weight_scheme", "ssr")
        result = generalized_twfe(
            panel, y, x, spec=spec, gap_range=gap_range, weight_scheme=scheme,
            presample=presample, se=se,
        )
        params.update(
            time_invariant=list(spec.time_invariant),
            differenced=list(spec.differenced),
            pre_period=[
                c.label if c.min_points is None else f"{c.label}:{c.min_points}"
                for c in spec.pre_period
            ],
            weight_scheme=scheme,
        )
        if gap_range is not None:
            params.update(k_min=gap_range.k_min, k_max=gap_range.k_max)
        if presample is not None:
            params["presample"] = opts["presample"]
        fields = asdict(result.estimate)
        decomp = result.decomposition
    elif kind in ("fd_decomposition", "pairwise_decomposition"):
        decompose = (
            fd_decomposition if kind == "fd_decomposition"
            else pairwise_decomposition
        )
        decomp = decompose(panel, y, x)
        fields = {
            "aggregate": decomp.aggregate,
            "total_denominator": decomp.total_denominator,
            "n_components": decomp.beta.size,
        }
    elif kind == "equivalence":
        suffix = "report"
        fields = asdict(verify_equivalence(panel, y, x))
    elif kind == "causal_weights":
        suffix = "report"
        params["covariates"] = opts.get("covariates", [])
        report = causal_weights(panel, y, x, params["covariates"])
        _write_weights(
            os.path.join(outdir, f"{name}_weights.csv"), panel.units, report
        )
        t = panel.n_periods
        fields = {
            "total_mass": report.total_mass,
            "negative_mass": report.negative_mass,
            "denominator": report.denominator,
            "n_weights": panel.n_units * t * (t - 1) // 2,
        }
    else:  # simulation
        suffix = "audit"
        scenario = _require(opts, "scenario")
        replications = opts.get("replications", 1)
        if replications < 1:
            raise ValueError("'replications' must be at least 1")
        audit_covs = opts.get("covariates", [])
        overrides = {
            k: v for k, v in opts.items()
            if k not in ("scenario", "replications", "covariates")
        }
        preset = scenario_preset(scenario, seed=config.seed, **overrides)
        audits = [
            theorem2_audit(simulate_replication(preset, rep), audit_covs)
            for rep in range(replications)
        ]
        column = {f: [getattr(a, f) for a in audits] for f in AUDIT_FIELDS}
        _write_csv(
            os.path.join(outdir, f"{name}_replications.csv"),
            ("replication",) + AUDIT_FIELDS,
            zip(range(replications), *column.values()),
        )
        params = {
            "scenario": scenario,
            "replications": replications,
            "n_units": preset.n_units,
            "n_periods": preset.n_periods,
            "tau": preset.tau,
            "seed": config.seed,
            "covariates": audit_covs,
        }
        estimates = np.array(column["estimate"])
        fields = {
            "mean_estimate": float(estimates.mean()),
            "sd_estimate": float(estimates.std(ddof=1))
            if replications > 1
            else 0.0,
        }
        for f in ("tau_weighted_sum", "trend_term", "delta_bias_term"):
            fields[f"mean_{f}"] = float(np.mean(column[f]))
        fields["max_abs_identity_gap"] = float(
            max(map(abs, column["identity_gap"]))
        )

    _write_report(
        outdir, name, suffix,
        {"operation": kind, "parameters": params, **fields},
        config.formats,
    )
    if decomp is not None:
        _write_columns(outdir, name, "components", decomp)
        if kind == "fd_decomposition" and opts.get("figure", False):
            _write_columns(
                outdir, name, "figure", decomp, ("gap", "beta", "weight")
            )
        if opts.get("summary", False):
            _write_summary_table(outdir, name, decomp)


def run(config: RunConfig) -> int:
    """Execute every analysis in ``config``, as :func:`load_run_config`
    checked it; returns a process exit code."""
    panel = None
    if config.input_path is not None:
        panel = config.read_panel(config.input_path)
    os.makedirs(config.output_dir, exist_ok=True)
    for analysis in config.analyses:
        _run_analysis(analysis, panel, config)
    return 0


def selfcheck(
    seed: int = 0,
    panels: int = 40,
    tolerance: float = 1e-10,
) -> int:
    """Random-panel decomposition audit; exit 0 only if all gaps are tiny."""
    if panels < 1:
        raise ValueError(f"'panels' must be at least 1, got {panels}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(panels):
        n = int(rng.integers(2, 31))
        t = int(rng.integers(2, 13))
        draw = (rng.normal, partial(rng.uniform, -1.0, 1.0),
                partial(rng.standard_t, 2))[i % 3]
        y = draw(size=(n, t))
        x = draw(size=(n, t))
        width = len(str(n - 1))
        panel = BalancedPanel(
            units=tuple(f"u{j:0{width}d}" for j in range(n)),
            periods=tuple(range(1, t + 1)),
            series={"y": y, "x": x},
        )
        report = verify_equivalence(panel, "y", "x")
        worst = max(worst, report.max_rel_gap)
    status = "ok" if worst < tolerance else "FAILED"
    print(
        f"selfcheck: {panels} panels, max relative equivalence gap "
        f"{worst!r} ({status})",
    )
    return 0 if worst < tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twfekit",
        description=(
            "Two-way fixed-effects estimation with exact difference "
            "decompositions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute analyses from a config file")
    runp.add_argument("--config", required=True, help="INI config path")
    runp.add_argument(
        "--output-dir", default=None, help="override [run] output_dir"
    )
    runp.add_argument(
        "--format",
        default=None,
        choices=FORMATS,
        help="restrict scalar reports to one format",
    )
    check = sub.add_parser(
        "selfcheck", help="verify decomposition identities on random panels"
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--panels", type=int, default=40)
    check.add_argument("--tolerance", type=float, default=1e-10)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_run_config(args.config)
            if args.output_dir is not None:
                config.output_dir = args.output_dir
            if args.format is not None:
                config.formats = (args.format,)
            return run(config)
        return selfcheck(
            seed=args.seed, panels=args.panels, tolerance=args.tolerance
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
