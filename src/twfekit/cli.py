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
    delimiter = ,            ; optional, one character
    balance = error          ; or drop-units

    [analysis:NAME]
    kind = twfe | fd | gap_restricted | generalized | fd_decomposition |
           pairwise_decomposition | equivalence | causal_weights | simulation
    ... kind-specific options (see README)

``;`` and ``#`` start an inline comment when preceded by whitespace, so a
``;`` or ``#`` delimiter is written without a space before it:
``delimiter=;``.

All floating-point output uses shortest round-trip decimals, and nothing
time- or host-dependent is ever written, so reruns with the same config and
input are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import asdict, dataclass, field
from operator import add

import csv
import json

import numpy as np

from .decomposition import (
    FdDecomposition,
    _values,
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
from .errors import NoIdentifyingVariation, PanelError
from .estimators import fd, twfe
from .generalized import (
    CovariateSpec,
    GapRange,
    PretrendConfig,
    gap_restricted,
    generalized_twfe,
)
from .panel import BalancedPanel, PanelSchema, load_panel

FORMATS = ("csv", "json")
ANALYSIS_PREFIX = "analysis:"
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
SUMMARY_FIELDS = (
    "mean", "sd", "p5", "p25", "median", "p75", "p95", "n_components"
)
# rows of the weights CSV formatted per write; bounds the writer's transient
# strings whatever the panel's size
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
    options: dict[str, str] = field(default_factory=dict)


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


def _split(text: str) -> list[str]:
    return [tok for tok in text.replace(",", " ").split() if tok]


def _get_bool(options: dict[str, str], key: str, default: bool = False) -> bool:
    if key not in options:
        return default
    value = options[key].strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"option '{key}' must be a boolean, got '{options[key]}'")


def _get_number(options, key: str, default, kind: type, noun: str):
    if key not in options:
        if default is None:
            raise ValueError(f"missing required option '{key}'")
        return default
    try:
        return kind(options[key])
    except ValueError:
        raise ValueError(
            f"option '{key}' must be {noun}, got '{options[key]}'"
        ) from None


def _get_int(options, key: str, default: int | None = None) -> int:
    return _get_number(options, key, default, int, "an integer")


def _get_float(options, key: str, default: float | None = None) -> float:
    return _get_number(options, key, default, float, "a number")


def _require(options: dict[str, str], key: str) -> str:
    if key not in options or not options[key].strip():
        raise ValueError(f"missing required option '{key}'")
    return options[key].strip()


def load_run_config(path: str) -> RunConfig:
    """Parse an INI config file into a :class:`RunConfig`."""
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    parser.read(path)
    if "run" not in parser:
        raise ValueError(f"{path}: missing [run] section")
    run = parser["run"]
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
    if "schema" in parser:
        sec = parser["schema"]
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
        if len(delimiter) != 1:
            raise ValueError(
                f"option 'delimiter' must be exactly one character, got "
                f"'{delimiter}'"
            )
        balance = sec.get("balance", "error").strip()
    analyses = []
    for section in parser.sections():
        if not section.startswith(ANALYSIS_PREFIX):
            continue
        name = section[len(ANALYSIS_PREFIX):].strip()
        if not name:
            raise ValueError("analysis section needs a name: [analysis:NAME]")
        options = dict(parser[section])
        kind = options.pop("kind", "").strip()
        if not kind:
            raise ValueError(f"analysis '{name}': missing 'kind' option")
        # a [DEFAULT] key reaches only the kinds that read it
        inherited = set(parser.defaults()) - KINDS.get(kind, set())
        options = {k: v for k, v in options.items() if k not in inherited}
        analyses.append(AnalysisConfig(name=name, kind=kind, options=options))
    if not analyses:
        raise ValueError(f"{path}: no [analysis:NAME] sections")
    return RunConfig(
        input_path=run.get("input", "").strip() or None,
        output_dir=run.get("output_dir", ".").strip(),
        formats=formats,
        seed=_get_int(run, "seed", 0),
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


def _write_columns(path: str, decomposition, header) -> None:
    """A decomposition's ``header`` columns, one row per component; a
    degenerate (NaN) beta is an empty cell."""
    columns = (_values(getattr(decomposition, field)) for field in header)
    _write_csv(path, header, zip(*columns))


def _write_components(outdir: str, name: str, decomposition) -> None:
    if isinstance(decomposition, FdDecomposition):
        header = ("gap", "beta", "weight", "n_obs")
    else:
        header = ("first", "second", "beta", "weight", "n_obs")
        if decomposition.n_controls is not None:
            header += ("n_controls",)
    _write_columns(
        os.path.join(outdir, f"{name}_components.csv"), decomposition, header
    )


class _Echo:
    """A file stand-in whose ``write`` returns its text, so that
    ``csv.writer(_Echo()).writerow`` returns the row as ``csv`` formats it."""

    def write(self, text: str) -> str:
        return text


def _write_weights(path: str, units, report) -> None:
    """The weights CSV, ordered by gap, then unit, then start period.

    Each unit label is quoted once by ``csv`` itself (as the first of two
    fields, so an empty label stays empty), and rows are joined from
    ``label,gap,start,`` prefixes and the weights' ``repr``, about
    :data:`WEIGHT_ROWS_PER_WRITE` at a time: the bytes ``csv.writer`` would
    write for the same rows.
    """
    echo = csv.writer(_Echo())
    labels = [echo.writerow((unit, None))[: -len(",\r\n")] for unit in units]
    with open(path, "w", newline="") as handle:
        handle.write(echo.writerow(("unit", "gap", "start_period", "weight")))
        for k, block in report.gap_blocks():
            starts = [f",{k},{p}," for p in report.periods[: block.shape[1]]]
            step = max(1, WEIGHT_ROWS_PER_WRITE // len(starts))
            for lo in range(0, len(labels), step):
                prefixes = [
                    label + start
                    for label in labels[lo : lo + step]
                    for start in starts
                ]
                weights = map(repr, block[lo : lo + step].ravel().tolist())
                handle.write("\r\n".join(map(add, prefixes, weights)))
                handle.write("\r\n")


def _write_summary_table(outdir: str, name: str, decomposition) -> None:
    summary = weighted_summary(decomposition)
    _write_csv(
        os.path.join(outdir, f"{name}_summary_table.csv"),
        SUMMARY_FIELDS,
        [[getattr(summary, field) for field in SUMMARY_FIELDS]],
    )


# ---------------------------------------------------------------------------
# analysis runners


def _covariates(options) -> list[str] | None:
    return _split(options.get("covariates", "")) or None


def _gap_range(options, required: bool) -> GapRange | None:
    if "k_min" not in options and "k_max" not in options:
        if required:
            raise ValueError("missing required options 'k_min' and 'k_max'")
        return None
    return GapRange(_get_int(options, "k_min"), _get_int(options, "k_max"))


def _pretrend_configs(options) -> tuple[PretrendConfig, ...]:
    if "pretrend" not in options:
        return ()
    configs = []
    for token in _split(options["pretrend"]):
        parts = token.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"pretrend spec '{token}' must look like "
                f"'variable:start_offset:end_offset[:min_points]'"
            )
        numbers = []
        for part in parts[1:]:
            try:
                numbers.append(int(part))
            except ValueError:
                raise ValueError(
                    f"pretrend spec '{token}': '{part}' is not an integer"
                ) from None
        configs.append(PretrendConfig(parts[0], *numbers))
    return tuple(configs)


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
    suffix, decomp = "estimate", None
    if kind != "simulation":
        y, x = _require(opts, "y"), _require(opts, "x")
        params: dict = {"y": y, "x": x}

    if kind == "twfe":
        covs = _covariates(opts)
        fields = asdict(twfe(panel, y, x, covs, se=_get_bool(opts, "se")))
        params["covariates"] = covs or []
    elif kind == "fd":
        params["gap"] = _get_int(opts, "gap", 1)
        fields = asdict(
            fd(panel, y, x, params["gap"], se=_get_bool(opts, "se"))
        )
    elif kind == "gap_restricted":
        rng = _gap_range(opts, required=True)
        fields = asdict(
            gap_restricted(panel, y, x, rng, se=_get_bool(opts, "se"))
        )
        params.update(k_min=rng.k_min, k_max=rng.k_max)
    elif kind == "generalized":
        spec = CovariateSpec(
            time_invariant=tuple(_split(opts.get("time_invariant", ""))),
            differenced=tuple(_split(opts.get("differenced", ""))),
            pre_period=_pretrend_configs(opts),
        )
        presample = None
        if opts.get("presample", "").strip():
            presample = load_panel(
                opts["presample"].strip(), config.schema,
                delimiter=config.delimiter, balance=config.balance,
            )
        scheme = opts.get("weight_scheme", "ssr").strip()
        gap_range = _gap_range(opts, required=False)
        result = generalized_twfe(
            panel, y, x, spec=spec, gap_range=gap_range, weight_scheme=scheme,
            presample=presample, se=_get_bool(opts, "se"),
        )
        params.update(
            time_invariant=list(spec.time_invariant),
            differenced=list(spec.differenced),
            pre_period=[
                f"{c.variable}:{c.window_start_offset}:{c.window_end_offset}"
                + (f":{c.min_points}" if c.min_points is not None else "")
                for c in spec.pre_period
            ],
            weight_scheme=scheme,
        )
        if gap_range is not None:
            params.update(k_min=gap_range.k_min, k_max=gap_range.k_max)
        if presample is not None:
            params["presample"] = opts["presample"].strip()
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
        covs = _covariates(opts)
        report = causal_weights(panel, y, x, covs)
        _write_weights(
            os.path.join(outdir, f"{name}_weights.csv"), panel.units, report
        )
        params["covariates"] = covs or []
        fields = {
            "total_mass": report.total_mass,
            "negative_mass": report.negative_mass,
            "denominator": report.denominator,
            "n_weights": int(report.weight.shape[0]),
        }
    else:  # simulation
        suffix = "audit"
        scenario = _require(opts, "scenario")
        replications = _get_int(opts, "replications", 1)
        if replications < 1:
            raise ValueError("'replications' must be at least 1")
        overrides: dict = {"seed": config.seed}
        for key, getter in (
            ("n_units", _get_int),
            ("n_periods", _get_int),
            ("tau", _get_float),
            ("noise_sd", _get_float),
            ("tau_unit_sd", _get_float),
            ("feedback", _get_float),
        ):
            if key in opts:
                overrides[key] = getter(opts, key)
        preset = scenario_preset(scenario, **overrides)
        audit_covs = _covariates(opts)
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
            "covariates": audit_covs or [],
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
        _write_components(outdir, name, decomp)
        if kind == "fd_decomposition" and _get_bool(opts, "figure"):
            _write_columns(
                os.path.join(outdir, f"{name}_figure.csv"),
                decomp,
                ("gap", "beta", "weight"),
            )
        if _get_bool(opts, "summary"):
            _write_summary_table(outdir, name, decomp)


def run(config: RunConfig) -> int:
    """Execute every analysis in ``config``; returns a process exit code.

    Every analysis's kind, options and need for a panel are checked before
    the panel is loaded or any analysis runs.
    """
    for analysis in config.analyses:
        if analysis.kind not in KINDS:
            raise ValueError(
                f"analysis '{analysis.name}': unknown kind '{analysis.kind}'"
            )
        for key in analysis.options:
            if key not in KINDS[analysis.kind]:
                raise ValueError(
                    f"analysis '{analysis.name}': unknown option '{key}'"
                )
        if analysis.kind != "simulation" and config.input_path is None:
            raise ValueError(
                f"analysis '{analysis.name}' needs an input panel; set "
                f"'input' in [run]"
            )
    panel = None
    if config.input_path is not None:
        if config.schema is None:
            raise ValueError("an input panel needs a [schema] section")
        panel = load_panel(
            config.input_path,
            config.schema,
            delimiter=config.delimiter,
            balance=config.balance,
        )
    os.makedirs(config.output_dir, exist_ok=True)
    for analysis in config.analyses:
        _run_analysis(analysis, panel, config)
    return 0


def selfcheck(
    seed: int = 0,
    panels: int = 40,
    tolerance: float = 1e-10,
    stream=None,
) -> int:
    """Random-panel decomposition audit; exit 0 only if all gaps are tiny."""
    if panels < 1:
        raise ValueError(f"'panels' must be at least 1, got {panels}")
    stream = stream or sys.stdout
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(panels):
        n = int(rng.integers(2, 31))
        t = int(rng.integers(2, 13))
        flavor = i % 3
        if flavor == 0:
            y = rng.normal(size=(n, t))
            x = rng.normal(size=(n, t))
        elif flavor == 1:
            y = rng.uniform(-1.0, 1.0, size=(n, t))
            x = rng.uniform(-1.0, 1.0, size=(n, t))
        else:
            y = rng.standard_t(2, size=(n, t))
            x = rng.standard_t(2, size=(n, t))
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
        file=stream,
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
    except (PanelError, NoIdentifyingVariation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
