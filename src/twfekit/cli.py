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
from dataclasses import dataclass, field

import csv
import json

import numpy as np

from .decomposition import (
    FdDecomposition,
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
from .estimators import Estimate, fd, twfe
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


def _get_int(options: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in options:
        if default is None:
            raise ValueError(f"missing required option '{key}'")
        return default
    try:
        return int(options[key])
    except ValueError:
        raise ValueError(
            f"option '{key}' must be an integer, got '{options[key]}'"
        ) from None


def _get_float(options, key: str, default: float | None = None) -> float:
    if key not in options:
        if default is None:
            raise ValueError(f"missing required option '{key}'")
        return default
    try:
        return float(options[key])
    except ValueError:
        raise ValueError(
            f"option '{key}' must be a number, got '{options[key]}'"
        ) from None


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


def _to_plain(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_to_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    return value


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(_to_plain(payload), handle, indent=2)
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


def _estimate_payload(operation: str, params: dict, est: Estimate) -> dict:
    return {
        "operation": operation,
        "parameters": params,
        "beta": est.beta,
        "se": est.se,
        "n_units": est.n_units,
        "periods_used": est.periods_used,
        "denominator": est.denominator,
    }


def _write_components(outdir: str, name: str, decomposition) -> None:
    path = os.path.join(outdir, f"{name}_components.csv")
    if isinstance(decomposition, FdDecomposition):
        header = ("gap", "beta", "weight", "n_obs")
        rows = [
            (c.gap, c.beta, c.weight, c.n_obs)
            for c in decomposition.components
        ]
    else:
        with_controls = any(
            c.n_controls is not None for c in decomposition.components
        )
        header = ("first", "second", "beta", "weight", "n_obs")
        if with_controls:
            header = header + ("n_controls",)
        rows = []
        for c in decomposition.components:
            row = [c.first, c.second, c.beta, c.weight, c.n_obs]
            if with_controls:
                row.append(c.n_controls)
            rows.append(row)
    _write_csv(path, header, rows)


def _write_summary_table(outdir: str, name: str, decomposition) -> None:
    summary = weighted_summary(decomposition)
    _write_csv(
        os.path.join(outdir, f"{name}_summary_table.csv"),
        ("mean", "sd", "p5", "p25", "median", "p75", "p95", "n_components"),
        [
            (
                summary.mean,
                summary.sd,
                summary.p5,
                summary.p25,
                summary.median,
                summary.p75,
                summary.p95,
                summary.n_components,
            )
        ],
    )


# ---------------------------------------------------------------------------
# analysis runners


def _covariates(options) -> list[str] | None:
    if "covariates" not in options:
        return None
    names = _split(options["covariates"])
    return names or None


def _gap_range(options, required: bool) -> GapRange | None:
    has_min = "k_min" in options
    has_max = "k_max" in options
    if not (has_min or has_max):
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
    opts = analysis.options
    name = analysis.name
    outdir = config.output_dir
    needs_panel = analysis.kind != "simulation"
    if needs_panel and panel is None:
        raise ValueError(
            f"analysis '{name}' needs an input panel; set 'input' in [run]"
        )

    if analysis.kind == "twfe":
        y, x = _require(opts, "y"), _require(opts, "x")
        covs = _covariates(opts)
        est = twfe(panel, y, x, covs, se=_get_bool(opts, "se"))
        params = {"y": y, "x": x, "covariates": covs or []}
        _write_report(
            outdir, name, "estimate",
            _estimate_payload("twfe", params, est), config.formats,
        )
    elif analysis.kind == "fd":
        y, x = _require(opts, "y"), _require(opts, "x")
        gap = _get_int(opts, "gap", 1)
        est = fd(panel, y, x, gap, se=_get_bool(opts, "se"))
        params = {"y": y, "x": x, "gap": gap}
        _write_report(
            outdir, name, "estimate",
            _estimate_payload("fd", params, est), config.formats,
        )
    elif analysis.kind == "gap_restricted":
        y, x = _require(opts, "y"), _require(opts, "x")
        rng = _gap_range(opts, required=True)
        est = gap_restricted(panel, y, x, rng, se=_get_bool(opts, "se"))
        params = {"y": y, "x": x, "k_min": rng.k_min, "k_max": rng.k_max}
        _write_report(
            outdir, name, "estimate",
            _estimate_payload("gap_restricted", params, est), config.formats,
        )
    elif analysis.kind == "generalized":
        y, x = _require(opts, "y"), _require(opts, "x")
        spec = CovariateSpec(
            time_invariant=tuple(_split(opts.get("time_invariant", ""))),
            differenced=tuple(_split(opts.get("differenced", ""))),
            pre_period=_pretrend_configs(opts),
        )
        presample = None
        if opts.get("presample", "").strip():
            presample = load_panel(
                opts["presample"].strip(),
                config.schema,
                delimiter=config.delimiter,
                balance=config.balance,
            )
        scheme = opts.get("weight_scheme", "ssr").strip()
        gap_range = _gap_range(opts, required=False)
        result = generalized_twfe(
            panel,
            y,
            x,
            spec=spec,
            gap_range=gap_range,
            weight_scheme=scheme,
            presample=presample,
            se=_get_bool(opts, "se"),
        )
        params = {
            "y": y,
            "x": x,
            "time_invariant": list(spec.time_invariant),
            "differenced": list(spec.differenced),
            "pre_period": [
                f"{c.variable}:{c.window_start_offset}:{c.window_end_offset}"
                + (f":{c.min_points}" if c.min_points is not None else "")
                for c in spec.pre_period
            ],
            "weight_scheme": scheme,
        }
        if gap_range is not None:
            params["k_min"] = gap_range.k_min
            params["k_max"] = gap_range.k_max
        if presample is not None:
            params["presample"] = opts["presample"].strip()
        _write_report(
            outdir, name, "estimate",
            _estimate_payload("generalized", params, result.estimate),
            config.formats,
        )
        _write_components(outdir, name, result.decomposition)
        if _get_bool(opts, "summary"):
            _write_summary_table(outdir, name, result.decomposition)
    elif analysis.kind == "fd_decomposition":
        y, x = _require(opts, "y"), _require(opts, "x")
        decomp = fd_decomposition(panel, y, x)
        _write_report(
            outdir, name, "estimate",
            {
                "operation": "fd_decomposition",
                "parameters": {"y": y, "x": x},
                "aggregate": decomp.aggregate,
                "total_denominator": decomp.total_denominator,
                "n_components": len(decomp.components),
            },
            config.formats,
        )
        _write_components(outdir, name, decomp)
        if _get_bool(opts, "figure"):
            _write_csv(
                os.path.join(outdir, f"{name}_figure.csv"),
                ("gap", "beta", "weight"),
                [
                    (c.gap, c.beta, c.weight)
                    for c in decomp.components
                ],
            )
        if _get_bool(opts, "summary"):
            _write_summary_table(outdir, name, decomp)
    elif analysis.kind == "pairwise_decomposition":
        y, x = _require(opts, "y"), _require(opts, "x")
        decomp = pairwise_decomposition(panel, y, x)
        _write_report(
            outdir, name, "estimate",
            {
                "operation": "pairwise_decomposition",
                "parameters": {"y": y, "x": x},
                "aggregate": decomp.aggregate,
                "total_denominator": decomp.total_denominator,
                "n_components": len(decomp.components),
            },
            config.formats,
        )
        _write_components(outdir, name, decomp)
        if _get_bool(opts, "summary"):
            _write_summary_table(outdir, name, decomp)
    elif analysis.kind == "equivalence":
        y, x = _require(opts, "y"), _require(opts, "x")
        report = verify_equivalence(panel, y, x)
        _write_report(
            outdir, name, "report",
            {
                "operation": "equivalence",
                "parameters": {"y": y, "x": x},
                "twfe_beta": report.twfe_beta,
                "fd_aggregate": report.fd_aggregate,
                "pairwise_aggregate": report.pairwise_aggregate,
                "max_rel_gap": report.max_rel_gap,
            },
            config.formats,
        )
    elif analysis.kind == "causal_weights":
        y, x = _require(opts, "y"), _require(opts, "x")
        covs = _covariates(opts)
        report = causal_weights(panel, y, x, covs)
        _write_csv(
            os.path.join(outdir, f"{name}_weights.csv"),
            ("unit", "gap", "start_period", "weight"),
            zip(
                map(panel.units.__getitem__, report.unit_index.tolist()),
                report.gap.tolist(),
                report.start_period.tolist(),
                report.weight.tolist(),
            ),
        )
        _write_report(
            outdir, name, "report",
            {
                "operation": "causal_weights",
                "parameters": {"y": y, "x": x, "covariates": covs or []},
                "total_mass": report.total_mass,
                "negative_mass": report.negative_mass,
                "denominator": report.denominator,
                "n_weights": int(report.weight.shape[0]),
            },
            config.formats,
        )
    elif analysis.kind == "simulation":
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
        rows = []
        for rep in range(replications):
            sim = simulate_replication(preset, rep)
            audit = theorem2_audit(sim, audit_covs)
            rows.append(
                (
                    rep,
                    audit.estimate,
                    audit.tau_weighted_sum,
                    audit.trend_term,
                    audit.delta_bias_term,
                    audit.identity_gap,
                )
            )
        _write_csv(
            os.path.join(outdir, f"{name}_replications.csv"),
            (
                "replication",
                "estimate",
                "tau_weighted_sum",
                "trend_term",
                "delta_bias_term",
                "identity_gap",
            ),
            rows,
        )
        estimates = np.array([row[1] for row in rows])
        payload = {
            "operation": "simulation",
            "parameters": {
                "scenario": scenario,
                "replications": replications,
                "n_units": preset.n_units,
                "n_periods": preset.n_periods,
                "tau": preset.tau,
                "seed": config.seed,
                "covariates": audit_covs or [],
            },
            "mean_estimate": float(estimates.mean()),
            "sd_estimate": float(estimates.std(ddof=1))
            if replications > 1
            else 0.0,
            "mean_tau_weighted_sum": float(
                np.mean([row[2] for row in rows])
            ),
            "mean_trend_term": float(np.mean([row[3] for row in rows])),
            "mean_delta_bias_term": float(np.mean([row[4] for row in rows])),
            "max_abs_identity_gap": float(
                max(abs(row[5]) for row in rows)
            ),
        }
        _write_report(outdir, name, "audit", payload, config.formats)
    else:
        raise ValueError(
            f"analysis '{name}': unknown kind '{analysis.kind}'"
        )


def run(config: RunConfig) -> int:
    """Execute every analysis in ``config``; returns a process exit code."""
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
