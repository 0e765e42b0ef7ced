import csv
import json
import os
import re

import numpy as np
import pytest

from helpers import make_panel, random_panel, write_panel_csv
from twfekit import (
    CovariateSpec,
    GapRange,
    PanelSchema,
    PretrendConfig,
    causal_weights,
    fd_decomposition,
    generalized_twfe,
    load_panel,
    twfe,
)
from twfekit.cli import _pretrend_configs, _write_csv, load_run_config, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture
def panel(rng):
    return random_panel(rng, 12, 4, first_period=2000, extra_series=("w",))


@pytest.fixture
def panel_csv(tmp_path, panel):
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel, unit_col="state", time_col="year")
    return path


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


BASE = """
[run]
input = {input}
output_dir = {outdir}
formats = csv json

[schema]
unit = state
time = year
"""


class TestLoadRunConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_run_config(str(tmp_path / "nope.ini"))

    def test_missing_run_section(self, tmp_path):
        cfg = write_config(tmp_path, "[analysis:a]\nkind = twfe\n")
        with pytest.raises(ValueError, match=r"missing \[run\] section"):
            load_run_config(str(cfg))

    def test_no_analyses(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\noutput_dir = out\n")
        with pytest.raises(ValueError, match="no .analysis"):
            load_run_config(str(cfg))

    def test_unknown_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nformats = yaml\n\n[analysis:a]\nkind = twfe\n",
        )
        with pytest.raises(ValueError, match="unknown format 'yaml'"):
            load_run_config(str(cfg))

    def test_schema_needs_unit_and_time(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\ninput = p.csv\n\n[schema]\nunit = state\n\n"
            "[analysis:a]\nkind = twfe\n",
        )
        with pytest.raises(ValueError, match="'unit' and 'time'"):
            load_run_config(str(cfg))

    def test_analysis_needs_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, "[run]\noutput_dir = o\n\n[analysis:a]\ny = y\n"
        )
        with pytest.raises(ValueError, match="missing 'kind'"):
            load_run_config(str(cfg))

    def test_parsed_fields(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\ninput = p.csv\noutput_dir = o\nformats = csv\nseed = 7\n\n"
            "[schema]\nunit = state\ntime = year\nseries = y x\n"
            "cluster = region\n\n"
            "[analysis:main]\nkind = twfe\ny = y\nx = x\n",
        )
        rc = load_run_config(str(cfg))
        assert rc.input_path == "p.csv"
        assert rc.formats == ("csv",)
        assert rc.seed == 7
        assert rc.schema.series == ("y", "x")
        assert rc.schema.cluster == "region"
        assert rc.analyses[0].name == "main"
        assert rc.analyses[0].kind == "twfe"
        assert rc.analyses[0].options["y"] == "y"

    def test_readme_example_parses(self, tmp_path):
        with open(README) as fh:
            block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
        rc = load_run_config(str(write_config(tmp_path, block)))
        assert rc.seed == 0
        assert rc.schema.series == ("log_emp", "log_min_wage")
        assert rc.schema.cluster == "region"
        assert rc.delimiter == ","
        shortrun = {a.name: a for a in rc.analyses}["shortrun"]
        assert _pretrend_configs(shortrun.options) == (
            PretrendConfig("log_emp", -12, -3),
        )

    def test_delimiter(self, tmp_path):
        head = "[run]\ninput = p.csv\n\n[schema]\nunit = s\ntime = t\n"
        tail = "\n[analysis:a]\nkind = twfe\n"
        for line, want in (
            ("delimiter=;", ";"),
            ("delimiter = |   ; pipe", "|"),
            ("delimiter=#", "#"),
        ):
            cfg = write_config(tmp_path, head + line + tail)
            assert load_run_config(str(cfg)).delimiter == want
        for line in ("delimiter = ;", "delimiter = ::"):
            cfg = write_config(tmp_path, head + line + tail)
            with pytest.raises(ValueError, match="'delimiter'.*one character"):
                load_run_config(str(cfg))


class TestRunCommand:
    def test_estimates_match_library(self, tmp_path, panel, panel_csv):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[analysis:plain]
kind = twfe
y = y
x = x
se = true

[analysis:adjusted]
kind = twfe
y = y
x = x
covariates = w

[analysis:short]
kind = fd
y = y
x = x
gap = 2

[analysis:banded]
kind = gap_restricted
y = y
x = x
k_min = 1
k_max = 2
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0

        with open(outdir / "plain_estimate.json") as fh:
            plain = json.load(fh)
        est = twfe(panel, "y", "x", se=True)
        assert plain["beta"] == est.beta
        assert plain["se"] == est.se
        assert plain["n_units"] == 12

        with open(outdir / "adjusted_estimate.json") as fh:
            adjusted = json.load(fh)
        assert adjusted["beta"] == twfe(panel, "y", "x", ["w"]).beta
        assert adjusted["parameters"]["covariates"] == ["w"]

        # csv twins carry the same numbers through repr round-trip
        with open(outdir / "plain_estimate.csv") as fh:
            rows = dict((r[0], r[1]) for r in csv.reader(fh))
        assert float(rows["beta"]) == est.beta

    def test_decomposition_artifacts(self, tmp_path, panel, panel_csv):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[analysis:bygap]
kind = fd_decomposition
y = y
x = x
figure = yes
summary = yes

[analysis:bypair]
kind = pairwise_decomposition
y = y
x = x

[analysis:check]
kind = equivalence
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0

        dec = fd_decomposition(panel, "y", "x")
        with open(outdir / "bygap_components.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(dec.components)
        for row, comp in zip(rows, dec.components):
            assert int(row["gap"]) == comp.gap
            assert float(row["beta"]) == comp.beta
            assert float(row["weight"]) == comp.weight
        assert (outdir / "bygap_figure.csv").exists()
        assert (outdir / "bygap_summary_table.csv").exists()
        assert (outdir / "bypair_components.csv").exists()

        with open(outdir / "check_report.json") as fh:
            report = json.load(fh)
        assert report["max_rel_gap"] < 1e-12

    def test_generalized_with_presample(self, tmp_path, rng, panel, panel_csv):
        pre = make_panel({"w": rng.normal(size=(12, 6))}, first_period=1994)
        pre_csv = tmp_path / "pre.csv"
        write_panel_csv(pre_csv, pre, unit_col="state", time_col="year")
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + f"""
[analysis:trendadj]
kind = generalized
y = y
x = x
pretrend = w:-6:-3:3
presample = {pre_csv}
k_min = 1
k_max = 2
weight_scheme = ssr
summary = yes
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0

        spec = CovariateSpec(
            pre_period=(
                PretrendConfig(
                    variable="w",
                    window_start_offset=-6,
                    window_end_offset=-3,
                    min_points=3,
                ),
            )
        )
        want = generalized_twfe(
            panel, "y", "x", spec=spec, gap_range=GapRange(1, 2),
            presample=pre,
        )
        with open(outdir / "trendadj_estimate.json") as fh:
            got = json.load(fh)
        assert got["beta"] == want.estimate.beta
        assert got["parameters"] == {
            "y": "y",
            "x": "x",
            "time_invariant": [],
            "differenced": [],
            "pre_period": ["w:-6:-3:3"],
            "weight_scheme": "ssr",
            "k_min": 1,
            "k_max": 2,
            "presample": str(pre_csv),
        }
        with open(outdir / "trendadj_components.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["n_controls"] == "1"
        assert (outdir / "trendadj_summary_table.csv").exists()

    def test_causal_weights_artifacts(self, tmp_path, panel, panel_csv):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[analysis:mass]
kind = causal_weights
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(outdir / "mass_weights.csv") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(float(r["weight"]) for r in rows)
        assert abs(total - 1.0) < 1e-10
        report = causal_weights(panel, "y", "x")
        assert len(rows) == report.weight.shape[0]
        for j, row in enumerate(rows):
            assert row["unit"] == panel.units[report.unit_index[j]]
            assert int(row["gap"]) == report.gap[j]
            assert int(row["start_period"]) == report.start_period[j]
            assert float(row["weight"]) == report.weight[j]
        with open(outdir / "mass_report.json") as fh:
            report = json.load(fh)
        assert abs(report["total_mass"] - 1.0) < 1e-12
        assert report["n_weights"] == len(rows)

    def test_simulation_needs_no_input(self, tmp_path):
        outdir = tmp_path / "out"
        body = f"""
[run]
output_dir = {outdir}
formats = json
seed = 5

[analysis:mc]
kind = simulation
scenario = parallel_trends
replications = 4
n_units = 50
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(outdir / "mc_replications.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        with open(outdir / "mc_audit.json") as fh:
            audit = json.load(fh)
        assert audit["parameters"]["scenario"] == "parallel_trends"
        assert audit["parameters"]["seed"] == 5
        assert audit["max_abs_identity_gap"] < 1e-12
        assert abs(audit["mean_estimate"] - 2.0) < 0.5

    def test_reruns_are_byte_identical(self, tmp_path, panel_csv):
        body = BASE.format(input=panel_csv, outdir=tmp_path / "a") + """
[analysis:plain]
kind = twfe
y = y
x = x
se = true

[analysis:bygap]
kind = fd_decomposition
y = y
x = x
summary = yes
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (
            main(["run", "--config", str(cfg),
                  "--output-dir", str(tmp_path / "b")]) == 0
        )
        names_a = sorted(os.listdir(tmp_path / "a"))
        names_b = sorted(os.listdir(tmp_path / "b"))
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_every_csv_cell_is_a_number_label_or_empty(
        self, tmp_path, panel_csv
    ):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[analysis:plain]
kind = twfe
y = y
x = x
covariates = w
se = true

[analysis:short]
kind = fd
y = y
x = x
se = true

[analysis:banded]
kind = gap_restricted
y = y
x = x
k_min = 1
k_max = 2
se = true

[analysis:adjusted]
kind = generalized
y = y
x = x
differenced = w
weight_scheme = raw
se = true
summary = yes

[analysis:bygap]
kind = fd_decomposition
y = y
x = x
figure = yes
summary = yes

[analysis:bypair]
kind = pairwise_decomposition
y = y
x = x
summary = yes

[analysis:check]
kind = equivalence
y = y
x = x

[analysis:weights]
kind = causal_weights
y = y
x = x

[analysis:mc]
kind = simulation
scenario = parallel_trends
replications = 2
n_units = 20
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        # A label is free text, but never the repr of an object such as
        # np.float64(1.5), which a CSV reader cannot turn back into a number.
        call = re.compile(r"\w\(")
        names = sorted(n for n in os.listdir(outdir) if n.endswith(".csv"))
        assert len(names) == 18
        for name in names:
            with open(outdir / name, newline="") as fh:
                for row in csv.reader(fh):
                    for cell in row:
                        try:
                            float(cell)
                        except ValueError:
                            assert not call.search(cell), (name, cell)

    def test_format_restriction(self, tmp_path, panel_csv):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[analysis:plain]
kind = twfe
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg), "--format", "csv"]) == 0
        assert (outdir / "plain_estimate.csv").exists()
        assert not (outdir / "plain_estimate.json").exists()


class TestWriters:
    def test_numpy_scalars_and_none(self, tmp_path):
        path = tmp_path / "cells.csv"
        _write_csv(path, ("a", "b", "c"), [(np.float64(1.5), None, np.int64(3))])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["a", "b", "c"], ["1.5", "", "3"]]


class TestRunErrors:
    def test_bad_seed_names_key(self, tmp_path, capsys):
        body = f"""
[run]
output_dir = {tmp_path / "o"}
seed = abc

[analysis:mc]
kind = simulation
scenario = parallel_trends
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "option 'seed' must be an integer, got 'abc'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("n_units", "abc", "an integer"),
            ("n_periods", "4.5", "an integer"),
            ("tau", "x1", "a number"),
            ("noise_sd", "wide", "a number"),
            ("tau_unit_sd", "-", "a number"),
            ("feedback", "0,3", "a number"),
        ],
    )
    def test_bad_simulation_override_names_key(
        self, tmp_path, capsys, key, value, kind
    ):
        body = f"""
[run]
output_dir = {tmp_path / "o"}

[analysis:mc]
kind = simulation
scenario = parallel_trends
{key} = {value}
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"option '{key}' must be {kind}, got '{value}'" in (
            capsys.readouterr().err
        )

    def test_bad_pretrend_offset_names_token(
        self, tmp_path, panel_csv, capsys
    ):
        body = BASE.format(input=panel_csv, outdir=tmp_path / "o") + """
[analysis:adj]
kind = generalized
y = y
x = x
pretrend = w:-6:x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "pretrend spec 'w:-6:x': 'x' is not an integer" in (
            capsys.readouterr().err
        )

    def test_config_not_found(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.ini")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, panel_csv, capsys):
        body = BASE.format(input=panel_csv, outdir=tmp_path / "o") + """
[analysis:bad]
kind = anova
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "unknown kind 'anova'" in capsys.readouterr().err

    def test_missing_input_column(self, tmp_path, panel_csv, capsys):
        body = """
[run]
input = {input}
output_dir = {outdir}

[schema]
unit = state
time = quarter

[analysis:plain]
kind = twfe
y = y
x = x
""".format(input=panel_csv, outdir=tmp_path / "o")
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "quarter" in capsys.readouterr().err

    def test_panel_analysis_without_input(self, tmp_path, capsys):
        body = f"""
[run]
output_dir = {tmp_path / "o"}

[analysis:plain]
kind = twfe
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "needs an input panel" in capsys.readouterr().err

    def test_unknown_series_in_analysis(self, tmp_path, panel_csv, capsys):
        body = BASE.format(input=panel_csv, outdir=tmp_path / "o") + """
[analysis:plain]
kind = twfe
y = wage
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "wage" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes_and_prints(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("selfcheck: 40 panels")
        assert "(ok)" in out

    def test_deterministic_output(self, capsys):
        main(["selfcheck", "--seed", "3", "--panels", "10"])
        first = capsys.readouterr().out
        main(["selfcheck", "--seed", "3", "--panels", "10"])
        second = capsys.readouterr().out
        assert first == second
        assert "10 panels" in first

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["selfcheck", "--panels", "5",
                     "--tolerance", "1e-300"]) == 1
        assert "FAILED" in capsys.readouterr().out
