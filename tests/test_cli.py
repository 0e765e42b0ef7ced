import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from helpers import make_panel, random_panel, write_panel_csv
from twfekit import (
    BalancedPanel,
    CovariateSpec,
    GapRange,
    PanelSchema,
    PretrendConfig,
    causal_weights,
    fd,
    fd_decomposition,
    generalized_twfe,
    load_panel,
    twfe,
)
from twfekit import _floattext, cli
from twfekit.cli import (
    _write_csv,
    _write_weights,
    load_run_config,
    main,
)

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


# A config with one analysis of every kind; ``{presample}`` is a CSV of
# earlier periods for the ``generalized`` analysis's pre-trend control.
EVERY_KIND = """
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
gap = 2
se = true

[analysis:banded]
kind = gap_restricted
y = y
x = x
k_min = 1
k_max = 2

[analysis:trendadj]
kind = generalized
y = y
x = x
differenced = w
pretrend = w:-6:-3:3
presample = {presample}
k_min = 1
k_max = 2
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

[analysis:mass]
kind = causal_weights
y = y
x = x
covariates = w

[analysis:mc]
kind = simulation
scenario = time_varying_delta
replications = 3
n_units = 20
covariates = w
"""

# Each scalar report's fields in file order, as its CSV twin lists them in
# the ``field`` column: the ``parameters`` object is spelled out one
# ``parameters.*`` row per key.
REPORT_FIELDS = {
    "plain_estimate": [
        "operation", "parameters.y", "parameters.x", "parameters.covariates",
        "beta", "se", "n_units", "periods_used", "denominator",
    ],
    "short_estimate": [
        "operation", "parameters.y", "parameters.x", "parameters.gap",
        "beta", "se", "n_units", "periods_used", "denominator",
    ],
    "banded_estimate": [
        "operation", "parameters.y", "parameters.x", "parameters.k_min",
        "parameters.k_max",
        "beta", "se", "n_units", "periods_used", "denominator",
    ],
    "trendadj_estimate": [
        "operation", "parameters.y", "parameters.x",
        "parameters.time_invariant", "parameters.differenced",
        "parameters.pre_period", "parameters.weight_scheme",
        "parameters.k_min", "parameters.k_max", "parameters.presample",
        "beta", "se", "n_units", "periods_used", "denominator",
    ],
    "bygap_estimate": [
        "operation", "parameters.y", "parameters.x",
        "aggregate", "total_denominator", "n_components",
    ],
    "bypair_estimate": [
        "operation", "parameters.y", "parameters.x",
        "aggregate", "total_denominator", "n_components",
    ],
    "check_report": [
        "operation", "parameters.y", "parameters.x",
        "twfe_beta", "fd_aggregate", "pairwise_aggregate", "max_rel_gap",
    ],
    "mass_report": [
        "operation", "parameters.y", "parameters.x", "parameters.covariates",
        "total_mass", "negative_mass", "denominator", "n_weights",
    ],
    "mc_audit": [
        "operation", "parameters.scenario", "parameters.replications",
        "parameters.n_units", "parameters.n_periods", "parameters.tau",
        "parameters.seed", "parameters.covariates",
        "mean_estimate", "sd_estimate", "mean_tau_weighted_sum",
        "mean_trend_term", "mean_delta_bias_term", "max_abs_identity_gap",
    ],
}


@pytest.fixture
def every_kind_config(tmp_path, rng, panel_csv):
    """The :data:`EVERY_KIND` config writing to ``tmp_path / "out"``."""
    pre = make_panel({"w": rng.normal(size=(12, 6))}, first_period=1994)
    pre_csv = write_panel_csv(
        tmp_path / "pre.csv", pre, unit_col="state", time_col="year"
    )
    body = BASE.format(input=panel_csv, outdir=tmp_path / "out")
    return write_config(tmp_path, body + EVERY_KIND.format(presample=pre_csv))


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
        assert shortrun.options["pretrend"] == (
            PretrendConfig("log_emp", -12, -3),
        )
        for analysis in rc.analyses:
            assert set(analysis.options) <= cli.KINDS[analysis.kind]

    def test_every_option_has_one_reader(self):
        assert set().union(*cli.KINDS.values()) == set(cli.OPTIONS)

    def test_readme_lists_the_options_of_each_kind(self):
        with open(README) as fh:
            rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", fh.read(), re.M)
        documented = {kind: set(re.findall(r"`(\w+)`", options))
                      for kind, options in rows}
        assert documented == cli.KINDS

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

        headers = {
            "bygap_components": "gap,beta,weight,n_obs",
            "bygap_figure": "gap,beta,weight",
            "bypair_components": "first,second,beta,weight,n_obs",
        }
        for stem, header in headers.items():
            with open(outdir / f"{stem}.csv") as fh:
                assert fh.readline() == header + "\n"
        dec = fd_decomposition(panel, "y", "x")
        with open(outdir / "bygap_components.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(dec.components)
        for row, comp in zip(rows, dec.components):
            assert int(row["gap"]) == comp.gap
            assert float(row["beta"]) == comp.beta
            assert float(row["weight"]) == comp.weight
        assert (outdir / "bygap_summary_table.csv").exists()

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
            assert fh.readline() == "first,second,beta,weight,n_obs,n_controls\n"
            fh.seek(0)
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
        oracles.write_weights_csv(tmp_path / "want.csv", panel.units, report)
        want = (tmp_path / "want.csv").read_bytes()
        assert (outdir / "mass_weights.csv").read_bytes() == want
        with open(outdir / "mass_report.json") as fh:
            report = json.load(fh)
        assert abs(report["total_mass"] - 1.0) < 1e-12
        assert report["n_weights"] == len(rows)

    def test_tab_separated_panel(self, tmp_path, panel_csv):
        # configparser strips a literal tab, so the config spells it \t;
        # the TSV twin of the CSV panel gives the same artifacts
        tsv = tmp_path / "panel.tsv"
        tsv.write_text(panel_csv.read_text().replace(",", "\t"))
        analyses = """
[analysis:plain]
kind = twfe
y = y
x = x
se = true

[analysis:mass]
kind = causal_weights
y = y
x = x
"""
        for path, outdir, line in (
            (panel_csv, "csv", ""), (tsv, "tsv", "delimiter = \\t\n")
        ):
            body = BASE.format(input=path, outdir=tmp_path / outdir)
            cfg = write_config(tmp_path, body + line + analyses)
            assert main(["run", "--config", str(cfg)]) == 0
        assert load_run_config(str(cfg)).delimiter == "\t"
        names = sorted(os.listdir(tmp_path / "csv"))
        assert sorted(os.listdir(tmp_path / "tsv")) == names
        assert "plain_estimate.json" in names and "mass_weights.csv" in names
        for name in names:
            got = (tmp_path / "tsv" / name).read_bytes()
            assert got == (tmp_path / "csv" / name).read_bytes()
        # a literal tab reads as an empty value and \\t as three
        # characters: both stay errors
        body = BASE.format(input=tsv, outdir=tmp_path / "bad")
        for line in ("delimiter =\t\n", "delimiter = \\\\t\n"):
            cfg = write_config(tmp_path, body + line + analyses)
            with pytest.raises(ValueError, match="'delimiter'.*one character"):
                load_run_config(str(cfg))

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

    def test_reruns_are_byte_identical(self, tmp_path, every_kind_config):
        cfg = str(every_kind_config)
        assert main(["run", "--config", cfg]) == 0
        assert (
            main(["run", "--config", cfg,
                  "--output-dir", str(tmp_path / "again")]) == 0
        )
        names = sorted(os.listdir(tmp_path / "out"))
        assert names == sorted(os.listdir(tmp_path / "again"))
        # 9 scalar reports in two formats, 3 component tables, 3 summary
        # tables, a figure, the weights and the replications
        assert len(names) == 2 * 9 + 3 + 3 + 1 + 1 + 1
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "again" / name
            ).read_bytes()

    def test_run_leaves_numpy_ma_unimported(self, tmp_path, panel_csv):
        # numpy >= 2 imports numpy.ma, 10-13 ms and about 1 MB, on a
        # process's first np.median; the generalized estimator centres its
        # differenced controls without it
        body = BASE.format(input=panel_csv, outdir=tmp_path / "out") + (
            "\n[analysis:adj]\nkind = generalized\ny = y\nx = x\n"
            "differenced = w\n"
        )
        config = write_config(tmp_path, body)
        script = (
            "import sys\n"
            "from twfekit.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        )
        assert (tmp_path / "out" / "adj_components.csv").exists()
        assert done.stdout == "False\n"

    def test_report_fields_in_order(self, tmp_path, every_kind_config):
        assert main(["run", "--config", str(every_kind_config)]) == 0
        outdir = tmp_path / "out"
        reports = sorted(n for n in os.listdir(outdir) if n.endswith(".json"))
        assert reports == sorted(f"{stem}.json" for stem in REPORT_FIELDS)
        for stem, fields in REPORT_FIELDS.items():
            with open(outdir / f"{stem}.json") as fh:
                payload = json.load(fh)
            flat = []
            for key, value in payload.items():
                if isinstance(value, dict):
                    flat.extend(f"{key}.{k}" for k in value)
                else:
                    flat.append(key)
            assert flat == fields, stem
            with open(outdir / f"{stem}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["field", "value"], stem
            assert [row[0] for row in rows[1:]] == fields, stem

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
                            value = float(cell)
                        except ValueError:
                            assert not call.search(cell), (name, cell)
                        else:
                            # float() parses "nan" and "inf": a degenerate
                            # estimate is an empty cell, never a NaN
                            assert math.isfinite(value), (name, cell)

    def test_degenerate_pair_is_an_empty_cell(self, tmp_path, rng):
        n, t = 9, 4
        x = rng.normal(size=(n, t))
        x[:, 2] = x[:, 0] + 1.5  # periods 2000 and 2002 differ by a shift
        panel = make_panel(
            {"y": rng.normal(size=(n, t)), "x": x}, first_period=2000
        )
        path = write_panel_csv(
            tmp_path / "panel.csv", panel, unit_col="state", time_col="year"
        )
        outdir = tmp_path / "out"
        body = BASE.format(input=path, outdir=outdir) + """
[analysis:bypair]
kind = pairwise_decomposition
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(outdir / "bypair_components.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            dead = (row["first"], row["second"]) == ("2000", "2002")
            assert (row["beta"] == "") == dead
            assert (row["weight"] == "0.0") == dead

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

    def test_integral_numbers_read_as_integers(
        self, tmp_path, rng, panel, panel_csv
    ):
        pre = make_panel({"y": rng.normal(size=(12, 6))}, first_period=1994)
        pre_csv = write_panel_csv(
            tmp_path / "pre.csv", pre, unit_col="state", time_col="year"
        )
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + f"""
[analysis:short]
kind = fd
y = y
x = x
gap = 2.0

[analysis:trendadj]
kind = generalized
y = y
x = x
pretrend = y:-6.0:-2
presample = {pre_csv}

[analysis:mc]
kind = simulation
scenario = parallel_trends
n_units = 30.0
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(outdir / "short_estimate.json") as fh:
            short = json.load(fh)
        assert short["parameters"]["gap"] == 2
        assert short["beta"] == fd(panel, "y", "x", 2).beta
        with open(outdir / "trendadj_estimate.json") as fh:
            trendadj = json.load(fh)
        assert trendadj["parameters"]["pre_period"] == ["y:-6:-2"]
        with open(outdir / "mc_audit.json") as fh:
            assert json.load(fh)["parameters"]["n_units"] == 30

    def test_default_keys_reach_the_kinds_that_read_them(
        self, tmp_path, panel_csv
    ):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[DEFAULT]
y = y
x = x
summary = yes

[analysis:plain]
kind = twfe

[analysis:bypair]
kind = pairwise_decomposition
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (outdir / "bypair_summary_table.csv").exists()
        assert not (outdir / "plain_summary_table.csv").exists()

    @pytest.mark.parametrize("spelling", ["no", "false", "off", "0", " OFF "])
    def test_false_boolean_spellings(self, tmp_path, panel_csv, spelling):
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + f"""
[analysis:plain]
kind = twfe
y = y
x = x
se = {spelling}
"""
        cfg = write_config(tmp_path, body)
        assert load_run_config(str(cfg)).analyses[0].options["se"] is False
        assert main(["run", "--config", str(cfg)]) == 0
        with open(outdir / "plain_estimate.json") as fh:
            assert json.load(fh)["se"] is None

    def test_default_key_reaches_run(self, tmp_path):
        outdir = tmp_path / "out"
        body = f"""
[DEFAULT]
seed = 5
replications = 2

[run]
output_dir = {outdir}
formats = json

[analysis:mc]
kind = simulation
scenario = parallel_trends
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(outdir / "mc_audit.json") as fh:
            params = json.load(fh)["parameters"]
        assert (params["seed"], params["replications"]) == (5, 2)


class TestWriters:
    def test_numpy_scalars_and_none(self, tmp_path):
        path = tmp_path / "cells.csv"
        _write_csv(path, ("a", "b", "c"), [(np.float64(1.5), None, np.int64(3))])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["a", "b", "c"], ["1.5", "", "3"]]


    # one write per gap, per few units with a remainder, per part of one
    # unit's start periods, and per weight
    @pytest.mark.parametrize("rows_per_write", [8192, 13, 4, 1])
    def test_weights_csv_matches_csv_writer(
        self, tmp_path, rng, monkeypatch, rows_per_write
    ):
        monkeypatch.setattr(cli, "WEIGHT_ROWS_PER_WRITE", rows_per_write)
        units = (
            "plain", "with,comma", 'with "quote"', "two\nlines", "cr\rlf",
            " padded ", "", "semi;colon", "tab\tbed", "'single'", "Zürich",
            "東京",
        )
        if sys.version_info >= (3, 11):
            # csv writes a NUL as is from Python 3.11 on, and refuses it
            # before; the writer keeps a label's bytes by a mask, not by
            # their being nonzero
            units += ("nul\0byte",)
        n = len(units)
        panel = BalancedPanel(
            units=units,
            periods=tuple(range(1990, 1997)),
            series={"y": rng.normal(size=(n, 7)), "x": rng.normal(size=(n, 7))},
        )
        report = causal_weights(panel, "y", "x")
        oracles.write_weights_csv(tmp_path / "want.csv", panel.units, report)
        want = (tmp_path / "want.csv").read_bytes()
        assert want.count(b"\r\n") == 1 + n * 7 * 6 // 2
        layout, sizes = _floattext.layout, []

        def counted(values, text):
            sizes.append(len(values))
            layout(values, text)

        monkeypatch.setattr(_floattext, "layout", counted)
        _write_weights(tmp_path / "got.csv", panel.units, report)
        assert (tmp_path / "got.csv").read_bytes() == want
        assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]
        assert sum(sizes) == n * 7 * 6 // 2
        assert max(sizes) <= rows_per_write

    @pytest.mark.parametrize("failing", ["layout", "write"])
    def test_failed_weights_writer_leaves_no_part_or_process(
        self, tmp_path, panel_csv, monkeypatch, capsys, failing
    ):
        # "layout": forming the weights' text fails on the second call;
        # "write": the writer's second write to the file fails, after the
        # header is in it
        layout = _floattext.layout
        real_open = open
        calls = []

        def flaky(values, text):
            calls.append(None)
            if len(calls) == 2:
                raise OSError("no space left on device")
            layout(values, text)

        class FlakyBuffer:
            def __init__(self, buffer):
                self.buffer = buffer

            def write(self, data):
                calls.append(None)
                if len(calls) == 2:
                    raise OSError("no space left on device")
                return self.buffer.write(data)

        class FlakyHandle:
            def __init__(self, handle):
                self.handle = handle
                self.encoding = handle.encoding
                self.buffer = FlakyBuffer(handle.buffer)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        def flaky_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if str(path).endswith("_weights.csv.tmp"):
                return FlakyHandle(handle)
            return handle

        if failing == "layout":
            monkeypatch.setattr(_floattext, "layout", flaky)
        else:
            monkeypatch.setattr(cli, "open", flaky_open, raising=False)
        outdir = tmp_path / "out"
        body = BASE.format(input=panel_csv, outdir=outdir) + """
[analysis:mass]
kind = causal_weights
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert len(calls) == 2
        assert capsys.readouterr().err == "error: no space left on device\n"
        # the file is whole or absent: no truncated weights CSV and no
        # temporary file; and the writer starts no process
        assert not (outdir / "mass_weights.csv").exists()
        assert not [p for p in os.listdir(outdir) if "weights" in p]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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

    def test_presample_without_pretrend_precedes_any_work(
        self, tmp_path, capsys
    ):
        # neither file exists: the check precedes reading either
        body = BASE.format(
            input=tmp_path / "missing.csv", outdir=tmp_path / "o"
        ) + f"""
[analysis:adj]
kind = generalized
y = y
x = x
presample = {tmp_path / "pre.csv"}
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: analysis 'adj': 'presample' is set but no 'pretrend' "
            "reads it\n"
        )
        assert not (tmp_path / "o").exists()

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

    def test_empty_formats(self, tmp_path, panel_csv, capsys):
        # an empty list would run every analysis and write no report
        body = BASE.format(input=panel_csv, outdir=tmp_path / "o").replace(
            "formats = csv json", "formats ="
        ) + "\n[analysis:plain]\nkind = twfe\ny = y\nx = x\n"
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "option 'formats' is empty; choose from ['csv', 'json']" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

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

    def test_config_that_cannot_be_read(self, tmp_path, capsys):
        # a directory exists but cannot be opened as a file
        assert main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err and "[run]" not in err

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

    # a valid simulation first: nothing may run before the config is checked
    @pytest.mark.parametrize(
        "analysis, message",
        [
            ("kind = simulaton", "analysis 'typo': unknown kind 'simulaton'"),
            (
                "kind = twfe\ny = y\nx = x",
                "analysis 'typo' needs an input panel; set 'input' in [run]",
            ),
            (
                "kind = simulation\nscenario = parallel_trends\nn_unit = 30",
                "analysis 'typo': unknown option 'n_unit'",
            ),
            (
                "kind = simulation\nscenario = parallel_trends\nn_units = 3O",
                "option 'n_units' must be an integer, got '3O'",
            ),
            (
                "kind = simulation\nscenario = parallel_trends\ntau = abc",
                "option 'tau' must be a number, got 'abc'",
            ),
            (
                "kind = twfe\ny = y\nx = x\nse = maybe",
                "option 'se' must be a boolean, got 'maybe'",
            ),
            (
                "kind = generalized\ny = y\nx = x\npretrend = w:-6:x",
                "pretrend spec 'w:-6:x': 'x' is not an integer",
            ),
            (
                "kind = simulation\nscenario = parallel_trends\n\n"
                "[analysis mc2]\nkind = simulation",
                "unknown section [analysis mc2]",
            ),
            (
                "kind = simulation\nscenario = parallel_trends\n\n"
                "[analysis:]\nkind = simulation",
                "analysis section needs a name: [analysis:NAME]",
            ),
            # two analyses whose names strip to one would write one set of
            # artifacts
            (
                "kind = simulation\nscenario = parallel_trends\n\n"
                "[analysis: mc]\nkind = simulation\n"
                "scenario = parallel_trends\ntau = 5",
                "analysis name 'mc' is repeated: [analysis:mc] and "
                "[analysis: mc]",
            ),
            # a key that the kind does not read, though [DEFAULT] sets it
            # for another kind that does
            (
                "kind = fd\ny = y\nx = x\ncovariates = zz\n\n"
                "[DEFAULT]\ncovariates = w",
                "analysis 'typo': unknown option 'covariates'",
            ),
        ],
    )
    def test_config_errors_precede_any_work(
        self, tmp_path, capsys, analysis, message
    ):
        # every row but the one about a missing input names an input that
        # does not exist: the checks precede the panel load too
        source = ""
        if "needs an input panel" not in message:
            source = f"input = {tmp_path / 'missing.csv'}\n"
        body = f"""
[run]
{source}output_dir = {tmp_path / "o"}

[schema]
unit = state
time = year

[analysis:mc]
kind = simulation
scenario = parallel_trends
replications = 2

[analysis:typo]
{analysis}
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "body",
        [
            "[run]\noutput_dir = {out}\n\n[analysis:mc]\nkind = simulation\n"
            "scenario = parallel_trends\n\n[analysis:mc]\nkind = simulation\n",
            "[run]\noutput_dir = {out}\noutput_dir = {out}\n\n"
            "[analysis:mc]\nkind = simulation\nscenario = parallel_trends\n",
            "output_dir = {out}\n\n[run]\n\n[analysis:mc]\n"
            "kind = simulation\nscenario = parallel_trends\n",
        ],
        ids=["repeated-section", "repeated-key", "no-section-header"],
    )
    def test_malformed_ini_is_a_config_error(self, tmp_path, capsys, body):
        cfg = write_config(tmp_path, body.format(out=tmp_path / "o"))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: malformed config: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_no_section_header_is_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "output_dir = o\n[run]\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: malformed config: no section header before line 1\n"
        )

    @pytest.mark.parametrize(
        "run, schema, message",
        [
            ("output_dri = o2", "", "[run]: unknown option 'output_dri'"),
            ("sed = 5", "", "[run]: unknown option 'sed'"),
            ("", "clusters = region", "[schema]: unknown option 'clusters'"),
            ("seed = -1", "", "option 'seed' must be non-negative, got -1"),
            # a key that [run] does not read, though [DEFAULT] sets it for
            # an analysis that does
            (
                "covariates = zz\n\n[DEFAULT]\ncovariates = w",
                "",
                "[run]: unknown option 'covariates'",
            ),
        ],
    )
    def test_run_and_schema_errors_precede_any_work(
        self, tmp_path, capsys, run, schema, message
    ):
        body = f"""
[run]
input = {tmp_path / 'missing.csv'}
output_dir = {tmp_path / "o"}
{run}

[schema]
unit = state
time = year
{schema}

[analysis:mc]
kind = simulation
scenario = parallel_trends
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "default, message",
        [
            ("sed = 5", "[DEFAULT]: unknown option 'sed'"),
            # read by other kinds and by a section the config lacks
            ("y = y", "[DEFAULT]: unknown option 'y'"),
            ("unit = state", "[DEFAULT]: unknown option 'unit'"),
        ],
    )
    def test_unread_default_key_precedes_any_work(
        self, tmp_path, capsys, default, message
    ):
        body = f"""
[DEFAULT]
{default}

[run]
output_dir = {tmp_path / "o"}

[analysis:mc]
kind = simulation
scenario = parallel_trends
replications = 2
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "analysis, message",
        [
            ("kind = twfe\nx = x", "missing required option 'y'"),
            (
                "kind = gap_restricted\ny = y\nx = x",
                "missing required option 'k_min'",
            ),
            (
                "kind = generalized\ny = y\nx = x\npretrend = w:-6",
                "pretrend spec 'w:-6' must look like "
                "'variable:start_offset:end_offset[:min_points]'",
            ),
            (
                "kind = simulation\nscenario = parallel_trends\n"
                "replications = 0",
                "'replications' must be at least 1",
            ),
        ],
    )
    def test_bad_option_is_reported(
        self, tmp_path, panel_csv, capsys, analysis, message
    ):
        body = BASE.format(input=panel_csv, outdir=tmp_path / "o")
        cfg = write_config(tmp_path, body + f"\n[analysis:a]\n{analysis}\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_input_needs_schema(self, tmp_path, panel_csv, capsys):
        body = f"""
[run]
input = {panel_csv}
output_dir = {tmp_path / "o"}

[analysis:plain]
kind = twfe
y = y
x = x
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "an input panel needs a [schema] section" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    def test_unknown_kind_precedes_panel_load(self, tmp_path, capsys):
        body = BASE.format(
            input=tmp_path / "missing.csv", outdir=tmp_path / "o"
        ) + "\n[analysis:bad]\nkind = anova\n"
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "analysis 'bad': unknown kind 'anova'" in capsys.readouterr().err

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

    def test_fd_gap_out_of_range(self, tmp_path, panel, panel_csv, capsys):
        body = BASE.format(input=panel_csv, outdir=tmp_path / "o") + f"""
[analysis:far]
kind = fd
y = y
x = x
gap = {panel.n_periods}
"""
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error: gap must satisfy 1 <= k <=" in capsys.readouterr().err


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

    @pytest.mark.parametrize("panels", [0, -3])
    def test_no_panels_is_an_error(self, capsys, panels):
        with pytest.raises(ValueError, match="'panels' must be at least 1"):
            cli.selfcheck(panels=panels)
        assert main(["selfcheck", "--panels", str(panels)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'panels' must be at least 1, got {panels}" in captured.err

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["selfcheck", "--panels", "5",
                     "--tolerance", "1e-300"]) == 1
        assert "FAILED" in capsys.readouterr().out
