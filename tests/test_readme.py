"""The README's Python and INI examples run as written."""

import os
import re

import numpy as np

from helpers import make_panel, write_panel_csv
from twfekit import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _write_state_panel(path, rng, years):
    """A state x year CSV with the columns the library tour and the INI
    example read."""
    n, t = 30, len(years)
    log_min_wage = np.cumsum(rng.normal(0.0, 0.05, (n, t)), axis=1)
    log_emp = (
        -0.1 * log_min_wage
        + rng.normal(size=(n, 1))
        + rng.normal(size=(1, t))
        + rng.normal(0.0, 0.1, (n, t))
    )
    panel = make_panel(
        {
            "log_emp": log_emp,
            "log_min_wage": log_min_wage,
            "region_code": np.repeat(np.arange(n)[:, None] % 4, t, axis=1),
            "region": np.repeat(np.arange(n)[:, None] % 6, t, axis=1),
            "log_population": np.cumsum(rng.normal(size=(n, t)), axis=1),
        },
        first_period=years[0],
    )
    write_panel_csv(path, panel, unit_col="state", time_col="year")


def _write_inputs(directory):
    """``panel.csv`` and ``pre.csv``, the inputs both examples name."""
    rng = np.random.default_rng(5)
    # the pre-trend window of the first pair reaches 12 years back
    _write_state_panel(directory / "panel.csv", rng, range(1990, 2006))
    _write_state_panel(directory / "pre.csv", rng, range(1978, 1990))


def test_python_blocks_run(tmp_path, monkeypatch):
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks use the earlier blocks' imports
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)


def test_ini_example_runs(tmp_path, monkeypatch):
    with open(README) as fh:
        (block,) = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    _write_inputs(tmp_path)
    (tmp_path / "analysis.ini").write_text(block)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", "analysis.ini"]) == 0
    assert sorted(os.listdir("out")) == [
        "bygap_components.csv",
        "bygap_estimate.csv",
        "bygap_estimate.json",
        "bygap_figure.csv",
        "bygap_summary_table.csv",
        "headline_estimate.csv",
        "headline_estimate.json",
        "mc_audit.csv",
        "mc_audit.json",
        "mc_replications.csv",
        "shortrun_components.csv",
        "shortrun_estimate.csv",
        "shortrun_estimate.json",
    ]
