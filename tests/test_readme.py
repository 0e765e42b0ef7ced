"""The README's Python examples run as written."""

import os
import re

import numpy as np

from helpers import make_panel, write_panel_csv

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _write_state_panel(path, rng, years):
    """A state x year CSV with the columns the library tour reads."""
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
            "log_population": np.cumsum(rng.normal(size=(n, t)), axis=1),
        },
        first_period=years[0],
    )
    write_panel_csv(path, panel, unit_col="state", time_col="year")


def test_python_blocks_run(tmp_path, monkeypatch):
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    rng = np.random.default_rng(5)
    # the pre-trend window of the first pair reaches 12 years back
    _write_state_panel(tmp_path / "panel.csv", rng, range(1990, 2006))
    _write_state_panel(tmp_path / "pre.csv", rng, range(1978, 1990))
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks use the earlier blocks' imports
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
