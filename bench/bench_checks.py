"""The benchmark's own tests.  They use smoke-size inputs and take seconds.

Run from the root of the checkout::

    python3 -m pytest -q bench/bench_checks.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import hostspeed
import inputs
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio", "rep_ms_p50", "rep_ms_p95")
WORKLOADS = ("cli-county", "covariate-adjust", "montecarlo")


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_generators_repeat_for_a_seed(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (7, 7, 8)):
        inputs.county_csv(path, seed, inputs.SMOKE)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert "np." not in paths[0].read_text()
    a = inputs.covariate_arrays(7, inputs.SMOKE)
    b = inputs.covariate_arrays(7, inputs.SMOKE)
    for name in a.panel:
        assert (a.panel[name] == b.panel[name]).all()


def test_config_has_no_inline_comments():
    text = inputs.county_config("in.csv", "out", 0, inputs.FULL)
    assert ";" not in text and "#" not in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_is_correct(workload):
    line = result_line(bench(workload, 0))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    assert tuple(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    line = result_line(bench(workload, 1))
    assert line["correct"] and line["failed"] == 0
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert list(metrics) == list(tracer.metric_units())
    cli_calls = metrics["cli.run.calls"]
    assert cli_calls == (1 if workload == "cli-county" else 0)
    assert (metrics["cli.bytes_written"] > 0) == (workload == "cli-county")
    if workload == "montecarlo":
        assert metrics["inference.cluster_robust_se.calls"] == 0
        assert metrics["diagnostics.theorem2_audit.calls"] == inputs.SMOKE.mc_reps
    if workload == "covariate-adjust":
        assert metrics["panel.load_panel.calls"] == 0
        assert metrics["numerics.dropped_columns"] > 0
        assert metrics["generalized.live_pair_ratio"] == 1.0


def test_traced_cli_writes_the_untraced_bytes(tmp_path):
    csv_path = tmp_path / "county.csv"
    inputs.county_csv(csv_path, 3, inputs.SMOKE)
    config = tmp_path / "analysis.ini"
    config.write_text(inputs.county_config(csv_path, "out", 3, inputs.SMOKE))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    subprocess.run(
        [sys.executable, "-c", "import sys; from twfekit.cli import main; sys.exit(main())",
         "run", "--config", str(config), "--output-dir", str(plain)],
        env=env, check=True, timeout=120,
    )
    result = tmp_path / "cli.json"
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "cli", "--config", str(config),
         "--output-dir", str(traced), "--result", str(result), "--traced"],
        env=env, check=True, timeout=120,
    )
    assert json.loads(result.read_text())["metrics"]["cli.run.calls"] == 1
    assert workloads.artifact_digest(str(plain)) == workloads.artifact_digest(str(traced))
    reference = workloads.county_reference_se(inputs.county_arrays(3, inputs.SMOKE))
    assert workloads.check_county_artifacts(str(plain), reference) == []


def test_tracer_restores_every_binding():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import twfekit
    import twfekit.cli

    before = (twfekit.twfe, twfekit.cli.twfe, twfekit.decomposition.twfe,
              twfekit.BalancedPanel.__post_init__)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert twfekit.cli.twfe is not before[1]
        assert twfekit.cli.twfe is twfekit.decomposition.twfe
    finally:
        trace.uninstall()
    after = (twfekit.twfe, twfekit.cli.twfe, twfekit.decomposition.twfe,
             twfekit.BalancedPanel.__post_init__)
    assert after == before


def test_tracer_hooks_skip_unknown_arguments():
    trace = tracer.Tracer()
    trace._count_stacked((object(),), {})
    trace._count_stacked((), {})
    trace._count_dropped(object())
    trace._count_pairs(None)
    assert sum(trace.counts.values()) == 0


def test_gauge_scales_every_operation_of_a_block_by_one_factor():
    gauge = hostspeed.Gauge()
    ops = [workloads.Operation(0.01 * (i + 1)) for i in range(3)]  # one block
    for op in ops:
        gauge.add(op)
    assert all(op.scaled == 0.0 for op in ops)
    first = gauge.samples[0]
    gauge.finish()
    factor = hostspeed.REFERENCE_S / statistics.fmean([first, gauge.samples[0]])
    assert all(op.scaled == pytest.approx(op.seconds * factor, rel=1e-12) for op in ops)


def test_interleaved_calibrates_inside_the_block():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Interleaved(every_s=0.05) as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.samples) >= 2
    assert 0.0 < clock.seconds < 0.3
    speed = hostspeed.REFERENCE_S / statistics.fmean(clock.samples)
    assert clock.scaled == pytest.approx(clock.seconds * speed, rel=1e-12)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-county", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
