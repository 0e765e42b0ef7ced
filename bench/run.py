"""twfekit benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cli-county --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

``cli-county``        ``twfekit run`` on a generated 3000 x 29 county CSV with
                      a config using every analysis kind;
``covariate-adjust``  two ``generalized_twfe`` calls on a 1000 x 60 panel with
                      a 12-period presample;
``montecarlo``        a closed loop of 200 simulation replications, each
                      audited and decomposed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The line
before it records the environment and sample counts.  ``--smoke`` shrinks
every input so that a run takes seconds.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; children inherit the setting.
THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

WORKLOADS = ("cli-county", "covariate-adjust", "montecarlo")
SETUP_PROBES = 9  # fresh processes timed for setup_s
CHILD_TIMEOUT = 170.0  # seconds; a run must end within 180
REPORTED_ERRORS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "rep_ms_p50": "ms",
    "rep_ms_p95": "ms",
}


class Run:
    """Samples gathered by one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.deadline = time.monotonic() + CHILD_TIMEOUT
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
        # Timings are in seconds scaled to the reference host speed; the raw
        # pass walls and set-up times go to ``info``.
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        # Repetition latencies: every replication for montecarlo, the pass
        # walls otherwise.
        self.reps: list[float] = []
        self.rss_mb: list[float] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.host_speed: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.layer: dict[str, float] = {}
        self.info: dict = {}
        self.reference_se: dict[str, float] = {}

    # -- bookkeeping -------------------------------------------------------

    def record(self, op_errors: list[str]) -> None:
        self.attempted += 1
        if op_errors:
            self.errors.append("; ".join(op_errors))

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left

    def worker_args(self, role: str, *extra: str) -> list[str]:
        args = [sys.executable, WORKER, role, "--workload", self.workload, "--seed", str(self.seed)]
        if self.smoke:
            args.append("--smoke")
        return args + list(extra)

    def spawn(self, args: list[str]) -> tuple[float, int, float]:
        """Run a child to completion; return (wall seconds, exit code, peak RSS MB)."""
        start = time.perf_counter()
        child = subprocess.Popen(args, cwd=self.work, env=child_env(), stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(self.remaining(), child.kill)
        watchdog.start()
        status = None
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
            if status is None:
                child.kill()
                child.wait()
        wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so that it never waits again.
        child.returncode = os.waitstatus_to_exitcode(status)
        return wall, child.returncode, usage.ru_maxrss / 1024

    def worker(self, role: str, *extra: str) -> tuple[dict, float]:
        """Run a worker role; return its JSON result and its peak RSS in MB."""
        result = os.path.join(self.work, f"{role}.json")
        _, code, rss_mb = self.spawn(self.worker_args(role, "--result", result, *extra))
        if code != 0:
            raise RuntimeError(f"worker role '{role}' exited with code {code}")
        with open(result) as handle:
            return json.load(handle), rss_mb

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                self.worker_args("setup"),
                cwd=self.work,
                env=child_env(),
                stdout=subprocess.PIPE,
                check=True,
                timeout=self.remaining(),
            )
            probe = json.loads(out.stdout)
            self.raw_setups.append(probe["setup_s"])
            self.setups.append(probe["setup_s"] * hostspeed.REFERENCE_S / probe["kernel_s"])

    # -- cli-county ------------------------------------------------------

    def county_inputs(self) -> str:
        sizes = inputs.SMOKE if self.smoke else inputs.FULL
        csv_path = os.path.join(self.work, "county.csv")
        inputs.county_csv(csv_path, self.seed, sizes)
        config = os.path.join(self.work, "analysis.ini")
        with open(config, "w") as handle:
            handle.write(inputs.county_config(csv_path, "out", self.seed, sizes))
        self.reference_se = workloads.county_reference_se(inputs.county_arrays(self.seed, sizes))
        return config

    def county_pass(self, config: str, traced: bool) -> tuple[workloads.Operation, int]:
        """One ``twfekit run`` in a fresh worker; returns its timing and the
        bytes it wrote."""
        outdir = os.path.join(self.work, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        result = os.path.join(self.work, "cli.json")
        args = self.worker_args("cli", "--config", config, "--output-dir", outdir, "--result", result)
        if traced:
            args.append("--traced")
        wall, code, rss_mb = self.spawn(args)
        op = workloads.Operation(wall, [] if code == 0 else [f"exit code {code}"], wall)
        size = 0
        if code == 0:
            with open(result) as handle:
                out = json.load(handle)
            op.seconds = out["seconds"]
            op.scaled = out.get("scaled", op.seconds)
            op.errors += workloads.check_county_artifacts(outdir, self.reference_se)
            digest, size = workloads.artifact_digest(outdir)
            # Every pass, traced or not, must write the first pass's bytes.
            reference = self.info.setdefault("artifacts_sha256", digest)
            if digest != reference:
                op.errors.append(f"artifacts {digest} differ from the first pass's {reference}")
            if traced:
                self.layer = out["metrics"]
        if not traced:
            self.rss_mb.append(rss_mb)
        self.record(op.errors)
        return op, size

    def cli_county(self, trace: bool) -> None:
        config = self.county_inputs()
        self.info["input_bytes"] = os.path.getsize(os.path.join(self.work, "county.csv"))
        if not trace:
            start = time.perf_counter()
            while workloads.more_passes(
                self.raw_walls, time.perf_counter() - start, self.seconds, workloads.MIN_PASSES
            ):
                op, _ = self.county_pass(config, traced=False)
                self.walls.append(op.scaled)
                self.raw_walls.append(op.seconds)
                self.host_speed.append(op.scaled / op.seconds)
            self.reps = list(self.walls)
            return
        plain, traced = [], []
        start = time.perf_counter()
        while workloads.more_passes(
            [a + b for a, b in zip(plain, traced)], time.perf_counter() - start, self.seconds, 1
        ):
            plain.append(self.county_pass(config, traced=False)[0].seconds)
            op, size = self.county_pass(config, traced=True)
            traced.append(op.seconds)
        self.layer["cli.bytes_written"] = float(size)
        self.layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        self.info["traced_passes"] = len(traced)

    # -- library workloads -----------------------------------------------

    def library(self, trace: bool) -> None:
        seconds = str(self.seconds)
        if not trace:
            out, rss_mb = self.worker("measure", "--seconds", seconds)
            for p in out["passes"]:
                self.walls.append(p["wall"])
                self.raw_walls.append(p["raw_wall"])
                self.host_speed.append(p["wall"] / p["raw_wall"])
                for _, _, op_errors in p["ops"]:
                    self.record(op_errors)
            if self.workload == "montecarlo":
                self.reps = [op[1] for p in out["passes"] for op in p["ops"]]
            else:
                self.reps = list(self.walls)
            self.rss_mb.append(rss_mb)
            return
        out, _ = self.worker("traced", "--seconds", seconds)
        for _, _, op_errors in out["ops"]:
            self.record(op_errors)
        self.layer = out["metrics"]
        self.info["traced_passes"] = len(out["traced_walls"])

    # -- result ------------------------------------------------------------

    def execute(self, trace: bool) -> None:
        os.makedirs(self.work)
        try:
            if not trace:
                self.probe_setup()
            if self.workload == "cli-county":
                self.cli_county(trace)
            else:
                self.library(trace)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.work))
            except OSError:
                pass  # another run still uses it

    def end_to_end(self) -> dict[str, float]:
        def rep_ms(q: float) -> float:
            return float(np.percentile(self.reps, q)) * 1000.0

        return {
            "wall_s": statistics.median(self.walls),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(self.rss_mb),
            "ok_ratio": (self.attempted - len(self.errors)) / self.attempted,
            "rep_ms_p50": rep_ms(50),
            "rep_ms_p95": rep_ms(95),
        }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(run: Run, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "twfekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(trace),
        "smoke": run.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "passes": len(run.walls),
        "pass_walls_s": run.walls,
        "raw_pass_walls_s": run.raw_walls,
        "rep_samples": len(run.reps),
        "setup_probes": len(run.setups),
        "raw_setup_s": statistics.median(run.raw_setups) if run.raw_setups else None,
        "host_speed": run.host_speed,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "failed_ratio": len(run.errors) / run.attempted,
        "errors": run.errors[:REPORTED_ERRORS],
        **run.info,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="twfekit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twfekit", "__init__.py")):
        print(f"error: no twfekit sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    run = Run(args.workload, args.seed, args.seconds, args.smoke)
    run.execute(trace)
    if trace:
        units = tracer.metric_units()
        values = run.layer
    else:
        units = END_TO_END_UNITS
        values = run.end_to_end()
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"info": environment(run, trace)}))
    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": len(run.errors),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
