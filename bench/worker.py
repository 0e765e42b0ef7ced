"""Benchmark worker process; ``run.py`` starts it, one role per process.

Roles:

``setup``    time a fresh process's set-up (import plus the workload's
             ``BalancedPanel`` objects), then the calibration kernel in the
             same process, and print both;
``measure``  untraced passes of a library workload for ``--seconds``;
``traced``   alternate untraced and traced passes of a library workload;
``cli``      one in-process ``twfekit.cli.main`` invocation, calibrated from
             inside it, or traced with ``--traced``.

Each role writes one JSON object to ``--result`` (or stdout for ``setup``).
Only the standard library is imported before twfekit, so the import time
includes numpy, as it does for a user.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Seconds of calibration kernel a set-up probe runs after its set-up.
SETUP_SAMPLE_S = 0.1


def import_twfekit(workload: str):
    """Import twfekit from this checkout's ``src/``; return (module, seconds)."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import twfekit

    if workload == "cli-county":
        import twfekit.cli  # noqa: F401  (the console entry point's import)
    seconds = time.perf_counter() - start
    origin = os.path.realpath(twfekit.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: twfekit imported from {origin}, not from {SRC}")
    return twfekit, seconds


def _library(args):
    tk, import_s = import_twfekit(args.workload)
    import inputs
    import workloads

    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    workload = workloads.LIBRARY_WORKLOADS[args.workload](tk, args.seed, sizes)
    return workload, import_s + workload.build_seconds


def _ops_payload(ops) -> list:
    return [[op.seconds, op.scaled, op.errors] for op in ops]


def role_setup(args) -> None:
    if args.workload == "cli-county":
        _, seconds = import_twfekit(args.workload)
    else:
        _, seconds = _library(args)
    import hostspeed

    print(json.dumps({"setup_s": seconds, "kernel_s": hostspeed.sample(SETUP_SAMPLE_S)}))


def role_measure(args) -> dict:
    workload, _ = _library(args)
    import workloads

    passes = []
    start = time.perf_counter()
    while workloads.more_passes(
        [p["raw_wall"] for p in passes], time.perf_counter() - start, args.seconds, workloads.MIN_PASSES
    ):
        ops = workload.run_pass()
        passes.append(
            {
                "wall": sum(op.scaled for op in ops),
                "raw_wall": sum(op.seconds for op in ops),
                "ops": _ops_payload(ops),
            }
        )
    return {"passes": passes}


def role_traced(args) -> dict:
    workload, _ = _library(args)
    import tracer
    import workloads

    trace = tracer.Tracer()
    plain, traced, ops = [], [], []
    start = time.perf_counter()
    while workloads.more_passes(
        [a + b for a, b in zip(plain, traced)], time.perf_counter() - start, args.seconds, 1
    ):
        untraced_ops = workload.run_pass()
        plain.append(sum(op.seconds for op in untraced_ops))
        trace.request = len(traced)
        trace.install()
        try:
            traced_ops = workload.run_pass(calibrate=False)
        finally:
            trace.uninstall()
        traced.append(sum(op.seconds for op in traced_ops))
        ops.extend(untraced_ops + traced_ops)
    metrics = trace.metrics(len(traced))
    metrics["cli.bytes_written"] = 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {
        "plain_walls": plain,
        "traced_walls": traced,
        "ops": _ops_payload(ops),
        "metrics": metrics,
    }


def role_cli(args) -> dict:
    import hostspeed
    import tracer

    tk, _ = import_twfekit("cli-county")
    argv = ["run", "--config", args.config, "--output-dir", args.output_dir]
    if not args.traced:
        with hostspeed.Interleaved() as clock:
            rc = tk.cli.main(argv)
        if rc != 0:
            sys.exit(rc)
        return {"seconds": clock.seconds, "scaled": clock.scaled}
    trace = tracer.Tracer()
    trace.install()
    start = time.perf_counter()
    try:
        rc = tk.cli.main(argv)
    finally:
        seconds = time.perf_counter() - start
        trace.uninstall()
    if rc != 0:
        sys.exit(rc)
    return {"seconds": seconds, "metrics": trace.metrics(1)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "traced", "cli"))
    parser.add_argument("--workload", default="cli-county")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--output-dir")
    parser.add_argument("--result")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    if args.role == "setup":
        role_setup(args)
        return
    roles = {"measure": role_measure, "traced": role_traced, "cli": role_cli}
    payload = roles[args.role](args)
    with open(args.result, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main()
