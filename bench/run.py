"""Benchmark of the chermnykh CLI: four workloads run in process through
``chermnykh.cli.main``, their outputs checked against the benchmark's own
model, end-to-end metrics by default and per-layer metrics with
``--trace 1``.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports the program from the
checkout's ``src/`` and writes scratch files under ``.bench_run/`` at the
checkout's root, which it removes again.  The last line of its standard
output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Each measurement runs in a fresh worker process (``worker.py``), so that
peak memory belongs to the workload.  Set-up time is the median over
eleven processes (ten launched for it alone, plus the measuring one), each
timed from its launch to the end of ``from chermnykh import cli``; the
benchmark's own input generation comes after it.  One more process,
launched first and not counted, compiles the bytecode a fresh checkout
lacks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_SAMPLES = 11  # the first only warms up
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "call_p50_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkerError(Exception):
    pass


def _launch(workdir: str, tag: str, args: list[str], timeout: float) -> dict:
    result = os.path.join(workdir, f"{tag}.json")
    launch_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, WORKER, *args, "--launch-ns", str(launch_ns), "--result", result],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: int, trace: int, workdir: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES):
            s = _launch(workdir, f"setup{i}", [*base, "--setup-only"], deadline - time.monotonic())
            if i:
                setups.append(s["setup_s"])
    res = _launch(workdir, "run", [*base, "--seconds", str(seconds), "--trace", str(trace)],
                  deadline - time.monotonic())
    setups.append(res["setup_s"])

    for line in res["problems"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in res["unexpected_failures"][:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
    else:
        values = {"setup_s": statistics.median(setups), "call_p50_ms": res["call_p50_ms"],
                  "work_per_s": res["work_per_s"], "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chermnykh", "cli.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'chermnykh')} is missing",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
