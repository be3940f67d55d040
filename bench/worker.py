"""One workload in a process of its own: set-up, timed rounds, checks.

``run.py`` launches this script; it is not meant to be run by hand.  The
process imports the program from ``src/``, notes how long that took
from the moment its parent launched it, builds the workload's inputs, and
then (unless ``--setup-only``) calls ``chermnykh.cli.main`` in process on
every invocation of the round, round after round, until ``--seconds``
have passed.  Every call writes a fresh ``--out`` file.  After the last
round it checks the first round's outputs and requires every later round
to have written the same bytes.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def run_rounds(cli_main, workload, seconds: float, outdir: str, tracer=None) -> dict:
    """Repeat the workload's round until ``seconds`` have passed.  With a
    ``tracer`` every second round runs under it, so that traced and
    untraced rounds interleave and their gap is the tracing overhead."""
    first: dict[int, tuple[int, str | None]] = {}
    untraced_ms: list[list[float]] = []
    traced_ms: list[list[float]] = []
    mismatches: list[str] = []
    start = perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        times, codes, paths = [], [], []
        try:
            for i, call in enumerate(workload.calls):
                path = os.path.join(outdir, f"r{r}_c{i}.{call.ext}")
                argv = [*call.argv, "--out", path]
                gc.collect()
                t0 = perf_counter()
                rc = cli_main(argv)
                times.append((perf_counter() - t0) * 1e3)
                codes.append(rc)
                paths.append(path)
        finally:
            if traced:
                tracer.uninstall()
        (traced_ms if traced else untraced_ms).append(times)
        for i, (rc, path) in enumerate(zip(codes, paths)):
            seen = (rc, _digest(path))
            if r == 0:
                first[i] = seen
            else:
                if seen != first[i]:
                    mismatches.append(f"round {r} call {i} wrote other output than round 0")
                if os.path.exists(path):
                    os.remove(path)
        r += 1
        if perf_counter() - start >= seconds and (tracer is None or r % 2 == 0):
            break
    return {
        "rounds": r,
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "exit_codes": [first[i][0] for i in range(len(workload.calls))],
        "first_paths": [os.path.join(outdir, f"r0_c{i}.{c.ext}") for i, c in enumerate(workload.calls)],
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def check_round(workload, exit_codes, paths):
    """Verdicts on one round's outputs; a call that exited non-zero is a
    failed operation (every grid point of it, for a sweep)."""
    import checks

    verdicts = []
    for call, rc, path in zip(workload.calls, exit_codes, paths):
        if rc != 0:
            ops = 1
            if workload.name == "sweep":
                for axis in call.meta["axes"]:
                    ops *= len(axis)
            verdicts.append(checks.Verdict(ops=ops, failed=ops,
                                           unexpected_failures=[f"{call.argv[0]} exited {rc}"]))
            continue
        with open(path, encoding="utf-8") as fh:
            verdicts.append(checks.CHECKS[workload.name](call, fh.read()))
    return verdicts


def summarize(run: dict, verdicts, tracer=None) -> dict:
    rounds = run["rounds"]
    ops = sum(v.ops for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    work = sum(v.work for v in verdicts)
    problems = [p for v in verdicts for p in v.problems] + run["mismatches"]
    unexpected = [u for v in verdicts for u in v.unexpected_failures]
    result = {
        "correct": not problems and not unexpected,
        "attempted": ops * rounds,
        "failed": failed * rounds,
        "rounds": rounds,
        "problems": problems,
        "unexpected_failures": unexpected,
    }
    untraced = [t for rnd in run["untraced_ms"] for t in rnd]
    result["call_p50_ms"] = statistics.median(untraced)
    result["work_per_s"] = work * len(run["untraced_ms"]) / (sum(untraced) / 1e3)
    result["peak_rss_mb"] = run["peak_rss_mb"]
    if tracer is not None:
        traced_rounds = [sum(rnd) for rnd in run["traced_ms"]]
        untraced_rounds = [sum(rnd) for rnd in run["untraced_ms"]]
        layers = tracer.metrics(len(traced_rounds), sum(traced_rounds))
        over = statistics.fmean(traced_rounds) - statistics.fmean(untraced_rounds)
        layers["trace.overhead_ms"] = (over, "ms")
        layers["trace.overhead_pct"] = (100.0 * over / statistics.fmean(untraced_rounds), "%")
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before the launch")
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from chermnykh import cli

    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        import workloads

        workload = workloads.build(args.workload, args.seed)
        outdir = os.path.dirname(os.path.abspath(args.result))
        tracer = None
        if args.trace:
            from layers import Tracer
            tracer = Tracer()
        run = run_rounds(cli.main, workload, args.seconds, outdir, tracer)
        verdicts = check_round(workload, run["exit_codes"], run["first_paths"])
        result = summarize(run, verdicts, tracer)
        result["setup_s"] = setup_s
        for path in run["first_paths"]:
            if os.path.exists(path):
                os.remove(path)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
