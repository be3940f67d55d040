"""Tests of the benchmark itself: its checks pass on real output and reject
corrupted copies, a tiny run of every workload goes through end to end,
and the runner refuses to run without the program.

    python3 -m pytest bench
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from chermnykh import cli  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402


def _outputs(name: str, seed: int, tmp_path) -> list[tuple[workloads.Call, str]]:
    """Run the tiny form of a workload once; the calls with their output."""
    out = []
    for i, call in enumerate(workloads.build(name, seed, tiny=True).calls):
        path = os.path.join(tmp_path, f"{name}{i}.{call.ext}")
        assert cli.main([*call.argv, "--out", path]) == 0
        with open(path, encoding="utf-8") as fh:
            out.append((call, fh.read()))
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("out")
    return {name: _outputs(name, 1, tmp) for name in workloads.WORKLOADS}


def _verdict(name, call, text):
    return checks.CHECKS[name](call, text)


# ------------------------------------------------------------ real output

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_pass_on_real_output(outputs, name):
    for call, text in outputs[name]:
        v = _verdict(name, call, text)
        assert v.problems == []
        assert v.unexpected_failures == []
        assert v.work > 0


def test_sweep_fails_exactly_the_known_fault(outputs):
    """Every failed grid point is a mu = 1/2, M_b > 0 point of the fault
    slice, and every such point fails."""
    expected = 0
    for call, text in outputs["sweep"]:
        v = _verdict("sweep", call, text)
        if call.meta["fault"]:
            _, q1s, a2s, mbs = call.meta["axes"]
            expected += len(q1s) * len(a2s) * sum(mb > 0 for mb in mbs)
        assert v.unexpected_failures == []
        assert v.failed == (expected if call.meta["fault"] else 0)
    assert expected > 0


def test_a_second_seed_passes_and_differs(tmp_path, outputs):
    other = _outputs("orbits", 2, tmp_path)
    assert [c.argv for c, _ in other] != [c.argv for c, _ in outputs["orbits"]]
    for call, text in other:
        assert _verdict("orbits", call, text).problems == []


# -------------------------------------------------------- corrupted copies

def _edit_csv(text: str, edit) -> str:
    lines = text.splitlines()
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    edit(rows)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return lines[0] + "\n" + buf.getvalue()


def test_sweep_rejects_an_axis_root_moved(outputs):
    call, text = outputs["sweep"][-1]

    def move(rows):
        rows[0]["l1_x"] = repr(float(rows[0]["l1_x"]) + 1e-6)

    assert any("L1" in p for p in _verdict("sweep", call, _edit_csv(text, move)).problems)


def test_sweep_rejects_a_dropped_inner_pair(outputs):
    call, text = outputs["sweep"][-1]

    def drop(rows):
        row = next(r for r in rows if r["xb1_x"])
        row["xb1_x"] = row["xb2_x"] = ""
        row["n_axis_points"] = "3"

    assert any("changes sign 3 times" in p
               for p in _verdict("sweep", call, _edit_csv(text, drop)).problems)


def test_sweep_rejects_a_missing_triangular_point(outputs):
    call, text = outputs["sweep"][-1]

    def drop(rows):
        row = next(r for r in rows if float(r["mb"]) > 0.0 and r["omega1"])
        row["omega1"] = row["omega2"] = ""
        row["l4_classification"] = "no-triangular-point"

    assert any("oracle finds L4" in p
               for p in _verdict("sweep", call, _edit_csv(text, drop)).problems)


@pytest.mark.parametrize("kind", ["L4", "near-primary"])
def test_orbits_reject_a_velocity_scaled(outputs, kind):
    call, text = next((c, t) for c, t in outputs["orbits"] if c.meta["kind"] == kind)
    out = json.loads(text)
    mid = len(out["rows"]) // 2
    out["rows"][mid][3] *= 1.001
    out["rows"][mid][4] *= 1.001
    assert _verdict("orbits", call, json.dumps(out)).problems


def test_contours_reject_a_vertex_off_its_level(outputs):
    call, text = outputs["contours"][0]
    p, n = call.meta["params"], call.meta["grid"]
    h = (call.meta["bounds"][1] - call.meta["bounds"][0]) / (n - 1)
    rows = list(csv.DictReader(io.StringIO("\n".join(text.splitlines()[1:]))))
    slopes = [abs(oracle.gradient(p, float(r["x"]), float(r["y"]))[0]) for r in rows]
    i = int(np.argmax(slopes))

    def move(rows):
        rows[i]["x"] = repr(float(rows[i]["x"]) + 0.25 * h)

    assert any("off the level" in p for p in _verdict("contours", call, _edit_csv(text, move)).problems)


def test_contours_reject_a_polyline_dropped(outputs):
    call, text = outputs["contours"][0]
    assert text.count("\n0,") and text.count("\n1,")

    def drop(rows):
        rows[:] = [r for r in rows if r["polyline"] != "0"]

    assert any("distinct vertices" in p
               for p in _verdict("contours", call, _edit_csv(text, drop)).problems)


def test_contours_reject_a_vertex_dropped(outputs):
    call, text = outputs["contours"][0]

    def drop(rows):
        del rows[len(rows) // 2]

    assert any("distinct vertices" in p
               for p in _verdict("contours", call, _edit_csv(text, drop)).problems)


@pytest.mark.parametrize("table, column", [("table1", "omega1_computed"), ("table2", "mu_computed")])
def test_tables_reject_a_cell_moved(outputs, table, column):
    call, text = next((c, t) for c, t in outputs["tables"] if c.meta["table"] == table)

    def move(rows):
        row = next(r for r in rows if float(r["a2"]) == 0.0 and float(r["mb"]) == 0.0)
        row[column] = repr(float(row[column]) + 1e-6)

    assert _verdict("tables", call, _edit_csv(text, move)).problems


def test_tables_count_only_computed_cells(outputs):
    """table1 leaves its nine q1 = 0, M_b > 0 cells at nan and table2 its
    one fault cell; neither counts as work."""
    work = {c.meta["table"]: _verdict("tables", c, t).work for c, t in outputs["tables"]}
    assert work == {"table1": 60 - 9, "table2": 120 - 1}


@pytest.mark.parametrize("table, columns, select", [
    ("table1", ("omega1_computed", "omega2_computed"), lambda r: float(r["q1"]) == 0.5),
    ("table1", ("omega1_computed", "omega2_computed"),
     lambda r: float(r["q1"]) == 1.0 and float(r["a2"]) == 0.0 and float(r["mb"]) == 0.0),
    ("table2", ("mu_computed",), lambda r: float(r["mb"]) == 0.4),
    ("table2", ("mu_computed",), lambda r: float(r["a2"]) == 0.0 and float(r["mb"]) == 0.0),
])
def test_tables_reject_a_cell_blanked(outputs, table, columns, select):
    """A computed cell set to nan with the program's series-only note is a
    problem; only the named cells may be nan."""
    call, text = next((c, t) for c, t in outputs["tables"] if c.meta["table"] == table)

    def blank(rows):
        row = next(r for r in rows if select(r))
        for col in columns:
            row[col] = "nan"
        row["note"] = "no off-axis equilibrium at these parameters (series-only cell)"

    assert _verdict("tables", call, _edit_csv(text, blank)).problems


def test_an_unexpected_failure_makes_the_run_incorrect():
    run = {"rounds": 1, "untraced_ms": [[1.0]], "traced_ms": [], "mismatches": [],
           "peak_rss_mb": 1.0}
    verdict = checks.Verdict(ops=1, failed=1, unexpected_failures=["integrate exited 1"])
    assert not worker.summarize(run, [verdict])["correct"]
    assert worker.summarize(run, [checks.Verdict(ops=1, work=1.0)])["correct"]


# ------------------------------------------------------------ whole runs

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_with_trace(tmp_path, name):
    """One untraced and one traced round of the tiny workload, checked and
    summarised; the trace's counts repeat on a second run."""
    wl = workloads.build(name, 3, tiny=True)
    counts = []
    for attempt in range(2):
        tracer = Tracer()
        run = worker.run_rounds(cli.main, wl, 0.0, str(tmp_path), tracer)
        assert run["rounds"] == 2 and run["mismatches"] == []
        res = worker.summarize(run, worker.check_round(wl, run["exit_codes"], run["first_paths"]), tracer)
        assert res["correct"], res["problems"]
        assert res["attempted"] > 0 and res["work_per_s"] > 0 and res["call_p50_ms"] > 0
        layers = res["layers"]
        assert set(layers) == {m for m, _ in LAYER_METRICS} | {"trace.overhead_ms", "trace.overhead_pct"}
        counts.append({m: layers[m][0] for m, unit in LAYER_METRICS if unit in ("count", "bytes")})
    assert counts[0] == counts[1]
    busy = {"sweep": "equilibria.scan_samples", "tables": "equilibria.newton_calls",
            "orbits": "dynamics.steps_accepted", "contours": "dynamics.vertices"}[name]
    assert counts[0][busy] > 0


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
