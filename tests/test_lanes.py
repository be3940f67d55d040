"""The lane-batched axis scan, its lockstep Brent polish and the sweep
built on them, held bit for bit to the per-point forms they replaced
(legacy_scan.point_*)."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chermnykh import cli, equilibria
from chermnykh.equilibria import (
    LANE_BLOCK,
    CollinearScan,
    _lane_roots,
    brent,
    brent_lanes,
    find_all,
    scan_collinear,
)
from chermnykh.errors import DomainError
from chermnykh.model import SystemParams, kernel

from legacy_scan import (
    point_axis_roots,
    point_scan_collinear,
    point_sweep_point,
    point_sweep_tasks,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# The documented box, mu = 1/2 included and T log-uniform down to 1e-90.
box_task = st.tuples(
    st.floats(0.0, 0.5, exclude_min=True) | st.just(0.5),
    st.floats(-0.5, 1.0),
    st.floats(0.0, 0.1),
    st.floats(0.0, 1.5),
    st.floats(-90.0, math.log10(0.5)).map(lambda e: 10.0**e),
)
# No belt, with any T, T = 0 included (the knee and origin cuts then meet
# at -0.0 and 0.0): its lane carries neutral belt values.
belt_free_task = st.tuples(
    st.floats(0.0, 0.5, exclude_min=True) | st.just(0.5),
    st.floats(-0.5, 1.0) | st.just(1.0),
    st.floats(0.0, 0.1),
    st.just(0.0),
    st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0**e) | st.just(0.0),
)
# A belt thinner than THIN_BELT, which the scan refuses.
thin_belt_task = st.tuples(
    st.floats(0.01, 0.5),
    st.floats(0.1, 1.0),
    st.just(0.0),
    st.floats(0.1, 1.5),
    st.floats(-300.0, -100.5).map(lambda e: 10.0**e),
)
# Parameters SystemParams refuses.
invalid_task = st.sampled_from([
    (0.0, 1.0, 0.0, 0.0, 0.01),
    (0.6, 1.0, 0.0, 0.0, 0.01),
    (0.1, 1.5, 0.0, 0.0, 0.01),
    (0.1, 1.0, -0.1, 0.0, 0.01),
    (0.1, 1.0, 0.0, -0.2, 0.01),
    (0.1, 1.0, 0.0, 0.2, math.nan),
])
lane_batch = st.lists(
    st.one_of(box_task, box_task, box_task, belt_free_task, thin_belt_task, invalid_task),
    min_size=1,
    max_size=12,
)


def _bits(v):
    """v with every float replaced by its hex form, so that == compares
    bit patterns (and tells -0.0 from 0.0)."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return type(v)(_bits(x) for x in v)
    if isinstance(v, CollinearScan):
        return _bits((v.intervals, v.samples, v.brackets))
    return v


def _lane_scan(scan, k):
    """Lane k's pieces, samples and brackets from the record of a scan of lanes."""
    piece, bracket = scan.lane == k, scan.bracket_lane == k
    return CollinearScan(
        intervals=tuple(zip(scan.a[piece].tolist(), scan.b[piece].tolist())),
        samples=tuple(scan.samples[piece].tolist()),
        brackets=tuple(zip(scan.lo[bracket].tolist(), scan.hi[bracket].tolist())),
    )


def _params(tasks):
    """SystemParams of the valid tasks, or the error refusing each."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q1 <= 0 warns
        for mu, q1, a2, mb, t in tasks:
            try:
                out.append(SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=t))
            except DomainError as exc:
                out.append(exc)
    return out


@settings(max_examples=60)
@given(lane_batch)
def test_lanes_scan_and_polish_like_one_point_at_a_time(tasks):
    ps = [p for p in _params(tasks) if isinstance(p, SystemParams)]
    scan = scan_collinear(ps)
    roots = _lane_roots(scan, len(ps))
    for k, p in enumerate(ps):
        try:
            ref, ref_roots = point_scan_collinear(p), point_axis_roots(p)
        except DomainError as exc:
            assert str(scan.failed[k]) == str(roots[k]) == str(exc)
            continue
        assert k not in scan.failed
        # the tiling is the scan's own, the same whatever the block; the
        # brackets and roots are the per-point scan's, bit for bit
        assert _bits(_lane_scan(scan, k)) == _bits(scan_collinear(p))
        assert _bits(scan_collinear(p).brackets) == _bits(ref.brackets)
        assert _bits(roots[k]) == _bits(ref_roots)


@settings(max_examples=30)
@given(lane_batch)
def test_lane_brent_is_scalar_brent_on_every_bracket(tasks):
    ps = [p for p in _params(tasks) if isinstance(p, SystemParams)]
    scan = scan_collinear(ps)

    def f(k, x):
        return kernel(scan.params.at(scan.bracket_lane[k]), x, 0.0, 1)[0]

    k = np.arange(scan.lo.size)
    fa, fb = f(k, scan.lo), f(k, scan.hi)
    got = brent_lanes(f, scan.lo, scan.hi, fa, fb)
    for i, (lane, lo, hi) in enumerate(zip(scan.bracket_lane, scan.lo, scan.hi)):
        p = ps[lane]

        def g(x):
            return kernel(p, x, 0.0, 1)[0]

        assert got[i].hex() == brent(g, float(lo), float(hi), g(float(lo)), g(float(hi))).hex()


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 4.0), st.floats(0.0, 4.0) | st.just(0.0)),
        min_size=1,
        max_size=8,
    )
)
def test_lane_brent_is_scalar_brent_off_the_kernel(cases):
    # the single root r of y (y^2 + c), y = x - r, on brackets of every
    # shape: c = 0 makes it a flat triple root, which drives Brent's
    # bisection steps
    r, width, c = (np.array(v) for v in zip(*cases))
    lo, hi = r - width, r + 0.5

    def f(k, x):
        y = x - r[k]
        return y * (y * y + c[k])

    k = np.arange(r.size)
    got = brent_lanes(f, lo, hi, f(k, lo), f(k, hi))
    for i in range(r.size):

        def g(x):
            return float(f(i, x))

        assert got[i].hex() == brent(g, float(lo[i]), float(hi[i]), g(lo[i]), g(hi[i])).hex()


@settings(max_examples=25)
@given(lane_batch)
def test_sweep_rows_like_one_point_at_a_time(tasks):
    tasks = [(*t, 0.8) for t in tasks]
    assert _bits(cli._sweep_rows(tasks)) == _bits([point_sweep_point(t) for t in tasks])


def _bench_invocations(seed, *workloads):
    """The argvs of a benchmark round, of the named workloads or of all."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "workloads.py"), "--seed", str(seed),
         *(arg for w in workloads for arg in ("--workload", w))],
        capture_output=True, text=True, check=True,
    ).stdout
    return [line.split()[1:] for line in out.splitlines()]


def test_every_benchmark_invocation_parses():
    # a flag scoped away from its subcommand would fail every benchmark run
    for seed in (2, 4):
        argvs = _bench_invocations(seed)
        assert {argv[0] for argv in argvs} == {"sweep", "tables", "integrate", "zvc"}
        for argv in argvs:
            assert cli.config_from_argv(argv).command == argv[0]


def test_sweep_csv_bytes_of_the_benchmark_invocations(tmp_path):
    path = tmp_path / "sweep.csv"
    for seed in (2, 4):
        for argv in _bench_invocations(seed, "sweep"):
            assert cli.main([*argv, "--out", str(path)]) == cli.EXIT_OK
            rows = [point_sweep_point(t) for t in point_sweep_tasks(cli.config_from_argv(argv))]
            assert path.read_text(encoding="utf-8") == cli.emit_csv(cli._SWEEP_COLUMNS, rows)


def test_sweep_runs_in_blocks_of_lane_block(monkeypatch):
    sizes = []
    real = cli._sweep_rows
    monkeypatch.setattr(cli, "_sweep_rows", lambda tasks: sizes.append(len(tasks)) or real(tasks))
    cfg = cli.config_from_argv(["sweep", "--sweep-mu", "0.01:0.3:0.01", "--sweep-mb", "0,0.3,0.6"])
    _, rows, meta, _ = cli._cmd_sweep(cfg)
    assert sizes == [LANE_BLOCK] * (90 // LANE_BLOCK) + [90 % LANE_BLOCK]
    assert meta["n_points"] == len(rows) == 90


def test_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, chermnykh.cli; "
         "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out.strip() == "[]"


def test_origin_root_at_t_zero_keeps_the_per_point_sign():
    # mu = 1/2 and q1 = 1 make f odd, so f(0) is exactly 0 where the knee
    # and origin cuts meet as the zero-width piece (-0.0, 0.0): the per-point
    # scan's root there is the sample -0.0, and the lanes keep it
    ps = [SystemParams(mu=0.5, t_belt=0.0), SystemParams(mu=0.5, t_belt=0.0, a2=0.05)]
    roots = _lane_roots(scan_collinear(ps), 2)
    assert [_bits(r) for r in roots] == [_bits(point_axis_roots(p)) for p in ps]
    assert _bits(roots[0][1]) == _bits(-0.0)


def test_a_sweep_scans_and_polishes_through_the_public_functions(monkeypatch):
    # an outside trace wraps scan_collinear and find_collinear: a sweep's
    # lanes must reach them, one call per block, with every lane's samples
    calls = {"scan": [], "find": 0}
    scan, find = equilibria.scan_collinear, equilibria.find_collinear

    def traced_scan(p):
        s = scan(p)
        calls["scan"].append(sum(s.samples))
        return s

    def traced_find(p):
        calls["find"] += 1
        return find(p)

    monkeypatch.setattr(equilibria, "scan_collinear", traced_scan)
    monkeypatch.setattr(equilibria, "find_collinear", traced_find)
    cfg = cli.config_from_argv(["sweep", "--sweep-mu", "0.01:0.3:0.01", "--sweep-mb", "0,0.6"])
    cli._cmd_sweep(cfg)
    assert calls["find"] == len(calls["scan"]) == 1
    total = sum(sum(scan_collinear(p).samples)
                for p in (SystemParams(*t) for t in point_sweep_tasks(cfg)))
    assert calls["scan"] == [total]


@settings(max_examples=25)
@given(lane_batch)
@example([(0.1, 1.0, 0.0, 0.0, 0.01), (0.2, -0.1, 0.0, 0.0, 0.01),
          (0.1, 1.0, 0.0, 0.3, 1e-120), (0.025, 0.9, 0.01, 0.6, 0.01)])
def test_find_all_on_lanes_is_find_all_per_lane(tasks):
    # bit for bit, residuals included: the lanes take theirs from one kernel call
    ps = [p for p in _params(tasks) if isinstance(p, SystemParams)]
    for p, got in zip(ps, find_all(ps)):
        try:
            want = find_all(p)
        except (DomainError, equilibria.NumericalError) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert _bits([astuple(e) for e in got]) == _bits([astuple(e) for e in want])


def test_find_all_solves_the_crossing_ends_once_per_q1_a2(monkeypatch):
    built = []
    real = equilibria._Crossings
    monkeypatch.setattr(equilibria, "_Crossings", lambda q1, a2: built.append((q1, a2)) or real(q1, a2))
    ps = [SystemParams(mu=mu, q1=q1, a2=a2, mb=mb)
          for mu in (0.01, 0.1, 0.3) for q1, a2 in ((1.0, 0.0), (0.8, 0.01)) for mb in (0.0, 0.2)]
    points = find_all(ps)
    assert sorted(built) == [(0.8, 0.01), (1.0, 0.0)]
    assert all(sum(e.is_triangular for e in lane) == 2 for lane in points)
