"""The benchmark's layer trace (bench/layers.py) wraps program functions by
name, so a change that unbinds one of them fails here, not in the benchmark."""

import importlib.util
from pathlib import Path

from chermnykh import cli, equilibria, model, stability

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(m.__name__, k): v for m in (cli, equilibria, model, stability)
            for k, v in vars(m).items() if callable(v)}


def test_the_trace_installs_counts_and_uninstalls(tmp_path, capsys):
    before = _bindings()
    tracer = _layers().Tracer()
    tracer.install()
    try:
        assert equilibria.scan_collinear is not before["chermnykh.equilibria", "scan_collinear"]
        assert cli.main(["sweep", "--sweep-mb", "0,0.2", "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["tables", "--table", "table1", "--out", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert tracer.calls["scan"] > 0 and tracer.calls["find_collinear"] > 0
    assert tracer.calls["cli.library"] > 0 and tracer.counts["scan_samples"] > 0
    metrics = tracer.metrics(1, 1.0)
    assert metrics["equilibria.scan_samples"] == (tracer.counts["scan_samples"], "count")
