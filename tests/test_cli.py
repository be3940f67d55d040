"""Command-line layer: parsing, precedence, output formats, exit codes,
table reproduction, and sweep determinism."""

import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh import cli
from chermnykh.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SWEEP_CELLS,
    RunConfig,
    UsageError,
    _parse_axis,
    _parse_orders,
    build_config,
    config_from_argv,
    emit_json,
    main,
    parse_config,
    reproduce_tables,
)
from chermnykh.errors import NoResonanceError

from conftest import CLASSICAL
from legacy_dp5 import legacy_jnum


def run_to_file(tmp_path, argv, name="out.txt"):
    """Invoke main with --out and return (exit_code, file text)."""
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


class TestValueParsing:
    def test_order_range(self):
        assert _parse_orders("1..5") == (1, 2, 3, 4, 5)
        assert _parse_orders("2") == (2,)
        assert _parse_orders("1,3,5") == (1, 3, 5)

    def test_order_errors(self):
        for bad in ("5..1", "a..b", "", "x"):
            with pytest.raises(UsageError):
                _parse_orders(bad)

    def test_axis_range_inclusive(self):
        assert _parse_axis("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_axis_list_sorted_deduplicated(self):
        assert _parse_axis("0.4,0.2,0.4") == (0.2, 0.4)

    def test_axis_errors(self):
        for bad in ("", "1:0:0.1", "0:1:0", "0:1", "a,b"):
            with pytest.raises(UsageError):
                _parse_axis(bad)

    @pytest.mark.parametrize("bad", ["0:inf:1", "-inf:0:1", "nan:1:0.1", "0:1:inf", "0:nan:1",
                                     "-1e308:1e308:1e300"])
    def test_axis_range_ends_and_step_must_be_finite(self, bad):
        with pytest.raises(UsageError, match="must have a finite start, stop, step and stop - start"):
            _parse_axis(bad)

    @pytest.mark.parametrize("bad", ["0:1e12:1", "0:1e308:1e-300", f"0:{MAX_SWEEP_CELLS}:1"])
    def test_axis_range_past_the_sweep_limit_is_refused_before_it_is_built(self, bad):
        with pytest.raises(UsageError, match=f"more than {MAX_SWEEP_CELLS} values"):
            _parse_axis(bad)

    def test_axis_range_at_the_sweep_limit_is_built(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_CELLS", 5)
        assert _parse_axis("1:5:1") == (1.0, 2.0, 3.0, 4.0, 5.0)
        with pytest.raises(UsageError, match="more than 5 values"):
            _parse_axis("1:6:1")


# Every option flag with a text and the value it parses to, each value
# other than its field's default.
_FLAG_VALUES = {
    "--mu": ("mu", "0.03", 0.03),
    "--q1": ("q1", "0.5", 0.5),
    "--a2": ("a2", "0.01", 0.01),
    "--mb": ("mb", "0.2", 0.2),
    "--t": ("t_belt", "0.02", 0.02),
    "--rc": ("rc", "0.9", 0.9),
    "--tol": ("tol", "1e-12", 1e-12),
    "--out": ("out", "x.csv", "x.csv"),
    "--format": ("format", "json", "json"),
    "--k": ("k_orders", "2", (2,)),
    "--C": ("c_level", "3.1", 3.1),
    "--grid": ("grid", "64", 64),
    "--xmin": ("xmin", "-1.5", -1.5),
    "--xmax": ("xmax", "1.5", 1.5),
    "--ymin": ("ymin", "-1.5", -1.5),
    "--ymax": ("ymax", "1.5", 1.5),
    "--x0": ("x0", "0.4", 0.4),
    "--y0": ("y0", "0.6", 0.6),
    "--vx0": ("vx0", "0.1", 0.1),
    "--vy0": ("vy0", "0.2", 0.2),
    "--tend": ("tend", "5", 5.0),
    "--table": ("table", "table2", "table2"),
    "--sweep-mu": ("sweep_mu", "0.1,0.2", (0.1, 0.2)),
    "--sweep-q1": ("sweep_q1", "0.5,1", (0.5, 1.0)),
    "--sweep-a2": ("sweep_a2", "0:0.02:0.01", (0.0, 0.01, 0.02)),
    "--sweep-mb": ("sweep_mb", "0.2,0.4", (0.2, 0.4)),
}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
# The flags each subcommand offers besides --config: the ones whose values
# it reads.  Critical masses solve for mu; tables fix their own grid.  With
# --config these are 74 flag/subcommand pairs.
_PARAMS = ("--q1", "--a2", "--mb", "--t", "--rc", "--out", "--format")
_FLAGS_OF = {
    "equilibria": ("--mu", *_PARAMS),
    "stability": ("--mu", *_PARAMS),
    "zvc": ("--mu", *_PARAMS, "--C", "--grid", "--xmin", "--xmax", "--ymin", "--ymax"),
    "mu-crit": (*_PARAMS, "--k"),
    "integrate": ("--mu", *_PARAMS, "--tol", "--x0", "--y0", "--vx0", "--vy0", "--tend"),
    "tables": ("--table", "--out", "--format"),
    "sweep": ("--mu", *_PARAMS, "--sweep-mu", "--sweep-q1", "--sweep-a2", "--sweep-mb"),
}
# The flag/subcommand pairs the parser accepted and then ignored.
_UNREAD_PAIRS = (
    *(("tables", flag) for flag in ("--mu", "--q1", "--a2", "--mb", "--t", "--rc", "--tol")),
    ("mu-crit", "--mu"), ("mu-crit", "--tol"),
    *((command, "--tol") for command in ("equilibria", "stability", "zvc", "sweep")),
)


class TestConfigHandling:
    @pytest.mark.parametrize("command", list(_FLAGS_OF))
    def test_each_subcommand_offers_exactly_the_flags_it_reads(self, command):
        assert {field for field, _, _ in _FLAG_VALUES.values()} == set(_DEFAULTS) - {"command"}
        base = [command] + (["--sweep-mb", "0"] if command == "sweep" else [])
        offered = []
        for flag, (field, text, value) in _FLAG_VALUES.items():
            try:
                cfg = config_from_argv([*base, flag, text])
            except UsageError:
                continue
            assert getattr(cfg, field) == value != _DEFAULTS[field]
            offered.append(flag)
        assert offered == [f for f in _FLAG_VALUES if f in _FLAGS_OF[command]]
        assert config_from_argv([*base, "--config", os.devnull]).command == command

    @pytest.mark.parametrize("command, flag", _UNREAD_PAIRS)
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, command, flag):
        argv = [command, flag, _FLAG_VALUES[flag][1]]
        assert main(argv + (["--sweep-mb", "0"] if command == "sweep" else [])) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["tables", "equilibria"])
    def test_config_keys_load_for_every_subcommand(self, tmp_path, command):
        # to_file_text writes every field, so a file may hold keys the
        # subcommand does not read
        conf = tmp_path / "run.conf"
        conf.write_text("mu = 0.03\ntol = 1e-9\n", encoding="utf-8")
        cfg = config_from_argv([command, "--config", str(conf)])
        assert (cfg.mu, cfg.tol) == (0.03, 1e-9)

    @pytest.mark.parametrize(
        "argv, message",
        [(["equilibria", "--format", "xml"], "unknown format 'xml'"),
         (["tables", "--table", "table9"], "unknown table 'table9'")],
    )
    def test_format_and_table_values_checked_by_the_config(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_defaults_are_the_reference_configuration(self):
        cfg = config_from_argv(["equilibria"])
        assert (cfg.mu, cfg.q1, cfg.a2, cfg.mb) == (0.025, 1.0, 0.0, 0.0)
        assert (cfg.t_belt, cfg.rc) == (0.01, 0.8)

    def test_flags_override_config_file_overrides_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# reference setup\nmu = 0.05\nq1 = 0.75\n", encoding="utf-8")
        cfg = config_from_argv(
            ["equilibria", "--config", str(conf), "--mu", "0.03"]
        )
        assert cfg.mu == 0.03  # flag wins
        assert cfg.q1 == 0.75  # config wins over default
        assert cfg.a2 == 0.0  # default

    def test_config_comments_and_blanks_ignored(self):
        values = parse_config("# c\n\nmu = 0.1\n  # another\nq1=0.5\n")
        assert values == {"mu": "0.1", "q1": "0.5"}

    def test_config_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown key"):
            parse_config("speed = 11\n")

    def test_samples_key_and_flag_are_gone(self, capsys):
        # the axis scan is certified and has no sampling density to set
        with pytest.raises(UsageError, match="unknown key 'samples'"):
            parse_config("mu = 0.1\nsamples = 20000\n")
        assert "samples" not in build_config("sweep", {"sweep_mb": "0,0.2"}).to_file_text()
        for command in ("equilibria", "stability", "sweep"):
            assert main([command, "--samples", "100"]) == EXIT_USAGE

    def test_jobs_key_and_flag_are_gone(self):
        # a sweep runs its points as lanes of one process; there is no pool
        with pytest.raises(UsageError, match="unknown key 'jobs'"):
            parse_config("mu = 0.1\njobs = 2\n")
        assert "jobs" not in build_config("sweep", {"sweep_mb": "0,0.2"}).to_file_text()
        assert main(["sweep", "--sweep-mb", "0,0.2", "--jobs", "2"]) == EXIT_USAGE

    def test_cached_parser_leaks_nothing_between_calls(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.conf"
        conf.write_text("mu = 0.05\ntol = 1e-9\n", encoding="utf-8")
        calls = [
            ["integrate", "--tol", "1e-12", "--x0", "0.4"],
            ["integrate"],  # --tol and --x0 of the call before must not stick
            ["equilibria", "--config", str(conf), "--mb", "0.2"],
            ["sweep", "--sweep-mb", "0,0.2", "--format", "json"],
            ["stability", "--bogus"],
            ["sweep", "--sweep-q1", "0.5,1"],
            ["equilibria", "--format", "csv"],
            ["zvc", "--C", "3.5", "--grid", "64"],
            ["equilibria"],
            ["integrate", "--config", str(conf)],
        ]

        def outcomes():
            out = []
            for argv in calls:
                try:
                    out.append(config_from_argv(argv))
                except UsageError as exc:
                    out.append(("UsageError", str(exc)))
            return out

        assert cli.build_parser() is cli.build_parser()
        cached = outcomes() + outcomes()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = outcomes() + outcomes()
        assert cached == fresh
        assert cached[1].tol != 1e-12 and cached[1].x0 != 0.4
        assert cached[4][0] == "UsageError"

    def test_config_malformed_line_rejected(self):
        with pytest.raises(UsageError, match="key = value"):
            parse_config("just words\n")

    def test_flag_key_aliases(self):
        values = parse_config("t = 0.02\nC = 3.1\nk = 1..3\n")
        assert values == {"t_belt": "0.02", "c_level": "3.1", "k_orders": "1..3"}

    def test_round_trip(self):
        cfg = config_from_argv(
            [
                "sweep",
                "--sweep-q1", "0:1:0.5",
                "--sweep-mb", "0,0.2",
                "--format", "csv",
            ]
        )
        assert RunConfig.from_file_text(cfg.to_file_text()) == cfg

    def test_round_trip_preserves_float_precision(self):
        cfg = build_config("zvc", {"c_level": 2.9756250000000001, "mu": 0.1 + 0.2})
        again = RunConfig.from_file_text(cfg.to_file_text())
        assert again.c_level == cfg.c_level
        assert again.mu == cfg.mu

    def test_format_defaults_per_command(self):
        assert config_from_argv(["equilibria"]).effective_format == "json"
        assert config_from_argv(["zvc"]).effective_format == "csv"
        assert config_from_argv(["zvc", "--format", "json"]).effective_format == "json"

    def test_sweep_requires_an_axis(self):
        with pytest.raises(UsageError, match="axis"):
            config_from_argv(["sweep"])

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(UsageError):
            RunConfig(command="orbit")
        with pytest.raises(UsageError):
            RunConfig(command="zvc", format="xml")
        with pytest.raises(UsageError):
            RunConfig(command="tables", table="table9")


class TestExitCodes:
    def test_usage_unknown_command(self, capsys):
        assert main(["bogus"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_usage_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_usage_unknown_flag(self):
        assert main(["equilibria", "--warp", "9"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["tables", "--t", "0.01"], ["zvc", "--gr", "64"]])
    def test_flag_prefix_is_an_unknown_flag(self, argv, capsys):
        # not read as --table or --grid
        assert main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_usage_empty_axis(self):
        assert main(["sweep", "--sweep-mu", ""]) == EXIT_USAGE

    @pytest.mark.parametrize("axis", ["0:inf:1", "0:1e12:1"])
    def test_usage_unbounded_axis_range(self, axis, capsys):
        assert main(["sweep", "--sweep-mu", axis]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        assert main(["equilibria", "--mu", "0.9"]) == EXIT_DOMAIN
        assert "domain error" in capsys.readouterr().err

    def test_numerical_error(self, capsys):
        # massless radiating primary with no belt: the axis scan finds no
        # root pattern it can classify
        with pytest.warns(UserWarning, match="q1 = 0.0 <= 0"):
            assert main(["equilibria", "--q1", "0", "--mb", "0"]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_io_error_unwritable_output(self):
        assert main(["equilibria", "--out", "/no-such-dir/x.json"]) == EXIT_IO

    def test_io_error_missing_config(self):
        assert main(["equilibria", "--config", "/no-such-dir/c.conf"]) == EXIT_IO

    def test_success(self, tmp_path):
        code, _ = run_to_file(tmp_path, ["equilibria"])
        assert code == EXIT_OK

    # each subcommand's default invocation; sweep needs an axis
    @pytest.mark.parametrize("argv", [["equilibria"], ["stability"], ["mu-crit"], ["zvc"],
                                      ["integrate"], ["tables"], ["sweep", "--sweep-mb", "0,0.2"]])
    def test_without_out_the_payload_goes_to_stdout_and_the_summary_to_stderr(
            self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        summary, wrote = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote {out}"
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == out.read_bytes()
        assert captured.err == summary + "\n"


class TestEquilibriaCommand:
    def test_five_points_with_belt(self, tmp_path):
        # reference configuration plus a 0.2 belt: three axis points and
        # the triangular pair
        code, text = run_to_file(
            tmp_path,
            ["equilibria", "--mu", "0.025", "--q1", "1", "--a2", "0",
             "--mb", "0.2", "--t", "0.01", "--rc", "0.8"],
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        kinds = [row[0] for row in doc["rows"]]
        assert kinds == ["L3", "L1", "L2", "L4", "L5"]
        resid = doc["columns"].index("residual")
        assert all(row[resid] <= 1e-12 for row in doc["rows"])

    def test_seven_points_where_a_continuation_found_no_l4(self, tmp_path):
        argv = ["equilibria", "--mu", "0.016020926592995498", "--q1", "0.11262559812232407",
                "--a2", "0.0869048478460272", "--mb", "1.4357432125581702",
                "--t", "0.0011613021209123916", "--rc", "0.24155013631174327"]
        code, text = run_to_file(tmp_path, argv)
        assert code == EXIT_OK
        rows = {row[0]: row for row in json.loads(text)["rows"]}
        assert list(rows) == ["L3", "Xb2", "Xb1", "L1", "L2", "L4", "L5"]
        l4, l5 = rows["L4"], rows["L5"]
        assert l4[1] == pytest.approx(0.272664, abs=1e-6)
        assert l4[2] == pytest.approx(0.152407, abs=1e-6)
        assert l5[1:] == [l4[1], -l4[2], *l4[3:]]

    def test_csv_schema_header(self, tmp_path):
        code, text = run_to_file(tmp_path, ["equilibria", "--format", "csv"], "e.csv")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "kind,x,y,r1,r2,residual"
        assert len(lines) == 2 + 5

    def test_summary_printed(self, tmp_path, capsys):
        run_to_file(tmp_path, ["equilibria"])
        out = capsys.readouterr().out
        assert "5 equilibrium points" in out
        assert "wrote" in out


class TestStabilityCommand:
    def test_classification_column(self, tmp_path):
        code, text = run_to_file(tmp_path, ["stability"])
        assert code == EXIT_OK
        doc = json.loads(text)
        cls = doc["columns"].index("classification")
        kind = doc["columns"].index("kind")
        got = {row[kind]: row[cls] for row in doc["rows"]}
        assert got["L4"] == got["L5"] == "LinearlyStable"
        assert got["L1"] == got["L2"] == got["L3"] == "Unstable-RealRoot"

    def test_frequencies_match_published(self, tmp_path):
        code, text = run_to_file(tmp_path, ["stability", "--q1", "0.5"])
        doc = json.loads(text)
        w1 = doc["columns"].index("omega1")
        row = next(r for r in doc["rows"] if r[0] == "L4")
        assert row[w1] == pytest.approx(0.869076, abs=5e-5)


class TestMuCritCommand:
    def test_published_first_column(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["mu-crit", "--k", "1..5", "--q1", "1", "--a2", "0", "--mb", "0"]
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        want = {1: 0.0385209, 2: 0.0242939, 3: 0.013516, 4: 0.00827037, 5: 0.0055092}
        for k, mu in doc["rows"]:
            assert mu == pytest.approx(want[k], abs=1e-5)

    def test_single_order(self, tmp_path):
        code, text = run_to_file(tmp_path, ["mu-crit", "--k", "2"])
        assert [r[0] for r in json.loads(text)["rows"]] == [2]


class TestZvcCommand:
    def test_vertices_on_level_set(self, tmp_path):
        from chermnykh.dynamics import vertex_tolerance
        from chermnykh.model import omega_grid

        code, text = run_to_file(
            tmp_path, ["zvc", "--C", "3.5", "--grid", "128"], "z.csv"
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "# schema=1"
        hx = 4.0 / 127
        for line in lines[2:]:
            _, _, x, y = line.split(",")
            x, y = float(x), float(y)
            resid = abs(float(omega_grid(CLASSICAL, x, y)) - 3.5)
            # formatted output rounds to 12 significant digits
            assert resid <= vertex_tolerance(CLASSICAL, x, y, hx, hx) + 1e-9

    def test_json_meta(self, tmp_path):
        code, text = run_to_file(tmp_path, ["zvc", "--format", "json"], "z.json")
        doc = json.loads(text)
        assert doc["level"] == 3.5
        assert doc["n_polylines"] == len({row[0] for row in doc["rows"]}) == 3

    @pytest.mark.parametrize(
        "flags",
        [["--C", "inf", "--format", "json"], ["--C", "nan"], ["--xmax=inf"], ["--xmin=-inf"]],
    )
    def test_non_finite_level_or_bound_is_a_domain_error(self, capsys, flags):
        assert main(["zvc", *flags]) == EXIT_DOMAIN
        assert "must be finite" in capsys.readouterr().err

    def test_empty_level_diagnostic(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["zvc", "--C", "2.5", "--format", "json"], "z.json"
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["rows"] == []
        assert "below" in doc["diagnostic"]


def _json_reference(columns, rows, meta=None):
    """The JSON text as json.dumps(obj, indent=2) writes it."""
    obj = dict(meta or {})
    obj["columns"] = list(columns)
    obj["rows"] = [[legacy_jnum(v) for v in row] for row in rows]
    return json.dumps(obj, indent=2) + "\n"


json_cell = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.text(alphabet=st.sampled_from('ab]["\\,:\n\t é→∑\x00'), max_size=8),
)


# All-float rows, weighted toward the cells the writer's one-% fast path
# must hand back: integral floats, zeros of both signs, values of 12 or more
# integer digits, values that round up a decade, subnormals, nan and inf.
edge_float = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(1e11, 1e17) | st.floats(-1e17, -1e11),
    st.integers(-6, 14).map(lambda k: 10.0**k * (1.0 - 4e-13)),
    st.floats(0.0, 2.2250738585072014e-308),
    st.sampled_from((
        0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
        9.99999999999995e-5, -9.99999999999995e-5, 9.9999999999995e-6, 1e-4, 1e-5,
        0.099999999999995, 9.9999999999995, 99999999999.95, 999999999999.95, 1e12, 1e16,
    )),
)
float_row = st.lists(edge_float, min_size=1, max_size=6).flatmap(
    lambda r: st.sampled_from((r, tuple(r)))
)


class TestJsonEmission:
    @settings(max_examples=300)
    @given(st.lists(float_row, max_size=6))
    def test_all_float_rows_same_text_as_indented_dumps(self, rows):
        columns = ("c",) * max(map(len, rows), default=0)
        assert emit_json(columns, rows) == _json_reference(columns, rows)


    @settings(max_examples=200)
    @given(
        st.lists(st.text(max_size=6), max_size=5),
        st.lists(st.lists(json_cell, max_size=6), max_size=6),
    )
    def test_same_text_as_indented_dumps(self, columns, rows):
        assert emit_json(columns, rows) == _json_reference(columns, rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibria", "--mb", "0.2"],
            ["stability"],
            ["mu-crit", "--k", "1,2"],
            ["zvc", "--grid", "64"],
            ["zvc", "--grid", "64", "--C", "0.5"],
            ["integrate", "--tend", "0.5"],
            ["tables", "--table", "table1"],
            ["sweep", "--sweep-mb", "0,0.2", "--mu", "0.5"],
        ],
    )
    def test_same_text_for_every_command(self, argv):
        cfg = config_from_argv(argv)
        columns, rows, meta, _ = cli._COMMANDS[cfg.command][0](cfg)
        assert emit_json(columns, rows, meta) == _json_reference(columns, rows, meta)

    def test_empty_rows_and_empty_row(self):
        for rows in ([], [()], [(), (1.0,), ()]):
            assert emit_json(("a",), rows, {"n": 0}) == _json_reference(("a",), rows, {"n": 0})


class TestIntegrateCommand:
    def test_zero_jacobi_constant(self, tmp_path):
        # 2 Omega(0.3, 0.4) = vy0^2 to the last bit: C0 is exactly 0
        code, text = run_to_file(
            tmp_path,
            ["integrate", "--x0", "0.3", "--y0", "0.4", "--vx0", "0",
             "--vy0", "2.02417416477795", "--tend", "1"],
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["c0"] == 0.0 and doc["status"] == "completed"
        assert math.isfinite(doc["max_drift"]) and doc["max_drift"] <= 1e-9


    def test_overflowing_start_is_a_domain_error(self, capsys):
        assert main(["integrate", "--vx0", "1e200", "--tend", "1"]) == EXIT_DOMAIN
        assert "initial state (0.5, 0.5, 1e+200, 0.0)" in capsys.readouterr().err

    def test_start_with_a_non_finite_jacobi_constant_is_a_domain_error(self, capsys):
        assert main(["integrate", "--vx0", "1e154", "--vy0", "1e154", "--tend", "1"]) == EXIT_DOMAIN
        assert "gives a non-finite Jacobi constant -inf" in capsys.readouterr().err

    def test_drift_reported(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["integrate", "--x0", "0.475", "--y0", "0.86602540378",
             "--tend", "10", "--tol", "1e-11"],
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["status"] == "completed"
        assert doc["max_drift"] <= 1e-9
        assert len(doc["rows"]) == doc["n_accepted"] + 1
        assert doc["rows"][-1][0] == pytest.approx(10.0)


class TestTablesCommand:
    def test_frequency_table_classical_column_reproduced(self):
        art = reproduce_tables("table1")
        cols = art.columns
        for row in art.rows:
            if row[cols.index("provenance")] == "reproduced":
                assert row[cols.index("delta_omega1")] <= 5e-5
                assert row[cols.index("delta_omega2")] <= 5e-5
        marks = [row[cols.index("provenance")] for row in art.rows]
        assert marks.count("reproduced") == 5
        assert marks.count("garbled") == 1

    def test_frequency_table_series_only_cells(self):
        art = reproduce_tables("table1")
        cols = art.columns
        nan_rows = [
            row for row in art.rows if math.isnan(row[cols.index("omega1_computed")])
        ]
        # the q1 = 0 rows have no off-axis point once the belt is present
        assert len(nan_rows) == 9
        assert all(row[cols.index("q1")] == 0.0 for row in nan_rows)
        assert all("series-only" in row[cols.index("note")] for row in nan_rows)

    def test_critical_mass_table_has_no_nan_cell(self):
        art = reproduce_tables("table2")
        cols = art.columns
        mus = [row[cols.index("mu_computed")] for row in art.rows]
        assert len(mus) == 120
        assert not any(math.isnan(mu) for mu in mus)

    @pytest.mark.parametrize(
        "table, target, column",
        [
            ("table1", "triangular_frequencies", "omega1_computed"),
            ("table2", "critical_mass_exact", "mu_computed"),
        ],
    )
    def test_failed_cell_note_is_the_error_message(self, monkeypatch, table, target, column):
        def fail(*args):
            raise NoResonanceError("no resonance crossing in this cell")

        monkeypatch.setattr(cli, target, fail)
        art = reproduce_tables(table)
        cols = art.columns
        for row in art.rows:
            assert math.isnan(row[cols.index(column)])
            note = row[cols.index("note")]
            assert "no resonance crossing in this cell" in note
            assert "series-only" not in note

    def test_critical_mass_table_classical_column(self):
        art = reproduce_tables("table2")
        cols = art.columns
        for row in art.rows:
            a2 = row[cols.index("a2")]
            mb = row[cols.index("mb")]
            if a2 == 0.0 and mb == 0.0:
                assert row[cols.index("provenance")] == "reproduced"
                assert row[cols.index("delta")] <= 1e-5

    def test_critical_mass_garbled_cell_flagged(self):
        art = reproduce_tables("table2")
        cols = art.columns
        row = next(
            r
            for r in art.rows
            if (r[cols.index("q1")], r[cols.index("k")]) == (0.75, 3)
            and (r[cols.index("a2")], r[cols.index("mb")]) == (0.02, 0.2)
        )
        assert row[cols.index("provenance")] == "garbled"
        assert "repeats" in row[cols.index("note")]

    def test_header_misprint_recorded(self):
        art = reproduce_tables("table2")
        cols = art.columns
        noted = [
            row
            for row in art.rows
            if (row[cols.index("a2")], row[cols.index("mb")]) == (0.0, 0.2)
        ]
        assert noted
        assert all("0.02" in row[cols.index("note")] for row in noted)

    def test_printed_values_never_overwritten(self):
        art = reproduce_tables("table1")
        cols = art.columns
        row = next(
            r
            for r in art.rows
            if (r[cols.index("a2")], r[cols.index("q1")], r[cols.index("mb")])
            == (0.0, 1.0, 0.0)
        )
        assert row[cols.index("omega1_ref")] == 0.890141
        assert row[cols.index("omega2_ref")] == 0.455686

    def test_unknown_table_rejected(self):
        with pytest.raises(Exception):
            reproduce_tables("table7")

    def test_cli_deterministic(self, tmp_path):
        _, a = run_to_file(tmp_path, ["tables", "--table", "table1"], "a.csv")
        _, b = run_to_file(tmp_path, ["tables", "--table", "table1"], "b.csv")
        assert a == b and a


class TestSweepCommand:
    def test_rows_in_lexicographic_axis_order(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["sweep", "--sweep-q1", "1,0.5", "--sweep-a2", "0.02,0"],
            "s.csv",
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in text.splitlines()[2:]]
        keys = [(float(r[1]), float(r[2])) for r in rows]
        assert keys == [(0.5, 0.0), (0.5, 0.02), (1.0, 0.0), (1.0, 0.02)]

    def test_classical_row_content(self, tmp_path):
        _, text = run_to_file(tmp_path, ["sweep", "--sweep-q1", "1"], "s.csv")
        header, row = text.splitlines()[1].split(","), text.splitlines()[2].split(",")
        got = dict(zip(header, row))
        assert got["l4_classification"] == "LinearlyStable"
        assert float(got["omega1"]) == pytest.approx(0.890141, abs=5e-5)
        assert float(got["omega2"]) == pytest.approx(0.455686, abs=5e-5)
        assert got["n_axis_points"] == "3"

    def test_no_triangular_point_row(self, tmp_path):
        _, text = run_to_file(
            tmp_path,
            ["sweep", "--sweep-q1", "0.001", "--mb", "0.6"],
            "s.csv",
        )
        row = dict(zip(text.splitlines()[1].split(","), text.splitlines()[2].split(",")))
        assert row["l4_classification"] == "no-triangular-point"
        assert row["omega1"] == ""

    def test_failed_axis_keeps_the_triangular_columns(self, tmp_path):
        # a point-mass belt (t = 0) makes the origin singular and the axis
        # scan refuses it; L4 does not depend on it and is still reported
        _, text = run_to_file(
            tmp_path, ["sweep", "--sweep-mu", "0.5", "--mb", "0.3", "--t", "0"], "s.csv"
        )
        row = dict(zip(text.splitlines()[1].split(","), text.splitlines()[2].split(",", 13)))
        assert "equilibria failed" in row["note"] and "point mass" in row["note"]
        assert row["n_axis_points"] == "0" and row["l1_x"] == ""
        assert row["l4_classification"] == "Unstable-ComplexQuartet"

    def test_oversize_product_refused_with_count(self, tmp_path, capsys):
        code = main(
            ["sweep", "--sweep-mu", "0.001:0.4:0.0001",
             "--sweep-q1", "0:1:0.001",
             "--sweep-mb", "0:1:0.2"]
        )
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "limit" in err and "10000000" in err
