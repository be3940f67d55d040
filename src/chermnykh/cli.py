"""Command-line interface: equilibrium listings, stability reports,
zero-velocity curves, critical masses, trajectory runs, reference-table
reproduction, and parameter sweeps.

RunConfig's fields are the one option schema: each names its parser, the
subcommands that offer it as a flag and, for t, C and k, its key.  A flag
a subcommand does not read is a usage error; a config file may hold every
key.  Flag values override config-file values override built-in defaults
(the reference configuration mu = 0.025, q1 = 1, A2 = 0, M_b = 0, T = 0.01,
r_c = 0.8).  Output is deterministic: fixed row ordering, 12 significant
digits, CSV with a "# schema=1" header, JSON with a fixed key order.

Exit codes: 0 success, 2 domain error, 3 numerical failure, 64 usage
error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields

from . import reference_data as rd
from .dynamics import integrate, zvc_contours
from .equilibria import LANE_BLOCK, find_all, find_triangular
from .errors import DomainError, NoTriangularPointsError, NumericalError
from .model import SystemParams
from .stability import classify, critical_mass_exact, triangular_frequencies

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_IO = 74

MAX_SWEEP_CELLS = 10**7


class UsageError(Exception):
    """Bad flags, bad config keys, or malformed value syntax."""


def _parse_orders(text: str) -> tuple[int, ...]:
    """Resonance-order lists: "1..5", "2", or "1,3,5"."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad order range {text!r}") from None
        if b < a:
            raise UsageError(f"empty order range {text!r}")
        return tuple(range(a, b + 1))
    try:
        out = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"bad order list {text!r}") from None
    if not out:
        raise UsageError("empty order list")
    return out


def _parse_axis(text: str) -> tuple[float, ...]:
    """Sweep axes: "0:1:0.25" (inclusive range) or "0,0.5,1"."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"axis range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(v) for v in parts)
        except ValueError:
            raise UsageError(f"bad axis range {text!r}") from None
        if step <= 0.0 or stop < start:
            raise UsageError(f"axis range {text!r} must ascend with step > 0")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(sorted({start + i * step for i in range(n)}))
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"bad axis list {text!r}") from None
    if not vals:
        raise UsageError("empty sweep axis")
    return tuple(sorted(set(vals)))


# The subcommands that read each parameter; critical masses solve for mu.
_READS_MU = ("equilibria", "stability", "zvc", "integrate", "sweep")
_READS_PARAMS = (*_READS_MU, "mu-crit")


def _option(default, parse=float, commands=None, key=None):
    """A RunConfig option: parse reads its text (and is argparse's type),
    commands names the subcommands that offer it (None: all of them), and
    key is its config key and flag where that is not the field's name."""
    return field(default=default, metadata={"parse": parse, "commands": commands, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; serializes to the config-file format.  Its
    option fields are the one schema of flags and config keys: the flag is
    --key, or the field name with "_" as "-"."""

    command: str
    mu: float = _option(0.025, commands=_READS_MU)
    q1: float = _option(1.0, commands=_READS_PARAMS)
    a2: float = _option(0.0, commands=_READS_PARAMS)
    mb: float = _option(0.0, commands=_READS_PARAMS)
    t_belt: float = _option(0.01, commands=_READS_PARAMS, key="t")
    rc: float = _option(0.8, commands=_READS_PARAMS)
    tol: float = _option(1e-10, commands=("integrate",))
    out: str | None = _option(None, str)
    format: str | None = _option(None, str)
    k_orders: tuple[int, ...] = _option((1, 2, 3, 4, 5), _parse_orders, ("mu-crit",), "k")
    c_level: float = _option(3.5, commands=("zvc",), key="C")
    grid: int = _option(256, int, ("zvc",))
    xmin: float = _option(-2.0, commands=("zvc",))
    xmax: float = _option(2.0, commands=("zvc",))
    ymin: float = _option(-2.0, commands=("zvc",))
    ymax: float = _option(2.0, commands=("zvc",))
    x0: float = _option(0.5, commands=("integrate",))
    y0: float = _option(0.5, commands=("integrate",))
    vx0: float = _option(0.0, commands=("integrate",))
    vy0: float = _option(0.0, commands=("integrate",))
    tend: float = _option(10.0, commands=("integrate",))
    table: str = _option("table1", str, ("tables",))
    sweep_mu: tuple[float, ...] | None = _option(None, _parse_axis, ("sweep",))
    sweep_q1: tuple[float, ...] | None = _option(None, _parse_axis, ("sweep",))
    sweep_a2: tuple[float, ...] | None = _option(None, _parse_axis, ("sweep",))
    sweep_mb: tuple[float, ...] | None = _option(None, _parse_axis, ("sweep",))

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in (None, "csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.table not in ("table1", "table2"):
            raise UsageError(f"unknown table {self.table!r}")
        if self.command == "sweep" and not any(
            a for a in (self.sweep_mu, self.sweep_q1, self.sweep_a2, self.sweep_mb)
        ):
            raise UsageError("sweep needs at least one non-empty axis")

    def params(self) -> SystemParams:
        return SystemParams(
            mu=self.mu, q1=self.q1, a2=self.a2, mb=self.mb,
            t_belt=self.t_belt, rc=self.rc,
        )

    @property
    def effective_format(self) -> str:
        return self.format or _COMMANDS[self.command][1]

    def to_file_text(self) -> str:
        """key = value lines; parse_config(from_file_text) restores the
        config exactly (floats via repr)."""
        lines = []
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None:
                continue
            key = _FIELD_TO_KEY.get(f.name, f.name)
            if isinstance(val, tuple):
                text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
            elif isinstance(val, float):
                text = repr(val)
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file_text(cls, text: str) -> "RunConfig":
        values = parse_config(text)
        if "command" not in values:
            raise UsageError("config text lacks a command")
        command = values.pop("command")
        return build_config(command, values)


_OPTIONS = tuple(f for f in fields(RunConfig) if f.metadata)
_COERCERS = {f.name: f.metadata.get("parse", str) for f in fields(RunConfig)}
_FIELD_TO_KEY = {f.name: f.metadata["key"] for f in _OPTIONS if f.metadata["key"]}
_KEY_TO_FIELD = {key: name for name, key in _FIELD_TO_KEY.items()}


def parse_config(text: str) -> dict:
    """Flat key = value format, UTF-8, # comments, unknown keys rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        name = _KEY_TO_FIELD.get(key, key)
        if name not in _COERCERS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[name] = val.strip()
    return values


def build_config(command: str, sources: dict) -> RunConfig:
    """Coerce a {field: string-or-value} mapping into a RunConfig."""
    kwargs = {}
    for name, raw in sources.items():
        if name == "command" or raw is None:
            continue
        try:
            kwargs[name] = _COERCERS[name](raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError):
            raise UsageError(f"bad value for {name}: {raw!r}") from None
    try:
        return RunConfig(command=command, **kwargs)
    except TypeError:
        raise UsageError(f"bad option set for {command}") from None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: parse_args leaves it as it was, so callers must not change it."""
    # allow_abbrev=False: each flag has one spelling, not any unambiguous prefix
    top = _Parser(prog="chermnykh", description=__doc__, add_help=True, allow_abbrev=False)
    sub = top.add_subparsers(dest="command", parser_class=_Parser)
    for command, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for f in _OPTIONS:
            if f.metadata["commands"] is None or command in f.metadata["commands"]:
                flag = f.metadata["key"] or f.name.replace("_", "-")
                p.add_argument("--" + flag, dest=f.name, type=f.metadata["parse"])
        p.add_argument("--config", dest="config_path")
    return top


def config_from_argv(argv) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (one of: " + ", ".join(_COMMANDS) + ")")
    file_values = {}
    if args.config_path:
        with open(args.config_path, encoding="utf-8") as fh:
            file_values = parse_config(fh.read())
        file_values.pop("command", None)
    flag_values = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config_path") and v is not None
    }
    merged = dict(file_values)
    merged.update(flag_values)
    return build_config(args.command, merged)


def _fmt(v) -> str:
    """Fixed 12-significant-digit text for any cell value."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if math.isnan(f):
        return "nan"
    return f"{f:.12g}"


def _jnum(v):
    """JSON cell: numbers re-rounded to the documented precision; NaN
    becomes null so the emitted text stays standard JSON."""
    if type(v) is float:  # nearly every cell: skip the isinstance chain
        return None if v != v else float(f"{v:.12g}")
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, bool)):
        return v
    f = float(v)
    if math.isnan(f):
        return None
    return float(f"{f:.12g}")


def emit_csv(columns, rows) -> str:
    buf = io.StringIO()
    buf.write("# schema=1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


@functools.cache
def _float_row(n: int) -> str:
    """The %-format of a JSON row of n floats at 12 significant digits."""
    return "[\n      " + ",\n      ".join(("%.12g",) * n) + "\n    ]"


def _json_row(row) -> str:
    """One row as json.dumps(obj, indent=2) writes it.  An all-float row is
    one % format, kept when every cell has a fraction and no exponent: such
    a .12g token is the repr of the float it parses to, since two decimals
    of at most 12 digits never round to one normal double and repr, like
    .12g, writes exponents in [-4, 12) in fixed notation.  Other rows go
    through _jnum and the C encoder (indent selects the pure-Python one),
    the separator carrying the indents."""
    if row and all(type(v) is float for v in row):
        text = _float_row(len(row)) % tuple(row)
        if text.count(".") == len(row) and "e" not in text:
            return text
    return ("[\n      " + json.dumps([_jnum(v) for v in row], separators=(",\n      ", ": "))[1:-1]
            + "\n    ]") if row else "[]"


def emit_json(columns, rows, meta=None) -> str:
    """json.dumps(obj, indent=2)'s text, the rows written by _json_row."""
    head = json.dumps({**(meta or {}), "columns": list(columns), "rows": []}, indent=2)
    rows = [_json_row(row) for row in rows]
    body = "[\n    " + ",\n    ".join(rows) + "\n  ]\n}\n" if rows else "[]\n}\n"
    return head.removesuffix("[]\n}") + body


@dataclass(frozen=True)
class TableArtifact:
    """Side-by-side reproduction of one published table.

    Every row carries the printed value, the recomputed value (or nan
    when the construction fails), the absolute gap, a provenance mark
    (reproduced / non-normative / garbled), and a free-text note; printed
    values are never overwritten."""

    table_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def summary(self) -> str:
        marks = [row[self.columns.index("provenance")] for row in self.rows]
        n_rep = marks.count("reproduced")
        deltas = [
            row[self.columns.index("delta" if "delta" in self.columns else "delta_omega1")]
            for row, m in zip(self.rows, marks)
            if m == "reproduced"
        ]
        worst = max((d for d in deltas if not math.isnan(d)), default=math.nan)
        return (
            f"{self.table_id}: {len(self.rows)} cells, {n_rep} reproduced "
            f"(worst |delta| {worst:.3g}), "
            f"{marks.count('non-normative')} non-normative, "
            f"{marks.count('garbled')} garbled"
        )


_NO_POINT_NOTE = "no off-axis equilibrium at these parameters (series-only cell)"
_HEADER_NOTE = 'column printed as "(0, 0.02)"; the value pattern identifies it as (0, 0.2)'


def _failure_note(exc: Exception) -> str:
    """The note of a cell left at nan: series-only where no off-axis point
    exists, else the error's own message."""
    return _NO_POINT_NOTE if isinstance(exc, NoTriangularPointsError) else str(exc)


def reproduce_tables(which: str) -> TableArtifact:
    """Recompute every cell of a published table on its own grid
    (mu = 0.025, r_c = 0.8, T = 0.01) and report side by side."""
    if which == "table1":
        return _reproduce_frequencies()
    if which == "table2":
        return _reproduce_critical_masses()
    raise DomainError(f"unknown table id {which!r}")


def _reproduce_frequencies() -> TableArtifact:
    columns = (
        "a2", "q1", "mb",
        "omega1_ref", "omega2_ref", "omega1_computed", "omega2_computed",
        "delta_omega1", "delta_omega2", "provenance", "note",
    )
    rows = []
    for a2 in rd.A2_VALUES:
        for q1 in rd.FREQ_Q1_VALUES:
            for mb in rd.BELT_MASSES:
                w1_ref, w2_ref = rd.FREQUENCY_TABLE[(a2, q1)][mb]
                status = rd.frequency_cell_status(a2, q1, mb)
                note = ""
                if status == "garbled":
                    note = "printed omega2 repeats the omega1 value of the next column"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        p = SystemParams(mu=0.025, q1=q1, a2=a2, mb=mb)
                        w1, w2 = triangular_frequencies(p)
                    d1, d2 = abs(w1 - w1_ref), abs(w2 - w2_ref)
                except (DomainError, NumericalError) as exc:
                    w1 = w2 = d1 = d2 = math.nan
                    note = (note + "; " if note else "") + _failure_note(exc)
                rows.append(
                    (a2, q1, mb, w1_ref, w2_ref, w1, w2, d1, d2,
                     "reproduced" if status == "normative" else status, note)
                )
    return TableArtifact("table1", columns, tuple(rows))


def _reproduce_critical_masses() -> TableArtifact:
    columns = (
        "q1", "k", "a2", "mb",
        "mu_ref", "mu_computed", "delta", "provenance", "note",
    )
    cells = [(q1, k, a2, mb) for q1 in rd.MASS_Q1_VALUES for k in rd.RESONANCE_ORDERS
             for a2, mb in rd.MASS_COLUMNS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bases = [SystemParams(mu=0.025, q1=q1, a2=a2, mb=mb) for q1, _, a2, mb in cells]
        try:  # one call: the searches run as lanes
            mus = critical_mass_exact(bases, [k for _, k, _, _ in cells])
        except (DomainError, NumericalError) as exc:
            mus = [exc] * len(cells)
    rows = []
    for (q1, k, a2, mb), mu in zip(cells, mus):
        ref = rd.CRITICAL_MASS_TABLE[(q1, k)][(a2, mb)]
        status = rd.critical_mass_cell_status(q1, k, a2, mb)
        notes = []
        if (a2, mb) == (0.0, 0.2):
            notes.append(_HEADER_NOTE)
        if status == "garbled":
            notes.append("printed value repeats the k = 4 cell below it")
        if isinstance(mu, Exception):
            notes.append(_failure_note(mu))
            mu = delta = math.nan
        else:
            delta = abs(mu - ref)
        rows.append(
            (q1, k, a2, mb, ref, mu, delta,
             "reproduced" if status == "normative" else status,
             "; ".join(notes))
        )
    return TableArtifact("table2", columns, tuple(rows))


def _cmd_equilibria(cfg: RunConfig):
    points = find_all(cfg.params())
    columns = ("kind", "x", "y", "r1", "r2", "residual")
    rows = [(e.kind, e.x, e.y, e.r1, e.r2, e.residual) for e in points]
    return columns, rows, None, f"{len(rows)} equilibrium points"


def _cmd_stability(cfg: RunConfig):
    p = cfg.params()
    points = find_all(p)
    columns = (
        "kind", "x", "y", "b", "d",
        "omega1", "omega2", "classification", "resonance_k",
    )
    rows = []
    n_stable = 0
    for e in points:
        r = classify(p, e)
        n_stable += r.is_stable
        rows.append(
            (e.kind, e.x, e.y, r.coeffs.b, r.coeffs.d,
             r.omega1, r.omega2, r.classification, r.resonance_k)
        )
    return columns, rows, None, f"{len(rows)} points, {n_stable} linearly stable"


def _cmd_mu_crit(cfg: RunConfig):
    base = cfg.params()
    columns = ("k", "mu_crit")
    rows = [(k, critical_mass_exact(base, k)) for k in cfg.k_orders]
    return columns, rows, None, f"critical masses for k in {list(cfg.k_orders)}"


def _cmd_zvc(cfg: RunConfig):
    cs = zvc_contours(
        cfg.params(),
        cfg.c_level,
        bounds=(cfg.xmin, cfg.xmax, cfg.ymin, cfg.ymax),
        resolution=(cfg.grid, cfg.grid),
    )
    columns = ("polyline", "vertex", "x", "y")
    rows = [
        (i, j, x, y)
        for i, line in enumerate(cs.polylines)
        for j, (x, y) in enumerate(line)
    ]
    meta = {"level": _jnum(cs.level), "n_polylines": len(cs.polylines)}
    if cs.diagnostic:
        meta["diagnostic"] = cs.diagnostic
    summary = f"{len(cs.polylines)} polylines at C = {_fmt(cfg.c_level)}"
    if cs.diagnostic:
        summary = cs.diagnostic
    return columns, rows, meta, summary


def _cmd_integrate(cfg: RunConfig):
    traj = integrate(
        cfg.params(),
        (cfg.x0, cfg.y0, cfg.vx0, cfg.vy0),
        cfg.tend,
        tol=cfg.tol,
    )
    columns = ("t", "x", "y", "vx", "vy")
    rows = [(s.t, s.x, s.y, s.vx, s.vy) for s in traj.samples]
    meta = {
        "status": traj.status,
        "c0": _jnum(traj.c0),
        "max_drift": _jnum(traj.max_drift),
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
    }
    summary = (
        f"{traj.status}: {traj.n_accepted} steps, "
        f"max relative drift {traj.max_drift:.3g}"
    )
    return columns, rows, meta, summary


def _cmd_tables(cfg: RunConfig):
    art = reproduce_tables(cfg.table)
    return art.columns, art.rows, {"table": art.table_id}, art.summary()


def _sweep_rows(tasks) -> list[tuple]:
    """The sweep rows of at most LANE_BLOCK (mu, q1, a2, mb, t_belt, rc) points:
    one find_all call for all, then _sweep_point point by point."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = []
        for task in tasks:
            try:
                params.append(SystemParams(*task))
            except (DomainError, NumericalError) as exc:
                params.append(exc)
        found = iter(find_all([p for p in params if isinstance(p, SystemParams)]))
        return [_sweep_point(task, p, next(found) if isinstance(p, SystemParams) else None)
                for task, p in zip(tasks, params)]


def _sweep_point(task, p, points):
    """One sweep row from the point's parameters and equilibria, or their errors."""
    if not isinstance(p, SystemParams):
        return _sweep_row_from(task, None, None, f"invalid parameters: {p}")
    note = []
    if isinstance(points, Exception):
        note.append(f"equilibria failed: {points}")
        # the off-axis pair does not depend on the axis scan
        try:
            points = list(find_triangular(p))
        except (DomainError, NumericalError):
            points = []
    axis_x = {e.kind: e.x for e in points if e.is_collinear}
    freqs = None
    l4_class = "no-triangular-point"
    l4 = next((e for e in points if e.kind == "L4"), None)
    if l4 is not None:
        try:
            report = classify(p, l4)
            l4_class = report.classification
            if report.omega1 is not None:
                freqs = (report.omega1, report.omega2)
        except (DomainError, NumericalError) as exc:
            l4_class = ""
            note.append(f"classification failed: {exc}")
    elif p.q1 == 0.0:
        # the off-axis point is degenerate at q1 = 0; the analytic
        # limit still provides frequencies when the belt is absent
        try:
            freqs = triangular_frequencies(p)
            l4_class = "LinearlyStable"
        except (DomainError, NumericalError):
            pass
    return _sweep_row_from(task, axis_x, freqs, "; ".join(note), l4_class)


def _sweep_row_from(task, axis_x, freqs, note, l4_class=""):
    axis_x = axis_x or {}
    w1, w2 = (freqs if freqs else (None, None))
    return (
        *task[:4],
        len(axis_x),
        axis_x.get("L1"), axis_x.get("L2"), axis_x.get("L3"),
        axis_x.get("Xb1"), axis_x.get("Xb2"),
        w1, w2, l4_class, note,
    )


_SWEEP_COLUMNS = (
    "mu", "q1", "a2", "mb", "n_axis_points",
    "l1_x", "l2_x", "l3_x", "xb1_x", "xb2_x",
    "omega1", "omega2", "l4_classification", "note",
)


def _cmd_sweep(cfg: RunConfig):
    axes = [
        cfg.sweep_mu or (cfg.mu,),
        cfg.sweep_q1 or (cfg.q1,),
        cfg.sweep_a2 or (cfg.a2,),
        cfg.sweep_mb or (cfg.mb,),
    ]
    total = 1
    for ax in axes:
        total *= len(ax)
    if total > MAX_SWEEP_CELLS:
        raise DomainError(
            f"sweep would cover {total} points; the limit is {MAX_SWEEP_CELLS}"
        )
    tasks = ((*point, cfg.t_belt, cfg.rc) for point in itertools.product(*axes))
    rows = []
    while block := list(itertools.islice(tasks, LANE_BLOCK)):
        rows += _sweep_rows(block)
    return _SWEEP_COLUMNS, rows, {"n_points": total}, f"swept {total} parameter points"


# name: (handler, default format, help).  Commands whose natural payload
# is tabular default to CSV, the rest to JSON.
_COMMANDS = {
    "equilibria": (_cmd_equilibria, "json", "locate and list equilibrium points"),
    "stability": (_cmd_stability, "json", "characteristic coefficients and classification per point"),
    "zvc": (_cmd_zvc, "csv", "zero-velocity curves at a Jacobi constant"),
    "mu-crit": (_cmd_mu_crit, "json", "resonance critical mass ratios"),
    "integrate": (_cmd_integrate, "json", "rotating-frame trajectory"),
    "tables": (_cmd_tables, "csv", "reproduce a published reference table"),
    "sweep": (_cmd_sweep, "csv", "parameter sweep with per-point stability summary"),
}


def run(cfg: RunConfig) -> int:
    """Execute one resolved invocation and emit its artifact."""
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        columns, rows, meta, summary = _COMMANDS[cfg.command][0](cfg)
    if cfg.effective_format == "csv":
        payload = emit_csv(columns, rows)
    else:
        payload = emit_json(columns, rows, meta)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        print(summary)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return run(cfg)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
