"""Layer trace taken from outside the program.

``Tracer.install()`` replaces public functions of the chermnykh modules,
in every module that binds them, with wrappers that count calls, add up
wall time and read the values the calls return; ``uninstall()`` puts the
originals back.  Nothing inside the program changes, so the trace sees
only what crosses a public function boundary, and its own cost shows as
the gap between traced and untraced rounds.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("model", "equilibria", "stability", "dynamics", "cli")

# What cli.main hands to the library; cli.other_ms is main's time outside
# these, parsing and emission.
CLI_LIBRARY_CALLS = ("find_all", "classify", "triangular_frequencies",
                     "critical_mass_exact", "integrate", "zvc_contours")

# (metric, unit) in the order the traced run prints them.
LAYER_METRICS = (
    ("equilibria.scan_ms", "ms"), ("equilibria.scan_samples", "count"),
    ("equilibria.polish_ms", "ms"), ("equilibria.axis_f_calls", "count"),
    ("equilibria.newton_ms", "ms"), ("equilibria.newton_calls", "count"),
    ("model.grad_calls", "count"), ("model.hessian_calls", "count"), ("model.grad_us", "us"),
    ("model.jacobi_calls", "count"), ("model.jacobi_ms", "ms"),
    ("model.grid_ns_per_point", "ns"),
    ("stability.classify_ms", "ms"), ("stability.crit_mass_ms", "ms"),
    ("stability.fixed_point_iters", "count"),
    ("dynamics.integrate_ms", "ms"), ("dynamics.us_per_step", "us"),
    ("dynamics.steps_accepted", "count"), ("dynamics.steps_rejected", "count"),
    ("dynamics.zvc_ms", "ms"), ("dynamics.march_ms", "ms"), ("dynamics.ms_per_mcell", "ms"),
    ("dynamics.vertices", "count"),
    ("cli.parse_ms", "ms"), ("cli.emit_ms", "ms"), ("cli.bytes_out", "bytes"), ("cli.other_ms", "ms"),
)


class Tracer:
    """Counters and timers filled by wrappers around the program's public
    functions.  Times are in ms."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._saved = []
        self._crit_depth = 0
        self._grid_ms_at_zvc = 0.0
        self._mods = {m: importlib.import_module(f"chermnykh.{m}") for m in MODULES}

    def _wrap(self, module: str, name: str, slot: str, before=None, after=None, done=None) -> None:
        """Time and count ``module.name`` under ``slot``; ``before(args)``
        runs ahead of the call, ``after(result, args)`` on its return and
        ``done()`` in any case."""
        mod = self._mods[module]
        orig = getattr(mod, name)
        ms, calls = self.ms, self.calls

        def wrapper(*args, **kwargs):
            if before:
                before(args)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                ms[slot] += (perf_counter() - t0) * 1e3
                calls[slot] += 1
                if done:
                    done()
            if after:
                after(result, args)
            return result

        setattr(mod, name, wrapper)
        self._saved.append((mod, name, orig))

    def _everywhere(self, name: str, slot: str, **hooks) -> None:
        """Wrap ``name`` in every module that binds it."""
        for module in MODULES:
            if hasattr(self._mods[module], name):
                self._wrap(module, name, slot, **hooks)

    def install(self) -> None:
        w = self._wrap
        # equilibria: the axis scan, its polish, Newton refinement
        w("equilibria", "scan_collinear", "scan", after=self._scan_samples)
        self._everywhere("find_collinear", "find_collinear")
        self._everywhere("refine_equilibrium", "newton")
        w("equilibria", "collinear_f", "collinear_f", before=self._count_scalar_f)
        # model: the force kernel, through every binding
        self._everywhere("omega_grad", "grad")
        self._everywhere("omega_hessian", "hessian")
        self._everywhere("jacobi_constant", "jacobi")
        self._everywhere("omega_grid", "grid", after=self._grid_points)
        # stability
        self._everywhere("classify", "classify")
        w("stability", "find_triangular", "find_triangular", before=self._count_fixed_point)
        w("cli", "critical_mass_exact", "crit_mass", before=self._enter_crit, done=self._leave_crit)
        # dynamics
        w("cli", "integrate", "integrate", after=self._steps)
        w("cli", "zvc_contours", "zvc", before=self._enter_zvc, after=self._contours)
        # cli
        w("cli", "config_from_argv", "parse")
        w("cli", "emit_csv", "emit", after=self._bytes_out)
        w("cli", "emit_json", "emit", after=self._bytes_out)
        for name in CLI_LIBRARY_CALLS:  # outermost, around the wrappers above
            w("cli", name, "cli.library")

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    def _scan_samples(self, scan, args) -> None:
        self.counts["scan_samples"] += sum(scan.samples)

    def _grid_points(self, values, args) -> None:
        self.counts["grid_points"] += int(np.size(values))

    def _count_scalar_f(self, args) -> None:
        if np.ndim(args[1]) == 0:
            self.counts["axis_f_calls"] += 1

    def _enter_crit(self, args) -> None:
        self._crit_depth += 1

    def _leave_crit(self) -> None:
        self._crit_depth -= 1

    def _count_fixed_point(self, args) -> None:
        if self._crit_depth:
            self.counts["fixed_point_iters"] += 1

    def _steps(self, traj, args) -> None:
        self.counts["steps_accepted"] += traj.n_accepted
        self.counts["steps_rejected"] += traj.n_rejected

    def _enter_zvc(self, args) -> None:
        self._grid_ms_at_zvc = self.ms["grid"]

    def _contours(self, cs, args) -> None:
        self.ms["zvc_grid"] += self.ms["grid"] - self._grid_ms_at_zvc
        self.counts["cells"] += (cs.grid.nx - 1) * (cs.grid.ny - 1)
        self.counts["vertices"] += sum(len(line) for line in cs.polylines)

    def _bytes_out(self, payload, args) -> None:
        self.counts["bytes_out"] += len(payload.encode("utf-8"))

    def metrics(self, rounds: int, main_ms: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), totals per round; ``main_ms``
        is the traced rounds' total time in cli.main."""
        ms, calls, counts = self.ms, self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        march_ms = ms["zvc"] - ms["zvc_grid"]
        totals = {
            "equilibria.scan_ms": ms["scan"],
            "equilibria.scan_samples": counts["scan_samples"],
            "equilibria.polish_ms": ms["find_collinear"] - ms["scan"],
            "equilibria.axis_f_calls": counts["axis_f_calls"],
            "equilibria.newton_ms": ms["newton"],
            "equilibria.newton_calls": calls["newton"],
            "model.grad_calls": calls["grad"],
            "model.hessian_calls": calls["hessian"],
            "model.jacobi_calls": calls["jacobi"],
            "model.jacobi_ms": ms["jacobi"],
            "stability.classify_ms": ms["classify"],
            "stability.crit_mass_ms": ms["crit_mass"],
            "dynamics.integrate_ms": ms["integrate"],
            "dynamics.steps_accepted": counts["steps_accepted"],
            "dynamics.steps_rejected": counts["steps_rejected"],
            "dynamics.zvc_ms": ms["zvc"],
            "dynamics.march_ms": march_ms,
            "dynamics.vertices": counts["vertices"],
            "cli.parse_ms": ms["parse"],
            "cli.emit_ms": ms["emit"],
            "cli.bytes_out": counts["bytes_out"],
            "cli.other_ms": main_ms - ms["parse"] - ms["emit"] - ms["cli.library"],
        }
        out = {k: v / rounds for k, v in totals.items()}
        out.update({
            "model.grad_us": ratio(ms["grad"] * 1e3, calls["grad"]),
            "model.grid_ns_per_point": ratio(ms["grid"] * 1e6, counts["grid_points"]),
            "stability.fixed_point_iters": ratio(counts["fixed_point_iters"], calls["crit_mass"]),
            "dynamics.us_per_step": ratio(ms["integrate"] * 1e3, counts["steps_accepted"]),
            "dynamics.ms_per_mcell": ratio(march_ms * 1e6, counts["cells"]),
        })
        return {name: (out[name], unit) for name, unit in LAYER_METRICS}
