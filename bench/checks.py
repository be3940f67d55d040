"""Checks of the program's outputs against the benchmark's own model.

Each ``check_<workload>(call, text)`` takes one invocation and the text it
wrote, and returns a ``Verdict``: operations attempted and failed, work
completed, and the problems found.  A problem is an output that is wrong;
a failed operation is one the program reported it could not do.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

import oracle
from oracle import MU_ROUTH, Params

# Tolerances, each with the error it has to absorb.
AXIS_BRACKET = 1e-10      # relative half-width of the sign-change bracket
AXIS_FLOOR = 1e-13        # absolute half-width for a root at the origin
CLASSICAL_TOL = 1e-9      # frequency identities on 12-digit output
RESONANCE_TOL = 1e-10     # |K b^2 - d| / b^2 at a printed critical mass
JACOBI_DRIFT = 1e-6       # relative Jacobi drift along an orbit
START_SPAN = 1.0          # time span compared with solve_ivp
START_TOL = 1e-7          # state gap to solve_ivp over START_SPAN
STEP_TOL = 1e-8           # one emitted step against Runge-Kutta substeps
STEP_SUBSTEPS = 8
LEVEL_FLOOR = 1e-9        # rounding floor of the contour-level bound

SERIES_ONLY = "series-only"
KNOWN_FAULT = "are not ordered"


@dataclass
class Verdict:
    ops: int = 0
    failed: int = 0
    work: float = 0.0
    problems: list[str] = field(default_factory=list)
    unexpected_failures: list[str] = field(default_factory=list)


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != "# schema=1":
        raise ValueError("CSV output lacks its '# schema=1' header")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _f(row: dict, key: str) -> float | None:
    v = row[key]
    return None if v in ("", "nan") else float(v)


# --------------------------------------------------------------------------
# sweep

_AXIS_COLUMNS = (("L1", "l1_x"), ("L2", "l2_x"), ("L3", "l3_x"), ("Xb1", "xb1_x"), ("Xb2", "xb2_x"))


def _bracketed(p: Params, x: float) -> bool:
    h = max(AXIS_BRACKET * abs(x), AXIS_FLOOR)
    lo, hi = oracle.axis_force(p, x - h), oracle.axis_force(p, x + h)
    return lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0)


def _check_sweep_row(p: Params, row: dict, where: str, problems: list[str]) -> None:
    xs = {kind: _f(row, col) for kind, col in _AXIS_COLUMNS if _f(row, col) is not None}
    if int(row["n_axis_points"]) != len(xs):
        problems.append(f"{where}: n_axis_points {row['n_axis_points']} but {len(xs)} abscissae")
    for kind, x in xs.items():
        if not _bracketed(p, x):
            problems.append(f"{where}: {kind} = {x!r} is not bracketed by a sign change of Omega_x")
    if not {"L1", "L2", "L3"} <= set(xs) or ("Xb1" in xs) != ("Xb2" in xs):
        problems.append(f"{where}: axis points {sorted(xs)} are not L1-L3 with or without the pair")
    else:
        middle = 3 if "Xb1" in xs else 1
        changes = oracle.middle_sign_changes(p)
        if middle < changes:
            problems.append(f"{where}: {middle} axis points between the primaries, "
                            f"but Omega_x changes sign {changes} times there")
        chain = [xs["L3"], -p.mu]
        chain += [xs["Xb2"], xs["Xb1"]] if "Xb1" in xs else []
        chain += [xs["L1"], 1.0 - p.mu, xs["L2"]]
        if any(b <= a for a, b in zip(chain, chain[1:])):
            problems.append(f"{where}: axis points out of order L3 < -mu < [Xb2 < Xb1 <] L1 < 1-mu < L2")
    w1, w2 = _f(row, "omega1"), _f(row, "omega2")
    if (w1 is None) != (w2 is None) or (w1 is not None and not 0.0 < w2 < w1):
        problems.append(f"{where}: frequencies omega1={w1} omega2={w2} break 0 < omega2 < omega1")
    if row["l4_classification"] == "no-triangular-point":
        try:
            x4, y4 = oracle.triangular_point(p)
        except ValueError:
            pass
        else:
            problems.append(f"{where}: no triangular point reported, the oracle finds L4 at ({x4}, {y4})")
    if p.q1 == 1.0 and p.a2 == 0.0 and p.mb == 0.0:
        _check_classical_row(p, row, w1, w2, where, problems)


def _check_classical_row(p, row, w1, w2, where, problems) -> None:
    cls = row["l4_classification"]
    if p.mu < MU_ROUTH:
        fr = oracle.frequencies(p, *oracle.classical_l4(p.mu, 1.0))
        resonant = fr is not None and any(abs(fr[0] - k * fr[1]) < 1e-8 for k in (1, 2, 3))
        if not (cls == "LinearlyStable" or (cls == "Marginal-Resonant" and resonant)):
            problems.append(f"{where}: classical L4 below the Routh value classified {cls}")
        if w1 is None:
            problems.append(f"{where}: classical stable L4 without frequencies")
        else:
            if abs(w1 * w1 + w2 * w2 - 1.0) > CLASSICAL_TOL:
                problems.append(f"{where}: omega1^2 + omega2^2 = {w1 * w1 + w2 * w2!r}, not 1")
            target = 27.0 * p.mu * (1.0 - p.mu) / 4.0
            if abs(w1 * w1 * w2 * w2 - target) > CLASSICAL_TOL:
                problems.append(f"{where}: omega1^2 omega2^2 = {w1 * w1 * w2 * w2!r}, not {target!r}")
    elif cls in ("LinearlyStable", "Marginal-Resonant"):
        problems.append(f"{where}: classical L4 above the Routh value classified {cls}")


def check_sweep(call, text: str) -> Verdict:
    v = Verdict()
    rows = _csv_rows(text)
    grid = list(product(*call.meta["axes"]))
    if len(rows) != len(grid):
        v.problems.append(f"sweep wrote {len(rows)} rows for {len(grid)} grid points")
        return v
    t = call.meta["t"]
    for row, (mu, q1, a2, mb) in zip(rows, grid):
        where = f"sweep T={t} mu={mu} q1={q1} a2={a2} mb={mb}"
        v.ops += 1
        if tuple(float(row[k]) for k in ("mu", "q1", "a2", "mb")) != (mu, q1, a2, mb):
            v.problems.append(f"{where}: row echoes other parameters")
            continue
        note = row["note"]
        if "equilibria failed" in note or "classification failed" in note:
            v.failed += 1
            if not (call.meta["fault"] and mb > 0.0 and KNOWN_FAULT in note):
                v.unexpected_failures.append(f"{where}: {note}")
            continue
        _check_sweep_row(Params(mu, q1, a2, mb, t), row, where, v.problems)
        v.work += 1
    return v


# --------------------------------------------------------------------------
# tables

TABLE_MU = 0.025
# The one table2 cell the program leaves at nan although L4 exists there:
# critical_mass_exact raises NoResonanceError for (q1, k, A2, M_b) =
# (0.75, 2, 0, 0.6), the subject of a FOUND line in CHANGES.md.  It is
# named here so that any other nan cell is a problem; while it stays nan it
# adds no work.
TABLE2_FAULT_CELLS = frozenset({(0.75, 2, 0.0, 0.6)})


def _no_off_axis_point(q1: float, mb: float) -> bool:
    """At q1 = 0 with a belt there is no off-axis equilibrium: Omega_y = 0
    off the axis gives n^2 = k2 + kb, and then Omega_x = k2 (1 - mu) > 0.
    (At q1 = 0 without a belt the program gives the analytic limit.)"""
    return q1 == 0.0 and mb > 0.0


def _check_table1(rows, v: Verdict) -> None:
    for row in rows:
        a2, q1, mb = (float(row[k]) for k in ("a2", "q1", "mb"))
        w1, w2 = _f(row, "omega1_computed"), _f(row, "omega2_computed")
        where = f"table1 a2={a2} q1={q1} mb={mb}"
        if w1 is None or w2 is None:
            if not (w1 is None and w2 is None and _no_off_axis_point(q1, mb)
                    and SERIES_ONLY in row["note"]):
                v.problems.append(f"{where}: no frequencies ({w1}, {w2}) where L4 exists")
            continue
        if _no_off_axis_point(q1, mb):
            v.problems.append(f"{where}: frequencies ({w1}, {w2}) where no off-axis point exists")
        elif a2 == 0.0 and mb == 0.0 and q1 > 0.0:
            fr = oracle.frequencies(Params(TABLE_MU, q1), *oracle.classical_l4(TABLE_MU, q1))
            if abs(w1 - fr[0]) > CLASSICAL_TOL or abs(w2 - fr[1]) > CLASSICAL_TOL:
                v.problems.append(f"{where}: frequencies ({w1}, {w2}), closed form {fr}")
        elif not 0.0 < w2 < w1:
            v.problems.append(f"{where}: frequencies ({w1}, {w2}) break 0 < omega2 < omega1")
        v.work += 1


def _check_table2(rows, v: Verdict) -> None:
    columns: dict[tuple, list[tuple[int, float]]] = {}
    for row in rows:
        q1, a2, mb = (float(row[k]) for k in ("q1", "a2", "mb"))
        k = int(row["k"])
        mu = _f(row, "mu_computed")
        where = f"table2 q1={q1} k={k} a2={a2} mb={mb}"
        if mu is None:
            if (q1, k, a2, mb) not in TABLE2_FAULT_CELLS:
                v.problems.append(f"{where}: no critical mass")
            continue
        if not 0.0 < mu <= 0.5:
            v.problems.append(f"{where}: critical mass {mu} outside (0, 1/2]")
        if a2 == 0.0 and mb == 0.0:
            # omega1 = k omega2 exactly when d / b^2 = k^2 / (k^2 + 1)^2
            b, d = oracle.char_coeffs(Params(mu, q1), *oracle.classical_l4(mu, q1))
            gap = abs(k * k / (k * k + 1) ** 2 * b * b - d) / (b * b)
            if gap > RESONANCE_TOL:
                v.problems.append(f"{where}: omega1 = {k} omega2 misses at mu = {mu} by {gap:.3g}")
        columns.setdefault((q1, a2, mb), []).append((k, mu))
        v.work += 1
    for key, col in columns.items():
        mus = [mu for _, mu in sorted(col)]
        if any(b >= a for a, b in zip(mus, mus[1:])):
            v.problems.append(f"table2 column q1, a2, mb = {key}: critical masses not decreasing in k")


def check_tables(call, text: str) -> Verdict:
    """One invocation is one operation; its work is the cells computed,
    so a cell left at nan adds none."""
    v = Verdict(ops=1)
    rows = _csv_rows(text)
    expected = {"table1": 60, "table2": 120}[call.meta["table"]]
    if len(rows) != expected:
        v.problems.append(f"{call.meta['table']}: {len(rows)} cells, expected {expected}")
    (_check_table1 if call.meta["table"] == "table1" else _check_table2)(rows, v)
    return v


# --------------------------------------------------------------------------
# orbits

def _reference_start(p: Params, state, times: np.ndarray) -> np.ndarray:
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, s: oracle.derivatives(p, s), (0.0, float(times[-1])),
                    np.asarray(state, dtype=float), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=times)
    return sol.y.T


def check_orbits(call, text: str) -> Verdict:
    v = Verdict(ops=1)
    p, state, tend = call.meta["params"], call.meta["state"], call.meta["tend"]
    where = f"orbit {call.meta['kind']} {p} from {state}"
    out = json.loads(text)
    rows = np.array(out["rows"], dtype=float)
    t, s = rows[:, 0], rows[:, 1:]
    if out["status"] != "completed" or abs(t[-1] - tend) > 1e-9 * tend:
        v.problems.append(f"{where}: status {out['status']} at t = {t[-1]}")
    if np.any(np.diff(t) <= 0.0) or t[0] != 0.0 or np.any(np.abs(s[0] - state) > 1e-12):
        v.problems.append(f"{where}: samples do not start at the input state in time order")
        return v
    c0 = float(oracle.jacobi(p, *state))
    if abs(out["c0"] - c0) > 1e-10 * abs(c0):
        v.problems.append(f"{where}: c0 {out['c0']} against {c0}")
    drift = np.abs(oracle.jacobi(p, s[:, 0], s[:, 1], s[:, 2], s[:, 3]) - c0) / abs(c0)
    if drift.max() > JACOBI_DRIFT:
        i = int(drift.argmax())
        v.problems.append(f"{where}: Jacobi drift {drift[i]:.3g} at t = {t[i]}")
    head = t <= min(START_SPAN, tend)
    gap = np.abs(_reference_start(p, state, t[head]) - s[head]).max()
    if gap > START_TOL:
        v.problems.append(f"{where}: start departs from DOP853 by {gap:.3g}")
    step = oracle.rk4_propagate(p, s[:-1], np.diff(t), STEP_SUBSTEPS)
    err = np.abs(step - s[1:]).max(axis=1) / (1.0 + np.abs(s[1:]).max(axis=1))
    if err.max() > STEP_TOL:
        i = int(err.argmax())
        v.problems.append(f"{where}: step to t = {t[i + 1]} is off by {err[i]:.3g}")
    v.work = float(t[-1])
    return v


# --------------------------------------------------------------------------
# contours

def _level_bound(p: Params, x: np.ndarray, y: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """h^2/8 sup|f''| of linear interpolation along a cell edge, with f'' the
    largest second difference of 2 Omega at the vertex and one cell either
    side of it, and a factor 2 on top."""
    def second(px, py):
        f0 = oracle.two_omega(p, px, py)
        fxx = (oracle.two_omega(p, px - hx, py) - 2.0 * f0 + oracle.two_omega(p, px + hx, py)) / hx**2
        fyy = (oracle.two_omega(p, px, py - hy) - 2.0 * f0 + oracle.two_omega(p, px, py + hy)) / hy**2
        return np.maximum(np.abs(fxx), np.abs(fyy))

    curv = second(x, y)
    for dx, dy in ((hx, 0.0), (-hx, 0.0), (0.0, hy), (0.0, -hy)):
        curv = np.maximum(curv, second(x + dx, y + dy))
    h = max(hx, hy)
    return 0.25 * h * h * curv + LEVEL_FLOOR * (1.0 + np.abs(oracle.two_omega(p, x, y)))


def _at_rim(p: Params, x: float, y: float, bounds, hx: float, hy: float) -> bool:
    """On the grid edge, or on the rim of the cells masked about a primary
    (two cells either side of the primary's own cell)."""
    xmin, xmax, ymin, ymax = bounds
    if min(abs(x - xmin), abs(x - xmax)) < 1e-9 or min(abs(y - ymin), abs(y - ymax)) < 1e-9:
        return True
    return any(abs(x - px) <= 4.01 * hx and abs(y) <= 4.01 * hy for px in (-p.mu, 1.0 - p.mu))


def check_contours(call, text: str) -> Verdict:
    v = Verdict(ops=1)
    p, c, n = call.meta["params"], call.meta["level"], call.meta["grid"]
    bounds = call.meta["bounds"]
    hx = (bounds[1] - bounds[0]) / (n - 1)
    hy = (bounds[3] - bounds[2]) / (n - 1)
    where = f"zvc {p} C={c}"
    rows = _csv_rows(text)
    if not rows:
        v.problems.append(f"{where}: no curve between the lowest and highest equilibrium level")
        return v
    ids = np.array([int(r["polyline"]) for r in rows])
    xy = np.array([(float(r["x"]), float(r["y"])) for r in rows])
    gap = np.abs(oracle.two_omega(p, xy[:, 0], xy[:, 1]) - c)
    bound = _level_bound(p, xy[:, 0], xy[:, 1], hx, hy)
    bad = np.nonzero(gap > bound)[0]
    if bad.size:
        i = int(bad[0])
        v.problems.append(f"{where}: {bad.size} vertices off the level, first ({xy[i, 0]}, {xy[i, 1]}) "
                          f"by {gap[i]:.3g} > {bound[i]:.3g}")
    # one vertex on every grid edge the level crosses, shared by the two
    # cells of the edge; a closed polyline repeats its first vertex
    distinct = len({(r["x"], r["y"]) for r in rows})
    crossings = oracle.contour_crossings(p, c, n, bounds)
    if distinct != crossings:
        v.problems.append(f"{where}: {distinct} distinct vertices, but the level crosses "
                          f"{crossings} edges of the drawn cells")
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    for a, b in zip(starts, np.r_[starts[1:], len(ids)]):
        line = xy[a:b]
        if len(line) < 2:
            v.problems.append(f"{where}: polyline {ids[a]} has {len(line)} vertex")
        elif np.any(line[0] != line[-1]) and not all(
            _at_rim(p, *end, bounds, hx, hy) for end in (line[0], line[-1])
        ):
            v.problems.append(f"{where}: polyline {ids[a]} is open away from the grid edge and the mask")
    v.work = float((n - 1) ** 2)
    return v


CHECKS = {"sweep": check_sweep, "tables": check_tables, "orbits": check_orbits,
          "contours": check_contours}
