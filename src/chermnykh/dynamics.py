"""Rotating-frame trajectory integration and zero-velocity curves.

Equations of motion:

    x'' - 2n y' = Omega_x,    y'' + 2n x' = Omega_y,

integrated as a first-order system with an embedded Dormand-Prince 5(4)
pair (FSAL, PI step controller).  The Jacobi constant C = 2 Omega - v^2 is
monitored at every accepted step; its drift is the primary quality
indicator and is carried on the returned Trajectory.

Zero-velocity curves are the level sets 2 Omega(x, y) = C, extracted from
a grid by marching squares with linear edge interpolation.  Cells within
two cells of a primary are masked: 2 Omega diverges there and linear
interpolation is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .equilibria import EquilibriumPoint, require_refined
from .errors import DomainError, IntegrationError, SingularPointError
from .model import RotState, SystemParams, jacobi_constant, omega_grad, omega_grid

# Dormand-Prince 5(4) tableau.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_H_INIT = 1e-3
_SAFETY = 0.9


def _rhs(p: SystemParams, s: tuple) -> tuple:
    x, y, vx, vy = s
    gx, gy = omega_grad(p, x, y)
    n2 = 2.0 * p.n
    return (vx, vy, n2 * vy + gx, -n2 * vx + gy)


def _dp_step(p: SystemParams, s: tuple, h: float, k1: tuple):
    """One embedded step from s with derivative k1; returns (s_new, k7,
    error_estimate).  k7 doubles as the next step's k1 (FSAL)."""

    def lin(coeffs, ks):
        return tuple(
            s[i] + h * sum(c * k[i] for c, k in zip(coeffs, ks)) for i in range(4)
        )

    ks = [k1]
    for row in _A:
        ks.append(_rhs(p, lin(row, ks)))
    s_new = lin(_A[-1], ks[:-1])  # row 7 equals the 5th-order weights
    err = tuple(h * sum(e * k[i] for e, k in zip(_E, ks)) for i in range(4))
    return s_new, ks[-1], err


@dataclass(frozen=True)
class Trajectory:
    """Integration result: sampled states in time order, the initial Jacobi
    constant, the worst relative drift seen at any accepted step, and the
    termination status ("completed" or "close-encounter")."""

    samples: tuple[RotState, ...]
    c0: float
    max_drift: float
    status: str
    n_accepted: int
    n_rejected: int

    def __post_init__(self):
        times = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("trajectory samples must be strictly time-ordered")

    @property
    def final(self) -> RotState:
        return self.samples[-1]


def _hermite(t, t0, s0, f0, t1, s1, f1):
    """Cubic Hermite interpolation between two accepted steps."""
    h = t1 - t0
    u = (t - t0) / h
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    return tuple(
        h00 * s0[i] + h10 * h * f0[i] + h01 * s1[i] + h11 * h * f1[i]
        for i in range(4)
    )


def integrate(
    p: SystemParams,
    s0,
    t_end: float,
    tol: float = 1e-10,
    sample_times: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate the rotating-frame equations from s0 for t in [0, t_end].

    s0 is a RotState or an (x, y, vx, vy) sequence.  With sample_times the
    trajectory is reported at exactly those instants (cubic Hermite dense
    output); otherwise every accepted step is reported.  Jacobi drift is
    always measured on the accepted steps themselves.
    """
    if isinstance(s0, RotState):
        start = (s0.x, s0.y, s0.vx, s0.vy)
    else:
        start = tuple(float(v) for v in s0)
        if len(start) != 4:
            raise DomainError("s0 must provide (x, y, vx, vy)")
    if not all(math.isfinite(v) for v in start):
        raise DomainError("initial state must be finite")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise DomainError("t_end must be positive and finite")
    if not 1e-14 <= tol <= 1e-6:
        raise DomainError("tol must lie in [1e-14, 1e-6]")
    if sample_times is not None:
        sample_times = [float(t) for t in sample_times]
        if any(b <= a for a, b in zip(sample_times, sample_times[1:])):
            raise DomainError("sample_times must be strictly increasing")
        if sample_times and (sample_times[0] < 0.0 or sample_times[-1] > t_end):
            raise DomainError("sample_times must lie within [0, t_end]")

    c0 = jacobi_constant(p, RotState(*start))  # also validates regularity

    samples: list[RotState] = []
    si = 0  # next requested sample index

    def emit(t, s):
        samples.append(RotState(s[0], s[1], s[2], s[3], t))

    if sample_times is None:
        emit(0.0, start)
    else:
        while si < len(sample_times) and sample_times[si] == 0.0:
            emit(0.0, start)
            si += 1

    t, s = 0.0, start
    h = min(_H_INIT, t_end)
    max_drift = 0.0
    n_acc = n_rej = 0
    errold = 1.0
    status = "completed"
    try:
        k1 = _rhs(p, s)
    except SingularPointError:
        raise DomainError("initial state is on a primary") from None
    while t < t_end:
        if t + h > t_end:
            h = t_end - t
        if h <= abs(t) * 1e-15 or h < 1e-14:
            status = "close-encounter"
            break
        try:
            s_new, k7, err = _dp_step(p, s, h, k1)
        except SingularPointError:
            status = "close-encounter"
            break
        except OverflowError:
            raise IntegrationError(
                "state left the representable range", RotState(*s, t=t), t
            ) from None
        if not all(math.isfinite(v) for v in s_new):
            raise IntegrationError(
                "state became non-finite", RotState(*s, t=t), t
            )
        sc = [tol + tol * max(abs(s[i]), abs(s_new[i])) for i in range(4)]
        en = math.sqrt(sum((err[i] / sc[i]) ** 2 for i in range(4)) / 4.0)
        if en <= 1.0:
            t_prev, s_prev, k_prev = t, s, k1
            t, s, k1 = t + h, s_new, k7
            n_acc += 1
            try:
                drift = abs(jacobi_constant(p, RotState(*s, t=t)) - c0) / abs(c0)
            except SingularPointError:
                status = "close-encounter"
                break
            except OverflowError:
                raise IntegrationError(
                    "state left the representable range", RotState(*s, t=t), t
                ) from None
            if drift > max_drift:
                max_drift = drift
            if sample_times is None:
                emit(t, s)
            else:
                while si < len(sample_times) and sample_times[si] <= t:
                    ts = sample_times[si]
                    emit(ts, _hermite(ts, t_prev, s_prev, k_prev, t, s, k1))
                    si += 1
            fac = _SAFETY * (en + 1e-30) ** -0.14 * errold**0.08
            errold = max(en, 1e-4)
        else:
            n_rej += 1
            fac = min(1.0, max(0.2, _SAFETY * en**-0.2))
        h *= min(5.0, max(0.2, fac))
    return Trajectory(tuple(samples), c0, max_drift, status, n_acc, n_rej)


def reverse_involution(s: RotState) -> RotState:
    """The time-reversal map of the rotating frame: reflect across the
    x-axis and flip the x-velocity.  If s(t) is a solution, applying this
    map to its endpoint and integrating forward retraces the path; plain
    velocity reversal does not, because the Coriolis term is odd in time.
    """
    return RotState(s.x, -s.y, -s.vx, s.vy, s.t)


def stability_probe(
    p: SystemParams,
    e: EquilibriumPoint,
    delta: float,
    t_end: float,
    tol: float = 1e-10,
) -> float:
    """Empirical boundedness: integrate from e displaced by delta along +x
    at rest and return the maximum distance from e over the run.  A close
    encounter reports infinity."""
    require_refined(p, e)
    if delta != 0.0 and not 1e-9 <= delta <= 1e-3:
        raise DomainError("delta must be 0 or in [1e-9, 1e-3]")
    traj = integrate(p, (e.x + delta, e.y, 0.0, 0.0), t_end, tol)
    if traj.status == "close-encounter":
        return math.inf
    return max(math.hypot(s.x - e.x, s.y - e.y) for s in traj.samples)


class GridSpec(NamedTuple):
    """Rectangular evaluation grid for level-set extraction."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    @property
    def hx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)


@dataclass(frozen=True)
class ContourSet:
    """Level set of 2 Omega at one Jacobi constant: chained polylines over
    the grid actually used.  diagnostic explains an empty result."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]
    grid: GridSpec
    diagnostic: str | None = None


def vertex_tolerance(p: SystemParams, x: float, y: float, hx: float, hy: float) -> float:
    """Linear-interpolation error bound for a contour vertex: h^2/8 sup|f''|
    along a cell edge, with a factor-2 safety on the curvature estimate and
    a rounding floor."""
    h = max(hx, hy)
    fxx = (
        float(omega_grid(p, x - hx, y))
        - 2.0 * float(omega_grid(p, x, y))
        + float(omega_grid(p, x + hx, y))
    ) / (hx * hx)
    fyy = (
        float(omega_grid(p, x, y - hy))
        - 2.0 * float(omega_grid(p, x, y))
        + float(omega_grid(p, x, y + hy))
    ) / (hy * hy)
    curv = max(abs(fxx), abs(fyy))
    return 0.25 * h * h * curv + 1e-12 * (1.0 + abs(float(omega_grid(p, x, y))))


def _mask_cells(grid: GridSpec, p: SystemParams) -> set[tuple[int, int]]:
    """Cells within 2 cells (Chebyshev) of a primary's containing cell."""
    masked = set()
    for px, py in ((-p.mu, 0.0), (1.0 - p.mu, 0.0)):
        if not (grid.xmin <= px <= grid.xmax and grid.ymin <= py <= grid.ymax):
            continue
        ci = int((px - grid.xmin) / grid.hx)
        cj = int((py - grid.ymin) / grid.hy)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                masked.add((ci + di, cj + dj))
    return masked


def _cell_segments(f, c, i, j, xs, ys):
    """Marching-squares segments for cell (i, j); corner order is
    (i,j) (i+1,j) (i+1,j+1) (i,j+1)."""
    f00, f10, f11, f01 = f[j, i], f[j, i + 1], f[j + 1, i + 1], f[j + 1, i]
    case = (
        (1 if f00 >= c else 0)
        | (2 if f10 >= c else 0)
        | (4 if f11 >= c else 0)
        | (8 if f01 >= c else 0)
    )
    if case in (0, 15):
        return []

    def interp(xa, ya, fa, xb, yb, fb):
        t = 0.5 if fb == fa else (c - fa) / (fb - fa)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[j], ys[j + 1]
    bottom = lambda: interp(x0, y0, f00, x1, y0, f10)
    right = lambda: interp(x1, y0, f10, x1, y1, f11)
    top = lambda: interp(x0, y1, f01, x1, y1, f11)
    left = lambda: interp(x0, y0, f00, x0, y1, f01)

    table = {
        1: [(left, bottom)],
        2: [(bottom, right)],
        3: [(left, right)],
        4: [(right, top)],
        6: [(bottom, top)],
        7: [(left, top)],
        8: [(top, left)],
        9: [(bottom, top)],
        11: [(top, right)],
        12: [(right, left)],
        13: [(right, bottom)],
        14: [(left, bottom)],
    }
    if case in (5, 10):
        # saddle cell: pair by the cell-average rule
        avg_high = 0.25 * (f00 + f10 + f11 + f01) >= c
        if case == 5:
            pairs = [(left, top), (right, bottom)] if avg_high else [(left, bottom), (right, top)]
        else:
            pairs = [(bottom, left), (top, right)] if avg_high else [(bottom, right), (top, left)]
    else:
        pairs = table[case]
    return [(a(), b()) for a, b in pairs]


def _chain(segments):
    """Merge shared endpoints (1e-12 quantization) and walk the adjacency
    into polylines; open chains start at odd-degree vertices."""

    def key(v):
        return (round(v[0] / 1e-12), round(v[1] / 1e-12))

    adj: dict[tuple, list] = {}
    used = [False] * len(segments)
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(key(a), []).append((idx, 0))
        adj.setdefault(key(b), []).append((idx, 1))

    def walk(start_idx, start_end):
        line = []
        idx, end = start_idx, start_end
        while True:
            used[idx] = True
            a, b = segments[idx]
            first, last = (a, b) if end == 0 else (b, a)
            if not line:
                line.append(first)
            line.append(last)
            nxt = None
            for cand, cend in adj.get(key(last), ()):
                if not used[cand]:
                    nxt = (cand, cend)
                    break
            if nxt is None:
                return line
            idx, end = nxt

    lines = []
    degree = {k: len(v) for k, v in adj.items()}
    for idx in range(len(segments)):
        if used[idx]:
            continue
        a, b = segments[idx]
        if degree[key(a)] == 1:
            lines.append(walk(idx, 0))
        elif degree[key(b)] == 1:
            lines.append(walk(idx, 1))
    for idx in range(len(segments)):  # remaining are closed loops
        if not used[idx]:
            line = walk(idx, 0)
            line.append(line[0])
            lines.append(line)
    return lines


def zvc_contours(
    p: SystemParams,
    c: float,
    bounds: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0),
    resolution: tuple[int, int] = (256, 256),
) -> ContourSet:
    """Zero-velocity curves 2 Omega = C over a rectangular grid."""
    xmin, xmax, ymin, ymax = map(float, bounds)
    nx, ny = int(resolution[0]), int(resolution[1])
    if not (xmin < xmax and ymin < ymax):
        raise DomainError("bounds must satisfy xmin < xmax and ymin < ymax")
    if nx < 64 or ny < 64:
        raise DomainError("resolution must be at least 64 x 64")
    grid = GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    f = omega_grid(p, xs[None, :], ys[:, None])
    masked = _mask_cells(grid, p)

    keep = np.isfinite(f)
    for ci, cj in masked:
        for di in (0, 1):
            for dj in (0, 1):
                ii, jj = ci + di, cj + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    keep[jj, ii] = False
    fmin = float(np.nanmin(np.where(keep, f, np.nan)))
    if c < fmin:
        return ContourSet(
            c,
            (),
            grid,
            diagnostic=(
                f"level C = {c:.12g} lies below the grid minimum of 2*Omega "
                f"({fmin:.12g}); the forbidden region is empty and motion is "
                "allowed everywhere on the grid"
            ),
        )

    segments = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            if (i, j) in masked:
                continue
            if not (keep[j, i] and keep[j, i + 1] and keep[j + 1, i] and keep[j + 1, i + 1]):
                continue
            segments.extend(_cell_segments(f, c, i, j, xs, ys))
    lines = _chain(segments)
    return ContourSet(c, tuple(tuple(line) for line in lines), grid)
