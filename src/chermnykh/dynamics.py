"""Rotating-frame trajectory integration and zero-velocity curves.

Equations of motion:

    x'' - 2n y' = Omega_x,    y'' + 2n x' = Omega_y,

integrated as a first-order system with an embedded Dormand-Prince 5(4)
pair (FSAL, PI step controller).  The step is written out per component
on plain floats; each of its six new stages goes through _rhs, the one
copy of the equations of motion: check_regular on the stage point, then
the kernel's gradient.  The Jacobi constant C = 2 Omega - v^2 is taken
from the kernel at every accepted step, with no second guard; its drift
is the primary quality indicator and is carried on the Trajectory.

Zero-velocity curves are the level sets 2 Omega(x, y) = C, extracted from
a grid by marching squares with linear edge interpolation (Lorensen & Cline
1987).  The drawn-cell mask, the case index and the vertices on crossed
edges are computed on whole numpy arrays; Python only chains the segments
into polylines.  The 7 x 7 cells about each primary's cell are not drawn:
2 Omega diverges there and linear interpolation is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .equilibria import EquilibriumPoint, require_refined
from .errors import DomainError, IntegrationError, SingularPointError
from .model import RotState, SystemParams, check_regular, jacobi_constant, kernel, omega_grid

_H_INIT = 1e-3
_SAFETY = 0.9


def _rhs(p: SystemParams, s: tuple) -> tuple:
    x, y, vx, vy = s
    check_regular(p, x, y)
    gx, gy = kernel(p, x, y, 1)
    n2 = 2.0 * p.n
    return (vx, vy, n2 * vy + gx, -n2 * vx + gy)


def _dp_step(p: SystemParams, s: tuple, h: float, k1: tuple):
    """One embedded Dormand-Prince 5(4) step from s with derivative k1;
    returns (s_new, k7, error_estimate).  k7 doubles as the next step's k1
    (FSAL).

    The tableau (Dormand & Prince 1980) is written out per component on
    plain floats: (x, y, u, v) is the state, a_j, b_j, c_j, d_j are the
    components of the derivative at stage j, and e_j = b5_j - b4_j are the
    error weights.  Each weighted sum adds its terms left to right in
    tableau order and leaves out the terms of weight 0 (stage 2 in the last
    row and in the error weights).  Against a loop over the tableau that
    sums with ``sum()``, which starts from 0 and adds those terms too, that
    can change only the sign of a zero; the tests hold s_new, k7 and the
    error estimate to such a loop bit for bit, zeros of both signs and
    subnormal components included.  Stage 7 is taken at the 5th-order
    solution s_new.
    """
    x, y, u, v = s
    a1, b1, c1, d1 = k1
    e1, e3, e4, e5, e6, e7 = (
        35 / 384 - 5179 / 57600, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640,
        -2187 / 6784 + 92097 / 339200, 11 / 84 - 187 / 2100, -1 / 40,
    )
    a2, b2, c2, d2 = _rhs(p, (
        x + h * (1 / 5 * a1),
        y + h * (1 / 5 * b1),
        u + h * (1 / 5 * c1),
        v + h * (1 / 5 * d1),
    ))
    a3, b3, c3, d3 = _rhs(p, (
        x + h * (3 / 40 * a1 + 9 / 40 * a2),
        y + h * (3 / 40 * b1 + 9 / 40 * b2),
        u + h * (3 / 40 * c1 + 9 / 40 * c2),
        v + h * (3 / 40 * d1 + 9 / 40 * d2),
    ))
    a4, b4, c4, d4 = _rhs(p, (
        x + h * (44 / 45 * a1 - 56 / 15 * a2 + 32 / 9 * a3),
        y + h * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3),
        u + h * (44 / 45 * c1 - 56 / 15 * c2 + 32 / 9 * c3),
        v + h * (44 / 45 * d1 - 56 / 15 * d2 + 32 / 9 * d3),
    ))
    a5, b5, c5, d5 = _rhs(p, (
        x + h * (19372 / 6561 * a1 - 25360 / 2187 * a2 + 64448 / 6561 * a3 - 212 / 729 * a4),
        y + h * (19372 / 6561 * b1 - 25360 / 2187 * b2 + 64448 / 6561 * b3 - 212 / 729 * b4),
        u + h * (19372 / 6561 * c1 - 25360 / 2187 * c2 + 64448 / 6561 * c3 - 212 / 729 * c4),
        v + h * (19372 / 6561 * d1 - 25360 / 2187 * d2 + 64448 / 6561 * d3 - 212 / 729 * d4),
    ))
    a6, b6, c6, d6 = _rhs(p, (
        x + h * (9017 / 3168 * a1 - 355 / 33 * a2 + 46732 / 5247 * a3 + 49 / 176 * a4
                 - 5103 / 18656 * a5),
        y + h * (9017 / 3168 * b1 - 355 / 33 * b2 + 46732 / 5247 * b3 + 49 / 176 * b4
                 - 5103 / 18656 * b5),
        u + h * (9017 / 3168 * c1 - 355 / 33 * c2 + 46732 / 5247 * c3 + 49 / 176 * c4
                 - 5103 / 18656 * c5),
        v + h * (9017 / 3168 * d1 - 355 / 33 * d2 + 46732 / 5247 * d3 + 49 / 176 * d4
                 - 5103 / 18656 * d5),
    ))
    s_new = (
        x + h * (35 / 384 * a1 + 500 / 1113 * a3 + 125 / 192 * a4 - 2187 / 6784 * a5
                 + 11 / 84 * a6),
        y + h * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4 - 2187 / 6784 * b5
                 + 11 / 84 * b6),
        u + h * (35 / 384 * c1 + 500 / 1113 * c3 + 125 / 192 * c4 - 2187 / 6784 * c5
                 + 11 / 84 * c6),
        v + h * (35 / 384 * d1 + 500 / 1113 * d3 + 125 / 192 * d4 - 2187 / 6784 * d5
                 + 11 / 84 * d6),
    )
    a7, b7, c7, d7 = k7 = _rhs(p, s_new)
    err = (
        h * (e1 * a1 + e3 * a3 + e4 * a4 + e5 * a5 + e6 * a6 + e7 * a7),
        h * (e1 * b1 + e3 * b3 + e4 * b4 + e5 * b5 + e6 * b6 + e7 * b7),
        h * (e1 * c1 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6 + e7 * c7),
        h * (e1 * d1 + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6 + e7 * d7),
    )
    return s_new, k7, err


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
        """The last sample.  A trajectory that stopped before its first
        requested sample time holds none, and has no final state."""
        if not self.samples:
            raise DomainError(f"trajectory holds no samples (status {self.status})")
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
    start = tuple(map(float, (s0.x, s0.y, s0.vx, s0.vy) if isinstance(s0, RotState) else s0))
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
        if not all(map(math.isfinite, sample_times)):
            raise DomainError("sample_times must be finite")
        if any(b <= a for a, b in zip(sample_times, sample_times[1:])):
            raise DomainError("sample_times must be strictly increasing")
        if sample_times and (sample_times[0] < 0.0 or sample_times[-1] > t_end):
            raise DomainError("sample_times must lie within [0, t_end]")

    try:
        c0 = jacobi_constant(p, RotState(*start))  # also validates regularity
    except OverflowError:
        raise DomainError(f"initial state {start} overflows the Jacobi constant") from None
    if not math.isfinite(c0):  # a sum that rounds to +-inf raises no OverflowError
        raise DomainError(f"initial state {start} gives a non-finite Jacobi constant {c0}")
    # where C0 = 0, drift is relative to the terms that cancelled, or absolute
    x, y, u, v = start
    c_scale = abs(c0) or 2.0 * abs(kernel(p, x, y, 0)) + u * u + v * v or 1.0

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
        x, y, u, v = s_new
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(u) and math.isfinite(v)):
            raise IntegrationError(
                "state became non-finite", RotState(*s, t=t), t
            )
        en = math.sqrt((
            (err[0] / (tol + tol * max(abs(s[0]), abs(s_new[0])))) ** 2
            + (err[1] / (tol + tol * max(abs(s[1]), abs(s_new[1])))) ** 2
            + (err[2] / (tol + tol * max(abs(s[2]), abs(s_new[2])))) ** 2
            + (err[3] / (tol + tol * max(abs(s[3]), abs(s_new[3])))) ** 2
        ) / 4.0)
        if en <= 1.0:
            t_prev, s_prev, k_prev = t, s, k1
            t, s, k1 = t + h, s_new, k7
            n_acc += 1
            try:  # jacobi_constant's order; k7's stage checked this very point
                drift = abs(2.0 * kernel(p, x, y, 0) - u**2 - v**2 - c0) / c_scale
            except OverflowError:
                raise IntegrationError(
                    "state left the representable range", RotState(x, y, u, v, t), t
                ) from None
            if drift > max_drift:
                max_drift = drift
            if sample_times is None:
                # every component and t are finite: skip RotState's checks
                state = object.__new__(RotState)
                state.__dict__.update(x=x, y=y, vx=u, vy=v, t=t)
                samples.append(state)
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


# Cell edges for marching squares: bottom, right, top, left, each as its two
# corners (dj, di) oriented along the grid (left to right, bottom to top), so
# the two cells that share an edge put the same vertex on it.
_EDGES = (((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 0)))
_B, _R, _T, _L = range(4)
# Segments as (from, to) edge pairs, in emission order, keyed by the case
# index (corner bit 1 at (i, j), 2 at (i+1, j), 4 at (i+1, j+1), 8 at
# (i, j+1)) plus 16 where a saddle cell's average is at or above C.
_SEGMENTS = {
    1: ((_L, _B),), 2: ((_B, _R),), 3: ((_L, _R),), 4: ((_R, _T),),
    6: ((_B, _T),), 7: ((_L, _T),), 8: ((_T, _L),), 9: ((_B, _T),),
    11: ((_T, _R),), 12: ((_R, _L),), 13: ((_R, _B),), 14: ((_L, _B),),
    5: ((_L, _B), (_R, _T)), 21: ((_L, _T), (_R, _B)),
    10: ((_B, _R), (_T, _L)), 26: ((_B, _L), (_T, _R)),
}
_PAIRS = np.full((32, 2, 2), -1, dtype=np.int8)
for _key, _pairs in _SEGMENTS.items():
    _PAIRS[_key, : len(_pairs)] = _pairs


def _march(f, c, keep, xs, ys):
    """Marching-squares segments of the level c over the cells whose four
    corners are in keep: cells in row-major (j, i) order, each cell's
    segments in _SEGMENTS order.  The case index and the edge
    interpolation run on whole arrays."""
    h = (f >= c).view(np.uint8)
    case = h[:-1, :-1] | h[:-1, 1:] << 1 | h[1:, 1:] << 2 | h[1:, :-1] << 3
    drawn = keep[:-1, :-1] & keep[:-1, 1:] & keep[1:, 1:] & keep[1:, :-1]
    j, i = np.nonzero(drawn & (case != 0) & (case != 15))
    key = case[j, i].astype(np.intp)
    s = (key == 5) | (key == 10)
    f00, f10, f11, f01 = (f[j[s] + dj, i[s] + di] for dj, di in ((0, 0), (0, 1), (1, 1), (1, 0)))
    key[s] += 16 * (0.25 * (f00 + f10 + f11 + f01) >= c)

    verts = np.empty((4, key.size, 2))
    for e, ((ja, ia), (jb, ib)) in enumerate(_EDGES):
        on = h[j + ja, i + ia] != h[j + jb, i + ib]
        jo, io = j[on], i[on]
        fa, fb = f[jo + ja, io + ia], f[jo + jb, io + ib]
        t = (c - fa) / (fb - fa)  # exactly one end is >= c, so fb != fa
        verts[e, on, 0] = xs[io + ia] + t * (xs[io + ib] - xs[io + ia])
        verts[e, on, 1] = ys[jo + ja] + t * (ys[jo + jb] - ys[jo + ja])

    pairs = _PAIRS[key]
    cell = np.arange(key.size)[:, None]
    seg = np.concatenate((verts[pairs[..., 0], cell], verts[pairs[..., 1], cell]), axis=2)
    return [((ax, ay), (bx, by)) for ax, ay, bx, by in seg[pairs[..., 0] >= 0].tolist()]


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
    if not all(map(math.isfinite, (c, xmin, xmax, ymin, ymax))):
        raise DomainError(f"level C = {c!r} and bounds {bounds} must be finite")
    if not (xmin < xmax and ymin < ymax):
        raise DomainError("bounds must satisfy xmin < xmax and ymin < ymax")
    if nx < 64 or ny < 64:
        raise DomainError("resolution must be at least 64 x 64")
    grid = GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    f = omega_grid(p, xs[None, :], ys[:, None])
    keep = np.isfinite(f)
    for px in (-p.mu, 1.0 - p.mu):
        # blank the corners of the 5 x 5 cells about the primary's cell, so
        # that no cell of the 7 x 7 block about it is drawn
        if xmin <= px <= xmax and ymin <= 0.0 <= ymax:
            ci = int((px - xmin) / grid.hx)
            cj = int((0.0 - ymin) / grid.hy)
            keep[max(cj - 2, 0) : cj + 4, max(ci - 2, 0) : ci + 4] = False
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

    lines = _chain(_march(f, c, keep, xs, ys))
    return ContourSet(c, tuple(tuple(line) for line in lines), grid)
