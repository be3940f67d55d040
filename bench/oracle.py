"""The model written out a second time, apart from the program.

The benchmark builds its inputs and checks the program's outputs with these
formulas, so a fault in ``chermnykh.model`` cannot hide itself by being
used on both sides of a check.  Everything here is plain ``math`` and
``numpy``; nothing imports ``chermnykh``.

Model: planar restricted three-body problem, bigger primary (mass 1 - mu,
radiation factor q1) at (-mu, 0), oblate smaller primary (mass mu,
oblateness A2) at (1 - mu, 0), and a belt of mass M_b and width T about the
origin.  With r^2 = x^2 + y^2,

    Omega = n^2 r^2 / 2 + (1 - mu) q1 / r1 + mu / r2 + mu A2 / (2 r2^3)
            + M_b / sqrt(r^2 + T^2),
    n^2   = 1 + 3 A2 / 2 + 2 M_b rc / (rc^2 + T^2)^{3/2},

and the motion obeys x'' - 2n y' = Omega_x, y'' + 2n x' = Omega_y, with
the Jacobi constant C = 2 Omega - vx^2 - vy^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Classical Routh value (1 - sqrt(23/27)) / 2 of the triangular points.
MU_ROUTH = 0.5 * (1.0 - math.sqrt(23.0 / 27.0))


class Params(NamedTuple):
    mu: float
    q1: float = 1.0
    a2: float = 0.0
    mb: float = 0.0
    t: float = 0.01
    rc: float = 0.8

    @property
    def n2(self) -> float:
        return 1.0 + 1.5 * self.a2 + 2.0 * self.mb * self.rc / (self.rc**2 + self.t**2) ** 1.5


def two_omega(p: Params, x, y):
    """2 Omega at scalars or arrays (no singularity guard)."""
    r1 = np.sqrt((x + p.mu) ** 2 + y * y)
    r2 = np.sqrt((x + p.mu - 1.0) ** 2 + y * y)
    rr = x * x + y * y
    return (
        p.n2 * rr
        + 2.0 * (1.0 - p.mu) * p.q1 / r1
        + 2.0 * p.mu / r2
        + p.mu * p.a2 / r2**3
        + 2.0 * p.mb / np.sqrt(rr + p.t**2)
    )


def gradient(p: Params, x, y):
    """(Omega_x, Omega_y) at scalars or arrays."""
    s = x + p.mu
    u = s - 1.0
    r1sq = s * s + y * y
    r2sq = u * u + y * y
    k1 = (1.0 - p.mu) * p.q1 / r1sq**1.5
    k2 = p.mu / r2sq**1.5 + 1.5 * p.mu * p.a2 / r2sq**2.5
    kb = p.mb / (x * x + y * y + p.t**2) ** 1.5
    gx = p.n2 * x - k1 * s - k2 * u - kb * x
    gy = p.n2 * y - k1 * y - k2 * y - kb * y
    return gx, gy


def axis_force(p: Params, x):
    """Omega_x(x, 0), the axis force balance whose zeros are the collinear
    points."""
    return gradient(p, x, 0.0 * x)[0]


def hessian(p: Params, x: float, y: float) -> tuple[float, float, float]:
    """(Omega_xx, Omega_xy, Omega_yy) at a point."""
    s = x + p.mu
    u = s - 1.0
    r1sq = s * s + y * y
    r2sq = u * u + y * y
    w = x * x + y * y + p.t**2
    a = (1.0 - p.mu) * p.q1
    c = 1.5 * p.mu * p.a2
    # each term is m (3 d_i d_j / r^5 - delta_ij / r^3) for the inverse-
    # distance potentials, and its analogue for the r2^-3 oblateness term
    oxx = p.n2
    oyy = p.n2
    oxy = 0.0
    for m, dx, rsq in ((a, s, r1sq), (p.mu, u, r2sq)):
        r3 = rsq**1.5
        r5 = rsq * r3
        oxx += m * (3.0 * dx * dx / r5 - 1.0 / r3)
        oyy += m * (3.0 * y * y / r5 - 1.0 / r3)
        oxy += 3.0 * m * dx * y / r5
    r5 = r2sq**2.5
    r7 = r5 * r2sq
    oxx += c * (5.0 * u * u / r7 - 1.0 / r5)
    oyy += c * (5.0 * y * y / r7 - 1.0 / r5)
    oxy += 5.0 * c * u * y / r7
    if p.mb:
        w3 = w**1.5
        w5 = w * w3
        oxx += p.mb * (3.0 * x * x / w5 - 1.0 / w3)
        oyy += p.mb * (3.0 * y * y / w5 - 1.0 / w3)
        oxy += 3.0 * p.mb * x * y / w5
    return oxx, oxy, oyy


def char_coeffs(p: Params, x: float, y: float) -> tuple[float, float]:
    """(b, d) of the characteristic polynomial l^4 + b l^2 + d of the
    linearised motion about an equilibrium."""
    oxx, oxy, oyy = hessian(p, x, y)
    return 4.0 * p.n2 - oxx - oyy, oxx * oyy - oxy * oxy


def frequencies(p: Params, x: float, y: float) -> tuple[float, float] | None:
    """(omega1, omega2) of the linearised motion about an equilibrium, or
    None off the stable side."""
    b, d = char_coeffs(p, x, y)
    disc = b * b - 4.0 * d
    if b <= 0.0 or d <= 0.0 or disc <= 0.0:
        return None
    root = math.sqrt(disc)
    return math.sqrt((b + root) / 2.0), math.sqrt((b - root) / 2.0)


def jacobi(p: Params, x, y, vx, vy):
    return two_omega(p, x, y) - vx * vx - vy * vy


def f_at_origin(mu: float, q1: float, a2: float) -> float:
    """Omega_x(0, 0); the belt adds nothing there."""
    return -(1.0 - mu) * q1 / mu**2 + mu / (1.0 - mu) ** 2 + 1.5 * mu * a2 / (1.0 - mu) ** 4


def collinear_roots(p: Params, samples: int = 40001) -> list[float]:
    """Zeros of the axis force, by dense sampling and bisection."""
    gap = 1e-7
    roots = []
    for lo, hi in ((-6.0, -p.mu - gap), (-p.mu + gap, 1.0 - p.mu - gap), (1.0 - p.mu + gap, 6.0)):
        xs = np.linspace(lo, hi, samples)
        fs = axis_force(p, xs)
        for i in np.nonzero(np.sign(fs[:-1]) != np.sign(fs[1:]))[0]:
            a, b, fa = float(xs[i]), float(xs[i + 1]), float(fs[i])
            for _ in range(100):
                m = 0.5 * (a + b)
                if m in (a, b):
                    break
                fm = float(axis_force(p, m))
                if (fm < 0.0) == (fa < 0.0):
                    a, fa = m, fm
                else:
                    b = m
            roots.append(0.5 * (a + b))
    return roots


def middle_sign_changes(p: Params, samples: int = 20001, per_decade: int = 200) -> int:
    """Sign changes of the axis force between the primaries: uniform
    sampling of (-mu, 1 - mu), plus log-spaced samples on both sides of the
    origin from 1e-4 T to 1e3 T, where the belt's inner pair lies.  Every
    change counted is a root; a pair closer than the sampling may be
    missed, never invented."""
    gap = 1e-7
    near = p.t * np.logspace(-4.0, 3.0, 7 * per_decade + 1)
    xs = np.concatenate((np.linspace(-p.mu + gap, 1.0 - p.mu - gap, samples), near, -near, [0.0]))
    xs = np.unique(xs[(xs > -p.mu + gap / 2) & (xs < 1.0 - p.mu - gap / 2)])
    fs = axis_force(p, xs)
    s = np.sign(fs[fs != 0.0])
    return int(np.count_nonzero(s[:-1] != s[1:]))


def contour_crossings(p: Params, c: float, n: int, bounds) -> int:
    """Grid edges of an n x n grid over ``bounds`` on which 2 Omega - C
    changes sign (a node at exactly C counts as above), among the edges of
    the cells that are drawn: the 7 x 7 block of cells about the cell
    holding each primary is left out, as are cells with a non-finite
    corner.  A marching-squares contour puts one vertex on each."""
    xmin, xmax, ymin, ymax = bounds
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = two_omega(p, xs[None, :], ys[:, None])
    finite = np.isfinite(f)
    drawn = finite[:-1, :-1] & finite[:-1, 1:] & finite[1:, :-1] & finite[1:, 1:]  # [j, i]
    hx, hy = (xmax - xmin) / (n - 1), (ymax - ymin) / (n - 1)
    for px in (-p.mu, 1.0 - p.mu):
        if xmin <= px <= xmax and ymin <= 0.0 <= ymax:
            ci, cj = int((px - xmin) / hx), int((0.0 - ymin) / hy)
            drawn[max(cj - 3, 0):cj + 4, max(ci - 3, 0):ci + 4] = False
    high = f >= c
    # a horizontal edge (j, i)-(j, i+1) borders cells (j-1, i) and (j, i);
    # a vertical edge (j, i)-(j+1, i) borders cells (j, i-1) and (j, i)
    h_drawn = np.zeros((n, n - 1), dtype=bool)
    h_drawn[:-1] |= drawn
    h_drawn[1:] |= drawn
    v_drawn = np.zeros((n - 1, n), dtype=bool)
    v_drawn[:, :-1] |= drawn
    v_drawn[:, 1:] |= drawn
    h_cross = (high[:, :-1] != high[:, 1:]) & h_drawn
    v_cross = (high[:-1, :] != high[1:, :]) & v_drawn
    return int(np.count_nonzero(h_cross) + np.count_nonzero(v_cross))


def triangular_point(p: Params) -> tuple[float, float]:
    """L4 by continuation from the radiating classical point (r1 = q1^{1/3},
    r2 = 1): A2 and M_b grow to their values in ten stages, each finished
    by 2-D Newton on the gradient."""
    x, y = classical_l4(p.mu, p.q1)
    for k in range(1, 11):
        stage = p._replace(a2=p.a2 * k / 10, mb=p.mb * k / 10)
        for _ in range(50):
            gx, gy = gradient(stage, x, y)
            oxx, oxy, oyy = hessian(stage, x, y)
            det = oxx * oyy - oxy * oxy
            dx = (oyy * gx - oxy * gy) / det
            dy = (oxx * gy - oxy * gx) / det
            x, y = x - dx, y - dy
            if max(abs(dx), abs(dy)) < 1e-15:
                break
    if not (y > 1e-6 and math.hypot(*gradient(p, x, y)) < 1e-10):
        raise ValueError(f"no triangular point found for {p}")
    return x, y


def classical_l4(mu: float, q1: float) -> tuple[float, float]:
    """L4 in closed form when A2 = M_b = 0: r1 = q1^{1/3}, r2 = 1."""
    r1 = q1 ** (1.0 / 3.0)
    return 0.5 * r1 * r1 - mu, math.sqrt(r1 * r1 - 0.25 * r1**4)


def derivatives(p: Params, states: np.ndarray) -> np.ndarray:
    """Right-hand side of the equations of motion for (..., 4) states."""
    x, y, vx, vy = states[..., 0], states[..., 1], states[..., 2], states[..., 3]
    gx, gy = gradient(p, x, y)
    two_n = 2.0 * math.sqrt(p.n2)
    return np.stack((vx, vy, two_n * vy + gx, -two_n * vx + gy), axis=-1)


def rk4_propagate(p: Params, states: np.ndarray, h: np.ndarray, substeps: int) -> np.ndarray:
    """Carry each of the (N, 4) states over its own time span h[i] with
    classical Runge-Kutta substeps, all states at once."""
    s = states.copy()
    dt = (h / substeps)[:, None]
    for _ in range(substeps):
        k1 = derivatives(p, s)
        k2 = derivatives(p, s + 0.5 * dt * k1)
        k3 = derivatives(p, s + 0.5 * dt * k2)
        k4 = derivatives(p, s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s
