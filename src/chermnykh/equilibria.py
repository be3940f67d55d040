"""Location of equilibrium points.

The axis equilibria are the roots of f(x) = Omega_x(x, 0) in the three
intervals the primaries leave free: left of the bigger primary, between
the primaries, and right of the smaller one.  Its derivative is

    f'(x) = Omega_xx(x, 0) = n^2 + 2 (1 - mu) q1 / |s|^3 + 2 mu / |u|^3
            + 6 mu A2 / |u|^5 + M_b (2 x^2 - T^2) / (x^2 + T^2)^{5/2}

with s = x + mu and u = x + mu - 1.  For q1 >= 0 only the belt term can be
negative, and only in the belt core |x| < T/sqrt(2).  Each interval is cut
into pieces at the ends of the dense sampling grids (the origin and the
belt knee -T/sqrt(2)); with a belt, the core is cut into CORE_CHUNKS
chunks a side.  On a piece [a, b] a lower bound of f' costs O(1): every
primary term at the end where it is smallest, and the belt term at the end
of the |x| range where it is smallest (it rises with |x| up to
T sqrt(3/2) and falls beyond).  A piece whose bound is positive is
monotone: it holds at most one root, and the signs of f at its two ends
decide it.  The other pieces (the core where the belt wins and, for
q1 < 0, the pieces next to the bigger primary) keep every point of the
dense grids: ``samples`` points per interval, and
max(samples, MIN_INNER_SAMPLES) on each side of the knee in (-mu, 0).  So
the scan sees every sign change that sampling those grids in full would.
All abscissae of one parameter set go through one collinear_f call, and
each sign change is polished by Brent's method on the scalar kernel
``model.grad_scalar``.

A sufficiently massive, sufficiently concentrated belt adds an inner
saddle/centre pair (Xb2, Xb1) between the bigger primary and the
barycentre; otherwise only L1, L2, L3 exist on the axis.

The triangular pair is seeded from closed-form radii and finished with a
2-D Newton iteration on the full gradient; where the seed does not exist
or does not converge, a continuation from the classical problem takes
over.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NoTriangularPointsError,
    ScanError,
    SingularPointError,
)
from .model import (
    BIGGER_PRIMARY,
    SINGULARITY_RADIUS,
    SMALLER_PRIMARY,
    SystemParams,
    force_scale,
    grad_scalar,
    omega_grad,
    omega_hessian,
)

# Scan geometry defaults.
X_MAX = 5.0
PRIMARY_GAP = 1e-9  # keep-out half-width around each primary abscissa
MIN_INNER_SAMPLES = 20000
CORE_CHUNKS = 8  # pieces per side of the belt core |x| < T/sqrt(2)

# A refined equilibrium's gradient residual is at most this fraction of the
# largest force term at the point (see require_refined).
RESIDUAL_TOL = 1e-12

COLLINEAR_KINDS = ("L1", "L2", "L3", "Xb1", "Xb2")
TRIANGULAR_KINDS = ("L4", "L5")


@dataclass(frozen=True)
class EquilibriumPoint:
    """A located equilibrium: kind label, coordinates, primary distances,
    and the gradient residual max(|Omega_x|, |Omega_y|) at (x, y)."""

    kind: str
    x: float
    y: float
    r1: float
    r2: float
    residual: float

    @property
    def is_collinear(self) -> bool:
        return self.kind in COLLINEAR_KINDS

    @property
    def is_triangular(self) -> bool:
        return self.kind in TRIANGULAR_KINDS


@dataclass(frozen=True)
class CollinearScan:
    """Record of one axis scan: the intervals searched, the per-interval
    sample counts, and the sign-change brackets found (disjoint, one root
    each).  A certified monotone piece is an interval of two samples, its
    ends; a sampled stretch has at least three."""

    intervals: tuple[tuple[float, float], ...]
    samples: tuple[int, ...]
    brackets: tuple[tuple[float, float], ...]


def require_refined(p: SystemParams, e: EquilibriumPoint) -> None:
    """Raise DomainError unless e's gradient residual is at most
    RESIDUAL_TOL of the largest force term at e (or of 1)."""
    if e.residual <= RESIDUAL_TOL:
        return
    scale = max(1.0, force_scale(p, e.x, e.y))
    if e.residual > RESIDUAL_TOL * scale:
        raise DomainError(
            f"point residual {e.residual:.3e} exceeds {RESIDUAL_TOL:g} of the "
            f"largest force term there ({scale:.3e}); refine it first"
        )


def _point(p: SystemParams, kind: str, x: float, y: float) -> EquilibriumPoint:
    gx, gy = grad_scalar(p, x, y)
    r1 = math.hypot(x + p.mu, y)
    r2 = math.hypot(x + p.mu - 1.0, y)
    return EquilibriumPoint(kind, x, y, r1, r2, max(abs(gx), abs(gy)))


def collinear_f(p: SystemParams, x):
    """Axis force balance f(x, 0); identical to Omega_x(x, 0).

    Written in the sign-resolved piecewise form so either side of each
    primary uses the correct branch.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    s = x + p.mu
    u = x + p.mu - 1.0
    if np.any(np.abs(s) < SINGULARITY_RADIUS):
        raise SingularPointError(BIGGER_PRIMARY, float(np.min(np.abs(s))))
    if np.any(np.abs(u) < SINGULARITY_RADIUS):
        raise SingularPointError(SMALLER_PRIMARY, float(np.min(np.abs(u))))
    w = x * x + p.t_belt**2
    if p.mb > 0.0 and np.any(w == 0.0):
        raise SingularPointError("belt centre (origin with t_belt = 0)", 0.0)
    val = (
        p.n2 * x
        - (1.0 - p.mu) * p.q1 * np.sign(s) / (s * s)
        - p.mu * np.sign(u) / (u * u)
        - 1.5 * p.mu * p.a2 * np.sign(u) / (u * u * u * u)
        - (p.mb * x / w**1.5 if p.mb else 0.0)
    )
    return float(val) if np.ndim(val) == 0 else val


class InnerPointCheck(NamedTuple):
    """Advisory diagnostic for the belt-induced inner pair: whether the belt
    knee lies inside (-mu, 0), and the force value f at the knee -T/sqrt(2).
    A positive f there (with f(0) < 0) proves the pair Xb1/Xb2 exists, but
    the converse fails: just past the onset both roots lie right of the knee
    and f there is still negative."""

    narrow_belt: bool
    f_at_knee: float


def inner_point_condition(p: SystemParams) -> InnerPointCheck:
    narrow = p.t_belt < math.sqrt(2.0) * p.mu
    knee = -p.t_belt / math.sqrt(2.0)
    return InnerPointCheck(narrow, collinear_f(p, knee))


def _belt_shape(t: float, r):
    """(2 r^2 - T^2) / (r^2 + T^2)^{5/2}, the belt's share of f' per unit
    mass at |x| = r."""
    w = r * r + t * t
    return (2.0 * r * r - t * t) / (w * w * np.sqrt(w))


def fprime_floor(p: SystemParams, a, b):
    """Lower bound of f'(x) = Omega_xx(x, 0) over each piece [a, b].

    a and b are arrays with a < b elementwise, and no piece may hold a
    primary.  1/|s|^3 and 1/|u|^3 are smallest at the end of a piece
    farther from their primary (nearer, for the term 2 (1 - mu) q1/|s|^3
    when q1 < 0).  The belt term rises with |x| up to T sqrt(3/2) and falls
    beyond, so on [min |x|, max |x|] it is smallest at one of the two.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s_a, s_b = np.abs(a + p.mu), np.abs(b + p.mu)
    u_far = np.maximum(np.abs(a + p.mu - 1.0), np.abs(b + p.mu - 1.0))
    c_big = 2.0 * (1.0 - p.mu) * p.q1
    s_big = np.maximum(s_a, s_b) if c_big >= 0.0 else np.minimum(s_a, s_b)
    big = c_big / s_big**3
    rest = p.n2 + 2.0 * p.mu / u_far**3 + 6.0 * p.mu * p.a2 / u_far**5
    belt = 0.0
    if p.mb:
        r_lo = np.where((a < 0.0) & (b > 0.0), 0.0, np.minimum(np.abs(a), np.abs(b)))
        r_hi = np.maximum(np.abs(a), np.abs(b))
        t = p.t_belt
        belt = p.mb * np.minimum(_belt_shape(t, r_lo), _belt_shape(t, r_hi))
    # less 1e-12 of the terms' magnitudes, which covers the sum's rounding
    return rest + big + belt - 1e-12 * (rest + np.abs(big) + np.abs(belt))


def _dense_grids(p: SystemParams, samples: int) -> list[tuple[float, float, int]]:
    """The dense scan's grids (lo, hi, n), np.linspace(lo, hi, n) each:
    ``samples`` points outside the inner interval (-mu, 0), and
    max(samples, MIN_INNER_SAMPLES) on each side of the knee inside it."""
    knee = -p.t_belt / math.sqrt(2.0)
    inner_n = max(samples, MIN_INNER_SAMPLES)
    grids = [(-X_MAX, -p.mu - PRIMARY_GAP, samples)]
    if -p.mu + PRIMARY_GAP < knee < 0.0:
        grids += [(-p.mu + PRIMARY_GAP, knee, inner_n), (knee, 0.0, inner_n)]
    else:
        grids.append((-p.mu + PRIMARY_GAP, 0.0, inner_n))
    grids.append((0.0, 1.0 - p.mu - PRIMARY_GAP, samples))
    grids.append((1.0 - p.mu + PRIMARY_GAP, X_MAX, samples))
    return [g for g in grids if g[0] < g[1]]


def _grid_points(grids, a: float, b: float) -> np.ndarray:
    """The dense grids' points strictly inside (a, b), in order, computed
    exactly as np.linspace computes them; the midpoint if there are none."""
    parts = []
    for lo, hi, n in grids:
        if hi <= a or lo >= b:
            continue
        step = (hi - lo) / (n - 1)
        i0 = max(0, math.floor((a - lo) / step))
        i1 = min(n, math.ceil((b - lo) / step) + 1)
        xs = np.arange(i0, i1, dtype=float) * step + lo
        if i1 == n:
            xs[-1] = hi
        parts.append(xs[(xs > a) & (xs < b)])
    pts = np.concatenate(parts) if parts else np.empty(0)
    return pts if pts.size else np.array([0.5 * (a + b)])


def scan_collinear(p: SystemParams, samples: int = MIN_INNER_SAMPLES) -> CollinearScan:
    """Bracket the roots of f(x, 0) in the three primary-free intervals:
    ends of the certified monotone pieces, dense samples elsewhere."""
    if samples < 8:
        raise DomainError("samples must be at least 8")
    if p.mb > 0.0 and p.t_belt == 0.0:
        raise DomainError(
            f"mb = {p.mb} > 0 with t_belt = 0 makes the belt a point mass at "
            "the origin, a third singular point of the axis force; the axis "
            "equilibria need t_belt > 0 when mb > 0"
        )
    grids = _dense_grids(p, samples)
    cuts = {lo for lo, _, _ in grids} | {hi for _, hi, _ in grids}
    if p.mb:
        cuts.update(p.t_belt / math.sqrt(2.0) * np.linspace(-1.0, 1.0, 2 * CORE_CHUNKS + 1))
    cuts = np.array(sorted(cuts))
    free = (
        (-X_MAX, -p.mu - PRIMARY_GAP),
        (-p.mu + PRIMARY_GAP, 1.0 - p.mu - PRIMARY_GAP),
        (1.0 - p.mu + PRIMARY_GAP, X_MAX),
    )
    ends = [
        np.concatenate(([lo], cuts[(cuts > lo) & (cuts < hi)], [hi]))
        for lo, hi in free
        if lo < hi
    ]
    a = np.concatenate([e[:-1] for e in ends])
    b = np.concatenate([e[1:] for e in ends])
    bound = fprime_floor(p, a, b)
    monotone = (bound > 0.0).tolist()

    intervals: list[tuple[float, float]] = []
    counts: list[int] = []
    xs_parts: list[np.ndarray] = []
    spans: list[tuple[int, int]] = []  # sample index range of each free interval
    k = 0
    n_total = 0
    for e in ends:
        first = n_total
        i, last = 0, len(e) - 1
        while i < last:
            j = i + 1
            if monotone[k + i]:
                pts = e[i:j]
            else:  # a run of uncertified pieces, sampled as one stretch
                while j < last and not monotone[k + j]:
                    j += 1
                pts = np.concatenate((e[i : i + 1], _grid_points(grids, e[i], e[j])))
            intervals.append((float(e[i]), float(e[j])))
            counts.append(len(pts) + 1)
            xs_parts.append(pts)
            n_total += len(pts)
            i = j
        xs_parts.append(e[last:])
        n_total += 1
        spans.append((first, n_total))
        k += last

    xs = np.concatenate(xs_parts)
    fs = collinear_f(p, xs)
    brackets: list[tuple[float, float]] = []
    for lo, hi in spans:
        x, f = xs[lo:hi], fs[lo:hi]
        for i in np.flatnonzero(f == 0.0):
            brackets.append((float(x[i]), float(x[i])))
        for i in np.flatnonzero(f[:-1] * f[1:] < 0.0):
            brackets.append((float(x[i]), float(x[i + 1])))
    brackets.sort()
    return CollinearScan(
        intervals=tuple(intervals),
        samples=tuple(counts),
        brackets=tuple(brackets),
    )


_EPS = sys.float_info.epsilon


def _brent(p: SystemParams, a: float, b: float) -> float:
    """Root of Omega_x(., 0) in the sign-change bracket [a, b] by Brent's
    method (Brent 1973, zeroin): inverse quadratic or secant steps,
    safeguarded by bisection, on the scalar kernel.  It stops when the
    bracket is within 4 ulp of its better end, which it returns."""

    def f(x):
        return grad_scalar(p, x, 0.0)[0]

    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        # the scan's sign change sits below the kernel's rounding
        return a if abs(fa) <= abs(fb) else b
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 1e-300
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                num, den = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                num = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            else:
                num = -num
            if 2.0 * num < min(3.0 * m * den - abs(tol * den), abs(e * den)):
                e, d = d, num / den
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)
    return b


def find_collinear(p: SystemParams, samples: int = MIN_INNER_SAMPLES) -> list[EquilibriumPoint]:
    """All axis equilibria, polished by Brent's method and labeled.

    Returns 3 points (L3, L1, L2) without a belt, and 5 (adding Xb2, Xb1)
    when the belt attraction splits the inner interval.  An unexpected root
    pattern raises ScanError.  Where a sampled stretch of the axis holds
    the unexpected count, more ``samples`` may resolve it; where only
    certified monotone pieces do, the count is exact.
    """
    scan = scan_collinear(p, samples)
    roots: list[float] = []
    for lo, hi in scan.brackets:
        r = lo if lo == hi else _brent(p, lo, hi)
        if not any(abs(r - other) < 1e-10 for other in roots):
            roots.append(r)
    left, middle, right = (
        sorted(r for r in roots if _side(p, r) == side) for side in (-1, 0, 1)
    )
    wrong = {
        side
        for side, found, ok in ((-1, left, (1,)), (0, middle, (1, 3)), (1, right, (1,)))
        if len(found) not in ok
    }
    if wrong:
        sampled = any(
            n > 2 and _side(p, 0.5 * (lo + hi)) in wrong
            for (lo, hi), n in zip(scan.intervals, scan.samples)
        )
        raise ScanError(
            f"unexpected root pattern (left={len(left)}, middle={len(middle)}, "
            f"right={len(right)})"
            + ("; increase samples" if sampled else "; the count is exact, "
               "every piece of the axis there is monotone")
        )
    labeled = [("L3", left[0]), ("L2", right[0])]
    if len(middle) == 1:
        labeled.append(("L1", middle[0]))
    else:
        # f rises from -inf right of the bigger primary, so the three roots
        # alternate up (Xb2), down (Xb1), up (L1) crossings; the labels
        # follow from the order alone.
        xb2, xb1, l1 = middle
        if not xb1 < 0.0 < l1:
            raise ScanError(
                f"inner roots {xb2:.6g}, {xb1:.6g}, {l1:.6g} are not ordered "
                "-mu < Xb2 < Xb1 < 0 < L1"
            )
        labeled += [("L1", l1), ("Xb1", xb1), ("Xb2", xb2)]
    points = [_point(p, kind, x, 0.0) for kind, x in labeled]
    return sorted(points, key=lambda e: e.x)


def _side(p: SystemParams, x: float) -> int:
    """-1 left of the bigger primary, 0 between the primaries, 1 right of
    the smaller one."""
    return -1 if x < -p.mu else (1 if x > 1.0 - p.mu else 0)


def refine_equilibrium(p: SystemParams, guess) -> EquilibriumPoint:
    """2-D Newton polish of an equilibrium guess.

    ``guess`` is an (x, y) pair or an EquilibriumPoint.  Converges when the
    gradient residual drops to 1e-13 or the Newton step to 1e-15, within 50
    iterations.  The residual must be decreasing over the first three
    iterations (basin check); a near-singular Hessian or divergence raises
    ConvergenceError carrying the iteration trace.
    """
    if isinstance(guess, EquilibriumPoint):
        x, y = guess.x, guess.y
    else:
        x, y = float(guess[0]), float(guess[1])
    trace: list[tuple[float, float, float]] = []
    for it in range(50):
        gx, gy = omega_grad(p, x, y)
        res = max(abs(gx), abs(gy))
        trace.append((x, y, res))
        if res <= 1e-13:
            break
        if it == 3 and trace[3][2] >= trace[0][2]:
            raise ConvergenceError(
                "guess not in a Newton basin (residual not decreasing)", trace
            )
        oxx, oxy, oyy = omega_hessian(p, x, y)
        det = oxx * oyy - oxy * oxy
        if abs(det) < 1e-14:
            raise ConvergenceError(
                f"degenerate Hessian (det = {det:.3e}) at iterate {it}", trace
            )
        dx = (oyy * gx - oxy * gy) / det
        dy = (oxx * gy - oxy * gx) / det
        x -= dx
        y -= dy
        if max(abs(dx), abs(dy)) <= 1e-15:
            break
    else:
        raise ConvergenceError("no convergence within 50 iterations", trace)
    if abs(y) <= 1e-12:
        y = 0.0  # collinear points carry y = 0 exactly
    return _point(p, _positional_kind(p, x, y), x, y)


def _positional_kind(p: SystemParams, x: float, y: float) -> str:
    if y > 1e-12:
        return "L4"
    if y < -1e-12:
        return "L5"
    if x < -p.mu:
        return "L3"
    if x > 1.0 - p.mu:
        return "L2"
    # Same rule as find_collinear: when f(0) < 0, a root in (-mu, 0) belongs
    # to the belt pair, Xb1 where f falls through zero (Omega_xx < 0) and Xb2
    # where it rises (Omega_xx > 0).  Otherwise it is a lone L1.
    if p.mb > 0.0 and p.t_belt > 0.0 and -p.mu < x < 0.0 and collinear_f(p, 0.0) < 0.0:
        oxx, _, _ = omega_hessian(p, x, 0.0)
        return "Xb1" if oxx < 0.0 else "Xb2"
    return "L1"


def _solve_r2(a2: float, rhs: float) -> float:
    """Root of 1/r^3 + (3/2) a2 / r^5 = rhs; monotone, safe Newton."""
    r = rhs ** (-1.0 / 3.0)
    if a2 == 0.0:
        return r
    for _ in range(60):
        g = r**-3 + 1.5 * a2 * r**-5 - rhs
        dg = -3.0 * r**-4 - 7.5 * a2 * r**-6
        step = g / dg
        r -= step
        if abs(step) <= 1e-16 * r:
            break
    return r


def triangular_analytic(
    p: SystemParams, radii: str = "consistent"
) -> tuple[EquilibriumPoint, EquilibriumPoint]:
    """Closed-form triangular pair via two-circle intersection.

    Two radii conventions are offered:

    * ``consistent`` (default): r1 and r2 solve the exact off-axis balance
      relations q1/r1^3 = 1/r2^3 + (3/2) a2/r2^5 = n^2 - mb/(rs^2 + T^2)^{3/2},
      seeding the belt radius at the unperturbed triangular distance
      rs^2 = (1 - mu) q1^{2/3} + mu^2 and then re-evaluating it once at the
      constructed point.  Exact at mb = 0; the residual error is higher than
      second order in mb, so the gap to the refined point shrinks at least
      quadratically when the belt mass is halved.
    * ``printed``: the first-order series radii
      r1 = q1^{1/3} [1 - a2/2 + (1 - 2 rc) mb (1 - 3 mu a2 / (2(1-mu))) / (3 (rc^2+T^2)^{3/2})],
      r2 = 1 + mu (1 - 2 rc) mb / (3 (rc^2+T^2)^{3/2})],
      kept for reproduction of the published series.

    Either way the coordinates follow from x + mu = (1 + r1^2 - r2^2)/2 and
    y^2 = r1^2 - (x + mu)^2; a negative y^2 means no off-axis equilibria
    exist for these parameters.
    """
    if p.q1 <= 0.0:
        raise DomainError("triangular points degenerate for q1 <= 0 (r1 -> 0)")
    if radii not in ("consistent", "printed"):
        raise DomainError(f"unknown radii convention {radii!r}")
    t2 = p.t_belt**2
    if radii == "printed":
        w3 = (p.rc**2 + t2) ** 1.5
        r1 = p.q1 ** (1.0 / 3.0) * (
            1.0
            - 0.5 * p.a2
            + (1.0 - 2.0 * p.rc)
            * p.mb
            * (1.0 - 1.5 * p.mu * p.a2 / (1.0 - p.mu))
            / (3.0 * w3)
        )
        r2 = 1.0 + p.mu * (1.0 - 2.0 * p.rc) * p.mb / (3.0 * w3)
    else:
        rs2 = (1.0 - p.mu) * p.q1 ** (2.0 / 3.0) + p.mu**2
        passes = 1 if p.mb == 0.0 else 2
        for _ in range(passes):
            rhs = p.n2 - p.mb / (rs2 + t2) ** 1.5
            if rhs <= 0.0:
                raise NoTriangularPointsError(
                    "belt attraction exceeds the rotational balance at the "
                    "reference radius; no off-axis equilibria"
                )
            r1 = (p.q1 / rhs) ** (1.0 / 3.0)
            r2 = _solve_r2(p.a2, rhs)
            xpm, y2 = _circle_cross(r1, r2)
            rs2 = y2 + (xpm - p.mu) ** 2
    xpm, y2 = _circle_cross(r1, r2)
    x = xpm - p.mu
    y = math.sqrt(y2)
    return _point(p, "L4", x, y), _point(p, "L5", x, -y)


def _circle_cross(r1: float, r2: float) -> tuple[float, float]:
    """Intersection of circles of radius r1 about the bigger primary and r2
    about the smaller (unit separation): abscissa measured from the bigger
    primary, and y^2."""
    xpm = 0.5 * (1.0 + r1 * r1 - r2 * r2)
    y2 = r1 * r1 - xpm * xpm
    if y2 <= 0.0:
        raise NoTriangularPointsError(
            f"circles r1 = {r1:.6g}, r2 = {r2:.6g} do not intersect off the "
            "axis; no triangular points for these parameters"
        )
    return xpm, y2


def find_triangular(p: SystemParams) -> tuple[EquilibriumPoint, EquilibriumPoint]:
    """Refined triangular pair; L5 is constructed as the exact mirror of L4
    (the potential is even in y, so the reflection is an identity, not an
    approximation).  The closed-form seed is tried first; where it does
    not exist or Newton leaves its basin, the continuation from the
    classical problem decides."""
    try:
        seed, _ = triangular_analytic(p)
        l4 = refine_equilibrium(p, seed)
        if l4.kind != "L4":
            raise ConvergenceError("refinement left the upper half-plane", [])
    except (ConvergenceError, NoTriangularPointsError):
        # no closed-form seed, or one outside the Newton basin; the point
        # may still exist, and the continuation decides
        l4 = _continuation_triangular(p)
    l5 = EquilibriumPoint("L5", l4.x, -l4.y, l4.r1, l4.r2, l4.residual)
    return l4, l5


def _continuation_triangular(p: SystemParams) -> EquilibriumPoint:
    """Walk the perturbations up from the classical problem with adaptive
    steps, re-refining at each stage.  Slow path; only used when the direct
    seed is missing or fails the basin check.

    A stage that keeps failing at arbitrarily small steps means the
    off-axis family has terminated (the point merges with the axis) before
    the requested parameters are reached; that is a no-triangular-points
    outcome, not a solver failure."""
    from dataclasses import replace

    guess = (0.5 - p.mu, math.sqrt(3.0) / 2.0)
    frac, step = 0.0, 0.25
    point = refine_equilibrium(p if _is_classical(p) else replace(p, q1=1.0, a2=0.0, mb=0.0), guess)
    stages = 0
    while frac < 1.0:
        stages += 1
        if stages > 200:
            raise ConvergenceError("continuation exceeded 200 stages", [])
        nxt = min(1.0, frac + step)
        stage = replace(
            p,
            q1=1.0 - nxt * (1.0 - p.q1),
            a2=nxt * p.a2,
            mb=nxt * p.mb,
        )
        try:
            cand = refine_equilibrium(stage, guess)
        except ConvergenceError:
            cand = None
        if cand is None or cand.kind != "L4":
            step *= 0.5
            if step < 1e-3:
                raise NoTriangularPointsError(
                    "off-axis equilibrium family terminates about "
                    f"{frac:.3f} of the way to the requested parameters; "
                    "no triangular points exist there"
                )
            continue
        frac, point = nxt, cand
        guess = (cand.x, cand.y)
        step = min(2.0 * step, 0.25)
    return point


def _is_classical(p: SystemParams) -> bool:
    return p.q1 == 1.0 and p.a2 == 0.0 and p.mb == 0.0


def find_all(p: SystemParams, samples: int = MIN_INNER_SAMPLES) -> list[EquilibriumPoint]:
    """Axis points plus the triangular pair (when the latter exist)."""
    points = find_collinear(p, samples)
    try:
        points.extend(find_triangular(p))
    except NoTriangularPointsError:
        pass
    return points
