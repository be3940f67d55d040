"""Test-only references for the axis scan.

The dense scan that equilibria.find_collinear replaced samples
f(x, 0) = Omega_x(x, 0) at np.linspace points over five fixed axis
intervals (DENSE_SAMPLES per interval), brackets every sign change,
polishes each bracket by bisection to floating-point exhaustion and labels
the roots by order.  It evaluates f with its own sign-resolved copy of the
axis force, so the reference does not run through the force kernel or the
scan it checks.  The differential tests hold the certified scan to it.

The certified scan one parameter set at a time (point_scan_collinear,
point_axis_roots) and the sweep row built on it (point_sweep_point) are
the per-point forms that the lane-batched scan, the lockstep Brent polish
and the lane-batched sweep replaced; the lane tests require the same
floats, bit for bit.
"""

import math
import warnings

import numpy as np

from chermnykh.equilibria import (
    FOLD_WIDTH,
    PRIMARY_GAP,
    SPLIT,
    X_MAX,
    CollinearScan,
    _axis_labels,
    _point,
    brent,
    collinear_f,
    find_triangular,
)
from chermnykh.errors import DomainError, NoTriangularPointsError, NumericalError, ScanError
from chermnykh.model import THIN_BELT, SystemParams, omega_grad
from chermnykh.stability import classify, triangular_frequencies

DENSE_SAMPLES = 20000


def axis_force(p, x):
    """f(x) = Omega_x(x, 0) in the sign-resolved piecewise form, so that
    either side of each primary takes the right branch.  Scalars or arrays."""
    x = np.asarray(x, dtype=float)
    s = x + p.mu
    u = x + p.mu - 1.0
    w = x * x + p.t_belt**2
    val = (
        p.n2 * x
        - (1.0 - p.mu) * p.q1 * np.sign(s) / (s * s)
        - p.mu * np.sign(u) / (u * u)
        - 1.5 * p.mu * p.a2 * np.sign(u) / (u * u * u * u)
        - (p.mb * x / w**1.5 if p.mb else 0.0)
    )
    return float(val) if np.ndim(val) == 0 else val


def axis_force_size(p, x):
    """The sum of the magnitudes of the terms of axis_force: its rounding
    is a few ulp of this."""
    x = np.asarray(x, dtype=float)
    s = x + p.mu
    u = x + p.mu - 1.0
    w = x * x + p.t_belt**2
    return (
        p.n2 * np.abs(x)
        + (1.0 - p.mu) * abs(p.q1) / (s * s)
        + p.mu / (u * u)
        + 1.5 * p.mu * p.a2 / (u * u * u * u)
        + (p.mb * np.abs(x) / w**1.5 if p.mb else 0.0)
    )


def polish(p, lo, hi):
    """The root of axis_force in the sign-change bracket [lo, hi], by
    bisection to floating-point exhaustion."""
    return lo if lo == hi else _bisect(p, lo, hi, axis_force(p, lo), axis_force(p, hi))


def _bisect(p, lo, hi, flo, fhi):
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = axis_force(p, mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo if abs(flo) <= abs(fhi) else hi


def dense_pieces(p):
    """The five dense intervals (lo, hi, n), sampled by np.linspace."""
    knee = -p.t_belt / math.sqrt(2.0)
    n = DENSE_SAMPLES
    origin = -PRIMARY_GAP if (p.mb > 0.0 and p.t_belt == 0.0) else 0.0
    pieces = [(-X_MAX, -p.mu - PRIMARY_GAP, n)]
    if -p.mu + PRIMARY_GAP < knee < origin:
        pieces.append((-p.mu + PRIMARY_GAP, knee, n))
        pieces.append((knee, origin, n))
    else:
        pieces.append((-p.mu + PRIMARY_GAP, origin, n))
    pieces.append((abs(origin), 1.0 - p.mu - PRIMARY_GAP, n))
    pieces.append((1.0 - p.mu + PRIMARY_GAP, X_MAX, n))
    return pieces


def dense_brackets(p):
    """Sign-change brackets of f over the five dense intervals."""
    brackets = []
    for lo, hi, n in dense_pieces(p):
        if not lo < hi:
            continue
        xs = np.linspace(lo, hi, n)
        fs = axis_force(p, xs)
        for i in np.nonzero(fs == 0.0)[0]:
            brackets.append((float(xs[i]), float(xs[i])))
        for i in np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]:
            brackets.append((float(xs[i]), float(xs[i + 1])))
    return sorted(brackets)


def dense_roots(p):
    """The distinct roots of f the dense scan finds, in axis order."""
    roots = []
    for lo, hi in dense_brackets(p):
        r = polish(p, lo, hi)
        if not any(abs(r - other) < 1e-10 for other in roots):
            roots.append(r)
    return sorted(roots)


def dense_find_collinear(p):
    """Labelled axis roots [(kind, x)] in axis order, as the dense scan
    found them; raises ScanError on the patterns it rejected, "not
    ordered" among them."""
    roots = dense_roots(p)
    left = [r for r in roots if r < -p.mu]
    middle = [r for r in roots if -p.mu < r < 1.0 - p.mu]
    right = [r for r in roots if r > 1.0 - p.mu]
    if len(left) != 1 or len(right) != 1 or len(middle) not in (1, 3):
        raise ScanError(
            f"unexpected root pattern (left={len(left)}, middle={len(middle)}, "
            f"right={len(right)})"
        )
    labeled = [("L3", left[0]), ("L2", right[0])]
    if len(middle) == 1:
        labeled.append(("L1", middle[0]))
    else:
        xb2, xb1, l1 = middle
        if not xb1 < 0.0 < l1:
            raise ScanError(f"inner roots {xb2:.6g}, {xb1:.6g}, {l1:.6g} are not ordered")
        labeled += [("L1", l1), ("Xb1", xb1), ("Xb2", xb2)]
    return sorted(labeled, key=lambda kx: kx[1])


# ---------------------------------------------------------------------------
# The certified scan, one parameter set at a time.


def _point_belt_term(p, r):
    t2 = p.t_belt**2
    w = r * r + t2
    return p.mb * ((2.0 * r * r - t2) / w / w / np.sqrt(w))


def point_fprime_bounds(p, a, b):
    """Floor and ceiling of Omega_xx(x, 0) over each piece [a, b], with
    the distances sorted and a branch on the sign of q1."""
    ends = np.array((a, b), dtype=float)
    s = np.abs(ends + p.mu)
    u = np.abs(ends + p.mu - 1.0)
    s.sort(axis=0)
    u.sort(axis=0)
    u = u[::-1]
    if p.q1 >= 0.0:
        s = s[::-1]
    big = 2.0 * (1.0 - p.mu) * p.q1 / (s * s * s)
    small = (2.0 * p.mu + 6.0 * p.mu * p.a2 / (u * u)) / (u * u * u)
    total = p.n2 + big + small
    size = p.n2 + np.abs(big) + small
    if p.mb:
        a, b = ends
        r_lo = np.maximum(np.maximum(a, -b), 0.0)
        r_hi = np.maximum(-a, b)
        peak = np.minimum(np.maximum(p.t_belt * math.sqrt(1.5), r_lo), r_hi)
        belt = _point_belt_term(p, np.array((r_lo, r_hi, peak)))
        belt = np.array((np.minimum(belt[0], belt[1]), belt[2]))
        total = total + belt
        size = size + np.abs(belt)
    return total[0] - 1e-12 * size[0], total[1] + 1e-12 * size[1]


def point_scan_collinear(p):
    """The certified subdivision of the three free intervals of p alone."""
    if p.mb > 0.0 and p.t_belt < THIN_BELT:
        raise DomainError(
            f"mb = {p.mb} > 0 with t_belt = {p.t_belt} makes the belt a point "
            "mass at the origin, a third singular point of the axis force; the "
            f"axis equilibria need t_belt >= {THIN_BELT:g} when mb > 0"
        )
    free = (
        (-X_MAX, -p.mu - PRIMARY_GAP),
        (-p.mu + PRIMARY_GAP, 1.0 - p.mu - PRIMARY_GAP),
        (1.0 - p.mu + PRIMARY_GAP, X_MAX),
    )
    knee = -p.t_belt / math.sqrt(2.0)
    ends = [
        [lo, *(c for c in (knee, 0.0) if lo < c < hi), hi] for lo, hi in free if lo < hi
    ]
    a = np.array([x for e in ends for x in e[:-1]])
    b = np.array([x for e in ends for x in e[1:]])
    done_a, done_b = [], []
    while a.size:
        floor, ceiling = point_fprime_bounds(p, a, b)
        scale = np.minimum(np.abs(a + p.mu), np.abs(a + p.mu - 1.0))
        if p.mb:
            scale = np.minimum(scale, p.t_belt)
        split = (floor <= 0.0) & (ceiling >= 0.0)
        split &= b - a > np.maximum(FOLD_WIDTH * scale, 1e-14 * np.abs(a))
        keep = ~split
        done_a.append(a[keep])
        done_b.append(b[keep])
        a, b = a[split], b[split]
        grid = a[:, None] + ((b - a)[:, None] / SPLIT) * np.arange(SPLIT + 1)
        grid[:, -1] = b
        a, b = grid[:, :-1].ravel(), grid[:, 1:].ravel()

    a, b = np.concatenate(done_a), np.concatenate(done_b)
    order = np.argsort(a)
    a, b = a[order], b[order]
    floor, ceiling = point_fprime_bounds(p, a, b)
    fold = (floor <= 0.0) & (ceiling >= 0.0)
    xs = np.unique(np.concatenate((a, b, 0.5 * (a[fold] + b[fold]))))
    fs = collinear_f(p, xs)
    side = (xs > -p.mu).astype(int) + (xs > 1.0 - p.mu)
    i = np.flatnonzero(fs)
    i, j = i[:-1], i[1:]
    change = ((fs[i] > 0.0) != (fs[j] > 0.0)) & (side[i] == side[j])
    i, j = i[change], j[change]
    zero = j > i + 1
    m = (i + j) // 2
    lo, hi = np.where(zero, xs[m], xs[i]), np.where(zero, xs[m], xs[j])
    return CollinearScan(
        intervals=tuple(zip(a.tolist(), b.tolist())),
        samples=tuple(np.where(fold, 3, 2).tolist()),
        brackets=tuple(zip(lo.tolist(), hi.tolist())),
    )


def point_axis_roots(p):
    """The brackets of point_scan_collinear, each polished by the scalar
    Brent on the float kernel."""

    def f(x):
        return omega_grad(p, x, 0.0)[0]

    return [
        lo if lo == hi else brent(f, lo, hi, f(lo), f(hi))
        for lo, hi in point_scan_collinear(p).brackets
    ]


def _point_find_all(p):
    points = [_point(p, kind, x, 0.0) for kind, x in _axis_labels(p, point_axis_roots(p))]
    try:
        points.extend(find_triangular(p))
    except NoTriangularPointsError:
        pass
    return points


def point_sweep_point(task):
    """One sweep row, computed on its own."""
    mu, q1, a2, mb, t_belt, rc = task
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        row = (mu, q1, a2, mb)
        note = []
        try:
            p = SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=t_belt, rc=rc)
        except (DomainError, NumericalError) as exc:
            return _point_row(row, None, None, f"invalid parameters: {exc}")
        axis_x = {}
        points = []
        try:
            points = _point_find_all(p)
            for e in points:
                if e.is_collinear:
                    axis_x[e.kind] = e.x
        except (DomainError, NumericalError) as exc:
            note.append(f"equilibria failed: {exc}")
            try:
                points = list(find_triangular(p))
            except (DomainError, NumericalError):
                pass
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
        elif q1 == 0.0:
            try:
                freqs = triangular_frequencies(p)
                l4_class = "LinearlyStable"
            except (DomainError, NumericalError):
                pass
        return _point_row(row, axis_x, freqs, "; ".join(note), l4_class)


def _point_row(base, axis_x, freqs, note, l4_class=""):
    axis_x = axis_x or {}
    w1, w2 = (freqs if freqs else (None, None))
    return (
        *base,
        len(axis_x),
        axis_x.get("L1"), axis_x.get("L2"), axis_x.get("L3"),
        axis_x.get("Xb1"), axis_x.get("Xb2"),
        w1, w2, l4_class, note,
    )


def point_sweep_tasks(cfg):
    """The sweep's parameter points in row order."""
    axes = [
        cfg.sweep_mu or (cfg.mu,),
        cfg.sweep_q1 or (cfg.q1,),
        cfg.sweep_a2 or (cfg.a2,),
        cfg.sweep_mb or (cfg.mb,),
    ]
    return [
        (mu, q1, a2, mb, cfg.t_belt, cfg.rc)
        for mu in axes[0]
        for q1 in axes[1]
        for a2 in axes[2]
        for mb in axes[3]
    ]
