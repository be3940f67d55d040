"""Test-only reference: the dense axis scan that equilibria.find_collinear
replaced.

It samples f(x, 0) = Omega_x(x, 0) at np.linspace points over five fixed
axis intervals (DENSE_SAMPLES per interval), brackets every sign change,
polishes each bracket by bisection to floating-point exhaustion and labels
the roots by order.  It evaluates f with its own sign-resolved copy of the
axis force, so the reference does not run through the force kernel or the
scan it checks.  The differential tests hold the certified scan to it.
"""

import math

import numpy as np

from chermnykh.equilibria import PRIMARY_GAP, X_MAX
from chermnykh.errors import ScanError

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
