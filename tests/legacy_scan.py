"""Test-only reference: the dense axis scan that equilibria.find_collinear
replaced.

It samples f(x, 0) = Omega_x(x, 0) at np.linspace points over five fixed
axis intervals (20,000 per interval by default), brackets every sign
change, polishes each bracket by bisection to floating-point exhaustion
and labels the roots by order.  The differential tests hold the certified
scan to it.
"""

import math

import numpy as np

from chermnykh.equilibria import (
    MIN_INNER_SAMPLES,
    PRIMARY_GAP,
    X_MAX,
    collinear_f,
)
from chermnykh.errors import DomainError, ScanError


def _bisect(p, lo, hi, flo, fhi):
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = collinear_f(p, mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo if abs(flo) <= abs(fhi) else hi


def dense_pieces(p, samples=MIN_INNER_SAMPLES):
    """The five dense intervals (lo, hi, n), sampled by np.linspace."""
    if samples < 8:
        raise DomainError("samples must be at least 8")
    knee = -p.t_belt / math.sqrt(2.0)
    inner_n = max(samples, MIN_INNER_SAMPLES)
    origin = -PRIMARY_GAP if (p.mb > 0.0 and p.t_belt == 0.0) else 0.0
    pieces = [(-X_MAX, -p.mu - PRIMARY_GAP, samples)]
    if -p.mu + PRIMARY_GAP < knee < origin:
        pieces.append((-p.mu + PRIMARY_GAP, knee, inner_n))
        pieces.append((knee, origin, inner_n))
    else:
        pieces.append((-p.mu + PRIMARY_GAP, origin, inner_n))
    pieces.append((abs(origin), 1.0 - p.mu - PRIMARY_GAP, samples))
    pieces.append((1.0 - p.mu + PRIMARY_GAP, X_MAX, samples))
    return pieces


def dense_brackets(p, samples=MIN_INNER_SAMPLES):
    """Sign-change brackets of f over the five dense intervals."""
    brackets = []
    for lo, hi, n in dense_pieces(p, samples):
        if not lo < hi:
            continue
        xs = np.linspace(lo, hi, n)
        fs = collinear_f(p, xs)
        for i in np.nonzero(fs == 0.0)[0]:
            brackets.append((float(xs[i]), float(xs[i])))
        for i in np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]:
            brackets.append((float(xs[i]), float(xs[i + 1])))
    return sorted(brackets)


def dense_find_collinear(p, samples=MIN_INNER_SAMPLES):
    """Labelled axis roots [(kind, x)] in axis order, as the dense scan
    found them; raises ScanError on the patterns it rejected."""
    roots = []
    for lo, hi in dense_brackets(p, samples):
        r = lo if lo == hi else _bisect(p, lo, hi, collinear_f(p, lo), collinear_f(p, hi))
        if not any(abs(r - other) < 1e-10 for other in roots):
            roots.append(r)
    left = sorted(r for r in roots if r < -p.mu)
    middle = sorted(r for r in roots if -p.mu < r < 1.0 - p.mu)
    right = sorted(r for r in roots if r > 1.0 - p.mu)
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
