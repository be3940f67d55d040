"""Location of equilibrium points.

The axis equilibria are the roots of f(x) = Omega_x(x, 0) in the three
intervals the primaries leave free: left of the bigger primary, between
the primaries, and right of the smaller one.  Its derivative is

    f'(x) = Omega_xx(x, 0) = n^2 + 2 (1 - mu) q1 / |s|^3 + 2 mu / |u|^3
            + 6 mu A2 / |u|^5 + M_b (2 x^2 - T^2) / (x^2 + T^2)^{5/2}

with s = x + mu and u = x + mu - 1.  On a piece [a, b], fprime_bounds
gives a floor and a ceiling of f' in O(1) (Moore-style interval bounds):
each primary term at its far or near end, and the belt term at the ends
of the |x| range or at T sqrt(3/2), where it peaks.  A piece whose floor
is positive or whose ceiling is negative is monotone: it holds at most one
root, and the signs of f at its two ends decide it.

scan_collinear scans one parameter set, or a list of them at once, a lane
each, on flat piece arrays that carry a lane index.  It starts from the
free intervals cut at the origin and at the belt knee -T/sqrt(2), and
splits each piece that neither bound certifies into SPLIT equal parts, a
whole level of pieces per numpy call, until every piece is monotone,
root-free or a fold piece.  A piece it would split is root-free when f at
its ends has one sign and |f(a)| + |f(b)|, less f's rounding, exceeds
S (b - a), S = max(|floor|, |ceiling|): |f(x) - f(a)| <= S (x - a), the
mean-value form of Moore's interval extension (Moore 1966), so f has no
root there, and a piece with a root is never root-free.  A fold piece is
one where f' may change sign, narrower than FOLD_WIDTH of T and of its
distance to the nearer primary.  Across it f stays within (1/2) max|f''|
width^2 of its value at any point, about 1e-18 of the largest force term
there and so below the rounding of f; its midpoint stands for the
extremum, and the signs of f at its ends and midpoint decide whether it
holds no root, one or a pair.  The count is therefore exact to rounding.
Brent's method polishes each sign change on floats for one lane (brent),
or all of a batch's in lockstep (brent_lanes): the kernel's floats, and so
the roots, are the same bit for bit.  find_collinear and find_all take a
list of lanes in the same way, one parameter set being a block of one
lane; find_all solves the triangular points' _Crossings once per (q1, A2)
of the list.  The scan keeps out only PRIMARY_GAP = 2 SINGULARITY_RADIUS
about each primary, the radius check_regular refuses with a rounding margin.

Labels follow the crossing direction (_axis_labels).  For q1 > 0, f runs
from -inf to +inf across each free interval, so the outer ones hold L3
and L2, and the middle one holds L1 alone or three roots crossing up,
down and up: Xb2, Xb1 and L1.  A sufficiently massive, sufficiently
concentrated belt adds that saddle/centre pair (Xb2, Xb1).  For q1 <= 0
the bigger primary has no attracting pole, and no labelling exists.

Off the axis, Omega_y = Omega_x = 0 reduce exactly (the belt term cancels)
to q1/r1^3 = 1/r2^3 + (3/2) A2/r2^5, so r1 rises with r2, and the
triangular points are the roots of F(r2) = n^2 - M_b/(r^2 + T^2)^{3/2} -
1/r2^3 - (3/2) A2/r2^5 on the r2 interval where the circles r1 and r2 about
the primaries cross.  F is strictly increasing (README, "How off-axis
points are found"); find_triangular takes the interval's two ends and F's
root with brent, and F's sign at an end certifies that L4 and L5 have
merged into the axis there when there is no root.  L4 is the point of F's
root as it stands, once check_regular, the on-axis rule and require_refined
accept it: Brent's method is the module's one root finder.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NoTriangularPointsError, NumericalError, ScanError
from .model import (
    SINGULARITY_RADIUS,
    THIN_BELT,
    LaneParams,
    SystemParams,
    check_regular,
    force_scale,
    force_terms,
    kernel,
    omega_grad,
    omega_hessian,
)

# Scan geometry defaults.
X_MAX = 5.0
# keep-out half-width around each primary abscissa: the singularity guard's
# radius, doubled so that the rounding of x + mu keeps every piece end outside it
PRIMARY_GAP = 2.0 * SINGULARITY_RADIUS
SPLIT = 16  # subpieces of each piece the Omega_xx bounds leave open
FOLD_WIDTH = 1e-9  # fold pieces are narrower than this fraction of their scale
LANE_BLOCK = 64  # most lanes per scan_collinear call, which bounds its memory

# A refined equilibrium's gradient residual is at most this fraction of the
# largest force term at the point (see require_refined).
RESIDUAL_TOL = 1e-12
_EPS = sys.float_info.epsilon

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
    """Record of one axis scan: the pieces it ends with, in axis order; the
    f evaluations per piece, 2 (its ends) for a monotone or root-free piece
    and 3 (ends and midpoint) for a fold piece; and the sign-change
    brackets found (disjoint, one root each)."""

    intervals: tuple[tuple[float, float], ...]
    samples: tuple[int, ...]
    brackets: tuple[tuple[float, float], ...]


def require_refined(p: SystemParams, e: EquilibriumPoint) -> None:
    """Raise DomainError unless e's gradient residual is at most
    RESIDUAL_TOL of the largest force term at e (or of 1), plus what the
    force changes over a few ulp of e's coordinates: next to a primary the
    nearest floats to a root can miss it by more than the first part."""
    if e.residual <= RESIDUAL_TOL:
        return
    scale = max(1.0, force_scale(p, e.x, e.y))
    ulp_change = 4.0 * _EPS * max(abs(e.x), abs(e.y)) * max(map(abs, omega_hessian(p, e.x, e.y)))
    if e.residual > RESIDUAL_TOL * scale + ulp_change:
        raise DomainError(
            f"point residual {e.residual:.3e} exceeds {RESIDUAL_TOL:g} of the "
            f"largest force term there ({scale:.3e}) plus its change over 4 ulp "
            f"of the point ({ulp_change:.3e}); refine it first"
        )


def _point(p: SystemParams, kind: str, x: float, y: float, grad=None) -> EquilibriumPoint:
    gx, gy = grad or omega_grad(p, x, y)  # grad: the gradient at (x, y) if known
    r1 = math.hypot(x + p.mu, y)
    r2 = math.hypot(x + p.mu - 1.0, y)
    return EquilibriumPoint(kind, x, y, r1, r2, max(abs(gx), abs(gy)))


def collinear_f(p: SystemParams, x):
    """Axis force balance f(x) = Omega_x(x, 0): the force kernel behind
    check_regular.  Accepts scalars or arrays."""
    return omega_grad(p, x, 0.0)[0]


def fprime_bounds(p, a, b):
    """Lower and upper bounds (floor, ceiling) of f'(x) = Omega_xx(x, 0)
    over each piece [a, b], for a SystemParams or a LaneParams p.

    a and b are floats or arrays with a <= b elementwise, and no piece may
    hold a primary.  1/|s|^3 and 1/|u|^3 fall with the distance from their
    primary, so each primary term is smallest at one end of the piece and
    largest at the other.  The belt term rises with
    |x| up to T sqrt(3/2) and falls beyond, so on [min |x|, max |x|] it is
    smallest at one of the two ends and largest at T sqrt(3/2) clipped to
    the range.
    """
    ends = np.array((a, b), dtype=float)
    s = np.abs(ends + p.mu)
    u = np.abs(ends + p.mu - 1.0)
    big = 2.0 * (1.0 - p.mu) * p.q1 / (s * s * s)
    small = (2.0 * p.mu + 6.0 * p.mu * p.a2 / (u * u)) / (u * u * u)
    # the floor takes each term's smaller end value, the ceiling its larger
    terms = np.array((np.minimum(*big), np.maximum(*big), np.minimum(*small), np.maximum(*small)))
    total = p.n2 + terms[:2] + terms[2:]
    size = p.n2 + np.abs(terms[:2]) + terms[2:]
    if type(p.mb) is np.ndarray or p.mb:  # lanes, or a belt
        a, b = ends
        r_lo = np.maximum(np.maximum(a, -b), 0.0)  # 0 if the piece holds the origin
        r_hi = np.maximum(-a, b)
        peak = np.minimum(np.maximum(p.t_belt * math.sqrt(1.5), r_lo), r_hi)
        r = np.array((r_lo, r_hi, peak))
        # M_b (2 r^2 - T^2) / w^{5/2}, w = r^2 + T^2, dividing by w one factor at
        # a time: w^2 sqrt(w) would underflow for T below ~1e-65 >= THIN_BELT
        w = r * r + p.t2
        belt = p.mb * ((2.0 * r * r - p.t2) / w / w / np.sqrt(w))
        belt = np.array((np.minimum(belt[0], belt[1]), belt[2]))
        total = total + belt
        size = size + np.abs(belt)
    # widened by 1e-12 of the terms' magnitudes, which covers the sum's rounding
    return total[0] - 1e-12 * size[0], total[1] + 1e-12 * size[1]


def _root_free(q, a, b, slope):
    """Whether f keeps one sign on each piece [a, b], given slope >= max |f'|
    there: |f(x) - f(a)| <= slope (x - a) (the mean-value form, Moore 1966),
    so f has no root if |f(a)| + |f(b)| exceeds slope (b - a) by more than
    f's rounding, 1e-12 of its terms' magnitudes at both ends."""
    x = np.array((a, b))
    fa, fb = kernel(q, x, 0.0, 1)[0]
    size = sum(force_terms(q, x, 0.0))
    return ((fa > 0.0) == (fb > 0.0)) & (fa != 0.0) & (fb != 0.0) & (
        np.abs(fa) + np.abs(fb) - 1e-12 * (size[0] + size[1]) > (1.0 + 1e-12) * slope * (b - a))


# The record of a scan of lanes, flat and sorted by lane, then along the axis: pieces [a, b] with
# lanes and samples (as in CollinearScan); brackets [lo, hi] with lanes; the LaneParams; each
# refused lane's DomainError.
LaneScan = namedtuple("LaneScan", "lane a b samples bracket_lane lo hi params failed")


def _scan_lanes(ps) -> LaneScan:
    """Bracket the axis roots of at most LANE_BLOCK parameter sets, a lane each,
    by one certified subdivision of all of them (module docstring).  f needs no
    check_regular: points keep PRIMARY_GAP, and belts below THIN_BELT are refused."""
    failed, a, b, lane = {}, [], [], []
    for k, p in enumerate(ps):
        if p.mb > 0.0 and p.t_belt < THIN_BELT:
            failed[k] = DomainError(
                f"mb = {p.mb} > 0 with t_belt = {p.t_belt} makes the belt a point mass at the "
                "origin, a third singular point of the axis force; the axis equilibria "
                f"need t_belt >= {THIN_BELT:g} when mb > 0")
            continue
        knee, gap = -p.t_belt / math.sqrt(2.0), PRIMARY_GAP
        for lo, hi in ((-X_MAX, -p.mu - gap), (-p.mu + gap, 1.0 - p.mu - gap),
                       (1.0 - p.mu + gap, X_MAX)):
            ends = [lo, *(c for c in (knee, 0.0) if lo < c < hi), hi]
            a += ends[:-1]
            b += ends[1:]
            lane += [k] * (len(ends) - 1)
    params = LaneParams.of(ps)
    a, b, lane = np.array(a, dtype=float), np.array(b, dtype=float), np.array(lane, dtype=int)
    done = []
    while True:
        q = params.at(lane)
        floor, ceiling = fprime_bounds(q, a, b)
        fold = (floor <= 0.0) & (ceiling >= 0.0)
        # split what neither bound certifies, down to FOLD_WIDTH of the
        # distance to the nearer primary and of T (or a few dozen ulp)
        scale = np.minimum(np.minimum(np.abs(a + q.mu), np.abs(a + q.mu - 1.0)), q.t_belt)
        split = fold & (b - a > np.maximum(FOLD_WIDTH * scale, 1e-14 * np.abs(a)))
        i = np.flatnonzero(split)
        if i.size:  # of these, the root-free pieces stop: ends only, as fold = False
            free = _root_free(params.at(lane[i]), a[i], b[i], np.maximum(np.abs(floor[i]), np.abs(ceiling[i])))
            split[i[free]] = fold[i[free]] = False
        keep = ~split
        done.append((lane[keep], a[keep], b[keep], fold[keep]))
        if not split.any():
            break
        a, b, lane = a[split], b[split], np.repeat(lane[split], SPLIT)
        grid = a[:, None] + ((b - a)[:, None] / SPLIT) * np.arange(SPLIT + 1)
        grid[:, -1] = b
        a, b = grid[:, :-1].ravel(), grid[:, 1:].ravel()

    lane, a, b, fold = (np.concatenate(v) for v in zip(*done))
    del done
    order = np.lexsort((a, lane))  # by lane, then along the axis
    lane, a, b, fold = lane[order], a[order], b[order], fold[order]
    # f at each piece's start, its midpoint if it is a fold piece and its end
    # if no piece starts there: in axis order, lane by lane, and in slices of
    # 2048 points; one lane ends at X_MAX and the next starts at -X_MAX
    ends = np.ones(a.size, dtype=bool)
    ends[:-1] = b[:-1] != a[1:]
    xs = np.stack((a, 0.5 * (a + b), b), axis=1)[np.stack((np.ones_like(fold), fold, ends), 1)]
    xl = np.repeat(lane, 1 + fold + ends)
    new = np.ones(xs.size, dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    xs, xl = xs[new], xl[new]
    fs = np.concatenate([kernel(params.at(xl[i:i + 2048]), xs[i:i + 2048], 0.0, 1)[0]
                         for i in range(0, max(xs.size, 1), 2048)])
    # a root per sign change between neighbouring nonzero values on one side
    # of the primaries, so not across lanes; a zero of f between them is the root
    i = np.flatnonzero(fs)
    i, j = i[:-1], i[1:]
    change = (fs[i] > 0.0) != (fs[j] > 0.0)
    i, j = i[change], j[change]
    mu = np.take(params.mu, xl[i])
    side = ((xs[i] > -mu) == (xs[j] > -mu)) & ((xs[i] > 1.0 - mu) == (xs[j] > 1.0 - mu))
    i, j = i[side], j[side]
    zero = j > i + 1
    m = (i + j) // 2
    lo, hi = np.where(zero, xs[m], xs[i]), np.where(zero, xs[m], xs[j])
    return LaneScan(lane, a, b, 2 + fold, xl[i], lo, hi, params, failed)


def scan_collinear(p):
    """Bracket the axis roots of p by certified subdivision (module docstring).

    p is a SystemParams, whose CollinearScan comes back (a belt thinner than
    THIN_BELT raises DomainError), or a list of at most LANE_BLOCK of them,
    scanned at once, a lane each, whose LaneScan comes back."""
    if not isinstance(p, SystemParams):
        return _scan_lanes(p)
    s = _scan_lanes([p])
    if s.failed:
        raise s.failed[0]
    intervals, brackets = zip(s.a.tolist(), s.b.tolist()), zip(s.lo.tolist(), s.hi.tolist())
    return CollinearScan(tuple(intervals), tuple(s.samples.tolist()), tuple(brackets))


def brent(f, a: float, b: float, fa: float, fb: float, atol: float = 1e-300) -> float:
    """Root of f in the bracket [a, b], where fa = f(a) and fb = f(b) differ
    in sign, by Brent's method (Brent 1973, zeroin): inverse quadratic or
    secant steps, safeguarded by bisection.  It stops when the bracket is
    within 4 ulp + 2 atol of its better end, which it returns.
    brent_lanes is the same method on arrays of brackets."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + atol
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


def brent_lanes(f, a, b, fa, fb, atol: float = 1e-300) -> np.ndarray:
    """brent on arrays of brackets in lockstep, branches as masks: each takes
    brent's IEEE operations on it alone, so its root is brent's bit for bit.
    f(k, x) is f at x for the brackets of index array k."""
    root = np.where(fa == 0.0, a, b)
    k = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    a, b, fa, fb = a[k], b[k], fa[k], fb[k]
    c, fc, d, e = a, fa, b - a, b - a
    with np.errstate(all="ignore"):  # in branches not taken
        for _ in range(200):
            reset = (fb > 0.0) == (fc > 0.0)
            c, fc, d, e = (np.where(reset, *u) for u in ((a, c), (fa, fc), (b - a, d), (b - a, e)))
            swap = np.abs(fc) < np.abs(fb)
            a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
            fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
            tol = 2.0 * _EPS * np.abs(b) + atol
            m = 0.5 * (c - b)
            stop = (np.abs(m) <= tol) | (fb == 0.0)
            root[k[stop]] = b[stop]
            k, a, b, c, fa, fb, fc, d, e, tol, m = (
                v[~stop] for v in (k, a, b, c, fa, fb, fc, d, e, tol, m))
            if not k.size:
                break
            s, q, r = fb / fa, fa / fc, fb / fc
            num = np.where(a == c, 2.0 * m * s, s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0)))
            den = np.where(a == c, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            num, den = np.where(num > 0.0, num, -num), np.where(num > 0.0, -den, den)
            # Python's min(x, y) is y only where y < x
            x, y = 3.0 * m * den - np.abs(tol * den), np.abs(e * den)
            step = ~((np.abs(e) < tol) | (np.abs(fa) <= np.abs(fb)))
            step &= 2.0 * num < np.where(y < x, y, x)
            e, d = np.where(step, d, m), np.where(step, num / den, m)
            a, fa, b = b, fb, b + np.where(np.abs(d) > tol, d, np.where(m > 0.0, tol, -tol))
            fb = f(k, b)
    root[k] = b
    return root


def _lane_roots(s: LaneScan, n: int) -> list:
    """Per lane of the scan s of n lanes, its axis roots, or its DomainError: f
    differs in sign at each bracket's ends, as the scan took its signs from the
    kernel; brent polishes a lone lane's on floats, brent_lanes a block's."""
    if n == 1:
        def f(x):
            return kernel(s.params, x, 0.0, 1)[0]

        roots = [brent(f, lo, hi, f(lo), f(hi)) for lo, hi in zip(s.lo.tolist(), s.hi.tolist())]
    else:
        def f(k, x):
            return kernel(s.params.at(s.bracket_lane[k]), x, 0.0, 1)[0]

        k = np.arange(s.lo.size)
        roots = brent_lanes(f, s.lo, s.hi, f(k, s.lo), f(k, s.hi)).tolist()
    out = [s.failed.get(i, []) for i in range(n)]
    for i, x in zip(s.bracket_lane.tolist(), roots):
        out[i].append(x)
    return out


def _per_lane(step, ps, results) -> list:
    """step(p, r) for each lane's p and earlier result r, or the DomainError or
    NumericalError that stops the lane; an earlier one passes through."""
    out = []
    for p, r in zip(ps, results):
        try:
            out.append(r if isinstance(r, Exception) else step(p, r))
        except (DomainError, NumericalError) as exc:
            out.append(exc)
    return out


def _axis_labels(p: SystemParams, roots) -> list[tuple[str, float]]:
    """Label the axis roots by the direction in which f crosses zero.

    For q1 > 0, f runs from -inf to +inf across each free interval.  So the
    left and right ones hold L3 and L2, and the middle one holds L1 alone or
    three roots crossing up, down and up: Xb2, Xb1 and L1.  Any other
    pattern raises ScanError; the scan's count is exact, so its message
    says why the pattern has no labelling."""
    left, middle, right = (
        sorted(r for r in roots if _side(p, r) == side) for side in (-1, 0, 1)
    )
    pattern = (
        f"unexpected root pattern (left={len(left)}, middle={len(middle)}, "
        f"right={len(right)})"
    )
    if p.q1 <= 0.0:
        raise ScanError(
            f"{pattern}: q1 = {p.q1:g} "
            + ("removes" if p.q1 == 0.0 else "turns round")
            + " the bigger primary's pole, so f need not run from -inf to +inf "
            "between the primaries, and the roots have no L1-L3 labelling"
        )
    if len(left) != 1 or len(right) != 1 or len(middle) not in (1, 3):
        raise ScanError(
            f"{pattern}: the count is exact, and only one root on each outer "
            "side with one or three between the primaries has an L1-L3 labelling"
        )
    kinds = ("L1",) if len(middle) == 1 else ("Xb2", "Xb1", "L1")
    return [("L3", left[0]), *zip(kinds, middle), ("L2", right[0])]


def find_collinear(p) -> list:
    """All axis equilibria, polished by Brent's method and labeled by
    crossing direction (_axis_labels), in axis order.

    Returns 3 points (L3, L1, L2) without a belt, and 5 (adding Xb2, Xb1)
    when the belt attraction splits the inner interval.  A root pattern
    with no labelling raises ScanError.  For a list of parameter sets, as
    for scan_collinear, one scan and one polish (_lane_roots) serve them
    all, and each lane gets its points or the error that stopped them
    (_per_lane); one parameter set is a block of one lane, whose error is
    raised.
    """
    ps = [p] if isinstance(p, SystemParams) else p
    s = scan_collinear(ps)
    labels = _per_lane(_axis_labels, ps, _lane_roots(s, len(ps)))
    # the residuals of all labelled roots from one kernel call; scan roots
    # keep PRIMARY_GAP from the primaries, so check_regular would pass them
    lane = [k for k, kx in enumerate(labels) if type(kx) is list for _ in kx]
    xs = [x for kx in labels if type(kx) is list for _, x in kx]
    gx, gy = kernel(s.params.at(np.array(lane, dtype=int)), np.array(xs), 0.0, 1)
    grads = iter(zip(gx.tolist(), gy.tolist()))
    out = [kx if type(kx) is not list else [_point(q, kind, x, 0.0, next(grads)) for kind, x in kx]
           for q, kx in zip(ps, labels)]
    if ps is not p and isinstance(out[0], Exception):
        raise out[0]
    return out if ps is p else out[0]


def _side(p: SystemParams, x: float) -> int:
    """-1 left of the bigger primary, 0 between the primaries, 1 right of
    the smaller one."""
    return -1 if x < -p.mu else (1 if x > 1.0 - p.mu else 0)


def triangular_analytic(
    p: SystemParams, radii: str = "consistent"
) -> tuple[EquilibriumPoint, EquilibriumPoint]:
    """Triangular pair from closed-form radii and the two-circle intersection.

    * ``consistent`` (default): the exact radii, find_triangular's pair.
    * ``printed``: the first-order series radii
      r1 = q1^{1/3} [1 - a2/2 + (1 - 2 rc) mb (1 - 3 mu a2 / (2(1-mu))) / (3 (rc^2+T^2)^{3/2})],
      r2 = 1 + mu (1 - 2 rc) mb / (3 (rc^2+T^2)^{3/2})],
      kept for reproduction of the published series; circles that miss
      off the axis raise NoTriangularPointsError.
    """
    if radii not in ("consistent", "printed"):
        raise DomainError(f"unknown radii convention {radii!r}")
    if radii == "consistent" or p.q1 <= 0.0:  # find_triangular refuses q1 <= 0
        return find_triangular(p)
    w3 = (p.rc**2 + p.t2) ** 1.5
    r1 = p.q1 ** (1.0 / 3.0) * (
        1.0
        - 0.5 * p.a2
        + (1.0 - 2.0 * p.rc)
        * p.mb
        * (1.0 - 1.5 * p.mu * p.a2 / (1.0 - p.mu))
        / (3.0 * w3)
    )
    r2 = 1.0 + p.mu * (1.0 - 2.0 * p.rc) * p.mb / (3.0 * w3)
    xpm, y2 = _circle_cross(r1, r2)
    if y2 <= 0.0:
        raise NoTriangularPointsError(
            f"circles r1 = {r1:.6g}, r2 = {r2:.6g} do not intersect off the "
            "axis; no triangular points for these parameters"
        )
    x = xpm - p.mu
    y = math.sqrt(y2)
    return _point(p, "L4", x, y), _point(p, "L5", x, -y)


def _circle_cross(r1: float, r2: float) -> tuple[float, float]:
    """Intersection of circles of radius r1 about the bigger primary and r2
    about the smaller (unit separation): abscissa measured from the bigger
    primary, and y^2, which is not positive where they miss off the axis."""
    xpm = 0.5 * (1.0 + r1 * r1 - r2 * r2)
    return xpm, r1 * r1 - xpm * xpm


def _merged(inner: bool, certificate: str) -> NoTriangularPointsError:
    where = "between the primaries" if inner else "left of the bigger primary"
    return NoTriangularPointsError(
        f"{certificate}: L4 and L5 have merged into the axis {where}; "
        "no triangular points for these parameters"
    )


def _r1_of(q1, a2, r2):
    """r1 of r2 by q1/r1^3 = 1/r2^3 + (3/2) a2/r2^5, on floats or arrays, whose
    cube roots are float ** (1/3), libm's pow: numpy's power and cbrt differ."""
    c = q1 / (1.0 + 1.5 * a2 / (r2 * r2))
    if type(c) is float:
        return r2 * c ** (1.0 / 3.0)
    return r2 * np.array(list(map(pow, c.tolist(), [1.0 / 3.0] * c.size)))


def _F(p, r1, r2):
    """F (module docstring) at r2 and its r1, on floats or on lanes' arrays."""
    f = p.n2 - (1.0 + 1.5 * p.a2 / (r2 * r2)) / (r2 * r2 * r2)
    if type(p.mb) is np.ndarray or p.mb:  # lanes, or a belt
        # w = r^2 + T^2 is 0 or rounds below it where the point is the origin
        w = (1.0 - p.mu) * r1 * r1 + p.mu * r2 * r2 - p.mu * (1.0 - p.mu) + p.t2
        if type(w) is not float:  # lanes, under their errstate: M_b / 0 is inf
            return f - p.mb / (np.maximum(w, 0.0) * np.sqrt(np.maximum(w, 0.0)))
        w3 = max(w, 0.0) * math.sqrt(max(w, 0.0))
        f -= p.mb / w3 if w3 else math.inf
    return f


class _Crossings:
    """The ends of find_triangular's r2 interval, which depend on q1 and A2
    alone: lo, where the circles first cross (r1 + r2 = 1, in [1/2, 1]), and
    end(j), the doubling's j-th r2: 2^j, or where the circles part (r2 - r1
    = 1) by 2^j; each at the float where its certificate holds."""

    def __init__(self, q1: float, a2: float):
        self.q1, self.a2, self._ends = q1, a2, []

        def inner(r2: float) -> float:  # r1 + r2 - 1, rising
            # r2 - 1 first: it is exact near r2 = 1, where r1 may be below its ulp
            return r2 - 1.0 + _r1_of(q1, a2, r2)

        self.lo = brent(inner, 0.5, 1.0, inner(0.5), inner(1.0))
        while inner(self.lo) > 0.0:
            self.lo = math.nextafter(self.lo, 0.0)

    def outer(self, r2: float) -> float:  # r2 - r1 - 1, rising where it is 0
        return r2 - 1.0 - _r1_of(self.q1, self.a2, r2)

    def end(self, j: int) -> tuple[float, bool]:
        """(r2, whether the circles part there); none is asked past that."""
        while len(self._ends) <= j:
            hi = 2.0 ** len(self._ends)
            part = self.outer(hi) >= 0.0
            if part:
                hi = brent(self.outer, 0.5 * hi, hi, self.outer(0.5 * hi), self.outer(hi))
                while self.outer(hi) < 0.0:
                    hi = math.nextafter(hi, math.inf)
            self._ends.append((hi, part))
        return self._ends[j]


def find_triangular(p: SystemParams) -> tuple[EquilibriumPoint, EquilibriumPoint]:
    """L4 at the one root of F (module docstring) and L5, its exact mirror
    (the potential is even in y).  Where F keeps its sign on the crossing
    interval, NoTriangularPointsError names the end that certifies it."""
    return _find_triangular(p, {})


def _find_triangular(p: SystemParams, ends: dict):
    """find_triangular, taking the _Crossings of (q1, A2) from ends, where
    it puts those it solves."""
    if p.q1 <= 0.0:
        raise DomainError("triangular points degenerate for q1 <= 0 (r1 -> 0)")
    c = ends.get((p.q1, p.a2)) or ends.setdefault((p.q1, p.a2), _Crossings(p.q1, p.a2))

    def F(r2: float) -> float:
        return _F(p, _r1_of(p.q1, p.a2, r2), r2)

    f_lo = F(c.lo)
    if f_lo > 0.0:
        raise _merged(True, f"F(r2) rises and is {f_lo:.3e} > 0 already where the "
                      f"circles first cross (r2 = {c.lo:.17g}, r1 + r2 = 1)")
    # double r2 until F turns positive inside the crossing or the circles part:
    # one of the two comes first, as F -> n^2 >= 1 for r2 -> inf
    j, (hi, part) = 0, c.end(0)
    while not part and F(hi) <= 0.0:
        j += 1
        hi, part = c.end(j)
    if part and F(hi) < 0.0:
        raise _merged(False, f"F(r2) rises and is still {F(hi):.3e} < 0 where the "
                      f"circles last cross (r2 = {hi:.17g}, r2 - r1 = 1)")
    r2 = brent(F, c.lo, hi, f_lo, F(hi))
    xpm, y2 = _circle_cross(_r1_of(p.q1, p.a2, r2), r2)
    x, y = xpm - p.mu, math.sqrt(max(y2, 0.0))
    check_regular(p, x, y)
    grad, (_, _, oyy) = kernel(p, x, y, 2)
    if y <= 1e-12 or abs(y * oyy) <= 1e-13:
        raise NoTriangularPointsError(
            f"F(r2) has its root at r2 = {r2:.17g}, at y = {y:.6g} with |Omega_yy y| = "
            f"{abs(y * oyy):.6g}: a point with |y| <= 1e-12, or with |Omega_yy y| within its 1e-13 "
            "residual test, is within rounding of the axis, where L4 and L5 cannot be told from "
            "the axis point; no triangular points for these parameters")
    l4 = _point(p, "L4", x, y, grad)
    require_refined(p, l4)
    return l4, EquilibriumPoint("L5", x, -y, l4.r1, l4.r2, l4.residual)


def _triangular_lanes(q: LaneParams, ps, ends: dict) -> list:
    """find_triangular's L4 per lane of arrays q, each at its own mu, or the
    error that stops it (ps[i]: the lane's SystemParams but for mu, q1 > 0),
    with the _Crossings of ends as _find_triangular takes them.  The lanes
    take find_triangular's IEEE operations, with one brent_lanes for F; one
    that a check would stop runs find_triangular itself."""
    m = q.mu.size
    out, mu, k = [None] * m, q.mu.tolist(), np.arange(m)
    crossings = [ends.get((p.q1, p.a2)) or ends.setdefault((p.q1, p.a2), _Crossings(p.q1, p.a2))
                 for p in ps]

    def leave(off):  # the lanes k[off] run find_triangular itself
        nonlocal k
        for i in k[off].tolist():
            try:
                out[i] = _find_triangular(replace(ps[i], mu=mu[i]), ends)[0]
            except (DomainError, NumericalError) as exc:
                out[i] = exc
        k = k[~off]

    def F(i, r2):  # at r2 for the lanes i
        qi = q.at(i)
        return _F(qi, _r1_of(qi.q1, qi.a2, r2), r2)

    with np.errstate(all="ignore"):  # in lanes that have left
        leave(~((q.mu > 0.0) & (q.mu <= 0.5)))  # SystemParams refuses them
        lo, f_lo, hi, f_hi = np.array([c.lo for c in crossings]), *np.zeros((3, m))
        f_lo[k] = F(k, lo[k])
        leave(f_lo[k] > 0.0)
        part, todo, j = np.zeros(m, dtype=bool), k, 0
        while todo.size:  # the doubling, to F > 0 or to where the circles part
            r2, last = map(np.array, zip(*(crossings[i].end(j) for i in todo.tolist())))
            f = F(todo, r2)
            stop = last | ~(f <= 0.0)
            hi[todo[stop]], f_hi[todo[stop]], part[todo[stop]] = r2[stop], f[stop], last[stop]
            todo, j = todo[~stop], j + 1
        leave(part[k] & (f_hi[k] < 0.0))
        r2 = np.ones(m)
        r2[k] = brent_lanes(lambda i, x: F(k[i], x), lo[k], hi[k], f_lo[k], f_hi[k])
        xpm, y2 = _circle_cross(_r1_of(q.q1, q.a2, r2), r2)
        x, y = xpm - q.mu, np.sqrt(np.maximum(y2, 0.0))
        # find_triangular's checks of (x, y): check_regular, the on-axis rule
        # and require_refined, which a residual within RESIDUAL_TOL passes
        s = x + q.mu
        near = np.minimum(s * s, (s - 1.0) * (s - 1.0)) + y * y < SINGULARITY_RADIUS**2
        (gx, gy), (_, _, oyy) = kernel(q, x, y, 2)
        res = np.maximum(abs(gx), abs(gy))
        leave((near | ((q.mb > 0.0) & (q.t_belt < THIN_BELT)) | (y <= 1e-12) | (abs(y * oyy) <= 1e-13)
               | ~(res <= RESIDUAL_TOL))[k])
    x, y, res = x.tolist(), y.tolist(), res.tolist()
    for i in k.tolist():
        r1, r2 = math.hypot(x[i] + mu[i], y[i]), math.hypot(x[i] + mu[i] - 1.0, y[i])
        out[i] = EquilibriumPoint("L4", x[i], y[i], r1, r2, res[i])
    return out


def find_all(p) -> list:
    """Axis points plus the triangular pair (when the latter exist); for a
    list of parameter sets, per lane as find_collinear gives them."""
    ends = {}  # the _Crossings of each (q1, A2), solved once per call

    def add_triangular(p: SystemParams, points: list) -> list:
        try:
            points.extend(_find_triangular(p, ends))
        except NoTriangularPointsError:
            pass
        return points

    if not isinstance(p, SystemParams):
        return _per_lane(add_triangular, p, find_collinear(p))
    return add_triangular(p, find_collinear(p))
