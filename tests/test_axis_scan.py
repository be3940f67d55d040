"""The certified axis scan: its two-sided Omega_xx bounds, its pieces, the
crossing-direction labels over the whole parameter box, and agreement with
the dense scan it replaced (kept in legacy_scan as a test-only reference).
"""

import math
import re
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chermnykh.equilibria import (
    FOLD_WIDTH,
    PRIMARY_GAP,
    X_MAX,
    collinear_f,
    find_all,
    find_collinear,
    fprime_bounds,
    require_refined,
    scan_collinear,
)
from chermnykh.errors import DomainError, NumericalError, ScanError
from chermnykh.model import SINGULARITY_RADIUS, SystemParams, force_scale, omega_hessian
from chermnykh.stability import classify

from conftest import CLASSICAL
from legacy_scan import (
    axis_force,
    axis_force_size,
    dense_brackets,
    dense_find_collinear,
    dense_roots,
    polish,
)

EPS = np.finfo(float).eps

# mu and T stop at 1e-6, the range the dense scan was written for: below mu ~
# PRIMARY_GAP it samples the origin inside the keep-out around the bigger
# primary, and for thin belts its grid cannot resolve the inner pair.
params_box = st.builds(
    SystemParams,
    mu=st.floats(1e-6, 0.5),
    q1=st.floats(0.0, 1.0, exclude_min=True),
    a2=st.floats(0.0, 0.1),
    mb=st.floats(0.0, 1.5),
    t_belt=st.floats(1e-6, 0.5),
)


def _quiet_params(mu, q1, a2, mb, log_t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q1 = 0 warns
        return SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=10.0**log_t)


# The whole documented box, with T log-uniform down to 1e-90, and its corner
# of mu log-uniform down to 1e-8 and q1 down to 1e-6 with a belt, where the
# inner pair can lie within 1e-9 of the bigger primary.
whole_box = st.one_of(
    st.builds(
        _quiet_params,
        mu=st.floats(0.0, 0.5, exclude_min=True),
        q1=st.floats(0.0, 1.0),
        a2=st.floats(0.0, 0.1),
        mb=st.floats(0.0, 1.5),
        log_t=st.floats(-90.0, math.log10(0.5)),
    ),
    st.builds(
        _quiet_params,
        mu=st.floats(-8.0, math.log10(0.5)).map(lambda e: min(10.0**e, 0.5)),
        q1=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
        a2=st.floats(0.0, 0.1),
        mb=st.floats(0.0, 10.0, exclude_min=True),
        log_t=st.floats(-90.0, math.log10(0.5)),
    ),
)

# Xb2 6.9e-10 right of the bigger primary, and L2 6.1e-12 right of the smaller
NEAR_BIGGER = SystemParams(mu=1.3778839075808672e-08, q1=0.0055406720262001245, mb=1.9433919172941483,
                           t_belt=1.72353695604805e-33, rc=0.8478159876878619)
NEAR_SMALLER = SystemParams(mu=1.401298464324817e-45, q1=1.0, a2=0.0625, t_belt=0.1)
# an L4 whose F root has a residual of 1.14e-13, a few ulp of the force terms there
STEEP_L4 = SystemParams(mu=6.189643125711683e-08, q1=0.01697319759252039, a2=2.5276175713717914,
                        mb=5.613754573077361, t_belt=1.0552785606413378e-28, rc=0.06229435121556218)


def _outcome(fn, p):
    try:
        return fn(p), None
    except (DomainError, NumericalError) as exc:
        return None, exc


def _free_intervals(p):
    return (
        (-X_MAX, -p.mu - PRIMARY_GAP),
        (-p.mu + PRIMARY_GAP, 1.0 - p.mu - PRIMARY_GAP),
        (1.0 - p.mu + PRIMARY_GAP, X_MAX),
    )


def _step(p, x):
    """An offset from the root x beyond its rounding-limited accuracy."""
    oxx = max(abs(sum(fprime_bounds(p, x, x))) / 2.0, 1e-300)  # finite for thin belts
    return max(1e-10 * abs(x), 1e-9 * p.t_belt, 64.0 * EPS * force_scale(p, x, 0.0) / oxx)


def _crossing(p, x):
    """+1 where the reference axis force crosses zero upward at x, -1
    downward, 0 where it does not change sign.  It steps no further than half
    the way to the nearer primary, so both samples lie on the root's side."""
    h = min(_step(p, x), 0.5 * min(abs(x + p.mu), abs(x + p.mu - 1.0)))
    lo, hi = axis_force(p, x - h), axis_force(p, x + h)
    if (lo < 0.0 <= hi) or (lo <= 0.0 < hi):
        return 1
    if (lo > 0.0 >= hi) or (lo >= 0.0 > hi):
        return -1
    return 0


def _crossing_labels(p, roots):
    """Labels by crossing direction, written out apart from the program:
    L3 and L2 outside the primaries, L1 alone or Xb2, Xb1, L1 between."""
    middle = [r for r in roots if -p.mu < r < 1.0 - p.mu]
    kinds = ["L1"] if len(middle) == 1 else ["Xb2", "Xb1", "L1"]
    labeled = dict(zip(kinds, middle))
    labeled["L3"] = next(r for r in roots if r < -p.mu)
    labeled["L2"] = next(r for r in roots if r > 1.0 - p.mu)
    return sorted(labeled.items(), key=lambda kx: kx[1])


def _reference_counts(p, extra=()):
    """Sign changes of the reference axis force in each free interval, on
    a fine grid: uniform, geometric toward each primary and about the
    origin on the scale of T, plus the abscissae in ``extra``.  Values
    within rounding of zero carry no sign."""
    counts = []
    near_origin = p.t_belt * np.geomspace(1e-6, 1e3, 600)
    extra = np.asarray(extra, dtype=float)
    for lo, hi in _free_intervals(p):
        if not lo < hi:
            counts.append(0)
            continue
        d = np.geomspace(1e-3 * PRIMARY_GAP, hi - lo, 600)
        xs = np.concatenate(
            (np.linspace(lo, hi, 4001), lo + d, hi - d, near_origin, -near_origin, [0.0], extra)
        )
        xs = np.unique(xs[(xs >= lo) & (xs <= hi)])
        f = axis_force(p, xs)
        s = np.sign(f[np.abs(f) > 64.0 * EPS * axis_force_size(p, xs)])  # above rounding
        counts.append(int(np.count_nonzero(s[:-1] != s[1:])))
    return counts


@settings(max_examples=300)
@given(params_box)
def test_agrees_with_dense_scan(p):
    old, old_exc = _outcome(dense_find_collinear, p)
    new, new_exc = _outcome(find_collinear, p)
    if old_exc is not None and "not ordered" in str(old_exc):
        # the dense scan's labelling fault (f(0) >= 0 with the inner pair):
        # its roots, labelled by crossing direction
        old = _crossing_labels(p, dense_roots(p))
    elif old_exc is not None:
        assert type(new_exc) is type(old_exc)
        return
    assert new_exc is None
    got = {e.kind: e.x for e in new}
    for kind, x in old:
        assert kind in got
        # 1e-12 relative, or the rounding-limited accuracy of the root
        oxx = abs(omega_hessian(p, x, 0.0)[0])
        cond = 8.0 * EPS * force_scale(p, x, 0.0) / oxx
        assert abs(got[kind] - x) <= 1e-12 * abs(x) + cond
    for e in new:
        if not any(abs(e.x - x) <= 1e-10 * max(abs(x), 1e-3) for _, x in old):
            assert _crossing(p, e.x) != 0


@settings(max_examples=40)
@given(params_box)
def test_sees_every_dense_bracket(p):
    # a certified piece holds its one root whatever the sampling, and a
    # fold piece is decided at its ends and midpoint
    try:
        dense = dense_brackets(p)
        scan = scan_collinear(p)
    except (DomainError, NumericalError):
        return
    for lo, hi in dense:
        assert any(a <= hi and lo <= b for a, b in scan.brackets)


def _clusters(p, roots):
    """The roots grouped into runs whose neighbours lie within their
    rounding-limited accuracy on one side of the primaries.  Within a run
    f is zero to rounding, so the reference grid sees one sign change for a
    run of odd length and none for an even one."""
    runs = []
    for x in sorted(roots):
        if runs:
            y = runs[-1][-1]
            same_side = (y < -p.mu) == (x < -p.mu) and (y < 1.0 - p.mu) == (x < 1.0 - p.mu)
            if same_side and x - y <= max(_step(p, x), _step(p, y)):
                runs[-1].append(x)
                continue
        runs.append([x])
    return runs


def _matches_reference(p, roots):
    """Whether the roots have the sign changes the reference grid sees:
    a run of odd length counts once, each lone root is checked on both
    sides beyond its rounding-limited accuracy."""
    runs = _clusters(p, roots)
    odd = [run[0] for run in runs if len(run) % 2]
    counts = [sum(1 for x in odd if lo < x < hi) for lo, hi in _free_intervals(p)]
    around = [x + s * _step(p, x) for run in runs if len(run) == 1 for x in run for s in (-1.0, 1.0)]
    return counts == _reference_counts(p, around), runs


@settings(max_examples=300)
@given(whole_box)
@example(NEAR_BIGGER)
@example(NEAR_SMALLER)
@example(STEEP_L4)
def test_whole_box_points_are_right_or_the_error_is_true(p):
    try:
        found = find_all(p)
    except ScanError as exc:
        msg = str(exc)
        counts = [int(n) for n in re.search(r"left=(\d+), middle=(\d+), right=(\d+)", msg).groups()]
        roots = [polish(p, lo, hi) for lo, hi in scan_collinear(p).brackets]
        assert counts == [sum(1 for x in roots if lo < x < hi) for lo, hi in _free_intervals(p)]
        assert _matches_reference(p, roots)[0]
        if p.q1 == 0.0:
            assert "q1 = 0 removes the bigger primary's pole" in msg
        else:
            assert counts[0] != 1 or counts[2] != 1 or counts[1] not in (1, 3)
            assert "the count is exact" in msg
        assert "samples" not in msg
        return
    if p == STEEP_L4:
        assert [e.kind for e in found] == ["L3", "Xb2", "Xb1", "L1", "L2", "L4", "L5"]
    points = [e for e in found if e.is_collinear]
    for e in found:
        require_refined(p, e)
    xs = [e.x for e in points]
    assert xs == sorted(xs)
    ok, runs = _matches_reference(p, xs)
    assert ok
    assert [e.kind for e in points] == [k for k, _ in _crossing_labels(p, xs)]
    lone = {run[0] for run in runs if len(run) == 1}
    for e in points:
        if e.x in lone:
            assert _crossing(p, e.x) == (-1 if e.kind == "Xb1" else 1)
        try:
            classify(p, e)
        except DomainError as exc:
            # b and d reach (M_b / T^3)^2 in the core of a very thin belt
            assert "overflow" in str(exc) and p.t_belt < 1e-45


def test_roots_beside_a_primary_are_found():
    # the scan keeps out only twice the radius check_regular refuses, so
    # these roots, within 1e-9 of a primary, get their labels
    points = find_collinear(NEAR_BIGGER)
    assert [e.kind for e in points] == ["L3", "Xb2", "Xb1", "L1", "L2"]
    assert 2.0 * SINGULARITY_RADIUS < points[1].x + NEAR_BIGGER.mu < 1e-9
    l2 = find_collinear(NEAR_SMALLER)[-1]
    assert l2.kind == "L2" and 2.0 * SINGULARITY_RADIUS < l2.x + NEAR_SMALLER.mu - 1.0 < 1e-11


def test_thin_belt_is_warning_free():
    # the belt term of the bounds divides by w = x^2 + T^2 one factor at a
    # time, and Tier-1 makes any RuntimeWarning an error
    p = SystemParams(mb=0.2, t_belt=1e-70)
    points = find_collinear(p)
    assert [e.kind for e in points] == ["L3", "Xb2", "Xb1", "L1", "L2"]
    for e in points:
        require_refined(p, e)
        if e.kind != "Xb1":
            classify(p, e)


@settings(max_examples=60)
@given(params_box)
def test_pieces_are_monotone_narrow_folds_or_root_free(p):
    try:
        scan = scan_collinear(p)
    except DomainError:
        return
    a, b = np.array(scan.intervals).T
    floor, ceiling = fprime_bounds(p, a, b)
    monotone = (floor > 0.0) | (ceiling < 0.0)
    fold = np.array(scan.samples) == 3
    assert np.all(np.isin(scan.samples, (2, 3))) and not np.any(fold & monotone)
    scale = np.minimum.reduce([np.abs(a + p.mu), np.abs(a + p.mu - 1.0), np.full_like(a, p.t_belt)])
    assert np.all((b - a)[fold] <= FOLD_WIDTH * scale[fold])
    # a piece neither monotone nor a fold is root-free by the certificate:
    # f's ends share a sign and lie further from 0 than max|f'| (b - a) reaches
    free = ~monotone & ~fold
    fa, fb = collinear_f(p, a[free]), collinear_f(p, b[free])
    slope = np.maximum(np.abs(floor[free]), np.abs(ceiling[free]))
    assert np.all(fa * fb > 0.0)
    assert np.all(np.abs(fa) + np.abs(fb) > slope * (b - a)[free])
    # and the reference axis force keeps that sign across the piece
    xs = a[free, None] + (b - a)[free, None] * np.linspace(0.0, 1.0, 257)
    xs[:, -1] = b[free]
    assert np.all(np.sign(axis_force(p, xs)) == np.sign(fa)[:, None])
    # the pieces tile the free intervals
    for lo, hi in _free_intervals(p):
        inside = (a >= lo) & (b <= hi)
        assert a[inside][0] == lo and b[inside][-1] == hi
        assert np.array_equal(a[inside][1:], b[inside][:-1])


@settings(max_examples=300)
@given(
    st.floats(1e-4, 0.5),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 0.1),
    st.floats(0.0, 1.5),
    st.floats(1e-4, 0.5),
    st.integers(0, 2),
    st.booleans(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_fprime_floor_is_a_lower_bound(mu, q1, a2, mb, t, which, near_core, u, v):
    # and the ceiling an upper one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=t)
    lo, hi = _free_intervals(p)[which]
    if near_core:  # the belt core, where the bounds have work to do
        lo, hi = max(lo, -2.0 * t), min(hi, 2.0 * t)
    a, b = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
    if not lo <= a < b <= hi:
        return
    xs = np.linspace(a, b, 257)
    oxx = omega_hessian(p, xs, np.zeros_like(xs))[0]
    floor, ceiling = fprime_bounds(p, a, b)
    assert floor <= oxx.min()
    assert ceiling >= oxx.max()


def test_no_samples_without_belt():
    # every piece is certified monotone: only piece ends are evaluated
    scan = scan_collinear(SystemParams(mu=0.2, q1=0.6, a2=0.05))
    assert set(scan.samples) == {2}
    assert len(scan.brackets) == 3


def test_classical_scan_evaluates_a_handful_of_points():
    assert sum(scan_collinear(CLASSICAL).samples) == 10


def test_root_free_pieces_are_not_split():
    # f' folds across most of this belt's core, where f stays far from 0:
    # split down to narrow folds, the scan took 5,774 samples over 2,870 pieces
    p = SystemParams(mu=0.284033, q1=0.606422, a2=0.052236, mb=0.270837, t_belt=0.196231)
    assert sum(scan_collinear(p).samples) <= 100
