"""The certified axis scan: its Omega_xx lower bound, and agreement with
the dense scan it replaced (kept in legacy_scan as a test-only reference).
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh.equilibria import (
    PRIMARY_GAP,
    X_MAX,
    collinear_f,
    find_collinear,
    fprime_floor,
    scan_collinear,
)
from chermnykh.errors import DomainError, NumericalError
from chermnykh.model import SystemParams, force_scale, omega_hessian

from conftest import CLASSICAL
from legacy_scan import dense_brackets, dense_find_collinear, dense_pieces

EPS = np.finfo(float).eps

# mu and T stop at 1e-6: below mu ~ 1e-9 the dense scan samples the origin
# inside the keep-out around the bigger primary, and below T ~ 1e-100 the
# belt term is 0/0 at the origin in either scan.
params_box = st.builds(
    SystemParams,
    mu=st.floats(1e-6, 0.5),
    q1=st.floats(0.0, 1.0, exclude_min=True),
    a2=st.floats(0.0, 0.1),
    mb=st.floats(0.0, 1.5),
    t_belt=st.floats(1e-6, 0.5),
)


def _outcome(fn, p):
    try:
        return fn(p), None
    except (DomainError, NumericalError) as exc:
        return None, type(exc)


def _sign_change_at(p, x):
    h = max(1e-10 * abs(x), 1e-13)
    lo, hi = collinear_f(p, x - h), collinear_f(p, x + h)
    return lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0)


@settings(max_examples=300)
@given(params_box)
def test_agrees_with_dense_scan(p):
    old, old_err = _outcome(dense_find_collinear, p)
    new, new_err = _outcome(find_collinear, p)
    if old_err is not None:
        assert new_err is old_err
        return
    assert new_err is None
    got = {e.kind: e.x for e in new}
    for kind, x in old:
        assert kind in got
        # 1e-12 relative, or the rounding-limited accuracy of the root
        oxx = abs(omega_hessian(p, x, 0.0)[0])
        cond = 8.0 * EPS * force_scale(p, x, 0.0) / oxx
        assert abs(got[kind] - x) <= 1e-12 * abs(x) + cond
    for e in new:
        if not any(abs(e.x - x) <= 1e-10 * max(abs(x), 1e-3) for _, x in old):
            assert _sign_change_at(p, e.x)


@settings(max_examples=40)
@given(params_box)
def test_sees_every_dense_bracket(p):
    # uncertified stretches carry the dense grid's own points, and a
    # certified piece holds its one root whatever the sampling
    try:
        dense = dense_brackets(p)
        scan = scan_collinear(p)
    except (DomainError, NumericalError):
        return
    for lo, hi in dense:
        assert any(a <= hi and lo <= b for a, b in scan.brackets)


@settings(max_examples=40)
@given(params_box)
def test_sampled_stretches_keep_dense_resolution(p):
    # a stretch that is not certified monotone carries at least every
    # point the dense scan put inside it, plus its two ends
    try:
        scan = scan_collinear(p)
    except DomainError:
        return
    for (a, b), n in zip(scan.intervals, scan.samples):
        if n == 2:
            continue
        dense = sum(
            int(np.count_nonzero((xs > a) & (xs < b)))
            for xs in (np.linspace(lo, hi, m) for lo, hi, m in dense_pieces(p) if lo < hi)
        )
        assert n >= dense + 2


def _free_interval(p, which):
    return (
        (-X_MAX, -p.mu - PRIMARY_GAP),
        (-p.mu + PRIMARY_GAP, 1.0 - p.mu - PRIMARY_GAP),
        (1.0 - p.mu + PRIMARY_GAP, X_MAX),
    )[which]


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=t)
    lo, hi = _free_interval(p, which)
    if near_core:  # the belt core, where the bound has work to do
        lo, hi = max(lo, -2.0 * t), min(hi, 2.0 * t)
    a, b = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
    if not lo <= a < b <= hi:
        return
    xs = np.linspace(a, b, 257)
    oxx = omega_hessian(p, xs, np.zeros_like(xs))[0]
    assert fprime_floor(p, a, b) <= oxx.min()


def test_no_samples_without_belt():
    # every piece is certified monotone: only piece ends are evaluated
    scan = scan_collinear(SystemParams(mu=0.2, q1=0.6, a2=0.05))
    assert set(scan.samples) == {2}
    assert len(scan.brackets) == 3


def test_belt_core_sampled_at_dense_resolution():
    p = SystemParams(mu=0.025, q1=0.5, mb=0.4)
    base = scan_collinear(p)
    finer = scan_collinear(p, samples=40000)
    assert max(base.samples) > 2
    assert sum(finer.samples) > sum(base.samples)
    assert len(finer.brackets) == len(base.brackets) == 5


def test_classical_scan_evaluates_a_handful_of_points():
    assert sum(scan_collinear(CLASSICAL).samples) == 10
