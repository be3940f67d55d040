"""Off-axis equilibria against an exact solve of the one-variable balance.

Off the axis, Omega_y = 0 and Omega_x = 0 reduce to q1/r1^3 = 1/r2^3 +
(3/2) A2/r2^5, which gives r1 as a rising function of r2, and to the root of

    F(r2) = n^2 - M_b/(r^2 + T^2)^{3/2} - 1/r2^3 - (3/2) A2/r2^5,
    r^2 = (1 - mu) r1^2 + mu r2^2 - mu (1 - mu),

on the r2 interval where the circles r1, r2 about the primaries cross
(r1 + r2 > 1 > r2 - r1).  mp_triangular solves that in 50-digit mpmath by
bisection, apart from the float code it checks.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from chermnykh import equilibria
from chermnykh.equilibria import find_triangular
from chermnykh.errors import NoTriangularPointsError, SingularPointError
from chermnykh.model import SINGULARITY_RADIUS, LaneParams, SystemParams, omega_hessian


def _quiet_params(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SystemParams(**kw)


def _bisect(f, a, b):
    """Root of the rising f in [a, b], f(a) < 0 <= f(b), to 1e-45 of b."""
    while b - a > 1e-45 * b:
        m = (a + b) / 2
        if f(m) < 0:
            a = m
        else:
            b = m
    return (a + b) / 2


def mp_triangular(p):
    """F at the two ends of the crossing interval, in 50-digit arithmetic
    (n^2, F's limit, where r2 - r1 never reaches 1), and L4 as an mpf
    (x, y), or None where F keeps its sign on the interval."""
    with mp.workdps(50):
        mu, q1, a2, mb, t, rc = map(mpf, (p.mu, p.q1, p.a2, p.mb, p.t_belt, p.rc))
        n2 = 1 + 1.5 * a2 + 2 * mb * rc / (rc**2 + t**2) ** 1.5

        def r1_of(r2):
            return r2 * mp.cbrt(q1 / (1 + 1.5 * a2 / r2**2))

        def F(r2):
            w = (1 - mu) * r1_of(r2) ** 2 + mu * r2**2 - mu * (1 - mu) + t**2
            if mb and w <= 0:
                return mp.ninf
            return n2 - (mb / w**1.5 if mb else 0) - 1 / r2**3 - 1.5 * a2 / r2**5

        lo = _bisect(lambda r2: r1_of(r2) + r2 - 1, mpf(0.5), mpf(1))
        hi = mpf(1)
        while hi - r1_of(hi) - 1 < 0 and hi < 2**80:  # q1 < 1 parts them by 2^56
            hi *= 2
        if hi - r1_of(hi) - 1 < 0:
            f_hi, top = n2, mpf(1)
            while F(top) <= 0:
                top *= 2
        else:
            top = _bisect(lambda r2: r2 - r1_of(r2) - 1, hi / 2, hi)
            f_hi = F(top)
        f_lo = F(lo)
        if f_lo >= 0 or f_hi <= 0:
            return f_lo, f_hi, None
        r2 = _bisect(F, lo, top)
        r1 = r1_of(r2)
        xpm = (1 + r1**2 - r2**2) / 2
        return f_lo, f_hi, (xpm - mu, mp.sqrt(r1**2 - xpm**2))


def _within_rounding_of_the_axis(p, x, y):
    """refine_equilibrium's rule for an axis point: y within 1e-12 of the
    axis, or a pull Omega_yy y below its 1e-13 residual test (with slack)."""
    return y <= 2e-12 or abs(y * omega_hessian(p, x, y)[2]) <= 2e-13


# The whole box: mu and q1 in (0, 1/2] and (0, 1] with their ends and 5e-324,
# A2 in [0, 0.1], M_b up to 5, T log-uniform down to 1e-150 and T = 0, and
# rc in [0.2, 1.5].
whole_box = st.builds(
    _quiet_params,
    mu=st.one_of(st.sampled_from((5e-324, 0.5)), st.floats(0.0, 0.5, exclude_min=True)),
    q1=st.one_of(st.sampled_from((5e-324, 0.5, 1.0)), st.floats(0.0, 1.0, exclude_min=True)),
    a2=st.floats(0.0, 0.1),
    mb=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    t_belt=st.one_of(st.just(0.0), st.floats(-150.0, math.log10(0.5)).map(lambda e: 10.0**e)),
    rc=st.floats(0.2, 1.5),
)


@settings(max_examples=150)
@given(whole_box)
def test_off_axis_points_are_the_exact_solve(p):
    f_lo, f_hi, ref = mp_triangular(p)
    try:
        l4, l5 = find_triangular(p)
    except NoTriangularPointsError as exc:
        msg = str(exc)
        if ref is None:
            # F keeps its sign: the message names the end that certifies it
            inner = f_lo >= 0
            assert ("first cross" if inner else "last cross") in msg
            assert ("between the primaries" if inner else "left of the bigger primary") in msg
        else:
            x, y = float(ref[0]), float(ref[1])
            assert "within rounding of the axis" in msg
            assert _within_rounding_of_the_axis(p, x, y)
        return
    except SingularPointError:
        # r1 <= r2 q1^{1/3} on the crossing interval, where r2 < 1/(1 - q1^{1/3}):
        # every candidate point lies on the bigger primary to within the
        # singularity radius
        assert p.q1 ** (1.0 / 3.0) <= 1.01 * SINGULARITY_RADIUS
        return
    assert ref is not None
    assert l4.kind == "L4" and l4.y > 0.0
    assert l4.residual <= 1e-12
    # to 1e-12 of the point's size, or of the primaries' unit separation
    # where the point is smaller: x = (1 + r1^2 - r2^2)/2 - mu carries the
    # rounding of r2 ~ 1, about 1e-16, however close L4 is to the primary
    x, y = ref
    size = max(abs(x), abs(y), 1.0)
    assert abs(l4.x - x) <= 1e-12 * size and abs(l4.y - y) <= 1e-12 * size
    assert (l5.kind, l5.x, l5.y, l5.residual) == ("L5", l4.x, -l4.y, l4.residual)


# Parameter sets where an earlier continuation reported no triangular point,
# with their L4 from the exact solve.
MISSED = [
    (dict(mu=0.016020926592995498, q1=0.11262559812232407, a2=0.0869048478460272,
          mb=1.4357432125581702, t_belt=0.0011613021209123916, rc=0.24155013631174327),
     (0.272664, 0.152407)),
    (dict(mu=0.084603, q1=0.181361, a2=0.018752, mb=1.21826, t_belt=0.054943, rc=0.256377),
     (0.240672, 0.224718)),
    (dict(mu=0.087617, q1=0.140946, a2=0.01724, mb=0.606055, t_belt=0.036636, rc=0.201514),
     (0.232045, 0.160150)),
]


@pytest.mark.parametrize("kw, xy", MISSED)
def test_finds_the_l4_a_continuation_missed(kw, xy):
    p = SystemParams(**kw)
    l4, l5 = find_triangular(p)
    assert l4.kind == "L4" and l4.residual <= 1e-12
    assert l4.x == pytest.approx(xy[0], abs=1e-6) and l4.y == pytest.approx(xy[1], abs=1e-6)
    assert (l5.x, l5.y) == (l4.x, -l4.y)
    x, y = mp_triangular(p)[2]
    assert abs(l4.x - x) <= 1e-15 and abs(l4.y - y) <= 1e-15


TANGENT = dict(mu=0.0351, q1=0.0531, a2=0.0355, t_belt=0.364, rc=1.031)


def test_l4_close_to_where_it_merges_left_of_the_bigger_primary():
    l4, _ = find_triangular(SystemParams(mb=0.791, **TANGENT))
    assert l4.kind == "L4" and l4.y == pytest.approx(0.02156, abs=1e-5)
    assert l4.x < -TANGENT["mu"]
    with pytest.raises(NoTriangularPointsError) as info:
        find_triangular(SystemParams(mb=0.7925, **TANGENT))
    msg = str(info.value)
    assert "< 0 where the circles last cross" in msg
    assert "merged into the axis left of the bigger primary" in msg


def test_merge_between_the_primaries_is_certified_at_the_first_crossing():
    # a heavy belt with a small rc raises n^2 until F is positive where the
    # circles first cross: L4 has merged into the axis between the primaries
    p = SystemParams(mu=0.134, q1=0.503, a2=0.01, mb=3.26, t_belt=0.00128, rc=0.2137)
    f_lo, _, ref = mp_triangular(p)
    assert ref is None and f_lo > 0
    with pytest.raises(NoTriangularPointsError) as info:
        find_triangular(p)
    msg = str(info.value)
    assert "> 0 already where the circles first cross" in msg
    assert "merged into the axis between the primaries" in msg


def test_a_root_within_newtons_axis_test_is_reported_as_such():
    # F's root lies at y = 1.94e-5 with a residual of 4.4e-16, but its pull
    # |Omega_yy y| is just under refine_equilibrium's 1e-13 residual test,
    # which puts it on the axis; one float lower in M_b the point is L4.  The
    # lane form leaves the lane to find_triangular, with its error
    mb = 0.7924192339712862
    assert find_triangular(SystemParams(mb=math.nextafter(mb, 0.0), **TANGENT))[0].kind == "L4"
    p = SystemParams(mb=mb, **TANGENT)
    with pytest.raises(NoTriangularPointsError) as info:
        find_triangular(p)
    msg = str(info.value)
    assert "at y = 1.94122e-05 with |Omega_yy y| = 9.99999e-14" in msg
    assert "within its 1e-13 residual test" in msg and "merged" not in msg
    (lane,) = equilibria._triangular_lanes(LaneParams(*map(np.atleast_1d, LaneParams.of([p]))), [p], {})
    assert (type(lane), str(lane)) == (NoTriangularPointsError, msg)


def test_no_axis_scan(monkeypatch):
    scans = []
    monkeypatch.setattr(equilibria, "scan_collinear", lambda p: scans.append(p))
    for kw, _ in MISSED:
        find_triangular(SystemParams(**kw))
    with pytest.raises(NoTriangularPointsError):
        find_triangular(SystemParams(mb=0.7925, **TANGENT))
    assert scans == []

