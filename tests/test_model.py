import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_model
from chermnykh.equilibria import collinear_f
from chermnykh.errors import DomainError, SingularPointError
from chermnykh.model import (
    BELT_CENTRE,
    BIGGER_PRIMARY,
    SMALLER_PRIMARY,
    RotState,
    SystemParams,
    jacobi_constant,
    kernel,
    omega,
    omega_grad,
    omega_grid,
    omega_hessian,
)
from chermnykh.stability import collinear_f_star

from conftest import CLASSICAL, L4_X, L4_Y


# --- parameter validation ---------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu": 0.0},
        {"mu": 0.6},
        {"mu": -0.1},
        {"q1": 1.1},
        {"a2": -0.01},
        {"mb": -0.2},
        {"t_belt": -1.0},
        {"rc": 0.0},
        {"mu": math.nan},
    ],
)
def test_params_rejected(kwargs):
    with pytest.raises(DomainError):
        SystemParams(**kwargs)


def test_nonpositive_q1_admitted_with_warning():
    with pytest.warns(UserWarning, match="radiation pressure"):
        p = SystemParams(q1=0.0)
    assert p.q1 == 0.0
    with pytest.warns(UserWarning):
        SystemParams(q1=-0.2)


def test_nonpositive_q1_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="radiation pressure") as caught:
        SystemParams(q1=0.0)
    assert caught[0].filename == __file__


def test_params_frozen_and_comparable():
    p = SystemParams()
    with pytest.raises(AttributeError):
        p.mu = 0.3
    assert p == SystemParams()
    assert p != SystemParams(mu=0.3)


# --- mean motion ------------------------------------------------------------


def test_mean_motion_unperturbed():
    assert SystemParams(a2=0.0, mb=0.0).n == 1.0


def test_mean_motion_oblateness_only():
    p = SystemParams(a2=0.02, mb=0.0)
    assert p.n2 == pytest.approx(1.03, abs=1e-15)


def test_mean_motion_belt():
    # n^2 = 1 + 2 * 0.2 * 0.8 / (0.8^2 + 0.01^2)^{3/2}
    p = SystemParams(a2=0.0, mb=0.2, rc=0.8, t_belt=0.01)
    assert p.n2 == pytest.approx(1.624854, abs=1e-6)
    assert p.n == pytest.approx(math.sqrt(1.624854), abs=1e-6)


def test_mean_motion_cached_value_matches_formula():
    p = SystemParams(a2=0.04, mb=0.6, rc=0.8, t_belt=0.01)
    expect = 1.0 + 1.5 * 0.04 + 2.0 * 0.6 * 0.8 / (0.8**2 + 0.01**2) ** 1.5
    assert p.n2 == pytest.approx(expect, rel=1e-15)
    assert p.n2 == pytest.approx(2.934561, abs=1e-6)


# --- effective potential ----------------------------------------------------


def test_omega_classical_l4_identity(classical):
    # 2*Omega at the equilateral point equals 3 - mu(1 - mu)
    c = 2.0 * omega(classical, L4_X, L4_Y)
    assert c == pytest.approx(3.0 - 0.025 * 0.975, abs=1e-13)


def test_omega_matches_classical_formula_when_unperturbed(classical):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, size=2)
        r1 = math.hypot(x + 0.025, y)
        r2 = math.hypot(x - 0.975, y)
        if min(r1, r2) < 0.05:
            continue
        classic = 0.5 * (x * x + y * y) + 0.975 / r1 + 0.025 / r2
        assert omega(classical, x, y) == pytest.approx(classic, rel=1e-14)


def test_omega_mirror_symmetry(classical):
    p = SystemParams(mu=0.1, q1=0.7, a2=0.03, mb=0.3)
    for x, y in [(0.3, 0.4), (-1.2, 0.9), (0.6, 0.05)]:
        assert omega(p, x, y) == omega(p, x, -y)
        gx, gy = omega_grad(p, x, 0.0)
        assert gy == 0.0
        _, oxy, _ = omega_hessian(p, x, 0.0)
        assert oxy == 0.0


def test_omega_grad_zero_at_classical_l4(classical):
    gx, gy = omega_grad(classical, L4_X, L4_Y)
    assert abs(gx) < 1e-14 and abs(gy) < 1e-14


def test_omega_hessian_classical_l4(classical):
    oxx, oxy, oyy = omega_hessian(classical, L4_X, L4_Y)
    assert oxx == pytest.approx(0.75, abs=1e-13)
    assert oyy == pytest.approx(2.25, abs=1e-13)
    assert oxy == pytest.approx(3 * math.sqrt(3) / 4 * (1 - 2 * 0.025), abs=1e-13)


def test_singularity_guard_identifies_primary(classical):
    with pytest.raises(SingularPointError, match="bigger"):
        omega(classical, -0.025, 0.0)
    with pytest.raises(SingularPointError, match="smaller"):
        omega_grad(classical, 0.975, 1e-13)
    with pytest.raises(SingularPointError):
        omega_hessian(classical, -0.025 + 1e-13, 0.0)


def test_array_broadcast(classical):
    xs = np.array([0.3, 0.5, -1.0])
    ys = np.array([0.4, 0.2, 0.8])
    vals = omega(classical, xs, ys)
    assert vals.shape == (3,)
    for i in range(3):
        assert vals[i] == omega(classical, float(xs[i]), float(ys[i]))
    gx, gy = omega_grad(classical, xs, ys)
    assert gx.shape == gy.shape == (3,)


def test_omega_grid_tolerates_singular_nodes(classical):
    xs, ys = np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41))
    vals = omega_grid(classical, xs, ys)
    assert vals.shape == xs.shape
    interior = np.isfinite(vals)
    assert interior.sum() >= vals.size - 4


# --- one kernel for floats and arrays ---------------------------------------


def _random_params(rng):
    """A draw from the whole parameter box, mu and T log-uniform."""
    return SystemParams(
        mu=float(10 ** rng.uniform(-6.0, math.log10(0.5))),
        q1=float(rng.uniform(0.0, 1.0)),
        a2=float(rng.uniform(0.0, 0.1)),
        mb=float(rng.uniform(0.0, 1.5)),
        t_belt=float(10 ** rng.uniform(-6.0, math.log10(0.5))),
        rc=float(rng.uniform(0.5, 1.2)),
    )


def _random_points(rng, p, n):
    """n points over [-3, 3]^2; a quarter each lie about 1e-3 from one
    primary, and a quarter in the belt core."""
    x = rng.uniform(-3.0, 3.0, n)
    y = rng.uniform(-3.0, 3.0, n)
    q = n // 4
    x[:q] = -p.mu + rng.normal(0.0, 1e-3, q)
    x[q : 2 * q] = 1.0 - p.mu + rng.normal(0.0, 1e-3, q)
    y[: 2 * q] = rng.normal(0.0, 1e-3, 2 * q)
    x[2 * q : 3 * q] = rng.normal(0.0, 2.0 * p.t_belt, q)
    y[2 * q : 3 * q] = rng.normal(0.0, 2.0 * p.t_belt, q)
    return x, y


def _term_scales(p, x, y):
    """Sums of the magnitudes of the terms of Omega, of grad Omega and of
    the Hessian at (x, y): the sizes that rounding scales with.  Near an
    equilibrium the gradient itself cancels to 0, so error is measured
    against these."""
    r1 = np.hypot(x + p.mu, y)
    r2 = np.hypot(x + p.mu - 1.0, y)
    r = np.hypot(x, y)
    w = r * r + p.t_belt**2
    big, obl = (1.0 - p.mu) * abs(p.q1), 1.5 * p.mu * p.a2
    return (
        0.5 * p.n2 * r * r + big / r1 + p.mu / r2 + obl / (3.0 * r2**3) + p.mb / np.sqrt(w),
        p.n2 * r + big / r1**2 + p.mu / r2**2 + obl / r2**4 + p.mb * r / w**1.5,
        p.n2 + 3.0 * big / r1**3 + 3.0 * p.mu / r2**3 + 5.0 * obl / r2**5 + 3.0 * p.mb / w**1.5,
    )


def _orders(p, x, y):
    """Omega, its gradient and its Hessian from the kernel, as one tuple."""
    return (kernel(p, x, y, 0), *kernel(p, x, y, 1), *kernel(p, x, y, 2)[1])


def _legacy_orders(p, x, y):
    return (
        legacy_model.omega(p, x, y),
        *legacy_model.omega_grad(p, x, y),
        *legacy_model.omega_hessian(p, x, y),
    )


def test_kernel_matches_the_formulas_it_replaced():
    # tests/legacy_model.py holds the former omega, omega_grad and
    # omega_hessian; the kernel must agree to 1e-13 of the terms' size
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = _random_params(rng)
        x, y = _random_points(rng, p, 40)
        scales = _term_scales(p, x, y)
        scale = [scales[0], scales[1], scales[1]] + [scales[2]] * 3
        for new, old, sc in zip(_orders(p, x, y), _legacy_orders(p, x, y), scale):
            assert np.all(np.abs(new - old) <= 1e-13 * sc)
        for i in range(0, 40, 5):
            xi, yi = float(x[i]), float(y[i])
            for new, old, sc in zip(_orders(p, xi, yi), _legacy_orders(p, xi, yi), scale):
                assert abs(new - old) <= 1e-13 * sc[i]


def test_a_float_and_the_same_point_in_an_array_agree_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = _random_params(rng)
        x, y = _random_points(rng, p, 16)
        arrays = _orders(p, x, y)
        for i in range(16):
            floats = _orders(p, float(x[i]), float(y[i]))
            assert all(type(v) is float for v in floats)
            in_array = np.array([float(a[i]) for a in arrays])
            assert np.array(floats).tobytes() == in_array.tobytes()


def test_guarded_names_return_plain_floats_for_any_scalar():
    p = SystemParams(mu=0.1, q1=0.8, a2=0.01, mb=0.2)
    for x, y in ((0.3, 0.4), (0, 1), (np.float64(0.3), np.array(0.4))):
        values = (omega(p, x, y), *omega_grad(p, x, y), *omega_hessian(p, x, y))
        assert all(type(v) is float for v in values)
        assert values == _orders(p, float(x), float(y))


GUARDED = {
    "omega": omega,
    "omega_grad": omega_grad,
    "omega_hessian": omega_hessian,
    "collinear_f": lambda p, x, y: collinear_f(p, x),
    "collinear_f_star": lambda p, x, y: collinear_f_star(p, x),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_every_guarded_name_raises_the_same_error(name):
    f = GUARDED[name]
    p = SystemParams(mu=0.1, q1=0.8, a2=0.01, mb=0.2)
    point_belt = SystemParams(mu=0.1, mb=0.2, t_belt=0.0)
    # at T = 1e-120 the pull's denominator w^{3/2} underflows at the origin
    thin_belt = SystemParams(mu=0.1, mb=0.2, t_belt=1e-120)
    cases = [
        (p, -p.mu, BIGGER_PRIMARY),
        (p, -p.mu + 3e-13, BIGGER_PRIMARY),
        (p, 1.0 - p.mu, SMALLER_PRIMARY),
        (p, 1.0 - p.mu - 3e-13, SMALLER_PRIMARY),
        (point_belt, 0.0, BELT_CENTRE),
        (thin_belt, 0.0, BELT_CENTRE),
        (thin_belt, 1e-110, BELT_CENTRE),
    ]
    for q, x0, primary in cases:
        messages = []
        for x in (x0, np.array([0.3, x0, -1.5])):
            with pytest.raises(SingularPointError) as exc:
                f(q, x, 0.0 * x)
            assert exc.value.primary == primary
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


# --- Jacobi constant --------------------------------------------------------


def test_jacobi_at_rest_equals_2omega(classical):
    s = RotState(0.3, 0.4)
    assert jacobi_constant(classical, s) == pytest.approx(
        2 * omega(classical, 0.3, 0.4), rel=1e-15
    )


def test_jacobi_classical_l4(classical):
    assert jacobi_constant(classical, RotState(L4_X, L4_Y)) == pytest.approx(
        2.975625, abs=1e-12
    )


def test_jacobi_velocity_term(classical):
    s = RotState(0.3, 0.4, vx=0.2, vy=-0.1)
    assert jacobi_constant(classical, s) == pytest.approx(
        2 * omega(classical, 0.3, 0.4) - 0.05, rel=1e-14
    )


def test_rotstate_rejects_nonfinite():
    with pytest.raises(DomainError):
        RotState(math.inf, 0.0)


# --- derivative consistency (fuzzed; the acceptance suite runs the bulk
# 1000-sample finite-difference check) ---------------------------------------

params_st = st.builds(
    SystemParams,
    mu=st.floats(0.01, 0.5),
    q1=st.floats(0.05, 1.0),
    a2=st.floats(0.0, 0.06),
    mb=st.floats(0.0, 0.6),
    t_belt=st.just(0.01),
    rc=st.floats(0.5, 1.2),
)
coord_st = st.floats(-2.5, 2.5)


def _far_from_primaries(p, x, y, rmin=0.15):
    r1 = math.hypot(x + p.mu, y)
    r2 = math.hypot(x + p.mu - 1.0, y)
    return min(r1, r2) > rmin and math.hypot(x, y) > rmin


@settings(max_examples=200, deadline=None)
@given(params_st, coord_st, coord_st)
def test_grad_matches_finite_difference(p, x, y):
    if not _far_from_primaries(p, x, y):
        return
    h = 1e-6
    gx, gy = omega_grad(p, x, y)
    fdx = (omega(p, x + h, y) - omega(p, x - h, y)) / (2 * h)
    fdy = (omega(p, x, y + h) - omega(p, x, y - h)) / (2 * h)
    scale = max(1.0, abs(gx), abs(gy))
    assert abs(gx - fdx) / scale < 1e-6
    assert abs(gy - fdy) / scale < 1e-6


@settings(max_examples=200, deadline=None)
@given(params_st, coord_st, coord_st)
def test_hessian_matches_finite_difference(p, x, y):
    if not _far_from_primaries(p, x, y):
        return
    h = 1e-6
    oxx, oxy, oyy = omega_hessian(p, x, y)
    gxp = omega_grad(p, x + h, y)
    gxm = omega_grad(p, x - h, y)
    gyp = omega_grad(p, x, y + h)
    gym = omega_grad(p, x, y - h)
    fxx = (gxp[0] - gxm[0]) / (2 * h)
    fxy = (gyp[0] - gym[0]) / (2 * h)
    fyy = (gyp[1] - gym[1]) / (2 * h)
    scale = max(1.0, abs(oxx), abs(oxy), abs(oyy))
    assert abs(oxx - fxx) / scale < 1e-5
    assert abs(oxy - fxy) / scale < 1e-5
    assert abs(oyy - fyy) / scale < 1e-5
