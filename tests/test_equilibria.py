"""Equilibrium location tests.

Frozen reference coordinates below were computed with an independent
bisection/Newton script on the closed-form force balance and are quoted to
full double precision.
"""

import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh.equilibria import (
    CollinearScan,
    EquilibriumPoint,
    collinear_f,
    find_all,
    find_collinear,
    find_triangular,
    refine_equilibrium,
    scan_collinear,
    triangular_analytic,
)
from chermnykh.errors import (
    ConvergenceError,
    DomainError,
    NoTriangularPointsError,
    ScanError,
)
from chermnykh.model import SystemParams, omega_grad

from conftest import CLASSICAL, L4_X, L4_Y

STRONG_BELT = SystemParams(mu=0.025, q1=0.5, mb=0.4)

# Classical mu = 0.025 axis points, bisection to float exhaustion.
L3_X = -1.0104158048468805
L1_X = 0.7857113781902716
L2_X = 1.1916006566813508


def by_kind(points):
    return {e.kind: e for e in points}


class TestCollinearF:
    def test_matches_full_gradient_on_axis(self):
        xs = [-2.3, -0.6, -0.01, 0.3, 0.86, 1.4, 3.0]
        p = SystemParams(mu=0.025, q1=0.8, a2=0.02, mb=0.3)
        for x in xs:
            gx, gy = omega_grad(p, x, 0.0)
            assert collinear_f(p, x) == pytest.approx(gx, rel=1e-14, abs=1e-14)
            assert gy == 0.0

    def test_array_input(self):
        xs = np.array([-2.0, 0.5, 2.0])
        out = collinear_f(CLASSICAL, xs)
        assert out.shape == (3,)
        assert out[1] == collinear_f(CLASSICAL, 0.5)

    def test_sign_structure_classical(self):
        # f alternates across each root and primary along the axis
        assert collinear_f(CLASSICAL, -3.0) < 0  # left of L3
        assert collinear_f(CLASSICAL, -0.5) > 0  # L3 .. bigger primary
        assert collinear_f(CLASSICAL, -0.01) < 0  # bigger primary .. L1
        assert collinear_f(CLASSICAL, 0.9) > 0  # L1 .. smaller primary
        assert collinear_f(CLASSICAL, 0.99) < 0  # smaller primary .. L2
        assert collinear_f(CLASSICAL, 3.0) > 0  # right of L2


class TestFindCollinear:
    def test_classical_three_points(self, classical):
        pts = find_collinear(classical)
        assert [e.kind for e in pts] == ["L3", "L1", "L2"]
        k = by_kind(pts)
        assert k["L3"].x == pytest.approx(L3_X, abs=1e-12)
        assert k["L1"].x == pytest.approx(L1_X, abs=1e-12)
        assert k["L2"].x == pytest.approx(L2_X, abs=1e-12)
        for e in pts:
            assert e.y == 0.0
            assert e.residual <= 1e-12
            assert e.is_collinear and not e.is_triangular

    def test_ordering_relative_to_primaries(self, classical):
        k = by_kind(find_collinear(classical))
        assert k["L3"].x < -classical.mu
        assert -classical.mu < k["L1"].x < 1.0 - classical.mu
        assert k["L2"].x > 1.0 - classical.mu

    def test_l1_near_mass_ratio_estimate(self, classical):
        # cube-root-of-(mu/3) offset from the smaller primary
        est = 1.0 - classical.mu - (classical.mu / 3.0) ** (1.0 / 3.0)
        assert abs(by_kind(find_collinear(classical))["L1"].x - est) < 0.02

    def test_equal_masses_symmetric(self):
        pts = find_collinear(SystemParams(mu=0.5))
        k = by_kind(pts)
        assert k["L1"].x == 0.0
        assert k["L2"].x == pytest.approx(-k["L3"].x, abs=1e-12)

    def test_strong_belt_five_points(self):
        pts = find_collinear(STRONG_BELT)
        assert [e.kind for e in pts] == ["L3", "Xb2", "Xb1", "L1", "L2"]
        k = by_kind(pts)
        knee = -STRONG_BELT.t_belt / math.sqrt(2.0)
        assert -STRONG_BELT.mu < k["Xb2"].x <= knee
        assert knee < k["Xb1"].x < 0.0
        assert 0.0 < k["L1"].x
        for e in pts:
            assert e.residual <= 1e-12

    def test_onset_pair_labelled_by_order(self):
        # just past the onset at q1 = 1 both inner roots lie right of the
        # knee -T/sqrt(2); the labels follow the order and the sign of f'
        p = SystemParams(mu=0.025, q1=1.0, mb=0.7)
        pts = find_collinear(p)
        assert [e.kind for e in pts] == ["L3", "Xb2", "Xb1", "L1", "L2"]
        k = by_kind(pts)
        knee = -p.t_belt / math.sqrt(2.0)
        assert knee < k["Xb2"].x < k["Xb1"].x < 0.0
        for e in pts:
            assert refine_equilibrium(p, (e.x, e.y)).kind == e.kind

    def test_scan_record(self, classical):
        scan = scan_collinear(classical)
        assert isinstance(scan, CollinearScan)
        assert len(scan.intervals) == 5
        assert len(scan.brackets) == 3
        for lo, hi in scan.brackets:
            assert lo <= hi
            assert any(a <= lo and hi <= b for a, b in scan.intervals)

    def test_point_mass_belt_is_a_domain_error(self):
        # t_belt = 0 puts the whole belt at the origin: a singular point of
        # the axis force, not a root pattern more samples could resolve
        p = SystemParams(mu=0.025, mb=0.2, t_belt=0.0)
        with pytest.raises(DomainError) as info:
            find_collinear(p)
        msg = str(info.value)
        assert "mb" in msg and "t_belt" in msg
        assert "increase samples" not in msg
        with pytest.raises(DomainError):
            refine_equilibrium(p, (0.75, 0.0))  # no axis label either

    def test_inner_pair_about_the_origin_labelled_by_crossing(self):
        # at mu = 1/2, f(0) = 0: the belt pair straddles the origin, with
        # Xb1 the downward crossing at 0 and L1 the last upward one
        p = SystemParams(mu=0.5, mb=0.3)
        pts = find_collinear(p)
        assert [e.kind for e in pts] == ["L3", "Xb2", "Xb1", "L1", "L2"]
        k = by_kind(pts)
        assert k["Xb2"].x == pytest.approx(-0.223215, abs=1e-6)
        assert k["Xb1"].x == 0.0
        assert k["L1"].x == pytest.approx(0.223215, abs=1e-6)
        for e in pts:
            assert refine_equilibrium(p, e).kind == e.kind

    def test_q1_zero_pattern_error_names_the_missing_pole(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SystemParams(mu=0.025, q1=0.0, mb=0.2)
        with pytest.raises(ScanError) as info:
            find_collinear(p)
        msg = str(info.value)
        assert "(left=1, middle=2, right=1)" in msg
        assert "q1 = 0 removes the bigger primary's pole" in msg
        assert "samples" not in msg

    def test_exact_root_pattern_gives_no_sampling_advice(self):
        # q1 = 0 without a belt: no root left of the primary, and every
        # piece there is certified monotone, so the count is exact
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SystemParams(mu=0.025, q1=0.0)
        with pytest.raises(ScanError) as info:
            find_collinear(p)
        assert "left=0" in str(info.value)
        assert "increase samples" not in str(info.value)


class TestTriangularAnalytic:
    def test_classical_exact(self, classical):
        l4, l5 = triangular_analytic(classical)
        assert l4.x == pytest.approx(L4_X, abs=1e-15)
        assert l4.y == pytest.approx(L4_Y, abs=1e-15)
        assert l4.r1 == pytest.approx(1.0, abs=1e-15)
        assert l4.r2 == pytest.approx(1.0, abs=1e-15)
        assert l4.residual <= 1e-12
        assert l5.y == -l4.y

    def test_reduced_radiation(self):
        l4, _ = triangular_analytic(SystemParams(mu=0.025, q1=0.75))
        assert l4.r1 == pytest.approx(0.75 ** (1.0 / 3.0), abs=1e-15)
        assert l4.r2 == pytest.approx(1.0, abs=1e-14)
        assert l4.x == pytest.approx(0.3877409061118283, abs=1e-12)
        assert l4.y == pytest.approx(0.8093990095408096, abs=1e-12)

    def test_oblateness_lowers_the_points(self):
        ys = [
            triangular_analytic(SystemParams(mu=0.025, a2=a2))[0].y
            for a2 in (0.0, 0.02, 0.04)
        ]
        assert ys[0] > ys[1] > ys[2]

    def test_printed_radii_series(self):
        l4, _ = triangular_analytic(
            SystemParams(mu=0.025, a2=0.02), radii="printed"
        )
        assert l4.r1 == pytest.approx(0.99, abs=1e-12)
        assert l4.r2 == pytest.approx(1.0, abs=1e-12)
        l4b, _ = triangular_analytic(
            SystemParams(mu=0.025, mb=0.2), radii="printed"
        )
        w3 = (0.8**2 + 0.01**2) ** 1.5
        assert l4b.r2 == pytest.approx(1.0 + 0.025 * (1.0 - 1.6) * 0.2 / (3 * w3), abs=1e-12)

    def test_unknown_radii_convention(self, classical):
        with pytest.raises(DomainError):
            triangular_analytic(classical, radii="exactish")

    def test_refuses_nonpositive_q1(self):
        with pytest.warns(UserWarning):
            p = SystemParams(mu=0.025, q1=-0.1)
        with pytest.raises(DomainError):
            triangular_analytic(p)

    def test_belt_overwhelms_balance(self):
        # the belt keeps F negative up to where the circles part, so the
        # pair has merged into the axis at L3
        with pytest.raises(NoTriangularPointsError) as info:
            triangular_analytic(SystemParams(mu=0.025, q1=0.001, mb=0.6))
        assert "< 0 where the circles last cross" in str(info.value)
        assert "left of the bigger primary" in str(info.value)

    def test_circles_fail_to_intersect(self):
        with pytest.raises(NoTriangularPointsError, match="do not intersect"):
            triangular_analytic(
                SystemParams(mu=0.025, q1=1e-22, mb=0.6), radii="printed"
            )


class TestRefinement:
    def test_from_offset_guess(self, classical):
        e = refine_equilibrium(classical, (L4_X + 1e-3, L4_Y - 1e-3))
        assert e.kind == "L4"
        assert e.x == pytest.approx(L4_X, abs=1e-13)
        assert e.y == pytest.approx(L4_Y, abs=1e-13)
        assert e.residual <= 1e-13

    def test_idempotent(self, classical):
        e = refine_equilibrium(classical, (L4_X + 1e-3, L4_Y - 1e-3))
        e2 = refine_equilibrium(classical, e)
        assert e2.x == e.x and e2.y == e.y

    def test_axis_guess_stays_on_axis(self, classical):
        e = refine_equilibrium(classical, (0.75, 0.0))
        assert e.kind == "L1"
        assert e.y == 0.0
        assert e.x == pytest.approx(L1_X, abs=1e-12)

    def test_out_of_basin_raises_with_trace(self, classical):
        with pytest.raises(ConvergenceError) as exc:
            refine_equilibrium(classical, (10.0, 10.0))
        assert len(exc.value.trace) >= 2
        assert "last iterates" in str(exc.value)

    def test_point_next_to_the_axis_snaps_onto_it(self, classical):
        # 1.2e-12 above L3, the pull Omega_yy y is below the 1e-13 residual
        # test, so the point is L3 on the axis
        e = refine_equilibrium(classical, (L3_X, 1.2e-12))
        assert e.kind == "L3" and e.y == 0.0
        assert e.x == pytest.approx(L3_X, abs=1e-14)

    def test_point_is_frozen(self, classical):
        e = refine_equilibrium(classical, (0.75, 0.0))
        with pytest.raises(FrozenInstanceError):
            e.x = 0.0


class TestFindTriangular:
    def test_classical(self, classical):
        l4, l5 = find_triangular(classical)
        assert l4.x == pytest.approx(L4_X, abs=1e-13)
        assert l4.y == pytest.approx(L4_Y, abs=1e-13)
        assert l5.x == l4.x and l5.y == -l4.y  # exact mirror, bitwise

    def test_perturbed_all_three(self):
        p = SystemParams(mu=0.025, q1=0.75, a2=0.02, mb=0.2)
        l4, _ = find_triangular(p)
        assert l4.kind == "L4"
        assert l4.residual <= 1e-12
        # perturbations all pull the point inward and down
        assert l4.r1 < 1.0 and l4.y < L4_Y

    def test_analytic_seed_exact_without_belt(self):
        # without belt and oblateness the printed series radii,
        # r1 = q1^{1/3} and r2 = 1, are exact
        for p in (
            SystemParams(mu=0.025, q1=0.6),
            SystemParams(mu=0.3, q1=0.75),
            SystemParams(mu=0.5, q1=0.01),
        ):
            seed, _ = triangular_analytic(p, radii="printed")
            exact, _ = find_triangular(p)
            assert math.hypot(seed.x - exact.x, seed.y - exact.y) <= 1e-12

    def test_l4_where_a_seed_refined_onto_l3(self):
        # Newton from an approximate closed-form seed stopped 1.2e-12 above
        # L3 here, and the refinement put that point on the axis
        p = SystemParams(mu=0.024293897142052323, q1=0.75, mb=0.6)
        l4, l5 = find_triangular(p)
        near, _ = find_triangular(SystemParams(mu=0.025, q1=0.75, mb=0.6))
        assert l4.kind == "L4" and l4.y > 0.5 and l5.y == -l4.y
        assert math.hypot(l4.x - near.x, l4.y - near.y) <= 1e-2
        assert l4.residual <= 1e-12


class TestFindAll:
    def test_classical_five(self, classical):
        kinds = [e.kind for e in find_all(classical)]
        assert kinds == ["L3", "L1", "L2", "L4", "L5"]

    def test_strong_belt_seven(self):
        kinds = [e.kind for e in find_all(STRONG_BELT)]
        assert kinds == ["L3", "Xb2", "Xb1", "L1", "L2", "L4", "L5"]

    def test_l4_where_a_two_pass_seed_found_no_crossing(self):
        # an approximate seed, the belt radius taken at the classical
        # point and then once at its own, found no circle crossing here
        p = SystemParams(mu=0.1674, mb=0.9)
        l4, l5 = find_triangular(p)
        assert l4.kind == "L4"
        assert l4.x == pytest.approx(0.3326, abs=1e-9)
        assert l4.y == pytest.approx(0.673944, abs=1e-6)
        assert l4.residual <= 1e-12
        assert (l5.x, l5.y) == (l4.x, -l4.y)

    def test_no_triangular_points_at_q1_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SystemParams(mu=0.025, q1=0.0, mb=0.2)
        with pytest.raises(DomainError) as info:
            find_triangular(p)
        assert not isinstance(info.value, NoTriangularPointsError)

    def test_no_triangular_still_returns_axis(self):
        pts = find_all(SystemParams(mu=0.025, q1=0.001, mb=0.6))
        assert all(e.is_collinear for e in pts)
        assert len(pts) == 5  # the belt split survives; off-axis pair does not


# property-based coverage
params_no_belt = st.builds(
    SystemParams,
    mu=st.floats(0.01, 0.45),
    q1=st.floats(0.1, 1.0),
    a2=st.floats(0.0, 0.06),
)


@settings(max_examples=30, deadline=None)
@given(params_no_belt)
def test_three_axis_points_without_belt(p):
    pts = find_collinear(p)
    assert [e.kind for e in pts] == ["L3", "L1", "L2"]
    for e in pts:
        assert e.residual <= 1e-12


@settings(max_examples=30, deadline=None)
@given(params_no_belt)
def test_triangular_invariants_without_belt(p):
    l4, l5 = find_triangular(p)
    # unit distance to the smaller primary regardless of a2, q1
    assert l4.r2 == pytest.approx(1.0, abs=1e-10)
    # force-balance relation between the radii
    lhs = p.q1 / l4.r1**3
    rhs = 1.0 / l4.r2**3 + 1.5 * p.a2 / l4.r2**5
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert l5.x == l4.x and l5.y == -l4.y


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.01, 0.4),
    st.floats(0.3, 1.0),
    st.floats(0.0, 0.05),
    st.floats(0.0, 0.4),
)
def test_refined_point_is_a_gradient_zero(mu, q1, a2, mb):
    p = SystemParams(mu=mu, q1=q1, a2=a2, mb=mb)
    try:
        l4, _ = find_triangular(p)
    except NoTriangularPointsError:
        return
    gx, gy = omega_grad(p, l4.x, l4.y)
    assert max(abs(gx), abs(gy)) <= 1e-11
