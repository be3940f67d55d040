"""Integrator and zero-velocity-curve tests.

The quality bars here are the ones the integrator is sold on: Jacobi drift
at tight tolerance, retraceability under the time-reversal involution, and
contour vertices that actually sit on the level set.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh.dynamics import (
    ContourSet,
    GridSpec,
    Trajectory,
    integrate,
    reverse_involution,
    stability_probe,
    vertex_tolerance,
    zvc_contours,
)
from chermnykh.equilibria import EquilibriumPoint, find_collinear, find_triangular
from chermnykh.errors import DomainError, IntegrationError
from chermnykh.model import RotState, SystemParams, jacobi_constant, omega_grad, omega_grid

from conftest import CLASSICAL, L4_X, L4_Y

# Jacobi constant of the classical L4 for mu = 0.025; the global minimum
# of 2*Omega away from the primaries.
C_L4 = 2.975625


def l4(p=CLASSICAL):
    pt, _ = find_triangular(p)
    return pt


def l1(p=CLASSICAL):
    return next(e for e in find_collinear(p) if e.kind == "L1")


class TestIntegrateBasics:
    def test_tolerance_range_enforced(self):
        for bad in (1e-15, 1e-5, 0.0, -1e-9):
            with pytest.raises(DomainError):
                integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), 1.0, tol=bad)

    def test_t_end_must_be_positive(self):
        with pytest.raises(DomainError):
            integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), -1.0)

    def test_state_length_checked(self):
        with pytest.raises(DomainError):
            integrate(CLASSICAL, (0.5, 0.5, 0.0), 1.0)

    def test_accepts_rotstate_and_tuple(self):
        a = integrate(CLASSICAL, RotState(0.5, 0.5), 1.0, tol=1e-10)
        b = integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), 1.0, tol=1e-10)
        assert a.final == b.final

    def test_starts_at_t_zero_ends_at_t_end(self):
        traj = integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), 3.0, tol=1e-10)
        assert traj.samples[0].t == 0.0
        assert traj.final.t == pytest.approx(3.0, abs=1e-12)
        assert traj.status == "completed"

    def test_timestamps_strictly_increasing(self):
        traj = integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), 5.0, tol=1e-10)
        times = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_c0_matches_initial_jacobi(self):
        s0 = RotState(0.5, 0.5, 0.01, -0.02)
        traj = integrate(CLASSICAL, s0, 1.0, tol=1e-10)
        assert traj.c0 == jacobi_constant(CLASSICAL, s0)

    def test_trajectory_rejects_unordered_samples(self):
        s = RotState(0.5, 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            Trajectory((s, RotState(0.5, 0.5, 0.0, 0.0, 0.5)), 3.0, 0.0, "completed", 2, 0)


class TestDriftQuality:
    def test_l4_neighborhood_drift_tight_tolerance(self):
        # Published quality bar: relative drift at most 1e-9 at tol 1e-12
        # over t = 100 from a 1e-6 displacement off L4.
        pt = l4()
        traj = integrate(CLASSICAL, (pt.x + 1e-6, pt.y, 0.0, 0.0), 100.0, tol=1e-12)
        assert traj.status == "completed"
        assert traj.max_drift <= 1e-9
        # stable point: the excursion stays small
        exc = max(math.hypot(s.x - pt.x, s.y - pt.y) for s in traj.samples)
        assert exc < 1e-3

    def test_drift_scales_with_tolerance(self):
        pt = l4()
        s0 = (pt.x + 1e-3, pt.y, 0.0, 0.005)
        loose = integrate(CLASSICAL, s0, 20.0, tol=1e-8)
        tight = integrate(CLASSICAL, s0, 20.0, tol=1e-12)
        assert tight.max_drift < loose.max_drift
        assert tight.max_drift < 1e-11

    def test_step_counts_reported(self):
        pt = l4()
        traj = integrate(CLASSICAL, (pt.x + 1e-6, pt.y, 0.0, 0.0), 100.0, tol=1e-12)
        assert traj.n_accepted == len(traj.samples) - 1
        assert traj.n_rejected >= 0


class TestEquilibriumProbes:
    def test_l4_is_a_fixed_point(self):
        # delta = 0: the excursion is pure integration noise
        assert stability_probe(CLASSICAL, l4(), 0.0, 20.0, tol=1e-12) <= 1e-10

    def test_l4_bounded_for_small_displacement(self):
        exc = stability_probe(CLASSICAL, l4(), 1e-6, 50.0, tol=1e-11)
        assert 1e-7 < exc < 1e-3

    def test_l1_escapes_quickly(self):
        # unstable point: 1e-6 grows past 1e-2 well before t = 50
        exc = stability_probe(CLASSICAL, l1(), 1e-6, 50.0, tol=1e-10)
        assert exc > 1e-2

    def test_delta_range_enforced(self):
        pt = l4()
        for bad in (1e-10, 1e-2, -1e-6):
            with pytest.raises(DomainError):
                stability_probe(CLASSICAL, pt, bad, 1.0)

    def test_unrefined_point_rejected(self):
        rough = EquilibriumPoint("L4", L4_X + 1e-4, L4_Y, 1.0, 1.0, 1e-4)
        with pytest.raises(DomainError, match="refine"):
            stability_probe(CLASSICAL, rough, 1e-6, 1.0)

    def test_residual_gate_scales_with_the_force_terms(self):
        # 1.364e-12 is far below the ~3e3 force terms at the belt-core Xb2
        p = SystemParams(mu=0.025, mb=0.8)
        xb2 = next(e for e in find_collinear(p) if e.kind == "Xb2")
        xb2 = EquilibriumPoint("Xb2", xb2.x, 0.0, xb2.r1, xb2.r2, 1.364e-12)
        assert stability_probe(p, xb2, 0.0, 0.01) >= 0.0

    def test_close_encounter_reports_infinity(self):
        # a point resting 1e-9 above the smaller primary falls straight in
        p = CLASSICAL
        pt = EquilibriumPoint("L1", 1 - p.mu + 1e-9, 0.0, 1.0, 1e-9, 0.0)
        assert stability_probe(p, pt, 0.0, 1.0) == math.inf


class TestTimeReversal:
    def test_involution_is_its_own_inverse(self):
        s = RotState(0.3, -0.4, 0.05, 0.06, 2.0)
        assert reverse_involution(reverse_involution(s)) == s

    def test_forward_reverse_forward_returns_home(self):
        # reflect + flip vx maps the endpoint onto a solution that retraces
        # the path; closure after the round trip is the quality bar (1e-7)
        pt = l4()
        s0 = RotState(pt.x + 1e-3, pt.y, 0.0, 0.005)
        f1 = integrate(CLASSICAL, s0, 10.0, tol=1e-12).final
        f2 = integrate(CLASSICAL, reverse_involution(f1), 10.0, tol=1e-12).final
        back = reverse_involution(f2)
        err = max(
            abs(back.x - s0.x),
            abs(back.y - s0.y),
            abs(back.vx - s0.vx),
            abs(back.vy - s0.vy),
        )
        assert err <= 1e-7

    def test_mirror_orbit_retraces_pointwise(self):
        # if s(t) solves the equations, the reflected state marches back
        # along the mirrored path: sigma(tau) = J s(T - tau)
        T = 8.0
        pt = l4()
        s0 = RotState(pt.x + 2e-3, pt.y, 0.001, 0.004)
        times = [0.5, 1.5, 3.0, 4.5, 6.0, 7.5]
        fwd = integrate(CLASSICAL, s0, T, tol=1e-12, sample_times=times)
        end = integrate(CLASSICAL, s0, T, tol=1e-12).final
        mirrored = integrate(
            CLASSICAL,
            reverse_involution(end),
            T,
            tol=1e-12,
            sample_times=[T - t for t in reversed(times)],
        )
        for a, b in zip(fwd.samples, reversed(mirrored.samples)):
            jb = reverse_involution(b)
            assert math.hypot(a.x - jb.x, a.y - jb.y) <= 1e-8
            assert math.hypot(a.vx - jb.vx, a.vy - jb.vy) <= 1e-8


class TestDenseOutput:
    def test_samples_exactly_at_requested_times(self):
        times = [0.0, 0.7, 1.3, 2.9, 5.0]
        traj = integrate(CLASSICAL, (0.5, 0.5, 0.0, 0.0), 5.0, tol=1e-10, sample_times=times)
        assert [s.t for s in traj.samples] == times

    def test_requested_times_validated(self):
        s0 = (0.5, 0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            integrate(CLASSICAL, s0, 5.0, sample_times=[1.0, 1.0])
        with pytest.raises(DomainError):
            integrate(CLASSICAL, s0, 5.0, sample_times=[-0.5, 1.0])
        with pytest.raises(DomainError):
            integrate(CLASSICAL, s0, 5.0, sample_times=[1.0, 6.0])

    def test_interpolant_preserves_jacobi(self):
        # midpoints of accepted steps are the worst case for the interpolant
        pt = l4()
        s0 = (pt.x + 1e-3, pt.y, 0.0, 0.005)
        ref = integrate(CLASSICAL, s0, 10.0, tol=1e-12)
        times = [s.t for s in ref.samples]
        mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
        traj = integrate(CLASSICAL, s0, 10.0, tol=1e-12, sample_times=mids)
        worst = max(
            abs(jacobi_constant(CLASSICAL, s) - traj.c0) / abs(traj.c0)
            for s in traj.samples
        )
        assert worst <= 1e-11

    def test_interpolant_matches_tighter_run(self):
        pt = l4()
        s0 = (pt.x + 1e-3, pt.y, 0.0, 0.005)
        ref = integrate(CLASSICAL, s0, 10.0, tol=1e-12)
        mids = [
            0.5 * (a.t + b.t) for a, b in zip(ref.samples, ref.samples[1:])
        ]
        coarse = integrate(CLASSICAL, s0, 10.0, tol=1e-12, sample_times=mids)
        fine = integrate(CLASSICAL, s0, 10.0, tol=1e-14, sample_times=mids)
        dpos = max(
            math.hypot(a.x - b.x, a.y - b.y)
            for a, b in zip(coarse.samples, fine.samples)
        )
        assert dpos <= 1e-8


class TestFailureModes:
    def test_close_encounter_status_and_partial_trajectory(self):
        p = CLASSICAL
        traj = integrate(p, (1 - p.mu + 1e-9, 0.0, -1e-3, 0.0), 1.0, tol=1e-10)
        assert traj.status == "close-encounter"
        assert len(traj.samples) >= 1
        assert traj.final.t < 1.0

    def test_initial_state_on_primary_rejected(self):
        p = CLASSICAL
        with pytest.raises(Exception):
            integrate(p, (1 - p.mu, 0.0, 0.0, 0.0), 1.0)

    def test_runaway_state_raises_with_last_good_state(self):
        # so far out gravity is nil: the state moves on a straight inertial
        # line, and its rotating-frame speed grows with t until its square
        # in the Jacobi check overflows, at t ~ 13.9
        with pytest.raises(IntegrationError) as exc:
            integrate(CLASSICAL, (1e153, 0.0, 0.0, 0.0), 2000.0)
        err = exc.value
        assert isinstance(err.last_state, RotState)
        assert 10.0 < err.last_time < 20.0


def rk4_final(p, s0, t_end, h):
    """Fixed-step classical Runge-Kutta, a reference apart from the
    program's DP5(4): the state at t_end."""
    two_n = 2.0 * p.n

    def rhs(s):
        gx, gy = omega_grad(p, s[0], s[1])
        return np.array([s[2], s[3], two_n * s[3] + gx, -two_n * s[2] + gy])

    s = np.array(s0, dtype=float)
    for _ in range(round(t_end / h)):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


class TestConvergence:
    def test_rk4_agrees_with_adaptive(self):
        pt = l4()
        s0 = (pt.x + 1e-3, pt.y, 0.0, 0.005)
        a = integrate(CLASSICAL, s0, 5.0, tol=1e-12)
        b = rk4_final(CLASSICAL, s0, 5.0, 1e-3)
        assert math.hypot(a.final.x - b[0], a.final.y - b[1]) <= 1e-9

    def test_drift_shrinks_with_tol(self):
        # tolerances loose enough that truncation dominates rounding: each
        # decade of tol gains about a decade of drift
        pt = l4()
        s0 = (pt.x + 0.01, pt.y, 0.0, 0.01)
        drifts = [
            integrate(CLASSICAL, s0, 10.0, tol=10.0**-k).max_drift for k in range(6, 12)
        ]
        assert all(b < a / 5.0 for a, b in zip(drifts, drifts[1:]))


def polyline_winds_around(line, px, py):
    """Even-odd ray casting; line must be closed."""
    inside = False
    for (x0, y0), (x1, y1) in zip(line, line[1:]):
        if (y0 > py) != (y1 > py):
            xc = x0 + (py - y0) / (y1 - y0) * (x1 - x0)
            if xc > px:
                inside = not inside
    return inside


class TestZeroVelocityCurves:
    def test_resolution_floor_enforced(self):
        with pytest.raises(DomainError):
            zvc_contours(CLASSICAL, 3.5, resolution=(63, 256))
        with pytest.raises(DomainError):
            zvc_contours(CLASSICAL, 3.5, resolution=(256, 32))

    def test_bounds_validated(self):
        with pytest.raises(DomainError):
            zvc_contours(CLASSICAL, 3.5, bounds=(2.0, -2.0, -2.0, 2.0))

    def test_classical_topology_at_c_3_5(self):
        # inner region split: one oval around each primary plus the outer
        # boundary of the admissible annulus
        cs = zvc_contours(CLASSICAL, 3.5)
        closed = [ln for ln in cs.polylines if ln[0] == ln[-1]]
        assert len(closed) == len(cs.polylines) == 3
        p = CLASSICAL
        enclose = [
            (
                polyline_winds_around(ln, -p.mu, 0.0),
                polyline_winds_around(ln, 1 - p.mu, 0.0),
            )
            for ln in closed
        ]
        assert sorted(enclose) == [(False, True), (True, False), (True, True)]

    def test_axis_crossings_match_published_geometry(self):
        # x-axis crossings of the C = 3.5 curves, from an independent
        # root scan of 2*Omega(x, 0) - C
        expected = [-1.4558, -0.6723, 0.6368, 0.8884, 1.0606, 1.4327]
        cs = zvc_contours(CLASSICAL, 3.5)
        hits = []
        for line in cs.polylines:
            for (x0, y0), (x1, y1) in zip(line, line[1:]):
                if (y0 > 0.0) != (y1 > 0.0):
                    hits.append(x0 + (0.0 - y0) / (y1 - y0) * (x1 - x0))
        hits.sort()
        assert len(hits) == len(expected)
        h = cs.grid.hx
        for got, want in zip(hits, expected):
            assert abs(got - want) <= 2.0 * h

    def test_every_vertex_on_the_level_set(self):
        cs = zvc_contours(CLASSICAL, 3.5)
        g = cs.grid
        for line in cs.polylines:
            for (x, y) in line:
                resid = abs(float(omega_grid(CLASSICAL, x, y)) - cs.level)
                assert resid <= vertex_tolerance(CLASSICAL, x, y, g.hx, g.hy)

    def test_vertices_keep_clear_of_masked_cells(self):
        cs = zvc_contours(CLASSICAL, 3.5)
        g = cs.grid
        p = CLASSICAL
        for line in cs.polylines:
            for (x, y) in line:
                for px, py in ((-p.mu, 0.0), (1 - p.mu, 0.0)):
                    cheb = max(abs(x - px) / g.hx, abs(y - py) / g.hy)
                    assert cheb >= 1.5

    def test_grid_minimum_sits_at_the_triangular_points(self):
        cs = zvc_contours(CLASSICAL, 3.5)
        g = cs.grid
        xs = np.linspace(g.xmin, g.xmax, g.nx)
        ys = np.linspace(g.ymin, g.ymax, g.ny)
        f = omega_grid(CLASSICAL, xs[None, :], ys[:, None])
        j, i = np.unravel_index(np.nanargmin(np.where(np.isfinite(f), f, np.nan)), f.shape)
        assert abs(f[j, i] - C_L4) <= vertex_tolerance(CLASSICAL, xs[i], ys[j], g.hx, g.hy)
        assert abs(xs[i] - L4_X) <= g.hx
        assert min(abs(ys[j] - L4_Y), abs(ys[j] + L4_Y)) <= g.hy

    def test_level_below_minimum_is_empty_with_diagnostic(self):
        cs = zvc_contours(CLASSICAL, 2.5)
        assert cs.polylines == ()
        assert cs.diagnostic is not None and "below" in cs.diagnostic

    def test_below_minimum_diagnostic_says_motion_is_allowed(self):
        # 2 Omega > C everywhere: nothing is forbidden, not nothing allowed
        cs = zvc_contours(CLASSICAL, 2.5)
        assert "forbidden region is empty" in cs.diagnostic
        assert "allowed everywhere" in cs.diagnostic
        assert "admissible region is empty" not in cs.diagnostic

    def test_level_above_minimum_has_no_diagnostic(self):
        cs = zvc_contours(CLASSICAL, 3.5)
        assert cs.diagnostic is None

    def test_deterministic(self):
        a = zvc_contours(CLASSICAL, 3.2)
        b = zvc_contours(CLASSICAL, 3.2)
        assert a.polylines == b.polylines

    def test_gridspec_spacing(self):
        g = GridSpec(-2.0, 2.0, -1.0, 1.0, 101, 51)
        assert g.hx == pytest.approx(0.04)
        assert g.hy == pytest.approx(0.04)

    def test_belt_changes_the_curves(self):
        belt = SystemParams(mu=0.025, q1=1.0, a2=0.0, mb=0.2)
        a = zvc_contours(CLASSICAL, 3.5)
        b = zvc_contours(belt, 3.5)
        assert a.polylines != b.polylines


@settings(max_examples=10, deadline=None)
@given(
    dx=st.floats(-1e-4, 1e-4),
    dy=st.floats(-1e-4, 1e-4),
    v=st.floats(-1e-3, 1e-3),
)
def test_drift_bound_holds_near_l4(dx, dy, v):
    pt, _ = find_triangular(CLASSICAL)
    traj = integrate(CLASSICAL, (pt.x + dx, pt.y + dy, v, 0.0), 5.0, tol=1e-11)
    assert traj.status == "completed"
    assert traj.max_drift <= 1e-9


@settings(max_examples=10, deadline=None)
@given(
    dx=st.floats(-1e-3, 1e-3),
    v=st.floats(-1e-3, 1e-3),
)
def test_reversal_closure_holds_generically(dx, v):
    pt, _ = find_triangular(CLASSICAL)
    s0 = RotState(pt.x + dx, pt.y, v, 0.0)
    f1 = integrate(CLASSICAL, s0, 5.0, tol=1e-12).final
    f2 = integrate(CLASSICAL, reverse_involution(f1), 5.0, tol=1e-12).final
    back = reverse_involution(f2)
    assert max(
        abs(back.x - s0.x),
        abs(back.y - s0.y),
        abs(back.vx - s0.vx),
        abs(back.vy - s0.vy),
    ) <= 1e-7
