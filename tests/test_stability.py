"""Stability, classification, and critical-mass tests.

Published reference values (frequency tables, critical-mass series) are
quoted at their printed precision; independently derived oracles are frozen
at full double precision.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh.equilibria import find_collinear, find_triangular, refine_equilibrium
from chermnykh.errors import (
    DomainError,
    NoResonanceError,
    NoTriangularPointsError,
)
from chermnykh.model import SystemParams
from chermnykh.stability import (
    CharCoefficients,
    ResonanceTerms,
    StabilityReport,
    char_coeffs,
    char_coeffs_paper_triangular,
    char_roots,
    classical_resonance_mu,
    classify,
    collinear_f_star,
    critical_mass_exact,
    critical_mass_linear,
    critical_mass_resonance,
    limit_coefficients_q1_zero,
    linear_system,
    resonance_terms,
    stability_flip,
    triangular_frequencies,
)

from conftest import CLASSICAL


def l4_of(p):
    return find_triangular(p)[0]


def assert_roots_match(xs, ys, tol):
    """Multiset comparison: conjugate pairs defeat lexicographic sorting
    when real parts are pure rounding noise."""
    ys = list(ys)
    for x in xs:
        nearest = min(ys, key=lambda y: abs(x - y))
        assert abs(x - nearest) < tol
        ys.remove(nearest)


class TestCharCoefficients:
    def test_classical_identities(self, classical):
        c = char_coeffs(classical, l4_of(classical))
        assert c.b == pytest.approx(1.0, abs=1e-13)
        assert c.d == pytest.approx(27.0 / 4.0 * 0.025 * 0.975, abs=1e-13)
        assert c.f_star == pytest.approx(1.0, abs=1e-13)
        assert c.g == pytest.approx(0.75, abs=1e-13)

    def test_reduced_radiation_d(self):
        # d = 9 mu (1-mu) y^2 q1 / r1^5 with r1 = q1^(1/3), r2 = 1
        p = SystemParams(mu=0.025, q1=0.5)
        c = char_coeffs(p, l4_of(p))
        assert c.b == pytest.approx(1.0, abs=1e-12)
        assert c.d == pytest.approx(0.184824, abs=2e-6)

    def test_collinear_saddle(self, classical):
        for e in find_collinear(classical):
            assert char_coeffs(classical, e).d < 0.0

    def test_g_absent_for_collinear(self, classical):
        e = find_collinear(classical)[0]
        assert char_coeffs(classical, e).g is None

    def test_unrefined_point_rejected(self, classical):
        from chermnykh.equilibria import EquilibriumPoint

        rough = EquilibriumPoint("L4", 0.48, 0.87, 1.0, 1.0, 1e-3)
        with pytest.raises(DomainError, match="refine"):
            char_coeffs(classical, rough)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            CharCoefficients(float("nan"), 0.1, 1.0)


class TestPublishedClosedForms:
    def test_agree_without_belt_or_oblateness(self):
        for q1 in (1.0, 0.75, 0.5, 0.25):
            p = SystemParams(mu=0.025, q1=q1)
            e = l4_of(p)
            ch = char_coeffs(p, e)
            cp = char_coeffs_paper_triangular(p, e)
            assert cp.b == pytest.approx(ch.b, rel=1e-10, abs=1e-12)
            assert cp.d == pytest.approx(ch.d, rel=1e-10)

    def test_b_equality_holds_for_any_oblateness(self):
        # the closed b and the Hessian b coincide exactly whenever mb = 0
        p = SystemParams(mu=0.025, q1=0.7, a2=0.05)
        e = l4_of(p)
        assert char_coeffs_paper_triangular(p, e).b == pytest.approx(
            char_coeffs(p, e).b, abs=1e-13
        )

    def test_b_gap_with_belt_matches_derivation(self):
        # closed-b - Hessian-b = mb (w - 3) / w^(5/2), w = r*^2 + T^2
        p = SystemParams(mu=0.025, mb=0.2)
        e = l4_of(p)
        w = e.x**2 + e.y**2 + p.t_belt**2
        gap = char_coeffs_paper_triangular(p, e).b - char_coeffs(p, e).b
        assert gap == pytest.approx(p.mb * (w - 3.0) / w**2.5, rel=1e-10)

    def test_d_g_relation_exact(self):
        p = SystemParams(mu=0.025, q1=0.8, a2=0.02, mb=0.3)
        cp = char_coeffs_paper_triangular(p, l4_of(p))
        assert cp.d == 9.0 * p.mu * (1.0 - p.mu) * cp.g

    def test_rejects_collinear_kind(self, classical):
        e = find_collinear(classical)[0]
        with pytest.raises(DomainError):
            char_coeffs_paper_triangular(classical, e)


class TestCharRoots:
    def test_classical_frequencies(self):
        roots = char_roots((1.0, 0.16453125))
        # published pair 0.890141 / 0.455686
        imag = sorted(abs(r.imag) for r in roots)
        assert imag[0] == pytest.approx(0.455686, abs=5e-7)
        assert imag[-1] == pytest.approx(0.890141, abs=5e-7)
        assert all(abs(r.real) < 1e-15 for r in roots)

    def test_degenerate_d_zero(self):
        roots = char_roots((1.0, 0.0))
        zeros = [r for r in roots if r == 0]
        assert len(zeros) == 2
        assert sorted(r.imag for r in roots) == pytest.approx([-1, 0, 0, 1])

    def test_quartet_when_discriminant_negative(self):
        roots = char_roots((1.0, 0.26))
        assert all(abs(r.real) > 0 and abs(r.imag) > 0 for r in roots)

    def test_plus_minus_pairing(self):
        roots = char_roots((0.73, -0.11))
        for r in roots:
            assert any(abs(r + s) < 1e-14 for s in roots)

    def test_accepts_coefficients_object(self, classical):
        c = char_coeffs(classical, l4_of(classical))
        assert len(char_roots(c)) == 4


class TestLinearSystem:
    def test_structure(self, classical):
        A = linear_system(classical, l4_of(classical))
        assert A.shape == (4, 4)
        assert np.trace(A) == 0.0
        assert A[2, 3] == -A[3, 2] == 2.0 * classical.n

    def test_determinant_equals_d(self, classical):
        e = l4_of(classical)
        A = linear_system(classical, e)
        assert np.linalg.det(A) == pytest.approx(
            char_coeffs(classical, e).d, rel=1e-10
        )

    def test_eigenvalues_match_char_roots(self):
        for p in (
            CLASSICAL,
            SystemParams(mu=0.025, q1=0.75, a2=0.02, mb=0.2),
            SystemParams(mu=0.3, q1=0.6),
        ):
            e = l4_of(p)
            ev = np.linalg.eigvals(linear_system(p, e))
            cr = char_roots(char_coeffs(p, e))
            assert_roots_match(ev, cr, 1e-10)


class TestClassify:
    def test_classical_l4_stable(self, classical):
        rep = classify(classical, l4_of(classical))
        assert rep.classification == "LinearlyStable"
        assert rep.is_stable
        assert rep.omega1 == pytest.approx(0.890141, abs=5e-7)
        assert rep.omega2 == pytest.approx(0.455686, abs=5e-7)
        assert rep.omega2 < rep.omega1
        assert rep.resonance_k is None

    def test_classical_l1_saddle(self, classical):
        e = [e for e in find_collinear(classical) if e.kind == "L1"][0]
        rep = classify(classical, e)
        assert rep.classification == "Unstable-RealRoot"
        assert rep.omega1 is None
        assert any(r.real > 1e-6 and abs(r.imag) < 1e-12 for r in rep.lambdas)

    def test_above_routh_quartet(self):
        p = SystemParams(mu=0.04)
        rep = classify(p, l4_of(p))
        assert rep.classification == "Unstable-ComplexQuartet"
        assert all(abs(r.real) > 1e-3 for r in rep.lambdas)

    def test_resonant_at_mu2(self, classical):
        mu2 = critical_mass_resonance(classical, 2)
        p = replace(classical, mu=mu2)
        rep = classify(p, l4_of(p))
        assert rep.classification == "Marginal-Resonant"
        assert rep.resonance_k == 2
        assert abs(rep.omega1 - 2.0 * rep.omega2) <= 1e-9

    def test_report_type(self, classical):
        assert isinstance(classify(classical, l4_of(classical)), StabilityReport)

    def test_residual_gate_is_relative_to_the_force_terms(self):
        # Xb2 sits in the belt core, where single force terms reach ~3e3;
        # a bisection polish left it with residual 1.364e-12, which an
        # absolute 1e-12 gate rejected
        p = SystemParams(mu=0.025, mb=0.8)
        xb2 = next(e for e in find_collinear(p) if e.kind == "Xb2")
        assert classify(p, replace(xb2, residual=1.364e-12)).classification
        with pytest.raises(DomainError, match="refine it first"):
            classify(p, replace(xb2, residual=1e-6))

    def test_every_inner_pair_point_classifies(self):
        for mb in np.linspace(0.68, 1.5, 12):
            p = SystemParams(mu=0.025, mb=float(mb))
            for e in find_collinear(p):
                classify(p, e)


class TestCollinearFStar:
    def test_exceeds_one_at_classical_points(self, classical):
        for e in find_collinear(classical):
            assert collinear_f_star(classical, e.x) > 1.0

    def test_reduces_without_belt(self, classical):
        x = 0.6
        s, u = abs(x + classical.mu), abs(x + classical.mu - 1.0)
        expect = (1 - classical.mu) * classical.q1 / s**3 + classical.mu / u**3
        assert collinear_f_star(classical, x) == pytest.approx(expect, rel=1e-14)

    def test_array_and_pole(self, classical):
        vals = collinear_f_star(classical, np.array([0.5, 0.9, 0.97]))
        assert vals[2] > vals[1] > vals[0]  # grows toward the pole at 1 - mu


class TestCriticalMassExact:
    PRINTED = {1: 0.0385209, 2: 0.0242939, 3: 0.013516, 4: 0.00827037, 5: 0.0055092}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_classical_matches_printed_and_oracle(self, classical, k):
        mu_k = critical_mass_exact(classical, k)
        assert mu_k == pytest.approx(self.PRINTED[k], abs=1e-5)
        assert mu_k == pytest.approx(classical_resonance_mu(k), abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bisection_route_agrees_classically(self, classical, k):
        assert critical_mass_resonance(classical, k) == pytest.approx(
            critical_mass_exact(classical, k), abs=1e-9
        )

    def test_monotone_in_k(self, classical):
        mus = [critical_mass_exact(classical, k) for k in range(1, 6)]
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_rejects_bad_k(self, classical):
        with pytest.raises(DomainError):
            critical_mass_exact(classical, 0)

    def test_resonance_terms_values(self, classical):
        K, b1, b2 = resonance_terms(classical, 1)
        assert K == 0.25
        assert b1 == 1.0 and b2 == 0.0
        t = resonance_terms(SystemParams(mu=0.025, a2=0.02, mb=0.2), 2)
        assert isinstance(t, ResonanceTerms)
        assert t.K == pytest.approx(4.0 / 25.0)
        w3 = (0.8**2 + 0.01**2) ** 1.5
        assert t.b2 == pytest.approx(0.02 * (1.0 + 5.0 * 0.6 * 0.2 / w3))


class TestCriticalMassLinear:
    def test_constant_terms_exact(self):
        assert critical_mass_linear(0.0, 0.0, 0.0, 1) == 0.0385208965
        assert critical_mass_linear(0.0, 0.0, 0.0, 2) == 0.0242938971
        assert critical_mass_linear(0.0, 0.0, 0.0, 3) == 0.0135160160

    def test_slope_substitution(self):
        assert critical_mass_linear(0.02, 0.0, 0.0, 1) == pytest.approx(
            0.0385208965 + 0.02 * 0.0375419787, abs=1e-15
        )

    def test_rejects_k_outside_series(self):
        with pytest.raises(DomainError):
            critical_mass_linear(0.0, 0.0, 0.0, 4)

    def test_warns_large_eps(self):
        with pytest.warns(UserWarning, match="linear regime"):
            critical_mass_linear(0.0, 0.3, 0.0, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_vs_linear_gap_quadratic(self, classical, k):
        def gap(s):
            mu_e = critical_mass_exact(
                SystemParams(mu=0.025, q1=1.0 - 0.1 * s, a2=0.02 * s), k
            )
            mu_l = critical_mass_linear(0.02 * s, 0.1 * s, 0.0, k)
            return abs(mu_e - mu_l)

        # a2/eps directions only: the belt slope of the printed series is
        # inconsistent with the closed expression, leaving a linear residue.
        # Same-sign cubic terms hold the halving ratio a little below 4 at
        # finite amplitude; it climbs monotonically toward 4 as the
        # perturbation shrinks, which is the quadratic-order signature.
        ratios = [gap(s) / gap(s / 2) for s in (1.0, 0.5, 0.25)]
        assert ratios[0] >= 3.5
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] >= 3.9


class TestStabilityFlip:
    def test_classical_routh_value(self, classical):
        flip = stability_flip(classical)
        assert flip == pytest.approx(0.0385201, abs=1e-6)
        assert flip == pytest.approx(0.03852089650455137, abs=1e-9)

    def test_flip_equals_k1_resonance(self, classical):
        assert stability_flip(classical) == pytest.approx(
            critical_mass_resonance(classical, 1), abs=1e-9
        )

    def test_oblateness_trend_exact_vs_series(self, classical):
        """The published series raises the k=1 threshold with oblateness
        (+0.0375 a2), but the exact Hessian-route flip moves the other way:
        the true d grows faster with a2 than the closed form's, pulling the
        b^2 = 4d crossing to smaller mu.  Both behaviors are pinned here."""
        flip_a2 = stability_flip(SystemParams(mu=0.025, a2=0.02))
        assert flip_a2 < stability_flip(classical)
        assert flip_a2 == pytest.approx(0.03733375946820021, abs=1e-9)
        assert critical_mass_exact(
            SystemParams(mu=0.025, a2=0.02), 1
        ) > critical_mass_exact(classical, 1)


class TestLimitQ1Zero:
    def test_coefficients(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = SystemParams(mu=0.025, q1=0.0, a2=0.02)
        c = limit_coefficients_q1_zero(p)
        assert c.b == pytest.approx(p.n2 - 3.0 * p.mu * p.a2, abs=1e-15)
        assert c.d == pytest.approx(9.0 * 0.025 * 0.975, abs=1e-15)
        assert c.g == 1.0

    def test_frequencies_match_published_row(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p0 = SystemParams(mu=0.025, q1=0.0)
            p2 = SystemParams(mu=0.025, q1=0.0, a2=0.02)
        w1, w2 = triangular_frequencies(p0)
        assert w1 == pytest.approx(0.821584, abs=5e-6)
        assert w2 == pytest.approx(0.570088, abs=5e-6)
        w1b, w2b = triangular_frequencies(p2)
        assert w1b == pytest.approx(0.852388, abs=5e-6)
        assert w2b == pytest.approx(0.549485, abs=5e-6)

    def test_refuses_belt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = SystemParams(mu=0.025, q1=0.0, mb=0.2)
        with pytest.raises(NoTriangularPointsError):
            limit_coefficients_q1_zero(p)


class TestFrequencies:
    def test_omega2_monotone_in_radiation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params = [SystemParams(mu=0.025, q1=q) for q in (1.0, 0.75, 0.5, 0.25, 0.0)]
        w2s = [triangular_frequencies(p)[1] for p in params]
        assert all(a < b for a, b in zip(w2s, w2s[1:]))

    def test_unstable_side_rejected(self):
        with pytest.raises(DomainError, match="stable side"):
            triangular_frequencies(SystemParams(mu=0.05))

    def test_belt_raises_frequencies(self, classical):
        w1_belt, _ = triangular_frequencies(SystemParams(mu=0.025, mb=0.2))
        w1, _ = triangular_frequencies(classical)
        assert w1_belt > w1  # published trend: increasing with belt mass


class TestCollinearSweep:
    KNOWN_STABLE_CELLS = {
        (0.75, 0.0, 0.6),
        (0.75, 0.02, 0.6),
        (0.5, 0.0, 0.4),
        (0.5, 0.0, 0.6),
        (0.5, 0.02, 0.4),
        (0.5, 0.02, 0.6),
    }

    def test_grid_classifications(self):
        """Published claim: every collinear point is unstable.  The saddles
        all are; the belt-induced Xb1 minimum however classifies
        LinearlyStable in six strong-belt cells, so the claim fails there
        and the exceptions are pinned down exactly."""
        stable_cells = set()
        for q1 in (1.0, 0.75, 0.5):
            for a2 in (0.0, 0.02):
                for mb in (0.0, 0.2, 0.4, 0.6):
                    p = SystemParams(mu=0.025, q1=q1, a2=a2, mb=mb)
                    for e in find_collinear(p):
                        rep = classify(p, e)
                        if not rep.classification.startswith("Unstable"):
                            assert e.kind == "Xb1"
                            stable_cells.add((q1, a2, mb))
        assert stable_cells == self.KNOWN_STABLE_CELLS


# property-based coverage
@settings(max_examples=40, deadline=None)
@given(b=st.floats(-3, 3), d=st.floats(-2, 2))
def test_char_roots_pairing_and_products(b, d):
    roots = char_roots((b, d))
    assert sum(roots) == pytest.approx(0.0, abs=1e-9)
    prod = roots[0] * roots[1] * roots[2] * roots[3]
    assert prod.real == pytest.approx(d, abs=1e-9)
    assert prod.imag == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(0.01, 0.45),
    q1=st.floats(0.3, 1.0),
    a2=st.floats(0.0, 0.05),
    mb=st.floats(0.0, 0.5),
)
def test_eigenvalues_agree_with_quartic_everywhere(mu, q1, a2, mb):
    p = SystemParams(mu=mu, q1=q1, a2=a2, mb=mb)
    try:
        e = find_triangular(p)[0]
    except NoTriangularPointsError:
        return
    assert_roots_match(
        np.linalg.eigvals(linear_system(p, e)),
        char_roots(char_coeffs(p, e)),
        1e-10,
    )
