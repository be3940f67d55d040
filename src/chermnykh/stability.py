"""Linear stability of equilibria.

The variational system about an equilibrium has the block form

    d/dt (a, b, a', b') = A (a, b, a', b'),
    A = [[0, 0, 1, 0], [0, 0, 0, 1],
         [Oxx, Oxy, 0, 2n], [Oxy, Oyy, -2n, 0]],

whose characteristic polynomial is the even quartic l^4 + b l^2 + d with
b = 4n^2 - Oxx - Oyy and d = Oxx Oyy - Oxy^2.  That Hessian route is the
normative one here; the published closed forms for b (via f*) and d (via
the y*^2 bracket) are evaluated separately for cross-checks, since their
belt terms deviate from the Hessian at first order in mb.

Critical mass ratios mu_k mark the k:1 frequency resonances omega1 = k
omega2 of the triangular points.  Three routes are provided: the published
closed expression (with its auxiliary b1, b2 coefficients evaluated at
r = rc), direct bisection on K b^2 - d of the refined point, and the
published linear-in-perturbation series.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .reference_data import LINEAR_SERIES
from .equilibria import (
    EquilibriumPoint,
    find_triangular,
    require_refined,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NoResonanceError,
    NoTriangularPointsError,
    NumericalError,
)
from .model import (
    SystemParams,
    check_regular,
    omega_hessian,
)

LINEARLY_STABLE = "LinearlyStable"
UNSTABLE_REAL = "Unstable-RealRoot"
UNSTABLE_QUARTET = "Unstable-ComplexQuartet"
MARGINAL_RESONANT = "Marginal-Resonant"

RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class CharCoefficients:
    """Quartic coefficients plus the closed-form auxiliaries: f_star is the
    f* combination of inverse-cube attractions, g the y*^2 resonance bracket
    (triangular points only, else None)."""

    b: float
    d: float
    f_star: float
    g: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.d)):
            raise DomainError("characteristic coefficients must be finite")


@dataclass(frozen=True)
class StabilityReport:
    """Classification of one equilibrium: quartic coefficients, the four
    roots, the category, and the libration frequencies 0 < omega2 < omega1
    when the point sits on the stable side."""

    point: EquilibriumPoint
    coeffs: CharCoefficients
    lambdas: tuple[complex, complex, complex, complex]
    classification: str
    omega1: float | None = None
    omega2: float | None = None
    resonance_k: int | None = None

    @property
    def is_stable(self) -> bool:
        return self.classification == LINEARLY_STABLE


class ResonanceTerms(NamedTuple):
    """Auxiliary coefficients of the closed critical-mass expression,
    evaluated with the belt radius frozen at rc."""

    K: float
    b1: float
    b2: float


def linear_system(p: SystemParams, e: EquilibriumPoint) -> np.ndarray:
    """First-order variational matrix at a refined equilibrium."""
    require_refined(p, e)
    oxx, oxy, oyy = omega_hessian(p, e.x, e.y)
    n = p.n
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [oxx, oxy, 0.0, 2.0 * n],
            [oxy, oyy, -2.0 * n, 0.0],
        ]
    )


def _f_star(p: SystemParams, x: float, y: float, r1: float, r2: float) -> float:
    w = x * x + y * y + p.t_belt**2
    return (
        (1.0 - p.mu) * p.q1 / r1**3
        + (p.mu / r2**3) * (1.0 + 1.5 * p.a2 / r2**2)
        + 3.0 * p.mb / w**2.5
    )


def _g_bracket(p: SystemParams, x: float, y: float, r1: float, r2: float) -> float:
    # y^2 multiplies the whole bracket, belt sub-terms included
    w = x * x + y * y + p.t_belt**2
    return (y * y) * (
        p.q1 / (r1**5 * r2**5)
        + (3.0 * p.mb / w**2.5)
        * (
            p.mu * p.q1 / r1**5
            + (1.0 - p.mu) * (1.0 + 2.5 * p.a2 / r2**2) / r2**5
        )
    )


def char_coeffs(p: SystemParams, e: EquilibriumPoint) -> CharCoefficients:
    """Quartic coefficients by the Hessian route (normative)."""
    require_refined(p, e)
    oxx, oxy, oyy = omega_hessian(p, e.x, e.y)
    b = 4.0 * p.n2 - oxx - oyy
    d = oxx * oyy - oxy * oxy
    g = _g_bracket(p, e.x, e.y, e.r1, e.r2) if e.is_triangular else None
    return CharCoefficients(b, d, _f_star(p, e.x, e.y, e.r1, e.r2), g)


def char_coeffs_paper_triangular(
    p: SystemParams, e: EquilibriumPoint
) -> CharCoefficients:
    """Published closed forms for the triangular points: b from f* and d
    from the y*^2 bracket; d = 9 mu (1 - mu) g holds exactly by
    construction.  Use for cross-validation against char_coeffs; the belt
    contributions differ from the Hessian route at first order in mb."""
    if not e.is_triangular:
        raise DomainError(
            f"closed triangular forms are undefined for kind {e.kind!r}"
        )
    w = e.x**2 + e.y**2 + p.t_belt**2
    fs = _f_star(p, e.x, e.y, e.r1, e.r2)
    b = (
        2.0 * p.n2
        - fs
        - 3.0 * p.mu * p.a2 / e.r2**5
        + 3.0 * p.mb * p.t_belt**2 / w**2.5
    )
    g = _g_bracket(p, e.x, e.y, e.r1, e.r2)
    d = 9.0 * p.mu * (1.0 - p.mu) * g
    return CharCoefficients(b, d, fs, g)


def limit_coefficients_q1_zero(p: SystemParams) -> CharCoefficients:
    """q1 -> 0 limit of the closed triangular coefficients.

    The off-axis point itself collapses onto the bigger primary, but the
    series coefficients stay finite: b -> n^2 - 3 mu a2, d -> 9 mu (1 - mu)
    (the g bracket tends to 1 and the a2 correction to d vanishes with
    q1^{2/3}).  Only meaningful without a belt; with mb > 0 the limit point
    does not exist at all."""
    if p.mb != 0.0:
        raise NoTriangularPointsError(
            "the q1 -> 0 triangular limit does not survive a belt "
            "(no off-axis equilibria near the bigger primary)"
        )
    b = p.n2 - 3.0 * p.mu * p.a2
    d = 9.0 * p.mu * (1.0 - p.mu)
    return CharCoefficients(b, d, p.n2, 1.0)


def char_roots(c) -> tuple[complex, complex, complex, complex]:
    """The four roots of l^4 + b l^2 + d, via the quadratic in l^2.

    Accepts CharCoefficients or a (b, d) pair.  The two l^2 values are
    checked against the coefficients (sum -b, product d) to relative 1e-12.
    """
    b, d = (c.b, c.d) if isinstance(c, CharCoefficients) else (float(c[0]), float(c[1]))
    disc = cmath.sqrt(complex(b * b - 4.0 * d))
    lam2 = ((-b + disc) / 2.0, (-b - disc) / 2.0)
    scale = max(1.0, abs(b), abs(d))
    if abs(lam2[0] + lam2[1] + b) > 1e-12 * scale or abs(lam2[0] * lam2[1] - d) > 1e-12 * scale:
        raise NumericalError("root-coefficient consistency check failed")
    roots = []
    for l2 in lam2:
        r = cmath.sqrt(l2)
        roots.extend((r, -r))
    roots.sort(key=lambda z: (z.real, z.imag))
    return tuple(roots)


def _frequencies(b: float, d: float) -> tuple[float, float] | None:
    """(omega1, omega2) with omega2 <= omega1 when both l^2 roots are real
    and negative; None otherwise."""
    disc = b * b - 4.0 * d
    if disc < 0.0 or d <= 0.0 or b <= 0.0:
        return None
    s = math.sqrt(disc)
    w1 = math.sqrt((b + s) / 2.0)
    w2 = math.sqrt((b - s) / 2.0)
    return w1, w2


def classify(
    p: SystemParams, e: EquilibriumPoint, resonance_tol: float = RESONANCE_TOL
) -> StabilityReport:
    """Stability category of a refined equilibrium.

    d < 0 gives a real positive root (saddle); on the stable side
    (b > 0, 0 < 4d < b^2) the point is LinearlyStable unless the
    frequencies sit on a k:1 commensurability for k in {1, 2, 3}, which is
    flagged Marginal-Resonant; 4d > b^2 gives the complex quartet.
    """
    c = char_coeffs(p, e)
    roots = char_roots(c)
    disc = c.b * c.b - 4.0 * c.d
    omega1 = omega2 = None
    resonance_k = None
    if c.d < 0.0:
        category = UNSTABLE_REAL
    elif c.b > 0.0 and c.d > 0.0 and disc > 0.0:
        omega1, omega2 = _frequencies(c.b, c.d)
        category = LINEARLY_STABLE
        for k in (1, 2, 3):
            if abs(omega1 - k * omega2) <= resonance_tol:
                category = MARGINAL_RESONANT
                resonance_k = k
                break
    elif c.d > 0.0 and disc < 0.0:
        category = UNSTABLE_QUARTET
    elif c.b > 0.0 and c.d > 0.0:  # disc == 0: exactly repeated frequencies
        omega1 = omega2 = math.sqrt(c.b / 2.0)
        category = MARGINAL_RESONANT
        resonance_k = 1
    else:
        # d == 0 (secular zero root) or b <= 0 (a positive real l^2)
        category = UNSTABLE_REAL
    return StabilityReport(e, c, roots, category, omega1, omega2, resonance_k)


def collinear_f_star(p: SystemParams, x):
    """Published axis profile f(x) whose f > 1 excess signals instability
    of the collinear points.  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    check_regular(p, x, 0.0)
    s = np.abs(x + p.mu)
    u = np.abs(x + p.mu - 1.0)
    w = x * x + p.t_belt**2
    val = (
        (1.0 - p.mu) * p.q1 / s**3
        + (p.mu / u**3) * (1.0 + 1.5 * p.a2 / u**2)
        + (3.0 * p.mb / w**2.5 if p.mb else 0.0)
    )
    return float(val) if np.ndim(val) == 0 else val


def resonance_terms(p: SystemParams, k: int) -> ResonanceTerms:
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"resonance order k must be an integer >= 1, got {k!r}")
    K = k * k / (k * k + 1) ** 2
    w3 = (p.rc**2 + p.t_belt**2) ** 1.5
    w5 = (p.rc**2 + p.t_belt**2) ** 2.5
    b1 = p.n2 + 2.0 * p.rc * p.mb / w3 + 3.0 * p.mb * p.t_belt**2 / w5
    b2 = p.a2 * (1.0 + 5.0 * (2.0 * p.rc - 1.0) * p.mb / w3)
    return ResonanceTerms(K, b1, b2)


def _g_resonance(p: SystemParams, e: EquilibriumPoint) -> float:
    # same bracket as _g_bracket but with the belt radius frozen at rc,
    # matching the r = rc convention of the closed mu_k expression
    w5 = (p.rc**2 + p.t_belt**2) ** 2.5
    return (e.y * e.y) * (
        p.q1 / (e.r1**5 * e.r2**5)
        + (3.0 * p.mb / w5)
        * (
            p.mu * p.q1 / e.r1**5
            + (1.0 - p.mu) * (1.0 + 2.5 * p.a2 / e.r2**2) / e.r2**5
        )
    )


def classical_resonance_mu(k: int) -> float:
    """Closed classical value: mu_k = (1 - sqrt(1 - 16K/27)) / 2, from
    b = 1, d = (27/4) mu (1 - mu), d/b^2 = K at the k:1 commensurability."""
    K = resonance_terms(SystemParams(mu=0.025), k).K
    return 0.5 * (1.0 - math.sqrt(1.0 - 16.0 * K / 27.0))


def critical_mass_exact(base: SystemParams, k: int) -> float:
    """Critical mass ratio of the k:1 resonance from the closed expression

        mu_k = (3g + 2K b1 b2 - sqrt(g) sqrt(9g - 4K b1^2 + 12K b1 b2))
               / (6 (g + K b2^2)),

    iterated to a fixed point in mu because the g bracket depends on the
    triangular point's position, evaluated at the Newton-refined point.
    The published radical carries 12 b1 b2; the K factor restored here is
    required for the classical limit to reduce to the closed classical
    value.  base's own mu is ignored.
    """
    K, b1, b2 = resonance_terms(base, k)
    mu = 0.5 * (1.0 - math.sqrt(1.0 - 16.0 * K / 27.0))
    for _ in range(100):
        stage = replace(base, mu=mu)
        point, _ = find_triangular(stage)
        g = _g_resonance(stage, point)
        rad = 9.0 * g - 4.0 * K * b1 * b1 + 12.0 * K * b1 * b2
        if g <= 0.0 or rad < 0.0:
            raise NoResonanceError(
                f"no resonance crossing in (0, 1/2] for k = {k} "
                f"(radicand {rad:.3e})"
            )
        mu_next = (3.0 * g + 2.0 * K * b1 * b2 - math.sqrt(g) * math.sqrt(rad)) / (
            6.0 * (g + K * b2 * b2)
        )
        if not 0.0 < mu_next <= 0.5:
            raise NoResonanceError(
                f"closed expression left (0, 1/2]: mu = {mu_next:.6g}"
            )
        if abs(mu_next - mu) <= 1e-14:
            return mu_next
        mu = mu_next
    raise ConvergenceError(
        f"critical-mass fixed point did not settle for k = {k}",
        [(mu, 0.0, abs(mu_next - mu))],
    )


def critical_mass_resonance(base: SystemParams, k: int) -> float:
    """Independent route: bisection on K b^2 - d of the refined triangular
    point, which vanishes exactly at omega1 = k omega2.  For k = 1 this is
    the b^2 = 4d stability boundary itself."""
    K, _, _ = resonance_terms(base, k)

    def s(mu: float) -> float:
        stage = replace(base, mu=mu)
        point, _ = find_triangular(stage)
        c = char_coeffs(stage, point)
        return K * c.b * c.b - c.d

    lo, hi = 1e-6, 0.5
    slo, shi = s(lo), s(hi)
    if slo == 0.0:
        return lo
    if shi == 0.0:
        return hi
    if slo * shi > 0.0:
        raise NoResonanceError(f"no resonance crossing in (0, 1/2] for k = {k}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        sm = s(mid)
        if sm == 0.0:
            return mid
        if slo * sm < 0.0:
            hi, shi = mid, sm
        else:
            lo, slo = mid, sm
    return 0.5 * (lo + hi)


def stability_flip(base: SystemParams) -> float:
    """Mass ratio where the refined triangular point's classification
    leaves the stable side, located by bisection on classify."""

    def stable(mu: float) -> bool:
        stage = replace(base, mu=mu)
        point, _ = find_triangular(stage)
        return classify(stage, point).classification in (
            LINEARLY_STABLE,
            MARGINAL_RESONANT,
        )

    lo, hi = 1e-4, 0.5
    if not stable(lo):
        raise NoResonanceError("triangular point already unstable at mu = 1e-4")
    if stable(hi):
        raise NoResonanceError("no stability flip below mu = 0.5")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_mass_linear(a2: float, eps: float, mb: float, k: int) -> float:
    """Published linear-in-perturbation critical mass series, k in {1,2,3};
    eps = 1 - q1."""
    if k not in LINEAR_SERIES:
        raise DomainError(f"linear series published only for k in {{1,2,3}}, got {k!r}")
    if abs(eps) > 0.25:
        warnings.warn(
            f"eps = {eps} is outside the linear regime |eps| << 1",
            UserWarning,
            stacklevel=2,
        )
    c0, ca, ce, cm = LINEAR_SERIES[k]
    return c0 + ca * a2 + ce * eps + cm * mb


def triangular_frequencies(p: SystemParams) -> tuple[float, float]:
    """(omega1, omega2) of the triangular point, dispatching q1 = 0 to the
    analytic limit (the point itself is degenerate there)."""
    if p.q1 == 0.0:
        c = limit_coefficients_q1_zero(p)
        freqs = _frequencies(c.b, c.d)
    else:
        l4, _ = find_triangular(p)
        report = classify(p, l4)
        freqs = (report.omega1, report.omega2) if report.omega1 is not None else None
    if freqs is None:
        raise DomainError(
            "frequencies are undefined off the stable side (roots not "
            "purely imaginary)"
        )
    return freqs
