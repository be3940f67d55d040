"""Linear stability of equilibria.

The variational system about an equilibrium has the block form

    d/dt (a, b, a', b') = A (a, b, a', b'),
    A = [[0, 0, 1, 0], [0, 0, 0, 1],
         [Oxx, Oxy, 0, 2n], [Oxy, Oyy, -2n, 0]],

whose characteristic polynomial is the even quartic l^4 + b l^2 + d with
b = 4n^2 - Oxx - Oyy and d = Oxx Oyy - Oxy^2.  That Hessian route is the
normative one: char_coeffs and classify use nothing else.  The published
closed forms, f* (_f_star) and the y*^2 bracket g (_g_bracket), are each
written once and serve only as cross-checks, since their belt terms
deviate from the Hessian at first order in mb.

Critical mass ratios mu_k mark the k:1 frequency resonances omega1 = k
omega2 of the triangular points.  Three routes are provided: the published
closed expression (with its auxiliary b1, b2 coefficients evaluated at
r = rc), the Hessian-route residual K b^2 - d of the refined point, and the
published linear-in-perturbation series.  The first two are roots in mu of
a residual at the refined point: _resonance_root brackets a sign change
from the classical mu_k and finishes it with equilibria.brent, the same
Brent solver that polishes the axis roots.  stability_flip runs it on the
classification.  critical_mass_exact also takes lists, whose searches
_resonance_roots runs as lanes, each with the scalar search's float bit for
bit (README, "How critical masses are found"); table2 makes one such call.
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
    _triangular_lanes,
    brent,
    brent_lanes,
    find_triangular,
    require_refined,
)
from .errors import (
    DomainError,
    NoResonanceError,
    NoTriangularPointsError,
    NumericalError,
)
from .model import (
    LaneParams,
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
    """Quartic coefficients.  Only the published closed forms fill the
    auxiliaries: f_star, the f* combination of inverse-cube attractions,
    and g, the y*^2 resonance bracket."""

    b: float
    d: float
    f_star: float | None = None
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


def _f_star(p: SystemParams, x, y, r1, r2):
    # floats or numpy arrays, with model.kernel's choice of square root
    w = x * x + y * y + p.t2
    root = math.sqrt if type(w) is float else np.sqrt
    return (
        (1.0 - p.mu) * p.q1 / r1**3
        + (p.mu / r2**3) * (1.0 + 1.5 * p.a2 / r2**2)
        # one factor of w at a time: w^2.5 underflows in a belt core for T < 1e-65
        + (3.0 * p.mb / w / w / root(w) if p.mb else 0.0)
    )


def _g_bracket(p: SystemParams, x: float, y: float, r1: float, r2: float, w: float) -> float:
    # w = r^2 + T^2 sets the belt term's radius; y^2 multiplies the whole
    # bracket, belt sub-terms included
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
    # a point in the core of a belt thinner than ~1e-50: Omega_xx and
    # Omega_yy reach M_b / T^3, and b^2 and their product d leave double
    # range, so classify could not tell the sign of b^2 - 4d
    _require_finite(b, d, f" at {e.kind}")
    return CharCoefficients(b, d)


def _require_finite(b: float, d: float, where: str = "") -> None:
    if not math.isfinite(b * b - 4.0 * d):  # nor is it for a nan or infinite b or d
        raise DomainError(f"characteristic coefficients overflow{where} (b = {b:.3g}, d = {d:.3g})")


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
    w = e.x * e.x + e.y * e.y + p.t2
    fs = _f_star(p, e.x, e.y, e.r1, e.r2)
    b = (
        2.0 * p.n2
        - fs
        - 3.0 * p.mu * p.a2 / e.r2**5
        + 3.0 * p.mb * p.t2 / w**2.5
    )
    g = _g_bracket(p, e.x, e.y, e.r1, e.r2, w)
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

    Accepts CharCoefficients or a (b, d) pair; a non-finite b^2 - 4d raises DomainError.
    The two l^2 values are checked against the coefficients (sum -b, product d) to relative 1e-12.
    """
    b, d = (c.b, c.d) if isinstance(c, CharCoefficients) else (float(c[0]), float(c[1]))
    _require_finite(b, d)
    disc = cmath.sqrt(complex(b * b - 4.0 * d))
    lam2 = ((-b + disc) / 2.0, (-b - disc) / 2.0)
    scale = max(1.0, abs(b), abs(d))
    if not (abs(lam2[0] + lam2[1] + b) <= 1e-12 * scale  # so that a nan fails it
            and abs(lam2[0] * lam2[1] - d) <= 1e-12 * scale):
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


def classify(p: SystemParams, e: EquilibriumPoint) -> StabilityReport:
    """Stability category of a refined equilibrium.

    4d > b^2 gives the complex quartet.  On the stable side (b > 0,
    0 < 4d <= b^2) the point is LinearlyStable unless the frequencies sit on
    a k:1 commensurability for k in {1, 2, 3}, which is flagged
    Marginal-Resonant; 4d = b^2 repeats the frequency, so k = 1.  Anything
    else (d <= 0, or b <= 0) has a real non-negative l^2: Unstable-RealRoot.
    """
    c = char_coeffs(p, e)
    roots = char_roots(c)
    omega1 = omega2 = resonance_k = None
    if c.d > 0.0 and c.b * c.b - 4.0 * c.d < 0.0:
        category = UNSTABLE_QUARTET
    elif (freqs := _frequencies(c.b, c.d)) is None:
        category = UNSTABLE_REAL
    else:
        omega1, omega2 = freqs
        category = LINEARLY_STABLE
        for k in (1, 2, 3):
            if abs(omega1 - k * omega2) <= RESONANCE_TOL:
                category = MARGINAL_RESONANT
                resonance_k = k
                break
    return StabilityReport(e, c, roots, category, omega1, omega2, resonance_k)


def collinear_f_star(p: SystemParams, x):
    """Published axis profile f(x) whose f > 1 excess signals instability
    of the collinear points.  Accepts scalars or arrays.  Raises DomainError
    where f* leaves double range: about 3 M_b / T^5 in the core of a belt
    thinner than 1e-62."""
    x = np.asarray(x, dtype=float)
    check_regular(p, x, 0.0)
    with np.errstate(over="ignore"):
        val = _f_star(p, x, 0.0, np.abs(x + p.mu), np.abs(x + p.mu - 1.0))
    finite = np.isfinite(val)
    if not np.all(finite):
        bad = float(x[~finite].flat[0])
        raise DomainError(f"f* leaves double range at x = {bad:.6g}")
    return float(val) if np.ndim(val) == 0 else val


def resonance_terms(p: SystemParams, k: int) -> ResonanceTerms:
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"resonance order k must be an integer >= 1, got {k!r}")
    K = k * k / (k * k + 1) ** 2
    w3 = (p.rc**2 + p.t2) ** 1.5
    w5 = (p.rc**2 + p.t2) ** 2.5
    b1 = p.n2 + 2.0 * p.rc * p.mb / w3 + 3.0 * p.mb * p.t2 / w5
    b2 = p.a2 * (1.0 + 5.0 * (2.0 * p.rc - 1.0) * p.mb / w3)
    return ResonanceTerms(K, b1, b2)


def classical_resonance_mu(k: int) -> float:
    """Closed classical value: mu_k = (1 - sqrt(1 - 16K/27)) / 2, from
    b = 1, d = (27/4) mu (1 - mu), d/b^2 = K at the k:1 commensurability."""
    K = resonance_terms(SystemParams(mu=0.025), k).K
    return 0.5 * (1.0 - math.sqrt(1.0 - 16.0 * K / 27.0))


def _no_crossing(k: int, start: float, mu: float) -> NoResonanceError:
    return NoResonanceError(f"no resonance crossing in (0, 1/2] for k = {k}: the residual "
                            f"keeps its sign from mu = {start:.6g} to {mu:.3g}")


def _resonance_root(base: SystemParams, k: int, residual) -> float:
    """Mass ratio where residual(stage, L4) changes sign, L4 being the
    refined triangular point of base at that mass ratio.

    The bracket search starts at the classical mu_k and doubles mu while the
    residual stays positive (below the root), or halves it while it stays
    negative, until the sign changes in (0, 1/2]; Brent's method then
    finishes the bracket to 1e-15 in mu."""

    def f(mu: float) -> float:
        stage = replace(base, mu=mu)
        point, _ = find_triangular(stage)
        return residual(stage, point)

    start = b = classical_resonance_mu(k)
    fb = f(b)
    factor = 2.0 if fb > 0.0 else 0.5
    a, fa = b, fb
    while fb != 0.0 and (fa > 0.0) == (fb > 0.0):
        if not 1e-6 <= b < 0.5:
            raise _no_crossing(k, start, b)
        a, fa = b, fb
        b = min(factor * b, 0.5)
        fb = f(b)
    return brent(f, a, b, fa, fb, atol=1e-15)


def _resonance_roots(bases, ks, make_residual) -> list:
    """_resonance_root(bases[i], ks[i], make_residual(bases[i], ks[i])), or
    the error that stops it, for every lane i at once: the bracket search
    with masks, then one brent_lanes in mu.  The stages' L4 come from
    equilibria._triangular_lanes, and the residuals run on floats."""
    out, residuals = [None] * len(bases), {}
    for i, (p, k) in enumerate(zip(bases, ks)):
        try:
            residuals[i] = make_residual(p, k)
            if p.q1 <= 0.0:
                find_triangular(p)  # refuses it
        except (DomainError, NumericalError) as exc:
            out[i] = exc
    lanes = [i for i, o in enumerate(out) if o is None]
    if not lanes:
        return out
    ps, ends = [bases[i] for i in lanes], {}  # ends: the crossing ends of each (q1, A2)
    q = LaneParams(*map(np.atleast_1d, LaneParams.of(ps)))

    def f(sel, mu):  # at mass ratios mu for the lanes sel; 0.0 stops a lane that fails
        stage = q.at(sel)._replace(mu=mu)
        points = _triangular_lanes(stage, [ps[j] for j in sel], ends)
        val = np.zeros(sel.size)
        for n, (j, row, point) in enumerate(zip(sel.tolist(), zip(*(v.tolist() for v in stage)), points)):
            if isinstance(point, Exception):
                out[lanes[j]] = point
            else:
                val[n] = residuals[lanes[j]](LaneParams._make(row), point)
        return val

    first = {k: classical_resonance_mu(k) for k in {ks[i] for i in lanes}}
    start = np.array([first[ks[i]] for i in lanes])
    todo, b = np.arange(len(lanes)), start.copy()
    fb = f(todo, b)
    factor, a, fa = np.where(fb > 0.0, 2.0, 0.5), b.copy(), fb.copy()
    while True:
        todo = todo[(fb[todo] != 0.0) & ((fa[todo] > 0.0) == (fb[todo] > 0.0))]
        far = ~((1e-6 <= b[todo]) & (b[todo] < 0.5))
        for j in todo[far].tolist():
            out[lanes[j]] = _no_crossing(ks[lanes[j]], start[j], b[j])
        todo = todo[~far]
        if not todo.size:
            break
        a[todo], fa[todo] = b[todo], fb[todo]
        b[todo] = np.minimum(factor[todo] * b[todo], 0.5)
        fb[todo] = f(todo, b[todo])
    ok = np.flatnonzero([out[i] is None for i in lanes])
    roots = brent_lanes(lambda i, x: f(ok[i], x), a[ok], b[ok], fa[ok], fb[ok], atol=1e-15)
    for j, root in zip(ok.tolist(), roots.tolist()):
        if out[lanes[j]] is None:
            out[lanes[j]] = root
    return out


def _closed_residual(base: SystemParams, k: int):
    """critical_mass_exact's residual(stage, L4) for base and k."""
    K, b1, b2 = resonance_terms(base, k)
    w_rc = base.rc**2 + base.t2  # the belt radius frozen at rc, the closed form's convention

    def residual(stage, point) -> float:
        mu, g = stage.mu, _g_bracket(stage, point.x, point.y, point.r1, point.r2, w_rc)
        return K * (b1 - 3.0 * mu * b2) ** 2 - 9.0 * mu * (1.0 - mu) * g

    return residual


def critical_mass_exact(base, k):
    """Critical mass ratio of the k:1 resonance from the closed expression

        mu_k = (3g + 2K b1 b2 - sqrt(g) sqrt(9g - 4K b1^2 + 12K b1 b2))
               / (6 (g + K b2^2)),

    the smaller root in mu of K (b1 - 3 mu b2)^2 = 9 mu (1 - mu) g with g
    held fixed.  g is the bracket at the triangular point, so
    it depends on mu; the root of that residual with g = g(mu) is found by
    _resonance_root.  The published radical carries 12 b1 b2; the K factor
    restored here is required for the classical limit to reduce to the
    closed classical value.  base's own mu is ignored.  For lists of
    parameter sets and orders, the searches run at once as lanes
    (_resonance_roots): each gives its float, bit for bit, or its error.
    """
    if not isinstance(base, SystemParams):
        if len(base) != len(k):
            raise DomainError(f"{len(base)} parameter sets but {len(k)} orders")
        return _resonance_roots(base, k, _closed_residual)
    return _resonance_root(base, k, _closed_residual(base, k))


def critical_mass_resonance(base: SystemParams, k: int) -> float:
    """Independent route: the root of K b^2 - d of the refined triangular
    point (Hessian route), which vanishes exactly at omega1 = k omega2.  For
    k = 1 this is the b^2 = 4d stability boundary itself."""
    K, _, _ = resonance_terms(base, k)

    def residual(stage: SystemParams, point: EquilibriumPoint) -> float:
        c = char_coeffs(stage, point)
        return K * c.b * c.b - c.d

    return _resonance_root(base, k, residual)


def stability_flip(base: SystemParams) -> float:
    """Mass ratio in [1e-4, 1/2] where the refined triangular point's
    classification leaves the stable side: Brent's method on +1 (stable)
    and -1 from classify, which on a two-valued function bisects."""

    def stable(mu: float) -> float:
        stage = replace(base, mu=mu)
        point, _ = find_triangular(stage)
        category = classify(stage, point).classification
        return 1.0 if category in (LINEARLY_STABLE, MARGINAL_RESONANT) else -1.0

    slo, shi = stable(1e-4), stable(0.5)
    if slo < 0.0:
        raise NoResonanceError("triangular point already unstable at mu = 1e-4")
    if shi > 0.0:
        raise NoResonanceError("no stability flip below mu = 0.5")
    return brent(stable, 1e-4, 0.5, slo, shi, atol=1e-15)


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
