"""Effective potential and core parameters of the rotating-frame model.

The setting is the planar circular restricted three-body problem in the usual
normalization (primary separation, total primary mass, and gravitational
constant all equal to 1).  Three perturbations are layered on top of the
classical problem:

* the bigger primary at (-mu, 0) radiates, which scales its effective
  gravitational pull by the mass-reduction factor q1 <= 1;
* the smaller primary at (1 - mu, 0) is oblate with coefficient A2 >= 0;
* a flattened belt of total mass M_b, described by a Miyamoto-Nagai style
  potential collapsed to the orbital plane, is centred on the barycentre.

The synodic frame rotates with the perturbed mean motion n, where
n^2 = 1 + (3/2) A2 + 2 M_b rc / (rc^2 + T^2)^{3/2}.  The belt terms inside
the effective potential use the instantaneous r^2 = x^2 + y^2, while the n^2
correction uses the fixed reference radius rc.  These are distinct radii on
purpose.  The factor rc in the n^2 belt term is the one the published
series carry: the off-axis balance q1 / r1^3 = n^2 - M_b / (rc^2 + T^2)^{3/2}
has the belt part (2 rc - 1) M_b / (rc^2 + T^2)^{3/2}, which gives the
(1 - 2 rc) factor of the printed triangular radii and of the b2 resonance
term, and the published frequency pairs satisfy omega1^2 + omega2^2 ~ n^2
only with it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularPointError

# Positions closer than this to either primary are rejected as singular.
SINGULARITY_RADIUS = 1e-12

BIGGER_PRIMARY = "bigger primary at (-mu, 0)"
SMALLER_PRIMARY = "smaller primary at (1 - mu, 0)"


@dataclass(frozen=True)
class SystemParams:
    """Immutable parameter set; n^2 is computed once and cached.

    Attributes:
        mu: mass ratio of the smaller primary, 0 < mu <= 1/2.
        q1: mass-reduction factor of the radiating primary, q1 <= 1.
            Values <= 0 (radiation pressure at or beyond gravity) are admitted
            but flagged with a warning.
        a2: oblateness coefficient of the smaller primary, >= 0.
        mb: total belt mass in primary-mass units, >= 0.
        t_belt: belt shape parameter T = a + b (flatness plus core), >= 0.
        rc: reference radius for the mean-motion belt correction, > 0.
    """

    mu: float = 0.025
    q1: float = 1.0
    a2: float = 0.0
    mb: float = 0.0
    t_belt: float = 0.01
    rc: float = 0.8
    n2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.mu <= 0.5:
            raise DomainError(f"mu must lie in (0, 1/2], got {self.mu}")
        if not self.q1 <= 1.0:
            raise DomainError(f"q1 must be <= 1, got {self.q1}")
        if self.a2 < 0.0:
            raise DomainError(f"a2 must be >= 0, got {self.a2}")
        if self.mb < 0.0:
            raise DomainError(f"mb must be >= 0, got {self.mb}")
        if self.t_belt < 0.0:
            raise DomainError(f"t_belt must be >= 0, got {self.t_belt}")
        if not self.rc > 0.0:
            raise DomainError(f"rc must be > 0, got {self.rc}")
        for name in ("mu", "q1", "a2", "mb", "t_belt", "rc"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.q1 <= 0.0:
            warnings.warn(
                f"q1 = {self.q1} <= 0: radiation pressure cancels or exceeds "
                "the bigger primary's gravity; most closed forms degenerate",
                UserWarning,
                stacklevel=2,
            )
        object.__setattr__(
            self,
            "n2",
            1.0
            + 1.5 * self.a2
            + 2.0 * self.mb * self.rc / (self.rc**2 + self.t_belt**2) ** 1.5,
        )

    @property
    def n(self) -> float:
        return math.sqrt(self.n2)

    def primaries(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Rotating-frame coordinates of (bigger, smaller) primary."""
        return (-self.mu, 0.0), (1.0 - self.mu, 0.0)


@dataclass(frozen=True)
class RotState:
    """Rotating-frame state (position, velocity, time stamp)."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "vx", "vy", "t"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"RotState.{name} must be finite")


@dataclass(frozen=True)
class BeltProfile:
    """Belt shape: flatness parameter a, core parameter b, total mass mb."""

    mb: float
    a_flat: float
    b_core: float

    def __post_init__(self):
        if self.mb < 0.0:
            raise DomainError(f"mb must be >= 0, got {self.mb}")
        if self.a_flat < 0.0 or self.b_core < 0.0:
            raise DomainError("a_flat and b_core must be >= 0")

    @property
    def t_belt(self) -> float:
        return self.a_flat + self.b_core


@dataclass(frozen=True)
class RadiationInput:
    """Grain properties fixing the mass-reduction factor (CGS units)."""

    particle_radius: float  # cm
    particle_density: float  # g / cm^3
    chi: float  # radiation-pressure efficiency factor

    def __post_init__(self):
        if not self.particle_radius > 0.0:
            raise DomainError("particle_radius must be > 0")
        if not self.particle_density > 0.0:
            raise DomainError("particle_density must be > 0")
        if self.chi < 0.0:
            raise DomainError("chi must be >= 0")


def mean_motion(p: SystemParams) -> float:
    """Perturbed mean motion n of the rotating frame."""
    return p.n


def q1_from_particle(r: RadiationInput) -> float:
    """Mass-reduction factor q1 = 1 - 5.6e-5 * chi / (a * rho).

    May come out <= 0 for sufficiently small or light grains; the value is
    returned as-is with a warning so callers can decide what to do with it.
    """
    denom = r.particle_radius * r.particle_density
    if denom == 0.0:
        raise DomainError("particle_radius * particle_density must be nonzero")
    q1 = 1.0 - 5.6e-5 * r.chi / denom
    if q1 <= 0.0:
        warnings.warn(
            f"q1 = {q1:.6g} <= 0: radiation pressure exceeds gravity for this grain",
            UserWarning,
            stacklevel=2,
        )
    return q1


def belt_potential(profile: BeltProfile, r: float, z: float) -> float:
    """Belt potential V(r, z) = -mb / sqrt(r^2 + (a + sqrt(z^2 + b^2))^2).

    At z = 0 this reduces exactly to -mb / sqrt(r^2 + T^2) with T = a + b.
    """
    if profile.mb == 0.0:
        return 0.0
    s = profile.a_flat + math.hypot(z, profile.b_core)
    denom = math.hypot(r, s)
    if denom == 0.0:
        raise SingularPointError("belt centre (r = z = a = b = 0)", 0.0)
    return -profile.mb / denom


def belt_density(profile: BeltProfile, r: float, z: float) -> float:
    """Belt volume density, evaluated exactly as the printed profile.

    rho = b^2 mb [a r^2 + (a + 3N)] (a + N)^2 / (N^3 [r^2 + (a + N)^2]^{5/2})
    with N = sqrt(z^2 + b^2).  Note two quirks kept on purpose: the numerator
    groups (a + 3N) alone rather than (a + 3N)(a + N)^2 with the a r^2 term,
    and there is no 1/(4 pi) normalization.  Diagnostic output only; nothing
    downstream integrates this density.
    """
    if profile.mb == 0.0:
        return 0.0
    if profile.b_core == 0.0:
        raise DomainError("b_core must be > 0 for the density (N^3 singular)")
    a = profile.a_flat
    n_core = math.hypot(z, profile.b_core)
    num = (
        profile.b_core**2
        * profile.mb
        * (a * r * r + (a + 3.0 * n_core))
        * (a + n_core) ** 2
    )
    den = n_core**3 * (r * r + (a + n_core) ** 2) ** 2.5
    return num / den


# ---------------------------------------------------------------------------
# Effective potential.  All three functions accept scalars or numpy arrays
# and return matching shapes; scalar inputs give back plain floats.


def _fields(p: SystemParams, x, y):
    """Common distance quantities; raises on (numerically) singular input."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x + p.mu
    u = x + p.mu - 1.0
    r1 = np.hypot(s, y)
    r2 = np.hypot(u, y)
    if np.any(r1 < SINGULARITY_RADIUS):
        raise SingularPointError(BIGGER_PRIMARY, float(np.min(r1)))
    if np.any(r2 < SINGULARITY_RADIUS):
        raise SingularPointError(SMALLER_PRIMARY, float(np.min(r2)))
    w = x * x + y * y + p.t_belt**2
    if p.mb > 0.0 and np.any(w == 0.0):
        raise SingularPointError("belt centre (origin with t_belt = 0)", 0.0)
    return x, y, s, u, r1, r2, w


def _ret(v):
    return float(v) if np.ndim(v) == 0 else v


def omega(p: SystemParams, x, y):
    """Effective potential Omega(x, y)."""
    x, y, s, u, r1, r2, w = _fields(p, x, y)
    val = (
        0.5 * p.n2 * (x * x + y * y)
        + (1.0 - p.mu) * p.q1 / r1
        + p.mu / r2
        + 0.5 * p.mu * p.a2 / r2**3
        + (p.mb / np.sqrt(w) if p.mb else 0.0)
    )
    return _ret(val)


def omega_grad(p: SystemParams, x, y):
    """Exact partial derivatives (Omega_x, Omega_y)."""
    x, y, s, u, r1, r2, w = _fields(p, x, y)
    a_big = (1.0 - p.mu) * p.q1
    r13 = r1**3
    r23 = r2**3
    r25 = r2**5
    belt = p.mb / w**1.5 if p.mb else 0.0
    gx = p.n2 * x - a_big * s / r13 - p.mu * u / r23 - 1.5 * p.mu * p.a2 * u / r25 - belt * x
    gy = p.n2 * y - a_big * y / r13 - p.mu * y / r23 - 1.5 * p.mu * p.a2 * y / r25 - belt * y
    return _ret(gx), _ret(gy)


def omega_hessian(p: SystemParams, x, y):
    """Second derivatives (Omega_xx, Omega_xy, Omega_yy); symmetric by construction."""
    x, y, s, u, r1, r2, w = _fields(p, x, y)
    a_big = (1.0 - p.mu) * p.q1
    c_obl = 1.5 * p.mu * p.a2
    r13, r15 = r1**3, r1**5
    r23, r25, r27 = r2**3, r2**5, r2**7
    if p.mb:
        w3, w5 = w**1.5, w**2.5
        bxx = p.mb * (1.0 / w3 - 3.0 * x * x / w5)
        byy = p.mb * (1.0 / w3 - 3.0 * y * y / w5)
        bxy = 3.0 * p.mb * x * y / w5
    else:
        bxx = byy = bxy = 0.0
    oxx = (
        p.n2
        - a_big * (1.0 / r13 - 3.0 * s * s / r15)
        - p.mu * (1.0 / r23 - 3.0 * u * u / r25)
        - c_obl * (1.0 / r25 - 5.0 * u * u / r27)
        - bxx
    )
    oyy = (
        p.n2
        - a_big * (1.0 / r13 - 3.0 * y * y / r15)
        - p.mu * (1.0 / r23 - 3.0 * y * y / r25)
        - c_obl * (1.0 / r25 - 5.0 * y * y / r27)
        - byy
    )
    oxy = (
        3.0 * a_big * s * y / r15
        + 3.0 * p.mu * u * y / r25
        + 5.0 * c_obl * u * y / r27
        + bxy
    )
    return _ret(oxx), _ret(oxy), _ret(oyy)


def grad_scalar(p: SystemParams, x: float, y: float) -> tuple[float, float]:
    """(Omega_x, Omega_y) at one point, in plain floats.

    The scalar kernel of the integrator's hot loop and of the axis root
    polish: the same closed form as omega_grad at a tenth of the cost per
    call.  Equivalence is pinned by a test.
    """
    s = x + p.mu
    u = s - 1.0
    r1sq = s * s + y * y
    r2sq = u * u + y * y
    if r1sq < 1e-24:
        raise SingularPointError(BIGGER_PRIMARY, math.sqrt(r1sq))
    if r2sq < 1e-24:
        raise SingularPointError(SMALLER_PRIMARY, math.sqrt(r2sq))
    r13 = r1sq * math.sqrt(r1sq)
    r23 = r2sq * math.sqrt(r2sq)
    r25 = r23 * r2sq
    a = (1.0 - p.mu) * p.q1 / r13
    b = p.mu / r23
    c = 1.5 * p.mu * p.a2 / r25
    gx = p.n2 * x - a * s - b * u - c * u
    gy = p.n2 * y - a * y - b * y - c * y
    if p.mb:
        w = x * x + y * y + p.t_belt**2
        if w == 0.0:
            raise SingularPointError("belt centre (origin with t_belt = 0)", 0.0)
        bw = p.mb / (w * math.sqrt(w))
        gx -= bw * x
        gy -= bw * y
    return gx, gy


def force_scale(p: SystemParams, x: float, y: float) -> float:
    """Magnitude of the largest single term of grad Omega at (x, y): the
    centrifugal pull, either primary's attraction, the oblateness term or
    the belt's pull.  At an equilibrium these cancel, so a gradient residual
    is meaningful only relative to this scale.  It is infinite on a
    primary."""
    r1sq = (x + p.mu) ** 2 + y * y
    r2sq = (x + p.mu - 1.0) ** 2 + y * y
    if r1sq == 0.0 or r2sq == 0.0:
        return math.inf
    rsq = x * x + y * y
    terms = [
        p.n2 * math.sqrt(rsq),
        (1.0 - p.mu) * abs(p.q1) / r1sq,
        p.mu / r2sq,
        1.5 * p.mu * p.a2 / (r2sq * r2sq),
    ]
    if p.mb:
        w = rsq + p.t_belt**2
        terms.append(p.mb * math.sqrt(rsq) / (w * math.sqrt(w)) if w else 0.0)
    return max(terms)


def jacobi_constant(p: SystemParams, s: RotState) -> float:
    """Jacobi constant C = 2 Omega(x, y) - vx^2 - vy^2."""
    return 2.0 * omega(p, s.x, s.y) - s.vx**2 - s.vy**2


def omega_grid(p: SystemParams, x, y):
    """2*Omega on arrays without the singularity guard.

    Intended for level-set grids where nodes next to a primary are masked
    afterwards; values there may overflow to inf and that is fine.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r1 = np.hypot(x + p.mu, y)
    r2 = np.hypot(x + p.mu - 1.0, y)
    w = x * x + y * y + p.t_belt**2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = (
            p.n2 * (x * x + y * y)
            + 2.0 * (1.0 - p.mu) * p.q1 / r1
            + 2.0 * p.mu / r2
            + p.mu * p.a2 / r2**3
            + (2.0 * p.mb / np.sqrt(w) if p.mb else 0.0)
        )
    return val
