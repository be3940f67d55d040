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

Omega and its first two derivatives are written out once, in ``kernel``,
whose body runs unchanged on Python floats and on numpy arrays.
``omega``, ``omega_grad`` and ``omega_hessian`` are that kernel behind the
singularity guard ``check_regular``; ``omega_grid`` is the unguarded
kernel for level-set grids.
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

# Below this belt width T, the belt's pull M_b r / w^{3/2}, w = r^2 + T^2,
# has a denominator that underflows to 0 near the origin (w < ~1e-216).
THIN_BELT = 1e-100
BELT_CENTRE = f"belt centre (origin, with t_belt = 0 or below {THIN_BELT:g})"


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
                stacklevel=3,  # past the dataclass __init__, to its caller
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


# ---------------------------------------------------------------------------
# Effective potential.  ``kernel`` holds the formula; the guarded names
# accept scalars, sequences or numpy arrays, check the points first, and
# give back plain floats for scalar input.


def kernel(p: SystemParams, x, y, order: int):
    """Omega (order 0), its gradient (Omega_x, Omega_y) (order 1), or the
    gradient and the Hessian, ((Omega_x, Omega_y), (Omega_xx, Omega_xy,
    Omega_yy)) (order 2), at (x, y), with no singularity guard.

    x and y are floats or numpy arrays that broadcast together.  The body
    uses only + - * / and the correctly rounded square root of its operand
    kind, math.sqrt on plain floats and np.sqrt otherwise, so a float and
    the same point inside an array give bit-identical results.  (Python's
    float ** 0.5 is libm pow, which now and then misses that root in the
    last bit; numpy turns ** 0.5 on arrays into np.sqrt.)
    """
    s = x + p.mu
    u = s - 1.0
    yy = y * y
    root = math.sqrt if type(s) is float and type(yy) is float else np.sqrt
    if order == 0:
        r2 = root(u * u + yy)
        val = 0.5 * p.n2 * (x * x + yy) + (1.0 - p.mu) * p.q1 / root(s * s + yy)
        val += p.mu / r2
        val += 0.5 * p.mu * p.a2 / (r2 * r2 * r2)
        if p.mb:
            val += p.mb / root(x * x + yy + p.t_belt**2)
        return val
    r1sq = s * s + yy
    r2sq = u * u + yy
    r13 = r1sq * root(r1sq)
    r23 = r2sq * root(r2sq)
    r25 = r23 * r2sq
    a = (1.0 - p.mu) * p.q1 / r13
    b = p.mu / r23
    c = 1.5 * p.mu * p.a2 / r25
    gx = p.n2 * x - a * s - b * u - c * u
    gy = p.n2 * y - a * y - b * y - c * y
    if p.mb:
        w = x * x + yy + p.t_belt**2
        bw = p.mb / (w * root(w))
        gx = gx - bw * x
        gy = gy - bw * y
    if order == 1:
        return gx, gy
    # each pull -c d of the gradient (d the offset from its centre, c =
    # k / r^m with m = 3 or 5) adds c (m d d^T / r^2 - I) to the Hessian;
    # the belt's has w = r^2 + T^2 for r^2 and m = 3
    a3 = 3.0 * a / r1sq
    b3 = 3.0 * b / r2sq
    c5 = 5.0 * c / r2sq
    oxx = p.n2 - a + a3 * s * s - b + b3 * u * u - c + c5 * u * u
    oyy = p.n2 - a + a3 * yy - b + b3 * yy - c + c5 * yy
    oxy = (a3 * s + (b3 + c5) * u) * y
    if p.mb:
        bw3 = 3.0 * bw / w
        oxx = oxx - bw + bw3 * x * x
        oyy = oyy - bw + bw3 * yy
        oxy = oxy + bw3 * x * y
    return (gx, gy), (oxx, oxy, oyy)


_SINGULAR_SQ = SINGULARITY_RADIUS**2


def check_regular(p: SystemParams, x, y) -> None:
    """Raise SingularPointError, naming the primary, if a point of (x, y)
    (floats or arrays) lies within SINGULARITY_RADIUS of a primary, or, for
    a belt (mb > 0) thinner than THIN_BELT, so near the origin that w^{3/2}
    underflows to 0."""
    s = x + p.mu
    u = s - 1.0
    yy = y * y
    d1 = s * s + yy
    d2 = u * u + yy
    if type(d1) is not float:  # arrays: the nearest point decides
        d1 = np.min(d1, initial=math.inf)
        d2 = np.min(d2, initial=math.inf)
    if d1 < _SINGULAR_SQ:
        raise SingularPointError(BIGGER_PRIMARY, math.sqrt(d1))
    if d2 < _SINGULAR_SQ:
        raise SingularPointError(SMALLER_PRIMARY, math.sqrt(d2))
    if p.mb > 0.0 and p.t_belt < THIN_BELT:
        w = np.min(x * x + yy, initial=math.inf) + p.t_belt**2
        if w * math.sqrt(w) == 0.0:
            raise SingularPointError(BELT_CENTRE, math.sqrt(w))


def _operands(x, y):
    """(x, y) as the kernel takes them: plain floats for a scalar of any
    type, float arrays for anything else."""
    if type(x) is float and type(y) is float:
        return x, y
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0 and y.ndim == 0:
        return float(x), float(y)
    return x, y


def omega(p: SystemParams, x, y):
    """Effective potential Omega(x, y)."""
    x, y = _operands(x, y)
    check_regular(p, x, y)
    return kernel(p, x, y, 0)


def omega_grad(p: SystemParams, x, y):
    """Exact partial derivatives (Omega_x, Omega_y)."""
    x, y = _operands(x, y)
    check_regular(p, x, y)
    return kernel(p, x, y, 1)


def omega_hessian(p: SystemParams, x, y):
    """Second derivatives (Omega_xx, Omega_xy, Omega_yy); symmetric by construction."""
    x, y = _operands(x, y)
    check_regular(p, x, y)
    return kernel(p, x, y, 2)[1]


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return 2.0 * kernel(p, x, y, 0)
