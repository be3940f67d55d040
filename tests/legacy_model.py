"""The hand-written potential, gradient and Hessian that model.kernel
replaced, kept as a test-only reference for the differential tests in
test_model.py.  The bodies are the former model.omega, model.omega_grad
and model.omega_hessian, evaluated on numpy arrays throughout."""

from __future__ import annotations

import numpy as np

from chermnykh.errors import SingularPointError
from chermnykh.model import BIGGER_PRIMARY, SINGULARITY_RADIUS, SMALLER_PRIMARY, SystemParams


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
