"""Test-only reference: the parts of chermnykh.stability that now share one
f* and one y*^2 bracket, as they were written before.

legacy_decision is classify's stable-side decision with its own branch for
exactly repeated frequencies, on the shared _frequencies; legacy_classify
wraps it around the shared char_coeffs and char_roots.  legacy_g_resonance
is the y*^2 bracket with the belt radius frozen at rc, written apart from
the triangular one.  legacy_collinear_f_star is the axis profile on numpy
arrays with the belt term divided by w^2.5 at once.  The differential
tests in test_stability hold the program to these.
"""

import math

import numpy as np

from chermnykh.model import SystemParams, check_regular
from chermnykh.stability import (
    LINEARLY_STABLE,
    MARGINAL_RESONANT,
    RESONANCE_TOL,
    UNSTABLE_QUARTET,
    UNSTABLE_REAL,
    StabilityReport,
    _frequencies,
    char_coeffs,
    char_roots,
)


def legacy_decision(b: float, d: float):
    """(category, omega1, omega2, resonance_k) of the quartic (b, d)."""
    disc = b * b - 4.0 * d
    omega1 = omega2 = None
    resonance_k = None
    if d < 0.0:
        category = UNSTABLE_REAL
    elif b > 0.0 and d > 0.0 and disc > 0.0:
        omega1, omega2 = _frequencies(b, d)
        category = LINEARLY_STABLE
        for k in (1, 2, 3):
            if abs(omega1 - k * omega2) <= RESONANCE_TOL:
                category = MARGINAL_RESONANT
                resonance_k = k
                break
    elif d > 0.0 and disc < 0.0:
        category = UNSTABLE_QUARTET
    elif b > 0.0 and d > 0.0:  # disc == 0: exactly repeated frequencies
        omega1 = omega2 = math.sqrt(b / 2.0)
        category = MARGINAL_RESONANT
        resonance_k = 1
    else:
        # d == 0 (secular zero root) or b <= 0 (a positive real l^2)
        category = UNSTABLE_REAL
    return category, omega1, omega2, resonance_k


def legacy_classify(p: SystemParams, e) -> StabilityReport:
    c = char_coeffs(p, e)
    return StabilityReport(e, c, char_roots(c), *legacy_decision(c.b, c.d))


def legacy_g_resonance(p: SystemParams, e) -> float:
    w5 = (p.rc**2 + p.t_belt**2) ** 2.5
    return (e.y * e.y) * (
        p.q1 / (e.r1**5 * e.r2**5)
        + (3.0 * p.mb / w5)
        * (
            p.mu * p.q1 / e.r1**5
            + (1.0 - p.mu) * (1.0 + 2.5 * p.a2 / e.r2**2) / e.r2**5
        )
    )


def legacy_collinear_f_star(p: SystemParams, x):
    """The former collinear_f_star; where w^2.5 underflows or the value
    overflows it gives inf, without a warning."""
    x = np.asarray(x, dtype=float)
    check_regular(p, x, 0.0)
    s = np.abs(x + p.mu)
    u = np.abs(x + p.mu - 1.0)
    w = x * x + p.t_belt**2
    with np.errstate(divide="ignore", over="ignore"):
        val = (
            (1.0 - p.mu) * p.q1 / s**3
            + (p.mu / u**3) * (1.0 + 1.5 * p.a2 / u**2)
            + (3.0 * p.mb / w**2.5 if p.mb else 0.0)
        )
    return float(val) if np.ndim(val) == 0 else val
