"""Test-only reference: the generic tableau loop that dynamics._dp_step
replaced, with the integrate loop and the JSON cell rounding of its time.

legacy_dp_step builds each stage state with a closure that sums the
tableau row against the stages by ``sum()`` over generators, and the
error estimate by a generator sum over the error weights.
legacy_integrate drives it with the error norm taken through a per-step
scale list and one RotState built for the Jacobi check and another for
the sample.  legacy_jnum is cli._jnum before its plain-float fast path.
``dynamics._rhs``, ``_hermite`` and ``Trajectory`` are shared, so the
stages still go through the guarded ``omega_grad``.  The differential
tests hold the program to these bit for bit.
"""

import math
from typing import Sequence

from chermnykh.dynamics import _H_INIT, _SAFETY, Trajectory, _hermite, _rhs
from chermnykh.errors import DomainError, IntegrationError, SingularPointError
from chermnykh.model import RotState, SystemParams, jacobi_constant

# Dormand-Prince 5(4) tableau.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


def legacy_dp_step(p: SystemParams, s: tuple, h: float, k1: tuple):
    """One embedded step from s with derivative k1; returns (s_new, k7,
    error_estimate).  k7 doubles as the next step's k1 (FSAL)."""

    def lin(coeffs, ks):
        return tuple(
            s[i] + h * sum(c * k[i] for c, k in zip(coeffs, ks)) for i in range(4)
        )

    ks = [k1]
    for row in _A:
        ks.append(_rhs(p, lin(row, ks)))
    s_new = lin(_A[-1], ks[:-1])  # row 7 equals the 5th-order weights
    err = tuple(h * sum(e * k[i] for e, k in zip(_E, ks)) for i in range(4))
    return s_new, ks[-1], err


def legacy_integrate(
    p: SystemParams,
    s0,
    t_end: float,
    tol: float = 1e-10,
    sample_times: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate the rotating-frame equations from s0 for t in [0, t_end].

    s0 is a RotState or an (x, y, vx, vy) sequence.  With sample_times the
    trajectory is reported at exactly those instants (cubic Hermite dense
    output); otherwise every accepted step is reported.  Jacobi drift is
    always measured on the accepted steps themselves.
    """
    if isinstance(s0, RotState):
        start = (s0.x, s0.y, s0.vx, s0.vy)
    else:
        start = tuple(float(v) for v in s0)
        if len(start) != 4:
            raise DomainError("s0 must provide (x, y, vx, vy)")
    if not all(math.isfinite(v) for v in start):
        raise DomainError("initial state must be finite")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise DomainError("t_end must be positive and finite")
    if not 1e-14 <= tol <= 1e-6:
        raise DomainError("tol must lie in [1e-14, 1e-6]")
    if sample_times is not None:
        sample_times = [float(t) for t in sample_times]
        if any(b <= a for a, b in zip(sample_times, sample_times[1:])):
            raise DomainError("sample_times must be strictly increasing")
        if sample_times and (sample_times[0] < 0.0 or sample_times[-1] > t_end):
            raise DomainError("sample_times must lie within [0, t_end]")

    c0 = jacobi_constant(p, RotState(*start))  # also validates regularity

    samples: list[RotState] = []
    si = 0  # next requested sample index

    def emit(t, s):
        samples.append(RotState(s[0], s[1], s[2], s[3], t))

    if sample_times is None:
        emit(0.0, start)
    else:
        while si < len(sample_times) and sample_times[si] == 0.0:
            emit(0.0, start)
            si += 1

    t, s = 0.0, start
    h = min(_H_INIT, t_end)
    max_drift = 0.0
    n_acc = n_rej = 0
    errold = 1.0
    status = "completed"
    try:
        k1 = _rhs(p, s)
    except SingularPointError:
        raise DomainError("initial state is on a primary") from None
    while t < t_end:
        if t + h > t_end:
            h = t_end - t
        if h <= abs(t) * 1e-15 or h < 1e-14:
            status = "close-encounter"
            break
        try:
            s_new, k7, err = legacy_dp_step(p, s, h, k1)
        except SingularPointError:
            status = "close-encounter"
            break
        except OverflowError:
            raise IntegrationError(
                "state left the representable range", RotState(*s, t=t), t
            ) from None
        if not all(math.isfinite(v) for v in s_new):
            raise IntegrationError(
                "state became non-finite", RotState(*s, t=t), t
            )
        sc = [tol + tol * max(abs(s[i]), abs(s_new[i])) for i in range(4)]
        en = math.sqrt(sum((err[i] / sc[i]) ** 2 for i in range(4)) / 4.0)
        if en <= 1.0:
            t_prev, s_prev, k_prev = t, s, k1
            t, s, k1 = t + h, s_new, k7
            n_acc += 1
            try:
                drift = abs(jacobi_constant(p, RotState(*s, t=t)) - c0) / abs(c0)
            except SingularPointError:
                status = "close-encounter"
                break
            except OverflowError:
                raise IntegrationError(
                    "state left the representable range", RotState(*s, t=t), t
                ) from None
            if drift > max_drift:
                max_drift = drift
            if sample_times is None:
                emit(t, s)
            else:
                while si < len(sample_times) and sample_times[si] <= t:
                    ts = sample_times[si]
                    emit(ts, _hermite(ts, t_prev, s_prev, k_prev, t, s, k1))
                    si += 1
            fac = _SAFETY * (en + 1e-30) ** -0.14 * errold**0.08
            errold = max(en, 1e-4)
        else:
            n_rej += 1
            fac = min(1.0, max(0.2, _SAFETY * en**-0.2))
        h *= min(5.0, max(0.2, fac))
    return Trajectory(tuple(samples), c0, max_drift, status, n_acc, n_rej)


def legacy_jnum(v):
    """JSON cell: numbers re-rounded to the documented precision; NaN
    becomes null so the emitted text stays standard JSON."""
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, bool)):
        return v
    f = float(v)
    if math.isnan(f):
        return None
    return float(f"{f:.12g}")
