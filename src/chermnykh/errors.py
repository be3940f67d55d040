"""Exception types shared across the package.

The command-line layer maps these onto exit codes: domain errors (bad inputs,
singular positions, parameter sets without the requested feature) exit 2,
numerical failures (scan anomalies, integration breakdown, a failed
consistency check) exit 3.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class SingularPointError(DomainError):
    """Position coincides with (or is numerically on top of) a primary."""

    def __init__(self, primary: str, distance: float):
        self.primary = primary
        self.distance = distance
        super().__init__(
            f"position is within {distance:.3e} of the {primary}; "
            "the potential is singular there"
        )


class NoTriangularPointsError(DomainError):
    """The two circles r1, r2 do not intersect off the axis."""


class NoResonanceError(DomainError):
    """No resonance crossing exists in (0, 1/2] for these parameters."""


class NumericalError(RuntimeError):
    """A solver failed to produce a trustworthy result."""


class ScanError(NumericalError):
    """Root scan produced an inconsistent bracket structure."""


class IntegrationError(NumericalError):
    """Integration produced a non-finite state.

    ``last_state`` and ``last_time`` hold the final accepted sample.
    """

    def __init__(self, message: str, last_state=None, last_time: float = 0.0):
        self.last_state = last_state
        self.last_time = last_time
        super().__init__(f"{message} (last good state at t={last_time:.6g})")
