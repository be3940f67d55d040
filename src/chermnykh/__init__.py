"""Computation kit for a generalized Chermnykh problem: equilibria, linear
stability, resonance critical masses, rotating-frame integration, and
zero-velocity curves for the planar restricted three-body problem with a
radiating bigger primary, an oblate smaller primary, and a flattened
circumbinary belt."""

from .errors import (
    DomainError,
    IntegrationError,
    NoResonanceError,
    NoTriangularPointsError,
    NumericalError,
    ScanError,
    SingularPointError,
)
from .model import (
    RotState,
    SystemParams,
    jacobi_constant,
    omega,
    omega_grad,
    omega_hessian,
)
from .equilibria import (
    CollinearScan,
    EquilibriumPoint,
    collinear_f,
    find_all,
    find_collinear,
    find_triangular,
    scan_collinear,
    triangular_analytic,
)
from .stability import (
    CharCoefficients,
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
from .dynamics import (
    ContourSet,
    GridSpec,
    Trajectory,
    integrate,
    reverse_involution,
    stability_probe,
    vertex_tolerance,
    zvc_contours,
)

__version__ = "0.1.0"
