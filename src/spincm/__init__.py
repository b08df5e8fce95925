"""Spin Calogero-Moser systems from dynamical r-matrices on sl(n+1).

The package builds the rational, trigonometric and elliptic dynamical
r-matrices over the type-A root systems A_1..A_4, derives the associated
spin Calogero-Moser Hamiltonians and Lax pairs, integrates the flows,
performs the Poisson reduction by the Cartan torus, and verifies the
structural identities (Yang-Baxter equations, Lax evolution, involution of
the spectral invariants) numerically.
"""

from __future__ import annotations

from .elliptic import Lattice, l_kernel, sigma, wp, wp_prime, zeta
from .errors import (ConfigError, ConstraintError, GaugeDomainError,
                     PoleError, SpincmError, StructuralError,
                     UnsupportedAlgebraError)
from .rootsys import (AlgElement, RootSystem, bracket, build_root_system,
                      coadjoint_action, element_from_matrix, form,
                      matrix_rep, negate, parse_root_label, root_label,
                      root_system_summary, torus_adjoint)
from .rmatrix import (LaurentElement, RMatrixSpec, R_apply, TensorValue,
                      casimir_tensor, elliptic_r_matrix, r_tensor,
                      rational_r_matrix, trigonometric_r_matrix,
                      verify_axioms, verify_cdybe, verify_mdybe)
from .phase import (PhaseFunction, PhasePoint, ReducedFunction, ReducedPoint,
                    bracket_full, bracket_reduced, lift_reduced, momentum_J,
                    normalize_to_slice, project_pi, torus_action)
from .dynamics import (SystemSpec, Trajectory, conserved_spectrum,
                       fpbr_residual, hamiltonian, hamiltonian_reduced,
                       integrate, involution_check, lax_B, lax_B0, lax_L,
                       lax_L0, lax_pair_reduced, lax_pair_residual,
                       make_system, quasi_lax_residual, reduced_lax_residual,
                       sigma_residual, spectral_curve, spectrum_drift,
                       spinless_state, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "ConfigError",
    "ConstraintError",
    "GaugeDomainError",
    "Lattice",
    "LaurentElement",
    "PhaseFunction",
    "PhasePoint",
    "PoleError",
    "RMatrixSpec",
    "R_apply",
    "ReducedFunction",
    "ReducedPoint",
    "RootSystem",
    "SpincmError",
    "StructuralError",
    "SystemSpec",
    "TensorValue",
    "Trajectory",
    "UnsupportedAlgebraError",
    "bracket",
    "bracket_full",
    "bracket_reduced",
    "build_root_system",
    "casimir_tensor",
    "coadjoint_action",
    "conserved_spectrum",
    "element_from_matrix",
    "elliptic_r_matrix",
    "form",
    "fpbr_residual",
    "hamiltonian",
    "hamiltonian_reduced",
    "integrate",
    "involution_check",
    "l_kernel",
    "lax_B",
    "lax_B0",
    "lax_L",
    "lax_L0",
    "lax_pair_reduced",
    "lax_pair_residual",
    "lift_reduced",
    "make_system",
    "matrix_rep",
    "momentum_J",
    "negate",
    "normalize_to_slice",
    "parse_root_label",
    "project_pi",
    "quasi_lax_residual",
    "r_tensor",
    "rational_r_matrix",
    "reduced_lax_residual",
    "root_label",
    "root_system_summary",
    "sigma",
    "sigma_residual",
    "spectral_curve",
    "spectrum_drift",
    "spinless_state",
    "torus_action",
    "torus_adjoint",
    "trigonometric_r_matrix",
    "verify_axioms",
    "verify_cdybe",
    "verify_mdybe",
    "wp",
    "wp_prime",
    "zeta",
]
