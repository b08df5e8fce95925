"""Spin Calogero-Moser systems from dynamical r-matrices on sl(n+1).

The package builds the rational, trigonometric and elliptic dynamical
r-matrices over the type-A root systems A_1..A_4, derives the associated
spin Calogero-Moser Hamiltonians and Lax pairs, integrates the flows,
performs the Poisson reduction by the Cartan torus, and verifies the
structural identities (Yang-Baxter equations, Lax evolution, involution of
the spectral invariants) numerically.
"""

from __future__ import annotations

from .elliptic import Lattice, l_kernel
from .errors import (ConfigError, GaugeDomainError, PoleError, SpincmError,
                     StructuralError, UnsupportedAlgebraError)
from .rootsys import (RootSystem, bracket, build_root_system, form,
                      matrix_rep, negate, parse_root_label, root_label,
                      root_system_summary, torus_adjoint)
from .rmatrix import (RMatrixSpec, rational_r_matrix, trigonometric_r_matrix,
                      verify_axioms, verify_cdybe, verify_mdybe)
from .phase import (PhasePoint, bracket_full, gauge_g, lift_reduced,
                    momentum_J, project_pi, torus_action)
from .dynamics import (Trajectory, conserved_spectrum,
                       fpbr_residual, hamiltonian, integrate,
                       involution_residuals, lax_B, lax_L, lax_residuals,
                       make_system, sigma_residual, spectral_drifts,
                       spinless_state, vector_field, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GaugeDomainError",
    "Lattice",
    "PhasePoint",
    "PoleError",
    "RMatrixSpec",
    "RootSystem",
    "SpincmError",
    "StructuralError",
    "Trajectory",
    "UnsupportedAlgebraError",
    "bracket",
    "bracket_full",
    "build_root_system",
    "conserved_spectrum",
    "form",
    "fpbr_residual",
    "gauge_g",
    "hamiltonian",
    "integrate",
    "involution_residuals",
    "l_kernel",
    "lax_B",
    "lax_L",
    "lax_residuals",
    "lift_reduced",
    "make_system",
    "matrix_rep",
    "momentum_J",
    "negate",
    "parse_root_label",
    "project_pi",
    "rational_r_matrix",
    "root_label",
    "root_system_summary",
    "sigma_residual",
    "spectral_drifts",
    "spinless_state",
    "torus_action",
    "torus_adjoint",
    "trigonometric_r_matrix",
    "vector_field",
    "verify_axioms",
    "verify_cdybe",
    "verify_mdybe",
]
