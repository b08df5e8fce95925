"""Hamiltonian flows, Lax operators and conserved quantities.

Each system couples a canonical pair (q, p) on the Cartan subalgebra with a
spin covector xi carrying the plus Lie-Poisson structure (:mod:`spincm.phase`).
The Hamiltonian of every family has the shape

    H(q, p, xi) = (1/2) sum_i p_i^2 - (1/2) sum_{alpha} w_alpha((alpha, q))
                                                  xi_alpha xi_{-alpha},

with the pair weight w_alpha supplied by :func:`spincm.rmatrix.pair_weight`.
The Lax operator reuses the r-matrix coefficient functions,

    L(q, p, xi)(z) = p + f(z) (I xi)_h + sum_alpha c_alpha((alpha, q), z)
                                              xi_alpha e_alpha,

and the operator B of the Lax pair is R_q applied to the covector L(z)/z.
The flow preserves H, the momentum J, the constraint set Sigma, and the full
spectrum of rho(L(z)); all of that is checkable numerically and the
verification helpers in this module do exactly that.

Sign conventions (plus Lie-Poisson with the plain-dual coadjoint spin flow
d(I xi)/dt = -[dH_xi, I xi], and B = -R_q(L/z) so that dL/dt = [B, L] on
Sigma) are validated empirically by the residual checks in the test-suite
rather than asserted twice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import Lattice
from .errors import ConstraintError, PoleError, StructuralError
from .ode import DormandPrince
from .phase import (PhaseFunction, PhaseGradient, PhasePoint, ReducedFunction,
                    ReducedGradient, ReducedPoint, bracket_reduced,
                    lift_reduced, lift_tangent, momentum_J, reduce_gradient,
                    reduced_roots, spin_tensor)
from .rmatrix import (LaurentElement, RMatrixSpec, R_apply, R_directional,
                      cartan_coeff, elliptic_r_matrix, pair_weight, r_tensor,
                      rational_r_matrix, ring_nodes, root_coeff,
                      root_coeff_reg0, trigonometric_r_matrix)
from .rootsys import (AlgElement, RootSystem, bracket, build_root_system,
                      coadjoint_action, form, matrix_rep, root_label)


# ---------------------------------------------------------------------------
# system specification and trajectories


@dataclass(frozen=True)
class SystemSpec:
    """A spin Calogero-Moser system: root data plus an r-matrix family.

    The defining (n+1)-dimensional representation is used wherever a matrix
    of L is needed (conserved traces, spectral curves).
    """

    rmatrix: RMatrixSpec

    @property
    def rs(self) -> RootSystem:
        return self.rmatrix.rs

    @property
    def family(self) -> str:
        return self.rmatrix.family

    @property
    def kmax(self) -> int:
        """Largest independent trace power: n + 1 for sl(n+1)."""
        return self.rs.rank + 1

    @property
    def lax_rmatrix(self) -> RMatrixSpec:
        """Coefficient source for the Lax operators.

        The fault-injection knob of the r-matrix spec is deliberately not
        propagated here: a corrupted r-matrix must fail its own axiom checks
        while leaving the dynamics untouched.
        """
        if self.rmatrix.fault_scale == 1.0:
            return self.rmatrix
        return self.rmatrix.with_fault(1.0)

    def describe(self) -> dict:
        return self.rmatrix.describe()


def make_system(family: str, rank: int, *, delta_prime="full",
                pi_prime="full", delta_plus=None,
                lattice: Lattice | None = None) -> SystemSpec:
    """Construct a system of the given family over A_rank."""
    rs = build_root_system("A", rank)
    if family == "rational":
        spec = rational_r_matrix(rs, delta_prime)
    elif family == "trigonometric":
        spec = trigonometric_r_matrix(rs, pi_prime, delta_plus)
    elif family == "elliptic":
        if lattice is None:
            raise StructuralError("elliptic family needs a lattice")
        spec = elliptic_r_matrix(rs, lattice)
    else:
        raise StructuralError(f"unknown family {family!r}; expected one of "
                              "rational, trigonometric, elliptic")
    return SystemSpec(spec)


def spinless_state(rs: RootSystem, q, p, m: complex) -> PhasePoint:
    """The classical datum: every spin component equal to m, Cartan block 0."""
    components = {root: complex(m) for root in rs.roots}
    return PhasePoint.make(rs, q, p, xi_components=components)


@dataclass
class Trajectory:
    """Output of :func:`integrate`.

    ``points`` holds PhasePoints or ReducedPoints on a strictly monotone time
    grid.  ``energy`` and ``constraint`` are per-step diagnostics (constraint
    is the momentum drift max|J(t) - J(0)| for unreduced runs, identically 0
    for reduced ones).  A run stopped by the collision guard or a pole is
    returned truncated with ``completed`` False and a reason, not raised.
    ``stats`` holds the solver's counts (``DormandPrince.stats``: nfev,
    accepted, rejected, h_min, h_max); None when no solver ran.
    """

    times: np.ndarray
    points: list
    energy: np.ndarray
    constraint: np.ndarray
    completed: bool
    abort_reason: str | None = None
    stats: dict | None = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def reduced(self) -> bool:
        return isinstance(self.points[0], ReducedPoint)

    def final_point(self):
        return self.points[-1]


# ---------------------------------------------------------------------------
# Hamiltonians and vector fields


def _spin_products(rs: RootSystem, root_block: np.ndarray) -> np.ndarray:
    """xi_alpha xi_{-alpha} for every root, from the root block of xi."""
    neg = rs.dual_index[rs.rank:] - rs.rank
    return root_block * root_block[neg]


def hamiltonian(sys: SystemSpec, x: PhasePoint) -> complex:
    """H = (1/2)|p|^2 - (1/2) sum_alpha w_alpha xi_alpha xi_{-alpha}."""
    w = pair_weight(sys.lax_rmatrix, sys.rs.root_values(x.q))[0]
    prod = _spin_products(sys.rs, x.xi.vec[sys.rs.rank:])
    return complex(0.5 * (x.p @ x.p) - 0.5 * (w @ prod))


def hamiltonian_gradient(sys: SystemSpec, x: PhasePoint) -> PhaseGradient:
    rs = sys.rs
    u = rs.root_values(x.q)
    w, w_du = pair_weight(sys.lax_rmatrix, u)
    root_block = x.xi.vec[rs.rank:]
    prod = _spin_products(rs, root_block)
    dq = -0.5 * (rs.alpha_h.T @ (w_du * prod))
    dxi_vec = np.zeros(rs.dim, dtype=complex)
    dxi_vec[rs.rank:] = -w * root_block
    return PhaseGradient(dq, x.p.copy(), AlgElement(rs, dxi_vec))


def hamiltonian_function(sys: SystemSpec) -> PhaseFunction:
    """H as a bracket-ready function with its analytic gradient."""
    return PhaseFunction(lambda x: hamiltonian(sys, x),
                         lambda x: hamiltonian_gradient(sys, x))


def vector_field(sys: SystemSpec, x: PhasePoint) -> PhasePoint:
    """Hamiltonian vector field of H, returned in point coordinates:
    (dq, dp, d(I xi)) = (dH/dp, -dH/dq, I(ad*_{dH_xi} xi)).

    The spin leg is the plain-dual coadjoint action, I(ad*_X xi) =
    -[X, I xi]; this is the orientation under which the spectral
    invariants of the Lax operator are conserved.
    """
    g = hamiltonian_gradient(sys, x)
    return PhasePoint(g.dp, -g.dq, coadjoint_action(g.dxi, x.xi))


def hamiltonian_reduced(sys: SystemSpec, x_red: ReducedPoint) -> complex:
    """H_0: the unreduced H evaluated on the slice lift (s_{alpha_i} = 1)."""
    return hamiltonian(sys, lift_reduced(x_red))


def vector_field_reduced(sys: SystemSpec, x_red: ReducedPoint) -> ReducedPoint:
    """Reduced flow in (q, p, s): canonical part plus s_dot = -P dH_0/ds
    with P the reduced spin tensor, mirroring the coadjoint orientation of
    the unreduced flow."""
    g = reduce_gradient(hamiltonian_gradient(sys, lift_reduced(x_red)))
    p_tensor = spin_tensor(x_red)
    return ReducedPoint(sys.rs, g.dp, -g.dq, -(p_tensor @ g.ds))


# ---------------------------------------------------------------------------
# integration


def collision_margin(sys: SystemSpec, x) -> float:
    """Distance of q to the singular set of the active pair weights: min
    |(alpha,q)| (rational), min |sin (alpha,q)| (trigonometric span), min
    lattice distance (elliptic).  inf when the case has no singular roots."""
    spec = sys.rmatrix
    u = sys.rs.root_values(x.q)
    fam = sys.family
    if fam == "rational":
        vals = np.abs(u[spec.dp_mask])
    elif fam == "trigonometric":
        vals = np.abs(np.sin(u[spec.span_mask]))
    else:
        vals = spec.lattice.lattice_distance(u)
    return float(vals.min()) if vals.size else math.inf


def _pack_point(x) -> np.ndarray:
    if isinstance(x, ReducedPoint):
        return np.concatenate([x.q, x.p, x.s]).astype(complex)
    return np.concatenate([x.q, x.p, x.xi.vec]).astype(complex)


def _unpack_point(rs: RootSystem, y: np.ndarray, reduced: bool):
    n = rs.rank
    q, p = y[:n].copy(), y[n:2 * n].copy()
    if reduced:
        return ReducedPoint(rs, q, p, y[2 * n:].copy())
    return PhasePoint(q, p, AlgElement(rs, y[2 * n:].copy()))


def integrate(sys: SystemSpec, x0, t_final: float, tol: float = 1e-10, *,
              n_points: int = 201, collision_tol: float = 1e-6,
              max_steps: int = 200_000) -> Trajectory:
    """Integrate the (reduced or unreduced) flow from t = 0 to t_final.

    Adaptive Dormand-Prince 5(4) (:class:`spincm.ode.DormandPrince`) on
    the complex state vector; the returned grid is uniform with
    ``n_points`` entries, filled from the dense output.  t_final may be
    negative (backward flow).  Close approaches to the singular set, poles
    and floating-point faults (also in the first evaluation) truncate the
    trajectory instead of raising.
    """
    if not math.isfinite(t_final) or t_final == 0.0:
        raise StructuralError(f"t_final must be finite and nonzero, got "
                              f"{t_final}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise StructuralError(f"tol must be finite and positive, got {tol}")
    rs = sys.rs
    reduced = isinstance(x0, ReducedPoint)
    field = vector_field_reduced if reduced else vector_field

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return _pack_point(field(sys, _unpack_point(rs, y, reduced)))

    times = [0.0]
    points = [x0]
    completed = True
    reason = None
    solver = DormandPrince(rhs, 0.0, _pack_point(x0), t_final, tol, tol * 1e-2)

    margin = collision_margin(sys, x0)
    if margin < collision_tol:
        completed = False
        reason = (f"collision guard at t = 0: singular-set distance "
                  f"{margin:.3e} below {collision_tol:.1e}")
    else:
        t_grid = np.linspace(0.0, t_final, n_points)
        idx = 1
        while not solver.finished:
            if solver.accepted >= max_steps:
                completed = False
                reason = f"step budget {max_steps} exhausted at t = {solver.t:.6g}"
                break
            try:
                stepped = solver.step()
            except (PoleError, ZeroDivisionError, FloatingPointError,
                    OverflowError) as exc:
                completed = False
                reason = f"integration aborted at t = {solver.t:.6g}: {exc}"
                break
            if not stepped:
                completed = False
                reason = f"step-size control failed at t = {solver.t:.6g}"
                break
            slack = 1e-12 * max(1.0, abs(solver.t))
            while idx < n_points and \
                    (t_grid[idx] - solver.t) * solver.direction <= slack:
                points.append(_unpack_point(rs, solver.dense(t_grid[idx]),
                                            reduced))
                times.append(float(t_grid[idx]))
                idx += 1
            margin = collision_margin(
                sys, _unpack_point(rs, solver.y, reduced))
            if margin < collision_tol:
                completed = False
                reason = (f"collision guard at t = {solver.t:.6g}: "
                          f"singular-set distance {margin:.3e} below "
                          f"{collision_tol:.1e}")
                break

    h_fn = hamiltonian_reduced if reduced else hamiltonian
    energy = np.array([h_fn(sys, pt) for pt in points])
    if reduced:
        constraint = np.zeros(len(points))
    else:
        j0 = momentum_J(x0)
        constraint = np.array([
            float(np.max(np.abs(momentum_J(pt) - j0))) for pt in points])
    return Trajectory(np.array(times), points, energy, constraint,
                      completed, reason, solver.stats)


# ---------------------------------------------------------------------------
# Lax operators


def lax_L(sys: SystemSpec, x: PhasePoint, z) -> AlgElement:
    """L(q,p,xi)(z) = p + f(z) (I xi)_h + sum c_alpha((alpha,q), z) xi_alpha
    e_alpha; an array of z gives one element per z (batch axes first)."""
    rs = sys.rs
    spec = sys.lax_rmatrix
    u = rs.root_values(x.q)
    z = np.asarray(z, dtype=complex)
    vec = np.zeros(z.shape + (rs.dim,), dtype=complex)
    vec[..., :rs.rank] = (x.p + np.expand_dims(cartan_coeff(spec, z), -1)
                          * x.xi.vec[:rs.rank])
    vec[..., rs.rank:] = root_coeff(spec, u, z[..., None]) * x.xi.vec[rs.rank:]
    return AlgElement(rs, vec)


def lax_L_reg0(sys: SystemSpec, x: PhasePoint) -> AlgElement:
    """Regular part of L at z = 0, i.e. lim_{z->0} (L(z) - I xi / z)."""
    rs = sys.rs
    spec = sys.lax_rmatrix
    u = rs.root_values(x.q)
    vec = np.zeros(rs.dim, dtype=complex)
    vec[:rs.rank] = x.p
    vec[rs.rank:] = root_coeff_reg0(spec, u) * x.xi.vec[rs.rank:]
    return AlgElement(rs, vec)


def lax_M(sys: SystemSpec, x: PhasePoint, nodes) -> LaurentElement:
    """M(z) = L(z)/z as a Laurent covector on ``nodes`` (pole order 2, with
    principal coefficients the regular part of L at 0 and I xi): the
    argument of R_q in the Lax pair."""
    nodes = np.asarray(nodes, dtype=complex)
    values = lax_L(sys, x, nodes).vec / nodes[:, None]
    return LaurentElement(sys.rs, [lax_L_reg0(sys, x).vec, x.xi.vec], nodes,
                          values)


def sigma_residual(sys: SystemSpec, x: PhasePoint) -> float:
    """Distance of x from the constraint set Sigma: ||J||_inf for the
    trigonometric and elliptic families, max_{alpha in Delta'} |(alpha, J)|
    for the rational one."""
    j = momentum_J(x)
    if sys.family == "rational":
        mask = sys.rmatrix.dp_mask
        vals = np.abs(sys.rs.root_values(j))[mask]
        return float(vals.max()) if vals.size else 0.0
    return float(np.max(np.abs(j)))


def _b_operator(sys: SystemSpec, x: PhasePoint, nodes) -> LaurentElement:
    # The flow satisfies dL/dt = -[R_q(L/z), L]; shipping B = -R_q(L/z)
    # keeps the residual functions in the plain dL/dt - [B, L] form.
    b = R_apply(sys.lax_rmatrix, x.q, lax_M(sys, x, nodes))
    return LaurentElement(sys.rs, -b.principal, b.nodes, -b.values.vec)


def lax_B(sys: SystemSpec, x: PhasePoint, nodes, *,
          sigma_tol: float = 1e-8) -> LaurentElement:
    """B = -R_q(L/z) on ``nodes``, defined on the constraint set Sigma where
    the flow is of Lax form; off Sigma a constraint error carries the
    residual."""
    res = sigma_residual(sys, x)
    if res > sigma_tol:
        raise ConstraintError(
            f"point is off the constraint set Sigma: residual {res:.3e} "
            f"exceeds {sigma_tol:.1e}", residual=res)
    return _b_operator(sys, x, nodes)


def default_z_samples(n: int = 8, radius: float = 0.55) -> list[complex]:
    """Sample ring for spectral checks; offset angles avoid the real and
    imaginary axes where trigonometric coefficients degenerate."""
    return [radius * np.exp(2j * math.pi * (k + 0.37) / n) for k in range(n)]


def _moving_point(sys: SystemSpec, x) -> tuple[PhasePoint, PhasePoint]:
    """The point at which L is evaluated and its velocity along the flow.
    A reduced point is taken at its slice lift, moving with the lifted
    reduced velocity."""
    if isinstance(x, ReducedPoint):
        return lift_reduced(x), lift_tangent(vector_field_reduced(sys, x))
    return x, vector_field(sys, x)


def _lax_derivative(sys: SystemSpec, x: PhasePoint, v: PhasePoint,
                    z) -> AlgElement:
    """dL/dt at x for the velocity v, by the chain rule: L is linear in
    (p, xi) with q-dependent coefficients, so dL/dt is L at (q, p_dot,
    xi_dot) plus the q-derivative of the root coefficients along q_dot."""
    rs = sys.rs
    vec = lax_L(sys, PhasePoint(x.q, v.p, v.xi), z).vec
    c_du = root_coeff(sys.lax_rmatrix, rs.root_values(x.q),
                      np.expand_dims(z, -1), du=1)
    vec[..., rs.rank:] += c_du * rs.root_values(v.q) * x.xi.vec[rs.rank:]
    return AlgElement(rs, vec)


def lax_time_derivative(sys: SystemSpec, x, z) -> AlgElement:
    """dL/dt along the flow at x; for a ReducedPoint, dL_0/dt along the
    reduced flow."""
    return _lax_derivative(sys, *_moving_point(sys, x), z)


def _lax_residual(sys: SystemSpec, x, b: LaurentElement,
                  anomaly: LaurentElement | None = None) -> float:
    """max ||dL/dt - [B, L] (+ anomaly)|| at x over the nodes of B."""
    pt, v = _moving_point(sys, x)
    res = _lax_derivative(sys, pt, v, b.nodes) - bracket(
        b.values, lax_L(sys, pt, b.nodes))
    if anomaly is not None:
        res = res + anomaly.values
    return res.max_abs()


def lax_pair_residual(sys: SystemSpec, x: PhasePoint,
                      z_samples: Sequence[complex] | None = None, *,
                      sigma_tol: float = 1e-8) -> float:
    """max_z ||dL/dt - [B, L]||; the point must lie on Sigma."""
    if z_samples is None:
        z_samples = default_z_samples()
    return _lax_residual(sys, x, lax_B(sys, x, z_samples,
                                       sigma_tol=sigma_tol))


def quasi_lax_residual(sys: SystemSpec, x: PhasePoint,
                       z_samples: Sequence[complex] | None = None) -> float:
    """max_z ||dL/dt - [B, L] + (X_J R)(L/z)||: the Lax equation with the
    momentum anomaly, valid off Sigma as well (rational family)."""
    if z_samples is None:
        z_samples = default_z_samples()
    m = lax_M(sys, x, z_samples)
    anomaly = R_directional(sys.lax_rmatrix, x.q, momentum_J(x), m)
    return _lax_residual(sys, x, _b_operator(sys, x, z_samples), anomaly)


# ---------------------------------------------------------------------------
# conserved quantities and spectral curves


def conserved_spectrum(sys: SystemSpec, x, z_samples: Sequence[complex],
                       kmax: int | None = None) -> np.ndarray:
    """Table h_k(z) = tr(rho(L(z))^k)/k, shape (len(z_samples), kmax).

    Accepts PhasePoints (L) and ReducedPoints (L_0).
    """
    if kmax is None:
        kmax = sys.kmax
    lax = lax_L0 if isinstance(x, ReducedPoint) else lax_L
    mat = matrix_rep(lax(sys, x, z_samples))
    out = np.zeros((len(z_samples), kmax), dtype=complex)
    acc = mat
    for k in range(1, kmax + 1):
        out[:, k - 1] = np.trace(acc, axis1=-2, axis2=-1) / k
        acc = acc @ mat
    return out


def spectrum_drift(sys: SystemSpec, traj: Trajectory,
                   z_samples: Sequence[complex] | None = None,
                   kmax: int | None = None) -> float:
    """Largest relative drift of any h_k(z) along the trajectory, with the
    per-entry denominator max(1, |h_k(z)(0)|)."""
    if z_samples is None:
        z_samples = default_z_samples()
    base = conserved_spectrum(sys, traj.points[0], z_samples, kmax)
    denom = np.maximum(1.0, np.abs(base))
    worst = 0.0
    for pt in traj.points[1:]:
        table = conserved_spectrum(sys, pt, z_samples, kmax)
        worst = max(worst, float(np.max(np.abs(table - base) / denom)))
    return worst


def spectral_curve(sys: SystemSpec, x, z_grid: Sequence[complex]) -> np.ndarray:
    """Coefficients of det(w Id - rho(L(z))) in w, one row per grid z, highest
    power first (monic).  Reduced points use L_0.  The product of the
    factors (w - lambda) over the eigenvalues, as in numpy.poly."""
    lax = lax_L0 if isinstance(x, ReducedPoint) else lax_L
    eig = np.linalg.eigvals(matrix_rep(lax(sys, x, z_grid)))
    coeffs = np.ones((len(z_grid), 1), dtype=complex)
    for lam in eig.T:
        coeffs = (np.pad(coeffs, ((0, 0), (0, 1)))
                  - lam[:, None] * np.pad(coeffs, ((0, 0), (1, 0))))
    return coeffs


def hamiltonian_quadrature(sys: SystemSpec, x: PhasePoint, *,
                           radius: float = 0.5, nodes: int = 512) -> complex:
    """H recovered from the Lax operator: (1/2) (1/2 pi i) oint (L, L) dz/z,
    by the trapezoidal rule on |z| = radius (the z^0 Laurent coefficient of
    (1/2)(L, L))."""
    val = lax_L(sys, x, ring_nodes(radius, nodes))
    return 0.5 * complex(np.mean(form(val, val)))


# ---------------------------------------------------------------------------
# reduced Lax pair


def lax_L0(sys: SystemSpec, x_red: ReducedPoint, z) -> AlgElement:
    """Reduced Lax operator: L at the slice lift of x_red."""
    return lax_L(sys, lift_reduced(x_red), z)


def _gauge_compensator(sys: SystemSpec, x_red: ReducedPoint) -> AlgElement:
    """Cartan element D with alpha_j(D) = d/dt xi_{alpha_j} along the
    unreduced flow at the slice lift; subtracting it from B keeps the simple
    spin components pinned at 1."""
    rs = sys.rs
    v = vector_field(sys, lift_reduced(x_red))
    xdot = np.array([v.xi.coeff(a) for a in rs.simple_roots])
    c_inv = np.array([[float(c) for c in row] for row in rs.cartan_inverse])
    c = c_inv @ xdot
    coords = np.zeros(rs.rank, dtype=complex)
    for i, simple in enumerate(rs.simple_roots):
        coords += c[i] * rs.coroot_coordinates(simple)
    return AlgElement.cartan(rs, coords)


def lax_B0(sys: SystemSpec, x_red: ReducedPoint, nodes) -> LaurentElement:
    """Reduced B on ``nodes`` through the gauge identity: B at the slice
    lift minus the Cartan compensator of the gauge drift.  Slice lifts carry
    J = 0, so the lift is always on Sigma."""
    b = _b_operator(sys, lift_reduced(x_red), nodes)
    d = _gauge_compensator(sys, x_red)
    return LaurentElement(sys.rs, b.principal, b.nodes, b.values.vec - d.vec)


def reduced_lax_residual(sys: SystemSpec, x_red: ReducedPoint,
                         z_samples: Sequence[complex] | None = None) -> float:
    """max_z ||dL_0/dt - [B_0, L_0]|| at one reduced point."""
    if z_samples is None:
        z_samples = default_z_samples()
    return _lax_residual(sys, x_red, lax_B0(sys, x_red, z_samples))


def lax_pair_reduced(sys: SystemSpec, traj: Trajectory,
                     z_samples: Sequence[complex] | None = None, *,
                     n_residual_points: int = 9) -> dict:
    """Verify the reduced Lax pair along a reduced trajectory.

    Returns the isospectral drift (char-poly coefficients of rho(L_0(z))
    against the initial point, all grid points) and the worst pointwise Lax
    residual ||dL_0/dt - [B_0, L_0]|| over an evenly spaced subsample.
    """
    if not traj.points or not isinstance(traj.points[0], ReducedPoint):
        raise StructuralError("lax_pair_reduced expects a reduced trajectory")
    if z_samples is None:
        z_samples = default_z_samples()
    base = spectral_curve(sys, traj.points[0], z_samples)
    iso = 0.0
    for pt in traj.points[1:]:
        cur = spectral_curve(sys, pt, z_samples)
        iso = max(iso, float(np.max(np.abs(cur - base))))
    sel = sorted(set(np.linspace(0, len(traj.points) - 1,
                                 n_residual_points).astype(int)))
    lax = 0.0
    for idx in sel:
        lax = max(lax, reduced_lax_residual(sys, traj.points[idx],
                                            z_samples))
    return {
        "isospectral_drift": iso,
        "lax_residual": lax,
        "n_points": len(traj.points),
        "n_residual_points": len(sel),
    }


# ---------------------------------------------------------------------------
# involution of the spectral invariants


def spectral_function(sys: SystemSpec, k: int, z: complex) -> ReducedFunction:
    """h_k(z) = tr(rho(L_0(z))^k)/k as a reduced function with its analytic
    gradient (chain rule through the L_0 coefficients)."""
    if k < 1:
        raise StructuralError("trace power k must be >= 1")
    rs = sys.rs
    spec = sys.lax_rmatrix

    def val(x_red: ReducedPoint) -> complex:
        return complex(conserved_spectrum(sys, x_red, [z], k)[0, k - 1])

    def grad(x_red: ReducedPoint) -> ReducedGradient:
        lift = lift_reduced(x_red)
        u = rs.root_values(x_red.q)
        mat = matrix_rep(lax_L(sys, lift, z))
        pk = np.linalg.matrix_power(mat, k - 1)
        # tr(L^{k-1} rho_a) for every basis element a
        traces = np.einsum("ij,aji->a", pk, rs.basis_matrices)
        dp = traces[:rs.rank].copy()
        c_du = root_coeff(spec, u, z, du=1)
        root_block = lift.xi.vec[rs.rank:]
        dq = rs.alpha_h.T @ (c_du * root_block * traces[rs.rank:])
        ds = root_coeff(spec, u, z)[rs.rank:] * traces[2 * rs.rank:]
        return ReducedGradient(dq, dp, ds)

    return ReducedFunction(val, grad)


def involution_check(sys: SystemSpec, x_red: ReducedPoint,
                     pairs: Sequence[tuple[tuple[int, complex],
                                           tuple[int, complex]]]) -> float:
    """max |{h_{k1}(z1), h_{k2}(z2)}_red| over the requested pairs of
    (k, z) specs."""
    worst = 0.0
    for (k1, z1), (k2, z2) in pairs:
        f = spectral_function(sys, k1, z1)
        g = spectral_function(sys, k2, z2)
        worst = max(worst, abs(bracket_reduced(f, g, x_red)))
    return worst


# ---------------------------------------------------------------------------
# fundamental Poisson bracket relation


def fpbr_residual(sys: SystemSpec, x: PhasePoint, z: complex,
                  w: complex) -> float:
    """Residual of the bracket relation

        {L(z) (x), L(w)} = -[r^{12}(q, z-w), L^1(z) + L^2(w)]
                           - (X_J r)(q, z-w),

    as the max-abs entry of LHS + RHS-terms.  The left side is assembled from
    the analytic component differentials of L; the right side uses the
    r-matrix tensor itself (including any injected fault, which makes this a
    negative control as well).
    """
    rs = sys.rs
    spec_l = sys.lax_rmatrix
    q = x.q
    f = rs.structure
    # component differentials of L with respect to xi coincide with the
    # unfaulted r-matrix pattern: L_a(z) = p_a + <r(q,z), 1 (x) xi>_a
    rz = r_tensor(spec_l, q, z).mat
    rw = r_tensor(spec_l, q, w).mat
    lz = lax_L(sys, x, z).vec
    lw = lax_L(sys, x, w).vec

    dq_z = np.zeros((rs.dim, rs.rank), dtype=complex)
    dq_w = np.zeros((rs.dim, rs.rank), dtype=complex)
    for i, e_i in enumerate(np.eye(rs.rank)):
        dq_z[:, i] = r_tensor(spec_l, q, z,
                              direction=e_i).pair_second(x.xi).vec
        dq_w[:, i] = r_tensor(spec_l, q, w,
                              direction=e_i).pair_second(x.xi).vec

    lhs = np.zeros((rs.dim, rs.dim), dtype=complex)
    # canonical part with the bracket_full orientation {p_i, q_j} = +delta:
    # {L_a(z), L_b(w)} picks -dL_a/dq_i dL_b/dp_i + dL_a/dp_i dL_b/dq_i
    lhs[:, :rs.rank] -= dq_z
    lhs[:rs.rank, :] += dq_w.T
    pairing = rs.gram @ x.xi.vec
    lhs += np.einsum("ac,bd,cde,e->ab", rz, rw, f, pairing)

    r12 = r_tensor(sys.rmatrix, q, z - w).mat
    com = np.einsum("cb,f,cfa->ab", r12, lz, f)
    com += np.einsum("ad,f,dfb->ab", r12, lw, f)
    xterm = r_tensor(sys.rmatrix, q, z - w, direction=momentum_J(x)).mat
    return float(np.max(np.abs(lhs + com + xterm)))


# ---------------------------------------------------------------------------
# trajectory export


def format_complex(v) -> str:
    """Render a complex number as re+imj (CSV field convention)."""
    v = complex(v)
    return f"{v.real:.17g}{v.imag:+.17g}j"


def trajectory_csv_rows(sys: SystemSpec, traj: Trajectory,
                        extra: dict[str, Sequence] | None = None
                        ) -> tuple[list[str], list[list[str]]]:
    """Header and data rows for the CSV export: t, q_i, p_i, spins by root
    label, then diagnostics."""
    rs = sys.rs
    rank = rs.rank
    reduced = traj.reduced
    spin_roots = reduced_roots(rs) if reduced else rs.roots
    prefix = "s" if reduced else "xi"
    header = (["t"] + [f"q{i + 1}" for i in range(rank)]
              + [f"p{i + 1}" for i in range(rank)]
              + [f"{prefix}{root_label(r)}" for r in spin_roots]
              + ["energy", "J_residual"])
    extra = extra or {}
    header += list(extra.keys())
    rows = []
    for idx, pt in enumerate(traj.points):
        row = [f"{traj.times[idx]:.17g}"]
        row += [format_complex(v) for v in pt.q]
        row += [format_complex(v) for v in pt.p]
        if reduced:
            row += [format_complex(v) for v in pt.s]
        else:
            row += [format_complex(pt.xi.coeff(r)) for r in rs.roots]
        row.append(format_complex(traj.energy[idx]))
        row.append(f"{traj.constraint[idx]:.17g}")
        for col in extra.values():
            row.append(format_complex(col[idx]))
        rows.append(row)
    return header, rows


def write_trajectory_csv(path, sys: SystemSpec, traj: Trajectory,
                         extra: dict[str, Sequence] | None = None) -> None:
    header, rows = trajectory_csv_rows(sys, traj, extra)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
