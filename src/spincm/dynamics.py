"""Hamiltonian flows, Lax operators and conserved quantities.

Each system couples a canonical pair (q, p) on the Cartan subalgebra with a
spin covector xi carrying the plus Lie-Poisson structure (:mod:`spincm.phase`).
The Hamiltonian of every family has the shape

    H(q, p, xi) = (1/2) sum_i p_i^2 - (1/2) sum_{alpha} w_alpha((alpha, q))
                                                  xi_alpha xi_{-alpha},

with the pair weight w_alpha from :func:`spincm.rmatrix.positive_pair_weight`.
The Lax operator L = p + r(q, z) xi reads the kernel only through :func:`_lax`,

    L(q, p, xi)(z) = p + f(z) (I xi)_h + sum_alpha c_alpha((alpha, q), z)
                                              xi_alpha e_alpha,

and the operator B of the Lax pair is R_q applied to the covector L(z)/z.
The flow preserves H, the momentum J, the constraint set Sigma, and the full
spectrum of rho(L(z)); the checks in this module verify all of that
numerically, each over a stack of points in one array evaluation, and so
does :func:`gauge_residual`, L_0 at pi(x) against Ad_{g(xi)^{-1}} L(x).

Sign conventions (plus Lie-Poisson with the plain-dual coadjoint spin flow
d(I xi)/dt = -[dH_xi, I xi], and B = -R_q(L/z) so that dL/dt = [B, L] -
(X_J R)(L/z), the Lax equation on Sigma) are validated empirically by the
residual checks in the test-suite rather than asserted twice.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import Lattice
from .errors import (ConfigError, PoleError, StructuralError, finite,
                     raise_on_fp_fault)
from .ode import DormandPrince, interpolate
from .phase import (PhasePoint, _bracket, _checked, pushforward,
                    reduced_roots, reduction, slice_lift)
from .rmatrix import (RMatrixSpec, _pole_distance, _r_pairing, _r_table,
                      positive_pair_weight, rational_r_matrix,
                      root_coeff_reg0, trigonometric_r_matrix)
from .rootsys import RootSystem, build_root_system, root_label, torus_adjoint


# Accepted steps after which integrate stops with a truncated trajectory.
MAX_STEPS = 200_000
# Singular-set distance (collision_margin) below which integrate stops.
COLLISION_TOL = 1e-6
# Errors that truncate a trajectory (in a step or a later energy), not raise.
_TRUNCATING = (PoleError, StructuralError, ZeroDivisionError,
               FloatingPointError, OverflowError)


# ---------------------------------------------------------------------------
# systems and trajectories


def make_system(family: str, rank: int, *, delta_prime="full",
                pi_prime="full", delta_plus=None,
                lattice: Lattice | None = None) -> RMatrixSpec:
    """Construct a system of the given family over A_rank: its r-matrix
    spec, from which the Hamiltonian, the flow and the Lax operators are
    built.  The defining (n+1)-dimensional representation is used wherever
    a matrix of L is needed (conserved traces, spectral curves)."""
    rs = build_root_system("A", rank)
    if family == "rational":
        return rational_r_matrix(rs, delta_prime)
    if family == "trigonometric":
        return trigonometric_r_matrix(rs, pi_prime, delta_plus)
    # the elliptic family, or an unknown one, which the spec rejects
    return RMatrixSpec(rs, family, lattice=lattice)


def spinless_state(rs: RootSystem, q, p, m: complex) -> PhasePoint:
    """The classical datum: every spin component equal to m, Cartan block 0."""
    components = {root: complex(m) for root in rs.roots}
    return PhasePoint.make(rs, q, p, xi_components=components)


@dataclass
class Trajectory:
    """Output of :func:`integrate`.

    ``points`` stacks the point (reduced or not) at each time of the
    strictly monotone grid ``times``: the solver's own state where a step
    ends on a grid point, its 7th-order dense output inside a step.
    ``energy`` and ``constraint`` (the momentum drift max|J(t) - J(0)|, 0
    when reduced) are per-point diagnostics.  A run stopped by the
    collision guard or a pole is returned truncated with ``completed``
    False and a reason.  ``stats`` holds the solver's counts
    (``DormandPrince.stats``), None when no solver ran.
    """

    times: np.ndarray
    points: PhasePoint
    energy: np.ndarray
    constraint: np.ndarray
    completed: bool
    abort_reason: str | None = None
    stats: dict | None = None

    @property
    def n_points(self) -> int:
        return len(self.points.y)


# ---------------------------------------------------------------------------
# Hamiltonians and vector fields
#
# One flat core serves both flows, on the state rows of a PhasePoint (a
# reduced spin at its slice lift), stacked on one leading axis.


def _stack(x: PhasePoint, nonempty: bool = False) -> PhasePoint:
    """x on one axis of rows; StructuralError if ``nonempty`` and empty."""
    x = PhasePoint(x.rs, x.y.reshape(-1, x.y.shape[-1]), x.reduced)
    if nonempty and not len(x.y):
        raise StructuralError("expected at least one point, got none")
    return x


def _per_point(x: PhasePoint, values: np.ndarray):
    """values per row of _stack(x) on the leading axes of x (or a scalar)."""
    values = values.reshape(x.y.shape[:-1] + values.shape[1:])
    return values.item() if values.ndim == 0 else values


def _gradient(sys: RMatrixSpec, q, xi) -> tuple[np.ndarray, np.ndarray]:
    """The force -dH/dq and w xi = -dH/dxi (w_alpha xi_alpha on the roots,
    0 on the Cartan block) at the coordinates q, xi (leading axes kept, the
    force a row product per point).  w is even, so one weight call on the
    positive roots serves every root."""
    rs = sys.rs
    w, w_du = positive_pair_weight(sys, rs.positive_root_values(q))
    roots = xi[..., rs.rank:]
    prod = roots[..., :rs.n_pos] * roots[..., rs.n_pos:]
    weights = np.concatenate([np.zeros(w.shape[:-1] + (rs.rank,)), w, w], -1)
    force = (w_du * prod)[..., None, :] @ rs.alpha_h[:rs.n_pos]
    return force[..., 0, :], weights * xi


def _energy(sys: RMatrixSpec, q, p, xi) -> np.ndarray:
    """H = (1/2)|p|^2 - (1/2) <w xi, xi> at the coordinates q, p, xi;
    leading axes stack points."""
    wxi = _gradient(sys, q, xi)[1]
    return 0.5 * (np.sum(p * p, axis=-1)
                  - np.sum(wxi * xi[..., sys.rs.dual_index], axis=-1))


def _energy_column(sys: RMatrixSpec, q, p, xi):
    """(energy, fault): :func:`_energy` over the stacked points, cut before
    the first one whose energy raises one of _TRUNCATING, and that error
    (None if none does).  At the first point a pole raises as it is and a
    floating-point fault raises StructuralError."""
    try:
        return _energy(sys, q, p, xi), None
    except _TRUNCATING:
        pass
    for k in range(len(q)):
        try:
            _energy(sys, q[k], p[k], xi[k])
        except _TRUNCATING as exc:
            if k:
                return _energy(sys, q[:k], p[:k], xi[:k]), exc
            if isinstance(exc, FloatingPointError):
                raise StructuralError(f"the energy of the initial state is "
                                      f"out of floating-point range: {exc}")
            raise


def _flow(sys: RMatrixSpec, y: np.ndarray, reduced: bool) -> np.ndarray:
    """The vector field at the states y (leading axes stack states, each
    a row of every product, so each row is its single-state field bit for
    bit): (dq, dp) = (p, -dH/dq) and the coadjoint spin leg d(I xi) =
    [w xi, I xi]; a reduced state moves by its pushforward at the slice
    lift (:func:`spincm.phase.pushforward`)."""
    rs, n = sys.rs, sys.rs.rank
    q, p, spin = y[..., :n], y[..., n:2 * n], y[..., 2 * n:]
    xi = slice_lift(rs, spin) if reduced else spin
    force, wxi = _gradient(sys, q, xi)
    dspin = rs.bracket_coords(wxi[..., None, :], xi[..., None, :])[..., 0, :]
    if reduced:
        dspin = pushforward(rs, spin, dspin)
    return np.concatenate([p, force, dspin], -1)


@raise_on_fp_fault
def hamiltonian(sys: RMatrixSpec, x: PhasePoint):
    """H = (1/2)|p|^2 - (1/2) sum_alpha w_alpha xi_alpha xi_{-alpha}; at a
    reduced point, H_0: H at its slice lift (s_{alpha_i} = 1)."""
    xs = _stack(_checked(x, rs=sys.rs))
    return _per_point(x, _energy(sys, xs.q, xs.p, xs.xi))


@raise_on_fp_fault
def vector_field(sys: RMatrixSpec, x: PhasePoint) -> PhasePoint:
    """Hamiltonian vector field of H, returned in point coordinates:
    (dq, dp, d(I xi)) = (dH/dp, -dH/dq, I(ad*_{dH_xi} xi)).

    The spin leg is the plain-dual coadjoint action, I(ad*_X xi) =
    -[X, I xi]; this is the orientation under which the spectral
    invariants of the Lax operator are conserved.  At a reduced point it
    is the reduced flow, a reduced point (dq, dp, ds) with ds = d
    s(xi_dot), the pushforward of the field at the slice lift.
    """
    x = _checked(x, rs=sys.rs)
    return PhasePoint(sys.rs, _flow(sys, x.y, x.reduced), x.reduced)


# ---------------------------------------------------------------------------
# integration


def collision_margin(sys: RMatrixSpec, q) -> float | np.ndarray:
    """Distance of the Cartan coordinates q to the family's singular set
    (:func:`spincm.rmatrix._pole_distance`), inf when the case has no
    singular roots: a float for one q, an array over the leading axes of
    stacked q, each its single-point value.  The positive roots suffice:
    the distance is even in u."""
    margin = _pole_distance(sys, sys.rs.positive_root_values(q)).min(-1)
    return float(margin) if margin.ndim == 0 else margin


@raise_on_fp_fault
def integrate(sys: RMatrixSpec, x0, t_final: float, tol: float = 1e-10, *,
              n_points: int = 201) -> Trajectory:
    """Integrate the (reduced or unreduced) flow from t = 0 to t_final.

    Adaptive Dormand-Prince 8(5,3) (:class:`spincm.ode.DormandPrince`) on
    the complex state vector; the returned grid is uniform with
    ``n_points`` entries.  A grid point at a step end takes that step's
    state, one inside a step the 7th-order dense output, whose stages run
    stacked over all such steps after the last one.  t_final may be
    negative (backward flow).  A non-finite t_final, tol or initial state,
    a stack of points, an n_points that is not an integer >= 2 (a numpy
    integer is one, a bool is not), an initial state whose energy
    overflows, or one past the range of the elliptic argument reduction,
    raises StructuralError.  Close approaches to the singular set, poles and
    floating-point faults (also in the first evaluation, a collision check,
    the dense output and the energy of a later grid point) and a step past
    that range truncate the trajectory instead of raising, and so does a
    run past MAX_STEPS accepted steps.  The energy and momentum columns are
    evaluated once over all grid points.
    """
    if not math.isfinite(t_final) or t_final == 0.0:
        raise StructuralError(f"t_final must be finite and nonzero, got "
                              f"{t_final}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise StructuralError(f"tol must be finite and positive, got {tol}")
    if isinstance(n_points, bool) or not isinstance(
            n_points, numbers.Integral) or n_points < 2:
        raise StructuralError(f"n_points must be an integer >= 2, got "
                              f"{n_points!r}")
    x0 = _checked(x0, rs=sys.rs, single=True)
    n, reduced, y0 = sys.rs.rank, x0.reduced, x0.y
    reason = None
    solver = DormandPrince(lambda t, y: _flow(sys, y, reduced), 0.0, y0,
                           t_final, tol, tol * 1e-2)
    t_grid = np.linspace(0.0, t_final, n_points)
    states = np.empty((n_points, y0.size), dtype=complex)
    states[0] = y0
    filled, pending = 1, []
    while True:
        try:
            margin = collision_margin(sys, solver.y[:n])
            if margin < COLLISION_TOL:
                reason = (f"collision guard at t = {solver.t:.6g}: singular-"
                          f"set distance {margin:.3e} below "
                          f"{COLLISION_TOL:.1e}")
                break
            if solver.finished:
                break
            if solver.accepted >= MAX_STEPS:
                reason = (f"step budget {MAX_STEPS} exhausted at t = "
                          f"{solver.t:.6g}")
                break
            if not solver.step():
                reason = f"step-size control failed at t = {solver.t:.6g}"
                break
            # the grid points the step has reached (a prefix of the rest)
            slack = 1e-12 * max(1.0, abs(solver.t))
            end = filled + np.count_nonzero(
                (t_grid[filled:] - solver.t) * solver.direction <= slack)
            if (t_grid[filled:end] != solver.t).any():
                pending.append((solver.last_step, filled, end))
            states[filled:end] = solver.y
            filled = end
        except _TRUNCATING as exc:
            reason = f"integration aborted at t = {solver.t:.6g}: {exc}"
            break

    def dense(batch):
        for (step, lo, hi), f in zip(batch, solver.interpolants(
                [step for step, _, _ in batch])):
            states[lo:hi] = interpolate(step, f, t_grid[lo:hi])

    try:
        if pending:
            dense(pending)
    except _TRUNCATING:  # step by step: the run stops at the faulting one
        for k, (step, lo, _) in enumerate(pending):
            try:
                dense(pending[k:k + 1])
            except _TRUNCATING as exc:
                filled = lo
                reason = f"integration aborted at t = {step.t:.6g}: {exc}"
                break

    points = PhasePoint(sys.rs, states[:filled], reduced)
    xi = points.xi
    energy, fault = _energy_column(sys, points.q, points.p, xi)
    if fault is not None:
        k = len(energy)
        points, xi = points[:k], xi[:k]
        reason = f"energy evaluation failed at t = {t_grid[k]:.6g}: {fault}"
    return Trajectory(t_grid[:len(xi)], points, energy,
                      np.max(np.abs(xi[:, :n] - xi[0, :n]), axis=-1),
                      reason is None, reason, solver.stats)


# ---------------------------------------------------------------------------
# Lax operators


def _lax(sys: RMatrixSpec, q, z, kmax: int = 1, du: int = 0):
    """The Lax side's one read of the kernel, the r table (:func:`_r_table`)
    of the spec without its fault at the stacked q and every z: shape (1 +
    du, kmax) + points + z.shape + (dim,), the points leading, as q
    takes a unit axis per z axis and z one per point axis."""
    z = np.asarray(z, dtype=complex)
    return _r_table(sys.with_fault(1.0), np.expand_dims(q, tuple(range(
        -1 - z.ndim, -1))), z.reshape((1,) * (np.ndim(q) - 1) + z.shape),
        kmax, du)


def _lax_value(r, p, xi) -> np.ndarray:
    """L = p + r xi from an r table of :func:`_lax` (points + z axes) at
    the stacked p, xi: r xi entry by entry, p on the Cartan slots."""
    z_axes = tuple(range(xi.ndim - 1, r.ndim - 1))
    lax = r * np.expand_dims(xi, z_axes)
    lax[..., :p.shape[-1]] += np.expand_dims(p, z_axes)
    return lax


@raise_on_fp_fault
def lax_L(sys: RMatrixSpec, x: PhasePoint, z) -> np.ndarray:
    """L(q,p,xi)(z) = p + f(z) (I xi)_h + sum c_alpha((alpha,q), z) xi_alpha
    e_alpha, as coordinate rows: a (dim,) row at one point and one z, with
    the stacked points, then the axes of z, in front.  At a reduced point,
    L_0: L at its slice lift."""
    xs = _stack(_checked(x, rs=sys.rs))
    return _per_point(x, _lax_value(_lax(sys, xs.q, z)[0, 0], xs.p, xs.xi))


@raise_on_fp_fault
def sigma_residual(sys: RMatrixSpec, x: PhasePoint):
    """Distance of x from Sigma: ||J||_inf, or max_{alpha in Delta'}
    |(alpha, J)| for the rational family.  One past the float range raises
    FloatingPointError (np.abs of a complex sets no flag)."""
    xs = _stack(_checked(x, False, sys.rs))
    j = xs.xi[:, :sys.rs.rank]
    if sys.family == "rational":
        j = sys.rs.root_values(j)[:, sys.dp_mask]
    return _per_point(x, finite(np.max(np.abs(j), axis=-1, initial=0.0),
                                "the distance from Sigma"))


def _lax_pair(sys: RMatrixSpec, x: PhasePoint, z):
    """The Lax pair at the stacked points x (L_0 and B_0 if reduced): the
    quasi-Lax residual max_z ||dL/dt - [B, L] + (X_J R)(L/z)|| per point
    and B = -R_q(L/z) on z.  One unreduced flow call on the stack, reduced
    points at their slice lift, gives the velocity (q_dot, p_dot, xi_dot);
    a lift moves by its pushforward, and B_0 is B less the torus drift D
    that the slice leaves out, alpha_j(D) = xi_dot_{alpha_j}.  One table of
    :func:`_lax`, r and dc/du at +-z, gives L and dL/dt (L at the velocity
    plus the q-derivative of the root coefficients along q_dot) from its +z
    half, B from its -z half."""
    rs, n = sys.rs, sys.rs.rank
    z = np.asarray(z, dtype=complex)
    q, p, xi = x.q, x.p, x.xi
    vel = _flow(sys, np.concatenate([q, p, xi], -1), False)
    dxi = vel[:, 2 * n:]
    if x.reduced:
        # only the reduced roots of the lift move, by d s(xi_dot)
        dxi = np.concatenate([np.zeros((len(q), 2 * n)),
                              pushforward(rs, x.spin, dxi)], -1)
    m = len(z)
    r, dr = _lax(sys, q, np.concatenate([z, -z]), 2, du=1)
    lax, dlax = (_lax_value(r[0, :, :m], cartan, spin)
                 for cartan, spin in ((p, xi), (vel[:, n:2 * n], dxi)))
    dlax[..., n:] += dr[0, :, :m, n:] * rs.root_values(vel[:, :n])[:, None] \
        * xi[:, None, n:]
    # the principal part of L at 0: lim (L(z) - I xi / z), then I xi
    principal = np.stack([np.concatenate([p, root_coeff_reg0(
        sys, rs.root_values(q)) * xi[:, n:]], -1), xi])
    # R_q(L/z) = (1/2) L/z + sum_k (1/k!) <r_k(-z), (L/z)_{-(k+1)} (x) 1>
    b = -(0.5 * (lax / z[:, None]) + _r_pairing(
        r[:, :, m:][..., rs.dual_index], principal[:, :, None]))
    if x.reduced:
        # less the torus drift D: alpha_j(D) = xi_dot on the simple roots
        b[..., :n] -= np.linalg.solve(rs.alpha_h[:n],
                                      vel[:, 3 * n:4 * n, None])[:, None, :, 0]
    # (X_J R)(L/z), 0 where J = 0: the du = 1 table at -z scaled by alpha(J)
    dr = dr[:, :, m:].copy()
    dr[..., n:] *= rs.root_values(xi[:, :n])[:, None]
    res = dlax - rs.bracket_coords(b, lax) + _r_pairing(
        dr[..., rs.dual_index], principal[:, :, None])
    return np.max(np.abs(res), axis=(-2, -1), initial=0.0), b


@raise_on_fp_fault
def lax_B(sys: RMatrixSpec, x: PhasePoint, nodes) -> np.ndarray:
    """B = -R_q(L/z) on ``nodes``, one coordinate row per node (after the
    stacked points): the B of the quasi-Lax equation dL/dt = [B, L] -
    (X_J R)(L/z) of :func:`lax_residuals`, on the whole phase space (on
    Sigma, J = 0 and it is the plain dL/dt = [B, L]).  Its principal part
    is 1/2 of L/z's: the regular part of L at 0 over z, I xi over z^2.  At
    a reduced point, B_0 through the gauge identity: B at the slice lift
    minus the Cartan compensator of the gauge drift."""
    xs = _stack(_checked(x, rs=sys.rs), nonempty=True)
    return _per_point(x, _lax_pair(sys, xs, _z_list(
        nodes, nonempty=False))[1])


def default_z_samples(n: int = 8) -> list[complex]:
    """Sample ring |z| = 0.55 for spectral checks; offset angles avoid the
    real and imaginary axes where trigonometric coefficients degenerate."""
    return [0.55 * np.exp(2j * math.pi * (k + 0.37) / n) for k in range(n)]


def _z_list(z_samples, nonempty: bool = True) -> np.ndarray:
    """z_samples (default_z_samples() if None) as a complex array;
    StructuralError unless it is 1-D (and not empty, if ``nonempty``)."""
    z = np.asarray(default_z_samples() if z_samples is None else z_samples,
                   dtype=complex)
    if z.ndim != 1 or nonempty and not len(z):
        need = "at least one z sample" if nonempty else "z samples"
        raise StructuralError(f"expected {need} in 1-D, got shape {z.shape}")
    return z


@raise_on_fp_fault
def lax_residuals(sys: RMatrixSpec, x: PhasePoint,
                  z_samples: Sequence[complex] | None = None):
    """The quasi-Lax residual max_z ||dL/dt - [B, L] + (X_J R)(L/z)|| at
    each stacked point (L_0 and B_0 if reduced) in one evaluation: the Lax
    equation where J = 0 (on Sigma, at a slice lift)."""
    xs = _stack(_checked(x, rs=sys.rs), nonempty=True)
    return _per_point(x, _lax_pair(sys, xs, _z_list(z_samples))[0])


# ---------------------------------------------------------------------------
# conserved quantities and spectral curves


def _lax_powers(rs: RootSystem, lax, m: int) -> list:
    """rho(L)^0 .. rho(L)^m of the stacked Lax values ``lax``, rho(L) from
    :meth:`RootSystem.to_matrix` as every bracket takes it: one stacked @
    per power, so each point's powers are its single-point ones."""
    mat = rs.to_matrix(lax)
    powers = [np.broadcast_to(np.eye(rs.matrix_size, dtype=complex),
                              mat.shape), mat]
    for _ in range(m - 1):
        powers.append(powers[-1] @ mat)
    return powers[:m + 1]


def _power_sums(sys: RMatrixSpec, x: PhasePoint, z) -> np.ndarray:
    """tr(rho(L(z))^k) at the stacked points x (reduced ones at their slice
    lift: L_0), for every z and k = 1..n (n the matrix size: by
    Cayley-Hamilton, higher powers add no invariant), of shape (points,
    len(z), n): one stacked evaluation.  With h = ceil(n/2), the powers up
    to L^h give the traces for k <= h, and tr L^(h+a) is the Frobenius
    pairing sum_ij (L^h)_ij (L^a)_ji.  Both are einsums, which set no flag
    on an overflow, so the table is checked whole."""
    n = sys.rs.matrix_size
    powers = _lax_powers(sys.rs, _lax_value(_lax(sys, x.q, z)[0, 0], x.p,
                                            x.xi), (n + 1) // 2)
    sums = [np.einsum("...ii", a) for a in powers[1:]] + [
        np.einsum("...ij,...ji", powers[-1], a) for a in powers[1:n // 2 + 1]]
    return finite(np.stack(sums, -1), "the power sums")


def _worst(drift: np.ndarray) -> tuple[float, int, int]:
    """The largest entry of a (points, z, ...) drift table, with its point
    and z index."""
    at = np.unravel_index(np.argmax(drift), drift.shape)
    return float(drift[at]), int(at[0]), int(at[1])


def _relative_drift(tables: np.ndarray) -> np.ndarray:
    """|h - h(0)| / max(1, |h(0)|) entry by entry against the first point."""
    return np.abs(tables - tables[0]) / np.maximum(1.0, np.abs(tables[0]))


def _char_poly(power_sums: np.ndarray) -> np.ndarray:
    """Monic coefficients of det(w Id - L) in w, highest power first, from
    the power sums p_k = tr L^k (last axis, k = 1..n) by Newton's
    identities, k c_k = -sum_{i=1..k} c_{k-i} p_i: no eigenvalue solve."""
    coeffs = [np.ones(power_sums.shape[:-1], dtype=complex)]
    for k in range(1, power_sums.shape[-1] + 1):
        coeffs.append(-sum(coeffs[k - i] * power_sums[..., i - 1]
                           for i in range(1, k + 1)) / k)
    return np.stack(coeffs, axis=-1)


@raise_on_fp_fault
def conserved_spectrum(sys: RMatrixSpec, x: PhasePoint,
                       z_samples: Sequence[complex]) -> np.ndarray:
    """Table h_k(z) = tr(rho(L(z))^k)/k, shape (len(z_samples), n) for the
    matrix size n, per stacked point; L_0 at a reduced point."""
    xs = _stack(_checked(x, rs=sys.rs))
    sums = _power_sums(sys, xs, _z_list(z_samples))
    return _per_point(x, sums / np.arange(1, sums.shape[-1] + 1))


@raise_on_fp_fault
def spectral_drifts(sys: RMatrixSpec, traj: Trajectory,
                    z_samples: Sequence[complex] | None = None) -> dict:
    """Drifts of the spectrum of L(z) (L_0 if reduced) along a trajectory
    of either kind, from one power-sum table over its points and z, under
    one fault guard: the largest relative drift (:func:`_relative_drift`)
    of any h_k(z) = p_k/k, ``spectrum_drift``, and of any char-poly
    coefficient, ``isospectral_drift``, with the [point, z] of each worst
    entry under ``worst``.  The pointwise Lax equation is
    :func:`lax_residuals` at the trajectory's points."""
    if not traj.n_points:
        raise StructuralError("spectral_drifts expects a nonempty trajectory")
    sums = _power_sums(sys, _checked(traj.points, rs=sys.rs),
                       _z_list(z_samples))
    drifts = {"spectrum_drift": _worst(_relative_drift(
                  sums / np.arange(1, sums.shape[-1] + 1))),
              "isospectral_drift": _worst(_relative_drift(_char_poly(sums)))}
    return {**{name: worst[0] for name, worst in drifts.items()},
            "worst": {name: list(worst[1:]) for name, worst in drifts.items()}}


# ---------------------------------------------------------------------------
# reduced Lax pair


def gauge_residual(sys: RMatrixSpec, x: PhasePoint):
    """max_z ||L_0(pi(x))(z) - Ad_{g(xi)^{-1}} L(x)(z)|| over the ring
    default_z_samples(4) at each stacked unreduced point x: the consistency
    of the reduced Lax operator with the gauge normalization, both L from
    one r table at the points' q."""
    rs, xs = sys.rs, _stack(_checked(x, False, sys.rs))
    s, g = reduction(rs, xs.xi)
    r = _lax(sys, xs.q, default_z_samples(4))[0, 0]
    diff = _lax_value(r, xs.p, slice_lift(rs, s)) - torus_adjoint(
        rs, -g[..., None, :], _lax_value(r, xs.p, xs.xi))
    return _per_point(x, np.max(np.abs(diff), axis=(-2, -1)))


# ---------------------------------------------------------------------------
# involution of the spectral invariants


def _spectral_gradients(sys: RMatrixSpec, x: PhasePoint,
                        specs: Sequence[tuple[int, complex]]) -> np.ndarray:
    """Differentials (dq | dp | ds) of h_k(z) = tr(rho(L_0(z))^k)/k at each
    reduced point for every (k, z) in ``specs``, (points, specs, 2 rank +
    n_s), by the chain rule through the L_0 coefficients from one stacked
    Lax pass; tr(L^{k-1} rho_a) is a Frobenius product."""
    rs, n = sys.rs, sys.rs.rank
    ks = np.array([k for k, _ in specs], dtype=int)
    if (ks < 1).any():
        raise StructuralError("trace power k must be >= 1")
    q, p, xi = x.q, x.p, x.xi
    r, dr = _lax(sys, q, [z for _, z in specs], du=1)[:, 0]
    # L^(k - 1) for the k of each spec, read off one power ladder
    powers = _lax_powers(rs, _lax_value(r, p, xi), ks.max(initial=1) - 1)
    power = np.stack(powers, 2)[:, np.arange(len(ks)), ks - 1]
    traces = rs.to_coords(power.swapaxes(-1, -2))
    dq = (dr[..., n:] * xi[:, None, n:] * traces[..., n:]) @ rs.alpha_h
    return np.concatenate([dq, traces[..., :n], r[..., 2 * n:]
                           * traces[..., 2 * n:]], -1)


@raise_on_fp_fault
def involution_residuals(sys: RMatrixSpec, x: PhasePoint,
                         pairs: Sequence[tuple[tuple[int, complex],
                                               tuple[int, complex]]]
                         ) -> np.ndarray:
    """|{h_{k1}(z1), h_{k2}(z2)}_red| at each stacked reduced point for each
    pair of (k, z) specs: the gradients of the distinct specs in one
    evaluation, every pair read from the reduced Poisson tensor."""
    xs = _stack(_checked(x, True, sys.rs), nonempty=True)
    specs = list(dict.fromkeys(spec for pair in pairs for spec in pair))
    grads = _spectral_gradients(sys, xs, specs)
    table = _bracket(xs, grads, grads)
    first, second = ([specs.index(pair[side]) for pair in pairs]
                     for side in (0, 1))
    return _per_point(x, np.abs(table[:, first, second]))


# ---------------------------------------------------------------------------
# fundamental Poisson bracket relation


@raise_on_fp_fault
def fpbr_residual(sys: RMatrixSpec, x: PhasePoint, z: complex,
                  w: complex) -> float:
    """Residual of the bracket relation

        {L(z) (x), L(w)} = -[r^{12}(q, z-w), L^1(z) + L^2(w)]
                           - (X_J r)(q, z-w),

    as the max-abs entry of LHS + RHS-terms.  The left side is
    :func:`spincm.phase.bracket_full` of the component differential rows
    (dL_a/dq | dL_a/dp | dL_a/dxi), L_a = p_a + c_a(q, z) xi_a from
    :func:`_lax`; the right side uses the r-matrix itself (including any
    injected fault, which makes this a negative control as well), each r
    as its coefficient vector.  A stack of points raises StructuralError.
    """
    rs, n = sys.rs, sys.rs.rank
    x = _checked(x, False, rs, single=True)
    q, p, xi = x.q, x.p, x.xi
    d, roots = rs.dual_index, np.arange(n, rs.dim)
    r, dr = _lax(sys, q, [z, w], du=1)[:, 0]
    rows = np.zeros((2, rs.dim, 2 * n + rs.dim), dtype=complex)
    rows[:, n:, :n] = dr[:, n:, None] * (xi[n:, None] * rs.alpha_h)
    rows[:, :n, n:2 * n] = np.eye(n)
    # dL_a/dxi = c_a e_{dual(a)}, as xi_a = <xi, e_{dual(a)}>
    rows[:, np.arange(rs.dim), 2 * n + d] = r
    # ad[j][b] = [e_{dual(b)}, L_j] for L(z), L(w)
    ad_z, ad_w = np.moveaxis(rs.bracket_coords(
        np.eye(rs.dim)[d, None, :], _lax_value(r, p, xi)), 1, 0)
    c12, d12 = _r_table(sys, q, z - w, 1, du=1)[:, 0]
    com = c12[d] * ad_z.T + c12[:, None] * ad_w
    com[roots, d[roots]] += d12[roots] * rs.root_values(xi[:n])
    return float(np.max(np.abs(_bracket(x, *rows) + com)))


# ---------------------------------------------------------------------------
# trajectory export


_COMPLEX_FORMAT = "%.17g%+.17gj"     # a complex CSV field, re+imj


def _state_columns(rs: RootSystem, reduced: bool) -> list[str]:
    """t and the state q | p | spin column by column: q_i, p_i, then the
    Cartan spins xi_h_i and the spins by root label, or the s by label."""
    blocks = ("q", "p") if reduced else ("q", "p", "xi_h")
    spin = [f"s{root_label(r)}" for r in reduced_roots(rs)] if reduced \
        else [f"xi{root_label(r)}" for r in rs.roots]
    return (["t"] + [f"{b}{i + 1}" for b in blocks for i in range(rs.rank)]
            + spin)


def trajectory_csv(traj: Trajectory,
                   extra: dict[str, Sequence] | None = None) -> str:
    """The CSV text: the state columns of ``traj``'s kind, energy,
    J_residual and the ``extra`` columns, then one row per point, states
    whole (complex values as re+imj), from one table in one pass."""
    extra = extra or {}
    header = io.StringIO()
    csv.writer(header).writerow(_state_columns(traj.points.rs,
                                               traj.points.reduced)
                                + ["energy", "J_residual"] + list(extra))
    # one complex table, t | states | energy | J_residual | extra; "%.0s"
    # drops the zero imaginary part of the two real columns
    table = np.column_stack([traj.times, traj.points.y, traj.energy,
                             traj.constraint, *extra.values()]).astype(complex)
    real, n_extra = "%.17g%.0s", len(extra)
    row = ",".join([real] + [_COMPLEX_FORMAT] * (table.shape[1] - 2 - n_extra)
                   + [real] + [_COMPLEX_FORMAT] * n_extra) + "\r\n"
    return header.getvalue() + row * len(table) % tuple(
        table.view(float).ravel().tolist())


def write_trajectory_csv(path, traj: Trajectory,
                         extra: dict[str, Sequence] | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(trajectory_csv(traj, extra))


def read_trajectory_csv(path, rs: RootSystem) -> Trajectory:
    """The trajectory over rs, of either kind (reduced if the header has s
    columns), that :func:`write_trajectory_csv` wrote: J_residual as
    ``constraint``, ``completed``, no abort reason or solver stats (they
    are in ``diagnostics.json``).  A file that cannot be read, or a missing
    column, short row or non-finite or malformed value, raises ConfigError
    naming the file and line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from exc
    header = rows[0] if rows else []
    reduced = any(col.startswith("s[") for col in header)
    names = _state_columns(rs, reduced) + ["energy", "J_residual"]
    missing = [name for name in names if name not in header]
    if missing:
        raise ConfigError(f"trajectory {path} is missing column "
                          f"{missing[0]!r}")
    # t and J_residual are real, every other column complex
    parse = [float] + [complex] * (len(names) - 2) + [float]
    cols = [header.index(name) for name in names]
    values = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            values.append([f(row[c]) for f, c in zip(parse, cols)])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"trajectory {path} line {line}: {exc}") from exc
        if not np.all(np.isfinite(values[-1])):
            raise ConfigError(f"trajectory {path} line {line}: a value is "
                              "not finite")
    table = np.array(values, dtype=complex).reshape(-1, len(cols))
    points = PhasePoint(rs, table[:, 1:-2], reduced)
    return Trajectory(table[:, 0].real, points, table[:, -2],
                      table[:, -1].real, True)
