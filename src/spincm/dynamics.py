"""Hamiltonian flows, Lax operators and conserved quantities.

Each system couples a canonical pair (q, p) on the Cartan subalgebra with a
spin covector xi carrying the plus Lie-Poisson structure (:mod:`spincm.phase`).
The Hamiltonian of every family has the shape

    H(q, p, xi) = (1/2) sum_i p_i^2 - (1/2) sum_{alpha} w_alpha((alpha, q))
                                                  xi_alpha xi_{-alpha},

with the pair weight w = -g' of :func:`spincm.rmatrix._regular_part`, g the
regular part at z = 0 of the root coefficient c_alpha that B reads.
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
from .errors import (ConfigError, PoleError, StructuralError, coords, finite,
                     raise_on_fp_fault, scalar)
from .ode import ChebyshevPicard
from .phase import (PhasePoint, _bracket, _checked, pushforward,
                    reduced_roots, reduction, slice_lift)
from .rmatrix import (RMatrixSpec, _pole_distance, _r_pairing, _r_table,
                      _regular_part, rational_r_matrix, trigonometric_r_matrix)
from .rootsys import RootSystem, build_root_system, root_label, torus_adjoint


# Accepted windows after which integrate stops with a truncated trajectory.
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
    return PhasePoint.make(rs, q, p, xi_components=dict.fromkeys(
        rs.roots, coords(m, "m")))


@dataclass
class Trajectory:
    """Output of :func:`integrate`.

    ``points`` stacks the point (reduced or not) at each time of the
    strictly monotone grid ``times``: a window's end node where the window
    ends on a grid point, its polynomial inside it.  ``energy`` and
    ``constraint`` (the momentum drift max|J(t) - J(0)|, 0 when reduced)
    are per-point diagnostics.  A run stopped by the collision guard or a
    pole is returned truncated with ``completed`` False and a reason.
    ``stats`` holds the solver's counts (``ChebyshevPicard.stats``:
    ``calls``, the sequential flow calls, apart from ``nfev``, the state
    rows they evaluated; ``accepted`` and ``rejected`` windows; the accepted
    window lengths ``h_min`` and ``h_max``), None when no solver ran.
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
# One core serves both flows, on the state rows of a PhasePoint (a reduced
# spin at its slice lift); every core takes points stacked on leading axes.


def _gradient(sys: RMatrixSpec, q, xi) -> tuple[np.ndarray, np.ndarray]:
    """The force -dH/dq and w xi = -dH/dxi (w_alpha xi_alpha on the roots,
    0 on the Cartan block) at the coordinates q, xi (leading axes kept, the
    force a row product per point).  w is even, so one weight call on the
    positive roots serves every root."""
    rs = sys.rs
    w, w_du = _regular_part(sys, rs.positive_root_values(q), weight=True)
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


def _first_fault(evaluate, n: int):
    """(evaluate(slice(None)), n, None) for an evaluation of n stacked rows
    that raises none of _TRUNCATING; else, redone row by row, (None, k,
    error) for the first row k whose own evaluate(slice(k, k + 1)) raises
    one.  The stacked error is raised again if no row raises alone: a
    stacked evaluation is its rows' bit for bit, so that is a defect."""
    try:
        return evaluate(slice(None)), n, None
    except _TRUNCATING as stacked:
        for k in range(n):
            try:
                evaluate(slice(k, k + 1))
            except _TRUNCATING as exc:
                return None, k, exc
        raise stacked


def _flow(sys: RMatrixSpec, y: np.ndarray) -> np.ndarray:
    """The vector field at the states y (leading axes stack states, each
    a row of every product, so each row is its single-state field bit for
    bit): (dq, dp) = (p, -dH/dq) and the coadjoint spin leg d(I xi) =
    [w xi, I xi]; a reduced state, a row narrower than 2 rank + dim, moves
    by its pushforward at the slice lift (:func:`spincm.phase.pushforward`)."""
    rs, n = sys.rs, sys.rs.rank
    q, p, spin = y[..., :n], y[..., n:2 * n], y[..., 2 * n:]
    reduced = y.shape[-1] != 2 * n + rs.dim
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
    x = _checked(x, rs=sys.rs)
    return scalar(_energy(sys, x.q, x.p, x.xi))


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
    return PhasePoint(sys.rs, _flow(sys, x.y))


# ---------------------------------------------------------------------------
# integration


def collision_margin(sys: RMatrixSpec, q) -> float | np.ndarray:
    """Distance of the Cartan coordinates q to the family's singular set
    (:func:`spincm.rmatrix._pole_distance`), inf when the case has no
    singular roots: a float for one q, an array over the leading axes of
    stacked q, each its single-point value.  The positive roots suffice:
    the distance is even in u."""
    return scalar(_pole_distance(sys, sys.rs.positive_root_values(q)).min(-1))


@raise_on_fp_fault
def integrate(sys: RMatrixSpec, x0, t_final: float, tol: float = 1e-10, *,
              n_points: int = 201) -> Trajectory:
    """Integrate the (reduced or unreduced) flow from t = 0 to t_final.

    Adaptive Chebyshev-Picard windows (:class:`spincm.ode.ChebyshevPicard`) on
    the complex state vector, each sweep one stacked flow call on the window's
    17 nodes, with ``tol`` the relative and ``tol * 1e-2`` the absolute
    tolerance of each window's error, not of the run's (on trigonometric A_4
    reduced 0.0084 from the wall, a run to t = -0.3 at tol 1e-9 ends 1.2e-8 off
    scipy's DOP853 at rtol 1e-13); the returned grid is uniform with
    ``n_points`` entries, each from the polynomial of the window it falls in
    (the end node at a window's end).  Every node of an accepted window is
    checked against the collision guard in one stacked call.  t_final may be
    negative (backward flow).  A non-finite t_final, tol or initial state, a
    stack of points, an n_points that is not an integer >= 2 (a numpy integer
    is one, a bool is not), an initial state whose energy overflows, or one
    past the range of the elliptic argument reduction, raises StructuralError.
    Close approaches to the singular set, poles and floating-point faults (in
    the first evaluation, in every window down to the minimum window, in a
    collision check and in the energy of a later grid point) and a window past
    that range truncate the trajectory instead of raising, and so does a run
    past MAX_STEPS accepted windows.  The energy and momentum columns are
    evaluated once over all grid points.
    """
    t, rtol = coords(t_final, "t_final"), coords(tol, "tol")
    if t.imag or not np.isfinite(t) or t == 0.0:
        raise StructuralError(f"t_final must be real, finite and nonzero, "
                              f"got {t_final}")
    if rtol.imag or not (np.isfinite(rtol) and rtol.real > 0.0):
        raise StructuralError(f"tol must be real, finite and positive, got "
                              f"{tol}")
    t_final, tol = t.real.item(), rtol.real.item()
    if isinstance(n_points, bool) or not isinstance(
            n_points, numbers.Integral) or n_points < 2:
        raise StructuralError(f"n_points must be an integer >= 2, got "
                              f"{n_points!r}")
    x0 = _checked(x0, rs=sys.rs, single=True)
    n, y0 = sys.rs.rank, x0.y
    reason = None
    solver = ChebyshevPicard(lambda y: _flow(sys, y), y0, t_final, tol,
                             tol * 1e-2, _TRUNCATING)
    t_grid = np.linspace(0.0, t_final, n_points)
    states = np.empty((n_points, y0.size), dtype=complex)
    states[0] = y0
    filled = 1
    try:
        margins, times = collision_margin(sys, y0[None, :n]), np.zeros(1)
        while True:
            hit = np.flatnonzero(margins < COLLISION_TOL)
            t_cut = times[hit[0]] if hit.size else solver.t
            if solver.accepted:
                # the grid points the window has reached (a prefix of the
                # rest), from its polynomial
                slack = 1e-12 * max(1.0, abs(t_cut))
                end = filled + np.count_nonzero(
                    (t_grid[filled:] - t_cut) * solver.direction <= slack)
                states[filled:end] = solver.solution(t_grid[filled:end])
                filled = end
            if hit.size:
                reason = (f"collision guard at t = {t_cut:.6g}: singular-"
                          f"set distance {margins[hit[0]]:.3e} below "
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
            # every node of the window but its first, read before
            margins = collision_margin(sys, solver.nodes[1:, :n])
            times = solver.times[1:]
    except _TRUNCATING as exc:
        reason = f"integration aborted at t = {solver.t:.6g}: {exc}"
    points = PhasePoint(sys.rs, states[:filled])
    xi = points.xi
    energy, k, fault = _first_fault(lambda rows: _energy(
        sys, points.q[rows], points.p[rows], xi[rows]), filled)
    if fault is not None:
        if not k:
            if isinstance(fault, FloatingPointError):
                raise StructuralError(f"the energy of the initial state is "
                                      f"out of floating-point range: {fault}")
            raise fault
        points, xi = points[:k], xi[:k]
        energy = _energy(sys, points.q, points.p, xi)
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
    x, z = _checked(x, rs=sys.rs), coords(z, "z", ...)
    return scalar(_lax_value(_lax(sys, x.q, z)[0, 0], x.p, x.xi))


@raise_on_fp_fault
def sigma_residual(sys: RMatrixSpec, x: PhasePoint):
    """Distance of x from Sigma: ||J||_inf, or max_{alpha in Delta'}
    |(alpha, J)| for the rational family.  One past the float range raises
    FloatingPointError (np.abs of a complex sets no flag)."""
    j = _checked(x, False, sys.rs).xi[..., :sys.rs.rank]
    if sys.family == "rational":
        j = sys.rs.root_values(j)[..., sys.dp_mask]
    return scalar(finite(np.max(np.abs(j), axis=-1, initial=0.0),
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
    vel = _flow(sys, np.concatenate([q, p, xi], -1))
    dxi = vel[..., 2 * n:]
    if x.reduced:
        # only the reduced roots of the lift move, by d s(xi_dot)
        dxi = np.concatenate([np.zeros(q.shape[:-1] + (2 * n,)),
                              pushforward(rs, x.spin, dxi)], -1)
    m = len(z)
    r, dr = _lax(sys, q, np.concatenate([z, -z]), 2, du=1)
    lax, dlax = (_lax_value(r[0, ..., :m, :], cartan, spin)
                 for cartan, spin in ((p, xi), (vel[..., n:2 * n], dxi)))
    dlax[..., n:] += dr[0, ..., :m, n:] * rs.root_values(
        vel[..., :n])[..., None, :] * xi[..., None, n:]
    # the principal part of L at 0: lim (L(z) - I xi / z), then I xi
    principal = np.stack([np.concatenate([p, _regular_part(
        sys, rs.root_values(q)) * xi[..., n:]], -1), xi])
    # R_q(L/z) = (1/2) L/z + sum_k (1/k!) <r_k(-z), (L/z)_{-(k+1)} (x) 1>
    b = -(0.5 * (lax / z[:, None]) + _r_pairing(
        r[..., m:, rs.dual_index], principal[..., None, :]))
    if x.reduced:
        # less the torus drift D: alpha_j(D) = xi_dot on the simple roots
        b[..., :n] -= np.linalg.solve(rs.alpha_h[:n], vel[
            ..., 3 * n:4 * n, None])[..., None, :, 0]
    # (X_J R)(L/z), 0 where J = 0: the du = 1 table at -z scaled by alpha(J)
    dr = dr[..., m:, :].copy()
    dr[..., n:] *= rs.root_values(xi[..., :n])[..., None, :]
    res = dlax - rs.bracket_coords(b, lax) + _r_pairing(
        dr[..., rs.dual_index], principal[..., None, :])
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
    x = _checked(x, rs=sys.rs, nonempty=True)
    return scalar(_lax_pair(sys, x, _z_list(sys, nodes, nonempty=False))[1])


def default_z_samples(sys: RMatrixSpec, n: int = 8) -> list[complex]:
    """Sample ring |z| = 0.55 in the spec's length for spectral checks;
    offset angles avoid the real and imaginary axes where trigonometric
    coefficients degenerate."""
    return [sys.length * (0.55 * np.exp(2j * math.pi * (k + 0.37) / n))
            for k in range(n)]


def _z_list(sys: RMatrixSpec, z_samples, nonempty: bool = True) -> np.ndarray:
    """z_samples (default_z_samples(sys) if None) as a 1-D complex array,
    not empty if ``nonempty``."""
    return coords(default_z_samples(sys) if z_samples is None else z_samples,
                  "z", "m", nonempty=nonempty)


@raise_on_fp_fault
def lax_residuals(sys: RMatrixSpec, x: PhasePoint,
                  z_samples: Sequence[complex] | None = None):
    """The quasi-Lax residual max_z ||dL/dt - [B, L] + (X_J R)(L/z)|| at
    each stacked point (L_0 and B_0 if reduced) in one evaluation: the Lax
    equation where J = 0 (on Sigma, at a slice lift)."""
    x = _checked(x, rs=sys.rs, nonempty=True)
    return scalar(_lax_pair(sys, x, _z_list(sys, z_samples))[0])


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
    sums = _power_sums(sys, _checked(x, rs=sys.rs), _z_list(sys, z_samples))
    return scalar(sums / np.arange(1, sums.shape[-1] + 1))


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
                       _z_list(sys, z_samples))
    drifts = {"spectrum_drift": _worst(_relative_drift(
                  sums / np.arange(1, sums.shape[-1] + 1))),
              "isospectral_drift": _worst(_relative_drift(_char_poly(sums)))}
    return {**{name: worst[0] for name, worst in drifts.items()},
            "worst": {name: list(worst[1:]) for name, worst in drifts.items()}}


# ---------------------------------------------------------------------------
# reduced Lax pair


def gauge_residual(sys: RMatrixSpec, x: PhasePoint):
    """max_z ||L_0(pi(x))(z) - Ad_{g(xi)^{-1}} L(x)(z)|| over the ring
    default_z_samples(sys, 4) at each stacked unreduced point x: the
    consistency of the reduced Lax operator with the gauge normalization,
    both L from one r table at the points' q."""
    rs, x = sys.rs, _checked(x, False, sys.rs)
    s, g = reduction(rs, x.xi)
    r = _lax(sys, x.q, default_z_samples(sys, 4))[0, 0]
    diff = _lax_value(r, x.p, slice_lift(rs, s)) - torus_adjoint(
        rs, -g[..., None, :], _lax_value(r, x.p, x.xi))
    return scalar(np.max(np.abs(diff), axis=(-2, -1)))


# ---------------------------------------------------------------------------
# involution of the spectral invariants


def _spectral_gradients(sys: RMatrixSpec, x: PhasePoint,
                        specs: Sequence[tuple[int, complex]]) -> np.ndarray:
    """Differentials (dq | dp | ds) of h_k(z) = tr(rho(L_0(z))^k)/k at each
    reduced point for every (k, z) in ``specs``, the stack axes of x then
    (specs, 2 rank + n_s), by the chain rule through the L_0 coefficients
    from one stacked Lax pass; tr(L^{k-1} rho_a) is a Frobenius product."""
    rs, n = sys.rs, sys.rs.rank
    ks = coords([k for k, _ in specs], "trace powers k", "N")
    whole = np.isfinite(ks) & (ks == np.floor(ks.real)) & (ks.real >= 1)
    if not whole.all():
        raise StructuralError("trace power k must be an integer >= 1")
    ks = ks.real.astype(int)
    q, p, xi = x.q, x.p, x.xi
    r, dr = _lax(sys, q, [z for _, z in specs], du=1)[:, 0]
    # L^(k - 1) for the k of each spec, read off one power ladder
    powers = _lax_powers(rs, _lax_value(r, p, xi), ks.max(initial=1) - 1)
    power = np.stack(powers, -3)[..., np.arange(len(ks)), ks - 1, :, :]
    traces = rs.to_coords(power.swapaxes(-1, -2))
    dq = (dr[..., n:] * xi[..., None, n:] * traces[..., n:]) @ rs.alpha_h
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
    x = _checked(x, True, sys.rs, nonempty=True)
    # the (k, z) of each side of each pair, pair-major (no pairs: a (0, 2,
    # 2) table)
    table = coords(list(pairs) or np.zeros((0, 2, 2)), "pairs", "P", 2, 2)
    sides = [tuple(spec) for spec in table.reshape(-1, 2).tolist()]
    specs = list(dict.fromkeys(sides))
    grads = _spectral_gradients(sys, x, specs)
    index = [specs.index(spec) for spec in sides]
    return np.abs(_bracket(x, grads, grads)[..., index[0::2], index[1::2]])


# ---------------------------------------------------------------------------
# fundamental Poisson bracket relation


@raise_on_fp_fault
def fpbr_residual(sys: RMatrixSpec, x: PhasePoint, z: complex, w: complex):
    """Residual of the bracket relation

        {L(z) (x), L(w)} = -[r^{12}(q, z-w), L^1(z) + L^2(w)]
                           - (X_J r)(q, z-w),

    as the max-abs entry of LHS + RHS-terms at each stacked point, from one
    :func:`_lax` table and one r table for all points.  The left side is
    :func:`spincm.phase.bracket_full` of the component differential rows
    (dL_a/dq | dL_a/dp | dL_a/dxi), L_a = p_a + c_a(q, z) xi_a; the right
    side uses the r-matrix itself (including any injected fault, which
    makes this a negative control as well), each r as its coefficient
    vector."""
    rs, n = sys.rs, sys.rs.rank
    x = _checked(x, False, rs)
    q, p, xi = x.q, x.p, x.xi
    z, w = coords(z, "z"), coords(w, "w")
    d, roots = rs.dual_index, np.arange(n, rs.dim)
    r, dr = _lax(sys, q, [z, w], du=1)[:, 0]
    rows = np.zeros(r.shape + (2 * n + rs.dim,), dtype=complex)
    rows[..., n:, :n] = dr[..., n:, None] * (xi[..., None, n:, None]
                                             * rs.alpha_h)
    rows[..., :n, n:2 * n] = np.eye(n)
    # dL_a/dxi = c_a e_{dual(a)}, as xi_a = <xi, e_{dual(a)}>
    rows[..., np.arange(rs.dim), 2 * n + d] = r
    # ad_j[..., b, :] = [e_{dual(b)}, L(j)] for j = z, w
    ad_z, ad_w = np.moveaxis(rs.bracket_coords(np.eye(rs.dim)[d, None, :],
                             _lax_value(r, p, xi)[..., None, :, :]), -2, 0)
    c12, d12 = _r_table(sys, q, z - w, 1, du=1)[:, 0]
    com = c12[..., None, d] * ad_z.swapaxes(-1, -2) + c12[..., None] * ad_w
    com[..., roots, d[roots]] += d12[..., roots] * rs.root_values(xi[..., :n])
    return scalar(np.max(np.abs(_bracket(x, rows[..., 0, :, :], rows[
        ..., 1, :, :]) + com), axis=(-2, -1)))


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
    whole (complex values as re+imj), from one table in one pass.  An
    extra column that is not one number per point raises StructuralError."""
    extra = {name: coords(values, f"extra column {name!r}", traj.n_points)
             for name, values in (extra or {}).items()}
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
    text = trajectory_csv(traj, extra)  # built whole before the file opens
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


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
    points = PhasePoint(rs, table[:, 1:-2])
    return Trajectory(table[:, 0].real, points, table[:, -2],
                      table[:, -1].real, True)
