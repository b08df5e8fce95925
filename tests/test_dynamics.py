"""Dynamics layer: Hamiltonians, flows, Lax pairs, reduction, involution.

Frozen values used below were computed by hand:

* rational A_1 with (alpha, q) = 1, p = 0, xi_alpha = xi_{-alpha} = 1:
  H = -(1/2)(w_alpha + w_{-alpha}) = -1.
* rational A_1 spinless(m): rho(L(z)) is 2x2 with off-diagonal entries
  (1/z + 1/u) m and (1/z - 1/u) m, so the spectral curve is
  w^2 = p^2/2 + m^2 (1/z^2 - 1/u^2).
* the trigonometric Hamiltonian with a proper subset Pi' differs from the
  quadrature functional (1/2) Res_z (L, L) dz/z by minus the sum of
  xi_alpha xi_{-alpha} over the off-span roots (hand Laurent expansion of
  the off-span coefficient e^{+-iz + uz/3}/sin z).
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import dense_chain
from spincm import dynamics, rmatrix
from spincm.elliptic import Lattice
from spincm.errors import StructuralError
from helpers import (PhaseFunction, PhaseGradient, ReducedGradient,
                     format_complex,
                     hamiltonian_function, hamiltonian_gradient,
                     hamiltonian_quadrature, lax_time_derivative,
                     linear_spin_function, point, poisson_full,
                     ring_coefficients, spectral_curve,
                     spin_invariant_gradient, stack)
from test_elliptic import mp_weierstrass
from spincm.phase import (PhasePoint, bracket_full, gauge_g, lift_reduced,
                          momentum_J, project_pi, reduced_roots,
                          torus_action)
from spincm.rmatrix import _r_table, _regular_part
from spincm.rootsys import bracket, form, negate, torus_adjoint
from spincm.dynamics import (_lax_pair, _spectral_gradients,
                             collision_margin, conserved_spectrum,
                             Trajectory, default_z_samples, fpbr_residual,
                             gauge_residual, hamiltonian, integrate, involution_residuals,
                             lax_B, lax_L, lax_residuals, make_system,
                             sigma_residual, spectral_drifts, spinless_state,
                             trajectory_csv, vector_field)

WIDE = Lattice(2.0, 2.2j)


def sigma_point(sys, rng, scale=0.8):
    """Random point on Sigma: J = 0, all root components populated."""
    rs = sys.rs
    vec = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    vec[:rs.rank] = 0.0
    q = rng.uniform(0.6, 1.1, size=rs.rank) * np.sign(rng.normal(size=rs.rank))
    p = scale * rng.normal(size=rs.rank)
    return point(rs, q.astype(complex), p.astype(complex), vec)


def generic_point(sys, rng):
    """Random point with a nonzero Cartan spin block (off Sigma)."""
    x = sigma_point(sys, rng)
    vec = x.xi.copy()
    vec[:sys.rs.rank] = rng.normal(size=sys.rs.rank) \
        + 1j * rng.normal(size=sys.rs.rank)
    return point(sys.rs, x.q, x.p, vec)


def random_reduced(sys, rng):
    rs = sys.rs
    n_s = rs.n_roots - rs.rank
    s = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    q = rng.uniform(0.6, 1.1, size=rs.rank) * np.sign(rng.normal(size=rs.rank))
    return point(rs, q.astype(complex),
                 rng.normal(size=rs.rank).astype(complex), s)


def central_difference(f, h):
    """f'(0) by the fourth-order five-point central stencil."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


# -- Hamiltonians ------------------------------------------------------------


def test_hamiltonian_frozen_rank_one():
    sys = make_system("rational", 1)
    # (alpha, q) = sqrt(2) q_1 = 1
    x = PhasePoint.make(sys.rs, [1.0 / math.sqrt(2.0)], [0.0],
                        xi_components={(1,): 1.0, (-1,): 1.0})
    assert abs(hamiltonian(sys, x) - (-1.0)) < 1e-14


def test_trigonometric_hamiltonian_at_a_huge_root_value():
    """A trigonometric value at a huge real root value is the function at
    that double, with no guard: spinless(1) on A_2 at q = (1e200, 0.3)
    gives H = -sum_alpha>0 (1/sin^2 u_alpha - 1/3) at the double root
    values u, as 300-digit mpmath reads them."""
    mp = pytest.importorskip("mpmath")
    sys = make_system("trigonometric", 2)
    x = spinless_state(sys.rs, [1e200, 0.3], [0.0, 0.0], 1.0)
    h = hamiltonian(sys, x)
    assert h == -4.201382977995008
    with mp.workdps(300):
        want = -sum(1 / mp.sin(mp.mpf(u.real)) ** 2 - mp.mpf(1) / 3
                    for u in sys.rs.positive_root_values(x.q))
        assert abs(h - complex(want)) <= 1e-14 * abs(complex(want))


def test_hamiltonian_matches_quadrature():
    # H is the quadrature functional of its own Lax operator in every
    # family, and for trigonometric with Pi' = Pi, a proper Pi' ([0]) and
    # Pi' empty at ranks 2 and 3: the pair weight is -g', g the regular part
    # of the root coefficient at z = 0, also off the span of Pi'.
    rng = np.random.default_rng(7)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE),
                *(make_system("trigonometric", rank, pi_prime=pi_prime)
                  for rank in (2, 3) for pi_prime in ([0], "empty"))):
        x = generic_point(sys, rng)
        h = hamiltonian(sys, x)
        hq = hamiltonian_quadrature(sys, x, radius=0.4)
        assert abs(h - hq) < 1e-10, sys.describe()


def test_trig_proper_subset_quadrature_offset():
    # For a proper Pi' the displayed H and the quadrature functional once
    # differed by -sum_{alpha off span} xi_a xi_{-a}; with the pair weight
    # -g' off the span of Pi' that offset is gone, at a point where it is
    # far above the tolerance.
    sys = make_system("trigonometric", 2, pi_prime=[0])
    rng = np.random.default_rng(11)
    x = generic_point(sys, rng)
    rs = sys.rs
    off = [k for k in range(rs.n_roots) if not sys.span_mask[k]]
    s_off = sum(x.xi[rs.basis_index(rs.roots[k])]
                * x.xi[rs.basis_index(negate(rs.roots[k]))] for k in off)
    assert abs(s_off) > 1e-3
    h = hamiltonian(sys, x)
    hq = hamiltonian_quadrature(sys, x, radius=0.4)
    assert abs(h - hq) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(1099)
@example(4837)
@example(9317)     # min |(alpha, q)| down to 2.7e-4 on these three seeds
def test_hamiltonian_gradient_is_derivative(seed):
    sys = make_system("rational", 2)
    rng = np.random.default_rng(seed)
    x = generic_point(sys, rng)
    g = hamiltonian_function(sys).gradient(x)
    rs = sys.rs
    dq = rng.normal(size=rs.rank)
    dp = rng.normal(size=rs.rank)
    dxi = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    # generic_point lets min |(alpha, q)| get as small as ~3e-4, so the step
    # scales with that distance and a fourth-order stencil keeps the
    # truncation error small at a step large enough for the rounding error
    eps = 1e-3 * min(1.0, collision_margin(sys, x.q))

    def shifted(t):
        return point(rs, x.q + t * dq, x.p + t * dp, x.xi + t * dxi)

    fd = central_difference(lambda t: hamiltonian(sys, shifted(t)), eps)
    # dxi pairs with the gradient through the form: <delta xi, dH_xi>
    analytic = g.dq @ dq + g.dp @ dp + form(rs, dxi, g.dxi)
    assert abs(fd - analytic) < 1e-7 * max(1.0, abs(analytic))

    # reduced points over the same (q, p): the gradient at the slice lift,
    # pulled back to (q, p, s), against central differences of H_0
    n_s = rs.n_roots - rs.rank
    s = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    ds = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    for red_sys in (sys, make_system("trigonometric", 2),
                    make_system("elliptic", 2, lattice=WIDE)):
        x_red = point(rs, x.q, x.p, s)
        g_lift = hamiltonian_gradient(red_sys, lift_reduced(x_red))
        # a unit change of xi_gamma at the lift pairs with the e_{-gamma}
        # coefficient of dxi, so ds_gamma is that coefficient
        g_red = ReducedGradient(g_lift.dq, g_lift.dp,
                                g_lift.dxi[rs.dual_index[2 * rs.rank:]])
        eps = 1e-3 * min(1.0, collision_margin(red_sys, x_red.q))

        def shifted_red(t):
            return point(rs, x_red.q + t * dq, x_red.p + t * dp,
                         x_red.spin + t * ds)

        fd = central_difference(
            lambda t: hamiltonian(red_sys, shifted_red(t)), eps)
        analytic = g_red.dq @ dq + g_red.dp @ dp + g_red.ds @ ds
        assert abs(fd - analytic) < 1e-7 * max(1.0, abs(analytic)), \
            red_sys.family


# -- flows -------------------------------------------------------------------


def test_flow_is_bracket_with_hamiltonian():
    # trajectories follow F-dot = {H, F} for coordinate functions
    sys = make_system("rational", 2)
    rng = np.random.default_rng(3)
    x = generic_point(sys, rng)
    v = vector_field(sys, x)
    h = hamiltonian_function(sys)
    rs = sys.rs
    zero = np.zeros(rs.rank)
    no_spin = np.zeros(rs.dim, dtype=complex)
    for i in range(rs.rank):
        eq = np.zeros(rs.rank)
        eq[i] = 1.0
        fq = PhaseFunction(lambda y, i=i: y.q[i],
                           lambda y, eq=eq: PhaseGradient(eq, zero, no_spin))
        fp = PhaseFunction(lambda y, i=i: y.p[i],
                           lambda y, eq=eq: PhaseGradient(zero, eq, no_spin))
        assert abs(poisson_full(h, fq, x) - v.q[i]) < 1e-12
        assert abs(poisson_full(h, fp, x) - v.p[i]) < 1e-12
    for trial in range(4):
        y = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
        f_spin = linear_spin_function(rs, y)
        assert abs(poisson_full(h, f_spin, x) - form(rs, v.xi, y)) < 1e-11


def test_zero_spin_flow_is_free_motion():
    sys = make_system("rational", 1)
    x0 = PhasePoint.make(sys.rs, [0.9], [0.4])
    traj = integrate(sys, x0, 1.0, tol=1e-12, n_points=11)
    assert traj.completed
    for t, pt in zip(traj.times, traj.points):
        assert abs(pt.q[0] - (0.9 + 0.4 * t)) < 1e-9
        assert abs(pt.p[0] - 0.4) < 1e-10


@pytest.mark.parametrize("rank,t_final", [(1, 1.0), (2, 0.7), (3, 1.5),
                                          (4, 2.0)])
def test_rational_flow_against_the_projection_method(rank, t_final):
    """Closed form of the rational flow on Sigma (Gibbons-Hermsen): with
    d = q @ h_diag and X = rho(I xi), the particles at time t are the
    eigenvalues of diag(d0) + t L0, where L0 has p0 @ h_diag on its
    diagonal and X_ij / (d_i - d_j) off it.  With U the unitary that
    diagonalises that matrix, L(t) = U^H L0 U, whose diagonal is p(t), and
    X(t) = U^H X0 U up to the torus gauge, so the products X_ij X_ji are
    gauge invariant.  The spins are on the real form X = i H, H Hermitian
    with zero diagonal (so J = 0), where L0 is Hermitian and the particles
    stay real and apart.  The unreduced flow and the reduced flow from
    project_pi(x0), its particles ordered by position, both end within 20
    tol of it in the positions, p and the products, each relative to
    max(1, its largest entry)."""
    sys = make_system("rational", rank)
    rs = sys.rs
    rng = np.random.default_rng(70 + rank)
    n = rs.matrix_size
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    np.fill_diagonal(h, 0.0)
    d0 = np.sort(rng.uniform(-1.5, 1.5, size=n))
    q0 = np.linalg.lstsq(rs.h_diag.T, d0 - d0.mean(), rcond=None)[0]
    x0 = point(rs, q0.astype(complex), rng.normal(size=rank) + 0j,
               rs.to_coords(0.5j * h))
    d = q0 @ rs.h_diag
    gaps = d[:, None] - d + np.eye(n)
    x_mat = rs.to_matrix(x0.xi)
    l0 = x_mat / gaps + np.diag(x0.p.real @ rs.h_diag)
    want_d, u = np.linalg.eigh(np.diag(d) + t_final * l0)
    x_t = u.conj().T @ x_mat @ u
    want = {"q": want_d, "p": np.diag(u.conj().T @ l0 @ u),
            "XX": x_t * x_t.T}
    for tol in (1e-8, 1e-10):
        for x in (x0, project_pi(x0)):
            traj = integrate(sys, x, t_final, tol, n_points=2)
            assert traj.completed
            end = traj.points[-1]
            end = lift_reduced(end) if end.reduced else end
            got_d = end.q @ rs.h_diag
            order = np.argsort(got_d.real)
            x_t = rs.to_matrix(end.xi)[np.ix_(order, order)]
            got = {"q": got_d[order], "p": (end.p @ rs.h_diag)[order],
                   "XX": x_t * x_t.T}
            for key, value in want.items():
                err = np.max(np.abs(got[key] - value)) \
                    / max(1.0, np.max(np.abs(value)))
                assert err <= 20 * tol, (type(x).__name__, tol, key, err)


def trigonometric_projection(rs, x0, t_final):
    """The trigonometric flow from x0 on the real form X = i H at t_final
    (Kazhdan-Kostant-Sternberg, Olshanetsky-Perelomov): with d = q @ h_diag
    and L0 = diag(p0 @ h_diag) + X_ij / sin(d_i - d_j), g(t) = diag(e^{2i
    d0}) expm(2i t L0) is unitary with eigenvalues e^{2i d(t)}; with U its
    eigenvectors, L(t) = U^-1 L0 U has p(t) on its diagonal and X_ij(t) /
    sin(d_i - d_j) off it up to the torus gauge, which the products X_ij
    X_ji do not see.  L0 is Hermitian, so the exponential comes from its
    eigenvectors.  Returns e^{2i d(t)} and L(t), in one order."""
    d = x0.q.real @ rs.h_diag
    gaps = np.sin(d[:, None] - d) + np.eye(len(d))
    l0 = rs.to_matrix(x0.xi) / gaps + np.diag(x0.p.real @ rs.h_diag)
    lam, vecs = np.linalg.eigh(l0)
    flow = (vecs * np.exp(2j * t_final * lam)) @ vecs.conj().T
    circle, u = np.linalg.eig(np.exp(2j * d)[:, None] * flow)
    return circle, np.linalg.solve(u, l0 @ u)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_trigonometric_flow_against_the_projection_method(rank):
    """The unreduced flow and the reduced flow from project_pi(x0) both end
    within 20 tol of the closed form in the particle positions (half the
    distance of e^{2i d} on the unit circle), in p and in the products
    X_ij X_ji, each relative to max(1, its largest entry) as in the
    rational test; spins on the real form as there, positions within one
    period of each other."""
    sys = make_system("trigonometric", rank)
    rs = sys.rs
    rng = np.random.default_rng(80 + rank)
    n = rs.matrix_size
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    np.fill_diagonal(h, 0.0)
    d0 = np.sort(rng.uniform(-1.2, 1.2, size=n))
    q0 = np.linalg.lstsq(rs.h_diag.T, d0 - d0.mean(), rcond=None)[0]
    x0 = point(rs, q0.astype(complex), rng.normal(size=rank) + 0j,
               rs.to_coords(0.5j * h))
    for t_final in (0.8, 2.0):
        circle, l_t = trigonometric_projection(rs, x0, t_final)
        for tol in (1e-8, 1e-10):
            for x in (x0, project_pi(x0)):
                traj = integrate(sys, x, t_final, tol, n_points=2)
                assert traj.completed
                end = traj.points[-1]
                end = lift_reduced(end) if end.reduced else end
                d = (end.q @ rs.h_diag).real
                # the closed form's particle nearest to each of ours
                near = np.abs(np.exp(2j * d)[:, None] - circle).argmin(1)
                lt = l_t[np.ix_(near, near)]
                lx = lt * np.sin(d[:, None] - d)
                x_t = rs.to_matrix(end.xi)
                p_want, xx_want = np.diag(lt), lx * lx.T
                errs = {
                    "q": np.max(np.abs(np.exp(2j * d) - circle[near])) / 2,
                    "p": np.max(np.abs(end.p @ rs.h_diag - p_want))
                    / max(1.0, np.max(np.abs(p_want))),
                    "XX": np.max(np.abs(x_t * x_t.T - xx_want))
                    / max(1.0, np.max(np.abs(xx_want)))}
                for key, err in errs.items():
                    assert err <= 20 * tol, (x.reduced, t_final, tol, key,
                                             err)


def test_elliptic_rank_one_flow_against_the_time_quadrature():
    """On A_1 the Cartan spin and g = xi_alpha xi_-alpha are conserved, so
    the motion has one degree of freedom, H = p^2/2 - g wp(sqrt(2) q), and
    the time to reach q is T = int dq / p with p = sqrt(2 (E + g wp)).  The
    30-digit quadrature along the grid, one segment at a time with the
    branch of p nearest the flow's, and wp and E from mpmath
    (mp_weierstrass on (2, 2.2i)), gives each grid time within tol 1e-10:
    * on (2, 2.2i) from the root value 2, p0 = 1 and spinless(1j) (g =
      -1): 2.3e-11 at worst, 1.2e-11 at T = 0.6, where a pair weight off
      by 1e-6 relative reads 9.0e-8;
    * on the sheared basis (2, 2 + 2.2i) of that lattice, with the complex
      coupling of spinless(0.6 + 0.8i), from the root value 2.5 and
      p0 = 0.9 to T = 0.4: 1.59e-11 at worst, where a pair weight off by
      1e-6 relative reads 1.01e-7."""
    mp = pytest.importorskip("mpmath")
    wp = mp_weierstrass(2.0, 2.2j)["wp"]
    for lattice, q0, p0, m, t_final, n_points in (
            (WIDE, math.sqrt(2), 1.0, 1j, 0.6, 21),
            (Lattice(2.0, 2.0 + 2.2j), 2.5 / math.sqrt(2), 0.9, 0.6 + 0.8j,
             0.4, 11)):
        sys = make_system("elliptic", 1, lattice=lattice)
        traj = integrate(sys, spinless_state(sys.rs, [q0], [p0], m),
                         t_final, tol=1e-10, n_points=n_points)
        assert traj.completed
        q, p = ([mp.mpc(v) for v in col] for col in traj.points.y[:, :2].T)
        g = mp.mpc(m) ** 2
        energy = p[0] ** 2 / 2 - g * wp(mp.sqrt(2) * q[0])

        def speed(x):
            return mp.sqrt(2 * (energy + g * wp(mp.sqrt(2) * x)))

        elapsed = mp.mpf(0)
        for k in range(1, traj.n_points):
            v = speed(q[k - 1])
            sign = 1 if abs(v - p[k - 1]) < abs(v + p[k - 1]) else -1
            elapsed += mp.quad(lambda x: sign / speed(x), [q[k - 1], q[k]])
            assert abs(complex(elapsed) - traj.times[k]) < 1e-10, (m, k)


# On (pi/2, 12i) the nome is e^{-24}: the elliptic family is the
# trigonometric one with Pi' full up to O(nome^2) = 1e-21 (DLMF 23.6, 20.2;
# zeta z -> cot z + z/3, sigma(u+z)/(sigma(u) sigma(z)) -> e^{uz/3}(cot z +
# cot u), wp u -> 1/sin^2 u - 1/3), so the two agree to rounding.
DEGENERATE = Lattice(math.pi / 2, 12j)


def degeneration_tables():
    """The r tables (du, kz < 4, nodes, samples, dim) of the elliptic family
    on DEGENERATE and of the trigonometric one with Pi' full, A_3, at five
    q at least 0.3 from the singular set and six z with 0.2 < |z| < 0.8;
    and the two specs and the q."""
    ell = make_system("elliptic", 3, lattice=DEGENERATE)
    trig = make_system("trigonometric", 3)
    rs, rng, q = trig.rs, np.random.default_rng(3), []
    while len(q) < 5:
        c = rng.uniform(-1, 1, 3) + 0.2j * rng.uniform(-1, 1, 3)
        if collision_margin(trig, c) > 0.3 and np.max(
                np.abs(rs.root_values(c).real)) < math.pi - 0.3:
            q.append(c)
    z = rng.uniform(0.2, 0.8, 6) * np.exp(2j * math.pi * rng.uniform(0, 1, 6))
    z, q = np.broadcast_to(z[:, None], (6, 5)), np.array(q)
    return ell, trig, q, [_r_table(spec, q, z, 4, du=1)
                          for spec in (ell, trig)]


def relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_elliptic_degenerates_to_trigonometric():
    """The r-matrix rows du = 0 at kz < 4 and du = 1 at kz = 0, the pair
    weight w and w', the regular part at z = 0 and a rank-3 spinless flow
    on DEGENERATE are those of the trigonometric family with Pi' full: the
    coefficients to 1e-12 relative, the flow with the same solver counts
    and states within 1e-11."""
    ell, trig, q, (te, tt) = degeneration_tables()
    rs = trig.rs
    for du, kz in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]:
        assert relative(te[du, kz], tt[du, kz]) < 1e-12, (du, kz)
    up = rs.root_values(q)[:, :rs.n_pos]
    for got, want in zip(_regular_part(ell, up, weight=True),
                         _regular_part(trig, up, weight=True)):
        assert relative(got, want) < 1e-12
    assert relative(_regular_part(ell, rs.root_values(q)),
                    _regular_part(trig, rs.root_values(q))) < 1e-12
    x0 = spinless_state(rs, [0.9, 0.7, 0.8], [0.2, 0.1, -0.3], 0.7j)
    got, want = (integrate(spec, x0, 2.0, n_points=21) for spec in (ell, trig))
    assert got.completed and want.completed
    assert got.stats["nfev"] == want.stats["nfev"]
    assert np.max(np.abs(got.points.y - want.points.y)) < 1e-11


def test_elliptic_mixed_derivatives_degenerate_to_trigonometric():
    """The mixed derivatives du = 1 at kz = 1..3 meet the trigonometric
    closed form to 1e-13 relative on DEGENERATE: the elliptic row is the
    Kronecker series of the theta ratio, with no pole of c to cancel (the
    zeta-difference ladder read 5.9e-14, 9.3e-13 and 4.1e-11 here)."""
    _, _, _, (te, tt) = degeneration_tables()
    assert max(relative(te[1, kz], tt[1, kz]) for kz in (1, 2, 3)) < 1e-13


def test_momentum_and_energy_conserved():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(21)
    x0 = generic_point(sys, rng)
    traj = integrate(sys, x0, 2.0, tol=1e-11, n_points=41)
    assert traj.completed
    assert traj.constraint.max() < 1e-10          # max |J(t) - J(0)|
    drift = np.max(np.abs(traj.energy - traj.energy[0]))
    assert drift < 1e-8


def test_time_reversal():
    sys = make_system("rational", 2)
    # repulsive spin data (negative xi_a xi_{-a} products), J = 0
    comps = {(1, 0): 1.0, (0, 1): 0.8, (1, 1): 0.5,
             (-1, 0): -0.9, (0, -1): -0.7, (-1, -1): -0.4}
    x0 = PhasePoint.make(sys.rs, [0.8, 0.5], [0.3, -0.2],
                         xi_components=comps)
    fwd = integrate(sys, x0, 1.5, tol=1e-12, n_points=31)
    assert fwd.completed
    back = integrate(sys, fwd.points[-1], -1.5, tol=1e-12, n_points=31)
    assert back.completed
    xf = back.points[-1]
    err = max(np.max(np.abs(xf.q - x0.q)), np.max(np.abs(xf.p - x0.p)),
              np.max(np.abs(xf.xi - x0.xi)))
    assert err < 1e-7


def test_collision_guard_truncates():
    sys = make_system("rational", 1)
    # real spinless data is attractive (-m^2/u^2) and falls together
    x0 = spinless_state(sys.rs, [0.5 / math.sqrt(2.0)], [0.0], 1.0)
    traj = integrate(sys, x0, 10.0, tol=1e-10)
    assert not traj.completed
    assert "collision guard" in traj.abort_reason
    assert traj.n_points >= 1


def test_integrate_truncates_past_the_elliptic_range():
    """A run whose root value crosses 2^52 periods ends truncated with the
    range as its reason, as at a pole; past the range at t = 0 it raises."""
    sys = make_system("elliptic", 1, lattice=Lattice(2.0, 2.2j))
    x0 = spinless_state(sys.rs, [1.1e16 + 0.3j], [1e15], 0.4j)
    traj = integrate(sys, x0, 4.0, n_points=11)
    assert not traj.completed and traj.n_points > 1
    assert "2^52 periods" in traj.abort_reason
    assert not traj.abort_reason.startswith("integration aborted at t = 0:")
    with pytest.raises(StructuralError, match=r"2\^52 periods"):
        integrate(sys, spinless_state(sys.rs, [1e200], [0.1], 0.4j), 0.1)


def cut_and_full_runs(monkeypatch, patch):
    """A rational A_1 run of 201 grid points, and the same run after
    ``patch`` (applied with monkeypatch) cuts it short."""
    sys = make_system("rational", 1)
    x0 = spinless_state(sys.rs, [1.2], [0.4], 0.5j)
    full = integrate(sys, x0, 10.0)
    assert full.completed and full.stats["accepted"] > 2
    patch(monkeypatch)
    return full, integrate(sys, x0, 10.0)


def assert_cut_at_a_step(full, cut, reason):
    """``cut`` is truncated with ``reason``, after 2 accepted windows, and
    its grid is the prefix of ``full``'s up to the last accepted window,
    state for state."""
    assert not cut.completed
    assert cut.abort_reason.startswith(reason)
    assert cut.stats["accepted"] == 2
    t_end = float(cut.abort_reason.rpartition("t = ")[2])
    assert 1 < cut.n_points < full.n_points
    assert cut.times[-1] <= t_end * (1 + 1e-5) < full.times[cut.n_points]
    assert np.array_equal(cut.times, full.times[:cut.n_points])
    assert np.array_equal(cut.points.y, full.points.y[:cut.n_points])


def test_integrate_stops_at_the_step_budget(monkeypatch):
    full, cut = cut_and_full_runs(monkeypatch, lambda mp: mp.setattr(
        dynamics, "MAX_STEPS", 2))
    assert_cut_at_a_step(full, cut, "step budget 2 exhausted at t = ")


def test_integrate_stops_when_step_size_control_fails(monkeypatch):
    step = dynamics.ChebyshevPicard.step

    def failing(mp):
        mp.setattr(dynamics.ChebyshevPicard, "step",
                   lambda self: self.accepted < 2 and step(self))
    full, cut = cut_and_full_runs(monkeypatch, failing)
    assert_cut_at_a_step(full, cut, "step-size control failed at t = ")


def test_integrate_input_validation():
    sys = make_system("rational", 1)
    x0 = spinless_state(sys.rs, [1.0], [0.0], 1.0)
    with pytest.raises(StructuralError):
        integrate(sys, x0, 0.0)
    with pytest.raises(StructuralError):
        integrate(sys, x0, 1.0, tol=-1e-10)


@pytest.mark.parametrize("t_final,tol,q,p,m", [
    (math.nan, 1e-10, 1.0, 0.0, 1.0), (math.inf, 1e-10, 1.0, 0.0, 1.0),
    (1.0, math.nan, 1.0, 0.0, 1.0), (1.0, math.inf, 1.0, 0.0, 1.0),
    (1.0, 1e-10, math.nan, 0.0, 1.0), (1.0, 1e-10, 1.0, -math.inf, 1.0),
    (1.0, 1e-10, 1.0, 0.0, complex(0.0, math.nan)),
], ids=["nan-1e-10", "inf-1e-10", "1.0-nan", "1.0-inf", "q-nan", "p-inf",
        "spin-nan"])
def test_integrate_rejects_non_finite_inputs(t_final, tol, q, p, m):
    sys = make_system("rational", 1)
    x0 = spinless_state(sys.rs, [q], [p], m)
    with pytest.raises(StructuralError):
        integrate(sys, x0, t_final, tol)
    with pytest.raises(StructuralError):
        integrate(sys, PhasePoint.make_reduced(sys.rs, [q], [p], {(-1,): m}),
                  t_final, tol)


@pytest.mark.parametrize("n_points", [0, -1, 1, 2.5, True, 2.0,
                                      np.float64(3.0), "3", None])
def test_integrate_takes_an_integer_grid_of_two_points_or_more(n_points):
    """n_points outside the schema's rule (an integer >= 2; a bool is not
    one) raises StructuralError naming it, before any step: 0 gave an
    IndexError, -1 a ValueError, 2.5 and True a TypeError, and 1 a
    one-point grid after a run to t_final.  A numpy integer counts."""
    sys = make_system("rational", 1)
    x0 = spinless_state(sys.rs, [0.9], [0.1], 1j)
    with pytest.raises(StructuralError,
                       match=rf"n_points .* got {re.escape(repr(n_points))}$"):
        integrate(sys, x0, 0.5, n_points=n_points)
    traj = integrate(sys, x0, 0.5, n_points=np.int64(2))
    assert traj.completed and np.array_equal(traj.times, [0.0, 0.5])


# -- Lax operators and the Lax equation --------------------------------------


def test_lax_time_derivative_is_directional_derivative():
    # dL/dt from the chain rule must agree with the finite-difference
    # derivative of L along the straight line x + t * vector_field(x).
    rng = np.random.default_rng(5)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE)):
        x = generic_point(sys, rng)
        v = vector_field(sys, x)
        z = 0.43 + 0.29j
        eps = 1e-6

        def shifted(t):
            return point(sys.rs, x.q + t * v.q, x.p + t * v.p,
                         x.xi + t * v.xi)

        fd = (1.0 / (2 * eps)) * (lax_L(sys, shifted(eps), z)
                                  - lax_L(sys, shifted(-eps), z))
        res = np.abs(lax_time_derivative(sys, x, z) - fd).max()
        assert res < 1e-7, sys.family


def test_lax_equation_on_sigma():
    rng = np.random.default_rng(13)
    for sys in (make_system("rational", 1), make_system("rational", 2),
                make_system("rational", 3),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE)):
        for trial in range(2):
            x = sigma_point(sys, rng)
            assert sigma_residual(sys, x) < 1e-12
            res = lax_residuals(sys, x)
            assert res < 1e-9, (sys.family, sys.rs.rank, res)


@pytest.mark.parametrize("cartan", [[1e308 + 1e308j, 0], [1.5e308, 0]])
def test_sigma_residual_past_the_float_range_raises(cartan):
    """A rational Cartan block whose root values leave the float range
    raises FloatingPointError: at 1e308 + 1e308i the modulus gave inf with
    no flag (np.abs of a complex sets none), at 1.5e308 the root values a
    raw RuntimeWarning (an error in the suite)."""
    sys = make_system("rational", 2)
    x = PhasePoint.make(sys.rs, [0.3, 0.9], [0.1, 0.2], xi_cartan=cartan)
    with pytest.raises(FloatingPointError):
        sigma_residual(sys, x)


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_lax_B_is_the_lax_pair_core_with_half_the_principal_part(family):
    """lax_B on the nodes is the B of the Lax pair core bit for bit, at a
    point on Sigma, at a reduced point and at a point off Sigma (J != 0),
    where it is the B of the quasi-Lax equation; B = -R_q(L/z) has 1/2 of
    the principal part of L/z (the regular part of L at 0 over z and
    I xi over z^2), read off a quadrature ring.  No nodes give an empty
    B; a Lax residual over no z raises, as it would check nothing."""
    sys = make_system(family, 2, lattice=WIDE if family == "elliptic"
                      else None)
    rng = np.random.default_rng(61)
    ring = 0.3 * np.exp(2j * np.pi * np.arange(256) / 256)
    off = generic_point(sys, np.random.default_rng(62))
    assert sigma_residual(sys, off) > 0.1
    for x in (sigma_point(sys, rng), random_reduced(sys, rng), off):
        b = lax_B(sys, x, ring)
        assert isinstance(b, np.ndarray) and b.shape == (256, sys.rs.dim)
        assert np.array_equal(b, _lax_pair(sys, x[None], ring)[1][0])
        want = 0.5 * ring_coefficients(lax_L(sys, x, ring) / ring[:, None],
                                       ring, 2)
        got = ring_coefficients(b, ring, 2)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        assert lax_B(sys, x, []).shape == (0, sys.rs.dim)
        with pytest.raises(StructuralError, match="at least one sample of z"):
            lax_residuals(sys, stack([x, x]), [])


def test_quasi_lax_off_sigma_rational():
    # off Sigma the plain Lax equation fails but the momentum anomaly
    # restores it exactly
    sys = make_system("rational", 2)
    rng = np.random.default_rng(19)
    x = generic_point(sys, rng)
    assert sigma_residual(sys, x) > 0.1
    assert lax_residuals(sys, x) < 1e-10
    zs = default_z_samples(sys)
    b = _lax_pair(sys, x[None], zs)[1][0]
    plain = 0.0
    from spincm.rootsys import bracket
    for k, z in enumerate(zs):
        res = lax_time_derivative(sys, x, z) - bracket(
            sys.rs, b[k], lax_L(sys, x, z))
        plain = max(plain, np.abs(res).max())
    assert plain > 1e-3


def test_quasi_lax_reduces_to_lax_on_sigma():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(23)
    x = sigma_point(sys, rng)
    assert lax_residuals(sys, x) < 1e-10


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_quasi_lax_holds_off_sigma_in_every_family(family, rank):
    # one Lax identity on the whole phase space: off Sigma the momentum
    # anomaly (X_J R)(L/z) restores dL/dt = [B, L] in every family, where
    # the plain residual fails
    sys = make_system(family, rank, lattice=WIDE if family == "elliptic"
                      else None)
    rng = np.random.default_rng(100 + rank)
    points = [generic_point(sys, rng) for _ in range(3)]
    assert np.max(lax_residuals(sys, stack(points))) < 1e-8
    zs = default_z_samples(sys)
    for x, b in zip(points, _lax_pair(sys, stack(points), zs)[1]):
        plain = lax_time_derivative(sys, x, zs) - bracket(
            sys.rs, b, lax_L(sys, x, zs))
        assert sigma_residual(sys, x) > 0.1 and np.abs(plain).max() > 1e-3


def test_spectrum_constant_along_unreduced_flow():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(29)
    x0 = sigma_point(sys, rng, scale=0.4)
    traj = integrate(sys, x0, 2.0, tol=1e-11, n_points=21)
    assert traj.completed
    report = spectral_drifts(sys, traj)
    assert report["spectrum_drift"] < 1e-7
    assert report["isospectral_drift"] < 1e-7


def test_spectral_drifts_of_an_empty_trajectory_raise():
    sys = make_system("rational", 2)
    x0 = sigma_point(sys, np.random.default_rng(29), scale=0.4)
    traj = integrate(sys, x0, 0.1, n_points=3)
    with pytest.raises(StructuralError, match="nonempty"):
        spectral_drifts(sys, replace(traj, points=traj.points[:0]))


def test_spectral_drifts_over_no_z_raise():
    sys = make_system("rational", 2)
    x0 = sigma_point(sys, np.random.default_rng(29), scale=0.4)
    traj = integrate(sys, x0, 0.1, n_points=3)
    with pytest.raises(StructuralError, match="at least one sample of z"):
        spectral_drifts(sys, traj, [])


def test_spectral_drifts_over_another_root_system_raise():
    """An A_3 trajectory read with an A_2 system is a typed error naming
    the mismatch, not a matmul shape error."""
    sys3 = make_system("rational", 3)
    x0 = sigma_point(sys3, np.random.default_rng(29), scale=0.4)
    traj = integrate(sys3, x0, 0.1, n_points=3)
    with pytest.raises(StructuralError, match="mismatched root systems"):
        spectral_drifts(make_system("rational", 2), traj)


def test_lax_residuals_over_no_z_raise():
    sys = make_system("rational", 2)
    x = sigma_point(sys, np.random.default_rng(29), scale=0.4)
    with pytest.raises(StructuralError, match="at least one sample of z"):
        lax_residuals(sys, x, [])


@pytest.mark.parametrize("case", ["axioms-no-z", "axioms-no-q",
                                  "mdybe-no-z", "mdybe-no-q", "cdybe-no-q",
                                  "spectrum-no-z"])
def test_empty_sample_sets_raise(case):
    """Each check over no samples is a typed error, not a reshape or
    reduction ValueError or an empty table."""
    sys = make_system("rational", 2)
    q, no_q = np.array([[0.7, 0.4]]), np.zeros((0, 2))
    xi = np.ones((1, 1, sys.rs.dim))
    call = {
        "axioms-no-z": lambda: rmatrix.verify_axioms(sys, q, []),
        "axioms-no-q": lambda: rmatrix.verify_axioms(sys, no_q, [0.5]),
        "mdybe-no-z": lambda: rmatrix.verify_mdybe(sys, q, xi, xi,
                                                   z_samples=[]),
        "mdybe-no-q": lambda: rmatrix.verify_mdybe(sys, no_q, xi[:0],
                                                   xi[:0]),
        "cdybe-no-q": lambda: rmatrix.verify_cdybe(sys, no_q, [], [], []),
        "spectrum-no-z": lambda: conserved_spectrum(sys, sigma_point(
            sys, np.random.default_rng(29)), []),
    }[case]
    with pytest.raises(StructuralError, match="at least one"):
        call()


def test_fault_knob_does_not_reach_lax_coefficients():
    """The fault knob scales one root pair of the r-matrix and nothing
    else: on every family the Hamiltonian, both flows, L, B, the Lax,
    quasi-Lax and reduced Lax residuals, the involution residuals and the
    spectrum drift of the faulted spec are bitwise the clean spec's, while
    the faulted r-matrix breaks the bracket relation (negative control).
    The gauge residual and the conserved spectrum read no fault either."""
    rng = np.random.default_rng(31)
    zs = default_z_samples(make_system("rational", 2))
    pairs = [((2, 0.41 + 0.22j), (3, -0.33 + 0.47j)),
             ((1, 0.61 + 0.09j), (2, -0.52 - 0.18j))]
    for family in ("rational", "trigonometric", "elliptic"):
        clean = make_system(family, 2, lattice=WIDE)
        faulted = clean.with_fault(4.0)
        rs = clean.rs
        x = sigma_point(clean, rng)
        red = point(rs, x.q, x.p, rng.normal(size=rs.n_roots - rs.rank)
                    + 1j * rng.normal(size=rs.n_roots - rs.rank))
        off = point(rs, x.q, x.p, x.xi + np.r_[
            rng.normal(size=rs.rank), np.zeros(rs.n_roots)])

        def evaluate(sys):
            b = lax_B(sys, x, zs)
            values = [hamiltonian(sys, x), vector_field(sys, x).y,
                      vector_field(sys, red).y,
                      lax_L(sys, x, zs), lax_residuals(sys, x),
                      lax_residuals(sys, red),
                      b,
                      involution_residuals(sys, red, pairs),
                      spectral_drifts(sys, integrate(
                          sys, x, 0.5, n_points=5))["spectrum_drift"],
                      gauge_residual(sys, x[None]),
                      conserved_spectrum(sys, x, zs),
                      conserved_spectrum(sys, red, zs)]
            if family == "rational":
                values.append(lax_residuals(sys, off))
            return [np.asarray(v).tobytes() for v in values]

        assert evaluate(faulted) == evaluate(clean), family
        assert fpbr_residual(faulted, x, 0.31 + 0.12j, -0.22 + 0.4j) > 1e-3


# -- spectral curves ---------------------------------------------------------


def test_spectral_curve_zero_spin():
    sys = make_system("rational", 1)
    x = PhasePoint.make(sys.rs, [0.7], [0.9])
    # L = p h with h = diag(1,-1)/sqrt(2): curve w^2 - p^2/2
    rows = spectral_curve(sys, x, [0.3 + 0.1j])
    expect = np.array([1.0, 0.0, -0.9 ** 2 / 2.0])
    assert np.max(np.abs(rows[0] - expect)) < 1e-13


def test_spectral_curve_spinless_rank_one():
    sys = make_system("rational", 1)
    m = 0.6
    q1, p1 = 0.8, 0.35
    x = spinless_state(sys.rs, [q1], [p1], m)
    u = math.sqrt(2.0) * q1
    z = 0.27 - 0.33j
    rows = spectral_curve(sys, x, [z])
    c0 = -(p1 ** 2 / 2.0 + m ** 2 * (1.0 / z ** 2 - 1.0 / u ** 2))
    assert abs(rows[0][1]) < 1e-13
    assert abs(rows[0][2] - c0) < 1e-13


# -- reduction and the reduced Lax pair --------------------------------------


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_reduced_points_are_evaluated_at_their_slice_lift(family):
    # one entry per quantity: H_0, L_0 and the reduced field are H, L and
    # the field at the slice lift, and B_0 is the B_0 of the Lax pair core
    sys = make_system(family, 3, lattice=WIDE if family == "elliptic"
                      else None)
    rs = sys.rs
    rng = np.random.default_rng(53)
    zs = default_z_samples(sys)
    for _ in range(2):
        red = random_reduced(sys, rng)
        lift = lift_reduced(red)
        assert hamiltonian(sys, red) == hamiltonian(sys, lift)
        assert np.array_equal(lax_L(sys, red, zs), lax_L(sys, lift, zs))
        v, up = vector_field(sys, red), vector_field(sys, lift)
        assert isinstance(v, PhasePoint) and v.reduced
        assert np.array_equal(v.q, up.q) and np.array_equal(v.p, up.p)
        # s_dot is the unreduced spin velocity through d s_gamma
        pushed = dense_chain(rs, red.spin) @ up.xi[rs.dual_index]
        assert np.max(np.abs(v.spin - pushed)) \
            < 1e-13 * max(1.0, np.max(np.abs(pushed)))
        b0 = lax_B(sys, red, zs)
        assert np.array_equal(b0, _lax_pair(sys, red[None], zs)[1][0])
        # B_0 is B at the lift less the Cartan compensator: the roots agree
        b_lift = lax_B(sys, lift, zs)
        assert np.array_equal(b0[:, rs.rank:], b_lift[:, rs.rank:])
        assert np.max(np.abs(b0 - b_lift)) > 1e-6


def test_gauge_consistency_of_reduced_lax():
    # L_0(pi(x)) = Ad_{g(xi)^{-1}} L(x) for J = 0 points of U
    rng = np.random.default_rng(37)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2)):
        x = sigma_point(sys, rng)
        x_red = project_pi(x)
        c = gauge_g(x)
        worst = 0.0
        for z in default_z_samples(sys, 4):
            lhs = lax_L(sys, x_red, z)
            rhs = torus_adjoint(sys.rs, -c, lax_L(sys, x, z))
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-10, sys.family


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
@pytest.mark.parametrize("rank", [2, 3])
def test_gauge_residual_of_a_stack_is_its_per_point_values(family, rank):
    # a state's residual does not depend on the stack it sits in
    sys = make_system(family, rank, lattice=WIDE if family == "elliptic"
                      else None)
    rng = np.random.default_rng(53)
    states = stack([sigma_point(sys, rng) for _ in range(25)])
    stacked = gauge_residual(sys, states)
    assert stacked.shape == (25,)
    assert stacked.tobytes() == np.array(
        [gauge_residual(sys, y) for y in states]).tobytes()
    assert np.max(stacked) < 1e-12


@pytest.mark.parametrize("kind", ["sigma", "anomaly", "reduced"])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_lax_residuals_of_a_stack_are_its_per_point_values(family, rank,
                                                           kind):
    # one flow call on the stack gives each point its one-point residual
    sys = make_system(family, rank, lattice=WIDE if family == "elliptic"
                      else None)
    rng = np.random.default_rng(71)
    make = {"sigma": sigma_point, "anomaly": generic_point,
            "reduced": random_reduced}[kind]
    points = [make(sys, rng) for _ in range(5)]
    stacked = lax_residuals(sys, stack(points))
    assert stacked.shape == (5,)
    assert stacked.tobytes() == np.array(
        [lax_residuals(sys, x) for x in points]).tobytes()


def test_reduced_time_derivative_is_directional_derivative():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(41)
    x = random_reduced(sys, rng)
    v = vector_field(sys, x)
    z = 0.38 - 0.21j
    eps = 1e-6

    def shifted(t):
        return point(sys.rs, x.q + t * v.q, x.p + t * v.p,
                     x.spin + t * v.spin)

    fd = (1.0 / (2 * eps)) * (lax_L(sys, shifted(eps), z)
                              - lax_L(sys, shifted(-eps), z))
    assert np.abs(lax_time_derivative(sys, x, z) - fd).max() < 1e-7


def test_reduced_lax_identity_pointwise():
    # dL_0/dt = [B_0, L_0] with B_0 = B - D holds at every reduced point
    rng = np.random.default_rng(43)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE)):
        for trial in range(2):
            x = random_reduced(sys, rng)
            assert lax_residuals(sys, x) < 1e-9, sys.family


def test_reduced_flow_matches_projected_unreduced_flow():
    # integrate upstairs from a Sigma point, project; integrate downstairs
    # from the projection: same reduced trajectory
    sys = make_system("rational", 2)
    rng = np.random.default_rng(47)
    x0 = sigma_point(sys, rng, scale=0.3)
    t_final = 1.2
    up = integrate(sys, x0, t_final, tol=1e-12, n_points=13)
    assert up.completed
    down = integrate(sys, project_pi(x0), t_final, tol=1e-12, n_points=13)
    assert down.completed
    for pt_u, pt_d in zip(up.points, down.points):
        proj = project_pi(pt_u)
        assert np.max(np.abs(proj.q - pt_d.q)) < 1e-8
        assert np.max(np.abs(proj.p - pt_d.p)) < 1e-8
        assert np.max(np.abs(proj.spin - pt_d.spin)) < 1e-7


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_reduced_field_is_pushforward_of_unreduced_field(family):
    # s_dot = d s_gamma (unreduced field at the slice lift), pointwise on
    # A_4 with every root value kept 0.5 clear of the walls
    sys = make_system(family, 4, lattice=WIDE if family == "elliptic"
                      else None)
    rs = sys.rs
    rng = np.random.default_rng(71)
    n_s = rs.n_roots - rs.rank
    for _ in range(3):
        x = point(rs, np.zeros(4, dtype=complex),
                  0.3 * rng.normal(size=4) + 0j,
                  np.exp(2j * np.pi * rng.uniform(size=n_s)))
        while collision_margin(sys, x.q) < 0.5:
            x = point(rs, rng.uniform(-2, 2, size=4) + 0j, x.p, x.spin)
        lift = lift_reduced(x)
        up = vector_field(sys, lift)
        down = vector_field(sys, x)
        pushed = np.array([form(rs, up.xi, spin_invariant_gradient(
            rs, lift.xi, g)) for g in reduced_roots(rs)])
        scale = np.max(np.abs(pushed))
        assert np.max(np.abs(down.spin - pushed)) < 1e-13 * scale
        assert np.max(np.abs(down.q - up.q)) < 1e-14
        assert np.max(np.abs(down.p - up.p)) < 1e-14


def test_lax_pair_reduced_along_trajectory():
    sys = make_system("rational", 2)
    # repulsive products keep the motion clear of the root hyperplanes
    x0 = PhasePoint.make_reduced(sys.rs, [0.9, 0.55], [0.25, -0.3],
                                 {(1, 1): 0.4, (-1, 0): -0.8, (0, -1): -0.7,
                                  (-1, -1): -0.5})
    traj = integrate(sys, x0, 2.0, tol=1e-12, n_points=21)
    assert traj.completed and traj.n_points == 21
    report = spectral_drifts(sys, traj)
    assert report["isospectral_drift"] < 1e-7
    at = np.linspace(0, traj.n_points - 1, 5).astype(int)
    assert np.max(lax_residuals(sys, traj.points[at])) < 1e-9


def test_spinless_reduction_is_single_point():
    # spinless data projects to constant s along the flow; m = i makes the
    # pair products negative, so the interaction is repulsive and the
    # trajectory stays clear of the hyperplanes
    sys = make_system("rational", 2)
    x0 = spinless_state(sys.rs, [1.0, 0.6], [0.5, -0.45], 1j)
    s0 = project_pi(x0).spin
    traj = integrate(sys, project_pi(x0), 1.0, tol=1e-11, n_points=11)
    assert traj.completed
    for pt in traj.points:
        assert np.max(np.abs(pt.spin - s0)) < 1e-9


def test_energy_conserved_reduced_all_families():
    rng = np.random.default_rng(53)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE)):
        x0 = random_reduced(sys, rng)
        traj = integrate(sys, x0, 0.8, tol=1e-10, n_points=9)
        assert traj.completed, sys.family
        drift = np.max(np.abs(traj.energy - traj.energy[0]))
        assert drift < 1e-7, sys.family


# -- involution ---------------------------------------------------------------


def test_spectral_function_gradient():
    # the stacked gradient row of h_3(z) against central differences of the
    # spectral table
    sys = make_system("rational", 2)
    rng = np.random.default_rng(59)
    x = random_reduced(sys, rng)
    z = 0.44 + 0.18j
    g = _spectral_gradients(sys, x[None], [(1, z), (3, z)])[0, 1]
    rs = sys.rs
    n_s = rs.n_roots - rs.rank
    dq = rng.normal(size=rs.rank)
    dp = rng.normal(size=rs.rank)
    ds = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    eps = 1e-6

    def h3(t):
        shifted = point(rs, x.q + t * dq, x.p + t * dp, x.spin + t * ds)
        return conserved_spectrum(sys, shifted, [z])[0, 2]

    fd = (h3(eps) - h3(-eps)) / (2 * eps)
    analytic = g @ np.concatenate([dq, dp, ds])
    assert abs(fd - analytic) < 1e-7 * max(1.0, abs(analytic))
    with pytest.raises(StructuralError, match="trace power"):
        _spectral_gradients(sys, x[None], [(0, z)])


INVOLUTION_PAIRS = [
    ((2, 0.41 + 0.22j), (3, -0.33 + 0.47j)),
    ((2, 0.41 + 0.22j), (2, -0.52 - 0.18j)),
    ((3, 0.29 - 0.44j), (3, -0.33 + 0.47j)),
    ((1, 0.61 + 0.09j), (3, 0.29 - 0.44j)),
    ((2, -0.52 - 0.18j), (3, 0.29 - 0.44j)),
    ((1, 0.61 + 0.09j), (2, 0.41 + 0.22j)),
]


def test_involution_of_spectral_invariants():
    rng = np.random.default_rng(61)
    for sys, tol in ((make_system("rational", 2), 1e-10),
                     (make_system("trigonometric", 2), 1e-10),
                     (make_system("elliptic", 2, lattice=WIDE), 1e-8)):
        x = random_reduced(sys, rng)
        assert np.max(involution_residuals(sys, x, INVOLUTION_PAIRS)) < tol, \
            sys.family
        # no pairs: an empty table per point
        assert involution_residuals(sys, stack([x, x]), []).shape == (2, 0)


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_involution_past_the_float_range_raises(family):
    """Spins of 1e155 put L^2 past the float range: the one fault guard of
    involution_residuals raises FloatingPointError where the table held
    nan (a RuntimeWarning fails the suite)."""
    sys = make_system(family, 2, lattice=WIDE)
    rs = sys.rs
    x = point(rs, np.array([0.7, 1.3], dtype=complex),
              np.array([0.1, -0.2], dtype=complex),
              np.full(rs.n_roots - rs.rank, 1e155, dtype=complex))
    with pytest.raises(FloatingPointError, match="overflow"):
        involution_residuals(sys, x, INVOLUTION_PAIRS[:1])


# -- bracket relation of Lax components ---------------------------------------


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_lax_entries_make_one_kernel_pass_per_table(family, monkeypatch):
    """The Lax side reads the kernel through one r table per call: one
    pass for lax_L, conserved_spectrum and gauge_residual on a stack (L at
    the states and at their lifts), two for fpbr_residual (L(z) and L(w),
    then the r-matrix at z - w)."""
    assert not hasattr(dynamics, "_ladder")
    calls, ladder = [], rmatrix._ladder

    def counted(*args, **kwargs):
        calls.append(1)
        return ladder(*args, **kwargs)

    monkeypatch.setattr(rmatrix, "_ladder", counted)
    sys = make_system(family, 3, lattice=WIDE)
    rng = np.random.default_rng(83)
    x, zs = sigma_point(sys, rng), default_z_samples(sys)
    states = stack([sigma_point(sys, rng) for _ in range(4)])
    for call, passes in ((lambda: lax_L(sys, x, zs), 1),
                         (lambda: conserved_spectrum(sys, x, zs), 1),
                         (lambda: gauge_residual(sys, states), 1),
                         (lambda: fpbr_residual(sys, x, 0.31 + 0.12j,
                                                -0.22 + 0.4j), 2)):
        calls.clear()
        call()
        assert len(calls) == passes


def test_fpbr_rational():
    rng = np.random.default_rng(67)
    for rank in (1, 2, 3):
        sys = make_system("rational", rank)
        x = generic_point(sys, rng)
        for z, w in ((0.31 + 0.12j, -0.22 + 0.4j), (0.5 - 0.27j, 0.18 + 0.3j)):
            assert fpbr_residual(sys, x, z, w) < 1e-11, rank


# -- typed errors at the point boundary -----------------------------------------


def _mismatch_cases():
    """(call, message) pairs that hand an entry point objects built over
    another root system, the other kind of point, or an empty stack."""
    sys3, sys2 = make_system("rational", 3), make_system("rational", 2)
    rng = np.random.default_rng(73)
    x2, red2 = sigma_point(sys2, rng), random_reduced(sys2, rng)
    x3, red3 = sigma_point(sys3, rng), random_reduced(sys3, rng)
    zs, pairs = default_z_samples(sys3), INVOLUTION_PAIRS[:1]
    a2 = r"a PhasePoint over RootSystem\(A_2.* where a .*over RootSystem\(A_3"
    return {
        "hamiltonian": (lambda: hamiltonian(sys3, x2), a2),
        "vector_field": (lambda: vector_field(sys3, x2), a2),
        "lax_L": (lambda: lax_L(sys3, x2, zs), a2),
        "lax_B": (lambda: lax_B(sys3, x2, zs), a2),
        "lax_residuals": (lambda: lax_residuals(sys3, x2), a2),
        "conserved_spectrum": (lambda: conserved_spectrum(sys3, x2, zs), a2),
        "sigma_residual": (lambda: sigma_residual(sys3, x2), a2),
        "fpbr_residual": (lambda: fpbr_residual(sys3, x2, 0.3, -0.2j), a2),
        "integrate": (lambda: integrate(sys3, x2, 0.1), a2),
        "lax_residuals_empty": (lambda: lax_residuals(sys3, stack([x3])[:0]),
                                "at least one point"),
        "involution_phase_point": (
            lambda: involution_residuals(sys3, x3, pairs),
            r"an unreduced PhasePoint where a reduced one"),
        "involution_empty": (
            lambda: involution_residuals(sys3, stack([red3])[:0], pairs),
            "at least one point"),
        "involution_other_rank": (
            lambda: involution_residuals(sys3, red2, pairs),
            r"a PhasePoint over RootSystem\(A_2.* where a PhasePoint over "
            r"RootSystem\(A_3"),
        "sigma_residual_reduced": (
            lambda: sigma_residual(sys3, red3),
            r"a reduced PhasePoint where an unreduced one"),
        "fpbr_residual_reduced": (
            lambda: fpbr_residual(sys3, red3, 0.3, -0.2j),
            r"a reduced PhasePoint where an unreduced one"),
    }


@pytest.mark.parametrize("case", sorted(_mismatch_cases()))
def test_mismatched_points_raise_a_structural_error(case):
    call, message = _mismatch_cases()[case]
    with pytest.raises(StructuralError, match=message):
        call()


def _non_finite_cases():
    """(entry, slot) -> call(sys, point): every entry point that takes a
    point, with each slot its kind of point has, q, p, the Cartan block
    or a root of an unreduced point's spin, or s of a reduced one."""
    zs = default_z_samples(make_system("rational", 2))
    pairs = INVOLUTION_PAIRS[:1]
    phase = ("q", "p", "cartan", "root")
    both = phase + ("s",)
    entries = {
        "hamiltonian": (lambda sys, x: hamiltonian(sys, x), both),
        "vector_field": (lambda sys, x: vector_field(sys, x), both),
        "lax_L": (lambda sys, x: lax_L(sys, x, zs), both),
        "lax_B": (lambda sys, x: lax_B(sys, x, zs), both),
        "lax_residuals": (lambda sys, x: lax_residuals(sys, x), both),
        "conserved_spectrum": (
            lambda sys, x: conserved_spectrum(sys, x, zs), both),
        "sigma_residual": (lambda sys, x: sigma_residual(sys, x), phase),
        "fpbr_residual": (
            lambda sys, x: fpbr_residual(sys, x, 0.3, -0.2j), phase),
        "involution_residuals": (
            lambda sys, x: involution_residuals(sys, x, pairs), ("s",)),
    }
    return {(name, slot): call for name, (call, slots) in entries.items()
            for slot in slots}


def _point_with(rs, slot, bad):
    """A point over A_2 whose coordinate ``slot`` holds the value bad."""
    q, p = np.array([0.7, 0.2 + 1.3j]), np.array([0.1, -0.2j])
    if slot == "s":
        s = np.full(rs.n_roots - rs.rank, 0.5 + 0.2j)
        s[-1] = bad
        return point(rs, q, p, s)
    xi = np.full(rs.dim, 0.5 + 0.0j)
    xi[:rs.rank] = 0.0
    {"q": q, "p": p, "cartan": xi, "root": xi[rs.rank:]}[slot][-1] = bad
    return point(rs, q, p, xi)


@pytest.mark.parametrize("case", sorted(_non_finite_cases()), ids="-".join)
def test_non_finite_points_raise_a_structural_error(case):
    """A NaN or inf coordinate raises at the one entry check of the point
    (spincm.phase._checked), on rational and trigonometric A_2, where these entries
    returned NaN."""
    call = _non_finite_cases()[case]
    for family in ("rational", "trigonometric"):
        sys = make_system(family, 2)
        for bad in (math.nan, complex(0.0, math.inf)):
            with pytest.raises(StructuralError, match="must be finite"):
                call(sys, _point_with(sys.rs, case[1], bad))


@pytest.mark.parametrize("entry", ["lax_B", "lax_residuals",
                                   "conserved_spectrum", "spectral_drifts"])
@pytest.mark.parametrize("z,shape", [(0.5 + 0.1j, r"\(\)"),
                                     ([[0.5, 0.3j]], r"\(1, 2\)")],
                         ids=["scalar", "2d"])
def test_z_of_the_wrong_rank_is_a_structural_error(entry, z, shape):
    """A scalar z or a 2-D array of z is a StructuralError naming the shape
    (it raised TypeError, or numpy's ValueError in lax_B and lax_residuals);
    lax_L keeps taking any z shape, and lax_B no nodes."""
    sys = make_system("rational", 2)
    x = sigma_point(sys, np.random.default_rng(29), scale=0.4)
    call = {"lax_B": lambda: lax_B(sys, x, z),
            "lax_residuals": lambda: lax_residuals(sys, x, z),
            "conserved_spectrum": lambda: conserved_spectrum(sys, x, z),
            "spectral_drifts": lambda: spectral_drifts(
                sys, integrate(sys, x, 0.1, n_points=3), z)}[entry]
    with pytest.raises(StructuralError,
                       match=rf"expected z of shape \(m,\), got {shape}"):
        call()
    assert lax_L(sys, x, np.full((2, 3), 0.5)).shape == (2, 3, sys.rs.dim)
    assert lax_B(sys, x, []).shape == (0, sys.rs.dim)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_stacked_calls_are_their_per_point_calls_bit_for_bit(family, rank):
    """Every entry that takes a point gives a stack of points, here on two
    leading axes, one value per point: the value of the call at that point
    alone, bit for bit, reduced or not."""
    sys = make_system(family, rank, lattice=WIDE)
    rs, rng = sys.rs, np.random.default_rng(90 + rank)
    zs = default_z_samples(sys)
    x = PhasePoint(rs, np.reshape([sigma_point(sys, rng).y
                                   for _ in range(6)], (2, 3, -1)))
    red = PhasePoint(rs, np.reshape([random_reduced(sys, rng).y
                                     for _ in range(6)], (2, 3, -1)))
    off = PhasePoint(rs, np.reshape([generic_point(sys, rng).y
                                     for _ in range(6)], (2, 3, -1)))
    c = rng.normal(size=rank)
    rows = [rng.normal(size=(2, p.y.shape[-1])) + 0j for p in (x, red)]
    pairs = INVOLUTION_PAIRS[:3]
    calls = {
        "hamiltonian": lambda p: hamiltonian(sys, p),
        "vector_field": lambda p: vector_field(sys, p).y,
        "lax_L": lambda p: lax_L(sys, p, zs),
        "lax_B": lambda p: lax_B(sys, p, zs),
        "lax_residuals": lambda p: lax_residuals(sys, p, zs),
        "conserved_spectrum": lambda p: conserved_spectrum(sys, p, zs),
        "bracket_full": lambda p: bracket_full(
            p, *rows[p.reduced]),
    }
    unreduced = {
        "sigma_residual": lambda p: sigma_residual(sys, p),
        "gauge_residual": lambda p: gauge_residual(sys, p),
        "fpbr_residual": lambda p: fpbr_residual(
            sys, p, 0.41 + 0.22j, -0.33 + 0.47j),
        "momentum_J": momentum_J,
        "torus_action": lambda p: torus_action(c, p).y,
        "project_pi": lambda p: project_pi(p).y,
        "gauge_g": gauge_g,
    }
    reduced = {
        "involution_residuals": lambda p: involution_residuals(sys, p, pairs),
        "lift_reduced": lambda p: lift_reduced(p).y,
    }
    cases = [(name, call, p) for name, call in calls.items()
             for p in (x, red)] + [(name, call, x) for name, call in
                                   unreduced.items()] + [
        (name, call, red) for name, call in reduced.items()] + [
        ("lax_residuals", calls["lax_residuals"], off)]
    for name, call, p in cases:
        stacked = np.asarray(call(p))
        assert stacked.shape[:2] == (2, 3), name
        for i, j in np.ndindex(2, 3):
            assert np.asarray(call(p[i][j])).tobytes() \
                == stacked[i, j].tobytes(), (name, p.reduced, i, j)


# -- export -------------------------------------------------------------------


def test_format_complex_frozen():
    assert format_complex(1.5 - 2.0j) == "1.5-2j"
    assert format_complex(0.0) == "0+0j"
    # the CSV writer renders its fields the same way
    sys = make_system("rational", 1)
    traj = Trajectory(np.zeros(1), PhasePoint(sys.rs, np.array(
        [[1.5 - 2.0j, 0, 0, 0, 0]])), np.zeros(1), np.zeros(1), True)
    assert trajectory_csv(traj).splitlines()[1] == \
        "0,1.5-2j,0+0j,0+0j,0+0j,0+0j,0+0j,0"


def test_trajectory_csv_layout():
    sys = make_system("rational", 2)
    x0 = spinless_state(sys.rs, [1.0, 0.6], [0.5, -0.45], 1j)
    traj = integrate(sys, x0, 0.5, tol=1e-10, n_points=5)
    assert traj.completed
    header, *rows = csv.reader(io.StringIO(trajectory_csv(traj)))
    assert header[:5] == ["t", "q1", "q2", "p1", "p2"]
    assert header[5:13] == ["xi_h1", "xi_h2", "xi[1,0]", "xi[0,1]",
                            "xi[1,1]", "xi[-1,0]", "xi[0,-1]", "xi[-1,-1]"]
    assert header[13:] == ["energy", "J_residual"]
    assert len(rows) == traj.n_points
    assert all(len(row) == len(header) for row in rows)
    # reduced layout drops the pinned simple components
    red = integrate(sys, project_pi(x0), 0.5, tol=1e-10, n_points=5)
    header_r = next(csv.reader(io.StringIO(trajectory_csv(red))))
    assert header_r[5:9] == ["s[1,1]", "s[-1,0]", "s[0,-1]", "s[-1,-1]"]
