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

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincm.elliptic import Lattice
from spincm.errors import ConstraintError, StructuralError
from spincm.phase import (PhaseFunction, PhaseGradient, PhasePoint,
                          ReducedPoint, gauge_g, lift_reduced,
                          linear_spin_function, momentum_J, project_pi,
                          reduce_gradient, torus_action)
from spincm.phase import bracket_full
from spincm.rootsys import (AlgElement, build_root_system, form, matrix_rep,
                            negate, torus_adjoint)
from spincm.dynamics import (SystemSpec, _b_operator, collision_margin,
                             conserved_spectrum,
                             default_z_samples, format_complex, fpbr_residual,
                             hamiltonian, hamiltonian_function,
                             hamiltonian_gradient,
                             hamiltonian_quadrature, hamiltonian_reduced,
                             integrate, involution_check, lax_B, lax_B0,
                             lax_L, lax_L0, lax_M, lax_pair_reduced,
                             lax_pair_residual, lax_time_derivative,
                             make_system, quasi_lax_residual,
                             reduced_lax_residual, sigma_residual,
                             spectral_curve, spectral_function,
                             spectrum_drift, spinless_state,
                             trajectory_csv_rows, vector_field,
                             vector_field_reduced)

WIDE = Lattice(2.0, 2.2j)


def sigma_point(sys, rng, scale=0.8):
    """Random point on Sigma: J = 0, all root components populated."""
    rs = sys.rs
    vec = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    vec[:rs.rank] = 0.0
    q = rng.uniform(0.6, 1.1, size=rs.rank) * np.sign(rng.normal(size=rs.rank))
    p = scale * rng.normal(size=rs.rank)
    return PhasePoint(q.astype(complex), p.astype(complex),
                      AlgElement(rs, vec))


def generic_point(sys, rng):
    """Random point with a nonzero Cartan spin block (off Sigma)."""
    x = sigma_point(sys, rng)
    vec = x.xi.vec.copy()
    vec[:sys.rs.rank] = rng.normal(size=sys.rs.rank) \
        + 1j * rng.normal(size=sys.rs.rank)
    return PhasePoint(x.q, x.p, AlgElement(sys.rs, vec))


def random_reduced(sys, rng):
    rs = sys.rs
    n_s = rs.n_roots - rs.rank
    s = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    q = rng.uniform(0.6, 1.1, size=rs.rank) * np.sign(rng.normal(size=rs.rank))
    return ReducedPoint(rs, q.astype(complex),
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


def test_hamiltonian_matches_quadrature():
    # H is the quadrature functional of its own Lax operator, for the
    # rational and elliptic families and for trigonometric with Pi' = Pi.
    rng = np.random.default_rng(7)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE)):
        x = generic_point(sys, rng)
        h = hamiltonian(sys, x)
        hq = hamiltonian_quadrature(sys, x, radius=0.4)
        assert abs(h - hq) < 1e-10, sys.family


def test_trig_proper_subset_quadrature_offset():
    # Pinned discrepancy: for a proper Pi' the displayed H and the
    # quadrature functional differ by -sum_{alpha off span} xi_a xi_{-a}.
    sys = make_system("trigonometric", 2, pi_prime=[0])
    rng = np.random.default_rng(11)
    x = generic_point(sys, rng)
    rs = sys.rs
    off = [k for k in range(rs.n_roots) if not sys.rmatrix.span_mask[k]]
    s_off = sum(x.xi.coeff(rs.roots[k]) * x.xi.coeff(negate(rs.roots[k]))
                for k in off)
    h = hamiltonian(sys, x)
    hq = hamiltonian_quadrature(sys, x, radius=0.4)
    assert abs((h - hq) - (-s_off)) < 1e-10


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
    eps = 1e-3 * min(1.0, collision_margin(sys, x))

    def shifted(t):
        return PhasePoint(x.q + t * dq, x.p + t * dp,
                          AlgElement(rs, x.xi.vec + t * dxi))

    fd = central_difference(lambda t: hamiltonian(sys, shifted(t)), eps)
    # dxi pairs with the gradient through the form: <delta xi, dH_xi>
    analytic = g.dq @ dq + g.dp @ dp + form(AlgElement(rs, dxi), g.dxi)
    assert abs(fd - analytic) < 1e-7 * max(1.0, abs(analytic))

    # reduced points over the same (q, p): the gradient at the slice lift,
    # pulled back to (q, p, s), against central differences of H_0
    n_s = rs.n_roots - rs.rank
    s = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    ds = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    for red_sys in (sys, make_system("trigonometric", 2),
                    make_system("elliptic", 2, lattice=WIDE)):
        x_red = ReducedPoint(rs, x.q, x.p, s)
        g_red = reduce_gradient(hamiltonian_gradient(red_sys,
                                                     lift_reduced(x_red)))
        eps = 1e-3 * min(1.0, collision_margin(red_sys, x_red))

        def shifted_red(t):
            return ReducedPoint(rs, x_red.q + t * dq, x_red.p + t * dp,
                                x_red.s + t * ds)

        fd = central_difference(
            lambda t: hamiltonian_reduced(red_sys, shifted_red(t)), eps)
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
    for i in range(rs.rank):
        eq = np.zeros(rs.rank)
        eq[i] = 1.0
        fq = PhaseFunction(lambda y, i=i: y.q[i],
                           lambda y, eq=eq: PhaseGradient(eq, zero,
                                                          AlgElement.zero(rs)))
        fp = PhaseFunction(lambda y, i=i: y.p[i],
                           lambda y, eq=eq: PhaseGradient(zero, eq,
                                                          AlgElement.zero(rs)))
        assert abs(bracket_full(h, fq, x) - v.q[i]) < 1e-12
        assert abs(bracket_full(h, fp, x) - v.p[i]) < 1e-12
    for trial in range(4):
        y = AlgElement(rs, rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim))
        f_spin = linear_spin_function(rs, y)
        assert abs(bracket_full(h, f_spin, x) - form(v.xi, y)) < 1e-11


def test_zero_spin_flow_is_free_motion():
    sys = make_system("rational", 1)
    x0 = PhasePoint.make(sys.rs, [0.9], [0.4])
    traj = integrate(sys, x0, 1.0, tol=1e-12, n_points=11)
    assert traj.completed
    for t, pt in zip(traj.times, traj.points):
        assert abs(pt.q[0] - (0.9 + 0.4 * t)) < 1e-9
        assert abs(pt.p[0] - 0.4) < 1e-10


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
    back = integrate(sys, fwd.final_point(), -1.5, tol=1e-12, n_points=31)
    assert back.completed
    xf = back.final_point()
    err = max(np.max(np.abs(xf.q - x0.q)), np.max(np.abs(xf.p - x0.p)),
              np.max(np.abs(xf.xi.vec - x0.xi.vec)))
    assert err < 1e-7


def test_collision_guard_truncates():
    sys = make_system("rational", 1)
    # real spinless data is attractive (-m^2/u^2) and falls together
    x0 = spinless_state(sys.rs, [0.5 / math.sqrt(2.0)], [0.0], 1.0)
    traj = integrate(sys, x0, 10.0, tol=1e-10)
    assert not traj.completed
    assert "collision guard" in traj.abort_reason
    assert traj.n_points >= 1


def test_integrate_input_validation():
    sys = make_system("rational", 1)
    x0 = spinless_state(sys.rs, [1.0], [0.0], 1.0)
    with pytest.raises(StructuralError):
        integrate(sys, x0, 0.0)
    with pytest.raises(StructuralError):
        integrate(sys, x0, 1.0, tol=-1e-10)


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
            return PhasePoint(x.q + t * v.q, x.p + t * v.p,
                              AlgElement(sys.rs, x.xi.vec + t * v.xi.vec))

        fd = (1.0 / (2 * eps)) * (lax_L(sys, shifted(eps), z)
                                  - lax_L(sys, shifted(-eps), z))
        res = (lax_time_derivative(sys, x, z) - fd).max_abs()
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
            res = lax_pair_residual(sys, x)
            assert res < 1e-9, (sys.family, sys.rs.rank, res)


def test_lax_B_off_sigma_raises():
    sys = make_system("trigonometric", 2)
    rng = np.random.default_rng(17)
    x = generic_point(sys, rng)
    assert sigma_residual(sys, x) > 0.1
    with pytest.raises(ConstraintError) as err:
        lax_B(sys, x)
    assert err.value.residual > 0.1


def test_quasi_lax_off_sigma_rational():
    # off Sigma the plain Lax equation fails but the momentum anomaly
    # restores it exactly
    sys = make_system("rational", 2)
    rng = np.random.default_rng(19)
    x = generic_point(sys, rng)
    assert sigma_residual(sys, x) > 0.1
    assert quasi_lax_residual(sys, x) < 1e-10
    b = _b_operator(sys, x)
    plain = 0.0
    from spincm.rootsys import bracket
    for z in default_z_samples():
        res = lax_time_derivative(sys, x, z) - bracket(b.eval(z),
                                                       lax_L(sys, x, z))
        plain = max(plain, res.max_abs())
    assert plain > 1e-3


def test_quasi_lax_reduces_to_lax_on_sigma():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(23)
    x = sigma_point(sys, rng)
    assert quasi_lax_residual(sys, x) < 1e-10


def test_spectrum_constant_along_unreduced_flow():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(29)
    x0 = sigma_point(sys, rng, scale=0.4)
    traj = integrate(sys, x0, 2.0, tol=1e-11, n_points=21)
    assert traj.completed
    assert spectrum_drift(sys, traj) < 1e-7


def test_fault_knob_does_not_reach_lax_coefficients():
    from spincm.rmatrix import rational_r_matrix
    rs = build_root_system("A", 2)
    sys = SystemSpec(rational_r_matrix(rs).with_fault(3.0))
    assert sys.lax_rmatrix.fault_scale == 1.0
    clean = SystemSpec(rational_r_matrix(rs))
    rng = np.random.default_rng(31)
    x = sigma_point(sys, rng)
    assert abs(hamiltonian(sys, x) - hamiltonian(clean, x)) < 1e-14
    # but the faulted r-matrix breaks the bracket relation (negative control)
    assert fpbr_residual(sys, x, 0.31 + 0.12j, -0.22 + 0.4j) > 1e-3


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


def test_gauge_consistency_of_reduced_lax():
    # L_0(pi(x)) = Ad_{g(xi)^{-1}} L(x) for J = 0 points of U
    rng = np.random.default_rng(37)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2)):
        x = sigma_point(sys, rng)
        x_red = project_pi(x)
        c = gauge_g(x.xi)
        worst = 0.0
        for z in default_z_samples(4):
            lhs = lax_L0(sys, x_red, z)
            rhs = torus_adjoint(-c, lax_L(sys, x, z))
            worst = max(worst, (lhs - rhs).max_abs())
        assert worst < 1e-10, sys.family


def test_reduced_time_derivative_is_directional_derivative():
    sys = make_system("rational", 2)
    rng = np.random.default_rng(41)
    x = random_reduced(sys, rng)
    v = vector_field_reduced(sys, x)
    z = 0.38 - 0.21j
    eps = 1e-6

    def shifted(t):
        return ReducedPoint(sys.rs, x.q + t * v.q, x.p + t * v.p,
                            x.s + t * v.s)

    fd = (1.0 / (2 * eps)) * (lax_L0(sys, shifted(eps), z)
                              - lax_L0(sys, shifted(-eps), z))
    assert (lax_time_derivative(sys, x, z) - fd).max_abs() < 1e-7


def test_reduced_lax_identity_pointwise():
    # dL_0/dt = [B_0, L_0] with B_0 = B - D holds at every reduced point
    rng = np.random.default_rng(43)
    for sys in (make_system("rational", 2),
                make_system("trigonometric", 2),
                make_system("elliptic", 2, lattice=WIDE)):
        for trial in range(2):
            x = random_reduced(sys, rng)
            assert reduced_lax_residual(sys, x) < 1e-9, sys.family


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
        assert np.max(np.abs(proj.s - pt_d.s)) < 1e-7


def test_lax_pair_reduced_along_trajectory():
    sys = make_system("rational", 2)
    # repulsive products keep the motion clear of the root hyperplanes
    x0 = ReducedPoint.make(sys.rs, [0.9, 0.55], [0.25, -0.3],
                           {(1, 1): 0.4, (-1, 0): -0.8, (0, -1): -0.7,
                            (-1, -1): -0.5})
    traj = integrate(sys, x0, 2.0, tol=1e-12, n_points=21)
    assert traj.completed
    report = lax_pair_reduced(sys, traj, n_residual_points=5)
    assert report["isospectral_drift"] < 1e-7
    assert report["lax_residual"] < 1e-9
    assert report["n_points"] == 21


def test_spinless_reduction_is_single_point():
    # spinless data projects to constant s along the flow; m = i makes the
    # pair products negative, so the interaction is repulsive and the
    # trajectory stays clear of the hyperplanes
    sys = make_system("rational", 2)
    x0 = spinless_state(sys.rs, [1.0, 0.6], [0.5, -0.45], 1j)
    s0 = project_pi(x0).s
    traj = integrate(sys, project_pi(x0), 1.0, tol=1e-11, n_points=11)
    assert traj.completed
    for pt in traj.points:
        assert np.max(np.abs(pt.s - s0)) < 1e-9


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
    sys = make_system("rational", 2)
    rng = np.random.default_rng(59)
    x = random_reduced(sys, rng)
    fn = spectral_function(sys, 3, 0.44 + 0.18j)
    g = fn.gradient(x)
    rs = sys.rs
    n_s = rs.n_roots - rs.rank
    dq = rng.normal(size=rs.rank)
    dp = rng.normal(size=rs.rank)
    ds = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    eps = 1e-6

    def shifted(t):
        return ReducedPoint(rs, x.q + t * dq, x.p + t * dp, x.s + t * ds)

    fd = (fn.value(shifted(eps)) - fn.value(shifted(-eps))) / (2 * eps)
    analytic = g.dq @ dq + g.dp @ dp + g.ds @ ds
    assert abs(fd - analytic) < 1e-7 * max(1.0, abs(analytic))


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
        assert involution_check(sys, x, INVOLUTION_PAIRS) < tol, sys.family


# -- bracket relation of Lax components ---------------------------------------


def test_fpbr_rational():
    rng = np.random.default_rng(67)
    for rank in (1, 2, 3):
        sys = make_system("rational", rank)
        x = generic_point(sys, rng)
        for z, w in ((0.31 + 0.12j, -0.22 + 0.4j), (0.5 - 0.27j, 0.18 + 0.3j)):
            assert fpbr_residual(sys, x, z, w) < 1e-11, rank


# -- export -------------------------------------------------------------------


def test_format_complex_frozen():
    assert format_complex(1.5 - 2.0j) == "1.5-2j"
    assert format_complex(0.0) == "0+0j"


def test_trajectory_csv_layout():
    sys = make_system("rational", 2)
    x0 = spinless_state(sys.rs, [1.0, 0.6], [0.5, -0.45], 1j)
    traj = integrate(sys, x0, 0.5, tol=1e-10, n_points=5)
    assert traj.completed
    header, rows = trajectory_csv_rows(sys, traj)
    assert header[:5] == ["t", "q1", "q2", "p1", "p2"]
    assert header[5:11] == ["xi[1,0]", "xi[0,1]", "xi[1,1]",
                            "xi[-1,0]", "xi[0,-1]", "xi[-1,-1]"]
    assert header[11:] == ["energy", "J_residual"]
    assert len(rows) == traj.n_points
    assert all(len(row) == len(header) for row in rows)
    # reduced layout drops the pinned simple components
    red = integrate(sys, project_pi(x0), 0.5, tol=1e-10, n_points=5)
    header_r, _ = trajectory_csv_rows(sys, red)
    assert header_r[5:9] == ["s[1,1]", "s[-1,0]", "s[0,-1]", "s[-1,-1]"]
