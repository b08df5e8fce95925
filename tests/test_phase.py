"""Poisson structure, torus action, gauge map and reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spincm.errors import GaugeDomainError, StructuralError
from spincm.phase import (PhaseFunction, PhaseGradient, PhasePoint,
                          ReducedFunction, ReducedGradient, ReducedPoint,
                          bracket_full, bracket_reduced, gauge_g,
                          lift_reduced, linear_spin_function, momentum_J,
                          normalize_to_slice, project_pi, reduced_roots,
                          spin_coordinate_function, spin_invariant,
                          spin_invariant_gradient, spin_tensor, torus_action)
from spincm.rootsys import AlgElement, build_root_system, bracket, form

RS2 = build_root_system("A", 2)
RS1 = build_root_system("A", 1)


def random_point(rs, rng, cartan_free=False):
    xi_vec = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    if cartan_free:
        xi_vec[: rs.rank] = 0.0
    return PhasePoint(rng.normal(size=rs.rank) + 0j,
                      rng.normal(size=rs.rank) + 0j,
                      AlgElement(rs, xi_vec))


def coordinate_function(rs, kind, index):
    """q_i, p_i as PhaseFunctions."""
    zero = np.zeros(rs.rank)

    def val(x):
        return (x.q if kind == "q" else x.p)[index]

    def grad(x):
        e = np.zeros(rs.rank)
        e[index] = 1.0
        return PhaseGradient(e if kind == "q" else zero,
                             e if kind == "p" else zero,
                             AlgElement.zero(rs))

    return PhaseFunction(val, grad)


def quadratic_function(rs, a, b, x_elem, y_elem):
    """(a.q)(b.p) + <xi, X><xi, Y>, with analytic gradient."""

    def val(pt):
        return complex((a @ pt.q) * (b @ pt.p)
                       + form(pt.xi, x_elem) * form(pt.xi, y_elem))

    def grad(pt):
        dxi = form(pt.xi, y_elem) * x_elem + form(pt.xi, x_elem) * y_elem
        return PhaseGradient(a * (b @ pt.p), b * (a @ pt.q), dxi)

    return PhaseFunction(val, grad)


def fd_gradient(rs, func, pt, h=1e-6):
    """Finite-difference PhaseGradient of a scalar function of a PhasePoint."""
    dq = np.zeros(rs.rank, dtype=complex)
    dp = np.zeros(rs.rank, dtype=complex)
    for i in range(rs.rank):
        eq = np.zeros(rs.rank)
        eq[i] = h
        dq[i] = (func(PhasePoint(pt.q + eq, pt.p, pt.xi))
                 - func(PhasePoint(pt.q - eq, pt.p, pt.xi))) / (2 * h)
        dp[i] = (func(PhasePoint(pt.q, pt.p + eq, pt.xi))
                 - func(PhasePoint(pt.q, pt.p - eq, pt.xi))) / (2 * h)
    dxi_vec = np.zeros(rs.dim, dtype=complex)
    for a in range(rs.dim):
        bump = np.zeros(rs.dim)
        bump[a] = h
        plus = PhasePoint(pt.q, pt.p, AlgElement(rs, pt.xi.vec + bump))
        minus = PhasePoint(pt.q, pt.p, AlgElement(rs, pt.xi.vec - bump))
        dxi_vec[rs.dual_index[a]] = (func(plus) - func(minus)) / (2 * h)
    return PhaseGradient(dq, dp, AlgElement(rs, dxi_vec))


# -- unreduced bracket -------------------------------------------------------


def test_canonical_pairs():
    # dual-bundle orientation: {p_i, q_j} = +delta_ij
    rng = np.random.default_rng(0)
    pt = random_point(RS2, rng)
    for i in range(2):
        for j in range(2):
            qi = coordinate_function(RS2, "q", i)
            pj = coordinate_function(RS2, "p", j)
            assert abs(bracket_full(pj, qi, pt) - (i == j)) < 1e-14
            assert abs(bracket_full(qi, pj, pt) + (i == j)) < 1e-14
            assert abs(bracket_full(qi, coordinate_function(RS2, "q", j), pt)) < 1e-14


def test_lie_poisson_on_linear_functions():
    rng = np.random.default_rng(1)
    pt = random_point(RS2, rng)
    for _ in range(10):
        x = AlgElement(RS2, rng.normal(size=RS2.dim) + 0j)
        y = AlgElement(RS2, rng.normal(size=RS2.dim) + 0j)
        lhs = bracket_full(linear_spin_function(RS2, x),
                           linear_spin_function(RS2, y), pt)
        rhs = form(pt.xi, bracket(x, y))
        assert abs(lhs - rhs) < 1e-12


def test_bracket_antisymmetry_and_leibniz():
    rng = np.random.default_rng(2)
    pt = random_point(RS2, rng)
    x1, y1, x2, y2 = (AlgElement(RS2, 0.5 * rng.normal(size=RS2.dim) + 0j)
                      for _ in range(4))
    a1, b1, a2, b2 = (rng.normal(size=2) for _ in range(4))
    f = quadratic_function(RS2, a1, b1, x1, y1)
    g = quadratic_function(RS2, a2, b2, x2, y2)
    assert abs(bracket_full(f, g, pt) + bracket_full(g, f, pt)) < 1e-12
    # Leibniz: {fg, h} = f{g, h} + g{f, h}
    h = quadratic_function(RS2, b2, a1, y2, x1)

    def prod_val(p):
        return f.value(p) * g.value(p)

    def prod_grad(p):
        gf, gg = f.gradient(p), g.gradient(p)
        fv, gv = f.value(p), g.value(p)
        return PhaseGradient(fv * gg.dq + gv * gf.dq,
                             fv * gg.dp + gv * gf.dp,
                             fv * gg.dxi + gv * gf.dxi)

    fg = PhaseFunction(prod_val, prod_grad)
    lhs = bracket_full(fg, h, pt)
    rhs = f.value(pt) * bracket_full(g, h, pt) + g.value(pt) * bracket_full(f, h, pt)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_jacobi_identity_via_finite_differences():
    rng = np.random.default_rng(3)
    pt = random_point(RS2, rng)
    funcs = []
    for _ in range(3):
        x = AlgElement(RS2, 0.4 * rng.normal(size=RS2.dim) + 0j)
        y = AlgElement(RS2, 0.4 * rng.normal(size=RS2.dim) + 0j)
        funcs.append(quadratic_function(RS2, rng.normal(size=2),
                                        rng.normal(size=2), x, y))
    f, g, h = funcs

    def nested(a, b, c):
        w_val = lambda p: bracket_full(b, c, p)
        w = PhaseFunction(w_val, lambda p: fd_gradient(RS2, w_val, p))
        return bracket_full(a, w, pt)

    total = nested(f, g, h) + nested(g, h, f) + nested(h, f, g)
    assert abs(total) < 1e-6


# -- momentum and torus action -----------------------------------------------


def test_momentum_values():
    rs = RS2
    pure_root = PhasePoint.make(rs, [0, 0], [0, 0],
                                xi_components={rs.roots[0]: 2.5})
    assert np.max(np.abs(momentum_J(pure_root))) == 0.0
    with_cartan = PhasePoint.make(rs, [0, 0], [0, 0], xi_cartan=[0.3, -1.2])
    assert np.allclose(momentum_J(with_cartan), [0.3, -1.2])


def test_momentum_invariant_along_orbit():
    rng = np.random.default_rng(4)
    pt = random_point(RS2, rng)
    for _ in range(5):
        c = rng.normal(size=2) * 0.7
        assert np.max(np.abs(momentum_J(torus_action(c, pt))
                             - momentum_J(pt))) < 1e-14


def test_torus_action_identity_and_weights():
    rng = np.random.default_rng(5)
    pt = random_point(RS1, rng)
    same = torus_action([0.0], pt)
    assert (same.xi - pt.xi).max_abs() < 1e-15
    t = 0.37
    moved = torus_action([t], pt)
    alpha = RS1.roots[0]
    assert abs(moved.xi.coeff(alpha)
               - math.exp(2 * t) * pt.xi.coeff(alpha)) < 1e-12
    neg = tuple(-c for c in alpha)
    assert abs(moved.xi.coeff(neg)
               - math.exp(-2 * t) * pt.xi.coeff(neg)) < 1e-12


def test_momentum_generates_the_action():
    rng = np.random.default_rng(6)
    rs = RS2
    pt = random_point(rs, rng)
    c = rng.normal(size=2)
    h_elem = AlgElement.cartan(
        rs, sum(c[j] * rs.coroot_coordinates(rs.simple_roots[j])
                for j in range(rs.rank)))
    j_func = PhaseFunction(
        lambda x: form(x.xi, h_elem),
        lambda x: PhaseGradient(np.zeros(2), np.zeros(2), h_elem))
    h = 1e-6
    for _ in range(5):
        y = AlgElement(rs, rng.normal(size=rs.dim) + 0j)
        ell = linear_spin_function(rs, y)
        flow = bracket_full(ell, j_func, pt)
        fd = (ell.value(torus_action(h * c, pt))
              - ell.value(torus_action(-h * c, pt))) / (2 * h)
        assert abs(flow - fd) < 1e-8


# -- gauge map ----------------------------------------------------------------


def test_gauge_identity_and_frozen_value():
    rs = RS1
    xi_unit = AlgElement.from_root_dict(rs, {rs.roots[0]: 1.0, rs.roots[1]: 0.7})
    assert np.max(np.abs(gauge_g(xi_unit))) < 1e-14
    xi4 = AlgElement.from_root_dict(rs, {rs.roots[0]: 4.0, rs.roots[1]: 1.0})
    c = gauge_g(xi4)
    # log g = (1/2) log 4 h_alpha, whose matrix representation is diag(2, 1/2)
    assert abs(np.exp(c[0]) - 2.0) < 1e-13


def test_gauge_outside_domain():
    rs = RS2
    xi = AlgElement.from_root_dict(rs, {rs.roots[0]: 1.0})   # alpha_2 component 0
    with pytest.raises(GaugeDomainError, match=r"\[0,1\]"):
        gauge_g(xi)


def test_gauge_equivariance():
    rng = np.random.default_rng(7)
    rs = RS2
    for _ in range(10):
        xi = AlgElement(rs, rng.uniform(0.5, 2.0, size=rs.dim)
                        + 1j * rng.uniform(-0.3, 0.3, size=rs.dim))
        c0 = 0.2 * rng.normal(size=2)
        moved = gauge_g(torus_adjoint_cov(c0, xi))
        assert np.max(np.abs(moved - c0 - gauge_g(xi))) < 1e-10


def torus_adjoint_cov(c, xi):
    from spincm.rootsys import torus_adjoint
    return torus_adjoint(c, xi)


def test_normalize_lands_on_slice():
    rng = np.random.default_rng(8)
    rs = RS2
    pt = PhasePoint(rng.normal(size=2) + 0j, rng.normal(size=2) + 0j,
                    AlgElement(rs, rng.uniform(0.5, 1.5, size=rs.dim)
                               + 1j * rng.uniform(-0.4, 0.4, size=rs.dim)))
    on_slice = normalize_to_slice(pt)
    for simple in rs.simple_roots:
        assert abs(on_slice.xi.coeff(simple) - 1.0) < 1e-12


# -- reduction ----------------------------------------------------------------


def test_project_with_unit_denominators():
    rs = RS2
    comps = {r: 1.0 for r in rs.simple_roots}
    others = {r: 0.3 * (k + 1) for k, r in enumerate(reduced_roots(rs))}
    comps.update(others)
    pt = PhasePoint.make(rs, [0.1, 0.2], [0, 0], xi_components=comps)
    red = project_pi(pt)
    for k, r in enumerate(reduced_roots(rs)):
        assert abs(red.s[k] - others[r]) < 1e-14


def test_project_is_torus_invariant():
    rng = np.random.default_rng(9)
    rs = RS2
    for _ in range(10):
        pt = PhasePoint(rng.normal(size=2) + 0j, rng.normal(size=2) + 0j,
                        AlgElement(rs, rng.uniform(0.4, 1.6, size=rs.dim)
                                   + 1j * rng.normal(size=rs.dim) * 0.3))
        red = project_pi(pt)
        c = 0.5 * rng.normal(size=2)
        red2 = project_pi(torus_action(c, pt))
        assert np.max(np.abs(red.s - red2.s)) < 1e-10


def test_project_rank_one_spinless():
    rs = RS1
    m = 1.7
    alpha = rs.roots[0]
    pt = PhasePoint.make(rs, [0.4], [0.0],
                         xi_components={alpha: m, tuple([-1]): m})
    red = project_pi(pt)
    assert abs(red.s_coeff((-1,)) - m * m) < 1e-14


def test_project_equals_slice_normalization():
    # the invariant monomials agree with reading coefficients after moving
    # onto the slice (on-branch points)
    rng = np.random.default_rng(10)
    rs = RS2
    pt = PhasePoint(np.zeros(2), np.zeros(2),
                    AlgElement(rs, rng.uniform(0.5, 1.5, size=rs.dim)
                               + 1j * rng.uniform(-0.2, 0.2, size=rs.dim)))
    red = project_pi(pt)
    on_slice = normalize_to_slice(pt)
    for k, r in enumerate(reduced_roots(rs)):
        assert abs(red.s[k] - on_slice.xi.coeff(r)) < 1e-12


def test_lift_is_a_section():
    rng = np.random.default_rng(11)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 1j * rng.normal(size=rs.n_roots - 2)
    red = ReducedPoint(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j, s)
    back = project_pi(lift_reduced(red))
    assert np.max(np.abs(back.s - red.s)) < 1e-14
    assert np.max(np.abs(momentum_J(lift_reduced(red)))) == 0.0


def test_spin_invariant_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    rs = RS2
    xi = AlgElement(rs, rng.uniform(0.5, 1.5, size=rs.dim)
                    + 1j * rng.uniform(-0.3, 0.3, size=rs.dim))
    h = 1e-6
    for root in reduced_roots(rs):
        grad = spin_invariant_gradient(xi, root)
        for a in range(rs.dim):
            bump = np.zeros(rs.dim)
            bump[a] = h
            fd = (spin_invariant(AlgElement(rs, xi.vec + bump), root)
                  - spin_invariant(AlgElement(rs, xi.vec - bump), root)) / (2 * h)
            # <d xi_a, grad> with d xi_a the dual basis covector direction
            analytic = grad.vec[rs.dual_index[a]]
            assert abs(fd - analytic) < 1e-7


# -- reduced bracket -----------------------------------------------------------


SL3_TABLE = {
    # six golden brackets for sl(3) in matrix-entry labels; s12 = s23 = 1
    ("s13", "s21"): lambda v: 1 - v["s13"] ** 2 * v["s21"],
    ("s13", "s31"): lambda v: v["s13"] * (v["s21"] - v["s32"]),
    ("s13", "s32"): lambda v: -1 + v["s13"] ** 2 * v["s32"],
    ("s21", "s31"): lambda v: v["s21"] * (v["s32"] - v["s13"] * v["s31"]),
    ("s21", "s32"): lambda v: v["s31"] - v["s13"] * v["s21"] * v["s32"],
    ("s31", "s32"): lambda v: v["s32"] * (v["s21"] - v["s13"] * v["s31"]),
}

# matrix-entry label -> root of A_2 (alpha_1 = eps1-eps2, alpha_2 = eps2-eps3)
SL3_ROOTS = {
    "s13": (1, 1),
    "s21": (-1, 0),
    "s31": (-1, -1),
    "s32": (0, -1),
}


def test_reduced_brackets_match_the_rank_two_table():
    rng = np.random.default_rng(13)
    rs = RS2
    for _ in range(100):
        vals = {name: complex(rng.normal(), rng.normal() * 0.5)
                for name in SL3_ROOTS}
        red = ReducedPoint.make(rs, rng.normal(size=2), rng.normal(size=2),
                                {SL3_ROOTS[n]: v for n, v in vals.items()})
        for (na, nb), formula in SL3_TABLE.items():
            fa = spin_coordinate_function(rs, SL3_ROOTS[na])
            fb = spin_coordinate_function(rs, SL3_ROOTS[nb])
            got = bracket_reduced(fa, fb, red)
            assert abs(got - formula(vals)) < 1e-12


def test_reduced_bracket_antisymmetry_and_q_s_commute():
    rng = np.random.default_rng(14)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 0j
    red = ReducedPoint(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j, s)
    roots = reduced_roots(rs)
    fa = spin_coordinate_function(rs, roots[0])
    fb = spin_coordinate_function(rs, roots[2])
    assert abs(bracket_reduced(fa, fb, red) + bracket_reduced(fb, fa, red)) < 1e-14

    def qfun(i):
        def grad(x):
            e = np.zeros(rs.rank)
            e[i] = 1.0
            return ReducedGradient(e, np.zeros(rs.rank),
                                   np.zeros(rs.n_roots - rs.rank, dtype=complex))
        return ReducedFunction(lambda x: x.q[i], grad)

    assert abs(bracket_reduced(qfun(0), fa, red)) == 0.0


def test_spin_tensor_matches_pairwise_brackets():
    rng = np.random.default_rng(15)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 1j * rng.normal(size=rs.n_roots - 2)
    red = ReducedPoint(rs, np.zeros(2), np.zeros(2), s)
    p = spin_tensor(red)
    roots = reduced_roots(rs)
    for a in range(len(roots)):
        for b in range(len(roots)):
            fa = spin_coordinate_function(rs, roots[a])
            fb = spin_coordinate_function(rs, roots[b])
            assert abs(p[a, b] - bracket_reduced(fa, fb, red)) < 1e-13


def test_reduced_jacobi_identity_via_finite_differences():
    rng = np.random.default_rng(16)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 0j
    red = ReducedPoint(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j, s)
    roots = reduced_roots(rs)
    f, g, h = (spin_coordinate_function(rs, roots[k]) for k in (0, 1, 3))

    def fd_reduced_gradient(func, x, step=1e-6):
        n_s = rs.n_roots - rs.rank
        ds = np.zeros(n_s, dtype=complex)
        for k in range(n_s):
            bump = np.zeros(n_s)
            bump[k] = step
            ds[k] = (func(ReducedPoint(rs, x.q, x.p, x.s + bump))
                     - func(ReducedPoint(rs, x.q, x.p, x.s - bump))) / (2 * step)
        return ReducedGradient(np.zeros(rs.rank), np.zeros(rs.rank), ds)

    def nested(a, b, c):
        w_val = lambda x: bracket_reduced(b, c, x)
        w = ReducedFunction(w_val, lambda x: fd_reduced_gradient(w_val, x))
        return bracket_reduced(a, w, red)

    total = nested(f, g, h) + nested(g, h, f) + nested(h, f, g)
    assert abs(total) < 1e-6


def test_make_rejects_pinned_coordinates():
    rs = RS2
    with pytest.raises(StructuralError):
        ReducedPoint.make(rs, [0, 0], [0, 0], {rs.simple_roots[0]: 2.0})
