"""Poisson structure, torus action, gauge map and reduction."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincm.dynamics import gauge_residual, make_system
from spincm.elliptic import Lattice
from spincm.errors import (GaugeDomainError, SpincmError, StructuralError,
                           raise_on_fp_fault)
from helpers import (PhaseFunction, PhaseGradient, ReducedFunction,
                     ReducedGradient, linear_spin_function,
                     normalize_to_slice, point, poisson_full,
                     poisson_reduced, spin_coordinate_function,
                     spin_invariant_gradient)
from spincm.phase import (PhasePoint, bracket_full, gauge_g, lift_reduced,
                          momentum_J, project_pi, reduced_roots, reduction,
                          torus_action)
from spincm.rootsys import build_root_system, bracket, form, torus_adjoint

RS2 = build_root_system("A", 2)
RS1 = build_root_system("A", 1)


def random_point(rs, rng, cartan_free=False):
    xi_vec = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    if cartan_free:
        xi_vec[: rs.rank] = 0.0
    return point(rs, rng.normal(size=rs.rank) + 0j,
                 rng.normal(size=rs.rank) + 0j, xi_vec)


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
                             np.zeros(rs.dim, dtype=complex))

    return PhaseFunction(val, grad)


def quadratic_function(rs, a, b, x_elem, y_elem):
    """(a.q)(b.p) + <xi, X><xi, Y>, with analytic gradient."""

    def val(pt):
        return complex((a @ pt.q) * (b @ pt.p)
                       + form(rs, pt.xi, x_elem) * form(rs, pt.xi, y_elem))

    def grad(pt):
        dxi = (form(rs, pt.xi, y_elem) * x_elem
               + form(rs, pt.xi, x_elem) * y_elem)
        return PhaseGradient(a * (b @ pt.p), b * (a @ pt.q), dxi)

    return PhaseFunction(val, grad)


def fd_gradient(rs, func, pt, h=1e-6):
    """Finite-difference PhaseGradient of a scalar function of a PhasePoint."""
    dq = np.zeros(rs.rank, dtype=complex)
    dp = np.zeros(rs.rank, dtype=complex)
    for i in range(rs.rank):
        eq = np.zeros(rs.rank)
        eq[i] = h
        dq[i] = (func(point(rs, pt.q + eq, pt.p, pt.xi))
                 - func(point(rs, pt.q - eq, pt.p, pt.xi))) / (2 * h)
        dp[i] = (func(point(rs, pt.q, pt.p + eq, pt.xi))
                 - func(point(rs, pt.q, pt.p - eq, pt.xi))) / (2 * h)
    dxi_vec = np.zeros(rs.dim, dtype=complex)
    for a in range(rs.dim):
        bump = np.zeros(rs.dim)
        bump[a] = h
        plus = point(rs, pt.q, pt.p, pt.xi + bump)
        minus = point(rs, pt.q, pt.p, pt.xi - bump)
        dxi_vec[rs.dual_index[a]] = (func(plus) - func(minus)) / (2 * h)
    return PhaseGradient(dq, dp, dxi_vec)


# -- unreduced bracket -------------------------------------------------------


def test_canonical_pairs():
    # dual-bundle orientation: {p_i, q_j} = +delta_ij
    rng = np.random.default_rng(0)
    pt = random_point(RS2, rng)
    for i in range(2):
        for j in range(2):
            qi = coordinate_function(RS2, "q", i)
            pj = coordinate_function(RS2, "p", j)
            assert abs(poisson_full(pj, qi, pt) - (i == j)) < 1e-14
            assert abs(poisson_full(qi, pj, pt) + (i == j)) < 1e-14
            assert abs(poisson_full(qi, coordinate_function(RS2, "q", j), pt)) < 1e-14


def test_lie_poisson_on_linear_functions():
    rng = np.random.default_rng(1)
    pt = random_point(RS2, rng)
    for _ in range(10):
        x = rng.normal(size=RS2.dim) + 0j
        y = rng.normal(size=RS2.dim) + 0j
        lhs = poisson_full(linear_spin_function(RS2, x),
                           linear_spin_function(RS2, y), pt)
        rhs = form(RS2, pt.xi, bracket(RS2, x, y))
        assert abs(lhs - rhs) < 1e-12


def test_bracket_antisymmetry_and_leibniz():
    rng = np.random.default_rng(2)
    pt = random_point(RS2, rng)
    x1, y1, x2, y2 = (0.5 * rng.normal(size=RS2.dim) + 0j for _ in range(4))
    a1, b1, a2, b2 = (rng.normal(size=2) for _ in range(4))
    f = quadratic_function(RS2, a1, b1, x1, y1)
    g = quadratic_function(RS2, a2, b2, x2, y2)
    assert abs(poisson_full(f, g, pt) + poisson_full(g, f, pt)) < 1e-12
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
    lhs = poisson_full(fg, h, pt)
    rhs = f.value(pt) * poisson_full(g, h, pt) + g.value(pt) * poisson_full(f, h, pt)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_jacobi_identity_via_finite_differences():
    rng = np.random.default_rng(3)
    pt = random_point(RS2, rng)
    funcs = []
    for _ in range(3):
        x = 0.4 * rng.normal(size=RS2.dim) + 0j
        y = 0.4 * rng.normal(size=RS2.dim) + 0j
        funcs.append(quadratic_function(RS2, rng.normal(size=2),
                                        rng.normal(size=2), x, y))
    f, g, h = funcs

    def nested(a, b, c):
        w_val = lambda p: poisson_full(b, c, p)
        w = PhaseFunction(w_val, lambda p: fd_gradient(RS2, w_val, p))
        return poisson_full(a, w, pt)

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
    assert np.max(np.abs(same.xi - pt.xi)) < 1e-15
    t = 0.37
    moved = torus_action([t], pt)
    alpha = RS1.roots[0]
    before, after = pt.xi, moved.xi
    k, neg = RS1.basis_index(alpha), RS1.basis_index(tuple(-c for c in alpha))
    assert abs(after[k] - math.exp(2 * t) * before[k]) < 1e-12
    assert abs(after[neg] - math.exp(-2 * t) * before[neg]) < 1e-12


def test_overflowing_torus_action_raises():
    """exp(2 * 800) overflows: FloatingPointError, not an inf+nanj spin."""
    pt = random_point(RS1, np.random.default_rng(5))
    with pytest.raises(FloatingPointError, match="overflow"):
        torus_action([800.0], pt)


def test_bracket_full_past_the_float_range_raises():
    """Differential rows of 1e200 at unit spins on A_2: the Lie-Poisson
    term overflows, so one row pair and a stack of rows each raise
    FloatingPointError instead of giving a nan bracket."""
    pt = PhasePoint.make(RS2, [0.7, 1.3], [0.1, -0.2],
                         xi_components={r: 1.0 for r in RS2.roots})
    row = np.full(2 * RS2.rank + RS2.dim, 1e200, dtype=complex)
    for rows in (row, np.stack([row, 1e-200 * row])):
        with pytest.raises(FloatingPointError, match="overflow"):
            bracket_full(pt, rows, rows)


def test_momentum_generates_the_action():
    rng = np.random.default_rng(6)
    rs = RS2
    pt = random_point(rs, rng)
    c = rng.normal(size=2)
    h_elem = np.zeros(rs.dim, dtype=complex)
    h_elem[:rs.rank] = sum(c[j] * rs.alpha_h[rs.root_index[rs.simple_roots[j]]]
                           for j in range(rs.rank))
    j_func = PhaseFunction(
        lambda x: form(rs, x.xi, h_elem),
        lambda x: PhaseGradient(np.zeros(2), np.zeros(2), h_elem))
    h = 1e-6
    for _ in range(5):
        y = rng.normal(size=rs.dim) + 0j
        ell = linear_spin_function(rs, y)
        flow = poisson_full(ell, j_func, pt)
        fd = (ell.value(torus_action(h * c, pt))
              - ell.value(torus_action(-h * c, pt))) / (2 * h)
        assert abs(flow - fd) < 1e-8


# -- gauge map ----------------------------------------------------------------


def test_gauge_identity_and_frozen_value():
    rs = RS1
    xi_unit = PhasePoint.make(rs, [0], [0], xi_components={rs.roots[0]: 1.0,
                                                           rs.roots[1]: 0.7})
    assert np.max(np.abs(gauge_g(xi_unit))) < 1e-14
    xi4 = PhasePoint.make(rs, [0], [0], xi_components={rs.roots[0]: 4.0,
                                                       rs.roots[1]: 1.0})
    c = gauge_g(xi4)
    # log g = (1/2) log 4 h_alpha, whose matrix representation is diag(2, 1/2)
    assert abs(np.exp(c[0]) - 2.0) < 1e-13


def test_gauge_outside_domain():
    rs = RS2
    xi = PhasePoint.make(rs, [0, 0], [0, 0], xi_components={
        rs.roots[0]: 1.0})   # alpha_2 component 0
    with pytest.raises(GaugeDomainError, match=r"\[0,1\]"):
        gauge_g(xi)


def test_gauge_equivariance():
    rng = np.random.default_rng(7)
    rs = RS2
    for _ in range(10):
        xi = point(rs, [0, 0], [0, 0], rng.uniform(0.5, 2.0, size=rs.dim)
                   + 1j * rng.uniform(-0.3, 0.3, size=rs.dim))
        c0 = 0.2 * rng.normal(size=2)
        moved = gauge_g(torus_adjoint_cov(c0, xi))
        assert np.max(np.abs(moved - c0 - gauge_g(xi))) < 1e-10


def torus_adjoint_cov(c, x):
    return point(x.rs, x.q, x.p, torus_adjoint(x.rs, c, x.xi))


def test_normalize_lands_on_slice():
    rng = np.random.default_rng(8)
    rs = RS2
    pt = point(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j,
               rng.uniform(0.5, 1.5, size=rs.dim)
               + 1j * rng.uniform(-0.4, 0.4, size=rs.dim))
    on_slice = normalize_to_slice(pt)
    for simple in rs.simple_roots:
        assert abs(on_slice.xi[rs.basis_index(simple)] - 1.0) < 1e-12


# -- reduction ----------------------------------------------------------------


def test_project_with_unit_denominators():
    rs = RS2
    comps = {r: 1.0 for r in rs.simple_roots}
    others = {r: 0.3 * (k + 1) for k, r in enumerate(reduced_roots(rs))}
    comps.update(others)
    pt = PhasePoint.make(rs, [0.1, 0.2], [0, 0], xi_components=comps)
    red = project_pi(pt)
    for k, r in enumerate(reduced_roots(rs)):
        assert abs(red.spin[k] - others[r]) < 1e-14


def test_project_is_torus_invariant():
    rng = np.random.default_rng(9)
    rs = RS2
    for _ in range(10):
        pt = point(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j,
                   rng.uniform(0.4, 1.6, size=rs.dim)
                   + 1j * rng.normal(size=rs.dim) * 0.3)
        red = project_pi(pt)
        c = 0.5 * rng.normal(size=2)
        red2 = project_pi(torus_action(c, pt))
        assert np.max(np.abs(red.spin - red2.spin)) < 1e-10


def test_project_rank_one_spinless():
    rs = RS1
    m = 1.7
    alpha = rs.roots[0]
    pt = PhasePoint.make(rs, [0.4], [0.0],
                         xi_components={alpha: m, tuple([-1]): m})
    red = project_pi(pt)
    assert abs(red.spin[0] - m * m) < 1e-14   # s[-1], the one reduced root


def test_project_equals_slice_normalization():
    # the invariant monomials agree with reading coefficients after moving
    # onto the slice (on-branch points)
    rng = np.random.default_rng(10)
    rs = RS2
    pt = point(rs, np.zeros(2), np.zeros(2),
               rng.uniform(0.5, 1.5, size=rs.dim)
               + 1j * rng.uniform(-0.2, 0.2, size=rs.dim))
    red = project_pi(pt)
    on_slice = normalize_to_slice(pt).xi
    for k, r in enumerate(reduced_roots(rs)):
        assert abs(red.spin[k] - on_slice[rs.basis_index(r)]) < 1e-12


def test_project_past_the_float_range_raises():
    """s_[-1,-1] = xi_[-1,-1] xi_[1,0] xi_[0,1] overflows at simple spins of
    1e200: FloatingPointError, not an inf spin."""
    comps = {r: 0.5 for r in RS2.roots}
    comps.update({r: 1e200 for r in RS2.simple_roots})
    pt = PhasePoint.make(RS2, [0.1, 0.2], [0.0, 0.0], xi_components=comps)
    with pytest.raises(FloatingPointError, match="overflow"):
        project_pi(pt)


def test_reduction_names_the_first_point_outside_u():
    rng = np.random.default_rng(13)
    xi = rng.uniform(0.5, 1.5, (2, 3, RS2.dim)) + 0j
    xi[1, 1, 3] = xi[1, 2, 2] = 0.0     # simple roots [0,1] and then [1,0]
    with pytest.raises(GaugeDomainError, match=r"\[0,1\]$") as info:
        reduction(RS2, xi)
    assert info.value.index == 4
    with pytest.raises(GaugeDomainError) as info:
        gauge_g(point(RS2, [0, 0], [0, 0], xi[1, 1]))
    assert info.value.index is None


def test_stacked_reduction_is_the_single_point_one():
    rng = np.random.default_rng(14)
    for rs in (RS1, RS2, build_root_system("A", 4)):
        xi = rng.normal(size=(7, rs.dim)) + 1j * rng.normal(size=(7, rs.dim))
        s, g = reduction(rs, xi)
        for k in range(7):
            x = point(rs, np.zeros(rs.rank), np.zeros(rs.rank), xi[k])
            assert np.array_equal(project_pi(x).spin, s[k])
            assert np.array_equal(gauge_g(x), g[k])


# spins of every magnitude class: huge, subnormal, and ordinary ones to mix
MAGNITUDES = [sign * m for m in (1e15, 1e200, 1e300, 5e-324, 1e-310, 0.7)
              for sign in (1.0, -1.0)]
MAGNITUDE_SYSTEMS = [make_system("rational", 2),
                     make_system("trigonometric", 2),
                     make_system("elliptic", 2, lattice=Lattice(2.0, 2.2j))]


def finite_or_typed(call) -> None:
    """call() returns finite values only, or raises a SpincmError or a
    FloatingPointError; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except (SpincmError, FloatingPointError):
            return
    if isinstance(out, PhasePoint):
        out = out.y
    assert np.all(np.isfinite(out))


@settings(max_examples=300, deadline=None)
@given(sys_=st.sampled_from(MAGNITUDE_SYSTEMS),
       re=st.lists(st.sampled_from(MAGNITUDES), min_size=8, max_size=8),
       im=st.lists(st.sampled_from(MAGNITUDES), min_size=8, max_size=8),
       c=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_reduction_api_on_every_magnitude(sys_, re, im, c):
    rs = sys_.rs
    xi = np.array(re) + 1j * np.array(im)
    xi[:rs.rank] = 0.0                          # J = 0
    q = np.linalg.solve(rs.alpha_h[:2], [0.8, 0.7]) + 0j
    p = np.array([0.3, -0.2], dtype=complex)
    pt = point(rs, q, p, xi)
    finite_or_typed(lambda: project_pi(pt))
    finite_or_typed(lambda: gauge_g(pt))
    finite_or_typed(lambda: lift_reduced(
        point(rs, q, p, xi[2 * rs.rank:], True)))
    finite_or_typed(lambda: torus_action(c, pt))
    # gauge_residual is not exported: its one caller, `spincm reduce`, runs
    # it under cli.main's guard, so the test holds that guard too
    finite_or_typed(lambda: raise_on_fp_fault(gauge_residual)(
        sys_, pt[None]))


def test_lift_is_a_section():
    rng = np.random.default_rng(11)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 1j * rng.normal(size=rs.n_roots - 2)
    red = point(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j, s, True)
    back = project_pi(lift_reduced(red))
    assert np.max(np.abs(back.spin - red.spin)) < 1e-14
    assert np.max(np.abs(momentum_J(lift_reduced(red)))) == 0.0


def test_spin_invariant_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    rs = RS2
    xi = rng.uniform(0.5, 1.5, size=rs.dim) \
        + 1j * rng.uniform(-0.3, 0.3, size=rs.dim)
    h = 1e-6
    # s at xi +- h e_a for every coordinate a, one stacked reduction each
    bumps = h * np.eye(rs.dim)
    fd = (reduction(rs, xi + bumps)[0] - reduction(rs, xi - bumps)[0]) \
        / (2 * h)
    for k, root in enumerate(reduced_roots(rs)):
        grad = spin_invariant_gradient(rs, xi, root)
        for a in range(rs.dim):
            # <d xi_a, grad> with d xi_a the dual basis covector direction
            analytic = grad[rs.dual_index[a]]
            assert abs(fd[a, k] - analytic) < 1e-7


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
        red = PhasePoint.make_reduced(
            rs, rng.normal(size=2), rng.normal(size=2),
            {SL3_ROOTS[n]: v for n, v in vals.items()})
        for (na, nb), formula in SL3_TABLE.items():
            fa = spin_coordinate_function(rs, SL3_ROOTS[na])
            fb = spin_coordinate_function(rs, SL3_ROOTS[nb])
            got = poisson_reduced(fa, fb, red)
            assert abs(got - formula(vals)) < 1e-12


def test_reduced_bracket_antisymmetry_and_q_s_commute():
    rng = np.random.default_rng(14)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 0j
    red = point(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j, s, True)
    roots = reduced_roots(rs)
    fa = spin_coordinate_function(rs, roots[0])
    fb = spin_coordinate_function(rs, roots[2])
    assert abs(poisson_reduced(fa, fb, red) + poisson_reduced(fb, fa, red)) < 1e-14

    def qfun(i):
        def grad(x):
            e = np.zeros(rs.rank)
            e[i] = 1.0
            return ReducedGradient(e, np.zeros(rs.rank),
                                   np.zeros(rs.n_roots - rs.rank, dtype=complex))
        return ReducedFunction(lambda x: x.q[i], grad)

    assert abs(poisson_reduced(qfun(0), fa, red)) == 0.0


def spin_tensor(red):
    """P[gamma, delta] = {s_gamma, s_delta}: the reduced brackets of the
    unit ds rows."""
    rows = np.eye(red.y.shape[-1])[2 * red.rs.rank:]
    return bracket_full(red, rows, rows)


def test_spin_tensor_matches_pairwise_brackets():
    rng = np.random.default_rng(15)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 1j * rng.normal(size=rs.n_roots - 2)
    red = point(rs, np.zeros(2), np.zeros(2), s, True)
    p = spin_tensor(red)
    roots = reduced_roots(rs)
    for a in range(len(roots)):
        for b in range(len(roots)):
            fa = spin_coordinate_function(rs, roots[a])
            fb = spin_coordinate_function(rs, roots[b])
            assert abs(p[a, b] - poisson_reduced(fa, fb, red)) < 1e-13


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_spin_tensor_is_the_lie_poisson_bracket_of_the_invariants(rank):
    # P[a, b] = <xi, [d s_a, d s_b]> at the slice lift, with the
    # differentials from spin_invariant_gradient instead of spin_chain
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(17 + rank)
    n_s = rs.n_roots - rs.rank
    for _ in range(5):
        s = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
        red = point(rs, np.zeros(rank, dtype=complex),
                    np.zeros(rank, dtype=complex), s, True)
        xi = lift_reduced(red).xi
        grads = [spin_invariant_gradient(rs, xi, root)
                 for root in reduced_roots(rs)]
        ref = np.array([[form(rs, xi, bracket(rs, ga, gb)) for gb in grads]
                        for ga in grads])
        p = spin_tensor(red)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(p - ref)) < 1e-13 * scale
        assert np.max(np.abs(p + p.T)) < 1e-13 * scale


def test_reduced_jacobi_identity_via_finite_differences():
    rng = np.random.default_rng(16)
    rs = RS2
    s = rng.normal(size=rs.n_roots - 2) + 0j
    red = point(rs, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j, s, True)
    roots = reduced_roots(rs)
    f, g, h = (spin_coordinate_function(rs, roots[k]) for k in (0, 1, 3))

    def fd_reduced_gradient(func, x, step=1e-6):
        n_s = rs.n_roots - rs.rank
        ds = np.zeros(n_s, dtype=complex)
        for k in range(n_s):
            bump = np.zeros(n_s)
            bump[k] = step
            ds[k] = (func(point(rs, x.q, x.p, x.spin + bump, True))
                     - func(point(rs, x.q, x.p, x.spin - bump, True))) / (2 * step)
        return ReducedGradient(np.zeros(rs.rank), np.zeros(rs.rank), ds)

    def nested(a, b, c):
        w_val = lambda x: poisson_reduced(b, c, x)
        w = ReducedFunction(w_val, lambda x: fd_reduced_gradient(w_val, x))
        return poisson_reduced(a, w, red)

    total = nested(f, g, h) + nested(g, h, f) + nested(h, f, g)
    assert abs(total) < 1e-6


def _wrong_point_cases():
    """call per case: a phase export handed the other kind of point, rows
    of the wrong width or not a point, and points built from bad data."""
    rs = RS2
    x = PhasePoint.make(rs, [0.3, 0.7], [0.1, -0.2],
                        xi_components={r: 1.0 for r in rs.roots})
    red = PhasePoint.make_reduced(rs, [0.3, 0.7], [0.1, -0.2],
                                  {r: 0.5 for r in reduced_roots(rs)})
    row = np.ones(x.y.shape[-1])
    return {
        "momentum_J-reduced": lambda: momentum_J(red),
        "torus_action-reduced": lambda: torus_action([0.1, 0.2], red),
        "project_pi-reduced": lambda: project_pi(red),
        "gauge_g-reduced": lambda: gauge_g(red),
        "lift_reduced-unreduced": lambda: lift_reduced(x),
        "bracket_full-short-rows": lambda: bracket_full(x, row[:-1], row),
        "bracket_full-unreduced-rows": lambda: bracket_full(red, row, row),
        "bracket_full-not-a-point": lambda: bracket_full(x.y, row, row),
        "point-list-coordinates": lambda: PhasePoint([0.1, 0.2], [0.3, 0.4],
                                                     x.xi),
        "point-wrong-width": lambda: PhasePoint(rs, np.ones((3, 7))),
        "point-string-row": lambda: PhasePoint(RS1, "abc"),
        "point-row-holding-a-string": lambda: PhasePoint(
            RS1, [0.3, 0.1, 0.0, "abc", 1.0]),
    }


@pytest.mark.parametrize("case", sorted(_wrong_point_cases()))
def test_wrong_points_and_rows_are_structural_errors(case):
    """Each phase export checks its point once: the other kind of point
    raised AttributeError, rows of the wrong width numpy's ValueError, and
    a point of lists AttributeError; each is a StructuralError."""
    with pytest.raises(StructuralError):
        _wrong_point_cases()[case]()


def test_points_compare_and_hash_by_identity():
    """A point holds an array, so == and hash are those of the object: a
    bool and an int, where the field-wise ones raised numpy's ValueError
    and TypeError."""
    x = PhasePoint.make(RS1, [0.3], [0.1], xi_components={r: 1.0
                                                           for r in RS1.roots})
    twin = PhasePoint(RS1, x.y.copy())
    assert (x == twin) is False and (x == x) is True
    assert (x != twin) is True
    assert isinstance(hash(x), int) and hash(x) == hash(x)
    assert len({x, twin, x}) == 2


def test_make_rejects_pinned_coordinates():
    rs = RS2
    with pytest.raises(StructuralError):
        PhasePoint.make_reduced(rs, [0, 0], [0, 0], {rs.simple_roots[0]: 2.0})
