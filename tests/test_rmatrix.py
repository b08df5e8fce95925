"""r-matrix layer: coefficients, axioms, Yang-Baxter equations, operator R.

Expected values used below were frozen from hand calculations:

* rational A_1 with (alpha, q) = 2 and z = 1:
  r = Omega + (1/2) e_alpha (x) e_{-alpha} - (1/2) e_{-alpha} (x) e_alpha
* rational A_1, xi = e_alpha / z, (alpha, q) = 1:
  (R xi)(z) = -(1/(2z) + 1) e_alpha
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincm.elliptic import Lattice, l_kernel
from spincm.errors import PoleError, StructuralError
from spincm.rootsys import (AlgElement, build_root_system, form, negate,
                            root_label)
from spincm.rmatrix import (LaurentElement, R_apply, casimir_tensor,
                            cartan_coeff, contour_coefficients,
                            elliptic_r_matrix, equivariance_residual,
                            pair_weight, r_tensor, rational_r_matrix, root_coeff, root_coeff_reg0,
                            trigonometric_r_matrix, verify_axioms,
                            verify_cdybe, verify_mdybe)

WIDE = Lattice(2.0, 2.2j)
UNIT = Lattice(1.0, 1j)


def all_specs(rank, lattice=WIDE):
    rs = build_root_system("A", rank)
    return {
        "rational": rational_r_matrix(rs),
        "trigonometric": trigonometric_r_matrix(rs),
        "elliptic": elliptic_r_matrix(rs, lattice),
    }


def values_at(rs, k, u):
    """Root values rs.root_values(q) at the q on the line of alpha_k with
    (alpha_k, q) = u (to rounding)."""
    return rs.root_values(0.5 * u * rs.alpha_h[k])


def random_laurent(rs, order, rng):
    return LaurentElement(rs, [
        AlgElement(rs, rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim))
        for _ in range(order)])


# -- constructors -----------------------------------------------------------


def test_rational_subset_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(StructuralError):
        rational_r_matrix(rs, [(1, 0)])                   # not symmetric
    with pytest.raises(StructuralError):
        rational_r_matrix(rs, [(1, 0), (-1, 0), (0, 1), (0, -1)])  # not closed
    # a proper symmetric closed subset is fine
    spec = rational_r_matrix(rs, [(1, 0), (-1, 0)])
    assert spec.dp_mask.sum() == 2
    empty = rational_r_matrix(rs, "empty")
    assert empty.dp_mask.sum() == 0


def test_trigonometric_subset_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(StructuralError):
        trigonometric_r_matrix(rs, [5])
    spec = trigonometric_r_matrix(rs, [0])
    # span of {alpha_1} contains only +/- alpha_1
    assert spec.span_mask.sum() == 2
    with pytest.raises(StructuralError):
        trigonometric_r_matrix(rs, "full", delta_plus=[(1, 0), (-1, 0),
                                                       (0, 1), (1, 1)])


def test_elliptic_constructor_needs_lattice():
    rs = build_root_system("A", 1)
    with pytest.raises(StructuralError):
        elliptic_r_matrix(rs, None)


# -- coefficient functions and frozen values --------------------------------


def test_rational_r_empty_subset_is_casimir_over_z():
    rs = build_root_system("A", 2)
    spec = rational_r_matrix(rs, "empty")
    q = np.array([0.4, -0.7])
    z = 0.3 + 0.2j
    expected = casimir_tensor(rs).mat / z
    assert np.max(np.abs(r_tensor(spec, q, z).mat - expected)) < 1e-14


def test_rational_r_frozen_rank_one():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    alpha = rs.roots[0]
    # (alpha, q) = sqrt(2) * q_1, so q_1 = sqrt(2) makes (alpha, q) = 2
    q = np.array([math.sqrt(2.0)])
    r = r_tensor(spec, q, 1.0)
    expected = casimir_tensor(rs).mat.astype(complex)
    ip, im = rs.basis_index(alpha), rs.basis_index(negate(alpha))
    expected[ip, im] += 0.5
    expected[im, ip] -= 0.5
    assert np.max(np.abs(r.mat - expected)) < 1e-14


def test_trigonometric_coefficients_by_formula():
    rs = build_root_system("A", 2)
    spec = trigonometric_r_matrix(rs)
    z, u = 0.37 + 0.11j, 0.52
    k = 0    # a simple root, inside the span of Pi' = Pi
    val = root_coeff(spec, values_at(rs, k, u), z)[k]
    direct = cmath.sin(u + z) / (cmath.sin(u) * cmath.sin(z)) * cmath.exp(u * z / 3)
    assert abs(val - direct) < 1e-13
    # off the span: restrict Pi' and retest the same root
    spec2 = trigonometric_r_matrix(rs, [1])
    val2 = root_coeff(spec2, values_at(rs, 0, u), z)[0]  # alpha_1 is now off-span
    direct2 = cmath.exp(-1j * z) / cmath.sin(z) * cmath.exp(u * z / 3)
    assert abs(val2 - direct2) < 1e-13
    k_neg = rs.root_index[negate(rs.roots[0])]
    val3 = root_coeff(spec2, values_at(rs, 0, u), z)[k_neg]
    direct3 = cmath.exp(1j * z) / cmath.sin(z) * cmath.exp(-u * z / 3)
    assert abs(val3 - direct3) < 1e-13


def test_elliptic_coefficient_is_minus_kernel():
    rs = build_root_system("A", 1)
    spec = elliptic_r_matrix(rs, UNIT)
    z, u = 0.23 + 0.31j, 0.4
    assert abs(root_coeff(spec, values_at(rs, 0, u), z)[0]
               + l_kernel(UNIT, u, z)) < 1e-13


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_z_derivative_ladders_against_finite_differences(family):
    spec = all_specs(2)[family]
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(6):
        z = complex(rng.uniform(0.2, 0.5), rng.uniform(0.1, 0.4))
        u = values_at(spec.rs, 0, rng.uniform(0.3, 0.8))
        for k in (1, 2, 3):
            fd = (root_coeff(spec, u, z + h, k - 1)[0]
                  - root_coeff(spec, u, z - h, k - 1)[0]) / (2 * h)
            val = root_coeff(spec, u, z, k)[0]
            assert abs(val - fd) / max(1.0, abs(fd)) < 1e-7
            fdc = (cartan_coeff(spec, z + h, k - 1)
                   - cartan_coeff(spec, z - h, k - 1)) / (2 * h)
            assert abs(cartan_coeff(spec, z, k) - fdc) / max(1.0, abs(fdc)) < 1e-7


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_u_derivatives_against_finite_differences(family):
    spec = all_specs(2)[family]
    rng = np.random.default_rng(12)
    h = 1e-5
    for _ in range(6):
        z = complex(rng.uniform(0.2, 0.5), rng.uniform(0.1, 0.4))
        u = rng.uniform(0.3, 0.8)
        at = lambda v: values_at(spec.rs, 0, v)
        for k in (0, 1, 2):
            fd = (root_coeff(spec, at(u + h), z, k)[0]
                  - root_coeff(spec, at(u - h), z, k)[0]) / (2 * h)
            val = root_coeff(spec, at(u), z, k, du=1)[0]
            assert abs(val - fd) / max(1.0, abs(fd)) < 1e-6
        fdw = (pair_weight(spec, at(u + h))[0]
               - pair_weight(spec, at(u - h))[0]) / (2 * h)
        assert abs(pair_weight(spec, at(u), du=1)[0] - fdw) \
            / max(1.0, abs(fdw)) < 1e-6


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_regular_part_at_the_pole(family):
    spec = all_specs(2)[family]
    u = 0.63
    z = 1e-6
    for k in (0, 1, 4):       # simple root, another simple, one negative
        vals = values_at(spec.rs, k, u)
        lim = root_coeff(spec, vals, z)[k] - 1.0 / z
        assert abs(root_coeff_reg0(spec, vals)[k] - lim) < 1e-4


def test_q_derivative_tensor_against_finite_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    q = np.array([0.45, -0.3])
    z = 0.35 + 0.15j
    unit = [v / np.linalg.norm(v) for v in rng.normal(size=(2, 2))]
    directions = list(np.eye(2)) + unit
    for family, spec in all_specs(2).items():
        for kz in (0, 1):
            for v in directions:
                fd = (r_tensor(spec, q + h * v, z, kz).mat
                      - r_tensor(spec, q - h * v, z, kz).mat) / (2 * h)
                val = r_tensor(spec, q, z, kz, direction=v).mat
                assert np.max(np.abs(val - fd)) < 1e-6, (family, kz, v)
        # the fault knob scales exactly the (roots[0], -roots[0]) entries
        rs = spec.rs
        k0, kn = rs.rank, rs.dual_index[rs.rank]
        scale = np.ones((rs.dim, rs.dim), dtype=complex)
        scale[k0, kn] = scale[kn, k0] = 4.0
        for v in (None, directions[-1]):
            clean = r_tensor(spec, q, z, direction=v).mat
            faulty = r_tensor(spec.with_fault(4.0), q, z, direction=v).mat
            assert np.array_equal(faulty, clean * scale), (family, v)


def test_pole_guards():
    specs = all_specs(1, UNIT)
    q = np.array([0.5])
    with pytest.raises(PoleError):
        r_tensor(specs["rational"], q, 0.0)
    with pytest.raises(PoleError):
        r_tensor(specs["trigonometric"], q, math.pi)
    with pytest.raises(PoleError):
        r_tensor(specs["elliptic"], q, 2.0)          # lattice point
    with pytest.raises(PoleError):
        # (alpha, q) = 0 with alpha in Delta'
        r_tensor(specs["rational"], np.array([0.0]), 0.3)


# a pole of each family's root coefficients and pair weights in u = (alpha, q)
# (WIDE has 2 omega1 = 4)
U_POLES = {"rational": 0.0, "trigonometric": math.pi, "elliptic": 4.0}


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_pole_guard_names_the_root(family, k):
    """One positive root of A_2 within 5e-14 of its pole (its negative with
    it, every other root value at distance >= 0.7): every table refuses and
    names that root; at distance 1e-6 every table is finite."""
    spec = all_specs(2)[family]
    rs = spec.rs
    other = (k + 1) % rs.n_pos
    z = 0.35 + 0.15j
    for offset in (5e-14, 1e-6):
        q = np.linalg.solve(rs.alpha_h[[k, other]],
                            [U_POLES[family] + offset, 0.7])
        u = rs.root_values(q)
        tables = (lambda: root_coeff(spec, u, z),
                  lambda: root_coeff(spec, u, z, 2, du=1),
                  lambda: pair_weight(spec, u),
                  lambda: pair_weight(spec, u, du=1),
                  lambda: r_tensor(spec, q, z).mat)
        for table in tables:
            if offset < 1e-13:
                with pytest.raises(PoleError,
                                   match=re.escape(root_label(rs.roots[k]))):
                    table()
            else:
                assert np.all(np.isfinite(table()))


def test_overflowing_coefficients_raise():
    """A coefficient that overflows raises instead of coming back inf/nan."""
    specs = all_specs(2)
    trig, ell = specs["trigonometric"], specs["elliptic"]
    with pytest.raises(FloatingPointError):
        pair_weight(trig, trig.rs.root_values(np.array([800j, 0.0])))
    with pytest.raises(FloatingPointError):
        root_coeff(ell, ell.rs.root_values(np.array([300.0, 0.0])), 0.3)


# -- axioms ------------------------------------------------------------------


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_axioms(rank, family):
    spec = all_specs(rank)[family]
    rng = np.random.default_rng(100 + rank)
    samples = []
    for _ in range(8):
        q = rng.uniform(0.3, 0.9, size=rank) * rng.choice([-1, 1], size=rank)
        z = complex(rng.uniform(0.2, 0.5), rng.uniform(0.1, 0.4))
        samples.append((q, z))
    res = verify_axioms(spec, samples)
    tol = 1e-8 if family == "elliptic" else 1e-10
    assert res["zero_weight"] < tol
    assert res["unitarity"] < tol
    assert res["residue"] < tol


@settings(max_examples=25, deadline=None)
@given(re=st.floats(0.15, 0.6), im=st.floats(-0.4, 0.4))
def test_unitarity_rank_one_rational(re, im):
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    q = np.array([0.7])
    z = complex(re, im)
    r = r_tensor(spec, q, z)
    rback = r_tensor(spec, q, -z)
    assert np.max(np.abs(r.mat + rback.mat.T)) < 1e-12


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_cdybe(family):
    spec = all_specs(2)[family]
    rng = np.random.default_rng(200)
    tol = 1e-8 if family == "elliptic" else 1e-10
    for _ in range(4):
        q = rng.uniform(0.3, 0.8, size=2) * rng.choice([-1, 1], size=2)
        z1, z2, z3 = (complex(rng.uniform(0.1, 0.4), rng.uniform(-0.3, 0.3))
                      for _ in range(3))
        if abs(z1 - z2) < 0.05 or abs(z1 - z3) < 0.05 or abs(z2 - z3) < 0.05:
            continue
        assert verify_cdybe(spec, q, z1, z2, z3) < tol


def test_cdybe_with_partial_subsets():
    rs = build_root_system("A", 2)
    q = np.array([0.55, -0.4])
    z1, z2, z3 = 0.3 + 0.1j, -0.15 + 0.25j, 0.1 - 0.3j
    spec_dp = rational_r_matrix(rs, [(1, 0), (-1, 0)])
    assert verify_cdybe(spec_dp, q, z1, z2, z3) < 1e-10
    spec_pi = trigonometric_r_matrix(rs, [1])
    assert verify_cdybe(spec_pi, q, z1, z2, z3) < 1e-10
    spec_none = trigonometric_r_matrix(rs, "empty")
    assert verify_cdybe(spec_none, q, z1, z2, z3) < 1e-10


def test_fault_injection_breaks_residue_and_cdybe_only():
    spec = all_specs(1)["rational"].with_fault(1.5)
    q = np.array([0.8])
    samples = [(q, 0.3 + 0.2j)]
    res = verify_axioms(spec, samples)
    assert res["zero_weight"] < 1e-12
    assert res["unitarity"] < 1e-12
    assert res["residue"] > 0.1
    assert verify_cdybe(spec, q, 0.3, 0.1 + 0.2j, -0.2 - 0.1j) > 1e-4


# -- the operator R ---------------------------------------------------------


def test_r_apply_halves_the_principal_part():
    rs = build_root_system("A", 2)
    spec = rational_r_matrix(rs)
    rng = np.random.default_rng(14)
    xi = random_laurent(rs, 2, rng)
    out = R_apply(spec, np.array([0.6, -0.45]), xi)
    assert out.pole_order == 2
    for j in (1, 2):
        diff = out.principal_coeff(j) + 0.5 * xi.principal_coeff(j)
        assert diff.max_abs() < 1e-14


def test_r_apply_frozen_rank_one():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    alpha = rs.roots[0]
    e_plus = AlgElement.basis(rs, rs.basis_index(alpha))
    xi = LaurentElement.simple_pole(e_plus)
    q = np.array([1.0 / math.sqrt(2.0)])           # (alpha, q) = 1
    out = R_apply(spec, q, xi)
    for z in (0.3, 0.2 - 0.5j, 1.7):
        expected = -(1.0 / (2.0 * z) + 1.0) * e_plus
        assert (out.eval(z) - expected).max_abs() < 1e-12


def test_r_apply_on_pole_free_input_is_half():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    rng = np.random.default_rng(15)
    const = AlgElement(rs, rng.normal(size=rs.dim) + 0j)
    xi = LaurentElement.from_constant(const)
    out = R_apply(spec, np.array([0.4]), xi)
    assert out.pole_order == 0
    assert (out.eval(0.9) - 0.5 * const).max_abs() < 1e-14


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
def test_r_apply_skew_under_residue_pairing(family):
    rs = build_root_system("A", 2)
    spec = all_specs(2)[family]
    rng = np.random.default_rng(16)
    q = np.array([0.5, -0.35])
    xi, eta = random_laurent(rs, 2, rng), random_laurent(rs, 2, rng)
    rxi, reta = R_apply(spec, q, xi), R_apply(spec, q, eta)
    nodes = 256
    zs = 0.3 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    acc = sum((form(eta.eval(z), rxi.eval(z)) + form(xi.eval(z), reta.eval(z))) * z
              for z in zs) / nodes
    assert abs(acc) < 1e-9


def test_contour_coefficients_recover_principal_part():
    rs = build_root_system("A", 1)
    rng = np.random.default_rng(17)
    xi = random_laurent(rs, 3, rng)
    got = contour_coefficients(rs, xi.eval, 3, radius=0.4)
    for j, x in enumerate(got, start=1):
        assert (x - xi.principal_coeff(j)).max_abs() < 1e-12


def test_laurent_trimming_and_eval():
    rs = build_root_system("A", 1)
    zero = AlgElement.zero(rs)
    x = AlgElement.basis(rs, 0)
    le = LaurentElement(rs, [x, zero, zero])
    assert le.pole_order == 1
    assert (le.eval(0.5) - 2.0 * x).max_abs() < 1e-14


@pytest.mark.parametrize("rank,family", [(1, "rational"), (2, "rational"),
                                         (1, "trigonometric"),
                                         (2, "trigonometric"),
                                         (1, "elliptic")])
def test_mdybe(rank, family):
    spec = all_specs(rank)[family]
    rng = np.random.default_rng(300 + rank)
    q = rng.uniform(0.4, 0.8, size=rank)
    xi = random_laurent(spec.rs, 2, rng)
    eta = random_laurent(spec.rs, 2, rng)
    assert verify_mdybe(spec, q, xi, eta) < 1e-8


def test_mdybe_diagonal_case_vanishes():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    rng = np.random.default_rng(18)
    xi = random_laurent(rs, 2, rng)
    assert verify_mdybe(spec, np.array([0.7]), xi, xi) < 1e-10


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_equivariance(family):
    spec = all_specs(2)[family]
    rng = np.random.default_rng(19)
    q = np.array([0.6, -0.4])
    xi = random_laurent(spec.rs, 2, rng)
    c = 0.2 * rng.normal(size=2)
    zs = [0.5 * cmath.exp(2j * math.pi * k / 6) for k in range(6)]
    assert equivariance_residual(spec, q, xi, c, zs) < 1e-10
