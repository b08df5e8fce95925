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

from dense_reference import dense_structure
from spincm.dynamics import (collision_margin, fpbr_residual, lax_L,
                             make_system, vector_field)
from spincm.elliptic import Lattice, l_kernel
from spincm.phase import PhasePoint, momentum_J
from spincm.errors import PoleError, StructuralError
from spincm.rootsys import (bracket, build_root_system, form, negate,
                            root_label)
from helpers import (LaurentElement, R_apply, R_directional, cartan_coeff,
                     casimir_tensor, count_passes, equivariance_residual,
                     pair_weight, r_tensor, ring_coefficients, ring_nodes,
                     root_coeff)
from spincm.rmatrix import (MDYBE_QUAD_RADIUS, RMatrixSpec, _ladder,
                            _r_table, default_mdybe_samples,
                            quad_ring, rational_r_matrix,
                            root_coeff_reg0, trigonometric_r_matrix,
                            verify_axioms, verify_cdybe, verify_mdybe)

WIDE = Lattice(2.0, 2.2j)
UNIT = Lattice(1.0, 1j)


def all_specs(rank, lattice=WIDE):
    rs = build_root_system("A", rank)
    return {
        "rational": rational_r_matrix(rs),
        "trigonometric": trigonometric_r_matrix(rs),
        "elliptic": RMatrixSpec(rs, "elliptic", lattice=lattice),
    }


def values_at(rs, k, u):
    """Root values rs.root_values(q) at the q on the line of alpha_k with
    (alpha_k, q) = u (to rounding)."""
    return rs.root_values(0.5 * u * rs.alpha_h[k])


def random_laurent(rs, order, rng):
    """Principal coefficients (order, dim) of a random pole-only Laurent
    covector."""
    return np.array([rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
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


def loop_subset_error(rs, chosen):
    """The Delta' checks as a double loop over the chosen roots: the
    message of the first failure, None if there is none."""
    chosen = [r for r in rs.roots if r in set(chosen)]
    for root in chosen:
        if negate(root) not in chosen:
            return f"delta_prime is not symmetric: missing {negate(root)}"
    for a in chosen:
        for b in chosen:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index and s not in chosen:
                return f"delta_prime is not closed under addition: {a} + {b}"
    return None


def matrix_subset_error(rs, chosen):
    try:
        spec = rational_r_matrix(rs, [list(r) for r in chosen])
    except StructuralError as exc:
        return str(exc)
    assert [rs.roots[k] for k in np.flatnonzero(spec.dp_mask)] == \
        [r for r in rs.roots if r in set(chosen)]
    return None


def test_rational_subset_checks_match_the_pair_loop():
    """The adjacency-matrix checks name the same root or pair as the double
    loop: on every subset of the roots of A_2, and on seeded random subsets
    of A_3 and A_4, half of them made symmetric so that closure is tested."""
    rs = build_root_system("A", 2)
    outcomes = set()
    for bits in range(2 ** rs.n_roots):
        chosen = [r for k, r in enumerate(rs.roots) if bits >> k & 1]
        expected = loop_subset_error(rs, chosen)
        assert matrix_subset_error(rs, chosen) == expected, chosen
        outcomes.add(expected is None or expected.split(":")[0])
    assert len(outcomes) == 3
    rng = np.random.default_rng(11)
    for rank in (3, 4):
        rs = build_root_system("A", rank)
        outcomes = set()
        for trial in range(200):
            keep = rng.random(rs.n_roots) < rng.uniform(0.2, 0.9)
            if trial % 2:
                keep[rs.n_pos:] = keep[:rs.n_pos]
            chosen = [r for k, r in enumerate(rs.roots) if keep[k]]
            expected = loop_subset_error(rs, chosen)
            assert matrix_subset_error(rs, chosen) == expected, chosen
            outcomes.add(expected is None or expected.split(":")[0])
        assert len(outcomes) == 3


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
    # the spec derives the span of Pi' (the roots supported on Pi') and, by
    # default, the canonical polarization: built directly, it is the
    # constructor's
    rs = build_root_system("A", 3)
    for chosen in ([], [1], [0, 2], [0, 1, 2]):
        want = trigonometric_r_matrix(rs, chosen)
        got = RMatrixSpec(rs, "trigonometric", pi_prime=frozenset(chosen))
        assert np.array_equal(got.span_mask, [
            set(np.flatnonzero(r)) <= set(chosen) for r in rs.roots])
        for name in ("span_mask", "plus_mask", "trig_shift"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_elliptic_constructor_needs_lattice():
    rs = build_root_system("A", 1)
    with pytest.raises(StructuralError):
        RMatrixSpec(rs, "elliptic", lattice=None)


def test_spec_needs_its_family_data():
    # built directly, a spec without its family data fails at
    # construction, not later in a kernel
    rs = build_root_system("A", 2)
    for build in (lambda: RMatrixSpec(rs, "rational"),
                  lambda: RMatrixSpec(rs, "elliptic"),
                  lambda: RMatrixSpec(rs, "elliptic", lattice=(2.0, 2.2j)),
                  lambda: RMatrixSpec(rs, "hyperbolic")):
        with pytest.raises(StructuralError):
            build()


def test_family_data_messages():
    with pytest.raises(StructuralError, match="elliptic family needs a "
                                              "lattice"):
        make_system("elliptic", 2)
    with pytest.raises(StructuralError, match="'hyperbolic'; expected one "
                       "of rational, trigonometric, elliptic"):
        make_system("hyperbolic", 2)


# -- coefficient functions and frozen values --------------------------------


def test_rational_r_empty_subset_is_casimir_over_z():
    rs = build_root_system("A", 2)
    spec = rational_r_matrix(rs, "empty")
    q = np.array([0.4, -0.7])
    z = 0.3 + 0.2j
    expected = casimir_tensor(rs) / z
    assert np.max(np.abs(r_tensor(spec, q, z) - expected)) < 1e-14


def test_rational_r_frozen_rank_one():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    alpha = rs.roots[0]
    # (alpha, q) = sqrt(2) * q_1, so q_1 = sqrt(2) makes (alpha, q) = 2
    q = np.array([math.sqrt(2.0)])
    r = r_tensor(spec, q, 1.0)
    expected = casimir_tensor(rs).astype(complex)
    ip, im = rs.basis_index(alpha), rs.basis_index(negate(alpha))
    expected[ip, im] += 0.5
    expected[im, ip] -= 0.5
    assert np.max(np.abs(r - expected)) < 1e-14


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
    spec = RMatrixSpec(rs, "elliptic", lattice=UNIT)
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


@pytest.mark.parametrize("pi_prime", ["full", [0]], ids=str)
def test_trigonometric_ladder_against_mpmath(pi_prime):
    """The trigonometric kernel at du = 0, kz = 0..5, matches 40-digit
    mpmath derivatives of its closed forms to 1e-13 relative: the Cartan
    coefficient cot z + z/3, and e^{uz/3} (cot z + cot u) on the span of
    Pi', e^{uz/3} e^{-iz} / sin z (Delta_+) and e^{uz/3} e^{iz} / sin z
    (Delta_-) off it.  On A_2 with Pi' = {alpha_1} the roots +-alpha_1
    lie on the span and the other four off it, two in each half of the
    polarization; with Pi' full all six lie on it."""
    mp = pytest.importorskip("mpmath")
    rs = build_root_system("A", 2)
    spec = trigonometric_r_matrix(rs, pi_prime)
    q = np.array([[0.41 + 0.07j, 1.13 - 0.05j], [0.77, 1.52 + 0.11j]])
    z = np.array([0.37 + 0.21j, -0.52 + 0.33j, 0.18 - 0.61j])
    u = rs.root_values(q)
    f, (c,) = _ladder(spec, u[:, None], z[:, None], 6)
    off = [i for i in range(rs.rank) if i not in spec.pi_prime]
    rel = 0.0
    with mp.workdps(40):
        for j, zj in enumerate(z):
            want = mp.diffs(lambda t: mp.cot(t) + t / 3, mp.mpc(zj), 5)
            rel = max(rel, *(abs(f[k][j, 0] - complex(w)) / abs(w)
                             for k, w in enumerate(want)))
            for (i, a), ua in np.ndenumerate(u):
                ua = mp.mpc(ua)
                if not any(rs.roots[a][m] for m in off):
                    g = lambda t: mp.cot(t) + mp.cot(ua)
                else:
                    s = -1j if a < rs.n_pos else 1j
                    g = lambda t: mp.exp(s * t) / mp.sin(t)
                want = mp.diffs(lambda t: mp.exp(ua * t / 3) * g(t),
                                mp.mpc(zj), 5)
                rel = max(rel, *(abs(c[k][i, j, a] - complex(w)) / abs(w)
                                 for k, w in enumerate(want)))
    assert rel < 1e-13, rel


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
        fdw = (pair_weight(spec, at(u + h))[0][0]
               - pair_weight(spec, at(u - h))[0][0]) / (2 * h)
        assert abs(pair_weight(spec, at(u))[1][0] - fdw) \
            / max(1.0, abs(fdw)) < 1e-6


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_one_pass_r_table_matches_per_kz_coefficients(family):
    """_r_table evaluates the kernel once for kz < 4 and du 0, 1;
    every slot matches a per-kz cartan_coeff / root_coeff loop to 1e-14
    relative, and the table of orders below 2 is the head of the full one."""
    spec = all_specs(3)[family]
    rs = spec.rs
    q = np.array([0.7, -0.45, 0.9])
    z = -np.concatenate([ring_nodes(0.35, 16), default_mdybe_samples()])
    table = _r_table(spec, q, z, 4, du=1)
    assert table.shape == (2, 4, len(z), rs.dim)
    u = rs.root_values(q)
    for kz in range(4):
        cartan = np.repeat(cartan_coeff(spec, z, kz)[:, None], rs.rank, -1)
        want = (np.concatenate([cartan, root_coeff(spec, u, z[:, None], kz)],
                               -1),
                np.concatenate([np.zeros_like(cartan),
                                root_coeff(spec, u, z[:, None], kz, du=1)],
                               -1))
        for du in (0, 1):
            assert np.all(np.abs(table[du, kz] - want[du])
                          <= 1e-14 * np.abs(want[du])), (family, kz, du)
    assert np.array_equal(_r_table(spec, q, z, 2, du=1), table[:, :2])


def test_elliptic_r_table_is_two_passes(monkeypatch):
    """One elliptic r table reads one pass each of z and u: two argument
    reductions with their exponential tables, no theta_1 pass (u + z is
    never reduced: its theta_1 comes from products of the u and z tables)
    and no near-point search."""
    spec = all_specs(3)["elliptic"]
    q = np.array([[0.7, -0.45, 0.9], [0.2, 0.8, -0.6]])
    z = np.broadcast_to(-np.array(default_mdybe_samples())[:, None], (12, 2))
    counts = count_passes(monkeypatch)
    _r_table(spec, q, z, 2, du=1)
    assert counts == {"_theta1": 0, "_cell": 2, "lattice_distance": 0}


def test_sheared_basis_gives_the_same_r_table():
    """The basis (omega1, omega2 + omega1) spans the same lattice, so r and
    its mixed derivatives agree with the reference basis to rounding."""
    rs = build_root_system("A", 3)
    ref, sheared = (RMatrixSpec(rs, "elliptic", lattice=Lattice(*periods))
                    for periods in [(2.0, 2.2j), (2.0, 2 + 2.2j)])
    q = np.array([[0.7, -0.45, 0.9], [0.2, 0.8, -0.6]])
    z = np.broadcast_to(-np.array(default_mdybe_samples())[:, None], (12, 2))
    want = _r_table(ref, q, z, 3, du=1)
    got = _r_table(sheared, q, z, 3, du=1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
                fd = (r_tensor(spec, q + h * v, z, kz)
                      - r_tensor(spec, q - h * v, z, kz)) / (2 * h)
                val = r_tensor(spec, q, z, kz, direction=v)
                assert np.max(np.abs(val - fd)) < 1e-6, (family, kz, v)
        # the fault knob scales exactly the (roots[0], -roots[0]) entries
        rs = spec.rs
        k0, kn = rs.rank, rs.dual_index[rs.rank]
        scale = np.ones((rs.dim, rs.dim), dtype=complex)
        scale[k0, kn] = scale[kn, k0] = 4.0
        for v in (None, directions[-1]):
            clean = r_tensor(spec, q, z, direction=v)
            faulty = r_tensor(spec.with_fault(4.0), q, z, direction=v)
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
    names that root; at distance 1e-6 every table is finite.  At
    (alpha, q) = 0 (to rounding), a pole of every family, the collision
    margin is 0 and the vector field and L refuse and name that root."""
    spec = all_specs(2)[family]
    rs = spec.rs
    other = (k + 1) % rs.n_pos
    z = 0.35 + 0.15j
    q = np.linalg.solve(rs.alpha_h[[k, other]], [0.0, 0.7])
    # (alpha_k, q) = 0 up to the rounding of the solve
    assert collision_margin(spec, q) < 1e-16
    x = PhasePoint(rs, np.concatenate([q + 0j, [0.3, -0.2j], np.linspace(
        0.5, 1.5, rs.dim) + 0.25j]))
    for table in (lambda: vector_field(spec, x), lambda: lax_L(spec, x, z)):
        with pytest.raises(PoleError,
                           match=re.escape(root_label(rs.roots[k]))):
            table()
    for offset in (5e-14, 1e-6):
        q = np.linalg.solve(rs.alpha_h[[k, other]],
                            [U_POLES[family] + offset, 0.7])
        u = rs.root_values(q)
        tables = (lambda: root_coeff(spec, u, z),
                  lambda: root_coeff(spec, u, z, 2, du=1),
                  lambda: pair_weight(spec, u)[0],
                  lambda: pair_weight(spec, u)[1],
                  lambda: r_tensor(spec, q, z))
        for table in tables:
            if offset < 1e-13:
                with pytest.raises(PoleError,
                                   match=re.escape(root_label(rs.roots[k]))):
                    table()
            else:
                assert np.all(np.isfinite(table()))


def test_overflowing_coefficients_raise():
    """A coefficient that overflows raises instead of coming back inf/nan.
    The elliptic coefficient at q = (3000, 0), z = 1 has the 40-digit
    mpmath value 2.0909e+369 at the root value 4243, past double range; at
    q = (300, 0), z = 0.3, where the sigmas of the old sigma ratio
    overflowed, it is finite (8.68408871519e+11 at the root value 424) and
    comes back to 1e-12."""
    specs = all_specs(2)
    trig, ell = specs["trigonometric"], specs["elliptic"]
    with pytest.raises(FloatingPointError):
        pair_weight(trig, trig.rs.root_values(np.array([800j, 0.0])))
    with pytest.raises(FloatingPointError):
        root_coeff(ell, ell.rs.root_values(np.array([3000.0, 0.0])), 1.0)
    got = root_coeff(ell, ell.rs.root_values(np.array([300.0, 0.0])), 0.3)
    assert abs(got[0] / 8.6840887151899e11 - 1) < 1e-12


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
    res = verify_axioms(spec, *zip(*samples))
    tol = 1e-8 if family == "elliptic" else 1e-10
    assert np.max(res["zero_weight"]) < tol
    assert np.max(res["unitarity"]) < tol
    assert np.max(res["residue"]) < tol


@settings(max_examples=25, deadline=None)
@given(re=st.floats(0.15, 0.6), im=st.floats(-0.4, 0.4))
def test_unitarity_rank_one_rational(re, im):
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    q = np.array([0.7])
    z = complex(re, im)
    r = r_tensor(spec, q, z)
    rback = r_tensor(spec, q, -z)
    assert np.max(np.abs(r + rback.T)) < 1e-12


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
    res = verify_axioms(spec, [q], [0.3 + 0.2j])
    assert res["zero_weight"][0] < 1e-12
    assert res["unitarity"][0] < 1e-12
    assert res["residue"][0] > 0.1
    assert verify_cdybe(spec, q, 0.3, 0.1 + 0.2j, -0.2 - 0.1j) > 1e-4


# -- the operator R ---------------------------------------------------------


def test_r_apply_halves_the_principal_part():
    rs = build_root_system("A", 2)
    spec = rational_r_matrix(rs)
    rng = np.random.default_rng(14)
    xi = LaurentElement(rs, random_laurent(rs, 2, rng),
                        default_mdybe_samples())
    out = R_apply(spec, np.array([0.6, -0.45]), xi)
    assert out.pole_order == 2
    assert np.max(np.abs(out.principal + 0.5 * xi.principal)) < 1e-14


def test_r_apply_frozen_rank_one():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    alpha = rs.roots[0]
    e_plus = np.eye(rs.dim, dtype=complex)[rs.basis_index(alpha)]
    zs = (0.3, 0.2 - 0.5j, 1.7)
    xi = LaurentElement(rs, [e_plus], zs)
    q = np.array([1.0 / math.sqrt(2.0)])           # (alpha, q) = 1
    out = R_apply(spec, q, xi)
    for k, z in enumerate(zs):
        expected = -(1.0 / (2.0 * z) + 1.0) * e_plus
        assert np.abs(out.values[k] - expected).max() < 1e-12


def test_r_apply_on_pole_free_input_is_half():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    rng = np.random.default_rng(15)
    const = rng.normal(size=rs.dim) + 0j
    xi = LaurentElement(rs, [], [0.9], [const])
    out = R_apply(spec, np.array([0.4]), xi)
    assert out.pole_order == 0
    assert np.abs(out.values - 0.5 * const).max() < 1e-14


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
def test_r_apply_skew_under_residue_pairing(family):
    rs = build_root_system("A", 2)
    spec = all_specs(2)[family]
    rng = np.random.default_rng(16)
    q = np.array([0.5, -0.35])
    nodes = 256
    zs = 0.3 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    xi = LaurentElement(rs, random_laurent(rs, 2, rng), zs)
    eta = LaurentElement(rs, random_laurent(rs, 2, rng), zs)
    rxi, reta = R_apply(spec, q, xi), R_apply(spec, q, eta)
    acc = sum((form(rs, eta.values, rxi.values)
               + form(rs, xi.values, reta.values)) * zs) / nodes
    assert abs(acc) < 1e-9


def test_contour_coefficients_recover_principal_part():
    rs = build_root_system("A", 1)
    rng = np.random.default_rng(17)
    zs = ring_nodes(0.4, 256)
    xi = LaurentElement(rs, random_laurent(rs, 3, rng), zs)
    got = ring_coefficients(xi.values, zs, 3)
    assert np.max(np.abs(got - xi.principal)) < 1e-12


def test_laurent_trimming_and_eval():
    rs = build_root_system("A", 1)
    zero = np.zeros(rs.dim, dtype=complex)
    x = np.eye(rs.dim, dtype=complex)[0]
    le = LaurentElement(rs, [x, zero, zero], [0.5])
    assert le.pole_order == 1
    assert np.abs(le.values - 2.0 * x).max() < 1e-14


def test_laurent_values_must_match_nodes():
    rs = build_root_system("A", 1)
    x = np.eye(rs.dim, dtype=complex)[0]
    with pytest.raises(StructuralError):
        LaurentElement(rs, [x], [0.5, 0.6], [x])


@pytest.mark.parametrize("rank,family", [(1, "rational"), (2, "rational"),
                                         (1, "trigonometric"),
                                         (2, "trigonometric"),
                                         (1, "elliptic"), (2, "elliptic"),
                                         (3, "elliptic")])
def test_mdybe(rank, family):
    """Pole orders 2 and 3, where the r table reaches kz = 5 and the
    elliptic ladder zeta orders past the closed forms; order 3 fails once a
    root pair is scaled.  Elliptic A_3 at order 3 reads 2.7e-12 here (the
    zeta-difference ladder read 8.2e-9: a root value lies 0.087 from -z at
    a sample z, where its z-ladder cancelled)."""
    spec = all_specs(rank)[family]
    rng = np.random.default_rng(300 + rank)
    q = rng.uniform(0.4, 0.8, size=rank)
    xi = random_laurent(spec.rs, 2, rng)
    eta = random_laurent(spec.rs, 2, rng)
    assert verify_mdybe(spec, q, xi, eta) < 1e-8
    if rank <= 2 or family == "elliptic":
        xi, eta = (random_laurent(spec.rs, 3, rng) for _ in range(2))
        assert verify_mdybe(spec, q, xi, eta) < 1e-8
        assert verify_mdybe(spec.with_fault(4.0), q, xi, eta) > 1.0


def test_mdybe_diagonal_case_vanishes():
    rs = build_root_system("A", 1)
    spec = rational_r_matrix(rs)
    rng = np.random.default_rng(18)
    xi = random_laurent(rs, 2, rng)
    assert verify_mdybe(spec, np.array([0.7]), xi, xi) < 1e-10


def test_mdybe_past_the_float_range_raises():
    """At the root value 1300 (trigonometric) or 2200 (elliptic on (2,
    2.2i)) the r-matrix pairing overflows: FloatingPointError, where the
    residual came back nan without a warning; the rational residual there
    stays finite."""
    specs = all_specs(2)
    xi, eta = np.full((2, 8), 0.3), np.full((2, 8), 0.2)
    for family, u in (("trigonometric", 1300.0), ("elliptic", 2200.0)):
        with pytest.raises(FloatingPointError):
            verify_mdybe(specs[family], np.array([u, 0.3]), xi, eta)
    assert verify_mdybe(specs["rational"], np.array([2200.0, 0.3]), xi,
                        eta) < 1e-12


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_equivariance(family):
    spec = all_specs(2)[family]
    rng = np.random.default_rng(19)
    q = np.array([0.6, -0.4])
    xi = random_laurent(spec.rs, 2, rng)
    c = 0.2 * rng.normal(size=2)
    zs = [0.5 * cmath.exp(2j * math.pi * k / 6) for k in range(6)]
    assert equivariance_residual(spec, q, xi, c, zs) < 1e-10


# -- dense references --------------------------------------------------------
#
# The package contracts every r through its coefficient vector
# (r[a, dual(a)] = c_a), the nonzero structure constants and, in the MDYBE,
# matrix commutators.  These references contract the dense r_tensor(...)
# with the dense structure constants of the matrix units
# (`dense_reference`), as the defining formulas read.  The faulted cases
# (fault_scale 4) are what make the comparison bite: unfaulted residuals are
# round-off, so those are compared to 1e-12 absolute.

DENSE_CASES = [(family, rank, fault)
               for family in ("rational", "trigonometric", "elliptic")
               for rank in (1, 2, 3) for fault in (1.0, 4.0)]


def faulted_spec(family, rank, fault):
    spec = all_specs(rank)[family]
    return spec.with_fault(fault) if fault != 1.0 else spec


def assert_matches_dense(got, want, fault):
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (got, want)
    if fault != 1.0:
        assert want > 1e-3


def dense_axioms(spec, samples, quad_radius=0.1, quad_nodes=256):
    """Zero-weight, unitarity and residue residuals of the dense tensors;
    the ring radius in units of spec.length, as the package's."""
    rs = spec.rs
    f = dense_structure(rs)
    omega = casimir_tensor(rs)
    ring = ring_nodes(quad_radius * spec.length, quad_nodes)
    zero_weight = unitarity = residue = 0.0
    for q, z in samples:
        r, rminus = r_tensor(spec, q, [z, -z])
        t = (np.einsum("iac,ab->icb", f[:rs.rank], r)
             + np.einsum("ibc,ab->iac", f[:rs.rank], r))
        zero_weight = max(zero_weight, float(np.max(np.abs(t))))
        unitarity = max(unitarity, float(np.max(np.abs(r + rminus.T))))
        res = ring_coefficients(r_tensor(spec, q, ring), ring, 1)[0]
        residue = max(residue, float(np.max(np.abs(res - omega))))
    return {"zero_weight": zero_weight, "unitarity": unitarity,
            "residue": residue}


def dense_pair_first(rs, mat, x):
    """<r, x (x) 1> for a dense tensor r (batch axes broadcast)."""
    return np.einsum("...ab,...a->...b", mat, x @ casimir_tensor(rs))


def dense_r_pairing(spec, q, xi, direction=None):
    out = np.zeros(xi.nodes.shape + (spec.rs.dim,), dtype=complex)
    for k in range(xi.pole_order):
        mat = r_tensor(spec, q, -xi.nodes, kz=k, direction=direction)
        out += dense_pair_first(spec.rs, mat, xi.principal[k]) \
            / math.factorial(k)
    return out


def dense_R_apply(spec, q, xi):
    return 0.5 * xi.values + dense_r_pairing(spec, q, xi)


def dense_cdybe(spec, q, z1, z2, z3):
    rs = spec.rs
    f = dense_structure(rs)
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    r12, r13, r23 = r_tensor(spec, q, [z12, z13, z23])
    cube = np.zeros((rs.dim, rs.dim, rs.dim), dtype=complex)
    for i, e_i in enumerate(np.eye(rs.rank)):
        d23, d31, d12 = r_tensor(spec, q, [z23, -z13, z12],
                                 direction=e_i)
        cube[i, :, :] += d23
        cube[:, i, :] += d31.T
        cube[:, :, i] += d12
    cube += np.einsum("ab,cd,ace->ebd", r12, r13, f)
    cube += np.einsum("ab,cd,bce->aed", r12, r23, f)
    cube += np.einsum("ab,cd,bde->ace", r13, r23, f)
    return float(np.max(np.abs(cube)))


def dense_mdybe(spec, q, xi, eta, quad_radius=0.35, quad_nodes=256):
    """The dense MDYBE residual at the default samples, the ring radius and
    the samples in units of spec.length, as the package's."""
    rs = spec.rs
    ring = ring_nodes(quad_radius * spec.length, quad_nodes)
    nodes = np.concatenate([ring, default_mdybe_samples(spec.length)])
    xi = LaurentElement(rs, xi, nodes)
    eta = LaurentElement(rs, eta, nodes)
    r_xi = dense_R_apply(spec, q, xi)
    r_eta = dense_R_apply(spec, q, eta)
    w = bracket(rs, r_xi, eta.values) + bracket(rs, xi.values, r_eta)
    w_prin = ring_coefficients(w[:quad_nodes], ring,
                               xi.pole_order + eta.pole_order)
    r_inner = dense_R_apply(spec, q, LaurentElement(rs, w_prin, nodes, w))
    x_xi_reta = dense_r_pairing(spec, q, eta, xi.principal[0, :rs.rank])
    x_eta_rxi = dense_r_pairing(spec, q, xi, eta.principal[0, :rs.rank])
    d_coords = np.zeros(rs.rank, dtype=complex)
    for i, e_i in enumerate(np.eye(rs.rank)):
        pairing = form(rs, eta.values, dense_r_pairing(spec, q, xi, e_i))
        d_coords[i] = ring_coefficients(pairing[:quad_nodes], ring, 1)[0]
    res = (bracket(rs, r_xi, r_eta) - r_inner + x_xi_reta - x_eta_rxi
           + np.r_[d_coords, np.zeros(rs.n_roots)]
           + 0.25 * bracket(rs, xi.values, eta.values))
    return float(np.max(np.abs(res[quad_nodes:])))


def dense_fpbr(sys, x, z, w):
    rs = sys.rs
    spec_l = sys.with_fault(1.0)
    q = x.q
    f = dense_structure(rs)
    rz, rw = r_tensor(spec_l, q, [z, w])
    lz, lw = lax_L(sys, x, [z, w])
    dq_z, dq_w = np.moveaxis(np.array([
        np.einsum("...ab,b->...a",
                  r_tensor(spec_l, q, [z, w], direction=e_i),
                  casimir_tensor(rs) @ x.xi)
        for e_i in np.eye(rs.rank)]), 0, -1)
    lhs = np.zeros((rs.dim, rs.dim), dtype=complex)
    lhs[:, :rs.rank] -= dq_z
    lhs[:rs.rank, :] += dq_w.T
    lhs += np.einsum("ac,bd,cde,e->ab", rz, rw, f, casimir_tensor(rs) @ x.xi)
    r12 = r_tensor(sys, q, z - w)
    com = np.einsum("cb,f,cfa->ab", r12, lz, f)
    com += np.einsum("ad,f,dfb->ab", r12, lw, f)
    xterm = r_tensor(sys, q, z - w, direction=momentum_J(x))
    return float(np.max(np.abs(lhs + com + xterm)))


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("fault", [1.0, 4.0])
def test_cdybe_matches_dense_reference(family, rank, fault):
    spec = faulted_spec(family, rank, fault)
    rng = np.random.default_rng(700 + rank)
    for _ in range(2):
        q = rng.uniform(0.55, 1.1, size=rank) * rng.choice([-1, 1], size=rank)
        zs = (0.45 + 0.1j, -0.2 + 0.35j, 0.05 - 0.4j)
        assert_matches_dense(verify_cdybe(spec, q, *zs),
                             dense_cdybe(spec, q, *zs), fault)


@pytest.mark.parametrize("family,rank,fault", DENSE_CASES)
def test_axioms_match_dense_reference(family, rank, fault):
    spec = faulted_spec(family, rank, fault)
    rng = np.random.default_rng(740 + rank)
    samples = [(rng.uniform(0.55, 1.1, size=rank)
                * rng.choice([-1, 1], size=rank),
                complex(rng.uniform(0.2, 0.6), rng.uniform(-0.3, 0.3)))
               for _ in range(4)]
    got = {name: np.max(v) for name, v in
           verify_axioms(spec, *zip(*samples)).items()}
    want = dense_axioms(spec, samples)
    # unitarity adds the same two numbers; the residue's ring mean may
    # round in another order, since BLAS can treat a (256, dim) and a
    # (256, dim * dim) contraction differently
    assert got["unitarity"] == want["unitarity"]
    assert got["zero_weight"] == want["zero_weight"] == 0.0
    assert abs(got["residue"] - want["residue"]) \
        <= 8 * np.finfo(float).eps * max(want["residue"], 1.0)
    if fault != 1.0:
        assert want["residue"] > 1.0


@pytest.mark.parametrize("family,rank,fault", DENSE_CASES)
def test_mdybe_matches_dense_reference(family, rank, fault):
    spec = faulted_spec(family, rank, fault)
    rng = np.random.default_rng(710 + rank)
    q = rng.uniform(0.55, 1.1, size=rank) * rng.choice([-1, 1], size=rank)
    xi = random_laurent(spec.rs, 2, rng)
    eta = random_laurent(spec.rs, 2, rng)
    assert_matches_dense(verify_mdybe(spec, q, xi, eta),
                         dense_mdybe(spec, q, xi, eta), fault)


@pytest.mark.parametrize("family,rank,fault", DENSE_CASES)
def test_r_operator_matches_dense_reference(family, rank, fault):
    spec = faulted_spec(family, rank, fault)
    rs = spec.rs
    rng = np.random.default_rng(720 + rank)
    q = rng.uniform(0.55, 1.1, size=rank) * rng.choice([-1, 1], size=rank)
    xi = LaurentElement(rs, random_laurent(rs, 3, rng),
                        default_mdybe_samples())
    v = rng.normal(size=rank)
    for got, want in ((R_apply(spec, q, xi).values,
                       dense_R_apply(spec, q, xi)),
                      (R_directional(spec, q, v, xi).values,
                       dense_r_pairing(spec, q, xi, v))):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("family,rank,fault", DENSE_CASES)
def test_fpbr_matches_dense_reference(family, rank, fault):
    sys = faulted_spec(family, rank, fault)
    rs = sys.rs
    rng = np.random.default_rng(730 + rank)
    q = rng.uniform(0.6, 1.1, size=rank) * rng.choice([-1, 1], size=rank)
    x = PhasePoint(rs, np.concatenate([
        q.astype(complex), rng.normal(size=rank) + 0j,
        rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)]))
    z, w = 0.31 + 0.12j, -0.22 + 0.4j
    assert_matches_dense(fpbr_residual(sys, x, z, w),
                         dense_fpbr(sys, x, z, w), fault)



# -- quadrature rings sized from their error bound ---------------------------
#
# A ring |z| = rho takes the fewest nodes N, at least 32, with
# (rho / R)^N <= 1e-20, R the family's z-pole radius.  Under a fault the
# residuals are real quantities (1e3-1e7), so the comparison with 512-node
# references measures the ring error itself.

SIZED_CASES = [("rational", 2, None), ("trigonometric", 3, None),
               ("elliptic", 2, (2.0, 2.2j)), ("elliptic", 2, (1.0, 1.1j)),
               ("elliptic", 2, (0.5, 0.55j))]


def sized_spec(family, rank, periods):
    lattice = Lattice(*periods) if periods else WIDE
    return all_specs(rank, lattice)[family]


def sized_samples(spec, count, seed, length=1.0):
    """(q, xi, eta, z) stacks with q at least 0.2 from the singular set, q
    in units of ``length``."""
    rng = np.random.default_rng(seed)
    qs = []
    while len(qs) < count:
        q = rng.uniform(0.3, 1.1, size=spec.rs.rank) \
            * rng.choice([-1, 1], size=spec.rs.rank) * length
        if collision_margin(spec, q) >= 0.2 * length:
            qs.append(q)
    xi, eta = (np.array([random_laurent(spec.rs, 2, rng)
                         for _ in range(count)]) for _ in range(2))
    z = np.array([complex(rng.uniform(0.2, 0.5), rng.uniform(-0.3, 0.3))
                  for _ in range(count)])
    return np.array(qs), xi, eta, z


@pytest.mark.parametrize("family,rank,periods", SIZED_CASES)
def test_ring_node_counts(family, rank, periods):
    """Every ring has 32 nodes, on the radius in units of the spec's
    length: 1 off the elliptic family and on (2, 2.2i), then 1/2 and 1/4
    (the shortest period over 4)."""
    spec = sized_spec(family, rank, periods)
    length = {None: 1.0, (2.0, 2.2j): 1.0, (1.0, 1.1j): 0.5,
              (0.5, 0.55j): 0.25}[periods]
    assert spec.length == length
    for radius in (0.1, 0.35):
        ring = quad_ring(spec, radius)
        assert len(ring) == 32
        assert np.allclose(np.abs(ring), radius * length)
        assert np.allclose(ring ** 32, (radius * length) ** 32)


def test_ring_on_a_skewed_basis():
    """The length reads the shortest period of the reduced basis, not of
    the basis as given: on (1, 3 + 0.5i) the period 2 omega2 - 6 omega1 = i
    has length 1, so the spec's length is 1/4; the reference lattice and
    its sheared and swapped bases keep length 1 exactly."""
    rs = build_root_system("A", 2)
    for periods, length in [((1.0, 3 + 0.5j), 0.25), ((2.0, 2.2j), 1.0),
                            ((2.0, 2 + 2.2j), 1.0), ((2.2j, -2.0), 1.0)]:
        spec = RMatrixSpec(rs, "elliptic", lattice=Lattice(*periods))
        assert spec.length == length
        ring = quad_ring(spec, MDYBE_QUAD_RADIUS)
        assert len(ring) == 32
        assert np.allclose(np.abs(ring), MDYBE_QUAD_RADIUS * length)


def test_ring_on_a_tiny_lattice_stays_off_the_poles():
    """On (0.1, 0.11i), whose lattice points at 0.2 lay inside the absolute
    MDYBE ring |z| = 0.35, both rings shrink with the length 0.05 and
    keep 0.0875 of the distance to the next pole.  The residue reads 1 to
    round-off, and the MDYBE residual is round-off of the faulted one: its
    terms grow like a power of 1/length (the faulted residual reads about
    1e8 here), so the absolute suite threshold does not apply at this
    scale."""
    spec = RMatrixSpec(build_root_system("A", 1), "elliptic",
                       lattice=Lattice(0.1, 0.11j))
    assert spec.length == pytest.approx(0.05, rel=1e-15)
    for radius in (0.1, 0.35):
        ring = quad_ring(spec, radius)
        assert len(ring) == 32
        assert np.max(np.abs(ring)) / spec.lattice.shortest_period \
            <= radius / 4 + 1e-15
    q, xi, eta, _ = sized_samples(spec, 3, 910, spec.length)
    z = 0.4 * spec.length * np.exp(1j * np.arange(3))
    faulted = spec.with_fault(4.0)
    assert np.all(verify_mdybe(spec, q, xi, eta)
                  < 1e-12 * verify_mdybe(faulted, q, xi, eta))
    assert np.max(verify_axioms(spec, q, z)["residue"]) < 1e-12
    assert np.min(verify_axioms(faulted, q, z)["residue"]) > 1.0


EXACT_CASES = [("rational", None), ("trigonometric", None)] + [
    ("elliptic", (2.0 * lam, 2.2j * lam)) for lam in (0.25, 0.5, 1.0, 2.0)] \
    + [("elliptic", (2.0, 2.0 + 2.2j))]


@pytest.mark.parametrize("family,periods", EXACT_CASES, ids=str)
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_zero_weight_and_unitarity_are_exactly_zero(family, periods, rank):
    """Two axioms hold by construction: the weights of slots a and dual(a)
    cancel exactly, and the tables at -z are those at z swapped bit for bit
    (the elliptic tables take e^{-x} as its own exp), so zero_weight and
    unitarity read exactly 0 on 50 stacked samples, also under a fault,
    which scales a +/- pair alike; the residue is the check it moves."""
    spec = sized_spec(family, rank, periods)
    q, _, _, z = sized_samples(spec, 50, 1200 + rank, spec.length)
    for s in (spec, spec.with_fault(4.0)):
        res = verify_axioms(s, q, z * spec.length)
        assert np.all(res["zero_weight"] == 0.0)
        assert np.all(res["unitarity"] == 0.0)
    assert np.min(res["residue"]) > 1.0


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_verify_axioms_of_one_sample_gives_floats(family):
    """q of shape (rank,) and a scalar z give a float per check, as
    verify_cdybe and verify_mdybe do: the value of the one-sample stack."""
    spec = all_specs(2)[family]
    q, z = np.array([0.7, -0.45]), 0.3 + 0.2j
    one, stacked = verify_axioms(spec, q, z), verify_axioms(spec, [q], [z])
    for name, value in one.items():
        assert type(value) is float and value == stacked[name][0]


@pytest.mark.parametrize("family,rank,periods", SIZED_CASES)
def test_sized_rings_match_512_nodes(family, rank, periods):
    spec = sized_spec(family, rank, periods).with_fault(4.0)
    q, xi, eta, z = sized_samples(spec, 3, 900 + rank)
    got = verify_mdybe(spec, q, xi, eta)
    for k in range(3):
        want = dense_mdybe(spec, q[k], xi[k], eta[k], quad_nodes=512)
        assert want > 1e2
        assert abs(got[k] - want) <= 1e-12 * want
    got = verify_axioms(spec, q, z)["residue"]
    want = dense_axioms(spec, list(zip(q, z)), quad_nodes=512)["residue"]
    assert want > 1.0
    assert abs(np.max(got) - want) <= 1e-12 * want


@pytest.mark.parametrize("family,rank,periods", SIZED_CASES)
def test_mdybe_stack_equals_single_calls(family, rank, periods):
    spec = sized_spec(family, rank, periods).with_fault(4.0)
    q, xi, eta, _ = sized_samples(spec, 10, 950 + rank)
    zs = np.array(default_mdybe_samples())
    stacked = verify_mdybe(spec, q, xi, eta, z_samples=np.tile(zs, (10, 1)))
    assert stacked.shape == (10,)
    for k in range(10):
        single = verify_mdybe(spec, q[k], xi[k], eta[k], z_samples=zs)
        assert isinstance(single, float) and single > 1e2
        assert abs(stacked[k] - single) <= 1e-12 * single


def test_mdybe_on_a_small_lattice_passes():
    # rho / R = 0.35 here: at a fixed 32 nodes the residual read 5e-5 to
    # 1.2e-4 against the suite threshold of 1e-8.  The samples are the
    # inner default circle |z| = 0.6; the outer one, |z| = 0.85, passes
    # within 0.15 of the lattice point 1, where round-off alone reaches
    # 1e-8 at any node count.
    spec = sized_spec("elliptic", 2, (0.5, 0.55j))
    q, xi, eta, _ = sized_samples(spec, 5, 980)
    inner = default_mdybe_samples()[:7]
    assert np.max(verify_mdybe(spec, q, xi, eta, z_samples=inner)) < 1e-9


def test_mdybe_stack_trims_its_pole_order():
    # a stack whose top principal row is zero everywhere gives what the
    # trimmed stack gives; a sample with no pole at all leaves no X term
    spec = all_specs(2)["trigonometric"]
    rng = np.random.default_rng(990)
    q = rng.uniform(0.4, 0.8, size=(2, 2))
    xi, eta = (np.array([random_laurent(spec.rs, 2, rng) for _ in range(2)])
               for _ in range(2))
    padded = np.concatenate([xi, np.zeros_like(xi[:, :1])], 1)
    assert np.array_equal(verify_mdybe(spec, q, padded, eta),
                          verify_mdybe(spec, q, xi, eta))
    assert verify_mdybe(spec, q[0], np.zeros((2, spec.rs.dim)), eta[0]) \
        < 1e-10


# (family, rank, call) -> the name of the mis-shaped argument
_MISSHAPED = {
    "mdybe-xi-count": ("trigonometric", 2, lambda s, q, x: verify_mdybe(
        s, q[:2], x[:3], x[:3]), "xi"),
    "mdybe-q-rank": ("rational", 3, lambda s, q, x: verify_mdybe(
        s, q[:3, :2], x[:3], x[:3]), "q"),
    "mdybe-z-count": ("rational", 2, lambda s, q, x: verify_mdybe(
        s, q, x, x, z_samples=np.full((3, 2), 0.5)), "z_samples"),
    "mdybe-xi-dim": ("rational", 2, lambda s, q, x: verify_mdybe(
        s, q, x[..., 1:], x), "xi"),
    "axioms-q-rank": ("rational", 2, lambda s, q, x: verify_axioms(
        s, q[:, :1], [0.5] * 4), "q"),
    "axioms-z-count": ("rational", 2, lambda s, q, x: verify_axioms(
        s, q, [0.5] * 3), "z"),
    "cdybe-q-rank": ("trigonometric", 2, lambda s, q, x: verify_cdybe(
        s, np.ones((4, 3)), *[[0.3] * 4, [0.1] * 4, [-0.2] * 4]), "q"),
    "cdybe-z-count": ("trigonometric", 2, lambda s, q, x: verify_cdybe(
        s, q, [0.3] * 3, [0.1] * 3, [-0.2] * 3), "z1"),
}


@pytest.mark.parametrize("case", list(_MISSHAPED))
def test_verifiers_reject_misshaped_stacks(case):
    """q is (S, rank) or (rank,), xi and eta (S, T, dim) or (T, dim), z
    one per sample and z_samples (m,) or (S, m): any other shape is a
    StructuralError naming the expected one, where mdybe regrouped the
    stack into another sample count and the others raised a raw
    ValueError."""
    family, rank, call, name = _MISSHAPED[case]
    spec = all_specs(rank)[family]
    rng = np.random.default_rng(1040)
    q = rng.uniform(0.4, 0.8, size=(4, rank))
    xi = np.array([random_laurent(spec.rs, 2, rng) for _ in range(4)])
    with pytest.raises(StructuralError, match=f"expected {name} of shape"):
        call(spec, q, xi)


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_r_table_broadcasts_shared_nodes_against_stacked_q(family):
    # z of shape (nodes, 1) against 5 stacked q gives the table of the
    # explicit (nodes, 5) broadcast, bit for bit
    spec = all_specs(3)[family]
    rng = np.random.default_rng(1010)
    q = np.linalg.solve(spec.rs.alpha_h[:3], rng.uniform(0.5, 0.9, (3, 5))).T
    z = 0.4 * np.exp(2j * np.pi * (np.arange(6) + 0.3) / 6)[:, None]
    shared = _r_table(spec, q, z, 3, du=1)
    assert shared.shape == (2, 3, 6, 5, spec.rs.dim)
    assert shared.tobytes() == _r_table(
        spec, q, np.broadcast_to(z, (6, 5)), 3, du=1).tobytes()
