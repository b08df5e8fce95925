"""Weierstrass function layer, checked against independent constructions.

The oracle here never calls back into the package internals: g2 and g3 come
from truncated Eisenstein sums over the actual lattice, and zeta/sigma come
from the classical Laurent coefficients c_k with the quadratic recursion

    c_2 = g2/20,  c_3 = g3/28,
    c_k = 3 / ((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}      (k >= 4).

Everything else is either a defining identity (quasi-periodicity, the cubic
for wp') or a plain finite-difference probe of the derivative chain.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from spincm.elliptic import Lattice, l_kernel, sigma, wp, wp_prime, zeta
from spincm.errors import PoleError, StructuralError

SQUARE = Lattice(1.0, 1j)
RECT = Lattice(1.3, 0.9j)
OBLIQUE = Lattice(1.0, 0.4 + 1.1j)

LATTICES = [SQUARE, RECT, OBLIQUE]


def eisenstein(lattice: Lattice, power: int, cutoff: int = 400) -> complex:
    def box_sum(nmax: int) -> complex:
        m, n = np.meshgrid(np.arange(-nmax, nmax + 1), np.arange(-nmax, nmax + 1))
        w = 2 * m * lattice.omega1 + 2 * n * lattice.omega2
        w[nmax, nmax] = 1.0      # mask the origin, contribute 0 below
        vals = w ** (-power)
        vals[nmax, nmax] = 0.0
        return complex(vals.sum())
    # the box truncation error scales like 1/cutoff^(power - 2); one
    # Richardson step removes the leading term
    s1, s2 = box_sum(cutoff), box_sum(2 * cutoff)
    f = 2.0 ** (power - 2)
    return (f * s2 - s1) / (f - 1.0)


def laurent_coefficients(g2: complex, g3: complex, kmax: int) -> list[complex]:
    c = [0j] * (kmax + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, kmax + 1):
        acc = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


def zeta_series(g2: complex, g3: complex, z: complex, kmax: int = 12) -> complex:
    c = laurent_coefficients(g2, g3, kmax)
    return 1.0 / z - sum(c[k] * z ** (2 * k - 1) / (2 * k - 1)
                         for k in range(2, kmax + 1))


def sigma_series(g2: complex, g3: complex, z: complex, kmax: int = 12) -> complex:
    c = laurent_coefficients(g2, g3, kmax)
    expo = -sum(c[k] * z ** (2 * k) / (2 * k * (2 * k - 1))
                for k in range(2, kmax + 1))
    return z * cmath.exp(expo)


def test_invariants_match_eisenstein_sums():
    for lat in LATTICES:
        g2 = 60.0 * eisenstein(lat, 4)
        g3 = 140.0 * eisenstein(lat, 6)
        scale = abs(g2) ** 1.5   # g3 vanishes identically on the square lattice
        assert abs(lat.g2 - g2) / abs(g2) < 1e-8
        assert abs(lat.g3 - g3) / scale < 1e-9


def test_zeta_and_sigma_against_laurent_series():
    z = 0.3 + 0.04j       # well inside the convergence region
    for lat in LATTICES:
        assert abs(lat.zeta(z) - zeta_series(lat.g2, lat.g3, z)) < 1e-8
        assert abs(lat.sigma(z) - sigma_series(lat.g2, lat.g3, z)) < 1e-10


def test_sigma_behaves_like_z_at_zero():
    for lat in LATTICES:
        for z in (1e-6, 1e-6j, 1e-6 * (1 + 1j)):
            assert abs(lat.sigma(z) / z - 1.0) < 1e-8


def test_zeta_is_log_derivative_of_sigma():
    rng = np.random.default_rng(0)
    h = 1e-6
    for lat in LATTICES:
        for _ in range(17):
            z = complex(rng.uniform(0.15, 0.7), rng.uniform(0.1, 0.6))
            fd = (lat.sigma(z + h) - lat.sigma(z - h)) / (2 * h * lat.sigma(z))
            assert abs(lat.zeta(z) - fd) / abs(lat.zeta(z)) < 1e-8


def test_wp_is_minus_zeta_prime():
    rng = np.random.default_rng(1)
    h = 1e-5
    for lat in LATTICES:
        for _ in range(17):
            z = complex(rng.uniform(0.15, 0.7), rng.uniform(0.1, 0.6))
            fd = (lat.zeta(z + h) - lat.zeta(z - h)) / (2 * h)
            assert abs(lat.wp(z) + fd) / abs(lat.wp(z)) < 1e-8


def test_wp_prime_and_higher_zeta_derivatives():
    rng = np.random.default_rng(2)
    h = 1e-5
    for lat in (SQUARE, OBLIQUE):
        for _ in range(10):
            z = complex(rng.uniform(0.2, 0.7), rng.uniform(0.15, 0.6))
            fd1 = (lat.wp(z + h) - lat.wp(z - h)) / (2 * h)
            assert abs(lat.wp_prime(z) - fd1) / max(1.0, abs(fd1)) < 1e-7
            for k in (2, 3, 4):
                fd = (lat.zeta_derivative(z + h, k - 1)
                      - lat.zeta_derivative(z - h, k - 1)) / (2 * h)
                val = lat.zeta_derivative(z, k)
                assert abs(val - fd) / max(1.0, abs(fd)) < 1e-6


def test_zeta_derivative_rejects_high_order():
    with pytest.raises(ValueError):
        SQUARE.zeta_derivative(0.3, 5)


def test_differential_equation_of_wp():
    rng = np.random.default_rng(3)
    for lat in LATTICES:
        for _ in range(15):
            z = complex(rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.7))
            p, dp = lat.wp(z), lat.wp_prime(z)
            res = dp * dp - (4.0 * p ** 3 - lat.g2 * p - lat.g3)
            assert abs(res) / max(1.0, abs(p) ** 3) < 1e-9


def test_quasi_periodicity():
    rng = np.random.default_rng(4)
    for lat in LATTICES:
        for _ in range(8):
            z = complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.5))
            assert abs(lat.zeta(z + 2 * lat.omega1) - lat.zeta(z) - 2 * lat.eta1) < 1e-10
            assert abs(lat.zeta(z + 2 * lat.omega2) - lat.zeta(z) - 2 * lat.eta2) < 1e-10
            assert abs(lat.wp(z + 2 * lat.omega1) - lat.wp(z)) < 1e-9
            # sigma picks up -exp(2 eta (z + omega))
            lhs = lat.sigma(z + 2 * lat.omega1)
            rhs = -cmath.exp(2 * lat.eta1 * (z + lat.omega1)) * lat.sigma(z)
            assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_legendre_relation():
    for lat in LATTICES:
        res = lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1 - 0.5j * math.pi
        assert abs(res) < 1e-12


def test_parity():
    rng = np.random.default_rng(5)
    for lat in LATTICES:
        for _ in range(8):
            z = complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.5))
            assert abs(lat.sigma(-z) + lat.sigma(z)) < 1e-12 * max(1.0, abs(lat.sigma(z)))
            assert abs(lat.zeta(-z) + lat.zeta(z)) < 1e-10
            assert abs(lat.wp(-z) - lat.wp(z)) < 1e-9


def test_branch_point_identity():
    # theta constants satisfy Jacobi's quartic identity, and the branch
    # points must sum to zero
    for lat in LATTICES:
        e1, e2, e3 = lat.branch_points
        assert abs(e1 + e2 + e3) < 1e-12
        assert abs(lat.wp(lat.omega1) - e1) < 1e-9


def test_addition_formula_for_zeta():
    rng = np.random.default_rng(6)
    for lat in (SQUARE, RECT):
        for _ in range(8):
            a = complex(rng.uniform(0.1, 0.5), rng.uniform(0.05, 0.4))
            b = complex(rng.uniform(0.1, 0.5), -rng.uniform(0.05, 0.4))
            lhs = lat.zeta(a + b) - lat.zeta(a) - lat.zeta(b)
            rhs = 0.5 * (lat.wp_prime(a) - lat.wp_prime(b)) / (lat.wp(a) - lat.wp(b))
            assert abs(lhs - rhs) < 1e-8


def test_l_kernel_symmetry_and_pole():
    rng = np.random.default_rng(7)
    for lat in LATTICES:
        for _ in range(10):
            w = complex(rng.uniform(0.1, 0.5), rng.uniform(0.05, 0.4))
            z = complex(rng.uniform(0.1, 0.5), -rng.uniform(0.05, 0.4))
            assert abs(l_kernel(lat, w, z) - l_kernel(lat, z, w)) < 1e-12
            # product identity ties the kernel to wp
            prod = l_kernel(lat, w, z) * l_kernel(lat, -w, z)
            assert abs(prod - (lat.wp(z) - lat.wp(w))) < 1e-8
        # z l(w, z) -> -1 as z -> 0
        w = 0.37 + 0.21j
        z = 1e-6
        assert abs(z * l_kernel(lat, w, z) + 1.0) < 1e-4


def test_trigonometric_degeneration():
    # one period pushed far into the imaginary direction: wp approaches
    # 1/sin^2 z - 1/3 on the scale pi-periodic lattice
    lat = Lattice(math.pi / 2, 8j)
    for z in (0.4, 0.9, 1.3 + 0.2j):
        target = 1.0 / cmath.sin(z) ** 2 - 1.0 / 3.0
        assert abs(lat.wp(z) - target) < 1e-4


def test_pole_guards():
    with pytest.raises(PoleError):
        SQUARE.zeta(0.0)
    with pytest.raises(PoleError):
        SQUARE.wp(2.0)           # 2 omega1 is a lattice point
    with pytest.raises(PoleError):
        l_kernel(SQUARE, 0.0, 0.3)
    with pytest.raises(PoleError):
        l_kernel(SQUARE, 0.3, 2j)


def test_degenerate_lattice_is_rejected():
    with pytest.raises(StructuralError):
        Lattice(1.0, 2.0)        # collinear periods
    with pytest.raises(StructuralError):
        Lattice(0.0, 1j)


def test_module_level_wrappers():
    z = 0.31 + 0.17j
    assert sigma(SQUARE, z) == SQUARE.sigma(z)
    assert zeta(SQUARE, z) == SQUARE.zeta(z)
    assert wp(SQUARE, z) == SQUARE.wp(z)
    assert wp_prime(SQUARE, z) == SQUARE.wp_prime(z)


# -- mpmath oracle ------------------------------------------------------------


def mp_weierstrass(omega1: complex, omega2: complex):
    """sigma, zeta, wp, wp' at 30 digits, from mpmath's Jacobi theta
    functions at the unreduced argument: sigma by DLMF 23.6.9, zeta as
    sigma'/sigma and wp' as wp' by mpmath differentiation, and wp by
    DLMF 23.6.2 through theta_2, so wp shares no formula with the package."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    w1, w2 = mp.mpc(omega1), mp.mpc(omega2)
    q = mp.exp(1j * mp.pi * w2 / w1)
    scale = mp.pi / (2 * w1)
    t1p = mp.jtheta(1, 0, q, 1)
    eta1 = -mp.pi ** 2 * mp.jtheta(1, 0, q, 3) / (12 * w1 * t1p)
    th3, th4 = mp.jtheta(3, 0, q), mp.jtheta(4, 0, q)
    e1 = scale ** 2 / 3 * (th3 ** 4 + th4 ** 4)

    def sigma_mp(z):
        return (1 / scale) * mp.exp(eta1 * z * z / (2 * w1)) \
            * mp.jtheta(1, scale * z, q) / t1p

    def wp_mp(z):
        v = scale * z
        return e1 + (scale * th3 * th4 * mp.jtheta(2, v, q)
                     / mp.jtheta(1, v, q)) ** 2

    return {
        "sigma": sigma_mp,
        "zeta": lambda z: mp.diff(sigma_mp, z) / sigma_mp(z),
        "wp": wp_mp,
        "wp_prime": lambda z: mp.diff(wp_mp, z),
    }


@pytest.mark.parametrize("omega", [(2.0, 2.2j), (1.0, 0.3 + 0.8j)])
def test_against_mpmath_theta_functions(omega):
    """Array evaluations against 30-digit mpmath values, inside the centred
    cell and in cells (m, n) != (0, 0), where sigma's quasi-periodicity
    factor is used; agreement to 1e-12 relative."""
    lat = Lattice(*omega)
    oracle = mp_weierstrass(*omega)
    base = np.array([0.31 + 0.17j, -0.45 + 0.52j, 0.8 - 0.3j])
    cells = [(0, 0), (1, 0), (0, 1), (-1, 2), (2, -1), (-2, -1)]
    z = np.array([b + 2 * m * lat.omega1 + 2 * n * lat.omega2
                  for m, n in cells for b in base])
    for name in ("sigma", "zeta", "wp", "wp_prime"):
        got = getattr(lat, name)(z)
        assert got.shape == z.shape
        want = np.array([complex(oracle[name](complex(zz))) for zz in z])
        rel = np.abs(got - want) / np.abs(want)
        assert np.max(rel) < 1e-12, (name, z[np.argmax(rel)], np.max(rel))


def test_array_and_scalar_inputs_share_one_path():
    """Each Lattice function maps an array elementwise to the values it
    gives for the entries one at a time (to rounding: the theta sum is a
    matrix product whose summation order may depend on the shape), and a
    scalar in gives a Python scalar out."""
    z = np.array([[0.31 + 0.17j, -2.6 + 0.5j], [1.4 - 3.1j, 0.02 + 0.9j]])
    w = np.array([0.4 - 0.2j, 1.1 + 0.3j])
    close = lambda a, b: np.allclose(a, b, rtol=1e-14, atol=0.0)
    for lat in LATTICES:
        for name in ("sigma", "zeta", "wp", "wp_prime", "lattice_distance"):
            fn = getattr(lat, name)
            arr = fn(z)
            assert arr.shape == z.shape
            for idx in np.ndindex(z.shape):
                val = fn(complex(z[idx]))
                assert type(val) is (float if name == "lattice_distance"
                                     else complex)
                assert close(arr[idx], val), (name, z[idx])
        for k in range(5):
            assert close(lat.zeta_derivative(z, k), [
                [lat.zeta_derivative(complex(v), k) for v in row] for row in z])
        z0, m, n = lat.reduce(z)
        for idx in np.ndindex(z.shape):
            assert lat.reduce(complex(z[idx])) == (z0[idx], m[idx], n[idx])
        assert close(l_kernel(lat, w, z), [
            [l_kernel(lat, complex(a), complex(b)) for a, b in zip(w, row)]
            for row in z])
