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
from hypothesis import given, settings
from hypothesis import strategies as st

from spincm.dynamics import _flow, make_system
from spincm.elliptic import Lattice, l_kernel
from spincm.errors import PoleError, StructuralError, raise_on_fp_fault
from spincm.rmatrix import _r_table
from helpers import count_passes

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
            assert abs(lat.wp_pair(z)[1] - fd1) / max(1.0, abs(fd1)) < 1e-7
            for k in (2, 3, 4):
                fd = (lat.zeta_ladder(z + h, k)[k - 1]
                      - lat.zeta_ladder(z - h, k)[k - 1]) / (2 * h)
                val = lat.zeta_ladder(z, k + 1)[k]
                assert abs(val - fd) / max(1.0, abs(fd)) < 1e-6


def test_zeta_ladder_is_one_theta_pass(monkeypatch):
    """Every order of the ladder is bitwise the value of its own
    evaluation (zeta, -wp, -wp' and the closed forms of orders 3 and 4 from
    them), at any kmax, from one theta_1 pass per call."""
    lat = Lattice(2.0, 2.2j)
    rng = np.random.default_rng(3)
    z = rng.uniform(-4, 4, (268, 10)) + 1j * rng.uniform(-4, 4, (268, 10))
    p, dp = lat.wp_pair(z)
    want = [lat.zeta_ladder(z, 1)[0], -p, -dp,
            -(6.0 * p * p - 0.5 * lat.g2), -12.0 * p * dp]
    passes = []
    theta1 = Lattice._theta1

    def counted(self, z0):
        passes.append(z0.shape)
        return theta1(self, z0)
    monkeypatch.setattr(Lattice, "_theta1", counted)
    for kmax in range(1, 6):
        got = lat.zeta_ladder(z, kmax)
        assert len(got) == kmax
        for k in range(kmax):
            assert np.array_equal(got[k], want[k]), (kmax, k)
    assert passes == [(z.size,)] * 5
    assert all(type(v) is complex for v in lat.zeta_ladder(0.3 + 0.1j, 5))


def test_differential_equation_of_wp():
    rng = np.random.default_rng(3)
    for lat in LATTICES:
        for _ in range(15):
            z = complex(rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.7))
            p, dp = lat.wp_pair(z)
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
        e1, e2, e3 = lat.wp(np.array([lat.omega1, lat.omega1 + lat.omega2,
                                      lat.omega2]))
        assert abs(e1 + e2 + e3) < 1e-12
        assert abs(lat.wp(lat.omega1) - e1) < 1e-9


def test_addition_formula_for_zeta():
    rng = np.random.default_rng(6)
    for lat in (SQUARE, RECT):
        for _ in range(8):
            a = complex(rng.uniform(0.1, 0.5), rng.uniform(0.05, 0.4))
            b = complex(rng.uniform(0.1, 0.5), -rng.uniform(0.05, 0.4))
            lhs = lat.zeta(a + b) - lat.zeta(a) - lat.zeta(b)
            (pa, dpa), (pb, dpb) = lat.wp_pair(a), lat.wp_pair(b)
            rhs = 0.5 * (dpa - dpb) / (pa - pb)
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
    with pytest.raises(PoleError, match="l_kernel evaluated within 1e-12"):
        l_kernel(SQUARE, 0.3, 2j)


def test_reduction_range():
    """An argument more than 2^52 periods out keeps no digit when reduced:
    every evaluation raises StructuralError naming the range, while 2^52
    periods still reduce."""
    edge = 2.0 * 2 ** 52          # 2^52 periods 2 omega1 = 2 of SQUARE
    assert SQUARE._cell(edge + 0.5j)[1].tolist() == [[2.0 ** 52, 0.0]]
    for z in (2.0 * 2 ** 53 + 0.5j, 0.3 + 2.0 ** 54 * 1j, 1e200):
        for fn in (SQUARE._cell, SQUARE.lattice_distance, SQUARE.sigma,
                   SQUARE.zeta, SQUARE.wp, lambda v: l_kernel(SQUARE, 0.3, v),
                   lambda v: SQUARE.zeta_ladder(np.array([0.3, v]), 3)):
            with pytest.raises(StructuralError, match=r"2\^52 periods"):
                fn(z)


@pytest.mark.parametrize("z", [math.nan, complex(math.nan), math.inf,
                               complex(0.3, math.nan)])
def test_non_finite_arguments_never_give_a_value(z):
    """A nan argument fails the range test of the one reduction, so every
    evaluation raises StructuralError naming it (sigma and lattice_distance
    gave nan, reduce a raw ValueError); an inf raises StructuralError or
    FloatingPointError.  None returns a value, alone or in an array."""
    for fn in (raise_on_fp_fault(OBLIQUE._cell), OBLIQUE.lattice_distance,
               OBLIQUE.sigma, OBLIQUE.zeta, OBLIQUE.wp, OBLIQUE.wp_pair,
               lambda v: OBLIQUE.zeta_ladder(np.array([0.3, v]), 3),
               lambda v: l_kernel(OBLIQUE, 0.3, v),
               lambda v: l_kernel(OBLIQUE, v, 0.3)):
        with pytest.raises((StructuralError, FloatingPointError)) as err:
            fn(z)
        if cmath.isnan(z):
            assert err.type is StructuralError
            assert "is not finite" in str(err.value)


def test_l_kernel_is_two_passes(monkeypatch):
    """One pass each of w and z (no w + z pass, no theta_1 pass: the
    theta product reads exponential tables), no near-point search, the
    ratio of the three sigmas to rounding, and -c[0] of the r-matrix
    ladder bit for bit; a scalar call runs the same array code, so it is
    the array's element bit for bit."""
    lat = Lattice(2.0, 2.2j)
    w = np.array([0.4 - 0.2j, 1.1 + 0.3j, -5.3 + 2.9j])
    z = np.array([[0.31 + 0.17j], [-2.6 + 0.5j]])
    want = -lat.sigma(w + z) / (lat.sigma(w) * lat.sigma(z))
    counts = count_passes(monkeypatch)
    got = l_kernel(lat, w, z)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    assert counts == {"_theta1": 0, "_cell": 2, "lattice_distance": 0}
    assert np.array_equal(got, -lat._coefficient_ladder(w, z, 1)[1][0][0])
    one = l_kernel(lat, complex(w[0]), complex(z[1, 0]))
    assert type(one) is complex and one == got[1, 0]
    assert l_kernel(lat, w[0], z).shape == (2, 1)


def test_reduce_and_lattice_distance_are_one_reduction(monkeypatch):
    """lattice_distance reads the one argument reduction once, with no
    theta_1 pass, and gives the argument's shape."""
    lat = Lattice(2.0, 2.2j)
    z = np.array([[0.31 + 0.17j, -5.3 + 2.9j], [1.4 - 3.1j, 7.9 + 0.2j]])
    counts = count_passes(monkeypatch)
    assert lat.lattice_distance(z).shape == z.shape
    assert counts == {"_theta1": 0, "_cell": 1, "lattice_distance": 1}


def test_l_kernel_scalar_calls_are_the_array_elements():
    """2000 scalar calls equal the elements of one array call bit for bit
    (with numpy's 0-d arithmetic, 1514 of them differed in the last bit);
    on the thin lattice (1, 0.02i), where the sigmas of the old sigma
    ratio underflowed to a FloatingPointError, both forms give the
    40-digit mpmath value -1.0282244126095775e-38 (from theta_1 on the
    reduced basis (0.02i, -1): on the basis as given the nome is 0.94) to
    1e-13."""
    lat = Lattice(2.0, 2.2j)
    rng = np.random.default_rng(12)
    w, z = rng.uniform(-3, 3, (2, 2000, 2)) @ [1, 1j]
    arr = l_kernel(lat, w, z)
    assert np.array_equal([l_kernel(lat, a, b) for a, b in zip(w, z)], arr)
    thin = Lattice(1.0, 0.02j)
    one = l_kernel(thin, 0.9, 0.05)
    assert abs(one + 1.0282244126095775e-38) < 1e-13 * 1.03e-38
    assert one == l_kernel(thin, np.array([0.9]), np.array([0.05]))[0]


def test_strided_and_scalar_arguments_are_the_contiguous_array_elements():
    """A strided view (a step, a reversal, a column) gives the values of its
    contiguous copy, and 2000 scalar calls equal the elements of one array
    call, bit for bit, for every public evaluation (before, strided views
    raised ValueError from the float view, and scalar sigma, wp and wp'
    differed in the last bit on 519, 68 and 703 of these points)."""
    lat = Lattice(2.0, 2.2j)
    rng = np.random.default_rng(13)
    z = rng.uniform(-3, 3, (2000, 2)) @ [1, 1j]
    pairs = z.reshape(-1, 2)
    evaluations = {
        "sigma": lat.sigma, "zeta": lat.zeta, "wp": lat.wp,
        "lattice_distance": lat.lattice_distance, "wp_pair": lat.wp_pair,
        "zeta_ladder": lambda v: lat.zeta_ladder(v, 2),
        "l_kernel": lambda v: l_kernel(lat, v, 0.3 + 0.2j)}
    for name, fn in evaluations.items():
        for view in (z[::2], z[::-1], pairs[:, 0]):
            got, want = fn(view), fn(view.copy())
            assert np.array_equal(got, want), name
        arr = np.asarray(fn(z))
        scalars = [fn(complex(v)) for v in z]
        assert np.array_equal(np.moveaxis(scalars, 0, -1), arr), name


def test_shortest_period_from_the_reduced_basis():
    """The Gauss-reduced basis gives the shortest nonzero period, also on
    skewed bases, against a search over small lattice vectors."""
    assert Lattice(1.0, 3 + 0.5j).shortest_period == 1.0
    assert Lattice(2.0, 2.2j).shortest_period == 4.0
    assert Lattice(2.0, 2 + 2.2j).shortest_period == 4.0
    rng = np.random.default_rng(8)
    m, n = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41))
    for _ in range(50):
        omega1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        tau = complex(rng.uniform(-6, 6), rng.uniform(0.05, 3))
        lat = Lattice(omega1, omega1 * tau)
        vecs = np.abs(2 * m * lat.omega1 + 2 * n * lat.omega2)
        assert math.isclose(lat.shortest_period, vecs[vecs > 0].min(),
                            rel_tol=1e-12)


def test_degenerate_lattice_is_rejected():
    with pytest.raises(StructuralError):
        Lattice(1.0, 2.0)        # collinear periods
    with pytest.raises(StructuralError):
        Lattice(0.0, 1j)
    # a non-finite half-period, named (was a raw ValueError from the
    # reduction loop)
    for omega1, omega2 in [(math.nan, 1j), (1.0, complex(0.0, math.inf)),
                           (1.0, complex(math.nan, 1.0))]:
        with pytest.raises(StructuralError, match="half-periods must be "
                                                  "finite"):
            Lattice(omega1, omega2)
    # the nome exp(i pi tau) underflows to 0, so theta_1'(0) would be 0
    for omega1, omega2 in [(1e-300, 1j), (1.0, 300j)]:
        with pytest.raises(StructuralError, match="nome"):
            Lattice(omega1, omega2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_lattice_within_the_pole_tolerance_is_rejected():
    """A shortest period below the pole tolerance is a typed error before
    any table is built: on (5e-324, 5e-324i) the theta frequencies pi / (2
    w1) overflowed and leaked "invalid value encountered in multiply"."""
    for omega1, omega2 in [(5e-324, 5e-324j), (1e-308, 1.1e-308j),
                           (1e-13, 1.1e-13j)]:
        with pytest.raises(StructuralError, match="the lattice is too small"):
            Lattice(omega1, omega2)


# -- one reduced basis --------------------------------------------------------


@pytest.mark.parametrize("tau", [0.5j, 5j, 0.3 + 0.01j, 0.02j, 3 + 0.5j],
                         ids=str)
def test_differential_equation_of_wp_on_any_basis(tau):
    """wp'^2 = 4 wp^3 - g2 wp - g3 to 1e-12 relative to its largest term on
    Lattice(1, tau), whatever the shape of the basis as given: thin (0.02i
    read 2.6 when the theta series ran on the given basis), skewed
    (3 + 0.5i) or both (0.3 + 0.01i).  The real offsets shrink with |tau|,
    so that on the thin lattice the points sit near its lines of poles,
    where wp varies."""
    lat = Lattice(1.0, tau)
    z = (np.array([0.3, 0.11, -0.45, 0.7, 1.6]) * min(1.0, abs(tau))
         + np.array([0.37, 0.61, 0.23, -0.8, 1.3]) * tau)
    p, dp = lat.wp_pair(z)
    res = dp * dp - (4.0 * p ** 3 - lat.g2 * p - lat.g3)
    scale = np.maximum(np.abs(dp) ** 2, 4.0 * np.abs(p) ** 3)
    assert np.max(np.abs(res) / scale) <= 1e-12


def test_thin_lattice_past_the_nome_underflow_is_rejected():
    """(1, 0.002i) reduces to Im(tau) = 500, where the nome underflows."""
    with pytest.raises(StructuralError,
                       match=r"reduced period ratio Im\(tau\) = 500 "):
        Lattice(1.0, 0.002j)


def test_lattice_distance_on_a_skewed_basis():
    """On (1, 3 + 0.5i) the distance to the lattice matches a brute-force
    search over |m|, |n| <= 30 at 20000 points of [-5, 5]^2 (the near
    points of the basis as given read up to 18% too far)."""
    lat = Lattice(1.0, 3 + 0.5j)
    rng = np.random.default_rng(10)
    z = rng.uniform(-5, 5, 20000) + 1j * rng.uniform(-5, 5, 20000)
    m, n = np.meshgrid(np.arange(-30, 31), np.arange(-30, 31))
    points = (2 * m * lat.omega1 + 2 * n * lat.omega2).ravel()
    brute = np.concatenate([np.abs(chunk[:, None] - points).min(axis=1)
                            for chunk in np.split(z, 40)])
    assert np.allclose(lat.lattice_distance(z), brute, rtol=1e-12,
                       atol=1e-14)
    assert abs(lat.lattice_distance(3.133 + 3.444j) - 0.974) < 5e-4


REFERENCE = Lattice(2.0, 2.2j)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
def test_values_do_not_depend_on_the_basis(word):
    """A basis of the reference lattice (2, 2.2i) made by the SL(2,Z) word
    prod T^k S, tau -> k - 1/tau, gives sigma, zeta, wp, the r-matrix
    ladder and g2, g3 of the reference basis to 1e-13 relative; eta1 and
    eta2 belong to the periods as given, and the one reduction puts z0 in
    the reduced centred cell of the reference basis.
    Longer words give bases whose rounding alone moves the lattice past
    that tolerance, and the ladder's mixed orders du = 1, k >= 1 cancel
    (ROADMAP item 2), so the u-derivative is checked at k = 0."""
    omega1, omega2 = 2.0, 2.2j
    for k in word:
        omega1, omega2 = omega2, k * omega2 - omega1
    lat = Lattice(omega1, omega2)
    z = np.array([0.31 + 0.17j, -0.45 + 0.52j, 1.8 - 1.3j, -2.1 + 1.6j])
    u = np.array([[0.4 - 0.2j], [-1.3 + 0.9j]])

    def close(got, want, tol=1e-13):
        got, want = np.asarray(got), np.asarray(want)
        return np.all(np.abs(got - want) <= tol * np.abs(want))
    for name in ("sigma", "zeta", "wp"):
        assert close(getattr(lat, name)(z), getattr(REFERENCE, name)(z))
    for kmax, du in ((4, 0), (1, 1)):
        # z on a unit roots' axis, as the r tables pass it
        got = lat._coefficient_ladder(u, z[:, None, None], kmax, du)
        want = REFERENCE._coefficient_ladder(u, z[:, None, None], kmax, du)
        for a, b in zip(got[0] + sum(got[1], []), want[0] + sum(want[1], [])):
            assert close(a, b)
    assert close([lat.g2, lat.g3], [REFERENCE.g2, REFERENCE.g3])
    for period, eta in ((2 * omega1, lat.eta1), (2 * omega2, lat.eta2)):
        jump = lat.zeta(z + period) - lat.zeta(z)
        assert np.all(np.abs(jump - 2 * eta) <= 1e-12 * abs(period))
    assert np.allclose(lat._cell(z)[0], REFERENCE._cell(z)[0], rtol=0,
                       atol=1e-12)


def test_sheared_and_swapped_bases_give_the_same_bits():
    """The reference basis (2, 2.2i), its sheared basis (2, 2 + 2.2i) and
    its swapped basis (2.2i, -2), which reduces to (-2, -2.2i): w1 -> -w1
    flips the theta frequencies and the odd columns of the term table
    exactly, so wp_pair, sigma, zeta and zeta_ladder at 200 z, the
    unreduced flow on 50 stacked states and the r table with its mixed row
    (ranks 2 and 4) agree bit for bit."""
    rng = np.random.default_rng(46)
    z = rng.uniform(-5, 5, 200) + 1j * rng.uniform(-5, 5, 200)
    runs = []
    for omega in ((2.0, 2.2j), (2.0, 2 + 2.2j), (2.2j, -2.0)):
        lat = Lattice(*omega)
        out = [*lat.wp_pair(z), lat.sigma(z), lat.zeta(z),
               *lat.zeta_ladder(z, 5)]
        for rank in (2, 4):
            sys_ = make_system("elliptic", rank, lattice=lat)
            rs, draw = sys_.rs, np.random.default_rng(rank)
            simple = draw.uniform(0.25, 0.6, (50, rank)) \
                + 1j * draw.uniform(-0.25, 0.25, (50, rank))
            q = np.linalg.solve(rs.alpha_h[:rank], simple.T).T
            spin = draw.normal(size=(50, rs.dim)) \
                + 1j * draw.normal(size=(50, rs.dim))
            ys = np.concatenate([q, draw.normal(size=(50, rank)) + 0j,
                                 spin], 1)
            nodes = 0.7 * np.exp(2j * np.pi * draw.uniform(0, 1, (3, 50)))
            out += [_flow(sys_, ys, False), _r_table(sys_, q, nodes, 3, du=1)]
        runs.append(out)
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("lam", [1e-10, 1e110, 1e200], ids=str)
def test_values_scale_with_the_lattice(lam):
    """On the reference lattice scaled by lam, eta1 and eta2 scale as 1 /
    lam, zeta as 1 / lam and wp, where it stays in the float range, as 1 /
    lam^2, to 1e-13 relative, in and out of the centred cell.  The cubes of
    the theta z-frequencies underflow past |w1| = 1e103, so eta1 is not
    read from them: an eta1 of 0 moves wp by 2.6% and zeta in the cell m =
    1 by 25% at lam = 1e110."""
    lat = Lattice(2.0 * lam, 2.2j * lam)
    z = np.array([0.3 + 0.2j, 4.3 + 0.2j, 0.1 - 0.05j, -3.7 + 4.6j])

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert close(np.array([lat.eta1, lat.eta2]) * lam,
                 np.array([REFERENCE.eta1, REFERENCE.eta2]))
    assert close(lat.zeta(lam * z) * lam, REFERENCE.zeta(z))
    if lam < 1e150:
        assert close(lat.wp(lam * z) * lam ** 2, REFERENCE.wp(z))


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
    evaluations = {"sigma": lat.sigma, "zeta": lat.zeta, "wp": lat.wp,
                   "wp_prime": lambda v: lat.wp_pair(v)[1]}
    for name, fn in evaluations.items():
        got = fn(z)
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
        for name, fn in {"sigma": lat.sigma, "zeta": lat.zeta, "wp": lat.wp,
                         "wp_prime": lambda v: lat.wp_pair(v)[1],
                         "lattice_distance": lat.lattice_distance}.items():
            arr = fn(z)
            assert arr.shape == z.shape
            for idx in np.ndindex(z.shape):
                val = fn(complex(z[idx]))
                assert type(val) is (float if name == "lattice_distance"
                                     else complex)
                assert close(arr[idx], val), (name, z[idx])
        rows = [[lat.zeta_ladder(complex(v), 5) for v in row] for row in z]
        for k, arr in enumerate(lat.zeta_ladder(z, 5)):
            assert close(arr, [[vals[k] for vals in row] for row in rows])
        cells = [lat._cell(complex(v)) for v in z.ravel()]
        for k in (0, 1):
            assert np.array_equal(np.concatenate([c[k] for c in cells]),
                                  lat._cell(z)[k])
        assert close(l_kernel(lat, w, z), [
            [l_kernel(lat, complex(a), complex(b)) for a, b in zip(w, row)]
            for row in z])


@pytest.mark.parametrize("omega", [(2.0, 2.2j), (1.0, 0.3 + 0.8j)])
def test_zeta_ladder_of_any_order_against_mpmath(omega):
    """zeta and its z-derivatives of orders 1-7 (orders past 4 from the
    Leibniz ladder of wp'' = 6 wp^2 - g2/2) match mpmath derivatives of the
    30-digit theta_2 form of wp to 1e-13 relative, in and out of the
    centred cell."""
    mp = pytest.importorskip("mpmath")
    lat = Lattice(*omega)
    wp_mp = mp_weierstrass(*omega)["wp"]
    z = np.array([0.31 + 0.17j, -0.45 + 0.52j, 0.8 - 0.3j,
                  0.31 + 0.17j + 2 * lat.omega1 - 2 * lat.omega2])
    got = lat.zeta_ladder(z, 8)
    assert len(got) == 8
    for k in range(1, 8):
        want = np.array([-complex(mp.diff(wp_mp, complex(zz), k - 1))
                         for zz in z])
        rel = np.abs(got[k] - want) / np.abs(want)
        assert np.max(rel) < 1e-13, (k, np.max(rel))


def mp_kronecker(omega1: complex, omega2: complex):
    """c(u, z) = sigma(u + z) / (sigma(u) sigma(z)) at 40 digits from
    mpmath's theta_1 at the unreduced arguments (DLMF 23.6.9), as a
    function of mpmath complex u and z for mp.diff."""
    mp = pytest.importorskip("mpmath")
    w1 = mp.mpc(omega1)
    q = mp.exp(1j * mp.pi * mp.mpc(omega2) / w1)
    scale = mp.pi / (2 * w1)
    t1p = mp.jtheta(1, 0, q, 1)
    eta1 = -mp.pi ** 2 * mp.jtheta(1, 0, q, 3) / (12 * w1 * t1p)

    def sigma(z):
        return mp.exp(eta1 * z * z / (2 * w1)) * mp.jtheta(1, scale * z, q) \
            / (scale * t1p)
    return lambda u, z: sigma(u + z) / (sigma(u) * sigma(z))


@pytest.mark.parametrize("omega", [(2.0, 2.2j), (2.0, 2 + 2.2j),
                                   (1.0, 0.3 + 0.8j)], ids=str)
def test_coefficient_ladder_against_mpmath(omega):
    """The r-matrix ladder of c = -l(u, z), kz = 0-3 with du = 0 and 1, at
    |u + z| = 1e-2, 1e-4 and 1e-6 near the lattice points 0 and 2 omega1 -
    2 omega2, matches 40-digit mpmath derivatives of the sigma ratio to
    1e-13 (du = 0) and 1e-11 (du = 1) relative to max(1, |value|).  The
    zeta-difference ladder it replaces was off by up to 8.3e-6 at kz = 3,
    |u + z| = 1e-6 on (2, 2.2i)."""
    mp = pytest.importorskip("mpmath")
    lat = Lattice(*omega)
    z = 0.37 + 0.21j
    u = np.array([point - z + d * cmath.exp(1j * angle)
                  for point, angle in ((0, 0.7), (2 * lat.omega1
                                                  - 2 * lat.omega2, 2.1))
                  for d in (1e-2, 1e-4, 1e-6)])
    _, rows = raise_on_fp_fault(lat._coefficient_ladder)(u, z, 4, 1)
    oracle = mp_kronecker(*omega)
    with mp.workdps(40):
        for du, bound in ((0, 1e-13), (1, 1e-11)):
            for k in range(4):
                want = np.array([complex(mp.diff(
                    oracle, (mp.mpc(a), mp.mpc(z)), (du, k))) for a in u])
                err = np.abs(rows[du][k] - want) / np.maximum(1.0,
                                                              np.abs(want))
                assert np.max(err) < bound, (du, k, np.max(err))


def test_mixed_row_takes_z_on_a_unit_roots_axis():
    """The mixed row sums its Lambert terms as one matrix product per z and
    sample, so z takes a unit roots' axis (the r tables' z[..., None]): a z
    that varies along the roots raises instead of giving a row at one z,
    and the du = 0 rows still broadcast elementwise."""
    lat = Lattice(2.0, 2.2j)
    u = np.array([[0.4 - 0.2j, 1.1 + 0.3j, -0.7 + 0.5j]])
    z = np.array([[0.31 + 0.17j, -0.2 + 0.4j, 0.5 - 0.1j]])
    ladder = raise_on_fp_fault(lat._coefficient_ladder)
    assert ladder(u, z[:, :1], 3, 1)[1][1][2].shape == (1, 3)
    with pytest.raises(ValueError):
        ladder(u, z, 3, 1)
    assert ladder(u, z, 3)[1][0][2].shape == (1, 3)


def test_coefficient_ladder_where_imaginary_parts_are_large_and_opposite():
    """On (pi/2, 12i), at u = 0.3 + 11i and z = 0.4 - 10.9i, the theta
    product of e^{+-i(2n+1)(v_u + v_z)} as products of the u and z tables
    keeps its digits: every row matches 40-digit mpmath to 1e-13 relative,
    where the sin/cos addition theorem for sin((2n+1)(v_u + v_z)) is off by
    1e12 at n = 1, and K = cot a + cot b + ... would cancel nine digits."""
    mp = pytest.importorskip("mpmath")
    lat = Lattice(math.pi / 2, 12j)
    u, z = np.array([0.3 + 11j]), 0.4 - 10.9j
    _, rows = raise_on_fp_fault(lat._coefficient_ladder)(u, z, 4, 1)
    oracle = mp_kronecker(math.pi / 2, 12j)
    with mp.workdps(40):
        for du in (0, 1):
            for k in range(4):
                want = complex(mp.diff(oracle, (mp.mpc(u[0]), mp.mpc(z)),
                                       (du, k)))
                assert abs(rows[du][k][0] - want) < 1e-13 * abs(want), (du, k)


def test_wp_on_a_thin_lattice_against_mpmath():
    """Lattice(1, 0.02i) evaluates on its reduced basis, Im(tau) = 50, with
    two theta terms; wp, wp', zeta and sigma match 30-digit mpmath values on
    the basis as given (nome exp(-0.02 pi)) to 1e-12 relative (theta series
    on the basis as given read 1.9 and 3.0 for wp and wp'), near the lines
    of poles Re z = 2m, where wp varies, across the thin period 0.04i and in
    other cells.  sigma underflows to 0 in the cells of Re z = 2 and -4
    (eta1 = -1978 on the reduced basis), so it is checked on the points of
    Re z in (-1, 1)."""
    lat = Lattice(1.0, 0.02j)
    assert lat._half.size == 2
    oracle = mp_weierstrass(1.0, 0.02j)
    z = np.array([x + t * 0.04j for x in (0.007, -0.013, 0.019, 2.011, -3.995)
                  for t in (0.1, 0.3, 0.45, 0.7, -2.6)])
    p, dp = lat.wp_pair(z)
    for name, got, at in (("wp", p, z), ("wp_prime", dp, z),
                          ("zeta", lat.zeta(z), z),
                          ("sigma", lat.sigma(z[:15]), z[:15])):
        want = np.array([complex(oracle[name](complex(zz))) for zz in at])
        rel = np.abs(got - want) / np.abs(want)
        assert np.max(rel) < 1e-12, (name, at[np.argmax(rel)], np.max(rel))
