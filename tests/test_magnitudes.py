"""Magnitude fuzz of the algebra exports and the phase exports that read
them: coordinates of +-1e15, +-1e200, +-1e300 and subnormals, mixed with
ordinary values, with every warning an error.  Each call returns a finite
value that an mpmath oracle (no exponent range) confirms, or raises a
SpincmError or a FloatingPointError; an inf, a nan or a RuntimeWarning
fails the test.

The oracle's error model is the normwise one of floating point with gradual
underflow: a product of factors with max-norms n_1..n_k is correct to
1e-12 n_1..n_k, plus an underflow floor of 2^-1000 that the factors above 1
may amplify (a subnormal intermediate keeps its absolute error, not its
relative one)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincm.errors import SpincmError
from spincm.phase import (PhasePoint, bracket_full, gauge_g, lift_reduced,
                          momentum_J, project_pi, reduced_roots, torus_action)
from spincm.rootsys import (build_root_system, bracket, form, matrix_rep,
                            torus_adjoint)

mp = pytest.importorskip("mpmath")

# every warning an error, but the DeprecationWarnings of the test plugins
pytestmark = pytest.mark.filterwarnings("error",
                                        "ignore::DeprecationWarning")

# The extremes (the last three are subnormal), among ordinary values; a
# pool, as drawing st.floats per coordinate takes 4 times as long.
EXTREMES = [1e15, 1e200, 1e300, 2.2e-308, 1e-310, 5e-324]
ORDINARY = [1.0, 0.3, 0.7, 1.9, 0.05, 2.0, 0.6180339887498949,
            1.4142135623730951]
REALS = st.sampled_from([0.0] + [sign * m for m in EXTREMES + ORDINARY
                                 for sign in (1, -1)])
COORDS = st.builds(complex, REALS, REALS)


def row(draw, n: int) -> np.ndarray:
    return np.array(draw(st.lists(COORDS, min_size=n, max_size=n)),
                    dtype=complex)


@st.composite
def algebra_cases(draw):
    """A root system of rank 1-3, two algebra rows x and y, and torus
    log-coordinates c."""
    rs = build_root_system("A", draw(st.integers(1, 3)))
    return rs, row(draw, rs.dim), row(draw, rs.dim), row(draw, rs.rank)


@st.composite
def point_cases(draw, reduced: bool, rows: int = 0):
    """A root system of rank 1-3, a state row of the kind ``reduced``, torus
    log-coordinates c, and ``rows`` differential rows of the state's
    width."""
    rs = build_root_system("A", draw(st.integers(1, 3)))
    width = 2 * rs.rank + (rs.n_roots - rs.rank if reduced else rs.dim)
    return (rs, row(draw, width), row(draw, rs.rank),
            *(row(draw, width) for _ in range(rows)))


def outcome(call):
    """call()'s value, checked finite, or None if it raised a SpincmError or
    a FloatingPointError."""
    try:
        value = call()
    except (SpincmError, FloatingPointError):
        return None
    data = value.y if isinstance(value, PhasePoint) else value
    assert np.isfinite(data).all()
    return value


# -- the oracle --------------------------------------------------------------


def norm(v) -> mp.mpf:
    return max((abs(mp.mpc(e)) for e in np.ravel(v)), default=mp.mpf(0))


def bound(*norms) -> mp.mpf:
    """The error allowed for a product of factors with these max-norms."""
    return 1e-12 * mp.fprod(norms) + mp.mpf(2) ** -1000 * mp.fprod(
        max(mp.mpf(1), m) for m in norms)


def assert_close(got, want, tol):
    """Each entry of got within tol (one per entry, or one for all) of the
    mpmath value want."""
    got = np.ravel(got)
    tol = np.ravel(np.broadcast_to(np.array(tol, dtype=object), got.shape))
    for g, w, t in zip(got, np.ravel(want), tol):
        assert abs(mp.mpc(g) - w) <= t, (g, w, t)


def mp_matrix(rs, v):
    """The defining matrix of the coordinates v: the Cartan coordinates on
    the diagonal through h_diag, each root coordinate at its entry."""
    m = mp.zeros(rs.matrix_size)
    for j in range(rs.matrix_size):
        m[j, j] = mp.fsum(mp.mpc(v[i]) * rs.h_diag[i, j]
                          for i in range(rs.rank))
    for k, (i, j) in enumerate(rs.eps_pairs):
        m[i, j] = mp.mpc(v[rs.rank + k])
    return m


def mp_coords(rs, m):
    """Coordinates of a traceless matrix: the diagonal against h_diag, the
    root entries read off."""
    return [mp.fsum(m[j, j] * rs.h_diag[i, j] for j in range(rs.matrix_size))
            for i in range(rs.rank)] + [m[i, j] for i, j in rs.eps_pairs]


def mp_form(rs, x, y):
    return mp.fsum(mp.mpc(x[k]) * mp.mpc(y[rs.dual_index[k]])
                   for k in range(rs.dim))


def mp_torus(rs, c, x):
    """torus_adjoint's value and error allowance: a root coordinate times
    exp(alpha(log h)), whose float exponent is rounded to ~eps times the
    sum of |pairing c| (the condition of exp)."""
    want = [mp.mpc(v) for v in x[:rs.rank]]
    tol = [bound(norm(x[:rs.rank]))] * rs.rank
    for k in range(rs.n_roots):
        pair = rs.root_pairings[k, :rs.rank]
        factor = mp.exp(mp.fsum(int(m) * mp.mpc(cj) for m, cj in zip(pair, c)))
        value = mp.mpc(x[rs.rank + k]) * factor
        cond = 8 * 2.0 ** -52 * sum(abs(int(m)) * abs(complex(cj))
                                    for m, cj in zip(pair, c))
        want.append(value)
        tol.append(abs(value) * cond + bound(abs(mp.mpc(x[rs.rank + k])),
                                             abs(factor)))
    return want, tol


# -- one check per export: its outcome against the oracle -------------------


def check_bracket(rs, x, y):
    got = outcome(lambda: bracket(rs, x, y))
    if got is not None:
        mx, my = mp_matrix(rs, x), mp_matrix(rs, y)
        assert_close(got, mp_coords(rs, mx * my - my * mx),
                     bound(norm(x), norm(y)))


def check_form(rs, x, y):
    got = outcome(lambda: form(rs, x, y))
    if got is not None:
        assert isinstance(got, complex)
        assert_close(got, [mp_form(rs, x, y)], bound(norm(x), norm(y)))


def check_matrix_rep(rs, x):
    got = outcome(lambda: matrix_rep(rs, x))
    if got is not None:
        want = mp_matrix(rs, x)
        assert_close(got, [want[i, j] for i in range(rs.matrix_size)
                           for j in range(rs.matrix_size)], bound(norm(x)))


def check_torus_adjoint(rs, c, x):
    got = outcome(lambda: torus_adjoint(rs, c, x))
    if got is not None:
        assert_close(got, *mp_torus(rs, c, x))


def check_torus_action(x, c):
    got = outcome(lambda: torus_action(c, x))
    if got is not None:
        assert np.array_equal(got.y[:2 * x.rs.rank], x.y[:2 * x.rs.rank])
        assert_close(got.xi, *mp_torus(x.rs, c, x.xi))


def check_momentum_J(x):
    assert np.array_equal(outcome(lambda: momentum_J(x)), x.xi[:x.rs.rank])


def check_lift_reduced(x):
    n = x.rs.rank
    assert np.array_equal(outcome(lambda: lift_reduced(x)).y, np.concatenate(
        [x.q, x.p, np.zeros(n), np.ones(n), x.spin]))


def check_gauge_g(x):
    rs = x.rs
    got = outcome(lambda: gauge_g(x))
    if got is not None:
        logs = [mp.log(mp.mpc(v)) for v in x.xi[rs.rank:2 * rs.rank]]
        want = [mp.fsum(logs[j] * float(rs.cartan_inverse[j][i])
                        for j in range(rs.rank)) for i in range(rs.rank)]
        assert_close(got, want, bound(rs.rank * max(abs(v) for v in logs)))


def check_project_pi(x):
    """s_gamma = xi_gamma prod_j xi_{alpha_j}^{-m_gamma^j}."""
    rs, n = x.rs, x.rs.rank
    got = outcome(lambda: project_pi(x))
    if got is not None:
        assert np.array_equal(got.y[:2 * n], x.y[:2 * n])
        simple = [mp.mpc(v) for v in x.xi[n:2 * n]]
        for k, root in enumerate(reduced_roots(rs)):
            factors = [mp.mpc(x.xi[2 * n + k])] + [
                simple[j] ** -m for j, m in enumerate(root)]
            assert_close(got.spin[k], [mp.fprod(factors)],
                         bound(*(abs(f) for f in factors)))


def pulled_back(rs, s, ds):
    """The spin row over g of F o pi at the slice lift of s, from the row ds
    of F over the reduced spins: entry k is dF/dxi_{dual k}, from
    ds_gamma = dxi_gamma - s_gamma sum_j m_gamma^j dxi_{alpha_j}."""
    n, full = rs.rank, [mp.mpf(0)] * rs.dim     # dF/dxi_k
    for g, root in enumerate(reduced_roots(rs)):
        full[2 * n + g] += mp.mpc(ds[g])
        for j, m in enumerate(root):
            full[n + j] -= mp.mpc(ds[g]) * mp.mpc(s[g]) * m
    return [full[k] for k in rs.dual_index]


def check_bracket_full(x, a, b):
    """{F, G} = dF/dp dG/dq - dF/dq dG/dp + tr(X [A, B]), X the matrix of
    xi and A, B those of the spin rows; at a reduced point, the same at the
    slice lift with the spin rows pulled back (:func:`pulled_back`)."""
    rs, n = x.rs, x.rs.rank
    got = outcome(lambda: bracket_full(x, a, b))
    if got is not None:
        spins, chain = [a[2 * n:], b[2 * n:]], mp.mpf(1)
        if x.reduced:
            chain = 1 + n * norm(x.spin)
            spins = [pulled_back(rs, x.spin, v) for v in spins]
        ma, mb = (mp_matrix(rs, v) for v in spins)
        spin = mp_matrix(rs, x.xi) * (ma * mb - mb * ma)
        ca, cb = ([mp.mpc(v) for v in row[:2 * n]] for row in (a, b))
        want = (mp.fsum(ca[n + i] * cb[i] - ca[i] * cb[n + i]
                        for i in range(n))
                + mp.fsum(spin[i, i] for i in range(rs.matrix_size)))
        tol = 2 * bound(norm(a[:2 * n]), norm(b[:2 * n])) + 4 * rs.dim * bound(
            norm(a[2 * n:]), chain, norm(x.xi), chain, norm(b[2 * n:]))
        assert_close(got, [want], tol)


# -- the fuzz: 300 draws each -------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(algebra_cases())
def test_algebra_exports_at_any_magnitude(case):
    rs, x, y, c = case
    check_bracket(rs, x, y)
    check_form(rs, x, y)
    check_matrix_rep(rs, x)
    check_torus_adjoint(rs, c, x)


@settings(max_examples=300, deadline=None)
@given(point_cases(False))
def test_torus_and_reduction_exports_at_any_magnitude(case):
    rs, y, c = case
    x = PhasePoint(rs, y)
    check_torus_action(x, c)
    check_momentum_J(x)
    check_gauge_g(x)
    check_project_pi(x)
    # the spins past the simple roots read as the s of a reduced point
    check_lift_reduced(PhasePoint(rs, np.concatenate(
        [x.q, x.p, x.xi[2 * rs.rank:]])))


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda reduced: point_cases(reduced, 2)))
def test_bracket_full_at_any_magnitude(case):
    rs, y, _, a, b = case
    check_bracket_full(PhasePoint(rs, y), a, b)
