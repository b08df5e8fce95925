"""Weierstrass elliptic functions sigma, zeta, wp and the two-variable kernel
l(w, z) = -sigma(w+z) / (sigma(w) sigma(z)).

Everything is computed from the Jacobi theta function theta_1 on the
Gauss-reduced basis w1, w2 of the lattice (DLMF 23.18) with argument
reduction to its centred cell: Im(w2/w1) >= sqrt(3)/2 takes at most 6 theta
terms, one term set per lattice, and the quasi-periodicity factors are exact
closed forms, for any basis and argument.  g2 and g3 come from the branch
points, not sums.

Every evaluation takes a scalar or a numpy array of arguments, of any
strides, and runs the same array code either way: the argument enters as
a contiguous array of at least one dimension, so a scalar call is its
array element bit for bit, and a scalar in gives a Python scalar out.  Each
reads one pass per argument: the reduction (StructuralError past 2^52
periods) and the pole guard if asked.  sigma, zeta and wp then read one
sin/cos pass on the flat argument (``Lattice._pass``), theta_1 with three
z-derivatives: a dot product of [sin | cos](f_n z) at the frequencies f_n =
(2n+1) pi / (2 w1) with a term table; results take the argument's shape
last.  The r-matrix ladder (``Lattice._coefficient_ladder``) and l take the
tables of e^{+-i f_n z} instead, and read l as a theta product (DLMF 23.6.9
with 20.2.1), theta_1'(0) E theta_1(v_w + v_z) / (theta_1(v_w)
theta_1(v_z)) with one exponential E and theta_1'(0) in z: the terms of
theta_1(v_w + v_z) are products of the w and z tables, so there is no w + z
pass, no sigma and no zeta difference, and w + z on the lattice is a regular
zero.  Its mixed row is one matrix product per z and sample.  numpy
floating-point faults raise FloatingPointError, not inf or nan.

Conventions: half-periods omega1, omega2 with Im(omega2/omega1) > 0; the
lattice is 2*omega1*Z + 2*omega2*Z.  omega1, omega2, eta1 and eta2 refer to
this basis as given.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import (PoleError, StructuralError, coords, raise_on_fp_fault,
                     scalar)

POLE_TOL = 1e-12
_REL_CUTOFF = 1e-18
# the derivative order through which the ladder's term tables keep that cutoff
_ORDERS = 8
# past 2^52 periods a reduced argument has no correct digit
_RANGE = 2.0 ** 52


def _leibniz(a, b, k: int):
    """The k-th derivative of a product from the ladders of its factors,
    sum_j C(k, j) a[j] b[k - j]."""
    return sum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1))


def _cot_csc_ladder(x, kmax: int) -> tuple[list, list]:
    """cot x, csc x and their derivatives of orders below max(kmax, 2), by
    Leibniz over their ODEs cot' = -1 - cot^2 and csc' = -csc cot."""
    cot, csc = 1.0 / np.tan(x), 1.0 / np.sin(x)
    cot, csc = [cot, -1.0 - cot * cot], [csc, -csc * cot]
    for k in range(1, kmax - 1):
        cot.append(-_leibniz(cot, cot, k))
        csc.append(-_leibniz(csc, cot, k))
    return cot, csc


def _theta_sums(plus, minus, freq, orders: int) -> list:
    """theta_1 = sum_n (plus_n - minus_n) and its derivatives of orders
    below ``orders`` from its exponential tables (terms on the leading
    axis), plus_n growing as e^{freq_n x} and minus_n as e^{-freq_n x}:
    sum_n freq_n^k (plus_n - (-1)^k minus_n), as elementwise products added
    term by term in order, so every element sees the same additions
    whatever the trailing shape (a matrix product, or numpy's reduction,
    would round a scalar call apart from its array element)."""
    parts = [np.subtract(plus, minus)]
    if orders > 1:
        parts.append(np.add(plus, minus))
    weight = freq.reshape((-1,) + (1,) * (plus.ndim - 1))
    return [functools.reduce(np.add, parts[k % 2] if k == 0
                             else np.multiply(parts[k % 2], weight ** k))
            for k in range(orders)]


def _li_neg(x, k: int):
    """The polylogarithm Li_{-k}(x) = sum_n n^k x^n = x A_k(x) / (1 -
    x)^(k+1), A_k the Eulerian polynomial, for |x| < 1."""
    poly = 0.0
    for j in reversed(range(max(k, 1))):
        poly = poly * x + sum((-1) ** i * math.comb(k + 1, i)
                              * (j + 1 - i) ** k for i in range(j + 1))
    return x * poly / (1.0 - x) ** (k + 1)


@functools.lru_cache(maxsize=None)
def _vcscv_series(kmax: int) -> np.ndarray:
    """Row k < kmax: the k-th derivative of the Taylor series of v csc v
    (16 terms) as coefficients of v^(k mod 2) (v^2)^l: the reciprocal of
    the series of sin v / v, differentiated termwise."""
    den = [(-1) ** n / math.factorial(2 * n + 1) for n in range(16)]
    out = [1.0]
    for n in range(1, 16):
        out.append(-sum(den[i] * out[n - i] for i in range(1, n + 1)))
    return np.array([[out[n] * math.perm(2 * n, k) if n < 16 else 0.0
                      for n in range((k + 1) // 2, (k + 1) // 2 + 16)]
                     for k in range(kmax)])


def _vcscv_ladder(v, kmax: int) -> list:
    """v csc v and its v-derivatives of orders below kmax, regular at v =
    0: v / sin v, and for k >= 1 the Taylor series where |v| < 1/2 (16
    terms keep its tail below 1e-18 through order 5), else v csc^(k) v + k
    csc^(k-1) v from :func:`_cot_csc_ladder`, which cancels as |v|^-k."""
    out = [v / np.sin(v)]
    if kmax == 1:
        return out
    small = np.abs(v) < 0.5
    w = np.where(small, v, 0.0)
    powers = (w * w)[..., None] ** np.arange(16)
    coef = _vcscv_series(kmax)
    v = np.where(small, 1.0, v)
    csc = _cot_csc_ladder(v, kmax)[1]
    series = [np.multiply(powers, coef[k]).sum(-1) for k in range(kmax)]
    return out + [np.where(small, w * series[k] if k % 2 else series[k],
                           v * csc[k] + k * csc[k - 1])
                  for k in range(1, kmax)]


def _value(a, z):
    """A result in the shape of the argument z: a Python scalar for a
    scalar z, else the array."""
    return scalar(np.reshape(a, np.shape(z)))


class Lattice:
    """Period lattice with cached theta constants and theta_1 term table.

    Parameters
    ----------
    omega1, omega2 : complex
        Half-periods.  Im(omega2/omega1) must be positive.
    """

    def __init__(self, omega1: complex, omega2: complex):
        omega1, omega2 = (coords(w, what).item() for w, what in (
            (omega1, "omega1"), (omega2, "omega2")))
        if not (cmath.isfinite(omega1) and cmath.isfinite(omega2)):
            raise StructuralError(f"half-periods must be finite, got "
                                  f"omega1 = {omega1}, omega2 = {omega2}")
        if omega1 == 0:
            raise StructuralError("omega1 must be nonzero")
        tau = omega2 / omega1
        if tau.imag <= 0:
            raise StructuralError(
                f"Im(omega2/omega1) = {tau.imag:g} must be positive")
        self.omega1, self.omega2 = omega1, omega2

        # Lagrange (Gauss) reduction by SL(2,Z) steps (DLMF 23.18): then
        # |w1| <= |w2| and |Re(w2/w1)| <= 1/2, so Im(tau) >= sqrt(3)/2.
        # Everything below reads w1, w2; public values are mapped back.
        x, y = omega1, omega2
        while abs(r := y - round((y / x).real) * x) < abs(x):
            x, y = r, -x
        w1, w2 = self._w1, self._w2 = x, r
        self.shortest_period = 2 * abs(w1)
        tau = w2 / w1
        nome = cmath.exp(1j * math.pi * tau)

        # theta_1(v) = sum_n t_n sin((2n+1) v), t_n = 2(-1)^n nome^((n+1/2)^2)
        # at v = pi z / (2 w1), the z-frequencies f_n = (2n+1) pi / (2 w1).
        # The ladder's theta_1(v_u + v_z) runs on the doubled cell |Im v| <=
        # pi Im(tau), where term n of the k-th v-derivative is at most
        # (2n+1)^k exp(-pi Im(tau) (n^2 - n)) times the leading one: keep the
        # fewest terms whose dropped tail of these bounds, through order
        # _ORDERS, is below _REL_CUTOFF (at most 6), for the centred cell too
        k = np.arange(12)
        bound = (2.0 * k + 1.0) ** _ORDERS * np.exp(
            -math.pi * tau.imag * (k * k - k))
        n_terms = int(k[np.cumsum(bound[::-1])[::-1] < _REL_CUTOFF][0])
        terms = np.array([2.0 * (-1) ** n * nome ** ((n + 0.5) ** 2)
                          for n in range(n_terms)])
        if terms[0] == 0:
            raise StructuralError(
                f"the reduced period ratio Im(tau) = {tau.imag:g} is too "
                f"large: the nome underflows and theta_1'(0) vanishes")
        if abs(w1) < POLE_TOL:
            # wp at the half-period w1 would be within the pole guard, and
            # the tables below leave the float range first
            raise StructuralError(
                f"the shortest period {self.shortest_period:g} is within "
                f"the pole tolerance {POLE_TOL:g}: the lattice is too small")
        scale = math.pi / (2.0 * w1)
        odd = 2.0 * np.arange(n_terms) + 1.0
        self._freq = freq = odd * scale
        # rows: the sin terms, then the cos terms; columns: theta_1 and its
        # first, second and third z-derivatives, the powers of f as products
        # so that w1 -> -w1 flips f^3 and the odd columns exactly
        zero, cube = np.zeros(n_terms), freq * freq * freq
        self._table = np.concatenate([
            np.stack([terms, zero, -terms * freq * freq, zero], axis=1),
            np.stack([zero, terms * freq, zero, -terms * cube], axis=1)])
        self._theta1p0 = complex(terms @ freq)
        # sin x = (e^{ix} - e^{-ix}) / 2i: the theta_1 coefficients over 2i,
        # and the frequencies i f_n of e^{i f_n z}
        self._half = terms / 2j
        self._ifreq = 1j * freq
        # the mixed row's Lambert series (_coefficient_ladder): term m is at
        # most m exp(-pi Im(tau) (m - 1)) / (1 - exp(-pi Im(tau))) on the
        # centred cell; keep the fewest whose dropped tail is below
        # _REL_CUTOFF (at most 17)
        k = np.arange(1, 41)
        bound = k * np.exp(-math.pi * tau.imag * (k - 1.0))
        m = np.arange(1.0, k[np.cumsum(bound[::-1])[::-1] < _REL_CUTOFF][0])
        # q^{2m}, the u-frequency 2 i m pi / (2 w1) of e^{2ima}, and 4m
        self._lambert = (nome ** (2.0 * m), 2j * m * scale, 4.0 * m)
        # eta1 = zeta(w1) = -w1 theta_1'''(0) / (3 theta_1'(0)), with (pi / 2
        # w1)^2 out of the ratio: f^3 underflows past |w1| = 1e103
        eta1 = w1 * scale * scale * complex(terms @ odd ** 3) / (
            3.0 * complex(terms @ odd))
        # Legendre relation eta1*w2 - eta2*w1 = i pi / 2
        eta2 = (eta1 * w2 - 0.5j * math.pi) / w1
        self._eta1, self._eta2 = eta1, eta2
        # the integer change of basis (w1, w2) = (omega1, omega2) @ [[a, b],
        # [c, d]], of determinant 1; eta is linear on the lattice
        reduced = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
        (a, b), (c, d) = np.rint(np.linalg.solve(
            [[omega1.real, omega2.real], [omega1.imag, omega2.imag]],
            reduced)).astype(int).tolist()
        self.eta1, self.eta2 = d * eta1 - c * eta2, a * eta2 - b * eta1

        self._period_inv_t = np.linalg.inv(2 * reduced).T   # for _cell
        self._periods = np.array([2 * w1, 2 * w2])
        # the lattice points at the corners and edges of the centred cell
        self._near = np.array([2 * dm * w1 + 2 * dn * w2
                               for dm in (-1, 0, 1) for dn in (-1, 0, 1)])

        # e1, e2, e3 = wp at the half-periods w1, w1 + w2, w2
        e1, e2, e3 = (complex(e) for e in self.wp(np.array([w1, w1 + w2, w2])))
        self.g2 = 2.0 * (e1 ** 2 + e2 ** 2 + e3 ** 2)
        self.g3 = 4.0 * e1 * e2 * e3

    # -- the one pass -----------------------------------------------------

    def _theta1(self, z0: np.ndarray) -> np.ndarray:
        """theta_1 and its z-derivatives 1-3 at z0, last axis."""
        arg = np.multiply.outer(z0, self._freq)
        return np.concatenate([np.sin(arg), np.cos(arg)], -1) @ self._table

    def _cell(self, z, what: str | None = None) -> tuple:
        """The one argument reduction, z = z0 + 2m*w1 + 2n*w2 on z flattened
        to a contiguous 1-D array (the float view needs it; numpy's 0-d
        arithmetic rounds apart from an array element): (z0, mn), one (m, n)
        row of integer floats per point.  StructuralError past 2^52 periods,
        where z keeps no fractional digit, and for a z that is not finite
        (a nan fails the range test too); with ``what``, PoleError if any
        |z0| < POLE_TOL (0 is the only lattice point in the closed centred
        cell, and POLE_TOL is far below half a period)."""
        z = np.ascontiguousarray(z, dtype=complex).reshape(-1)
        mn = np.rint(z.view(float).reshape(-1, 2) @ self._period_inv_t)
        if not np.maximum.reduce(np.abs(mn), None, initial=0.0) <= _RANGE:
            far = complex(z[np.argmin(np.abs(mn).max(axis=1) <= _RANGE)])
            raise StructuralError(
                f"elliptic argument {far:g} is not finite"
                if not cmath.isfinite(far) else
                f"elliptic argument {far:g} lies more than 2^52 periods out: "
                f"its reduced value keeps no digit")
        z0 = z - mn @ self._periods
        if what and np.fmin.reduce(np.abs(z0), initial=np.inf) < POLE_TOL:
            raise PoleError(
                f"{what} evaluated within {POLE_TOL:g} of a lattice point")
        return z0, mn

    def _pass(self, z, what: str | None = None) -> tuple[np.ndarray, ...]:
        """The one sin/cos pass, on z flattened: z0 of _cell, m and n as
        column views of its mn, and _theta1 at z0."""
        z0, mn = self._cell(z, what)
        return z0, mn[:, 0], mn[:, 1], self._theta1(z0)

    def _sigma(self, p) -> np.ndarray:
        z0, m, n, th = p[0], p[1], p[2], p[3][..., 0]
        base = np.exp(self._eta1 * z0 * z0 / (2.0 * self._w1)) \
            * th / self._theta1p0
        # quasi-periodicity factor, exactly 1 inside the centred cell
        sign = 1.0 - 2.0 * ((m + n + m * n) % 2)
        eta = 2 * m * self._eta1 + 2 * n * self._eta2
        half = m * self._w1 + n * self._w2
        return sign * base * np.exp(eta * (z0 + half))

    def _wp_from_theta(self, theta: np.ndarray) -> tuple:
        """(wp, wp') from theta_1 and its first three z-derivatives (last
        axis), through one division by theta_1."""
        ratio = theta[..., 1:] / theta[..., :1]
        r1, r2, r3 = ratio[..., 0], ratio[..., 1], ratio[..., 2]
        wp = -self._eta1 / self._w1 - (r2 - r1 ** 2)
        wp_prime = -(r3 - 3.0 * r2 * r1 + 2.0 * r1 ** 3)
        return wp, wp_prime

    def _zetas(self, p, kmax: int) -> list:
        """zeta and its z-derivatives of orders below kmax, analytic:
        zeta' = -wp, wp'' = 6 wp^2 - g2/2 and wp''' = 12 wp wp', and past
        them the derivatives of wp'' = 6 wp^2 - g2/2 by Leibniz,
        wp^(k+2) = 6 _leibniz(wp, wp, k)."""
        z0, m, n, theta = p
        val = self._eta1 * z0 / self._w1 + theta[..., 1] / theta[..., 0]
        out = [val + 2 * m * self._eta1 + 2 * n * self._eta2]
        if kmax > 1:
            w = list(self._wp_from_theta(theta))
            if kmax > 3:
                w += [6.0 * w[0] * w[0] - 0.5 * self.g2, 12.0 * w[0] * w[1]]
            for k in range(2, kmax - 3):
                w.append(6.0 * _leibniz(w, w, k))
            out += [-v for v in w]
        return out[:kmax]

    # -- public evaluations ----------------------------------------------

    @raise_on_fp_fault
    def lattice_distance(self, z):
        """Absolute distance from z to the nearest lattice point."""
        z = coords(z, "z", ...)
        z0 = self._cell(z)[0]
        return _value(np.abs(np.subtract.outer(z0, self._near)).min(axis=-1),
                      z)

    @raise_on_fp_fault
    def sigma(self, z):
        z = coords(z, "z", ...)
        return _value(self._sigma(self._pass(z)), z)

    def zeta(self, z):
        return self.zeta_ladder(z, 1)[0]

    @raise_on_fp_fault
    def wp_pair(self, z):
        """(wp(z), wp'(z)) from one pass."""
        z = coords(z, "z", ...)
        wp, wp_prime = self._wp_from_theta(self._pass(z, "wp")[3])
        return _value(wp, z), _value(wp_prime, z)

    def wp(self, z):
        return self.wp_pair(z)[0]

    @raise_on_fp_fault
    def zeta_ladder(self, z, kmax: int) -> list:
        """zeta and its z-derivatives of orders below kmax."""
        z = coords(z, "z", ...)
        return [_value(v, z)
                for v in self._zetas(self._pass(z, "zeta"), kmax)]

    def _exp_pass(self, z, ndim: int) -> tuple[np.ndarray, ...]:
        """The ladder's pass of one argument: z0, m and n of _cell, with its
        l_kernel pole guard, in the shape of z (a scalar as one element), and
        e^{i f_n z0}, e^{-i f_n z0} over the theta terms, f_n = (2n+1) pi /
        (2 w1), on a leading axis before that shape, padded
        with unit axes to ``ndim`` axes (the term axis first keeps the
        elementwise products on long inner loops)."""
        shape = np.shape(z) or (1,)
        z0, mn = self._cell(z, "l_kernel")
        arg = np.multiply.outer(self._ifreq, z0).reshape(
            (-1,) + (1,) * (ndim - len(shape)) + shape)
        z0, m, n = (a.reshape(shape) for a in (z0, mn[:, 0], mn[:, 1]))
        # e^{-x} as its own exp, not 1/e^{x}: the tables at -z are those at
        # z swapped bit for bit, so c(-u, -z) = -c(u, z) holds exactly
        return z0, m, n, np.exp(arg), np.exp(-arg)

    def _coefficient_ladder(self, u, z, kmax: int, du: int = 0):
        """``rmatrix._ladder`` for f = zeta(z) and c = -l(u, z) from one pass
        each of z and u (_exp_pass): with a, b = v_u, v_z of the reduced
        u0, z0, eta_u = m eta1 + n eta2 of the reduced u (likewise z) and
        every theta_1 derivative in z, DLMF 23.6.9 gives

            c = E K,  E = exp(eta1 u0 z0 / w1 + 2 eta_u z + 2 eta_z u0),
            K = theta_1'(0) theta_1(a + b) / (theta_1(a) theta_1(b)).

        The z-ladder is the Leibniz product of E, of theta_1(a + b), whose
        terms e^{+-i(2n+1)(a + b)} are products of the u and z tables
        (never an addition theorem, which cancels where Im a and Im b are
        large and opposite), and of the reciprocal ladder of theta_1(b).  No
        zeta difference and no Gaussian factor: u + z on the lattice is a
        regular zero.  The du row is E (beta K + d_u K), beta = (eta1 / w1)
        z0 + 2 eta_z the u-rate of the exponent of E, with K from
        Kronecker's double series, summed over one index as a Lambert
        series,

            K = (pi / 2 w1) (sin(a + b) / (sin a sin b)
                + (2/i) sum_m (e^{2ima} L(X_m) - e^{-2ima} L(Y_m))),

        X_m, Y_m = q^{2m} e^{+-2ib} and L(X) = X / (1 - X), whose
        b-derivatives are (+-2i)^k Li_{-k}: there the pole of beta K in z0
        sits in the regular ladder of b csc b, so no pole of c cancels in
        the row, as it would in c (beta - d_u log theta_1(a)) + ... .  The
        du row takes z on a unit roots' axis (the r tables' z[..., None]):
        one (orders x terms) @ (terms x roots) product per z and sample."""
        ndim = max(np.ndim(u), np.ndim(z), 1)
        half = self._half.reshape((-1,) + (1,) * ndim)
        z0, mz, nz, zp, zm = self._exp_pass(z, ndim)
        # theta_1 and its z-derivatives at b: the zeta ladder, and the
        # reciprocal ladder g of theta_1(b)
        theta = np.stack(_theta_sums(zp * half, zm * half, self._ifreq,
                                     max(kmax, 2 if kmax == 1 else 4)), -1)
        zeta_z = self._zetas((z0, mz, nz, theta[..., :4]), kmax)
        g = [1.0 / theta[..., 0]]
        for k in range(1, kmax):
            g.append(-g[0] * sum(math.comb(k, j) * theta[..., j] * g[k - j]
                                 for j in range(1, k + 1)))
        u0, mu, nu, eu, eu_inv = self._exp_pass(u, ndim)
        up, um = eu * half, eu_inv * half
        big = _theta_sums(np.multiply(up, zp), np.multiply(um, zm),
                          self._ifreq, kmax)
        eta_z = 2.0 * (mz * self._eta1 + nz * self._eta2)
        rate = self._eta1 / self._w1
        beta = rate * z0 + eta_z
        eta_u = 2.0 * (mu * self._eta1 + nu * self._eta2)
        # the z-rate of the exponent of E, and its powers: the ladder of E / E
        zrate = [1.0, rate * u0 + eta_u]
        zrate += [zrate[1] ** j for j in range(2, kmax)]
        growth = np.exp(np.add(np.multiply(u0, beta), np.multiply(eta_u, z)))
        coeff = np.multiply(self._theta1p0 / functools.reduce(
            np.add, np.subtract(up, um)), growth)
        h = [_leibniz(big, g, k) for k in range(kmax)]
        c = [np.multiply(coeff, _leibniz(zrate, h, k)) for k in range(kmax)]
        if not du:
            return zeta_z, [c]
        # the Lambert terms, the + and - halves apart: e^{+-2ima} on the u
        # side, and on the z side the factors of (eta1 / w1) (z0 Lambda)^(j)
        # + (pi / 2 w1) d_a Lambda^(j) for Lambda = K - (pi / 2 w1) sin(a +
        # b) / (sin a sin b), every order j on the axis before the terms.
        # Each half sums its terms in order and the halves are added last,
        # so the basis (-w1, -w2), which swaps them, gives the same bits.
        q2m, freq, weight = self._lambert
        scale = math.pi / (2.0 * self._w1)
        arg = np.multiply.outer(u0, freq)
        lam = 0.0
        for sign, t, ul in ((1.0, zp, np.exp(arg)), (-1.0, zm, np.exp(-arg))):
            li = np.multiply.outer(t[0] * t[0], q2m)
            li = [_li_neg(li, j) for j in range(kmax)]
            spin, w = sign * rate * (-2j) * scale, sign * 2j * scale
            base = np.add(np.multiply(z0[..., None], spin),
                          scale * scale * weight)
            half_sum = np.stack([w ** j * li[j] * base + (
                j * spin * w ** (j - 1) * li[j - 1] if j else 0.0)
                for j in range(kmax)], -2)
            # squeeze raises unless z has the unit roots' axis; the shapes
            # do not depend on the stack, so stacking keeps every bit
            lam = np.add(lam, np.swapaxes(np.matmul(
                half_sum.squeeze(-3), np.swapaxes(ul, -1, -2)), -1, -2))
        # (eta1 / w1) z0 (pi / 2 w1) sin(a + b) / (sin a sin b) as (eta1 /
        # w1) (sin(a + b) / sin a) (b csc b), and -(pi / 2 w1)^2 csc^2 a
        sin_a = (eu[0] - eu_inv[0]) / 2j
        plus, minus = np.multiply(eu[0], zp[0]), np.multiply(eu_inv[0], zm[0])
        trig = [np.subtract(plus, minus) / (2j * sin_a)]
        if kmax > 1:
            trig.append(np.add(plus, minus) / (2.0 * sin_a))
        trig = [(-1) ** (j // 2) * scale ** j * trig[j % 2]
                for j in range(kmax)]
        csc = _vcscv_ladder(scale * z0, kmax)
        d = []
        for j in range(kmax):
            pole = np.multiply(rate, _leibniz(
                trig, [scale ** i * csc[i] for i in range(j + 1)], j))
            if j == 0:
                pole = np.subtract(pole, scale * scale / (sin_a * sin_a))
            d.append(np.add(lam[..., j], pole))
        return zeta_z, [c, [np.add(np.multiply(growth, _leibniz(zrate, d, k)),
                                   np.multiply(eta_z, c[k]))
                            for k in range(kmax)]]

    def __repr__(self) -> str:
        return f"Lattice(omega1={self.omega1:g}, omega2={self.omega2:g})"


@raise_on_fp_fault
def l_kernel(lattice: Lattice, w, z):
    """Two-variable kernel l(w, z) = -sigma(w+z) / (sigma(w) sigma(z)),
    elementwise over the broadcast of w and z: -c[0] of the r-matrix ladder
    (the passes of w and z, with their pole guards, run on the arguments as
    given, unbroadcast).

    Symmetric in its arguments, with a simple pole of residue -1 in z at the
    lattice.  Poles occur where sigma(w) or sigma(z) vanish, and only there;
    w + z on the lattice gives a regular zero, so it is not guarded.
    """
    w, z = coords(w, "w", ...), coords(z, "z", ...)
    c = lattice._coefficient_ladder(w, z, 1)[1][0][0]
    return _value(-c, np.add(w, z))
