"""Weierstrass elliptic functions sigma, zeta, wp and the two-variable kernel
l(w, z) = -sigma(w+z) / (sigma(w) sigma(z)).

Everything is computed from the Jacobi theta function theta_1 on the
Gauss-reduced basis w1, w2 of the lattice (DLMF 23.18) with argument
reduction to its centred cell: Im(w2/w1) >= sqrt(3)/2 takes at most 5 theta
terms and the quasi-periodicity factors are exact closed forms, for any
basis and argument.  g2 and g3 come from the branch points, not sums.

Every evaluation takes a scalar or a numpy array of arguments, of any
strides, and runs the same array code either way: the argument enters as
a contiguous array of at least one dimension, so a scalar call is its
array element bit for bit, and a scalar in gives a Python scalar out.  Each
reads one pass per argument: the reduction (StructuralError past 2^52
periods), the pole guard if asked, and theta_1 with three derivatives, a
dot product of [sin | cos]((2n+1) v) with a term table whose length keeps
the dropped tail below _REL_CUTOFF in the centred cell.  sigma, zeta, wp,
l and the r-matrix ladder (``Lattice._coefficient_ladder``) share passes;
numpy floating-point faults raise FloatingPointError, not inf or nan.

Conventions: half-periods omega1, omega2 with Im(omega2/omega1) > 0; the
lattice is 2*omega1*Z + 2*omega2*Z.  omega1, omega2, eta1, eta2, the branch
points and the m, n of ``Lattice.reduce`` refer to this basis as given.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError, StructuralError, raise_on_fp_fault

POLE_TOL = 1e-12
_REL_CUTOFF = 1e-18
# past 2^52 periods a reduced argument has no correct digit
_RANGE = 2.0 ** 52


def _leibniz(a, b, k: int):
    """The k-th derivative of a product from the ladders of its factors,
    sum_j C(k, j) a[j] b[k - j]."""
    return sum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1))


def _value(a, z, kind=complex):
    """A result in the shape of the argument z: a Python scalar for a
    scalar z, else the array."""
    a = np.reshape(a, np.shape(z))
    return kind(a) if a.ndim == 0 else a


class Lattice:
    """Period lattice with cached theta constants and theta_1 term table.

    Parameters
    ----------
    omega1, omega2 : complex
        Half-periods.  Im(omega2/omega1) must be positive.
    """

    def __init__(self, omega1: complex, omega2: complex):
        omega1, omega2 = complex(omega1), complex(omega2)
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

        # theta_1(v) = sum_n t_n sin((2n+1) v), t_n = 2(-1)^n nome^((n+1/2)^2).
        # On the centred cell |Im v| <= pi Im(tau) / 2, so term n of theta_1
        # and of its first three derivatives is at most
        # 2 (2n+1)^3 exp(-pi Im(tau) (n^2 - 1/4)); keep the fewest terms
        # whose dropped tail of these bounds is below _REL_CUTOFF (at most
        # 5, as Im(tau) >= sqrt(3)/2).
        k = np.arange(1, 6)
        bound = 2.0 * (2.0 * k + 1.0) ** 3 * np.exp(
            -math.pi * tau.imag * (k * k - 0.25))
        n_terms = int(k[np.cumsum(bound[::-1])[::-1] < _REL_CUTOFF][0])
        terms = np.array([2.0 * (-1) ** n * nome ** ((n + 0.5) ** 2)
                          for n in range(n_terms)])
        odd = 2.0 * np.arange(n_terms) + 1.0
        zero = np.zeros(n_terms)
        # rows: the sin terms, then the cos terms; columns: theta_1 and its
        # first, second and third v-derivatives
        self._odd = odd.astype(complex)  # the type of v, cast once
        self._table = np.concatenate([
            np.stack([terms, zero, -terms * odd ** 2, zero], axis=1),
            np.stack([zero, terms * odd, zero, -terms * odd ** 3], axis=1)])
        self._theta1p0 = complex(terms @ odd)
        if self._theta1p0 == 0:
            raise StructuralError(
                f"the reduced period ratio Im(tau) = {tau.imag:g} is too "
                f"large: the nome underflows and theta_1'(0) vanishes")
        tppp0 = -complex(terms @ odd ** 3)
        eta1 = -(math.pi ** 2) * tppp0 / (12.0 * w1 * self._theta1p0)
        # Legendre relation eta1*w2 - eta2*w1 = i pi / 2
        eta2 = (eta1 * w2 - 0.5j * math.pi) / w1
        self._eta1, self._eta2 = eta1, eta2
        # the integer change of basis (w1, w2) = (omega1, omega2) @ _basis,
        # of determinant 1; eta is linear on the lattice
        reduced = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
        (a, b), (c, d) = self._basis = np.rint(np.linalg.solve(
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
        # wp at omega1, omega1 + omega2, omega2, by their classes mod 2 in w
        at = {(1, 0): e1, (1, 1): e2, (0, 1): e3}
        self.branch_points = tuple(at[i % 2, j % 2] for i, j in (
            (d, c), (d + b, c + a), (b, a)))

    # -- the one pass -----------------------------------------------------

    def _theta1(self, z0: np.ndarray) -> np.ndarray:
        """theta_1 and its derivatives 1-3 at v = pi z0 / (2 w1), last axis."""
        v = math.pi * z0 / (2.0 * self._w1)
        arg = v[..., None] * self._odd
        return np.concatenate([np.sin(arg), np.cos(arg)], -1) @ self._table

    def _cell(self, z, what: str | None = None) -> tuple:
        """The one argument reduction, z = z0 + 2m*w1 + 2n*w2 on z flattened
        to a contiguous 1-D array (the float view needs it; numpy's 0-d
        arithmetic rounds apart from an array element): (z0, mn), one (m, n)
        row of integer floats per point.  StructuralError past 2^52 periods,
        where z keeps no fractional digit; with ``what``, PoleError if any
        |z0| < POLE_TOL (0 is the only lattice point in the closed centred
        cell, and POLE_TOL is far below half a period)."""
        z = np.ascontiguousarray(z, dtype=complex).reshape(-1)
        mn = np.rint(z.view(float).reshape(-1, 2) @ self._period_inv_t)
        if np.maximum.reduce(np.abs(mn), None, initial=0.0) > _RANGE:
            far = z[np.abs(mn).max(axis=1).argmax()]
            raise StructuralError(
                f"elliptic argument {complex(far):g} lies more than 2^52 "
                f"periods out: its reduced value keeps no digit")
        z0 = z - mn @ self._periods
        if what and np.fmin.reduce(np.abs(z0), initial=np.inf) < POLE_TOL:
            raise PoleError(
                f"{what} evaluated within {POLE_TOL:g} of a lattice point")
        return z0, mn

    def _pass(self, z, what: str | None = None) -> tuple[np.ndarray, ...]:
        """The pass every evaluation but wp reads: z0, m and n of _cell in
        the shape of z (a scalar as one element), and _theta1 at z0."""
        shape = np.shape(z) or (1,)
        z0, mn = self._cell(z, what)
        z0, m, n = (a.reshape(shape) for a in (z0, mn[:, 0], mn[:, 1]))
        return z0, m, n, self._theta1(z0)

    def _wp_flat(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(wp, wp') at z, flattened: _cell with its pole guard and _theta1
        in one pass, under the caller's fault guard."""
        return self._wp_from_theta(self._theta1(self._cell(z, "wp")[0]))

    def _sigma(self, p) -> np.ndarray:
        z0, m, n, th = p[0], p[1], p[2], p[3][..., 0]
        base = (2.0 * self._w1 / math.pi) * np.exp(
            self._eta1 * z0 * z0 / (2.0 * self._w1)) * th / self._theta1p0
        # quasi-periodicity factor, exactly 1 inside the centred cell
        sign = 1.0 - 2.0 * ((m + n + m * n) % 2)
        eta = 2 * m * self._eta1 + 2 * n * self._eta2
        half = m * self._w1 + n * self._w2
        return sign * base * np.exp(eta * (z0 + half))

    def _wp_from_theta(self, theta: np.ndarray) -> tuple:
        """(wp, wp') from theta_1 and its first three derivatives (last
        axis), through one division by theta_1."""
        ratio = theta[..., 1:] / theta[..., :1]
        r1, r2, r3 = ratio[..., 0], ratio[..., 1], ratio[..., 2]
        scale = math.pi / (2.0 * self._w1)
        wp = -self._eta1 / self._w1 - scale ** 2 * (r2 - r1 ** 2)
        wp_prime = -(scale ** 3) * (r3 - 3.0 * r2 * r1 + 2.0 * r1 ** 3)
        return wp, wp_prime

    def _zetas(self, p, kmax: int) -> list:
        """zeta and its z-derivatives of orders below kmax, analytic:
        zeta' = -wp, wp'' = 6 wp^2 - g2/2 and wp''' = 12 wp wp', and past
        them the derivatives of wp'' = 6 wp^2 - g2/2 by Leibniz,
        wp^(k+2) = 6 _leibniz(wp, wp, k)."""
        z0, m, n, theta = p
        val = self._eta1 * z0 / self._w1 \
            + (math.pi / (2.0 * self._w1)) * theta[..., 1] / theta[..., 0]
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
    def reduce(self, z):
        """Write z = z0 + 2m*omega1 + 2n*omega2 with z0 in the centred cell
        of the reduced basis."""
        z0, mn = self._cell(z)
        m, n = self._basis @ mn.T
        return _value(z0, z), _value(m, z, int), _value(n, z, int)

    @raise_on_fp_fault
    def lattice_distance(self, z):
        """Absolute distance from z to the nearest lattice point."""
        z0 = self._cell(z)[0]
        return _value(np.abs(np.subtract.outer(z0, self._near)).min(axis=-1),
                      z, float)

    @raise_on_fp_fault
    def sigma(self, z):
        return _value(self._sigma(self._pass(z)), z)

    def zeta(self, z):
        return self.zeta_ladder(z, 1)[0]

    @raise_on_fp_fault
    def wp_pair(self, z):
        """(wp(z), wp'(z)) from one pass (_wp_flat)."""
        wp, wp_prime = self._wp_flat(z)
        return _value(wp, z), _value(wp_prime, z)

    def wp(self, z):
        return self.wp_pair(z)[0]

    def wp_prime(self, z):
        return self.wp_pair(z)[1]

    @raise_on_fp_fault
    def zeta_ladder(self, z, kmax: int) -> list:
        """zeta and its z-derivatives of orders below kmax."""
        return [_value(v, z)
                for v in self._zetas(self._pass(z, "zeta"), kmax)]

    def _coefficient_ladder(self, u, z, kmax: int, du: int = 0):
        """``rmatrix._ladder`` for f = zeta(z) and c = -l(u, z) from one pass
        each of z, u and u + z: the one sigma ratio l, and Leibniz ladders
        of l' = l (zeta(u+z) - zeta(z)) and d_u l = l (zeta(u+z) -
        zeta(u)).  Runs under the caller's fault guard."""
        pz = self._pass(z, "l_kernel")
        zeta_z = self._zetas(pz, kmax)
        nuz = kmax - 1 + du
        pu = self._pass(u, "l_kernel")
        puz = self._pass(np.add(u, z), "zeta" if nuz else None)
        kernel = -self._sigma(puz) / (self._sigma(pu) * self._sigma(pz))
        c = [-kernel]
        zeta_uz = self._zetas(puz, nuz) if nuz else []
        d = [zeta_uz[m] - zeta_z[m] for m in range(kmax - 1)]
        for k in range(kmax - 1):
            c.append(_leibniz(c, d, k))
        if not du:
            return zeta_z, [c]
        e = [zeta_uz[0] - self._zetas(pu, 1)[0]] + zeta_uz[1:]
        return zeta_z, [c, [_leibniz(c, e, k) for k in range(kmax)]]

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
    c = lattice._coefficient_ladder(w, z, 1)[1][0][0]
    return _value(-c, np.add(w, z))
