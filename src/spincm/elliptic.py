"""Weierstrass elliptic functions sigma, zeta, wp and the two-variable kernel
l(w, z) = -sigma(w+z) / (sigma(w) sigma(z)).

Everything is computed from the Jacobi theta function theta_1 with argument
reduction to the fundamental cell, so evaluations stay accurate for any
argument: theta series converge superexponentially there and the
quasi-periodicity factors are exact closed forms.  g2 and g3 come from the
branch points wp(omega1), wp(omega1 + omega2), wp(omega2), not lattice sums.

Every evaluation takes a scalar or a numpy array of arguments and runs the
same array code either way (a scalar in gives a Python scalar out).  theta_1
and its first three derivatives are one fixed-length sum: a dot product of
[sin | cos]((2n+1) v) with a term table built once per lattice, whose
length is the fewest terms that keep the dropped tail below _REL_CUTOFF
anywhere in the centred cell.  A pole guard runs once per call on the whole
argument array, and numpy floating-point faults raise FloatingPointError
instead of returning inf or nan.

Conventions: half-periods omega1, omega2 with Im(omega2/omega1) > 0; the
lattice is 2*omega1*Z + 2*omega2*Z.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError, StructuralError, raise_on_fp_fault

POLE_TOL = 1e-12
_MAX_TERMS = 64
_REL_CUTOFF = 1e-18


def _value(a, kind=complex):
    """A 0-d result as a Python scalar, any other result as the array."""
    return kind(a) if np.ndim(a) == 0 else a


class Lattice:
    """Period lattice with cached theta constants and theta_1 term table.

    Parameters
    ----------
    omega1, omega2 : complex
        Half-periods.  Im(omega2/omega1) must be positive.
    """

    def __init__(self, omega1: complex, omega2: complex):
        omega1 = complex(omega1)
        omega2 = complex(omega2)
        if omega1 == 0:
            raise StructuralError("omega1 must be nonzero")
        tau = omega2 / omega1
        if tau.imag <= 0:
            raise StructuralError(
                f"Im(omega2/omega1) = {tau.imag:g} must be positive")
        self.omega1 = omega1
        self.omega2 = omega2
        self.tau = tau
        self.nome = cmath.exp(1j * math.pi * tau)

        # theta_1(v) = sum_n t_n sin((2n+1) v), t_n = 2(-1)^n nome^((n+1/2)^2).
        # On the centred cell |Im v| <= pi Im(tau) / 2, so term n of theta_1
        # and of its first three derivatives is at most
        # 2 (2n+1)^3 exp(-pi Im(tau) (n^2 - 1/4)); keep the fewest terms
        # whose dropped tail of these bounds is below _REL_CUTOFF.
        k = np.arange(1, _MAX_TERMS)
        bound = 2.0 * (2.0 * k + 1.0) ** 3 * np.exp(
            -math.pi * tau.imag * (k * k - 0.25))
        converged = np.flatnonzero(np.cumsum(bound[::-1])[::-1] < _REL_CUTOFF)
        n_terms = int(k[converged[0]]) if converged.size else _MAX_TERMS
        terms = np.array([2.0 * (-1) ** n * self.nome ** ((n + 0.5) ** 2)
                          for n in range(n_terms)])
        odd = 2.0 * np.arange(n_terms) + 1.0
        zero = np.zeros(n_terms)
        # rows: the sin terms, then the cos terms; columns: theta_1 and its
        # first, second and third v-derivatives
        self._odd = odd
        self._table = np.concatenate([
            np.stack([terms, zero, -terms * odd ** 2, zero], axis=1),
            np.stack([zero, terms * odd, zero, -terms * odd ** 3], axis=1)])
        self._theta1p0 = complex(terms @ odd)
        tppp0 = -complex(terms @ odd ** 3)
        self.eta1 = -(math.pi ** 2) * tppp0 / (12.0 * omega1 * self._theta1p0)
        # Legendre relation eta1*omega2 - eta2*omega1 = i pi / 2
        self.eta2 = (self.eta1 * omega2 - 0.5j * math.pi) / omega1

        # real 2x2 system for argument reduction
        period_matrix = np.array(
            [[2 * omega1.real, 2 * omega2.real],
             [2 * omega1.imag, 2 * omega2.imag]])
        self._period_inv_t = np.linalg.inv(period_matrix).T
        self._periods = np.array([2 * omega1, 2 * omega2])
        # the lattice points at the corners and edges of the centred cell
        self._near = np.array([2 * dm * omega1 + 2 * dn * omega2
                               for dm in (-1, 0, 1) for dn in (-1, 0, 1)])

        # e1, e2, e3 = wp at the half-periods omega1, omega1 + omega2, omega2
        self.branch_points = tuple(complex(e) for e in self.wp(
            np.array([omega1, omega1 + omega2, omega2])))
        e1, e2, e3 = self.branch_points
        self.g2 = 2.0 * (e1 ** 2 + e2 ** 2 + e3 ** 2)
        self.g3 = 4.0 * e1 * e2 * e3

    # -- internals ------------------------------------------------------

    def _theta1(self, z0: np.ndarray) -> tuple[np.ndarray, ...]:
        """theta_1 and its first three derivatives at v = pi z0 / (2 omega1)."""
        v = math.pi * z0 / (2.0 * self.omega1)
        arg = np.multiply.outer(v, self._odd)
        parts = np.concatenate([np.sin(arg), np.cos(arg)], -1) @ self._table
        return parts[..., 0], parts[..., 1], parts[..., 2], parts[..., 3]

    def _cell(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Elementwise z = z0 + 2m*omega1 + 2n*omega2 with z0 in the centred
        cell; m and n come back as float arrays of integers."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        mn = np.rint(flat.view(float).reshape(-1, 2) @ self._period_inv_t)
        z0 = flat - mn @ self._periods
        return (z0.reshape(z.shape), mn[:, 0].reshape(z.shape),
                mn[:, 1].reshape(z.shape))

    def _regular(self, z, what: str):
        """_cell, raising PoleError if any entry is within POLE_TOL of the
        lattice: 0 is the only lattice point in the closed centred cell and
        POLE_TOL is far below half a period, so that is when |z0| is."""
        z0, m, n = self._cell(z)
        if np.any(np.abs(z0) < POLE_TOL):
            raise PoleError(
                f"{what} evaluated within {POLE_TOL:g} of a lattice point")
        return z0, m, n

    # -- public evaluations ----------------------------------------------

    @raise_on_fp_fault
    def reduce(self, z):
        """Write z = z0 + 2m*omega1 + 2n*omega2 with z0 in the centered cell."""
        z0, m, n = self._cell(z)
        return _value(z0), _value(m, int), _value(n, int)

    @raise_on_fp_fault
    def lattice_distance(self, z):
        """Absolute distance from z to the nearest lattice point."""
        z0 = self._cell(z)[0]
        return _value(np.abs(np.subtract.outer(z0, self._near)).min(axis=-1),
                      float)

    @raise_on_fp_fault
    def sigma(self, z):
        z0, m, n = self._cell(z)
        th = self._theta1(z0)[0]
        base = (2.0 * self.omega1 / math.pi) * np.exp(
            self.eta1 * z0 * z0 / (2.0 * self.omega1)) * th / self._theta1p0
        # quasi-periodicity factor, exactly 1 inside the centred cell
        sign = 1.0 - 2.0 * ((m + n + m * n) % 2)
        eta = 2 * m * self.eta1 + 2 * n * self.eta2
        half = m * self.omega1 + n * self.omega2
        return _value(sign * base * np.exp(eta * (z0 + half)))

    @raise_on_fp_fault
    def zeta(self, z):
        z0, m, n = self._regular(z, "zeta")
        th, d1, _, _ = self._theta1(z0)
        val = self.eta1 * z0 / self.omega1 + (math.pi / (2.0 * self.omega1)) * d1 / th
        return _value(val + 2 * m * self.eta1 + 2 * n * self.eta2)

    @raise_on_fp_fault
    def wp(self, z):
        z0, _, _ = self._regular(z, "wp")
        th, d1, d2, _ = self._theta1(z0)
        lg2 = d2 / th - (d1 / th) ** 2
        return _value(-self.eta1 / self.omega1
                      - (math.pi / (2.0 * self.omega1)) ** 2 * lg2)

    @raise_on_fp_fault
    def wp_prime(self, z):
        z0, _, _ = self._regular(z, "wp_prime")
        th, d1, d2, d3 = self._theta1(z0)
        r1 = d1 / th
        lg3 = d3 / th - 3.0 * (d2 / th) * r1 + 2.0 * r1 ** 3
        return _value(-((math.pi / (2.0 * self.omega1)) ** 3) * lg3)

    @raise_on_fp_fault
    def zeta_derivative(self, z, k: int):
        """k-th z-derivative of zeta for 0 <= k <= 4.

        Uses zeta' = -wp and the Weierstrass differential equation for the
        higher orders (wp'' = 6 wp^2 - g2/2, wp''' = 12 wp wp'), so every
        order is analytic, no finite differences.
        """
        if k == 0:
            return self.zeta(z)
        if k == 1:
            return -self.wp(z)
        if k == 2:
            return -self.wp_prime(z)
        p = self.wp(z)
        if k == 3:
            return -(6.0 * p * p - 0.5 * self.g2)
        if k == 4:
            return -12.0 * p * self.wp_prime(z)
        raise ValueError(f"zeta_derivative supports k <= 4, got {k}")

    def __repr__(self) -> str:
        return f"Lattice(omega1={self.omega1:g}, omega2={self.omega2:g})"


def sigma(lattice: Lattice, z):
    """Weierstrass sigma function (entire, odd, sigma'(0) = 1)."""
    return lattice.sigma(z)


def zeta(lattice: Lattice, z):
    """Weierstrass zeta function, zeta = sigma'/sigma."""
    return lattice.zeta(z)


def wp(lattice: Lattice, z):
    """Weierstrass elliptic function, wp = -zeta'."""
    return lattice.wp(z)


def wp_prime(lattice: Lattice, z):
    """Derivative of wp."""
    return lattice.wp_prime(z)


@raise_on_fp_fault
def l_kernel(lattice: Lattice, w, z):
    """Two-variable kernel l(w, z) = -sigma(w+z) / (sigma(w) sigma(z)),
    elementwise over the broadcast of w and z.

    Symmetric in its arguments, with a simple pole of residue -1 in z at the
    lattice.  Poles occur where sigma(w) or sigma(z) vanish, and only there;
    w + z on the lattice gives a regular zero, so it is not guarded.
    """
    w, z = np.broadcast_arrays(np.asarray(w, dtype=complex),
                               np.asarray(z, dtype=complex))
    near = lattice.lattice_distance(np.stack([w, z])) < POLE_TOL
    for arg, bad in zip(("first", "second"), near):
        if np.any(bad):
            raise PoleError(f"l_kernel: {arg} argument within pole tolerance "
                            "of the lattice")
    s = lattice.sigma(np.stack([w + z, w, z]))
    return _value(-s[0] / (s[1] * s[2]))
