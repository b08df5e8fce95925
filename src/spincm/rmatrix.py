"""Classical dynamical r-matrices with spectral parameter on sl(n+1).

Three families are provided, each given by a Cartan coefficient f(z) and a
root coefficient c_alpha(u, z) with u = (alpha, q):

    r(q, z) = f(z) sum_i h_i (x) h_i + sum_alpha c_alpha((alpha,q), z)
              e_alpha (x) e_{-alpha}

* rational:        f = 1/z,            c = 1/z + [alpha in Delta']/u
* trigonometric:   f = cot z + z/3,    c = (cot z + cot u) e^{uz/3} on the
                   span of Pi', and e^{-iz}/sin z * e^{uz/3} (positive half
                   of the polarization) or e^{iz}/sin z * e^{uz/3} (negative
                   half) off the span
* elliptic:        f = zeta(z),        c = -l(u, z) with the sigma-function
                   kernel l(w, z) = -sigma(w+z)/(sigma(w) sigma(z))

All z- and q-derivatives needed anywhere in the package are produced here by
closed-form recursions (polynomial ladders in cot, Leibniz ladders for the
elliptic kernel), never by finite differences.  The same coefficient
functions feed the Lax operators in :mod:`spincm.dynamics`, which is what
ties the r-matrix to the mechanics.

The coefficient functions are one array kernel per family: they take the
whole root-value array u = rs.root_values(q) (roots on the last axis, z
broadcasting against it) and return one value per root.  The pole guard
runs once per call on the whole array and names the first offending root;
a numpy floating-point fault raises FloatingPointError, so no table ever
holds inf or nan.  The pair weights are even in u, so they are evaluated
on the positive roots and mirrored.

Every r(q, z) is held as its coefficient vector c on arrays of z, with
r = sum_a c_a e_a (x) e_{dual(a)}: R_q is an elementwise product with c and
the CDYBE a scatter over the nonzero structure constants.  A Laurent
covector (:class:`LaurentElement`) is data, not a function: its principal
coefficients plus its values on a node array fixed when it is built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .elliptic import POLE_TOL, Lattice, _value, l_kernel
from .errors import PoleError, StructuralError, raise_on_fp_fault
from .rootsys import (AlgElement, RootSystem, bracket, negate,
                      root_label, torus_adjoint)

_ZTOL = 1e-13

FAMILIES = ("rational", "trigonometric", "elliptic")


# ---------------------------------------------------------------------------
# polynomial ladders for trigonometric derivatives (coefficients low to high)
#
# d^k/dz^k cot z = P_k(cot z) with P_0 = c and P_{k+1} = P_k'(c) * (-1 - c^2);
# d^j/dz^j csc z = csc z * Q_j(cot z) with Q_0 = 1 and
# Q_{j+1} = Q_j'(c) * (-1 - c^2) - c * Q_j.

_MINUS_ONE_MINUS_C2 = (-1, 0, -1)


@lru_cache(maxsize=None)
def _cot_poly(k: int) -> tuple[float, ...]:
    if k == 0:
        return (0, 1)
    return tuple(P.polymul(P.polyder(_cot_poly(k - 1)), _MINUS_ONE_MINUS_C2))


@lru_cache(maxsize=None)
def _csc_poly(j: int) -> tuple[float, ...]:
    if j == 0:
        return (1,)
    prev = _csc_poly(j - 1)
    return tuple(P.polysub(P.polymul(P.polyder(prev), _MINUS_ONE_MINUS_C2),
                           P.polymul((0, 1), prev)))


def _poly_eval(p: tuple[float, ...], c):
    out = 0j
    for coeff in reversed(p):
        out = out * c + coeff
    return out


# ---------------------------------------------------------------------------
# r-matrix specification


class RMatrixSpec:
    """A dynamical r-matrix family bound to a root system.

    Use the :func:`rational_r_matrix`, :func:`trigonometric_r_matrix`,
    :func:`elliptic_r_matrix` constructors; they validate the family data
    (closure of Delta', the polarization, the lattice orientation).

    ``fault_scale`` is a negative-control knob used by the verification CLI:
    it multiplies the coefficient of one +/- root pair of the r-matrix's
    coefficient vectors, which preserves the zero-weight and unitarity
    axioms but breaks the residue normalization and the CDYBE.  It does
    not touch the Lax coefficient functions.
    """

    def __init__(self, rs: RootSystem, family: str, *,
                 dp_mask: np.ndarray | None = None,
                 pi_prime: frozenset[int] = frozenset(),
                 span_mask: np.ndarray | None = None,
                 plus_mask: np.ndarray | None = None,
                 lattice: Lattice | None = None,
                 fault_scale: complex = 1.0):
        self.rs = rs
        self.family = family
        self.dp_mask = dp_mask
        self.pi_prime = pi_prime
        self.span_mask = span_mask
        self.plus_mask = plus_mask
        if span_mask is not None:
            # b - u/3 of the trigonometric root coefficient e^{b z} g(z):
            # 0 on the span of Pi', -i (Delta_+) or +i (Delta_-) off it
            self.trig_shift = np.where(span_mask, 0j,
                                       np.where(plus_mask, -1j, 1j))
        self.lattice = lattice
        self.fault_scale = complex(fault_scale)
        neg0 = rs.root_index[negate(rs.roots[0])]
        self.fault_root_indices = (0, neg0)

    def with_fault(self, scale: complex) -> "RMatrixSpec":
        return RMatrixSpec(self.rs, self.family, dp_mask=self.dp_mask,
                           pi_prime=self.pi_prime, span_mask=self.span_mask,
                           plus_mask=self.plus_mask, lattice=self.lattice,
                           fault_scale=scale)

    def describe(self) -> dict:
        out = {"family": self.family, "rank": self.rs.rank}
        if self.family == "rational":
            out["delta_prime"] = [root_label(r) for r, keep
                                  in zip(self.rs.roots, self.dp_mask) if keep]
        elif self.family == "trigonometric":
            out["pi_prime"] = sorted(self.pi_prime)
            out["delta_plus"] = [root_label(r) for r, keep
                                 in zip(self.rs.roots, self.plus_mask) if keep]
        else:
            out["omega1"] = [self.lattice.omega1.real, self.lattice.omega1.imag]
            out["omega2"] = [self.lattice.omega2.real, self.lattice.omega2.imag]
        if self.fault_scale != 1.0:
            out["fault_scale"] = [self.fault_scale.real, self.fault_scale.imag]
        return out

    def __repr__(self) -> str:
        return f"RMatrixSpec({self.family}, A_{self.rs.rank})"


def _resolve_root_subset(rs: RootSystem, spec_arg) -> np.ndarray:
    mask = np.zeros(rs.n_roots, dtype=bool)
    if spec_arg == "full":
        mask[:] = True
    elif spec_arg == "empty":
        pass
    else:
        for item in spec_arg:
            root = tuple(int(c) for c in item)
            if root not in rs.root_index:
                raise StructuralError(f"{root} is not a root of A_{rs.rank}")
            mask[rs.root_index[root]] = True
    return mask


def rational_r_matrix(rs: RootSystem, delta_prime="full") -> RMatrixSpec:
    """Rational family over a subset Delta' closed under addition and negation."""
    mask = _resolve_root_subset(rs, delta_prime)
    chosen = [rs.roots[k] for k in range(rs.n_roots) if mask[k]]
    for root in chosen:
        if not mask[rs.root_index[negate(root)]]:
            raise StructuralError(
                f"delta_prime is not symmetric: missing {negate(root)}")
    for a in chosen:
        for b in chosen:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index and not mask[rs.root_index[s]]:
                raise StructuralError(
                    f"delta_prime is not closed under addition: {a} + {b}")
    return RMatrixSpec(rs, "rational", dp_mask=mask)


def trigonometric_r_matrix(rs: RootSystem, pi_prime="full",
                           delta_plus=None) -> RMatrixSpec:
    """Trigonometric family for a subset Pi' of the simple roots.

    ``delta_plus`` fixes the polarization (which member of each +/- root
    pair counts as positive); by default the canonical positive system.  Any
    polarization necessarily satisfies Delta_- = -Delta_+, so the
    configurable freedom is exactly the choice of representatives.
    """
    if pi_prime == "full":
        chosen = frozenset(range(rs.rank))
    elif pi_prime == "empty":
        chosen = frozenset()
    else:
        chosen = frozenset(int(i) for i in pi_prime)
        if not all(0 <= i < rs.rank for i in chosen):
            raise StructuralError(
                f"pi_prime indices must lie in 0..{rs.rank - 1}, got {sorted(chosen)}")
    span = np.zeros(rs.n_roots, dtype=bool)
    for k, root in enumerate(rs.roots):
        support = {i for i, c in enumerate(root) if c != 0}
        span[k] = support <= chosen

    if delta_plus is None:
        plus = np.zeros(rs.n_roots, dtype=bool)
        plus[: rs.n_pos] = True
    else:
        plus = _resolve_root_subset(rs, delta_plus)
        for k, root in enumerate(rs.roots):
            kn = rs.root_index[negate(root)]
            if plus[k] == plus[kn]:
                raise StructuralError(
                    f"delta_plus is not a polarization: {root} and {negate(root)} "
                    f"are on the same side")
    return RMatrixSpec(rs, "trigonometric", pi_prime=chosen,
                       span_mask=span, plus_mask=plus)


def elliptic_r_matrix(rs: RootSystem, lattice: Lattice) -> RMatrixSpec:
    """Elliptic family over a period lattice."""
    if not isinstance(lattice, Lattice):
        raise StructuralError("elliptic family needs a Lattice instance")
    return RMatrixSpec(rs, "elliptic", lattice=lattice)


# ---------------------------------------------------------------------------
# coefficient functions (shared with the Lax operators in dynamics)


def _dk_inv(z, k: int):
    """k-th derivative of 1/z."""
    return (-1) ** k * math.factorial(k) * z ** (-(k + 1))


def _root_guard(spec: RMatrixSpec, bad: np.ndarray, what: str) -> None:
    """PoleError naming the first root (last axis) flagged in ``bad``."""
    if bad.any():
        k = np.argwhere(bad)[0, -1]
        raise PoleError(f"{what} at the root {root_label(spec.rs.roots[k])}")


def _on_lattice(spec: RMatrixSpec, evaluate: Callable[[], np.ndarray],
                *root_args: np.ndarray) -> np.ndarray:
    """evaluate(), whose Lattice calls carry the elliptic pole guards; when
    one fires, name the first root with an argument in ``root_args`` on the
    lattice (a pole in z alone names no root)."""
    try:
        return evaluate()
    except PoleError as exc:
        bad = False
        for arg in root_args:
            bad = bad | (spec.lattice.lattice_distance(arg) < POLE_TOL)
        _root_guard(spec, bad, f"elliptic coefficient ({exc})")
        raise


def _trig_shift_cot(spec: RMatrixSpec, u: np.ndarray):
    """(b, cot u) of the root coefficient c = e^{b z} g(z), after the span
    pole guard: b = u/3 + trig_shift; cot u on the span of Pi', 0 off it."""
    span = spec.span_mask
    _root_guard(spec, span & (np.abs(np.sin(u)) < _ZTOL),
                "trigonometric coefficient: pole of cot (alpha, q)")
    cu = np.divide(1.0, np.tan(u), out=np.zeros(u.shape, dtype=complex),
                   where=span)
    return u / 3.0 + spec.trig_shift, cu


@raise_on_fp_fault
def cartan_coeff(spec: RMatrixSpec, z, kz: int = 0):
    """k-th z-derivative of the Cartan coefficient f(z)."""
    fam = spec.family
    if fam == "rational":
        if (np.abs(z) < _ZTOL).any():
            raise PoleError("rational r-matrix evaluated at the z = 0 pole")
        return _value(_dk_inv(z, kz))
    if fam == "trigonometric":
        if (np.abs(np.sin(z)) < _ZTOL).any():
            raise PoleError("trigonometric r-matrix evaluated at a pole of cot z")
        extra = z / 3.0 if kz == 0 else (1.0 / 3.0 if kz == 1 else 0.0)
        return _value(_poly_eval(_cot_poly(kz), 1.0 / np.tan(z)) + extra)
    return spec.lattice.zeta_derivative(z, kz)


def _trig_root_coeff(spec: RMatrixSpec, u: np.ndarray, z, kz: int,
                     du: int) -> np.ndarray:
    # c = e^{b z} g(z) with g = cot z + cot u on the span of Pi' and
    # g = csc z off it; z-derivatives by Leibniz over the cot / csc ladders,
    # and d/du acts through db/du = 1/3 and d(cot u)/du = -1 - cot^2 u
    if (np.abs(np.sin(z)) < _ZTOL).any():
        raise PoleError("trigonometric root coefficient at a pole of csc z")
    b, cu = _trig_shift_cot(spec, u)
    span = spec.span_mask
    cz = 1.0 / np.tan(z)
    csc = 1.0 / np.sin(z)
    total = 0j
    for j in range(kz + 1):
        cot_j = _poly_eval(_cot_poly(j), cz) + (cu if j == 0 else 0.0)
        g = np.where(span, cot_j, csc * _poly_eval(_csc_poly(j), cz))
        power = math.comb(kz, j) * b ** (kz - j) if kz > j else 1.0
        if du == 0:
            total = total + power * g
            continue
        t = power * (z / 3.0)
        if kz > j:
            t = t + math.comb(kz, j) * (kz - j) / 3.0 * b ** (kz - j - 1)
        total = total + g * t
    if du:
        total = total + b ** kz * np.where(span, -1.0 - cu * cu, 0.0)
    return np.exp(b * z) * total


def _elliptic_root_coeff(lat: Lattice, u: np.ndarray, z, kz: int,
                         du: int) -> np.ndarray:
    l0 = l_kernel(lat, u, z)
    if kz == 0 and du == 0:
        return -l0
    # z-derivative ladder from l' = l * (zeta(u+z) - zeta(z))
    zeta_uz = [lat.zeta_derivative(u + z, m) for m in range(kz + du)]
    d = [zeta_uz[m] - lat.zeta_derivative(z, m) for m in range(kz)]
    l_list = [l0]
    for k in range(kz):
        l_list.append(sum(math.comb(k, j) * l_list[j] * d[k - j]
                          for j in range(k + 1)))
    if du == 0:
        return -l_list[kz]
    # mixed derivative from d_u l = l * (zeta(u+z) - zeta(u))
    e = [zeta_uz[0] - lat.zeta(u)] + zeta_uz[1:]
    return -sum(math.comb(kz, j) * l_list[j] * e[kz - j] for j in range(kz + 1))


@raise_on_fp_fault
def root_coeff(spec: RMatrixSpec, u, z, kz: int = 0,
               du: int = 0) -> np.ndarray:
    """c_alpha(u_alpha, z) for every root, its z-derivatives (kz up to 3)
    and the mixed u,z-derivative (du = 1).  ``u`` = rs.root_values(q), the
    roots on its last axis; ``z`` broadcasts against it."""
    u = np.asarray(u, dtype=complex)
    fam = spec.family
    if fam == "rational":
        if (np.abs(z) < _ZTOL).any():
            raise PoleError("rational root coefficient evaluated at z = 0")
        dp = spec.dp_mask
        _root_guard(spec, dp & (np.abs(u) < _ZTOL),
                    "rational root coefficient: (alpha, q) = 0")
        zeros = np.zeros(np.broadcast(u, z).shape, dtype=complex)
        if du:
            return np.divide(-1.0, u * u, out=zeros, where=dp & (kz == 0))
        return _dk_inv(z, kz) + (
            zeros if kz else np.divide(1.0, u, out=zeros, where=dp))
    if fam == "trigonometric":
        return _trig_root_coeff(spec, u, z, kz, du)
    root_args = (u,) if kz == du == 0 else (u, u + z)
    return _on_lattice(
        spec, lambda: _elliptic_root_coeff(spec.lattice, u, z, kz, du),
        *root_args)


@raise_on_fp_fault
def root_coeff_reg0(spec: RMatrixSpec, u) -> np.ndarray:
    """lim_{z->0} (c_alpha(u_alpha, z) - 1/z) for every root, the regular
    part at the pole."""
    u = np.asarray(u, dtype=complex)
    fam = spec.family
    if fam == "rational":
        dp = spec.dp_mask
        _root_guard(spec, dp & (np.abs(u) < _ZTOL),
                    "rational regular part: (alpha, q) = 0")
        return np.divide(1.0, u, out=np.zeros(u.shape, dtype=complex),
                         where=dp)
    if fam == "trigonometric":
        b, cu = _trig_shift_cot(spec, u)
        return b + cu
    return _on_lattice(spec, lambda: spec.lattice.zeta(u), u)


def positive_pair_weight(spec: RMatrixSpec, up) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """(w, w') on the positive roots, whose values ``up`` holds on its last
    axis: w_alpha weighs xi_alpha xi_{-alpha} in H = |p|^2/2 - (1/2)
    sum_alpha w_alpha xi_alpha xi_{-alpha}, w' is its u-derivative.  The
    family's one weight kernel; it runs under the caller's fault guard."""
    rs = spec.rs
    up = np.asarray(up, dtype=complex)
    fam = spec.family
    if fam == "rational":
        dp = spec.dp_mask[:rs.n_pos]
        _root_guard(spec, dp & (np.abs(up) < _ZTOL),
                    "rational pair weight: (alpha, q) = 0")
        w = np.divide(1.0, up * up, out=np.zeros(up.shape, dtype=complex),
                      where=dp)
        w_du = np.divide(-2.0, up ** 3, out=np.zeros(up.shape, dtype=complex),
                         where=dp)
    elif fam == "trigonometric":
        span = spec.span_mask[:rs.n_pos]
        s = np.sin(up)
        _root_guard(spec, span & (np.abs(s) < _ZTOL),
                    "trigonometric pair weight: sin (alpha, q) = 0")
        w = np.where(span, np.divide(1.0, s * s, out=np.zeros(
            up.shape, dtype=complex), where=span) - 1.0 / 3.0, 5.0 / 3.0)
        w_du = np.divide(-2.0 * np.cos(up), s ** 3,
                         out=np.zeros(up.shape, dtype=complex), where=span)
    else:
        w, w_du = _on_lattice(spec, lambda: spec.lattice.wp_pair_kernel(up),
                              up)
    return w, w_du


@raise_on_fp_fault
def pair_weight(spec: RMatrixSpec, u) -> tuple[np.ndarray, np.ndarray]:
    """(w, w') of :func:`positive_pair_weight` on every root: w is even, so
    w_{-alpha} = w_alpha and w'_{-alpha} = -w'_alpha; one theta pass."""
    w, w_du = positive_pair_weight(
        spec, np.asarray(u, dtype=complex)[..., :spec.rs.n_pos])
    return (np.concatenate([w, w], axis=-1),
            np.concatenate([w_du, -w_du], axis=-1))


# ---------------------------------------------------------------------------
# tensors in g (x) g


@dataclass
class TensorValue:
    """Element of g (x) g in coordinates over the product basis; ``mat``
    may carry leading batch axes, the two slots are its last two axes."""

    rs: RootSystem
    mat: np.ndarray

    def __post_init__(self):
        if self.mat.shape[-2:] != (self.rs.dim, self.rs.dim):
            raise StructuralError(
                f"tensor has shape {self.mat.shape}, expected square of dim "
                f"{self.rs.dim}")


def casimir_tensor(rs: RootSystem) -> TensorValue:
    """The invariant element Omega = sum_i h_i (x) h_i + sum_alpha
    e_alpha (x) e_{-alpha}, dual to the bilinear form: its coordinates are
    the Gram matrix of the basis."""
    return TensorValue(rs, rs.gram.astype(complex))


def _r_coeffs(spec: RMatrixSpec, q, z, kz: int = 0, du: int = 0):
    """Coefficient vector, shape z.shape + (dim,), of the kz-th z-derivative
    of r(q, z): the Cartan coefficient, then c_alpha.  With du = 1 the root
    slots hold the mixed u,z-derivatives and the (q-independent) Cartan
    slots 0.  The one place where ``fault_scale`` is applied."""
    rs = spec.rs
    z = np.asarray(z, dtype=complex)
    c = np.zeros(z.shape + (rs.dim,), dtype=complex)
    if not du:
        c[..., :rs.rank] = np.expand_dims(cartan_coeff(spec, z, kz), -1)
    c[..., rs.rank:] = root_coeff(spec, rs.root_values(q), z[..., None],
                                  kz, du)
    c[..., rs.rank + np.array(spec.fault_root_indices)] *= spec.fault_scale
    return c


def _r_table(spec: RMatrixSpec, q, z, kzs: range, du: int = 0):
    """:func:`_r_coeffs` for each kz in ``kzs``, stacked on a leading axis."""
    shape = (len(kzs),) + np.shape(z) + (spec.rs.dim,)
    return np.array([_r_coeffs(spec, q, z, kz, du) for kz in kzs],
                    dtype=complex).reshape(shape)


def r_tensor(spec: RMatrixSpec, q, z, kz: int = 0,
             direction=None) -> TensorValue:
    """r(q, z), or its kz-th z-derivative, as a dense tensor in g (x) g: the
    coefficient vector c scattered to mat[..., a, dual(a)], one (dim, dim)
    matrix per z.

    With a Cartan ``direction`` v the result is the directional q-derivative
    sum_i v_i d/dq_i of that tensor instead (v = e_i gives the partial
    derivative in q_i).  Only root terms survive it.
    """
    rs = spec.rs
    c = _r_coeffs(spec, q, z, kz, du=int(direction is not None))
    if direction is not None:
        c[..., rs.rank:] *= rs.root_values(direction)
    mat = np.zeros(c.shape + (rs.dim,), dtype=complex)
    mat[..., np.arange(rs.dim), rs.dual_index] = c
    return TensorValue(rs, mat)


# ---------------------------------------------------------------------------
# contour quadrature


def ring_nodes(radius: float, n: int) -> np.ndarray:
    """n equispaced nodes on the circle |z| = radius."""
    angles = 2.0 * math.pi * np.arange(n) / n
    return radius * np.exp(1j * angles)


def ring_coefficients(values: np.ndarray, nodes: np.ndarray,
                      order: int) -> np.ndarray:
    """Principal-part coefficients (of z^-1..z^-order) at 0 of a function
    analytic on 0 < |z| <= radius, from its ``values`` at the equispaced
    ``nodes`` on |z| = radius (nodes on the first axis).  The z^-j
    coefficient is mean(values * z^j), the trapezoidal rule for the contour
    integral, which converges exponentially (Trefethen & Weideman, SIAM
    Rev. 56, 2014).  Shape (order,) + values.shape[1:]."""
    powers = np.power.outer(nodes, np.arange(1, order + 1))
    return np.tensordot(powers, values, axes=(0, 0)) / len(nodes)


# ---------------------------------------------------------------------------
# axiom verification


def verify_axioms(spec: RMatrixSpec, samples: Sequence[tuple[np.ndarray, complex]],
                  *, quad_radius: float = 0.1, quad_nodes: int = 256) -> dict:
    """Zero-weight, unitarity and residue residuals over (q, z) samples.

    Returns the max residual per axiom; thresholds are the caller's business.
    On the coefficient vector c: the weights of slots a and dual(a) cancel
    on c_a, c(z)[a] + c(-z)[dual(a)] = 0, and the residue at z = 0 (contour
    quadrature on |z| = quad_radius) is the Casimir tensor, c = 1.
    """
    rs = spec.rs
    weights = np.concatenate([np.zeros((rs.rank, rs.rank)), rs.alpha_h])
    slot_weight = weights + weights[rs.dual_index]
    ring = ring_nodes(quad_radius, quad_nodes)
    zero_weight = unitarity = residue = 0.0
    for q, z in samples:
        c, cminus = _r_coeffs(spec, q, [z, -z])
        zero_weight = max(zero_weight,
                          float(np.max(np.abs(slot_weight * c[:, None]))))
        unitarity = max(unitarity,
                        float(np.max(np.abs(c + cminus[rs.dual_index]))))
        res = ring_coefficients(_r_coeffs(spec, q, ring), ring, 1)[0]
        residue = max(residue, float(np.max(np.abs(res - 1.0))))
    return {
        "n_samples": len(samples),
        "zero_weight": zero_weight,
        "unitarity": unitarity,
        "residue": residue,
    }


def verify_cdybe(spec: RMatrixSpec, q, z1: complex, z2: complex,
                 z3: complex) -> float:
    """Residual of the classical dynamical Yang-Baxter equation at one
    (q, z1, z2, z3) configuration, as the max-abs coefficient of the
    g (x) g (x) g tensor

        Alt(d_h r) + [r12(z12), r13(z13)] + [r12(z12), r23(z23)]
                   + [r13(z13), r23(z23)]

    with z_ij = z_i - z_j and all q-derivatives analytic."""
    rs = spec.rs
    (a, b, c, f), d = rs.structure_nz, rs.dual_index
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    c12, c13, c23 = _r_coeffs(spec, q, [z12, z13, z23])
    d23, d31, d12 = (_r_coeffs(spec, q, [z23, -z13, z12], du=1)
                     [:, rs.rank:, None] * rs.alpha_h)

    cube = np.zeros((rs.dim, rs.dim, rs.dim), dtype=complex)
    # Alt(d_h r): h_i in slot 1, 2, 3 against dr/dq_i at z23, z31, z12,
    # where dr/dq_i = sum_alpha alpha(h_i) c'_alpha e_alpha (x) e_{-alpha}
    i, roots = np.arange(rs.rank), np.arange(rs.rank, rs.dim)[:, None]
    cube[i, roots, d[roots]] += d23
    cube[d[roots], i, roots] += d31
    cube[roots, d[roots], i] += d12
    # [r12, r13] + [r12, r23] + [r13, r23]; no index repeats within a term
    cube[c, d[a], d[b]] += f * c12[a] * c13[b]
    cube[d[a], c, d[b]] += f * c12[d[a]] * c23[b]
    cube[d[a], d[b], c] += f * c13[d[a]] * c23[d[b]]
    return float(np.max(np.abs(cube)))


# ---------------------------------------------------------------------------
# Laurent elements and the operator R


class LaurentElement:
    """g-valued (or, via I, g*-valued) function of z with a finite pole at 0,
    sum_{j=1..T} X_{-j} z^{-j} + (a part analytic near 0), held as data:

    * ``principal``, shape (T, dim): X_{-j} in row j - 1, with zero top
      coefficients trimmed, so T is the pole order;
    * ``nodes``, the z array fixed when the element is built (any nonzero
      points; only quadrature needs them on a ring);
    * ``values``, the function at the nodes as an AlgElement of shape
      (N, dim).  Omitted, they are the values of the principal part alone.

    There are no values off the nodes: a caller builds each element on the
    z where it needs values.
    """

    def __init__(self, rs: RootSystem, principal, nodes, values=None):
        self.rs = rs
        coeffs = np.asarray(principal, dtype=complex).reshape(-1, rs.dim)
        while len(coeffs) and not coeffs[-1].any():
            coeffs = coeffs[:-1]
        self.principal = coeffs
        self.nodes = np.asarray(nodes, dtype=complex)
        if values is None:
            values = np.power.outer(self.nodes,
                                    -np.arange(1, len(coeffs) + 1)) @ coeffs
        self.values = AlgElement(rs, np.asarray(values, dtype=complex))
        if self.values.vec.shape != self.nodes.shape + (rs.dim,):
            raise StructuralError(
                f"values of shape {self.values.vec.shape} do not match "
                f"{self.nodes.shape} nodes of dim {rs.dim}")

    @property
    def pole_order(self) -> int:
        return len(self.principal)

    def principal_coeff(self, j: int) -> AlgElement:
        """Coefficient X_{-j}; zero above the pole order."""
        if 1 <= j <= self.pole_order:
            return AlgElement(self.rs, self.principal[j - 1])
        return AlgElement.zero(self.rs)


def _r_pairing(rs: RootSystem, table, principal) -> np.ndarray:
    """sum_{k < T} (1/k!) < r_k, X_{-(k+1)} (x) 1 > for the T rows X of
    ``principal``, where table[k] is the coefficient vector of r_k: the
    pairing <r, X (x) 1> is the elementwise product c[dual] * X."""
    t = len(principal)
    inv_fact = [1.0 / math.factorial(k) for k in range(t)]
    return np.einsum("k...a,ka,k->...a", table[:t][..., rs.dual_index],
                     principal, inv_fact)


def R_apply(spec: RMatrixSpec, q, xi: LaurentElement) -> LaurentElement:
    """The operator R_q applied to a Laurent covector:

        (R_q xi)(z) = (1/2)(I xi)(z)
                      + sum_{k >= 0} (1/k!) < d^k r / d z^k (q, -z),
                                              xi_{-(k+1)} (x) 1 >

    The sum is finite (k below the pole order).  The result lives on the
    nodes of xi.  Its principal part is exactly -(1/2) of xi's, because
    r - Omega/z is analytic at z = 0 in every family; its values are the
    closed form above evaluated at all nodes at once."""
    table = _r_table(spec, q, -xi.nodes, range(xi.pole_order))
    values = 0.5 * xi.values.vec + _r_pairing(spec.rs, table, xi.principal)
    return LaurentElement(spec.rs, -0.5 * xi.principal, xi.nodes, values)


def R_directional(spec: RMatrixSpec, q, v, xi: LaurentElement
                  ) -> LaurentElement:
    """The q-directional derivative (X_v R_q)(xi) on the nodes of xi.  Only
    the r-dependent part of R_q varies with q, and its residue Omega does
    not, so the result has no principal part."""
    table = _r_table(spec, q, -xi.nodes, range(xi.pole_order), du=1)
    table[..., spec.rs.rank:] *= spec.rs.root_values(v)
    return LaurentElement(spec.rs, [], xi.nodes,
                          _r_pairing(spec.rs, table, xi.principal))


def default_mdybe_samples() -> list[complex]:
    return [0.6 * cmath.exp(2j * math.pi * k / 7) for k in range(7)] + \
           [0.85 * cmath.exp(2j * math.pi * (k + 0.5) / 5) for k in range(5)]


def verify_mdybe(spec: RMatrixSpec, q, xi, eta, *,
                 z_samples: Sequence[complex] | None = None,
                 quad_radius: float = 0.35, quad_nodes: int = 256) -> float:
    """Residual of the modified dynamical Yang-Baxter equation with
    c = -1/4 for the operator R = R_q:

        [R xi, R eta] - R(I^-1 [R xi, I eta] + I^-1 [I xi, R eta])
        + X_{j* xi}(R eta) - X_{j* eta}(R xi) + d<R xi, eta>
        = c [I xi, I eta]

    ``xi`` and ``eta`` are pole-only Laurent covectors given by their
    principal coefficients, shape (T, dim).  R xi and R eta are evaluated
    on the ring |z| = quad_radius, which gives the principal part of the
    inner covector and the residue pairing Res_z <eta(z), (R xi)(z)> whose
    q-derivatives form the Cartan vector d<R xi, eta> (j* takes the Cartan
    block of the residue coefficient), and every term at ``z_samples``,
    over which the residual is the max."""
    rs, n = spec.rs, quad_nodes
    ring = ring_nodes(quad_radius, n)
    samples = np.asarray(default_mdybe_samples() if z_samples is None
                         else z_samples, dtype=complex)
    xi, eta = (LaurentElement(rs, x, np.concatenate([ring, samples]))
               for x in (xi, eta))
    order = range(max(xi.pole_order, eta.pole_order))
    r0, r1 = (_r_table(spec, q, -xi.nodes, order, du) for du in (0, 1))
    r_xi, r_eta = (AlgElement(rs, 0.5 * x.values.vec + _r_pairing(
        rs, r0, x.principal)) for x in (xi, eta))
    # the inner covector [R xi, eta] + [xi, R eta] and R of it at the samples
    w = (bracket(r_xi, eta.values) + bracket(xi.values, r_eta)).vec
    inner = LaurentElement(rs, ring_coefficients(
        w[:n], ring, xi.pole_order + eta.pole_order), samples, w[n:])
    r0_s = np.concatenate([r0[:, n:], _r_table(
        spec, q, -samples, range(len(order), inner.pole_order))])
    s_rxi, s_reta, s_xi, s_eta = (AlgElement(rs, v.vec[n:]) for v in (
        r_xi, r_eta, xi.values, eta.values))
    res = ((bracket(s_rxi, s_reta) + 0.25 * bracket(s_xi, s_eta)).vec
           - 0.5 * w[n:] - _r_pairing(rs, r0_s, inner.principal))
    # X_{j* xi}(R eta) - X_{j* eta}(R xi): alpha(j* xi) times the du = 1
    # pairing of eta, and the other way round
    for x, y, sign in ((xi, eta, 1.0), (eta, xi, -1.0)):
        table = sign * r1[:, n:]
        table[..., rs.rank:] *= rs.root_values(
            x.principal_coeff(1).cartan_coords)
        res += _r_pairing(rs, table, y.principal)
    # d<R xi, eta>: q_i-derivatives of the residue pairing for every Cartan
    # direction at once, <eta, (X_v R) xi> = sum_alpha alpha(v) eta_alpha
    # p_{-alpha} with p the du = 1 pairing of xi
    p = _r_pairing(rs, r1[:, :n], xi.principal)[:, rs.dual_index]
    res[:, :rs.rank] += ring_coefficients(
        (eta.values.vec[:n] * p)[:, rs.rank:] @ rs.alpha_h, ring, 1)[0]
    return float(np.max(np.abs(res)))


def equivariance_residual(spec: RMatrixSpec, q, xi, c_coords,
                          z_samples: Sequence[complex]) -> float:
    """Residual of R_q(Ad*_{h^-1} xi) = Ad_h R_q(xi) for the torus element
    with coroot-basis logarithm c_coords, at ``z_samples``; ``xi`` is a
    pole-only Laurent covector given by its principal coefficients, shape
    (T, dim)."""
    rs = spec.rs
    xi = np.asarray(xi, dtype=complex)
    moved = torus_adjoint(c_coords, AlgElement(rs, xi)).vec
    lhs = R_apply(spec, q, LaurentElement(rs, moved, z_samples))
    rhs = R_apply(spec, q, LaurentElement(rs, xi, z_samples))
    return (lhs.values - torus_adjoint(c_coords, rhs.values)).max_abs()
