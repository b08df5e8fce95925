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
from .rootsys import (AlgElement, Root, RootSystem, bracket, form, negate,
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
    it multiplies the coefficient of one +/- root pair of the assembled
    tensors, which preserves the zero-weight and unitarity axioms but breaks
    the residue normalization and the CDYBE.  It does not touch the Lax
    coefficient functions.
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


@raise_on_fp_fault
def pair_weight(spec: RMatrixSpec, u, du: int = 0) -> np.ndarray:
    """w_alpha(u_alpha) for every root, the weight of xi_alpha xi_{-alpha}
    in H = |p|^2/2 - (1/2) sum_alpha w_alpha xi_alpha xi_{-alpha}, or its
    u-derivative (du = 1).  w is even, so it is evaluated on the positive
    roots and mirrored (w_{-alpha} = w_alpha, w'_{-alpha} = -w'_alpha)."""
    rs = spec.rs
    up = np.asarray(u, dtype=complex)[..., :rs.n_pos]
    fam = spec.family
    if fam == "rational":
        dp = spec.dp_mask[:rs.n_pos]
        _root_guard(spec, dp & (np.abs(up) < _ZTOL),
                    "rational pair weight: (alpha, q) = 0")
        w = np.divide(-2.0 if du else 1.0, up ** 3 if du else up * up,
                      out=np.zeros(up.shape, dtype=complex), where=dp)
    elif fam == "trigonometric":
        span = spec.span_mask[:rs.n_pos]
        s = np.sin(up)
        _root_guard(spec, span & (np.abs(s) < _ZTOL),
                    "trigonometric pair weight: sin (alpha, q) = 0")
        zeros = np.zeros(up.shape, dtype=complex)
        if du:
            w = np.divide(-2.0 * np.cos(up), s ** 3, out=zeros, where=span)
        else:
            w = np.where(span, np.divide(1.0, s * s, out=zeros, where=span)
                         - 1.0 / 3.0, 5.0 / 3.0)
    else:
        lat = spec.lattice
        w = _on_lattice(spec, lambda: lat.wp_prime(up) if du else lat.wp(up),
                        up)
    return np.concatenate([w, -w if du else w], axis=-1)


# ---------------------------------------------------------------------------
# tensors in g (x) g


@dataclass
class TensorValue:
    """Element of g (x) g in coordinates over the product basis."""

    rs: RootSystem
    mat: np.ndarray

    def __post_init__(self):
        if self.mat.shape != (self.rs.dim, self.rs.dim):
            raise StructuralError(
                f"tensor has shape {self.mat.shape}, expected square of dim "
                f"{self.rs.dim}")

    def __add__(self, other: "TensorValue") -> "TensorValue":
        return TensorValue(self.rs, self.mat + other.mat)

    def __sub__(self, other: "TensorValue") -> "TensorValue":
        return TensorValue(self.rs, self.mat - other.mat)

    def __neg__(self) -> "TensorValue":
        return TensorValue(self.rs, -self.mat)

    def __mul__(self, scalar) -> "TensorValue":
        return TensorValue(self.rs, self.mat * scalar)

    __rmul__ = __mul__

    def swap_slots(self) -> "TensorValue":
        """r^{21} from r^{12}."""
        return TensorValue(self.rs, self.mat.T.copy())

    def pair_first(self, xi: AlgElement) -> AlgElement:
        """<r, xi (x) 1>: pair a covector into the first slot."""
        return AlgElement(self.rs, self.mat.T @ (self.rs.gram @ xi.vec))

    def pair_second(self, xi: AlgElement) -> AlgElement:
        """<r, 1 (x) xi>: pair a covector into the second slot."""
        return AlgElement(self.rs, self.mat @ (self.rs.gram @ xi.vec))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))


def casimir_tensor(rs: RootSystem) -> TensorValue:
    """The invariant element Omega = sum_i h_i (x) h_i + sum_alpha
    e_alpha (x) e_{-alpha}, dual to the bilinear form."""
    mat = np.zeros((rs.dim, rs.dim), dtype=complex)
    for i in range(rs.rank):
        mat[i, i] = 1.0
    for k, root in enumerate(rs.roots):
        kn = rs.root_index[negate(root)]
        mat[rs.rank + k, rs.rank + kn] = 1.0
    return TensorValue(rs, mat)


def r_tensor(spec: RMatrixSpec, q, z: complex, kz: int = 0,
             direction=None) -> TensorValue:
    """r(q, z), or its kz-th z-derivative, as a tensor in g (x) g.

    With a Cartan ``direction`` v the result is the directional q-derivative
    sum_i v_i d/dq_i of that tensor instead (v = e_i gives the partial
    derivative in q_i).  Only root terms survive it: the Cartan coefficient
    is q-independent in every family.  This is the one place where root
    coefficients enter a tensor, so ``fault_scale`` is applied here.
    """
    rs = spec.rs
    u = rs.root_values(q)
    mat = np.zeros((rs.dim, rs.dim), dtype=complex)
    if direction is None:
        np.fill_diagonal(mat[:rs.rank, :rs.rank], cartan_coeff(spec, z, kz))
    c = root_coeff(spec, u, z, kz, du=int(direction is not None))
    if spec.fault_scale != 1.0:
        c[list(spec.fault_root_indices)] *= spec.fault_scale
    if direction is not None:
        c = rs.root_values(direction) * c
    slots = np.arange(rs.rank, rs.dim)
    mat[slots, rs.dual_index[slots]] = c
    return TensorValue(rs, mat)


# ---------------------------------------------------------------------------
# axiom verification


def _circle(radius: float, nodes: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(nodes) / nodes
    return radius * np.exp(1j * angles)


def contour_tensor_residue(fn: Callable[[complex], TensorValue], rs: RootSystem,
                           radius: float = 0.1, nodes: int = 256) -> TensorValue:
    """(1/2 pi i) contour integral of a tensor-valued function around 0,
    by the trapezoidal rule (spectrally accurate for analytic integrands)."""
    acc = np.zeros((rs.dim, rs.dim), dtype=complex)
    for z in _circle(radius, nodes):
        acc += fn(z).mat * z
    return TensorValue(rs, acc / nodes)


def verify_axioms(spec: RMatrixSpec, samples: Sequence[tuple[np.ndarray, complex]],
                  *, quad_radius: float = 0.1, quad_nodes: int = 256) -> dict:
    """Zero-weight, unitarity and residue residuals over (q, z) samples.

    Returns the max residual per axiom; thresholds are the caller's business.
    The residue is computed once per sample by contour quadrature on
    |z| = quad_radius and compared against the Casimir tensor.
    """
    rs = spec.rs
    f = rs.structure
    omega = casimir_tensor(rs)
    zero_weight = unitarity = residue = 0.0
    for q, z in samples:
        r = r_tensor(spec, q, z)
        for i in range(rs.rank):
            t1 = np.einsum("ac,ab->cb", f[i], r.mat)
            t2 = np.einsum("bc,ab->ac", f[i], r.mat)
            zero_weight = max(zero_weight, float(np.max(np.abs(t1 + t2))))
        rminus = r_tensor(spec, q, -z)
        unitarity = max(unitarity, float(np.max(np.abs(r.mat + rminus.mat.T))))
        res = contour_tensor_residue(lambda w: r_tensor(spec, q, w), rs,
                                     quad_radius, quad_nodes)
        residue = max(residue, (res - omega).max_abs())
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
    f = rs.structure
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    r12 = r_tensor(spec, q, z12).mat
    r13 = r_tensor(spec, q, z13).mat
    r23 = r_tensor(spec, q, z23).mat

    cube = np.zeros((rs.dim, rs.dim, rs.dim), dtype=complex)
    # Alt(d_h r): h_i in slot 1, 2, 3 against dr/dq_i at z23, z31, z12
    for i, e_i in enumerate(np.eye(rs.rank)):
        cube[i, :, :] += r_tensor(spec, q, z23, direction=e_i).mat
        cube[:, i, :] += r_tensor(spec, q, -z13, direction=e_i).mat.T
        cube[:, :, i] += r_tensor(spec, q, z12, direction=e_i).mat
    cube += np.einsum("ab,cd,ace->ebd", r12, r13, f)
    cube += np.einsum("ab,cd,bce->aed", r12, r23, f)
    cube += np.einsum("ab,cd,bde->ace", r13, r23, f)
    return float(np.max(np.abs(cube)))


# ---------------------------------------------------------------------------
# Laurent elements and the operator R


class LaurentElement:
    """g-valued (or, via I, g*-valued) function of z with a finite pole at 0:
    sum_{j=1..T} X_{-j} z^{-j} + tail(z) with the tail analytic near 0."""

    def __init__(self, rs: RootSystem, principal: Sequence[AlgElement],
                 tail: Callable[[complex], AlgElement] | None = None):
        self.rs = rs
        coeffs = list(principal)
        while coeffs and coeffs[-1].max_abs() == 0.0:
            coeffs.pop()
        self.principal = tuple(coeffs)
        self.tail = tail

    @property
    def pole_order(self) -> int:
        return len(self.principal)

    def principal_coeff(self, j: int) -> AlgElement:
        """Coefficient X_{-j}; zero above the pole order."""
        if 1 <= j <= len(self.principal):
            return self.principal[j - 1]
        return AlgElement.zero(self.rs)

    def principal_eval(self, z: complex) -> AlgElement:
        vec = np.zeros(self.rs.dim, dtype=complex)
        for j, x in enumerate(self.principal, start=1):
            vec += x.vec * z ** (-j)
        return AlgElement(self.rs, vec)

    def eval(self, z: complex) -> AlgElement:
        out = self.principal_eval(z)
        if self.tail is not None:
            out = out + self.tail(z)
        return out

    def map_coeffs(self, fn: Callable[[AlgElement], AlgElement]) -> "LaurentElement":
        tail = None if self.tail is None else (lambda z: fn(self.tail(z)))
        return LaurentElement(self.rs, [fn(x) for x in self.principal], tail)

    @staticmethod
    def from_constant(x: AlgElement) -> "LaurentElement":
        return LaurentElement(x.rs, [], lambda z: x)

    @staticmethod
    def simple_pole(x: AlgElement) -> "LaurentElement":
        return LaurentElement(x.rs, [x])


def contour_coefficients(rs: RootSystem, fn: Callable[[complex], AlgElement],
                         order: int, *, radius: float = 0.35,
                         nodes: int = 256) -> list[AlgElement]:
    """Principal-part coefficients X_{-1}..X_{-order} of an analytic-away-
    from-0 function by contour quadrature on |z| = radius."""
    zs = _circle(radius, nodes)
    values = [fn(z) for z in zs]
    out = []
    for j in range(1, order + 1):
        acc = np.zeros(rs.dim, dtype=complex)
        for z, val in zip(zs, values):
            acc += val.vec * z ** j
        out.append(AlgElement(rs, acc / nodes))
    return out


def R_apply(spec: RMatrixSpec, q, xi: LaurentElement) -> LaurentElement:
    """The operator R_q applied to a Laurent covector:

        (R_q xi)(z) = (1/2)(I xi)(z)
                      + sum_{k >= 0} (1/k!) < d^k r / d z^k (q, -z),
                                              xi_{-(k+1)} (x) 1 >

    The sum is finite (k below the pole order).  The principal part of the
    result is exactly -(1/2) of xi's principal part, because r - Omega/z is
    analytic at z = 0 in every family; the tail callable evaluates the full
    closed form and subtracts that principal part."""
    rs = spec.rs
    order = xi.pole_order
    principal = [(-0.5) * xi.principal_coeff(j) for j in range(1, order + 1)]

    def full(z: complex) -> AlgElement:
        out = 0.5 * xi.eval(z)
        for k in range(order):
            tens = r_tensor(spec, q, -z, kz=k)
            out = out + (1.0 / math.factorial(k)) * tens.pair_first(
                xi.principal_coeff(k + 1))
        return out

    prin = LaurentElement(rs, principal)
    tail = lambda z: full(z) - prin.principal_eval(z)
    return LaurentElement(rs, principal, tail)


def R_directional(spec: RMatrixSpec, q, v, xi: LaurentElement
                  ) -> Callable[[complex], AlgElement]:
    """The q-directional derivative (X_v R_q)(xi) as a function of z; only
    the r-dependent part of R_q varies with q."""
    order = xi.pole_order

    def deriv(z: complex) -> AlgElement:
        out = AlgElement.zero(spec.rs)
        for k in range(order):
            tens = r_tensor(spec, q, -z, kz=k, direction=v)
            out = out + (1.0 / math.factorial(k)) * tens.pair_first(
                xi.principal_coeff(k + 1))
        return out

    return deriv


def default_mdybe_samples() -> list[complex]:
    return [0.6 * cmath.exp(2j * math.pi * k / 7) for k in range(7)] + \
           [0.85 * cmath.exp(2j * math.pi * (k + 0.5) / 5) for k in range(5)]


def verify_mdybe(spec: RMatrixSpec, q, xi: LaurentElement, eta: LaurentElement,
                 *, z_samples: Sequence[complex] | None = None,
                 quad_radius: float = 0.35, quad_nodes: int = 256) -> float:
    """Residual of the modified dynamical Yang-Baxter equation with
    c = -1/4 for the operator R = R_q:

        [R xi, R eta] - R(I^-1 [R xi, I eta] + I^-1 [I xi, R eta])
        + X_{j* xi}(R eta) - X_{j* eta}(R xi) + d<R xi, eta>
        = c [I xi, I eta]

    j* takes the Cartan block of the residue coefficient; the inner Laurent
    covector's principal part is extracted by contour quadrature; the
    differential d<R xi, eta> is the Cartan vector of q-derivatives of the
    residue pairing Res_z <eta(z), (R xi)(z)>."""
    rs = spec.rs
    if z_samples is None:
        z_samples = default_mdybe_samples()
    r_xi = R_apply(spec, q, xi)
    r_eta = R_apply(spec, q, eta)

    def w_eval(z: complex) -> AlgElement:
        return bracket(r_xi.eval(z), eta.eval(z)) + bracket(xi.eval(z),
                                                            r_eta.eval(z))

    order = xi.pole_order + eta.pole_order
    w_prin = contour_coefficients(rs, w_eval, order, radius=quad_radius,
                                  nodes=quad_nodes)
    prin_only = LaurentElement(rs, w_prin)
    inner = LaurentElement(rs, w_prin,
                           lambda z: w_eval(z) - prin_only.principal_eval(z))
    r_inner = R_apply(spec, q, inner)

    v_xi = xi.principal_coeff(1).cartan_coords
    v_eta = eta.principal_coeff(1).cartan_coords
    x_xi_reta = R_directional(spec, q, v_xi, eta)
    x_eta_rxi = R_directional(spec, q, v_eta, xi)

    # d<R xi, eta>: Cartan vector of q_i-derivatives of the residue pairing
    zs = _circle(quad_radius, quad_nodes)
    d_coords = np.zeros(rs.rank, dtype=complex)
    for i, e_i in enumerate(np.eye(rs.rank)):
        d_rxi = R_directional(spec, q, e_i, xi)
        acc = 0j
        for z in zs:
            acc += form(eta.eval(z), d_rxi(z)) * z
        d_coords[i] = acc / quad_nodes
    d_term = AlgElement.cartan(rs, d_coords)

    worst = 0.0
    for z in z_samples:
        res = bracket(r_xi.eval(z), r_eta.eval(z))
        res = res - r_inner.eval(z)
        res = res + x_xi_reta(z) - x_eta_rxi(z)
        res = res + d_term
        res = res - (-0.25) * bracket(xi.eval(z), eta.eval(z))
        worst = max(worst, res.max_abs())
    return worst


def coadjoint_transform_laurent(c_coords, xi: LaurentElement) -> LaurentElement:
    """Torus coadjoint action applied coefficient-wise to a Laurent covector."""
    return xi.map_coeffs(lambda x: torus_adjoint(c_coords, x))


def equivariance_residual(spec: RMatrixSpec, q, xi: LaurentElement, c_coords,
                          z_samples: Sequence[complex]) -> float:
    """Residual of R_q(Ad*_{h^-1} xi) = Ad_h R_q(xi) for the torus element
    with coroot-basis logarithm c_coords."""
    lhs = R_apply(spec, q, coadjoint_transform_laurent(c_coords, xi))
    rhs = R_apply(spec, q, xi)
    worst = 0.0
    for z in z_samples:
        diff = lhs.eval(z) - torus_adjoint(c_coords, rhs.eval(z))
        worst = max(worst, diff.max_abs())
    return worst
