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

All z- and q-derivatives needed anywhere in the package come from closed
forms, never finite differences: every ladder is the one Leibniz rule
(:func:`spincm.elliptic._leibniz`) over its function's ODE or product,
that of cot and csc in :func:`spincm.elliptic._cot_csc_ladder` and of wp
and the theta product of c in :meth:`Lattice._coefficient_ladder`, from
one pass per argument.
The Lax operators in :mod:`spincm.dynamics` read this kernel only through
:func:`_r_table`, which is what ties the r-matrix to the mechanics.

Each family has one array kernel (:func:`_ladder`): from the root values
u = rs.root_values(q) (roots on the last axis, z broadcasting against it)
it returns every z-derivative up to the order asked for, and the mixed
u-derivatives, in one pass.  Its pole guards read the family's singular
set from one place (:func:`_pole_distance`, which also gives
:func:`spincm.dynamics.collision_margin`; the trigonometric pair weight
reads its |sin u| off the sine it keeps) and name the first offending
root; a numpy floating-point fault raises FloatingPointError, so no table
holds inf or nan.  The pair weights are even in u, so they are evaluated
on the positive roots and mirrored.

Every r(q, z) is held as its coefficient vector c on arrays of z, with
r = sum_a c_a e_a (x) e_{dual(a)}.  R_q is an entrywise product: with c
itself on coordinates, and on (n+1) x (n+1) matrices with the coefficient
matrix C[i, j] = c_{e_j - e_i} (f on the diagonal), where the MDYBE check
brackets by commutators.  A Laurent covector is held as arrays, its
principal coefficients and its values on the nodes where they are needed.
The residue checks integrate on 32-node rings in the spec's ``length``
(:func:`quad_ring`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import KW_ONLY, dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .elliptic import POLE_TOL, Lattice, _cot_csc_ladder, _leibniz
from .errors import (PoleError, StructuralError, coords, finite,
                     raise_on_fp_fault, scalar)
from .rootsys import RootSystem, commutator, root_label

_ZTOL = 1e-13

FAMILIES = ("rational", "trigonometric", "elliptic")


# ---------------------------------------------------------------------------
# r-matrix specification


@dataclass(eq=False)
class RMatrixSpec:
    """A dynamical r-matrix family bound to a root system.

    Use the :func:`rational_r_matrix` and :func:`trigonometric_r_matrix`
    constructors, which validate the family data (closure of Delta', the
    polarization), or ``RMatrixSpec(rs, "elliptic", lattice=lattice)``,
    whose ``Lattice`` checked its orientation; ``make_system`` picks one.

    ``fault_scale`` is a negative-control knob used by the verification CLI:
    it multiplies the coefficient of one +/- root pair of the r-matrix's
    coefficient vectors, which preserves the zero-weight and unitarity
    axioms but breaks the residue normalization and the CDYBE.  The Lax
    and pair-weight kernels never read it, and the Lax-side tables of
    ``dynamics`` are taken from ``with_fault(1.0)``.

    ``length``, the unit of every verify sample and ring, is 1, or min(1,
    shortest_period / 4) on a lattice: the elliptic kernel is homogeneous,
    so a smaller lattice is checked at its own scale.
    """

    rs: RootSystem
    family: str
    _: KW_ONLY
    dp_mask: np.ndarray | None = None
    pi_prime: frozenset[int] = frozenset()
    plus_mask: np.ndarray | None = None
    lattice: Lattice | None = None
    fault_scale: complex = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StructuralError(f"unknown family {self.family!r}; expected "
                                  f"one of {', '.join(FAMILIES)}")
        if self.family == "rational" and self.dp_mask is None:
            raise StructuralError("rational family needs a dp_mask")
        if self.family == "elliptic" and not isinstance(self.lattice, Lattice):
            raise StructuralError("elliptic family needs a lattice")
        if self.family == "trigonometric":
            if self.plus_mask is None:      # the canonical positive system
                self.plus_mask = np.arange(self.rs.n_roots) < self.rs.n_pos
            # the roots in the span of Pi' have no simple root outside it
            off = [i for i in range(self.rs.rank) if i not in self.pi_prime]
            self.span_mask = ~np.array(self.rs.roots)[:, off].any(axis=1)
            # b - u/3 of the trigonometric root coefficient e^{b z} g(z):
            # 0 on the span of Pi', -i (Delta_+) or +i (Delta_-) off it
            self.trig_shift = np.where(self.span_mask, 0j,
                                       np.where(self.plus_mask, -1j, 1j))
        self.length = min(1.0, self.lattice.shortest_period / 4) \
            if self.family == "elliptic" else 1.0
        self.fault_scale = complex(self.fault_scale)
        self.fault_root_indices = (0, self.rs.n_pos)    # a +/- root pair

    def with_fault(self, scale: complex) -> "RMatrixSpec":
        """The spec with ``fault_scale`` = scale; itself if unchanged."""
        if complex(scale) == self.fault_scale:
            return self
        return replace(self, fault_scale=scale)

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
    mask = np.full(rs.n_roots, spec_arg == "full")
    for item in () if spec_arg in ("full", "empty") else spec_arg:
        root = tuple(int(c) for c in item)
        if root not in rs.root_index:
            raise StructuralError(f"{root} is not a root of A_{rs.rank}")
        mask[rs.root_index[root]] = True
    return mask


def rational_r_matrix(rs: RootSystem, delta_prime="full") -> RMatrixSpec:
    """Rational family over a subset Delta' closed under addition and
    negation, both read off M[a, b] = [e_a - e_b in Delta'] with a unit
    diagonal: a sum of two roots is a root only as (e_a - e_b) + (e_b -
    e_c), so Delta' is closed when the support of M M lies inside M.  An
    error names the first offending root, or pair in double-loop order."""
    mask = _resolve_root_subset(rs, delta_prime)
    neg = rs.dual_index[rs.rank:] - rs.rank
    for k in np.flatnonzero(mask & ~mask[neg])[:1]:
        raise StructuralError(f"delta_prime is not symmetric: missing "
                              f"{rs.roots[neg[k]]}")
    adj = np.eye(rs.matrix_size, dtype=int)
    adj[rs.root_entries] = mask
    if ((adj @ adj > 0) > adj).any():
        index = np.zeros_like(adj)
        index[rs.root_entries] = np.arange(rs.n_roots)
        a, b, c = np.nonzero(adj[:, :, None] * adj * (adj == 0)[:, None])
        ab, bc = list(index[a, b]), list(index[b, c])
        first, second = min(zip(ab + bc, bc + ab))
        raise StructuralError(f"delta_prime is not closed under addition: "
                              f"{rs.roots[first]} + {rs.roots[second]}")
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
    plus = None
    if delta_plus is not None:
        plus = _resolve_root_subset(rs, delta_plus)
        neg = rs.dual_index[rs.rank:] - rs.rank
        for k in np.flatnonzero(plus == plus[neg])[:1]:
            raise StructuralError(
                f"delta_plus is not a polarization: {rs.roots[k]} and "
                f"{rs.roots[neg[k]]} are on the same side")
    return RMatrixSpec(rs, "trigonometric", pi_prime=chosen, plus_mask=plus)


# ---------------------------------------------------------------------------
# coefficient functions (shared with the Lax operators in dynamics)


def _root_guard(spec: RMatrixSpec, bad: np.ndarray, what: str) -> None:
    """PoleError naming the first root (last axis) flagged in the boolean
    array ``bad``."""
    if bad.any():
        k = np.argwhere(bad)[0, -1]
        raise PoleError(f"{what} at the root {root_label(spec.rs.roots[k])}")


def _pole_distance(spec: RMatrixSpec, u) -> np.ndarray:
    """The family's singular set: the distance of each root value in ``u``
    (the roots, or a prefix of them such as the positive roots, on the last
    axis) to the poles of that root's coefficients, inf for a root whose
    coefficients have none.  |u| on Delta' (rational), |sin u| on the span
    of Pi' (trigonometric) and the lattice distance (elliptic)."""
    if spec.family == "elliptic":
        return spec.lattice.lattice_distance(u)
    if spec.family == "rational":
        mask, dist = spec.dp_mask, np.abs(u)
    else:
        mask, dist = spec.span_mask, np.abs(np.sin(u))
    return np.where(mask[:np.shape(u)[-1]], dist, np.inf)


def _pole_guard(spec: RMatrixSpec, u, what: str) -> None:
    """PoleError naming the first root of ``u`` within _ZTOL of a pole."""
    _root_guard(spec, _pole_distance(spec, u) < _ZTOL, what)


def _on_lattice(spec: RMatrixSpec, evaluate: Callable[[], np.ndarray],
                u: np.ndarray) -> np.ndarray:
    """evaluate(), whose Lattice passes (the flat sin/cos pass of wp and
    zeta, the ladder's exponential passes) carry the elliptic pole guards;
    when one fires, name the first root whose value in ``u`` (roots on the
    last axis) is on the lattice (a pole in z alone names no root)."""
    try:
        return evaluate()
    except PoleError as exc:
        _root_guard(spec, _pole_distance(spec, u) < POLE_TOL,
                    f"elliptic coefficient ({exc})")
        raise


def _trig_shift_cot(spec: RMatrixSpec, u: np.ndarray):
    """(b, cot u) of the root coefficient c = e^{b z} g(z), after the span
    pole guard: b = u/3 + trig_shift; cot u on the span of Pi', 0 off it."""
    _pole_guard(spec, u, "trigonometric coefficient: pole of cot (alpha, q)")
    cu = np.divide(1.0, np.tan(u), out=np.zeros(u.shape, dtype=complex),
                   where=spec.span_mask)
    return u / 3.0 + spec.trig_shift, cu


def _trig_ladder(spec: RMatrixSpec, u, z, kmax: int, du: int):
    # f = cot z + z/3, and c = e^{b z} g(z) with g = cot z + cot u on the
    # span of Pi' and g = csc z off it, the ladders of cot z and csc z from
    # _cot_csc_ladder; c_k = e^{b z} _leibniz(b^j, g, k), and since db/du =
    # 1/3 and d(cot u)/du = -1 - cot^2 u, the du row is d_u c_k = (z/3) c_k
    # + (k/3) c_{k-1} + e^{b z} b^k d_u g
    if (np.abs(np.sin(z)) < _ZTOL).any():
        raise PoleError("trigonometric r-matrix evaluated at a pole of cot z")
    cot, csc = _cot_csc_ladder(z, kmax)
    f = [cot[k] + (z / 3.0 if k == 0 else (1.0 / 3.0 if k == 1 else 0.0))
         for k in range(kmax)]
    b, cu = _trig_shift_cot(spec, u)
    span = spec.span_mask
    g = [np.where(span, cot[j] + (cu if j == 0 else 0.0), csc[j])
         for j in range(kmax)]
    bp = [1.0] + [b ** m for m in range(1, kmax)]
    growth = np.exp(b * z)
    # np.multiply, not *: numpy would run * in place on a large temporary
    # (a stacked table), whose complex loop rounds differently, and a
    # stacked table would no longer equal its per-sample ones bit for bit
    c = [np.multiply(growth, _leibniz(bp, g, k)) for k in range(kmax)]
    if not du:
        return f, [c]
    dg = growth * np.where(span, -1.0 - cu * cu, 0.0)
    return f, [c, [z / 3.0 * c[k] + (k / 3.0 * c[k - 1] if k else 0.0)
                   + bp[k] * dg for k in range(kmax)]]


def _ladder(spec: RMatrixSpec, u, z, kmax: int, du: int = 0):
    """The family kernel in one pass: (f, c), f[k] the k-th z-derivative of
    the Cartan coefficient and c[d][k] that of the root coefficients (d =
    0) and of their u-derivatives (d = 1 if du), for k < kmax; u holds
    the roots on its last axis and z broadcasts against it.  exp(bz),
    cot z, csc z, the zeta ladder and the pole guards are shared by every
    k."""
    fam = spec.family
    if fam == "trigonometric":
        return _trig_ladder(spec, u, z, kmax, du)
    if fam == "elliptic":
        return _on_lattice(spec, lambda: spec.lattice._coefficient_ladder(
            u, z, kmax, du), u)
    if (np.abs(z) < _ZTOL).any():
        raise PoleError("rational r-matrix evaluated at the z = 0 pole")
    f = [(-1) ** k * math.factorial(k) * z ** (-(k + 1)) for k in range(kmax)]
    _pole_guard(spec, u, "rational root coefficient: (alpha, q) = 0")
    zeros = np.zeros(np.broadcast(u, z).shape, dtype=complex)
    inv = np.divide(1.0, u, out=zeros.copy(), where=spec.dp_mask)
    c = [f[k] + (inv if k == 0 else zeros) for k in range(kmax)]
    return f, [c, [-inv * inv] + [zeros] * (kmax - 1)][:1 + du]


def root_coeff_reg0(spec: RMatrixSpec, u) -> np.ndarray:
    """lim_{z->0} (c_alpha(u_alpha, z) - 1/z) for every root, the regular
    part at the pole."""
    u = np.asarray(u, dtype=complex)
    fam = spec.family
    if fam == "rational":
        _pole_guard(spec, u, "rational regular part: (alpha, q) = 0")
        return np.divide(1.0, u, out=np.zeros(u.shape, dtype=complex),
                         where=spec.dp_mask)
    if fam == "trigonometric":
        b, cu = _trig_shift_cot(spec, u)
        return b + cu
    return _on_lattice(spec, lambda: spec.lattice.zeta(u), u)


def positive_pair_weight(spec: RMatrixSpec, up) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """(w, w') on the positive roots, whose values ``up`` holds on its last
    axis: w_alpha weighs xi_alpha xi_{-alpha} in H = |p|^2/2 - (1/2)
    sum_alpha w_alpha xi_alpha xi_{-alpha}, w' is its u-derivative.  The
    family's one weight kernel."""
    rs = spec.rs
    up = np.asarray(up, dtype=complex)
    fam = spec.family
    if fam == "rational":
        dp = spec.dp_mask[:rs.n_pos]
        _pole_guard(spec, up, "rational pair weight: (alpha, q) = 0")
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
        w, w_du = _on_lattice(spec, lambda: spec.lattice._wp_from_theta(
            spec.lattice._pass(up, "wp")[3]), up)
        w, w_du = w.reshape(up.shape), w_du.reshape(up.shape)
    return w, w_du


# ---------------------------------------------------------------------------
# coefficient tables


def _r_table(spec: RMatrixSpec, q, z, kmax: int, du: int = 0):
    """Coefficient vectors of the kz-th z-derivatives of r(q, z) for every
    order kz < kmax, from one kernel pass: shape (1 + du, kmax) + B +
    (dim,), B the broadcast of z against the stack axes of q, the Cartan
    coefficient in the first ``rank`` slots, then c_alpha.  Leading axes of
    q stack samples, and z broadcasts against them from the left, its nodes
    first (z of shape nodes + samples, or nodes + (1,) for shared nodes):
    each sample then meets the same loops as a single q.  Row 1 (du = 1)
    holds the mixed u,z-derivatives, with the (q-independent) Cartan slots
    0; z enters the kernel on a unit roots' axis (z[..., None]), so the
    elliptic row is one matrix product per z and sample.  The one place
    where ``fault_scale`` is applied."""
    rs = spec.rs
    z = np.asarray(z, dtype=complex)
    table = np.zeros((1 + du, kmax) + np.broadcast_shapes(
        z.shape, np.shape(q)[:-1]) + (rs.dim,), dtype=complex)
    if not table.size:
        return table
    f, c = _ladder(spec, rs.root_values(q), z[..., None], kmax, du)
    for k in range(kmax):
        table[0, k, ..., :rs.rank] = f[k]
        for d, row in enumerate(c):
            table[d, k, ..., rs.rank:] = row[k]
    if spec.fault_scale != 1.0:
        table[..., rs.rank + np.array(spec.fault_root_indices)] \
            *= spec.fault_scale
    return table


# ---------------------------------------------------------------------------
# contour quadrature


# The ring radii of the axiom and MDYBE checks, in the spec's length.  The
# trapezoidal rule's error on |z| = rho falls like (rho / R)^N, R the
# distance from 0 to the next pole of r in z (Trefethen & Weideman, SIAM
# Rev. 56, 2014), with a prefactor of about 1e4 on the faulted MDYBE
# residual; rho / R <= 0.35 / pi (R >= 4 length on a lattice), so 32 nodes
# give (rho / R)^N <= 1e-20 on every family.
AXIOM_QUAD_RADIUS = 0.1
MDYBE_QUAD_RADIUS = 0.35


def quad_ring(spec: RMatrixSpec, radius: float) -> np.ndarray:
    """The 32-node quadrature ring |z| = radius * spec.length."""
    return spec.length * radius * np.exp(2j * math.pi * np.arange(32) / 32)


def _ring_means(nodes: np.ndarray, values: np.ndarray,
                order: int) -> np.ndarray:
    """The z^-1..z^-order coefficients at 0 of a stack of functions, from
    their ``values`` (samples, nodes, ...) on a ring: mean(values * z^j),
    one product per sample.  Shape (order, samples, ...)."""
    powers = np.power.outer(nodes, np.arange(1, order + 1)).T
    means = (powers @ values.reshape(values.shape[:2] + (-1,))) / len(nodes)
    return np.moveaxis(means, 1, 0).reshape(
        (order,) + values.shape[:1] + values.shape[2:])


# ---------------------------------------------------------------------------
# axiom verification


@raise_on_fp_fault
def verify_axioms(spec: RMatrixSpec, q, z) -> dict:
    """Zero-weight, unitarity and residue residuals at every (q, z) sample
    (q of shape (..., rank), its leading axes stacking samples, and z of
    their shape), one array each (a float for q of shape (rank,));
    thresholds are the caller's business.  On the coefficient vector c:
    the weights of slots a and dual(a) cancel on c_a, c(z)[a] + c(-z)[dual(a)]
    = 0, and the residue at z = 0 (on the ring AXIOM_QUAD_RADIUS) is the
    Casimir tensor, c = 1.  One kernel pass for all samples (StructuralError
    if none, or on another shape)."""
    rs = spec.rs
    weights = np.concatenate([np.zeros((rs.rank, rs.rank)), rs.alpha_h])
    slot_weight = weights + weights[rs.dual_index]
    q = coords(q, "q", ..., rs.rank, nonempty=True)
    lead, ring = q.shape[:-1], quad_ring(spec, AXIOM_QUAD_RADIUS)
    z = coords(z, "z", *lead, nonempty=True).reshape(-1)
    nodes = np.broadcast_to(ring[:, None], (len(ring), len(z)))
    c = _r_table(spec, q.reshape(-1, rs.rank),
                 np.concatenate([[z, -z], nodes]), 1)[0, 0]
    res = _ring_means(ring, np.moveaxis(c[2:], 1, 0), 1)[0]
    out = {"zero_weight": np.max(np.abs(slot_weight * c[0, ..., None]),
                                 (-2, -1)),
           "unitarity": np.max(np.abs(c[0] + c[1][..., rs.dual_index]), -1),
           "residue": np.max(np.abs(res - 1.0), -1)}
    return {k: scalar(v.reshape(lead)) for k, v in out.items()}


@lru_cache(maxsize=None)
def _structure_nz(rs: RootSystem) -> tuple[np.ndarray, ...]:
    """(a, b, c, f) index and value arrays of the nonzero structure
    constants, [e_a, e_b] = sum_c f[a, b, c] e_c (276 on A_4), from the
    brackets of all basis pairs."""
    eye = np.eye(rs.dim)
    f = rs.bracket_coords(eye[:, None], eye).real
    a, b, c = np.nonzero(f)
    return a, b, c, f[a, b, c]


@raise_on_fp_fault
def verify_cdybe(spec: RMatrixSpec, q, z1, z2, z3):
    """Residual of the classical dynamical Yang-Baxter equation at (q, z1,
    z2, z3), as the max-abs coefficient of the g (x) g (x) g tensor

        Alt(d_h r) + [r12(z12), r13(z13)] + [r12(z12), r23(z23)]
                   + [r13(z13), r23(z23)]

    with z_ij = z_i - z_j and all q-derivatives analytic.  Leading axes of
    q stack samples (q (..., rank), each z of their shape; or q (rank,) and
    scalar z), with one z triple per sample: one kernel pass for all, and
    one residual per sample (a float for one; StructuralError for none, or
    on another shape)."""
    rs = spec.rs
    (a, b, c, f), d = _structure_nz(rs), rs.dual_index
    q = coords(q, "q", ..., rs.rank, nonempty=True)
    z1, z2, z3 = (coords(v, f"z{k}", *q.shape[:-1])
                  for k, v in enumerate((z1, z2, z3), 1))
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    # one kernel pass: r at z12, z13, z23 and dr/dq at z23, z31, z12
    r, dr = _r_table(spec, q, [z12, z13, z23, -z13], 1, du=1)[:, 0]
    c12, c13, c23 = r[:3]
    d23, d31, d12 = dr[[2, 3, 0], ..., rs.rank:, None] * rs.alpha_h

    cube = np.zeros(q.shape[:-1] + (rs.dim,) * 3, dtype=complex)
    # Alt(d_h r): h_i in slot 1, 2, 3 against dr/dq_i at z23, z31, z12,
    # where dr/dq_i = sum_alpha alpha(h_i) c'_alpha e_alpha (x) e_{-alpha}
    i, roots = np.arange(rs.rank), np.arange(rs.rank, rs.dim)[:, None]
    cube[..., i, roots, d[roots]] += d23
    cube[..., d[roots], i, roots] += d31
    cube[..., roots, d[roots], i] += d12
    # [r12, r13] + [r12, r23] + [r13, r23]; no index repeats within a term
    cube[..., c, d[a], d[b]] += f * c12[..., a] * c13[..., b]
    cube[..., d[a], c, d[b]] += f * c12[..., d[a]] * c23[..., b]
    cube[..., d[a], d[b], c] += f * c13[..., d[a]] * c23[..., d[b]]
    return scalar(np.max(np.abs(cube), axis=(-3, -2, -1)))


# ---------------------------------------------------------------------------
# Laurent covectors and the operator R


def _trim_principal(rs: RootSystem, v, stack: int) -> np.ndarray:
    """Principal coefficients (stack, T, dim) with the rows zero in every
    sample trimmed from the top, so that T is the pole order."""
    v = np.asarray(v, dtype=complex).reshape(stack, -1, rs.dim)
    return v[:, :1 + np.flatnonzero(v.any(axis=(0, 2))).max(initial=-1)]


def _r_pairing(table, principal) -> np.ndarray:
    """sum_{k < T} (1/k!) < r_k, X_{-(k+1)} (x) 1 > for the T rows X of
    ``principal``: an entrywise product, table[k] holding r_k's coefficient
    on each entry of X (c[dual] in coordinates, C in matrices).  The einsum
    sets no floating-point flag, so a non-finite result raises
    FloatingPointError here."""
    t = len(principal)
    inv_fact = [1.0 / math.factorial(k) for k in range(t)]
    return finite(np.einsum("k...,k...,k->...", table[:t], principal,
                            inv_fact), "the r-matrix pairing")


def default_mdybe_samples(length: float = 1.0) -> list[complex]:
    """The MDYBE samples, on |z| = 0.6 and 0.85 times ``length``."""
    return [length * r * cmath.exp(2j * math.pi * (k + shift) / n)
            for r, n, shift in ((0.6, 7, 0), (0.85, 5, 0.5)) for k in range(n)]


@raise_on_fp_fault
def verify_mdybe(spec: RMatrixSpec, q, xi, eta, *,
                 z_samples: Sequence[complex] | None = None):
    """Residual of the modified dynamical Yang-Baxter equation with
    c = -1/4 for the operator R = R_q:

        [R xi, R eta] - R(I^-1 [R xi, I eta] + I^-1 [I xi, R eta])
        + X_{j* xi}(R eta) - X_{j* eta}(R xi) + d<R xi, eta>
        = c [I xi, I eta]

    ``xi`` and ``eta`` are pole-only Laurent covectors given by their
    principal coefficients, shape (T, dim).  R xi and R eta are evaluated
    on the ring MDYBE_QUAD_RADIUS, which gives the principal part of the
    inner covector and the residue pairing Res_z <eta(z), (R xi)(z)> whose
    q-derivatives form the Cartan vector d<R xi, eta> (j* takes the Cartan
    block of the residue coefficient), and every term at ``z_samples`` (by
    default those of the spec's length), over which the residual is the
    max; StructuralError if there is no q or no z.

    Leading axes stack samples (q (..., rank), xi and eta (..., T, dim),
    z_samples (m,) or (..., m); StructuralError on another shape), with one
    kernel pass for all and one residual per sample (a float for a single
    one); each sample keeps its own arithmetic.  xi, eta and every term
    are (sample, node, n+1, n+1) matrices; only the residual goes back to
    coordinates, for its max."""
    rs, ring = spec.rs, quad_ring(spec, MDYBE_QUAD_RADIUS)
    q = coords(q, "q", ..., rs.rank, nonempty=True)
    lead = q.shape[:-1]
    xi, eta = (coords(v, name, *lead, "T", rs.dim)
               for name, v in (("xi", xi), ("eta", eta)))
    samples = coords(default_mdybe_samples(spec.length) if z_samples is None
                     else z_samples, "z_samples", ..., "m", nonempty=True)
    # shared by every sample, or one row of z_samples per sample
    samples = coords(samples, "z_samples", *(lead if samples.ndim > 1 else ()),
                     "m").reshape(-1, samples.shape[-1])
    n, qs = len(ring), q.reshape(-1, rs.rank)
    nodes = np.concatenate([np.broadcast_to(ring, (len(samples), n)),
                            samples], -1)
    # values (S, node, ...) and principal parts (T, S, 1, ...), the order
    # axis leading as _r_pairing takes it
    cx, ce = (_trim_principal(rs, v, len(qs)) for v in (xi, eta))
    (x, px), (e, pe) = (
        (rs.to_matrix(np.power.outer(nodes, -np.arange(1, c.shape[1] + 1))
                      @ c), np.moveaxis(rs.to_matrix(c), 1, 0)[:, :, None])
        for c in (cx, ce))
    # r tables (order, node, S, dim) as matrices C (order, S, node, ...):
    # C = c[..., slots], the dual of E_ij's slot off the diagonal, f on it
    slots = np.zeros((rs.matrix_size,) * 2, dtype=int)
    slots[rs.root_entries] = rs.dual_index[rs.rank:]
    r0, r1 = _r_table(spec, qs, -nodes.T, max(len(px), len(pe)),
                      du=1).swapaxes(2, 3)[..., slots]
    r_x, r_e = 0.5 * x + _r_pairing(r0, px), 0.5 * e + _r_pairing(r0, pe)
    # the inner covector [R xi, eta] + [xi, R eta] and R of it at the samples
    w = commutator(r_x, e) + commutator(x, r_e)
    inner = _ring_means(ring, w[:, :n], len(px) + len(pe))
    r0_s = _r_table(spec, qs, -samples.T, len(inner))[0].swapaxes(1, 2)[
        ..., slots]
    res = (commutator(r_x[:, n:], r_e[:, n:])
           + 0.25 * commutator(x[:, n:], e[:, n:])
           - 0.5 * w[:, n:] - _r_pairing(r0_s, inner[:, :, None]))
    # X_{j* xi}(R eta) - X_{j* eta}(R xi): the du = 1 pairing of eta with
    # C[i, j] scaled by (e_j - e_i)(j* xi), and the other way round; d is
    # the diagonal of the Cartan element j* xi (none without a pole)
    for c, p, sign in ((cx, pe, 1.0), (ce, px, -1.0)):
        if c.shape[1]:
            d = c[:, :1, :rs.rank] @ rs.h_diag
            res += _r_pairing(sign * r1[:, :, n:]
                              * (d - d.swapaxes(-1, -2))[:, None], p)
    # d<R xi, eta>: q-derivatives of the residue pairing for every Cartan
    # direction at once, sum_alpha eta_alpha p_{-alpha} h_alpha with p the
    # du = 1 pairing of xi; h_alpha = E_ii - E_jj for alpha = e_i - e_j
    g = e[:, :n] * _r_pairing(r1[:, :, :n], px).swapaxes(-1, -2)
    res += _ring_means(ring, g.sum(-1) - g.sum(-2), 1)[0, :, None, :, None] \
        * np.eye(rs.matrix_size)
    return scalar(np.max(np.abs(rs.to_coords(res)), axis=(-2, -1)).reshape(
        lead))
