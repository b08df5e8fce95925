"""Phase spaces, Poisson brackets, torus action and reduction.

The unreduced phase space is the product of T*h* (canonical bracket in the
orthonormal Cartan coordinates q, p, dual-bundle orientation {p_i, q_j} =
+delta_ij) and g* with the plus Lie-Poisson structure

    {F, G}(q, p, xi) = sum_i (dF/dp_i dG/dq_i - dF/dq_i dG/dp_i)
                       + <xi, [dF_xi, dG_xi]>.

Hamiltonian flow is F |-> {H, F}, so trajectories still satisfy the
mechanical dq/dt = +dH/dp.

Covectors are stored as algebra elements through the form isomorphism (see
:mod:`spincm.rootsys`), so the Lie-Poisson term is ``form(xi, bracket(...))``
verbatim.

The Cartan torus acts by (q, p, xi) -> (q, p, Ad*_{h^-1} xi), which scales
each spin component: xi_alpha -> exp(alpha(log h)) xi_alpha.  Its momentum
map is the Cartan block of xi.  On the open set U where all simple-root
components are nonzero, every orbit in J^-1(0) meets the slice
{xi_{alpha_i} = 1} exactly once; the reduction projection sends xi to the
invariant monomials

    s_alpha = xi_alpha prod_i xi_{alpha_i}^{-m_alpha^i},

where m_alpha are the integer simple-root coordinates of alpha.  The
exponents are integers, so no branch choices enter the projection.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GaugeDomainError, StructuralError
from .rootsys import (AlgElement, Root, RootSystem, bracket, form, negate,
                      root_label, torus_adjoint)

OUTSIDE_U_TOL = 1e-13


@dataclass(frozen=True)
class PhasePoint:
    """Point (q, p, xi) of T*h* x g*."""

    q: np.ndarray
    p: np.ndarray
    xi: AlgElement

    def __post_init__(self):
        rank = self.rs.rank
        if self.q.shape != (rank,) or self.p.shape != (rank,):
            raise StructuralError(
                f"q and p must have {rank} coordinates each, got "
                f"{self.q.shape} and {self.p.shape}")

    @property
    def rs(self) -> RootSystem:
        return self.xi.rs

    @staticmethod
    def make(rs: RootSystem, q, p, xi_cartan=None,
             xi_components: dict[Root, complex] | None = None) -> "PhasePoint":
        xi = AlgElement.from_root_dict(rs, xi_components or {}, cartan=xi_cartan)
        return PhasePoint(np.asarray(q, dtype=complex),
                          np.asarray(p, dtype=complex), xi)


def reduced_roots(rs: RootSystem) -> tuple[Root, ...]:
    """Roots carrying independent reduced spin coordinates: everything but
    the positive simple roots (whose coordinates are pinned to 1)."""
    return rs.roots[rs.rank:]


@dataclass(frozen=True)
class ReducedPoint:
    """Point (q, p, s) of the reduced phase space.

    ``s`` is ordered like :func:`reduced_roots`; the simple-root components
    are implicitly 1 and are not stored.
    """

    rs: RootSystem
    q: np.ndarray
    p: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        rank = self.rs.rank
        n_s = self.rs.n_roots - rank
        if self.q.shape != (rank,) or self.p.shape != (rank,):
            raise StructuralError(
                f"q and p must have {rank} coordinates each, got "
                f"{self.q.shape} and {self.p.shape}")
        if self.s.shape != (n_s,):
            raise StructuralError(
                f"expected {n_s} reduced spin coordinates, got {self.s.shape}")

    def s_coeff(self, root: Root) -> complex:
        """Spin coordinate of a root; 1 on the positive simple roots."""
        k = self.rs.root_index[root]
        if k < self.rs.rank:
            return 1.0 + 0j
        return complex(self.s[k - self.rs.rank])

    @staticmethod
    def make(rs: RootSystem, q, p,
             s_components: dict[Root, complex]) -> "ReducedPoint":
        s = np.zeros(rs.n_roots - rs.rank, dtype=complex)
        for root, c in s_components.items():
            k = rs.root_index.get(root)
            if k is None or k < rs.rank:
                raise StructuralError(
                    f"{root} does not carry a reduced spin coordinate")
            s[k - rs.rank] = c
        return ReducedPoint(rs, np.asarray(q, dtype=complex),
                            np.asarray(p, dtype=complex), s)


# ---------------------------------------------------------------------------
# scalar functions with analytic gradients


@dataclass
class PhaseGradient:
    dq: np.ndarray
    dp: np.ndarray
    dxi: AlgElement        # element of g: the differential along g*


@dataclass
class PhaseFunction:
    """Scalar function on the unreduced space with an analytic gradient."""

    value: Callable[[PhasePoint], complex]
    gradient: Callable[[PhasePoint], PhaseGradient]


@dataclass
class ReducedGradient:
    dq: np.ndarray
    dp: np.ndarray
    ds: np.ndarray


@dataclass
class ReducedFunction:
    value: Callable[[ReducedPoint], complex]
    gradient: Callable[[ReducedPoint], ReducedGradient]


def linear_spin_function(rs: RootSystem, y: AlgElement) -> PhaseFunction:
    """The linear function xi -> <xi, Y> on g*, constant in (q, p)."""
    zero = np.zeros(rs.rank)

    def val(x: PhasePoint) -> complex:
        return form(x.xi, y)

    def grad(x: PhasePoint) -> PhaseGradient:
        return PhaseGradient(zero, zero, y)

    return PhaseFunction(val, grad)


def bracket_full(f: PhaseFunction, g: PhaseFunction, x: PhasePoint) -> complex:
    """Poisson bracket {F, G}(x) on T*h* x g*.

    The canonical part carries the dual-bundle orientation, {p_i, q_j} =
    +delta_ij, and the spin part is the plus Lie-Poisson bracket.  With
    this normalization the bracket relation between Lax components and
    the involution of spectral invariants hold with the signs used
    throughout the dynamics module; the Hamiltonian flow is F |-> {H, F},
    which reads dq/dt = +dH/dp in mechanical terms.
    """
    gf, gg = f.gradient(x), g.gradient(x)
    canonical = complex(gf.dp @ gg.dq - gf.dq @ gg.dp)
    return canonical + form(x.xi, bracket(gf.dxi, gg.dxi))


# ---------------------------------------------------------------------------
# torus action, momentum, gauge


def momentum_J(x: PhasePoint) -> np.ndarray:
    """Momentum map of the torus action: the Cartan block of xi."""
    return x.xi.vec[: x.rs.rank].copy()


def torus_action(c_coords, x: PhasePoint) -> PhasePoint:
    """Action of the torus element with log-coordinates ``c_coords`` over the
    coroot basis: fixes (q, p), scales xi_alpha by exp(alpha(log h))."""
    return PhasePoint(x.q, x.p, torus_adjoint(c_coords, x.xi))


def _simple_components(xi: AlgElement) -> np.ndarray:
    rs = xi.rs
    vals = np.array([xi.coeff(r) for r in rs.simple_roots])
    bad = [root_label(rs.simple_roots[j]) for j in range(rs.rank)
           if abs(vals[j]) < OUTSIDE_U_TOL]
    if bad:
        raise GaugeDomainError(
            "point is outside the gauge domain: vanishing simple spin "
            "component(s) " + ", ".join(bad))
    return vals


def gauge_g(xi: AlgElement) -> np.ndarray:
    """Log-coordinates (over the coroot basis) of the gauge torus element
    g(xi) = exp(sum_i c_i h_{alpha_i}) with c = C^T log(xi_{alpha_j});
    principal branch of log.  The action of g(xi)^{-1} moves xi onto the
    slice xi_{alpha_i} = 1."""
    rs = xi.rs
    vals = _simple_components(xi)
    logs = np.array([cmath.log(v) for v in vals])
    c_inv = np.array([[float(x) for x in row] for row in rs.cartan_inverse])
    return c_inv.T @ logs


def normalize_to_slice(x: PhasePoint) -> PhasePoint:
    """Move x along its torus orbit onto the slice xi_{alpha_i} = 1."""
    return torus_action(-gauge_g(x.xi), x)


# ---------------------------------------------------------------------------
# reduction


def spin_invariant(xi: AlgElement, root: Root) -> complex:
    """The H-invariant monomial s_alpha(xi) of Eq. given in the module
    docstring; integer powers only."""
    rs = xi.rs
    out = xi.coeff(root)
    for j, simple in enumerate(rs.simple_roots):
        power = -root[j]
        if power:
            out *= xi.coeff(simple) ** power
    return out


def spin_invariant_gradient(xi: AlgElement, root: Root) -> AlgElement:
    """Differential of s_alpha at a general point of U, as an element of g."""
    rs = xi.rs
    simple_vals = _simple_components(xi)
    mono = 1.0 + 0j
    for j in range(rs.rank):
        if root[j]:
            mono *= simple_vals[j] ** (-root[j])
    out = mono * AlgElement.basis(rs, rs.basis_index(negate(root)))
    xi_root = xi.coeff(root)
    for j, simple in enumerate(rs.simple_roots):
        if root[j]:
            coeff = -root[j] * xi_root * mono / simple_vals[j]
            out = out + coeff * AlgElement.basis(rs, rs.basis_index(negate(simple)))
    return out


def project_pi(x: PhasePoint) -> ReducedPoint:
    """Reduction projection (q, p, xi) -> (q, p, s); constant on torus orbits.

    Defined on U = {xi_{alpha_i} != 0}.  The Cartan block of xi is the
    conserved momentum and does not enter s; the dynamically meaningful case
    is J = 0, which the caller enforces where it matters.
    """
    rs = x.rs
    _simple_components(x.xi)       # outside-U guard
    s = np.array([spin_invariant(x.xi, root) for root in reduced_roots(rs)])
    return ReducedPoint(rs, x.q, x.p, s)


def lift_reduced(x_red: ReducedPoint) -> PhasePoint:
    """The canonical section of project_pi: xi_i = 0, xi_{alpha_i} = 1,
    xi_alpha = s_alpha for the remaining roots."""
    rs = x_red.rs
    vec = np.zeros(rs.dim, dtype=complex)
    vec[rs.rank:2 * rs.rank] = 1.0     # the simple roots are roots[:rank]
    vec[2 * rs.rank:] = x_red.s
    return PhasePoint(np.asarray(x_red.q, dtype=complex),
                      np.asarray(x_red.p, dtype=complex), AlgElement(rs, vec))


def lift_tangent(v_red: ReducedPoint) -> PhasePoint:
    """Push a reduced tangent vector (q, p, s)-dot forward along
    lift_reduced: the Cartan spin block and the simple components of the
    lift are constant, so only the reduced roots move."""
    rs = v_red.rs
    vec = np.zeros(rs.dim, dtype=complex)
    vec[2 * rs.rank:] = v_red.s
    return PhasePoint(v_red.q, v_red.p, AlgElement(rs, vec))


def reduce_gradient(g: PhaseGradient) -> ReducedGradient:
    """Pull a gradient taken at a slice lift back to (q, p, s).  The lift
    sets xi_gamma = s_gamma and a unit change of xi_gamma pairs with the
    e_{-gamma} coefficient of dxi, so ds_gamma is that coefficient."""
    rs = g.dxi.rs
    return ReducedGradient(g.dq, g.dp, g.dxi.vec[rs.dual_index[2 * rs.rank:]])


def reduction_chain_vectors(x_red: ReducedPoint) -> list[AlgElement]:
    """Differentials d s_gamma at the slice lift, one per reduced root:
    d s_gamma = e_{-gamma} - s_gamma sum_j m_gamma^j e_{-alpha_j}."""
    rs = x_red.rs
    out = []
    for k, root in enumerate(reduced_roots(rs)):
        vec = AlgElement.basis(rs, rs.basis_index(negate(root)))
        s_val = complex(x_red.s[k])
        for j, simple in enumerate(rs.simple_roots):
            if root[j]:
                vec = vec - (s_val * root[j]) * AlgElement.basis(
                    rs, rs.basis_index(negate(simple)))
        out.append(vec)
    return out


def spin_tensor(x_red: ReducedPoint) -> np.ndarray:
    """Reduced Poisson tensor block P[gamma, delta] = {s_gamma, s_delta}."""
    rs = x_red.rs
    lift = lift_reduced(x_red)
    chain = reduction_chain_vectors(x_red)
    n_s = len(chain)
    p = np.zeros((n_s, n_s), dtype=complex)
    for a in range(n_s):
        for b in range(a + 1, n_s):
            val = form(lift.xi, bracket(chain[a], chain[b]))
            p[a, b] = val
            p[b, a] = -val
    return p


def bracket_reduced(f: ReducedFunction, g: ReducedFunction,
                    x_red: ReducedPoint) -> complex:
    """Reduced Poisson bracket, evaluated by pulling both functions back
    through project_pi and applying bracket_full at the slice lift.

    The canonical orientation matches bracket_full: {p_i, q_j} = +delta_ij.
    """
    gf, gg = f.gradient(x_red), g.gradient(x_red)
    canonical = complex(gf.dp @ gg.dq - gf.dq @ gg.dp)
    lift = lift_reduced(x_red)
    chain = reduction_chain_vectors(x_red)
    dxi_f = AlgElement.zero(x_red.rs)
    dxi_g = AlgElement.zero(x_red.rs)
    for k, vec in enumerate(chain):
        if gf.ds[k] != 0:
            dxi_f = dxi_f + gf.ds[k] * vec
        if gg.ds[k] != 0:
            dxi_g = dxi_g + gg.ds[k] * vec
    return canonical + form(lift.xi, bracket(dxi_f, dxi_g))


def spin_coordinate_function(rs: RootSystem, root: Root) -> ReducedFunction:
    """The coordinate function s_gamma on the reduced space."""
    k = rs.root_index[root]
    if k < rs.rank:
        raise StructuralError(
            f"{root} is a positive simple root; its coordinate is pinned to 1")
    idx = k - rs.rank
    zero_c = np.zeros(rs.rank)

    def val(x: ReducedPoint) -> complex:
        return complex(x.s[idx])

    def grad(x: ReducedPoint) -> ReducedGradient:
        ds = np.zeros(rs.n_roots - rs.rank, dtype=complex)
        ds[idx] = 1.0
        return ReducedGradient(zero_c, zero_c, ds)

    return ReducedFunction(val, grad)
