"""Phase spaces, Poisson brackets, torus action and reduction.

The unreduced phase space is the product of T*h* (canonical bracket in the
orthonormal Cartan coordinates q, p, dual-bundle orientation {p_i, q_j} =
+delta_ij) and g* with the plus Lie-Poisson structure

    {F, G}(q, p, xi) = sum_i (dF/dp_i dG/dq_i - dF/dq_i dG/dp_i)
                       + <xi, [dF_xi, dG_xi]>.

Hamiltonian flow is F |-> {H, F}, so trajectories still satisfy the
mechanical dq/dt = +dH/dp.

Covectors are stored as algebra elements through the form isomorphism (see
:mod:`spincm.rootsys`), so the Lie-Poisson term is dF_xi F dG_xi^T with
F[a, b] = <xi, [e_a, e_b]> (:func:`lie_poisson`).  A bracket reads its
pairs from the Poisson tensor, whose reduced form is Pi = canonical block
+ C F C^T (:func:`reduced_brackets`).

The Cartan torus acts by (q, p, xi) -> (q, p, Ad*_{h^-1} xi), which scales
each spin component: xi_alpha -> exp(alpha(log h)) xi_alpha.  Its momentum
map is the Cartan block of xi.  On the open set U where all simple-root
components are nonzero, every orbit in J^-1(0) meets the slice
{xi_{alpha_i} = 1} exactly once; the reduction projection sends xi to the
invariant monomials

    s_alpha = xi_alpha prod_i xi_{alpha_i}^{-m_alpha^i},

where m_alpha are the integer simple-root coordinates of alpha.  The
exponents are integers, so no branch choices enter the projection.  One
array core, :func:`reduction`, holds the guard of U, s and the gauge g(xi)
for points stacked on leading axes; :func:`project_pi` and :func:`gauge_g`
read it at one point.  The differential of s at the slice lift is
written once, on the table of the m_alpha^i: :func:`pushforward`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GaugeDomainError, StructuralError, raise_on_fp_fault
from .rootsys import AlgElement, Root, RootSystem, root_label, torus_adjoint

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
        if self.xi.vec.shape != (self.rs.dim,):
            raise StructuralError(f"expected {self.rs.dim} spin coordinates, "
                                  f"got {self.xi.vec.shape}")

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
# torus action and momentum


def momentum_J(x: PhasePoint) -> np.ndarray:
    """Momentum map of the torus action: the Cartan block of xi."""
    return x.xi.vec[: x.rs.rank].copy()


def torus_action(c_coords, x: PhasePoint) -> PhasePoint:
    """Action of the torus element with log-coordinates ``c_coords`` over the
    coroot basis: fixes (q, p), scales xi_alpha by exp(alpha(log h))."""
    return PhasePoint(x.q, x.p, torus_adjoint(c_coords, x.xi))


# ---------------------------------------------------------------------------
# reduction and gauge


def reduction(rs: RootSystem, xi) -> tuple[np.ndarray, np.ndarray]:
    """(s, g) at the spin coordinates xi (leading axes stack points): s
    ordered like :func:`reduced_roots`, g = C^T log xi_{alpha_j} (principal
    log).  Off U (a simple component below OUTSIDE_U_TOL) GaugeDomainError
    names the roots and the flat index of the first such point."""
    xi = np.asarray(xi, dtype=complex)
    simple = xi[..., rs.rank:2 * rs.rank]  # the simple roots are roots[:rank]
    outside = np.abs(simple).reshape(-1, rs.rank) < OUTSIDE_U_TOL
    if outside.any():
        k = int(np.argmax(outside.any(-1)))
        raise GaugeDomainError(
            "point is outside the gauge domain: vanishing simple spin "
            "component(s) " + ", ".join(root_label(r) for r, bad in zip(
                rs.simple_roots, outside[k]) if bad),
            index=k if simple.ndim > 1 else None)
    factors = simple[..., None, :] ** -_simple_coords(rs).T
    s = np.prod(np.concatenate([xi[..., 2 * rs.rank:, None], factors], -1), -1)
    # g a row product per point, so a point's g does not depend on its stack
    g = np.log(simple)[..., None, :] @ np.array(rs.cartan_inverse, dtype=float)
    return s, g[..., 0, :]


@raise_on_fp_fault
def gauge_g(xi: AlgElement) -> np.ndarray:
    """Log-coordinates c = C^T log(xi_{alpha_j}) (:func:`reduction`) of the
    gauge torus element g(xi) = exp(sum_i c_i h_{alpha_i}) over the coroot
    basis; g(xi)^{-1} moves xi onto the slice xi_{alpha_i} = 1."""
    return reduction(xi.rs, xi.vec)[1]


@raise_on_fp_fault
def project_pi(x: PhasePoint) -> ReducedPoint:
    """Reduction projection (q, p, xi) -> (q, p, s); constant on torus orbits.

    Defined on U = {xi_{alpha_i} != 0} (:func:`reduction`).  The Cartan
    block of xi is the conserved momentum and does not enter s; the
    dynamically meaningful case is J = 0, which the caller enforces.
    """
    return ReducedPoint(x.rs, x.q, x.p, reduction(x.rs, x.xi.vec)[0])


def slice_lift(rs: RootSystem, s: np.ndarray) -> np.ndarray:
    """xi coordinates of the canonical section of project_pi: xi_i = 0,
    xi_{alpha_i} = 1, xi_alpha = s_alpha for the remaining roots (leading
    axes of s are kept)."""
    vec = np.zeros(s.shape[:-1] + (rs.dim,), dtype=complex)
    vec[..., rs.rank:2 * rs.rank] = 1.0  # the simple roots are roots[:rank]
    vec[..., 2 * rs.rank:] = s
    return vec


def lift_reduced(x_red: ReducedPoint) -> PhasePoint:
    """The point of the canonical section (:func:`slice_lift`) over x_red."""
    return PhasePoint(np.asarray(x_red.q, dtype=complex),
                      np.asarray(x_red.p, dtype=complex),
                      AlgElement(x_red.rs, slice_lift(x_red.rs, x_red.s)))


@lru_cache(maxsize=None)
def _simple_coords(rs: RootSystem) -> np.ndarray:
    """The (rank, n_s) table of the m_gamma^j, complex, built once."""
    return np.array(reduced_roots(rs), dtype=complex).T.copy()


def pushforward(rs: RootSystem, s: np.ndarray, dxi: np.ndarray) -> np.ndarray:
    """ds_gamma = dxi_gamma - s_gamma sum_j m_gamma^j dxi_{alpha_j} at the
    slice lift of s (leading axes stack points, one row product each)."""
    n = rs.rank
    return dxi[..., 2 * n:] - s * (
        dxi[..., None, n:2 * n] @ _simple_coords(rs))[..., 0, :]


def lie_poisson(rs: RootSystem, xi: np.ndarray) -> np.ndarray:
    """F[..., a, b] = <xi, [e_a, e_b]> = (e_a, [e_b, I xi]) for the
    covector coordinates xi (leading axes stack points)."""
    f = rs.bracket_coords(np.eye(rs.dim), xi[..., None, :])
    return f[..., rs.dual_index].swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Poisson brackets of differential rows: (dF/dq | dF/dp | dF/dxi) on T*h* x
# g*, dF/dxi in g, or (dF/dq | dF/dp | dF/ds) on the reduced space.  Rows
# stacked on the second-to-last axis give the matrix of all pairs; two
# single rows give a complex.


def _brackets(df, dg, n: int, spin) -> np.ndarray | complex:
    """The canonical part, {p_i, q_j} = +delta_ij, plus spin(the spin
    blocks of df, dg)."""
    df, dg = np.asarray(df, dtype=complex), np.asarray(dg, dtype=complex)
    a, b = np.atleast_2d(df), np.atleast_2d(dg).swapaxes(-1, -2)
    out = (a[..., n:2 * n] @ b[..., :n, :] - a[..., :n] @ b[..., n:2 * n, :]
           + spin(a[..., 2 * n:], b[..., 2 * n:, :]))
    return complex(out[0, 0]) if df.ndim == dg.ndim == 1 else out


@raise_on_fp_fault
def bracket_full(x: PhasePoint, df, dg):
    """Poisson bracket {F, G}(x) on T*h* x g* of the differentials df, dg:
    the canonical part plus the Lie-Poisson term dF_xi F dG_xi^T.

    The canonical part carries the dual-bundle orientation, {p_i, q_j} =
    +delta_ij, and the spin part is the plus Lie-Poisson bracket.  With
    this normalization the bracket relation between Lax components and
    the involution of spectral invariants hold with the signs used
    throughout the dynamics module; the Hamiltonian flow is F |-> {H, F},
    which reads dq/dt = +dH/dp in mechanical terms.  An overflow raises
    FloatingPointError.
    """
    lp = lie_poisson(x.rs, x.xi.vec)
    return _brackets(df, dg, x.rs.rank, lambda a, b: a @ lp @ b)


def reduced_brackets(rs: RootSystem, s: np.ndarray, df, dg):
    """Reduced brackets of the differential rows at the points with spin
    coordinates s (leading axes stack points), from the Poisson tensor Pi
    = canonical block + C F C^T (C^T the :func:`pushforward` of the basis
    velocities in dual order, F :func:`lie_poisson` at the slice lift)
    factor by factor: the rows meet C first, then F; summing the entries
    of P = C F C^T first loses about 0.1 digit more to cancellation in the
    involution check."""
    lp = lie_poisson(rs, slice_lift(rs, s))
    chain_t = pushforward(rs, s[..., None, :], np.eye(rs.dim))[
        ..., rs.dual_index, :]
    return _brackets(df, dg, rs.rank, lambda a, b: (
        a @ chain_t.swapaxes(-1, -2)) @ lp @ (chain_t @ b))
