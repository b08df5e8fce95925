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
+ C F C^T (:func:`bracket_full` at a reduced point).

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
for points stacked on leading axes, which :func:`project_pi` and
:func:`gauge_g` read.  The differential of s at the slice lift is written
once, on the table of the m_alpha^i: :func:`pushforward`.

A point of either space is one :class:`PhasePoint`, the state row q | p |
spin that the flows and the CSV work on: (q, p, s) is (q, p, xi) with xi
on the slice.  Every export that takes a point checks it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (GaugeDomainError, StructuralError, coords,
                     raise_on_fp_fault, scalar)
from .rootsys import Root, RootSystem, root_label, torus_adjoint

OUTSIDE_U_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Point (q, p, xi) of T*h* x g*, or (q, p, s) of the reduced space (s
    ordered like :func:`reduced_roots`), as its state row y = q | p | spin.
    Leading axes of y stack points, indexed by ``x[k]``.  q, p and the spin
    are views of y; ``xi`` is the spin, at :func:`slice_lift` if reduced.
    Equality and hash are by identity, as for any holder of an array."""

    rs: RootSystem
    y: np.ndarray
    reduced: bool = False

    def __post_init__(self):
        if not isinstance(self.rs, RootSystem):
            raise StructuralError(f"expected a RootSystem, got {self.rs!r}")
        n = self.rs.rank
        width = 2 * n + (self.rs.n_roots - n if self.reduced else self.rs.dim)
        object.__setattr__(self, "y", coords(self.y, "state rows", ..., width))

    q = property(lambda self: self.y[..., :self.rs.rank])
    p = property(lambda self: self.y[..., self.rs.rank:2 * self.rs.rank])
    spin = property(lambda self: self.y[..., 2 * self.rs.rank:])

    @property
    def xi(self) -> np.ndarray:
        return slice_lift(self.rs, self.spin) if self.reduced else self.spin

    def __getitem__(self, k) -> "PhasePoint":
        return PhasePoint(self.rs, self.y[k], self.reduced)

    @staticmethod
    def make(rs: RootSystem, q, p, xi_cartan=None,
             xi_components: dict[Root, complex] | None = None) -> "PhasePoint":
        q, p, cartan = (coords(v, what, rs.rank) for v, what in (
            (q, "q"), (p, "p"), (np.zeros(rs.rank) if xi_cartan is None
                                 else xi_cartan, "xi_cartan")))
        xi = np.zeros(rs.dim, dtype=complex)
        xi[:rs.rank] = cartan
        for root, c in (xi_components or {}).items():
            xi[rs.basis_index(root)] = coords(c, f"xi_components[{root}]")
        return PhasePoint(rs, np.concatenate([q, p, xi]))

    @staticmethod
    def make_reduced(rs: RootSystem, q, p,
                     s_components: dict[Root, complex]) -> "PhasePoint":
        s = np.zeros(rs.n_roots - rs.rank, dtype=complex)
        for root, c in s_components.items():
            if rs.root_index.get(root, 0) < rs.rank:
                raise StructuralError(
                    f"{root} does not carry a reduced spin coordinate")
            s[rs.root_index[root] - rs.rank] = coords(
                c, f"s_components[{root}]")
        x = PhasePoint.make(rs, q, p)
        return PhasePoint(rs, np.concatenate([x.q, x.p, s]), True)


def _checked(x, reduced: bool | None = None, rs: RootSystem | None = None,
             single: bool = False) -> PhasePoint:
    """x, after the entry check of every export that takes a point: a finite
    PhasePoint over rs, of the kind ``reduced``, and one point if single."""
    rs = getattr(x, "rs", None) if rs is None else rs
    if not (isinstance(x, PhasePoint) and x.rs == rs):
        raise StructuralError(
            f"objects built over mismatched root systems: a {type(x).__name__}"
            f" over {getattr(x, 'rs', None)} where a PhasePoint over {rs} is "
            f"expected")
    if reduced is not None and x.reduced != reduced:
        kind = {False: "an unreduced", True: "a reduced"}
        raise StructuralError(f"{kind[x.reduced]} PhasePoint where "
                              f"{kind[reduced]} one is expected")
    if not np.isfinite(x.y).all():
        raise StructuralError("the coordinates of a PhasePoint (q, p and "
                              "spin) must be finite")
    if single and x.y.ndim != 1:
        raise StructuralError(f"expected one point, got a stack of shape "
                              f"{x.y.shape[:-1]}")
    return x


def reduced_roots(rs: RootSystem) -> tuple[Root, ...]:
    """Roots carrying independent reduced spin coordinates: everything but
    the positive simple roots (whose coordinates are pinned to 1)."""
    return rs.roots[rs.rank:]


# ---------------------------------------------------------------------------
# torus action and momentum


def momentum_J(x: PhasePoint) -> np.ndarray:
    """Momentum map of the torus action: the Cartan block of xi."""
    return _checked(x, False).xi[..., :x.rs.rank].copy()


def torus_action(c_coords, x: PhasePoint) -> PhasePoint:
    """Action of the torus element with log-coordinates ``c_coords`` over the
    coroot basis (broadcast against the stack of x): fixes (q, p), scales
    xi_alpha by exp(alpha(log h))."""
    x = _checked(x, False)
    xi = torus_adjoint(x.rs, c_coords, x.xi)
    y = np.array(np.broadcast_to(x.y, xi.shape[:-1] + x.y.shape[-1:]))
    y[..., 2 * x.rs.rank:] = xi
    return PhasePoint(x.rs, y)


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
def gauge_g(x: PhasePoint) -> np.ndarray:
    """Log-coordinates c = C^T log(xi_{alpha_j}) (:func:`reduction`) of the
    gauge torus element g(xi) = exp(sum_i c_i h_{alpha_i}) over the coroot
    basis at x; g(xi)^{-1} moves xi onto the slice xi_{alpha_i} = 1."""
    x = _checked(x, False)
    return reduction(x.rs, x.xi)[1]


@raise_on_fp_fault
def project_pi(x: PhasePoint) -> PhasePoint:
    """Reduction projection (q, p, xi) -> (q, p, s); constant on torus orbits.

    Defined on U = {xi_{alpha_i} != 0} (:func:`reduction`).  The Cartan
    block of xi is the conserved momentum and does not enter s; the
    dynamically meaningful case is J = 0, which the caller enforces.
    """
    x = _checked(x, False)
    s = reduction(x.rs, x.xi)[0]
    return PhasePoint(x.rs, np.concatenate([x.q, x.p, s], -1), True)


def slice_lift(rs: RootSystem, s: np.ndarray) -> np.ndarray:
    """xi coordinates of the canonical section of project_pi: xi_i = 0,
    xi_{alpha_i} = 1, xi_alpha = s_alpha for the remaining roots (leading
    axes of s are kept)."""
    vec = np.zeros(s.shape[:-1] + (rs.dim,), dtype=complex)
    vec[..., rs.rank:2 * rs.rank] = 1.0  # the simple roots are roots[:rank]
    vec[..., 2 * rs.rank:] = s
    return vec


def lift_reduced(x: PhasePoint) -> PhasePoint:
    """The point of the canonical section (:func:`slice_lift`) over the
    reduced point x."""
    x = _checked(x, True)
    return PhasePoint(x.rs, np.concatenate([x.q, x.p, x.xi], -1))


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
# Poisson brackets of differential rows (dF/dq | dF/dp | dF/dspin)


def _bracket(x: PhasePoint, df, dg):
    """{p_i, q_j} = +delta_ij plus dF_xi F dG_xi^T (dF_xi in g), or at a
    reduced point C F C^T (C^T the :func:`pushforward` of the basis
    velocities in dual order) factor by factor, as summing it first loses
    0.1 digit; rows stacked on the second-to-last axis give all pairs."""
    rs, n = x.rs, x.rs.rank
    a, b = np.atleast_2d(df), np.atleast_2d(dg).swapaxes(-1, -2)
    lp = lie_poisson(rs, x.xi)
    spin_a, spin_b = a[..., 2 * n:], b[..., 2 * n:, :]
    if x.reduced:
        chain_t = pushforward(rs, x.spin[..., None, :], np.eye(rs.dim))[
            ..., rs.dual_index, :]
        spin_a, spin_b = spin_a @ chain_t.swapaxes(-1, -2), chain_t @ spin_b
    out = (a[..., n:2 * n] @ b[..., :n, :] - a[..., :n] @ b[..., n:2 * n, :]
           + spin_a @ lp @ spin_b)
    return scalar(out[..., 0, 0] if np.ndim(df) == np.ndim(dg) == 1 else out)


@raise_on_fp_fault
def bracket_full(x: PhasePoint, df, dg):
    """Poisson bracket {F, G}(x) of the differential rows df, dg at the
    points x (:func:`_bracket`), two single rows one value per point; rows
    of another width raise StructuralError.  With {p_i, q_j} = +delta_ij
    and the plus Lie-Poisson bracket, the Lax bracket relation and the
    involution hold with the signs of the dynamics module.  An overflow
    raises FloatingPointError."""
    x = _checked(x)
    return _bracket(x, *(coords(v, "differential rows", ..., x.y.shape[-1])
                         for v in (df, dg)))
