"""Test-side helpers: scalar functions with analytic gradients, and
reference evaluations that the package itself no longer needs.

The package brackets differential rows (:func:`spincm.phase.bracket_full`,
at a point of either kind) and checks its identities as stacked
array evaluations.  The tests also want functions as objects (a value and a
gradient) to state the Poisson axioms, Leibniz and Jacobi rules, and a few
dense or chain-rule references; they live here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from spincm.dynamics import (Trajectory, _char_poly, _gradient,
                             _power_sums, _state_columns, lax_L,
                             vector_field)
from spincm.elliptic import Lattice, _value
from spincm.errors import StructuralError, raise_on_fp_fault
from spincm.phase import (PhasePoint, bracket_full, gauge_g, lift_reduced,
                          torus_action)
from spincm.rmatrix import (RMatrixSpec, _ladder, _r_pairing, _r_table,
                            _trim_principal, positive_pair_weight)
from spincm.rootsys import (AlgElement, Root, RootSystem, bracket, form,
                            negate, torus_adjoint)

# -- points -------------------------------------------------------------------


def point(rs: RootSystem, q, p, spin, reduced: bool = False) -> PhasePoint:
    """The point with the state row q | p | spin (s if ``reduced``)."""
    return PhasePoint(rs, np.concatenate([q, p, spin]), reduced)


def stack(points: Sequence[PhasePoint]) -> PhasePoint:
    """Points of one kind stacked on one leading axis."""
    return PhasePoint(points[0].rs, np.array([x.y for x in points]),
                      points[0].reduced)


# -- call counts --------------------------------------------------------------


def count_passes(monkeypatch) -> dict:
    """Counts of the theta_1 passes, argument reductions and near-point
    searches of Lattice from here on."""
    counts = dict.fromkeys(("_theta1", "_cell", "lattice_distance"), 0)
    for name in counts:
        def counted(self, *args, _name=name, _fn=getattr(Lattice, name)):
            counts[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(Lattice, name, counted)
    return counts


# -- functions with analytic gradients ----------------------------------------


@dataclass
class PhaseGradient:
    dq: np.ndarray
    dp: np.ndarray
    dxi: AlgElement        # element of g: the differential along g*

    def row(self) -> np.ndarray:
        return np.concatenate([self.dq, self.dp, self.dxi.vec]).astype(complex)


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

    def row(self) -> np.ndarray:
        return np.concatenate([self.dq, self.dp, self.ds]).astype(complex)


@dataclass
class ReducedFunction:
    value: Callable[[PhasePoint], complex]
    gradient: Callable[[PhasePoint], ReducedGradient]


def poisson_full(f: PhaseFunction, g: PhaseFunction, x: PhasePoint) -> complex:
    """{F, G}(x) through :func:`spincm.phase.bracket_full`."""
    return bracket_full(x, f.gradient(x).row(), g.gradient(x).row())


def poisson_reduced(f: ReducedFunction, g: ReducedFunction,
                    x: PhasePoint) -> complex:
    """{F, G}_red(x) through :func:`spincm.phase.bracket_full` at the
    reduced point x."""
    return bracket_full(x, f.gradient(x).row(), g.gradient(x).row())


def linear_spin_function(rs: RootSystem, y: AlgElement) -> PhaseFunction:
    """The linear function xi -> <xi, Y> on g*, constant in (q, p)."""
    zero = np.zeros(rs.rank)
    return PhaseFunction(lambda x: form(AlgElement(rs, x.xi), y),
                         lambda x: PhaseGradient(zero, zero, y))


def spin_coordinate_function(rs: RootSystem, root: Root) -> ReducedFunction:
    """The coordinate function s_gamma on the reduced space."""
    k = rs.root_index[root]
    if k < rs.rank:
        raise StructuralError(
            f"{root} is a positive simple root; its coordinate is pinned to 1")
    idx = k - rs.rank
    zero = np.zeros(rs.rank)

    def grad(x: PhasePoint) -> ReducedGradient:
        ds = np.zeros(rs.n_roots - rs.rank, dtype=complex)
        ds[idx] = 1.0
        return ReducedGradient(zero, zero, ds)

    return ReducedFunction(lambda x: complex(x.spin[idx]), grad)


def spin_invariant_gradient(xi: AlgElement, root: Root) -> AlgElement:
    """Differential of s_alpha at a general point of U, as an element of g."""
    rs = xi.rs
    simple = np.array([xi.vec[rs.basis_index(r)] for r in rs.simple_roots])
    mono = np.prod([simple[j] ** (-root[j]) for j in range(rs.rank)])
    unit = np.eye(rs.dim, dtype=complex)
    out = mono * AlgElement(rs, unit[rs.basis_index(negate(root))])
    for j, alpha in enumerate(rs.simple_roots):
        if root[j]:
            coeff = -root[j] * xi.vec[rs.basis_index(root)] * mono / simple[j]
            out = out + coeff * AlgElement(
                rs, unit[rs.basis_index(negate(alpha))])
    return out


def normalize_to_slice(x: PhasePoint) -> PhasePoint:
    """Move x along its torus orbit onto the slice xi_{alpha_i} = 1."""
    return torus_action(-gauge_g(x), x)


def hamiltonian_gradient(sys: RMatrixSpec, x: PhasePoint) -> PhaseGradient:
    """(dH/dq, dH/dp, dH/dxi) from the flow core's gradient."""
    force, wxi = _gradient(sys, x.q, x.xi)
    return PhaseGradient(-force, x.p.copy(), AlgElement(sys.rs, -wxi))


def hamiltonian_function(sys: RMatrixSpec) -> PhaseFunction:
    """H as a bracket-ready function with its analytic gradient."""
    from spincm.dynamics import hamiltonian
    return PhaseFunction(lambda x: hamiltonian(sys, x),
                         lambda x: hamiltonian_gradient(sys, x))


# -- coefficient accessors -----------------------------------------------------


@raise_on_fp_fault
def cartan_coeff(spec: RMatrixSpec, z, kz: int = 0):
    """k-th z-derivative of the Cartan coefficient f(z), read from the
    kernel at a root value away from every pole (f does not depend on it)."""
    z = np.asarray(z, dtype=complex)
    u = np.full(spec.rs.n_roots, 0.37 + 0.21j)
    return _value(_ladder(spec, u, z[..., None], kz + 1)[0][kz][..., 0], z)


@raise_on_fp_fault
def root_coeff(spec: RMatrixSpec, u, z, kz: int = 0,
               du: int = 0) -> np.ndarray:
    """c_alpha(u_alpha, z) for every root, its z-derivatives (kz up to 3)
    and the mixed u,z-derivative (du = 1): one entry of the family's
    kernel.  ``u`` = rs.root_values(q), the roots on its last axis; ``z``
    broadcasts against it."""
    return _ladder(spec, np.asarray(u, dtype=complex), z, kz + 1,
                   du)[1][du][kz]


@raise_on_fp_fault
def pair_weight(spec: RMatrixSpec, u) -> tuple[np.ndarray, np.ndarray]:
    """(w, w') of positive_pair_weight on every root: w is even, so
    w_{-alpha} = w_alpha and w'_{-alpha} = -w'_alpha."""
    w, w_du = positive_pair_weight(
        spec, np.asarray(u, dtype=complex)[..., :spec.rs.n_pos])
    return (np.concatenate([w, w], axis=-1),
            np.concatenate([w_du, -w_du], axis=-1))


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
    z where it needs values.  The package holds these as bare arrays.
    """

    def __init__(self, rs: RootSystem, principal, nodes, values=None):
        self.rs = rs
        self.principal = coeffs = _trim_principal(rs, principal, 1)[0]
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


def R_apply(spec: RMatrixSpec, q, xi: LaurentElement) -> LaurentElement:
    """The operator R_q applied to a Laurent covector:

        (R_q xi)(z) = (1/2)(I xi)(z)
                      + sum_{k >= 0} (1/k!) < d^k r / d z^k (q, -z),
                                              xi_{-(k+1)} (x) 1 >

    The sum is finite (k below the pole order).  The result lives on the
    nodes of xi.  Its principal part is exactly -(1/2) of xi's, because
    r - Omega/z is analytic at z = 0 in every family; its values are the
    closed form above evaluated at all nodes at once.  The package applies
    R_q on arrays (``dynamics._lax_pair`` for B, matrices in
    ``verify_mdybe``)."""
    rs = spec.rs
    table = _r_table(spec, q, -xi.nodes, xi.pole_order)[0]
    values = 0.5 * xi.values.vec + _r_pairing(table[..., rs.dual_index],
                                              xi.principal)
    return LaurentElement(rs, -0.5 * xi.principal, xi.nodes, values)


def R_directional(spec: RMatrixSpec, q, v, xi: LaurentElement
                  ) -> LaurentElement:
    """The q-directional derivative (X_v R_q)(xi) on the nodes of xi: the
    mixed (du = 1) table paired like R_apply, no principal part."""
    rs = spec.rs
    table = _r_table(spec, q, -xi.nodes, xi.pole_order, du=1)[1]
    table[..., rs.rank:] *= rs.root_values(v)
    return LaurentElement(rs, [], xi.nodes,
                          _r_pairing(table[..., rs.dual_index], xi.principal))


# -- references ---------------------------------------------------------------


def lax_time_derivative(sys: RMatrixSpec, x, z) -> AlgElement:
    """dL/dt along the flow at x by the chain rule, point by point: L at
    (q, p_dot, xi_dot) plus the q-derivative of the root coefficients
    along q_dot; for a reduced point, dL_0/dt at the slice lift."""
    rs = sys.rs
    if x.reduced:
        v_red = vector_field(sys, x)
        xi_dot = np.zeros(rs.dim, dtype=complex)
        xi_dot[2 * rs.rank:] = v_red.spin
        x, v = lift_reduced(x), point(rs, v_red.q, v_red.p, xi_dot)
    else:
        v = vector_field(sys, x)
    vec = lax_L(sys, point(rs, x.q, v.p, v.xi), z).vec
    c_du = root_coeff(sys, rs.root_values(x.q),
                      np.expand_dims(z, -1), du=1)
    vec[..., rs.rank:] += c_du * rs.root_values(v.q) * x.xi[rs.rank:]
    return AlgElement(rs, vec)


def spectral_curve(sys: RMatrixSpec, x, z_grid) -> np.ndarray:
    """Coefficients of det(w Id - rho(L(z))) in w, one row per grid z,
    highest power first (monic), as the package's Newton's identities give
    them; reduced points use L_0."""
    return _char_poly(_power_sums(sys, x[None], z_grid))[0]


def ring_nodes(radius: float, n: int) -> np.ndarray:
    """n equispaced nodes on the circle |z| = radius."""
    return radius * np.exp(2j * np.pi * np.arange(n) / n)


def ring_coefficients(values: np.ndarray, nodes: np.ndarray,
                      order: int) -> np.ndarray:
    """Principal-part coefficients (of z^-1..z^-order) at 0 of a function
    analytic on 0 < |z| <= radius, from its ``values`` at the equispaced
    ``nodes`` on |z| = radius (nodes on the first axis): the z^-j
    coefficient is mean(values * z^j).  Shape (order,) + values.shape[1:]."""
    powers = np.power.outer(nodes, np.arange(1, order + 1))
    return np.tensordot(powers, values, axes=(0, 0)) / len(nodes)


def hamiltonian_quadrature(sys: RMatrixSpec, x: PhasePoint, *,
                           radius: float = 0.5, nodes: int = 512) -> complex:
    """H recovered from the Lax operator: (1/2) (1/2 pi i) oint (L, L) dz/z,
    by the trapezoidal rule on |z| = radius."""
    val = lax_L(sys, x, ring_nodes(radius, nodes))
    return 0.5 * complex(np.mean(form(val, val)))


def casimir_tensor(rs: RootSystem) -> np.ndarray:
    """The invariant element Omega = sum_i h_i (x) h_i + sum_alpha e_alpha
    (x) e_{-alpha} in coordinates over the product basis: the Gram matrix."""
    return np.eye(rs.dim, dtype=complex)[rs.dual_index]


def r_tensor(spec: RMatrixSpec, q, z, kz: int = 0,
             direction=None) -> np.ndarray:
    """r(q, z), or its kz-th z-derivative, as a dense tensor in g (x) g,
    one (dim, dim) matrix per z: the coefficient vector scattered to
    [..., a, dual(a)].  With a Cartan ``direction`` v, the directional
    q-derivative sum_i v_i d/dq_i of that tensor instead."""
    rs = spec.rs
    du = int(direction is not None)
    c = _r_table(spec, q, z, kz + 1, du)[du, kz]
    if du:
        c[..., rs.rank:] *= rs.root_values(direction)
    mat = np.zeros(c.shape + (rs.dim,), dtype=complex)
    mat[..., np.arange(rs.dim), rs.dual_index] = c
    return mat


def equivariance_residual(spec: RMatrixSpec, q, xi, c_coords,
                          z_samples) -> float:
    """Residual of R_q(Ad*_{h^-1} xi) = Ad_h R_q(xi) for the torus element
    with coroot-basis logarithm c_coords, at ``z_samples``; ``xi`` holds
    the principal coefficients of a pole-only Laurent covector."""
    rs = spec.rs
    xi = np.asarray(xi, dtype=complex)
    moved = torus_adjoint(c_coords, AlgElement(rs, xi)).vec
    lhs = R_apply(spec, q, LaurentElement(rs, moved, z_samples))
    rhs = R_apply(spec, q, LaurentElement(rs, xi, z_samples))
    return np.abs((lhs.values - torus_adjoint(c_coords, rhs.values)).vec).max()


def element_from_matrix(rs: RootSystem, mat: np.ndarray) -> AlgElement:
    """Inverse of matrix_rep on traceless matrices."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (rs.matrix_size, rs.matrix_size):
        raise StructuralError(
            f"matrix shape {mat.shape} does not fit sl({rs.matrix_size})")
    if abs(np.trace(mat)) > 1e-10 * max(1.0, float(np.abs(mat).max())):
        raise StructuralError("matrix has a nonzero trace")
    return AlgElement(rs, rs.to_coords(mat))


def coadjoint_action(x: AlgElement, xi: AlgElement) -> AlgElement:
    """I-image of ad*_X xi, i.e. -[X, I xi]."""
    return -bracket(x, xi)


# -- trajectory export ----------------------------------------------------------


def format_complex(v) -> str:
    """A complex CSV field, re+imj with 17 significant digits, one value at
    a time."""
    v = complex(v)
    return f"{v.real:.17g}{v.imag:+.17g}j"


def trajectory_csv_rows(traj: Trajectory,
                        extra: dict[str, Sequence] | None = None
                        ) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of the CSV export, point by point: t, q_i, p_i,
    the whole spin of each point (the Cartan spins xi_h_i and the root
    spins by label, or the reduced s by label), then diagnostics; the
    reference for :func:`spincm.dynamics.trajectory_csv`."""
    extra = extra or {}
    header = (_state_columns(traj.points.rs, traj.points.reduced)
              + ["energy", "J_residual"] + list(extra.keys()))
    rows = []
    for idx, pt in enumerate(traj.points):
        row = [f"{traj.times[idx]:.17g}"]
        row += [format_complex(v) for v in np.concatenate([pt.q, pt.p,
                                                           pt.spin])]
        row += [format_complex(traj.energy[idx]),
                f"{traj.constraint[idx]:.17g}"]
        row += [format_complex(col[idx]) for col in extra.values()]
        rows.append(row)
    return header, rows


def reference_csv(traj: Trajectory,
                  extra: dict[str, Sequence] | None = None) -> str:
    """The CSV text of :func:`trajectory_csv_rows` through ``csv.writer``."""
    header, rows = trajectory_csv_rows(traj, extra)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
