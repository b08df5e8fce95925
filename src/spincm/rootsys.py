"""Root systems of type A and arithmetic in sl(n+1, C).

Basis conventions used everywhere in this package:

* The invariant form is the trace form (X, Y) = tr(XY) of the defining
  representation.  With root vectors e_alpha -> E_ij this gives
  (e_alpha, e_-alpha) = 1 and (alpha, alpha) = 2 for every root.
* The Cartan subalgebra carries an orthonormal basis h_1..h_n, the
  Gram-Schmidt basis of the coroots in closed form, so Cartan coordinates
  are plain Euclidean coordinates.
* Roots are stored as integer coefficient tuples over the simple roots.
* The root values (alpha, q) come from one row product per point,
  :meth:`RootSystem.positive_root_values`, mirrored for the negative roots;
  every (alpha, q) in the package reads it, so a stacked evaluation gives
  each point its single-point values bit for bit.
* An element, or a stack of elements, is its coordinate row: a complex
  array whose last axis holds the ``rs.dim`` coordinates over
  [h_1..h_n, e_alpha...].  The algebra exports take the root system first,
  then rows; arithmetic runs on their (n+1) x (n+1) matrices, one matmul
  from coordinates and one back, so a bracket is a commutator and no
  structure tensor is kept.
* Covectors xi in g* are represented by their image I(xi) in g under the
  isomorphism induced by the form.  With the classical component convention
  xi_alpha = <xi, e_{-alpha}> and xi_i = <xi, h_i>, the stored element is
  I(xi) = sum_i xi_i h_i + sum_alpha xi_alpha e_alpha, so the coordinate
  ``xi[rs.basis_index(alpha)]`` of a covector is the spin component
  xi_alpha with no index gymnastics, and the g*-g pairing is just
  :func:`form`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import StructuralError, UnsupportedAlgebraError, raise_on_fp_fault

Root = tuple[int, ...]

MAX_RANK = 4


def negate(root: Root) -> Root:
    return tuple(-c for c in root)


def root_label(root: Root) -> str:
    """Stable text label for a root, e.g. ``[1,0]`` or ``[-1,-1]``."""
    return "[" + ",".join(str(c) for c in root) + "]"


def parse_root_label(label: str, rank: int) -> Root:
    """Inverse of :func:`root_label`.  Raises ValueError on malformed input."""
    text = label.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise ValueError(f"root label {label!r} has {len(parts)} entries, expected {rank}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"root label {label!r} is not a tuple of integers") from exc


class RootSystem:
    """Immutable container of root data and the matrix units of A_n.

    Attributes
    ----------
    rank : int
        n for A_n; the matrices live in sl(n+1).
    roots : tuple[Root, ...]
        All roots; positives first (by height, then by starting index), then
        the negatives in matching order, so
        ``roots[k + n_pos] == negate(roots[k])``.
    simple_roots : tuple[Root, ...]
        The first ``rank`` entries of ``roots`` (unit coefficient tuples).
    cartan_matrix / cartan_inverse
        Exact integer Cartan matrix A and its exact rational inverse C.
    alpha_h : ndarray (n_roots, rank)
        alpha(h_i) for each root and each orthonormal Cartan generator; for
        type A these are also the coordinates of the coroot h_alpha over the
        orthonormal basis.
    dim : int
        rank + number of roots; the basis order is [h_1..h_n, e_roots[0]...].
    """

    def __init__(self, family: str, rank: int):
        if family != "A":
            raise UnsupportedAlgebraError(
                f"family {family!r} is not supported (only type A)")
        if not 1 <= rank <= MAX_RANK:
            raise UnsupportedAlgebraError(
                f"rank {rank} out of the supported range 1..{MAX_RANK}")
        self.family = family
        self.rank = rank
        self.matrix_size = rank + 1

        pos: list[Root] = []
        for height in range(1, rank + 1):
            for a in range(rank + 1 - height):
                coeffs = [0] * rank
                for k in range(a, a + height):
                    coeffs[k] = 1
                pos.append(tuple(coeffs))
        self.n_pos = len(pos)
        self.roots: tuple[Root, ...] = tuple(pos) + tuple(negate(r) for r in pos)
        self.n_roots = len(self.roots)
        self.simple_roots: tuple[Root, ...] = tuple(self.roots[: rank])
        self.root_index: dict[Root, int] = {r: k for k, r in enumerate(self.roots)}
        self.dim = rank + self.n_roots

        # epsilon-pair (a, b) with alpha = eps_a - eps_b for each root
        pairs = []
        for r in self.roots:
            support = [k for k, c in enumerate(r) if c != 0]
            pair = (support[0], support[-1] + 1)
            pairs.append(pair if sum(r) > 0 else pair[::-1])
        self.eps_pairs: tuple[tuple[int, int], ...] = tuple(pairs)
        self.root_entries = tuple(np.array(pairs).T)    # (rows, cols)

        # A is 2 on the diagonal and -1 beside it, and its exact inverse
        # is C_ij = (min(i, j) + 1)(n - max(i, j))/(n + 1)
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(2 if i == j else -1 if abs(i - j) == 1 else 0
                  for j in range(rank)) for i in range(rank))
        self.cartan_inverse: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction((min(i, j) + 1) * (rank - max(i, j)), rank + 1)
                  for j in range(rank)) for i in range(rank))

        # the orthonormal Cartan basis as diagonal vectors, (rank, rank+1):
        # Gram-Schmidt over the coroot diagonals E_kk - E_{k+1,k+1} in closed
        # form, h_k = (1/(k+1), .., 1/(k+1), -1, 0, ..) / sqrt((k+2)/(k+1))
        self.h_diag = np.zeros((rank, rank + 1))
        for k in range(rank):
            scale = 1.0 / math.sqrt((k + 2) / (k + 1))
            self.h_diag[k, :k + 1] = 1 / (k + 1) * scale
            self.h_diag[k, k + 1] = -scale

        rows, cols = self.root_entries
        self.alpha_h = (self.h_diag[:, rows] - self.h_diag[:, cols]).T
        self._positive_h = np.ascontiguousarray(self.alpha_h[:self.n_pos].T,
                                                dtype=complex)

        # (alpha, beta) over the simple-coefficient tuples: m_a^T A m_b
        a_np = np.array(self.cartan_matrix, dtype=np.int64)
        m = np.array(self.roots, dtype=np.int64)
        self.root_pairings = m @ a_np @ m.T               # (n_roots, n_roots) ints

        self._build_matrices()

    def _build_matrices(self) -> None:
        size = self.matrix_size
        reps = np.zeros((self.dim, size, size))
        for i in range(self.rank):
            reps[i] = np.diag(self.h_diag[i])
        reps[(np.arange(self.rank, self.dim),) + self.root_entries] = 1.0
        self.basis_matrices = reps
        # coordinates <-> flattened matrices, one matmul each way: the basis
        # is orthonormal for the Frobenius product (complex, to save a cast)
        self._to_flat = reps.reshape(self.dim, -1).astype(complex)
        self._from_flat = np.ascontiguousarray(self._to_flat.T)

        # the form pairs h_i with h_i and e_alpha with e_{-alpha}
        neg = [self.root_index[negate(r)] for r in self.roots]
        self.dual_index = np.r_[np.arange(self.rank), self.rank + np.array(neg)]

    def to_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Defining matrices, shape (..., n+1, n+1), of the coordinate
        vectors ``vec`` (last axis): one matmul."""
        return (vec @ self._to_flat).reshape(
            vec.shape[:-1] + (self.matrix_size,) * 2)

    def to_coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of traceless matrices (last two axes) over the basis:
        the diagonal against h_diag, the root entries read off; one matmul."""
        return mat.reshape(mat.shape[:-2] + (self.matrix_size ** 2,)) \
            @ self._from_flat

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] of coordinate arrays (batch axes broadcast): the
        commutator of their defining matrices."""
        return self.to_coords(commutator(self.to_matrix(x), self.to_matrix(y)))

    # -- basic queries -------------------------------------------------

    def basis_index(self, root: Root) -> int:
        try:
            return self.rank + self.root_index[root]
        except KeyError:
            raise StructuralError(f"{root} is not a root of A_{self.rank}") from None

    def positive_root_values(self, q) -> np.ndarray:
        """(alpha, q) for the positive roots (leading axes of q kept): the
        package's one root-value product, a row product per point, so a
        stacked q gives each point its single-point values bit for bit."""
        q = np.asarray(q, dtype=complex)
        return (q[..., None, :] @ self._positive_h)[..., 0, :]

    def root_values(self, q) -> np.ndarray:
        """(alpha, q) for every root, in root order: the positive values
        and their exact negatives."""
        u = self.positive_root_values(q)
        return np.concatenate([u, -u], -1)

    def __repr__(self) -> str:
        return f"RootSystem(A_{self.rank}, {self.n_roots} roots, dim {self.dim})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and (self.family, self.rank) == (
            other.family, other.rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system for the given family and rank."""
    return RootSystem(family, int(rank))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba of matrices on the last two axes (batch axes broadcast)."""
    out = a @ b
    out -= b @ a
    return out


def _rows(rs: RootSystem, *rows) -> list[np.ndarray]:
    """The coordinate rows as complex arrays; StructuralError naming the
    shape of one whose last axis does not hold rs.dim coordinates."""
    rows = [np.asarray(x, dtype=complex) for x in rows]
    for x in rows:
        if x.shape[-1:] != (rs.dim,):
            raise StructuralError(f"coefficient vector has shape {x.shape}, "
                                  f"expected (..., {rs.dim})")
    return rows


@raise_on_fp_fault
def bracket(rs: RootSystem, x, y) -> np.ndarray:
    """Lie bracket [x, y] (:meth:`RootSystem.bracket_coords`)."""
    return rs.bracket_coords(*_rows(rs, x, y))


@raise_on_fp_fault
def form(rs: RootSystem, x, y):
    """Invariant bilinear form (x, y); also the g*-g pairing <xi, y> when x
    stores a covector.  A complex for single elements, an array over the
    batch axes otherwise; np.sum, not einsum, so that an overflow raises."""
    x, y = _rows(rs, x, y)
    val = np.sum(x * y[..., rs.dual_index], -1)
    return complex(val) if val.ndim == 0 else val


@raise_on_fp_fault
def matrix_rep(rs: RootSystem, x) -> np.ndarray:
    """Defining (n+1)-dimensional representation of x."""
    return rs.to_matrix(*_rows(rs, x))


@raise_on_fp_fault
def torus_adjoint(rs: RootSystem, c_coords, x) -> np.ndarray:
    """Adjoint action of the torus element h = exp(sum_i c_i h_{alpha_i}).

    ``c_coords`` are Cartan coordinates over the *coroot* basis, on the
    last axis; their leading axes broadcast against the batch axes of x.
    Cartan coefficients are fixed; the e_alpha coefficient is scaled by
    exp(alpha(log h)).  Because I intertwines Ad*_{h^{-1}} on covectors with
    Ad_h on their images, the same function implements the coadjoint torus
    action in the covector representation.  An overflow raises
    FloatingPointError.
    """
    x, = _rows(rs, x)
    c = np.asarray(c_coords, dtype=complex)
    if c.shape[-1:] != (rs.rank,):
        raise StructuralError(f"expected {rs.rank} coroot coordinates, got {c.shape}")
    alpha_log_h = (rs.root_pairings[:, :rs.rank] @ c[..., None])[..., 0]
    vec = np.array(np.broadcast_to(x, np.broadcast_shapes(
        x.shape[:-1], c.shape[:-1]) + (rs.dim,)))
    vec[..., rs.rank:] *= np.exp(alpha_log_h)
    return vec


def root_system_summary(rs: RootSystem) -> dict:
    """JSON-friendly summary of the root data."""
    return {
        "family": rs.family,
        "rank": rs.rank,
        "matrix_size": rs.matrix_size,
        "dim": rs.dim,
        "roots": [list(r) for r in rs.roots],
        "positive_roots": [list(r) for r in rs.roots[: rs.n_pos]],
        "simple_roots": [list(r) for r in rs.simple_roots],
        "cartan_matrix": [list(row) for row in rs.cartan_matrix],
        "cartan_inverse": [[str(x) for x in row] for row in rs.cartan_inverse],
        "coroot_diagonals": {
            root_label(r): [int(i == a) - int(i == b) for i in range(rs.matrix_size)]
            for r, (a, b) in zip(rs.roots, rs.eps_pairs)
        },
    }
