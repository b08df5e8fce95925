"""Root systems of type A and arithmetic in sl(n+1, C).

Basis conventions used everywhere in this package:

* The invariant form is the trace form (X, Y) = tr(XY) of the defining
  representation.  With root vectors e_alpha -> E_ij this gives
  (e_alpha, e_-alpha) = 1 and (alpha, alpha) = 2 for every root.
* The Cartan subalgebra carries an orthonormal basis h_1..h_n obtained by
  exact Gram-Schmidt over the coroots (floats are taken only once, at the
  end), so Cartan coordinates are plain Euclidean coordinates.
* Roots are stored as integer coefficient tuples over the simple roots.
* Covectors xi in g* are represented by their image I(xi) in g under the
  isomorphism induced by the form.  With the classical component convention
  xi_alpha = <xi, e_{-alpha}> and xi_i = <xi, h_i>, the stored element is
  I(xi) = sum_i xi_i h_i + sum_alpha xi_alpha e_alpha, so ``coeff(alpha)``
  on a covector returns the spin component xi_alpha with no index gymnastics
  and the g*-g pairing is just :func:`form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import StructuralError, UnsupportedAlgebraError

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


def _exact_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Invert a small rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _orthonormal_cartan(rank: int) -> np.ndarray:
    """Orthonormal basis of the Cartan subalgebra as diagonal vectors.

    Exact Gram-Schmidt over the coroot diagonals E_kk - E_{k+1,k+1}; the
    single conversion to floating point happens in the final normalization.
    """
    basis: list[tuple[list[Fraction], Fraction]] = []
    for k in range(rank):
        d = [Fraction(0)] * (rank + 1)
        d[k], d[k + 1] = Fraction(1), Fraction(-1)
        for b, nb in basis:
            c = sum(x * y for x, y in zip(d, b)) / nb
            d = [x - c * y for x, y in zip(d, b)]
        basis.append((d, sum(x * x for x in d)))
    rows = []
    for d, nb in basis:
        scale = 1.0 / math.sqrt(float(nb))
        rows.append([float(x) * scale for x in d])
    return np.array(rows)


class RootSystem:
    """Immutable container of root data and structure constants for A_n.

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
            if sum(r) > 0:
                support = [k for k, c in enumerate(r) if c != 0]
                pairs.append((support[0], support[-1] + 1))
            else:
                support = [k for k, c in enumerate(r) if c != 0]
                pairs.append((support[-1] + 1, support[0]))
        self.eps_pairs: tuple[tuple[int, int], ...] = tuple(pairs)

        a_exact = [[Fraction(0)] * rank for _ in range(rank)]
        for i in range(rank):
            a_exact[i][i] = Fraction(2)
            if i + 1 < rank:
                a_exact[i][i + 1] = Fraction(-1)
                a_exact[i + 1][i] = Fraction(-1)
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(x) for x in row) for row in a_exact)
        self.cartan_inverse: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(row) for row in _exact_inverse(a_exact))

        self.h_diag = _orthonormal_cartan(rank)           # (rank, rank+1)

        alpha_h = np.zeros((self.n_roots, rank))
        for k, (a, b) in enumerate(self.eps_pairs):
            alpha_h[k] = self.h_diag[:, a] - self.h_diag[:, b]
        self.alpha_h = alpha_h

        # (alpha, beta) over the simple-coefficient tuples: m_a^T A m_b
        a_np = np.array(self.cartan_matrix, dtype=np.int64)
        m = np.array(self.roots, dtype=np.int64)
        self.root_pairings = m @ a_np @ m.T               # (n_roots, n_roots) ints

        self._build_matrices()
        self._build_structure()

    def _build_matrices(self) -> None:
        size = self.matrix_size
        reps = np.zeros((self.dim, size, size))
        for i in range(self.rank):
            reps[i] = np.diag(self.h_diag[i])
        for k, (a, b) in enumerate(self.eps_pairs):
            reps[self.rank + k, a, b] = 1.0
        self.basis_matrices = reps

        gram = np.zeros((self.dim, self.dim))
        dual = np.arange(self.dim)
        for i in range(self.rank):
            gram[i, i] = 1.0
        for k, r in enumerate(self.roots):
            kn = self.root_index[negate(r)]
            gram[self.rank + k, self.rank + kn] = 1.0
            dual[self.rank + k] = self.rank + kn
        self.gram = gram
        self.dual_index = dual

    def _build_structure(self) -> None:
        dim = self.dim
        f = np.zeros((dim, dim, dim))
        for a in range(dim):
            ma = self.basis_matrices[a]
            for b in range(a + 1, dim):
                mb = self.basis_matrices[b]
                comm = ma @ mb - mb @ ma
                coeffs = self._matrix_coefficients(comm)
                f[a, b] = coeffs
                f[b, a] = -coeffs
        self.structure = f

    def _matrix_coefficients(self, mat: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=mat.dtype)
        diag = np.diagonal(mat)
        out[: self.rank] = self.h_diag @ diag
        for k, (a, b) in enumerate(self.eps_pairs):
            out[self.rank + k] = mat[a, b]
        return out

    # -- basic queries -------------------------------------------------

    def basis_index(self, root: Root) -> int:
        try:
            return self.rank + self.root_index[root]
        except KeyError:
            raise StructuralError(f"{root} is not a root of A_{self.rank}") from None

    def root_values(self, q) -> np.ndarray:
        """(alpha, q) for every root, in root order."""
        return self.alpha_h @ np.asarray(q, dtype=complex)

    def pairing_with_cartan(self, root: Root, q: np.ndarray) -> complex:
        """(alpha, q) for q given in orthonormal Cartan coordinates."""
        k = self.root_index[root]
        return complex(self.alpha_h[k] @ np.asarray(q))

    def coroot_coordinates(self, root: Root) -> np.ndarray:
        """Coordinates of the coroot h_alpha over the orthonormal basis."""
        return self.alpha_h[self.root_index[root]].copy()

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


@dataclass(frozen=True)
class AlgElement:
    """Element of sl(n+1) in coordinates over [h_1..h_n, e_alpha...].

    Also used for covectors via the form isomorphism; see the module
    docstring for the convention.
    """

    rs: RootSystem
    vec: np.ndarray

    def __post_init__(self):
        if self.vec.shape != (self.rs.dim,):
            raise StructuralError(
                f"coefficient vector has shape {self.vec.shape}, expected ({self.rs.dim},)")

    @staticmethod
    def zero(rs: RootSystem) -> "AlgElement":
        return AlgElement(rs, np.zeros(rs.dim, dtype=complex))

    @staticmethod
    def cartan(rs: RootSystem, coords) -> "AlgElement":
        vec = np.zeros(rs.dim, dtype=complex)
        vec[: rs.rank] = np.asarray(coords, dtype=complex)
        return AlgElement(rs, vec)

    @staticmethod
    def from_root_dict(rs: RootSystem, components: dict[Root, complex],
                       cartan=None) -> "AlgElement":
        vec = np.zeros(rs.dim, dtype=complex)
        if cartan is not None:
            vec[: rs.rank] = np.asarray(cartan, dtype=complex)
        for root, c in components.items():
            vec[rs.basis_index(root)] = c
        return AlgElement(rs, vec)

    @staticmethod
    def basis(rs: RootSystem, index: int) -> "AlgElement":
        vec = np.zeros(rs.dim, dtype=complex)
        vec[index] = 1.0
        return AlgElement(rs, vec)

    def _check(self, other: "AlgElement") -> None:
        if self.rs is not other.rs and self.rs != other.rs:
            raise StructuralError("elements belong to different root systems")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(self.rs, self.vec + other.vec)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(self.rs, self.vec - other.vec)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.rs, -self.vec)

    def __mul__(self, scalar) -> "AlgElement":
        return AlgElement(self.rs, self.vec * scalar)

    __rmul__ = __mul__

    def coeff(self, root: Root) -> complex:
        return complex(self.vec[self.rs.basis_index(root)])

    @property
    def cartan_coords(self) -> np.ndarray:
        return self.vec[: self.rs.rank]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vec))) if self.vec.size else 0.0

    def __repr__(self) -> str:
        terms = []
        for i in range(self.rs.rank):
            if abs(self.vec[i]) > 1e-14:
                terms.append(f"{self.vec[i]:.4g}*h{i + 1}")
        for k, root in enumerate(self.rs.roots):
            c = self.vec[self.rs.rank + k]
            if abs(c) > 1e-14:
                terms.append(f"{c:.4g}*e{root_label(root)}")
        return "AlgElement(" + (" + ".join(terms) if terms else "0") + ")"


def bracket(x: AlgElement, y: AlgElement) -> AlgElement:
    """Lie bracket [x, y]."""
    x._check(y)
    vec = np.einsum("a,b,abc->c", x.vec, y.vec, x.rs.structure)
    return AlgElement(x.rs, vec)


def form(x: AlgElement, y: AlgElement) -> complex:
    """Invariant bilinear form (x, y); also the g*-g pairing <xi, y> when x
    stores a covector."""
    x._check(y)
    return complex(x.vec @ (x.rs.gram @ y.vec))


def matrix_rep(x: AlgElement) -> np.ndarray:
    """Defining (n+1)-dimensional representation of x."""
    return np.tensordot(x.vec, x.rs.basis_matrices, axes=(0, 0))


def element_from_matrix(rs: RootSystem, mat: np.ndarray) -> AlgElement:
    """Inverse of :func:`matrix_rep` on traceless matrices."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (rs.matrix_size, rs.matrix_size):
        raise StructuralError(
            f"matrix shape {mat.shape} does not fit sl({rs.matrix_size})")
    if abs(np.trace(mat)) > 1e-10 * max(1.0, float(np.abs(mat).max())):
        raise StructuralError("matrix has a nonzero trace")
    out = np.zeros(rs.dim, dtype=complex)
    diag = np.diagonal(mat)
    out[: rs.rank] = rs.h_diag @ diag
    for k, (a, b) in enumerate(rs.eps_pairs):
        out[rs.rank + k] = mat[a, b]
    return AlgElement(rs, out)


def torus_adjoint(c_coords, x: AlgElement) -> AlgElement:
    """Adjoint action of the torus element h = exp(sum_i c_i h_{alpha_i}).

    ``c_coords`` are Cartan coordinates over the *coroot* basis.  Cartan
    coefficients are fixed; the e_alpha coefficient is scaled by
    exp(alpha(log h)).  Because I intertwines Ad*_{h^{-1}} on covectors with
    Ad_h on their images, the same function implements the coadjoint torus
    action in the covector representation.
    """
    rs = x.rs
    c = np.asarray(c_coords, dtype=complex)
    if c.shape != (rs.rank,):
        raise StructuralError(f"expected {rs.rank} coroot coordinates, got {c.shape}")
    a_np = np.array(rs.cartan_matrix, dtype=float)
    m = np.array(rs.roots, dtype=float)
    exponents = (m @ a_np) @ c          # alpha(log h) per root
    vec = x.vec.copy()
    vec[rs.rank:] = vec[rs.rank:] * np.exp(exponents)
    return AlgElement(rs, vec)


def coadjoint_action(X: AlgElement, xi: AlgElement) -> AlgElement:
    """I-image of ad*_X xi, i.e. -[X, I xi]."""
    return -bracket(X, xi)


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
