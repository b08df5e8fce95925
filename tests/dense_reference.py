"""Dense references: the structure constants of sl(n+1), built from the
matrix units alone, and the differential of the reduction invariants as a
dense matrix.

The package brackets through matrix commutators (`spincm.rootsys.bracket`)
and keeps no structure tensor.  The tests compare it, and the r-matrix
checks that use it, against this reference: the basis written out as matrix
units (h_i = diag(h_diag[i]), e_alpha = E_ij for alpha = eps_i - eps_j),
their pairwise commutators by einsum, and coordinates read off by the
Frobenius product, under which the basis is orthonormal.

The package pushes velocities through the invariants s_gamma by a gather
(`spincm.phase.pushforward`); `dense_chain` writes the same differential
out as one (n_s, dim) matrix per point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def dense_structure(rs) -> np.ndarray:
    """f[a, b, c] with [e_a, e_b] = sum_c f[a, b, c] e_c, shape (dim,) * 3."""
    size = rs.matrix_size
    units = np.zeros((rs.dim, size, size))
    for i in range(rs.rank):
        units[i] = np.diag(rs.h_diag[i])
    for k, (i, j) in enumerate(rs.eps_pairs):
        units[rs.rank + k, i, j] = 1.0
    prod = np.einsum("aij,bjk->abik", units, units)
    f = np.einsum("abij,cij->abc", prod - prod.transpose(1, 0, 2, 3), units)
    f.setflags(write=False)
    return f


def dense_chain(rs, s) -> np.ndarray:
    """C = E0 - s M at the slice lift of s, E0 with the rows e_{-gamma} and
    M with the rows sum_j m_gamma^j e_{-alpha_j} over the basis: row gamma
    is the differential d s_gamma, so C @ xi_dot[rs.dual_index] is the
    pushed velocity."""
    n = rs.rank
    m = np.zeros((rs.n_roots - n, rs.dim))
    m[:, rs.dual_index[n:2 * n]] = rs.roots[n:]
    e0 = np.eye(rs.dim)[rs.dual_index[2 * n:]]
    return e0 - np.asarray(s)[..., None] * m
