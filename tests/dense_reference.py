"""Dense structure constants of sl(n+1), built from the matrix units alone.

The package brackets through matrix commutators (`spincm.rootsys.bracket`)
and keeps no structure tensor.  The tests compare it, and the r-matrix
checks that use it, against this reference: the basis written out as matrix
units (h_i = diag(h_diag[i]), e_alpha = E_ij for alpha = eps_i - eps_j),
their pairwise commutators by einsum, and coordinates read off by the
Frobenius product, under which the basis is orthonormal.
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
