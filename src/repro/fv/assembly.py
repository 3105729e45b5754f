"""Matrix-BASED baseline: assemble the sparse Jacobian J explicitly.

The paper's matrix-free method exists to avoid this assembly (memory and
fill time); we implement it anyway because (a) it is the baseline the
matrix-free approach is compared against conceptually, and (b) it provides
an independent ground truth: ``assemble_jacobian(...) @ x.ravel()`` must
equal ``apply_jx(..., x)`` exactly (property-tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fv.coefficients import FluxCoefficients
from repro.mesh.boundary import DirichletSet

if TYPE_CHECKING:  # scipy loads on first use, not on ``import repro``
    import scipy.sparse as sp


def assemble_jacobian(
    coeffs: FluxCoefficients,
    dirichlet: DirichletSet | None = None,
    *,
    dtype=np.float64,
) -> sp.csr_matrix:
    """Assemble J in CSR form, matching the matrix-free operator exactly.

    Interior rows: ``D_K`` on the diagonal, ``-c_KL`` towards every in-grid
    neighbour (including Dirichlet neighbours).  Dirichlet rows: identity.
    The matrix therefore reproduces Eq. 6 verbatim — and like Eq. 6 it is
    only symmetric on the subspace of vectors vanishing on ``T_D``.
    """
    import scipy.sparse as sp

    grid = coeffs.grid
    n = grid.num_cells
    nyz = grid.ny * grid.nz
    nz = grid.nz

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    flat = np.arange(n).reshape(grid.shape)

    # Diagonal entries.
    rows.append(flat.reshape(-1))
    cols.append(flat.reshape(-1))
    vals.append(coeffs.diagonal.astype(dtype).reshape(-1))

    # Off-diagonals per axis: face between lo cell and hi cell.
    strides = (nyz, nz, 1)
    for axis in range(3):
        c = coeffs.axis(axis).astype(dtype)
        lo_index = [slice(None)] * 3
        lo_index[axis] = slice(0, -1)
        lo_flat = flat[tuple(lo_index)].reshape(-1)
        hi_flat = lo_flat + strides[axis]
        cf = c.reshape(-1)
        rows.append(lo_flat)
        cols.append(hi_flat)
        vals.append(-cf)
        rows.append(hi_flat)
        cols.append(lo_flat)
        vals.append(-cf)

    J = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()

    if dirichlet is not None and not dirichlet.is_empty:
        mask_flat = dirichlet.mask.reshape(-1)
        d_idx = np.flatnonzero(mask_flat)
        # Zero the Dirichlet rows, then put 1 on their diagonal.
        row_scale = np.ones(n, dtype=dtype)
        row_scale[d_idx] = 0.0
        J = sp.diags(row_scale).dot(J).tocsr()
        J = (J + sp.coo_matrix(
            (np.ones(d_idx.size, dtype=dtype), (d_idx, d_idx)), shape=(n, n)
        )).tocsr()
    return J


def eliminate_dirichlet(
    J: sp.csr_matrix,
    dirichlet: DirichletSet,
    rhs: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Reduce ``J u = rhs`` to the truly-symmetric interior system.

    Moves known Dirichlet values to the right-hand side and drops their
    rows/columns.  Returns ``(J_ii, rhs_i, interior_index)`` where
    ``interior_index`` maps interior unknowns back to flat cell indices.
    Useful for scipy eigensolver/SPD checks on the reduced matrix.
    """
    n = J.shape[0]
    mask_flat = dirichlet.mask.reshape(-1)
    interior = np.flatnonzero(~mask_flat)
    boundary = np.flatnonzero(mask_flat)
    rhs_flat = np.asarray(rhs).reshape(-1).astype(np.float64)

    J_ii = J[np.ix_(interior, interior)].tocsr()
    J_ib = J[np.ix_(interior, boundary)].tocsr()
    u_b = dirichlet.values.reshape(-1)[boundary].astype(np.float64)
    rhs_i = rhs_flat[interior] - J_ib.dot(u_b)
    return J_ii, rhs_i, interior


def assembled_matrix_bytes(J: sp.csr_matrix) -> int:
    """Memory footprint of the assembled CSR matrix (values + indices).

    Used by the matrix-free vs. matrix-based ablation: the matrix-free
    approach stores only the six per-cell coefficients.
    """
    return int(J.data.nbytes + J.indices.nbytes + J.indptr.nbytes)
