"""Geometric multigrid hierarchy for the matrix-free FV operator.

The fine level *is* the engine operator: per-axis face coefficient
arrays (``FluxCoefficients.cx/cy/cz``), an optional accumulation
diagonal (the transient backward-Euler term), and the Dirichlet mask
whose rows the operator replaces with identity.  Coarser levels are
built by **lateral semi-coarsening** — 2×2 cell aggregation in x/y, the
vertical axis untouched, matching the fabric layout where each PE owns a
full z-column — with **piecewise-constant Galerkin** coarse operators:

* a coarse face coefficient is the sum of the fine face coefficients
  crossing it (pair-sums of the odd-index fine faces);
* the coarse accumulation diagonal is the aggregate sum;
* the coarse diagonal is ``Σ coarse faces + acc`` — exactly the
  aggregate block-sum of the fine operator (the FV row-sum identity
  ``Σ_j A_ij = acc_i + Σ_{faces leaving the aggregate} c``), so every
  level is the variational (RAP) coarse operator for piecewise-constant
  transfer and the V-cycle stays symmetric positive definite.

Restriction is the aggregate sum, prolongation its exact adjoint
(injection); a coarse cell is masked when *any* fine cell in its
aggregate is masked, and residuals/corrections are kept exactly zero on
masked cells — the invariant the engine operator relies on.

**Precision.**  A hierarchy is built in one working dtype — the solve's
(float32 or float64).  The Galerkin sums, the diagonals and their
inverses are formed in float64 and each level is rounded once into that
dtype as it is built, so no full float64 copy of the hierarchy is ever
held.  The coarsest level's dense inverse stays float64: it is tiny
next to the fine level, and an explicit inverse is where float32 would
lose the most accuracy.  The V-cycle is a host-assisted construct (like
tolerance resolution): every engine runs the one cycle on the one
hierarchy, so ``z`` stays bitwise identical across engines at either
precision.  A preconditioner only needs to be approximate; the outer CG
keeps its own precision.

**Flat-stride layout.**  In C order a cell's neighbours along x, y and
z sit at the fixed flat strides ``ny·nz``, ``nz`` and ``1``.  Each
level stores one flat ``(n,)`` face buffer per axis whose entry ``i``
couples cell ``i`` to cell ``i + stride``, **zero-padded** where the
cell has no face in that direction (the last y-row of every x-plane,
the top layer of every column).  :func:`level_apply` then runs every
axis as two contiguous 1-D streams over ``[:n − stride]`` — a padded
entry adds ``0·z``, which leaves the value unchanged — into the level's
preallocated scratch, so a sweep allocates nothing.  The 3-D
``fx/fy/fz`` arrays are views into the same buffers (no coefficient is
stored twice).  The scratch makes a level non-reentrant: one hierarchy
serves one solve at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ConfigurationError

#: Hard cap on hierarchy depth (mirrored by ``spec.MG_MAX_LEVELS``).
MAX_MG_LEVELS = 10

#: Default pre/post weighted-Jacobi sweeps per level.
DEFAULT_SMOOTHER_ITERS = 2

#: Weighted-Jacobi damping factor (the classic 2/3 choice is robust for
#: the 7-point heterogeneous stencil under 2×2 lateral aggregation).
DEFAULT_OMEGA = 2.0 / 3.0

#: Largest coarsest-level size (cells) that gets an exact dense solve;
#: beyond it the coarsest level falls back to fixed smoothing sweeps
#: (only reachable by explicitly capping ``mg_levels`` on a big grid).
DENSE_SOLVE_MAX_CELLS = 4096

#: Weighted-Jacobi sweeps used on an over-large coarsest level.
COARSE_FALLBACK_SWEEPS = 8


def _pair_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum adjacent index pairs along ``axis`` (odd tail rides alone)."""
    n = a.shape[axis]
    even = [slice(None)] * a.ndim
    even[axis] = slice(0, None, 2)
    out = a[tuple(even)].copy()
    if n > 1:
        odd = [slice(None)] * a.ndim
        odd[axis] = slice(1, None, 2)
        head = [slice(None)] * a.ndim
        head[axis] = slice(0, n // 2)
        out[tuple(head)] += a[tuple(odd)]
    return out


def _pair_any(mask: np.ndarray, axis: int) -> np.ndarray:
    """Logical-or of adjacent index pairs along ``axis``."""
    n = mask.shape[axis]
    even = [slice(None)] * mask.ndim
    even[axis] = slice(0, None, 2)
    out = mask[tuple(even)].copy()
    if n > 1:
        odd = [slice(None)] * mask.ndim
        odd[axis] = slice(1, None, 2)
        head = [slice(None)] * mask.ndim
        head[axis] = slice(0, n // 2)
        out[tuple(head)] |= mask[tuple(odd)]
    return out


def _lower(axis: int) -> tuple[slice, ...]:
    """The cells that have a face towards their ``+axis`` neighbour."""
    index = [slice(None)] * 3
    index[axis] = slice(0, -1)
    return tuple(index)


@dataclass
class MgLevel:
    """One level's operator: face coefficients, diagonals, mask.

    ``faces[axis]`` is the flat, zero-padded face buffer described in
    the module docstring; the remaining fields are derived from the
    others on construction.
    """

    shape: tuple[int, int, int]
    faces: tuple[np.ndarray, np.ndarray, np.ndarray]  # per axis, (n,)
    acc: np.ndarray  # (nx, ny, nz) accumulation diagonal
    mask: np.ndarray  # (nx, ny, nz) bool — identity rows
    diag: np.ndarray  # (nx, ny, nz), 1.0 on masked rows
    inv_diag: np.ndarray  # 1 / diag
    dense_inv: np.ndarray | None = None  # coarsest-level exact inverse, float64
    #: ``(stride, faces[axis][:n − stride])`` per axis with a face.
    couplings: tuple = field(init=False, repr=False)
    #: Flat indices of the masked (identity) rows.
    masked: np.ndarray = field(init=False, repr=False)
    #: Scratch: the smoother's ``A·z`` / residual, and face products.
    work: np.ndarray = field(init=False, repr=False)
    prod: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _, ny, nz = self.shape
        n = self.cells
        self.couplings = tuple(
            (stride, face[: n - stride])
            for extent, stride, face in zip(self.shape, (ny * nz, nz, 1), self.faces)
            if extent > 1
        )
        self.masked = np.flatnonzero(self.mask)
        self.work = np.empty(self.shape, dtype=self.dtype)
        self.prod = np.empty(n, dtype=self.dtype)

    @property
    def dtype(self) -> np.dtype:
        """The level's working dtype (its faces, diagonals and scratch)."""
        return self.diag.dtype

    @property
    def cells(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def face(self, axis: int) -> np.ndarray:
        """Axis ``axis``'s internal faces as a 3-D view (shape reduced by
        one along ``axis``)."""
        return self.faces[axis].reshape(self.shape)[_lower(axis)]

    @property
    def fx(self) -> np.ndarray:  # (nx-1, ny, nz)
        return self.face(0)

    @property
    def fy(self) -> np.ndarray:  # (nx, ny-1, nz)
        return self.face(1)

    @property
    def fz(self) -> np.ndarray:  # (nx, ny, nz-1)
        return self.face(2)


def level_apply(level: MgLevel, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free apply of this level's operator (identity masked rows).

    Mirrors ``repro.fv.operator.apply_jx``: ``out = diag·z`` minus the
    symmetric neighbour couplings over internal faces (x, y, z; the
    ``+axis`` neighbour before the ``−axis`` one), then masked rows pass
    ``z`` through unchanged.  ``z`` may be 3-D or flat; ``out``, when
    given, must be C-contiguous and shaped like ``z``.
    """
    if out is None:
        out = np.empty(z.shape, dtype=z.dtype)
    zf, of = z.reshape(-1), out.reshape(-1)
    np.multiply(level.diag.reshape(-1), zf, out=of)
    for stride, face in level.couplings:
        m = face.size
        prod = level.prod[:m]
        np.multiply(face, zf[stride:], out=prod)
        np.subtract(of[:m], prod, out=of[:m])
        np.multiply(face, zf[:m], out=prod)
        np.subtract(of[stride:], prod, out=of[stride:])
    of[level.masked] = zf[level.masked]
    return out


def restrict(fine_level: MgLevel, coarse_level: MgLevel, r: np.ndarray) -> np.ndarray:
    """Aggregate-sum restriction; zero on masked coarse cells."""
    rc = _pair_sum(_pair_sum(r, 0), 1)
    rc[coarse_level.mask] = 0.0
    return rc


def prolong(fine_level: MgLevel, zc: np.ndarray) -> np.ndarray:
    """Injection prolongation (adjoint of :func:`restrict`); zero on
    masked fine cells."""
    nx, ny, _ = fine_level.shape
    zf = np.repeat(np.repeat(zc, 2, axis=0)[:nx], 2, axis=1)[:, :ny]
    zf = np.ascontiguousarray(zf)
    zf[fine_level.mask] = 0.0
    return zf


def _level_from_parts(fx, fy, fz, acc, mask, shape, dtype) -> MgLevel:
    """A level from float64 ``(fx, fy, fz, acc, mask)``, stored in ``dtype``
    (a no-op cast for float64)."""
    faces = []
    diag = np.zeros(shape, dtype=np.float64)
    for axis, f in enumerate((fx, fy, fz)):
        padded = np.zeros(shape, dtype=dtype)
        lo = _lower(axis)
        padded[lo] = f
        faces.append(padded.reshape(-1))
        if f.size == 0:
            continue
        hi = [slice(None)] * 3
        hi[axis] = slice(1, None)
        diag[lo] += f
        diag[tuple(hi)] += f
    diag += acc
    diag[mask] = 1.0
    if not np.all(diag > 0):
        raise ConfigurationError(
            "mg hierarchy needs a positive operator diagonal on every "
            "level; the problem's coefficients/accumulation produce a "
            "non-positive row"
        )
    return MgLevel(
        shape=shape, faces=tuple(faces), acc=acc.astype(dtype, copy=False),
        mask=mask, diag=diag.astype(dtype, copy=False),
        inv_diag=(1.0 / diag).astype(dtype, copy=False),
    )


def _coarsen(fx, fy, fz, acc, mask):
    """The coarse level's float64 ``(fx, fy, fz, acc, mask)``."""
    # Cross-aggregate faces are the odd-index fine faces (between fine
    # cells 2I+1 and 2I+2, i.e. between aggregates I and I+1), summed
    # over the perpendicular lateral pairing.
    return (
        _pair_sum(fx[1::2], 1),
        _pair_sum(fy[:, 1::2], 0),
        _pair_sum(_pair_sum(fz, 0), 1),
        _pair_sum(_pair_sum(acc, 0), 1),
        _pair_any(_pair_any(mask, 0), 1),
    )


def planned_level_shapes(
    shape: tuple[int, int, int], levels: int | None = None
) -> list[tuple[int, int, int]]:
    """The per-level grid shapes the hierarchy will use (pure geometry).

    Coarsens ``ceil(n/2)`` laterally while either lateral extent exceeds
    2, capped at ``levels`` (when given) and :data:`MAX_MG_LEVELS`.
    Shared by the hierarchy builder, the charge model and telemetry so
    they can never disagree.
    """
    cap = MAX_MG_LEVELS if levels is None else min(levels, MAX_MG_LEVELS)
    nx, ny, nz = shape
    out = [(nx, ny, nz)]
    while len(out) < cap and (nx > 2 or ny > 2):
        nx, ny = -(-nx // 2), -(-ny // 2)
        out.append((nx, ny, nz))
    return out


def _dense_matrix(level: MgLevel) -> np.ndarray:
    """The level operator as a dense symmetric float64 matrix, from the
    level's stored coefficients (identity masked rows *and* zeroed
    masked columns — the operator restricted to the zero-on-mask
    subspace, which is where CG's residuals live)."""
    n = level.cells
    idx = np.arange(n).reshape(level.shape)
    a = np.zeros((n, n), dtype=np.float64)
    a[idx.ravel(), idx.ravel()] = level.diag.ravel()
    for axis in range(3):
        f = level.face(axis)
        if f.size == 0:
            continue
        hi = [slice(None)] * 3
        hi[axis] = slice(1, None)
        rows = idx[_lower(axis)].ravel()
        cols = idx[tuple(hi)].ravel()
        vals = f.ravel()
        a[rows, cols] -= vals
        a[cols, rows] -= vals
    m = level.mask.ravel()
    a[m, :] = 0.0
    a[:, m] = 0.0
    where = np.flatnonzero(m)
    a[where, where] = 1.0
    return a


@dataclass
class MgHierarchy:
    """A full V-cycle hierarchy plus the smoothing schedule."""

    levels: tuple[MgLevel, ...]
    smoother_iters: int = DEFAULT_SMOOTHER_ITERS
    omega: float = DEFAULT_OMEGA

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.levels[0].shape

    @property
    def dtype(self) -> np.dtype:
        """The working dtype the V-cycle runs in."""
        return self.levels[0].dtype

    def level_shapes(self) -> list[list[int]]:
        return [list(level.shape) for level in self.levels]

    def telemetry(self, cycles: int) -> dict:
        """The JSON-able ``preconditioner={...}`` telemetry payload."""
        return {
            "kind": "mg",
            "levels": self.level_shapes(),
            "smoother_iters": int(self.smoother_iters),
            "omega": float(self.omega),
            "cycles": int(cycles),
            "dtype": self.dtype.name,
            "coarse_solve": (
                "dense" if self.levels[-1].dense_inv is not None
                else "smooth"
            ),
        }


def build_hierarchy(
    coefficients,
    dirichlet_mask: np.ndarray,
    *,
    accumulation: np.ndarray | None = None,
    levels: int | None = None,
    smoother_iters: int | None = None,
    omega: float = DEFAULT_OMEGA,
    dtype=np.float64,
) -> MgHierarchy:
    """Build the hierarchy from the engine's own operator ingredients.

    Parameters
    ----------
    coefficients:
        A :class:`repro.fv.coefficients.FluxCoefficients` (any dtype;
        promoted to float64 for the construction).
    dirichlet_mask:
        Boolean identity-row mask, fine-grid shaped.
    accumulation:
        Optional transient accumulation diagonal (fine grid).  The
        hierarchy must be rebuilt when it changes (per-Δt), exactly like
        the Jacobi inverse diagonal.
    levels / smoother_iters / omega:
        Schedule knobs; ``None`` means the defaults above.
    dtype:
        The working dtype the levels are stored and the V-cycle runs in
        — the solve's.  Every level is built in float64 and rounded once
        into ``dtype``; the coarsest dense inverse stays float64.
    """
    dtype = np.dtype(dtype)
    shape = tuple(int(v) for v in dirichlet_mask.shape)
    mask = np.asarray(dirichlet_mask, dtype=bool)
    acc = (
        np.zeros(shape, dtype=np.float64)
        if accumulation is None
        else np.asarray(accumulation, dtype=np.float64).reshape(shape).copy()
    )
    parts = (
        coefficients.cx.astype(np.float64),
        coefficients.cy.astype(np.float64),
        coefficients.cz.astype(np.float64),
        acc,
        mask,
    )
    built = []
    for index, level_shape in enumerate(planned_level_shapes(shape, levels)):
        if index:
            parts = _coarsen(*parts)
        built.append(_level_from_parts(*parts, level_shape, dtype))
    coarsest = built[-1]
    if coarsest.cells <= DENSE_SOLVE_MAX_CELLS:
        coarsest.dense_inv = np.linalg.inv(_dense_matrix(coarsest))
    iters = DEFAULT_SMOOTHER_ITERS if smoother_iters is None else int(smoother_iters)
    if not 1 <= iters <= 8:
        raise ConfigurationError(
            f"mg smoother_iters must be in [1, 8], got {iters}"
        )
    return MgHierarchy(tuple(built), smoother_iters=iters, omega=float(omega))


def hierarchy_for_problem(
    problem,
    *,
    accumulation: np.ndarray | None = None,
    levels: int | None = None,
    smoother_iters: int | None = None,
    dtype=np.float64,
) -> MgHierarchy:
    """Convenience wrapper taking a ``SinglePhaseProblem``."""
    return build_hierarchy(
        problem.coefficients,
        problem.dirichlet.mask,
        accumulation=accumulation,
        levels=levels,
        smoother_iters=smoother_iters,
        dtype=dtype,
    )


__all__ = [
    "COARSE_FALLBACK_SWEEPS",
    "DEFAULT_OMEGA",
    "DEFAULT_SMOOTHER_ITERS",
    "DENSE_SOLVE_MAX_CELLS",
    "MAX_MG_LEVELS",
    "MgHierarchy",
    "MgLevel",
    "build_hierarchy",
    "hierarchy_for_problem",
    "level_apply",
    "planned_level_shapes",
    "prolong",
    "restrict",
]
