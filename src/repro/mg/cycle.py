"""The multigrid V-cycle: ``z = M⁻¹ r`` for the preconditioned CG.

One call = one V-cycle from a zero initial guess — the standard
symmetric-preconditioner form (equal pre/post weighted-Jacobi sweeps
around a variational coarse-grid correction, exact solve on the coarsest
level), so ``M⁻¹`` is symmetric positive definite and the PCG recurrence
stays a genuine CG.

All arithmetic is float64, independent of the engine's working
precision: every engine calls this exact function with the exact same
hierarchy, so the resulting ``z`` column is bitwise identical across
engines before the single cast into the working dtype — which is what
keeps the event/vectorized/sharded/fused iterates in lockstep.

Masked (Dirichlet) cells are kept exactly zero throughout: the input
residual is zero there (the engine invariant), restriction zeroes coarse
masked cells, prolongation zeroes fine ones, and the smoother update is
zero wherever ``r`` and ``z`` both are.

Every sweep streams over the level's flat-stride faces into the level's
preallocated scratch (see :mod:`repro.mg.hierarchy`), so a V-cycle
allocates only the ``z`` it returns per level (plus the transfers).  The
first pre-smooth from the known-zero guess is taken in closed form,
``z = (r·D⁻¹)·ω + 0`` — bitwise the sweep ``0 + (r − A·0)·D⁻¹·ω`` it
replaces (``A·0`` is ``+0``; the trailing ``+ 0`` turns a ``−0`` into
``+0`` exactly as adding to the zero guess did).  The traced benchmark
wraps this module's ``level_apply`` global, so sweeps call it by that
name.
"""

from __future__ import annotations

import numpy as np

from repro.mg.hierarchy import (
    COARSE_FALLBACK_SWEEPS,
    MgHierarchy,
    MgLevel,
    level_apply,
    prolong,
    restrict,
)


def _smooth(
    level: MgLevel, z: np.ndarray, r: np.ndarray, omega: float, sweeps: int
) -> np.ndarray:
    """``sweeps`` damped-Jacobi updates ``z += ω D⁻¹ (r − A z)``."""
    for _ in range(sweeps):
        az = level_apply(level, z, out=level.work)
        np.subtract(r, az, out=az)
        az *= level.inv_diag
        az *= omega
        z += az
    return z


def _smooth_from_zero(
    level: MgLevel, r: np.ndarray, omega: float, sweeps: int
) -> np.ndarray:
    """:func:`_smooth` from ``z = 0``, its first sweep in closed form."""
    z = np.multiply(r, level.inv_diag)
    z *= omega
    z += 0.0
    return _smooth(level, z, r, omega, sweeps - 1)


def _coarse_solve(hier: MgHierarchy, level: MgLevel, r: np.ndarray) -> np.ndarray:
    if level.dense_inv is not None:
        z = (level.dense_inv @ r.reshape(-1)).reshape(level.shape)
        z[level.mask] = 0.0  # keep the zero-on-mask invariant exact
        return z
    return _smooth_from_zero(level, r, hier.omega, COARSE_FALLBACK_SWEEPS)


def _v_cycle(hier: MgHierarchy, index: int, r: np.ndarray) -> np.ndarray:
    level = hier.levels[index]
    if index == len(hier.levels) - 1:
        return _coarse_solve(hier, level, r)
    z = _smooth_from_zero(level, r, hier.omega, hier.smoother_iters)
    resid = level_apply(level, z, out=level.work)
    np.subtract(r, resid, out=resid)
    coarse = hier.levels[index + 1]
    rc = restrict(level, coarse, resid)
    zc = _v_cycle(hier, index + 1, rc)
    z += prolong(level, zc)
    _smooth(level, z, r, hier.omega, hier.smoother_iters)
    return z


def mg_apply(hier: MgHierarchy, r: np.ndarray) -> np.ndarray:
    """One V-cycle applied to ``r``; float64 in, float64 out."""
    r64 = np.asarray(r, dtype=np.float64)
    return _v_cycle(hier, 0, r64)


__all__ = ["mg_apply"]
