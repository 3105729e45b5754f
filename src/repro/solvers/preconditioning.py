"""Spec-driven preconditioner selection for the host CG.

The :class:`~repro.spec.SolveSpec` names a preconditioner
(``"none"``/``"jacobi"``/``"mg"``); :func:`preconditioner_for` turns that
name into the ``precondition`` callable (``z = M⁻¹ r``) that
:func:`~repro.solvers.cg.conjugate_gradient` takes.  Diagonal scaling
uses the operator diagonal (identity Dirichlet rows, matching the
dataflow implementation) — the paper's future-work extension that maps
trivially onto the fabric, since each PE scales its own column — and
``"mg"`` runs one geometric-multigrid V-cycle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.physics.darcy import SinglePhaseProblem
from repro.util.errors import ConfigurationError, ValidationError


def operator_diagonal(problem: SinglePhaseProblem, dtype=np.float64) -> np.ndarray:
    """The diagonal of the matrix-free operator ``J``.

    Interior rows carry the flux-coefficient diagonal; Dirichlet rows are
    identity (``(Jx)_K = x_K`` on ``T_D``), exactly as the dataflow
    backend scales them.
    """
    diag = problem.coefficients.diagonal.astype(dtype).copy()
    diag[problem.dirichlet.mask] = 1.0
    return diag


def jacobi_preconditioner(diagonal: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``z = r / diag(A)``; ``diagonal`` must be strictly positive (as it
    is for the SPD FV operator) and is used in its own dtype."""
    diagonal = np.asarray(diagonal)
    if not np.all(diagonal > 0):
        raise ValidationError("Jacobi scaling requires a strictly positive diagonal")
    inv_diag = 1.0 / diagonal

    def precondition(r: np.ndarray) -> np.ndarray:
        if r.shape != inv_diag.shape:
            raise ValidationError(
                f"diagonal shape {inv_diag.shape} != b shape {r.shape}"
            )
        return (inv_diag * r).astype(r.dtype)

    return precondition


def preconditioner_for(
    problem: SinglePhaseProblem,
    name: str,
    *,
    accumulation: np.ndarray | None = None,
    hierarchy=None,
    dtype=np.float64,
) -> Callable[[np.ndarray], np.ndarray] | None:
    """The ``precondition`` callable implementing ``name`` (``None`` for
    ``"none"``).

    ``accumulation`` is the backward-Euler diagonal of a transient step's
    ``(J + A)`` system, added to the Jacobi diagonal (``dtype``, the
    working precision).  ``hierarchy`` is the multigrid hierarchy
    ``"mg"`` runs on (the caller builds it from the spec's
    ``mg_levels``/``mg_smoother_iters``); a default one over
    ``accumulation`` is built when omitted.
    """
    if name == "none":
        return None
    if name == "jacobi":
        diagonal = operator_diagonal(problem, dtype)
        if accumulation is not None:
            diagonal = diagonal + accumulation
        return jacobi_preconditioner(diagonal)
    if name == "mg":
        from repro.mg import hierarchy_for_problem, mg_apply

        if hierarchy is None:
            hierarchy = hierarchy_for_problem(problem, accumulation=accumulation)
        return lambda r: mg_apply(hierarchy, r).astype(r.dtype)
    raise ConfigurationError(f"unknown preconditioner {name!r}")
