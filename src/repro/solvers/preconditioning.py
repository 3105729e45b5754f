"""Spec-driven linear-solver (preconditioner) selection.

The :class:`~repro.spec.SolveSpec` names a preconditioner
(``"none"``/``"jacobi"``/``"mg"``); this module turns that name into the
concrete linear solver a backend's driver loop calls.  For the reference
Newton driver that means a callable with the
:func:`conjugate_gradient` signature; diagonal scaling binds the
problem's operator diagonal (with identity Dirichlet rows, matching the
dataflow implementation) into a closure over
:func:`jacobi_preconditioned_cg`, and ``"mg"`` binds a geometric
multigrid hierarchy into :func:`repro.mg.pcg.mg_preconditioned_cg`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.cg import PAPER_TOLERANCE_RTR, CGResult, conjugate_gradient
from repro.solvers.jacobi import jacobi_preconditioned_cg
from repro.util.errors import ConfigurationError


def operator_diagonal(problem: SinglePhaseProblem, dtype=np.float64) -> np.ndarray:
    """The diagonal of the matrix-free operator ``J``.

    Interior rows carry the flux-coefficient diagonal; Dirichlet rows are
    identity (``(Jx)_K = x_K`` on ``T_D``), exactly as the dataflow
    backend scales them.
    """
    diag = problem.coefficients.diagonal.astype(dtype).copy()
    diag[problem.dirichlet.mask] = 1.0
    return diag


def _fold_rel_tol(operator, b, x0, options: dict) -> None:
    """Resolve a ``rel_tol`` option into the absolute ``tol_rtr``.

    The preconditioned solvers converge on the unpreconditioned
    ``r^T r`` but take only an absolute threshold, so a relative
    tolerance is scaled host-side from the initial residual — the same
    resolution ``core/solver.py:resolve_tolerance`` performs for the
    fabric engines.  Silently dropping the knob instead (the old
    behaviour) made ``rel_tol`` + a preconditioner converge to a
    different tolerance than plain CG given the same options.
    """
    rel_tol = options.pop("rel_tol", None)
    if rel_tol is None:
        return
    b = np.asarray(b)
    if x0 is None:
        r0 = np.asarray(b, dtype=np.float64)
    else:
        r0 = np.asarray(b, dtype=np.float64) - np.asarray(
            operator(np.asarray(x0, dtype=b.dtype)), dtype=np.float64
        )
    scale = float(np.vdot(r0, r0).real)
    tol = float(options.get("tol_rtr", PAPER_TOLERANCE_RTR))
    options["tol_rtr"] = max(tol, float(rel_tol) ** 2 * scale)


def linear_solver_for(
    problem: SinglePhaseProblem,
    preconditioner: str,
    *,
    hierarchy=None,
):
    """The reference linear solver implementing ``preconditioner``.

    Returns a callable usable as ``newton_solve(..., linear_solver=...)``.
    ``hierarchy`` is the multigrid hierarchy ``preconditioner="mg"``
    runs on (the caller builds it from the spec's ``mg_levels``/
    ``mg_smoother_iters``; a default one is built when omitted).
    """
    if preconditioner == "none":
        return conjugate_gradient
    if preconditioner == "jacobi":
        diagonal = operator_diagonal(problem)

        def _jacobi_cg(operator, b, x0=None, **options: Any) -> CGResult:
            # Drop driver knobs the preconditioned solver does not take,
            # but *resolve* rel_tol into the absolute threshold first —
            # popping it unseen left the solve at the default tolerance.
            _fold_rel_tol(operator, b, x0, options)
            options.pop("callback", None)
            options.pop("raise_on_fail", None)
            return jacobi_preconditioned_cg(
                operator, diagonal.astype(np.asarray(b).dtype), b, x0, **options
            )

        return _jacobi_cg
    if preconditioner == "mg":
        from repro.mg import hierarchy_for_problem, mg_preconditioned_cg

        if hierarchy is None:
            hierarchy = hierarchy_for_problem(problem)

        def _mg_cg(operator, b, x0=None, **options: Any) -> CGResult:
            _fold_rel_tol(operator, b, x0, options)
            options.pop("callback", None)
            options.pop("raise_on_fail", None)
            return mg_preconditioned_cg(operator, hierarchy, b, x0, **options)

        return _mg_cg
    raise ConfigurationError(f"unknown preconditioner {preconditioner!r}")
