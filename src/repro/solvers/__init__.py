"""Krylov solvers.

* :func:`conjugate_gradient` — the reference implementation of the paper's
  Algorithm 1 (``r^T r < ε`` convergence check, fp32-friendly); the one
  host CG loop, plain or preconditioned via ``precondition=``.
* :class:`CGStateMachine` — the same algorithm expressed as the 14-state
  event-driven machine of §III-D; the dataflow implementation in
  ``repro.core.cg_dataflow`` drives the identical state graph.
* :func:`scipy_cg_baseline` — independent cross-check via scipy.
* :func:`preconditioner_for` — the spec's ``"jacobi"``/``"mg"``
  preconditioner as a ``precondition`` callable.
"""

from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.state_machine import CGState, CGStateMachine, CG_NUM_STATES
from repro.solvers.baseline import scipy_cg_baseline, dense_direct_solve
from repro.solvers.preconditioning import (
    jacobi_preconditioner,
    operator_diagonal,
    preconditioner_for,
)

__all__ = [
    "CGResult",
    "conjugate_gradient",
    "CGState",
    "CGStateMachine",
    "CG_NUM_STATES",
    "scipy_cg_baseline",
    "dense_direct_solve",
    "jacobi_preconditioner",
    "operator_diagonal",
    "preconditioner_for",
]
