"""Matrix-free geometric multigrid preconditioning.

``preconditioner="mg"`` on a :class:`~repro.spec.SolveSpec` runs the
same preconditioned-CG recurrence on the reference solver and every
fabric engine, with the V-cycle's per-level work charged analytically
(``repro.mg.charges``) so counters/traffic/memory stay oracle-pinned.

* :mod:`repro.mg.hierarchy` — level construction (lateral 2×2 Galerkin
  aggregation of the FV face coefficients);
* :mod:`repro.mg.cycle` — the V-cycle ``z = M⁻¹ r``, run in the solve's
  working dtype with a float64 coarsest solve;
* :mod:`repro.mg.charges` — the per-V-cycle charge packet the engines
  merge at every preconditioner application.

The reference path plugs the V-cycle into the host CG as
``conjugate_gradient(..., precondition=preconditioner_for(problem, "mg"))``.
"""

from repro.mg.charges import build_mg_packet, merge_mg_packet
from repro.mg.cycle import mg_apply
from repro.mg.hierarchy import (
    DEFAULT_OMEGA,
    DEFAULT_SMOOTHER_ITERS,
    MAX_MG_LEVELS,
    MgHierarchy,
    MgLevel,
    build_hierarchy,
    hierarchy_for_problem,
    level_apply,
    planned_level_shapes,
    prolong,
    restrict,
)

__all__ = [
    "DEFAULT_OMEGA",
    "DEFAULT_SMOOTHER_ITERS",
    "MAX_MG_LEVELS",
    "MgHierarchy",
    "MgLevel",
    "build_hierarchy",
    "build_mg_packet",
    "hierarchy_for_problem",
    "level_apply",
    "merge_mg_packet",
    "mg_apply",
    "planned_level_shapes",
    "prolong",
    "restrict",
]
