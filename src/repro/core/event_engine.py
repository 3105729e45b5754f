"""The event-driven fabric engine — the cycle-accurate oracle.

Composes the per-PE machinery (fabric + routers, halo exchange,
all-reduce, FV column kernel, distributed CG state machine) exactly as
the original one-engine solver did, and plays the
:class:`~repro.core.program.CgProgram` as discrete wavelet events.  Every
message, switch advance and DSD instruction is simulated individually,
so traces and counters are byte-stable against the pre-engine code — the
reference the vectorized engine is verified against.
"""

from __future__ import annotations

import numpy as np

from repro.core.allreduce import AllReduce, AllReduceColors
from repro.core.cg_dataflow import DataflowCG
from repro.core.exchange import ExchangeColors, HaloExchange
from repro.core.fv_kernel import FvColumnKernel
from repro.core.host import fabric_memory_report, gather_field, stage_problem
from repro.core.mapping import ProblemMapping
from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.specs import WseSpecs


class EventEngine:
    """Discrete-event execution of the dataflow CG program.

    Construction stages the problem onto a freshly built fabric (the
    memory arena enforces the 48 KiB budget here, like an oversized CSL
    program failing to load); :meth:`run` plays the program to
    completion and gathers the results.
    """

    name = "event"

    def __init__(
        self,
        problem: SinglePhaseProblem,
        program: CgProgram,
        *,
        spec: WseSpecs,
        dtype=np.float32,
        simd_width: int | None = None,
        initial_pressure: np.ndarray | None = None,
        accumulation: np.ndarray | None = None,
        rhs: np.ndarray | None = None,
        mg_hierarchy=None,
    ):
        from repro.perf.memmodel import SCALAR_RESERVE_BYTES
        from repro.util.errors import ConfigurationError

        if program.batch != 1:
            raise ConfigurationError(
                f"the event-driven engine plays one problem at a time; got "
                f"batch={program.batch} (batched execution needs the "
                f"vectorized engine)"
            )
        if program.accumulation != (accumulation is not None):
            raise ConfigurationError(
                "program.accumulation and the staged accumulation array "
                "must be supplied together"
            )
        self.problem = problem
        self.program = program
        self.spec = spec
        self.mapping = ProblemMapping(problem.grid, spec)
        self.fabric = Fabric(
            spec,
            width=problem.grid.nx,
            height=problem.grid.ny,
            dtype=np.dtype(dtype),
            simd_width=simd_width,
            # CG scalars, state-machine bookkeeping and stack live outside
            # the column buffers; reserve them so the capacity model's
            # max_depth is exactly the staging boundary (tested).
            reserved_pe_bytes=SCALAR_RESERVE_BYTES,
        )
        self.colors = ColorAllocator(31)
        self.exchange_colors = ExchangeColors.allocate(self.colors)
        self.allreduce_colors = AllReduceColors.allocate(self.colors)
        self.exchange = HaloExchange(self.fabric, self.exchange_colors, problem.grid.nz)
        self.allreduce = AllReduce(self.fabric, self.allreduce_colors)
        self.kernel = FvColumnKernel()
        self.kernel_configs = stage_problem(
            self.fabric,
            problem,
            self.mapping,
            variant=program.variant,
            reuse_buffers=program.reuse_buffers,
            initial_pressure=initial_pressure,
            jacobi=program.jacobi,
            mg=program.mg,
            accumulation=accumulation,
            rhs=rhs,
        )
        self.mg_hierarchy = None
        self._mg_packet = None
        if program.mg:
            from repro.mg import build_hierarchy, build_mg_packet
            from repro.wse.vector_engine import _ChargeModel

            if mg_hierarchy is None:
                mg_hierarchy = build_hierarchy(
                    problem.coefficients,
                    problem.dirichlet.mask,
                    accumulation=accumulation,
                    levels=program.mg_levels,
                    smoother_iters=program.mg_smoother_iters,
                )
            self.mg_hierarchy = mg_hierarchy
            # The V-cycle's fabric cost is charged from the same analytic
            # packet the vectorized engine merges (only machine
            # parameters are read, so counters/traffic agree exactly).
            self._mg_packet = build_mg_packet(
                _ChargeModel(
                    width=self.fabric.width,
                    height=self.fabric.height,
                    depth=problem.grid.nz,
                    simd_width=(
                        int(simd_width)
                        if simd_width is not None
                        else spec.simd_width_f32
                    ),
                    spec=spec,
                    suppress=False,
                    kind_counts={},
                    kernel_plans={},
                ),
                self.mg_hierarchy,
            )
        if program.comm_only:
            for pe in self.fabric.iter_pes():
                pe.suppress_fp = True

    def run(self) -> EngineReport:
        """Run the distributed CG to completion (one shot per engine)."""
        cg = DataflowCG(
            self.fabric,
            self.exchange,
            self.allreduce,
            self.kernel,
            self.kernel_configs,
            self.program,
            mg_hierarchy=self.mg_hierarchy,
        )
        cg.launch()
        trace = self.fabric.run()
        pressure = gather_field(self.fabric, self.mapping, "y")
        counters = self.fabric.merged_counters()
        preconditioner = None
        if self.program.mg:
            from repro.mg import merge_mg_packet

            merge_mg_packet(counters, trace, self._mg_packet, cg.mg_applies)
            preconditioner = self.mg_hierarchy.telemetry(cg.mg_applies)
        return EngineReport(
            pressure=pressure,
            iterations=cg.result.iterations,
            converged=cg.result.converged,
            residual_history=cg.result.residual_history,
            trace=trace,
            counters=counters,
            elapsed_seconds=self.fabric.elapsed_seconds(),
            memory=fabric_memory_report(self.fabric),
            state_visits=cg.result.state_visits,
            engine=self.name,
            preconditioner=preconditioner,
        )


__all__ = ["EventEngine"]
