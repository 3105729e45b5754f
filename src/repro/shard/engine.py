"""The sharded fabric engine: domain-decomposed vectorized execution.

:class:`ShardedVectorEngine` runs the same CG program as
:class:`~repro.wse.vector_engine.VectorEngine`, but partitions the
fabric into a :class:`~repro.shard.layout.ShardLayout` of rectangular
shards and runs each shard's sweeps on a worker crew (serial loop,
threads, or shared-memory processes).  Between phases the shards
exchange *real* one-plane halos through mailbox buffers, and dot
products reduce across shards in deterministic shard order.

Parity contract (pinned in ``tests/test_sharded_engine.py`` and fuzzed
4-way in ``tests/test_engine_fuzz.py``):

* **counters / traffic / memory / state visits** — *exactly* equal to
  the single-shard vectorized engine, including ``idle_cycles`` and the
  makespan: the coordinator runs the shared CG driver
  (:func:`~repro.wse.vector_engine.run_lanes`) with the shard crew as
  its one-lane sweep, and the driver composes the charges from the
  same analytic packets.  Sharding changes who computes, not what the
  machine is charged for.
* **iterates** — bitwise equal per element through every sweep (the
  halo-extended buffers reproduce ``_shifted`` exactly); only the
  cross-shard *reduction order* of the float64 dot partials differs, so
  alpha/beta — and therefore the pressure field — agree to fp round-off
  and iteration counts almost always coincide.
* **inter-shard traffic** — counted for real by
  :class:`~repro.shard.links.InterShardLinkModel`, charged by the crew
  sweep inside its own exchange/reduce rounds and reported under
  ``EngineReport.shard["links"]``.  A ``1x1`` layout moves zero bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.fused.tiling import normalize_fused_tile
from repro.shard.layout import ShardLayout
from repro.shard.links import InterShardLinkModel
from repro.shard.workers import (
    CREW_MODES,
    WorkerParams,
    create_crew,
    default_crew,
)
from repro.util.errors import ConfigurationError
from repro.wse.vector_engine import _LaneEngine, run_lanes, staging_to_arrays


class CrewSweep:
    """The shard crew as the driver's one-lane sweep.

    Every CG phase is one or two barrier rounds on the crew; the dot
    partials reduce in shard order, and each round charges the
    inter-shard links it uses (a halo exchange per FV apply, a
    reduction per global dot).  The mg V-cycle runs host-side on the
    crew's board between rounds."""

    def __init__(self, engine: "ShardedVectorEngine", crew):
        self.engine, self.crew, self.links = engine, crew, engine.links
        self.mg = engine.program.mg

    @staticmethod
    def _reduce(partials) -> float:
        """Shard-order float64 sum of the workers' local dot products —
        the engine's only fp divergence from the single-shard sweep."""
        total = 0.0
        for value in partials:
            total += value
        return float(total)

    def _mg_cycle(self) -> None:
        """Run one host-assisted V-cycle over the board's residual.

        Workers have just pushed their ``r`` blocks to the crew board
        (a barrier separates their writes from this read); the float64
        V-cycle replaces the board contents with the ``z`` field the
        ``mg_*`` rounds read back.  Host gather/scatter bytes are
        tracked separately (``shard["mg_host_bytes"]``); the inter-shard
        link model stays untouched (pinned: ``links["exchanges"] ==
        iterations + 1`` with or without mg).
        """
        from repro.mg import mg_apply

        board = self.crew.board()
        engine = self.engine
        board[...] = mg_apply(engine.stagings[0].mg_hier, board).astype(engine.dtype)
        engine.mg_host_bytes += 2 * board.nbytes

    def init(self) -> list[float]:
        crew = self.crew
        partials = crew.round("init")
        self.links.charge_exchange()
        if self.mg:
            # The init barrier left every shard's r on the board.
            self._mg_cycle()
            partials = crew.round("mg_init")
        # p planes are published after the init barrier: neighbours
        # fill their y halos from the same single-buffered mailboxes.
        crew.round("publish")
        self.links.charge_reduce()
        return [self._reduce(partials)]

    def apply_dot(self, lanes: Sequence[int]) -> list[float]:
        partials = self.crew.round("body")  # fill(p), Jp, <p, Jp>
        self.links.charge_exchange()
        self.links.charge_reduce()
        return [self._reduce(partials)]

    def update(self, lanes: Sequence[int], alphas: Sequence[float]) -> list[float]:
        partials = self.crew.round("update", alphas[0])
        if self.mg:
            self._mg_cycle()
            partials = self.crew.round("mg_update")
        self.links.charge_reduce()
        return [self._reduce(partials)]

    def direction(self, lanes: Sequence[int], betas: Sequence[float]) -> None:
        self.crew.round("direction", betas[0])  # also republishes p planes

    def pressure(self, lane: int) -> np.ndarray:
        return self.crew.gather()

    def extras(self) -> dict:
        engine = self.engine
        shard = {
            "layout": engine.layout.to_dict(),
            "workers": engine.shard_workers,
            "links": self.links.to_dict(),
            "fused_tile": (
                None if engine.fused_tile is None else list(engine.fused_tile)
            ),
        }
        if self.mg:
            shard["mg_host_bytes"] = engine.mg_host_bytes
        return {"shard": shard}


class ShardedVectorEngine(_LaneEngine):
    """Domain-decomposed vectorized execution of the dataflow CG program.

    Constructor vocabulary extends the vectorized engine's with the
    decomposition: ``shard_shape`` (an ``(sx, sy)`` pair or an int for a
    1-D split) and ``shard_workers`` (``"serial"``, ``"thread"`` or
    ``"process"``; ``None`` picks :func:`~repro.shard.workers.default_crew`
    — threads when shards can sweep concurrently, the serial loop when
    they can't).  ``fused_tile`` runs each worker's FV sweep through the
    cache-blocked tile kernel over its halo-extended slab (a pure loop
    reorder — bitwise-identical shard results).
    """

    name = "sharded"

    def __init__(
        self,
        problem: SinglePhaseProblem,
        program: CgProgram,
        *,
        shard_shape=(1, 1),
        shard_workers: str | None = None,
        fused_tile=None,
        **kwargs,
    ):
        if shard_workers is not None and shard_workers not in CREW_MODES:
            raise ConfigurationError(
                f"unknown shard worker mode {shard_workers!r}; choose one "
                f"of {', '.join(CREW_MODES)}"
            )
        # Staging, memory rehearsal and the charge model are *global* —
        # the machine being modelled is one fabric, however many workers
        # sweep it; this is what makes the counter parity exact.
        super().__init__(problem, program, **kwargs)
        grid = problem.grid
        self.layout = ShardLayout.build(shard_shape, grid.nx, grid.ny)
        self.shard_workers = (
            shard_workers if shard_workers is not None
            else default_crew(self.layout)
        )
        self.links = InterShardLinkModel(self.layout, grid.nz, self.dtype.itemsize)
        st = self.stagings[0]
        self._arrays = staging_to_arrays(st, program)
        self.fused_tile = normalize_fused_tile(fused_tile)
        self._params = WorkerParams(
            variant=program.variant,
            jacobi=program.jacobi,
            dtype=self.dtype.str,
            has_full=st.has_full,
            has_partial=st.has_partial,
            fused_tile=self.fused_tile,
            mg=program.mg,
        )
        self.mg_host_bytes = 0

    def run(self) -> EngineReport:
        crew = create_crew(
            self.shard_workers, self.layout, self._arrays, self._params,
            self.depth, self.dtype,
        )
        try:
            crew.start()  # spawn workers + stage round (publish y planes)
            return run_lanes(self, CrewSweep(self, crew))[0]
        finally:
            crew.close()


__all__ = ["CrewSweep", "ShardedVectorEngine"]
