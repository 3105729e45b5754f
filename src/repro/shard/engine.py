"""The sharded fabric engine: domain-decomposed vectorized execution.

:class:`ShardedVectorEngine` runs the same CG program as
:class:`~repro.wse.vector_engine.VectorEngine`, but partitions the
fabric into a :class:`~repro.shard.layout.ShardLayout` of rectangular
shards, each swept by a :class:`~repro.shard.workers.ShardWorker`.
Shards run in order in one process.  Between phases the shards exchange
*real* one-plane halos through mailbox buffers, and dot products reduce
across shards in shard order.

Parity contract (pinned in ``tests/test_sharded_engine.py`` and fuzzed
4-way in ``tests/test_engine_fuzz.py``):

* **counters / traffic / memory / state visits** — *exactly* equal to
  the single-shard vectorized engine, including ``idle_cycles`` and the
  makespan: the engine runs the shared CG driver
  (:func:`~repro.wse.vector_engine.run_lanes`) with the shard workers
  as its one-lane sweep, and the driver composes the charges from the
  same analytic packets.  Sharding changes who computes, not what the
  machine is charged for.
* **iterates** — bitwise equal per element through every sweep (the
  halo-extended buffers reproduce ``_shifted`` exactly); only the
  cross-shard *reduction order* of the float64 dot partials differs, so
  alpha/beta — and therefore the pressure field — agree to fp round-off
  and iteration counts almost always coincide.
* **inter-shard traffic** — counted for real by
  :class:`~repro.shard.links.InterShardLinkModel`, charged by the
  sweep inside its own exchange/reduce phases and reported under
  ``EngineReport.shard["links"]``.  A ``1x1`` layout moves zero bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.fused.tiling import normalize_fused_tile
from repro.shard.layout import DIRECTIONS, ShardLayout
from repro.shard.links import InterShardLinkModel
from repro.shard.workers import ShardWorker
from repro.wse.vector_engine import _LaneEngine, run_lanes, staging_to_arrays


class CrewSweep:
    """The shard workers as the driver's one-lane sweep.

    Every CG phase is a loop over the workers in shard order; the dot
    partials reduce in that order, and each phase charges the
    inter-shard links it uses (a halo exchange per FV apply, a
    reduction per global dot).  The mg V-cycle runs host-side on the
    board between phases."""

    def __init__(self, engine: "ShardedVectorEngine"):
        self.engine, self.links = engine, engine.links
        self.mg = engine.program.mg
        layout, nz, dtype = engine.layout, engine.depth, engine.dtype
        st = engine.stagings[0]
        program = engine.program
        # The full-grid scratch board: mg residual/correction staging
        # between phases, and the gather target.
        self.board = np.zeros((layout.nx, layout.ny, nz), dtype=dtype)
        outboxes = [
            {
                direction: np.zeros(
                    (box.ny if direction in ("west", "east") else box.nx, nz),
                    dtype=dtype,
                )
                for direction, _, _ in DIRECTIONS
                if layout.neighbor_index(box, direction) is not None
            }
            for box in layout.boxes
        ]
        self.workers = [
            ShardWorker(
                engine.arrays, box, layout.neighbors(box), outboxes, self.board,
                variant=program.variant,
                jacobi=program.jacobi,
                dtype=dtype,
                has_full=st.has_full,
                has_partial=st.has_partial,
                fused_tile=engine.fused_tile,
                mg=program.mg,
            )
            for box in layout.boxes
        ]
        for worker in self.workers:  # publish the y planes
            worker.stage()

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

        Every worker has just pushed its ``r`` block to the board; the
        V-cycle, run at the working dtype, replaces the board contents
        with the ``z`` field the ``mg_*`` phases read back.  Host
        gather/scatter bytes are tracked separately
        (``shard["mg_host_bytes"]``); the inter-shard link model stays
        untouched (pinned: ``links["exchanges"] == iterations + 1`` with
        or without mg).
        """
        from repro.mg import mg_apply

        board, engine = self.board, self.engine
        board[...] = mg_apply(engine.stagings[0].mg_hier, board)
        engine.mg_host_bytes += 2 * board.nbytes

    def init(self) -> list[float]:
        partials = [w.init() for w in self.workers]
        self.links.charge_exchange()
        if self.mg:
            # Every shard's init left its r on the board.
            self._mg_cycle()
            partials = [w.mg_init() for w in self.workers]
        # p planes are published after every shard's init: shards later
        # in the loop fill their y halos from the same single-buffered
        # mailboxes.
        for w in self.workers:
            w.publish()
        self.links.charge_reduce()
        return [self._reduce(partials)]

    def apply_dot(self, lanes: Sequence[int]) -> list[float]:
        partials = [w.body() for w in self.workers]  # fill(p), Jp, <p, Jp>
        self.links.charge_exchange()
        self.links.charge_reduce()
        return [self._reduce(partials)]

    def update(self, lanes: Sequence[int], alphas: Sequence[float]) -> list[float]:
        partials = [w.update(alphas[0]) for w in self.workers]
        if self.mg:
            self._mg_cycle()
            partials = [w.mg_update() for w in self.workers]
        self.links.charge_reduce()
        return [self._reduce(partials)]

    def direction(self, lanes: Sequence[int], betas: Sequence[float]) -> None:
        for w in self.workers:  # also republishes p planes
            w.direction(betas[0])

    def pressure(self, lane: int) -> np.ndarray:
        for w in self.workers:
            w.gather()
        return self.board.copy()

    def extras(self) -> dict:
        engine = self.engine
        shard = {
            "layout": engine.layout.to_dict(),
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
    1-D split).  ``fused_tile`` runs each worker's FV sweep through the
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
        fused_tile=None,
        **kwargs,
    ):
        # Staging, memory rehearsal and the charge model are *global* —
        # the machine being modelled is one fabric, however it is
        # decomposed; this is what makes the counter parity exact.
        super().__init__(problem, program, **kwargs)
        grid = problem.grid
        self.layout = ShardLayout.build(shard_shape, grid.nx, grid.ny)
        self.links = InterShardLinkModel(self.layout, grid.nz, self.dtype.itemsize)
        self.arrays = staging_to_arrays(self.stagings[0], program)
        self.fused_tile = normalize_fused_tile(fused_tile)
        self.mg_host_bytes = 0

    def run(self) -> EngineReport:
        return run_lanes(self, CrewSweep(self))[0]


__all__ = ["CrewSweep", "ShardedVectorEngine"]
