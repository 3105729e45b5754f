"""The fused cache-blocked hot-loop engine.

:class:`FusedVectorEngine` runs the same CG program as
:class:`~repro.wse.vector_engine.VectorEngine`, but executes each CG
phase as a **single tiled pass** over the lateral grid: per cache-sized
tile the FV apply, the axpy updates and the float64 dot partial are
fused back-to-back while the tile's working set is still resident,
instead of streaming six-plus full-grid temporaries through DRAM per
iteration (the paper's point, applied to the host).  The tile shape is
auto-picked from grid and dtype, overridable via the ``fused_tile``
spec knob; tile-order sequential reduction of the per-tile dot partials
(the shard engine's trick) makes every run bit-identical.

Parity contract (pinned in ``tests/test_fused_engine.py`` and fuzzed
5-way in ``tests/test_engine_fuzz.py``):

* **counters / traffic / memory / state visits / makespan** — *exactly*
  equal to the vectorized engine: both run the same CG driver
  (:func:`~repro.wse.vector_engine.run_lanes`), which composes every
  lane's charges from the same analytic packets.  Tiling changes how
  the host sweeps, not what the machine is charged for.
* **iterates** — bitwise equal per element through every sweep (tiling
  is a pure loop reorder over elementwise/stencil-local ops; the padded
  stencil buffer reproduces ``_shifted`` exactly); only the tile-order
  float64 partial-sum of the dots differs from the single ``np.dot``,
  so alpha/beta — and therefore the pressure field — agree to fp
  round-off and iteration counts almost always coincide.

:class:`BatchedFusedEngine` is the lane-parallel counterpart: each lane
advances its own tiled backend in lockstep under the same driver, so
every lane's report is exactly what a serial fused solve of that
problem would produce.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.program import CgProgram, EngineReport
from repro.fused.kernels import FusedNumpyBackend, create_backend
from repro.fused.tiling import auto_tile, normalize_fused_tile
from repro.physics.darcy import SinglePhaseProblem
from repro.wse.vector_engine import _LaneEngine, run_lanes


def _resolve_tile(fused_tile, grid, dtype) -> tuple[int, int]:
    tile = normalize_fused_tile(fused_tile)
    if tile is None:
        tile = auto_tile(grid.nx, grid.ny, grid.nz, np.dtype(dtype).itemsize)
    return (min(tile[0], grid.nx), min(tile[1], grid.ny))


class TiledSweep:
    """One tiled :class:`FusedNumpyBackend` per lane.

    Jacobi runs inside the backend's passes.  The mg V-cycle is global
    (coarse grids couple all tiles), so mg splits the init and update
    passes around the host V-cycle into ``z``."""

    def __init__(self, stagings, program: CgProgram, tile: tuple[int, int], dtype):
        self.stagings = list(stagings)
        self.mg = program.mg
        self.dtype = np.dtype(dtype)
        self.tile = tile
        self.backends = [
            create_backend(st, program, tile=tile, dtype=self.dtype)
            for st in self.stagings
        ]

    @staticmethod
    def _reduce(partials) -> float:
        """Row-major tile-order float64 sum of the per-tile dot partials
        — the engine's only fp divergence from the single-sweep dot."""
        total = 0.0
        for value in partials:
            total += value
        return float(total)

    def _vcycle(self, lane: int) -> None:
        from repro.mg import mg_apply

        st = self.stagings[lane]
        st.z[...] = mg_apply(st.mg_hier, st.r)

    def init(self) -> list[float]:
        out = []
        for lane, backend in enumerate(self.backends):
            if self.mg:
                backend.init_residual_pass()
                self._vcycle(lane)
                out.append(self._reduce(backend.mg_seed_pass()))
            else:
                out.append(self._reduce(backend.init_pass()))
        return out

    def apply_dot(self, lanes: Sequence[int]) -> list[float]:
        return [self._reduce(self.backends[i].body_pass()) for i in lanes]

    def update(self, lanes: Sequence[int], alphas: Sequence[float]) -> list[float]:
        out = []
        for lane, alpha in zip(lanes, alphas):
            backend = self.backends[lane]
            if self.mg:
                backend.update_axpy_pass(alpha)
                self._vcycle(lane)
                out.append(self._reduce(backend.mg_dot_pass()))
            else:
                out.append(self._reduce(backend.update_pass(alpha)))
        return out

    def direction(self, lanes: Sequence[int], betas: Sequence[float]) -> None:
        for lane, beta in zip(lanes, betas):
            self.backends[lane].direction_pass(beta)

    def pressure(self, lane: int) -> np.ndarray:
        return np.array(self.stagings[lane].y, copy=True)

    def extras(self) -> dict:
        """The ``EngineReport.fused`` telemetry payload."""
        return {"fused": {
            "backend": FusedNumpyBackend.name,
            "tile": [int(self.tile[0]), int(self.tile[1])],
            "tiles": int(self.backends[0].n_tiles),
        }}


class FusedVectorEngine(_LaneEngine):
    """Tiled hot-loop execution of the dataflow CG program.

    Constructor vocabulary extends the vectorized engine's with the
    tiling: ``fused_tile`` (``None`` auto-picks from grid/dtype; an int,
    pair or ``"16x16"`` string overrides).
    """

    name = "fused"

    def __init__(
        self, problem: SinglePhaseProblem, program: CgProgram, *,
        fused_tile=None, **kwargs,
    ):
        super().__init__(problem, program, **kwargs)
        tile = _resolve_tile(fused_tile, problem.grid, self.dtype)
        self.sweep = TiledSweep(self.stagings, program, tile, self.dtype)

    def run(self) -> EngineReport:
        return run_lanes(self, self.sweep)[0]


class BatchedFusedEngine(_LaneEngine):
    """Lane-parallel fused execution of one program over many problems.

    Same admission vocabulary as
    :class:`~repro.wse.vector_engine.BatchedVectorEngine` (shared grid
    shape, per-lane tolerances/guesses/rhs), plus the fused tile.  Each
    lane owns its own tiled backend over its own staging and all lanes
    advance in lockstep, freezing as they converge — so every lane's
    report is **bitwise** what a serial :class:`FusedVectorEngine` solve
    of that problem alone would produce.
    """

    name = "batched_fused"
    batched = True

    def __init__(
        self, problems: Sequence[SinglePhaseProblem], program: CgProgram, *,
        fused_tile=None, **kwargs,
    ):
        super().__init__(problems, program, **kwargs)
        tile = _resolve_tile(fused_tile, self.problems[0].grid, self.dtype)
        self.sweep = TiledSweep(self.stagings, program, tile, self.dtype)

    def run(self) -> list[EngineReport]:
        return run_lanes(self, self.sweep)


__all__ = ["BatchedFusedEngine", "FusedVectorEngine", "TiledSweep"]
