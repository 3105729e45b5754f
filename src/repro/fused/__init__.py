"""Fused cache-blocked hot-loop execution of the dataflow CG program.

The package behind ``MachineSpec(engine="fused")``: cache-tile
selection (:mod:`repro.fused.tiling`), the tiled FV-apply kernel and
the numpy pass backend (:mod:`repro.fused.kernels`), and the engines
themselves (:mod:`repro.fused.engine`).
"""

from repro.fused.engine import BatchedFusedEngine, FusedVectorEngine
from repro.fused.tiling import auto_tile, normalize_fused_tile, tile_boxes

__all__ = [
    "BatchedFusedEngine",
    "FusedVectorEngine",
    "auto_tile",
    "normalize_fused_tile",
    "tile_boxes",
]
