"""Sharded fabric execution: domain decomposition, halo exchange,
per-shard workers (run in order in one process) and inter-shard link
accounting.

Entry point: :class:`ShardedVectorEngine`, registered behind
``MachineSpec(engine="sharded")`` (see :mod:`repro.core.engines`).
"""

from repro.shard.engine import ShardedVectorEngine
from repro.shard.layout import ShardBox, ShardLayout, normalize_shard_shape
from repro.shard.links import (
    InterShardLinkModel,
    MultiWaferLink,
    ShardLinkCounters,
    project_multiwafer,
)

__all__ = [
    "InterShardLinkModel",
    "MultiWaferLink",
    "ShardBox",
    "ShardLayout",
    "ShardLinkCounters",
    "ShardedVectorEngine",
    "normalize_shard_shape",
    "project_multiwafer",
]
