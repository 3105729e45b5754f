"""Fabric engine registry: how a :class:`CgProgram` gets executed.

The event oracle plays the program one wavelet at a time; every other
engine runs the one lane-stacked CG driver
(:func:`repro.wse.vector_engine.run_lanes`) over its own sweep, so the
CG recurrence and the charge accounting exist once:

* ``"event"`` — the discrete-event oracle (one Python PE per fabric PE,
  one event per wavelet; cycle-accurate, byte-stable traces);
* ``"vectorized"`` — whole-fabric NumPy array sweeps with an analytic
  cycle/counter model (paper-scale fabrics, identical numerics and
  instruction counts); batched, the same sweeps over a stack of
  same-shape problems;
* ``"sharded"`` — the vectorized numerics domain-decomposed into
  shards, run in order in one process, with real halo exchange between
  shards and shard-ordered dot-product reduction;
  counters/traffic/memory stay exactly parity-pinned to the
  single-shard vectorized engine;
* ``"fused"`` — the vectorized numerics executed as one cache-blocked
  pass per CG phase (FV apply, axpys and dot partials fused per
  lateral tile); counters/traffic/memory stay exactly parity-pinned to
  the vectorized engine.

Selection is declarative via ``MachineSpec(engine=...)``; the solver
resolves the name here.  Engine construction is lazy per name so the
default event path never imports the vectorized module and vice versa.
"""

from __future__ import annotations

import difflib
from typing import Protocol

import numpy as np

from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.spec import FABRIC_ENGINES, TILE_ENGINES
from repro.util.errors import ConfigurationError
from repro.wse.specs import WseSpecs

#: Engine names MachineSpec.engine accepts (None defers to the default).
#: Aliases :data:`repro.spec.FABRIC_ENGINES` — one source of truth.
ENGINE_NAMES = FABRIC_ENGINES

DEFAULT_ENGINE = "event"

#: Engines that accept a shard layout (``shard_shape``).
SHARD_CAPABLE_ENGINES = ("sharded",)

#: Engines that accept a cache-tile shape (``fused_tile``).  The sharded
#: engine qualifies because its workers can run the fused kernel over
#: their halo-extended slabs.  Aliases :data:`repro.spec.TILE_ENGINES`.
TILE_CAPABLE_ENGINES = TILE_ENGINES


def _unknown_engine_error(name: str) -> ConfigurationError:
    close = difflib.get_close_matches(str(name), ENGINE_NAMES, n=1, cutoff=0.5)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ConfigurationError(
        f"unknown fabric engine {name!r}{hint} "
        f"(valid engines: {', '.join(ENGINE_NAMES)})"
    )


class FabricEngine(Protocol):
    """What the solver needs from an engine (structural typing)."""

    name: str

    def run(self) -> EngineReport:
        ...


def create_engine(
    name: str,
    problem: SinglePhaseProblem,
    program: CgProgram,
    *,
    spec: WseSpecs,
    dtype=np.float32,
    simd_width: int | None = None,
    initial_pressure: np.ndarray | None = None,
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
    shard_shape=None,
    fused_tile=None,
    mg_hierarchy=None,
) -> FabricEngine:
    """Instantiate the engine ``name`` for one solve (staging included).

    ``mg_hierarchy`` hands a multigrid program the hierarchy its solve
    already built (see ``core.solver.solve_hierarchy``); the engine
    builds its own when it is omitted."""
    if name not in ENGINE_NAMES:
        raise _unknown_engine_error(name)
    if name not in SHARD_CAPABLE_ENGINES and shard_shape is not None:
        raise ConfigurationError(
            f"fabric engine {name!r} is single-shard; shard_shape requires "
            f"one of {', '.join(SHARD_CAPABLE_ENGINES)}"
        )
    if name not in TILE_CAPABLE_ENGINES and fused_tile is not None:
        raise ConfigurationError(
            f"fabric engine {name!r} is untiled; fused_tile requires "
            f"one of {', '.join(TILE_CAPABLE_ENGINES)}"
        )
    kwargs = dict(
        spec=spec,
        dtype=dtype,
        simd_width=simd_width,
        initial_pressure=initial_pressure,
        accumulation=accumulation,
        rhs=rhs,
    )
    if name == "event":
        from repro.core.event_engine import EventEngine

        return EventEngine(problem, program, mg_hierarchy=mg_hierarchy, **kwargs)
    kwargs["mg_hierarchies"] = [mg_hierarchy]
    if name == "sharded":
        from repro.shard import ShardedVectorEngine

        return ShardedVectorEngine(
            problem,
            program,
            shard_shape=shard_shape if shard_shape is not None else (1, 1),
            fused_tile=fused_tile,
            **kwargs,
        )
    if name == "fused":
        from repro.fused import FusedVectorEngine

        return FusedVectorEngine(problem, program, fused_tile=fused_tile, **kwargs)
    from repro.wse.vector_engine import VectorEngine

    return VectorEngine(problem, program, **kwargs)


#: Engines that can execute a ``batch > 1`` program.  The event oracle
#: plays one wavelet at a time and cannot; the sharded engine spends its
#: parallelism across the fabric, not across problems.  Asking either to
#: batch is a configuration error, not a silent serialization.
BATCH_CAPABLE_ENGINES = ("vectorized", "fused")


def create_batched_engine(
    name: str,
    problems,
    program: CgProgram,
    *,
    spec: WseSpecs,
    dtype=np.float32,
    simd_width: int | None = None,
    tol_rtrs=None,
    initial_pressure=None,
    accumulation=None,
    rhs=None,
    fused_tile=None,
    mg_hierarchies=None,
):
    """Instantiate the batched engine for one multi-problem solve.

    ``name`` follows the same vocabulary as :func:`create_engine`; only
    :data:`BATCH_CAPABLE_ENGINES` are accepted.  ``mg_hierarchies``
    holds one prebuilt hierarchy per problem (or ``None``)."""
    if name not in ENGINE_NAMES:
        raise _unknown_engine_error(name)
    if name not in BATCH_CAPABLE_ENGINES:
        raise ConfigurationError(
            f"fabric engine {name!r} runs one problem at a time; batched "
            f"execution requires one of "
            f"{', '.join(BATCH_CAPABLE_ENGINES)}"
        )
    if name not in TILE_CAPABLE_ENGINES and fused_tile is not None:
        raise ConfigurationError(
            f"fabric engine {name!r} is untiled; fused_tile requires "
            f"one of {', '.join(TILE_CAPABLE_ENGINES)}"
        )
    kwargs = dict(
        spec=spec,
        dtype=dtype,
        simd_width=simd_width,
        tol_rtrs=tol_rtrs,
        initial_pressure=initial_pressure,
        accumulation=accumulation,
        rhs=rhs,
        mg_hierarchies=mg_hierarchies,
    )
    if name == "fused":
        from repro.fused import BatchedFusedEngine

        return BatchedFusedEngine(problems, program, fused_tile=fused_tile, **kwargs)
    from repro.wse.vector_engine import BatchedVectorEngine

    return BatchedVectorEngine(problems, program, **kwargs)


__all__ = [
    "BATCH_CAPABLE_ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "FabricEngine",
    "SHARD_CAPABLE_ENGINES",
    "TILE_CAPABLE_ENGINES",
    "create_batched_engine",
    "create_engine",
]
