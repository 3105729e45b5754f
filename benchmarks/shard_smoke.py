"""CI smoke for the sharded engine: repeatable, parity-exact, reported.

Usage::

    PYTHONPATH=src python benchmarks/shard_smoke.py

Runs a 2x2 sharded solve and asserts the invariants a deployment cares
about:

* solving the same layout twice is **bit-identical** — pressures,
  iterations, residual histories, counters and link counters (shards
  run in order and reductions fold in shard order);
* with a fixed iteration count, counters, cycle traffic, per-PE memory
  and state visits are **exactly** those of ``engine="vectorized"``,
  and the pressure agrees to fp round-off;
* on the backend path, ``telemetry["shard"]`` carries the layout and
  the link counters, with real halo traffic on a multi-shard layout.

Exits non-zero on any violated invariant, so CI can gate on it.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.core.solver import WseMatrixFreeSolver  # noqa: E402
from repro.wse.specs import WSE2  # noqa: E402

SHARD_SHAPE = (2, 2)
SPEC = WSE2.with_fabric(16, 16)
FIXED = dict(dtype=np.float64, rel_tol=None, fixed_iterations=24)
CONVERGING = dict(dtype=np.float64, rel_tol=1e-8, max_iters=3000)


def _sharded(problem, **options):
    return WseMatrixFreeSolver(
        problem, spec=SPEC, engine="sharded", shard_shape=SHARD_SHAPE, **options
    ).solve()


def main() -> int:
    problem = repro.scenario(
        "quarter_five_spot", nx=12, ny=10, nz=3
    ).build()
    failures: list[str] = []

    first, again = _sharded(problem, **CONVERGING), _sharded(problem, **CONVERGING)
    if not np.array_equal(again.pressure, first.pressure):
        failures.append("repeat solve: pressure differs")
    if again.iterations != first.iterations:
        failures.append("repeat solve: iteration count differs")
    if again.residual_history != first.residual_history:
        failures.append("repeat solve: residual history differs")
    if again.counters.to_dict() != first.counters.to_dict():
        failures.append("repeat solve: counters differ")
    if again.shard["links"] != first.shard["links"]:
        failures.append("repeat solve: link counters differ")
    print(f"shard_smoke: repeat  iters={first.iterations} "
          f"halo_bytes={first.shard['links']['halo_bytes']}")

    sharded = _sharded(problem, **FIXED)
    vector = WseMatrixFreeSolver(
        problem, spec=SPEC, engine="vectorized", **FIXED
    ).solve()
    if sharded.counters.to_dict() != vector.counters.to_dict():
        failures.append("counters differ from engine='vectorized'")
    if sharded.trace.to_dict() != vector.trace.to_dict():
        failures.append("cycle traffic differs from engine='vectorized'")
    if sharded.memory != vector.memory:
        failures.append("per-PE memory differs from engine='vectorized'")
    if sharded.state_visits != vector.state_visits:
        failures.append("state visits differ from engine='vectorized'")
    if not np.allclose(sharded.pressure, vector.pressure, rtol=1e-9, atol=1e-12):
        failures.append("pressure differs from engine='vectorized'")
    print(f"shard_smoke: parity  iters={sharded.iterations} "
          f"makespan_cycles={sharded.trace.makespan_cycles}")

    # The declarative front door carries the same solve and must
    # surface shard telemetry.
    result = repro.solve(
        problem, backend="wse",
        spec=repro.SolveSpec.from_kwargs(
            spec=SPEC, engine="sharded", shard_shape=SHARD_SHAPE,
            dtype="float64", rel_tol=1e-8, max_iters=3000,
        ),
    )
    shard = result.telemetry.get("shard") or {}
    if not {"layout", "links"} <= set(shard):
        failures.append(f"backend telemetry missing layout/links: {shard}")
    elif shard["links"]["halo_bytes"] <= 0:
        failures.append("backend telemetry reports no halo traffic on 2x2")
    if not np.array_equal(result.pressure, first.pressure):
        failures.append("backend-path pressure differs from direct solver")

    if failures:
        for line in failures:
            print(f"shard_smoke: FAIL {line}")
        return 1
    print("shard_smoke: PASS (2x2 repeatable, counter/trace-equal to "
          "vectorized, backend telemetry intact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
