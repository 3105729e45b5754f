"""The vectorized whole-fabric engine: paper-scale execution.

The per-PE program is identical across the fabric (the premise of the
paper's SPMD kernel), so instead of instantiating one Python
:class:`~repro.wse.pe.ProcessingElement` per PE and one event per
wavelet, this engine executes each phase of the
:class:`~repro.core.program.CgProgram` over the *whole fabric at once*
as ``(nx, ny, nz)`` NumPy array sweeps — the matrix-free observation
(operator evaluation is structured array sweeps, Kronbichler & Kormann)
applied to the machine simulation itself:

* **halo exchange** becomes four zero-padded slice shifts — the data
  every PE's ``halo_W/E/N/S`` buffer would hold after a 4-step round;
* **FV apply** mirrors ``FvColumnKernel`` instruction by instruction
  (same operand order, so fp results are bit-identical per element);
* **axpy/dot** are whole-array updates; dot products accumulate in
  float64 (within round-off of the fabric's sequential per-PE chain);
* **all-reduce** is exact in exact arithmetic — a single global sum.

Fidelity is preserved through an *analytic* cycle/counter model
(:class:`_ChargeModel`) charged from the same :mod:`repro.wse.isa` cost
tables the event engine uses: instruction counts, FLOPs, memory and
fabric traffic reproduce the event-driven oracle exactly (tested in
``tests/test_engine_parity.py`` and fuzzed in
``tests/test_engine_fuzz.py``); the makespan is a per-phase
critical-path estimate rather than an event-accurate schedule.  Per-PE
memory is enforced by rehearsing the exact staging allocation sequence
against a real :class:`~repro.wse.memory.MemoryArena`, so oversized
columns raise :class:`~repro.util.errors.PeOutOfMemory` exactly like
the oracle.

The module also holds the machinery every non-oracle engine shares:

* :func:`run_lanes` — the CG recurrence, once: one lane-stacked driver
  behind :class:`VectorEngine`, :class:`BatchedVectorEngine`, the fused
  engines (:mod:`repro.fused.engine`) and the sharded engine
  (:mod:`repro.shard.engine`), each of which supplies only a *sweep*
  (the numerics of the four CG phases over its own data layout);
* :class:`_LaneEngine` — their shared constructor: staging, memory
  rehearsal, charge models and charge packets;
* the charge packets (:func:`build_init_packet`,
  :func:`build_iteration_packets`) — the only charge path: each lane's
  counters are composed once, at the end, from packets played once.

Here the sweep is :class:`StackSweep`, ``(lanes, nx, ny, nz)`` array
sweeps over a stack of same-shape problems with per-lane convergence
masking: converged lanes freeze (no further updates) while the rest
keep iterating, and every lane's
:class:`~repro.core.program.EngineReport` equals what a one-lane solve
of that problem would have produced.  :class:`VectorEngine` is the
one-lane stack; :class:`BatchedVectorEngine` the many-lane one.

What the model gives up: link-level contention, task skew between
neighbouring PEs, and per-wavelet ordering.  What it buys: fabrics the
event engine cannot reach — the full 750×994 wafer runs in seconds —
and, batched, whole scenario families per NumPy pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.exchange import HALO_BUFFER
from repro.core.fv_kernel import (
    ACCUMULATION_BUFFER,
    COEFF_BUFFER,
    COEFF_DOWN,
    COEFF_UP,
    DirichletKind,
    FvColumnKernel,
    HALO_ORDER,
    KernelVariant,
    MOBILITY_BUFFER,
    MOBILITY_OWN,
    PeKernelConfig,
    UPSILON_BUFFER,
    UPSILON_DOWN,
    UPSILON_UP,
)
from repro.core.host import CG_COLUMN_BUFFERS
from repro.core.mapping import DIRECTION_FOR_PORT, ProblemMapping
from repro.core.program import CgProgram, EngineReport
from repro.fv.transmissibility import compute_transmissibility
from repro.mesh.grid import Direction
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.state_machine import CGState
from repro.util.errors import ConfigurationError
from repro.wse.isa import Op, vector_cycles
from repro.wse.memory import MemoryArena
from repro.wse.router import Port
from repro.wse.specs import WseSpecs
from repro.wse.trace import FabricTrace, PerfCounters


def _shifted(field: np.ndarray, port: Port) -> np.ndarray:
    """The neighbour column every PE would receive on ``port``.

    ``out[..., x, y, :] = field[..., x + dx, y + dy, :]`` with zeros
    where the neighbour is off-fabric — exactly the halo buffer contents
    after an exchange round (edge halos stay zero; the boundary
    coefficient is zero anyway).  The lateral axes are the trailing
    ``(nx, ny, nz)`` triple, so the same shift serves single-problem
    fields and ``(batch, nx, ny, nz)`` stacks."""
    dx, dy = port.offset
    out = np.zeros_like(field)
    src = [slice(None)] * field.ndim
    dst = [slice(None)] * field.ndim
    for axis, d in ((-3, dx), (-2, dy)):
        if d == -1:
            dst[axis], src[axis] = slice(1, None), slice(None, -1)
        elif d == 1:
            dst[axis], src[axis] = slice(None, -1), slice(1, None)
    out[tuple(dst)] = field[tuple(src)]
    return out


def normalize_guesses(initial_pressure, count: int, shape: tuple) -> list:
    """One initial guess per problem: ``None`` (problem defaults), a
    single shared field, or a per-problem stack/sequence (the multi-RHS
    transient case).  The single owner of this validation — the solver's
    ``solve_batch`` and the shared engine constructor both route through
    it."""
    if initial_pressure is None:
        return [None] * count
    if isinstance(initial_pressure, np.ndarray):
        if initial_pressure.shape == shape:
            return [initial_pressure] * count
        if initial_pressure.shape == (count,) + shape:
            return list(initial_pressure)
        raise ConfigurationError(
            f"initial_pressure shape {initial_pressure.shape} matches "
            f"neither the grid {shape} nor the batch {(count,) + shape}"
        )
    guesses = list(initial_pressure)
    if len(guesses) != count:
        raise ConfigurationError(
            f"initial_pressure has {len(guesses)} entries for {count} "
            f"problems"
        )
    return guesses


# -- problem staging ----------------------------------------------------------


class _Staging:
    """Staged field arrays + per-PE column classification.

    Built per problem by :func:`_stage_problem` (trailing ``(nx, ny,
    nz)`` axes); :func:`_stack_stagings` stacks several single-problem
    stagings into one ``(lanes, nx, ny, nz)`` staging for
    :class:`StackSweep`.  The numerics kernels (:func:`_apply_fields` and friends)
    only touch attributes, so both layouts execute the same code."""

    __slots__ = (
        "y", "b", "r", "p", "z", "inv_diag", "acc",
        "coeff", "coeff_down", "coeff_up",
        "ups", "ups_down", "ups_up", "lam", "lam_nbr",
        "full_cols", "blend_mask", "has_full", "has_partial",
        "kind_counts", "kernel_plans", "mg_hier",
    )


def _classify_columns(problem: SinglePhaseProblem) -> tuple:
    """Column histogram over DirichletKind + the full/blend masks."""
    mask = problem.dirichlet.mask
    col_any = mask.any(axis=2)
    col_all = mask.all(axis=2)
    partial_cols = col_any & ~col_all
    num_pes = mask.shape[0] * mask.shape[1]
    kind_counts = {
        DirichletKind.FULL: int(np.count_nonzero(col_all)),
        DirichletKind.PARTIAL: int(np.count_nonzero(partial_cols)),
    }
    kind_counts[DirichletKind.NONE] = (
        num_pes - kind_counts[DirichletKind.FULL] - kind_counts[DirichletKind.PARTIAL]
    )
    return col_all, partial_cols, kind_counts


def _stage_problem(
    problem: SinglePhaseProblem,
    program: CgProgram,
    dtype: np.dtype,
    initial_pressure: np.ndarray | None = None,
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
    mg_hierarchy=None,
) -> _Staging:
    """Stage one problem's field arrays (the whole-fabric analogue of
    ``stage_problem`` on the event fabric).

    ``accumulation`` is the transient diagonal ``a = φ c_t V / Δt``
    (required iff ``program.accumulation``); ``rhs`` overrides the
    interior right-hand side (Dirichlet rows always carry ``p^D``);
    ``mg_hierarchy`` is a hierarchy already built for this system (an
    mg program builds its own when it is ``None``)."""
    st = _Staging()
    grid = problem.grid
    if program.accumulation != (accumulation is not None):
        raise ConfigurationError(
            "program.accumulation and the staged accumulation array must "
            "be supplied together"
        )
    if accumulation is not None and accumulation.shape != grid.shape:
        raise ConfigurationError(
            f"accumulation shape {accumulation.shape} != grid {grid.shape}"
        )
    if rhs is not None and rhs.shape != grid.shape:
        raise ConfigurationError(f"rhs shape {rhs.shape} != grid {grid.shape}")
    if initial_pressure is None:
        p0 = problem.initial_pressure(dtype=dtype)
    else:
        p0 = np.array(initial_pressure, dtype=dtype, copy=True)
        problem.dirichlet.apply_to(p0)
    st.y = p0
    st.b = (
        np.zeros(grid.shape, dtype=dtype)
        if rhs is None
        else np.asarray(rhs, dtype=dtype).copy()
    )
    st.b[problem.dirichlet.mask] = problem.dirichlet.values[problem.dirichlet.mask]
    st.r = np.zeros(grid.shape, dtype=dtype)
    st.p = np.zeros(grid.shape, dtype=dtype)
    st.z = None
    st.inv_diag = None
    st.acc = None if accumulation is None else accumulation.astype(dtype)
    st.coeff = st.coeff_down = st.coeff_up = None
    st.ups = st.ups_down = st.ups_up = st.lam = st.lam_nbr = None

    if program.variant is KernelVariant.PRECOMPUTED:
        st.coeff = {
            port: problem.coefficients.cell_view(DIRECTION_FOR_PORT[port]).astype(dtype)
            for port in COEFF_BUFFER
        }
        st.coeff_down = problem.coefficients.cell_view(Direction.DOWN).astype(dtype)
        st.coeff_up = problem.coefficients.cell_view(Direction.UP).astype(dtype)
    else:
        trans = compute_transmissibility(grid, problem.permeability, dtype=np.float64)
        st.ups = {
            port: trans.cell_view(DIRECTION_FOR_PORT[port], dtype=dtype)
            for port in UPSILON_BUFFER
        }
        st.ups_down = trans.cell_view(Direction.DOWN, dtype=dtype)
        st.ups_up = trans.cell_view(Direction.UP, dtype=dtype)
        st.lam = np.full(grid.shape, 1.0 / problem.viscosity, dtype=dtype)
        st.lam_nbr = {port: _shifted(st.lam, port) for port in MOBILITY_BUFFER}

    st.mg_hier = None
    if program.jacobi:
        diag = problem.coefficients.diagonal.astype(np.float64).copy()
        if accumulation is not None:
            diag += accumulation.astype(np.float64)
        diag[problem.dirichlet.mask] = 1.0
        st.inv_diag = (1.0 / diag).astype(dtype)
        st.z = np.zeros(grid.shape, dtype=dtype)
    elif program.mg:
        # The V-cycle hierarchy is a host-side float64 construct (like
        # resolved tolerances); only the z column lives on the fabric.
        from repro.mg import build_hierarchy

        st.z = np.zeros(grid.shape, dtype=dtype)
        if mg_hierarchy is None:
            mg_hierarchy = build_hierarchy(
                problem.coefficients,
                problem.dirichlet.mask,
                accumulation=accumulation,
                levels=program.mg_levels,
                smoother_iters=program.mg_smoother_iters,
            )
        st.mg_hier = mg_hierarchy

    col_all, partial_cols, kind_counts = _classify_columns(problem)
    st.full_cols = col_all
    st.blend_mask = np.where(
        partial_cols[:, :, None], problem.dirichlet.mask, False
    ).astype(dtype)
    st.kind_counts = kind_counts
    st.has_full = kind_counts[DirichletKind.FULL] > 0
    st.has_partial = kind_counts[DirichletKind.PARTIAL] > 0
    st.kernel_plans = {
        kind: FvColumnKernel.instruction_plan(
            PeKernelConfig(
                depth=grid.nz,
                dirichlet=kind,
                variant=program.variant,
                reuse_buffers=program.reuse_buffers,
                accumulation=program.accumulation,
            )
        )
        for kind, count in kind_counts.items()
        if count > 0
    }
    return st


def staging_to_arrays(st: _Staging, program: CgProgram) -> dict[str, np.ndarray]:
    """Flatten a staged problem into named field arrays.

    The sharded engine ships a solve to its workers as this dict (plain
    arrays copy into shared-memory buffers; a :class:`_Staging` object
    does not), and each worker rebuilds its shard's staging from the
    slices it owns.  Only construction-time fields are included — the
    work arrays (``r``, ``p``, ``z``) are per-shard local state.
    """
    arrays: dict[str, np.ndarray] = {"y": st.y, "b": st.b}
    if st.inv_diag is not None:
        arrays["inv_diag"] = st.inv_diag
    if st.acc is not None:
        arrays["acc"] = st.acc
    if program.variant is KernelVariant.PRECOMPUTED:
        for port in COEFF_BUFFER:
            arrays[f"coeff_{port.name}"] = st.coeff[port]
        arrays["coeff_down"] = st.coeff_down
        arrays["coeff_up"] = st.coeff_up
    else:
        for port in UPSILON_BUFFER:
            arrays[f"ups_{port.name}"] = st.ups[port]
        arrays["ups_down"] = st.ups_down
        arrays["ups_up"] = st.ups_up
        arrays["lam"] = st.lam
        for port in MOBILITY_BUFFER:
            arrays[f"lam_nbr_{port.name}"] = st.lam_nbr[port]
    arrays["full_cols"] = st.full_cols
    arrays["blend_mask"] = st.blend_mask
    return arrays


def _gather_staging(st: _Staging, idx: np.ndarray, variant: KernelVariant) -> _Staging:
    """The rows ``idx`` of a stacked staging, as a smaller staging.

    Lets :class:`StackSweep` run the FV operator over only the still-
    active lanes once enough of the batch has converged (elementwise
    results are identical; only frozen-lane work is skipped).  Gathers
    just the arrays :func:`_apply_fields` reads."""
    out = _Staging()
    out.z = out.inv_diag = out.mg_hier = None
    out.acc = None if st.acc is None else st.acc[idx]
    out.coeff = out.coeff_down = out.coeff_up = None
    out.ups = out.ups_down = out.ups_up = out.lam = out.lam_nbr = None
    if variant is KernelVariant.PRECOMPUTED:
        out.coeff = {port: arr[idx] for port, arr in st.coeff.items()}
        out.coeff_down = st.coeff_down[idx]
        out.coeff_up = st.coeff_up[idx]
    else:
        out.ups = {port: arr[idx] for port, arr in st.ups.items()}
        out.ups_down = st.ups_down[idx]
        out.ups_up = st.ups_up[idx]
        out.lam = st.lam[idx]
        out.lam_nbr = {port: arr[idx] for port, arr in st.lam_nbr.items()}
    out.full_cols = st.full_cols[idx]
    out.blend_mask = st.blend_mask[idx]
    out.has_full = st.has_full
    out.has_partial = st.has_partial
    out.kind_counts = None
    out.kernel_plans = None
    return out


def _stack_stagings(stagings: Sequence[_Staging], program: CgProgram) -> _Staging:
    """Stack per-problem stagings into one ``(batch, nx, ny, nz)`` staging.

    A single staging stacks as ``[None]`` views of its own arrays — a
    one-lane stack costs no copy."""
    out = _Staging()

    def stack(arrays):
        return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

    def field(name: str):
        return stack([getattr(s, name) for s in stagings])

    def ports(name: str, keys):
        return {
            port: stack([getattr(s, name)[port] for s in stagings]) for port in keys
        }

    for name in ("y", "b", "r", "p"):
        setattr(out, name, field(name))
    out.z = out.inv_diag = out.mg_hier = None
    out.acc = field("acc") if program.accumulation else None
    out.coeff = out.coeff_down = out.coeff_up = None
    out.ups = out.ups_down = out.ups_up = out.lam = out.lam_nbr = None
    if program.variant is KernelVariant.PRECOMPUTED:
        out.coeff = ports("coeff", COEFF_BUFFER)
        out.coeff_down = field("coeff_down")
        out.coeff_up = field("coeff_up")
    else:
        out.ups = ports("ups", UPSILON_BUFFER)
        out.ups_down = field("ups_down")
        out.ups_up = field("ups_up")
        out.lam = field("lam")
        out.lam_nbr = ports("lam_nbr", MOBILITY_BUFFER)
    if program.jacobi:
        out.inv_diag = field("inv_diag")
    if program.uses_z:
        out.z = field("z")
    out.full_cols = field("full_cols")
    out.blend_mask = field("blend_mask")
    out.has_full = any(s.has_full for s in stagings)
    out.has_partial = any(s.has_partial for s in stagings)
    out.kind_counts = None  # per-lane; lives with each lane's charge model
    out.kernel_plans = None
    return out


# -- the matrix-free operator over staged fields ------------------------------


def _lateral_precomputed(st: _Staging, x: np.ndarray) -> np.ndarray:
    out = None
    for port in HALO_ORDER:
        diff = x - _shifted(x, port)
        if out is None:
            out = st.coeff[port] * diff
        else:
            out += st.coeff[port] * diff
    return out


def _lateral_fused(st: _Staging, x: np.ndarray) -> np.ndarray:
    out = None
    for port in HALO_ORDER:
        c = st.lam + st.lam_nbr[port]
        np.multiply(c, 0.5, out=c, casting="unsafe")
        np.multiply(c, st.ups[port], out=c, casting="unsafe")
        diff = x - _shifted(x, port)
        np.multiply(diff, c, out=diff, casting="unsafe")
        if out is None:
            out = diff.copy()
        else:
            out += diff
    return out


def _vertical(st: _Staging, variant: KernelVariant, x: np.ndarray, out: np.ndarray) -> None:
    nz = x.shape[-1]
    if nz < 2:
        return
    lo = (Ellipsis, slice(0, nz - 1))
    hi = (Ellipsis, slice(1, nz))
    diff_up = x[lo] - x[hi]
    diff_down = x[hi] - x[lo]
    if variant is KernelVariant.PRECOMPUTED:
        out[lo] += st.coeff_up[lo] * diff_up
        out[hi] += st.coeff_down[hi] * diff_down
    else:
        lam = st.lam
        for rng, other, ups, diff in (
            (lo, hi, st.ups_up, diff_up),
            (hi, lo, st.ups_down, diff_down),
        ):
            lam2 = lam[rng] + lam[other]
            np.multiply(lam2, 0.5, out=lam2, casting="unsafe")
            np.multiply(lam2, ups[rng], out=lam2, casting="unsafe")
            out[rng] += lam2 * diff


def _apply_fields(st: _Staging, variant: KernelVariant, x: np.ndarray) -> np.ndarray:
    """The matrix-free FV operator over the whole (possibly batched)
    fabric.  Mirrors :class:`FvColumnKernel` instruction for instruction
    (same operand order), so per-element fp results match the event
    engine bit for bit."""
    if variant is KernelVariant.PRECOMPUTED:
        out = _lateral_precomputed(st, x)
    else:
        out = _lateral_fused(st, x)
    _vertical(st, variant, x, out)
    if st.acc is not None:
        # Transient term (same operand order as the kernel's FMA; zero on
        # Dirichlet rows, so the masks below are unaffected).
        out += st.acc * x
    if st.has_full:
        out[st.full_cols] = x[st.full_cols]
    if st.has_partial:
        out += st.blend_mask * (x - out)
    return out


# -- memory model -------------------------------------------------------------


@lru_cache(maxsize=128)
def _rehearse_bytes(
    pe_memory_bytes: int,
    variant: KernelVariant,
    reuse_buffers: bool,
    jacobi: bool,
    mg: bool,
    accumulation: bool,
    nz: int,
    dtype_name: str,
    with_mask: bool,
) -> int:
    """Replay the event engine's per-PE allocation sequence.

    One rehearsal per column class (with/without ``bc_mask``) against a
    real :class:`MemoryArena` reproduces both the capacity enforcement
    (:class:`PeOutOfMemory` at construction, like an oversized CSL
    program) and the high-water statistics exactly.  Cached by exactly
    the arguments that determine the layout (not the whole program —
    per-problem resolved tolerances must not defeat the cache), so a
    batch of problems or a sweep of solves pays for at most two
    rehearsals per configuration.
    """
    from repro.perf.memmodel import SCALAR_RESERVE_BYTES

    dtype = np.dtype(dtype_name)
    arena = MemoryArena(pe_memory_bytes, reserved_bytes=SCALAR_RESERVE_BYTES)
    for name in HALO_BUFFER.values():  # HaloExchange allocates first
        arena.alloc(name, nz, dtype=dtype)
    for name in CG_COLUMN_BUFFERS:
        arena.alloc(name, nz, dtype=dtype)
    if not reuse_buffers:
        arena.alloc("scratch", nz, dtype=dtype)
    if jacobi or mg:
        arena.alloc("z", nz, dtype=dtype)
    if jacobi:
        arena.alloc("inv_diag", nz, dtype=dtype)
    if accumulation:
        arena.alloc(ACCUMULATION_BUFFER, nz, dtype=dtype)
    if variant is KernelVariant.PRECOMPUTED:
        for name in COEFF_BUFFER.values():
            arena.alloc(name, nz, dtype=dtype)
        arena.alloc(COEFF_DOWN, nz, dtype=dtype)
        arena.alloc(COEFF_UP, nz, dtype=dtype)
    else:
        for name in UPSILON_BUFFER.values():
            arena.alloc(name, nz, dtype=dtype)
        arena.alloc(UPSILON_DOWN, nz, dtype=dtype)
        arena.alloc(UPSILON_UP, nz, dtype=dtype)
        arena.alloc(MOBILITY_OWN, nz, dtype=dtype)
        arena.alloc("lam_scratch", nz, dtype=dtype)
        for name in MOBILITY_BUFFER.values():
            arena.alloc(name, nz, dtype=dtype)
    if with_mask:
        arena.alloc("bc_mask", nz, dtype=dtype)
    return arena.used_bytes


def _memory_report(
    spec: WseSpecs, program: CgProgram, nz: int, dtype: np.dtype, kind_counts: dict
) -> dict[str, float]:
    """Per-PE memory statistics for one problem's staging."""
    num_pes = sum(kind_counts.values())

    def rehearse(with_mask: bool) -> int:
        return _rehearse_bytes(
            spec.pe_memory_bytes, program.variant, program.reuse_buffers,
            program.jacobi, program.mg, program.accumulation, nz, dtype.name,
            with_mask,
        )

    base_bytes = rehearse(False)
    n_partial = kind_counts[DirichletKind.PARTIAL]
    mask_bytes = rehearse(True) if n_partial else base_bytes
    high = max(base_bytes, mask_bytes) if n_partial else base_bytes
    mean = (n_partial * mask_bytes + (num_pes - n_partial) * base_bytes) / num_pes
    return {
        "max_high_water": float(high),
        "mean_high_water": float(mean),
        "max_used": float(high),
        "capacity": float(spec.pe_memory_bytes),
    }


# -- the analytic cycle/counter model -----------------------------------------


class _ChargeModel:
    """Analytic per-problem cycle/counter state over the ISA cost tables.

    Instances played once are *charge packets*: play a phase sequence on
    a :meth:`fresh` model, then :meth:`merge_scaled` the result into
    every lane that executed that sequence — per-lane charges stay
    exactly what itemised charging would have recorded, at a fraction of
    the bookkeeping cost.
    """

    def __init__(
        self,
        *,
        width: int,
        height: int,
        depth: int,
        simd_width: int,
        spec: WseSpecs,
        suppress: bool,
        kind_counts: dict,
        kernel_plans: dict,
    ):
        self.width, self.height, self.depth = width, height, depth
        self.num_pes = width * height
        self.simd_width = simd_width
        self.spec = spec
        self.suppress = suppress
        self.kind_counts = kind_counts
        self.kernel_plans = kernel_plans
        self.counters = PerfCounters()
        self.trace = FabricTrace()
        self.makespan = 0
        self.pe_compute = 0  # critical-path compute of the busiest PE class
        self.state_visits: list[CGState] = []

    def fresh(self) -> "_ChargeModel":
        """A zeroed model with the same machine/problem parameters."""
        return _ChargeModel(
            width=self.width, height=self.height, depth=self.depth,
            simd_width=self.simd_width, spec=self.spec, suppress=self.suppress,
            kind_counts=self.kind_counts, kernel_plans=self.kernel_plans,
        )

    # -- charging helpers (identical semantics to the event oracle) ----------

    def counted(self, op: Op) -> bool:
        return not self.suppress or op in (Op.FMOV, Op.MOV32)

    def charge(self, op: Op, elements_per_instr: int, instances: int) -> None:
        """Charge ``instances`` identical vector instructions fabric-wide."""
        if not self.counted(op) or instances <= 0 or elements_per_instr <= 0:
            return
        cycles = vector_cycles(elements_per_instr, self.simd_width)
        self.counters.record_op(op, elements_per_instr * instances, cycles * instances)

    def vec(self, op: Op, elements: int | None = None) -> None:
        """One vector instruction on every PE (critical path: one issue)."""
        n = self.depth if elements is None else elements
        self.charge(op, n, self.num_pes)
        if self.counted(op):
            cycles = vector_cycles(n, self.simd_width)
            self.makespan += cycles
            self.pe_compute += cycles

    def scalar(self, cycles: int) -> None:
        """Scalar/sequencer work on every PE (never suppressed)."""
        self.counters.compute_cycles += cycles * self.num_pes
        self.makespan += cycles
        self.pe_compute += cycles

    def visit(self, state: CGState) -> None:
        """Fabric-wide state transition (2 sequencer cycles per PE)."""
        self.state_visits.append(state)
        self.scalar(2)

    def charge_kernel(self) -> None:
        """One FV apply on every column, charged per Dirichlet class."""
        critical = 0
        for kind, plan in self.kernel_plans.items():
            count = self.kind_counts[kind]
            cycles = 0
            for op, n in plan:
                self.charge(op, n, count)
                if self.counted(op):
                    cycles += vector_cycles(n, self.simd_width)
            critical = max(critical, cycles)
        self.makespan += critical
        self.pe_compute += critical

    def charge_exchange(self) -> None:
        """One 4-step halo-exchange round, fabric-wide.

        Every live directed link carries one data message (``nz``
        wavelets, one hop) plus one switch-advancing control wavelet;
        every live receive moves ``nz`` elements with FMOV."""
        W, H, nz = self.width, self.height, self.depth
        links = 2 * ((W - 1) * H + (H - 1) * W)
        if links:
            self.charge(Op.FMOV, nz, links)
            self.charge(Op.MOV32, 1, links)
            self.counters.record_fabric_send(links * (nz + 1) * 4)
            self.trace.total_messages += 2 * links
            self.trace.total_wavelets += links * (nz + 1)
            self.trace.total_hop_wavelets += links * (nz + 1)
            self.trace.comm_busy_cycles += links * (nz + 1)
        # Critical path: 4 serialized steps of send (link serialization +
        # hop) then receive-fill, plus control/callback slack.
        hop = self.spec.hop_latency_cycles
        fill = vector_cycles(nz, self.simd_width)
        self.makespan += 4 * (nz + hop + fill + 2)
        self.pe_compute += 4 * fill

    def charge_allreduce(self) -> None:
        """Charge one all-reduce round (three-step chain/broadcast
        protocol of §III-C); the reduced value itself is exact and
        computed by the engine's numerics."""
        W, H = self.width, self.height
        row_sends = (W - 1) * H
        col_sends = H - 1
        bcast_col = 1 if H > 1 else 0
        bcast_row = H if W > 1 else 0
        sends = row_sends + col_sends + bcast_col + bcast_row
        combines = (W - 1) * H + (H - 1)
        self.charge(Op.FADD, 1, combines)
        self.counters.record_fabric_send(4 * sends)
        receives = (
            row_sends
            + col_sends
            + (H - 1 if H > 1 else 0)
            + ((W - 1) * H if W > 1 else 0)
        )
        self.counters.record_fabric_receive(4 * receives)
        self.trace.total_messages += sends
        self.trace.total_wavelets += sends
        hops = (
            row_sends
            + col_sends
            + (H - 1 if H > 1 else 0)
            + (H * (W - 1) if W > 1 else 0)
        )
        self.trace.total_hop_wavelets += hops
        self.trace.comm_busy_cycles += hops
        # Critical path: the sequential row chain, the column chain, and
        # the two broadcast legs (one wavelet + hop + combine per link).
        hop = self.spec.hop_latency_cycles
        self.makespan += (
            (W - 1) * (hop + 2) + (H - 1) * (hop + 2)
            + (H - 1) * (hop + 1) + (W - 1) * (hop + 1) + 2
        )
        if W > 1 or H > 1:
            self.pe_compute += 1

    # -- packet composition --------------------------------------------------

    def merge_scaled(self, packet: "_ChargeModel", n: int) -> None:
        """Add ``n`` repetitions of a packet's charges in one step.

        Charges are additive, so replaying a per-iteration packet ``n``
        times equals one scaled merge — O(1) bookkeeping per lane
        instead of O(iterations).  State visits are *not* touched (their
        order is iteration-interleaved; :meth:`_Lane.compose`
        reconstructs the sequence explicitly)."""
        if n <= 0:
            return
        c, o = self.counters, packet.counters
        for op, count in o.op_counts.items():
            c.op_counts[op] += count * n
        c.flops += o.flops * n
        c.mem_load_bytes += o.mem_load_bytes * n
        c.mem_store_bytes += o.mem_store_bytes * n
        c.fabric_load_bytes += o.fabric_load_bytes * n
        c.fabric_store_bytes += o.fabric_store_bytes * n
        c.compute_cycles += o.compute_cycles * n
        t, ot = self.trace, packet.trace
        t.total_messages += ot.total_messages * n
        t.total_wavelets += ot.total_wavelets * n
        t.total_hop_wavelets += ot.total_hop_wavelets * n
        t.comm_busy_cycles += ot.comm_busy_cycles * n
        self.makespan += packet.makespan * n
        self.pe_compute += packet.pe_compute * n

    def finalize(self) -> None:
        """Close out the run: makespan, critical path, idle accounting."""
        self.trace.makespan_cycles = self.makespan
        self.trace.max_compute_cycles = self.pe_compute
        self.counters.idle_cycles = max(
            0, self.makespan * self.num_pes - self.counters.compute_cycles
        )



# -- charge packets -----------------------------------------------------------


def build_init_packet(
    model: _ChargeModel, jacobi: bool, mg_packet: _ChargeModel | None = None
) -> _ChargeModel:
    """Play the INIT phase's charge sequence once on a fresh model.

    The sequence is the event oracle's INIT, statement for statement;
    the played model is a reusable *packet* — merge it (via
    ``merge_scaled``) into any charge model with the same Dirichlet
    histogram instead of re-itemising the charges.  ``mg_packet`` (one
    V-cycle of charges, from ``repro.mg.build_mg_packet``) replaces the
    Jacobi FMUL when the program preconditions with multigrid."""
    init = model.fresh()
    init.visit(CGState.INIT)
    init.visit(CGState.EXCHANGE)
    init.charge_exchange()
    init.visit(CGState.COMPUTE_JX)
    init.charge_kernel()
    init.vec(Op.FSUB)  # r = b - Jx
    if jacobi:
        init.vec(Op.FMUL)  # z = r / diag
        init.vec(Op.FMOV)  # p = z
    elif mg_packet is not None:
        init.merge_scaled(mg_packet, 1)  # z = V-cycle(r)
        init.vec(Op.FMOV)  # p = z
    else:
        init.vec(Op.FMOV)  # p = r
    init.vec(Op.FMA)  # local dot
    init.visit(CGState.DOT_RR)
    init.charge_allreduce()
    return init


def build_iteration_packets(
    model: _ChargeModel, jacobi: bool, mg_packet: _ChargeModel | None = None
) -> tuple[_ChargeModel, _ChargeModel, _ChargeModel]:
    """Play the loop's three charge segments once on fresh models.

    Returns ``(check, body, direction)`` packets: the ITER_CHECK visit,
    the iteration body up to THRES_CHECK, and the direction update.
    Every driver-backed engine composes its charges from these packets
    (see :meth:`_Lane.compose`), so counters/traffic/makespan agree
    exactly by construction."""
    check = model.fresh()
    check.visit(CGState.ITER_CHECK)

    body = model.fresh()
    body.visit(CGState.EXCHANGE)
    body.charge_exchange()
    body.visit(CGState.COMPUTE_JX)
    body.charge_kernel()
    body.vec(Op.FMA)  # local p^T Jp
    body.visit(CGState.DOT_PAP)
    body.charge_allreduce()
    body.visit(CGState.COMPUTE_ALPHA)
    body.scalar(4)  # scalar divide on the CE
    body.visit(CGState.UPDATE_SOL)
    body.vec(Op.FMA)  # y += alpha p
    body.visit(CGState.UPDATE_RES)
    body.vec(Op.FMA)  # r -= alpha Jp
    if jacobi:
        body.vec(Op.FMUL)
    elif mg_packet is not None:
        body.merge_scaled(mg_packet, 1)  # z = V-cycle(r)
    body.vec(Op.FMA)
    body.visit(CGState.DOT_RR)
    body.charge_allreduce()
    body.visit(CGState.THRES_CHECK)

    direction = model.fresh()
    direction.visit(CGState.COMPUTE_BETA)
    direction.scalar(4)
    direction.visit(CGState.UPDATE_DIR)
    direction.vec(Op.FMUL)  # p *= beta
    direction.vec(Op.FADD)  # p += r (or z)
    return check, body, direction


# -- the CG driver ------------------------------------------------------------


class _Lane:
    """One problem's side of a driver run: its resolved tolerance, memory
    statistics, mg hierarchy, and the charge packets its Dirichlet
    histogram selects."""

    __slots__ = ("tol", "memory", "mg_hier", "packets")

    def __init__(self, tol, memory, mg_hier, packets):
        self.tol, self.memory, self.mg_hier = tol, memory, mg_hier
        self.packets = packets

    def compose(self, k: int, at_thres: bool, terminal: CGState) -> _ChargeModel:
        """The lane's whole charge stream after ``k`` iterations.

        ``init + n_check·check + n_body·body + n_dir·direction``, then
        the terminal visit — numerically identical to replaying every
        iteration, in O(1) merges.  A lane that left the loop at
        THRES_CHECK (``at_thres``) skipped its last ITER_CHECK and
        direction update; one that left at ITER_CHECK did neither."""
        init, check, body, direction = self.packets
        n_dir = k - 1 if at_thres else k
        m = init.fresh()
        m.merge_scaled(init, 1)
        m.merge_scaled(check, n_dir + 1)
        m.merge_scaled(body, k)
        m.merge_scaled(direction, n_dir)
        full = check.state_visits + body.state_visits + direction.state_visits
        m.state_visits = (
            init.state_visits + full * n_dir + check.state_visits
            + (body.state_visits if at_thres else [])
        )
        m.visit(terminal)
        m.finalize()
        return m


def run_lanes(engine: "_LaneEngine", sweep) -> list[EngineReport]:
    """Run the CG recurrence over every lane of ``engine``.

    The one copy of the event oracle's state machine outside the
    oracle: init, the ITER_CHECK / iteration-limit / THRES_CHECK exits,
    alpha and beta with the ``p^T A p = 0`` guard, and the zeroed
    scalars of ``comm_only`` programs.  Lanes freeze as they exit; the
    rest keep iterating.  ``sweep`` does the numerics on lane index
    lists, each call returning one float64 dot per listed lane:

    * ``init()`` — ``r = b - A y``, ``z = M r``, ``p = z|r``; ``r·(z|r)``;
    * ``apply_dot(lanes)`` — ``Ap``; ``p·Ap``;
    * ``update(lanes, alphas)`` — ``y += αp``, ``r -= αAp``, ``z = M r``;
      ``r·(z|r)``;
    * ``direction(lanes, betas)`` — ``p = βp + (z|r)``;

    plus ``pressure(lane)`` and ``extras()`` (report payload fields).
    Charges are composed per lane at the end (:meth:`_Lane.compose`).
    """
    program, lanes = engine.program, engine.lanes
    live = not program.comm_only
    check, limit = program.check_convergence, program.iteration_limit

    def scalars(values) -> list[float]:
        return list(values) if live else [0.0] * len(values)

    rtr = scalars(sweep.init())
    histories = [[value] for value in rtr]
    iters = [0] * len(lanes)
    terminal: list[CGState | None] = [None] * len(lanes)
    at_thres = [False] * len(lanes)
    active = list(range(len(lanes)))
    while True:
        survivors = []
        for i in active:
            if check and rtr[i] < lanes[i].tol:
                terminal[i] = CGState.CONVERGED
            elif iters[i] >= limit:
                terminal[i] = CGState.MAXITER
            else:
                survivors.append(i)
        active = survivors
        if not active:
            break
        alphas = []
        for i, pap in zip(active, scalars(sweep.apply_dot(active))):
            if pap == 0.0:
                if live and check:
                    lane = f" (batch lane {i})" if len(lanes) > 1 else ""
                    raise ConfigurationError(
                        f"{engine.name} engine: p^T A p = 0 with live "
                        f"arithmetic{lane}"
                    )
                alphas.append(0.0)
            else:
                alphas.append(rtr[i] / pap)
        survivors, betas = [], []
        for i, value in zip(active, scalars(sweep.update(active, alphas))):
            iters[i] += 1
            histories[i].append(value)
            if check and value < lanes[i].tol:
                terminal[i] = CGState.CONVERGED
                at_thres[i] = True
            else:
                survivors.append(i)
                betas.append(value / rtr[i] if rtr[i] > 0 else 0.0)
            rtr[i] = value
        if survivors:
            sweep.direction(survivors, betas)
        active = survivors

    extras = sweep.extras()
    reports = []
    for i, lane in enumerate(lanes):
        m = lane.compose(iters[i], at_thres[i], terminal[i])
        reports.append(EngineReport(
            pressure=sweep.pressure(i),
            iterations=iters[i],
            converged=terminal[i] is CGState.CONVERGED,
            residual_history=histories[i],
            trace=m.trace,
            counters=m.counters,
            elapsed_seconds=m.makespan / engine.spec.clock_hz,
            memory=dict(lane.memory),
            state_visits=m.state_visits,
            engine=engine.name,
            preconditioner=(
                lane.mg_hier.telemetry(iters[i] + 1) if program.mg else None
            ),
            **{key: dict(value) for key, value in extras.items()},
        ))
    return reports


# -- the shared engine constructor --------------------------------------------


def _one(value):
    return None if value is None else [value]


class _LaneEngine:
    """Staging, memory rehearsal, charge models and packets for the
    driver-backed engines.

    ``problems`` is one problem for single-problem engines, a sequence
    of same-shape problems for batched ones (``batched = True``).
    Construction stages every problem and rehearses its per-PE memory
    budget (raising :class:`~repro.util.errors.PeOutOfMemory` like an
    oversized CSL program); the lanes' charge packets are played once
    per distinct Dirichlet histogram.  ``tol_rtrs`` supplies each lane's
    resolved absolute tolerance (defaulting to ``program.tol_rtr``) and
    ``mg_hierarchies`` each lane's prebuilt V-cycle hierarchy (built at
    staging when ``None``);
    ``initial_pressure``/``accumulation``/``rhs`` take one field shared
    by every lane or one per lane.
    """

    name: str
    batched = False

    def __init__(
        self,
        problems,
        program: CgProgram,
        *,
        spec: WseSpecs,
        dtype=np.float32,
        simd_width: int | None = None,
        tol_rtrs: Sequence[float] | None = None,
        initial_pressure=None,
        accumulation=None,
        rhs=None,
        mg_hierarchies: Sequence | None = None,
    ):
        if not self.batched:
            if program.batch != 1:
                from repro.core.engines import BATCH_CAPABLE_ENGINES

                raise ConfigurationError(
                    f"{type(self).__name__} solves one problem; got batch="
                    f"{program.batch} (batched programs need a batch-capable "
                    f"engine: {', '.join(BATCH_CAPABLE_ENGINES)})"
                )
            problems = [problems]
            initial_pressure = _one(initial_pressure)
            accumulation, rhs = _one(accumulation), _one(rhs)
        problems = list(problems)
        if not problems:
            raise ConfigurationError("batched engine needs at least one problem")
        if program.batch != len(problems):
            raise ConfigurationError(
                f"program.batch is {program.batch} but {len(problems)} "
                f"problems were supplied"
            )
        shapes = {p.grid.shape for p in problems}
        if len(shapes) != 1:
            raise ConfigurationError(
                f"all problems in a batch must share one grid shape; got "
                f"{sorted(shapes)}"
            )
        count = len(problems)
        if tol_rtrs is None:
            tol_rtrs = [program.tol_rtr] * count
        if len(tol_rtrs) != count:
            raise ConfigurationError(
                f"tol_rtrs has {len(tol_rtrs)} entries for a batch of {count}"
            )
        if mg_hierarchies is None:
            mg_hierarchies = [None] * count
        if len(mg_hierarchies) != count:
            raise ConfigurationError(
                f"mg_hierarchies has {len(mg_hierarchies)} entries for a "
                f"batch of {count}"
            )
        self.problems = problems
        self.program = program
        self.spec = spec
        grid = problems[0].grid
        self.mapping = ProblemMapping(grid, spec)
        self.dtype = np.dtype(dtype)
        self.simd_width = int(
            simd_width if simd_width is not None else spec.simd_width_f32
        )
        self.width, self.height, self.depth = grid.nx, grid.ny, grid.nz

        self.stagings = [
            _stage_problem(
                problem, program, self.dtype, guess,
                accumulation=acc, rhs=lane_rhs, mg_hierarchy=hierarchy,
            )
            for problem, guess, acc, lane_rhs, hierarchy in zip(
                problems,
                normalize_guesses(initial_pressure, count, grid.shape),
                normalize_guesses(accumulation, count, grid.shape),
                normalize_guesses(rhs, count, grid.shape),
                mg_hierarchies,
            )
        ]

        def model(st: _Staging) -> _ChargeModel:
            return _ChargeModel(
                width=self.width, height=self.height, depth=self.depth,
                simd_width=self.simd_width, spec=spec,
                suppress=program.comm_only,
                kind_counts=st.kind_counts, kernel_plans=st.kernel_plans,
            )

        mg_packet = None
        if program.mg:
            from repro.mg import build_mg_packet

            # All lanes share the grid shape and the program's mg knobs,
            # so one V-cycle packet serves every lane.
            first = self.stagings[0]
            mg_packet = build_mg_packet(model(first), first.mg_hier)
        # One packet set per distinct Dirichlet histogram (everything
        # else in the charge sequence is shared across lanes).
        packets: dict[tuple, tuple] = {}
        self.lanes = []
        for st, tol in zip(self.stagings, tol_rtrs):
            sig = tuple(sorted((k.name, v) for k, v in st.kind_counts.items()))
            if sig not in packets:
                lane_model = model(st)
                packets[sig] = (
                    build_init_packet(lane_model, program.jacobi, mg_packet),
                    *build_iteration_packets(lane_model, program.jacobi, mg_packet),
                )
            self.lanes.append(_Lane(
                float(tol),
                _memory_report(spec, program, self.depth, self.dtype, st.kind_counts),
                st.mg_hier, packets[sig],
            ))


# -- the whole-array lane stack -----------------------------------------------


class StackSweep:
    """Whole-array sweeps over the lane stack ``(lanes, nx, ny, nz)``.

    Every CG phase is one NumPy sweep over all active lanes at once;
    frozen lanes get no further updates.  Once half the stack has
    frozen, the FV operator runs over a gather of the active lanes
    only (elementwise results are identical either way).  Jacobi is
    applied inside the update sweep, mg through the host V-cycle per
    lane."""

    def __init__(self, stagings: Sequence[_Staging], program: CgProgram, dtype):
        self.st = _stack_stagings(stagings, program)
        self.mg_hiers = [s.mg_hier for s in stagings]
        self.variant = program.variant
        self.jacobi, self.mg, self.uses_z = program.jacobi, program.mg, program.uses_z
        self.dtype = np.dtype(dtype)
        self.jx: np.ndarray | None = None
        self.n = len(stagings)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The FV operator over the whole stack."""
        return _apply_fields(self.st, self.variant, x)

    @staticmethod
    def dot(a: np.ndarray, b: np.ndarray) -> float:
        """One lane's global dot product, float64 accumulation."""
        return float(
            np.dot(a.reshape(-1).astype(np.float64), b.reshape(-1).astype(np.float64))
        )

    def _scalars(self, values: Sequence[float]) -> np.ndarray:
        """Per-lane scalars as a broadcastable ``(lanes, 1, 1, 1)`` array
        in the working dtype — elementwise identical to a python float
        times a single lane's array."""
        return np.asarray(values, dtype=self.dtype).reshape((-1, 1, 1, 1))

    def _precondition(self, lanes: Sequence[int], idx) -> None:
        """``z = M r`` on ``lanes`` (``idx`` is None when all are active)."""
        st = self.st
        if self.jacobi:
            if idx is None:
                np.multiply(st.r, st.inv_diag, out=st.z, casting="unsafe")
            else:
                st.z[idx] = st.r[idx] * st.inv_diag[idx]
        elif self.mg:
            from repro.mg import mg_apply

            for i in lanes:
                st.z[i] = mg_apply(self.mg_hiers[i], st.r[i]).astype(self.dtype)

    def _residual_dots(self, lanes: Sequence[int]) -> list[float]:
        w = self.st.z if self.uses_z else self.st.r
        return [self.dot(self.st.r[i], w[i]) for i in lanes]

    def init(self) -> list[float]:
        st = self.st
        np.subtract(st.b, self.apply(st.y), out=st.r, casting="unsafe")
        lanes = range(self.n)
        self._precondition(lanes, None)
        st.p[...] = st.z if self.uses_z else st.r
        return self._residual_dots(lanes)

    def apply_dot(self, lanes: Sequence[int]) -> list[float]:
        st = self.st
        if len(lanes) == self.n:
            self.jx = self.apply(st.p)
        elif 2 * len(lanes) <= self.n:
            idx = np.asarray(lanes)
            sub = _gather_staging(st, idx, self.variant)
            self.jx = _apply_fields(sub, self.variant, st.p[idx])
        else:
            self.jx = self.apply(st.p)[np.asarray(lanes)]
        return [self.dot(st.p[i], self.jx[pos]) for pos, i in enumerate(lanes)]

    def update(self, lanes: Sequence[int], alphas: Sequence[float]) -> list[float]:
        st, a = self.st, self._scalars(alphas)
        idx = None if len(lanes) == self.n else np.asarray(lanes)
        if idx is None:
            st.y += a * st.p
            st.r += (-a) * self.jx
        else:
            st.y[idx] += a * st.p[idx]
            st.r[idx] += (-a) * self.jx
        self._precondition(lanes, idx)
        return self._residual_dots(lanes)

    def direction(self, lanes: Sequence[int], betas: Sequence[float]) -> None:
        st, bv = self.st, self._scalars(betas)
        w = st.z if self.uses_z else st.r
        if len(lanes) == self.n:
            np.multiply(st.p, bv, out=st.p, casting="unsafe")
            st.p += w
        else:
            idx = np.asarray(lanes)
            chunk = st.p[idx]
            np.multiply(chunk, bv, out=chunk, casting="unsafe")
            chunk += w[idx]
            st.p[idx] = chunk

    def pressure(self, lane: int) -> np.ndarray:
        return np.array(self.st.y[lane], copy=True)

    def extras(self) -> dict:
        return {}


class VectorEngine(_LaneEngine):
    """Whole-fabric array execution of the dataflow CG program.

    Same constructor vocabulary as the event engine: the problem, the
    program, and the machine staging knobs (spec, dtype, SIMD width,
    initial guess).  Construction stages the field arrays and rehearses
    the per-PE memory budget; :meth:`run` executes the CG as a one-lane
    :class:`StackSweep`.
    """

    name = "vectorized"

    def __init__(self, problem: SinglePhaseProblem, program: CgProgram, **kwargs):
        super().__init__(problem, program, **kwargs)
        self.sweep = StackSweep(self.stagings, program, self.dtype)

    def run(self) -> EngineReport:
        return run_lanes(self, self.sweep)[0]


class BatchedVectorEngine(_LaneEngine):
    """``(batch, nx, ny, nz)`` execution of one program over many problems.

    All problems must share one grid *shape* (spacings, permeability and
    boundary conditions are free per problem); the engine stacks their
    stagings along a leading batch axis and sweeps every CG phase over
    the whole stack at once.  Lanes freeze as they converge, so each
    lane's :class:`EngineReport` — iterates, residual history, counters,
    traffic, cycles, memory — is exactly what a serial
    :class:`VectorEngine` solve of that problem alone would produce
    (pinned by ``tests/test_batched_engine.py`` and fuzzed in
    ``tests/test_engine_fuzz.py``).
    """

    name = "batched"
    batched = True

    def __init__(
        self, problems: Sequence[SinglePhaseProblem], program: CgProgram, **kwargs
    ):
        super().__init__(problems, program, **kwargs)
        self.sweep = StackSweep(self.stagings, program, self.dtype)

    def run(self) -> list[EngineReport]:
        return run_lanes(self, self.sweep)


__all__ = [
    "BatchedVectorEngine",
    "StackSweep",
    "VectorEngine",
    "build_init_packet",
    "build_iteration_packets",
    "run_lanes",
    "staging_to_arrays",
]
