"""The flat-stride V-cycle against a frozen copy of the 3-D one it replaced.

``repro.mg`` runs every level sweep as contiguous 1-D streams over
zero-padded flat face buffers and preallocated scratch, and takes the
first pre-smooth from the zero guess in closed form.  None of that may
change a bit of ``z``: the engines' iterates, counters and modeled
device time all hang off it.  The ``_legacy_*`` functions below are the
3-D slice-based cycle exactly as it stood before the rewrite (reading
the face coefficients through the level's 3-D ``fx/fy/fz`` views); they
are the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
import repro.mg
import repro.mg.hierarchy
from helpers import make_problem
from repro.core.engines import create_engine
from repro.core.program import CgProgram
from repro.core.solver import WseMatrixFreeSolver, simulate_reports, solve_batch
from repro.fv.operator import apply_jx
from repro.mesh.grid import CartesianGrid3D
from repro.mesh.wells import quarter_five_spot
from repro.mg import build_hierarchy, level_apply, mg_apply, prolong, restrict
from repro.mg.cycle import _smooth
from repro.mg.hierarchy import COARSE_FALLBACK_SWEEPS, DENSE_SOLVE_MAX_CELLS
from repro.physics.darcy import build_problem
from repro.wse.specs import WSE2

# -- the frozen oracle --------------------------------------------------------


def _legacy_level_apply(level, z, out=None):
    if out is None:
        out = np.empty_like(z)
    np.multiply(level.diag, z, out=out)
    for axis, f in ((0, level.fx), (1, level.fy), (2, level.fz)):
        if f.size == 0:
            continue
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        out[lo] -= f * z[hi]
        out[hi] -= f * z[lo]
    np.copyto(out, z, where=level.mask)
    return out


def _legacy_smooth(level, z, r, omega, sweeps):
    for _ in range(sweeps):
        az = _legacy_level_apply(level, z)
        np.subtract(r, az, out=az)
        az *= level.inv_diag
        az *= omega
        z += az
    return z


def _legacy_coarse_solve(hier, level, r):
    if level.dense_inv is not None:
        z = (level.dense_inv @ r.reshape(-1)).reshape(level.shape)
        z[level.mask] = 0.0
        return z
    z = np.zeros_like(r)
    return _legacy_smooth(level, z, r, hier.omega, COARSE_FALLBACK_SWEEPS)


def _legacy_v_cycle(hier, index, r):
    level = hier.levels[index]
    if index == len(hier.levels) - 1:
        return _legacy_coarse_solve(hier, level, r)
    z = np.zeros_like(r)
    _legacy_smooth(level, z, r, hier.omega, hier.smoother_iters)
    resid = r - _legacy_level_apply(level, z)
    coarse = hier.levels[index + 1]
    rc = restrict(level, coarse, resid)
    zc = _legacy_v_cycle(hier, index + 1, rc)
    z += prolong(level, zc)
    _legacy_smooth(level, z, r, hier.omega, hier.smoother_iters)
    return z


def _legacy_mg_apply(hier, r):
    return _legacy_v_cycle(hier, 0, np.asarray(r, dtype=np.float64))


def _legacy_at(hier, r):
    """The frozen cycle run at ``hier``'s working dtype.

    A float64 hierarchy goes through ``_legacy_mg_apply``.  A float32
    one enters ``_legacy_v_cycle`` with a float32 ``r``, so every sweep
    and transfer runs at float32 and the float64 dense coarse solve is
    rounded where it is added to the finer ``z``; only a one-level
    hierarchy returns that float64 solve itself, rounded here exactly as
    ``mg_apply`` rounds it.
    """
    dtype = hier.dtype
    if dtype == np.float64:
        return _legacy_mg_apply(hier, r)
    return _legacy_v_cycle(hier, 0, r.astype(dtype)).astype(dtype, copy=False)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes — signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- the corpus ---------------------------------------------------------------

_small = st.fixed_dictionaries({
    "shape": st.tuples(
        st.integers(1, 9), st.integers(1, 9), st.integers(1, 4)
    ).filter(lambda s: s[0] * s[1] * s[2] >= 2),
    "levels": st.one_of(st.none(), st.integers(1, 4)),
})
#: Big enough that an ``mg_levels`` cap leaves the coarsest level above
#: the dense-solve limit, so the cycle ends in the smoothing fallback.
_fallback = st.one_of(
    st.fixed_dictionaries({
        "shape": st.tuples(st.integers(65, 68), st.integers(33, 35), st.just(2)),
        "levels": st.just(1),
    }),
    st.fixed_dictionaries({
        "shape": st.tuples(st.integers(90, 93), st.integers(91, 93), st.just(2)),
        "levels": st.just(2),
    }),
)


def _hierarchy(
    case: dict, seed: int, mask_rate: float, transient: bool, iters: int,
    dtype=np.float64,
):
    rng = np.random.default_rng(seed)
    nx, ny, nz = shape = case["shape"]
    faces = SimpleNamespace(
        cx=rng.lognormal(0.0, 1.0, (nx - 1, ny, nz)),
        cy=rng.lognormal(0.0, 1.0, (nx, ny - 1, nz)),
        cz=rng.lognormal(0.0, 1.0, (nx, ny, nz - 1)),
    )
    mask = rng.random(shape) < mask_rate
    acc = rng.uniform(0.1, 2.0, shape) if transient else None
    if acc is None:  # a steady operator needs a Dirichlet cell to be SPD
        mask.flat[rng.integers(mask.size)] = True
    hier = build_hierarchy(
        faces, mask, accumulation=acc, levels=case["levels"], smoother_iters=iters,
        dtype=dtype,
    )
    r = rng.standard_normal(shape)
    r[mask] = 0.0
    r[rng.random(shape) < 0.1] = -0.0  # signed zeros must survive as before
    return hier, r.astype(dtype, copy=False)


@given(
    case=st.one_of(_small, _small, _small, _fallback),
    seed=st.integers(0, 2**31 - 1),
    mask_rate=st.sampled_from([0.0, 0.1, 0.4]),
    transient=st.booleans(),
    iters=st.integers(1, 8),
)
def test_vcycle_is_bitwise_the_legacy_cycle(case, seed, mask_rate, transient, iters):
    for dtype in (np.float64, np.float32):
        hier, r = _hierarchy(case, seed, mask_rate, transient, iters, dtype)
        expected = _legacy_at(hier, r)
        got = mg_apply(hier, r)
        assert got.dtype == dtype
        assert np.array_equal(got, expected)
        assert _bitwise_equal(got, expected)
        # Scratch reuse: a second cycle on the same hierarchy is unchanged.
        assert _bitwise_equal(mg_apply(hier, r), expected)


@given(
    case=_small,
    seed=st.integers(0, 2**31 - 1),
    mask_rate=st.sampled_from([0.0, 0.3]),
    transient=st.booleans(),
    sweeps=st.integers(1, 4),
)
def test_smooth_and_apply_match_legacy_from_any_guess(
    case, seed, mask_rate, transient, sweeps
):
    hier, r = _hierarchy(case, seed, mask_rate, transient, 2)
    rng = np.random.default_rng(seed + 1)
    for level in hier.levels:
        z = rng.standard_normal(level.shape)
        assert _bitwise_equal(level_apply(level, z), _legacy_level_apply(level, z))
        rl = rng.standard_normal(level.shape)
        got = _smooth(level, z.copy(), rl, hier.omega, sweeps)
        assert _bitwise_equal(got, _legacy_smooth(level, z.copy(), rl, hier.omega, sweeps))


def test_corpus_reaches_both_coarse_solves():
    """The fallback cases above really end in the smoothing fallback."""
    for shape, levels in (((65, 33, 2), 1), ((90, 91, 2), 2)):
        hier, _ = _hierarchy({"shape": shape, "levels": levels}, 0, 0.1, False, 2)
        assert hier.levels[-1].cells > DENSE_SOLVE_MAX_CELLS
        assert hier.telemetry(1)["coarse_solve"] == "smooth"
    hier, _ = _hierarchy({"shape": (7, 5, 1), "levels": None}, 0, 0.1, False, 2)
    assert hier.telemetry(1)["coarse_solve"] == "dense"
    assert hier.levels[0].fz.size == 0


class TestFlatStrideLayout:
    def test_face_views_share_the_flat_buffers(self):
        hier, _ = _hierarchy({"shape": (5, 4, 3), "levels": None}, 3, 0.2, False, 2)
        level = hier.levels[0]
        for axis, view in enumerate((level.fx, level.fy, level.fz)):
            assert np.shares_memory(view, level.faces[axis])
            assert view.shape[axis] == level.shape[axis] - 1

    def test_padding_is_zero(self):
        hier, _ = _hierarchy({"shape": (5, 4, 3), "levels": None}, 3, 0.2, False, 2)
        level = hier.levels[0]
        for axis in range(3):
            padded = level.faces[axis].reshape(level.shape)
            last = [slice(None)] * 3
            last[axis] = -1
            assert np.all(padded[tuple(last)] == 0.0)

    def test_level_apply_accepts_3d_input_and_matches_apply_jx(self):
        grid = CartesianGrid3D(7, 5, 3)
        perm = np.random.default_rng(2).lognormal(0.0, 0.7, grid.shape)
        _, dirichlet = quarter_five_spot(grid)
        problem = build_problem(grid, perm, dirichlet, dtype=np.float64)
        fine = build_hierarchy(problem.coefficients, dirichlet.mask).levels[0]
        x = np.random.default_rng(4).standard_normal(grid.shape)
        got = level_apply(fine, x)
        assert got.shape == grid.shape
        np.testing.assert_allclose(
            got, apply_jx(problem.coefficients, dirichlet, x), rtol=1e-12, atol=1e-12
        )
        # A flat vector is the same operator.
        np.testing.assert_array_equal(level_apply(fine, x.reshape(-1)), got.reshape(-1))

    def test_unmasked_level_has_no_identity_rows(self):
        problem = make_problem(4, 3, 2, seed=5)
        mask = np.zeros((4, 3, 2), dtype=bool)
        fine = build_hierarchy(
            problem.coefficients, mask, accumulation=np.ones(mask.shape)
        ).levels[0]
        x = np.random.default_rng(6).standard_normal(mask.shape)
        assert fine.masked.size == 0
        assert _bitwise_equal(level_apply(fine, x), _legacy_level_apply(fine, x))


def _record_builds(monkeypatch, ref=weakref.ref) -> list:
    """Wrap ``build_hierarchy`` where it is looked up; returns a list
    that gains ``ref(hierarchy)`` (a weak reference by default) for
    every hierarchy built."""
    built = []
    original = repro.mg.hierarchy.build_hierarchy

    def recording(*args, **kwargs):
        hier = original(*args, **kwargs)
        built.append(ref(hier))
        return hier

    monkeypatch.setattr(repro.mg.hierarchy, "build_hierarchy", recording)
    monkeypatch.setattr(repro.mg, "build_hierarchy", recording)
    return built


def test_hierarchy_is_freed_without_the_cycle_collector(monkeypatch):
    """Nothing a solve leaves behind points back at its hierarchy: with
    the cyclic collector off, dropping the result frees it at once."""
    spec = repro.SolveSpec.from_kwargs(
        engine="fused", preconditioner="mg", dtype="float32", rel_tol=1e-5
    )
    scenario = repro.scenario("lognormal_reservoir", nx=12, ny=12, nz=3, seed=4)
    repro.solve(scenario, backend="wse", spec=spec)  # warm imports
    gc.collect()
    built = _record_builds(monkeypatch)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = repro.solve(scenario, backend="wse", spec=spec)
        assert result.converged
        assert len(built) == 1
        del result
        assert [ref() for ref in built] == [None]
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "engine", ["vectorized", "fused", "sharded", "event", "reference"]
)
def test_one_hierarchy_build_per_solve(engine, monkeypatch):
    """Tolerance resolution and engine staging share one build; on the
    reference backend, the linear solver and the telemetry do."""
    built = _record_builds(monkeypatch)
    size = 4 if engine == "event" else 10
    scenario = repro.scenario("lognormal_reservoir", nx=size, ny=size, nz=2, seed=2)
    if engine == "reference":
        spec = repro.SolveSpec.from_kwargs(preconditioner="mg", rel_tol=1e-5)
        result = repro.solve(scenario, backend="reference", spec=spec)
        assert result.telemetry["preconditioner"]["cycles"] > 0
    else:
        spec = repro.SolveSpec.from_kwargs(
            engine=engine, preconditioner="mg", rel_tol=1e-5
        )
        repro.solve(scenario, backend="wse", spec=spec)
    assert len(built) == 1


def test_one_hierarchy_build_per_lane_and_step(monkeypatch):
    built = _record_builds(monkeypatch)
    scenarios = [
        repro.scenario("lognormal_reservoir", nx=8, ny=8, nz=2, seed=seed)
        for seed in (1, 2)
    ]
    spec = repro.SolveSpec.from_kwargs(
        engine="vectorized", preconditioner="mg", rel_tol=1e-5
    )
    repro.solve_many(scenarios, backend="wse", spec=spec)
    assert len(built) == 2
    built.clear()
    repro.simulate(
        scenarios[0], backend="wse", spec=spec.with_options(n_steps=3, dt=1.0)
    )
    assert len(built) == 3


def _mg_reports(entry: str, problem, dtype) -> list:
    """The mg reports of one solve whose hierarchy ``entry`` builds."""
    if entry in ("event", "vectorized"):
        # Engines handed no hierarchy build their own.
        program = CgProgram(preconditioner="mg")
        engine = create_engine(entry, problem, program, spec=WSE2, dtype=dtype)
        return [engine.run()]
    options = dict(
        dtype=dtype, engine="vectorized", preconditioner="mg", rel_tol=1e-5
    )
    if entry == "solver":
        return [WseMatrixFreeSolver(problem, **options).solve()]
    if entry == "solve_batch":
        return solve_batch([problem, problem], **options)
    return list(simulate_reports(problem, dts=[1.0, 2.0], **options))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "entry", ["solver", "solve_batch", "simulate_reports", "event", "vectorized"]
)
def test_hierarchy_is_built_at_the_solve_dtype(entry, dtype, monkeypatch):
    """The V-cycle runs at the solve's working precision, whichever site
    builds the hierarchy: every level's faces, diagonals and scratch are
    in the solve dtype, and only the coarsest dense inverse is float64."""
    built = _record_builds(monkeypatch, ref=lambda hier: hier)
    problem = repro.scenario(
        "lognormal_reservoir", nx=8, ny=8, nz=2, seed=2
    ).build()
    reports = _mg_reports(entry, problem, dtype)
    assert len(built) == len(reports)
    for hier, report in zip(built, reports):
        assert report.converged
        assert report.preconditioner["dtype"] == np.dtype(dtype).name
        assert hier.dtype == dtype
        for level in hier.levels:
            arrays = (*level.faces, level.acc, level.diag, level.inv_diag,
                      level.work, level.prod)
            assert [a.dtype for a in arrays] == [np.dtype(dtype)] * len(arrays)
        assert hier.levels[-1].dense_inv.dtype == np.float64
