"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
engine and charge-model entry points from outside the program, by name.
An engine refactor that moves or renames one of them breaks the traced
benchmark, not the program — so pin the patch targets here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import repro.mg
import repro.mg.cycle
import repro.mg.hierarchy
import repro.wse.vector_engine as vector_engine
from helpers import make_problem
from repro.fused import engine as fused_engine

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_spans_install_and_uninstall_round_trip():
    spans = _load_spans()
    engines = (
        vector_engine.VectorEngine, vector_engine.BatchedVectorEngine,
        fused_engine.FusedVectorEngine, fused_engine.BatchedFusedEngine,
    )
    before = [engine.__dict__["run"] for engine in engines]
    charge = vector_engine._ChargeModel
    charge_attrs = sorted(
        attr for attr in vars(charge)
        if attr.startswith("charge_") or attr in ("merge_scaled", "finalize")
    )
    assert {"charge_kernel", "charge_exchange", "charge_allreduce",
            "merge_scaled", "finalize"} <= set(charge_attrs)
    charge_before = [charge.__dict__[attr] for attr in charge_attrs]
    mg_apply = repro.mg.mg_apply
    # The V-cycle calls level_apply through this module global, and
    # hierarchies are built through these names.
    mg_targets = (
        (repro.mg.cycle, "level_apply"),
        (repro.mg.hierarchy, "build_hierarchy"),
        (repro.mg, "build_hierarchy"),
    )
    mg_before = [getattr(owner, attr) for owner, attr in mg_targets]

    tracer = spans.install(spans.Tracer())
    try:
        for engine, run in zip(engines, before):
            assert engine.__dict__["run"] is not run
        assert repro.mg.mg_apply is not mg_apply
        for (owner, attr), original in zip(mg_targets, mg_before):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()

    assert [engine.__dict__["run"] for engine in engines] == before
    assert [charge.__dict__[attr] for attr in charge_attrs] == charge_before
    assert repro.mg.mg_apply is mg_apply
    assert [getattr(owner, attr) for owner, attr in mg_targets] == mg_before


def test_traced_vcycle_records_level_apply_spans():
    """``mg.level_apply_ms`` reads the spans of the wrapped module global;
    a V-cycle that bypassed it would report zero."""
    spans = _load_spans()
    problem = make_problem(8, 8, 2, seed=3)
    tracer = spans.install(spans.Tracer())
    try:
        hier = repro.mg.build_hierarchy(problem.coefficients, problem.dirichlet.mask)
        r = np.random.default_rng(0).standard_normal(hier.shape)
        r[problem.dirichlet.mask] = 0.0
        with tracer.operation("op1"):
            repro.mg.mg_apply(hier, r)
    finally:
        tracer.uninstall()
    names = [record["name"] for record in tracer.records()]
    assert names.count("mg.vcycle") == 1
    assert names.count("mg.level_apply") >= 1
