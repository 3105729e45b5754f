"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
engine and charge-model entry points from outside the program, by name.
An engine refactor that moves or renames one of them breaks the traced
benchmark, not the program — so pin the patch targets here."""

import importlib.util
import sys
from pathlib import Path

import repro.mg
import repro.wse.vector_engine as vector_engine
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

    tracer = spans.install(spans.Tracer())
    try:
        for engine, run in zip(engines, before):
            assert engine.__dict__["run"] is not run
        assert repro.mg.mg_apply is not mg_apply
    finally:
        tracer.uninstall()

    assert [engine.__dict__["run"] for engine in engines] == before
    assert [charge.__dict__[attr] for attr in charge_attrs] == charge_before
    assert repro.mg.mg_apply is mg_apply
