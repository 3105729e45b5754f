#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys
import unittest
import warnings

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)

warnings.simplefilter("ignore", DeprecationWarning)

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.backends import SolveResult  # noqa: E402


def _ops(seed: int, workload: str, client: int = 0, n: int = 10):
    return [
        (op.fingerprint, op.repeat)
        for op in itertools.islice(workloads.schedule(seed, workload, client), n)
    ]


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(_ops(7, workload), _ops(7, workload))

    def test_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                mine = {f for f, _ in _ops(7, workload)}
                other = {f for f, _ in _ops(8, workload)}
                self.assertFalse(mine & other)

    def test_clients_never_share_a_fingerprint(self):
        a = {f for f, _ in _ops(7, "gateway_mixed", client=0, n=30)}
        b = {f for f, _ in _ops(7, "gateway_mixed", client=1, n=30)}
        self.assertFalse(a & b)

    def test_repeats_name_an_earlier_input(self):
        ops = _ops(3, "gateway_mixed", n=40)
        seen = set()
        for fingerprint, repeat in ops:
            self.assertEqual(repeat, fingerprint in seen)
            seen.add(fingerprint)
        self.assertTrue(any(repeat for _, repeat in ops))


def _span(id, name, start, end, parent=None):
    return {"id": id, "parent": parent, "op": "x", "name": name,
            "start": start, "end": end}


class AttributeTest(unittest.TestCase):
    def test_nested(self):
        got = spans.attribute([
            _span("r", spans.ROOT, 0.0, 10.0),
            _span("a", "A", 1.0, 5.0, "r"),
            _span("b", "B", 2.0, 3.0, "a"),
            _span("c", "C", 6.0, 9.0, "r"),
        ])
        self.assertEqual(got, {spans.ROOT: 3.0, "A": 3.0, "B": 1.0, "C": 3.0})

    def test_same_name_nested_adds_up(self):
        got = spans.attribute([
            _span("r", spans.ROOT, 0.0, 4.0),
            _span("a", "A", 0.0, 4.0, "r"),
            _span("b", "A", 1.0, 2.0, "a"),
        ])
        self.assertEqual(got, {"A": 4.0})

    def test_orphan_goes_under_innermost_container(self):
        # "w" was recorded on another thread: no parent, inside "a".
        got = spans.attribute([
            _span("r", spans.ROOT, 0.0, 10.0),
            _span("a", "A", 1.0, 9.0, "r"),
            _span("w", "W", 2.0, 6.0),
        ])
        self.assertEqual(got, {spans.ROOT: 2.0, "A": 4.0, "W": 4.0})

    def test_concurrent_siblings_never_double_count(self):
        got = spans.attribute([
            _span("r", spans.ROOT, 0.0, 10.0),
            _span("a", "A", 1.0, 6.0, "r"),
            _span("b", "B", 4.0, 8.0, "r"),
            _span("x", "X", 9.0, 12.0, "r"),  # clipped to the root
        ])
        self.assertAlmostEqual(sum(got.values()), 10.0)
        self.assertEqual(got, {spans.ROOT: 2.0, "A": 3.0, "B": 4.0, "X": 1.0})

    def test_recorded_spans_reconcile(self):
        tracer = spans.Tracer()

        def inner():
            return sum(range(2000))

        def outer():
            return wrapped_inner() + wrapped_inner()

        wrapped_inner = tracer.timed("inner")(inner)
        wrapped_outer = tracer.timed("outer")(outer)
        wrapped_outer()  # outside an operation: nothing is recorded
        self.assertEqual(tracer.spans, [])
        with tracer.operation("k"):
            wrapped_outer()
        records = tracer.records()
        self.assertEqual(sorted(r["name"] for r in records),
                         ["inner", "inner", spans.ROOT, "outer"])
        root = next(r for r in records if r["name"] == spans.ROOT)
        got = spans.attribute(records)
        self.assertAlmostEqual(sum(got.values()), root["end"] - root["start"], places=12)


def _benchmark_names(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _fake_result(iterations: int) -> SolveResult:
    import numpy as np

    return SolveResult(
        pressure=np.zeros((2, 2, 1), dtype=np.float32), iterations=iterations,
        converged=True, elapsed_seconds=1e-4, backend="wse",
        telemetry={"counters": {"flops": 10, "fabric_bytes": 20}},
    )


def _fake_run() -> workloads.RunData:
    obs = []
    for index in range(12):
        op = workloads.Op(f"run0.{index}", 0, index % 3 == 2, None, f"f{index % 4}")
        obs.append(workloads.Obs(op, float(index), index + 0.5,
                                 answers=[_fake_result(5)]))
    data = workloads.RunData("gateway_mixed", obs, wall_s=6.0, setup_s=[0.5])
    data.peak_rss_mb = 70.0
    data.service = {"repro_requests_submitted_total": 12.0,
                    "repro_solves_executed_total": 8.0,
                    "repro_launches_total": 8.0,
                    'repro_cache_hits_total{tier="memory"}': 4.0}
    return data


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_lists_every_printed_metric(self):
        self.assertEqual(run.END_TO_END, _benchmark_names("end_to_end"))
        self.assertEqual(run.PER_LAYER, _benchmark_names("per_layer"))

    def test_workloads_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         workloads.WORKLOADS)

    def test_every_metric_is_computed(self):
        data = _fake_run()
        values, _ = run.end_to_end_metrics(data, [0.4, 0.5])
        self.assertEqual(set(values), set(run.END_TO_END))
        records = []
        for ob in data.obs:
            records.append({"id": ob.op.key, "parent": None, "op": ob.op.key,
                            "name": spans.ROOT, "start": ob.start, "end": ob.end})
            records.append({"id": ob.op.key + "s", "parent": ob.op.key,
                            "op": ob.op.key, "name": "net.client_self",
                            "start": ob.start + 0.1, "end": ob.end - 0.1})
        values, _ = run.per_layer_metrics(data, data, records)
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertAlmostEqual(values["net.client_self_ms"], 300.0)
        self.assertAlmostEqual(values["trace.unaccounted_ms"], 200.0)
        self.assertAlmostEqual(values["serve.cache_hit_ratio"], 4 / 12)


if __name__ == "__main__":
    unittest.main()
