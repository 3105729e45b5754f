#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reservoir_mg --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer metrics: it runs the workload's
schedule once untraced and then the same operations again with spans
recorded around the public functions of each ``repro`` module (see
``spans.py``), in this process and in the gateway process.

Lines starting with ``#`` are the host header and the human-readable
report; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The names
and units of the metrics are :data:`END_TO_END` and :data:`PER_LAYER`;
``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)
# Before NumPy loads, here and (through the environment) in every child.
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The tail percentile reported per workload: the highest one with at
#: least ten first-seen samples beyond it in a 30 s run on a 2-CPU host.
TAIL_PERCENTILE = {"reservoir_mg": 75, "gateway_mixed": 90, "transient_stream": 90}

END_TO_END = {
    "setup_s": "s",
    "first_p50_ms": "ms",
    "first_tail_ms": "ms",
    "repeat_p50_ms": "ms",
    "answers_per_s": "1/s",
    "device_ms_mean": "ms",
    "peak_rss_mb": "MB",
}

#: Span name -> per-layer time metric (self time per operation).
LAYER_TIMES = {
    "mg.build": "mg.build_ms",
    "mg.vcycle": "mg.vcycle_ms",
    "mg.level_apply": "mg.level_apply_ms",
    "fused.run": "fused.run_ms",
    "core.stage": "core.stage_ms",
    "wse.run": "wse.run_ms",
    "wse.charge": "wse.charge_ms",
    "scenarios.build": "scenarios.build_ms",
    "backends.package": "backends.package_ms",
    "serve.submit_wait": "serve.submit_wait_ms",
    "serve.cache_lookup": "serve.cache_lookup_ms",
    "session.save": "session.save_ms",
    "session.load": "session.load_ms",
    "session.step_append": "session.step_append_ms",
    "net.encode": "net.encode_ms",
    "net.decode": "net.decode_ms",
    "net.client_self": "net.client_self_ms",
}
#: Span name -> per-layer call count (spans per operation).
LAYER_CALLS = {
    "mg.vcycle": "mg.vcycles",
    "core.stage": "core.stage_calls",
    "wse.charge": "wse.charge_calls",
}

PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES.values()},
    **{name: "count/op" for name in LAYER_CALLS.values()},
    "core.iterations": "count/op",
    "core.flops": "count/op",
    "core.fabric_bytes": "B/op",
    "backends.result_kb": "kB",
    "serve.executed": "count",
    "serve.dedup_hits": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.lane_width_mean": "count",
    "serve.retries": "count",
    "serve.failed": "count",
    "session.bytes_written": "kB/op",
    "net.hit_telemetry_mismatch": "count",
    "trace.unaccounted_ms": "ms",
    "trace.overhead_pct": "%",
    "fail_ratio": "ratio",
}


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile, as ``numpy.percentile`` gives it."""
    import numpy as np

    return float(np.percentile(values, pct))


def host_header(args) -> list[str]:
    import numpy as np

    try:
        import numba  # noqa: F401

        numba_state = "importable"
    except ImportError:
        numba_state = "not importable"
    pinned = " ".join(f"{name}={os.environ.get(name)}" for name in THREAD_VARS)
    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"host: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"numba={numba_state}",
        f"threads: {pinned}",
    ]


# -- set-up -------------------------------------------------------------------------


def library_setup_samples() -> list[float]:
    """Import plus one warm-up solve, each in a fresh interpreter; the
    first, untimed, fills the file cache."""
    import spans

    times = []
    for _ in range(SETUP_SAMPLES + 1):
        began = spans.now()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe"],
            check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        times.append(spans.now() - began)
    return times[1:]


# -- one pass -------------------------------------------------------------------------


def run_passes(workload: str, seed: int, workdir: pathlib.Path, seconds: float,
               tracer=None) -> list:
    """One pass untraced; with a tracer, an untraced and then a traced
    pass over the same operations.  Answers are checked."""
    import spans
    import workloads

    deadline = spans.now() + (seconds if tracer is None else seconds / 2)

    def until_deadline(_client: int, _done: int) -> bool:
        return spans.now() >= deadline

    if workload == "reservoir_mg":
        # In one process the two passes interleave, operation by operation.
        deadline = spans.now() + seconds
        return workloads.run_reservoir(
            seed, lambda done: until_deadline(0, done), tracer)
    passes = [workloads.run_served(
        workload, seed, workloads.GatewayProcess(workdir / "untraced").start(),
        until_deadline)]
    if tracer is not None:
        counts: dict[int, int] = {}
        for ob in passes[0].obs:
            counts[ob.op.client] = counts.get(ob.op.client, 0) + 1
        passes.append(workloads.run_served(
            workload, seed,
            workloads.GatewayProcess(workdir / "traced", traced=True).start(),
            lambda client, done: done >= counts.get(client, 0), tracer))
    for data in passes:
        workloads.check_served(data, seed)
    return passes


# -- metrics --------------------------------------------------------------------------


def end_to_end_metrics(data, setup: list[float]) -> tuple[dict, list[str]]:
    good = [ob for ob in data.obs if ob.op.key not in data.bad]
    first = [ob.latency for ob in good if not ob.op.repeat]
    repeat = [ob.latency for ob in good if ob.op.repeat]
    # Modeled time is deterministic and quantized by iteration counts, so
    # a median can read the same on every seed; the mean does not.
    device = [
        sum(answer.elapsed_seconds for answer in ob.answers) * 1e3
        for ob in good if not ob.op.repeat
    ]
    answers = sum(len(ob.answers) for ob in good)
    if not first or not repeat:
        raise RuntimeError(
            f"too few good operations to report ({len(first)} first-seen, "
            f"{len(repeat)} repeats)"
        )
    tail = TAIL_PERCENTILE[data.workload]
    values = {
        "setup_s": statistics.median(setup),
        "first_p50_ms": statistics.median(first) * 1e3,
        "first_tail_ms": percentile(first, tail) * 1e3,
        "repeat_p50_ms": statistics.median(repeat) * 1e3,
        "answers_per_s": answers / data.wall_s,
        "device_ms_mean": statistics.fmean(device),
        "peak_rss_mb": data.peak_rss_mb,
    }
    beyond = sum(1 for v in first if v > percentile(first, tail))
    spread = "/".join(f"{percentile(first, q) * 1e3:.1f}" for q in (10, 25, 50, 75, 90))
    lines = [
        f"samples: setup_s={len(setup)} first_p50_ms={len(first)} "
        f"first_tail_ms={len(first)} repeat_p50_ms={len(repeat)} "
        f"answers_per_s={answers} device_ms_mean={len(device)}",
        f"first_tail_ms is p{tail}, with {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: read it as indicative)"),
        f"first-seen latency p10/p25/p50/p75/p90: {spread} ms",
        f"measured repeat share: {len(repeat) / max(len(good), 1):.3f} of "
        f"{len(good)} good operations",
    ]
    return values, lines


def per_layer_metrics(traced, untraced, joined: list[dict]) -> tuple[dict, list[str]]:
    import spans

    by_op: dict[str, list[dict]] = {}
    for record in joined:
        by_op.setdefault(record["op"], []).append(record)
    n_ops = len(traced.obs)
    if not n_ops:
        raise RuntimeError("no traced operations")
    self_totals: dict[str, float] = {}
    call_totals: dict[str, int] = {}
    root_total = 0.0
    for ob in traced.obs:
        records = by_op.get(ob.op.key, [])
        for name, seconds in spans.attribute(records).items():
            self_totals[name] = self_totals.get(name, 0.0) + seconds
        for record in records:
            call_totals[record["name"]] = call_totals.get(record["name"], 0) + 1
            if record["name"] == spans.ROOT:
                root_total += record["end"] - record["start"]
    attributed = sum(self_totals.values())
    if abs(attributed - root_total) > 1e-9 * max(root_total, 1.0) + 1e-9:
        raise RuntimeError(
            f"self times sum to {attributed:.6f} s, operations to {root_total:.6f} s"
        )
    values: dict[str, float] = {
        metric: self_totals.get(name, 0.0) / n_ops * 1e3
        for name, metric in LAYER_TIMES.items()
    }
    values.update({
        metric: call_totals.get(name, 0) / n_ops
        for name, metric in LAYER_CALLS.items()
    })
    unaccounted = sum(
        seconds for name, seconds in self_totals.items() if name not in LAYER_TIMES
    )
    values["trace.unaccounted_ms"] = unaccounted / n_ops * 1e3
    firsts = [ob for ob in traced.obs if not ob.op.repeat and not ob.error]
    counters = [
        answer.telemetry.get("counters", {})
        for ob in firsts for answer in ob.answers
    ]
    per_first = max(len(firsts), 1)
    values["core.iterations"] = sum(
        answer.iterations for ob in firsts for answer in ob.answers
    ) / per_first
    values["core.flops"] = sum(c.get("flops", 0) for c in counters) / per_first
    values["core.fabric_bytes"] = sum(c.get("fabric_bytes", 0) for c in counters) / per_first
    sizes = [kb for ob in traced.obs for kb in ob.kb]
    values["backends.result_kb"] = statistics.median(sizes) if sizes else 0.0
    service = traced.service

    def counter(name: str, label: str = "") -> float:
        return sum(
            value for key, value in service.items()
            if key.split("{")[0] == name and label in key
        )

    submitted = counter("repro_requests_submitted_total")
    executed = counter("repro_solves_executed_total")
    launches = counter("repro_launches_total")
    hits = counter("repro_cache_hits_total", 'tier="memory"') + counter(
        "repro_cache_hits_total", 'tier="store"')
    values["serve.executed"] = executed
    values["serve.dedup_hits"] = counter("repro_cache_hits_total", 'tier="dedup"')
    values["serve.cache_hit_ratio"] = hits / submitted if submitted else 0.0
    values["serve.lane_width_mean"] = executed / launches if launches else 0.0
    values["serve.retries"] = counter("repro_retries_total")
    values["serve.failed"] = counter("repro_requests_failed_total")
    values["session.bytes_written"] = traced.store_bytes / 1024.0 / n_ops
    values["net.hit_telemetry_mismatch"] = float(
        traced.notes.get("hit_telemetry_mismatch", 0)
    )
    matched = {ob.op.key: ob for ob in untraced.obs}
    pairs = [
        (ob.end - ob.start, matched[ob.op.key].end - matched[ob.op.key].start)
        for ob in traced.obs if ob.op.key in matched
    ]
    values["trace.overhead_pct"] = (
        (sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0) * 100.0
        if pairs else 0.0
    )
    values["fail_ratio"] = (len(traced.bad) + len(untraced.bad)) / (
        len(traced.obs) + len(untraced.obs))
    lines = [
        f"traced operations: {n_ops}; mean traced operation "
        f"{root_total / n_ops * 1e3:.3f} ms = layer self times "
        f"{(attributed - unaccounted) / n_ops * 1e3:.3f} ms + unaccounted "
        f"{unaccounted / n_ops * 1e3:.3f} ms",
        f"overhead compares {len(pairs)} operations run untraced then traced",
    ]
    return values, lines


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(
        "reservoir_mg", "gateway_mixed", "transient_stream"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import warnings

    warnings.simplefilter("ignore", DeprecationWarning)
    if args.setup_probe:
        import workloads

        workloads.reservoir_setup()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import spans
    import workloads

    header = host_header(args)
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace == 0:
            setup = (
                library_setup_samples() if args.workload == "reservoir_mg"
                else workloads.gateway_setup(workdir, SETUP_SAMPLES - 1)
            )
            passes = run_passes(args.workload, args.seed, workdir, args.seconds)
            metrics, lines = end_to_end_metrics(passes[0], setup + passes[0].setup_s)
            units = END_TO_END
        else:
            tracer = spans.install(spans.Tracer(prefix="c"))
            try:
                passes = run_passes(args.workload, args.seed, workdir, args.seconds,
                                    tracer)
            finally:
                tracer.uninstall()
            untraced, traced = passes
            joined = workloads.join_gateway_spans(traced, tracer.records())
            metrics, lines = per_layer_metrics(traced, untraced, joined)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.obs) for p in passes)
    failed = sum(len(p.bad) for p in passes)
    notes = {}
    for p in passes:
        notes.update(p.notes)
    for line in header + lines:
        print(f"# {line}")
    print(f"# checks: {failed} of {attempted} operations failed; "
          + " ".join(f"{k}={v:.3g}" for k, v in sorted(notes.items())))
    for reason in sorted({r for p in passes for r in p.bad.values()})[:5]:
        print(f"# failure: {reason}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
