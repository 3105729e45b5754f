"""The benchmark's three workloads, their inputs and their answer checks.

Every input is generated from the workload seed by :func:`schedule`; the
program only ever sees the generated scenarios.  Each workload mixes
first-seen operations (inputs the program has not answered yet in this
run) with repeats of inputs it has answered, so that every end-to-end
metric is measured on every workload:

``reservoir_mg``
    In-process ``repro.solve`` calls, one at a time, on 64x64x6
    lognormal and channelized realizations (alternating), fused engine,
    multigrid preconditioner, float32, ``rel_tol=1e-5``.  Multigrid and
    the fused sweeps do the work; no serving, wire or store code runs.
    A third of the calls repeat an earlier realization: the library has
    no result cache, so a repeat costs a full solve.
``gateway_mixed``
    A gateway process (``repro.net.serve_forever``, temp store and
    records, ``n_workers`` = CPUs) and a closed loop of one client
    thread per CPU, each on its own keep-alive ``GatewayClient``,
    posting 16x16x4 lognormal solves (vectorized engine, Jacobi,
    ``rel_tol=1e-6``).  Half the requests repeat a fingerprint the same
    client already got answered (a cache hit); the rest are misses.
``transient_stream``
    The same gateway setup and one client streaming 12-step
    backward-Euler transients (warm start, store on) over the WebSocket,
    one at a time.  A third of the streams replay a transient already
    streamed, which the gateway serves from its step store.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import random
import resource
import select
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

import repro
from repro.backends.base import jsonable_telemetry
from repro.fv.assembly import assemble_jacobian
from repro.mg import hierarchy_for_problem, mg_apply
from repro.net import GatewayClient
from repro.net.wire import encode_json
from repro.session import entry_fingerprint

import gateway_main
import spans

WORKLOADS = ("reservoir_mg", "gateway_mixed", "transient_stream")
BACKEND = "wse"
NPROC = len(os.sched_getaffinity(0))

#: (repeats, block): each block of ``block`` consecutive operations of a
#: client holds exactly ``repeats`` repeats of inputs already answered, at
#: seeded random positions.  The share is exact, which keeps throughput
#: comparable from seed to seed, and the order is random, so two clients
#: do not fall into lockstep (which would put every pair of misses into
#: one fused admission lane).
REPEATS = {"reservoir_mg": (2, 6), "gateway_mixed": (2, 4), "transient_stream": (2, 6)}
#: Client threads (and connections) driving each workload.
CLIENTS = {"reservoir_mg": 1, "gateway_mixed": NPROC, "transient_stream": 1}
TRANSIENT_STEPS = 12

#: float32 CG stops on its recursively updated residual, which drifts
#: from the true residual; on these 64x64x6 realizations the true
#: residual (float64, assembled matrix) measured up to 8x ``rel_tol``.
FP32_RESIDUAL_GAP = 50.0
#: Largest |p - p_reference| accepted for the sampled float32 solve
#: (pressures are in [0, 1]; float32 with rel_tol 1e-5 measured 3e-3).
REFERENCE_ATOL = 1e-2
#: Served answers come from the same engine as the in-process call; a
#: fused admission lane may reorder float reductions.
SERVED_ATOL = 1e-6


def reservoir_spec() -> repro.SolveSpec:
    return repro.SolveSpec.from_kwargs(
        engine="fused", preconditioner="mg", dtype="float32", rel_tol=1e-5
    )


def served_spec() -> repro.SolveSpec:
    return repro.SolveSpec.from_kwargs(
        engine="vectorized", preconditioner="jacobi", rel_tol=1e-6
    )


def transient_spec() -> repro.SolveSpec:
    return served_spec().with_options(
        n_steps=TRANSIENT_STEPS, dt=1.0, total_compressibility=5e-3,
        warm_start=True,
    )


def spec_for(workload: str) -> repro.SolveSpec:
    return {
        "reservoir_mg": reservoir_spec,
        "gateway_mixed": served_spec,
        "transient_stream": transient_spec,
    }[workload]()


def _realization(workload: str, index: int, realization_seed: int):
    if workload == "reservoir_mg":
        family = ("lognormal_reservoir", "channelized_reservoir")[index % 2]
        return repro.scenario(family, nx=64, ny=64, nz=6, seed=realization_seed)
    return repro.scenario(
        "lognormal_reservoir", nx=16, ny=16, nz=4, seed=realization_seed
    )


@dataclass(frozen=True)
class Op:
    """One scheduled operation: a target and whether it repeats one."""

    key: str
    client: int
    repeat: bool
    target: Any
    fingerprint: str


def schedule(seed: int, workload: str, client: int, phase: str = "run") -> Iterator[Op]:
    """The endless, seed-determined operation sequence of one client.

    Realization seeds are distinct per client, so two clients never
    share a fingerprint, and a repeat always names an input this client
    has already had answered (the loop is closed).
    """
    rng = random.Random(f"{workload}/{phase}/{seed}/{client}")
    spec = spec_for(workload)
    clients = CLIENTS[workload]
    repeats, block = REPEATS[workload]
    seen: list[Op] = []
    used: set[int] = set()
    count = 0
    while True:
        if count % block == 0:
            repeat_at = set(rng.sample(range(count, count + block), repeats))
        if seen and count in repeat_at:
            base = rng.choice(seen)
            op = Op(f"{phase}{client}.{count}", client, True, base.target, base.fingerprint)
        else:
            realization = rng.randrange(1, 2**26) * clients + client
            while realization in used:
                realization = rng.randrange(1, 2**26) * clients + client
            used.add(realization)
            target = _realization(workload, len(seen), realization)
            op = Op(f"{phase}{client}.{count}", client, False, target,
                    entry_fingerprint(target, spec, BACKEND))
            seen.append(op)
        count += 1
        yield op


@dataclass
class Obs:
    """What one operation did: when, and what it answered."""

    op: Op
    start: float
    end: float
    first: float | None = None
    answers: list = field(default_factory=list)
    error: str | None = None
    #: Size of each answer's JSON encoding (the wire body), in kB.
    kb: list[float] = field(default_factory=list)

    @property
    def latency(self) -> float:
        """Time to the first answer (the whole call for a solve)."""
        return (self.first if self.first is not None else self.end) - self.start


@dataclass
class RunData:
    workload: str
    obs: list[Obs]
    wall_s: float
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    bad: dict[str, str] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    service: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    store_bytes: int = 0


def _operation(tracer: spans.Tracer | None, key: str):
    return contextlib.nullcontext() if tracer is None else tracer.operation(key)


# -- reservoir_mg ---------------------------------------------------------------


def reservoir_setup() -> None:
    """The library set-up a user pays: import plus one warm-up solve."""
    target = repro.scenario("lognormal_reservoir", nx=64, ny=64, nz=6, seed=1)
    repro.solve(target, backend=BACKEND, spec=reservoir_spec())


def run_reservoir(
    seed: int, stop: Callable[[int], bool], tracer: spans.Tracer | None = None
) -> list[RunData]:
    """Solve the schedule until ``stop(done)``, checking each answer as
    it arrives.  With a tracer every operation runs twice, untraced and
    then traced, giving two passes over the same inputs."""
    spec = reservoir_spec()
    reservoir_setup()  # untimed warm-up in this process
    ops = schedule(seed, "reservoir_mg", 0)
    variants = [None] if tracer is None else [None, tracer]
    checks = [ReservoirCheck(seed) for _ in variants]
    passes: list[list[Obs]] = [[] for _ in variants]
    began = spans.now()
    while not stop(len(passes[0])):
        op = next(ops)
        for variant, sink in zip(variants, passes):
            with _operation(variant, op.key):
                start = spans.now()
                try:
                    result = repro.solve(op.target, backend=BACKEND, spec=spec)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    sink.append(Obs(op, start, spans.now(), error=repr(exc)))
                    continue
                sink.append(Obs(op, start, spans.now(), answers=[result]))
        for check, sink in zip(checks, passes):
            check.answer(sink[-1])
    wall = spans.now() - began
    peak = _own_peak_rss_mb()
    runs = []
    for check, obs in zip(checks, passes):
        data = RunData("reservoir_mg", obs, wall, peak_rss_mb=peak)
        check.finish(data)
        runs.append(data)
    return runs


class ReservoirCheck:
    """The answer checks of ``reservoir_mg``, made as each answer
    arrives: converged; true residual within the tolerance; a repeat
    answers bit-identically; one sampled solve agrees with the
    ``reference`` backend.  Only a digest of each pressure is kept, so
    answers piling up in this process do not count in its peak RSS."""

    def __init__(self, seed: int) -> None:
        self.limit = FP32_RESIDUAL_GAP * reservoir_spec().tolerance.rel_tol
        self.digests: dict[str, str] = {}
        self.bad: dict[str, str] = {}
        self.worst = 0.0
        self.firsts = 0
        self.sample_at = random.Random(f"sample/{seed}").randrange(4)
        self.sample: tuple[Obs, Any] | None = None

    def answer(self, ob: Obs) -> None:
        if ob.error:
            self.bad[ob.op.key] = ob.error
            return
        result = ob.answers[0]
        digest = hashlib.sha1(result.pressure.tobytes()).hexdigest()
        ob.kb = [len(encode_json(result.to_dict())) / 1024.0]
        ob.answers = [dataclasses.replace(result, pressure=result.pressure[:0])]
        if not result.converged:
            self.bad[ob.op.key] = "not converged"
        elif ob.op.repeat:
            if self.digests.get(ob.op.fingerprint, digest) != digest:
                self.bad[ob.op.key] = "repeat answered differently"
        else:
            self.digests[ob.op.fingerprint] = digest
            ratio = _residual_ratio(ob.op.target.build(), result.pressure)
            self.worst = max(self.worst, ratio)
            if not ratio <= self.limit:
                self.bad[ob.op.key] = f"true residual {ratio:.2e} > {self.limit:.0e}"
            elif self.firsts == self.sample_at:
                self.sample = (ob, result)
            self.firsts += 1

    def finish(self, data: RunData) -> None:
        data.bad.update(self.bad)
        data.notes["residual_ratio_max"] = self.worst
        data.notes["residual_ratio_limit"] = self.limit
        if self.sample is None:
            return
        ob, result = self.sample
        reference = repro.solve(
            ob.op.target, backend="reference",
            spec=repro.SolveSpec.from_kwargs(
                dtype="float64", rel_tol=1e-9, preconditioner="mg"
            ),
        )
        diff = float(np.max(np.abs(
            reference.pressure - result.pressure.astype(np.float64)
        )))
        data.notes["reference_max_abs_diff"] = diff
        if not (reference.converged and diff <= REFERENCE_ATOL):
            data.bad[ob.op.key] = f"reference differs by {diff:.2e}"


def _residual_ratio(problem, pressure: np.ndarray) -> float:
    """sqrt(r'M^-1 r / r0'M^-1 r0) of ``J p = b`` in float64, with J from
    ``assemble_jacobian`` and M the V-cycle the solver's criterion uses."""
    J = assemble_jacobian(problem.coefficients, problem.dirichlet)
    mask = problem.dirichlet.mask.reshape(-1)
    b = np.zeros(problem.grid.num_cells)
    b[mask] = problem.dirichlet.values.reshape(-1)[mask]
    p0 = problem.initial_pressure(dtype=np.float64).reshape(-1)
    r = b - J @ pressure.astype(np.float64).reshape(-1)
    r0 = b - J @ p0
    hierarchy = hierarchy_for_problem(problem)
    shape = problem.grid.shape

    def energy(v: np.ndarray) -> float:
        return float(np.vdot(v, mg_apply(hierarchy, v.reshape(shape)).reshape(-1)))

    return float(np.sqrt(max(energy(r), 0.0) / energy(r0)))


# -- the gateway process ----------------------------------------------------------


class GatewayProcess:
    """One gateway in its own child process, over its own store."""

    def __init__(self, workdir: pathlib.Path, traced: bool = False) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.setup_s = 0.0
        self._argv = [
            sys.executable, str(pathlib.Path(gateway_main.__file__).resolve()),
            str(workdir), str(NPROC), "1" if traced else "0",
        ]
        self._process: subprocess.Popen | None = None

    def start(self) -> "GatewayProcess":
        """Spawn, then wait until ``/healthz`` answers; that is set-up."""
        began = spans.now()
        self._process = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            info = self._read_ready(began + 60.0)
            self.host, self.port = info["host"], info["port"]
            with GatewayClient(self.host, self.port) as client:
                if client.healthz().get("status") != "ok":
                    raise RuntimeError("gateway /healthz is not ok")
        except BaseException:
            self.close()
            raise
        self.setup_s = spans.now() - began
        return self

    def _read_ready(self, deadline: float) -> dict[str, Any]:
        assert self._process is not None and self._process.stdout is not None
        fd = self._process.stdout.fileno()
        buffer = b""
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line, buffer = buffer[:newline].decode(), buffer[newline + 1:]
                if line.startswith(gateway_main.READY_PREFIX):
                    return json.loads(line[len(gateway_main.READY_PREFIX):])
                continue
            left = deadline - spans.now()
            if left <= 0:
                raise RuntimeError("the gateway process did not start")
            readable, _, _ = select.select([fd], [], [], min(left, 1.0))
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("the gateway process exited before it was ready")
                buffer += chunk

    def client(self) -> GatewayClient:
        return GatewayClient(self.host, self.port)

    def close(self) -> dict[str, Any]:
        """Stop the gateway (end of its standard input) and wait until it
        has exited; a gateway that does not stop is killed."""
        process = self._process
        if process is None:
            return {}
        self._process = None
        try:
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        report = self.workdir / "gateway_report.json"
        if not report.exists():
            return {}
        return json.loads(report.read_text(encoding="utf-8"))


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def gateway_setup(workdir: pathlib.Path, samples: int) -> list[float]:
    """Set-up time of ``samples`` gateways started and stopped in turn,
    after an untimed one that fills the file cache."""
    times = []
    for index in range(samples + 1):
        gateway = GatewayProcess(workdir / f"setup{index}").start()
        times.append(gateway.setup_s)
        gateway.close()
    return times[1:]


# -- gateway_mixed and transient_stream -------------------------------------------


def _solve_op(client: GatewayClient, op: Op, spec) -> Obs:
    start = spans.now()
    result = client.solve(op.target, backend=BACKEND, spec=spec)
    return Obs(op, start, spans.now(), answers=[result])


def _stream_op(client: GatewayClient, op: Op, spec) -> Obs:
    start = spans.now()
    ob = Obs(op, start, start)
    for step in client.stream(op.target, backend=BACKEND, spec=spec):
        if ob.first is None:
            ob.first = spans.now()
        ob.answers.append(step)
    ob.end = spans.now()
    return ob


def run_served(
    workload: str,
    seed: int,
    gateway: GatewayProcess,
    stop: Callable[[int, int], bool],
    tracer: spans.Tracer | None = None,
) -> RunData:
    """Drive a started gateway with a closed loop of client threads until
    ``stop(client, done)``, then stop the gateway.  With a tracer each
    operation runs inside ``tracer.operation``."""
    spec = spec_for(workload)
    one = _solve_op if workload == "gateway_mixed" else _stream_op
    lock = threading.Lock()
    results: list[Obs] = []

    def loop(index: int, phase: str, until: Callable[[int, int], bool]) -> None:
        ops = schedule(seed, workload, index, phase)
        record = phase == "run"
        with gateway.client() as client:
            done = 0
            while not until(index, done):
                op = next(ops)
                with _operation(tracer if record else None, op.key):
                    start = spans.now()
                    try:
                        ob = one(client, op, spec)
                    except Exception as exc:  # noqa: BLE001 - a failed op is counted
                        ob = Obs(op, start, spans.now(), error=repr(exc))
                if record:
                    with lock:
                        results.append(ob)
                done += 1

    def fan_out(phase: str, until: Callable[[int, int], bool]) -> float:
        began = spans.now()
        with ThreadPoolExecutor(max_workers=CLIENTS[workload]) as pool:
            futures = [
                pool.submit(loop, index, phase, until)
                for index in range(CLIENTS[workload])
            ]
            for future in futures:
                future.result()
        return spans.now() - began

    try:
        # Warm-up: two operations per client, so lazy set-up is done.
        fan_out("warmup", lambda _client, done: done >= 2)
        wall = fan_out("run", stop)
        with gateway.client() as client:
            service = client.metrics_values()
    finally:
        report = gateway.close()
    data = RunData(workload, sorted(results, key=lambda ob: ob.start), wall)
    data.setup_s = [gateway.setup_s]
    data.peak_rss_mb = float(report["peak_rss_mb"])
    data.service = service
    data.spans = report["spans"]
    data.store_bytes = _dir_bytes(gateway.workdir / "store")
    return data


def check_served(data: RunData, seed: int) -> None:
    """Every answer converged; one fingerprint, one answer; a sampled
    first-seen answer matches the in-process library."""
    spec = spec_for(data.workload)
    firsts: dict[str, Obs] = {}
    mismatched = 0
    for ob in data.obs:
        ob.kb = [len(encode_json(answer.to_dict())) / 1024.0 for answer in ob.answers]
        if ob.error:
            data.bad[ob.op.key] = ob.error
            continue
        if data.workload == "transient_stream":
            steps = [s.step for s in ob.answers]
            if steps != list(range(1, TRANSIENT_STEPS + 1)):
                data.bad[ob.op.key] = f"stream yielded steps {steps}"
                continue
        if not all(a.converged for a in ob.answers):
            data.bad[ob.op.key] = "not converged"
            continue
        base = firsts.setdefault(ob.op.fingerprint, ob)
        if base is ob:
            continue
        for mine, theirs in zip(ob.answers, base.answers):
            if not (
                mine.iterations == theirs.iterations
                and mine.converged == theirs.converged
                and np.array_equal(mine.pressure, theirs.pressure)
            ):
                data.bad[ob.op.key] = "same fingerprint, different answer"
                break
            if _telemetry(mine) != _telemetry(theirs):
                mismatched += 1
                break
    data.notes["hit_telemetry_mismatch"] = mismatched
    sampled = [
        ob for ob in firsts.values()
        if not ob.op.repeat and ob.op.key not in data.bad
    ]
    if not sampled:
        return
    ob = random.Random(f"sample/{seed}").choice(sampled)
    if data.workload == "gateway_mixed":
        local = repro.solve(ob.op.target, backend=BACKEND, spec=spec)
        pressure, iterations = local.pressure, local.iterations
        served = ob.answers[0]
    else:
        local = repro.simulate(ob.op.target, backend=BACKEND, spec=spec)
        pressure, iterations = local.final_pressure, local.steps[-1].iterations
        served = ob.answers[-1]
    diff = float(np.max(np.abs(
        np.asarray(pressure, np.float64) - np.asarray(served.pressure, np.float64)
    )))
    data.notes["in_process_max_abs_diff"] = diff
    if not (iterations == served.iterations and diff <= SERVED_ATOL):
        data.bad[ob.op.key] = f"differs from in-process answer by {diff:.2e}"


def _telemetry(answer) -> Any:
    return jsonable_telemetry(answer.telemetry)


def join_gateway_spans(data: RunData, client_spans: list[dict]) -> list[dict]:
    """Client spans plus the gateway's, each gateway span moved to the
    client operation with its fingerprint whose interval holds its start
    (clients never share a fingerprint, and each waits for its answer)."""
    by_fingerprint: dict[str, list[Obs]] = {}
    for ob in data.obs:
        by_fingerprint.setdefault(ob.op.fingerprint, []).append(ob)
    joined = list(client_spans)
    for span in data.spans:
        for ob in by_fingerprint.get(span["op"], ()):
            if ob.start <= span["start"] <= ob.end:
                joined.append(dict(span, op=ob.op.key))
                break
    return joined
