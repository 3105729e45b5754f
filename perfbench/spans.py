"""Spans for the traced run, recorded from outside the program.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of ``repro`` modules with wrappers that
record a :class:`Span` per call, patching each name *where it is looked
up* (a name imported with ``from x import f`` is patched in the
importing module too).  :func:`uninstall` puts the originals back.

Spans carry the operation they belong to.  In the calling thread or
asyncio task the operation and the parent span come from a context
variable; code that runs on a pool thread (a backend solve, a store
write) has no such context, so its operation is looked up from the
problem object or the fingerprint it was called with, which hooks on
``PlanEntry.build_problem`` and ``plan_entry`` record.

:func:`attribute` turns one operation's spans into self time per layer.
Timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), so spans recorded in the gateway process line up with the
client's spans on the same host.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

now = time.perf_counter

#: Name of the root span of every operation; its self time is the
#: operation's unaccounted time.
ROOT = "op"

#: (operation, id of the innermost open span) for the running thread/task.
_current: contextvars.ContextVar[tuple[Any, str | None]] = contextvars.ContextVar(
    "perfbench_current", default=(None, None)
)


@dataclass
class Span:
    id: str
    parent: str | None
    op: Any
    name: str
    start: float
    end: float = 0.0


class ServerOp:
    """One request inside the gateway; its key (the fingerprint) is only
    known once ``plan_entry`` has run."""

    __slots__ = ("key",)

    def __init__(self) -> None:
        self.key: str | None = None


class Tracer:
    """Collects spans in memory; :meth:`records` exports them."""

    def __init__(self, prefix: str = "c") -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._prefix = prefix
        # Values keep the keyed object alive, so an id is never reused.
        self.problem_ops: dict[int, tuple[Any, Any]] = {}
        self.fingerprint_ops: dict[str, Any] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str, op: Any = None) -> tuple[Span, contextvars.Token] | None:
        """Start a span, or return None outside every operation (nothing
        is recorded for calls no operation made)."""
        current_op, parent = _current.get()
        if current_op is None:
            parent = None
            if op is None:
                return None
        else:
            op = current_op
        span = Span(f"{self._prefix}{next(self._ids)}", parent, op, name, now())
        return span, _current.set((op, span.id))

    def close(self, opened: tuple[Span, contextvars.Token] | None) -> None:
        if opened is None:
            return
        span, token = opened
        span.end = now()
        _current.reset(token)
        self.spans.append(span)

    def operation(self, key: Any) -> "_Operation":
        """Context manager for the root span of one client operation."""
        return _Operation(self, key)

    # -- wrapping -------------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def timed(self, name: str, resolve: Callable[..., Any] | None = None):
        """Wrapper factory: one span per call."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                op = resolve(self, *args, **kwargs) if resolve else None
                opened = self.open(name, op)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(opened)

            return wrapper

        return make

    def timed_generator(self, name: str, resolve: Callable[..., Any] | None = None):
        """Wrapper factory for a generator function: one span per resume,
        so time the consumer spends between items is not counted."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                op = resolve(self, *args, **kwargs) if resolve else None
                opened = self.open(name, op)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    self.close(opened)
                if opened is None:
                    return inner
                return self._resumes(name, opened[0].op, inner)

            return wrapper

        return make

    def _resumes(self, name: str, op: Any, inner):
        while True:
            opened = self.open(name, op)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self.close(opened)
            yield item

    def timed_future(self, name: str):
        """Wrapper factory for a call returning a future: the span lasts
        until the future resolves (``SolveService.submit``)."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                opened = self.open(name)
                if opened is None:
                    return fn(*args, **kwargs)
                span, token = opened
                try:
                    future = fn(*args, **kwargs)
                finally:
                    _current.reset(token)

                def done(_future) -> None:
                    span.end = now()
                    self.spans.append(span)

                future.add_done_callback(done)
                return future

            return wrapper

        return make

    # -- operation hooks (no spans) -------------------------------------------

    def hook_request_start(self):
        """``http11.read_request``: every request a connection reads
        starts a new server-side operation."""

        def make(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                request = await fn(*args, **kwargs)
                _current.set((ServerOp(), None))
                return request

            return wrapper

        return make

    def hook_plan_entry(self):
        """``plan_entry``: name the current operation by fingerprint."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                entry = fn(*args, **kwargs)
                op = _current.get()[0]
                if isinstance(op, ServerOp):
                    op.key = entry.fingerprint
                    self.fingerprint_ops[entry.fingerprint] = op
                return entry

            return wrapper

        return make

    def hook_build_problem(self):
        """``PlanEntry.build_problem``: remember which operation a problem
        object belongs to, for the pool thread that solves it."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                problem = fn(*args, **kwargs)
                op = _current.get()[0]
                if op is not None:
                    self.problem_ops[id(problem)] = (problem, op)
                return problem

            return wrapper

        return make

    # -- export ---------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Spans as plain dicts, one per (span, operation key); a span
        shared by several operations (a fused lane) appears under each."""
        out = []
        for span in self.spans:
            ops = span.op if isinstance(span.op, tuple) else (span.op,)
            for op in ops:
                key = op.key if isinstance(op, ServerOp) else op
                if key is None:
                    continue
                out.append({
                    "id": span.id, "parent": span.parent, "op": key,
                    "name": span.name, "start": span.start, "end": span.end,
                })
        return out


class _Operation:
    def __init__(self, tracer: Tracer, key: Any) -> None:
        self.tracer, self.key = tracer, key

    def __enter__(self) -> Span:
        self._outer = _current.set((None, None))
        self._opened = self.tracer.open(ROOT, self.key)
        return self._opened[0]

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.close(self._opened)
        _current.reset(self._outer)


# -- op resolvers for calls made on pool threads ------------------------------


def _problem_op(tracer: Tracer, _backend, problem, *args, **kwargs):
    return tracer.problem_ops.get(id(problem), (None, None))[1]


def _problems_op(tracer: Tracer, _backend, problems, *args, **kwargs):
    ops = tuple(
        op for op in (tracer.problem_ops.get(id(p), (None, None))[1] for p in problems)
        if op is not None
    )
    return ops or None


def _fingerprint_op(tracer: Tracer, _store, fingerprint, *args, **kwargs):
    return tracer.fingerprint_ops.get(fingerprint)


def _entry_op(tracer: Tracer, _store, entry, *args, **kwargs):
    return tracer.fingerprint_ops.get(entry.fingerprint)


# -- what is wrapped ----------------------------------------------------------


def install(tracer: Tracer) -> Tracer:
    """Wrap every public function the per-layer metrics name."""
    import repro.backends.base as base
    import repro.backends.wse as wse_backend
    import repro.core as core
    import repro.core.engines as engines
    import repro.core.solver as solver
    import repro.fused.engine as fused_engine
    import repro.mg as mg
    import repro.mg.cycle as mg_cycle
    import repro.mg.hierarchy as mg_hierarchy
    import repro.net.client as net_client
    import repro.net.http11 as http11
    import repro.net.server as net_server
    import repro.net.wire as wire
    import repro.scenarios.base as scenarios_base
    import repro.serve.cache as serve_cache
    import repro.serve.service as service
    import repro.session as session
    import repro.wse.vector_engine as vector_engine

    t = tracer
    # mg: level construction, the V-cycle and its per-level operator.
    for owner in (mg, mg_hierarchy):
        t.patch(owner, "build_hierarchy", t.timed("mg.build"))
    t.patch(mg, "hierarchy_for_problem", t.timed("mg.build"))
    t.patch(mg, "mg_apply", t.timed("mg.vcycle"))  # engines import it at call time
    t.patch(mg_cycle, "level_apply", t.timed("mg.level_apply"))
    # core: engine staging, bound at module level by the solver.
    for owner in (engines, solver, core):
        t.patch(owner, "create_engine", t.timed("core.stage"))
    for owner in (engines, solver):
        t.patch(owner, "create_batched_engine", t.timed("core.stage"))
    # engines and the charge model.
    t.patch(fused_engine.FusedVectorEngine, "run", t.timed("fused.run"))
    t.patch(fused_engine.BatchedFusedEngine, "run", t.timed("fused.run"))
    t.patch(vector_engine.VectorEngine, "run", t.timed("wse.run"))
    t.patch(vector_engine.BatchedVectorEngine, "run", t.timed("wse.run"))
    charge = vector_engine._ChargeModel
    for attr in sorted(vars(charge)):
        if attr.startswith("charge_") or attr in ("merge_scaled", "finalize"):
            t.patch(charge, attr, t.timed("wse.charge"))
    # scenarios and backends.
    t.patch(scenarios_base.Scenario, "build", t.timed("scenarios.build"))
    backend = wse_backend.WseBackend
    t.patch(backend, "solve", t.timed("backends.package", _problem_op))
    t.patch(backend, "solve_batch", t.timed("backends.package", _problems_op))
    t.patch(backend, "simulate", t.timed_generator("backends.package", _problem_op))
    # serve: the front door and the cache probe.
    t.patch(service.SolveService, "submit", t.timed_future("serve.submit_wait"))
    t.patch(serve_cache.ResultCache, "lookup", t.timed("serve.cache_lookup"))
    # session: the result store.
    store = session.ResultStore
    t.patch(store, "save", t.timed("session.save", _entry_op))
    t.patch(store, "load", t.timed("session.load", _fingerprint_op))
    t.patch(store, "load_simulation_steps", t.timed("session.load", _fingerprint_op))
    t.patch(store, "save_simulation_step",
            t.timed("session.step_append", _fingerprint_op))
    # net: codecs on both sides, and the client's own framing/transport.
    for owner in (wire, net_server, net_client):
        t.patch(owner, "encode_json", t.timed("net.encode"))
        t.patch(owner, "decode_json", t.timed("net.decode"))
    for cls in (base.SolveResult, base.StepResult):
        t.patch(cls, "to_dict", t.timed("net.encode"))
        t.patch(cls, "from_dict", t.timed("net.decode"))
    t.patch(net_client.GatewayClient, "solve", t.timed("net.client_self"))
    t.patch(net_client.GatewayClient, "stream",
            t.timed_generator("net.client_self"))
    # operation hooks.
    t.patch(http11, "read_request", t.hook_request_start())
    for owner in (session, service, net_server):
        t.patch(owner, "plan_entry", t.hook_plan_entry())
    t.patch(session.PlanEntry, "build_problem", t.hook_build_problem())
    return tracer


# -- self time ----------------------------------------------------------------


def attribute(spans: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Self time per span name for one operation, in seconds.

    ``spans`` holds exactly one span named :data:`ROOT`, the operation.
    Spans are clipped to the root's interval.  A span whose parent is
    unknown (the first span on a pool thread or in the gateway process)
    gets the innermost span that contains it, or the root.  Each instant
    of the operation then goes to the deepest span open at that instant
    (the latest-started one among equals), so a span's self time is its
    duration minus the part its children cover, and concurrent spans
    never count one instant twice: the values always sum to the root's
    duration.
    """
    spans = list(spans)
    roots = [s for s in spans if s["name"] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, got {len(roots)}")
    root = roots[0]
    lo, hi = root["start"], root["end"]
    clipped = {}
    for s in spans:
        start, end = max(s["start"], lo), min(s["end"], hi)
        if end > start or s is root:
            clipped[s["id"]] = dict(s, start=start, end=end)
    parents: dict[str, str | None] = {root["id"]: None}
    by_length = sorted(clipped.values(), key=lambda s: s["end"] - s["start"])
    for s in clipped.values():
        if s["id"] == root["id"]:
            continue
        parent = s["parent"]
        if parent not in clipped:
            parent = next(
                (c["id"] for c in by_length
                 if c["id"] != s["id"]
                 and c["start"] <= s["start"] and s["end"] <= c["end"]
                 and (c["end"] - c["start"]) > (s["end"] - s["start"])),
                root["id"],
            )
        parents[s["id"]] = parent

    depth: dict[str, int] = {}

    def depth_of(span_id: str) -> int:
        chain = []
        while span_id not in depth and parents[span_id] is not None:
            chain.append(span_id)
            span_id = parents[span_id]
        level = depth.setdefault(span_id, 0)
        for item in reversed(chain):
            level += 1
            depth[item] = level
        return depth[chain[0]] if chain else level

    events = []
    for s in clipped.values():
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    self_time: dict[str, float] = {}
    active: list[tuple[int, float, str]] = []
    closed: set[str] = set()
    previous = lo
    for moment, kind, span_id in events:
        while active and active[0][2] in closed:
            heapq.heappop(active)
        if active and moment > previous:
            name = clipped[active[0][2]]["name"]
            self_time[name] = self_time.get(name, 0.0) + (moment - previous)
        previous = moment
        if kind == 1:
            s = clipped[span_id]
            heapq.heappush(active, (-depth_of(span_id), -s["start"], span_id))
        else:
            closed.add(span_id)
    return self_time
