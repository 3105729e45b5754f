"""Direct coverage for ResultStore resume semantics, its manifest
journal, and the pickle survival of the library's rich exceptions.

``ResultStore`` is the resume backbone of long sessions and
``ConvergenceError``/``PeOutOfMemory`` carry extra constructor arguments
that would break the default reduce protocol across process pools —
both previously had only incidental coverage.
"""

import json
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from helpers import make_problem
import repro
from repro.backends import SolveResult, StepResult
from repro.session import ResultStore, _execute_entry_in_worker, plan_entry
from repro.util.errors import ConfigurationError, ConvergenceError, PeOutOfMemory

REF_SPEC = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-8)


def _plan(session, n=2):
    problems = [make_problem(4, 3, 2, seed=s) for s in range(n)]
    return session.plan(problems, REF_SPEC, backend="reference")


class TestResultStoreResume:
    def test_round_trips_pressure_and_history_exactly(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        session = repro.Session(store=store)
        plan = _plan(session, n=1)
        [first] = plan.run(executor="serial")
        assert first.ok and not first.from_store
        loaded = store.load(plan.entries[0].fingerprint)
        np.testing.assert_array_equal(loaded.pressure, first.result.pressure)
        assert loaded.residual_history == [
            float(v) for v in first.result.residual_history
        ]
        assert loaded.iterations == first.result.iterations
        assert loaded.converged == first.result.converged
        assert loaded.telemetry["from_store"] is True

    def test_resume_skips_completed_entries_across_instances(self, tmp_path):
        """A fresh Session + fresh ResultStore over the same directory
        resumes from the manifest — the crash-recovery contract."""
        first = _plan(repro.Session(store=tmp_path / "runs")).run(executor="serial")
        assert [r.from_store for r in first] == [False, False]
        again = _plan(repro.Session(store=tmp_path / "runs")).run(executor="serial")
        assert [r.from_store for r in again] == [True, True]
        for a, b in zip(first, again):
            np.testing.assert_array_equal(b.result.pressure, a.result.pressure)

    def test_resume_false_resolves_again(self, tmp_path):
        session = repro.Session(store=tmp_path / "runs")
        _plan(session).run(executor="serial")
        rerun = _plan(session).run(executor="serial", resume=False)
        assert [r.from_store for r in rerun] == [False, False]

    def test_has_requires_both_manifest_and_npz(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        session = repro.Session(store=store)
        plan = _plan(session, n=1)
        plan.run(executor="serial")
        fingerprint = plan.entries[0].fingerprint
        assert store.has(fingerprint) and fingerprint in store
        # A manifest record whose payload file vanished must not count as
        # resumable (and must re-solve, not crash, on the next run).
        (store.root / f"{fingerprint}.npz").unlink()
        assert not store.has(fingerprint)
        resumed = repro.Session(store=ResultStore(tmp_path / "runs")).plan(
            [make_problem(4, 3, 2, seed=0)], REF_SPEC, backend="reference"
        ).run(executor="serial")
        assert resumed[0].ok and not resumed[0].from_store

    def test_manifest_is_atomic_and_reloadable(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        session = repro.Session(store=store)
        plan = _plan(session)
        plan.run(executor="serial")
        assert not list(store.root.glob("*.tmp"))  # atomic replace cleaned up
        reloaded = ResultStore(tmp_path / "runs")
        assert len(reloaded) == 2
        assert reloaded.keys() == store.keys()
        records = reloaded.records()
        assert {r["backend"] for r in records} == {"reference"}
        assert all(r["spec"] == REF_SPEC.to_dict() for r in records)

    def test_load_unknown_fingerprint_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no entry"):
            ResultStore(tmp_path / "runs").load("deadbeef")

    def test_batched_executor_populates_and_resumes_store(self, tmp_path):
        problems = [make_problem(4, 4, 2, seed=s) for s in range(3)]
        spec = repro.SolveSpec.from_kwargs(
            spec=repro.spec.WseSpecs(  # small fabric keeps the run tiny
                name="t", fabric_width=8, fabric_height=8,
                pe_memory_bytes=48 * 1024, clock_hz=1e9, simd_width_f32=2,
                peak_flops=1e12, memory_bandwidth_bytes=1e12,
                fabric_bandwidth_bytes=1e12,
            ),
            dtype="float64", rel_tol=1e-9, engine="vectorized",
        )
        session = repro.Session(store=tmp_path / "runs")
        first = session.plan(problems, spec, backend="wse").run(executor="batched")
        assert all(r.ok and r.engine == "batched" for r in first)
        second = repro.Session(store=tmp_path / "runs").plan(
            problems, spec, backend="wse"
        ).run(executor="batched")
        assert all(r.from_store for r in second)


def _step(step=1, seed=0):
    rng = np.random.default_rng(seed)
    return StepResult(
        step=step, time=0.5 * step, dt=0.5,
        pressure=rng.random((3, 3, 2)), iterations=2, converged=True,
        residual_history=[1.0, 0.01], elapsed_seconds=0.001, backend="wse",
        telemetry={"time_kind": "modeled"},
    )


def _result(seed=0):
    rng = np.random.default_rng(seed)
    return SolveResult(
        pressure=rng.random((3, 3, 2)), iterations=3 + seed, converged=True,
        residual_history=[1.0, 0.01], elapsed_seconds=0.001,
        backend="reference", telemetry={"time_kind": "wall"},
    )


#: Steady entries shared by the journal tests (fingerprinting is not free).
ENTRIES = [plan_entry(make_problem(3, 3, 2, seed=s), REF_SPEC, "reference")
           for s in range(3)]


def _journal(root):
    return root / ResultStore.JOURNAL


def _journal_lines(root):
    """Every journal line, each checked to end in a newline and parse."""
    data = _journal(root).read_bytes()
    assert data.endswith(b"\n")
    return [json.loads(line) for line in data.splitlines()]


class TestManifestJournal:
    def test_append_bytes_do_not_depend_on_store_size(self, tmp_path):
        """One step append writes the same bytes with 1 and with 1,000
        fingerprints in the store, and never rewrites what was there."""
        appended = []
        for n, root in ((1, tmp_path / "small"), (1000, tmp_path / "large")):
            store = ResultStore(root)
            for i in range(n):
                store.save_simulation_step(f"other{i:04d}", _step())
            before = _journal(root).read_bytes()
            inode = _journal(root).stat().st_ino
            store.save_simulation_step("target", _step(), meta={"n_steps": 4})
            after = _journal(root).read_bytes()
            assert _journal(root).stat().st_ino == inode  # no rewrite
            assert after.startswith(before)
            appended.append(after[len(before):])
            assert len(ResultStore(root)) == n + 1
        assert appended[0] == appended[1]
        assert appended[0].count(b"\n") == 1

    def test_torn_tail_is_ignored_then_truncated(self, tmp_path):
        store = ResultStore(tmp_path)
        for s, entry in enumerate(ENTRIES[:2]):
            store.save(entry, _result(s))
        reader = ResultStore(tmp_path)  # opened before the tear
        with open(_journal(tmp_path), "ab") as fh:
            fh.write(b'{"op":"put","key":"torn","record":{"itera')
        for probe in (ResultStore(tmp_path), reader):
            assert probe.keys() == sorted(e.fingerprint for e in ENTRIES[:2])
            assert probe.load(ENTRIES[0].fingerprint).iterations == 3
        ResultStore(tmp_path).save(ENTRIES[2], _result(2))
        assert all(line["op"] != "put" or line["key"] != "torn"
                   for line in _journal_lines(tmp_path))
        expected = sorted(e.fingerprint for e in ENTRIES)
        assert ResultStore(tmp_path).keys() == expected
        assert reader.keys() == expected
        assert store.get(ENTRIES[2].fingerprint)["iterations"] == 5

    def test_legacy_manifest_opens_loads_and_migrates(self, tmp_path):
        """A store written as one ``manifest.json`` document (steady and
        ``#steps`` records, compressed step files) still opens, loads
        and takes further writes."""
        writer = ResultStore(tmp_path)
        writer.save(ENTRIES[0], _result(0))
        writer.save_simulation_step("sim", _step(1), meta={"n_steps": 3})
        legacy = {r_key: writer.get(r_key) for r_key in writer.keys()}
        step_file = tmp_path / "sim.steps" / "00001.npz"
        with np.load(step_file) as arrays:
            np.savez_compressed(step_file, **dict(arrays))
        _journal(tmp_path).unlink()
        (tmp_path / "manifest.json").write_text(
            json.dumps(legacy, indent=2, sort_keys=True)
        )

        store = ResultStore(tmp_path)
        assert store.keys() == sorted(legacy)
        assert store.load(ENTRIES[0].fingerprint).iterations == 3
        assert store.simulation_steps_completed("sim") == 1
        (loaded,) = store.load_simulation_steps("sim")
        np.testing.assert_array_equal(loaded.pressure, _step(1).pressure)

        store.save_simulation_step("sim", _step(2))
        store.save(ENTRIES[1], _result(1))
        assert not (tmp_path / "manifest.json").exists()
        fresh = ResultStore(tmp_path)
        assert fresh.keys() == sorted([*legacy, ENTRIES[1].fingerprint])
        assert fresh.simulation_steps_completed("sim") == 2
        assert fresh.get("sim#steps")["n_steps"] == 3

    def test_compaction_keeps_exactly_the_live_records(self, tmp_path):
        store = ResultStore(tmp_path)
        early = ResultStore(tmp_path)  # opened before any compaction
        store.save_simulation_step("a", _step(1))
        inode = _journal(tmp_path).stat().st_ino
        store.save_simulation_step("b", _step(1))
        store.clear_simulation("b")  # 3 record lines, 1 live: compacts
        assert _journal(tmp_path).stat().st_ino != inode
        head, *records = _journal_lines(tmp_path)
        assert head["op"] == "head"
        assert [(r["op"], r["key"]) for r in records] == [("put", "a#steps")]
        assert records[0]["record"] == store.get("a#steps")

        store.save_simulation_step("a", _step(2))
        assert early.keys() == ["a#steps"]
        assert early.simulation_steps_completed("a") == 2
        early.save(ENTRIES[0], _result(0))  # a writer from before, too
        assert store.keys() == sorted(["a#steps", ENTRIES[0].fingerprint])
        assert ResultStore(tmp_path).records() == store.records()

    def test_new_generation_at_a_reused_inode_replays_from_start(self, tmp_path):
        """A compaction can hand the journal an inode number a reader saw
        before; the header, not the inode, tells the generations apart."""
        store = ResultStore(tmp_path / "a")
        store.save(ENTRIES[0], _result(0))
        reader = ResultStore(tmp_path / "a")
        other = ResultStore(tmp_path / "b")
        for s, entry in enumerate(ENTRIES[1:], start=1):
            other.save(entry, _result(s))
        other.save_simulation_step("sim", _step(1))
        inode = _journal(tmp_path / "a").stat().st_ino
        with open(_journal(tmp_path / "a"), "r+b") as fh:  # same inode
            fh.truncate(0)
            fh.write(_journal(tmp_path / "b").read_bytes())
        assert _journal(tmp_path / "a").stat().st_ino == inode
        assert reader.records() == other.records()


class JournalMachine(RuleBasedStateMachine):
    """Two store instances on one root against a dict model, through
    interleaved saves, step appends, clears, reopens and torn tails."""

    FINGERPRINTS = ("s0", "s1", "s2")

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="journal-"))
        self.stores = [ResultStore(self.root), ResultStore(self.root)]
        self.steady: dict[str, int] = {}  # fingerprint -> iterations
        self.steps: dict[str, int] = {}   # fingerprint -> steps completed

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(who=st.integers(0, 1), index=st.integers(0, 2), seed=st.integers(0, 9))
    def save(self, who, index, seed):
        entry = ENTRIES[index]
        self.stores[who].save(entry, _result(seed))
        self.steady[entry.fingerprint] = 3 + seed

    @rule(index=st.integers(0, 2), seed=st.integers(0, 9))
    def save_back_to_back(self, index, seed):
        """Both instances write one key with no read in between: the
        second writer must end up holding its own record, not the one it
        replays on the way to appending."""
        entry = ENTRIES[index]
        self.stores[0].save(entry, _result(seed))
        self.stores[1].save(entry, _result(9 - seed))
        self.steady[entry.fingerprint] = 3 + 9 - seed

    @rule(who=st.integers(0, 1), fp=st.sampled_from(FINGERPRINTS))
    def append_step(self, who, fp):
        step = self.steps.get(fp, 0) + 1
        self.stores[who].save_simulation_step(fp, _step(step, seed=step))
        self.steps[fp] = step

    @rule(who=st.integers(0, 1), fp=st.sampled_from(FINGERPRINTS))
    def clear(self, who, fp):
        self.stores[who].clear_simulation(fp)
        self.steps.pop(fp, None)

    @rule(who=st.integers(0, 1))
    def reopen(self, who):
        self.stores[who] = ResultStore(self.root)

    @rule(junk=st.binary(min_size=1, max_size=40).filter(lambda b: b"\n" not in b))
    def tear_tail(self, junk):
        journal = _journal(self.root)
        if journal.exists():
            with open(journal, "ab") as fh:
                fh.write(junk)

    @invariant()
    def both_instances_match_the_model(self):
        keys = sorted([*self.steady, *(f"{fp}#steps" for fp in self.steps)])
        for store in self.stores:
            assert store.keys() == keys
            for fingerprint, iterations in self.steady.items():
                assert store.get(fingerprint)["iterations"] == iterations
            for fp in self.FINGERPRINTS:
                assert store.simulation_steps_completed(fp) == self.steps.get(fp, 0)

    @invariant()
    def every_complete_line_parses(self):
        journal = _journal(self.root)
        if journal.exists():
            for line in journal.read_bytes().split(b"\n")[:-1]:
                json.loads(line)


TestJournalStateMachine = JournalMachine.TestCase
TestJournalStateMachine.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)


class TestErrorPickling:
    def test_convergence_error_survives_pickle(self):
        err = ConvergenceError("no luck", iterations=123, residual_norm=4.5e-3)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ConvergenceError)
        assert str(clone) == "no luck"
        assert clone.iterations == 123
        assert clone.residual_norm == 4.5e-3

    def test_pe_out_of_memory_survives_pickle(self):
        err = PeOutOfMemory("full", requested=256, available=128, capacity=49152)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, PeOutOfMemory)
        assert (clone.requested, clone.available, clone.capacity) == (256, 128, 49152)
        assert str(clone) == "full"

    def test_reduce_reconstructs_with_full_signature(self):
        """__reduce__ must hand back every constructor argument — the
        default protocol would re-call __init__ with only the message."""
        cls, args = ConvergenceError("m", 7, 0.25).__reduce__()
        assert cls is ConvergenceError and args == ("m", 7, 0.25)
        cls, args = PeOutOfMemory("m", 1, 2, 3).__reduce__()
        assert cls is PeOutOfMemory and args == ("m", 1, 2, 3)

    def test_worker_replaces_unpicklable_errors(self, tmp_path):
        """_execute_entry_in_worker must never ship an exception that
        explodes at deserialization time."""

        class Unpicklable(Exception):
            def __init__(self, message, detail):  # two required args +
                super().__init__(message)         # default reduce = boom
                self.detail = detail

            def __reduce__(self):
                return (self.__class__, (self.args[0],))  # wrong arity

        class ExplodingBackend:
            name = "exploding-test-backend"

            def solve(self, problem, spec=None):
                raise Unpicklable("kaboom", detail=42)

        repro.register_backend(ExplodingBackend(), overwrite=True)
        try:
            session = repro.Session()
            plan = session.plan(
                [make_problem(3, 3, 2)], REF_SPEC, backend=ExplodingBackend.name
            )
            result, error, elapsed = _execute_entry_in_worker(plan.entries[0])
            assert result is None and elapsed >= 0
            # The stand-in is picklable and names the original error.
            clone = pickle.loads(pickle.dumps(error))
            assert isinstance(clone, RuntimeError)
            assert "Unpicklable" in str(clone) and "kaboom" in str(clone)
        finally:
            pass  # registry is process-local; the throwaway name is inert

    def test_library_errors_cross_a_real_process_pool(self):
        """End-to-end: a ConvergenceError raised in a worker process
        arrives intact (type + attributes) at the parent."""
        problem = make_problem(4, 4, 2, seed=3)
        tight = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-12, max_iters=1)
        plan = repro.Session().plan([(problem, tight, "reference")])
        [res] = plan.run(executor="process", n_workers=2)
        assert not res.ok
        assert isinstance(res.error, ConvergenceError)
        assert res.error.iterations >= 0
        assert res.error.residual_norm > 0
