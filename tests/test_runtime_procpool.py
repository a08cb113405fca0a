"""Differential tests: process-resident shards against the serial runtime.

The ``"processes"`` executor moves every shard into its own worker process;
these tests hold it to the exact same contract the in-process sharded
runtime satisfies (``test_runtime_sharded.py``): for every algorithm,
hosting the query set on 2 or 4 *worker-process* shards must produce
byte-identical top-k results, scores, thresholds and coalesced updates as
the serial in-process runtime — which is itself byte-identical to a single
:class:`ContinuousMonitor`.  On top of that: decay rebases inside the
workers, the unified fan-out
failure contract, and crash recovery through :class:`DurableMonitor` when a
worker is SIGKILLed mid-stream (per-shard WALs are written worker-side, so
a killed worker loses exactly its unflushed commit group).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import MonitorConfig
from repro.exceptions import StreamError, WorkerError
from repro.persistence.durable import DurabilityConfig, DurableMonitor
from repro.runtime.procpool import ProcessShardExecutor
from repro.runtime.sharded import ShardedMonitor

PROCESS_SHARD_COUNTS = (2, 4)
BATCH = 8
LAM = 1e-3

#: Every registered algorithm (MRIO under all three zone-bound variants,
#: plus the columnar batch engine) — the same matrix the in-process
#: differential suite runs.
ALGORITHM_CONFIGS = [
    pytest.param({"algorithm": "mrio", "ub_variant": "tree"}, id="mrio-tree"),
    pytest.param({"algorithm": "mrio", "ub_variant": "exact"}, id="mrio-exact"),
    pytest.param({"algorithm": "mrio", "ub_variant": "block"}, id="mrio-block"),
    pytest.param({"algorithm": "rio"}, id="rio"),
    pytest.param({"algorithm": "rta"}, id="rta"),
    pytest.param({"algorithm": "sortquer"}, id="sortquer"),
    pytest.param({"algorithm": "tps"}, id="tps"),
    pytest.param({"algorithm": "exhaustive"}, id="exhaustive"),
    pytest.param({"algorithm": "columnar"}, id="columnar"),
]

#: Both batch transports: "processes" resolves to the shared-memory ring
#: (when the host has one), "pipe" forces the framed-pipe fallback by
#: executor instance (see ``_run``) — the differential grid must hold
#: bit-for-bit under either.
PROCESS_EXECUTORS = ("processes", "pipe")


def _config(overrides, **extra):
    return MonitorConfig(lam=LAM, **overrides, **extra)


def _run(config, queries, documents, n_shards, executor):
    if executor == "pipe":
        executor = ProcessShardExecutor(n_shards, transport="pipe")
    monitor = ShardedMonitor(config, n_shards=n_shards, executor=executor)
    monitor.register_queries(queries)
    per_batch = []
    for start in range(0, len(documents), BATCH):
        per_batch.append(monitor.process_batch(documents[start : start + BATCH]))
    return monitor, per_batch


def _assert_identical_state(reference, candidate, queries, exact=True, label=""):
    for query in queries:
        want = reference.top_k(query.query_id)
        got = candidate.top_k(query.query_id)
        if exact:
            assert got == want, f"{label}: top-k differs for query {query.query_id}"
        else:
            assert [e.doc_id for e in got] == [e.doc_id for e in want], label
            for g, w in zip(got, want):
                assert g.score == pytest.approx(w.score, rel=1e-12)
        want_threshold = reference.threshold(query.query_id)
        got_threshold = candidate.threshold(query.query_id)
        if exact:
            assert got_threshold == want_threshold, f"{label}: threshold differs"
        else:
            assert got_threshold == pytest.approx(want_threshold, rel=1e-12)


class TestProcessShardEquivalence:
    """ShardedMonitor x {2, 4} process shards ≡ the serial in-process runtime."""

    @pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
    @pytest.mark.parametrize("n_shards", PROCESS_SHARD_COUNTS)
    @pytest.mark.parametrize("executor", PROCESS_EXECUTORS)
    def test_batched_ingestion_matches_serial_runtime(
        self, overrides, n_shards, executor, small_queries, small_documents
    ):
        exact = overrides["algorithm"] != "tps"
        label = f"{overrides}@{n_shards}/{executor}"
        serial, serial_batches = _run(
            _config(overrides), small_queries, small_documents, n_shards, "serial"
        )
        procs, procs_batches = _run(
            _config(overrides), small_queries, small_documents, n_shards, executor
        )
        try:
            _assert_identical_state(serial, procs, small_queries, exact, label)
            if exact:
                assert procs_batches == serial_batches, label
            else:
                for want, got in zip(serial_batches, procs_batches):
                    assert sorted(u.query_id for u in got) == sorted(
                        u.query_id for u in want
                    ), label
            assert procs.statistics.documents == serial.statistics.documents
            assert (
                procs.statistics.result_updates == serial.statistics.result_updates
            )
        finally:
            procs.close()
            serial.close()

    def test_per_event_ingestion_and_membership(self, small_queries, small_documents):
        config = {"algorithm": "mrio", "ub_variant": "tree"}
        serial = ShardedMonitor(_config(config), n_shards=3, executor="serial")
        procs = ShardedMonitor(_config(config), n_shards=3, executor="processes")
        try:
            serial.register_queries(small_queries[:80])
            procs.register_queries(small_queries[:80])
            for document in small_documents[:20]:
                assert procs.process(document) == serial.process(document)
            # Mid-stream unregister + late registration, across the pipes.
            for query in small_queries[:80:9]:
                assert (
                    procs.unregister(query.query_id).query_id
                    == serial.unregister(query.query_id).query_id
                )
            serial.register_queries(small_queries[80:])
            procs.register_queries(small_queries[80:])
            for document in small_documents[20:]:
                assert procs.process(document) == serial.process(document)
            assert procs.num_queries == serial.num_queries
            assert procs.all_results() == serial.all_results()
        finally:
            procs.close()
            serial.close()

    def test_window_expiration_matches(self, small_queries, small_documents):
        config = {"algorithm": "mrio", "ub_variant": "tree"}
        serial, _ = _run(
            _config(config, window_horizon=12.0),
            small_queries,
            small_documents,
            2,
            "serial",
        )
        procs, _ = _run(
            _config(config, window_horizon=12.0),
            small_queries,
            small_documents,
            2,
            "processes",
        )
        try:
            assert serial.live_window_size is not None
            assert procs.live_window_size == serial.live_window_size
            _assert_identical_state(serial, procs, small_queries)
        finally:
            procs.close()
            serial.close()

    def test_renormalization_inside_workers_matches_serial(
        self, small_queries, small_documents
    ):
        # Aggressive max_amplification forces decay rebases inside the
        # workers; an explicit rebase then fans out as one command.
        config = MonitorConfig(
            algorithm="mrio", lam=0.5, max_amplification=100.0, ub_variant="tree"
        )
        serial, _ = _run(config, small_queries, small_documents, 2, "serial")
        procs, _ = _run(config, small_queries, small_documents, 2, "processes")
        try:
            assert serial.shards[0].algorithm.decay.origin > 0.0, "no implicit rebase"
            origin = small_documents[-1].arrival_time + 1.0
            factor = serial.renormalize(origin)
            assert factor != 1.0
            assert procs.renormalize(origin) == factor
            for shard, twin in zip(serial.shards, procs.shards):
                assert twin.snapshot_encoded()["decay"] == shard.snapshot_encoded()["decay"]
            _assert_identical_state(serial, procs, small_queries)
        finally:
            procs.close()
            serial.close()


class TestFailureSemantics:
    """State after a failed fan-out is identical across executor flavours."""

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_stale_document_rejected_identically(
        self, executor, small_queries, small_documents
    ):
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        reference = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor="serial"
        )
        try:
            monitor.register_queries(small_queries)
            reference.register_queries(small_queries)
            head, stale, tail = (
                small_documents[:10],
                small_documents[3],
                small_documents[10:20],
            )
            for target in (monitor, reference):
                for document in head:
                    target.process(document)
                # A stale arrival violates stream order in *every* shard;
                # per the contract each shard rejects it and the first
                # failure in shard order is raised.
                with pytest.raises(StreamError):
                    target.process(stale)
                for document in tail:
                    target.process(document)
            _assert_identical_state(reference, monitor, small_queries, label=executor)
            assert monitor.statistics.documents == reference.statistics.documents
        finally:
            monitor.close()
            reference.close()


@pytest.mark.skipif(os.name != "posix", reason="SIGKILL semantics are POSIX-only")
class TestDurableProcessRecovery:
    """DurableMonitor over worker-resident shards: journal, kill, recover."""

    def _world(self, small_queries, small_documents):
        return small_queries, small_documents

    def test_worker_side_wals_and_graceful_restart(
        self, tmp_path, small_queries, small_documents
    ):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path / "state"), group_commit=4, checkpoint_interval=16
        )
        monitor = DurableMonitor(durability, config, n_shards=2, executor="processes")
        monitor.register_queries(small_queries)
        for start in range(0, len(small_documents), BATCH):
            monitor.process_batch(small_documents[start : start + BATCH])
        # The per-shard logs are created and written inside the workers.
        for shard_dir in ("shard-0000", "shard-0001"):
            wal_dir = tmp_path / "state" / shard_dir / "wal"
            assert any(wal_dir.iterdir()), f"{shard_dir} has no worker-side WAL"
        expected = {q.query_id: monitor.top_k(q.query_id) for q in small_queries}
        monitor.close(checkpoint=True)
        reopened = DurableMonitor.open(durability, executor="processes")
        try:
            assert {
                q.query_id: reopened.top_k(q.query_id) for q in small_queries
            } == expected
        finally:
            reopened.close()

    def test_sigkill_one_worker_then_recover(
        self, tmp_path, small_queries, small_documents
    ):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path / "state"), group_commit=4, checkpoint_interval=16
        )
        monitor = DurableMonitor(durability, config, n_shards=2, executor="processes")
        monitor.register_queries(small_queries)
        half = (len(small_documents) // (2 * BATCH)) * BATCH
        for start in range(0, half, BATCH):
            monitor.process_batch(small_documents[start : start + BATCH])
        monitor.flush()
        durable_results = {
            q.query_id: monitor.top_k(q.query_id) for q in small_queries
        }

        # Kill one worker outright: its pipe closes mid-protocol.
        victim = monitor.monitor.shards[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while victim.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(WorkerError):
            monitor.process_batch(small_documents[half : half + BATCH])
        # Sibling shards applied that batch (per the fan-out contract) but
        # nothing was journaled, so memory is ahead of the log: the facade
        # is poisoned and refuses further state-changing calls instead of
        # serving or widening a state recovery will discard.
        from repro.exceptions import PersistenceError

        with pytest.raises(PersistenceError):
            monitor.process_batch(small_documents[half : half + BATCH])
        monitor.close()

        # Recovery clamps every shard to the common durable prefix — the
        # state at the flush — and rehydrates fresh workers.
        recovered, report = DurableMonitor.recover(durability, executor="processes")
        try:
            assert {
                q.query_id: recovered.top_k(q.query_id) for q in small_queries
            } == durable_results
            # The recovered monitor continues the stream; the final state
            # matches an uninterrupted serial run processing the same events.
            for start in range(half, len(small_documents), BATCH):
                recovered.process_batch(small_documents[start : start + BATCH])
            reference = ShardedMonitor(
                MonitorConfig(algorithm="mrio", lam=LAM), n_shards=2, executor="serial"
            )
            reference.register_queries(small_queries)
            for start in range(0, len(small_documents), BATCH):
                reference.process_batch(small_documents[start : start + BATCH])
            _assert_identical_state(reference, recovered, small_queries)
            reference.close()
        finally:
            recovered.close()

    def test_per_event_records_replay_onto_worker_shards(
        self, tmp_path, small_queries, small_documents
    ):
        """A journaled per-event ``process`` replays by command name: on a
        worker handle the attribute ``process`` is the worker's OS process."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path / "state"), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config, n_shards=2, executor="processes")
        monitor.register_queries(small_queries)
        for document in small_documents[:6]:
            monitor.process(document)
        expected = monitor.all_results()
        monitor.close()
        recovered, report = DurableMonitor.recover(durability, executor="processes")
        try:
            assert report.replayed_documents == 6
            assert recovered.all_results() == expected
        finally:
            recovered.close()


class TestSharedMemoryTransport:
    """Ring-transport specifics: chunking, fallback, accounting, recovery."""

    def _differential(self, executor, small_queries, small_documents):
        serial, serial_batches = _run(
            _config({"algorithm": "mrio"}), small_queries, small_documents, 2, "serial"
        )
        procs, procs_batches = _run(
            _config({"algorithm": "mrio"}), small_queries, small_documents, 2, executor
        )
        try:
            assert procs_batches == serial_batches
            _assert_identical_state(serial, procs, small_queries)
        finally:
            procs.close()
            serial.close()

    def test_chunked_fanout_matches_unchunked(self, small_queries, small_documents):
        """A ring smaller than one batch forces stage/commit rounds.

        Splitting must be invisible: the worker buffers staged chunks and
        runs its engine once at the commit, so updates coalesce exactly as
        in the single-frame fan-out.
        """
        from repro.runtime.procpool import ProcessShardExecutor
        from repro.runtime.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no usable shared memory on this host")
        executor = ProcessShardExecutor(2, transport="shm", ring_bytes=4096)
        self._differential(executor, small_queries, small_documents)
        # Chunking happened: more fan-out rounds than batches were shipped
        # (the stats count every staged chunk's payload).
        assert executor.stats.payload_shm_bytes > 0
        assert executor.stats.payload_pipe_bytes == 0

    def test_oversized_frame_ships_via_pipe_tail(self, small_queries, small_documents):
        """A single document whose frame exceeds the ring rides the pipe."""
        from repro.runtime.procpool import ProcessShardExecutor
        from repro.runtime.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no usable shared memory on this host")
        executor = ProcessShardExecutor(2, transport="shm", ring_bytes=64)
        self._differential(executor, small_queries, small_documents)
        assert executor.stats.payload_pipe_bytes > 0
        assert executor.stats.payload_shm_bytes == 0

    def test_transport_surfaces_in_describe(self, small_queries):
        from repro.runtime.shm import shared_memory_available

        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor="processes"
        )
        pipe_monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}),
            n_shards=2,
            executor=ProcessShardExecutor(2, transport="pipe"),
        )
        serial_monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor="serial"
        )
        try:
            expected = "shm" if shared_memory_available() else "pipe"
            assert monitor.describe()["transport"] == expected
            assert pipe_monitor.describe()["transport"] == "pipe"
            assert serial_monitor.describe()["transport"] is None
        finally:
            monitor.close()
            pipe_monitor.close()
            serial_monitor.close()

    def test_stats_attribute_payload_to_the_active_transport(
        self, small_queries, small_documents
    ):
        from repro.runtime.procpool import ProcessShardExecutor
        from repro.runtime.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no usable shared memory on this host")
        shm_exec = ProcessShardExecutor(2, transport="shm")
        pipe_exec = ProcessShardExecutor(2, transport="pipe")
        for executor in (shm_exec, pipe_exec):
            monitor = ShardedMonitor(
                _config({"algorithm": "mrio"}), n_shards=2, executor=executor
            )
            try:
                monitor.register_queries(small_queries)
                executor.stats.reset()
                monitor.process_batch(small_documents[:BATCH])
            finally:
                monitor.close()
        # shm: the batch is written once, descriptors cross the pipes.
        assert shm_exec.stats.payload_shm_bytes > 0
        assert shm_exec.stats.payload_pipe_bytes == 0
        # pipe: the same frame crosses once per worker.
        assert pipe_exec.stats.payload_shm_bytes == 0
        assert pipe_exec.stats.payload_pipe_bytes == 2 * shm_exec.stats.payload_shm_bytes
        per_event = shm_exec.stats.per_event()
        assert per_event["payload_shm"] > 0
        assert per_event["control"] < 64  # descriptors stay tiny

    @pytest.mark.skipif(os.name != "posix", reason="SIGKILL semantics are POSIX-only")
    def test_sigkill_worker_holding_a_slot_does_not_wedge_the_ring(
        self, small_queries, small_documents
    ):
        """A worker killed before acknowledging must not leak its ring slot.

        The fan-out frees the slot once every worker has answered *or
        failed*; a dead worker counts as failed, so the ring drains and the
        surviving workers' results are intact.
        """
        from repro.runtime.procpool import ProcessShardExecutor
        from repro.runtime.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no usable shared memory on this host")
        executor = ProcessShardExecutor(2, transport="shm")
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            monitor.process_batch(small_documents[:BATCH])
            victim = monitor.shards[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            with pytest.raises(WorkerError):
                monitor.process_batch(small_documents[BATCH : 2 * BATCH])
            assert executor._ring is not None
            assert executor._ring.in_flight == 0
        finally:
            monitor.close()


class TestWorkerLifecycle:
    """Spawn-failure paths must leak neither processes nor shm segments."""

    def test_mid_construction_failure_reaps_started_workers(
        self, monkeypatch, small_queries
    ):
        """If worker k dies during spawn, workers 0..k-1 are torn down.

        Regression test: the executor used to leave earlier workers (and
        the ring segment) alive when a later worker failed its handshake,
        leaking processes until interpreter exit.
        """
        from repro.runtime import procpool

        real_main = procpool._shard_worker_main

        def flaky_main(conn, shard_id, config, ring_name=None):
            if shard_id == 2:
                os._exit(3)
            real_main(conn, shard_id, config, ring_name)

        monkeypatch.setattr(procpool, "_shard_worker_main", flaky_main)
        executor = procpool.ProcessShardExecutor(3)
        with pytest.raises(WorkerError):
            executor.spawn_shards(_config({"algorithm": "mrio"}))
        assert executor._handles is None
        assert executor._ring is None
        # The executor stays usable: a healthy respawn works end to end.
        monkeypatch.setattr(procpool, "_shard_worker_main", real_main)
        handles = executor.spawn_shards(_config({"algorithm": "mrio"}))
        assert len(handles) == 3
        assert all(h.process.is_alive() for h in handles)
        executor.close()
        assert all(not h.process.is_alive() for h in handles)

    def test_close_is_idempotent_and_respawnable(self):
        from repro.runtime.procpool import ProcessShardExecutor

        executor = ProcessShardExecutor(2)
        executor.close()  # before any spawn: a no-op
        handles = executor.spawn_shards(_config({"algorithm": "mrio"}))
        executor.close()
        executor.close()
        assert all(not h.process.is_alive() for h in handles)
        handles = executor.spawn_shards(_config({"algorithm": "mrio"}))
        assert len(handles) == 2
        executor.close()
