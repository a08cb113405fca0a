"""Failover differentials: kill a primary, promote its standby, lose nothing.

The cluster's recovery claim is the same bit-for-bit claim every other layer
makes: after a primary shard host dies — SIGKILLed from outside or crashed
at a deliberately chosen instant inside the commit path — the promoted
standby plus the router's redo replay must leave the partition in exactly
the state an uninterrupted serial run reaches.  The suite drives that claim
over every algorithm config x {2, 4} partitions (mirroring
``test_runtime_procpool.py``), then pins the two crash-window edges with
``fail_next`` injection, the bounded-replication-lag contract, and the
WAL-shipping machinery itself (segment catch-up, gap detection, replica
replay through the normal recovery path).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.cluster.remote import RemoteShardExecutor
from repro.cluster.replication import ReplicationSender
from repro.cluster.transport import FrameSocket
from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.exceptions import ReplicationError, WorkerError
from repro.persistence import codec
from repro.persistence.replication import ReplicaApplier
from repro.persistence.wal import WriteAheadLog
from repro.runtime.sharded import ShardedMonitor
from repro.service.server import MonitorServer, ServiceConfig

REMOTE_SHARD_COUNTS = (2, 4)
BATCH = 8
LAM = 1e-3

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


def _config(overrides, **extra):
    return MonitorConfig(lam=LAM, **overrides, **extra)


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


def _drive_with_kill(
    config, queries, documents, n_shards, kill, executor_kwargs=None
):
    """Run the stream on a replicated remote fleet, invoking ``kill`` once
    mid-stream (before the middle batch); returns (monitor, executor)."""
    kwargs = {"replicas": 1, "max_lag_records": 4}
    kwargs.update(executor_kwargs or {})
    executor = RemoteShardExecutor(n_shards, **kwargs)
    monitor = ShardedMonitor(config, n_shards=n_shards, executor=executor)
    monitor.register_queries(queries)
    kill_at = (len(documents) // (2 * BATCH)) * BATCH
    for start in range(0, len(documents), BATCH):
        if start == kill_at:
            kill(executor)
        monitor.process_batch(documents[start : start + BATCH])
    return monitor, executor


def _sigkill_primary(executor, shard_id=0):
    victim = executor.handles[shard_id].primary.process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10.0)


@pytest.mark.skipif(os.name != "posix", reason="SIGKILL semantics are POSIX-only")
class TestSigkillFailoverDifferential:
    """SIGKILL a primary mid-stream: promoted state ≡ serial replay."""

    @pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
    @pytest.mark.parametrize("n_shards", REMOTE_SHARD_COUNTS)
    def test_promotion_resumes_byte_identical(
        self, overrides, n_shards, small_queries, small_documents
    ):
        exact = overrides["algorithm"] != "tps"
        label = f"{overrides}@{n_shards}/failover"
        serial = ShardedMonitor(
            _config(overrides), n_shards=n_shards, executor="serial"
        )
        serial.register_queries(small_queries)
        for start in range(0, len(small_documents), BATCH):
            serial.process_batch(small_documents[start : start + BATCH])
        monitor, executor = _drive_with_kill(
            _config(overrides),
            small_queries,
            small_documents,
            n_shards,
            _sigkill_primary,
        )
        try:
            _assert_identical_state(serial, monitor, small_queries, exact, label)
            assert executor.handles[0].failovers == 1
            summary = monitor.replication_summary
            assert summary["failovers"] == 1
            # The promoted primary keeps serving reads and health checks.
            assert monitor.check_health() == {
                shard: True for shard in range(n_shards)
            }
        finally:
            monitor.close()
            serial.close()

    def test_offline_single_engine_replay_matches(
        self, small_queries, small_documents
    ):
        """The durable claim, stated against a *single* engine: replaying
        the stream offline equals the promoted cluster state."""
        offline = ContinuousMonitor(_config({"algorithm": "mrio"}))
        for query in small_queries:
            offline.register_query(query)
        for start in range(0, len(small_documents), BATCH):
            offline.process_batch(small_documents[start : start + BATCH])
        monitor, _ = _drive_with_kill(
            _config({"algorithm": "mrio"}),
            small_queries,
            small_documents,
            2,
            _sigkill_primary,
        )
        try:
            for query in small_queries:
                assert monitor.top_k(query.query_id) == offline.top_k(query.query_id)
                assert monitor.threshold(query.query_id) == offline.threshold(
                    query.query_id
                )
        finally:
            monitor.close()

    def test_partition_lost_when_no_standby_remains(
        self, small_queries, small_documents
    ):
        executor = RemoteShardExecutor(2, replicas=0)
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            monitor.process_batch(small_documents[:BATCH])
            _sigkill_primary(executor)
            with pytest.raises(WorkerError):
                monitor.process_batch(small_documents[BATCH : 2 * BATCH])
        finally:
            monitor.close()

    def test_heartbeat_detects_death_and_fails_over_idle(
        self, small_queries, small_documents
    ):
        """check_health() promotes a dead partition without a stream event."""
        executor = RemoteShardExecutor(2, replicas=1, max_lag_records=4)
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            monitor.process_batch(small_documents[:BATCH])
            _sigkill_primary(executor, shard_id=1)
            assert monitor.check_health() == {0: True, 1: True}
            assert executor.handles[1].failovers == 1
            # And the promoted partition keeps processing correctly.
            serial = ShardedMonitor(
                _config({"algorithm": "mrio"}), n_shards=2, executor="serial"
            )
            serial.register_queries(small_queries)
            for start in range(0, 2 * BATCH, BATCH):
                serial.process_batch(small_documents[start : start + BATCH])
            monitor.process_batch(small_documents[BATCH : 2 * BATCH])
            _assert_identical_state(serial, monitor, small_queries)
            serial.close()
        finally:
            monitor.close()


@pytest.mark.skipif(os.name != "posix", reason="crash injection uses os._exit")
class TestCrashWindows:
    """``fail_next`` pins the two edges of the commit path's crash window."""

    @pytest.mark.parametrize("mode", ["before_journal", "after_replicate"])
    @pytest.mark.parametrize("min_replicas", [0, 1])
    def test_crash_window_recovers_byte_identical(
        self, mode, min_replicas, small_queries, small_documents
    ):
        serial = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor="serial"
        )
        serial.register_queries(small_queries)
        for start in range(0, len(small_documents), BATCH):
            serial.process_batch(small_documents[start : start + BATCH])

        def arm(executor):
            handle = executor.handles[0]
            handle._client_call(handle.primary, "fail_next", mode)

        monitor, executor = _drive_with_kill(
            _config({"algorithm": "mrio"}),
            small_queries,
            small_documents,
            2,
            arm,
            executor_kwargs={"min_replicas": min_replicas},
        )
        try:
            label = f"{mode}/min_replicas={min_replicas}"
            _assert_identical_state(serial, monitor, small_queries, label=label)
            assert executor.handles[0].failovers == 1, label
        finally:
            monitor.close()
            serial.close()


class TestReplicationLag:
    def test_lag_is_bounded_and_observable(self, small_queries, small_documents):
        max_lag = 2
        executor = RemoteShardExecutor(2, replicas=1, max_lag_records=max_lag)
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            for start in range(0, len(small_documents), BATCH):
                monitor.process_batch(small_documents[start : start + BATCH])
                summary = monitor.replication_summary
                for shard_id, lag in summary["replication_lag_records"].items():
                    assert 0 <= lag <= max_lag, (shard_id, lag)
            health = monitor.replication_health()
            for shard_id, status in health.items():
                assert status["primary"] is True
                assert status["last_lsn"] - status["applied_lsn"] <= max_lag
                assert status["replicas"], shard_id
                for replica in status["replicas"]:
                    assert not replica["failed"]
                    assert status["last_lsn"] - replica["acked_lsn"] <= max_lag
        finally:
            monitor.close()

    def test_min_replicas_acks_are_synchronous(self, small_queries, small_documents):
        executor = RemoteShardExecutor(2, replicas=1, min_replicas=1)
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            for start in range(0, 3 * BATCH, BATCH):
                monitor.process_batch(small_documents[start : start + BATCH])
                # Synchronous replication: every acked record is standby-acked
                # by reply time, so the router-visible lag is always zero.
                summary = monitor.replication_summary
                assert all(
                    lag == 0 for lag in summary["replication_lag_records"].values()
                ), summary
        finally:
            monitor.close()

    def test_stats_op_carries_cluster_counters(self, small_queries, small_documents):
        """The service layer surfaces replication facts per the PR-7 stats
        contract: ServiceCounters fields + a ``replication`` section."""
        import asyncio

        executor = RemoteShardExecutor(2, replicas=1, max_lag_records=4)
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        monitor.register_queries(small_queries[:20])
        monitor.process_batch(small_documents[:BATCH])
        server = MonitorServer(monitor, ServiceConfig())
        snapshot = server.stats_snapshot()
        assert snapshot["replication"]["replicas"] == 1
        assert set(snapshot["service"]["replica_applied_lsns"]) == {"0", "1"}
        assert snapshot["service"]["failovers"] == 0
        assert snapshot["service"]["replication_lag_records"] <= 4

        async def scenario():
            await server.start()
            try:
                from repro.service.client import MonitorClient

                client = await MonitorClient.connect(*server.address)
                stats = await client.stats()
                assert stats["replication"]["replicas"] == 1
                assert "replica_applied_lsns" in stats["service"]
                await client.close()
            finally:
                await server.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))


class TestWalShipping:
    """The shipping machinery itself, against an in-test subscriber."""

    def _standby_server(self, received, greet_lsn=0, acks=True):
        """A minimal WAL subscriber: accepts one sender, records lsns.

        With ``acks=False`` it vanishes instead: the first record goes
        un-acked and the accepted connection is dropped.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        done = threading.Event()

        def serve():
            conn, _ = listener.accept()
            frames = FrameSocket(conn)
            try:
                header, _ = codec.unpack_frame(frames.recv_bytes())
                assert header.get("r") == "wal"
                frames.send_bytes(codec.pack_frame({"k": "sub", "a": greet_lsn}))
                while True:
                    header, tail = codec.unpack_frame(frames.recv_bytes())
                    record = codec.unpack_line(bytes(tail))
                    assert record["lsn"] == header["l"]
                    received.append(int(header["l"]))
                    if not acks:
                        return
                    frames.send_bytes(
                        codec.pack_frame({"k": "ack", "l": int(header["l"])})
                    )
            except (EOFError, OSError):
                pass
            finally:
                frames.close()
                done.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener.getsockname()[:2], listener, done

    @staticmethod
    def _journal(wal, lsn):
        line = codec.pack_line(
            {
                "v": codec.CODEC_VERSION,
                "lsn": lsn,
                "kind": codec.KIND_RENORMALIZE,
                "data": {"origin": float(lsn)},
            }
        )
        wal.append_line(line, lsn)
        return line

    def test_segment_catchup_then_live_handoff(self, tmp_path):
        """A standby attaching late first receives the durable suffix past
        its greeting LSN (across sealed segments), then live offers —
        gapless and in order."""
        wal = WriteAheadLog(
            str(tmp_path / "wal"), group_commit=1, segment_max_bytes=128
        )
        for lsn in range(1, 11):
            self._journal(wal, lsn)
        wal.flush()
        assert len(wal.segments()) > 1, "workload did not seal a segment"

        received = []
        address, listener, done = self._standby_server(received, greet_lsn=3)
        sender = ReplicationSender(wal, address, max_frame_bytes=1 << 20)
        try:
            sender.start()
            assert sender.wait_for(10, timeout=10.0)
            for lsn in range(11, 14):
                line = self._journal(wal, lsn)
                sender.offer(lsn, line)
            assert sender.wait_for(13, timeout=10.0)
            assert received == list(range(4, 14))
            assert sender.acked_lsn == 13
            assert not sender.failed
        finally:
            sender.stop()
            listener.close()
            wal.close()
            done.wait(timeout=5)

    def test_dead_subscriber_fails_the_sender_not_the_primary(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), group_commit=1)
        self._journal(wal, 1)
        wal.flush()
        received = []
        address, listener, done = self._standby_server(received, acks=False)
        sender = ReplicationSender(wal, address, max_frame_bytes=1 << 20)
        try:
            sender.start()
            listener.close()
            # The subscriber never acks and then vanishes: the sender marks
            # itself failed and wakes waiters instead of blocking forever.
            assert done.wait(timeout=5)
            started = time.perf_counter()
            assert sender.wait_for(1, timeout=10.0) is False
            assert time.perf_counter() - started < 2.0
            assert sender.failed is True
            assert received == [1]
        finally:
            sender.stop()
            wal.close()

    def test_replica_applier_replays_through_recovery_path(self, tmp_path):
        """Shipped lines drive a standby :class:`ContinuousMonitor` host through the
        normal record-replay path, write-through to its own WAL."""
        from tests.helpers import make_document

        primary_wal = WriteAheadLog(str(tmp_path / "primary"), group_commit=1)
        standby_wal = WriteAheadLog(str(tmp_path / "standby"), group_commit=1)
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        direct = ContinuousMonitor(config)
        standby = ContinuousMonitor(config)
        applier = ReplicaApplier(standby, wal=standby_wal, shard_id=0)

        from repro.queries.query import Query
        from repro.text.similarity import l2_normalize

        query = Query(query_id=1, vector=l2_normalize({1: 1.0, 2: 0.5}), k=2)
        kind, data = codec.register_record(query, shard=0)
        records = [(kind, data)]
        for doc_id in range(3):
            document = make_document(doc_id, {1: 1.0, 2: 1.0}, float(doc_id + 1))
            records.append(codec.document_record(document))

        lines = []
        for lsn, (kind, data) in enumerate(records, start=1):
            line = codec.pack_line(
                {"v": codec.CODEC_VERSION, "lsn": lsn, "kind": kind, "data": data}
            )
            primary_wal.append_line(line, lsn)
            lines.append(line)

        direct.register_query(query)
        for doc_id in range(3):
            direct.process(make_document(doc_id, {1: 1.0, 2: 1.0}, float(doc_id + 1)))

        for line in lines:
            applier.apply_line(line)
        assert applier.applied_lsn == len(lines)
        assert standby.top_k(1) == direct.top_k(1)
        assert standby.threshold(1) == direct.threshold(1)
        standby_wal.flush()
        assert standby_wal.last_lsn == len(lines)

        # A gap is an integrity violation, not a lag.
        with pytest.raises(ReplicationError):
            applier.apply_line(
                codec.pack_line(
                    {
                        "v": codec.CODEC_VERSION,
                        "lsn": len(lines) + 5,
                        "kind": codec.KIND_RENORMALIZE,
                        "data": {"origin": 1.0},
                    }
                )
            )
        primary_wal.close()
        standby_wal.close()
