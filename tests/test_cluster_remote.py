"""Differential tests: socket-served remote shards against the serial runtime.

The ``"remote"`` executor hosts each shard in its own *shard-host* process
behind the cluster wire protocol (length-prefixed codec frames over
loopback TCP) — the deployment shape of a multi-box cluster, minus the
boxes.  These tests hold it to the exact contract the process executor
satisfies in ``test_runtime_procpool.py``: for every algorithm, hosting the
query set on 2 or 4 remote shards must produce byte-identical top-k
results, scores, thresholds and coalesced updates as the serial in-process
runtime.  On top of that: the ``shard-host`` service role, wire-byte
accounting, and the rule that an error a *shard* raises over a healthy
connection is not a failover.

Failover itself (killed primaries, promotion, redo) lives in
``test_cluster_failover.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.host import ShardHost
from repro.cluster.remote import RemoteShardExecutor
from repro.cluster.transport import FrameSocket
from repro.core.config import MonitorConfig
from repro.exceptions import ConfigurationError, StreamError
from repro.persistence import codec
from repro.runtime.sharded import ShardedMonitor

REMOTE_SHARD_COUNTS = (2, 4)
BATCH = 8
LAM = 1e-3

#: The same algorithm matrix the procpool differential suite runs.
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


def _remote(n_shards, **kwargs):
    kwargs.setdefault("replicas", 0)
    return RemoteShardExecutor(n_shards, **kwargs)


def _run(config, queries, documents, n_shards, executor):
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


class TestRemoteShardEquivalence:
    """ShardedMonitor x {2, 4} remote shard hosts ≡ the serial runtime."""

    @pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
    @pytest.mark.parametrize("n_shards", REMOTE_SHARD_COUNTS)
    def test_batched_ingestion_matches_serial_runtime(
        self, overrides, n_shards, small_queries, small_documents
    ):
        exact = overrides["algorithm"] != "tps"
        label = f"{overrides}@{n_shards}/remote"
        serial, serial_batches = _run(
            _config(overrides), small_queries, small_documents, n_shards, "serial"
        )
        remote, remote_batches = _run(
            _config(overrides),
            small_queries,
            small_documents,
            n_shards,
            _remote(n_shards),
        )
        try:
            _assert_identical_state(serial, remote, small_queries, exact, label)
            if exact:
                assert remote_batches == serial_batches, label
            else:
                for want, got in zip(serial_batches, remote_batches):
                    assert sorted(u.query_id for u in got) == sorted(
                        u.query_id for u in want
                    ), label
            assert remote.statistics.documents == serial.statistics.documents
            assert (
                remote.statistics.result_updates == serial.statistics.result_updates
            )
        finally:
            remote.close()
            serial.close()

    def test_per_event_ingestion_and_membership(self, small_queries, small_documents):
        config = {"algorithm": "mrio", "ub_variant": "tree"}
        serial = ShardedMonitor(_config(config), n_shards=2, executor="serial")
        remote = ShardedMonitor(_config(config), n_shards=2, executor=_remote(2))
        try:
            serial.register_queries(small_queries[:80])
            remote.register_queries(small_queries[:80])
            for document in small_documents[:20]:
                assert remote.process(document) == serial.process(document)
            # Mid-stream unregister + late registration, across the sockets.
            for query in small_queries[:80:9]:
                assert (
                    remote.unregister(query.query_id).query_id
                    == serial.unregister(query.query_id).query_id
                )
            serial.register_queries(small_queries[80:])
            remote.register_queries(small_queries[80:])
            for document in small_documents[20:]:
                assert remote.process(document) == serial.process(document)
            assert remote.num_queries == serial.num_queries
            assert remote.all_results() == serial.all_results()
        finally:
            remote.close()
            serial.close()


class TestWireAccountingAndDescribe:
    def test_transport_and_replication_surface_in_describe(self):
        executor = _remote(2, replicas=1)
        remote = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        serial = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor="serial"
        )
        try:
            info = remote.describe()
            assert info["transport"] == "socket"
            assert info["replication"]["replicas"] == 1
            assert set(info["replication"]["applied_lsn"]) == {0, 1}
            assert serial.describe()["transport"] is None
            assert serial.describe()["replication"] is None
            with pytest.raises(ConfigurationError):
                serial.replication_health()
            with pytest.raises(ConfigurationError):
                serial.check_health()
        finally:
            remote.close()
            serial.close()

    def test_batch_frames_are_shared_and_counted(self, small_queries, small_documents):
        executor = _remote(2)
        monitor = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=2, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            batches = 0
            for start in range(0, len(small_documents), BATCH):
                monitor.process_batch(small_documents[start : start + BATCH])
                batches += 1
            # One encode per fan-out (batches/events counted once), the
            # payload billed once per socket it was written to.
            assert executor.stats.batches == batches
            assert executor.stats.events == len(small_documents)
            assert executor.stats.payload_pipe_bytes > 0
            assert executor.stats.payload_pipe_bytes % 2 == 0  # 2 identical writes
            assert executor.stats.reply_bytes > 0
        finally:
            monitor.close()


class TestFailureSemantics:
    def test_stale_document_rejected_identically_without_failover(
        self, small_queries, small_documents
    ):
        """A shard-raised error over a healthy connection is not a failover."""
        executor = _remote(2, replicas=1)
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
                with pytest.raises(StreamError):
                    target.process(stale)
                for document in tail:
                    target.process(document)
            _assert_identical_state(reference, monitor, small_queries, label="remote")
            assert monitor.statistics.documents == reference.statistics.documents
            summary = monitor.replication_summary
            assert summary is not None and summary["failovers"] == 0
        finally:
            monitor.close()
            reference.close()

    def test_misconfigured_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            RemoteShardExecutor(0)
        with pytest.raises(ConfigurationError):
            RemoteShardExecutor(2, replicas=-1)
        with pytest.raises(ConfigurationError):
            RemoteShardExecutor(2, replicas=1, min_replicas=2)
        with pytest.raises(ConfigurationError):
            RemoteShardExecutor(2, max_lag_records=-1)


class TestShardHostRole:
    """A hand-started :class:`ShardHost` answers the control protocol."""

    def test_shard_host_speaks_the_control_protocol(self):
        ready = threading.Event()
        address = {}

        def on_ready(bound):
            address["addr"] = tuple(bound)
            ready.set()

        thread = threading.Thread(
            target=ShardHost(0, MonitorConfig(algorithm="mrio", lam=LAM)).serve,
            kwargs={"on_ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10), "shard host never reported its address"
        sock = FrameSocket.connect(address["addr"], timeout=10)
        try:
            sock.send_bytes(codec.pack_frame({"r": "ctl"}))
            sock.send_bytes(codec.pack_frame({"c": "ping"}))
            header, tail = codec.unpack_frame(sock.recv_bytes())
            assert header["s"] == "ok"
            assert codec.decode_value(header["v"], tail) > 0  # the host's pid
            sock.send_bytes(codec.pack_frame({"c": "shutdown"}))
            codec.unpack_frame(sock.recv_bytes())
        finally:
            sock.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
