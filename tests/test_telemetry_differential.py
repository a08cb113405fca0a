"""Differential tests: merged telemetry across every executor flavour.

The cross-process telemetry contract mirrors the ``EventCounters`` one:
whatever the deployment shape — serial in-process shards, a thread pool,
forked worker processes, or socket-served shard hosts — the router's merged
telemetry must be the telemetry of the combined per-shard sample streams.
Wall-clock *values* are nondeterministic, so the assertions pin what is
structural and partition-invariant:

* ``engine.batch`` count = batches x shards (every shard times every
  fan-out lap, including empty partitions);
* ``engine.event`` count = documents processed through the per-event
  path (batched ingestion records whole-batch laps instead);
* totals/min/max envelopes are consistent with the per-stream counts.
"""

from __future__ import annotations

import pytest

from repro.cluster.remote import RemoteShardExecutor
from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.obs.histogram import LatencyHistogram
from repro.obs.telemetry import Telemetry
from repro.runtime.sharded import ShardedMonitor

BATCH = 8
LAM = 1e-3
EXECUTORS = ("serial", "processes")


def _config(**extra) -> MonitorConfig:
    return MonitorConfig(algorithm="mrio", lam=LAM, telemetry=True, **extra)


def _drive(monitor, documents):
    batches = 0
    for start in range(0, len(documents), BATCH):
        monitor.process_batch(documents[start : start + BATCH])
        batches += 1
    return batches


def _histogram(snapshot, name) -> LatencyHistogram:
    assert name in snapshot["histograms"], sorted(snapshot["histograms"])
    return LatencyHistogram.from_snapshot(snapshot["histograms"][name])


class TestMergedTelemetryAcrossExecutors:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_structural_counts_are_partition_invariant(
        self, executor, n_shards, small_queries, small_documents
    ):
        monitor = ShardedMonitor(
            _config(), n_shards=n_shards, executor=executor
        )
        try:
            monitor.register_queries(small_queries)
            batches = _drive(monitor, small_documents)
            snapshot = monitor.telemetry_snapshot()
        finally:
            monitor.close()
        batch_hist = _histogram(snapshot, "engine.batch")
        assert batch_hist.count == batches * n_shards
        assert 0.0 <= batch_hist.minimum <= batch_hist.maximum
        assert batch_hist.total == pytest.approx(
            batch_hist.mean * batch_hist.count
        )

    def test_merged_equals_sum_of_shard_snapshots(
        self, small_queries, small_documents
    ):
        """The router-side merge is exactly LatencyHistogram.aggregate of
        the per-shard snapshots — no resampling, no loss."""
        monitor = ShardedMonitor(_config(), n_shards=3, executor="serial")
        try:
            monitor.register_queries(small_queries)
            _drive(monitor, small_documents)
            per_shard = [shard.telemetry_snapshot() for shard in monitor.shards]
            merged = monitor.telemetry_snapshot()
        finally:
            monitor.close()
        by_hand = Telemetry.merge_snapshots(per_shard)
        assert merged["histograms"] == by_hand["histograms"]
        assert merged["counters"] == by_hand["counters"]

    def test_telemetry_disabled_is_empty_and_free(
        self, small_queries, small_documents
    ):
        monitor = ShardedMonitor(
            MonitorConfig(algorithm="mrio", lam=LAM), n_shards=2, executor="serial"
        )
        try:
            monitor.register_queries(small_queries)
            _drive(monitor, small_documents)
            snapshot = monitor.telemetry_snapshot()
        finally:
            monitor.close()
        assert snapshot.get("histograms", {}) == {}

    def test_reset_statistics_clears_telemetry(
        self, small_queries, small_documents
    ):
        monitor = ShardedMonitor(_config(), n_shards=2, executor="serial")
        half = len(small_documents) // 2
        try:
            monitor.register_queries(small_queries)
            _drive(monitor, small_documents[:half])
            monitor.reset_statistics()
            batches = _drive(monitor, small_documents[half:])
            snapshot = monitor.telemetry_snapshot()
        finally:
            monitor.close()
        assert _histogram(snapshot, "engine.batch").count == batches * 2


class TestSingleMonitorTelemetry:
    def test_continuous_monitor_records_laps(self, small_queries, small_documents):
        monitor = ContinuousMonitor(_config())
        monitor.register_queries(small_queries)
        batches = _drive(monitor, small_documents[:-BATCH])
        for document in small_documents[-BATCH:]:  # per-event path
            monitor.process(document)
        snapshot = monitor.telemetry_snapshot()
        assert _histogram(snapshot, "engine.batch").count == batches
        assert _histogram(snapshot, "engine.event").count == BATCH


class TestRemoteExecutorTelemetry:
    def test_remote_shards_answer_the_telemetry_command(
        self, small_queries, small_documents
    ):
        """Socket-served shard hosts merge losslessly like local shards,
        and the executor contributes its cluster gauges."""
        monitor = ShardedMonitor(
            _config(),
            n_shards=2,
            executor=RemoteShardExecutor(2, replicas=0),
        )
        try:
            monitor.register_queries(small_queries)
            batches = _drive(monitor, small_documents)
            snapshot = monitor.telemetry_snapshot()
        finally:
            monitor.close()
        assert _histogram(snapshot, "engine.batch").count == batches * 2
        assert snapshot["gauges"]["cluster.failovers"] == 0.0
        assert "cluster.replication_lag_records" in snapshot["gauges"]
        # replicas=0 spawns no WAL, hence no journal timings.
        assert "cluster.journal" not in snapshot["histograms"]

    def test_journaling_hosts_time_journal_and_replication(
        self, small_queries, small_documents
    ):
        monitor = ShardedMonitor(
            _config(),
            n_shards=2,
            executor=RemoteShardExecutor(2, replicas=1),
        )
        try:
            monitor.register_queries(small_queries)
            batches = _drive(monitor, small_documents)
            snapshot = monitor.telemetry_snapshot()
        finally:
            monitor.close()
        journal = _histogram(snapshot, "cluster.journal")
        ack = _histogram(snapshot, "cluster.replication_ack")
        # Every journaled mutation waits for its replication ack, so the
        # two timers see the same stream; each batch journals on each of
        # the two primaries, plus one record per registered query.
        assert journal.count == ack.count
        assert journal.count >= batches * 2
        assert "wal.flush" in snapshot["histograms"]
