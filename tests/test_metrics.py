"""Unit tests for counters and run statistics."""

import json

import pytest

from repro.metrics.counters import EventCounters, ServiceCounters
from repro.metrics.runstats import RunStatistics, summarize_times


class TestEventCounters:
    def test_snapshot_and_reset(self):
        counters = EventCounters()
        counters.documents = 4
        counters.full_evaluations = 10
        snap = counters.snapshot()
        assert snap["documents"] == 4
        assert snap["full_evaluations"] == 10
        counters.reset()
        assert counters.documents == 0
        assert counters.snapshot()["full_evaluations"] == 0

    def test_per_document_averages(self):
        counters = EventCounters(documents=4, full_evaluations=10, iterations=8)
        per_doc = counters.per_document()
        assert per_doc["full_evaluations"] == pytest.approx(2.5)
        assert per_doc["iterations"] == pytest.approx(2.0)
        assert "documents" not in per_doc

    def test_per_document_with_zero_documents(self):
        assert EventCounters().per_document()["full_evaluations"] == 0.0

    def test_merge(self):
        a = EventCounters(documents=1, result_updates=2, elapsed_seconds=0.5)
        b = EventCounters(documents=2, result_updates=3, elapsed_seconds=1.0)
        assert a.merge(b) is a
        assert a.documents == 3
        assert a.result_updates == 5
        assert a.elapsed_seconds == pytest.approx(1.5)

    def test_iadd_is_merge(self):
        a = EventCounters(iterations=3, bound_computations=1)
        a += EventCounters(iterations=4, bound_computations=2, postings_scanned=7)
        assert a.iterations == 7
        assert a.bound_computations == 3
        assert a.postings_scanned == 7

    def test_merge_is_lossless_over_partitions(self):
        """Summing per-shard counters reconstructs the unsharded totals."""
        shards = [
            EventCounters(full_evaluations=i, iterations=2 * i, result_updates=i % 3)
            for i in range(1, 6)
        ]
        total = EventCounters.aggregate(shards)
        snap = total.snapshot()
        for name in ("full_evaluations", "iterations", "result_updates"):
            assert snap[name] == sum(shard.snapshot()[name] for shard in shards)

    def test_snapshot_restore_roundtrip(self):
        original = EventCounters(
            documents=5,
            full_evaluations=7,
            iterations=11,
            postings_scanned=13,
            bound_computations=17,
            result_updates=19,
            elapsed_seconds=0.25,
        )
        restored = EventCounters()
        restored.restore(original.snapshot())
        assert restored == original

    def test_snapshot_wire_format(self):
        """snapshot() is the 'engine' section of the service stats op.

        The key set is a compatibility contract (see the snapshot
        docstring): exactly these seven keys, every value JSON-safe, and
        a JSON round-trip must restore() losslessly.
        """
        original = EventCounters(
            documents=5,
            full_evaluations=7,
            iterations=11,
            postings_scanned=13,
            bound_computations=17,
            result_updates=19,
            elapsed_seconds=0.1 + 0.2,  # an untidy float must survive
        )
        snap = original.snapshot()
        assert set(snap) == {
            "documents",
            "full_evaluations",
            "iterations",
            "postings_scanned",
            "bound_computations",
            "result_updates",
            "elapsed_seconds",
        }
        wire = json.loads(json.dumps(snap))
        assert wire == snap
        restored = EventCounters()
        restored.restore(wire)
        assert restored == original
        assert restored.elapsed_seconds == original.elapsed_seconds  # exact


class TestServiceCounters:
    WIRE_KEYS = {
        "subscribers_connected",
        "subscribers_disconnected",
        "subscribes",
        "attaches",
        "unsubscribes",
        "publishes",
        "documents_ingested",
        "batches_processed",
        "notifications_enqueued",
        "notifications_sent",
        "notifications_dropped",
        "slow_disconnects",
        "request_errors",
        "telemetry_scrapes",
        "failovers",
        "replication_lag_records",
        "replica_applied_lsns",
    }

    def test_snapshot_wire_format(self):
        counters = ServiceCounters(publishes=3, notifications_dropped=2)
        snap = counters.snapshot()
        assert set(snap) == self.WIRE_KEYS
        assert json.loads(json.dumps(snap)) == snap
        assert snap["publishes"] == 3
        assert snap["notifications_dropped"] == 2

    def test_snapshot_covers_every_field(self):
        """A field added to the dataclass must join the wire snapshot."""
        from dataclasses import fields

        assert {field.name for field in fields(ServiceCounters)} == self.WIRE_KEYS

    def test_reset(self):
        counters = ServiceCounters(subscribes=4, slow_disconnects=1)
        counters.replica_applied_lsns["0"] = 9
        counters.reset()
        assert counters == ServiceCounters()

    def test_adopt_replication(self):
        counters = ServiceCounters()
        counters.adopt_replication(None)  # non-cluster monitors: no-op
        assert counters.failovers == 0
        counters.adopt_replication(
            {
                "failovers": 2,
                "replication_lag_records": {0: 3, 1: 7},
                "applied_lsn": {0: 10, 1: 4},
            }
        )
        assert counters.failovers == 2
        assert counters.replication_lag_records == 7  # worst shard
        snap = counters.snapshot()
        assert snap["replica_applied_lsns"] == {"0": 10, "1": 4}
        assert json.loads(json.dumps(snap)) == snap


class TestRunStatistics:
    def test_summarize_times_empty(self):
        summary = summarize_times([])
        assert summary["count"] == 0
        assert summary["mean_ms"] == 0.0

    def test_summarize_times_values(self):
        summary = summarize_times([0.001, 0.002, 0.003])
        assert summary["count"] == 3
        assert summary["mean_ms"] == pytest.approx(2.0)
        assert summary["median_ms"] == pytest.approx(2.0)
        assert summary["max_ms"] == pytest.approx(3.0)
        assert summary["total_ms"] == pytest.approx(6.0)
        assert summary["p95_ms"] <= summary["max_ms"]

    def test_run_statistics_summary(self):
        run = RunStatistics(
            algorithm="mrio",
            num_queries=100,
            num_events=10,
            response_times=[0.001] * 10,
            counters={"full_evaluations": 5.0},
            extra={"note": 1.0},
        )
        assert run.mean_response_ms == pytest.approx(1.0)
        assert run.median_response_ms == pytest.approx(1.0)
        assert run.p95_response_ms == pytest.approx(1.0)
        summary = run.summary()
        assert summary["algorithm"] == "mrio"
        assert summary["counter_full_evaluations"] == 5.0
        assert summary["note"] == 1.0

    def test_batch_response_times_surface_in_summary(self):
        run = RunStatistics(
            algorithm="mrio",
            num_queries=10,
            num_events=64,
            batch_response_times=[(32, 0.002), (32, 0.004)],
        )
        summary = run.summary()
        assert summary["batch_count"] == 2
        assert summary["batch_mean_ms"] == pytest.approx(3.0)
        assert summary["batch_max_ms"] == pytest.approx(4.0)
        assert summary["batch_mean_size"] == pytest.approx(32.0)

    def test_summary_without_batches_has_no_batch_keys(self):
        summary = RunStatistics("mrio", 1, 1, response_times=[0.001]).summary()
        assert not any(key.startswith("batch_") for key in summary)
